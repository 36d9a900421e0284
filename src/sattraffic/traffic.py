"""Terminal-to-beam association and the per-hour traffic matrix.

Every terminal that falls inside at least one beam footprint becomes a row;
terminals covered by several overlapping footprints go to the beam with the
highest interpolated gain at their location. Terminals outside all
footprints are counted, not dropped silently and not forced into a beam.
"""

from dataclasses import dataclass

import numpy as np

from .geo import GeoPoint
from .geometry import polygon_contains_many
from .ingest import TrafficType
from .ioutil import fmt_float, write_csv
from .linkbudget import NearestSamples


@dataclass(frozen=True)
class TrafficRecord:
    """One identified user: serving beam, location, traffic type, demand."""

    user: int
    beam: int
    location: GeoPoint
    type: TrafficType
    demand_mbps: float

    def __post_init__(self):
        if self.user < 1:
            raise ValueError("user indices start at 1")
        if self.beam < 1:
            raise ValueError("beam ids start at 1")
        object.__setattr__(self, "type", TrafficType(self.type))
        if not self.demand_mbps >= 0.0:
            raise ValueError("demand must be non-negative")


@dataclass(frozen=True)
class TrafficMatrix:
    """Association result: user rows, the beam count, and the excluded tally."""

    rows: tuple
    beams: int
    excluded: int

    def __post_init__(self):
        object.__setattr__(self, "rows", tuple(self.rows))
        if self.beams < 1:
            raise ValueError("a traffic matrix needs at least one beam")
        if self.excluded < 0:
            raise ValueError("excluded count cannot be negative")
        for i, row in enumerate(self.rows):
            if row.user != i + 1:
                raise ValueError("user indices must be 1..N in row order")
            if row.beam > self.beams:
                raise ValueError(f"row {i + 1} names beam {row.beam} of {self.beams}")

    @property
    def n_users(self):
        return len(self.rows)


def build_traffic_matrix(footprints, pattern, fss, aero, maritime):
    """Assign terminals to serving beams and assemble the traffic matrix.

    Rows keep the input order (FSS block, then aeronautical, then maritime)
    and user indices are dense 1..N over the covered terminals. Overlaps are
    resolved toward the containing beam with the highest interpolated gain
    at the terminal, ties toward the lowest beam id, so the assignment is a
    pure function of location and the result is shuffle-invariant.

    The grid search behind those gains runs once per distinct location of
    the contested terminals and serves every beam: each gain blends the
    three nearest samples, ranked by central angle with distance ties going
    to the lower sample index.
    """
    footprints = list(footprints)
    if not footprints:
        raise ValueError("at least one footprint is required")
    seen = set()
    for fp in footprints:
        pattern.check_beam(fp.beam_id)
        if fp.beam_id in seen:
            raise ValueError(f"duplicate footprint for beam {fp.beam_id}")
        seen.add(fp.beam_id)

    terminals = list(fss) + list(aero) + list(maritime)
    lats = np.array([t.location.lat_deg for t in terminals])
    lons = np.array([t.location.lon_deg for t in terminals])

    inside = {
        fp.beam_id: polygon_contains_many(fp.border, lats, lons)
        for fp in footprints
    }
    beam_ids = sorted(inside)
    counts = np.zeros(len(terminals), dtype=np.int64)
    for mask in inside.values():
        counts += mask

    # gain comparisons are only needed where footprints overlap
    contested = np.flatnonzero(counts > 1)
    index = NearestSamples(
        lats[contested], lons[contested], pattern.lat_deg, pattern.lon_deg
    )
    best_gain = np.full(len(contested), -np.inf)
    chosen = np.zeros(len(terminals), dtype=np.int64)
    for j in beam_ids:
        sel = inside[j][contested]
        if not sel.any():
            continue
        gain = index.gain(pattern.gain_db[:, j - 1])[sel]
        better = gain > best_gain[sel]
        idx = np.flatnonzero(sel)[better]
        best_gain[idx] = gain[better]
        chosen[contested[idx]] = j
    for j in beam_ids:
        sole = inside[j] & (counts == 1)
        chosen[sole] = j

    rows = []
    excluded = 0
    for i, term in enumerate(terminals):
        if counts[i] == 0:
            excluded += 1
            continue
        rows.append(
            TrafficRecord(
                user=len(rows) + 1,
                beam=int(chosen[i]),
                location=term.location,
                type=term.type,
                demand_mbps=term.demand_mbps,
            )
        )
    return TrafficMatrix(rows=tuple(rows), beams=pattern.beams, excluded=excluded)


def per_beam_demand(T):
    """Demand totals in Mbps per beam, split by traffic type.

    Returns an array of shape (beams, 3) with columns FSS, aeronautical,
    maritime, accumulated in row order.
    """
    totals = np.zeros((T.beams, 3))
    for row in T.rows:
        totals[row.beam - 1, int(row.type) - 1] += row.demand_mbps
    return totals


TRAFFIC_HEADER = "user,beam,lat_deg,lon_deg,type,demand_mbps"


def write_traffic_csv(T, path):
    """One CSV row per user in matrix order, canonical float formatting."""
    def rows():
        for r in T.rows:
            yield (
                str(r.user),
                str(r.beam),
                fmt_float(r.location.lat_deg),
                fmt_float(r.location.lon_deg),
                str(int(r.type)),
                fmt_float(r.demand_mbps),
            )

    write_csv(path, TRAFFIC_HEADER.split(","), rows())
