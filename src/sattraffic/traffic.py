"""Terminal-to-beam association and the per-hour traffic matrix.

Every terminal that falls inside at least one beam footprint becomes a user;
terminals covered by several overlapping footprints go to the beam with the
highest interpolated gain at their location. Terminals outside all
footprints are counted, not dropped silently and not forced into a beam.
The matrix is a set of read-only columns, one row per user, so user n is
row n - 1 and the consumers read whole columns.
"""

from dataclasses import dataclass

import numpy as np

from .geometry import polygon_contains_many
from .ioutil import write_table
from .linkbudget import NearestSamples

# column name, dtype
_COLUMNS = (
    ("beam", np.int64),
    ("lat_deg", float),
    ("lon_deg", float),
    ("type", np.int64),
    ("demand_mbps", float),
)


@dataclass(frozen=True)
class TrafficMatrix:
    """Association result as columns: row n - 1 holds user n.

    beam is the 1-based serving beam and type the TrafficType value of each
    user; beams is the pattern's beam count and excluded the number of
    terminals outside every footprint.
    """

    beam: np.ndarray
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    type: np.ndarray
    demand_mbps: np.ndarray
    beams: int
    excluded: int

    def __post_init__(self):
        if self.beams < 1:
            raise ValueError("a traffic matrix needs at least one beam")
        if self.excluded < 0:
            raise ValueError("excluded count cannot be negative")
        n = len(self.beam)
        for name, dtype in _COLUMNS:
            arr = np.array(getattr(self, name), dtype=dtype)
            if arr.shape != (n,):
                raise ValueError(f"{name} must hold one value per user")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)
        bad = np.flatnonzero(
            (self.beam < 1) | (self.beam > self.beams)
            | (self.type < 1) | (self.type > 3) | ~(self.demand_mbps >= 0.0)
        )
        if bad.size:
            i = bad[0]
            raise ValueError(
                f"user {i + 1} has beam {self.beam[i]} of {self.beams}, type "
                f"{self.type[i]} or demand {self.demand_mbps[i]} out of range"
            )

    @property
    def n_users(self):
        return len(self.beam)


def build_traffic_matrix(footprints, pattern, fss, aero, maritime):
    """Assign terminals to serving beams and assemble the traffic matrix.

    Rows are the covered terminals in input order (FSS block, then
    aeronautical, then maritime); uncovered ones are only counted. Overlaps are
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

    keep = counts > 0
    types = np.array([t.type for t in terminals], dtype=np.int64)
    demand = np.array([t.demand_mbps for t in terminals])
    return TrafficMatrix(
        beam=chosen[keep],
        lat_deg=lats[keep],
        lon_deg=lons[keep],
        type=types[keep],
        demand_mbps=demand[keep],
        beams=pattern.beams,
        excluded=len(terminals) - int(np.count_nonzero(keep)),
    )


def per_beam_demand(T):
    """Demand totals in Mbps per beam, split by traffic type.

    Returns an array of shape (beams, 3) with columns FSS, aeronautical,
    maritime. np.add.at is unbuffered and adds in row order, so each total
    is the row-order sum.
    """
    totals = np.zeros((T.beams, 3))
    np.add.at(totals, (T.beam - 1, T.type - 1), T.demand_mbps)
    return totals


TRAFFIC_HEADER = "user,beam,lat_deg,lon_deg,type,demand_mbps"


def write_traffic_csv(T, path):
    """One CSV row per user in matrix order, canonical float formatting."""
    def block(lo, hi):
        return (
            np.arange(lo + 1, hi + 1), T.beam[lo:hi], T.lat_deg[lo:hi],
            T.lon_deg[lo:hi], T.type[lo:hi], T.demand_mbps[lo:hi],
        )

    write_table(path, TRAFFIC_HEADER, T.n_users, block)
