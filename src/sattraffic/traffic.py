"""Terminal-to-beam association and the per-hour traffic matrix.

Every terminal that falls inside at least one beam footprint becomes a user;
terminals covered by several overlapping footprints go to the beam with the
highest interpolated gain at their location. Terminals outside all
footprints are counted, not dropped silently and not forced into a beam.
The terminals arrive as columns (TerminalBlock) and the matrix is a set of
read-only columns, one row per user, so user n is row n - 1 and the
consumers read whole columns.
"""

from dataclasses import dataclass

import numpy as np

from .geo import LATITUDE
from .geometry import polygon_contains_many
from .ingest import TYPES, TerminalBlock
from .ioutil import FINITE, frozen, whole, write_table
from .linkbudget import NearestSamples


@dataclass(frozen=True)
class TrafficMatrix:
    """Association result as columns: row n - 1 holds user n.

    beam is the 1-based serving beam and type the TrafficType value of each
    user; row is the user's 0-based row among the terminals the matrix was
    built from, and defaults to the user's own row. beams is the pattern's
    beam count and excluded the number of terminals outside every footprint.
    Each beam lies in [1, beams]; the other columns hold what a block's do.
    """

    beam: np.ndarray
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    type: np.ndarray
    demand_mbps: np.ndarray
    beams: int
    excluded: int
    row: np.ndarray = None

    def __post_init__(self):
        if self.row is None:
            object.__setattr__(self, "row", np.arange(len(self.beam)))
        object.__setattr__(self, "beams", whole(self.beams, "beams", 1))
        object.__setattr__(self, "excluded", whole(self.excluded, "excluded", 0))
        n = len(self.beam)
        for name, dtype, bounds in (
            ("beam", np.int64, (1, self.beams)), ("lat_deg", float, LATITUDE),
            ("lon_deg", float, FINITE), ("type", np.int64, TYPES),
            ("demand_mbps", float, (0,)), ("row", np.int64, ()),
        ):
            arr = frozen(getattr(self, name), dtype, name, *bounds)
            if arr.shape != (n,):
                raise ValueError(f"{name} must hold one value per user")
            object.__setattr__(self, name, arr)

    @property
    def n_users(self):
        return len(self.beam)


def build_traffic_matrix(footprints, pattern, fss, aero, maritime):
    """Assign terminals to serving beams and assemble the traffic matrix.

    fss, aero and maritime are TerminalBlocks or sequences of Terminals.
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

    blocks = [TerminalBlock.of(part) for part in (fss, aero, maritime)]
    filled = [block for block in blocks if len(block)]
    # a lone non-empty block is associated as it is, not copied
    terminals = filled[0] if len(filled) == 1 else TerminalBlock.concat(*blocks)
    lats, lons = terminals.lat_deg, terminals.lon_deg

    # a row inside one footprint keeps the beam written here
    counts = np.zeros(len(terminals), dtype=np.int64)
    chosen = np.zeros(len(terminals), dtype=np.int64)
    contained = []
    for fp in sorted(footprints, key=lambda fp: fp.beam_id):
        rows = np.flatnonzero(polygon_contains_many(fp.border, lats, lons))
        counts[rows] += 1
        chosen[rows] = fp.beam_id
        contained.append((fp.beam_id, rows))

    # gain comparisons are only needed where footprints overlap
    contested = np.flatnonzero(counts > 1)
    index = NearestSamples(
        lats[contested], lons[contested], pattern.lat_deg, pattern.lon_deg
    )
    best_gain = np.full(len(contested), -np.inf)
    for j, rows in contained:
        rows = rows[counts[rows] > 1]
        if not rows.size:
            continue
        at = np.searchsorted(contested, rows)
        gain = index.gain(pattern.gain_db[:, j - 1])[at]
        better = gain > best_gain[at]
        best_gain[at[better]] = gain[better]
        chosen[rows[better]] = j

    keep = np.flatnonzero(counts)
    return TrafficMatrix(
        beam=chosen[keep],
        lat_deg=lats[keep],
        lon_deg=lons[keep],
        type=terminals.type[keep],
        demand_mbps=terminals.demand_mbps[keep],
        beams=pattern.beams,
        excluded=len(terminals) - len(keep),
        row=keep,
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
