"""Column traffic matrix against the row-per-user matrix it replaced.

`build_traffic_matrix_rows`, `per_beam_demand_rows` and
`write_traffic_csv_rows` are the former implementations: one frozen
TrafficRecord per served user, holding its GeoPoint, a per-row check that
user indices run 1..N, and consumers that loop over the records. The column
matrix must give the same users, the same per-beam totals and the same CSV
bytes, bit for bit.
"""

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattraffic.geo import GeoPoint
from sattraffic.geometry import point_in_polygon, polygon_contains_many
from sattraffic.ingest import Terminal, TrafficType
from sattraffic.ioutil import fmt_float
from sattraffic.pattern import BeamPattern, all_footprints
from sattraffic.traffic import (
    TRAFFIC_HEADER,
    build_traffic_matrix,
    per_beam_demand,
    write_traffic_csv,
)

from oracles import idw_gain, write_csv


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
class RowTrafficMatrix:
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


def build_traffic_matrix_rows(footprints, pattern, fss, aero, maritime):
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

    contested = np.flatnonzero(counts > 1)
    best_gain = np.full(len(contested), -np.inf)
    chosen = np.zeros(len(terminals), dtype=np.int64)
    for j in beam_ids:
        sel = inside[j][contested]
        if not sel.any():
            continue
        gain, _ = idw_gain(
            lats[contested][sel], lons[contested][sel],
            pattern.lat_deg, pattern.lon_deg, pattern.gain_db[:, j - 1],
        )
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
    return RowTrafficMatrix(rows=tuple(rows), beams=pattern.beams, excluded=excluded)


def per_beam_demand_rows(T):
    totals = np.zeros((T.beams, 3))
    for row in T.rows:
        totals[row.beam - 1, int(row.type) - 1] += row.demand_mbps
    return totals


def write_traffic_csv_rows(T, path):
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


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def gaussian_pattern(centres, lat_max=1.6, pitch=0.2):
    """Beams 3 dB down 1.2 degrees from their (lat, lon) centres, on a grid
    from lat -1.6 to lat_max and lon -0.8 to 4.2."""
    lats = np.arange(-1.6, lat_max + 1e-9, pitch)
    lons = np.arange(-0.8, 4.2 + 1e-9, pitch)
    glat = np.repeat(lats, len(lons))
    glon = np.tile(lons, len(lats))
    gain = np.column_stack([
        50.0 - 3.0 * ((glat - clat) ** 2 + (glon - clon) ** 2) / 1.2**2
        for clat, clon in centres
    ])
    return BeamPattern(glat, glon, gain)


def gaussian_pair_pattern(pitch=0.2):
    """Two beams whose footprints overlap around lon 1.7."""
    return gaussian_pattern(((0.0, 1.0), (0.0, 2.4)), pitch=pitch)


@pytest.fixture(scope="module")
def scene():
    pattern = gaussian_pair_pattern()
    return pattern, all_footprints(pattern)


def assert_matches_rows(scene, tmp_path, fss, aero, maritime):
    pattern, fps = scene
    got = build_traffic_matrix(fps, pattern, fss, aero, maritime)
    want = build_traffic_matrix_rows(fps, pattern, fss, aero, maritime)
    assert (got.n_users, got.excluded, got.beams) == (want.n_users, want.excluded, want.beams)
    assert isinstance(got.excluded, int)
    assert np.array_equal(got.beam, [r.beam for r in want.rows])
    assert np.array_equal(got.type, [int(r.type) for r in want.rows])
    assert np.array_equal(bits(got.lat_deg), bits([r.location.lat_deg for r in want.rows]))
    assert np.array_equal(bits(got.lon_deg), bits([r.location.lon_deg for r in want.rows]))
    assert np.array_equal(bits(got.demand_mbps), bits([r.demand_mbps for r in want.rows]))
    assert np.array_equal(bits(per_beam_demand(got)), bits(per_beam_demand_rows(want)))
    a, b = tmp_path / "columns.csv", tmp_path / "rows.csv"
    write_traffic_csv(got, a)
    write_traffic_csv_rows(want, b)
    assert a.read_bytes() == b.read_bytes()
    return got


# on and between the two overlapping footprints and beyond both, signed zeros
# included; demands whose per-beam sum depends on the order of addition
coordinates = st.tuples(
    st.one_of(st.sampled_from((0.0, -0.0, 0.5, -0.5)), st.floats(-2.0, 2.0)),
    st.one_of(st.sampled_from((0.0, -0.0, 1.0, 1.7, 2.4)), st.floats(-1.2, 4.6)),
)
demands = st.one_of(
    st.sampled_from((0.1, 1e-17, 1e16, 0.0, 2.0)),
    st.floats(0.0, 1e6),
)
specs = st.lists(st.tuples(coordinates, demands), max_size=25)


def terminals(kind, items):
    return [
        Terminal(f"{kind.name}{i}", GeoPoint(lat, lon), kind, demand)
        for i, ((lat, lon), demand) in enumerate(items)
    ]


@settings(max_examples=150, deadline=None)
@given(fss=specs, aero=specs, maritime=specs, outside=st.booleans())
def test_columns_match_row_records(scene, tmp_path_factory, fss, aero, maritime, outside):
    blocks = [fss, aero, maritime]
    if outside:
        # 10 degrees north of both footprints
        blocks = [[((lat + 10.0, lon), d) for (lat, lon), d in b] for b in blocks]
    T = assert_matches_rows(
        scene, tmp_path_factory.mktemp("csv"),
        *(terminals(kind, b) for kind, b in zip(TrafficType, blocks)),
    )
    if outside:
        assert T.n_users == 0


def test_order_dependent_sums(scene, tmp_path):
    # in row order every 0.1 and 1e-17 is lost against 1e16; summed smallest
    # first they add up to ~6 before the 1e16 arrives
    items = [((0.0, 1.0), d) for d in [1e16] + [0.1, 1e-17] * 60]
    T = assert_matches_rows(scene, tmp_path, terminals(TrafficType.FSS, items), [], [])
    assert per_beam_demand(T)[0, 0] != sum(sorted(d for _, d in items))


def test_no_inputs(scene, tmp_path):
    T = assert_matches_rows(scene, tmp_path, [], [], [])
    assert (T.n_users, T.excluded) == (0, 0)
    assert (tmp_path / "columns.csv").read_text() == TRAFFIC_HEADER + "\n"


def test_every_terminal_excluded(scene, tmp_path):
    items = [((10.0, 1.0), 2.0), ((-0.0, -5.0), 3.0), ((0.0, 9.0), 4.0)]
    T = assert_matches_rows(
        scene, tmp_path, terminals(TrafficType.FSS, items),
        terminals(TrafficType.AERO, items), terminals(TrafficType.MARITIME, items),
    )
    assert (T.n_users, T.excluded) == (0, 9)
    assert not per_beam_demand(T).any()


def test_contested_terminals(scene, tmp_path):
    pattern, fps = scene
    items = [((lat, lon), 2.0) for lat in (-0.0, 0.0, 0.3) for lon in (1.6, 1.7, 1.8)]
    assert all(
        point_in_polygon(loc, fp.border) for loc, _ in items for fp in fps
    )
    T = assert_matches_rows(scene, tmp_path, [], terminals(TrafficType.AERO, items), [])
    assert T.n_users == len(items)


def crowded_pattern():
    """Four beams whose footprints all cover the area around (0.3, 1.7).

    Beams 2 and 4 have identical gain columns, so wherever both cover a
    point their interpolated gains tie exactly and beam 2 must win."""
    return gaussian_pattern(
        ((0.0, 1.0), (0.0, 2.4), (0.9, 1.7), (0.0, 2.4)), lat_max=2.6
    )


@pytest.fixture(scope="module")
def crowded():
    pattern = crowded_pattern()
    return pattern, all_footprints(pattern)


crowded_coordinates = st.tuples(
    st.one_of(st.sampled_from((0.0, -0.0, 0.2, 0.3, 0.9)), st.floats(-1.6, 2.6)),
    st.one_of(st.sampled_from((1.0, 1.7, 2.0, 2.4)), st.floats(-1.0, 4.4)),
)
crowded_specs = st.lists(st.tuples(crowded_coordinates, demands), max_size=25)


@settings(max_examples=150, deadline=None)
@given(fss=crowded_specs, aero=crowded_specs, maritime=crowded_specs,
       order=st.one_of(st.just((3, 2, 1, 0)), st.permutations(range(4))))
def test_columns_match_row_records_where_many_beams_overlap(
    crowded, tmp_path_factory, fss, aero, maritime, order
):
    pattern, fps = crowded
    assert_matches_rows(
        (pattern, [fps[i] for i in order]), tmp_path_factory.mktemp("csv"),
        *(terminals(kind, b) for kind, b in zip(TrafficType, (fss, aero, maritime))),
    )


def test_exact_gain_ties_go_to_the_lowest_beam_id(crowded, tmp_path):
    pattern, fps = crowded
    assert np.array_equal(pattern.gain_db[:, 1], pattern.gain_db[:, 3])
    # inside every footprint: beams 2 and 4 tie and beat beams 1 and 3, then
    # beam 3 wins over all four
    items = [((lat, lon), 1.0) for lat in (-0.0, 0.2) for lon in (1.9, 2.0)]
    items += [((0.9, 1.7), 1.0)]
    assert all(
        point_in_polygon(loc, fp.border) for loc, _ in items for fp in fps
    )
    # inside beams 2, 3 and 4 only, won by beam 3
    items += [((0.5, 2.1), 1.0)]
    assert [point_in_polygon((0.5, 2.1), fp.border) for fp in fps] == [
        False, True, True, True
    ]
    T = assert_matches_rows(
        (pattern, fps[::-1]), tmp_path, terminals(TrafficType.FSS, items), [], []
    )
    assert T.beam.tolist() == [2, 2, 2, 2, 3, 3]
