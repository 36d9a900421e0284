"""Association blends each beam's gain only at the contested rows it contains.

NearestSamples.gain blends at the points it is given. Association calls it
once per beam, in id order, at the beam's contested rows, and compares the
values. oracles.contested_gains_by_spread is the form it replaced: each
beam blended at every contested location and then kept at its own rows.
Both must give the same gains bit for bit, and so the same beams.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattraffic.geometry import Polygon
from sattraffic.ingest import (
    IngestConfig,
    TerminalBlock,
    load_aero,
    load_maritime,
    load_population,
    synth_generate,
)
from sattraffic.linkbudget import NearestSamples
from sattraffic.pattern import BeamFootprint, BeamPattern, all_footprints, parse_pattern
from sattraffic.traffic import build_traffic_matrix

from oracles import contested_gains_by_spread


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


@contextmanager
def recorded_blends():
    """Each NearestSamples.gain call as (beam, points, values)."""
    calls = []
    blend = NearestSamples.gain

    def recording(index, gains_db, beam, points):
        values = blend(index, gains_db, beam, points)
        calls.append((beam, np.array(points), values.copy()))
        return values

    with mock.patch.object(NearestSamples, "gain", recording):
        yield calls


def assert_matches_the_spread_blend(footprints, pattern, terminals):
    """Association's per-beam gains and beams equal the oracle's, and each
    contested (row, beam) pair is blended once. Returns the blend count."""
    with recorded_blends() as calls:
        T = build_traffic_matrix(footprints, pattern, terminals, [], [])
    per_beam, chosen = contested_gains_by_spread(footprints, pattern, terminals)
    assert [beam + 1 for beam, _, _ in calls] == [j for j, _, _ in per_beam]
    for (_, points, values), (_, rows, want) in zip(calls, per_beam):
        assert points.shape == rows.shape
        assert np.array_equal(bits(values), bits(want))
    beam_of_row = dict(zip(T.row.tolist(), T.beam.tolist()))
    assert {row: beam_of_row[row] for row in chosen} == chosen
    return sum(points.size for _, points, _ in calls)


def square(beam_id, lat0, lat1, lon0, lon1):
    border = Polygon(((lat0, lon0), (lat1, lon0), (lat1, lon1), (lat0, lon1)))
    return BeamFootprint(beam_id=beam_id, border=border, peak_gain_db=50.0)


# samples every 0.05 degrees, and one whose angle to the query
# (13.560000000000002, 50.08) rounds to zero beside the exact sample (13.56, 50.08)
GRID_LAT = np.append(np.repeat(np.round(np.arange(13.40, 13.71, 0.05), 2), 9),
                     [13.559999999999995, 13.56])
GRID_LON = np.append(np.tile(np.round(np.arange(49.90, 50.31, 0.05), 2), 7),
                     [50.08, 50.08])
# beams 1 and 2 overlap; beam 3 overlaps neither and contains one terminal
FOOTPRINTS = [
    square(1, 13.45, 13.65, 49.95, 50.20),
    square(2, 13.50, 13.70, 50.00, 50.25),
    square(3, 13.40, 13.44, 50.26, 50.30),
]
POINTS = [
    (13.55, 50.05), (13.60, 50.10),  # exact hits on grid samples
    (13.56, 50.08), (13.560000000000002, 50.08),  # an exact hit; zero distance
    (13.58, 50.13), (13.58, 50.13), (13.55, 50.05),  # repeated locations
    (13.42, 50.28),  # beam 3's only terminal
    (13.30, 50.00),  # outside every footprint
]


def pattern(gains):
    return BeamPattern(GRID_LAT, GRID_LON, gains)


def block(points):
    lat, lon = zip(*points) if points else ((), ())
    n = len(points)
    return TerminalBlock([f"t{i}" for i in range(n)], lat, lon, [1] * n, [1.0] * n)


def test_exact_hits_zero_distance_repeats_and_a_beam_without_contested_rows():
    index = NearestSamples(*zip(*POINTS[:4]), GRID_LAT, GRID_LON)
    # the three hits rank first and give their own gains; the zero-distance
    # query takes its first-ranked sample's
    hits = [np.flatnonzero((GRID_LAT == lat) & (GRID_LON == lon))[0]
            for lat, lon in POINTS[:3]]
    assert index.top_k[index.inverse[:3], 0].tolist() == hits
    assert index._zero[index.inverse].tolist() == [True] * 4
    by_sample = np.arange(2.0 * GRID_LAT.size).reshape(-1, 2)
    assert index.gain(by_sample, 1, index.inverse[:3]).tolist() == by_sample[hits, 1].tolist()
    gains = np.random.default_rng(3).uniform(30.0, 50.0, (GRID_LAT.size, 3))
    # seven contested rows, each in beams 1 and 2
    assert assert_matches_the_spread_blend(FOOTPRINTS, pattern(gains), block(POINTS)) == 14


def test_no_contested_row_blends_nothing():
    gains = np.full((GRID_LAT.size, 3), 40.0)
    assert assert_matches_the_spread_blend(
        FOOTPRINTS, pattern(gains), block([(13.42, 50.28), (13.47, 49.97)])) == 0


coordinate = st.tuples(st.floats(13.40, 13.70), st.floats(49.90, 50.30))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.one_of(coordinate, st.sampled_from(POINTS)), max_size=30), st.data())
def test_random_terminals(points, data):
    gains = np.array(data.draw(st.lists(
        st.floats(-10.0, 60.0), min_size=3 * GRID_LAT.size, max_size=3 * GRID_LAT.size,
    ))).reshape(-1, 3)
    assert_matches_the_spread_blend(FOOTPRINTS, pattern(gains), block(points))


# the benchmark's M inputs at its default seed: (kind, synth seed, parameters)
M_RECIPE = (
    ("pattern", 1, dict(beams=37, spacing_deg=1.5, radius3db_deg=1.0, pitch_deg=0.2)),
    ("population", 2, dict(cells=600, urban_fraction=0.15)),
    ("aero", 3, dict(flights=2000)),
    ("maritime", 4, dict(ships=1200)),
)


@pytest.fixture(scope="module")
def m_inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("m_inputs")
    for kind, seed, params in M_RECIPE:
        synth_generate(kind, params, seed, root / f"{kind}.csv")
    return root


def test_one_blend_per_contested_row_and_beam_on_m(m_inputs):
    pattern = parse_pattern(m_inputs / "pattern.csv")
    footprints = all_footprints(pattern)
    cfg = IngestConfig()
    terminals = TerminalBlock.concat(
        load_population(m_inputs / "population.csv", cfg),
        load_aero(m_inputs / "aero.csv", 9, cfg),
        load_maritime(m_inputs / "maritime.csv", 9, cfg),
    )
    per_beam, chosen = contested_gains_by_spread(footprints, pattern, terminals)
    assert (len(chosen), sum(rows.size for _, rows, _ in per_beam)) == (886, 1776)
    assert assert_matches_the_spread_blend(footprints, pattern, terminals) == 1776
