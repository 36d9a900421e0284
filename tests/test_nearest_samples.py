"""Shared nearest-sample index against the plain per-beam search it replaced.

`oracles.idw_gain` is the full-grid implementation that association and the
channel diagnostic used to run once per beam: a terminals x grid angle
matrix, an exact-coordinate override, and a stable sort of every row.
`oracles.argmax_nearest` is the channel's former nearest-sample pass. The
index scans only a latitude band of the grid per block of locations, and
must reproduce both bit for bit, with the band as shipped, narrow enough
that locations fall back to wider bands, and wider than the grid.
"""

import math
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattraffic import linkbudget
from sattraffic.linkbudget import NearestSamples, _cos_angles

from oracles import argmax_nearest, idw_gain, serving_gain_by_beam

# module constants of the band search, patched per run
BANDS = (
    {},
    {"_BAND_STEPS": 1e-12, "_BAND_ROWS": 1},
    {"_BAND_STEPS": 1e-12, "_BAND_ROWS": 3},
    {"_BAND_STEPS": 1e12},
)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_matches_oracle(lat, lon, glat, glon, gains):
    """Index and oracle agree exactly, with one block and with tiny blocks,
    and with every band setting."""
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    want_gain, want_idx = idw_gain(lat, lon, glat, glon, gains)
    want_near = argmax_nearest(lat, lon, glat, glon)
    blocks = (linkbudget._BLOCK_ELEMENTS, 1, 2 * len(glat) + 1)
    for block, band in product(blocks, BANDS):
        with mock.patch.multiple(linkbudget, _BLOCK_ELEMENTS=block, **band):
            index = NearestSamples(lat, lon, glat, glon)
        assert index.inverse.shape == (len(lat),)
        assert np.array_equal(index.nearest[index.inverse], want_near)
        assert np.array_equal(index.top_k[index.inverse], want_idx)
        assert np.array_equal(bits(index.gain(gains)), bits(want_gain))


def regular_grid(n_lat, n_lon, pitch, lat0=0.0, lon0=0.0):
    lats = lat0 + pitch * np.arange(n_lat)
    lons = lon0 + pitch * np.arange(n_lon)
    return np.repeat(lats, n_lon), np.tile(lons, n_lat)


coords = st.floats(-60.0, 60.0, allow_nan=False, width=64)
gain_values = st.floats(-40.0, 60.0, allow_nan=False)


@st.composite
def grid_and_queries(draw):
    n = draw(st.integers(1, 12))
    glat = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    glon = np.array(draw(st.lists(coords, min_size=n, max_size=n)))
    gains = np.array(draw(st.lists(gain_values, min_size=n, max_size=n)))
    points = []
    for _ in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from(("random", "hit", "repeat")))
        if kind == "hit":
            s = draw(st.integers(0, n - 1))
            points.append((glat[s], glon[s]))
        elif kind == "repeat" and points:
            points.append(points[draw(st.integers(0, len(points) - 1))])
        else:
            points.append((draw(coords), draw(coords)))
    lat = np.array([p[0] for p in points], dtype=float)
    lon = np.array([p[1] for p in points], dtype=float)
    return lat, lon, glat, glon, gains


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(grid_and_queries())
    def test_random_points_hits_and_repeats(self, case):
        assert_matches_oracle(*case)

    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(st.tuples(st.integers(-8, 8), st.integers(-8, 8)), max_size=12),
        st.sampled_from((0.5, 0.25, 0.125)),
        st.lists(gain_values, min_size=36, max_size=36),
    )
    def test_equidistant_ties_on_regular_grid(self, halves, pitch, gains):
        # half-pitch offsets put queries on cell edges and cell centers, where
        # two or four samples are exactly equidistant
        glat, glon = regular_grid(6, 6, pitch, lat0=-1.0, lon0=-1.0)
        lat = np.array([h[0] * pitch / 2.0 for h in halves])
        lon = np.array([h[1] * pitch / 2.0 for h in halves])
        assert_matches_oracle(lat, lon, glat, glon, np.array(gains))

    def test_ties_are_exercised(self):
        # a query on the equator midway between two samples: the ranking
        # must pick the lower index first, as the stable sort does
        glat, glon = regular_grid(3, 4, 0.5, lat0=-0.5)
        index = NearestSamples([0.0], [0.25], glat, glon)
        d = np.arccos(_cos_angles([0.0], [0.25], glat, glon))[0]
        first, second = index.top_k[0, :2]
        assert d[first] == d[second]
        assert first < second
        assert_matches_oracle([0.0, 0.25], [0.25, 0.25], glat, glon, np.arange(12.0))

    def test_coordinate_hit_ranks_first(self):
        # the coincident sample's angle rounds to 1.5e-8 while a neighbour a
        # few ulps away rounds to exactly zero; the hit must still rank first
        glat = np.array([13.56, 13.559999999999995, 13.6])
        glon = np.array([50.08, 50.08, 50.08])
        d = np.arccos(_cos_angles([13.56], [50.08], glat, glon))[0]
        assert d[0] > d[1] == 0.0
        index = NearestSamples([13.56], [50.08], glat, glon)
        assert list(index.top_k[0]) == [0, 1, 2]
        assert_matches_oracle([13.56], [50.08], glat, glon, np.array([40.0, 45.0, 30.0]))

    def test_signed_zero_coordinates(self):
        glat = np.array([0.0, -0.0, 0.5, 0.0])
        glon = np.array([-0.0, 0.0, 0.0, 0.5])
        lat = np.array([0.0, -0.0, 0.0, -0.0, 0.0])
        lon = np.array([0.0, 0.0, -0.0, -0.0, 0.0])
        index = NearestSamples(lat, lon, glat, glon)
        # four bit patterns, four locations; the repeat merges
        assert len(np.unique(index.inverse)) == 4
        assert_matches_oracle(lat, lon, glat, glon, np.array([40.0, 41.0, 42.0, 43.0]))

    @pytest.mark.parametrize("n", [1, 2])
    def test_tiny_grids(self, n):
        glat = np.array([0.0, 1.0][:n])
        glon = np.array([0.0, 1.0][:n])
        gains = np.array([40.0, 45.0][:n])
        lat = np.array([0.0, 0.5, 1.0, 3.0, 0.5])
        lon = np.array([0.0, 0.5, 1.0, -2.0, 0.5])
        assert NearestSamples(lat, lon, glat, glon).top_k.shape == (4, n)
        assert_matches_oracle(lat, lon, glat, glon, gains)

    def test_empty_query(self):
        glat, glon = regular_grid(3, 3, 0.5)
        index = NearestSamples([], [], glat, glon)
        assert index.nearest.shape == (0,)
        assert index.top_k.shape == (0, 3)
        assert index.gain(np.arange(9.0)).shape == (0,)
        assert_matches_oracle([], [], glat, glon, np.arange(9.0))

    def test_many_points_across_blocks(self):
        rng = np.random.default_rng(5)
        glat, glon = regular_grid(40, 50, 0.1, lat0=48.0, lon0=2.0)
        gains = rng.uniform(30.0, 50.0, glat.size)
        lat = np.round(rng.uniform(47.5, 52.5, 3000), 2)
        lon = np.round(rng.uniform(1.5, 7.5, 3000), 2)
        assert_matches_oracle(lat, lon, glat, glon, gains)

    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.integers(1, 12))
    def test_latitude_ties(self, data, n):
        # few distinct latitudes, so samples and queries share them and the
        # band edges fall on runs of equal latitudes
        lats = data.draw(st.lists(coords, min_size=1, max_size=3))
        glat = np.array(
            data.draw(st.lists(st.sampled_from(lats), min_size=n, max_size=n))
        )
        glon = np.array(data.draw(st.lists(coords, min_size=n, max_size=n)))
        gains = np.array(data.draw(st.lists(gain_values, min_size=n, max_size=n)))
        m = data.draw(st.integers(0, 8))
        lat = data.draw(st.lists(st.one_of(st.sampled_from(lats), coords),
                                 min_size=m, max_size=m))
        lon = data.draw(st.lists(coords, min_size=m, max_size=m))
        assert_matches_oracle(lat, lon, glat, glon, gains)

    def test_samples_on_the_poles(self):
        glat = np.repeat([-90.0, -89.5, 0.0, 89.5, 90.0], 4)
        glon = np.tile([-180.0, -90.0, 0.0, 90.0], 5)
        lat = np.array([90.0, 90.0, -90.0, 89.9, -89.9, 89.75, 0.0, 45.0])
        lon = np.array([0.0, 123.0, -180.0, 45.0, 170.0, -90.0, 0.0, 0.0])
        assert_matches_oracle(lat, lon, glat, glon, np.arange(20.0))

    def test_queries_on_the_antimeridian(self):
        glat, glon = regular_grid(5, 5, 0.5, lat0=-1.0, lon0=179.0)
        glon = np.where(glon >= 180.0, glon - 360.0, glon)
        lat = np.array([0.0, 0.1, -0.25, 1.0, 0.0, 0.3])
        lon = np.array([180.0, -180.0, 180.0, -180.0, 179.75, -179.75])
        assert_matches_oracle(lat, lon, glat, glon, np.linspace(30.0, 50.0, 25))

    def test_exact_hits(self):
        glat, glon = regular_grid(6, 6, 0.25, lat0=40.0, lon0=-3.0)
        picks = [0, 7, 7, 20, 35]
        lat = np.concatenate([glat[picks], [40.1, 40.5]])
        lon = np.concatenate([glon[picks], [-2.9, -2.5]])
        index = NearestSamples(lat, lon, glat, glon)
        assert list(index.nearest[index.inverse[:5]]) == picks
        assert list(index.top_k[index.inverse[:5], 0]) == picks
        assert_matches_oracle(lat, lon, glat, glon, np.arange(36.0))

    @pytest.mark.parametrize("beyond_rad", [0.0, 1e-9, 2e-8, 9e-8])
    def test_sample_just_beyond_the_band_edge(self, beyond_rad):
        # latitudes 0..10 one degree apart far off in longitude give a first
        # band of +-2 degrees; the nearest sample sits just above its edge
        glat = np.append(np.arange(11.0), 7.0 + math.degrees(beyond_rad))
        glon = np.append(np.full(11, 90.0), 0.0)
        gains = np.arange(12.0)
        index = NearestSamples([5.0], [0.0], glat, glon)
        assert index.nearest[0] == 11
        assert index.top_k[0, 0] == 11
        assert_matches_oracle([5.0], [0.0], glat, glon, gains)

    def test_sample_whose_angle_rounds_to_zero_beyond_the_band_edge(self):
        # on the equator a sample 1e-8 rad north of the query computes to
        # distance 0 and outranks three samples on the query's latitude by
        # index; a band that leaves it out must not settle the query
        glat = np.array([math.degrees(1e-8), 0.0, 0.0, 0.0, 1.0, -1.0, 2.0])
        glon = np.array([10.0, 10.0, 10.0 + 1e-8, 10.0 - 1e-8, 10.0, 10.0, 10.0])
        index = NearestSamples([0.0], [10.0], glat, glon)
        assert list(index.top_k[0]) == [0, 1, 2]
        assert_matches_oracle([0.0], [10.0], glat, glon, np.arange(7.0))

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            NearestSamples([0.0], [0.0], [], [])


def assert_gather_matches_the_loop(lat, lon, glat, glon, gains, serving):
    """gain with a beam per row is the per-beam loop's result, bit for bit."""
    index = NearestSamples(lat, lon, glat, glon)
    serving = np.asarray(serving, dtype=np.int64)
    want = serving_gain_by_beam(index, gains, serving)
    assert np.array_equal(bits(index.gain(gains, serving - 1)), bits(want))
    return index


class TestServingBeamGather:
    @settings(max_examples=100, deadline=None)
    @given(grid_and_queries(), st.integers(1, 4), st.data())
    def test_random_points_hits_and_repeats(self, case, beams, data):
        lat, lon, glat, glon, gains = case
        gains = np.stack([gains + 7.0 * b for b in range(beams)], axis=1)
        serving = data.draw(st.lists(st.integers(1, beams), min_size=lat.size,
                                     max_size=lat.size))
        assert_gather_matches_the_loop(lat, lon, glat, glon, gains, serving)

    def test_exact_hit_and_zero_distance(self):
        # query 0 sits on sample 0, beside a sample whose angle rounds to
        # zero; query 1 is that same neighbour's zero-distance case without
        # an exact hit; query 2 repeats query 0 under another beam
        glat = np.array([13.56, 13.559999999999995, 13.6, 13.5])
        glon = np.array([50.08, 50.08, 50.08, 50.08])
        lat, lon = [13.56, 13.560000000000002, 13.56], [50.08, 50.08, 50.08]
        gains = np.array([[40.0, 1.0], [45.0, 2.0], [30.0, 3.0], [20.0, 4.0]])
        index = assert_gather_matches_the_loop(lat, lon, glat, glon, gains, [1, 2, 2])
        assert index._has_eq[index.inverse].tolist() == [True, False, True]
        assert index._zero[index.inverse].tolist() == [True, True, True]
        assert index.gain(gains, [0, 1, 1]).tolist() == [40.0, 2.0, 1.0]

    def test_empty_query(self):
        glat, glon = regular_grid(2, 2, 0.5)
        index = NearestSamples([], [], glat, glon)
        assert index.gain(np.ones((4, 3)), np.empty(0, dtype=np.int64)).shape == (0,)


def test_distinct_locations_are_searched_once():
    glat, glon = regular_grid(4, 4, 0.5)
    calls = []

    def counting(lat, *rest):
        calls.append(len(lat))
        return _cos_angles(lat, *rest)

    with mock.patch.object(linkbudget, "_cos_angles", counting):
        NearestSamples([0.1, 0.2, 0.1, 0.1, 0.2], [0.3] * 5, glat, glon)
    assert sum(calls) == 2


def rows_scanned(lat, lon, glat, glon, **band):
    """How often each distinct query location was scanned, in input order."""
    scanned = []

    def counting(lat, *rest):
        scanned.extend(zip(np.asarray(lat).tolist(), rest[0].tolist()))
        return _cos_angles(lat, *rest)

    with mock.patch.object(linkbudget, "_cos_angles", counting), \
            mock.patch.multiple(linkbudget, _BLOCK_ELEMENTS=linkbudget._BLOCK_ELEMENTS,
                                **band):
        NearestSamples(lat, lon, glat, glon)
    return [scanned.count(point) for point in zip(lat, lon)]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.5, 52.25]), coords),
                min_size=1, max_size=60))
def test_band_half_width_matches_median_of_distinct_steps(lat):
    # the plain form: numpy's median of the steps between distinct latitudes
    steps = np.diff(np.unique(lat))
    want = linkbudget._BAND_STEPS * float(np.median(steps)) if steps.size else 180.0
    assert bits(linkbudget._band_half_width(np.sort(lat))) == bits(want)


@pytest.mark.parametrize("lat, want", [
    ([52.0], 180.0),
    ([52.0] * 5, 180.0),
    ([0.0, -0.0, 0.0], 180.0),
    ([1.0, 1.0, 2.0, 2.0, 2.0, 4.0], 2.0 * 1.5),
    ([1.0, 1.0, 2.0, 3.0, 3.0, 5.0], 2.0 * 1.0),
])
def test_band_half_width_of_single_and_repeated_latitudes(lat, want):
    assert linkbudget._band_half_width(np.sort(lat)) == want


def test_narrow_band_makes_every_location_fall_back():
    glat, glon = regular_grid(8, 8, 0.5)
    lat = [0.1, 1.3, 2.2, 3.4, 0.1]
    lon = [0.3, 2.9, 1.1, 0.7, 0.3]
    # the shipped band and one wider than the grid settle each location in
    # one scan; the narrow band of one location rescans every location, and
    # with three a block's own latitude span settles some at once
    assert rows_scanned(lat, lon, glat, glon) == [1] * 5
    assert min(rows_scanned(lat, lon, glat, glon, **BANDS[1])) >= 2
    assert max(rows_scanned(lat, lon, glat, glon, **BANDS[2])) >= 2
    assert rows_scanned(lat, lon, glat, glon, **BANDS[3]) == [1] * 5
