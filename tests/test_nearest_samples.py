"""Shared nearest-sample index against the plain per-beam search it replaced.

`idw_gain` is the full-grid implementation that association and the channel
diagnostic used to run once per beam: a terminals x grid angle matrix, an
exact-coordinate override, and a stable sort of every row. `argmax_nearest`
is the channel's former nearest-sample pass. The index must reproduce both
bit for bit.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattraffic import linkbudget
from sattraffic.linkbudget import NearestSamples, _cos_angles


def idw_gain(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg, gains_db):
    """Inverse-distance-squared gain over the three nearest samples.

    A user sitting exactly on a sample takes that sample's gain. Distance
    ties are broken toward the lower sample index by the stable sort.
    Returns the gains and the three nearest sample indices per user.
    """
    lat_deg = np.asarray(lat_deg, dtype=float)
    lon_deg = np.asarray(lon_deg, dtype=float)
    grid_lat_deg = np.asarray(grid_lat_deg, dtype=float)
    grid_lon_deg = np.asarray(grid_lon_deg, dtype=float)
    gains_db = np.asarray(gains_db, dtype=float)
    k = min(3, len(gains_db))
    d = np.arccos(_cos_angles(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg))
    eq = (lat_deg[:, None] == grid_lat_deg) & (lon_deg[:, None] == grid_lon_deg)
    has_eq = eq.any(axis=1)
    eq_idx = np.argmax(eq, axis=1)
    d[eq] = 0.0
    idx = np.argsort(d, axis=1, kind="stable")[:, :k]
    dk = np.take_along_axis(d, idx, axis=1)
    gk = gains_db[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dk[:, :1] / dk) ** 2
    vals = np.sum(w * gk, axis=1) / np.sum(w, axis=1)
    zero = dk[:, 0] == 0.0
    vals[zero] = gk[zero, 0]
    vals[has_eq] = gains_db[eq_idx[has_eq]]
    return vals, idx


def argmax_nearest(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg):
    t = _cos_angles(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg)
    return np.argmax(t, axis=1)


def bits(a):
    return np.ascontiguousarray(a, dtype=float).view(np.int64)


def assert_matches_oracle(lat, lon, glat, glon, gains):
    """Index and oracle agree exactly, with one block and with tiny blocks."""
    lat = np.asarray(lat, dtype=float)
    lon = np.asarray(lon, dtype=float)
    want_gain, want_idx = idw_gain(lat, lon, glat, glon, gains)
    want_near = argmax_nearest(lat, lon, glat, glon)
    for block in (linkbudget._BLOCK_ELEMENTS, 1, 2 * len(glat) + 1):
        with mock.patch.object(linkbudget, "_BLOCK_ELEMENTS", block):
            index = NearestSamples(lat, lon, glat, glon)
        assert index.nearest.shape == (len(lat),)
        assert np.array_equal(index.nearest, want_near)
        assert np.array_equal(index.top_k, want_idx)
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
        assert NearestSamples(lat, lon, glat, glon).top_k.shape == (5, n)
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

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            NearestSamples([0.0], [0.0], [], [])


def test_distinct_locations_are_searched_once():
    glat, glon = regular_grid(4, 4, 0.5)
    calls = []

    def counting(lat, *rest):
        calls.append(len(lat))
        return _cos_angles(lat, *rest)

    with mock.patch.object(linkbudget, "_cos_angles", counting):
        NearestSamples([0.1, 0.2, 0.1, 0.1, 0.2], [0.3] * 5, glat, glon)
    assert sum(calls) == 2
