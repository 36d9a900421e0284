"""Channel-matrix assembly, gain interpolation, and interference sums."""

import cmath
import importlib
import json
import math
import pkgutil
import re
import tracemalloc

import numpy as np
import pytest

from sattraffic.analysis import interference_sweep
from sattraffic.errors import BelowHorizonError, MismatchedBeamsError, UnknownUserError
from sattraffic.geo import (
    GeoPoint,
    ScenarioConfig,
    great_circle_distance,
    path_loss_db,
    slant_range,
)
from sattraffic.ingest import (
    IngestConfig,
    TrafficType,
    load_aero,
    load_maritime,
    load_population,
    synth_aero,
    synth_maritime,
    synth_pattern,
    synth_population,
)
import sattraffic
from sattraffic import cli, geo, ioutil, linkbudget
from sattraffic.ioutil import fmt_float
from sattraffic.linkbudget import (
    CHANNEL_HEADER,
    ChannelMatrix,
    build_channel_matrix,
    channel_summary,
    interference,
    write_channel_csv,
)
from sattraffic.pattern import BeamPattern, all_footprints, parse_pattern
from sattraffic.traffic import TrafficMatrix, build_traffic_matrix

import oracles
from oracles import SamplePoint, beam_samples, interpolate_gain


def straight_line_channel(T, pattern, cfg):
    """Independent per-user recomputation of every channel entry.

    Scalar arithmetic throughout, scanning samples in index order, following
    the published distance, loss, and gain composition step by step.
    """
    R, h, lam = cfg.earth_radius_m, cfg.altitude_m, cfg.wavelength_m
    n_users, beams = T.n_users, pattern.beams
    entries = np.zeros((n_users, beams), dtype=complex)
    nearest = np.zeros((n_users, beams), dtype=int)
    coeff = pattern.coefficients
    for n, loc in enumerate(zip(T.lat_deg.tolist(), T.lon_deg.tolist())):
        user = GeoPoint(*loc)
        q = R / (R + h)
        t = (
            math.cos(math.radians(cfg.sat_lon_deg - user.lon_deg))
            * math.cos(math.radians(cfg.sat_lat_deg))
            * math.cos(math.radians(user.lat_deg))
            + math.sin(math.radians(cfg.sat_lat_deg))
            * math.sin(math.radians(user.lat_deg))
        )
        t = max(-1.0, min(1.0, t))
        d = (R + h) * math.sqrt(1.0 + q * q - 2.0 * q * t)
        pl = 20.0 * math.log10(4.0 * math.pi * d / lam)
        phase = 2.0 * math.pi * math.fmod(d, lam) / lam
        for j in range(beams):
            best_d, best_s = math.inf, -1
            for s in range(pattern.samples_per_beam):
                ds = great_circle_distance(
                    user, GeoPoint(pattern.lat_deg[s], pattern.lon_deg[s])
                )
                if ds < best_d:
                    best_d, best_s = ds, s
            nearest[n, j] = best_s
            gain = 10.0 * math.log10(abs(coeff[best_s, j]) ** 2)
            amp = 10.0 ** ((gain - pl + cfg.rx_gain_db) / 20.0)
            entries[n, j] = amp * cmath.exp(1j * phase)
    return entries, nearest


def phase_distance(a, b):
    return abs((a - b + math.pi) % (2.0 * math.pi) - math.pi)


def grid_pattern(gain_columns, lats, lons):
    glat = np.repeat(lats, len(lons))
    glon = np.tile(lons, len(lats))
    gain = np.column_stack([col(glat, glon) for col in gain_columns])
    return BeamPattern(glat, glon, gain)


def seven_beam_pattern(pitch=0.25):
    """Seven Gaussian beams on a hex layout around (52, 5)."""
    centers = [(52.0, 5.0)] + [
        (52.0 + 2.0 * math.sin(2 * math.pi * k / 6),
         5.0 + 2.0 * math.cos(2 * math.pi * k / 6))
        for k in range(6)
    ]
    lats = np.arange(48.0, 56.0 + 1e-9, pitch)
    lons = np.arange(1.0, 9.0 + 1e-9, pitch)
    cols = [
        (lambda glat, glon, c=c: 52.0 - 3.0 * ((glat - c[0]) ** 2 + (glon - c[1]) ** 2) / 1.5**2)
        for c in centers
    ]
    return grid_pattern(cols, lats, lons)


def matrix_for(pattern, locations, beams=None):
    n = len(locations)
    return TrafficMatrix(
        beam=[1] * n if beams is None else beams,
        lat_deg=[lat for lat, _ in locations],
        lon_deg=[lon for _, lon in locations],
        type=[TrafficType.FSS] * n,
        demand_mbps=[2.0] * n,
        beams=pattern.beams,
        excluded=0,
    )


class TestInterpolateGain:
    def test_exact_hit_returns_sample_gain(self):
        samples = [
            SamplePoint(GeoPoint(50.0, 10.0), 41.0, 0.0),
            SamplePoint(GeoPoint(50.0, 10.25), 44.0, 0.0),
            SamplePoint(GeoPoint(50.25, 10.0), 47.0, 0.0),
            SamplePoint(GeoPoint(50.25, 10.25), 49.0, 0.0),
        ]
        assert interpolate_gain(GeoPoint(50.0, 10.25), samples) == 44.0

    def test_equidistant_three_samples(self):
        samples = [
            SamplePoint(GeoPoint(0.0, 1.0), 40.0, 0.0),
            SamplePoint(GeoPoint(0.0, -1.0), 42.0, 0.0),
            SamplePoint(GeoPoint(1.0, 0.0), 44.0, 0.0),
        ]
        assert interpolate_gain(GeoPoint(0.0, 0.0), samples) == 42.0

    def test_single_sample(self):
        samples = [SamplePoint(GeoPoint(10.0, 10.0), 37.5, 0.0)]
        assert interpolate_gain(GeoPoint(12.0, 9.0), samples) == 37.5

    def test_near_coincident_sample_is_finite(self):
        # 4e-16 deg apart: the central-angle cosine rounds to exactly 1.0,
        # so the nearest distance is 0.0 without the coordinates matching
        near = 2.0000000000000004
        samples = [
            SamplePoint(GeoPoint(0.0, near), 40.0, 0.0),
            SamplePoint(GeoPoint(0.0, 3.0), 48.0, 0.0),
            SamplePoint(GeoPoint(1.0, near), 44.0, 0.0),
        ]
        assert interpolate_gain(GeoPoint(0.0, 2.0), samples) == 40.0

    def test_coordinate_hit_beats_rounded_zero(self):
        # an exactly coincident sample wins over one whose angle merely
        # rounds to zero, regardless of sample order
        near = 2.0000000000000004
        samples = [
            SamplePoint(GeoPoint(0.0, near), 40.0, 0.0),
            SamplePoint(GeoPoint(0.0, 2.0), 41.5, 0.0),
        ]
        assert interpolate_gain(GeoPoint(0.0, 2.0), samples) == 41.5

    def test_empty_samples_rejected(self):
        with pytest.raises(ValueError):
            interpolate_gain(GeoPoint(0, 0), [])

    def test_gaussian_grid_within_half_db(self):
        r3 = 1.5
        lats = np.arange(50.0, 54.0 + 1e-9, 0.1)
        lons = np.arange(3.0, 7.0 + 1e-9, 0.1)
        pattern = grid_pattern(
            [lambda glat, glon: 52.0 - 3.0 * ((glat - 52.0) ** 2 + (glon - 5.0) ** 2) / r3**2],
            lats, lons,
        )
        samples = beam_samples(pattern, 1)
        rng = np.random.default_rng(7)
        for _ in range(50):
            lat = float(rng.uniform(50.5, 53.5))
            lon = float(rng.uniform(3.5, 6.5))
            got = interpolate_gain(GeoPoint(lat, lon), samples)
            want = 52.0 - 3.0 * ((lat - 52.0) ** 2 + (lon - 5.0) ** 2) / r3**2
            assert abs(got - want) < 0.5

    def test_weights_favor_nearest(self):
        samples = [
            SamplePoint(GeoPoint(0.0, 0.1), 40.0, 0.0),
            SamplePoint(GeoPoint(0.0, 1.0), 50.0, 0.0),
            SamplePoint(GeoPoint(0.0, -1.0), 50.0, 0.0),
        ]
        got = interpolate_gain(GeoPoint(0.0, 0.0), samples)
        assert 40.0 < got < 42.0


class TestBuildChannelMatrix:
    def test_empty_traffic_matrix(self):
        pattern = seven_beam_pattern(pitch=0.5)
        T = matrix_for(pattern, [])
        H = build_channel_matrix(T, pattern)
        assert H.entries.shape == (0, 7)
        assert H.n_users == 0

    # each satellite sees its spots: the one at 13E the signed zeros, the
    # one above the antimeridian the spots on either side of it
    @pytest.mark.parametrize("sat_lon, lons, far", [
        (13.0, (2.0, 8.0), [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0)]),
        (180.0, (175.0, 180.0), [(52.0, 179.5), (-30.0, -179.0)]),
    ])
    def test_range_per_distinct_location_bit_matches_per_user(self, sat_lon, lons, far):
        pattern = seven_beam_pattern(pitch=0.5)
        cfg = ScenarioConfig(sat_lon_deg=sat_lon)
        rng = np.random.default_rng(43)
        spots = [(float(rng.uniform(49.0, 55.0)), float(rng.uniform(*lons)))
                 for _ in range(6)]
        spots += far
        locs = [spots[int(k)] for k in rng.integers(0, len(spots), size=40)] + spots
        T = matrix_for(pattern, locs, beams=[int(b) for b in rng.integers(1, 8, len(locs))])
        got = build_channel_matrix(T, pattern, cfg)
        want = oracles.build_channel_matrix(T, pattern, cfg)
        # one row per distinct location bits: the signed zeros stay apart
        assert len(got.magnitude) == len({(np.float64(a).tobytes(), np.float64(b).tobytes())
                                     for a, b in locs})
        for name in ("entries", "serving", "distance_m", "path_loss_db",
                     "interp_gain_db", "nearest_sample"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name

    @pytest.mark.parametrize("beams", [[4], [7, 2, 7, 5, 2], [3, 1, 6, 1, 2, 4, 5, 7]])
    def test_serving_beam_gains_match_the_per_beam_loop(self, beams):
        pattern = seven_beam_pattern(pitch=0.5)
        # odd users sit exactly on a sample
        locs = [(pattern.lat_deg[7 * i], pattern.lon_deg[7 * i]) if i % 2
                else (52.0 + 0.1 * i, 5.0) for i in range(len(beams))]
        T = matrix_for(pattern, locs, beams)
        index = linkbudget.NearestSamples(T.lat_deg, T.lon_deg, pattern.lat_deg,
                                          pattern.lon_deg)
        want = oracles.serving_gain_by_beam(index, pattern.gain_db, T.beam)
        got = build_channel_matrix(T, pattern).interp_gain_db
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("locs, message", [
        ([(52.0, 5.0), (math.nan, 5.0)], "lat_deg must be a finite number, got nan"),
        ([(52.0, 5.0), (52.0, math.inf), (95.0, 5.0)], "lat_deg 95.0 outside [-90, 90]"),
        ([(-95.0, 5.0), (95.0, 5.0)], "lat_deg -95.0 outside [-90, 90]"),
        ([(52.0, 5.0), (math.inf, 5.0), (52.0, math.nan)],
         "lat_deg must be a finite number, got inf"),
        ([(52.0, 5.0), (52.0, math.nan)], "lon_deg must be a finite number, got nan"),
    ])
    def test_the_traffic_matrix_refuses_an_invalid_location(self, locs, message):
        # so the channel build needs no location check of its own
        pattern = seven_beam_pattern(pitch=0.5)
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            matrix_for(pattern, locs)

    def test_single_user_at_sample_composes_module_oracles(self):
        # one beam, uniform 50 dB gain, user at the sub-satellite point
        cfg = ScenarioConfig()
        lats = np.array([-1.0, 0.0, 1.0])
        lons = np.array([12.0, 13.0, 14.0])
        pattern = grid_pattern([lambda glat, glon: np.full_like(glat, 50.0)], lats, lons)
        T = matrix_for(pattern, [(0.0, 13.0)])
        H = build_channel_matrix(T, pattern, cfg)
        pl = path_loss_db(cfg.altitude_m, cfg.wavelength_m)
        want = 10.0 ** ((50.0 - pl + 40.7) / 20.0)
        assert H.magnitude[0, 0] == pytest.approx(want, rel=1e-12)
        assert H.distance_m[0] == pytest.approx(cfg.altitude_m, rel=1e-9)

    def test_matches_straight_line_reimplementation(self):
        pattern = seven_beam_pattern(pitch=0.5)
        cfg = ScenarioConfig()
        rng = np.random.default_rng(41)
        locs = [
            (float(rng.uniform(49.0, 55.0)), float(rng.uniform(2.0, 8.0)))
            for _ in range(12)
        ]
        T = matrix_for(pattern, locs, beams=[int(rng.integers(1, 8)) for _ in locs])
        H = build_channel_matrix(T, pattern, cfg)
        want, nearest = straight_line_channel(T, pattern, cfg)
        for n in range(len(locs)):
            row = H.location[n]
            for j in range(7):
                b = want[n, j]
                assert abs(H.magnitude[row, j] - abs(b)) <= 1e-9 * abs(b)
                assert phase_distance(H.phase_rad[row], cmath.phase(b)) <= 1e-9
                assert H.nearest_sample[n] == nearest[n, j]

    def test_coordinate_hit_beside_a_zero_distance_neighbour(self):
        # the first user sits on sample 0, whose computed angle rounds above
        # that of sample 1 a few ulps away; the channel takes the hit's gains,
        # as the straight-line oracle's great-circle search does
        glat = np.array([13.56, 13.559999999999995, 13.6])
        glon = np.full(3, 50.08)
        gain = np.array([[40.0, 20.0], [45.0, 25.0], [30.0, 10.0]])
        pattern = BeamPattern(glat, glon, gain)
        cfg = ScenarioConfig()
        T = matrix_for(pattern, [(13.56, 50.08), (13.6, 50.08)], beams=[1, 2])
        H = build_channel_matrix(T, pattern, cfg)
        want, nearest = straight_line_channel(T, pattern, cfg)
        assert H.nearest_sample.tolist() == nearest[:, 0].tolist() == [0, 2]
        assert H.interp_gain_db.tolist() == [40.0, 10.0]
        for n in range(2):
            for j in range(2):
                b = want[n, j]
                assert abs(H.magnitude[H.location[n], j] - abs(b)) <= 1e-9 * abs(b)

    def test_phase_is_the_sub_wavelength_remainder(self):
        pattern = seven_beam_pattern(pitch=0.5)
        cfg = ScenarioConfig()
        T = matrix_for(pattern, [(51.3, 4.7), (52.9, 6.1), (51.3, 4.7)], beams=[1, 3, 2])
        H = build_channel_matrix(T, pattern, cfg)
        lam = cfg.wavelength_m
        want = [2.0 * math.pi * math.fmod(d, lam) / lam for d in H.distance_m.tolist()]
        assert H.phase_rad[H.location].tolist() == want
        assert all(0.0 <= p < 2.0 * math.pi for p in want)

    def test_magnitude_decomposition(self):
        pattern = seven_beam_pattern(pitch=0.5)
        cfg = ScenarioConfig()
        T = matrix_for(pattern, [(51.7, 5.2)], beams=[2])
        H = build_channel_matrix(T, pattern, cfg)
        for j in range(7):
            g = pattern.gain_db[H.nearest_sample[0], j]
            want = g - H.path_loss_db[0] + cfg.rx_gain_db
            assert abs(20.0 * math.log10(H.magnitude[0, j]) - want) <= 1e-9

    def test_boresight_user_gets_peak_gain(self):
        pattern = seven_beam_pattern(pitch=0.5)
        # boresight of beam 1 sits on the grid at (52, 5)
        T = matrix_for(pattern, [(52.0, 5.0)])
        H = build_channel_matrix(T, pattern)
        s = H.nearest_sample[0]
        assert pattern.lat_deg[s] == 52.0 and pattern.lon_deg[s] == 5.0
        assert pattern.gain_db[s, 0] == pattern.gain_db[:, 0].max()

    def test_interp_gain_diagnostic_uses_serving_beam(self):
        pattern = seven_beam_pattern(pitch=0.5)
        loc = (51.8, 5.3)
        T2 = matrix_for(pattern, [loc], beams=[2])
        T5 = matrix_for(pattern, [loc], beams=[5])
        g2 = build_channel_matrix(T2, pattern).interp_gain_db[0]
        g5 = build_channel_matrix(T5, pattern).interp_gain_db[0]
        assert g2 == interpolate_gain(GeoPoint(*loc), beam_samples(pattern, 2))
        assert g5 == interpolate_gain(GeoPoint(*loc), beam_samples(pattern, 5))
        assert g2 != g5

    def test_values_are_checked_once_whatever_the_locations(self, monkeypatch):
        # ScenarioConfig has checked the satellite and the TrafficMatrix the
        # locations, so the build calls ioutil.real no more often for 60
        # distinct locations than for 2
        calls = []
        real = ioutil.real

        def counted(*args, **kwargs):
            calls.append(args[1])
            return real(*args, **kwargs)

        for info in pkgutil.iter_modules(sattraffic.__path__):
            module = importlib.import_module(f"sattraffic.{info.name}")
            if getattr(module, "real", None) is real:
                monkeypatch.setattr(module, "real", counted)
        pattern = seven_beam_pattern(pitch=0.5)
        cfg = ScenarioConfig()
        rng = np.random.default_rng(44)
        counts = []
        for n in (2, 60):
            T = matrix_for(pattern, list(zip(rng.uniform(49.0, 55.0, n).tolist(),
                                             rng.uniform(2.0, 8.0, n).tolist())))
            calls.clear()
            build_channel_matrix(T, pattern, cfg)
            counts.append(len(calls))
        assert counts[0] == counts[1]

    def test_location_below_the_horizon_refused(self):
        # the default satellite is at 0N 13E; the ingest box corner 80N 40W
        # is at -2.68 deg, where the slant range is a line through the Earth
        pattern = seven_beam_pattern(pitch=0.5)
        T = matrix_for(pattern, [(52.0, 5.0), (80.0, -40.0), (80.0, 50.0)])
        with pytest.raises(BelowHorizonError,
                           match=r"user 1 at \(80.0, -40.0\) .* elevation -2.68 deg"):
            build_channel_matrix(T, pattern)

    def test_location_at_the_horizon_refused(self):
        # with R = c and h = 1 - c, both exact for c in [0.5, 1], q = R/(R+h)
        # is the cosine c of the user at 60N under a satellite at 0N 0E
        pattern = seven_beam_pattern(pitch=0.5)
        c = float(geo._subsatellite_cos([60.0], [0.0], 0.0, 0.0)[0])
        cfg = ScenarioConfig(0.0, 0.0, altitude_m=1.0 - c, earth_radius_m=c)
        assert cfg.earth_radius_m / (cfg.earth_radius_m + cfg.altitude_m) == c
        build_channel_matrix(matrix_for(pattern, [(59.9, 0.0)]), pattern, cfg)
        with pytest.raises(BelowHorizonError, match=r"user 0 at \(60.0, 0.0\) .* 0.00 deg"):
            build_channel_matrix(matrix_for(pattern, [(60.0, 0.0)]), pattern, cfg)

    def test_mismatched_beam_count(self):
        pattern = seven_beam_pattern(pitch=0.5)
        T = TrafficMatrix([], [], [], [], [], beams=3, excluded=0)
        with pytest.raises(MismatchedBeamsError):
            build_channel_matrix(T, pattern)

    def test_entries_read_only(self):
        pattern = seven_beam_pattern(pitch=0.5)
        H = build_channel_matrix(matrix_for(pattern, [(52.0, 5.0)]), pattern)
        with pytest.raises(ValueError):
            H.entries[0, 0] = 0
        for name in ("magnitude", "phase_rad", "location"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(H, name)[0] = 0


def channel_of(magnitude, phase_rad, location):
    n = np.size(location)
    return ChannelMatrix(magnitude=magnitude, phase_rad=phase_rad, location=location,
                         serving=np.ones(n, dtype=int),
                         distance_m=np.zeros(n), path_loss_db=np.zeros(n),
                         interp_gain_db=np.zeros(n), nearest_sample=np.zeros(n, dtype=int))


class TestChannelMatrix:
    def test_entries_are_rows_at_location(self):
        H = channel_of([[1.0, 2.0], [3.0, 0.5]], [0.5 * math.pi, 0.0], [1, 0, 1])
        want = [[3.0, 0.5], [1.0j, 2.0j], [3.0, 0.5]]
        assert np.abs(H.entries - want).max() <= 1e-15
        assert (H.n_users, H.beams) == (3, 2)

    # not 1-D, or pointing outside rows
    @pytest.mark.parametrize("location, message", [
        ([[0, 1]], "location must hold one value per user"),
        (0, "location must hold one value per user"),
        ([0, 2], "location 2 outside [0, 1]"),
        ([-1, 0], "location -1 outside [0, 1]"),
        ([3], "location 3 outside [0, 1]"),
    ])
    def test_location_must_index_rows(self, location, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            channel_of(np.ones((2, 3)), np.zeros(2), location)

    def test_no_users_and_no_rows(self):
        H = channel_of(np.zeros((0, 3)), [], [])
        assert H.entries.shape == (0, 3)

    def test_rows_must_be_two_dimensional(self):
        with pytest.raises(ValueError, match="^magnitude must be a 2-D array$"):
            channel_of(np.ones(3), [0.0], [0])

    @pytest.mark.parametrize("phase", [[0.0], [0.0, 1.0, 2.0], [[0.0, 1.0]]])
    def test_one_phase_per_row(self, phase):
        with pytest.raises(ValueError, match="^phase_rad must hold one value per location$"):
            channel_of(np.ones((2, 3)), phase, [0, 1])


class TestNearestSample:
    def test_brute_force_agreement(self):
        pattern = seven_beam_pattern(pitch=0.5)
        rng = np.random.default_rng(13)
        locs = [
            (float(rng.uniform(48.0, 56.0)), float(rng.uniform(1.0, 9.0)))
            for _ in range(40)
        ]
        T = matrix_for(pattern, locs)
        H = build_channel_matrix(T, pattern)
        for n, loc in enumerate(locs):
            user = GeoPoint(*loc)
            dists = [
                great_circle_distance(user, GeoPoint(pattern.lat_deg[s], pattern.lon_deg[s]))
                for s in range(pattern.samples_per_beam)
            ]
            assert H.nearest_sample[n] == int(np.argmin(dists))


class TestInterference:
    @pytest.fixture()
    def channel(self):
        pattern = seven_beam_pattern(pitch=0.5)
        rng = np.random.default_rng(29)
        locs = [
            (float(rng.uniform(50.0, 54.0)), float(rng.uniform(3.0, 7.0)))
            for _ in range(6)
        ]
        T = matrix_for(pattern, locs, beams=[1, 2, 3, 4, 5, 6])
        return build_channel_matrix(T, pattern)

    def test_serving_only_is_zero(self, channel):
        assert interference(channel, 1, {1}, 60.0) == 0.0

    def test_single_interferer_arithmetic(self, channel):
        a = channel.magnitude[channel.location[0], 1]
        got = interference(channel, 1, {1, 2}, 60.0)
        assert got == 60.0 * a ** 2

    def test_matches_brute_force_sum(self, channel):
        rng = np.random.default_rng(31)
        for _ in range(20):
            size = int(rng.integers(2, 8))
            active = set(
                int(b) + 1 for b in rng.choice(7, size=size, replace=False)
            )
            n = int(rng.integers(1, 7))
            split = 6000.0 / len(active)
            want = 0.0
            for j in sorted(active):
                if j != int(channel.serving[n - 1]):
                    want += split * channel.magnitude[channel.location[n - 1], j - 1] ** 2
            assert interference(channel, n, active, split) == want

    def test_monotone_under_fixed_power(self, channel):
        for n in range(1, 7):
            base = {int(channel.serving[n - 1])}
            prev = 0.0
            for j in range(1, 8):
                base.add(j)
                cur = interference(channel, n, base, 10.0)
                assert cur >= prev
                prev = cur

    def test_per_beam_power_mapping(self, channel):
        power = {j: 100.0 * j for j in range(1, 8)}
        want = sum(
            power[j] * channel.magnitude[channel.location[0], j - 1] ** 2
            for j in range(1, 8)
            if j != int(channel.serving[0])
        )
        assert interference(channel, 1, set(range(1, 8)), power) == want

    def test_unknown_user(self, channel):
        with pytest.raises(UnknownUserError):
            interference(channel, 99, {1, 2}, 10.0)
        with pytest.raises(UnknownUserError):
            interference(channel, 0, {1, 2}, 10.0)

    def test_unknown_beam(self, channel):
        with pytest.raises(ValueError, match=r"^active beam 9 outside \[1, 7\]$"):
            interference(channel, 1, {1, 9}, 10.0)

    @pytest.mark.parametrize("beam", [True, False, np.True_, 2.0, np.float64(2.0)])
    def test_beam_must_be_an_integer(self, channel, beam):
        # True is not beam 1, as the sweep's user and size checks refuse bools
        message = f"^active beam must be an integer, got {re.escape(repr(beam))}$"
        with pytest.raises(ValueError, match=message):
            interference(channel, 1, {beam, 3}, 1.0)

    def test_numpy_integer_beams_accepted(self, channel):
        assert interference(channel, 1, {np.int64(1), np.int32(3)}, 1.0) == interference(
            channel, 1, {1, 3}, 1.0)

    def test_missing_power_entry(self, channel):
        with pytest.raises(ValueError, match="no power"):
            interference(channel, 1, {1, 2}, {1: 10.0})

    def test_mapping_may_omit_serving_beam(self, channel):
        assert interference(channel, 1, {1, 2}, {2: 10.0}) == interference(
            channel, 1, {1, 2}, 10.0)

    @pytest.mark.parametrize("active, power", [
        ({1}, -1.0),
        ({1, 2}, {1: -5.0, 2: 1.0}),
        ({1, 2}, math.nan),
        ({1, 2}, math.inf),
        ({1, 2}, {1: 1.0, 2: math.nan}),
    ])
    def test_power_must_be_finite_and_non_negative(self, channel, active, power):
        # the serving beam (1 for user 1) contributes nothing, but its power is checked
        with pytest.raises(ValueError, match="power must be a finite number >= 0, got "):
            interference(channel, 1, active, power)

    def test_active_is_read_as_a_set(self, channel):
        assert interference(channel, 1, [2, 2], 1.0) == interference(channel, 1, [2], 1.0)
        assert interference(channel, 1, iter([3, 2, 3]), 1.0) == interference(
            channel, 1, {2, 3}, 1.0)


class TestChannelOutputs:
    def test_csv_shape_and_determinism(self, tmp_path):
        pattern = seven_beam_pattern(pitch=0.5)
        T = matrix_for(pattern, [(51.5, 4.5), (52.5, 5.5)], beams=[1, 2])
        H = build_channel_matrix(T, pattern)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_channel_csv(H, p1)
        write_channel_csv(H, p2)
        text = p1.read_text()
        assert text == p2.read_text()
        lines = text.splitlines()
        assert lines[0] == CHANNEL_HEADER
        assert len(lines) == 1 + 2 * 7
        assert lines[1].split(",")[:2] == ["1", "1"]

    def test_summary_diagnostics(self, tmp_path):
        pattern = seven_beam_pattern(pitch=0.5)
        cfg = ScenarioConfig()
        T = matrix_for(pattern, [(52.0, 5.0)])
        H = build_channel_matrix(T, pattern, cfg)
        channel_summary(H, 0, tmp_path / "channel_summary.json")
        info = json.loads((tmp_path / "channel_summary.json").read_text())
        assert info["users"] == 1
        assert info["beams"] == 7
        rec = info["per_user"][0]
        d = slant_range(GeoPoint(52.0, 5.0), cfg.sat_lat_deg, cfg.sat_lon_deg)
        # the text holds fmt_float's 9 significant digits
        assert rec["distance_m"] == float(fmt_float(d))
        assert rec["path_loss_db"] == float(fmt_float(path_loss_db(d, cfg.wavelength_m)))
        assert rec["interp_gain_db"] == pytest.approx(52.0, abs=1e-9)


def test_channel_stage_peak_memory_stays_below_half_a_per_user_matrix(tmp_path):
    # the 37-beam, pitch-0.2 pattern of the benchmark's M inputs, with 40,000
    # users at 50 locations: a (users, beams) complex matrix would take 23.7 MB
    path = tmp_path / "pattern.csv"
    synth_pattern(path, 1, beams=37, spacing_deg=1.5, radius3db_deg=1.0, pitch_deg=0.2)
    pattern = parse_pattern(path)
    rng = np.random.default_rng(50)
    lat = rng.uniform(pattern.lat_deg.min(), pattern.lat_deg.max(), 50)
    lon = rng.uniform(pattern.lon_deg.min(), pattern.lon_deg.max(), 50)
    users = 40_000
    pick = rng.integers(0, 50, users)
    T = TrafficMatrix(beam=rng.integers(1, 38, users), lat_deg=lat[pick],
                      lon_deg=lon[pick], type=np.ones(users, dtype=int),
                      demand_mbps=np.ones(users), beams=37, excluded=0)
    cfg = ScenarioConfig()
    tracemalloc.start()
    try:
        H = build_channel_matrix(T, pattern, cfg)
        write_channel_csv(H, tmp_path / "channel.csv")
        sweep = interference_sweep(H, cfg, sizes=[2, 37])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < users * 37 * np.dtype(complex).itemsize / 2
    assert H.n_users == users and sweep.watts[sweep.pair].shape == (users, 2)


def test_channel_build_peak_memory_stays_below_four_times_its_magnitudes(tmp_path):
    # the benchmark's M inputs at hour 9: the magnitudes are computed in place
    # on the gathered gains and handed to the ChannelMatrix uncopied, so the
    # build holds little beyond the rows it returns; the bound is twice the
    # bytes of the complex rows the matrix once held
    synth_pattern(tmp_path / "pattern.csv", 1, beams=37, spacing_deg=1.5,
                  radius3db_deg=1.0, pitch_deg=0.2)
    synth_population(tmp_path / "population.csv", 2, cells=600, urban_fraction=0.15)
    synth_aero(tmp_path / "aero.csv", 3, flights=2000)
    synth_maritime(tmp_path / "maritime.csv", 4, ships=1200)
    pattern = parse_pattern(tmp_path / "pattern.csv")
    cfg = IngestConfig()
    T = build_traffic_matrix(
        all_footprints(pattern), pattern,
        load_population(tmp_path / "population.csv", cfg),
        load_aero(tmp_path / "aero.csv", 9, cfg),
        load_maritime(tmp_path / "maritime.csv", 9, cfg),
    )
    tracemalloc.start()
    try:
        H = build_channel_matrix(T, pattern, ScenarioConfig())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert H.magnitude.shape[1] == 37 and len(H.magnitude) > 1000
    assert peak <= 4 * H.magnitude.nbytes


def test_s_hour_9_outputs_are_the_complex_channel_oracles(tmp_path):
    # ROADMAP's S scenario at hour 9: channel.csv and interference.csv are the
    # bytes of the channel held complex user by user, written through abs()
    # and the angle of each entry and swept set by set
    inputs = tmp_path / "inputs"
    for kind, seed, params in (
        ("pattern", 91, []),
        ("population", 92, ["--param", "cells=1000", "--param", "urban_fraction=0.15"]),
        ("aero", 93, ["--param", "flights=800"]),
        ("maritime", 94, ["--param", "ships=600"]),
    ):
        argv = ["synth", kind, "--seed", str(seed), "--out-dir", str(inputs), *params]
        assert cli.main(argv) == 0
    demand = [f"--{kind}={inputs / kind}.csv"
              for kind in ("pattern", "population", "aero", "maritime")]
    out = tmp_path / "out"
    assert cli.main(["simulate", *demand, "--hour", "9", "--out-dir", str(out)]) == 0
    assert cli.main(["interference", *demand, "--hour", "9", "--sizes", "1..7",
                     "--out-dir", str(out)]) == 0
    pattern = parse_pattern(inputs / "pattern.csv")
    T = build_traffic_matrix(
        all_footprints(pattern), pattern, load_population(inputs / "population.csv"),
        load_aero(inputs / "aero.csv", 9), load_maritime(inputs / "maritime.csv", 9),
    )
    cfg = ScenarioConfig()
    C = oracles.build_channel_matrix(T, pattern, cfg)
    assert C.n_users > 3000 and C.beams == 7
    oracles.write_complex_channel_csv(C, tmp_path / "channel.csv")
    oracles.write_interference_csv(oracles.interference_sweep(C, cfg, range(1, 8)),
                                   tmp_path / "interference.csv")
    for name in ("channel.csv", "interference.csv"):
        assert (out / name).read_bytes() == (tmp_path / name).read_bytes(), name
