"""Spherical geometry and path loss against independent oracles.

Expected values were computed once with a haversine implementation, an ECEF
vector-norm slant range, and 50-digit arithmetic for the nadir path loss,
then frozen here as literals. The oracles themselves stay in this module so
the agreement is re-checked on every run.
"""

import math
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sattraffic.geo import (
    EARTH_RADIUS_M,
    GEO_ALTITUDE_M,
    SPEED_OF_LIGHT,
    GeoPoint,
    _path_loss_db,
    _slant_range,
    ScenarioConfig,
    great_circle_distance,
    path_loss_db,
    slant_range,
    wrap_lon,
)

SAT_LON = 13.0

# frozen oracle outputs
PARIS_BERLIN_M = 877463.325917543
SLANT_PARIS_M = 38346610.939185955
SLANT_CORNER_M = 41752933.525730334
NADIR_LOSS_DB = 209.32273860105732


def haversine(lat1, lon1, lat2, lon2, r):
    p1, p2 = math.radians(lat1), math.radians(lat2)
    dp = math.radians(lat2 - lat1)
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2
    return 2 * r * math.asin(math.sqrt(a))


def ecef_slant(ulat, ulon, slat, slon, radius, altitude):
    def ecef(lat, lon, r):
        p, l = math.radians(lat), math.radians(lon)
        return (r * math.cos(p) * math.cos(l), r * math.cos(p) * math.sin(l), r * math.sin(p))

    return math.dist(ecef(ulat, ulon, radius), ecef(slat, slon, radius + altitude))


class TestGreatCircle:
    def test_paris_berlin_matches_haversine(self):
        a = GeoPoint(48.8566, 2.3522)
        b = GeoPoint(52.5200, 13.4050)
        got = great_circle_distance(a, b)
        oracle = haversine(48.8566, 2.3522, 52.5200, 13.4050, EARTH_RADIUS_M)
        assert oracle == pytest.approx(PARIS_BERLIN_M, rel=1e-12)
        assert got == pytest.approx(oracle, rel=1e-6)

    def test_identical_points_zero(self):
        p = GeoPoint(45.0, 10.0)
        assert great_circle_distance(p, p) == 0.0

    def test_antipodal_is_half_circumference(self):
        a = GeoPoint(0.0, 0.0)
        b = GeoPoint(0.0, 180.0)
        assert great_circle_distance(a, b) == pytest.approx(math.pi * EARTH_RADIUS_M, rel=1e-12)

    def test_symmetry_random(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            a = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            b = GeoPoint(rng.uniform(-89, 89), rng.uniform(-179, 179))
            assert great_circle_distance(a, b) == great_circle_distance(b, a)

    @settings(max_examples=100, deadline=None)
    @given(
        lat1=st.floats(-89, 89),
        lon1=st.floats(-179, 179),
        lat2=st.floats(-89, 89),
        lon2=st.floats(-179, 179),
        lat3=st.floats(-89, 89),
        lon3=st.floats(-179, 179),
    )
    def test_triangle_inequality(self, lat1, lon1, lat2, lon2, lat3, lon3):
        a, b, c = GeoPoint(lat1, lon1), GeoPoint(lat2, lon2), GeoPoint(lat3, lon3)
        ab = great_circle_distance(a, b)
        bc = great_circle_distance(b, c)
        ac = great_circle_distance(a, c)
        assert ac <= ab + bc + 1e-9 * (ab + bc + ac) + 1e-6

    def test_agrees_with_haversine_randomly(self):
        rng = np.random.default_rng(7)
        for _ in range(500):
            lat1, lat2 = rng.uniform(-85, 85, 2)
            lon1, lon2 = rng.uniform(-179, 179, 2)
            got = great_circle_distance(GeoPoint(lat1, lon1), GeoPoint(lat2, lon2))
            want = haversine(lat1, lon1, lat2, lon2, EARTH_RADIUS_M)
            assert got == pytest.approx(want, rel=1e-6, abs=1e-3)

    def test_bad_radius_rejected(self):
        with pytest.raises(ValueError):
            great_circle_distance(GeoPoint(0, 0), GeoPoint(1, 1), radius_m=0.0)

    @pytest.mark.parametrize("radius", [math.nan, math.inf, -math.inf])
    def test_non_finite_radius_rejected(self, radius):
        with pytest.raises(ValueError, match="^radius_m must be a finite number > 0"):
            great_circle_distance(GeoPoint(0, 0), GeoPoint(1, 1), radius_m=radius)


class TestSlantRange:
    def test_subsatellite_point_is_altitude(self):
        d = slant_range(GeoPoint(0.0, SAT_LON), 0.0, SAT_LON)
        assert d == pytest.approx(GEO_ALTITUDE_M, rel=1e-9)

    def test_paris_matches_ecef_oracle(self):
        d = slant_range(GeoPoint(48.8566, 2.3522), 0.0, SAT_LON)
        oracle = ecef_slant(48.8566, 2.3522, 0.0, SAT_LON, EARTH_RADIUS_M, GEO_ALTITUDE_M)
        assert oracle == pytest.approx(SLANT_PARIS_M, rel=1e-12)
        assert d == pytest.approx(oracle, rel=1e-9)

    def test_coverage_corner_matches_ecef_oracle(self):
        d = slant_range(GeoPoint(80.0, 50.0), 0.0, SAT_LON)
        oracle = ecef_slant(80.0, 50.0, 0.0, SAT_LON, EARTH_RADIUS_M, GEO_ALTITUDE_M)
        assert oracle == pytest.approx(SLANT_CORNER_M, rel=1e-12)
        assert d == pytest.approx(oracle, rel=1e-9)

    def test_random_users_match_ecef_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(1000):
            lat = rng.uniform(25, 80)
            lon = rng.uniform(-40, 50)
            got = slant_range(GeoPoint(lat, lon), 0.0, SAT_LON)
            want = ecef_slant(lat, lon, 0.0, SAT_LON, EARTH_RADIUS_M, GEO_ALTITUDE_M)
            assert got == pytest.approx(want, rel=1e-9)

    def test_bounds(self):
        rng = np.random.default_rng(5)
        top = 2 * EARTH_RADIUS_M + GEO_ALTITUDE_M
        for _ in range(500):
            d = slant_range(GeoPoint(rng.uniform(-90, 90), rng.uniform(-180, 180)), 0.0, SAT_LON)
            assert GEO_ALTITUDE_M <= d <= top

    def test_monotone_in_longitude_offset_on_equator(self):
        offsets = np.linspace(0, 170, 35)
        dists = [slant_range(GeoPoint(0.0, SAT_LON + o), 0.0, SAT_LON) for o in offsets]
        assert all(d2 > d1 for d1, d2 in zip(dists, dists[1:]))

    def test_longitude_reflection_symmetry(self):
        rng = np.random.default_rng(31)
        for _ in range(300):
            lat = rng.uniform(-85, 85)
            lon = rng.uniform(-170, 170)
            d1 = slant_range(GeoPoint(lat, lon), 0.0, SAT_LON)
            d2 = slant_range(GeoPoint(lat, 2 * SAT_LON - lon), 0.0, SAT_LON)
            assert d1 == pytest.approx(d2, rel=1e-9)

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            slant_range(GeoPoint(0, 0), 0.0, 13.0, altitude_m=-1.0)
        with pytest.raises(ValueError):
            slant_range(GeoPoint(0, 0), 0.0, 13.0, earth_radius_m=0.0)

    @pytest.mark.parametrize("name, value, args", [
        ("altitude_m", math.nan, {"altitude_m": math.nan}),
        ("altitude_m", math.inf, {"altitude_m": math.inf}),
        ("earth_radius_m", math.inf, {"earth_radius_m": math.inf}),
        ("earth_radius_m", math.nan, {"earth_radius_m": math.nan}),
        ("sat_lat_deg", math.nan, {"sat_lat_deg": math.nan}),
        ("sat_lon_deg", -math.inf, {"sat_lon_deg": -math.inf}),
    ])
    def test_non_finite_params_rejected(self, name, value, args):
        kwargs = {"sat_lat_deg": 0.0, "sat_lon_deg": 13.0, **args}
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            slant_range(GeoPoint(0, 0), **kwargs)


# the poles, the default satellite's sub-satellite point, both sides of the
# antimeridian, longitudes that wrap onto it, and the signed zeros
CORE_POINTS = [(90.0, 0.0), (-90.0, 13.0), (0.0, 13.0), (0.0, 179.99999999999997),
               (12.5, -180.0), (-33.0, 180.0), (45.0, -179.99999999999997),
               (-0.0, -0.0), (0.0, 193.0), (60.0, -540.0), (1e-300, 360.0)]
# (sat_lat_deg, sat_lon_deg, altitude_m, earth_radius_m)
SATELLITES = [(0.0, 13.0, GEO_ALTITUDE_M, EARTH_RADIUS_M),
              (0.0, 179.5, GEO_ALTITUDE_M, EARTH_RADIUS_M),
              (-20.0, -180.0, 550e3, 6_378_137.0), (90.0, 0.0, 1.0, EARTH_RADIUS_M)]


def bits(x):
    return float(x).hex()


class TestUncheckedCores:
    """The channel build's cores run slant_range's and path_loss_db's
    arithmetic on a location's latitude and its longitude wrapped as a
    GeoPoint wraps it."""

    @pytest.mark.parametrize("sat", SATELLITES)
    def test_cores_match_the_public_functions_bit_for_bit(self, sat):
        rng = np.random.default_rng(23)
        points = CORE_POINTS + list(zip(rng.uniform(-90.0, 90.0, 300).tolist(),
                                        rng.uniform(-200.0, 200.0, 300).tolist()))
        wrapped = wrap_lon([lon for _, lon in points]).tolist()
        lam = ScenarioConfig().wavelength_m
        for (lat, lon), core_lon in zip(points, wrapped):
            d = slant_range(GeoPoint(lat, lon), *sat)
            assert bits(_slant_range(lat, core_lon, *sat)) == bits(d)
            assert bits(_path_loss_db(d, lam)) == bits(path_loss_db(d, lam))


class TestPathLoss:
    def test_reference_distance_zero_db(self):
        lam = SPEED_OF_LIGHT / 19.5e9
        assert abs(path_loss_db(lam / (4 * math.pi), lam)) < 1e-12

    def test_doubling_adds_six_db(self):
        lam = SPEED_OF_LIGHT / 19.5e9
        rng = np.random.default_rng(3)
        for _ in range(200):
            d = rng.uniform(1.0, 1e8)
            diff = path_loss_db(2 * d, lam) - path_loss_db(d, lam)
            assert diff == pytest.approx(20 * math.log10(2), abs=1e-12)

    def test_nadir_loss_frozen_value(self):
        lam = SPEED_OF_LIGHT / 19.5e9
        assert path_loss_db(GEO_ALTITUDE_M, lam) == pytest.approx(NADIR_LOSS_DB, abs=1e-9)

    def test_monotone_in_distance(self):
        lam = SPEED_OF_LIGHT / 19.5e9
        d = np.logspace(0, 8, 200)
        losses = [path_loss_db(v, lam) for v in d]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            path_loss_db(0.0, 0.015)
        with pytest.raises(ValueError):
            path_loss_db(1.0, -0.015)

    @pytest.mark.parametrize("distance, wavelength, name", [
        (math.nan, 0.015, "distance_m"),
        (math.inf, 0.015, "distance_m"),
        (1.0, math.inf, "wavelength_m"),
        (1.0, math.nan, "wavelength_m"),
    ])
    def test_rejects_non_finite(self, distance, wavelength, name):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number > 0"):
            path_loss_db(distance, wavelength)


class TestGeoPoint:
    def test_longitude_normalized(self):
        assert GeoPoint(0.0, 190.0).lon_deg == pytest.approx(-170.0)
        assert GeoPoint(0.0, -180.0).lon_deg == -180.0
        assert GeoPoint(0.0, 180.0).lon_deg == -180.0

    @given(lon=st.floats(allow_nan=False, allow_infinity=False))
    @example(lon=-180.00000000000003)
    @example(lon=179.99999999999997)
    @example(lon=180.0)
    @example(lon=-180.0)
    @example(lon=540.0)
    @example(lon=-540.0)
    @example(lon=-0.0)
    @example(lon=5e-324)
    @example(lon=-5e-324)
    @example(lon=1.7976931348623157e308)
    @example(lon=-1.7976931348623157e308)
    @settings(max_examples=500, deadline=None)
    def test_longitude_wrap_in_range_idempotent_and_shared(self, lon):
        wrapped = GeoPoint(10.0, lon).lon_deg
        assert -180.0 <= wrapped < 180.0
        again = GeoPoint(10.0, wrapped).lon_deg
        assert math.copysign(1.0, again) == math.copysign(1.0, wrapped)
        assert again == wrapped
        column = wrap_lon([lon, wrapped])
        assert column.tobytes() == np.array([wrapped, wrapped]).tobytes()

    def test_latitude_range_enforced(self):
        with pytest.raises(ValueError):
            GeoPoint(90.5, 0.0)
        with pytest.raises(ValueError):
            GeoPoint(float("nan"), 0.0)


class TestScenarioConfig:
    def test_wavelength_derived_consistently(self):
        cfg = ScenarioConfig()
        assert abs(cfg.wavelength_m * cfg.carrier_freq_hz - SPEED_OF_LIGHT) <= 1e-9 * SPEED_OF_LIGHT

    def test_wavelength_is_not_a_parameter(self):
        with pytest.raises(TypeError):
            ScenarioConfig(wavelength_m=SPEED_OF_LIGHT / 19.5e9)

    def test_replace_derives_the_wavelength(self):
        cfg = replace(ScenarioConfig(), carrier_freq_hz=20e9)
        assert cfg.wavelength_m == SPEED_OF_LIGHT / 20e9

    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.sat_lon_deg == 13.0
        assert cfg.altitude_m == 35_786_000.0
        assert cfg.total_power_w == 6000.0
        assert cfg.rx_gain_db == 40.7
        assert cfg.bandwidth_hz == 50e6

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(altitude_m=0.0)
        with pytest.raises(ValueError):
            ScenarioConfig(total_power_w=-5.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", [f.name for f in fields(ScenarioConfig) if f.init])
    def test_non_finite_field_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a finite number"):
            ScenarioConfig(**{name: value})

    def test_derived_wavelength_must_be_finite(self):
        with pytest.raises(ValueError, match="^wavelength_m must be finite"):
            ScenarioConfig(carrier_freq_hz=1e-310)

    @pytest.mark.parametrize("lat", [-95.0, -90.000001, 90.5, 95.0])
    def test_satellite_latitude_outside_range_rejected(self, lat):
        with pytest.raises(ValueError, match="^sat_lat_deg .* outside"):
            ScenarioConfig(sat_lat_deg=lat)

    def test_satellite_latitude_at_the_poles_accepted(self):
        assert ScenarioConfig(sat_lat_deg=-90.0).sat_lat_deg == -90.0
        assert ScenarioConfig(sat_lat_deg=90.0).sat_lat_deg == 90.0
