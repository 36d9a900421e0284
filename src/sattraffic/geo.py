"""Spherical-Earth geometry and free-space propagation.

The Earth model is a sphere of configurable radius (mean radius by default).
All public APIs take degrees; radians stay internal.
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .ioutil import real

SPEED_OF_LIGHT = 299_792_458.0  # m/s

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius
GEO_ALTITUDE_M = 35_786_000.0

# the bounds of every latitude: a location's, the satellite's, a column's
LATITUDE = (-90, 90)


@dataclass(frozen=True)
class GeoPoint:
    """Location on the sphere, latitude in [-90, 90], longitude in [-180, 180)."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        object.__setattr__(self, "lat_deg", real(self.lat_deg, "latitude", *LATITUDE))
        lon = real(self.lon_deg, "longitude")
        if not -180.0 <= lon < 180.0:
            lon = float(wrap_lon(lon))
        object.__setattr__(self, "lon_deg", lon)


def wrap_lon(lon_deg):
    """Longitudes normalized into [-180, 180), as a new float array."""
    lon = np.array(lon_deg, dtype=float)
    wrap = ~((lon >= -180.0) & (lon < 180.0))
    if wrap.any():
        wrapped = np.fmod(lon[wrap] + 180.0, 360.0)
        wrapped[wrapped < 0.0] += 360.0
        wrapped -= 180.0
        wrapped[wrapped >= 180.0] = -180.0  # a tiny negative remainder rounds up to 360
        lon[wrap] = wrapped
    return lon


@dataclass(frozen=True)
class ScenarioConfig:
    """Satellite and link parameters with Ka-band GEO defaults.

    Every value must be finite, the satellite latitude in [-90, 90] and the
    altitude, Earth radius, carrier, power and bandwidth above 0.
    wavelength_m is not a parameter: it is always the speed of light over
    the carrier frequency, so replace() with another carrier derives the
    matching wavelength.
    """

    sat_lat_deg: float = 0.0
    sat_lon_deg: float = 13.0
    altitude_m: float = GEO_ALTITUDE_M
    earth_radius_m: float = EARTH_RADIUS_M
    carrier_freq_hz: float = 19.5e9
    wavelength_m: float = field(init=False)
    rx_gain_db: float = 40.7
    total_power_w: float = 6000.0
    bandwidth_hz: float = 50e6

    def __post_init__(self):
        for name in (f.name for f in fields(self) if f.init):
            bounds = _SCENARIO_BOUNDS.get(name, {})
            object.__setattr__(self, name, real(getattr(self, name), name, **bounds))
        wavelength = SPEED_OF_LIGHT / self.carrier_freq_hz
        if math.isinf(wavelength):  # a subnormal carrier
            raise ValueError(f"wavelength_m must be finite, got inf from "
                             f"carrier_freq_hz {self.carrier_freq_hz!r}")
        object.__setattr__(self, "wavelength_m", wavelength)


_POSITIVE = dict(lo=0, strict=True)
# real()'s bounds of ScenarioConfig's values; the others need only be finite
_SCENARIO_BOUNDS = dict(sat_lat_deg=dict(lo=LATITUDE[0], hi=LATITUDE[1]), **dict.fromkeys(
    ("altitude_m", "earth_radius_m", "carrier_freq_hz", "total_power_w", "bandwidth_hz"),
    _POSITIVE))


def great_circle_distance(a: GeoPoint, b: GeoPoint, radius_m: float = EARTH_RADIUS_M) -> float:
    """Distance along the sphere as atan2(|u x v|, u . v) of the unit vectors.

    Unlike acos of the law of cosines, which rounds separations below about
    0.1 m to zero and loses as much near the antipode, the atan2 form keeps
    the error near machine precision at every separation. Swapping the
    points only negates each cross-product component, so the result is
    exactly symmetric.
    """
    radius_m = real(radius_m, "radius_m", **_POSITIVE)
    u, v = _unit_vector(a), _unit_vector(b)
    cross = math.hypot(
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )
    dot = u[0] * v[0] + u[1] * v[1] + u[2] * v[2]
    return radius_m * math.atan2(cross, dot)


def _unit_vector(p: GeoPoint) -> tuple[float, float, float]:
    lat, lon = math.radians(p.lat_deg), math.radians(p.lon_deg)
    return (math.cos(lat) * math.cos(lon), math.cos(lat) * math.sin(lon), math.sin(lat))


def slant_range(
    user: GeoPoint,
    sat_lat_deg: float,
    sat_lon_deg: float,
    altitude_m: float = GEO_ALTITUDE_M,
    earth_radius_m: float = EARTH_RADIUS_M,
) -> float:
    """Straight-line distance from a surface point to the satellite.

    Law of cosines in the triangle formed by the Earth center, the user and
    the satellite:

        d = (R+h) * sqrt(1 + q^2 - 2 q (cos(dlon) cos(lat_s) cos(lat_u)
                                        + sin(lat_s) sin(lat_u))),  q = R/(R+h)

    Exactly h at the sub-satellite point; at most R + (R+h) anywhere. The
    satellite's position, altitude and radius take ScenarioConfig's bounds.
    """
    sat_lat_deg = real(sat_lat_deg, "sat_lat_deg", *LATITUDE)
    sat_lon_deg = real(sat_lon_deg, "sat_lon_deg")
    altitude_m = real(altitude_m, "altitude_m", **_POSITIVE)
    earth_radius_m = real(earth_radius_m, "earth_radius_m", **_POSITIVE)
    q = earth_radius_m / (earth_radius_m + altitude_m)
    t = (
        math.cos(math.radians(sat_lon_deg - user.lon_deg))
        * math.cos(math.radians(sat_lat_deg))
        * math.cos(math.radians(user.lat_deg))
        + math.sin(math.radians(sat_lat_deg)) * math.sin(math.radians(user.lat_deg))
    )
    t = max(-1.0, min(1.0, t))
    return (earth_radius_m + altitude_m) * math.sqrt(1.0 + q * q - 2.0 * q * t)


def path_loss_db(distance_m: float, wavelength_m: float) -> float:
    """Free-space path loss 20*log10(4*pi*d/lambda) in dB."""
    distance_m = real(distance_m, "distance_m", **_POSITIVE)
    wavelength_m = real(wavelength_m, "wavelength_m", **_POSITIVE)
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength_m)
