"""Spherical-Earth geometry and free-space propagation.

The Earth model is a sphere of configurable radius (mean radius by default).
All public APIs take degrees; radians stay internal.
"""

import math
from dataclasses import dataclass, field

SPEED_OF_LIGHT = 299_792_458.0  # m/s

EARTH_RADIUS_M = 6_371_000.0  # mean Earth radius
GEO_ALTITUDE_M = 35_786_000.0


@dataclass(frozen=True)
class GeoPoint:
    """Location on the sphere, latitude in [-90, 90], longitude in [-180, 180)."""

    lat_deg: float
    lon_deg: float

    def __post_init__(self):
        if not (math.isfinite(self.lat_deg) and math.isfinite(self.lon_deg)):
            raise ValueError(f"non-finite coordinates ({self.lat_deg}, {self.lon_deg})")
        if not -90.0 <= self.lat_deg <= 90.0:
            raise ValueError(f"latitude {self.lat_deg} outside [-90, 90]")
        # normalize longitude into [-180, 180)
        lon = self.lon_deg
        if not -180.0 <= lon < 180.0:
            lon = math.fmod(lon + 180.0, 360.0)
            if lon < 0.0:
                lon += 360.0
            lon -= 180.0
            object.__setattr__(self, "lon_deg", lon)


@dataclass
class ScenarioConfig:
    """Satellite and link parameters with Ka-band GEO defaults.

    The wavelength is derived from the carrier unless given explicitly, in
    which case it must be consistent with the speed of light.
    """

    sat_lat_deg: float = 0.0
    sat_lon_deg: float = 13.0
    altitude_m: float = GEO_ALTITUDE_M
    earth_radius_m: float = EARTH_RADIUS_M
    carrier_freq_hz: float = 19.5e9
    wavelength_m: float = field(default=None)
    rx_gain_db: float = 40.7
    total_power_w: float = 6000.0
    bandwidth_hz: float = 50e6

    def __post_init__(self):
        if self.altitude_m <= 0:
            raise ValueError("altitude must be positive")
        if self.earth_radius_m <= 0:
            raise ValueError("earth radius must be positive")
        if self.carrier_freq_hz <= 0:
            raise ValueError("carrier frequency must be positive")
        if self.total_power_w <= 0:
            raise ValueError("total power must be positive")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")
        if self.wavelength_m is None:
            self.wavelength_m = SPEED_OF_LIGHT / self.carrier_freq_hz
        else:
            err = abs(self.wavelength_m * self.carrier_freq_hz - SPEED_OF_LIGHT)
            if err > 1e-9 * SPEED_OF_LIGHT:
                raise ValueError(
                    "wavelength and carrier frequency are inconsistent: "
                    f"lambda*f = {self.wavelength_m * self.carrier_freq_hz!r}"
                )


def great_circle_distance(a: GeoPoint, b: GeoPoint, radius_m: float = EARTH_RADIUS_M) -> float:
    """Distance along the sphere as atan2(|u x v|, u . v) of the unit vectors.

    Unlike acos of the law of cosines, which rounds separations below about
    0.1 m to zero and loses as much near the antipode, the atan2 form keeps
    the error near machine precision at every separation. Swapping the
    points only negates each cross-product component, so the result is
    exactly symmetric.
    """
    if radius_m <= 0:
        raise ValueError("radius must be positive")
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

    Exactly h at the sub-satellite point; at most R + (R+h) anywhere.
    """
    if altitude_m <= 0 or earth_radius_m <= 0:
        raise ValueError("altitude and radius must be positive")
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
    if distance_m <= 0:
        raise ValueError("distance must be positive")
    if wavelength_m <= 0:
        raise ValueError("wavelength must be positive")
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength_m)
