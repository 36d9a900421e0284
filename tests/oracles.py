"""Object-per-sample pattern views, kept as oracles for the array code.

The library keeps a pattern as (samples, beams) arrays and interpolates
gains through NearestSamples. These are the plain views the tests compare
against: one sample as a SamplePoint, one beam's samples in grid order, and
the gain at a point interpolated from such samples.
"""

import math
from dataclasses import dataclass

import numpy as np

from sattraffic.geo import GeoPoint
from sattraffic.linkbudget import NearestSamples

_TWO_PI = 2.0 * math.pi


def normalize_phase(theta):
    p = math.fmod(float(theta), _TWO_PI)
    if p < 0.0:
        p += _TWO_PI
    if p >= _TWO_PI:  # adding 2*pi to a tiny negative rounds up to 2*pi
        p = 0.0
    return p


@dataclass(frozen=True)
class SamplePoint:
    """One measured pattern sample: location, gain in dB, phase in radians."""

    location: GeoPoint
    gain_db: float
    phase_rad: float

    def __post_init__(self):
        gain = float(self.gain_db)
        if not math.isfinite(gain):
            raise ValueError("sample gain must be finite")
        theta = float(self.phase_rad)
        if not math.isfinite(theta):
            raise ValueError("sample phase must be finite")
        object.__setattr__(self, "gain_db", gain)
        object.__setattr__(self, "phase_rad", normalize_phase(theta))


def beam_samples(pattern, beam_id):
    """The samples of one beam of a BeamPattern as SamplePoints, grid order."""
    col = pattern.check_beam(beam_id)
    return tuple(
        SamplePoint(
            location=GeoPoint(pattern.lat_deg[j], pattern.lon_deg[j]),
            gain_db=pattern.gain_db[j, col],
            phase_rad=pattern.phase_rad[j, col],
        )
        for j in range(pattern.samples_per_beam)
    )


def interpolate_gain(user, samples):
    """Gain in dB at a point, interpolated from a beam's sample points."""
    samples = list(samples)
    if not samples:
        raise ValueError("interpolation needs at least one sample")
    lat = np.array([s.location.lat_deg for s in samples])
    lon = np.array([s.location.lon_deg for s in samples])
    gain = np.array([s.gain_db for s in samples])
    index = NearestSamples([float(user.lat_deg)], [float(user.lon_deg)], lat, lon)
    return float(index.gain(gain)[0])
