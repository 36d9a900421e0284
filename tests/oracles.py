"""Plain implementations kept as oracles for the array code.

The library keeps a pattern as (samples, beams) arrays and interpolates
gains through NearestSamples. The first oracles are the plain views the
tests compare against: one sample as a SamplePoint, one beam's samples in
grid order, and the gain at a point interpolated from such samples.

The library's interference sweep reduces the exhaustive mean to a closed
form and sums the uniform trials in numpy. interference_sweep below is the
plain version: it lists every set, or draws each trial's set from the same
keys, and averages interference() over the sets with math.fsum.

The library writes its CSV files a block of columns at a time. The row
writers below format one value per call through fmt_float and give the
bytes the block writers must match, non-finite errors included.
"""

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from sattraffic.analysis import (
    BEAM_CLASS_HEADER,
    HOURS,
    INTERFERENCE_HEADER,
    PROFILE_HEADER,
    SweepResult,
)
from sattraffic.geo import GeoPoint
from sattraffic.ioutil import fmt_float
from sattraffic.linkbudget import CHANNEL_HEADER, NearestSamples, interference
from sattraffic.pattern import BORDERS_HEADER, PATTERN_HEADER
from sattraffic.traffic import TRAFFIC_HEADER

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


def interference_sweep(H, cfg, sizes, policy="uniform", trials=100, seed=0, users=None):
    """Mean interference per user and set size, one interference() per set.

    exhaustive lists every set of the size that holds the serving beam.
    uniform draws one trials x (B-1) block of keys per user and size s >= 2,
    in the library's order, and takes for each trial the other beams (in id
    order) with the s-1 smallest keys.
    """
    if users is None:
        users = range(1, H.n_users + 1)
    users = [int(u) for u in users]
    sizes = [int(s) for s in sizes]
    rng = np.random.default_rng(seed)
    watts = np.zeros((len(users), len(sizes)))
    for ui, n in enumerate(users):
        serving = int(H.serving[n - 1])
        others = [j for j in range(1, H.beams + 1) if j != serving]
        for si, s in enumerate(sizes):
            split = cfg.total_power_w / s
            if policy == "exhaustive":
                sets = [
                    {serving, *combo} for combo in combinations(others, s - 1)
                ]
            elif s == 1:
                sets = [{serving}]
            else:
                keys = rng.random((trials, len(others)))
                sets = [
                    {serving, *(others[int(i)] for i in np.argsort(row)[: s - 1])}
                    for row in keys
                ]
            total = math.fsum(
                interference(H, n, active, split) for active in sets
            )
            watts[ui, si] = total / len(sets)
    return SweepResult(users=tuple(users), sizes=tuple(sizes), watts=watts)


def escape(s):
    """JSON string escape, one character at a time."""
    out = []
    for ch in s:
        if ch == '"':
            out.append('\\"')
        elif ch == "\\":
            out.append("\\\\")
        elif ord(ch) < 0x20:
            out.append(f"\\u{ord(ch):04x}")
        else:
            out.append(ch)
    return "".join(out)


def write_csv(path, header, rows):
    """Write rows of already-formatted strings with a trailing newline."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def magnitude(z):
    """abs(z), taking the NaN of C99 when a part is NaN and none is infinite.

    CPython's abs(complex) does not reset errno on that path, so an ERANGE
    left by an earlier call turns the NaN into a spurious OverflowError.
    """
    if (math.isnan(z.real) or math.isnan(z.imag)) and not (
        math.isinf(z.real) or math.isinf(z.imag)
    ):
        return math.nan
    return abs(z)


def entry_phase(z):
    theta = math.atan2(z.imag, z.real)
    if theta < 0.0:
        theta += _TWO_PI
    if theta >= _TWO_PI:
        theta = 0.0
    return theta


def write_channel_csv(H, path):
    def rows():
        for i in range(H.n_users):
            for j in range(H.beams):
                z = complex(H.entries[i, j])
                yield (
                    str(i + 1),
                    str(j + 1),
                    fmt_float(magnitude(z)),
                    fmt_float(entry_phase(z)),
                )

    write_csv(path, CHANNEL_HEADER.split(","), rows())


def write_traffic_csv(T, path):
    def rows():
        columns = zip(
            T.beam.tolist(), T.lat_deg.tolist(), T.lon_deg.tolist(),
            T.type.tolist(), T.demand_mbps.tolist(),
        )
        for user, (beam, lat, lon, kind, demand) in enumerate(columns, start=1):
            yield (
                str(user),
                str(beam),
                fmt_float(lat),
                fmt_float(lon),
                str(kind),
                fmt_float(demand),
            )

    write_csv(path, TRAFFIC_HEADER.split(","), rows())


def write_borders_csv(footprints, path):
    def rows():
        for fp in footprints:
            for idx, (lat, lon) in enumerate(fp.border.vertices):
                yield (str(fp.beam_id), str(idx), fmt_float(lat), fmt_float(lon))

    write_csv(path, BORDERS_HEADER.split(","), rows())


def write_profile_csv(profile, path):
    def rows():
        for b in range(profile.beams):
            for hour in range(HOURS):
                for k in range(3):
                    yield (
                        str(b + 1),
                        str(hour),
                        str(k + 1),
                        fmt_float(profile.demand_mbps[b, hour, k]),
                        fmt_float(profile.normalized[b, hour, k]),
                    )

    write_csv(path, PROFILE_HEADER.split(","), rows())


def write_beam_class_csv(classes, path):
    def rows():
        for c in classes:
            yield (str(c.beam_id), c.label, fmt_float(c.mean_demand_mbps))

    write_csv(path, BEAM_CLASS_HEADER.split(","), rows())


def write_interference_csv(sweep, path):
    def rows():
        for ui, user in enumerate(sweep.users):
            for si, size in enumerate(sweep.sizes):
                yield (str(user), str(size), fmt_float(sweep.watts[ui, si]))

    write_csv(path, INTERFERENCE_HEADER.split(","), rows())


def write_pattern(pattern, path):
    grid = zip(pattern.lat_deg.tolist(), pattern.lon_deg.tolist())
    cells = [f"{fmt_float(lat)},{fmt_float(lon)}" for lat, lon in grid]
    columns = zip(pattern.gain_db.T.tolist(), pattern.phase_rad.T.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(PATTERN_HEADER + "\n")
        for beam, (gains, phases) in enumerate(columns, start=1):
            for cell, gain, phase in zip(cells, gains, phases):
                fh.write(f"{beam},{cell},{fmt_float(gain)},{fmt_float(phase)}\n")
