"""Plain implementations kept as oracles for the array code.

The library keeps a pattern as (samples, beams) arrays and interpolates
gains through NearestSamples, which scans a latitude band of the grid per
block of locations. idw_gain and argmax_nearest scan the whole grid for
every point, once per beam. The other oracles search through them, never
through NearestSamples, so they cannot share a fault of the band search.
The first oracles are the plain views the tests compare against: one sample
as a SamplePoint, one beam's samples in grid order, and the gain at a point
interpolated from such samples.

The library's interference sweep reduces the exhaustive mean to a closed
form and sums the uniform trials in numpy. interference_sweep below is the
plain version: it lists every set, or draws each trial's set from the same
keys, and averages interference() over the sets with math.fsum.

The library writes its CSV files a block of columns at a time. The row
writers below format one value per call through fmt_float and give the
bytes the block writers must match, non-finite errors included.

hourly_profiles below associates the movers hour by hour, 25 calls in
all; the library associates the movers of every hour in one call.

build_channel_matrix below computes the slant range, loss and phase once
per user; the library computes them once per distinct location.

The library formats each distinct channel row once per block of users, and
writes channel_summary.json's text with one template per user.
write_channel_csv below formats every entry, and channel_summary returns
the plain data that ioutil.canonical_json serializes.

The library's loaders return TerminalBlocks, columns filled a chunk of lines
at a time. load_population and load_movements below are the loaders they
replaced: one row at a time, one Terminal and GeoPoint per terminal, in a
list that carries the dropped counts.
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
    HourlyProfile,
    SweepResult,
)
from sattraffic.errors import NegativePopulationError, ParseError
from sattraffic.geo import GeoPoint, path_loss_db, slant_range
from sattraffic.ingest import (
    DEFAULT_BBOX,
    POPULATION_HEADER,
    Terminal,
    TrafficType,
    UrbanPolicy,
    _check_header,
    _coord,
    _parse_timestamp,
)
from sattraffic.ioutil import fmt_float, open_input
from sattraffic.linkbudget import (
    CHANNEL_HEADER,
    ChannelMatrix,
    _cos_angles,
    interference,
)
from sattraffic.pattern import BORDERS_HEADER, PATTERN_HEADER
from sattraffic.traffic import TRAFFIC_HEADER, build_traffic_matrix, per_beam_demand

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
    """Per point, the first sample of maximal cosine over the whole grid."""
    t = _cos_angles(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg)
    return np.argmax(t, axis=1)


def interpolate_gain(user, samples):
    """Gain in dB at a point, interpolated from a beam's sample points."""
    samples = list(samples)
    if not samples:
        raise ValueError("interpolation needs at least one sample")
    lat = np.array([s.location.lat_deg for s in samples])
    lon = np.array([s.location.lon_deg for s in samples])
    gain = np.array([s.gain_db for s in samples])
    vals, _ = idw_gain([float(user.lat_deg)], [float(user.lon_deg)], lat, lon, gain)
    return float(vals[0])


def interference_sweep(H, cfg, sizes, users=None):
    """Mean interference per user and set size, one interference() per set.

    Lists every set of the size that holds the serving beam.
    """
    if users is None:
        users = range(1, H.n_users + 1)
    users = [int(u) for u in users]
    sizes = [int(s) for s in sizes]
    watts = np.zeros((len(users), len(sizes)))
    for ui, n in enumerate(users):
        serving = int(H.serving[n - 1])
        others = [j for j in range(1, H.beams + 1) if j != serving]
        for si, s in enumerate(sizes):
            split = cfg.total_power_w / s
            sets = [{serving, *combo} for combo in combinations(others, s - 1)]
            total = math.fsum(
                interference(H, n, active, split) for active in sets
            )
            watts[ui, si] = total / len(sets)
    return SweepResult(users=tuple(users), sizes=tuple(sizes), watts=watts)


def hourly_profiles(fss, aero_by_hour, maritime_by_hour, footprints, pattern):
    """The FSS block associated once, then the movers once per hour."""
    fss_demand = per_beam_demand(build_traffic_matrix(footprints, pattern, fss, (), ()))
    demand = np.zeros((pattern.beams, HOURS, 3))
    demand[:, :, 0] = fss_demand[:, :1]
    for hour, (aero, maritime) in enumerate(zip(aero_by_hour, maritime_by_hour)):
        movers = per_beam_demand(
            build_traffic_matrix(footprints, pattern, (), aero, maritime)
        )
        demand[:, hour, 1:] = movers[:, 1:]
    return HourlyProfile(demand_mbps=demand)


def build_channel_matrix(T, pattern, cfg):
    """The channel matrix with range, loss and phase computed user by user."""
    n = T.n_users
    lam = cfg.wavelength_m
    dist = np.empty(n)
    loss = np.empty(n)
    phase = np.empty(n)
    for i, (lat, lon) in enumerate(zip(T.lat_deg.tolist(), T.lon_deg.tolist())):
        d = slant_range(
            GeoPoint(lat, lon), cfg.sat_lat_deg, cfg.sat_lon_deg,
            cfg.altitude_m, cfg.earth_radius_m,
        )
        dist[i] = d
        loss[i] = path_loss_db(d, lam)
        phase[i] = _TWO_PI * math.fmod(d, lam) / lam

    nearest = argmax_nearest(T.lat_deg, T.lon_deg, pattern.lat_deg, pattern.lon_deg)
    amp_db = 10.0 * np.log10(np.abs(pattern.coefficients[nearest, :]) ** 2)
    amp_db -= loss[:, None]
    amp_db += cfg.rx_gain_db
    entries = 10.0 ** (amp_db / 20.0) * np.exp(1j * phase)[:, None]
    gamma = np.empty(n)
    for j in np.unique(T.beam):
        sel = T.beam == j
        gains, _ = idw_gain(
            T.lat_deg[sel], T.lon_deg[sel], pattern.lat_deg, pattern.lon_deg,
            pattern.gain_db[:, j - 1],
        )
        gamma[sel] = gains
    return ChannelMatrix(
        entries=entries,
        serving=T.beam,
        distance_m=dist,
        path_loss_db=loss,
        interp_gain_db=gamma,
        nearest_sample=nearest,
    )


class TerminalList(list):
    """Terminal list that also reports how many records were dropped."""

    def __init__(self, terminals=(), dropped_bad_coords=0, dropped_out_of_box=0):
        super().__init__(terminals)
        self.dropped_bad_coords = dropped_bad_coords
        self.dropped_out_of_box = dropped_out_of_box

    @property
    def dropped(self):
        return self.dropped_bad_coords + self.dropped_out_of_box


def load_population(source, downscale=1000, urban_policy=None, *,
                    demand_mbps=2.0, bbox=DEFAULT_BBOX):
    """Population raster to FSS terminals, one Terminal per terminal."""
    if not isinstance(downscale, int) or isinstance(downscale, bool) or downscale < 1:
        raise ValueError(f"downscale must be an integer >= 1, got {downscale!r}")
    if urban_policy is None:
        urban_policy = UrbanPolicy()

    cells = {}
    bad = 0
    out = 0
    with open_input(source) as (fh, path):
        _check_header(fh, POPULATION_HEADER, path)
        for lineno, rawline in enumerate(fh, start=2):
            line = rawline.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 3:
                raise ParseError(f"expected 3 fields, got {len(fields)}", lineno, path)
            lat = _coord(fields[0], "lat_deg", lineno, path)
            lon = _coord(fields[1], "lon_deg", lineno, path)
            try:
                pop = float(fields[2])
            except ValueError:
                raise ParseError(
                    f"population {fields[2]!r} is not a number", lineno, path
                ) from None
            if math.isnan(pop) or not math.isfinite(pop) or pop < 0:
                raise NegativePopulationError(
                    f"{path}: line {lineno}: population must be finite and >= 0, "
                    f"got {fields[2]}"
                )
            if lat is None or lon is None:
                bad += 1
                continue
            if not -90.0 <= lat <= 90.0:
                raise ParseError(f"lat_deg {lat} outside [-90, 90]", lineno, path)
            if not bbox.contains(lat, lon):
                out += 1
                continue
            cells.setdefault((lat, lon), []).append(pop)

    terminals = []
    serial = 0
    for (lat, lon), pops in sorted(cells.items()):
        pop = math.fsum(pops)
        count = int(pop // downscale)
        if pop > urban_policy.density_threshold:
            count = int(math.floor(count * urban_policy.suppression_factor))
        for _ in range(count):
            serial += 1
            terminals.append(
                Terminal(
                    id=f"fss-{serial}",
                    location=GeoPoint(lat, lon),
                    type=TrafficType.FSS,
                    demand_mbps=demand_mbps,
                )
            )
    return TerminalList(terminals, dropped_bad_coords=bad, dropped_out_of_box=out)


def load_movements(source, hours, header, id_name, traffic_type, demand_mbps, bbox):
    """A movement log read once, row by row; one TerminalList per hour, in order."""
    for hour in hours:
        if not isinstance(hour, int) or isinstance(hour, bool) or not 0 <= hour <= 23:
            raise ValueError(f"hour must be an integer in [0, 23], got {hour!r}")

    firsts = {hour: {} for hour in hours}  # hour -> id -> (timestamp, row_idx, lat, lon)
    bad = dict.fromkeys(firsts, 0)
    out = dict.fromkeys(firsts, 0)
    with open_input(source) as (fh, path):
        _check_header(fh, header, path)
        for lineno, rawline in enumerate(fh, start=2):
            line = rawline.rstrip("\r\n")
            if not line:
                continue
            fields = line.split(",")
            if len(fields) != 4:
                raise ParseError(f"expected 4 fields, got {len(fields)}", lineno, path)
            ident = fields[0].strip()
            if not ident:
                raise ParseError(f"empty {id_name}", lineno, path)
            ts = _parse_timestamp(fields[1], lineno, path)
            lat = _coord(fields[2], "lat_deg", lineno, path)
            lon = _coord(fields[3], "lon_deg", lineno, path)
            missing = lat is None or lon is None
            if not missing and not -90.0 <= lat <= 90.0:
                raise ParseError(f"lat_deg {lat} outside [-90, 90]", lineno, path)
            first = firsts.get(ts.hour)
            if first is None:
                continue
            if missing:
                bad[ts.hour] += 1
                continue
            if not bbox.contains(lat, lon):
                out[ts.hour] += 1
                continue
            key = (ts, lineno)
            if ident not in first or key < first[ident][:2]:
                first[ident] = (ts, lineno, lat, lon)

    return [
        TerminalList(
            [
                Terminal(ident, GeoPoint(lat, lon), traffic_type, demand_mbps)
                for ident, (_, _, lat, lon) in sorted(firsts[hour].items())
            ],
            dropped_bad_coords=bad[hour],
            dropped_out_of_box=out[hour],
        )
        for hour in hours
    ]


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


def channel_summary(H):
    """Plain-data summary with the per-user link diagnostics."""
    return {
        "users": int(H.n_users),
        "beams": int(H.beams),
        "per_user": [
            {
                "user": i + 1,
                "distance_m": float(H.distance_m[i]),
                "path_loss_db": float(H.path_loss_db[i]),
                "interp_gain_db": float(H.interp_gain_db[i]),
            }
            for i in range(H.n_users)
        ],
    }


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
