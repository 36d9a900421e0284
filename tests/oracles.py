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
form. interference_sweep below is the plain version: it lists every set and
averages interference() over the sets with math.fsum.

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

The library parses a pattern CSV a chunk of lines at a time, with
np.loadtxt where it can and the line parser for a chunk where it cannot,
and checks each beam's count and grid against beam 1 as its columns fill.
_parse_rows below is the whole-file line parser it replaced: it reads every
line through the one-line parser and checks each beam's rows as lists once
the file has been read.

The movement oracle reads each timestamp with utc_timestamp below, its own
reading of the loaders' rules, not the library's parser.

The library's synth writers draw the rows vehicle by vehicle and format
them a block at a time. synth_population and synth_movements below make the
same draws and write one row at a time through fmt_float.

The library triangulates by a sweep and Lawson flips over filtered
predicates. delaunay_triangles below lists every triple whose circumcircle
holds no other point, each in-circle sign taken from the lifted 4x4
determinant in Fractions.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from fractions import Fraction
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
from sattraffic.errors import (
    CollinearInputError,
    NegativePopulationError,
    ParseError,
    SchemaError,
    TimestampError,
)
from sattraffic.geo import GeoPoint, path_loss_db, slant_range
from sattraffic.geometry import _dedup, _noncollinear_witness, _normalize
from sattraffic.ingest import (
    DEFAULT_BBOX,
    POPULATION_HEADER,
    Terminal,
    TrafficType,
    UrbanPolicy,
    _check_box,
    _coord,
    _diurnal_counts,
    _require,
)
from sattraffic.ioutil import check_header, fmt_float, open_input
from sattraffic.linkbudget import (
    CHANNEL_HEADER,
    ChannelMatrix,
    _cos_angles,
    interference,
)
from sattraffic.pattern import BORDERS_HEADER, PATTERN_HEADER, BeamPattern, _parse_row
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
        rows=entries,
        location=np.arange(n),
        serving=T.beam,
        distance_m=dist,
        path_loss_db=loss,
        interp_gain_db=gamma,
        nearest_sample=nearest,
    )


def serving_gain_by_beam(index, gain_db, serving):
    """Each query row's gain under its 1-based serving beam, with one
    NearestSamples.gain call per serving beam over every row, keeping the
    rows that beam serves: the loop that one gather of each row's serving
    beam replaced in build_channel_matrix."""
    gamma = np.empty(len(serving))
    for j in np.unique(serving):
        sel = serving == j
        gamma[sel] = index.gain(gain_db[:, j - 1])[sel]
    return gamma


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
        check_header(fh, POPULATION_HEADER, path)
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
                    f"population must be finite and >= 0, got {fields[2]}", lineno, path
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


def utc_timestamp(text, lineno, path):
    """The naive UTC datetime of a timestamp text, read as UTC without an
    offset, or the TimestampError the loaders raise: for a text fromisoformat
    refuses, and for an instant outside years 1..9999 in UTC."""
    try:
        dt = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    except ValueError:
        raise TimestampError(f"unparseable timestamp {text!r}", lineno, path) from None
    try:
        return dt.replace(tzinfo=None) - (dt.utcoffset() or timedelta(0))
    except OverflowError:
        raise TimestampError(f"timestamp {text!r} is outside the datetime range in UTC",
                             lineno, path) from None


def load_movements(source, hours, header, id_name, traffic_type, demand_mbps, bbox):
    """A movement log read once, row by row; one TerminalList per hour, in order."""
    for hour in hours:
        if not isinstance(hour, int) or isinstance(hour, bool) or not 0 <= hour <= 23:
            raise ValueError(f"hour must be an integer in [0, 23], got {hour!r}")

    firsts = {hour: {} for hour in hours}  # hour -> id -> (timestamp, row_idx, lat, lon)
    bad = dict.fromkeys(firsts, 0)
    out = dict.fromkeys(firsts, 0)
    with open_input(source) as (fh, path):
        check_header(fh, header, path)
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
            ts = utc_timestamp(fields[1], lineno, path)
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


def _parse_rows(lines, path):
    """The BeamPattern of a pattern body's lines, line ends kept or not; the
    first of them is line 2."""
    beams = []  # per beam: [lat list, lon list, gain list, phase list]
    for lineno, raw in enumerate(lines, start=2):
        line = raw.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 5:
            raise ParseError(f"expected 5 fields, got {len(fields)}", lineno, path)
        beam, (lat, lon, gain, phase) = _parse_row(fields, lineno, path)
        if beam == len(beams) + 1:
            beams.append([[], [], [], []])
        elif beam != len(beams) or not beams:
            raise SchemaError(
                f"beam ids must be grouped and contiguous from 1: "
                f"saw beam {beam} on line {lineno} after beam {len(beams)}"
            )
        rec = beams[beam - 1]
        rec[0].append(lat)
        rec[1].append(lon)
        rec[2].append(gain)
        rec[3].append(phase)

    if not beams:
        raise SchemaError("pattern file has no sample rows")
    mu = len(beams[0][0])
    for i, rec in enumerate(beams[1:], start=2):
        if len(rec[0]) != mu:
            raise SchemaError(f"beam {i} has {len(rec[0])} samples, expected {mu}")
        if rec[0] != beams[0][0] or rec[1] != beams[0][1]:
            raise SchemaError(f"beam {i} sample grid differs from beam 1")

    gain = np.column_stack([rec[2] for rec in beams])
    phase = np.column_stack([rec[3] for rec in beams])
    return BeamPattern(beams[0][0], beams[0][1], gain, phase)


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
    entries = H.entries

    def rows():
        for i in range(H.n_users):
            for j in range(H.beams):
                z = complex(entries[i, j])
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


def synth_population(out_path, seed, cells=400, lat_min=47.0, lat_max=57.0,
                     lon_min=0.0, lon_max=10.0, cell_deg=0.25,
                     urban_fraction=0.1):
    _require(isinstance(cells, int) and cells >= 1, "cells must be an integer >= 1")
    _require(cell_deg > 0, "cell_deg must be > 0")
    _require(0.0 <= urban_fraction <= 1.0, "urban_fraction must lie in [0, 1]")
    _check_box(lat_min, lat_max, lon_min, lon_max)

    rng = np.random.default_rng(seed)
    nlat = max(1, int((lat_max - lat_min) / cell_deg))
    nlon = max(1, int((lon_max - lon_min) / cell_deg))
    _require(cells <= nlat * nlon, "more cells than the grid holds")
    chosen = rng.choice(nlat * nlon, size=cells, replace=False)
    urban = rng.random(cells) < urban_fraction
    rural_pop = rng.integers(0, 4000, size=cells)
    urban_pop = rng.integers(20000, 200001, size=cells)

    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(POPULATION_HEADER + "\n")
        for k in range(cells):
            cell = int(chosen[k])
            lat = lat_min + (cell // nlon + 0.5) * cell_deg
            lon = lon_min + (cell % nlon + 0.5) * cell_deg
            pop = int(urban_pop[k] if urban[k] else rural_pop[k])
            fh.write(f"{fmt_float(lat)},{fmt_float(lon)},{pop}\n")
    return out_path


def synth_movements(out_path, seed, header, prefix, fleet, weights,
                    lat_min, lat_max, lon_min, lon_max, max_extra_records):
    _require(isinstance(fleet, int) and fleet >= 1, "count must be an integer >= 1")
    _check_box(lat_min, lat_max, lon_min, lon_max)
    rng = np.random.default_rng(seed)
    counts = _diurnal_counts(fleet, weights)
    width = len(str(fleet))
    with open(out_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for hour in range(24):
            active = rng.choice(fleet, size=min(counts[hour], fleet), replace=False)
            for v in sorted(int(a) for a in active):
                records = 1 + int(rng.integers(0, max_extra_records + 1))
                minutes = sorted(int(m) for m in rng.choice(60, size=records, replace=False))
                lat = float(rng.uniform(lat_min, lat_max))
                lon = float(rng.uniform(lon_min, lon_max))
                for r, minute in enumerate(minutes):
                    # small drift between records keeps positions distinct
                    rlat = min(lat_max, max(lat_min, lat + 0.01 * r))
                    rlon = min(lon_max, max(lon_min, lon + 0.01 * r))
                    fh.write(
                        f"{prefix}{v + 1:0{width}d},"
                        f"2026-01-15T{hour:02d}:{minute:02d}:00Z,"
                        f"{fmt_float(rlat)},{fmt_float(rlon)}\n"
                    )
    return out_path


def _turn(p, q, r):
    """Exact cross product of q - p and r - p."""
    return (q[0] - p[0]) * (r[1] - p[1]) - (r[0] - p[0]) * (q[1] - p[1])


def _inside_lifted(pts, quad):
    """Whether quad[3] lies strictly inside the circle of CCW quad[:3].

    The sign of det[x, y, x^2 + y^2, 1] over the four rows, with every
    lifted point pushed down by an infinitesimal that is larger the lower its
    index. The determinant is linear in the lift column, so each push moves
    it by minus that row's lift cofactor, and the lowest index decides a tie.
    """
    rows = [pts[i] for i in quad]
    cofactors = [
        (-1) ** i * _turn(*(rows[j] for j in range(4) if j != i)) for i in range(4)
    ]
    det = sum((x * x + y * y) * c for (x, y), c in zip(rows, cofactors))
    if det != 0:
        return det > 0
    for _, c in sorted(zip(quad, cofactors)):
        if c != 0:
            return c < 0
    return False


def delaunay_triangles(points):
    """Sorted canonical CCW triples with an empty perturbed circumcircle.

    The library's deduplication, normalization and refusals come first. The
    points must stay distinct after normalization.
    """
    unique, _ = _dedup(points)
    if len(unique) < 3:
        raise CollinearInputError(f"need 3 distinct points, got {len(unique)}")
    x, y = _normalize(unique)
    if _noncollinear_witness(x, y) is None:
        raise CollinearInputError("all points are collinear")
    pts = [(Fraction(a), Fraction(b)) for a, b in zip(x.tolist(), y.tolist())]
    assert len(set(pts)) == len(pts), "points coincide after normalization"
    triangles = []
    for a, b, c in combinations(range(len(pts)), 3):
        turn = _turn(pts[a], pts[b], pts[c])
        if turn == 0:
            continue
        tri = (a, b, c) if turn > 0 else (a, c, b)
        if not any(
            _inside_lifted(pts, tri + (d,)) for d in range(len(pts)) if d not in tri
        ):
            triangles.append(tri)
    return sorted(triangles)

