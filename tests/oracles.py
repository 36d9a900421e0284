"""Plain implementations kept as oracles for the array code.

The library keeps a pattern as (samples, beams) arrays and interpolates
gains through NearestSamples, which scans a latitude band of the grid per
block of locations and ranks each point's samples once. ranked_samples
ranks the whole grid for every point, by a stable argsort of the cosines
with coordinate hits first; idw_gain blends its first three samples, once
per beam, and nearest_samples takes its first. The other oracles, but for
the three blend oracles below, search through them, never through
NearestSamples, so they cannot share a fault of the band search.
The first oracles are the plain views the tests compare against: one sample
as a SamplePoint, one beam's samples in grid order, and the gain at a point
interpolated from such samples.

NearestSamples.gain blends each point's own beam at the points it is
given. spread_gain below is the form it replaced, which blended one beam at
every distinct point of the index and spread the values to the query rows;
contested_gains_by_spread runs association's comparisons through it, and
serving_gain_by_beam the channel's serving-beam gains. These three take
their nearest samples from a NearestSamples index and stand in for its
blend only.

The library's interference sweep reduces the exhaustive mean to a closed
form, computed once per distinct (location, serving beam) pair of the swept
users. interference_sweep below is the plain version: it lists every set,
adds each set's interference from the complex entries as interference()
adds it from the magnitudes, and averages over the sets with math.fsum.
per_user_sweep is the closed form the library computed before, one row per
swept user, each beam's gain gathered per user. Both return a SweepResult
whose user i takes row i.

The library writes its CSV files a block of columns at a time. The row
writers below format one value per call through fmt_float and give the
bytes the block writers must match, non-finite errors included.

hourly_profiles below associates the movers hour by hour, 25 calls in
all; the library associates the movers of every hour in one call.

build_channel_matrix below computes the slant range, loss and phase once
per user, through the public, checked slant_range and path_loss_db, and
holds the channel as a ComplexChannel: one complex entry per user and beam,
10^((gain - loss + rx_gain_db) / 20) * e^(i phase). The library computes
them on the array of distinct locations, one call of each of geo's
unchecked array cores, and holds real magnitudes plus one phase per
location. slant_range_per_point below is the scalar arithmetic, in math,
that geo ran once per point before its array cores.

The library formats the lines of each distinct channel row, and of each
distinct sweep pair, once per block of users, through
ioutil.write_by_location, and writes channel_summary.json's text with one
template per user. write_channel_csv below formats every entry's magnitude
and phase, write_interference_csv every (user, size) value, and
write_complex_channel_csv every complex entry's abs() and angle, the form in
which the library wrote the channel when it held it complex; channel_summary
returns the plain data that ioutil.canonical_json serializes.

The library's loaders return TerminalBlocks, columns filled a chunk of lines
at a time. load_population and load_movements below are the loaders they
replaced: one row at a time, one Terminal and GeoPoint per terminal, in a
list that carries the dropped counts.

The library parses a pattern CSV a chunk of lines at a time, with
np.loadtxt where it can and the line parser for a chunk where it cannot,
and checks each beam's count and grid against beam 1 as its columns fill.
_parse_rows below is the whole-file line parser it replaced: it reads every
line through the one-line parser and checks each beam's rows as lists once
the file has been read. It keeps the phase column, which the library checks
and drops, and returns it beside the BeamPattern as a plain array.

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
from sattraffic.geometry import (
    _dedup,
    _noncollinear_witness,
    _normalize,
    polygon_contains_many,
)
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
from sattraffic.linkbudget import CHANNEL_HEADER, NearestSamples, _cos_angles
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


def beam_samples(pattern, beam_id, phase_rad=None):
    """The samples of one beam of a BeamPattern as SamplePoints, grid order,
    with their phases from the (samples, beams) phase_rad, or 0 without one."""
    col = pattern.check_beam(beam_id)
    if phase_rad is None:
        phase_rad = np.zeros_like(pattern.gain_db)
    return tuple(
        SamplePoint(
            location=GeoPoint(pattern.lat_deg[j], pattern.lon_deg[j]),
            gain_db=pattern.gain_db[j, col],
            phase_rad=phase_rad[j, col],
        )
        for j in range(pattern.samples_per_beam)
    )


def ranked_samples(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg):
    """Per point, every sample of the grid ranked, and their cosines in that
    order: a stable argsort of the cosines of the central angles, greatest
    first, with an exact coordinate hit given cosine 2 so that it ranks
    first, and ties toward the lower sample index."""
    lat_deg = np.asarray(lat_deg, dtype=float)
    lon_deg = np.asarray(lon_deg, dtype=float)
    grid_lat_deg = np.asarray(grid_lat_deg, dtype=float)
    grid_lon_deg = np.asarray(grid_lon_deg, dtype=float)
    t = _cos_angles(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg)
    t[(lat_deg[:, None] == grid_lat_deg) & (lon_deg[:, None] == grid_lon_deg)] = 2.0
    idx = np.argsort(-t, axis=1, kind="stable")
    return idx, np.take_along_axis(t, idx, axis=1)


def idw_gain(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg, gains_db):
    """Inverse-distance-squared gain over the first three ranked samples.

    A user at distance zero from its first-ranked sample, as a user sitting
    exactly on a sample is, takes that sample's gain. Returns the gains and
    the three first-ranked sample indices per user.
    """
    gains_db = np.asarray(gains_db, dtype=float)
    k = min(3, len(gains_db))
    idx, t = ranked_samples(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg)
    idx = idx[:, :k]
    dk = np.arccos(np.minimum(t[:, :k], 1.0))
    gk = gains_db[idx]
    with np.errstate(divide="ignore", invalid="ignore"):
        w = (dk[:, :1] / dk) ** 2
    vals = np.sum(w * gk, axis=1) / np.sum(w, axis=1)
    zero = dk[:, 0] == 0.0
    vals[zero] = gk[zero, 0]
    return vals, idx


def nearest_samples(lat_deg, lon_deg, grid_lat_deg, grid_lon_deg):
    """Per point, the first sample of ranked_samples' ranking, 256 points
    at a time."""
    lat_deg, lon_deg = np.asarray(lat_deg, dtype=float), np.asarray(lon_deg, dtype=float)
    nearest = np.empty(lat_deg.size, dtype=np.int64)
    for lo in range(0, lat_deg.size, 256):
        idx, _ = ranked_samples(lat_deg[lo : lo + 256], lon_deg[lo : lo + 256],
                                grid_lat_deg, grid_lon_deg)
        nearest[lo : lo + 256] = idx[:, 0]
    return nearest


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
    """Mean interference per user and set size, set by set.

    Lists every set of the size that holds the serving beam, and adds each
    other active beam's P/s * |h|**2, h the complex entry, in id order.
    """
    entries = H.entries
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
            totals = []
            for combo in combinations(others, s - 1):
                total = 0.0
                for j in combo:
                    total += split * abs(entries[n - 1, j - 1]) ** 2
                totals.append(total)
            watts[ui, si] = math.fsum(totals) / len(totals)
    return SweepResult(users=users, sizes=tuple(sizes), watts=watts,
                       pair=np.arange(len(users)))


def per_user_sweep(H, cfg, sizes, users=None):
    """The closed form for every swept user, one row each: |h|**2 through
    libm pow per location, each beam's P/s * |h|**2 gathered per user and
    added in id order, the serving beam's as 0, then scaled per size."""
    if users is None:
        users = range(1, H.n_users + 1)
    rows = np.array([int(n) - 1 for n in users], dtype=np.int64)
    sizes = [int(s) for s in sizes]
    watts = np.zeros((len(rows), len(sizes)))
    location = H.location[rows]
    gains = np.float_power(H.magnitude, 2.0)
    serving = H.serving[rows][:, None]
    split = cfg.total_power_w / np.array(sizes, dtype=float)
    term = np.empty_like(watts)
    for j in range(1, H.beams + 1):
        gain = gains[location, j - 1][:, None]
        gain[serving == j] = 0.0
        watts += np.multiply(gain, split, out=term)
    for si, s in enumerate(sizes):
        watts[:, si] = watts[:, si] * ((s - 1) / (H.beams - 1)) if s > 1 else 0.0
    return SweepResult(users=rows + 1, sizes=tuple(sizes), watts=watts,
                       pair=np.arange(len(rows)))


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


@dataclass(frozen=True)
class ComplexChannel:
    """A channel held as one complex entry per user and beam, user n in row
    n-1, with the per-user link diagnostics of a ChannelMatrix."""

    entries: np.ndarray
    serving: np.ndarray
    distance_m: np.ndarray
    path_loss_db: np.ndarray
    interp_gain_db: np.ndarray
    nearest_sample: np.ndarray

    @property
    def n_users(self):
        return self.entries.shape[0]

    @property
    def beams(self):
        return self.entries.shape[1]


def slant_range_per_point(lat_deg, lon_deg, sat_lat_deg, sat_lon_deg, altitude_m,
                          earth_radius_m):
    """slant_range's law of cosines on one point, in math's scalar functions."""
    q = earth_radius_m / (earth_radius_m + altitude_m)
    t = (
        math.cos(math.radians(sat_lon_deg - lon_deg))
        * math.cos(math.radians(sat_lat_deg))
        * math.cos(math.radians(lat_deg))
        + math.sin(math.radians(sat_lat_deg)) * math.sin(math.radians(lat_deg))
    )
    t = max(-1.0, min(1.0, t))
    return (earth_radius_m + altitude_m) * math.sqrt(1.0 + q * q - 2.0 * q * t)


def build_channel_matrix(T, pattern, cfg):
    """The channel with range, loss and phase computed user by user."""
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

    nearest = nearest_samples(T.lat_deg, T.lon_deg, pattern.lat_deg, pattern.lon_deg)
    amp_db = pattern.gain_db[nearest, :] - loss[:, None] + cfg.rx_gain_db
    entries = 10.0 ** (amp_db / 20.0) * np.exp(1j * phase)[:, None]
    gamma = np.empty(n)
    for j in np.unique(T.beam):
        sel = T.beam == j
        gains, _ = idw_gain(
            T.lat_deg[sel], T.lon_deg[sel], pattern.lat_deg, pattern.lon_deg,
            pattern.gain_db[:, j - 1],
        )
        gamma[sel] = gains
    return ComplexChannel(
        entries=entries,
        serving=T.beam,
        distance_m=dist,
        path_loss_db=loss,
        interp_gain_db=gamma,
        nearest_sample=nearest,
    )


def spread_gain(index, gains_db):
    """One beam's gain, gains_db per grid sample, blended once at every
    distinct point of index and then spread to its query rows: the form of
    NearestSamples.gain that took one gain column."""
    gains_db = np.asarray(gains_db, dtype=float)
    gk = gains_db[index.top_k]
    vals = np.sum(index._w * gk, axis=1) / index._w_sum
    vals[index._zero] = gk[index._zero, 0]
    return vals[index.inverse]


def contested_gains_by_spread(footprints, pattern, terminals):
    """The gains association compares, from blends of every contested point.

    terminals is a TerminalBlock. Per beam in id order: (beam id, its
    contested rows, their gains), each beam's gain blended by spread_gain
    at every contested location and then kept at the beam's own rows; and
    the beam each contested row goes to, ties to the lowest id. This is
    association's second pass from before it blended only the rows a beam
    contains.
    """
    lats, lons = terminals.lat_deg, terminals.lon_deg
    inside = [(fp.beam_id, polygon_contains_many(fp.border, lats, lons))
              for fp in sorted(footprints, key=lambda fp: fp.beam_id)]
    contested = np.sum([mask for _, mask in inside], axis=0, dtype=np.int64) > 1
    rows_of = np.flatnonzero(contested)
    index = NearestSamples(lats[rows_of], lons[rows_of], pattern.lat_deg, pattern.lon_deg)
    per_beam = []
    best = np.full(rows_of.size, -np.inf)
    chosen = np.zeros(rows_of.size, dtype=np.int64)
    for j, mask in inside:
        rows = np.flatnonzero(mask & contested)
        at = np.searchsorted(rows_of, rows)
        gains = spread_gain(index, pattern.gain_db[:, j - 1])[at]
        per_beam.append((j, rows, gains))
        better = gains > best[at]
        best[at[better]] = gains[better]
        chosen[at[better]] = j
    return per_beam, dict(zip(rows_of.tolist(), chosen.tolist()))


def serving_gain_by_beam(index, gain_db, serving):
    """Each query row's gain under its 1-based serving beam, with one
    spread_gain per serving beam over every row, keeping the rows that beam
    serves: the loop that one gather of each row's serving beam replaced in
    build_channel_matrix."""
    gamma = np.empty(len(serving))
    for j in np.unique(serving):
        sel = serving == j
        gamma[sel] = spread_gain(index, gain_db[:, j - 1])[sel]
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
    """(BeamPattern, phase) of a pattern body's lines, line ends kept or not,
    phase the (samples, beams) array of the phase column; the first line is
    line 2."""
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
    return BeamPattern(beams[0][0], beams[0][1], gain), phase


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


def _write_channel(path, H, entry):
    """channel.csv with entry(user, beam), 0-based, giving each entry's
    magnitude and phase."""
    def rows():
        for i in range(H.n_users):
            for j in range(H.beams):
                mag, phase = entry(i, j)
                yield str(i + 1), str(j + 1), fmt_float(mag), fmt_float(phase)

    write_csv(path, CHANNEL_HEADER.split(","), rows())


def write_channel_csv(H, path):
    """A ChannelMatrix entry by entry: the magnitude of the user's location
    at the beam, then that location's phase."""
    _write_channel(path, H, lambda i, j: (H.magnitude[H.location[i], j],
                                          H.phase_rad[H.location[i]]))


def write_complex_channel_csv(H, path):
    """Complex entries entry by entry: abs(z), then the angle of z in [0, 2*pi)."""
    entries = H.entries

    def entry(i, j):
        z = complex(entries[i, j])
        return magnitude(z), entry_phase(z)

    _write_channel(path, H, entry)


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
                yield (str(user), str(size), fmt_float(sweep.watts[sweep.pair[ui], si]))

    write_csv(path, INTERFERENCE_HEADER.split(","), rows())


def write_pattern(lat_deg, lon_deg, gain_db, phase_rad, path):
    grid = zip(lat_deg.tolist(), lon_deg.tolist())
    cells = [f"{fmt_float(lat)},{fmt_float(lon)}" for lat, lon in grid]
    columns = zip(gain_db.T.tolist(), phase_rad.T.tolist())
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

