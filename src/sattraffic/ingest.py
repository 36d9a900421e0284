"""Demand-dataset ingestion and synthetic data generation.

Three loaders turn raw files into TerminalBlocks, columns of terminals: a
population raster is down-scaled into fixed (FSS) terminals, and flight /
vessel movement logs are reduced to one terminal per id per hour at the
first position seen in that hour. A movement log is read once however many
hours are asked for, a chunk of lines at a time, into columns of id,
timestamp, lat and lon; each distinct timestamp text is parsed once, each
chunk keeps only its first record per id and hour, and one more sort picks
every id's first record per requested hour from those. Records with
missing or NaN coordinates, and records outside the configured bounding
box, are dropped and counted, never patched.

The synthetic generators stand in for the real population, flight, and
vessel feeds so the whole pipeline runs reproducibly from a seed.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from functools import partial

import numpy as np

from .errors import (
    InvalidParamsError,
    NegativePopulationError,
    ParseError,
    TimestampError,
)
from .geo import LATITUDE, GeoPoint, wrap_lon
from .ioutil import (
    FINITE,
    check_header,
    fields_of,
    frozen,
    hold_columns,
    load_chunk,
    number,
    open_input,
    read_chunks,
    real,
    whole,
    write_table,
)
from .pattern import write_pattern

POPULATION_HEADER = "lat_deg,lon_deg,population"
AERO_HEADER = "flight_id,timestamp_iso8601_utc,lat_deg,lon_deg"
MARITIME_HEADER = "ship_id,timestamp_iso8601_utc,lat_deg,lon_deg"

# study region: the generators and default bounding box stay inside it
REGION_LAT = (25.0, 80.0)
REGION_LON = (-40.0, 50.0)


class TrafficType(IntEnum):
    FSS = 1
    AERO = 2
    MARITIME = 3


# a terminal's columns as (name, dtype, bounds of every value)
TERMINAL_COLUMNS = (("lat_deg", float, LATITUDE), ("lon_deg", float, FINITE),
                    ("type", np.int64, (min(TrafficType).value, max(TrafficType).value)),
                    ("demand_mbps", float, (0,)))


def _checked_ids(ids):
    """ids as a tuple, each a non-empty str: the rule for a terminal's id."""
    ids = tuple(ids)
    if not all(isinstance(ident, str) and ident for ident in ids):
        raise ValueError("terminal id must be a non-empty string")
    return ids


@dataclass(frozen=True)
class Terminal:
    """One demand source: a fixed site, a flight, or a vessel."""

    id: str
    location: GeoPoint
    type: TrafficType
    demand_mbps: float

    def __post_init__(self):
        _checked_ids((self.id,))
        object.__setattr__(self, "demand_mbps", real(self.demand_mbps, "demand_mbps", 0))
        object.__setattr__(self, "type", TrafficType(self.type))


@dataclass(frozen=True)
class BoundingBox:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, real(getattr(self, f.name), f.name))
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("bounding box must have positive extent")

    def contains(self, lat, lon):
        """Whether (lat, lon) lies in the box, edges included; elementwise on arrays."""
        return ((self.lat_min <= lat) & (lat <= self.lat_max)
                & (self.lon_min <= lon) & (lon <= self.lon_max))


DEFAULT_BBOX = BoundingBox(REGION_LAT[0], REGION_LAT[1], REGION_LON[0], REGION_LON[1])


@dataclass(frozen=True)
class UrbanPolicy:
    """Suppression of FSS terminals in dense cells.

    Cells whose population strictly exceeds density_threshold keep only
    floor(count * suppression_factor) terminals; alternative broadband
    competes with satellite there.
    """

    density_threshold: float = 50000.0
    suppression_factor: float = 0.5

    def __post_init__(self):
        for name, bounds in (("density_threshold", (0,)), ("suppression_factor", (0, 1))):
            object.__setattr__(self, name, real(getattr(self, name), name, *bounds))


@dataclass(frozen=True)
class IngestConfig:
    """Knobs the demand files do not carry themselves.

    The one place ingest settings get their defaults and their checks: the
    loaders take a whole IngestConfig and read their values from it.
    """

    downscale: int = 1000
    urban: UrbanPolicy = field(default_factory=UrbanPolicy)
    fss_demand_mbps: float = 2.0
    aero_demand_mbps: float = 10.0
    maritime_demand_mbps: float = 8.0
    bbox: BoundingBox = DEFAULT_BBOX

    def __post_init__(self):
        object.__setattr__(self, "downscale", whole(self.downscale, "downscale", 1))
        for name in ("fss_demand_mbps", "aero_demand_mbps", "maritime_demand_mbps"):
            object.__setattr__(self, name, real(getattr(self, name), name, 0))


def _with_settings(cfg, **settings):
    """cfg with the settings given one at a time in the loaders' earlier
    call forms, which bench/run.py still uses: load_population(source,
    downscale, urban_policy, bbox=...) and load_aero or load_maritime(source,
    hour, bbox=...). A setting left as None keeps cfg's value; IngestConfig
    checks the rest."""
    if not isinstance(cfg, IngestConfig):
        settings["downscale"] = cfg
        cfg = IngestConfig()
    return replace(cfg, **{k: v for k, v in settings.items() if v is not None})


# a config file's keys: IngestConfig's, UrbanPolicy's as urban_*, BoundingBox's
_BOX_KEYS = [f.name for f in fields(BoundingBox)]
_CONFIG_KEYS = (
    {f.name for f in fields(IngestConfig)} - {"urban", "bbox"}
    | {"urban_" + f.name for f in fields(UrbanPolicy)}
    | set(_BOX_KEYS)
)


def parse_config(source):
    """Read a key = value config file, a path or an open text file, into an
    IngestConfig.

    Blank lines and '#' comments are ignored; unknown keys are errors so a
    typo cannot silently fall back to a default. A value IngestConfig
    rejects raises ParseError naming the file.
    """
    with open_input(source) as (fh, path):
        lines = fh.read().splitlines()

    raw = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        if "=" not in text:
            raise ParseError("expected key = value", lineno, path)
        key, _, value = text.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise ParseError(f"unknown config key {key!r}", lineno, path)
        if key in raw:
            raise ParseError(f"duplicate config key {key!r}", lineno, path)
        try:
            raw[key] = int(value) if key == "downscale" else float(value)
        except ValueError:
            raise ParseError(f"bad value {value!r} for {key}", lineno, path) from None

    # lat_/lon_ keys set the box, urban_ keys the policy, the rest are fields
    box = {key: raw.pop(key) for key in _BOX_KEYS if key in raw}
    urban = {key.removeprefix("urban_"): raw.pop(key) for key in list(raw)
             if key.startswith("urban_")}
    defaults = IngestConfig()
    try:
        return replace(defaults, bbox=replace(defaults.bbox, **box),
                       urban=replace(defaults.urban, **urban), **raw)
    except ValueError as exc:
        raise ParseError(str(exc), None, path) from exc


@dataclass(frozen=True, eq=False, repr=False)
class TerminalBlock(Sequence):
    """Terminals as read-only columns, with the records dropped on the way.

    lat_deg, lon_deg, type (TrafficType values) and demand_mbps hold one row
    per terminal through ioutil.frozen, and ids the matching ids. Every value
    is one a Terminal accepts: latitudes in [-90, 90], finite longitudes,
    wrapped into [-180, 180) as a GeoPoint's are, and demands >= 0. The
    loaders fill the columns directly; indexing and iteration build Terminal
    objects on demand, so a block also reads as the sequence of its terminals.
    """

    ids: tuple
    lat_deg: np.ndarray
    lon_deg: np.ndarray
    type: np.ndarray
    demand_mbps: np.ndarray
    dropped_bad_coords: int = 0
    dropped_out_of_box: int = 0

    def __post_init__(self):
        object.__setattr__(self, "ids", _checked_ids(self.ids))
        hold_columns(self, TERMINAL_COLUMNS, len(self.ids), "terminal")
        object.__setattr__(self, "lon_deg", frozen(wrap_lon(self.lon_deg), float, "lon_deg"))

    @classmethod
    def of(cls, terminals):
        """terminals as a block: a block as it is, other Terminals read into columns."""
        if isinstance(terminals, cls):
            return terminals
        terminals = list(terminals)
        return cls(
            [t.id for t in terminals],
            [t.location.lat_deg for t in terminals],
            [t.location.lon_deg for t in terminals],
            [t.type for t in terminals],
            [t.demand_mbps for t in terminals],
        )

    @classmethod
    def concat(cls, *parts):
        """One block of the terminals of every part, in order; drops add up."""
        blocks = [cls.of(part) for part in parts]

        def joined(name):
            column = np.concatenate([getattr(b, name) for b in blocks])
            column.flags.writeable = False  # so that frozen keeps it, not a copy
            return column

        return cls(
            [ident for b in blocks for ident in b.ids],
            *map(joined, ("lat_deg", "lon_deg", "type", "demand_mbps")),
            dropped_bad_coords=sum(b.dropped_bad_coords for b in blocks),
            dropped_out_of_box=sum(b.dropped_out_of_box for b in blocks),
        )

    @property
    def dropped(self):
        return self.dropped_bad_coords + self.dropped_out_of_box

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, index):
        """The Terminal of one row; a slice gives a list of them, as a list would."""
        k = range(len(self))[index]
        if isinstance(k, range):
            return [self[i] for i in k]
        return Terminal(
            self.ids[k], GeoPoint(float(self.lat_deg[k]), float(self.lon_deg[k])),
            int(self.type[k]), float(self.demand_mbps[k]),
        )

    def __iter__(self):
        columns = zip(
            self.ids, self.lat_deg.tolist(), self.lon_deg.tolist(),
            self.type.tolist(), self.demand_mbps.tolist(),
        )
        for ident, lat, lon, kind, demand in columns:
            yield Terminal(ident, GeoPoint(lat, lon), kind, demand)

    def __eq__(self, other):
        """Equal to any sequence of equal terminals, as a list of them would be."""
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))


def _coord(text, name, lineno, path):
    """Parse one coordinate; None means the record must be dropped."""
    if not text.strip():
        return None
    v = number(text, name, lineno, path)
    if math.isnan(v):
        return None
    if not math.isfinite(v):
        raise ParseError(f"{name} must be finite, got {text}", lineno, path)
    return v


def load_population(source, cfg=IngestConfig(), urban_policy=None, *, bbox=None):
    """Population raster, a path or an open text file, to a block of FSS
    terminals. (A downscale in place of cfg, urban_policy and bbox are the
    earlier call form; see _with_settings.)

    Each cell yields floor(population / cfg.downscale) terminals at the cell
    center; cells above cfg.urban's density threshold keep only
    floor(count * suppression_factor). Rows with the same center are one
    cell (populations add); rows outside cfg.bbox are dropped. Every
    terminal demands cfg.fss_demand_mbps. Output is sorted by (lat, lon) so
    file row order never matters.
    """
    cfg = _with_settings(cfg, urban=urban_policy, bbox=bbox)
    cells = {}
    bad = 0
    out = 0
    with open_input(source) as (fh, path):
        check_header(fh, POPULATION_HEADER, path)
        for lineno, row in fields_of(fh, 2, 3, path):
            lat = _coord(row[0], "lat_deg", lineno, path)
            lon = _coord(row[1], "lon_deg", lineno, path)
            pop = number(row[2], "population", lineno, path)
            if not math.isfinite(pop) or pop < 0:
                raise NegativePopulationError(
                    f"population must be finite and >= 0, got {row[2]}", lineno, path
                )
            if lat is None or lon is None:
                bad += 1
                continue
            if not -90.0 <= lat <= 90.0:
                raise ParseError(f"lat_deg {lat} outside [-90, 90]", lineno, path)
            if not cfg.bbox.contains(lat, lon):
                out += 1
                continue
            cells.setdefault((lat, lon), []).append(pop)

    centers = sorted(cells)
    counts = []
    for center in centers:
        pop = math.fsum(cells[center])  # exact sum, so file row order cannot matter
        count = int(pop // cfg.downscale)
        if pop > cfg.urban.density_threshold:
            count = int(math.floor(count * cfg.urban.suppression_factor))
        counts.append(count)
    n = sum(counts)
    return TerminalBlock(
        [f"fss-{serial}" for serial in range(1, n + 1)],
        np.repeat(np.array([lat for lat, _ in centers], dtype=float), counts),
        np.repeat(np.array([lon for _, lon in centers], dtype=float), counts),
        np.full(n, TrafficType.FSS.value),
        np.full(n, cfg.fss_demand_mbps),
        dropped_bad_coords=bad,
        dropped_out_of_box=out,
    )


def _parse_timestamp(text, lineno, path):
    stripped = text.strip()
    try:
        dt = datetime.fromisoformat(stripped.replace("Z", "+00:00"))
    except ValueError:
        raise TimestampError(f"unparseable timestamp {text!r}", lineno, path) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    try:
        return dt.astimezone(timezone.utc)
    except OverflowError:  # the instant is before year 1 or after 9999 in UTC
        raise TimestampError(f"timestamp {text!r} is outside the datetime range in UTC",
                             lineno, path) from None


_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


def _add_stamp(text, micros_of, lineno, path):
    """Parse a timestamp text into micros_of, its UTC instant in microseconds
    since the epoch, unless it holds it already; equal instants get equal
    microseconds, so they compare as the datetimes do."""
    if text not in micros_of:
        micros_of[text] = (_parse_timestamp(text, lineno, path) - _EPOCH) // _MICROSECOND


# one movement row as np.loadtxt reads it: id and timestamp as their texts
_MOVEMENT = np.dtype([("id", object), ("stamp", object), ("lat", "f8"), ("lon", "f8")])
_HOUR_US = 3_600_000_000  # microseconds in an hour


def _fast_rows(lines, micros_of, path):
    """A chunk's rows as ioutil.load_chunk reads them, ids stripped and
    timestamps added to micros_of; NaN stands for a missing coordinate.
    None when a line has a defect or a blank coordinate, so that the line
    parser names the defect or reads the coordinate as missing."""
    rows = load_chunk(lines, _MOVEMENT)
    if rows is None or np.isinf(rows["lon"]).any() or (np.abs(rows["lat"]) > 90.0).any():
        return None
    ids = rows["id"].tolist()
    joined = "".join(ids)
    # every character str.strip removes is a space or not printable
    if " " in joined or not joined.isprintable():
        rows["id"] = ids = [ident.strip() for ident in ids]
    if not all(ids):
        return None
    try:
        for text in dict.fromkeys(rows["stamp"].tolist()):
            _add_stamp(text, micros_of, None, path)
    except TimestampError:
        # the line parser raises it, or the error of an earlier line
        return None
    return rows


def _line_rows(lines, lineno, micros_of, id_name, path):
    """_fast_rows one line at a time, from line lineno: reads a blank
    coordinate as missing and raises the error of the first bad line."""
    rows = []
    for lineno, row in fields_of(lines, lineno, 4, path):
        ident = row[0].strip()
        if not ident:
            raise ParseError(f"empty {id_name}", lineno, path)
        _add_stamp(row[1], micros_of, lineno, path)
        # every row is validated before the hour filter, so a defective
        # log fails the same way whichever hours are being loaded
        lat = _coord(row[2], "lat_deg", lineno, path)
        lon = _coord(row[3], "lon_deg", lineno, path)
        if lat is None or lon is None:
            lat = lon = math.nan
        elif not -90.0 <= lat <= 90.0:
            raise ParseError(f"lat_deg {lat} outside [-90, 90]", lineno, path)
        rows.append((ident, row[1], lat, lon))
    return np.array(rows, dtype=_MOVEMENT)


def _firsts(key, micros):
    """Positions of the first record of each (UTC hour, key) among records
    in file order: the least (micros, position), in (hour, key) order.
    lexsort is stable, so equal instants go to the earlier record."""
    hour = micros // _HOUR_US % 24  # UTC hour: the epoch is midnight
    group = hour * (int(key.max(initial=-1)) + 1) + key
    order = np.lexsort((micros, group))
    group = group[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = group[1:] != group[:-1]
    return order[first]


def _load_movements(source, hours, traffic_type, cfg):
    """Read a movement log once; one TerminalBlock per requested hour, in order.

    The log is parsed a chunk of lines at a time into columns, and only
    the rows of requested hours that lie in cfg.bbox count. Each id's
    first record per hour is the least (timestamp, row) among them, picked
    twice with a stable sort: each chunk keeps only its own first record
    per (id, hour), so memory follows the vehicle-hours in a chunk rather
    than its rows, and one pick over the chunks' survivors, in file order,
    leaves the first of all.
    """
    header, demand = {
        TrafficType.AERO: (AERO_HEADER, cfg.aero_demand_mbps),
        TrafficType.MARITIME: (MARITIME_HEADER, cfg.maritime_demand_mbps),
    }[traffic_type]
    id_name = header.partition(",")[0]
    hours = [whole(hour, "hour", 0, 23) for hour in hours]
    wanted = np.zeros(24, dtype=bool)
    wanted[hours] = True

    bad = np.zeros(24, dtype=np.int64)
    out = np.zeros(24, dtype=np.int64)
    id_codes = {}  # id -> code, in the order first kept
    micros_of = {}  # by timestamp text: UTC microseconds since the epoch
    # per chunk, its first record of each (id, hour): id code, microseconds,
    # lat, lon; the hour follows from the microseconds
    kept = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64), np.empty(0), np.empty(0))]
    with open_input(source) as (fh, path):
        check_header(fh, header, path)
        for lineno, lines in read_chunks(fh):
            rows = _fast_rows(lines, micros_of, path)
            if rows is None:
                rows = _line_rows(lines, lineno, micros_of, id_name, path)
            lat, lon = rows["lat"], rows["lon"]
            micros = np.fromiter(map(micros_of.__getitem__, rows["stamp"].tolist()),
                                 np.int64, len(rows))
            hour = micros // _HOUR_US % 24
            missing = np.isnan(lat) | np.isnan(lon)
            inside = cfg.bbox.contains(lat, lon)
            bad += np.bincount(hour[missing], minlength=24)
            out += np.bincount(hour[~missing & ~inside], minlength=24)
            keep = np.flatnonzero(wanted[hour] & inside)
            idc = np.array([id_codes.setdefault(i, len(id_codes))
                            for i in rows["id"][keep].tolist()], dtype=np.int64)
            pick = _firsts(idc, micros[keep])
            keep = keep[pick]
            kept.append((idc[pick], micros[keep], lat[keep], lon[keep]))

    idc, micros, lat, lon = (np.concatenate(column) for column in zip(*kept))
    del kept  # free the chunks' columns before the pick
    names = list(id_codes)
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    pick = _firsts(rank[idc], micros)
    idc, lat, lon = idc[pick], lat[pick], lon[pick]
    hour = micros[pick] // _HOUR_US % 24
    del micros, pick  # only the picked columns live on through the blocks

    blocks = []
    for h in hours:
        lo, hi = np.searchsorted(hour, (h, h + 1))
        blocks.append(TerminalBlock(
            [names[c] for c in idc[lo:hi].tolist()], lat[lo:hi], lon[lo:hi],
            np.full(hi - lo, traffic_type.value), np.full(hi - lo, demand),
            dropped_bad_coords=int(bad[h]), dropped_out_of_box=int(out[h]),
        ))
    return blocks


def load_aero(source, hour, cfg=IngestConfig(), *, bbox=None):
    """One terminal per flight id seen during the given hour of day (UTC),
    positioned at the flight's earliest record within that hour. source is
    a path or an open text file; records outside cfg.bbox are dropped and
    every terminal demands cfg.aero_demand_mbps. (bbox is the earlier call
    form; see _with_settings.)"""
    cfg = _with_settings(cfg, bbox=bbox)
    return _load_movements(source, (hour,), TrafficType.AERO, cfg)[0]


def load_aero_by_hour(source, cfg=IngestConfig()):
    """load_aero for every hour of the day from one pass over the log:
    a list of 24 terminal blocks, indexed by hour."""
    return _load_movements(source, range(24), TrafficType.AERO, cfg)


def load_maritime(source, hour, cfg=IngestConfig(), *, bbox=None):
    """One terminal per ship id seen during the given hour of day (UTC),
    positioned at the ship's earliest record within that hour. source is a
    path or an open text file; records outside cfg.bbox are dropped and
    every terminal demands cfg.maritime_demand_mbps. (bbox is the earlier
    call form; see _with_settings.)"""
    cfg = _with_settings(cfg, bbox=bbox)
    return _load_movements(source, (hour,), TrafficType.MARITIME, cfg)[0]


def load_maritime_by_hour(source, cfg=IngestConfig()):
    """load_maritime for every hour of the day from one pass over the log:
    a list of 24 terminal blocks, indexed by hour."""
    return _load_movements(source, range(24), TrafficType.MARITIME, cfg)


# ---------------------------------------------------------------------------
# synthetic generators


def _require(cond, message):
    if not cond:
        raise InvalidParamsError(message)


# a generator's real-valued parameter
_param = partial(real, error=InvalidParamsError)


def _check_box(lat_min, lat_max, lon_min, lon_max):
    """The box as floats; InvalidParamsError unless it lies in the study region."""
    lat_min, lat_max = _param(lat_min, "lat_min"), _param(lat_max, "lat_max")
    lon_min, lon_max = _param(lon_min, "lon_min"), _param(lon_max, "lon_max")
    _require(
        REGION_LAT[0] <= lat_min < lat_max <= REGION_LAT[1],
        f"latitude range [{lat_min}, {lat_max}] outside {list(REGION_LAT)}",
    )
    _require(
        REGION_LON[0] <= lon_min < lon_max <= REGION_LON[1],
        f"longitude range [{lon_min}, {lon_max}] outside {list(REGION_LON)}",
    )
    return lat_min, lat_max, lon_min, lon_max


def _hex_centers(n, lat0, lon0, spacing):
    """Deterministic hex-spiral beam layout: center, ring of 6, ring of 12..."""
    centers = [(lat0, lon0)]
    ring = 1
    while len(centers) < n:
        for k in range(6 * ring):
            angle = 2.0 * math.pi * k / (6 * ring)
            centers.append(
                (
                    lat0 + ring * spacing * math.sin(angle),
                    lon0 + ring * spacing * math.cos(angle),
                )
            )
            if len(centers) == n:
                break
        ring += 1
    return centers


def synth_pattern(out_path, seed, beams=7, center_lat=52.0, center_lon=5.0,
                  spacing_deg=2.0, radius3db_deg=1.5, pitch_deg=0.25,
                  peak_gain_db=52.0):
    """Write a Gaussian-beam pattern file over a shared rectangular grid.

    Beam gain falls off as peak - 3 * (d / radius3db)^2 with d the planar
    degree distance to the beam center, so the analytic -3 dB contour is a
    circle of radius radius3db_deg. Phases are seeded uniform [0, 2*pi).
    """
    beams = whole(beams, "beams", 1, error=InvalidParamsError)
    center_lat, center_lon = _param(center_lat, "center_lat"), _param(center_lon, "center_lon")
    spacing_deg = _param(spacing_deg, "spacing_deg", 0, strict=True)
    radius3db_deg = _param(radius3db_deg, "radius3db_deg", 0, strict=True)
    pitch_deg = _param(pitch_deg, "pitch_deg", 0, strict=True)
    peak_gain_db = _param(peak_gain_db, "peak_gain_db")

    centers = _hex_centers(beams, center_lat, center_lon, spacing_deg)
    margin = radius3db_deg + 2.0 * pitch_deg
    lat_min = min(c[0] for c in centers) - margin
    lat_max = max(c[0] for c in centers) + margin
    lon_min = min(c[1] for c in centers) - margin
    lon_max = max(c[1] for c in centers) + margin
    lat_min, lat_max, lon_min, lon_max = _check_box(lat_min, lat_max, lon_min, lon_max)

    lat_steps = int(round((lat_max - lat_min) / pitch_deg)) + 1
    lon_steps = int(round((lon_max - lon_min) / pitch_deg)) + 1
    _require(lat_steps * lon_steps <= 2_000_000, "grid too large; raise pitch_deg")
    lats = lat_min + pitch_deg * np.arange(lat_steps)
    lons = lon_min + pitch_deg * np.arange(lon_steps)
    glat, glon = np.meshgrid(lats, lons, indexing="ij")
    glat = glat.ravel()
    glon = glon.ravel()

    rng = np.random.default_rng(seed)
    peaks = peak_gain_db + rng.uniform(-0.5, 0.5, size=beams)
    gain = np.empty((glat.size, beams))
    phase = np.empty((glat.size, beams))
    for i, (blat, blon) in enumerate(centers):
        d2 = (glat - blat) ** 2 + (glon - blon) ** 2
        gain[:, i] = peaks[i] - 3.0 * d2 / (radius3db_deg * radius3db_deg)
        phase[:, i] = rng.uniform(0.0, 2.0 * math.pi, size=glat.size)
    write_pattern(glat, glon, gain, phase, out_path)
    return out_path


def synth_population(out_path, seed, cells=400, lat_min=47.0, lat_max=57.0,
                     lon_min=0.0, lon_max=10.0, cell_deg=0.25,
                     urban_fraction=0.1):
    """Write a population file: mostly rural cells plus a few dense hotspots."""
    cells = whole(cells, "cells", 1, error=InvalidParamsError)
    cell_deg = _param(cell_deg, "cell_deg", 0, strict=True)
    urban_fraction = _param(urban_fraction, "urban_fraction", 0, 1)
    lat_min, lat_max, lon_min, lon_max = _check_box(lat_min, lat_max, lon_min, lon_max)

    rng = np.random.default_rng(seed)
    nlat = max(1, int((lat_max - lat_min) / cell_deg))
    nlon = max(1, int((lon_max - lon_min) / cell_deg))
    _require(cells <= nlat * nlon, "more cells than the grid holds")
    chosen = rng.choice(nlat * nlon, size=cells, replace=False)
    urban = rng.random(cells) < urban_fraction
    rural_pop = rng.integers(0, 4000, size=cells)
    urban_pop = rng.integers(20000, 200001, size=cells)

    lat = lat_min + (chosen // nlon + 0.5) * cell_deg
    lon = lon_min + (chosen % nlon + 0.5) * cell_deg
    pop = np.where(urban, urban_pop, rural_pop)
    write_table(out_path, POPULATION_HEADER, cells,
                lambda lo, hi: (lat[lo:hi], lon[lo:hi], pop[lo:hi]))
    return out_path


def _diurnal_counts(fleet, weights):
    # deterministic active-vehicle counts per hour, shaped by the intensity
    return [max(1, int(fleet * w)) for w in weights]


_AERO_INTENSITY = [
    0.25 + 0.75 * (math.exp(-((h - 8.0) ** 2) / 4.0) + math.exp(-((h - 18.0) ** 2) / 5.0))
    for h in range(24)
]
_MARITIME_INTENSITY = [0.2 + 0.8 * math.exp(-((h - 8.5) ** 2) / 8.0) for h in range(24)]


def _synth_movements(out_path, seed, header, prefix, fleet, weights,
                     lat_min, lat_max, lon_min, lon_max, max_extra_records):
    """Write a movement log: per hour, the active vehicles in id order, each
    with 1 to 1 + max_extra_records records at distinct minutes.

    The draws are made vehicle by vehicle, which fixes the stream; the rows
    are then formatted a block at a time.
    """
    lat_min, lat_max, lon_min, lon_max = _check_box(lat_min, lat_max, lon_min, lon_max)
    rng = np.random.default_rng(seed)
    counts = _diurnal_counts(fleet, weights)
    # per active vehicle and hour: its number, the hour, its record count,
    # its first position and the minutes of its records
    vehicle, hours, records, lat, lon, minutes = [], [], [], [], [], []
    for hour in range(24):
        active = rng.choice(fleet, size=min(counts[hour], fleet), replace=False)
        for v in np.sort(active).tolist():
            n = 1 + int(rng.integers(0, max_extra_records + 1))
            minutes.append(rng.choice(60, size=n, replace=False))
            lat.append(float(rng.uniform(lat_min, lat_max)))
            lon.append(float(rng.uniform(lon_min, lon_max)))
            vehicle.append(v + 1)
            hours.append(hour)
            records.append(n)
    # small drift between a vehicle's records keeps positions distinct
    total = sum(records)
    drift = 0.01 * (np.arange(total) - np.repeat(np.cumsum(records) - records, records))
    # each vehicle-hour's minutes in ascending order
    minutes = np.concatenate(minutes)
    minutes = minutes[np.lexsort((minutes, np.repeat(np.arange(len(records)), records)))]
    columns = (
        np.repeat(vehicle, records), np.repeat(hours, records), minutes,
        np.minimum(lat_max, np.maximum(lat_min, np.repeat(lat, records) + drift)),
        np.minimum(lon_max, np.maximum(lon_min, np.repeat(lon, records) + drift)),
    )
    line = f"{prefix}%0{len(str(fleet))}d,2026-01-15T%02d:%02d:00Z,%.9g,%.9g\n"
    write_table(out_path, header, total,
                lambda lo, hi: [column[lo:hi] for column in columns], line)
    return out_path


def synth_aero(out_path, seed, flights=150, lat_min=47.0, lat_max=57.0,
               lon_min=0.0, lon_max=10.0):
    """Write a flight log whose hourly activity has two diurnal peaks."""
    return _synth_movements(
        out_path, seed, AERO_HEADER, "f",
        whole(flights, "flights", 1, error=InvalidParamsError), _AERO_INTENSITY,
        lat_min, lat_max, lon_min, lon_max, max_extra_records=3,
    )


def synth_maritime(out_path, seed, ships=120, lat_min=47.0, lat_max=57.0,
                   lon_min=0.0, lon_max=10.0):
    """Write a vessel log whose hourly activity peaks in the morning."""
    return _synth_movements(
        out_path, seed, MARITIME_HEADER, "s",
        whole(ships, "ships", 1, error=InvalidParamsError), _MARITIME_INTENSITY,
        lat_min, lat_max, lon_min, lon_max, max_extra_records=2,
    )


_GENERATORS = {
    "pattern": synth_pattern,
    "population": synth_population,
    "aero": synth_aero,
    "maritime": synth_maritime,
}
SYNTH_KINDS = tuple(_GENERATORS)


def synth_generate(kind, params, seed, out_path):
    """Dispatch to one generator by kind; params is a keyword dict."""
    if kind not in _GENERATORS:
        raise InvalidParamsError(
            f"unknown kind {kind!r}; expected one of {sorted(_GENERATORS)}"
        )
    try:
        return _GENERATORS[kind](out_path, seed, **dict(params))
    except TypeError as exc:
        raise InvalidParamsError(str(exc)) from exc
