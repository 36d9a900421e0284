"""Demand-dataset ingestion and synthetic data generation.

Three loaders turn raw files into TerminalBlocks, columns of terminals: a
population raster is down-scaled into fixed (FSS) terminals, and flight /
vessel movement logs are reduced to one terminal per id per hour at the
first position seen in that hour. A movement log is read once however many
hours are asked for, a chunk of lines at a time, into columns of id,
timestamp, lat and lon; each distinct timestamp text is parsed once, and
one sort picks every id's first record per requested hour. Records with
missing or NaN coordinates, and records outside the configured bounding
box, are dropped and counted, never patched.

The synthetic generators stand in for the real population, flight, and
vessel feeds so the whole pipeline runs reproducibly from a seed.
"""

import math
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from datetime import datetime, timedelta, timezone
from enum import IntEnum
from itertools import islice

import numpy as np

from .errors import (
    InvalidParamsError,
    NegativePopulationError,
    ParseError,
    TimestampError,
)
from .geo import GeoPoint, check_locations
from .ioutil import fmt_float, open_input
from .pattern import BeamPattern, write_pattern

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


@dataclass(frozen=True)
class Terminal:
    """One demand source: a fixed site, a flight, or a vessel."""

    id: str
    location: GeoPoint
    type: TrafficType
    demand_mbps: float

    def __post_init__(self):
        if not isinstance(self.id, str) or not self.id:
            raise ValueError("terminal id must be a non-empty string")
        demand = float(self.demand_mbps)
        if not math.isfinite(demand) or demand < 0.0:
            raise ValueError(f"demand must be finite and >= 0, got {self.demand_mbps}")
        object.__setattr__(self, "demand_mbps", demand)
        object.__setattr__(self, "type", TrafficType(self.type))


@dataclass(frozen=True)
class BoundingBox:
    lat_min: float
    lat_max: float
    lon_min: float
    lon_max: float

    def __post_init__(self):
        vals = (self.lat_min, self.lat_max, self.lon_min, self.lon_max)
        if not all(math.isfinite(v) for v in vals):
            raise ValueError("bounding box values must be finite")
        if not (self.lat_min < self.lat_max and self.lon_min < self.lon_max):
            raise ValueError("bounding box must have positive extent")

    def contains(self, lat, lon):
        return (
            self.lat_min <= lat <= self.lat_max
            and self.lon_min <= lon <= self.lon_max
        )


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
        if not math.isfinite(self.density_threshold) or self.density_threshold < 0:
            raise ValueError("density threshold must be finite and >= 0")
        if not 0.0 <= self.suppression_factor <= 1.0:
            raise ValueError("suppression factor must lie in [0, 1]")


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
        downscale = self.downscale
        if not isinstance(downscale, int) or isinstance(downscale, bool) or downscale < 1:
            raise ValueError(f"downscale must be an integer >= 1, got {downscale!r}")
        for name in ("fss_demand_mbps", "aero_demand_mbps", "maritime_demand_mbps"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")


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


_CONFIG_KEYS = {
    "downscale",
    "urban_density_threshold",
    "urban_suppression_factor",
    "fss_demand_mbps",
    "aero_demand_mbps",
    "maritime_demand_mbps",
    "lat_min",
    "lat_max",
    "lon_min",
    "lon_max",
}


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
    box = {key: raw.pop(key) for key in ("lat_min", "lat_max", "lon_min", "lon_max")
           if key in raw}
    urban = {key.removeprefix("urban_"): raw.pop(key) for key in list(raw)
             if key.startswith("urban_")}
    defaults = IngestConfig()
    try:
        return replace(defaults, bbox=replace(defaults.bbox, **box),
                       urban=replace(defaults.urban, **urban), **raw)
    except ValueError as exc:
        raise ParseError(str(exc), None, path) from exc


class TerminalBlock(Sequence):
    """Terminals as read-only columns, with the records dropped on the way.

    lat_deg, lon_deg, type (TrafficType values) and demand_mbps hold one row
    per terminal and ids the matching ids; every location is one GeoPoint
    accepts. The loaders fill the columns directly; indexing and iteration
    build Terminal objects on demand, so a block also reads as the sequence
    of its terminals.
    """

    def __init__(self, ids, lat_deg, lon_deg, type, demand_mbps,
                 dropped_bad_coords=0, dropped_out_of_box=0):
        self.ids = tuple(ids)
        for name, values, dtype in (
            ("lat_deg", lat_deg, float),
            ("lon_deg", lon_deg, float),
            ("type", type, np.int64),
            ("demand_mbps", demand_mbps, float),
        ):
            column = np.array(values, dtype=dtype)
            if column.shape != (len(self.ids),):
                raise ValueError(f"{name} must hold one value per terminal")
            column.setflags(write=False)
            setattr(self, name, column)
        check_locations(self.lat_deg, self.lon_deg)
        self.dropped_bad_coords = dropped_bad_coords
        self.dropped_out_of_box = dropped_out_of_box

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
        return cls(
            [ident for b in blocks for ident in b.ids],
            *(np.concatenate([getattr(b, name) for b in blocks])
              for name in ("lat_deg", "lon_deg", "type", "demand_mbps")),
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


def _wrap_lon(lon_deg):
    """GeoPoint's longitude normalization over a column, bit for bit."""
    lon = np.array(lon_deg, dtype=float)
    wrap = ~((lon >= -180.0) & (lon < 180.0))
    if wrap.any():
        wrapped = np.fmod(lon[wrap] + 180.0, 360.0)
        wrapped[wrapped < 0.0] += 360.0
        wrapped -= 180.0
        wrapped[wrapped >= 180.0] = -180.0
        lon[wrap] = wrapped
    return lon


def _check_header(fh, expected, path):
    header = fh.readline()
    if header.rstrip("\r\n") != expected:
        raise ParseError(f"expected header {expected!r}", 1, path)


def _coord(text, name, lineno, path):
    """Parse one coordinate; None means the record must be dropped."""
    stripped = text.strip()
    if stripped == "":
        return None
    try:
        v = float(stripped)
    except ValueError:
        raise ParseError(f"{name} {text!r} is not a number", lineno, path) from None
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
        _wrap_lon(np.repeat(np.array([lon for _, lon in centers], dtype=float), counts)),
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
        raise TimestampError(
            f"{path}: line {lineno}: unparseable timestamp {text!r}"
        ) from None
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.astimezone(timezone.utc)


# lines of a movement log read and parsed at a time
_CHUNK_LINES = 1024
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)
_MICROSECOND = timedelta(microseconds=1)


class _Stamps:
    """The distinct timestamp texts of one log, each parsed once.

    A text's code indexes its UTC hour and its UTC instant in microseconds;
    equal instants get equal microseconds, so they compare as the
    datetimes do.
    """

    def __init__(self, path):
        self.path = path
        self.codes = {}
        self.hour = []
        self.micros = []

    def add(self, text, lineno):
        code = self.codes.get(text)
        if code is None:
            ts = _parse_timestamp(text, lineno, self.path)
            code = self.codes[text] = len(self.hour)
            self.hour.append(ts.hour)
            self.micros.append((ts - _EPOCH) // _MICROSECOND)
        return code


def _fast_rows(texts, stamps):
    """(ids, timestamp codes, lat, lon) of a chunk of well-formed lines.

    A NaN coordinate stands for a missing one. Returns None when some line
    has a defect, so that the line parser can name it.
    """
    fields = [text.split(",") for text in texts if text]
    if not fields:
        return [], np.empty(0, dtype=np.int64), np.empty(0), np.empty(0)
    if set(map(len, fields)) != {4}:
        return None
    id_texts, stamp_texts, lat_texts, lon_texts = zip(*fields)
    ids = list(map(str.strip, id_texts))
    if "" in ids:
        return None
    n = len(ids)
    try:
        for text in dict.fromkeys(stamp_texts):
            stamps.add(text, None)
        lat = np.fromiter(map(float, lat_texts), float, n)
        lon = np.fromiter(map(float, lon_texts), float, n)
    except (TimestampError, ValueError, OverflowError):
        # the line parser raises it, or the error of an earlier line
        return None
    codes = np.fromiter(map(stamps.codes.__getitem__, stamp_texts), np.int64, n)
    present = ~(np.isnan(lat) | np.isnan(lon))
    if np.isinf(lat).any() or np.isinf(lon).any() or not (
        (lat[present] >= -90.0) & (lat[present] <= 90.0)
    ).all():
        return None
    return ids, codes, lat, lon


def _line_rows(texts, lineno, stamps, id_name, path):
    """_fast_rows one line at a time: raises the error of the first bad line."""
    ids, codes, lats, lons = [], [], [], []
    for lineno, line in enumerate(texts, start=lineno):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 4:
            raise ParseError(f"expected 4 fields, got {len(fields)}", lineno, path)
        ident = fields[0].strip()
        if not ident:
            raise ParseError(f"empty {id_name}", lineno, path)
        code = stamps.add(fields[1], lineno)
        # every row is validated before the hour filter, so a defective
        # log fails the same way whichever hours are being loaded
        lat = _coord(fields[2], "lat_deg", lineno, path)
        lon = _coord(fields[3], "lon_deg", lineno, path)
        if lat is None or lon is None:
            lat = lon = math.nan
        elif not -90.0 <= lat <= 90.0:
            raise ParseError(f"lat_deg {lat} outside [-90, 90]", lineno, path)
        ids.append(ident)
        codes.append(code)
        lats.append(lat)
        lons.append(lon)
    return ids, np.array(codes, dtype=np.int64), np.array(lats), np.array(lons)


def _load_movements(source, hours, traffic_type, cfg):
    """Read a movement log once; one TerminalBlock per requested hour, in order.

    The log is parsed _CHUNK_LINES lines at a time into columns, and only
    the rows of requested hours that lie in cfg.bbox are kept. Each id's
    first record per hour is the least (timestamp, row) among them, picked
    with one stable sort.
    """
    header, demand = {
        TrafficType.AERO: (AERO_HEADER, cfg.aero_demand_mbps),
        TrafficType.MARITIME: (MARITIME_HEADER, cfg.maritime_demand_mbps),
    }[traffic_type]
    id_name = header.partition(",")[0]
    for hour in hours:
        if not isinstance(hour, int) or isinstance(hour, bool) or not 0 <= hour <= 23:
            raise ValueError(f"hour must be an integer in [0, 23], got {hour!r}")
    wanted = np.zeros(24, dtype=bool)
    wanted[list(hours)] = True

    bad = np.zeros(24, dtype=np.int64)
    out = np.zeros(24, dtype=np.int64)
    id_codes = {}  # id -> code, in the order first kept
    # per chunk, the kept rows: id code, timestamp code, lat, lon
    kept = [(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
             np.empty(0), np.empty(0))]
    with open_input(source) as (fh, path):
        stamps = _Stamps(path)
        _check_header(fh, header, path)
        lineno = 2
        while texts := [raw.rstrip("\r\n") for raw in islice(fh, _CHUNK_LINES)]:
            rows = _fast_rows(texts, stamps)
            if rows is None:
                rows = _line_rows(texts, lineno, stamps, id_name, path)
            lineno += len(texts)
            ids, codes, lat, lon = rows
            hour = np.array(stamps.hour, dtype=np.int64)[codes]
            missing = np.isnan(lat) | np.isnan(lon)
            inside = (
                (lat >= cfg.bbox.lat_min) & (lat <= cfg.bbox.lat_max)
                & (lon >= cfg.bbox.lon_min) & (lon <= cfg.bbox.lon_max)
            )
            bad += np.bincount(hour[missing], minlength=24)
            out += np.bincount(hour[~missing & ~inside], minlength=24)
            keep = np.flatnonzero(wanted[hour] & inside)
            kept.append((
                np.array([id_codes.setdefault(ids[k], len(id_codes))
                          for k in keep.tolist()], dtype=np.int64),
                codes[keep], lat[keep], lon[keep],
            ))

    idc, codes, lat, lon = (np.concatenate(column) for column in zip(*kept))
    names = list(id_codes)
    rank = np.empty(len(names), dtype=np.int64)
    rank[sorted(range(len(names)), key=names.__getitem__)] = np.arange(len(names))
    hour = np.array(stamps.hour, dtype=np.int64)[codes]
    micros = np.array(stamps.micros, dtype=np.int64)[codes]
    # lexsort is stable and the rows are in file order, so equal instants
    # go to the earlier row
    order = np.lexsort((micros, rank[idc], hour))
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(hour[order]) != 0) | (np.diff(rank[idc[order]]) != 0)
    pick = order[first]
    idc, hour, lat, lon = idc[pick], hour[pick], lat[pick], _wrap_lon(lon[pick])

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


def _check_box(lat_min, lat_max, lon_min, lon_max):
    _require(
        REGION_LAT[0] <= lat_min < lat_max <= REGION_LAT[1],
        f"latitude range [{lat_min}, {lat_max}] outside {list(REGION_LAT)}",
    )
    _require(
        REGION_LON[0] <= lon_min < lon_max <= REGION_LON[1],
        f"longitude range [{lon_min}, {lon_max}] outside {list(REGION_LON)}",
    )


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
    _require(isinstance(beams, int) and beams >= 1, "beams must be an integer >= 1")
    _require(spacing_deg > 0, "spacing_deg must be > 0")
    _require(radius3db_deg > 0, "radius3db_deg must be > 0")
    _require(pitch_deg > 0, "pitch_deg must be > 0")
    _require(math.isfinite(peak_gain_db), "peak_gain_db must be finite")

    centers = _hex_centers(beams, center_lat, center_lon, spacing_deg)
    margin = radius3db_deg + 2.0 * pitch_deg
    lat_min = min(c[0] for c in centers) - margin
    lat_max = max(c[0] for c in centers) + margin
    lon_min = min(c[1] for c in centers) - margin
    lon_max = max(c[1] for c in centers) + margin
    _check_box(lat_min, lat_max, lon_min, lon_max)

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
    write_pattern(BeamPattern(glat, glon, gain, phase), out_path)
    return out_path


def synth_population(out_path, seed, cells=400, lat_min=47.0, lat_max=57.0,
                     lon_min=0.0, lon_max=10.0, cell_deg=0.25,
                     urban_fraction=0.1):
    """Write a population file: mostly rural cells plus a few dense hotspots."""
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


def synth_aero(out_path, seed, flights=150, lat_min=47.0, lat_max=57.0,
               lon_min=0.0, lon_max=10.0):
    """Write a flight log whose hourly activity has two diurnal peaks."""
    return _synth_movements(
        out_path, seed, AERO_HEADER, "f", flights, _AERO_INTENSITY,
        lat_min, lat_max, lon_min, lon_max, max_extra_records=3,
    )


def synth_maritime(out_path, seed, ships=120, lat_min=47.0, lat_max=57.0,
                   lon_min=0.0, lon_max=10.0):
    """Write a vessel log whose hourly activity peaks in the morning."""
    return _synth_movements(
        out_path, seed, MARITIME_HEADER, "s", ships, _MARITIME_INTENSITY,
        lat_min, lat_max, lon_min, lon_max, max_extra_records=2,
    )


def synth_generate(kind, params, seed, out_path):
    """Dispatch to one generator by kind; params is a keyword dict."""
    generators = {
        "pattern": synth_pattern,
        "population": synth_population,
        "aero": synth_aero,
        "maritime": synth_maritime,
    }
    if kind not in generators:
        raise InvalidParamsError(
            f"unknown kind {kind!r}; expected one of {sorted(generators)}"
        )
    try:
        return generators[kind](out_path, seed, **dict(params))
    except TypeError as exc:
        raise InvalidParamsError(str(exc)) from exc
