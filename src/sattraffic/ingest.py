"""Demand-dataset ingestion and synthetic data generation.

Three loaders turn raw files into Terminal lists: a population raster is
down-scaled into fixed (FSS) terminals, and flight / vessel movement logs
are reduced to one terminal per id per hour at the first position seen in
that hour. A movement log is read once however many hours are asked for:
rows are bucketed by UTC hour and terminals are built only for the hours
requested. Records with missing or NaN coordinates, and records outside the
configured bounding box, are dropped and counted, never patched.

The synthetic generators stand in for the real population, flight, and
vessel feeds so the whole pipeline runs reproducibly from a seed.
"""

import math
from dataclasses import dataclass, field
from datetime import datetime, timezone
from enum import IntEnum

import numpy as np

from .errors import (
    InvalidParamsError,
    NegativePopulationError,
    ParseError,
    TimestampError,
)
from .geo import GeoPoint
from .ioutil import fmt_float
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
    """Knobs the demand files do not carry themselves."""

    downscale: int = 1000
    urban: UrbanPolicy = field(default_factory=UrbanPolicy)
    fss_demand_mbps: float = 2.0
    aero_demand_mbps: float = 10.0
    maritime_demand_mbps: float = 8.0
    bbox: BoundingBox = DEFAULT_BBOX

    def __post_init__(self):
        if not isinstance(self.downscale, int) or self.downscale < 1:
            raise ValueError("downscale must be an integer >= 1")
        for name in ("fss_demand_mbps", "aero_demand_mbps", "maritime_demand_mbps"):
            v = getattr(self, name)
            if not math.isfinite(v) or v < 0:
                raise ValueError(f"{name} must be finite and >= 0")


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
    """Read a key = value config file into an IngestConfig.

    Blank lines and '#' comments are ignored; unknown keys are errors so a
    typo cannot silently fall back to a default.
    """
    if hasattr(source, "read"):
        lines = source.read().splitlines()
        path = getattr(source, "name", None)
    else:
        path = str(source)
        with open(source, "r", encoding="utf-8") as fh:
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

    defaults = IngestConfig()
    try:
        bbox = BoundingBox(
            raw.get("lat_min", defaults.bbox.lat_min),
            raw.get("lat_max", defaults.bbox.lat_max),
            raw.get("lon_min", defaults.bbox.lon_min),
            raw.get("lon_max", defaults.bbox.lon_max),
        )
        urban = UrbanPolicy(
            raw.get("urban_density_threshold", defaults.urban.density_threshold),
            raw.get("urban_suppression_factor", defaults.urban.suppression_factor),
        )
        return IngestConfig(
            downscale=raw.get("downscale", defaults.downscale),
            urban=urban,
            fss_demand_mbps=raw.get("fss_demand_mbps", defaults.fss_demand_mbps),
            aero_demand_mbps=raw.get("aero_demand_mbps", defaults.aero_demand_mbps),
            maritime_demand_mbps=raw.get("maritime_demand_mbps", defaults.maritime_demand_mbps),
            bbox=bbox,
        )
    except ValueError as exc:
        raise ParseError(str(exc), None, path) from exc


class TerminalList(list):
    """Terminal list that also reports how many records were dropped."""

    def __init__(self, terminals=(), dropped_bad_coords=0, dropped_out_of_box=0):
        super().__init__(terminals)
        self.dropped_bad_coords = dropped_bad_coords
        self.dropped_out_of_box = dropped_out_of_box

    @property
    def dropped(self):
        return self.dropped_bad_coords + self.dropped_out_of_box


def _open_lines(source):
    if hasattr(source, "read"):
        return source, getattr(source, "name", None), False
    return open(source, "r", encoding="utf-8", newline=""), str(source), True


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


def load_population(source, downscale=1000, urban_policy=None, *,
                    demand_mbps=2.0, bbox=DEFAULT_BBOX):
    """Population raster to FSS terminals.

    Each cell yields floor(population / downscale) terminals at the cell
    center; cells above the urban density threshold keep only
    floor(count * suppression_factor). Rows with the same center are one
    cell (populations add). Output is sorted by (lat, lon) so file row
    order never matters.
    """
    if not isinstance(downscale, int) or isinstance(downscale, bool) or downscale < 1:
        raise ValueError(f"downscale must be an integer >= 1, got {downscale!r}")
    if urban_policy is None:
        urban_policy = UrbanPolicy()

    fh, path, owns = _open_lines(source)
    cells = {}
    bad = 0
    out = 0
    try:
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
    finally:
        if owns:
            fh.close()

    terminals = []
    serial = 0
    for (lat, lon), pops in sorted(cells.items()):
        pop = math.fsum(pops)  # exact sum, so file row order cannot matter
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


def _load_movements(source, hours, header, id_name, traffic_type, demand_mbps, bbox):
    """Read a movement log once; one TerminalList per requested hour, in order."""
    for hour in hours:
        if not isinstance(hour, int) or isinstance(hour, bool) or not 0 <= hour <= 23:
            raise ValueError(f"hour must be an integer in [0, 23], got {hour!r}")

    firsts = {hour: {} for hour in hours}  # hour -> id -> (timestamp, row_idx, lat, lon)
    bad = dict.fromkeys(firsts, 0)
    out = dict.fromkeys(firsts, 0)
    fh, path, owns = _open_lines(source)
    try:
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
            # every row is validated before the hour filter, so a defective
            # log fails the same way whichever hours are being loaded
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
            key = (ts, lineno)  # first occurrence = min timestamp, ties by row
            if ident not in first or key < first[ident][:2]:
                first[ident] = (ts, lineno, lat, lon)
    finally:
        if owns:
            fh.close()

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


def load_aero(source, hour, *, demand_mbps=10.0, bbox=DEFAULT_BBOX):
    """One terminal per flight id seen during the given hour of day (UTC),
    positioned at the flight's earliest record within that hour."""
    return _load_movements(
        source, (hour,), AERO_HEADER, "flight_id", TrafficType.AERO, demand_mbps, bbox
    )[0]


def load_aero_by_hour(source, *, demand_mbps=10.0, bbox=DEFAULT_BBOX):
    """load_aero for every hour of the day from one pass over the log:
    a list of 24 terminal lists, indexed by hour."""
    return _load_movements(
        source, range(24), AERO_HEADER, "flight_id", TrafficType.AERO,
        demand_mbps, bbox,
    )


def load_maritime(source, hour, *, demand_mbps=8.0, bbox=DEFAULT_BBOX):
    """One terminal per ship id seen during the given hour of day (UTC),
    positioned at the ship's earliest record within that hour."""
    return _load_movements(
        source, (hour,), MARITIME_HEADER, "ship_id", TrafficType.MARITIME, demand_mbps, bbox
    )[0]


def load_maritime_by_hour(source, *, demand_mbps=8.0, bbox=DEFAULT_BBOX):
    """load_maritime for every hour of the day from one pass over the log:
    a list of 24 terminal lists, indexed by hour."""
    return _load_movements(
        source, range(24), MARITIME_HEADER, "ship_id", TrafficType.MARITIME,
        demand_mbps, bbox,
    )


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
