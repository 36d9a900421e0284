"""Beam-pattern ingestion and -3 dB footprint extraction.

A pattern is a shared grid of sample locations plus per-beam gain at every
sample. Beams radiate over the same grid, which is what makes the
per-sample gain matrix well formed, so the loader enforces one exact grid
across beams instead of tolerating per-beam grids that almost agree. The
file's phase column is checked on parse, each cell a finite number, and not
held: no output reads it.

A footprint is the hull of the qualifying samples: the convex hull, in the
planar (lat, lon) frame, of the samples within 3 dB of the beam peak.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    CollinearInputError,
    DegenerateFootprintError,
    ParseError,
    SchemaError,
)
# delaunay is not called here; the benchmark tracer hooks it at this import site
from .geo import LATITUDE
from .geometry import Polygon, convex_hull, delaunay
from .ioutil import (
    FINITE,
    check_header,
    fields_of,
    frozen,
    load_chunk,
    number,
    open_input,
    read_chunks,
    real,
    whole,
    write_table,
)

PATTERN_HEADER = "beam_id,lat_deg,lon_deg,gain_db,phase_rad"
BORDERS_HEADER = "beam_id,vertex_idx,lat_deg,lon_deg"

# one pattern row as np.loadtxt reads it
_ROW = np.dtype([("beam", "i8"), ("lat", "f8"), ("lon", "f8"), ("gain", "f8"),
                 ("phase", "f8")])


@dataclass(frozen=True, eq=False)
class BeamPattern:
    """Immutable beam pattern over a shared sample grid.

    Stores the grid once and the per-beam gains as a (samples, beams) array,
    held through ioutil.frozen: a read-only, C-ordered float64 array that
    owns its memory, as parse_pattern gives, is kept as it is, and any other
    is copied. Every value must be finite and every latitude in [-90, 90].
    The pattern holds no phase: parse_pattern checks the file's phase column
    and keeps none of it, since no output reads it.
    """

    lat_deg: np.ndarray
    lon_deg: np.ndarray
    gain_db: np.ndarray

    def __post_init__(self):
        for f, bounds in zip(fields(self), (LATITUDE, FINITE, FINITE)):
            column = frozen(getattr(self, f.name), float, f.name, *bounds)
            object.__setattr__(self, f.name, column)
        lat, lon, gain = self.lat_deg, self.lon_deg, self.gain_db
        if lat.ndim != 1 or lon.ndim != 1 or lat.shape != lon.shape:
            raise ValueError("lat and lon must be 1-D arrays of equal length")
        if lat.size < 1:
            raise ValueError("pattern needs at least one sample location")
        if gain.ndim != 2 or gain.shape[0] != lat.size:
            raise ValueError("gain must have shape (samples, beams)")
        if gain.shape[1] < 1:
            raise ValueError("pattern needs at least one beam")

    @property
    def beams(self):
        return self.gain_db.shape[1]

    @property
    def samples_per_beam(self):
        return self.gain_db.shape[0]

    @property
    def coefficients(self):
        """Read-only (samples, beams) amplitudes 10^(gain/20), built on each
        access, so that 10*log10(|.|^2) returns the gain."""
        coef = np.power(10.0, self.gain_db / 20.0)
        coef.flags.writeable = False
        return coef

    def check_beam(self, beam_id):
        """Validate a 1-based beam id and return its column index."""
        return whole(beam_id, "beam id", 1, self.beams) - 1


@dataclass(frozen=True)
class BeamFootprint:
    """Convex border of the region within 3 dB of one beam's peak gain."""

    beam_id: int
    border: Polygon
    peak_gain_db: float

    def __post_init__(self):
        object.__setattr__(self, "beam_id", whole(self.beam_id, "beam_id", 1))
        object.__setattr__(self, "peak_gain_db", real(self.peak_gain_db, "peak_gain_db"))


def _parse_row(fields, lineno, path):
    try:
        beam = int(fields[0])
    except ValueError:
        raise ParseError(f"beam_id {fields[0]!r} is not an integer", lineno, path) from None
    values = []
    for name, text in zip(("lat_deg", "lon_deg", "gain_db", "phase_rad"), fields[1:]):
        v = number(text, name, lineno, path)
        if not math.isfinite(v):
            raise ParseError(f"{name} must be finite, got {text}", lineno, path)
        values.append(v)
    if not -90.0 <= values[0] <= 90.0:
        raise ParseError(f"lat_deg {values[0]} outside [-90, 90]", lineno, path)
    return beam, values


def parse_pattern(source):
    """Read a pattern CSV, a path or an open text file, into a BeamPattern.

    Rows must be grouped by beam with ids 1..n in order, and every beam must
    repeat the exact sample grid of beam 1. Malformed cells raise ParseError
    with the offending line; structural violations raise SchemaError. The
    body is read CHUNK_LINES (1,024) lines at a time, never as one string:
    np.loadtxt parses each chunk, and a chunk it cannot read or whose rows
    fail a check goes through the line parser, which finds the error. Each
    phase cell is checked as the other cells are, then dropped. Each chunk's
    gains go straight into per-beam columns (_Beams), whose counts and grid
    are checked against beam 1 as they fill; the columns are stacked once,
    and the finished array is handed to the BeamPattern without a copy.
    """
    beams = _Beams()
    with open_input(source) as (fh, path):
        check_header(fh, PATTERN_HEADER, path)
        for lineno, lines in read_chunks(fh):
            rows = _load_lines(lines, beams.beam)
            if rows is None:
                rows = _parse_lines(lines, lineno, beams.beam, path)
            if rows.size:
                beams.add(rows)
    return beams.pattern()


class _Beams:
    """A pattern's rows gathered into one gain column per beam.

    Rows arrive grouped by beam, ids 1, 2, ... in order. Beam 1's rows are
    kept until beam 2 begins; they give the grid and its length mu. Every
    later beam fills columns of mu values and is checked against beam 1's
    grid as it fills. The first beam whose count or grid differs is kept
    as the defect, a count beating a grid on the same beam, and raised only
    once every line has been read, so a line error later in the file still
    comes first; past the defect, rows are checked but not stored.
    """

    def __init__(self):
        self.first = []  # beam 1's row pieces, until it ends
        self.lat = self.lon = None  # beam 1's grid, once it has ended
        self.gain = []  # one column of mu values per beam
        self.beam = self.count = 0  # the last row's beam (0 before any), its rows so far
        self.defect = None  # (beam, message) of the first defective beam

    def add(self, rows):
        """Take a chunk's rows, already checked for grouping against the last beam."""
        starts = np.flatnonzero(np.diff(rows["beam"])) + 1
        for part in np.split(rows, starts):
            beam = int(part["beam"][0])
            if beam != self.beam:
                self._end_beam()
                self.beam, self.count = beam, 0
            lo = self.count
            self.count += part.size
            if beam == 1:
                self.first.append(part)
            elif self.defect is None and self.count <= self.lat.size:
                if lo == 0:
                    self.gain.append(np.empty(self.lat.size))
                hi = self.count
                if ((part["lat"] != self.lat[lo:hi]).any()
                        or (part["lon"] != self.lon[lo:hi]).any()):
                    self.defect = beam, f"beam {beam} sample grid differs from beam 1"
                self.gain[-1][lo:hi] = part["gain"]

    def _end_beam(self):
        if self.beam == 1:
            pieces, self.first = self.first, []
            self.lat, self.lon, gain = (
                np.concatenate([piece[name] for piece in pieces])
                for name in ("lat", "lon", "gain")
            )
            self.gain.append(gain)
        elif self.beam and self.count != self.lat.size and (
                self.defect is None or self.defect[0] == self.beam):
            self.defect = self.beam, (
                f"beam {self.beam} has {self.count} samples, expected {self.lat.size}")

    def pattern(self):
        """The BeamPattern of every row added, or the first defect's SchemaError."""
        if not self.beam:
            raise SchemaError("pattern file has no sample rows")
        self._end_beam()
        if self.defect is not None:
            raise SchemaError(self.defect[1])
        gain = np.column_stack(self.gain)
        self.gain.clear()
        for column in (self.lat, self.lon, gain):
            column.setflags(write=False)
        return BeamPattern(self.lat, self.lon, gain)


def _load_lines(lines, last):
    """A chunk's rows as ioutil.load_chunk reads them when they pass every
    check of _parse_lines, or None; last is the beam id of the row before
    the chunk (0 before the first). A chunk that gives None goes to
    _parse_lines, which raises the error that names the bad line."""
    rows = load_chunk(lines, _ROW)
    if rows is None:
        return None
    step = np.diff(rows["beam"], prepend=last)
    ok = (
        ((step == 1) | ((step == 0) & (rows["beam"] >= 1))).all()
        and all(np.isfinite(rows[name]).all() for name in _ROW.names[1:])
        and (np.abs(rows["lat"]) <= 90.0).all()
    )
    return rows if ok else None


def _parse_lines(lines, lineno, last, path):
    """_load_lines one line at a time, from line lineno: raises the first bad line's error."""
    rows = []
    for lineno, fields in fields_of(lines, lineno, 5, path):
        beam, values = _parse_row(fields, lineno, path)
        if beam == last + 1:
            last = beam
        elif beam != last or not last:
            raise SchemaError(
                f"beam ids must be grouped and contiguous from 1: "
                f"saw beam {beam} on line {lineno} after beam {last}"
            )
        rows.append((beam, *values))
    return np.array(rows, dtype=_ROW)


def write_pattern(lat_deg, lon_deg, gain_db, phase_rad, path):
    """Write a pattern file in canonical form (parse_pattern reads it back):
    beam by beam, one row per sample of the (samples,) grid, with that
    sample's values from the (samples, beams) gain and phase arrays."""
    samples, beams = gain_db.shape

    def block(lo, hi):
        beam, sample = np.divmod(np.arange(lo, hi), samples)
        return (
            beam + 1, lat_deg[sample], lon_deg[sample],
            gain_db[sample, beam], phase_rad[sample, beam],
        )

    write_table(path, PATTERN_HEADER, beams * samples, block)


def beam_footprint(pattern, beam_id):
    """Convex hull of the samples within 3 dB of the beam peak (inclusive).

    An all-equal-gain beam qualifies every sample, so its border is the hull
    of the whole grid. Qualifying samples that reach a pole, span more than 180
    degrees of longitude or leave [-180, 180), where every terminal longitude
    is wrapped, are rejected: the planar frame cannot border them.
    """
    col = pattern.check_beam(beam_id)
    gains = pattern.gain_db[:, col]
    peak = float(gains.max())
    mask = gains >= peak - 3.0
    lat = pattern.lat_deg[mask]
    lon = pattern.lon_deg[mask]
    if lat.size < 3:
        raise DegenerateFootprintError(
            beam_id, f"only {lat.size} samples within 3 dB of the peak"
        )
    if ((np.abs(lat) == 90.0).any() or lon.max() - lon.min() > 180.0
            or lon.min() < -180.0 or lon.max() >= 180.0):
        raise DegenerateFootprintError(
            beam_id, "samples within 3 dB of the peak reach a pole, span more than "
            "180 degrees of longitude or leave longitude [-180, 180), outside the "
            "planar (lat, lon) frame"
        )
    try:
        border = convex_hull(list(zip(lat.tolist(), lon.tolist())))
    except CollinearInputError as exc:
        raise DegenerateFootprintError(beam_id, str(exc)) from exc
    return BeamFootprint(beam_id=beam_id, border=border, peak_gain_db=peak)


def all_footprints(pattern):
    """Footprints for every beam, ordered by beam id."""
    return [beam_footprint(pattern, b) for b in range(1, pattern.beams + 1)]


def write_borders_csv(footprints, path):
    """One CSV row per footprint vertex, in footprint and border order."""
    rows = [
        (fp.beam_id, idx, lat, lon)
        for fp in footprints
        for idx, (lat, lon) in enumerate(fp.border.vertices)
    ]
    columns = [np.array(col) for col in zip(*rows)]
    write_table(
        path, BORDERS_HEADER, len(rows), lambda lo, hi: [col[lo:hi] for col in columns]
    )
