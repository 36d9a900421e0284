"""Beam-pattern ingestion and -3 dB footprint extraction.

A pattern is a shared grid of sample locations plus per-beam gain and phase
at every sample. Beams radiate over the same grid, which is what makes the
per-sample coefficient matrix well formed, so the loader enforces one exact
grid across beams instead of tolerating per-beam grids that almost agree.

A footprint is the hull of the qualifying samples: the convex hull, in the
planar (lat, lon) frame, of the samples within 3 dB of the beam peak.
"""

import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    CollinearInputError,
    DegenerateFootprintError,
    ParseError,
    SchemaError,
)
# delaunay is not called here; the benchmark tracer hooks it at this import site
from .geometry import Polygon, convex_hull, delaunay
from .ioutil import open_input, write_table

PATTERN_HEADER = "beam_id,lat_deg,lon_deg,gain_db,phase_rad"
BORDERS_HEADER = "beam_id,vertex_idx,lat_deg,lon_deg"

_TWO_PI = 2.0 * math.pi
# whitespace to np.loadtxt but not to int() or float()
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"
# one pattern row as np.loadtxt reads it
_ROW = np.dtype([("beam", "i8"), ("lat", "f8"), ("lon", "f8"), ("gain", "f8"),
                 ("phase", "f8")])
# characters of the body per np.loadtxt call; read at call time
PIECE_CHARS = 1 << 16


class BeamPattern:
    """Immutable beam pattern over a shared sample grid.

    Stores the grid once and the per-beam quantities as (samples, beams)
    arrays. The complex coefficient of sample j under beam i is
    10^(gain/20) * exp(i*phase), so its squared magnitude returns the gain
    via 10*log10(|.|^2). coefficients builds that matrix on each access.
    """

    def __init__(self, lat_deg, lon_deg, gain_db, phase_rad):
        lat = np.ascontiguousarray(lat_deg, dtype=float)
        lon = np.ascontiguousarray(lon_deg, dtype=float)
        gain = np.ascontiguousarray(gain_db, dtype=float)
        phase = np.ascontiguousarray(phase_rad, dtype=float)
        if lat.ndim != 1 or lon.ndim != 1 or lat.shape != lon.shape:
            raise ValueError("lat and lon must be 1-D arrays of equal length")
        if lat.size < 1:
            raise ValueError("pattern needs at least one sample location")
        if gain.ndim != 2 or gain.shape[0] != lat.size:
            raise ValueError("gain must have shape (samples, beams)")
        if phase.shape != gain.shape:
            raise ValueError("phase must match the gain array shape")
        if gain.shape[1] < 1:
            raise ValueError("pattern needs at least one beam")
        if not np.isfinite(lat).all() or not np.isfinite(lon).all():
            raise ValueError("sample locations must be finite")
        if not np.isfinite(gain).all() or not np.isfinite(phase).all():
            raise ValueError("gains and phases must be finite")
        if (np.abs(lat) > 90.0).any():
            raise ValueError("sample latitude outside [-90, 90]")
        phase = np.mod(phase, _TWO_PI)
        phase[phase >= _TWO_PI] = 0.0  # mod of tiny negatives rounds up to 2*pi

        for arr in (lat, lon, gain, phase):
            arr.flags.writeable = False
        self._lat = lat
        self._lon = lon
        self._gain = gain
        self._phase = phase

    @property
    def beams(self):
        return self._gain.shape[1]

    @property
    def samples_per_beam(self):
        return self._gain.shape[0]

    @property
    def lat_deg(self):
        return self._lat

    @property
    def lon_deg(self):
        return self._lon

    @property
    def gain_db(self):
        return self._gain

    @property
    def phase_rad(self):
        return self._phase

    @property
    def coefficients(self):
        """Complex (samples, beams) coefficient matrix, built on each access."""
        coef = np.power(10.0, self._gain / 20.0) * np.exp(1j * self._phase)
        coef.flags.writeable = False
        return coef

    def check_beam(self, beam_id):
        """Validate a 1-based beam id and return its column index."""
        if not isinstance(beam_id, (int, np.integer)) or isinstance(beam_id, bool):
            raise ValueError(f"beam id must be an integer, got {beam_id!r}")
        if not 1 <= beam_id <= self.beams:
            raise ValueError(f"beam id {beam_id} outside [1, {self.beams}]")
        return int(beam_id) - 1


@dataclass(frozen=True)
class BeamFootprint:
    """Convex border of the region within 3 dB of one beam's peak gain."""

    beam_id: int
    border: Polygon
    peak_gain_db: float

    def __post_init__(self):
        if self.beam_id < 1:
            raise ValueError("beam ids are 1-based")


def _parse_row(fields, lineno, path):
    try:
        beam = int(fields[0])
    except ValueError:
        raise ParseError(f"beam_id {fields[0]!r} is not an integer", lineno, path) from None
    values = []
    for name, text in zip(("lat_deg", "lon_deg", "gain_db", "phase_rad"), fields[1:]):
        try:
            v = float(text)
        except ValueError:
            raise ParseError(f"{name} {text!r} is not a number", lineno, path) from None
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
    body is read as one string. A well-formed body is parsed by np.loadtxt
    in pieces of about PIECE_CHARS characters, so no list of every line is
    ever held; any other goes through the line parser, which finds the error.
    """
    with open_input(source) as (fh, path):
        header = fh.readline()
        if header.rstrip("\r\n") != PATTERN_HEADER:
            raise ParseError(f"expected header {PATTERN_HEADER!r}", 1, path)
        text = fh.read()
    columns = _load_rows(text)
    if columns is None:
        return _parse_rows(io.StringIO(text, newline=""), path)
    del text
    return BeamPattern(*columns)


def _pieces(text):
    """text cut just after a "\n" every PIECE_CHARS characters or so.

    A cut after "\n" never splits a "\r\n", so the lines of the pieces are
    the lines of text.
    """
    lo = 0
    while lo < len(text):
        hi = text.find("\n", lo + PIECE_CHARS - 1) + 1 or len(text)
        yield text[lo:hi]
        lo = hi


def _load_rows(text):
    """The BeamPattern arguments of a body parsed by np.loadtxt, or None.

    The result is kept only when it passes every check that _parse_rows
    makes, so both give the same pattern. Any other input returns None and
    goes to _parse_rows, which raises the error that names the bad line.
    """
    if not text.isascii() or any(c in text for c in _LOADTXT_ONLY_SPACE):
        # loadtxt reads non-ASCII characters in an integer column as digits,
        # and strips \x1c-\x1f as whitespace where int() and float() refuse
        return None
    # one row per line at most: a line ends at \n, \r\n or a lone \r
    bound = text.count("\n") + text.count("\r") - text.count("\r\n") + 1
    rows = np.empty(bound, dtype=_ROW)
    n = 0
    for piece in _pieces(text):
        lines = list(io.StringIO(piece, newline=""))
        if not any(line.strip("\r\n") for line in lines):
            continue  # loadtxt warns on input without data
        try:
            # loadtxt rejects some numbers that int() and float() read, such
            # as 1_0, but reads no ASCII cell to another value
            part = np.loadtxt(lines, dtype=_ROW, delimiter=",", comments=None, ndmin=1)
        except ValueError:
            return None
        rows[n : n + part.size] = part
        n += part.size
    if not n:
        return None
    rows = rows[:n]
    beams = int(rows["beam"][-1])
    if beams < 1 or n % beams:
        return None
    beam, lat, lon, gain, phase = (rows[name].reshape(beams, -1) for name in _ROW.names)
    ok = (
        (beam == np.arange(1, beams + 1)[:, None]).all()
        and all(np.isfinite(a).all() for a in (lat, lon, gain, phase))
        and (np.abs(lat) <= 90.0).all()
        and (lat == lat[0]).all()
        and (lon == lon[0]).all()
    )
    return (lat[0], lon[0], gain.T, phase.T) if ok else None


def _parse_rows(lines, path):
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


def write_pattern(pattern, path):
    """Serialize a BeamPattern in canonical form (round-trips byte-identically)."""
    samples = pattern.samples_per_beam

    def block(lo, hi):
        beam, sample = np.divmod(np.arange(lo, hi), samples)
        return (
            beam + 1, pattern.lat_deg[sample], pattern.lon_deg[sample],
            pattern.gain_db[sample, beam], pattern.phase_rad[sample, beam],
        )

    write_table(path, PATTERN_HEADER, pattern.beams * samples, block)


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
    return BeamFootprint(beam_id=int(beam_id), border=border, peak_gain_db=peak)


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
