"""Serialization helpers shared by the file writers, and the input reader.

All output floats use one canonical form (9 significant digits) so repeated
runs of the same command produce byte-identical files that diff cleanly.
"""

import math
import re
from contextlib import contextmanager
from itertools import chain, islice

import numpy as np

from .errors import ParseError

# rows per formatted block; writers derive one block's columns at a time, so
# memory stays flat in the row count. At 1 << 14 the channel CSV's block on
# the benchmark's M inputs peaked at 2.4 MiB, at 1 << 12 at 0.6 MiB
BLOCK_ROWS = 1 << 12

# lines of an input read and parsed at a time; read at call time
CHUNK_LINES = 1024

# strings _escape leaves unchanged: no quote, backslash or control character
_PLAIN = re.compile(r'[^"\\\x00-\x1f]*')
# whitespace to np.loadtxt but not to int() or float()
_LOADTXT_ONLY_SPACE = "\x1c\x1d\x1e\x1f"


def fmt_float(x):
    """Canonical text form of a float: 9 significant digits, no negative zero."""
    x = float(x)
    if not math.isfinite(x):
        raise ValueError(f"non-finite value in output: {x!r}")
    if x == 0.0:
        return "0"
    return format(x, ".9g")


def canonical_json(obj, indent=0):
    """Serialize to JSON with sorted keys and canonical float formatting.

    The stdlib encoder hard-codes repr() for floats, so this walks the
    structure itself. Supports the plain data types the manifests use.
    """
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = []
        for key in sorted(obj):
            if not isinstance(key, str):
                raise TypeError(f"JSON object keys must be str, got {type(key)}")
            items.append(f'{inner}"{_escape(key)}": {canonical_json(obj[key], indent + 1)}')
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + canonical_json(v, indent + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, str):
        return f'"{_escape(obj)}"'
    if obj is None:
        return "null"
    raise TypeError(f"cannot serialize {type(obj)} to JSON")


def _escape(s):
    if _PLAIN.fullmatch(s):
        return s
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


# bounds that hold a value or column to finite numbers and nothing more
FINITE = (-math.inf, math.inf)
# the types real() reads as numbers, floats first, as most values are
_REAL = (float, int, np.floating, np.integer)


def frozen(values, dtype, name, lo=None, hi=math.inf):
    """values as a read-only, C-ordered array of dtype, the way value objects
    hold the arrays they are given.

    An array that is already read-only, C-ordered, of dtype and owns its
    memory is handed over: it is kept as it is, not copied, so a builder
    that freezes its finished array and keeps no writeable view of it hands
    it to the object without a second copy. Anything else is copied, so the
    caller's array stays writeable and theirs. A bool, str, bytes or object
    column goes value by value through whole (for an integer dtype) or real,
    which raise for its first bad value. For an integer dtype, a float the
    cast would change (a fraction, NaN, an infinity or one past the int64
    range) raises ValueError naming the column. Given lo (FINITE for no
    bounds), every value, kept or copied, must be finite and in [lo, hi], or
    the same rule's ValueError names the column and the first value that is
    not."""
    column = np.asarray(values)
    integer = np.issubdtype(dtype, np.integer)
    rule = whole if integer else real
    if column.dtype.kind in "bSUO":
        for value in np.asarray(values, dtype=object).ravel().tolist():
            rule(value, name, -math.inf if lo is None else lo, hi)
    if not (column.dtype == dtype and column.flags.owndata and column.flags.c_contiguous
            and not column.flags.writeable):
        if integer and column.dtype.kind == "f":
            integral = (column == np.trunc(column)) & (np.abs(column) < 2.0**63)
            bad = np.flatnonzero(~integral)
            if bad.size:
                raise ValueError(f"{name} must hold whole numbers, got "
                                 f"{float(column.flat[bad[0]])!r}")
        column = np.array(column, dtype=dtype, order="C")
        column.setflags(write=False)
    if lo is not None and column.size:
        least, most = column.min(), column.max()  # no mask of the column's size
        if not (np.isfinite(least) and np.isfinite(most) and lo <= least and most <= hi):
            inside = np.isfinite(column) & (lo <= column) & (column <= hi)
            rule(column.flat[np.argmin(inside)].item(), name, lo, hi)
    return column


def hold_columns(obj, columns, n, each):
    """Set each (name, dtype, bounds) column of the frozen dataclass obj to
    frozen's array of it, which must hold n values, one per each."""
    for name, dtype, bounds in columns:
        column = frozen(getattr(obj, name), dtype, name, *bounds)
        if column.shape != (n,):
            raise ValueError(f"{name} must hold one value per {each}")
        object.__setattr__(obj, name, column)


def whole(value, name, lo, hi=math.inf, error=ValueError):
    """int(value) for an int or numpy integer, never a bool, in [lo, hi]:
    the one rule for every count, index and hour a caller gives. Anything
    else raises error naming the value."""
    integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
    if integer and lo <= value <= hi:
        return int(value)
    if hi == math.inf:
        raise error(f"{name} must be an integer >= {lo}, got {value!r}")
    if not integer:
        raise error(f"{name} must be an integer, got {value!r}")
    raise error(f"{name} {value} outside [{lo}, {hi}]")


def real(value, name, lo=-math.inf, hi=math.inf, error=ValueError, strict=False):
    """float(value) for an int, float or numpy number, never a bool or a str,
    finite and in [lo, hi] (lo excluded if strict): the one rule for every
    real number a caller gives. Anything else raises error naming the value,
    in whole's three forms."""
    number = isinstance(value, _REAL) and not isinstance(value, bool)
    try:
        x = float(value) if number else math.nan
    except OverflowError:  # an int past the float range
        x = math.nan
    if (lo < x if strict else lo <= x) and x <= hi and math.isfinite(x):
        return x
    if hi == math.inf:
        bound = "" if lo == -math.inf else f" {'>' if strict else '>='} {lo}"
        raise error(f"{name} must be a finite number{bound}, got {value!r}")
    if not math.isfinite(x):
        raise error(f"{name} must be a finite number, got {value!r}")
    raise error(f"{name} {value} outside {'(' if strict else '['}{lo}, {hi}]")


def check_finite(columns):
    """Raise fmt_float's ValueError for the first non-finite value in row
    order of equal-length float columns."""
    finite = np.logical_and.reduce([np.isfinite(col) for col in columns])
    if not finite.all():
        row = int(np.argmin(finite))
        for col in columns:
            fmt_float(col[row])


def format_rows(columns, line=None):
    """CSV lines for a block of equal-length columns, in one % operation.

    Integer columns print with %d and string columns with %s. Float columns
    take fmt_float's form: 0.0 is added, which turns -0.0 into 0.0, and %.9g
    gives the same string as format(x, ".9g"). A non-finite float raises
    fmt_float's ValueError for the first one in row order. line, if given,
    is the % template of one row in place of the comma-separated fields.
    """
    fmts, values, floats = [], [], []
    for col in map(np.asarray, columns):
        if col.dtype.kind == "f":
            floats.append(col)
            fmts.append("%.9g")
            col = col + 0.0
        else:
            fmts.append("%d" if col.dtype.kind in "iu" else "%s")
        values.append(col.tolist())
    if floats:
        check_finite(floats)
    if line is None:
        line = ",".join(fmts) + "\n"
    return (line * len(values[0])) % tuple(chain.from_iterable(zip(*values)))


def write_table(path, header, n_rows, block, line=None):
    """Write a CSV header, then rows 0..n_rows-1 in blocks of BLOCK_ROWS.

    block(lo, hi) returns the columns of rows lo..hi-1 for format_rows, and
    line is format_rows' one-row template.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            fh.write(format_rows(block(lo, min(lo + BLOCK_ROWS, n_rows)), line))


# stands for the user number in a location's formatted lines
USER = "@"


def write_by_location(path, header, users, location, line, columns, values):
    """Write a CSV header, then each user's lines: those of its location,
    with its number users[i] in place of USER.

    location[i] is user i's row of columns, (locations, lines) float arrays.
    Per block of users, line, the % template of one location's lines, is
    filled once per distinct location from values(rows), the values of the
    ascending rows in template order. A non-finite value raises fmt_float's
    ValueError for the first one in user order, then in columns' order.
    """
    step = max(1, BLOCK_ROWS // max(line.count("\n"), 1))
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, len(users), step):
            rows, inverse = np.unique(location[lo : lo + step], return_inverse=True)
            check_finite([column[rows][inverse].ravel() for column in columns])
            texts = ((line + "\0") * rows.size % tuple(values(rows))).split("\0")
            fh.write("".join([texts[r].replace(USER, str(n))
                              for n, r in zip(users[lo : lo + step], inverse.tolist())]))


@contextmanager
def open_input(source):
    """(fh, name) of an input given as a path or as an open text file.

    A path is opened as UTF-8 with newline="" and closed on exit, whatever
    the body raises; a file object is yielded as it is and left open. name
    is the path, or the file object's name attribute (None without one).
    """
    if hasattr(source, "read"):
        yield source, getattr(source, "name", None)
        return
    with open(source, "r", encoding="utf-8", newline="") as fh:
        yield fh, str(source)


def check_header(fh, expected, path):
    """Read the first line of fh and raise ParseError unless it is expected."""
    header = fh.readline()
    if header.rstrip("\r\n") != expected:
        raise ParseError(f"expected header {expected!r}", 1, path)


def read_chunks(fh):
    """(first line number, lines) of the rest of fh, CHUNK_LINES lines at a
    time, line ends included; the line after the header is line 2."""
    lineno = 2
    while lines := list(islice(fh, CHUNK_LINES)):
        yield lineno, lines
        lineno += len(lines)


def load_chunk(lines, dtype):
    """The rows of a chunk of CSV lines as np.loadtxt reads them into dtype,
    or None where it refuses them or could read a cell otherwise than int()
    and float() do. A chunk of blank lines has no rows."""
    text = "".join(lines)
    if not text.strip("\r\n"):
        return np.empty(0, dtype=dtype)  # loadtxt warns on input without data
    if not text.isascii() or any(c in text for c in _LOADTXT_ONLY_SPACE):
        # loadtxt reads non-ASCII characters in an integer column as digits,
        # and strips \x1c-\x1f as whitespace where int() and float() refuse
        return None
    try:
        # loadtxt rejects some numbers that int() and float() read, such as
        # 1_0, but reads no ASCII cell to another value
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)
    except ValueError:
        return None


def fields_of(lines, lineno, n, path):
    """(line number, fields) of each non-blank line, from line lineno: the
    line split on commas, its line end stripped; ParseError unless n fields."""
    for lineno, line in enumerate(lines, start=lineno):
        line = line.rstrip("\r\n")
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != n:
            raise ParseError(f"expected {n} fields, got {len(fields)}", lineno, path)
        yield lineno, fields


def number(text, name, lineno, path):
    """float(text), or the ParseError that names the cell."""
    try:
        return float(text)
    except ValueError:
        raise ParseError(f"{name} {text!r} is not a number", lineno, path) from None


def sha256_file(path):
    import hashlib  # loads OpenSSL; only the manifest needs it, after the work

    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
