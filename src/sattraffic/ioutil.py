"""Serialization helpers shared by the file writers, and the input opener.

All output floats use one canonical form (9 significant digits) so repeated
runs of the same command produce byte-identical files that diff cleanly.
"""

import hashlib
import math
import re
from contextlib import contextmanager
from itertools import chain

import numpy as np

# rows per formatted block; writers derive one block's columns at a time, so
# memory stays flat in the row count
BLOCK_ROWS = 1 << 14

# strings _escape leaves unchanged: no quote, backslash or control character
_PLAIN = re.compile(r'[^"\\\x00-\x1f]*')


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
        finite = np.logical_and.reduce([np.isfinite(col) for col in floats])
        if not finite.all():
            row = int(np.argmin(finite))
            for col in floats:
                fmt_float(col[row])
    if line is None:
        line = ",".join(fmts) + "\n"
    return (line * len(values[0])) % tuple(chain.from_iterable(zip(*values)))


def write_table(path, header, n_rows, block):
    """Write a CSV header, then rows 0..n_rows-1 in blocks of BLOCK_ROWS.

    block(lo, hi) returns the columns of rows lo..hi-1 for format_rows.
    """
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(header + "\n")
        for lo in range(0, n_rows, BLOCK_ROWS):
            fh.write(format_rows(block(lo, min(lo + BLOCK_ROWS, n_rows))))


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


def sha256_file(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()
