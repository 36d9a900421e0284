"""One-pass movement loading against the loaders it replaced.

`load_one_hour` is the loader `profile` used to call once per hour: a full
pass over the log that keeps only the requested hour's rows. The one-pass
loaders must give, for every hour, the same terminals and the same dropped
counts, and must fail on a defective log with the same exception.

`oracles.load_movements` is the one-pass loader that built a Terminal per
row and kept them in lists. The chunked column loaders must give the same
ids, coordinate bits, types, demands and dropped counts, whatever the chunk
size, and raise the same first error in row order.
"""

import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattraffic import ioutil
from sattraffic.errors import ParseError
from sattraffic.geo import GeoPoint
from sattraffic.ingest import (
    AERO_HEADER,
    MARITIME_HEADER,
    BoundingBox,
    IngestConfig,
    Terminal,
    TerminalBlock,
    TrafficType,
    _coord,
    _parse_timestamp,
    load_aero,
    load_aero_by_hour,
    load_maritime,
    load_maritime_by_hour,
)
from sattraffic.ioutil import check_header, open_input

import oracles
from oracles import TerminalList


def load_one_hour(source, hour, header, id_name, traffic_type, demand_mbps, bbox):
    """Terminals of one hour from a full pass over the log."""
    first = {}  # id -> (timestamp, row_idx, lat, lon)
    bad = 0
    out = 0
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
            ts = _parse_timestamp(fields[1], lineno, path)
            lat = _coord(fields[2], "lat_deg", lineno, path)
            lon = _coord(fields[3], "lon_deg", lineno, path)
            if lat is not None and lon is not None and not -90.0 <= lat <= 90.0:
                raise ParseError(f"lat_deg {lat} outside [-90, 90]", lineno, path)
            if ts.hour != hour:
                continue
            if lat is None or lon is None:
                bad += 1
                continue
            if not bbox.contains(lat, lon):
                out += 1
                continue
            key = (ts, lineno)
            if ident not in first or key < first[ident][:2]:
                first[ident] = (ts, lineno, lat, lon)

    terminals = [
        Terminal(id=ident, location=GeoPoint(lat, lon), type=traffic_type,
                 demand_mbps=demand_mbps)
        for ident, (_, _, lat, lon) in sorted(first.items())
    ]
    return TerminalList(terminals, dropped_bad_coords=bad, dropped_out_of_box=out)


BBOX = BoundingBox(40.0, 60.0, 0.0, 20.0)


def movement_config(demand, bbox):
    """An IngestConfig giving flights and vessels one demand and one box."""
    return IngestConfig(aero_demand_mbps=demand, maritime_demand_mbps=demand, bbox=bbox)


# (header, id_name, type, demand, one-pass loader, single-hour loader)
KINDS = {
    "aero": (AERO_HEADER, "flight_id", TrafficType.AERO, 10.0,
             load_aero_by_hour, load_aero),
    "maritime": (MARITIME_HEADER, "ship_id", TrafficType.MARITIME, 8.0,
                 load_maritime_by_hour, load_maritime),
}

# in the box, outside it, blank, NaN, and signed zeros on the box edge
LATS = ("45.5", "50", "59.99", "40.0", "30.0", "61.5", "", " ", "nan", "NaN")
LONS = ("0.0", "-0.0", "5.25", "19.5", "-3.0", "25.0", "", "nan")
OFFSETS = ("Z", "+00:00", "+05:30", "-08:00")
DEFECTS = (
    "x1,2026-01-15T05:00:00Z,95.0,5.0",  # latitude out of range
    "x1,2026-01-15T23:59:00-08:00,-90.5,5.0",
    "x1,not-a-time,50,5",
    "x1,2026-01-15T05:00:00Z,50",
    ",2026-01-15T05:00:00Z,50,5",
    "x1,2026-01-15T05:00:00Z,fifty,5",
    "x1,2026-01-15T05:00:00Z,50,inf",
)

rows = st.builds(
    lambda ident, hour, minute, offset, lat, lon: (
        f"{ident},2026-01-15T{hour:02d}:{minute:02d}:00{offset},{lat},{lon}"
    ),
    st.sampled_from(("a1", "a2", "b7", "c10")),  # few ids, so duplicates
    st.one_of(st.sampled_from((5, 9)), st.integers(0, 23)),  # crowded hours too
    st.sampled_from((0, 59)),  # few minutes, so equal timestamps
    st.sampled_from(OFFSETS),
    st.sampled_from(LATS),
    st.sampled_from(LONS),
)


def render(header, lines, crlf, blanks):
    """Log text: header, the lines with blank lines spliced in, any line end."""
    end = "\r\n" if crlf else "\n"
    body = list(lines)
    for pos in sorted(blanks, reverse=True):
        body.insert(min(pos, len(body)), "")
    return end.join([header, *body]) + end


def outcome(load):
    try:
        return load(), None
    except Exception as exc:  # the exception itself is what is compared
        return None, exc


@settings(max_examples=150, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    lines=st.lists(rows, max_size=30),
    crlf=st.booleans(),
    blanks=st.lists(st.integers(0, 30), max_size=3),
    defect=st.one_of(st.none(), st.tuples(st.sampled_from(DEFECTS), st.integers(0, 30))),
    single_hour=st.integers(0, 23),
)
def test_one_pass_matches_per_hour_loader(kind, lines, crlf, blanks, defect, single_hour):
    header, id_name, ttype, demand, by_hour, one_hour = KINDS[kind]
    if defect is not None:
        lines = list(lines)
        lines.insert(min(defect[1], len(lines)), defect[0])
    text = render(header, lines, crlf, blanks)

    got, got_exc = outcome(
        lambda: by_hour(io.StringIO(text), movement_config(demand, BBOX))
    )
    for hour in range(24):
        want, want_exc = outcome(
            lambda: load_one_hour(io.StringIO(text), hour, header, id_name, ttype,
                                  demand, BBOX)
        )
        if want_exc is not None:
            assert type(got_exc) is type(want_exc)
            assert str(got_exc) == str(want_exc)
            continue
        assert got_exc is None
        assert len(got) == 24
        assert list(got[hour]) == list(want)
        assert [t.location for t in got[hour]] == [t.location for t in want]
        assert got[hour].dropped_bad_coords == want.dropped_bad_coords
        assert got[hour].dropped_out_of_box == want.dropped_out_of_box

    single, single_exc = outcome(
        lambda: one_hour(io.StringIO(text), single_hour, movement_config(demand, BBOX))
    )
    if got_exc is not None:
        assert type(single_exc) is type(got_exc)
        assert str(single_exc) == str(got_exc)
    else:
        assert list(single) == list(got[single_hour])
        assert single.dropped == got[single_hour].dropped


@pytest.mark.parametrize("hour", [-1, 24, 9.0, True])
def test_single_hour_still_validated(hour):
    with pytest.raises(ValueError, match="hour"):
        load_aero(io.StringIO(AERO_HEADER + "\n"), hour)


def bits(values):
    return np.array(list(values), dtype=float).view(np.int64).tolist()


def assert_same_terminals(got, want):
    """A TerminalBlock holding exactly the terminals of a TerminalList."""
    assert isinstance(got, TerminalBlock)
    assert list(got.ids) == [t.id for t in want]
    assert bits(got.lat_deg) == bits(t.location.lat_deg for t in want)
    assert bits(got.lon_deg) == bits(t.location.lon_deg for t in want)
    assert got.type.tolist() == [int(t.type) for t in want]
    assert bits(got.demand_mbps) == bits(t.demand_mbps for t in want)
    assert got.dropped_bad_coords == want.dropped_bad_coords
    assert got.dropped_out_of_box == want.dropped_out_of_box
    assert list(got) == list(want)


def assert_same_outcome(got, got_exc, want, want_exc):
    if want_exc is not None:
        assert type(got_exc) is type(want_exc)
        assert str(got_exc) == str(want_exc)
        return
    assert got_exc is None
    assert len(got) == len(want)
    for block, terminals in zip(got, want):
        assert_same_terminals(block, terminals)


# ids that numpy's U dtype would merge or that sort differently by bytes,
# timestamps that name one instant in several ways, longitudes to wrap
WIDE_BOX = BoundingBox(40.0, 60.0, -200.0, 200.0)
wide_rows = st.builds(
    lambda ident, hour, minute, offset, lat, lon: (
        f"{ident},2026-01-15T{hour:02d}:{minute:02d}:00{offset},{lat},{lon}"
    ),
    st.sampled_from(("a1", "a1\x00", " a1 ", "é", "Z", "ß1", "c10")),
    st.one_of(st.sampled_from((9, 10)), st.integers(0, 23)),
    st.sampled_from((0, 59)),
    st.sampled_from(("Z", "+00:00", "+01:00", "-08:00", "")),
    st.sampled_from(LATS + ("-0.0", "90", "-90")),
    st.sampled_from(LONS + ("190", "-185", "359.5", " 5 ")),
)


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(sorted(KINDS)),
    lines=st.lists(st.one_of(rows, wide_rows), max_size=40),
    crlf=st.booleans(),
    blanks=st.lists(st.integers(0, 40), max_size=3),
    defects=st.lists(
        st.tuples(st.sampled_from(DEFECTS + (" ", "\t")), st.integers(0, 40)), max_size=2
    ),
    bbox=st.sampled_from((BBOX, WIDE_BOX)),
    demand=st.sampled_from((10.0, 0.0, 2.5)),
    chunk=st.sampled_from((1, 2, 3, 7, 1024)),
    single_hour=st.integers(0, 23),
)
def test_chunked_columns_match_parent_loader(kind, lines, crlf, blanks, defects, bbox,
                                              demand, chunk, single_hour):
    header, id_name, ttype, _, by_hour, one_hour = KINDS[kind]
    lines = list(lines)
    for defect, pos in defects:
        lines.insert(min(pos, len(lines)), defect)
    text = render(header, lines, crlf, blanks)

    cfg = movement_config(demand, bbox)
    with mock.patch.object(ioutil, "CHUNK_LINES", chunk):
        got = outcome(lambda: by_hour(io.StringIO(text), cfg))
        single = outcome(lambda: [one_hour(io.StringIO(text), single_hour, cfg)])
    want = outcome(lambda: oracles.load_movements(
        io.StringIO(text), range(24), header, id_name, ttype, demand, bbox
    ))
    want_single = outcome(lambda: oracles.load_movements(
        io.StringIO(text), (single_hour,), header, id_name, ttype, demand, bbox
    ))
    assert_same_outcome(*got, *want)
    assert_same_outcome(*single, *want_single)
