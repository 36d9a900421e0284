"""The one CSV reader behind every input file.

ioutil.read_chunks hands out raw lines, ioutil.load_chunk reads a chunk
through np.loadtxt where it can, and the line parsers of the pattern, the
movement logs and the population raster split through ioutil.fields_of.
The movement loaders and the pattern parse are compared with the plain
loaders in oracles.py over every chunk size and line end: the same
terminals or arrays, bit for bit, or the same first error, type and
message. A guard walks the package source so np.loadtxt stays in ioutil.
"""

import ast
import io
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import oracles
import sattraffic
from sattraffic import ingest, ioutil
from sattraffic.errors import NegativePopulationError, ParseError, TimestampError
from sattraffic.ingest import (
    AERO_HEADER,
    MARITIME_HEADER,
    POPULATION_HEADER,
    BoundingBox,
    IngestConfig,
    TrafficType,
    load_aero,
    load_aero_by_hour,
    load_maritime,
    load_population,
)
from test_block_io import NAMED as PATTERN_CASES
from test_block_io import assert_same_parse
from test_movements_by_hour import assert_same_outcome, outcome

CHUNKS = (1, 2, 3, 7, ioutil.CHUNK_LINES)
LINE_ENDS = {"lf": "\n", "crlf": "\r\n", "cr": "\r"}
BOX = BoundingBox(40.0, 60.0, 0.0, 20.0)
CFG = IngestConfig(aero_demand_mbps=10.0, maritime_demand_mbps=8.0, bbox=BOX)


def chunk_lines(n):
    return mock.patch.object(ioutil, "CHUNK_LINES", n)


def row(ident="f1", hour=9, minute=0, lat="50", lon="5"):
    return f"{ident},2026-01-15T{hour:02d}:{minute:02d}:00Z,{lat},{lon}"


GOOD = [row("f1", 9, 5, "50", "5"), row("f2", 9, 1, "51.5", "6.25"),
        row("f1", 9, 2, "52", "7"), row("f3", 10, 0, "45", "19.5"),
        row("f2", 8, 59, "61", "5"), row("f4", 9, 30, "-0.0", "0.0")]

# (body rows, whether np.loadtxt reads every chunk of every line end and size)
MOVEMENT_CASES = {
    "well_formed": (GOOD, True),
    "blank_lines": (["", *GOOD[:3], "", "", *GOOD[3:], ""], True),
    "whitespace_only_line": ([*GOOD[:3], "  \t", *GOOD[3:]], False),
    "padded_ids": ([row(" f1 "), row("\tf2"), row("f1", 9, 1, "51")], True),
    "empty_id": ([*GOOD[:2], row("  ")], False),
    "blank_coordinate": ([row(lat=""), row("f2", lon=" "), *GOOD], False),
    "nan_coordinate": ([row(lat="nan"), row("f2", lon="NaN"), *GOOD], True),
    "non_ascii_id": ([row("é1"), row("ß2", lat="51"), *GOOD], False),
    "file_separator_in_id": ([row("f1\x1c"), *GOOD], False),
    "file_separator_in_coordinate": ([*GOOD[:2], row(lat="52\x1c")], False),
    # np.loadtxt refuses 5_2 and float() reads it as 52.0
    "underscore_digits": ([row(lat="5_2"), *GOOD], False),
    "infinite_coordinate": ([*GOOD[:2], row(lon="inf")], False),
    "latitude_out_of_range": ([*GOOD[:2], row(lat="90.5")], False),
    "not_a_number": ([*GOOD[:2], row(lat="fifty")], False),
    "extra_field": ([*GOOD[:2], row() + ",x"], False),
    "bad_timestamp": ([*GOOD[:2], "f1,yesterday,50,5"], False),
    # the missing coordinate sends the chunk to the line parser, which must
    # still raise the timestamp error of the later line
    "bad_timestamp_after_missing_coordinate": (
        [*GOOD[:2], row(lat=""), *GOOD[2:4], "f9,yesterday,50,5"], False),
    # the earlier line's error comes first, in any chunk
    "bad_coordinate_before_bad_timestamp": (
        [*GOOD[:2], row(lat="fifty"), "f9,yesterday,50,5"], False),
    # each chunk keeps its first record per (id, hour) and a last pick takes
    # the first of those: one vehicle-hour's records spread over chunks,
    # out of time order, with the first record in a late chunk
    "vehicle_hour_across_chunks": (
        [row("f1", 9, 40, "50"), row("f2", 9, 30, "41"), row("f1", 9, 35, "51"),
         row("f1", 10, 5, "52"), row("f2", 9, 20, "42"), row("f3", 9, 0, "43"),
         row("f1", 9, 50, "53"), row("f2", 9, 10, "44"), row("f1", 9, 12, "54"),
         row("f1", 10, 1, "55"), row("f2", 9, 45, "46")], True),
    "out_of_time_order": (
        [row("f1", 9, m, str(40 + m / 4)) for m in range(59, 0, -6)]
        + [row("f2", 8 + m % 3, m, str(45 + m / 8)) for m in range(50, 0, -7)], True),
    # the same instant, in the same text or another offset, goes to the
    # earlier row whichever chunks the rows fall in
    "equal_instants_across_chunks": (
        [row("f1", 9, 15, "50"), *GOOD[1:4], row("f1", 9, 15, "51"), *GOOD[:4],
         "f1,2026-01-15T10:15:00+01:00,52,5", row("f1", 9, 15, "53"),
         "f2,2026-01-15T04:31:00-04:30,54,5", row("f2", 9, 1, "55")], True),
    # a chunk strips its ids only where one is padded
    "padded_and_unpadded_ids": (
        [row("f1", 9, 5, "50"), row(" f1", 9, 4, "51"), row("f2", 9, 3, "52"),
         *GOOD, row("f2 ", 9, 3, "53"), row("\tf3", 9, 8, "54"), row("f3", 9, 8, "55"),
         row("f1\t", 9, 4, "56"), row("f4", 9, 2, "57")], True),
}

# (loader, how the oracle is called): one hour, every hour, and the maritime log
LOADERS = {
    "load_aero": (lambda fh: [load_aero(fh, 9, CFG)], AERO_HEADER, "flight_id",
                  TrafficType.AERO, 10.0, (9,)),
    "load_aero_by_hour": (lambda fh: load_aero_by_hour(fh, CFG), AERO_HEADER,
                          "flight_id", TrafficType.AERO, 10.0, range(24)),
    "load_maritime": (lambda fh: [load_maritime(fh, 9, CFG)], MARITIME_HEADER,
                      "ship_id", TrafficType.MARITIME, 8.0, (9,)),
}


def log_text(header, rows, end):
    return end.join([header, *rows]) + end


def fast_rows_taken(load, text):
    """Whether load read at least one chunk, and load_chunk gave the rows
    of every chunk it read."""
    taken = []
    fast = ingest._fast_rows

    def spy(*args):
        rows = fast(*args)
        taken.append(rows is not None)
        return rows

    with mock.patch.object(ingest, "_fast_rows", spy):
        outcome(lambda: load(io.StringIO(text, newline="")))
    return bool(taken) and all(taken)


@pytest.mark.parametrize("loader", sorted(LOADERS))
@pytest.mark.parametrize("end", sorted(LINE_ENDS))
@pytest.mark.parametrize("case", sorted(MOVEMENT_CASES))
def test_movement_loaders_match_the_oracle(case, end, loader):
    rows, fast = MOVEMENT_CASES[case]
    load, header, id_name, ttype, demand, hours = LOADERS[loader]
    text = log_text(header, rows, LINE_ENDS[end])
    want = outcome(lambda: oracles.load_movements(
        io.StringIO(text, newline=""), hours, header, id_name, ttype, demand, BOX))
    for n in CHUNKS:
        with chunk_lines(n):
            got = outcome(lambda: load(io.StringIO(text, newline="")))
            assert_same_outcome(*got, *want)
            assert fast_rows_taken(load, text) == fast


def test_bad_timestamp_after_missing_coordinate_names_its_line():
    rows, _ = MOVEMENT_CASES["bad_timestamp_after_missing_coordinate"]
    with pytest.raises(TimestampError) as info:
        load_aero(io.StringIO(log_text(AERO_HEADER, rows, "\n")), 9)
    assert str(info.value) == "line 7: unparseable timestamp 'yesterday'"


@pytest.mark.parametrize("name", sorted(PATTERN_CASES))
@pytest.mark.parametrize("end", ["\r\n", "\r"])
def test_pattern_line_ends_match_the_oracle(name, end):
    text = PATTERN_CASES[name][0].replace("\n", end)
    for n in CHUNKS:
        with chunk_lines(n):
            assert_same_parse(text)


@pytest.mark.parametrize("end", sorted(LINE_ENDS))
def test_load_chunk_reads_every_line_end(end):
    dtype = ingest._MOVEMENT
    lines = [line + LINE_ENDS[end] for line in GOOD]
    rows = ioutil.load_chunk(lines, dtype)
    assert rows["id"].tolist() == [line.split(",")[0] for line in GOOD]
    assert rows["stamp"].tolist() == [line.split(",")[1] for line in GOOD]
    assert rows["lat"].tolist() == [float(line.split(",")[2]) for line in GOOD]
    assert rows["lon"].tolist() == [float(line.split(",")[3]) for line in GOOD]


@pytest.mark.parametrize("lines", [[], ["\n"], ["\r\n", "\r", "\n"]])
def test_load_chunk_of_blank_lines_has_no_rows(lines):
    rows = ioutil.load_chunk(lines, ingest._MOVEMENT)
    assert rows.dtype == ingest._MOVEMENT and rows.size == 0


@pytest.mark.parametrize("cell", ["", " ", "5_2", "52\x1c", "٥", "x"])
def test_load_chunk_refuses_what_only_the_line_parser_reads(cell):
    assert ioutil.load_chunk([row(lat=cell) + "\n"], ingest._MOVEMENT) is None


def test_fields_of_skips_blank_lines_and_counts_fields():
    lines = ["a,b\n", "\r\n", "c,d\r", "e,f"]
    assert list(ioutil.fields_of(lines, 5, 2, "p.csv")) == [
        (5, ["a", "b"]), (7, ["c", "d"]), (8, ["e", "f"])]
    with pytest.raises(ParseError) as info:
        list(ioutil.fields_of(["a,b\n", " \n"], 2, 2, "p.csv"))
    assert str(info.value) == "p.csv: line 3: expected 2 fields, got 1"


def test_number_names_the_cell():
    assert ioutil.number(" 5_2\t", "lat_deg", 2, None) == 52.0
    with pytest.raises(ParseError) as info:
        ioutil.number("5\x1c", "lat_deg", 4, None)
    assert str(info.value) == "line 4: lat_deg '5\\x1c' is not a number"


def test_every_input_reads_a_number_cell_as_float_does():
    # str.strip takes \x1c-\x1f off a cell and float() does not; a coordinate
    # is read as float() reads it, as the pattern's cells are
    with pytest.raises(ParseError, match=r"line 2: lat_deg '52\\x1c' is not a number"):
        load_population(io.StringIO(POPULATION_HEADER + "\n52\x1c,5,100\n"))
    with pytest.raises(ParseError, match=r"line 3: lat_deg '52\\x1c' is not a number"):
        load_aero(io.StringIO(log_text(AERO_HEADER, [GOOD[0], row(lat="52\x1c")], "\n")), 9)
    assert len(load_population(io.StringIO(POPULATION_HEADER + "\n\x1c,5,100\n"))) == 0


def test_loadtxt_is_called_only_in_ioutil():
    package = Path(sattraffic.__file__).parent
    calls = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(
                    func, "id", None)
                if name == "loadtxt":
                    calls.append(f"{path.name}:{node.lineno}")
    assert calls, "ioutil no longer calls np.loadtxt"
    assert [call for call in calls if not call.startswith("ioutil.py:")] == []


# -- error prefixes ------------------------------------------------------------


def test_errors_of_an_unnamed_source_begin_with_the_line():
    aero = AERO_HEADER + "\nf1,notatime,52,5\n"
    with pytest.raises(TimestampError) as info:
        load_aero(io.StringIO(aero), 9)
    assert str(info.value) == "line 2: unparseable timestamp 'notatime'"
    assert (info.value.line, info.value.path) == (2, None)

    population = POPULATION_HEADER + "\n50,10,-5\n"
    with pytest.raises(NegativePopulationError) as info:
        load_population(io.StringIO(population))
    assert str(info.value) == "line 2: population must be finite and >= 0, got -5"
    assert (info.value.line, info.value.path) == (2, None)


def test_errors_of_a_named_path_keep_their_prefix(tmp_path):
    aero = tmp_path / "aero.csv"
    aero.write_text(AERO_HEADER + "\nf1,notatime,52,5\n")
    with pytest.raises(TimestampError) as info:
        load_aero(aero, 9)
    assert str(info.value) == f"{aero}: line 2: unparseable timestamp 'notatime'"

    population = tmp_path / "population.csv"
    population.write_text(POPULATION_HEADER + "\n50,10,1\n50,10,-inf\n")
    with pytest.raises(NegativePopulationError) as info:
        load_population(population)
    assert str(info.value) == (
        f"{population}: line 3: population must be finite and >= 0, got -inf")
    assert isinstance(info.value, ParseError)


# -- the bounding box ----------------------------------------------------------


def test_bounding_box_contains_numbers_and_arrays():
    box = BoundingBox(40.0, 60.0, 0.0, 20.0)
    lat = [40.0, 60.0, 39.9, 50.0, 50.0, np.nan, 50.0, -0.0]
    lon = [0.0, 20.0, 5.0, 20.1, -0.0, 5.0, np.nan, 5.0]
    want = [True, True, False, False, True, False, False, False]
    assert [bool(box.contains(a, b)) for a, b in zip(lat, lon)] == want
    assert box.contains(np.array(lat), np.array(lon)).tolist() == want
