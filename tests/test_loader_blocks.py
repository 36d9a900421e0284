"""TerminalBlock, the column form of the loaders' output, and loader edge cases.

The loaders fill columns directly; `oracles.load_population` and
`oracles.load_movements` are the loaders they replaced, which built one
Terminal and GeoPoint per terminal. Every case here must come out as it did
with them: the same ids, coordinate bits, types, demands and dropped
counts, or the same exception with the same message.
"""

import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sattraffic import ingest, ioutil
from sattraffic.errors import ParseError, TimestampError
from sattraffic.geo import GeoPoint
from sattraffic.ingest import (
    AERO_HEADER,
    MARITIME_HEADER,
    POPULATION_HEADER,
    BoundingBox,
    IngestConfig,
    Terminal,
    TerminalBlock,
    TrafficType,
    UrbanPolicy,
    load_aero,
    load_aero_by_hour,
    load_maritime,
    load_maritime_by_hour,
    load_population,
    synth_aero,
    synth_maritime,
    synth_population,
)

import oracles
from test_movements_by_hour import assert_same_outcome, assert_same_terminals, outcome


def aero_text(rows, end="\n"):
    return end.join([AERO_HEADER, *rows]) + end


def load_both(text, hours=range(24), demand=10.0, bbox=ingest.DEFAULT_BBOX):
    """(library outcome, parent outcome) of loading a flight log."""
    cfg = IngestConfig(aero_demand_mbps=demand, bbox=bbox)
    got = outcome(lambda: ingest._load_movements(io.StringIO(text), hours, TrafficType.AERO, cfg))
    want = outcome(lambda: oracles.load_movements(
        io.StringIO(text), hours, AERO_HEADER, "flight_id", TrafficType.AERO, demand, bbox
    ))
    return got, want


def assert_matches_parent(text, **kwargs):
    """The library's blocks for a flight log that loads as the parent's did."""
    got, want = load_both(text, **kwargs)
    assert_same_outcome(*got, *want)
    assert got[1] is None
    return got[0]


# -- population ----------------------------------------------------------------

POP_LATS = ("50", "50.0", "0.0", "-0.0", "45.25", "", "nan", " 50 ")
POP_LONS = ("10", "10.0", "0.0", "-0.0", "190", "-185", "", "nan")
POPS = ("0", "999", "1000", "2500", "60000", "1e5", "0.5", " 7 ")
POP_DEFECTS = ("50,10,-5", "50,10,nan", "50,10,lots", "95,10,100", "50,10",
               "50,10,1,2", "fifty,10,100", "50,inf,100")

pop_rows = st.builds(
    lambda lat, lon, pop: f"{lat},{lon},{pop}",
    st.sampled_from(POP_LATS), st.sampled_from(POP_LONS), st.sampled_from(POPS),
)


@settings(max_examples=150, deadline=None)
@given(
    lines=st.lists(pop_rows, max_size=25),
    defect=st.one_of(st.none(), st.tuples(st.sampled_from(POP_DEFECTS), st.integers(0, 25))),
    crlf=st.booleans(),
    blank=st.one_of(st.none(), st.integers(0, 25)),
    downscale=st.sampled_from((1, 7, 1000)),
    policy=st.sampled_from((None, UrbanPolicy(5000.0, 0.3), UrbanPolicy(0.0, 0.0))),
    demand=st.sampled_from((2.0, 0.0, 2.5)),
    bbox=st.sampled_from((ingest.DEFAULT_BBOX, BoundingBox(-10.0, 60.0, -200.0, 200.0))),
)
def test_population_matches_parent_loader(lines, defect, crlf, blank, downscale, policy,
                                          demand, bbox):
    lines = list(lines)
    if defect is not None:
        lines.insert(min(defect[1], len(lines)), defect[0])
    if blank is not None:
        lines.insert(min(blank, len(lines)), "")
    end = "\r\n" if crlf else "\n"
    text = end.join([POPULATION_HEADER, *lines]) + end

    cfg = IngestConfig(downscale=downscale, urban=policy or UrbanPolicy(),
                       fss_demand_mbps=demand, bbox=bbox)
    got = outcome(lambda: [load_population(io.StringIO(text), cfg)])
    want = outcome(lambda: [oracles.load_population(
        io.StringIO(text), downscale, policy, demand_mbps=demand, bbox=bbox
    )])
    assert_same_outcome(*got, *want)


class TestPopulationEdges:
    def test_cells_expand_in_center_order(self):
        text = POPULATION_HEADER + "\n52,5,3000\n50,10,2500\n50,-0.0,1000\n"
        block = load_population(io.StringIO(text))
        assert block.ids == ("fss-1", "fss-2", "fss-3", "fss-4", "fss-5", "fss-6")
        assert block.lat_deg.tolist() == [50.0, 50.0, 50.0, 52.0, 52.0, 52.0]
        assert block.lon_deg.tolist() == [0.0, 10.0, 10.0, 5.0, 5.0, 5.0]
        assert math.copysign(1.0, block.lon_deg[0]) == -1.0

    def test_lon_190_held_as_minus_170(self):
        box = BoundingBox(40.0, 60.0, 0.0, 200.0)
        text = POPULATION_HEADER + "\n50,190,2000\n"
        block = load_population(io.StringIO(text), IngestConfig(bbox=box))
        assert block.lon_deg.tolist() == [-170.0, -170.0]
        assert block[0].location == GeoPoint(50.0, 190.0)
        assert_same_terminals(block, oracles.load_population(io.StringIO(text), 1000, bbox=box))

    def test_negative_demand_raises_before_any_file_is_read(self):
        # the loaders take their demand from an IngestConfig, which refuses it
        for demand in (-1, math.nan, math.inf):
            with pytest.raises(ValueError,
                               match=rf"^fss_demand_mbps must be a finite number >= 0, got {demand}$"):
                IngestConfig(fss_demand_mbps=demand)


# -- movement logs ---------------------------------------------------------------

class TestMovementEdges:
    def test_ids_differing_by_a_trailing_nul(self):
        text = aero_text([
            "f1\x00,2026-01-15T09:10:00Z,51,11",
            "f1,2026-01-15T09:00:00Z,50,10",
        ])
        got = assert_matches_parent(text)
        assert got[9].ids == ("f1", "f1\x00")
        assert got[9].lat_deg.tolist() == [50.0, 51.0]

    def test_non_ascii_ids_in_str_order(self):
        names = ["é", "z", "Z", "ß", "a", "日本", "é"]
        text = aero_text([f"{name},2026-01-15T09:00:00Z,50,10" for name in names])
        got = assert_matches_parent(text)
        assert list(got[9].ids) == sorted(names)

    def test_lon_190_held_as_minus_170(self):
        box = BoundingBox(40.0, 60.0, 0.0, 200.0)
        text = aero_text(["f1,2026-01-15T09:00:00Z,50,190"])
        got = assert_matches_parent(text, bbox=box)
        assert got[9].lon_deg.tolist() == [-170.0]
        assert got[9][0].location == GeoPoint(50.0, -170.0)

    @pytest.mark.parametrize("first, second, lat", [
        ("2026-01-15T11:00:00+01:00", "2026-01-15T10:00:00Z", 50.0),
        ("2026-01-15T10:00:00Z", "2026-01-15T11:00:00+01:00", 50.0),
        ("2026-01-15T10:00:01Z", "2026-01-15T11:00:00+01:00", 60.0),
    ])
    def test_equal_instants_go_to_the_earlier_row(self, first, second, lat):
        text = aero_text([f"f1,{first},50,10", f"f1,{second},60,20"])
        got = assert_matches_parent(text)
        assert got[10].lat_deg.tolist() == [lat]

    def test_negative_demand_raises_before_any_file_is_read(self):
        # the loaders take their demand from an IngestConfig, which refuses it
        for name in ("aero_demand_mbps", "maritime_demand_mbps"):
            with pytest.raises(ValueError, match=rf"^{name} must be a finite number >= 0, got -1$"):
                IngestConfig(**{name: -1})

    def test_crlf_and_blank_lines(self):
        rows = ["f2,2026-01-15T09:00:00Z,50,10", "", "f1,2026-01-15T09:05:00Z,51,11",
                "", "", "f2,2026-01-15T08:59:00Z,52,12"]
        lf = assert_matches_parent(aero_text(rows))
        crlf = assert_matches_parent(aero_text(rows, "\r\n"))
        assert lf[9].ids == crlf[9].ids == ("f1", "f2")
        assert lf[8].ids == crlf[8].ids == ("f2",)

    def test_whitespace_line_is_not_blank(self):
        rows = ["f1,2026-01-15T09:00:00Z,50,10", " ", "f2,2026-01-15T09:00:00Z,50,10"]
        got, want = load_both(aero_text(rows))
        assert_same_outcome(*got, *want)
        assert str(got[1]).endswith("line 3: expected 4 fields, got 1")

    def test_first_error_in_row_order_across_kinds(self):
        rows = ["f1,2026-01-15T09:00:00Z,50,10", "f1,2026-01-15T09:00:00Z,95,10",
                "f1,yesterday,50,10"]
        got, want = load_both(aero_text(rows))
        assert_same_outcome(*got, *want)
        assert isinstance(got[1], ParseError) and "line 3" in str(got[1])
        rows[1], rows[2] = rows[2], rows[1]
        got, want = load_both(aero_text(rows))
        assert_same_outcome(*got, *want)
        assert isinstance(got[1], TimestampError) and "line 3" in str(got[1])

    @pytest.mark.parametrize("first", [
        "f1,2026-01-15T09:00:00Z,95,10",
        "f1,2026-01-15T09:00:00Z,50,10",
    ])
    def test_timestamp_overflowing_in_utc(self, first):
        # year 1 at +01:00 has no UTC datetime; the error is the first in row order
        rows = [first, "f1,0001-01-01T00:30:00+01:00,50,10"]
        got, want = load_both(aero_text(rows))
        assert_same_outcome(*got, *want)
        assert type(got[1]) is (ParseError if "95" in first else TimestampError)
        if "95" not in first:
            assert str(got[1]).endswith("line 3: timestamp '0001-01-01T00:30:00+01:00' "
                                        "is outside the datetime range in UTC")


CHUNK = ioutil.CHUNK_LINES


def chunk_log(rows, bad_at):
    lines = [
        f"f{k % 97},2026-01-15T{k % 24:02d}:{k % 60:02d}:00Z,{40 + k % 20},{k % 20}"
        for k in range(rows)
    ]
    if bad_at is not None:
        lines[bad_at] = "f1,2026-01-15T09:00:00Z,95.0,5.0"
    return aero_text(lines)


@pytest.mark.parametrize("rows", [CHUNK - 1, CHUNK, CHUNK + 1])
@pytest.mark.parametrize("bad_at", [None, CHUNK - 2, CHUNK - 1, CHUNK])
def test_chunk_boundaries(rows, bad_at):
    if bad_at is not None and bad_at >= rows:
        bad_at = rows - 1
    got, want = load_both(chunk_log(rows, bad_at))
    assert_same_outcome(*got, *want)
    if bad_at is None:
        assert sum(len(block) for block in got[0]) > 0
    else:
        assert f"line {bad_at + 2}:" in str(got[1])


def test_each_timestamp_text_parsed_once(monkeypatch):
    calls = []
    parse = ingest._parse_timestamp
    monkeypatch.setattr(ingest, "_parse_timestamp", lambda *a: calls.append(a[0]) or parse(*a))
    text = chunk_log(3 * CHUNK + 5, None)
    load_aero_by_hour(io.StringIO(text))
    stamps = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert sorted(calls) == sorted(set(stamps))


def distinct_stamp_log(rows):
    """A flight log whose timestamps are all distinct texts, as second-resolution
    feeds give: instants a few seconds apart, some written at an offset, some
    equal to an earlier one at another offset, some outside the box."""
    lines = []
    for k in range(rows):
        second = 86400 * k // rows
        offset = ("Z", "+01:00", "-02:30")[k % 3]
        shift = {"Z": 0, "+01:00": 3600, "-02:30": -9000}[offset]
        local = (second + shift) % 86400
        stamp = (f"2026-01-15T{local // 3600:02d}:{local // 60 % 60:02d}:"
                 f"{local % 60:02d}.{k % 997:06d}{offset}")
        lines.append(f"f{k % 37},{stamp},{45 + k % 13},{k % 11 * 10 - 50}")
    return aero_text(lines)


@pytest.mark.parametrize("chunk", [1, 2, 7, 1024])
def test_all_distinct_timestamps(chunk):
    text = distinct_stamp_log(3000)
    stamps = [line.split(",")[1] for line in text.splitlines()[1:]]
    assert len(set(stamps)) == len(stamps)
    with mock.patch.object(ioutil, "CHUNK_LINES", chunk):
        got, want = load_both(text)
    assert_same_outcome(*got, *want)
    assert all(len(block) for block in got[0])
    assert sum(block.dropped_out_of_box for block in got[0]) > 0


# -- settings ---------------------------------------------------------------------

CUSTOM = IngestConfig(
    downscale=700, urban=UrbanPolicy(5000.0, 0.3), fss_demand_mbps=3.5,
    aero_demand_mbps=12.5, maritime_demand_mbps=0.25,
    bbox=BoundingBox(48.0, 56.0, 1.0, 9.0),
)


@pytest.fixture
def paths(tmp_path):
    """Seeded population, flight and vessel files, partly outside CUSTOM.bbox."""
    paths = {kind: tmp_path / f"{kind}.csv" for kind in ("population", "aero", "maritime")}
    synth_population(paths["population"], seed=5, cells=300, urban_fraction=0.3)
    synth_aero(paths["aero"], seed=6, flights=40)
    synth_maritime(paths["maritime"], seed=7, ships=30)
    return paths


def test_each_loader_takes_its_settings_from_the_config(paths):
    fss = load_population(paths["population"], CUSTOM)
    want = oracles.load_population(
        paths["population"], CUSTOM.downscale, CUSTOM.urban,
        demand_mbps=CUSTOM.fss_demand_mbps, bbox=CUSTOM.bbox,
    )
    assert_same_terminals(fss, want)
    assert fss.dropped_out_of_box > 0 and set(fss.demand_mbps.tolist()) == {3.5}
    assert len(fss) != len(load_population(paths["population"]))

    for kind, header, ttype, demand, by_hour, one_hour in (
        ("aero", AERO_HEADER, TrafficType.AERO, 12.5, load_aero_by_hour, load_aero),
        ("maritime", MARITIME_HEADER, TrafficType.MARITIME, 0.25,
         load_maritime_by_hour, load_maritime),
    ):
        want = oracles.load_movements(
            paths[kind], range(24), header, header.partition(",")[0], ttype, demand,
            CUSTOM.bbox,
        )
        assert_same_outcome(by_hour(paths[kind], CUSTOM), None, want, None)
        for hour in (0, 9, 23):
            assert_same_terminals(one_hour(paths[kind], hour, CUSTOM), want[hour])
        assert sum(block.dropped_out_of_box for block in want) > 0


def test_earlier_call_forms_go_through_the_config(paths):
    # bench/run.py passes the settings one at a time
    box = CUSTOM.bbox
    assert_same_terminals(
        load_population(paths["population"], 700, CUSTOM.urban, bbox=box),
        oracles.load_population(paths["population"], 700, CUSTOM.urban, bbox=box),
    )
    for kind, loader, header, ttype, demand in (
        ("aero", load_aero, AERO_HEADER, TrafficType.AERO, 10.0),
        ("maritime", load_maritime, MARITIME_HEADER, TrafficType.MARITIME, 8.0),
    ):
        want = oracles.load_movements(
            paths[kind], (9,), header, header.partition(",")[0], ttype, demand, box
        )
        assert_same_terminals(loader(paths[kind], 9, bbox=box), want[0])
    assert len(load_population(paths["population"], 1000)) == len(
        load_population(paths["population"])
    )
    for downscale in (0, True):
        with pytest.raises(ValueError, match="downscale must be an integer >= 1"):
            load_population(paths["population"], downscale)


# -- the block as a sequence of terminals ----------------------------------------

def sample_block():
    text = aero_text(["b,2026-01-15T09:00:00Z,50,10", "a,2026-01-15T09:01:00Z,51,-0.0"])
    return load_aero(io.StringIO(text), 9)


class TestTerminalBlock:
    def test_sequence_view_builds_terminals(self):
        block = sample_block()
        a = Terminal("a", GeoPoint(51.0, -0.0), TrafficType.AERO, 10.0)
        b = Terminal("b", GeoPoint(50.0, 10.0), TrafficType.AERO, 10.0)
        assert len(block) == 2
        assert block[0] == a and block[-1] == b
        assert list(reversed(block)) == [b, a]
        assert list(block) == [a, b]
        assert block == [a, b] and [a, b] == block and block == (a, b)
        assert block != [a] and block != [b, a]
        assert block.index(b) == 1 and b in block
        with pytest.raises(IndexError):
            block[2]

    def test_slices_read_as_a_list_would(self):
        text = aero_text([f"f{k},2026-01-15T09:00:00Z,{50 + k},10" for k in range(5)])
        block = load_aero(io.StringIO(text), 9)
        rows = list(block)
        for start in (None, -7, -2, 0, 1, 4, 9):
            for stop in (None, -7, -1, 0, 2, 5, 9):
                for step in (None, 1, 2, -1, -3):
                    key = slice(start, stop, step)
                    assert block[key] == rows[key]
                    assert type(block[key]) is list
        with pytest.raises(ValueError):
            block[::0]

    def test_empty_block_equals_empty_list(self):
        block = load_aero(io.StringIO(aero_text([])), 0)
        assert block == [] and len(block) == 0 and list(block) == []
        assert block.dropped == 0

    def test_columns_are_read_only(self):
        block = sample_block()
        for column in (block.lat_deg, block.lon_deg, block.type, block.demand_mbps):
            with pytest.raises(ValueError):
                column[0] = 0
        with pytest.raises(TypeError):
            hash(block)

    def test_of_and_concat(self):
        block = sample_block()
        assert TerminalBlock.of(block) is block
        again = TerminalBlock.of(list(block))
        assert_same_terminals(again, oracles.TerminalList(list(block)))
        fss = Terminal("x", GeoPoint(1.0, 2.0), TrafficType.FSS, 2.5)
        both = TerminalBlock.concat(block, (), [fss])
        assert list(both) == [*block, fss]
        assert both.type.tolist() == [2, 2, 1]
        assert np.array_equal(both.demand_mbps, [10.0, 10.0, 2.5])

    def test_concat_holds_one_copy_of_the_columns(self):
        # the joined columns go to the block uncopied: beyond them concat
        # holds the ids (a list and a tuple of references, ~17 bytes a row)
        # and the location check's temporaries, where a second copy of the
        # columns would add 32 bytes a row
        n = 50_000
        rng = np.random.default_rng(3)
        parts = [
            TerminalBlock([f"t{i}" for i in range(n)], rng.uniform(-80, 80, n),
                          rng.uniform(-170, 170, n), np.full(n, 2), np.ones(n))
            for _ in range(2)
        ]
        tracemalloc.start()
        try:
            both = TerminalBlock.concat(*parts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        columns = (both.lat_deg, both.lon_deg, both.type, both.demand_mbps)
        assert peak < 2 * sum(column.nbytes for column in columns)
        assert np.array_equal(both.lon_deg[n:], parts[1].lon_deg)

    def test_dropped_counts_kept(self):
        text = aero_text(["a,2026-01-15T09:00:00Z,nan,10", "b,2026-01-15T09:00:00Z,10,10"])
        block = load_aero(io.StringIO(text), 9)
        assert (block.dropped_bad_coords, block.dropped_out_of_box, block.dropped) == (1, 1, 2)

    def test_longitudes_wrap_as_a_geopoints_do(self):
        block = TerminalBlock(["a", "b"], [52.0, 52.0], [365.0, -180.0], [1, 1], [2.0, 2.0])
        assert block.lon_deg.tolist() == [5.0, -180.0]
        assert not block.lon_deg.flags.writeable
        assert block[0].location.lon_deg == 5.0 and block == list(block)
        lon = np.array([5.0, -180.0])
        lon.setflags(write=False)
        kept = TerminalBlock(["a", "b"], [52.0, 52.0], lon, [1, 1], [2.0, 2.0])
        assert kept.lon_deg is lon  # nothing to wrap: handed over uncopied

    def test_column_length_checked(self):
        with pytest.raises(ValueError, match="lon_deg"):
            TerminalBlock(["a"], [1.0], [], [1], [2.0])

    @pytest.mark.parametrize("lat, lon, message", [
        (95.0, 1.0, r"^lat_deg 95.0 outside \[-90, 90\]$"),
        (math.nan, 1.0, "^lat_deg must be a finite number, got nan$"),
        (1.0, -math.inf, "^lon_deg must be a finite number, got -inf$"),
    ])
    def test_locations_checked_as_geopoint_does(self, lat, lon, message):
        with pytest.raises(ValueError, match=message):
            TerminalBlock(["a", "b"], [1.0, lat], [1.0, lon], [1, 1], [2.0, 2.0])
