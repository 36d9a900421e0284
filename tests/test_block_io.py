"""Block-formatted writers and the loadtxt pattern parse against their oracles.

Every CSV writer formats a block of columns at a time, and parse_pattern
tries one np.loadtxt pass before the line parser. The row writers in
oracles.py and the line parser (_parse_rows) are the references: the bytes
written, the parsed arrays bit for bit, and the type and message of every
exception must agree.
"""

import io
import math
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from sattraffic import ioutil
from sattraffic.analysis import (
    BeamClassification,
    HourlyProfile,
    SweepResult,
    write_beam_class_csv,
    write_interference_csv,
    write_profile_csv,
)
from sattraffic.errors import ParseError, SchemaError
from sattraffic.geometry import Polygon
from sattraffic.linkbudget import ChannelMatrix, _magnitude_phase, write_channel_csv
from sattraffic.pattern import (
    PATTERN_HEADER,
    BeamFootprint,
    BeamPattern,
    _load_rows,
    _parse_rows,
    parse_pattern,
    write_borders_csv,
    write_pattern,
)
from sattraffic.traffic import TrafficMatrix, write_traffic_csv


@contextmanager
def block_rows(n):
    saved = ioutil.BLOCK_ROWS
    ioutil.BLOCK_ROWS = n
    try:
        yield
    finally:
        ioutil.BLOCK_ROWS = saved


def written(write, obj, path):
    """The bytes write(obj, path) leaves, or its exception type and message."""
    try:
        write(obj, path)
    except Exception as exc:
        return type(exc), str(exc)
    return path.read_bytes()


def assert_same_bytes(new, old, obj, root, block=None):
    with block_rows(block or ioutil.BLOCK_ROWS):
        got = written(new, obj, root / "new.csv")
    assert got == written(old, obj, root / "old.csv")


def overflows(z):
    try:
        abs(z)
    except OverflowError:
        return True
    return False


def near_boundary(digits, exp, ulps, negative):
    """A float ulps steps from a value halfway between two 9-digit decimals."""
    x = float(f"{digits}5e{exp}")
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return -x if negative else x


EXTREMES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.2250738585072014e-308,
            1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308]
FINITE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from(EXTREMES),
    st.builds(near_boundary, st.integers(10**8, 10**9 - 1), st.integers(-320, 298),
              st.integers(-2, 2), st.booleans()),
)
NON_FINITE = st.sampled_from([math.nan, -math.nan, math.inf, -math.inf])
VALUES = st.one_of(FINITE, FINITE, FINITE, NON_FINITE)
BLOCKS = st.sampled_from([1, 2, 3, 7, 1 << 14])


@pytest.fixture(scope="module")
def root(tmp_path_factory):
    return tmp_path_factory.mktemp("block_io")


class TestFormatRows:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(-2**63, 2**63 - 1), VALUES, VALUES),
                    max_size=12))
    def test_matches_fmt_float_rows(self, rows):
        ints = np.array([r[0] for r in rows], dtype=np.int64)
        a = np.array([r[1] for r in rows], dtype=float)
        b = np.array([r[2] for r in rows], dtype=float)
        try:
            expected = "".join(
                f"{i},{ioutil.fmt_float(x)},{ioutil.fmt_float(y)}\n" for i, x, y in rows
            )
        except ValueError as exc:
            with pytest.raises(ValueError) as info:
                ioutil.format_rows((ints, a, b))
            assert str(info.value) == str(exc)
        else:
            assert ioutil.format_rows((ints, a, b)) == expected

    def test_strings_print_as_is(self):
        assert ioutil.format_rows(([1, 2], ["hot", "%d"])) == "1,hot\n2,%d\n"


class TestWriters:
    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(1, 3), BLOCKS)
    def test_traffic(self, root, data, beams, block):
        n = data.draw(st.integers(0, 12))
        T = TrafficMatrix(
            beam=data.draw(st.lists(st.integers(1, beams), min_size=n, max_size=n)),
            lat_deg=data.draw(st.lists(VALUES, min_size=n, max_size=n)),
            lon_deg=data.draw(st.lists(VALUES, min_size=n, max_size=n)),
            type=data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
            demand_mbps=data.draw(st.lists(
                st.one_of(FINITE.map(abs), st.just(math.inf)), min_size=n, max_size=n)),
            beams=beams,
            excluded=0,
        )
        assert_same_bytes(write_traffic_csv, oracles.write_traffic_csv, T, root, block)

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(1, 4), BLOCKS)
    def test_channel(self, root, data, beams, block):
        users = data.draw(st.integers(0, 5))
        parts = data.draw(st.lists(st.tuples(VALUES, VALUES),
                                   min_size=users * beams, max_size=users * beams))
        assume(not any(overflows(complex(*part)) for part in parts))
        entries = np.array([complex(re, im) for re, im in parts],
                           dtype=complex).reshape(users, beams)
        zeros = np.zeros(users)
        H = ChannelMatrix(entries=entries, serving=np.ones(users, dtype=np.int64),
                          distance_m=zeros, path_loss_db=zeros,
                          interp_gain_db=zeros, nearest_sample=zeros)
        assert_same_bytes(write_channel_csv, oracles.write_channel_csv, H, root, block)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 2), st.lists(FINITE.map(abs), min_size=1, max_size=6),
           st.randoms(use_true_random=False), BLOCKS)
    def test_profile(self, root, beams, pool, rnd, block):
        demand = np.array([rnd.choice(pool) for _ in range(beams * 72)])
        profile = HourlyProfile(demand_mbps=demand.reshape(beams, 24, 3))
        assert_same_bytes(write_profile_csv, oracles.write_profile_csv, profile, root,
                          block)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 9), st.sampled_from(["hot", "warm", "cold"]),
                              VALUES), max_size=8), BLOCKS)
    def test_beam_class(self, root, rows, block):
        classes = [BeamClassification(*row) for row in rows]
        assert_same_bytes(write_beam_class_csv, oracles.write_beam_class_csv, classes,
                          root, block)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.lists(st.integers(1, 10**6), max_size=4, unique=True),
           st.lists(st.integers(1, 40), min_size=1, max_size=4), BLOCKS)
    def test_interference(self, root, data, users, sizes, block):
        n = len(users) * len(sizes)
        watts = data.draw(st.lists(VALUES, min_size=n, max_size=n))
        sweep = SweepResult(users=tuple(users), sizes=tuple(sizes),
                            watts=np.array(watts).reshape(len(users), len(sizes)))
        assert_same_bytes(write_interference_csv, oracles.write_interference_csv, sweep,
                          root, block)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.lists(st.tuples(FINITE, FINITE), min_size=3, max_size=6),
                    max_size=3), BLOCKS)
    def test_borders(self, root, borders, block):
        for verts in borders:
            assume(all(v != verts[i - 1] for i, v in enumerate(verts)))
        footprints = [
            BeamFootprint(beam_id=i, border=Polygon(tuple(verts)), peak_gain_db=0.0)
            for i, verts in enumerate(borders, start=1)
        ]
        assert_same_bytes(write_borders_csv, oracles.write_borders_csv, footprints, root,
                          block)

    @settings(max_examples=100, deadline=None)
    @given(st.data(), st.integers(1, 3), st.integers(1, 5), BLOCKS)
    def test_pattern(self, root, data, beams, samples, block):
        lat = data.draw(st.lists(st.floats(-90, 90), min_size=samples, max_size=samples))
        lon = data.draw(st.lists(FINITE, min_size=samples, max_size=samples))
        cells = st.lists(FINITE, min_size=samples * beams, max_size=samples * beams)
        gain = np.array(data.draw(cells)).reshape(samples, beams)
        phase = np.array(data.draw(cells)).reshape(samples, beams)
        pattern = BeamPattern(lat, lon, gain, phase)
        assert_same_bytes(write_pattern, oracles.write_pattern, pattern, root, block)

    def test_magnitude_overflow_is_non_finite(self, root):
        # abs(complex) raised OverflowError here; the block writer reports the
        # overflowed magnitude like any other non-finite value
        H = ChannelMatrix(entries=[[1.0, 1e308 + 1.7e308j]], serving=[1],
                          distance_m=[0.0], path_loss_db=[0.0], interp_gain_db=[0.0],
                          nearest_sample=[0])
        assert written(oracles.write_channel_csv, H, root / "old.csv") == (
            OverflowError, "absolute value too large")
        assert written(write_channel_csv, H, root / "new.csv") == (
            ValueError, "non-finite value in output: inf")

    def test_nan_entry_is_non_finite(self, root):
        H = ChannelMatrix(entries=[[2.0 + 5e-324j], [complex(0.0, math.nan)]],
                          serving=[1, 1], distance_m=[0.0, 0.0],
                          path_loss_db=[0.0, 0.0], interp_gain_db=[0.0, 0.0],
                          nearest_sample=[0, 0])
        assert written(write_channel_csv, H, root / "new.csv") == (
            ValueError, "non-finite value in output: nan")

    def test_more_rows_than_one_block(self, root):
        n = ioutil.BLOCK_ROWS + 1234
        rng = np.random.default_rng(5)
        T = TrafficMatrix(
            beam=rng.integers(1, 4, n), lat_deg=rng.normal(0, 30, n),
            lon_deg=rng.normal(0, 1e-300, n), type=rng.integers(1, 4, n),
            demand_mbps=np.abs(rng.normal(0, 1e5, n)), beams=3, excluded=0,
        )
        assert_same_bytes(write_traffic_csv, oracles.write_traffic_csv, T, root)
        entries = rng.normal(size=(n // 3, 3)) + 1j * rng.normal(size=(n // 3, 3))
        zeros = np.zeros(n // 3)
        H = ChannelMatrix(entries=entries, serving=np.ones(n // 3, dtype=np.int64),
                          distance_m=zeros, path_loss_db=zeros,
                          interp_gain_db=zeros, nearest_sample=zeros)
        assert_same_bytes(write_channel_csv, oracles.write_channel_csv, H, root)


def test_magnitude_and_phase_are_bitwise_python_scalars():
    rng = np.random.default_rng(7)
    n = 200_000
    magnitude = 10.0 ** rng.uniform(-8, 8, n)
    angle = rng.uniform(-math.pi, math.pi, n)
    z = magnitude * np.exp(1j * angle)
    axes = [complex(re, im) for re in (0.0, -0.0, 1.0, -1.0, 1e-300)
            for im in (0.0, -0.0, 1.0, -1.0, -1e-300)]
    z = np.concatenate([z, axes])
    got_mag, got_phase = _magnitude_phase(z)
    want_mag = np.array([abs(v) for v in z.tolist()])
    want_phase = np.array([oracles.entry_phase(v) for v in z.tolist()])
    assert np.array_equal(got_mag.view(np.int64), want_mag.view(np.int64))
    assert np.array_equal(got_phase.view(np.int64), want_phase.view(np.int64))


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(
    st.sampled_from('"\\\x00\x08\x1f\x7f\n\té€\U0001f600a'), st.characters()
)))
def test_escape_fast_path_matches_loop(text):
    assert ioutil._escape(text) == oracles.escape(text)


# -- pattern parse -------------------------------------------------------------


def parse_oracle(text):
    fh = io.StringIO(text, newline="")
    if fh.readline().rstrip("\r\n") != PATTERN_HEADER:
        raise ParseError(f"expected header {PATTERN_HEADER!r}", 1, None)
    return _parse_rows(list(fh), None)


def parsed(parse, text):
    """The pattern arrays as bytes, or the exception type and message."""
    try:
        p = parse(text)
    except Exception as exc:
        return type(exc), str(exc)
    return tuple((a.shape, a.tobytes()) for a in (p.lat_deg, p.lon_deg, p.gain_db,
                                                   p.phase_rad))


def assert_same_parse(text):
    got = parsed(lambda t: parse_pattern(io.StringIO(t, newline="")), text)
    assert got == parsed(parse_oracle, text)
    return got


def fast_path_taken(text):
    fh = io.StringIO(text, newline="")
    if fh.readline().rstrip("\r\n") != PATTERN_HEADER:
        return False
    return _load_rows(list(fh)) is not None


HEADER = PATTERN_HEADER + "\n"
GRID = ["1,50.5,4,-1.5,0.25", "1,50.5,4.5,-3,6.5", "2,50.5,4,-2,0",
        "2,50.5,4.5,-1e-3,-0.5"]


def body(rows, end="\n"):
    return HEADER + "".join(row + end for row in rows)


def with_beam(row, text):
    return text + row[row.index(","):]


def with_field(row, k, text):
    fields = row.split(",")
    fields[k] = text
    return ",".join(fields)


NAMED = {
    "lf": (body(GRID), True),
    "crlf": (body(GRID, "\r\n"), True),
    "lone_cr": (body(GRID, "\r"), True),
    "no_final_newline": (body(GRID)[:-1], True),
    "trailing_blank_lines": (body(GRID) + "\n\r\n\n", True),
    "blank_line_between": (body(GRID[:2]) + "\n" + body(GRID[2:])[len(HEADER):], True),
    "whitespace_only_line": (body(GRID[:2]) + "  \t\n" + body(GRID[2:])[len(HEADER):],
                             False),
    "trailing_whitespace_line": (body(GRID) + " \n", False),
    "tab_and_space_padding": (body([with_field(r, 2, f" \t{r.split(',')[2]}\t ")
                                    for r in GRID]), True),
    "signed_zero_grid": (body(["1,0.0,-0.0,1,1", "2,-0.0,0.0,1,1"]), True),
    "empty_body": (HEADER, False),
    "empty_body_blank_lines": (HEADER + "\n\r\n", False),
    "bom_header": ("\ufeff" + body(GRID), False),
    "bom_cell": (body([with_field(GRID[0], 3, "\ufeff1")] + GRID[1:]), False),
    "comment_marker": (body(GRID[:3] + [GRID[3] + " # note"]), False),
    "extra_field": (body(GRID[:3] + [GRID[3] + ","]), False),
    "missing_field": (body(GRID[:3] + ["2,50.5,4.5,-1e-3"]), False),
    "unequal_counts": (body(GRID[:3]), False),
    "ungrouped": (body([GRID[0], GRID[2], GRID[1], GRID[3]]), False),
    "grid_differs": (body(GRID[:3] + [with_field(GRID[3], 2, "4.25")]), False),
    "beam_0_first": (body(["0,50.5,4,-1.5,0.25"]), False),
    "beam_ids_not_from_1": (body(["2,50.5,4,-1.5,0.25", "2,50.5,4,-2,0"]), False),
    "latitude_out_of_range": (body([with_field(r, 1, "90.5") for r in GRID]), False),
}
for name, beam_text, fast in [
    ("1.0", "1.0", False), ("1e0", "1e0", False), ("+1", "+1", True),
    ("01", "01", True), ("space_1", " 1", True), ("True", "True", False),
    ("huge", "99999999999999999999", False), ("arabic_digit", "\u0661", False),
]:
    NAMED[f"beam_{name}"] = (body([with_beam(GRID[0], beam_text), GRID[1]]), fast)
# loadtxt reads U+01FE alone in an integer column as 462; int() refuses it
NAMED["beam_462_as_u01fe"] = (
    body([f"{b},0,0,0,0" for b in range(1, 462)] + ["\u01fe,0,0,0,0"]), False)
for name, value in [("1_0", "1_0"), ("nan", "nan"), ("inf", "inf"),
                    ("infinity", "-infinity"), ("1e400", "1e400"), ("empty", ""),
                    ("hex", "0x1p3"),
                    # loadtxt strips \x1c as whitespace; float() refuses it
                    ("file_separator", "3\x1c")]:
    NAMED[f"value_{name}"] = (body([with_field(GRID[0], 3, value)] + GRID[1:]), False)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_parse_cases(name):
    text, fast = NAMED[name]
    assert_same_parse(text)
    assert fast_path_taken(text) == fast


def test_leading_beam_0_is_a_schema_error():
    # the line parser used to index an empty beam list here (IndexError)
    with pytest.raises(SchemaError, match="saw beam 0 on line 2 after beam 0"):
        parse_pattern(io.StringIO(NAMED["beam_0_first"][0], newline=""))


def test_file_and_non_seekable_stream(tmp_path):
    text = NAMED["crlf"][0]
    path = tmp_path / "pattern.csv"
    path.write_bytes(text.encode("utf-8"))
    want = parsed(parse_oracle, text)
    assert parsed(parse_pattern, path) == want

    class OneWay(io.RawIOBase):
        def __init__(self, data):
            self._data = io.BytesIO(data)

        def readable(self):
            return True

        def seekable(self):
            return False

        def readinto(self, buf):
            return self._data.readinto(buf)

    stream = io.TextIOWrapper(io.BufferedReader(OneWay(text.encode())),
                              encoding="utf-8", newline="")
    assert parsed(parse_pattern, stream) == want


def test_written_pattern_takes_fast_path(tmp_path):
    rng = np.random.default_rng(3)
    lat, lon = np.meshgrid(np.arange(40.0, 41.0, 0.1), np.arange(-0.3, 0.3, 0.1))
    gain = rng.normal(40, 5, (lat.size, 4))
    pattern = BeamPattern(lat.ravel(), lon.ravel(), gain, rng.uniform(-7, 7, gain.shape))
    write_pattern(pattern, tmp_path / "p.csv")
    text = (tmp_path / "p.csv").read_text()
    assert fast_path_taken(text)
    assert assert_same_parse(text)[2][0] == (lat.size, 4)


LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])
VALID_BEAM = st.sampled_from(["{b}", "{b}", "{b}", "+{b}", "0{b}", " {b}", "{b}\t"])
ODD_BEAM = st.sampled_from(["{b}.0", "{b}e0", "True", "99999999999999999999", "{c}", "-{b}",
                            "0", "1_{b}", "\u0661"])
ODD_VALUES = st.sampled_from(["1_0", "nan", "inf", "infinity", "-inf", "1e400", "", " ",
                              "0x1p3", "\u0661", "1.5e", "\ufeff1", "1\x00", "\x0c2",
                              "2\x0b", "3\x1c", "4 ", "5\x85", "+.5", "-0", "5.",
                              "1e-400", "7 # c"])
SPACE = st.sampled_from(["", "", "", " ", "\t", " \t "])


@st.composite
def value_text(draw, value):
    """A text that reads as value, or now and then a text that may not."""
    if draw(st.integers(0, 60)) == 0:
        return draw(ODD_VALUES)
    form = draw(st.sampled_from([repr, lambda v: f"{v:.17e}", lambda v: f"{v:.3g}"]))
    return draw(SPACE) + form(value) + draw(SPACE)


@st.composite
def pattern_text(draw):
    beams = draw(st.integers(1, 3))
    samples = draw(st.integers(1, 3))
    lats = st.one_of(*[st.floats(-90, 90)] * 8, st.sampled_from([-0.0, 90.0, 90.5]))
    grid = [(draw(lats), draw(FINITE)) for _ in range(samples)]
    rows = []
    for b in range(1, beams + 1):
        for lat, lon in grid:
            odd = draw(st.integers(0, 40)) == 0
            beam = draw(ODD_BEAM if odd else VALID_BEAM).format(b=b, c=b + 1)
            cells = [draw(value_text(lat)), draw(value_text(lon)),
                     draw(value_text(draw(FINITE))), draw(value_text(draw(FINITE)))]
            rows.append(",".join([beam, *cells]))
    if len(rows) > 1 and draw(st.integers(0, 5)) == 0:
        del rows[draw(st.integers(0, len(rows) - 1))]
    lines = []
    for row in rows:
        while draw(st.integers(0, 8)) == 0:
            lines.append(draw(st.sampled_from(["", "", "", " ", "\t", "\x0c"]))
                         + draw(LINE_ENDS))
        lines.append(row + draw(LINE_ENDS))
    if lines and draw(st.booleans()):
        lines[-1] = lines[-1].rstrip("\r\n")
    bom = draw(st.integers(0, 20)) == 0
    header = "\ufeff" * bom + PATTERN_HEADER
    return header + draw(LINE_ENDS) + "".join(lines)


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.large_base_example])
@given(pattern_text())
def test_parse_matches_line_parser(text):
    assert_same_parse(text)
