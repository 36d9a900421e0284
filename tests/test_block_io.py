"""Block-formatted writers and the chunked pattern parse against their oracles.

Every CSV writer formats a block of columns at a time, and parse_pattern
reads the body a chunk of ioutil.CHUNK_LINES lines at a time (a piece, in
the test names), through np.loadtxt or, for a chunk it cannot take, the
line parser. The row writers and the whole-file line parser (_parse_rows)
in oracles.py are the references: the bytes written, the parsed arrays bit
for bit, and the type and message of every exception must agree, whatever
the block and chunk sizes.
"""

import io
import math
import tracemalloc
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import oracles
from sattraffic import ioutil
from sattraffic import pattern as pattern_module
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
from sattraffic.ioutil import read_chunks
from sattraffic.ingest import synth_pattern
from sattraffic.linkbudget import (
    ChannelMatrix,
    _magnitude_phase,
    channel_summary,
    write_channel_csv,
)
from sattraffic.pattern import (
    PATTERN_HEADER,
    BeamFootprint,
    BeamPattern,
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


def channel(rows, location=None):
    """A channel matrix of the given rows with zero diagnostics.

    location gives each user's row; by default user n has row n-1.
    """
    rows = np.asarray(rows, dtype=complex)
    if location is None:
        location = np.arange(len(rows))
    zeros = np.zeros(len(location))
    return ChannelMatrix(rows=rows, location=location,
                         serving=np.ones(len(location), dtype=np.int64),
                         distance_m=zeros, path_loss_db=zeros, interp_gain_db=zeros,
                         nearest_sample=zeros)


def summary_matrix(distance_m, path_loss_db, interp_gain_db):
    """A channel matrix of one location whose users have these diagnostics."""
    users = len(distance_m)
    return ChannelMatrix(rows=np.zeros((1, 2)), location=np.zeros(users, dtype=int),
                         serving=np.ones(users, dtype=np.int64),
                         distance_m=distance_m, path_loss_db=path_loss_db,
                         interp_gain_db=interp_gain_db, nearest_sample=np.zeros(users))


def assert_same_summary(H, excluded, root, block):
    """channel_summary writes canonical_json's text of the oracle's summary
    and a line end, or raises the ValueError that canonical_json raises."""
    path = root / "channel_summary.json"
    try:
        want = ioutil.canonical_json(
            oracles.channel_summary(H) | {"excluded_terminals": excluded}
        ) + "\n"
    except ValueError as exc:
        with block_rows(block), pytest.raises(ValueError) as info:
            channel_summary(H, excluded, path)
        assert str(info.value) == str(exc)
    else:
        with block_rows(block):
            channel_summary(H, excluded, path)
        assert path.read_bytes() == want.encode("utf-8")


def overflows(z):
    """Whether abs(z) overflows, read through oracles.magnitude: a bare
    abs(z) with a NaN part raises OverflowError or not by the errno an
    earlier call left, so a draw filtered on it may not replay."""
    try:
        oracles.magnitude(z)
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
BLOCKS = st.sampled_from([1, 2, 3, 7, 1 << 12, 1 << 14])
# the (real, imag) parts of a channel entry whose abs() does not overflow; the
# filter is in the strategy, so that a failing draw replays without an assume
ENTRY = st.tuples(VALUES, VALUES).filter(lambda part: not overflows(complex(*part)))
# the latitudes a traffic matrix holds
LATITUDES = st.one_of(FINITE.map(lambda v: math.fmod(v, 90.0)), st.sampled_from([-90.0, 90.0]))


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
            lat_deg=data.draw(st.lists(LATITUDES, min_size=n, max_size=n)),
            lon_deg=data.draw(st.lists(FINITE, min_size=n, max_size=n)),
            type=data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n)),
            demand_mbps=data.draw(st.lists(FINITE.map(abs), min_size=n, max_size=n)),
            beams=beams,
            excluded=0,
        )
        assert_same_bytes(write_traffic_csv, oracles.write_traffic_csv, T, root, block)

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(1, 4), BLOCKS)
    def test_channel(self, root, data, beams, block):
        users = data.draw(st.integers(0, 5))
        parts = data.draw(st.lists(ENTRY, min_size=users * beams, max_size=users * beams))
        entries = np.array([complex(re, im) for re, im in parts],
                           dtype=complex).reshape(users, beams)
        assert_same_bytes(write_channel_csv, oracles.write_channel_csv, channel(entries),
                          root, block)

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(1, 4), BLOCKS)
    def test_channel_shared_rows(self, root, data, beams, block):
        # users at a few locations repeat locations inside a block of users and
        # across block boundaries; a repeated row gives two distinct locations
        # with the same bits
        row = st.lists(ENTRY, min_size=beams, max_size=beams)
        pool = data.draw(st.lists(row, min_size=1, max_size=3))
        if data.draw(st.booleans()):
            pool.append(pool[0])
        picks = data.draw(st.lists(st.integers(0, len(pool) - 1), max_size=12))
        rows = np.array([[complex(re, im) for re, im in r] for r in pool],
                        dtype=complex).reshape(len(pool), beams)
        assert_same_bytes(write_channel_csv, oracles.write_channel_csv,
                          channel(rows, picks), root, block)

    @pytest.mark.parametrize("block", [1, 2, 5, 1 << 12, 1 << 14])
    def test_channel_signed_zeros(self, root, block):
        zeros = [0.0, -0.0, complex(0.0, -0.0), complex(-0.0, 0.0), complex(-0.0, -0.0)]
        rows = [[a, b] for a in zeros for b in zeros[:2]]
        # locations 10..19 hold the bits of 9..0, and 0..9 repeat
        location = [*range(10), *range(10, 20), *range(10)]
        assert_same_bytes(write_channel_csv, oracles.write_channel_csv,
                          channel(rows + rows[::-1], location), root, block)

    @pytest.mark.parametrize("first,later", [(math.inf, math.nan), (math.nan, math.inf)])
    @pytest.mark.parametrize("block", [2, 6, 9, 1 << 12, 1 << 14])
    def test_channel_first_non_finite_raises(self, root, first, later, block):
        # the first bad value in user order raises, though the later one's
        # location comes first in rows
        good = [1.0 + 2.0j, 3.0 - 1.0j, -0.5j]
        earlier = [1.0, complex(first, 1.0), 2.0]
        rows = [[1.0, 2.0, complex(0.0, later)], good, earlier]
        want = (ValueError, f"non-finite value in output: {first!r}")
        H = channel(rows, [1, 2, 1, 0, 2])
        with block_rows(block):
            assert written(write_channel_csv, H, root / "new.csv") == want
        assert written(oracles.write_channel_csv, H, root / "old.csv") == want

    @pytest.mark.parametrize("users,beams", [(0, 1), (0, 3), (1, 1), (6, 1)])
    def test_channel_zero_users_and_one_beam(self, root, users, beams):
        entries = (np.arange(users * beams) % 2 + 0.5j).reshape(users, beams)
        assert_same_bytes(write_channel_csv, oracles.write_channel_csv,
                          channel(entries), root, 2)

    @settings(max_examples=120, deadline=None)
    @given(st.data(), st.integers(0, 5), st.integers(0, 10**6),
           st.sampled_from([6, 12, 18, 1 << 12, 1 << 14]))
    def test_channel_summary(self, root, data, users, excluded, block):
        # a block of 6, 12 or 18 lines of text holds 1, 2 or 3 users
        columns = [np.array(data.draw(st.lists(VALUES, min_size=users, max_size=users)))
                   for _ in range(3)]
        assert_same_summary(summary_matrix(*columns), excluded, root, block)

    @pytest.mark.parametrize("block", [6, 12, 1 << 12, 1 << 14])
    def test_channel_summary_zero_users(self, root, block):
        assert_same_summary(summary_matrix([], [], []), 7, root, block)

    @pytest.mark.parametrize("block", [6, 12, 1 << 12, 1 << 14])
    def test_channel_summary_non_finite_in_a_later_block(self, root, block):
        # 2,000 users cross blocks of 682 users at 1 << 12 lines; the first bad
        # value in user order is user 1,500's path loss, not user 1,900's
        # distance, which a scan of one column after another would find first
        rng = np.random.default_rng(3)
        columns = [rng.normal(0.0, 1e3, 2000) for _ in range(3)]
        columns[1][1499] = math.nan
        columns[0][1899] = -math.inf
        H = summary_matrix(*columns)
        with pytest.raises(ValueError, match="non-finite value in output: nan"):
            ioutil.canonical_json(oracles.channel_summary(H))
        assert_same_summary(H, 0, root, block)

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
        H = channel([[1.0, 1e308 + 1.7e308j]])
        assert written(oracles.write_channel_csv, H, root / "old.csv") == (
            OverflowError, "absolute value too large")
        assert written(write_channel_csv, H, root / "new.csv") == (
            ValueError, "non-finite value in output: inf")

    def test_nan_entry_is_non_finite(self, root):
        H = channel([[2.0 + 5e-324j], [complex(0.0, math.nan)]])
        assert written(write_channel_csv, H, root / "new.csv") == (
            ValueError, "non-finite value in output: nan")

    def test_more_rows_than_one_block(self, root):
        n = ioutil.BLOCK_ROWS + 1234
        rng = np.random.default_rng(5)
        T = TrafficMatrix(
            beam=rng.integers(1, 4, n), lat_deg=np.clip(rng.normal(0, 30, n), -90, 90),
            lon_deg=rng.normal(0, 1e-300, n), type=rng.integers(1, 4, n),
            demand_mbps=np.abs(rng.normal(0, 1e5, n)), beams=3, excluded=0,
        )
        assert_same_bytes(write_traffic_csv, oracles.write_traffic_csv, T, root)
        entries = rng.normal(size=(n // 3, 3)) + 1j * rng.normal(size=(n // 3, 3))
        assert_same_bytes(write_channel_csv, oracles.write_channel_csv, channel(entries),
                          root)


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


# phases a few ulps either side of values halfway between two 9-digit
# decimals, so that entries of one row differ in the last bits and some of
# them print differently
HALFWAY_PHASES = [1.234567885, 0.01234567885, 2.345678915, -0.5, 3.0]


def ulps_from(x, k):
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def phase_rows(rng, rows, beams):
    """rows distinct channel rows, each entry at its row's phase plus -2..2 ulps."""
    theta = np.array([[ulps_from(HALFWAY_PHASES[r % len(HALFWAY_PHASES)],
                                 int(rng.integers(-2, 3))) for _ in range(beams)]
                      for r in range(rows)])
    return 10.0 ** rng.uniform(-6, 3, (rows, beams)) * np.exp(1j * theta)


def set_entry(rows, location, user, beam, value):
    """Give user (0-based) a location of its own whose row has value at beam."""
    row = rows[location[user]].copy()
    row[beam] = value
    location[user] = len(rows)
    return np.vstack([rows, row[None, :]])


@pytest.mark.parametrize("bad", [None, "earlier", "later"])
@pytest.mark.parametrize("block", [1, 2, 3, 7, 1 << 12, 1 << 14])
@pytest.mark.parametrize("beams", [1, 12])
def test_channel_rows_share_phases_and_fill_user_numbers(root, beams, block, bad):
    # 1005 users cross 9/10, 99/100 and 999/1000, in one block at 1 << 14;
    # locations 9 and 10 hold the bits of 0 and 1
    rng = np.random.default_rng(beams * 100 + block)
    pool = phase_rows(rng, 9, beams)
    rows = np.vstack([pool, pool[:2]])
    location = rng.integers(0, len(rows), 1005)
    _, phase = _magnitude_phase(pool.ravel())
    phase = phase.reshape(pool.shape)
    # the cases the test is about: a row whose phases differ in the last bits,
    # and phases repeated across rows
    assert beams == 1 or any(len(set(row.tolist())) > 1 for row in phase)
    assert len(np.unique(phase)) < phase.size
    if bad == "earlier":
        rows = set_entry(rows, location, 4, beams - 1, complex(math.nan, 1.0))
        rows = set_entry(rows, location, 999, 0, math.inf)
    elif bad == "later":
        rows = set_entry(rows, location, 999, beams // 2, complex(1.0, math.inf))
    H = channel(rows, location)
    assert_same_bytes(write_channel_csv, oracles.write_channel_csv, H, root, block)
    if bad is None:
        with block_rows(block):
            text = written(write_channel_csv, H, root / "new.csv")
        assert text.count(b"\n1000,") == beams


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet=st.one_of(
    st.sampled_from('"\\\x00\x08\x1f\x7f\n\té€\U0001f600a'), st.characters()
)))
def test_escape_fast_path_matches_loop(text):
    assert ioutil._escape(text) == oracles.escape(text)


# -- pattern parse -------------------------------------------------------------


def parse_oracle(text, path=None):
    fh = io.StringIO(text, newline="")
    if fh.readline().rstrip("\r\n") != PATTERN_HEADER:
        raise ParseError(f"expected header {PATTERN_HEADER!r}", 1, path)
    return oracles._parse_rows(list(fh), path)


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
    """Whether parse_pattern read at least one chunk, and np.loadtxt gave the
    rows of every chunk it read."""
    taken = []
    load = pattern_module._load_lines

    def spy(lines, last):
        rows = load(lines, last)
        taken.append(rows is not None)
        return rows

    with mock.patch.object(pattern_module, "_load_lines", spy):
        try:
            parse_pattern(io.StringIO(text, newline=""))
        except (ParseError, SchemaError):
            pass
    return bool(taken) and all(taken)


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


# whether parse_pattern's loadtxt path reads every chunk: a count or grid
# defect is found as the per-beam columns fill, after the chunk went through
# loadtxt
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
    "empty_body_blank_lines": (HEADER + "\n\r\n", True),
    "bom_header": ("\ufeff" + body(GRID), False),
    "bom_cell": (body([with_field(GRID[0], 3, "\ufeff1")] + GRID[1:]), False),
    "comment_marker": (body(GRID[:3] + [GRID[3] + " # note"]), False),
    "extra_field": (body(GRID[:3] + [GRID[3] + ","]), False),
    "missing_field": (body(GRID[:3] + ["2,50.5,4.5,-1e-3"]), False),
    "unequal_counts": (body(GRID[:3]), True),
    "ungrouped": (body([GRID[0], GRID[2], GRID[1], GRID[3]]), False),
    "grid_differs": (body(GRID[:3] + [with_field(GRID[3], 2, "4.25")]), True),
    # the first beam with either defect names the error
    "grid_differs_before_short_beam": (
        body(GRID[:3] + [with_field(GRID[3], 2, "4.25")] + ["3,50.5,4,0,0"]), True),
    "short_beam_before_grid_differs": (
        body(GRID[:3] + ["3,50.5,4,0,0", "3,50.5,5,0,0"]), True),
    "long_last_beam": (body(GRID + ["2,50.5,5,0,0"]), True),
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


# lines per chunk: a line per chunk, chunks cut at odd places, and the
# default, one chunk for every body here
CHUNKS = (1, 2, 3, 7, 16, ioutil.CHUNK_LINES)


def chunk_lines(n):
    return mock.patch.object(ioutil, "CHUNK_LINES", n)


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_parse_cases(name):
    text, fast = NAMED[name]
    for n in CHUNKS:
        with chunk_lines(n):
            assert_same_parse(text)
            assert fast_path_taken(text) == fast


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="ab,\r\n", max_size=40), st.integers(1, 12))
def test_read_chunks_keep_the_lines(text, n):
    # the lines end in "\n", "\r\n" or a lone "\r", as a file opened with
    # newline="" splits them
    with chunk_lines(n):
        chunks = list(read_chunks(io.StringIO(text, newline="")))
    lines = list(io.StringIO(text, newline=""))
    assert [first for first, _ in chunks] == list(range(2, len(lines) + 2, n))
    assert all(len(chunk) == n for _, chunk in chunks[:-1])
    assert [line for _, chunk in chunks for line in chunk] == lines


def written_pattern_text(tmp_path, beams=3, samples=400, seed=3):
    rng = np.random.default_rng(seed)
    lat = rng.uniform(-60, 60, samples)
    lon = rng.uniform(-170, 170, samples)
    gain = rng.normal(40, 5, (samples, beams))
    pattern = BeamPattern(lat, lon, gain, rng.uniform(0, 6, gain.shape))
    write_pattern(pattern, tmp_path / "p.csv")
    return (tmp_path / "p.csv").read_text()


def with_line(text, k, line):
    """text with its k-th line (0 is the header) replaced by line."""
    lines = text.split("\n")
    lines[k] = line
    return "\n".join(lines)


@pytest.mark.parametrize("n", [64, 1000])
def test_body_of_many_pieces(tmp_path, n):
    text = written_pattern_text(tmp_path)
    with chunk_lines(n):
        assert len(list(read_chunks(io.StringIO(text)))) > 1
        assert fast_path_taken(text)
        assert assert_same_parse(text)[2][0] == (400, 3)
        for end in ("\r\n", "\r"):
            body = text.replace("\n", end)
            assert fast_path_taken(body)
            assert assert_same_parse(body) == assert_same_parse(text)


# (edit of one row, whether the body then parses, whether loadtxt reads it)
LATER_ROWS = {
    "extra_field": (lambda row: row + ",", False, False),
    "nan": (lambda row: with_field(row, 3, "nan"), False, False),
    "grid_differs": (lambda row: with_field(row, 2, "0.5"), False, True),
    "file_separator": (lambda row: with_field(row, 3, "3\x1c"), False, False),
    "arabic_digit": (lambda row: with_field(row, 3, "\u0661"), True, False),
    "beam_out_of_order": (lambda row: with_beam(row, "1"), False, False),
    "whitespace_line": (lambda row: "  \n" + row, False, False),
    "underscore_digits": (lambda row: with_field(row, 3, "1_0"), True, False),
    "blank_line": (lambda row: "\n" + row, True, True),
}


@pytest.mark.parametrize("name", sorted(LATER_ROWS))
@pytest.mark.parametrize("n", [64, 1000, 1 << 16])
def test_edit_in_a_later_piece(tmp_path, name, n):
    # the edit sits on the 1100th of 1200 rows, in a chunk after the first
    # but at the default size; the line parser names a defect with the type
    # and message it gives alone
    edit, parses, fast = LATER_ROWS[name]
    text = written_pattern_text(tmp_path)
    bad = with_line(text, 1100, edit(text.split("\n")[1100]))
    with chunk_lines(n):
        got = assert_same_parse(bad)
        assert fast_path_taken(bad) == fast
    assert (got[0] in (ParseError, SchemaError)) == (not parses)
    if got[0] is ParseError:
        assert "line 1101" in got[1]


@pytest.mark.parametrize("beam", [0, 1, 4])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 16])
def test_grouping_defect_on_the_first_row_of_a_later_chunk(n, beam):
    # beams 1 and 2 fill the first two chunks, and the third begins with a
    # beam that is neither 2 nor 3; only the beam carried across the chunk
    # boundary shows 0 and 1 to be out of place
    rows = [f"{b},50.5,{k},-1.5,0.25" for b in (1, 2, 3) for k in range(n)]
    rows[2 * n] = with_beam(rows[2 * n], str(beam))
    with chunk_lines(n):
        got = assert_same_parse(body(rows))
    assert got == (SchemaError, "beam ids must be grouped and contiguous from 1: "
                   f"saw beam {beam} on line {2 * n + 2} after beam 2")


def test_crlf_and_lone_cr_at_every_piece_boundary():
    ends = ["\r\n", "\r", "\n", "\r", "\r\n"]
    rows = [f"{b},50.5,{lon},-1.5,0.25" for b in (1, 2) for lon in (4, 4.5)] + ["", ""]
    text = HEADER + "".join(row + ends[i % len(ends)] for i, row in enumerate(rows))
    for n in range(1, len(rows) + 2):
        with chunk_lines(n):
            assert fast_path_taken(text)
            assert_same_parse(text)


def test_piece_of_only_blank_or_whitespace_lines():
    blank = body(GRID[:2]) + "\n\r\n\n\r" + body(GRID[2:])[len(HEADER):]
    spaced = body(GRID[:2]) + "\n \t\n\x0c\n" + body(GRID[2:])[len(HEADER):]
    for n in CHUNKS:
        with chunk_lines(n):
            # loadtxt would warn on a chunk without data, and warnings fail
            assert fast_path_taken(blank)
            assert_same_parse(blank)
            assert not fast_path_taken(spaced)
            assert assert_same_parse(spaced)[0] is ParseError


def test_parse_peak_memory_stays_below_four_times_the_file(tmp_path):
    # the 37-beam, pitch-0.2 pattern of the benchmark's M inputs
    path = tmp_path / "pattern.csv"
    synth_pattern(path, 1, beams=37, spacing_deg=1.5, radius3db_deg=1.0, pitch_deg=0.2)
    size = path.stat().st_size
    tracemalloc.start()
    try:
        pattern = parse_pattern(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pattern.gain_db.shape == (3540, 37)
    assert peak < 4 * size


def test_parse_peak_memory_stays_below_two_and_a_half_times_its_arrays(tmp_path):
    # the M pattern again: each chunk's gain and phase go straight into
    # per-beam columns, and the stacked arrays reach the BeamPattern
    # uncopied, so the parse holds little beyond the arrays it returns
    path = tmp_path / "pattern.csv"
    synth_pattern(path, 1, beams=37, spacing_deg=1.5, radius3db_deg=1.0, pitch_deg=0.2)
    tracemalloc.start()
    try:
        pattern = parse_pattern(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pattern.gain_db.shape == (3540, 37)
    assert peak <= 2.5 * (pattern.gain_db.nbytes + pattern.phase_rad.nbytes)


def stream_rows(samples, beams, counts=(), edits=()):
    """Rows of beams 1..beams over a grid of `samples` points, in order.

    counts maps a beam to another number of rows; rows past the grid's
    length go on with new points. edits maps (beam, row of the beam) to the
    latitude that row gets in place of the grid's."""
    counts, edits = dict(counts), dict(edits)
    return [
        f"{b},{edits.get((b, k), 50 + k % 7 * 0.5)},{4 + k * 0.25},"
        f"{-1.5 * b - k / 8},{0.25 * b + k / 16}"
        for b in range(1, beams + 1) for k in range(counts.get(b, samples))
    ]


# lines per chunk, n; each case builds its rows from n so that the state
# parse_pattern carries from chunk to chunk (beam 1's rows, the beam and
# count of the last row, the first defect) meets a chunk boundary where the
# name says. The outcome is what the oracle gives too: the gain's (samples,
# beams) shape, or the exception type and a part of its message.
STREAM_CASES = {
    "beams_end_on_chunk_ends": lambda n: (stream_rows(n, 3), (n, 3)),
    "beam_1_spans_several_chunks": lambda n: (stream_rows(3 * n + 1, 2), (3 * n + 1, 2)),
    "several_boundaries_in_one_chunk": lambda n: (stream_rows(2, 9), (2, 9)),
    "short_beam_ends_on_a_chunk_end": lambda n: (
        stream_rows(2 * n, 3, counts={2: n}),
        (SchemaError, f"beam 2 has {n} samples, expected {2 * n}")),
    "grid_defect_on_a_chunk_last_line": lambda n: (
        stream_rows(n, 3, edits={(2, n - 1): 49.75}),
        (SchemaError, "beam 2 sample grid differs from beam 1")),
    "grid_defect_after_beam_1_spans_chunks": lambda n: (
        stream_rows(3 * n + 1, 3, edits={(2, 0): 49.75}),
        (SchemaError, "beam 2 sample grid differs from beam 1")),
    "short_beam_among_boundaries_in_one_chunk": lambda n: (
        stream_rows(2, 9, counts={5: 1}),
        (SchemaError, "beam 5 has 1 samples, expected 2")),
    "long_beam_among_boundaries_in_one_chunk": lambda n: (
        stream_rows(2, 9, counts={4: 3}),
        (SchemaError, "beam 4 has 3 samples, expected 2")),
    "grid_defect_past_beam_1_length": lambda n: (
        stream_rows(n + 1, 3, counts={2: n + 3}, edits={(2, n + 2): 49.75}),
        (SchemaError, f"beam 2 has {n + 3} samples, expected {n + 1}")),
    "count_beats_grid_on_the_same_beam": lambda n: (
        stream_rows(n + 1, 3, counts={2: n + 2}, edits={(2, 0): 49.75}),
        (SchemaError, f"beam 2 has {n + 2} samples, expected {n + 1}")),
    "grid_defect_before_a_later_short_beam": lambda n: (
        stream_rows(n + 1, 4, counts={3: n}, edits={(2, n): 49.75}),
        (SchemaError, "beam 2 sample grid differs from beam 1")),
    "line_error_after_a_count_defect": lambda n: (
        stream_rows(n + 1, 3, counts={2: 1})[:-1] + ["3,fifty,4,0,0"],
        (ParseError, "lat_deg 'fifty' is not a number")),
    "grouping_error_after_a_grid_defect": lambda n: (
        stream_rows(n + 1, 3, edits={(2, 0): 49.75}) + ["1,50,4,0,0"],
        (SchemaError, "beam ids must be grouped and contiguous from 1: saw beam 1")),
}


@pytest.mark.parametrize("n", [1, 2, 3, 7, ioutil.CHUNK_LINES])
@pytest.mark.parametrize("name", sorted(STREAM_CASES))
def test_state_carried_between_chunks(name, n):
    rows, outcome = STREAM_CASES[name](n)
    with chunk_lines(n):
        got = assert_same_parse(body(rows))
    if outcome[0] in (ParseError, SchemaError):
        assert got[0] is outcome[0] and outcome[1] in got[1]
    else:
        assert got[2][0] == outcome


class LinesOnly(io.StringIO):
    """A text stream that gives its lines one at a time and never its whole body."""

    def read(self, size=-1):
        raise AssertionError("read() of the pattern body")


def test_parse_reads_the_body_line_by_line(tmp_path):
    text = written_pattern_text(tmp_path)
    assert parsed(parse_pattern, LinesOnly(text, newline="")) == parsed(parse_oracle, text)


def test_leading_beam_0_is_a_schema_error():
    # the line parser used to index an empty beam list here (IndexError)
    with pytest.raises(SchemaError, match="saw beam 0 on line 2 after beam 0"):
        parse_pattern(io.StringIO(NAMED["beam_0_first"][0], newline=""))


class OneWay(io.RawIOBase):
    """Bytes that can be read once, front to back, and not sought."""

    def __init__(self, data):
        self._data = io.BytesIO(data)

    def readable(self):
        return True

    def seekable(self):
        return False

    def readinto(self, buf):
        return self._data.readinto(buf)


def test_file_and_non_seekable_stream(tmp_path):
    # one chunk, many chunks, and a defect in a later chunk
    many = written_pattern_text(tmp_path).replace("\n", "\r\n")
    for text in (NAMED["crlf"][0], many, with_line(many, 1100, "1,2,3")):
        path = tmp_path / "pattern.csv"
        path.write_bytes(text.encode("utf-8"))
        stream = io.TextIOWrapper(io.BufferedReader(OneWay(text.encode())),
                                  encoding="utf-8", newline="")
        with chunk_lines(64):
            assert parsed(parse_pattern, path) == parsed(
                lambda t: parse_oracle(t, str(path)), text)
            assert parsed(parse_pattern, stream) == parsed(parse_oracle, text)
    assert parsed(parse_oracle, text)[0] is ParseError


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
@given(pattern_text(), st.sampled_from(CHUNKS))
def test_parse_matches_line_parser(text, n):
    with chunk_lines(n):
        assert_same_parse(text)
