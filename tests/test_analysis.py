"""Profiles, beam classification, and the interference sweep."""

import math
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sattraffic.analysis import (
    BEAM_CLASS_HEADER,
    INTERFERENCE_HEADER,
    PROFILE_HEADER,
    HourlyProfile,
    classify_beams,
    hourly_profiles,
    interference_sweep,
    write_beam_class_csv,
    write_interference_csv,
    write_profile_csv,
    _percentile,
)
from sattraffic.errors import BadThresholdsError, UnknownUserError
from sattraffic.geo import GeoPoint, ScenarioConfig
from sattraffic.ingest import Terminal, TerminalBlock, TrafficType
from sattraffic.linkbudget import ChannelMatrix, build_channel_matrix, interference
from sattraffic.pattern import BeamPattern, all_footprints
from sattraffic.traffic import TrafficMatrix, build_traffic_matrix, per_beam_demand

import oracles


def row_pattern(centers=((0.0, 0.0), (0.0, 2.4), (0.0, 4.8)), r3=1.2, pitch=0.2):
    lats = np.arange(-1.6, 1.6 + 1e-9, pitch)
    lons = np.arange(-1.6, 6.4 + 1e-9, pitch)
    glat = np.repeat(lats, len(lons))
    glon = np.tile(lons, len(lats))
    cols = [
        50.0 - 3.0 * ((glat - clat) ** 2 + (glon - clon) ** 2) / r3**2
        for clat, clon in centers
    ]
    gain = np.column_stack(cols)
    return BeamPattern(glat, glon, gain)


def seven_beam_pattern():
    centers = [(52.0, 5.0)] + [
        (52.0 + 2.0 * math.sin(2 * math.pi * k / 6),
         5.0 + 2.0 * math.cos(2 * math.pi * k / 6))
        for k in range(6)
    ]
    lats = np.arange(48.0, 56.0 + 1e-9, 0.5)
    lons = np.arange(1.0, 9.0 + 1e-9, 0.5)
    glat = np.repeat(lats, len(lons))
    glon = np.tile(lons, len(lats))
    cols = [
        52.0 - 3.0 * ((glat - clat) ** 2 + (glon - clon) ** 2) / 1.5**2
        for clat, clon in centers
    ]
    gain = np.column_stack(cols)
    return BeamPattern(glat, glon, gain)


def fss_at(ident, lat, lon, demand=2.0):
    return Terminal(ident, GeoPoint(lat, lon), TrafficType.FSS, demand)


def movers_by_hour(per_hour):
    """24 aeronautical and 24 maritime blocks; per_hour maps hour -> (aero, maritime)."""
    blocks = [per_hour.get(h, ((), ())) for h in range(24)]
    return [aero for aero, _ in blocks], [mar for _, mar in blocks]


def aero_at(ident, lat, lon, demand=10.0):
    return Terminal(ident, GeoPoint(lat, lon), TrafficType.AERO, demand)


class TestHourlyProfile:
    def test_normalized_in_unit_range_with_peak_one(self):
        rng = np.random.default_rng(5)
        demand = rng.uniform(0.0, 50.0, size=(4, 24, 3))
        profile = HourlyProfile(demand_mbps=demand)
        assert profile.normalized.min() >= 0.0
        assert profile.normalized.max() <= 1.0
        for b in range(4):
            for k in range(3):
                assert profile.normalized[b, :, k].max() == 1.0

    def test_all_zero_series_flagged(self):
        demand = np.zeros((2, 24, 3))
        demand[0, 3, 0] = 7.0
        profile = HourlyProfile(demand_mbps=demand)
        assert not profile.all_zero[0, 0]
        assert profile.all_zero[0, 1]
        assert profile.all_zero[1].all()
        assert profile.normalized[1].sum() == 0.0

    def test_normalization_idempotent(self):
        rng = np.random.default_rng(11)
        demand = rng.uniform(0.0, 9.0, size=(3, 24, 3))
        demand[1, :, 2] = 0.0
        once = HourlyProfile(demand_mbps=demand)
        twice = HourlyProfile(demand_mbps=once.normalized)
        assert np.array_equal(twice.normalized, twice.demand_mbps)
        assert np.array_equal(twice.normalized, once.normalized)

    def test_negative_demand_rejected(self):
        demand = np.zeros((1, 24, 3))
        demand[0, 0, 0] = -1.0
        with pytest.raises(ValueError):
            HourlyProfile(demand_mbps=demand)


class TestHourlyProfiles:
    def test_empty_snapshots_all_zero(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        profile = hourly_profiles((), *movers_by_hour({}), fps, pattern)
        assert profile.demand_mbps.sum() == 0.0
        assert profile.all_zero.all()

    def test_single_terminal_single_hour(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        hours = {9: ((aero_at("a", 0.0, 0.0, 3.0),), ())}
        profile = hourly_profiles((), *movers_by_hour(hours), fps, pattern)
        series = profile.demand_mbps[0, :, 1]
        assert series[9] == 3.0
        assert series.sum() == 3.0
        assert profile.normalized[0, 9, 1] == 1.0
        assert profile.normalized[0, :, 1].sum() == 1.0

    def test_missing_hour_rejected(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        aero, mar = movers_by_hour({})
        with pytest.raises(ValueError, match="0..23"):
            hourly_profiles((), aero[:23], mar, fps, pattern)
        with pytest.raises(ValueError, match="0..23"):
            hourly_profiles((), aero, mar + [()], fps, pattern)

    def test_hours_follow_sequence_position(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        ship = Terminal("s", GeoPoint(0.0, 4.8), TrafficType.MARITIME, 8.0)
        aero, mar = movers_by_hour({4: ((aero_at("a", 0.0, 0.0),), ()), 20: ((), (ship,))})
        a = hourly_profiles((), aero, mar, fps, pattern).demand_mbps
        b = hourly_profiles((), aero[::-1], mar[::-1], fps, pattern).demand_mbps
        assert a[0, 4, 1] == 10.0 and a[2, 20, 2] == 8.0
        assert a.sum() == 18.0
        assert np.array_equal(a, b[:, ::-1, :])


def hourly_profiles_oracle(fss, aero_by_hour, maritime_by_hour, footprints, pattern):
    """The association hourly_profiles replaced: every hour's terminals whole."""
    demand = np.zeros((pattern.beams, 24, 3))
    for hour, (aero, maritime) in enumerate(zip(aero_by_hour, maritime_by_hour)):
        T = build_traffic_matrix(footprints, pattern, fss, aero, maritime)
        demand[:, hour, :] = per_beam_demand(T)
    return demand


@pytest.fixture(scope="module")
def row_scene():
    pattern = row_pattern()
    return pattern, all_footprints(pattern)


# on, between and beyond the three row_pattern footprints, signed zeros included
terminal_specs = st.tuples(
    st.one_of(st.sampled_from((0.0, -0.0, 1.2, -1.2)), st.floats(-1.8, 1.8)),
    st.one_of(st.sampled_from((0.0, -0.0, 1.2, 2.4, 3.6, 4.8)), st.floats(-1.8, 6.6)),
    st.floats(0.0, 50.0),
)


def terminals(prefix, kind, specs):
    return tuple(
        Terminal(f"{prefix}{i}", GeoPoint(lat, lon), kind, demand)
        for i, (lat, lon, demand) in enumerate(specs)
    )


@settings(max_examples=60, deadline=None)
@given(
    fss_specs=st.lists(terminal_specs, max_size=12),
    mover_specs=st.dictionaries(
        st.integers(0, 23),
        st.tuples(st.lists(terminal_specs, max_size=5), st.lists(terminal_specs, max_size=5)),
        max_size=6,
    ),
)
def test_hourly_profiles_match_whole_snapshot_association(
    row_scene, fss_specs, mover_specs
):
    pattern, fps = row_scene
    fss = list(terminals("f", TrafficType.FSS, fss_specs))  # as the CLI passes it
    aero, mar = movers_by_hour({
        h: (terminals("a", TrafficType.AERO, a), terminals("m", TrafficType.MARITIME, m))
        for h, (a, m) in mover_specs.items()
    })
    got = hourly_profiles(fss, aero, mar, fps, pattern).demand_mbps
    want = hourly_profiles_oracle(fss, aero, mar, fps, pattern)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    specs=st.lists(st.tuples(st.sampled_from(TrafficType), terminal_specs), max_size=10),
    mover_specs=st.dictionaries(
        st.integers(0, 23),
        st.tuples(
            st.lists(st.tuples(st.sampled_from(TrafficType), terminal_specs), max_size=5),
            st.lists(st.tuples(st.sampled_from(TrafficType), terminal_specs), max_size=5),
        ),
        max_size=6,
    ),
)
def test_hourly_profiles_of_blocks_match_per_hour_association(row_scene, specs, mover_specs):
    pattern, fps = row_scene

    def mixed(prefix, items):
        return tuple(
            Terminal(f"{prefix}{i}", GeoPoint(lat, lon), kind, demand)
            for i, (kind, (lat, lon, demand)) in enumerate(items)
        )

    fss = mixed("f", specs)
    aero, mar = movers_by_hour({
        h: (mixed("a", a), mixed("m", m)) for h, (a, m) in mover_specs.items()
    })
    got = hourly_profiles(
        TerminalBlock.of(fss), [TerminalBlock.of(b) for b in aero],
        [TerminalBlock.of(b) for b in mar], fps, pattern,
    ).demand_mbps
    want = oracles.hourly_profiles(fss, aero, mar, fps, pattern).demand_mbps
    assert got.tobytes() == want.tobytes()


def test_hourly_profiles_keep_types_to_their_association(row_scene):
    # an aeronautical terminal in the FSS block and an FSS terminal among the
    # movers count nowhere, as with one association per hour
    pattern, fps = row_scene
    fss = [fss_at("f", 0.0, 0.0, 3.0), aero_at("stray", 0.0, 2.4, 7.0)]
    aero, mar = movers_by_hour({
        5: ((aero_at("a", 0.0, 0.0), fss_at("stray", 0.0, 4.8, 9.0)),
            (Terminal("m", GeoPoint(0.0, 2.4), TrafficType.MARITIME, 8.0),)),
    })
    got = hourly_profiles(fss, aero, mar, fps, pattern).demand_mbps
    want = oracles.hourly_profiles(fss, aero, mar, fps, pattern).demand_mbps
    assert got.tobytes() == want.tobytes()
    assert np.array_equal(got[:, :, 0], np.broadcast_to([[3.0], [0.0], [0.0]], (3, 24)))
    assert got[0, 5, 1] == 10.0 and got[1, 5, 2] == 8.0 and got.sum() == 3.0 * 24 + 18.0


class TestClassifyBeams:
    def test_planted_hot_and_cold_recovered(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        hot = tuple(fss_at(f"h{i}", 0.0, 0.0) for i in range(5))
        warm = (fss_at("w", 0.0, 2.4),)
        profile = hourly_profiles(hot + warm, *movers_by_hour({}), fps, pattern)
        classes = classify_beams(profile, thresholds=(1.0, 5.0))
        assert [c.label for c in classes] == ["hot", "warm", "cold"]
        assert classes[0].mean_demand_mbps == 10.0
        assert classes[2].mean_demand_mbps == 0.0

    def test_boundary_is_warm(self):
        demand = np.zeros((2, 24, 3))
        demand[0, :, 0] = 5.0   # mean exactly the upper threshold
        demand[1, :, 0] = 1.0   # mean exactly the lower threshold
        profile = HourlyProfile(demand_mbps=demand)
        classes = classify_beams(profile, thresholds=(1.0, 5.0))
        assert [c.label for c in classes] == ["warm", "warm"]

    def test_zero_mean_below_positive_lower(self):
        demand = np.zeros((1, 24, 3))
        profile = HourlyProfile(demand_mbps=demand)
        assert classify_beams(profile, thresholds=(1.0, 2.0))[0].label == "cold"

    def test_percentile_defaults(self):
        demand = np.zeros((8, 24, 3))
        for b in range(8):
            demand[b, :, 0] = float(b)
        profile = HourlyProfile(demand_mbps=demand)
        labels = [c.label for c in classify_beams(profile)]
        assert labels[0] == "cold" and labels[-1] == "hot"
        assert "warm" in labels

    @settings(max_examples=400, deadline=None)
    @example([0.0] * 3 + [1.0] + [0.0] * 9 + [-0.0, 0.0])
    @given(st.lists(
        st.one_of(
            st.sampled_from([0.0, 1.0, 2.5, 1e300, -1e300, 1e-300]),
            st.floats(-1e300, 1e300),
            st.floats(-1e-300, 1e-300),
        ),
        min_size=1, max_size=80,
    ))
    def test_percentile_matches_numpy_bit_for_bit(self, values):
        # the default thresholds are numpy's linear percentile, written out
        means = np.array(values)
        for q in (25, 75):
            want = float(np.percentile(means, q))
            assert np.float64(_percentile(means, q)).tobytes() == np.float64(want).tobytes()

    def test_flat_load_all_warm(self):
        demand = np.full((4, 24, 3), 2.0)
        profile = HourlyProfile(demand_mbps=demand)
        assert all(c.label == "warm" for c in classify_beams(profile))

    def test_bad_thresholds(self):
        demand = np.zeros((2, 24, 3))
        profile = HourlyProfile(demand_mbps=demand)
        for bad in [(5.0, 1.0), (1.0, 1.0), (-1.0, 2.0), (float("nan"), 1.0)]:
            with pytest.raises(BadThresholdsError):
                classify_beams(profile, thresholds=bad)

    def test_partition_covers_all_beams(self):
        rng = np.random.default_rng(3)
        demand = rng.uniform(0, 20, size=(9, 24, 3))
        profile = HourlyProfile(demand_mbps=demand)
        classes = classify_beams(profile)
        assert [c.beam_id for c in classes] == list(range(1, 10))
        assert {c.label for c in classes} <= {"hot", "warm", "cold"}


def sweep_scenario():
    pattern = seven_beam_pattern()
    rng = np.random.default_rng(61)
    locs = [(float(rng.uniform(50.5, 53.5)), float(rng.uniform(3.5, 6.5))) for _ in range(5)]
    T = TrafficMatrix(
        beam=[1, 2, 3, 4, 5],
        lat_deg=[lat for lat, _ in locs],
        lon_deg=[lon for _, lon in locs],
        type=[TrafficType.FSS] * 5,
        demand_mbps=[2.0] * 5,
        beams=7,
        excluded=0,
    )
    cfg = ScenarioConfig()
    return build_channel_matrix(T, pattern, cfg), cfg


class TestInterferenceSweep:
    def test_size_one_is_zero(self):
        H, cfg = sweep_scenario()
        sweep = interference_sweep(H, cfg, sizes=[1])
        assert not sweep.watts.any()

    def test_full_set_has_no_sampling_freedom(self):
        H, cfg = sweep_scenario()
        ex = interference_sweep(H, cfg, sizes=[7])
        full = np.array([
            [interference(H, n, set(range(1, 8)), cfg.total_power_w / 7)]
            for n in range(1, 6)
        ])
        assert np.array_equal(ex.watts[ex.pair], full)

    def test_monte_carlo_tracks_exhaustive_within_three_se(self):
        H, cfg = sweep_scenario()
        sizes = list(range(2, 8))
        trials = 400
        rng = np.random.default_rng(7)
        ex = interference_sweep(H, cfg, sizes=sizes)
        watts = ex.watts[ex.pair]
        for ui, n in enumerate(ex.users.tolist()):
            serving = int(H.serving[n - 1])
            others = [j for j in range(1, 8) if j != serving]
            for si, s in enumerate(sizes):
                split = cfg.total_power_w / s
                vals = [
                    interference(H, n, {serving, *combo}, split)
                    for combo in combinations(others, s - 1)
                ]
                se = float(np.std(vals)) / math.sqrt(trials)
                assert watts[ui, si] == pytest.approx(float(np.mean(vals)), rel=1e-12)
                # the mean over uniformly drawn sets estimates the exact mean
                mc = np.mean(rng.choice(vals, size=trials))
                assert abs(mc - watts[ui, si]) <= 3.0 * se + 1e-15

    def test_seed_determinism(self, monkeypatch):
        # the exact mean needs no seed: the sweep draws no random numbers
        H, cfg = sweep_scenario()
        a = interference_sweep(H, cfg, sizes=[2, 4])

        def refuse(*args, **kwargs):
            raise AssertionError("the sweep must not draw random numbers")

        monkeypatch.setattr(np.random, "default_rng", refuse)
        monkeypatch.setattr(np.random, "random", refuse)
        b = interference_sweep(H, cfg, sizes=[2, 4])
        assert a.watts.tobytes() == b.watts.tobytes()
        assert np.array_equal(a.pair, b.pair)

    def test_users_subset(self):
        H, cfg = sweep_scenario()
        sweep = interference_sweep(H, cfg, sizes=[3], users=[2, 4])
        assert sweep.users.tolist() == [2, 4]
        assert sweep.watts[sweep.pair].shape == (2, 1)

    def test_validation(self):
        H, cfg = sweep_scenario()
        with pytest.raises(ValueError, match="outside"):
            interference_sweep(H, cfg, sizes=[8])

    # a bad user is caught for one size ("uniform") and for every size 1..B
    # ("exhaustive"); the case ids are those of the sweep's former policies
    @pytest.mark.parametrize("every_size", [False, True], ids=["uniform", "exhaustive"])
    @pytest.mark.parametrize("bad", [0, -1, 6])
    def test_unknown_user_rejected(self, every_size, bad):
        H, cfg = sweep_scenario()
        sizes = range(1, H.beams + 1) if every_size else [2]
        with pytest.raises(UnknownUserError,
                           match=re.escape(f"user {bad} outside [1, {H.n_users}]")):
            interference_sweep(H, cfg, sizes=sizes, users=[1, bad])

    @pytest.mark.parametrize("bad", [1.9, 2.0, True, np.float64(2.0), "2"])
    def test_user_must_be_an_integer(self, bad):
        H, cfg = sweep_scenario()
        with pytest.raises(UnknownUserError, match=f"got {re.escape(repr(bad))}"):
            interference_sweep(H, cfg, sizes=[2], users=[1, bad])

    @pytest.mark.parametrize("bad", [2.7, 3.0, True, np.float64(3.0), "3"])
    def test_size_must_be_an_integer(self, bad):
        H, cfg = sweep_scenario()
        with pytest.raises(ValueError, match=f"got {re.escape(repr(bad))}"):
            interference_sweep(H, cfg, sizes=[1, bad])

    def test_numpy_integers_accepted(self):
        H, cfg = sweep_scenario()
        sweep = interference_sweep(H, cfg, sizes=np.array([3]), users=np.array([2, 4]))
        want = interference_sweep(H, cfg, sizes=[3], users=[2, 4])
        assert (sweep.users.tolist(), sweep.sizes) == ([2, 4], (3,))
        assert sweep.users.dtype == np.int64 and {type(v) for v in sweep.sizes} == {int}
        assert sweep.watts.tobytes() == want.watts.tobytes()
        assert np.array_equal(sweep.pair, want.pair)

    def test_exhaustive_37_beams_matches_closed_form(self):
        rng = np.random.default_rng(37)
        beams, n_users = 37, 4
        H = channel(10.0 ** rng.uniform(-9.0, -2.0, size=(n_users, beams)),
                    rng.integers(1, beams + 1, size=n_users))
        cfg = ScenarioConfig()
        sweep = interference_sweep(H, cfg, sizes=[1, 18, 37])
        watts = sweep.watts[sweep.pair]
        for ui, n in enumerate(sweep.users.tolist()):
            serving = int(H.serving[n - 1])
            others = math.fsum(
                H.magnitude[n - 1, j - 1] ** 2
                for j in range(1, beams + 1) if j != serving
            )
            for si, s in enumerate(sweep.sizes):
                want = cfg.total_power_w / s * (s - 1) / (beams - 1) * others
                assert watts[ui, si] == pytest.approx(want, rel=1e-12, abs=0)
        full = [interference(H, n, set(range(1, 38)), cfg.total_power_w / 37)
                for n in sweep.users.tolist()]
        assert np.array_equal(watts[:, 2], full)
        assert not watts[:, 0].any()


def channel(magnitude, serving, location=None, phase_rad=None):
    """A ChannelMatrix with the given rows of magnitudes and serving beams,
    zero diagnostics and, unless given, zero phases.

    location gives each user's row; by default user n has row n-1.
    """
    magnitude = np.asarray(magnitude, dtype=float)
    if location is None:
        location = np.arange(magnitude.shape[0])
    if phase_rad is None:
        phase_rad = np.zeros(len(magnitude))
    n = len(location)
    return ChannelMatrix(
        magnitude=magnitude,
        phase_rad=phase_rad,
        location=location,
        serving=np.asarray(serving, dtype=np.int64),
        distance_m=np.zeros(n),
        path_loss_db=np.zeros(n),
        interp_gain_db=np.zeros(n),
        nearest_sample=np.zeros(n, dtype=np.int64),
    )


@st.composite
def channels(draw, max_beams=8, max_users=4):
    """Users at up to max_users locations, some shared; a repeated row gives
    two distinct locations with the same bits."""
    beams = draw(st.integers(1, max_beams))
    n_rows = draw(st.integers(1, max_users))
    magnitude = st.one_of(st.just(0.0), st.floats(-9.0, -2.0).map(lambda e: 10.0**e))
    phase = st.floats(0.0, 2 * math.pi)
    rows = [[draw(magnitude) for _ in range(beams)] for _ in range(n_rows)]
    phases = [draw(phase) for _ in rows]
    if draw(st.booleans()):
        rows.append(rows[0])
        phases.append(phases[0])
    location = draw(st.lists(st.integers(0, len(rows) - 1), min_size=1,
                             max_size=max_users))
    serving = [draw(st.integers(1, beams)) for _ in location]
    return channel(rows, serving, location, phases)


def users_of(H):
    return st.one_of(
        st.none(), st.lists(st.integers(1, H.n_users), min_size=1, max_size=5)
    )


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_exhaustive_matches_enumeration(data):
    H = data.draw(channels())
    sizes = data.draw(st.permutations(range(1, H.beams + 1)))
    users = data.draw(users_of(H))
    cfg = ScenarioConfig()
    got = interference_sweep(H, cfg, sizes, users=users)
    want = oracles.interference_sweep(H, cfg, sizes, users=users)
    assert np.array_equal(got.users, want.users) and got.sizes == want.sizes
    assert got.watts[got.pair] == pytest.approx(want.watts, rel=1e-12, abs=0)


def exhaustive_per_user(H, cfg, sizes, users):
    """The closed form one interference() call per (user, size), as it was."""
    watts = np.zeros((len(users), len(sizes)))
    for ui, n in enumerate(users):
        for si, s in enumerate(sizes):
            if s > 1:
                share = (s - 1) / (H.beams - 1)
                watts[ui, si] = interference(
                    H, n, range(1, H.beams + 1), cfg.total_power_w / s
                ) * share
    return watts


def assert_bit_matches_per_user(H, cfg, sizes, users):
    """The sweep's rows, one per distinct (location, serving beam) pair of
    the users, give each user the bits of the per-user sweep and of one
    interference() call per (user, size)."""
    got = interference_sweep(H, cfg, sizes, users=users)
    numbers = range(1, H.n_users + 1) if users is None else users
    assert got.users.tolist() == list(numbers) and got.sizes == tuple(sizes)
    pairs = {(int(H.location[n - 1]), int(H.serving[n - 1])) for n in numbers}
    assert got.watts.shape == (len(pairs), len(sizes))
    want = oracles.per_user_sweep(H, cfg, sizes, users)
    assert got.watts[got.pair].tobytes() == want.watts.tobytes()
    assert want.watts.tobytes() == exhaustive_per_user(H, cfg, sizes, numbers).tobytes()


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_exhaustive_bit_matches_per_user_interference(data):
    # users and sizes in any order, with repeats
    H = data.draw(channels(max_beams=12, max_users=6))
    sizes = data.draw(st.lists(st.integers(1, H.beams), min_size=1, max_size=8))
    users = data.draw(st.one_of(
        st.none(), st.lists(st.integers(1, H.n_users), min_size=1, max_size=8)))
    assert_bit_matches_per_user(H, ScenarioConfig(), sizes, users)


def test_exhaustive_37_beams_bit_matches_per_user_interference():
    # 50 users at 20 locations, swept 80 times in any order, and every size
    # from 37 down with three repeated
    rng = np.random.default_rng(3737)
    beams, n_users = 37, 50
    mags = 10.0 ** rng.uniform(-12.0, 3.0, size=(20, beams))
    H = channel(mags, rng.integers(1, beams + 1, size=n_users),
                rng.integers(0, len(mags), size=n_users),
                rng.uniform(0.0, 2 * math.pi, len(mags)))
    sizes = [*range(beams, 0, -1), 18, 1, 37]
    users = rng.integers(1, n_users + 1, size=80).tolist()
    assert len(set(users)) < len(users)
    assert_bit_matches_per_user(H, ScenarioConfig(), sizes, users)
    assert_bit_matches_per_user(H, ScenarioConfig(), sizes, None)


def test_exhaustive_squares_gains_as_interference_does():
    # magnitudes whose libm pow(x, 2), as in interference()'s magnitude ** 2,
    # and x * x differ in the last bit
    candidates = (10.0 ** np.random.default_rng(2).uniform(-9.0, -2.0, 100_000)).tolist()
    mags = [x for x in candidates if x ** 2 != x * x][:36]
    if not mags:
        pytest.skip("pow(x, 2) equals x * x for every candidate on this platform")
    H = channel([[1.0, *mags], [*mags, 1.0]], [1, len(mags) + 1])
    cfg = ScenarioConfig()
    sizes = list(range(1, len(mags) + 2))
    got = interference_sweep(H, cfg, sizes)
    assert got.watts[got.pair].tobytes() == exhaustive_per_user(H, cfg, sizes, [1, 2]).tobytes()


class TestAnalysisCsv:
    def test_profile_csv_shape(self, tmp_path):
        demand = np.zeros((2, 24, 3))
        demand[0, 9, 0] = 4.0
        profile = HourlyProfile(demand_mbps=demand)
        out = tmp_path / "profile.csv"
        write_profile_csv(profile, out)
        lines = out.read_text().splitlines()
        assert lines[0] == PROFILE_HEADER
        assert len(lines) == 1 + 2 * 24 * 3
        assert "1,9,1,4,1" in lines

    def test_beam_class_csv(self, tmp_path):
        demand = np.zeros((2, 24, 3))
        demand[0, :, 0] = 9.0
        profile = HourlyProfile(demand_mbps=demand)
        out = tmp_path / "beam_class.csv"
        write_beam_class_csv(classify_beams(profile, thresholds=(1.0, 5.0)), out)
        assert out.read_text() == (
            BEAM_CLASS_HEADER + "\n" "1,hot,9\n" "2,cold,0\n"
        )

    def test_interference_csv_deterministic(self, tmp_path):
        H, cfg = sweep_scenario()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_interference_csv(
            interference_sweep(H, cfg, sizes=[2, 3]), a
        )
        write_interference_csv(
            interference_sweep(H, cfg, sizes=[2, 3]), b
        )
        assert a.read_text() == b.read_text()
        assert a.read_text().splitlines()[0] == INTERFERENCE_HEADER
