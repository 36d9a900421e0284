"""Profiles, beam classification, and the interference sweep."""

import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
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
)
from sattraffic.errors import BadThresholdsError
from sattraffic.geo import GeoPoint, ScenarioConfig
from sattraffic.ingest import DemandSnapshot, Terminal, TrafficType
from sattraffic.linkbudget import build_channel_matrix, interference
from sattraffic.pattern import BeamPattern, all_footprints
from sattraffic.traffic import (
    TrafficMatrix,
    TrafficRecord,
    build_traffic_matrix,
    per_beam_demand,
)


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
    return BeamPattern(glat, glon, gain, np.zeros_like(gain))


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
    return BeamPattern(glat, glon, gain, np.zeros_like(gain))


def fss_at(ident, lat, lon, demand=2.0):
    return Terminal(ident, GeoPoint(lat, lon), TrafficType.FSS, demand)


def snapshots_with(per_hour):
    """24 snapshots; per_hour maps hour -> (fss, aero, maritime) tuples."""
    out = []
    for h in range(24):
        fss, aero, mar = per_hour.get(h, ((), (), ()))
        out.append(DemandSnapshot(hour=h, fss=fss, aero=aero, maritime=mar))
    return out


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
        profile = hourly_profiles(snapshots_with({}), fps, pattern)
        assert profile.demand_mbps.sum() == 0.0
        assert profile.all_zero.all()

    def test_single_terminal_single_hour(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        hours = {9: ((fss_at("a", 0.0, 0.0, 3.0),), (), ())}
        profile = hourly_profiles(snapshots_with(hours), fps, pattern)
        series = profile.demand_mbps[0, :, 0]
        assert series[9] == 3.0
        assert series.sum() == 3.0
        assert profile.normalized[0, 9, 0] == 1.0
        assert profile.normalized[0, :, 0].sum() == 1.0

    def test_missing_hour_rejected(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        snaps = snapshots_with({})[:23]
        with pytest.raises(ValueError, match="0..23"):
            hourly_profiles(snaps, fps, pattern)

    def test_snapshot_order_irrelevant(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        hours = {
            4: ((fss_at("a", 0.0, 0.0),), (), ()),
            20: ((), (), (Terminal("s", GeoPoint(0.0, 4.8), TrafficType.MARITIME, 8.0),)),
        }
        snaps = snapshots_with(hours)
        a = hourly_profiles(snaps, fps, pattern)
        b = hourly_profiles(list(reversed(snaps)), fps, pattern)
        assert np.array_equal(a.demand_mbps, b.demand_mbps)


def hourly_profiles_oracle(snapshots, footprints, pattern):
    """The association hourly_profiles replaced: every snapshot whole."""
    demand = np.zeros((pattern.beams, 24, 3))
    for snap in snapshots:
        T = build_traffic_matrix(footprints, pattern, snap.fss, snap.aero, snap.maritime)
        demand[:, snap.hour, :] = per_beam_demand(T)
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
    fss_mode=st.sampled_from(("shared", "by_hour", "empty")),
    fss_specs=st.lists(terminal_specs, max_size=12),
    mover_specs=st.dictionaries(
        st.integers(0, 23),
        st.tuples(st.lists(terminal_specs, max_size=5), st.lists(terminal_specs, max_size=5)),
        max_size=6,
    ),
    reverse=st.booleans(),
)
def test_hourly_profiles_match_whole_snapshot_association(
    row_scene, fss_mode, fss_specs, mover_specs, reverse
):
    pattern, fps = row_scene
    shared = list(terminals("f", TrafficType.FSS, fss_specs))  # as the CLI passes it
    snaps = []
    for h in range(24):
        if fss_mode == "shared":
            fss = shared
        elif fss_mode == "by_hour":
            # fresh objects; every third hour carries an equal block
            fss = terminals("f", TrafficType.FSS, fss_specs[h % 3:])
        else:
            fss = ()
        aero, mar = mover_specs.get(h, ((), ()))
        snaps.append(DemandSnapshot(
            hour=h, fss=fss,
            aero=terminals("a", TrafficType.AERO, aero),
            maritime=terminals("m", TrafficType.MARITIME, mar),
        ))
    if reverse:
        snaps.reverse()
    got = hourly_profiles(snaps, fps, pattern).demand_mbps
    want = hourly_profiles_oracle(snaps, fps, pattern)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()


class TestClassifyBeams:
    def test_planted_hot_and_cold_recovered(self):
        pattern = row_pattern()
        fps = all_footprints(pattern)
        hot = tuple(fss_at(f"h{i}", 0.0, 0.0) for i in range(5))
        warm = (fss_at("w", 0.0, 2.4),)
        hours = {h: (hot + warm, (), ()) for h in range(24)}
        profile = hourly_profiles(snapshots_with(hours), fps, pattern)
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
    rows = tuple(
        TrafficRecord(
            i + 1, i + 1,
            GeoPoint(float(rng.uniform(50.5, 53.5)), float(rng.uniform(3.5, 6.5))),
            TrafficType.FSS, 2.0,
        )
        for i in range(5)
    )
    T = TrafficMatrix(rows=rows, beams=7, excluded=0)
    cfg = ScenarioConfig()
    return build_channel_matrix(T, pattern, cfg), T, cfg


class TestInterferenceSweep:
    def test_size_one_is_zero(self):
        H, T, cfg = sweep_scenario()
        sweep = interference_sweep(H, T, cfg, sizes=[1], policy="exhaustive")
        assert not sweep.watts.any()

    def test_full_set_has_no_sampling_freedom(self):
        H, T, cfg = sweep_scenario()
        ex = interference_sweep(H, T, cfg, sizes=[7], policy="exhaustive")
        mc1 = interference_sweep(H, T, cfg, sizes=[7], trials=1, seed=0)
        mc2 = interference_sweep(H, T, cfg, sizes=[7], trials=40, seed=99)
        full = np.array([
            [interference(H, n, set(range(1, 8)), cfg.total_power_w / 7)]
            for n in range(1, 6)
        ])
        assert np.array_equal(ex.watts, full)
        assert mc1.watts == pytest.approx(ex.watts, rel=1e-12)
        assert mc2.watts == pytest.approx(ex.watts, rel=1e-12)

    def test_monte_carlo_tracks_exhaustive_within_three_se(self):
        H, T, cfg = sweep_scenario()
        sizes = list(range(2, 8))
        trials = 400
        ex = interference_sweep(H, T, cfg, sizes=sizes, policy="exhaustive")
        mc = interference_sweep(H, T, cfg, sizes=sizes, trials=trials, seed=7)
        for ui, n in enumerate(ex.users):
            serving = int(H.serving[n - 1])
            others = [j for j in range(1, 8) if j != serving]
            for si, s in enumerate(sizes):
                split = cfg.total_power_w / s
                vals = [
                    interference(H, n, {serving, *combo}, split)
                    for combo in combinations(others, s - 1)
                ]
                se = float(np.std(vals)) / math.sqrt(trials)
                assert ex.watts[ui, si] == pytest.approx(float(np.mean(vals)), rel=1e-12)
                assert abs(mc.watts[ui, si] - ex.watts[ui, si]) <= 3.0 * se + 1e-15

    def test_seed_determinism(self):
        H, T, cfg = sweep_scenario()
        a = interference_sweep(H, T, cfg, sizes=[2, 4], trials=30, seed=5)
        b = interference_sweep(H, T, cfg, sizes=[2, 4], trials=30, seed=5)
        assert np.array_equal(a.watts, b.watts)

    def test_users_subset(self):
        H, T, cfg = sweep_scenario()
        sweep = interference_sweep(H, T, cfg, sizes=[3], policy="exhaustive",
                                   users=[2, 4])
        assert sweep.users == (2, 4)
        assert sweep.watts.shape == (2, 1)

    def test_validation(self):
        H, T, cfg = sweep_scenario()
        with pytest.raises(ValueError, match="outside"):
            interference_sweep(H, T, cfg, sizes=[8])
        with pytest.raises(ValueError, match="policy"):
            interference_sweep(H, T, cfg, sizes=[2], policy="greedy")
        with pytest.raises(ValueError, match="trials"):
            interference_sweep(H, T, cfg, sizes=[2], trials=0)


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
        H, T, cfg = sweep_scenario()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_interference_csv(
            interference_sweep(H, T, cfg, sizes=[2, 3], trials=20, seed=3), a
        )
        write_interference_csv(
            interference_sweep(H, T, cfg, sizes=[2, 3], trials=20, seed=3), b
        )
        assert a.read_text() == b.read_text()
        assert a.read_text().splitlines()[0] == INTERFERENCE_HEADER
