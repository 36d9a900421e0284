"""Command-line behavior: wiring, exit codes, manifests, determinism."""

import collections
import json
import shlex
from pathlib import Path

import pytest

from sattraffic import analysis, cli, ingest
from sattraffic.analysis import HourlyProfile
from sattraffic.geo import GeoPoint, ScenarioConfig
from sattraffic.ingest import (
    AERO_HEADER,
    DEFAULT_BBOX,
    MARITIME_HEADER,
    TrafficType,
    load_aero,
    load_maritime,
    load_population,
)
from sattraffic.ioutil import sha256_file
from sattraffic.linkbudget import build_channel_matrix
from sattraffic.pattern import BORDERS_HEADER, all_footprints, parse_pattern
from sattraffic.traffic import build_traffic_matrix

import oracles
from test_analysis import hourly_profiles_oracle

SEEDS = {"pattern": 11, "population": 12, "aero": 13, "maritime": 14}


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Small seeded input files shared by the command tests."""
    root = tmp_path_factory.mktemp("inputs")
    params = {
        "pattern": ["--param", "pitch_deg=0.5"],
        "population": ["--param", "cells=150"],
        "aero": ["--param", "flights=40"],
        "maritime": ["--param", "ships=30"],
    }
    files = {}
    for kind, extra in params.items():
        rc = cli.main(
            ["synth", kind, "--seed", str(SEEDS[kind]), "--out-dir", str(root)]
            + extra
        )
        assert rc == 0
        files[kind] = root / f"{kind}.csv"
        assert files[kind].exists()
    return files


def snapshot(out):
    """Name -> bytes of each file in out; a directory, such as a staging
    directory left behind, maps to None."""
    return {
        path.name: path.read_bytes() if path.is_file() else None
        for path in out.iterdir()
    }


def demand_argv(inputs):
    return [
        "--pattern", str(inputs["pattern"]),
        "--population", str(inputs["population"]),
        "--aero", str(inputs["aero"]),
        "--maritime", str(inputs["maritime"]),
    ]


class TestSynth:
    def test_manifest_digests_output(self, tmp_path):
        rc = cli.main(
            ["synth", "maritime", "--seed", "3", "--out-dir", str(tmp_path),
             "--param", "ships=10"]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["command"] == "synth maritime"
        assert manifest["seed"] == 3
        assert manifest["config"] == {"ships": 10}
        entry = manifest["outputs"][0]
        assert entry["name"] == "maritime.csv"
        assert entry["sha256"] == sha256_file(tmp_path / "maritime.csv")

    def test_same_seed_same_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert cli.main(
                ["synth", "aero", "--seed", "9", "--out-dir", str(out),
                 "--param", "flights=15"]
            ) == 0
        assert (a / "aero.csv").read_bytes() == (b / "aero.csv").read_bytes()

    def test_unknown_kind_is_usage_error(self, tmp_path, capsys):
        rc = cli.main(["synth", "weather", "--seed", "1", "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "invalid choice" in capsys.readouterr().err

    def test_bad_param_value(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "aero", "--seed", "1", "--out-dir", str(tmp_path),
             "--param", "flights=lots"]
        )
        assert rc == 1
        assert "numeric" in capsys.readouterr().err

    @pytest.mark.parametrize("kind, params, name", [
        ("pattern", ["beams=1", "spacing_deg=inf"], "spacing_deg"),
        ("population", ["cell_deg=inf", "cells=1"], "cell_deg"),
        ("population", ["cells=1", "cell_deg=-inf"], "cell_deg"),
        ("aero", ["flights=nan"], "flights"),
    ])
    def test_non_finite_param_refused_up_front(self, tmp_path, capsys, kind, params, name):
        argv = ["synth", kind, "--seed", "1", "--out-dir", str(tmp_path)]
        for param in params:
            argv += ["--param", param]
        assert cli.main(argv) == 1
        assert f"parameter {name} must be a finite number, got " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_unknown_param_rejected_without_output(self, tmp_path, capsys):
        rc = cli.main(
            ["synth", "aero", "--seed", "1", "--out-dir", str(tmp_path),
             "--param", "wings=2"]
        )
        assert rc == 1
        assert not (tmp_path / "aero.csv").exists()
        assert not (tmp_path / "manifest.json").exists()

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_DIR_ENV, str(tmp_path / "from_env"))
        rc = cli.main(["synth", "population", "--seed", "2",
                       "--param", "cells=20"])
        assert rc == 0
        assert (tmp_path / "from_env" / "population.csv").exists()


def earlier_synth(out):
    """A good synth run in out, as the run a failed rerun must leave alone."""
    assert cli.main(["synth", "aero", "--seed", "4", "--out-dir", str(out),
                     "--param", "flights=5"]) == 0
    return snapshot(out)


class TestSynthName:
    def test_custom_name(self, tmp_path):
        argv = ["synth", "population", "--seed", "2", "--param", "cells=5", "--out-dir"]
        assert cli.main([*argv, str(tmp_path / "a"), "--name", "custom.csv"]) == 0
        assert cli.main([*argv, str(tmp_path / "b")]) == 0
        out = tmp_path / "a"
        assert sorted(snapshot(out)) == ["custom.csv", "manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        digest = sha256_file(out / "custom.csv")
        assert manifest["outputs"] == [{"name": "custom.csv", "sha256": digest}]
        assert digest == sha256_file(tmp_path / "b" / "population.csv")

    @pytest.mark.parametrize("name", [
        "sub/p.csv", "../escaped.csv", "manifest.json", ".", "..", "",
    ])
    def test_bad_name_rejected_before_out_dir_is_touched(self, tmp_path, capsys, name):
        out = tmp_path / "out"
        before = earlier_synth(out)
        capsys.readouterr()
        for target in (out, tmp_path / "fresh"):
            rc = cli.main(["synth", "population", "--seed", "1", "--param", "cells=5",
                           "--out-dir", str(target), "--name", name])
            assert rc == 1
            assert "--name must be a bare file name" in capsys.readouterr().err
        assert snapshot(out) == before
        assert sorted(snapshot(tmp_path)) == ["out"]

    def test_directory_at_target_keeps_earlier_run(self, tmp_path, capsys):
        out = tmp_path / "out"
        earlier_synth(out)
        (out / "population.csv").mkdir()
        before = snapshot(out)
        capsys.readouterr()
        rc = cli.main(["synth", "population", "--seed", "1", "--param", "cells=5",
                       "--out-dir", str(out)])
        assert rc == 1
        assert "is a directory" in capsys.readouterr().err
        assert snapshot(out) == before


class TestFootprints:
    def test_borders_cover_all_beams(self, inputs, tmp_path):
        rc = cli.main(["footprints", str(inputs["pattern"]),
                       "--out-dir", str(tmp_path)])
        assert rc == 0
        lines = (tmp_path / "borders.csv").read_text().splitlines()
        assert lines[0] == BORDERS_HEADER
        beams = {line.split(",")[0] for line in lines[1:]}
        assert beams == {str(b) for b in range(1, 8)}

    def test_missing_file_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.csv"
        rc = cli.main(["footprints", str(missing), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "nope.csv" in capsys.readouterr().err

    def test_degenerate_beam_names_beam_id(self, tmp_path, capsys):
        pattern = tmp_path / "spiky.csv"
        rows = ["beam_id,lat_deg,lon_deg,gain_db,phase_rad"]
        for i, (lat, lon) in enumerate(
            [(50.0, 0.0), (50.0, 1.0), (51.0, 0.0), (51.0, 1.0)]
        ):
            gain = 50.0 if i == 0 else 30.0
            rows.append(f"1,{lat},{lon},{gain},0")
        pattern.write_text("\n".join(rows) + "\n")
        rc = cli.main(["footprints", str(pattern), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "beam 1" in capsys.readouterr().err

    def test_antimeridian_beam_names_beam_id(self, tmp_path, capsys):
        pattern = tmp_path / "antimeridian.csv"
        rows = ["beam_id,lat_deg,lon_deg,gain_db,phase_rad"]
        for lat in (-1, 0, 1):
            for lon in (-179.5, -179, 179, 179.5):
                rows.append(f"1,{lat},{lon},50,0")
        pattern.write_text("\n".join(rows) + "\n")
        rc = cli.main(["footprints", str(pattern), "--out-dir", str(tmp_path)])
        assert rc == 1
        assert "beam 1" in capsys.readouterr().err
        assert not (tmp_path / "borders.csv").exists()

    def test_beam_past_lon_180_names_beam_id(self, tmp_path, capsys):
        pattern = tmp_path / "past180.csv"
        rows = ["beam_id,lat_deg,lon_deg,gain_db,phase_rad"]
        for lat in (-2, -1, 0, 1, 2):
            for lon in range(175, 186):
                rows.append(f"1,{lat},{lon},{50 - abs(lat) - abs(lon - 180) / 2},0")
        pattern.write_text("\n".join(rows) + "\n")
        rc = cli.main(["footprints", str(pattern), "--out-dir", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert "beam 1" in err and "leave longitude [-180, 180)" in err
        assert not (tmp_path / "borders.csv").exists()

    def test_footprints_never_triangulate(self, inputs, tmp_path, monkeypatch):
        def refuse(points):
            raise AssertionError("footprints must not build a triangulation")

        monkeypatch.setattr("sattraffic.pattern.delaunay", refuse)
        monkeypatch.setattr("sattraffic.geometry.delaunay", refuse)
        assert len(all_footprints(parse_pattern(inputs["pattern"]))) == 7
        assert cli.main(["footprints", str(inputs["pattern"]),
                         "--out-dir", str(tmp_path)]) == 0
        assert (tmp_path / "borders.csv").exists()

    def test_failed_manifest_write_leaves_nothing(self, inputs, tmp_path,
                                                  monkeypatch, capsys):
        # a lone surrogate cannot be encoded, so manifest.json is created
        # empty and then the write fails
        monkeypatch.setattr(cli, "canonical_json", lambda obj, indent=0: "{\ud800")
        out = tmp_path / "out"
        rc = cli.main(["footprints", str(inputs["pattern"]), "--out-dir", str(out)])
        assert rc == 1
        assert "encode" in capsys.readouterr().err
        assert not (out / "manifest.json").exists()
        assert not (out / "borders.csv").exists()


class TestSimulate:
    def test_reruns_are_byte_identical(self, inputs, tmp_path):
        outs = []
        for name in ("one", "two"):
            out = tmp_path / name
            rc = cli.main(
                ["simulate", *demand_argv(inputs), "--hour", "9",
                 "--out-dir", str(out)]
            )
            assert rc == 0
            outs.append(out)
        for artifact in ("traffic.csv", "channel.csv", "manifest.json",
                         "channel_summary.json"):
            assert (outs[0] / artifact).read_bytes() == (outs[1] / artifact).read_bytes()

    def test_row_count_matches_association_oracle(self, inputs, tmp_path):
        rc = cli.main(
            ["simulate", *demand_argv(inputs), "--hour", "6",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        pattern = parse_pattern(inputs["pattern"])
        fps = all_footprints(pattern)
        T = build_traffic_matrix(
            fps, pattern,
            load_population(inputs["population"]),
            load_aero(inputs["aero"], 6),
            load_maritime(inputs["maritime"], 6),
        )
        lines = (tmp_path / "traffic.csv").read_text().splitlines()
        assert len(lines) - 1 == T.n_users
        summary = json.loads((tmp_path / "channel_summary.json").read_text())
        assert summary["excluded_terminals"] == T.excluded
        assert summary["users"] == T.n_users

    def test_bbox_excluding_every_terminal(self, tmp_path):
        # the S scenario with a bounding box that holds none of its terminals
        inputs = tmp_path / "inputs"
        for kind, seed, params in (
            ("pattern", 91, []),
            ("population", 92, ["cells=1000", "urban_fraction=0.15"]),
            ("aero", 93, ["flights=800"]),
            ("maritime", 94, ["ships=600"]),
        ):
            extra = [arg for p in params for arg in ("--param", p)]
            assert cli.main(
                ["synth", kind, "--seed", str(seed), "--out-dir", str(inputs)]
                + extra
            ) == 0
        config = tmp_path / "bbox.cfg"
        config.write_text("lat_min = 25\nlat_max = 26\n")
        out = tmp_path / "out"
        rc = cli.main(
            ["simulate",
             "--pattern", str(inputs / "pattern.csv"),
             "--population", str(inputs / "population.csv"),
             "--aero", str(inputs / "aero.csv"),
             "--maritime", str(inputs / "maritime.csv"),
             "--config", str(config), "--hour", "9", "--out-dir", str(out)]
        )
        assert rc == 0
        assert (out / "channel.csv").read_text() == "user,beam,magnitude,phase_rad\n"
        summary = json.loads((out / "channel_summary.json").read_text())
        assert summary["users"] == 0
        assert summary["per_user"] == []

    def test_hour_25_fails_before_any_io(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = cli.main(
            ["simulate",
             "--pattern", str(tmp_path / "missing_pattern.csv"),
             "--population", str(tmp_path / "missing_pop.csv"),
             "--aero", str(tmp_path / "missing_aero.csv"),
             "--maritime", str(tmp_path / "missing_ships.csv"),
             "--hour", "25", "--out-dir", str(out)]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert "hour" in err
        assert "missing_pattern" not in err
        assert not out.exists()

    def test_partial_outputs_deleted_on_failure(self, inputs, tmp_path,
                                                monkeypatch, capsys):
        def boom(H, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("user,beam,magnitude,phase_rad\n1,1,")
            raise RuntimeError("disk full")

        monkeypatch.setattr(cli, "write_channel_csv", boom)
        out = tmp_path / "out"
        rc = cli.main(
            ["simulate", *demand_argv(inputs), "--hour", "9",
             "--out-dir", str(out)]
        )
        assert rc == 2
        assert "internal error" in capsys.readouterr().err
        assert snapshot(out) == {}

    def test_failed_rerun_leaves_no_stale_manifest(self, inputs, tmp_path,
                                                   monkeypatch, capsys):
        out = tmp_path / "rerun"
        argv = ["simulate", *demand_argv(inputs), "--hour", "9", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        assert (out / "manifest.json").exists()
        before = snapshot(out)

        def boom(H, path):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_channel_csv", boom)
        assert cli.main(argv) == 1
        assert "disk full" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_writer_failing_halfway_keeps_earlier_run(self, inputs, tmp_path,
                                                      monkeypatch, capsys):
        out = tmp_path / "out"
        argv = ["simulate", *demand_argv(inputs), "--hour", "9", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        before = snapshot(out)
        staged = []

        def halfway(H, path):
            staged.append(path)
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("user,beam,magnitude,phase_rad\n1,1,")
            raise OSError("disk full")

        monkeypatch.setattr(cli, "write_channel_csv", halfway)
        assert cli.main(argv) == 1
        assert "disk full" in capsys.readouterr().err
        # the writer was handed a path in a staging directory inside out
        assert staged[0].name == "channel.csv"
        assert staged[0].parent.parent == out
        assert snapshot(out) == before

    def test_interrupt_after_two_outputs_keeps_earlier_run(self, inputs, tmp_path,
                                                           monkeypatch):
        out = tmp_path / "out"
        argv = ["simulate", *demand_argv(inputs), "--hour", "9", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        before = snapshot(out)

        def interrupted(H, excluded, path):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "channel_summary", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
        assert snapshot(out) == before

    def test_failing_manifest_write_keeps_earlier_run(self, inputs, tmp_path,
                                                      monkeypatch, capsys):
        out = tmp_path / "out"
        argv = ["simulate", *demand_argv(inputs), "--hour", "9", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        before = snapshot(out)

        def full(obj, indent=0):
            raise OSError("no space left for the manifest")

        monkeypatch.setattr(cli, "canonical_json", full)
        assert cli.main(argv) == 1
        assert "no space left for the manifest" in capsys.readouterr().err
        assert snapshot(out) == before

    def test_failing_manifest_move_leaves_no_manifest(self, inputs, tmp_path,
                                                      monkeypatch):
        # once an output has moved, no manifest may name the earlier run's files
        out = tmp_path / "out"
        argv = ["simulate", *demand_argv(inputs), "--hour", "9", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        replace = cli.os.replace

        def failing(src, dst):
            if Path(dst).name == "manifest.json":
                raise OSError("cannot move the manifest")
            replace(src, dst)

        monkeypatch.setattr(cli.os, "replace", failing)
        assert cli.main(argv) == 1
        assert sorted(snapshot(out)) == [
            "channel.csv", "channel_summary.json", "traffic.csv"
        ]

    def test_bad_config_or_hour_leaves_previous_run_alone(self, inputs, tmp_path,
                                                          capsys):
        out = tmp_path / "out"
        argv = ["simulate", *demand_argv(inputs), "--out-dir", str(out)]
        assert cli.main(argv + ["--hour", "9"]) == 0
        before = {path.name: path.read_bytes() for path in out.iterdir()}
        config = tmp_path / "bad.cfg"
        config.write_text("carrier_freq_hz = 20e9\n")
        assert cli.main(argv + ["--hour", "9", "--config", str(config)]) == 1
        assert cli.main(argv + ["--hour", "24"]) == 1
        assert {path.name: path.read_bytes() for path in out.iterdir()} == before

    def test_interrupt_deletes_outputs(self, inputs, tmp_path, monkeypatch):
        def interrupted(H, path):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write("user,beam,magnitude,phase_rad\n")
            raise KeyboardInterrupt

        out = tmp_path / "out"
        argv = ["simulate", *demand_argv(inputs), "--hour", "9", "--out-dir", str(out)]
        assert cli.main(argv) == 0
        before = snapshot(out)
        monkeypatch.setattr(cli, "write_channel_csv", interrupted)
        with pytest.raises(KeyboardInterrupt):
            cli.main(argv)
        assert snapshot(out) == before

    def test_bad_movement_file_exits_one(self, inputs, tmp_path, capsys):
        bad = tmp_path / "bad_aero.csv"
        bad.write_text("flight_id,timestamp_iso8601_utc,lat_deg,lon_deg\n"
                       "F1,not-a-time,50,5\n")
        out = tmp_path / "out"
        rc = cli.main(
            ["simulate",
             "--pattern", str(inputs["pattern"]),
             "--population", str(inputs["population"]),
             "--aero", str(bad),
             "--maritime", str(inputs["maritime"]),
             "--hour", "9", "--out-dir", str(out)]
        )
        assert rc == 1
        assert "line 2" in capsys.readouterr().err
        assert not (out / "traffic.csv").exists()


    @pytest.mark.parametrize("stamp", ["0001-01-01T00:30:00+01:00",
                                       "9999-12-31T23:30:00-01:00"])
    def test_timestamp_outside_the_utc_range_exits_one(self, inputs, tmp_path, capsys,
                                                        stamp):
        bad = tmp_path / "bad_aero.csv"
        bad.write_text("flight_id,timestamp_iso8601_utc,lat_deg,lon_deg\n"
                       f"f1,{stamp},50,5\n")
        rc = cli.main(
            ["simulate",
             "--pattern", str(inputs["pattern"]),
             "--population", str(inputs["population"]),
             "--aero", str(bad),
             "--maritime", str(inputs["maritime"]),
             "--hour", "9", "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 1
        assert f"line 2: timestamp '{stamp}' is outside the datetime range in UTC" in (
            capsys.readouterr().err)

    def test_out_of_range_latitude_in_another_hour_exits_one(self, inputs, tmp_path,
                                                             capsys):
        bad = tmp_path / "bad_aero.csv"
        bad.write_text("flight_id,timestamp_iso8601_utc,lat_deg,lon_deg\n"
                       "f1,2026-01-15T05:00:00Z,95.0,5.0\n")
        out = tmp_path / "out"
        rc = cli.main(
            ["simulate",
             "--pattern", str(inputs["pattern"]),
             "--population", str(inputs["population"]),
             "--aero", str(bad),
             "--maritime", str(inputs["maritime"]),
             "--hour", "9", "--out-dir", str(out)]
        )
        assert rc == 1
        assert "line 2" in capsys.readouterr().err
        assert not (out / "traffic.csv").exists()


class TestProfileCommand:
    def test_each_timestamp_text_parsed_once_and_two_associations(self, inputs, tmp_path,
                                                                  monkeypatch):
        calls = collections.Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(ingest, "_parse_timestamp",
                            counted("parse", ingest._parse_timestamp))
        monkeypatch.setattr(analysis, "build_traffic_matrix",
                            counted("associate", analysis.build_traffic_matrix))
        rc = cli.main(["profile", *demand_argv(inputs), "--out-dir", str(tmp_path)])
        assert rc == 0
        distinct_stamps = sum(
            len({line.split(",")[1] for line in inputs[name].read_text().splitlines()[1:]
                 if line})
            for name in ("aero", "maritime")
        )
        assert calls["parse"] == distinct_stamps
        assert calls["associate"] == 2

    @pytest.mark.parametrize("only", ["population", "aero", "maritime"])
    def test_single_input_matches_whole_hour_association(self, inputs, tmp_path, only):
        out = tmp_path / "out"
        rc = cli.main(["profile", "--pattern", str(inputs["pattern"]),
                       f"--{only}", str(inputs[only]), "--out-dir", str(out)])
        assert rc == 0
        pattern = parse_pattern(inputs["pattern"])
        fss, aero, maritime = (), [()] * 24, [()] * 24
        if only == "population":
            fss = oracles.load_population(inputs["population"])
        elif only == "aero":
            aero = oracles.load_movements(inputs["aero"], range(24), AERO_HEADER,
                                          "flight_id", TrafficType.AERO, 10.0, DEFAULT_BBOX)
        else:
            maritime = oracles.load_movements(inputs["maritime"], range(24), MARITIME_HEADER,
                                              "ship_id", TrafficType.MARITIME, 8.0,
                                              DEFAULT_BBOX)
        demand = hourly_profiles_oracle(fss, aero, maritime, all_footprints(pattern), pattern)
        assert demand.any()
        oracles.write_profile_csv(HourlyProfile(demand_mbps=demand), tmp_path / "want.csv")
        assert (out / "profile.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()

    def test_outputs_written(self, inputs, tmp_path):
        rc = cli.main(
            ["profile", "--pattern", str(inputs["pattern"]),
             "--maritime", str(inputs["maritime"]),
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        assert (tmp_path / "profile.csv").exists()
        assert (tmp_path / "beam_class.csv").exists()
        classes = (tmp_path / "beam_class.csv").read_text().splitlines()[1:]
        assert len(classes) == 7

    def test_no_demand_inputs_is_usage_error(self, inputs, tmp_path, capsys):
        rc = cli.main(
            ["profile", "--pattern", str(inputs["pattern"]),
             "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "demand input" in capsys.readouterr().err

    def test_half_configured_thresholds_rejected(self, inputs, tmp_path, capsys):
        rc = cli.main(
            ["profile", "--pattern", str(inputs["pattern"]),
             "--maritime", str(inputs["maritime"]),
             "--lower", "1.0", "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "thresholds" in capsys.readouterr().err

    def test_explicit_thresholds_recorded(self, inputs, tmp_path):
        rc = cli.main(
            ["profile", "--pattern", str(inputs["pattern"]),
             "--maritime", str(inputs["maritime"]),
             "--lower", "0.5", "--upper", "20",
             "--out-dir", str(tmp_path)]
        )
        assert rc == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["config"]["lower"] == 0.5
        assert manifest["config"]["upper"] == 20


@pytest.mark.parametrize("command", [["simulate", "--hour", "9"], ["profile"]])
def test_no_object_per_terminal(inputs, tmp_path, monkeypatch, command):
    # terminals stay columns from the loaders to the writers, and the channel
    # build reads each distinct location's floats without a GeoPoint
    built = collections.Counter()
    for cls in (ingest.Terminal, GeoPoint):
        post_init = cls.__post_init__

        def counted(self, post_init=post_init, name=cls.__name__):
            built[name] += 1
            post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    out = tmp_path / "out"
    assert cli.main([command[0], *demand_argv(inputs), *command[1:],
                     "--out-dir", str(out)]) == 0
    assert dict(built) == {}


@pytest.mark.parametrize("command", [["simulate", "--hour", "9"],
                                     ["interference", "--hour", "9", "--sizes", "1"]])
def test_users_below_the_horizon_leave_previous_run_alone(inputs, tmp_path, capsys,
                                                         command):
    # one beam whose footprint reaches the ingest box corner at 80N 40W,
    # which the default satellite at 0N 13E sees at -2.68 deg
    far = dict(inputs)
    far["pattern"] = ingest.synth_pattern(tmp_path / "pattern.csv", 5, beams=1,
                                          center_lat=78.5, center_lon=-38.5,
                                          radius3db_deg=1.0, pitch_deg=0.25)
    far["population"] = ingest.synth_population(
        tmp_path / "population.csv", 6, cells=40, lat_min=78.0, lat_max=80.0,
        lon_min=-40.0, lon_max=-37.0, urban_fraction=1.0)
    out = tmp_path / "out"
    argv = [command[0], "--out-dir", str(out), *command[1:]]
    assert cli.main(argv + demand_argv(inputs)) == 0
    before = snapshot(out)
    capsys.readouterr()
    assert cli.main(argv + demand_argv(far)) == 1
    assert "does not see the satellite" in capsys.readouterr().err
    assert snapshot(out) == before


class TestInterferenceCommand:
    def test_rerun_identical(self, inputs, tmp_path):
        args = [
            "interference", *demand_argv(inputs), "--hour", "9",
            "--sizes", "2..5", "--users", "1,2,3",
        ]
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(args + ["--out-dir", str(a)]) == 0
        assert cli.main(args + ["--out-dir", str(b)]) == 0
        for artifact in ("interference.csv", "manifest.json"):
            assert (a / artifact).read_bytes() == (b / artifact).read_bytes()
        lines = (a / "interference.csv").read_text().splitlines()
        assert lines[0] == "user,active_beams,interference_w"
        assert len(lines) == 1 + 3 * 4
        manifest = json.loads((a / "manifest.json").read_text())
        assert manifest["seed"] is None
        assert manifest["config"]["sizes"] == [2, 3, 4, 5]

    def test_matches_enumeration_oracle(self, inputs, tmp_path):
        rc = cli.main(
            ["interference", *demand_argv(inputs), "--hour", "9",
             "--sizes", "1..7", "--users", "1,2,3", "--out-dir", str(tmp_path / "out")]
        )
        assert rc == 0
        pattern = parse_pattern(inputs["pattern"])
        T = build_traffic_matrix(
            all_footprints(pattern), pattern, load_population(inputs["population"]),
            load_aero(inputs["aero"], 9), load_maritime(inputs["maritime"], 9),
        )
        cfg = ScenarioConfig()
        sweep = oracles.interference_sweep(
            build_channel_matrix(T, pattern, cfg), cfg, range(1, 8), users=[1, 2, 3]
        )
        want = tmp_path / "want.csv"
        oracles.write_interference_csv(sweep, want)
        assert (tmp_path / "out" / "interference.csv").read_bytes() == want.read_bytes()

    @pytest.mark.parametrize(
        "flag", [["--policy", "exhaustive"], ["--trials", "5"], ["--seed", "1"]],
        ids=["policy", "trials", "seed"],
    )
    def test_sampling_flags_are_gone(self, inputs, tmp_path, flag, capsys):
        rc = cli.main(
            ["interference", *demand_argv(inputs), "--hour", "9", "--sizes", "2",
             *flag, "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err
        assert not (tmp_path / "interference.csv").exists()

    def test_bad_sizes_usage_error(self, inputs, tmp_path, capsys):
        rc = cli.main(
            ["interference", *demand_argv(inputs), "--hour", "9",
             "--sizes", "two", "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "sizes" in capsys.readouterr().err

    def test_size_above_beam_count_is_input_error(self, inputs, tmp_path, capsys):
        rc = cli.main(
            ["interference", *demand_argv(inputs), "--hour", "9",
             "--sizes", "9", "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "outside" in capsys.readouterr().err

    @pytest.mark.parametrize("users", ["", ","])
    def test_empty_users_list_is_usage_error(self, inputs, tmp_path, capsys, users):
        rc = cli.main(
            ["interference", *demand_argv(inputs), "--hour", "9",
             "--sizes", "2", "--users", users, "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert f"bad users list {users!r}" in capsys.readouterr().err
        assert not (tmp_path / "interference.csv").exists()

    def test_unknown_user_is_input_error(self, inputs, tmp_path, capsys):
        rc = cli.main(
            ["interference", *demand_argv(inputs), "--hour", "9",
             "--sizes", "2", "--users", "1,99999", "--out-dir", str(tmp_path)]
        )
        assert rc == 1
        assert "user 99999 outside [1, " in capsys.readouterr().err
        assert not (tmp_path / "interference.csv").exists()


class TestTopLevel:
    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1
        assert ("error: the following arguments are required: command"
                in capsys.readouterr().err)

    def test_unknown_flag(self, capsys):
        assert cli.main(["footprints", "x.csv", "--frobnicate"]) == 1
        assert "unrecognized arguments: --frobnicate" in capsys.readouterr().err

    def test_non_integer_hour(self, inputs, capsys):
        rc = cli.main(
            ["simulate", *demand_argv(inputs), "--hour", "soon"]
        )
        assert rc == 1

    def test_internal_error_maps_to_two(self, inputs, tmp_path, monkeypatch,
                                         capsys):
        def boom(path):
            raise RuntimeError("corrupted state")

        monkeypatch.setattr(cli, "parse_pattern", boom)
        rc = cli.main(["footprints", str(inputs["pattern"]),
                       "--out-dir", str(tmp_path)])
        assert rc == 2
        assert "internal error" in capsys.readouterr().err


def readme_commands():
    """The README's fenced `sattraffic ...` commands in order, each as argv
    without the program name, continuation lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    commands = []
    for block in text.split("```")[1::2]:
        for command in block.replace("\\\n", " ").splitlines():
            if command.startswith("sattraffic "):
                commands.append(shlex.split(command)[1:])
    return commands


def test_readme_commands_run(tmp_path, monkeypatch):
    commands = readme_commands()
    assert [argv[0] for argv in commands] == (
        ["synth"] * 4 + ["footprints", "simulate", "profile", "interference"])
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv) == 0, argv
