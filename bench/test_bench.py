"""Tests of the benchmark itself: span arithmetic, digest checks, failure counts.

    python3 -m pytest -q bench
"""

import json
import re
import subprocess
import sys

import pytest

import run
import tracer


class FakeClock:
    """A clock that reads from a script of times, one per call."""

    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_of_nested_spans():
    spans = [
        ("outer", 0.0, 10.0, -1),
        ("middle", 1.0, 7.0, 0),
        ("inner", 2.0, 5.0, 1),
    ]
    assert tracer.self_times(spans) == [4.0, 3.0, 3.0]


def test_self_time_of_sibling_spans():
    spans = [
        ("parent", 0.0, 10.0, -1),
        ("a", 1.0, 3.0, 0),
        ("b", 4.0, 8.0, 0),
        ("a", 8.0, 9.0, 0),
    ]
    seconds, calls = tracer.span_totals(spans)
    assert seconds == {"parent": 3.0, "a": 3.0, "b": 4.0}
    assert calls == {"parent": 1, "a": 2, "b": 1}


def test_overlapping_children_are_counted_once():
    spans = [("parent", 0.0, 10.0, -1), ("a", 1.0, 6.0, 0), ("b", 4.0, 12.0, 0)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.0)


def test_wrapped_calls_record_parent_and_times():
    # clock reads: outer start, inner start, inner end, outer end
    t = tracer.Tracer(clock=FakeClock([0.0, 1.0, 4.0, 6.0]))
    inner = t.wrap("inner", lambda x: x + 1)
    outer = t.wrap("outer", lambda x: inner(x) * 2)
    assert outer(1) == 4
    assert sorted(t.spans) == [("inner", 1.0, 4.0, 0), ("outer", 0.0, 6.0, -1)]
    seconds, _ = tracer.span_totals(t.spans)
    assert seconds == {"outer": 3.0, "inner": 3.0}


def test_counting_time_is_charged_to_no_layer():
    # clock reads: outer start, inner start, inner end, count start, count
    # end, outer end
    t = tracer.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 2.0, 5.0, 6.0]))

    def count(tr, args, result):
        tr.counts["seen"] += args["x"]

    inner = t.wrap("inner", lambda x: x, count)
    outer = t.wrap("outer", lambda x: inner(x))
    outer(7)
    seconds, _ = tracer.span_totals(t.spans)
    assert seconds["outer"] == 2.0
    assert seconds["inner"] == 1.0
    assert seconds[tracer.TRACE] == 3.0
    assert t.counts["seen"] == 7


def test_exception_still_closes_the_span():
    t = tracer.Tracer(clock=FakeClock([0.0, 2.0]))

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        t.wrap("boom", boom)()
    assert t.spans == [("boom", 0.0, 2.0, -1)]
    assert t._stack == []


def test_checker_against_pinned_digests():
    checker = run.Checker({"a.csv": "1", "b.csv": "2"})
    assert checker.check({"a.csv": "1", "b.csv": "2"})
    assert not checker.check({"a.csv": "1", "b.csv": "3"})
    assert not checker.check({"a.csv": None, "b.csv": "2"})


def test_checker_without_pins_takes_the_first_run_as_reference():
    checker = run.Checker(None)
    assert checker.check({"a.csv": "1"})
    assert checker.check({"a.csv": "1"})
    assert not checker.check({"a.csv": "9"})


TINY = run.Workload(
    "tiny",
    (
        ("pattern", 11, ("pitch_deg=0.5",)),
        ("population", 12, ("cells=150",)),
        ("aero", 13, ("flights=40",)),
        ("maritime", 14, ("ships=30",)),
    ),
    run.WORKLOADS["sim_M"].argv,
    run.WORKLOADS["sim_M"].outputs,
    (run.HOUR,),
)


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    directory = tmp_path_factory.mktemp("tiny")
    r = run.Run(TINY, 0, directory)
    r.setup()
    return r


def test_output_mismatch_counts_as_failed(tiny_run, capsys):
    r = run.Run(TINY, 0, tiny_run.dir)
    assert r.run_untraced().code == 0
    reference = dict(r.outputs.expected)
    r.outputs = run.Checker({**reference, "channel.csv": "0" * 64})
    assert r.run_untraced().code == 0
    assert (r.attempted, r.failed) == (2, 1)

    run.report(r, {"wall_s": 1.5}, {"wall_s": "s"})
    lines = capsys.readouterr().out.splitlines()
    assert "failed_frac 0.5" in lines[0]
    result = json.loads(lines[-1])
    assert result == {"correct": False, "attempted": 2, "failed": 1,
                      "metrics": {"wall_s": {"value": 1.5, "unit": "s"}}}


def test_traced_run_matches_untraced_bytes(tiny_run):
    r = run.Run(TINY, 0, tiny_run.dir)
    assert r.run_untraced().code == 0
    child, result = r.run_traced()
    assert child.code == 0 and r.failed == 0
    metrics = result["metrics"]
    assert result["missing_hooks"] == []
    assert set(metrics) == set(tracer.LAYER_METRICS)
    assert metrics["traffic.calls"] == 1
    assert metrics["traffic.terminals_in"] == metrics["ingest.terminals"]
    assert metrics["traffic.served"] + metrics["traffic.excluded"] == metrics["traffic.terminals_in"]
    assert metrics["linkbudget.entries"] == metrics["traffic.served"] * 7
    assert metrics["linkbudget.channel_s"] > 0


def test_benchmark_fails_without_the_program(tmp_path):
    """Without src/ the set-up cannot run: non-zero exit and no result line."""
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in ("run.py", "tracer.py", "pinned.json"):
        (bench / name).write_bytes((run.BENCH / name).read_bytes())
    proc = subprocess.run(
        [sys.executable, str(bench / "run.py"), "--workload", "profile_S", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_names_what_the_runs_report():
    doc = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(doc) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in doc["workloads"]} == set(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == run.LAYER_UNITS
    names = [m["name"] for m in doc["end_to_end"] + doc["per_layer"]]
    assert len(names) == len(set(names))
    for m in doc["end_to_end"] + doc["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", m["name"])
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", m["unit"])
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25
