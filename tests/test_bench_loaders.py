"""bench/run.py's own loader calls, run against the CLI's loaders.

Every benchmark run counts terminal-hours with bench/run.py's
terminal_hours, and --record takes the input sizes with its sizes, both
through the program's loaders. A change to a loader's signature that breaks
them must fail here, not only when the benchmark runs.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

from sattraffic import cli
from sattraffic.ingest import (
    IngestConfig,
    load_aero,
    load_aero_by_hour,
    load_maritime,
    load_maritime_by_hour,
    load_population,
)
from sattraffic.pattern import all_footprints, parse_pattern
from sattraffic.traffic import build_traffic_matrix

BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.fixture(scope="module")
def bench_run():
    """bench/run.py as a module, with bench/ on sys.path for its tracer import."""
    sys.path.insert(0, str(BENCH))
    try:
        spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(BENCH))
    return module


@pytest.fixture(scope="module")
def s_inputs(bench_run, tmp_path_factory):
    """The S inputs of the profile_S workload, synthesized into a tmp dir's in/."""
    root = tmp_path_factory.mktemp("bench_s")
    for kind, base, params in bench_run.S_RECIPE:
        argv = bench_run.synth_argv(kind, base, params, bench_run.DEFAULT_SEED)
        argv[argv.index("--out-dir") + 1] = str(root / "in")
        assert cli.main(argv) == 0
    return root


def test_terminal_hours_counts_the_cli_loaders(bench_run, s_inputs):
    inputs = s_inputs / "in"
    cfg = IngestConfig()
    fss = len(load_population(inputs / "population.csv", cfg))
    aero = load_aero_by_hour(inputs / "aero.csv", cfg)
    maritime = load_maritime_by_hour(inputs / "maritime.csv", cfg)
    want = sum(fss + len(aero[h]) + len(maritime[h]) for h in range(24))
    assert fss and want > 24 * fss
    assert bench_run.terminal_hours(s_inputs, range(24)) == want


def test_sizes_count_the_cli_loaders(bench_run, s_inputs):
    inputs = s_inputs / "in"
    cfg = IngestConfig()
    hour = bench_run.HOUR
    pattern = parse_pattern(inputs / "pattern.csv")
    fss = load_population(inputs / "population.csv", cfg)
    aero = load_aero(inputs / "aero.csv", hour, cfg)
    maritime = load_maritime(inputs / "maritime.csv", hour, cfg)
    T = build_traffic_matrix(all_footprints(pattern), pattern, fss, aero, maritime)
    rows = sum(len((inputs / name).read_text().splitlines()) - 1
               for name in ("aero.csv", "maritime.csv"))
    got = bench_run.sizes(s_inputs)
    assert got["beams"] == pattern.beams == 7
    assert got["samples"] == pattern.samples_per_beam
    assert got["terminals"] == len(fss) + len(aero) + len(maritime)
    assert got["served"] == T.n_users
    assert got["movement_rows"] == rows
    assert 0 < got["distinct_locations"] <= got["terminals"]
    assert 0 <= got["contested"] <= got["terminals"]
