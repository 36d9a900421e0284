"""sattraffic benchmark: end-to-end and per-layer metrics of two CLI workloads.

    python3 bench/run.py --workload sim_M --seed 0 --seconds 40 --trace 0

For one workload the benchmark
- generates the inputs with ``sattraffic synth`` from the workload seed,
  several times, and times it (``setup_s``);
- with ``--trace 0``, runs the workload's command as a child process,
  untraced, again and again for ``--seconds`` seconds (at least three
  times), and reports medians of wall time and peak RSS;
- with ``--trace 1``, runs the command once untraced and once traced
  (bench/tracer.py), and reports the per-layer metrics;
- checks every input and output file against the digests pinned in
  bench/pinned.json at the default seed, and against the first run of the
  set at any other seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. Lines before it give
each metric's median, quartiles and sample count. ``--record`` rewrites
bench/pinned.json from the default seed. See bench/README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = ROOT / "bench"
WORK = ROOT / ".bench_work"
PINNED = BENCH / "pinned.json"

DEFAULT_SEED = 0
MIN_REPS = 3
SETUP_REPS = 3
STARTUP_REPS = 3
# a run must end within 180 s; children still running past this are killed
RUN_BUDGET_S = 170.0
HOUR = 9

# the console script `sattraffic` is sattraffic.cli:main
CLI = [sys.executable, "-c", "import sys; from sattraffic.cli import main; sys.exit(main())"]
INPUT_FILES = ("pattern.csv", "population.csv", "aero.csv", "maritime.csv")
DEMAND_ARGS = [
    "--pattern", "in/pattern.csv", "--population", "in/population.csv",
    "--aero", "in/aero.csv", "--maritime", "in/maritime.csv",
]

# (kind, synth seed at the default workload seed, generator parameters).
# S is ROADMAP's S recipe (acceptance 9). M keeps L's beam layout at twice
# its grid pitch with about a third of its terminals, so that one simulate
# takes ~6 s rather than ~57 s and a run fits several repetitions.
S_RECIPE = (
    ("pattern", 91, ()),
    ("population", 92, ("cells=1000", "urban_fraction=0.15")),
    ("aero", 93, ("flights=800",)),
    ("maritime", 94, ("ships=600",)),
)
M_RECIPE = (
    ("pattern", 1, ("beams=37", "spacing_deg=1.5", "radius3db_deg=1.0", "pitch_deg=0.2")),
    ("population", 2, ("cells=600", "urban_fraction=0.15")),
    ("aero", 3, ("flights=2000",)),
    ("maritime", 4, ("ships=1200",)),
)


@dataclass(frozen=True)
class Workload:
    name: str
    recipe: tuple
    argv: tuple  # the sattraffic command line
    outputs: tuple
    hours: tuple  # the hours whose terminals the command associates


WORKLOADS = {
    w.name: w
    for w in (
        Workload("sim_M", M_RECIPE,
                 ("simulate", *DEMAND_ARGS, "--hour", str(HOUR), "--out-dir", "out"),
                 ("traffic.csv", "channel.csv", "channel_summary.json", "manifest.json"),
                 (HOUR,)),
        Workload("profile_S", S_RECIPE, ("profile", *DEMAND_ARGS, "--out-dir", "out"),
                 ("profile.csv", "beam_class.csv", "manifest.json"), tuple(range(24))),
    )
}

END_TO_END_UNITS = {
    "wall_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "terminal_hours_per_s": "terminal-hours/s",
}
LAYER_UNITS = {
    **LAYER_METRICS,
    # measured from outside the traced process
    "ioutil.bytes_written": "bytes",
    "cli.startup_s": "s",
    "trace.overhead_s": "s",
}


def synth_seed(kind, base, seed):
    """Synth seed of one input. The population raster keeps its recipe seed:
    its terminal count swings by about 9% between seeds, which would swamp
    the bounds; the other inputs move with the workload seed."""
    return base if kind == "population" else base + 4 * seed


def synth_argv(kind, base, params, seed):
    argv = ["synth", kind, "--seed", str(synth_seed(kind, base, seed)), "--out-dir", "in"]
    for param in params:
        argv += ["--param", param]
    return argv


class SetupError(Exception):
    """The program could not generate the inputs, so nothing can be measured."""


@dataclass
class Child:
    code: int
    wall_s: float
    peak_rss_mb: float


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    return env


def spawn(argv, cwd, log, timeout):
    """Run one child to completion: exit code, wall time from spawn to exit,
    and its own peak RSS from wait4. A child past the timeout is killed."""
    with open(log, "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(max(timeout, 1.0), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    return Child(code, wall, usage.ru_maxrss / 1024.0)


def sha256(path):
    """The benchmark's own hash, so the check does not rely on the program's."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def digests(directory, names):
    return {name: sha256(directory / name) if (directory / name).is_file() else None
            for name in names}


class Checker:
    """Compares each run's file digests with the pinned ones at the default
    seed, and with the first run of the set at any other seed."""

    def __init__(self, pinned):
        self.expected = dict(pinned or {})

    def check(self, got):
        """True when every digest in got matches; the first sighting of a
        file with nothing pinned becomes its reference."""
        ok = True
        for name, digest in got.items():
            ok &= digest is not None and self.expected.setdefault(name, digest) == digest
        return ok


def load_pinned(workload, seed):
    if seed != DEFAULT_SEED:
        return None, None
    entry = json.loads(PINNED.read_text(encoding="utf-8"))["workloads"][workload.name]
    return entry["inputs"], entry["outputs"]


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


class Run:
    """One benchmark invocation on one workload: attempts, failures, samples."""

    def __init__(self, workload, seed, directory, pinned=(None, None)):
        self.workload = workload
        self.seed = seed
        self.dir = directory
        self.log = directory / "stderr.log"
        self.attempted = 0
        self.failed = 0
        self.samples = {}
        self.inputs = Checker(pinned[0])
        self.outputs = Checker(pinned[1])
        self.deadline = time.monotonic() + RUN_BUDGET_S

    def spawn(self, argv):
        return spawn(argv, self.dir, self.log, self.deadline - time.monotonic())

    def count(self, ok):
        self.attempted += 1
        self.failed += not ok

    def sample(self, name, value):
        self.samples.setdefault(name, []).append(value)

    def setup(self):
        """Generate the inputs once; returns the wall time of the synth commands."""
        start = time.perf_counter()
        for kind, base, params in self.workload.recipe:
            child = self.spawn([*CLI, *synth_argv(kind, base, params, self.seed)])
            if child.code != 0:
                raise SetupError(f"synth {kind} exited with {child.code}; see {self.log}")
        wall = time.perf_counter() - start
        self.count(self.inputs.check(digests(self.dir / "in", INPUT_FILES)))
        return wall

    def run_untraced(self):
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        child = self.spawn([*CLI, *self.workload.argv])
        ok = child.code == 0 and self.outputs.check(digests(self.dir / "out", self.workload.outputs))
        self.count(ok)
        return child

    def run_traced(self):
        shutil.rmtree(self.dir / "out", ignore_errors=True)
        metrics_path = self.dir / "trace_metrics.json"
        metrics_path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "tracer.py"), str(metrics_path),
                str(self.dir / "spans.csv"), "--", *self.workload.argv]
        child = self.spawn(argv)
        ok = child.code == 0 and self.outputs.check(digests(self.dir / "out", self.workload.outputs))
        self.count(ok)
        if child.code != 0:
            return child, None
        return child, json.loads(metrics_path.read_text(encoding="utf-8"))


def terminal_hours(directory, hours):
    """Terminals entering association, summed over the hours a command
    processes, counted with the program's own loaders and default config."""
    from sattraffic.ingest import IngestConfig, load_aero, load_maritime, load_population

    cfg = IngestConfig()
    fss = len(load_population(directory / "in" / "population.csv", cfg.downscale,
                              cfg.urban, bbox=cfg.bbox))
    total = 0
    for hour in hours:
        total += fss
        total += len(load_aero(directory / "in" / "aero.csv", hour, bbox=cfg.bbox))
        total += len(load_maritime(directory / "in" / "maritime.csv", hour, bbox=cfg.bbox))
    return total


def measure(run, seconds):
    """Untraced end-to-end metrics: every sample, and the medians."""
    for _ in range(SETUP_REPS):
        run.sample("setup_s", run.setup())
    th = terminal_hours(run.dir, run.workload.hours)
    start = time.perf_counter()
    reps = 0
    while reps < MIN_REPS or time.perf_counter() - start < seconds:
        child = run.run_untraced()
        reps += 1
        if child.code == 0:
            run.sample("wall_s", child.wall_s)
            run.sample("peak_rss_mb", child.peak_rss_mb)
            run.sample("terminal_hours_per_s", th / child.wall_s)
    if "wall_s" not in run.samples:
        raise SetupError(f"{run.workload.argv[0]} never exited 0; see {run.log}")
    return {name: quartiles(run.samples[name])[1] for name in END_TO_END_UNITS}


def trace(run):
    """Per-layer metrics from one traced run, next to one untraced run."""
    run.setup()
    untraced = run.run_untraced()
    traced, result = run.run_traced()
    if untraced.code != 0 or result is None:
        raise SetupError(f"{run.workload.argv[0]} failed under the benchmark; see {run.log}")
    for _ in range(STARTUP_REPS):
        run.sample("cli.startup_s", run.spawn([sys.executable, "-c", "import sattraffic.cli"]).wall_s)
    if result["missing_hooks"]:
        print(f"warning: no such function to trace: {', '.join(result['missing_hooks'])}")
    metrics = dict(result["metrics"])
    metrics["ioutil.bytes_written"] = float(
        sum(f.stat().st_size for f in (run.dir / "out").iterdir() if f.is_file())
    )
    metrics["cli.startup_s"] = quartiles(run.samples["cli.startup_s"])[1]
    metrics["trace.overhead_s"] = traced.wall_s - result["teardown_s"] - untraced.wall_s
    return metrics


def report(run, metrics, units):
    print(f"workload {run.workload.name} seed {run.seed}: {run.attempted} attempted, "
          f"{run.failed} failed, failed_frac {run.failed / run.attempted:.4g}")
    for name, unit in units.items():
        values = run.samples.get(name)
        if values:
            q1, median, q3 = quartiles(values)
            print(f"  {name:26s} median {median:.6g} {unit}  q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
        elif name in metrics:
            print(f"  {name:26s} {metrics[name]:.6g} {unit}")
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))


def fresh_dir(workload):
    directory = WORK / workload.name
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    return directory


def environment():
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__}


def sizes(directory):
    """Input sizes of a workload at the benchmark hour."""
    import numpy as np
    from sattraffic.geometry import polygon_contains_many
    from sattraffic.ingest import IngestConfig, load_aero, load_maritime, load_population
    from sattraffic.pattern import all_footprints, parse_pattern
    from sattraffic.traffic import build_traffic_matrix

    cfg = IngestConfig()
    inputs = directory / "in"
    pattern = parse_pattern(inputs / "pattern.csv")
    footprints = all_footprints(pattern)
    fss = load_population(inputs / "population.csv", cfg.downscale, cfg.urban, bbox=cfg.bbox)
    aero = load_aero(inputs / "aero.csv", HOUR, bbox=cfg.bbox)
    maritime = load_maritime(inputs / "maritime.csv", HOUR, bbox=cfg.bbox)
    terminals = [*fss, *aero, *maritime]
    lats = np.array([t.location.lat_deg for t in terminals])
    lons = np.array([t.location.lon_deg for t in terminals])
    covering = sum(polygon_contains_many(fp.border, lats, lons).astype(int) for fp in footprints)
    T = build_traffic_matrix(footprints, pattern, fss, aero, maritime)
    movement_rows = 0
    for name in ("aero.csv", "maritime.csv"):
        with open(inputs / name, encoding="utf-8") as fh:
            movement_rows += sum(1 for _ in fh) - 1
    return {
        "beams": pattern.beams,
        "samples": pattern.samples_per_beam,
        "terminals": len(terminals),
        "served": T.n_users,
        "contested": int((covering > 1).sum()),
        "distinct_locations": len({(t.location.lat_deg, t.location.lon_deg) for t in terminals}),
        "movement_rows": movement_rows,
    }


def record():
    """Rewrite bench/pinned.json from one untraced run of each workload at
    the default seed. Only for a change that alters output bytes on purpose."""
    pinned = {"seed": DEFAULT_SEED, "environment": environment(), "workloads": {}}
    for workload in WORKLOADS.values():
        directory = fresh_dir(workload)
        run = Run(workload, DEFAULT_SEED, directory)
        run.setup()
        if run.run_untraced().code != 0:
            raise SetupError(f"{workload.name} failed; see {run.log}")
        pinned["workloads"][workload.name] = {
            "command": ["sattraffic", *workload.argv],
            "synth": [["sattraffic", *synth_argv(kind, base, params, DEFAULT_SEED)]
                      for kind, base, params in workload.recipe],
            "sizes": sizes(directory),
            "inputs": run.inputs.expected,
            "outputs": run.outputs.expected,
        }
        print(f"recorded {workload.name}")
    PINNED.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite bench/pinned.json from the default seed")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not args.record and args.workload is None:
        parser.error("--workload is required")
    return args


def main(argv=None):
    args = parse_args(argv)
    # turn a SIGTERM into SystemExit, so that spawn() kills its child first
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        if not (SRC / "sattraffic").is_dir():
            raise SetupError(f"no program source at {SRC / 'sattraffic'}")
        sys.path.insert(0, str(SRC))
        if args.record:
            record()
            return 0
        workload = WORKLOADS[args.workload]
        run = Run(workload, args.seed, fresh_dir(workload), load_pinned(workload, args.seed))
        if args.trace:
            metrics, units = trace(run), LAYER_UNITS
        else:
            metrics, units = measure(run, args.seconds), END_TO_END_UNITS
    except (SetupError, OSError) as exc:
        print(f"benchmark error: {exc!r}", file=sys.stderr)
        return 2
    report(run, metrics, units)
    return 0 if run.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
