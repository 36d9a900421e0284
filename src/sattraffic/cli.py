"""Command-line front end for the simulation pipeline.

Five subcommands mirror the pipeline stages: synth writes seeded input
files, footprints delimits beam borders, simulate produces the traffic and
channel matrices for one hour, and profile / interference run the analyses.
Every command ends by writing a manifest with the digests of everything it
read and wrote, and identical inputs always produce byte-identical outputs.

Exit codes: 0 success, 1 bad input or usage, 2 internal invariant violation.
"""

import argparse
import dataclasses
import os
import shutil
import sys
import tempfile
from pathlib import Path

from . import __version__
from .analysis import (
    classify_beams,
    hourly_profiles,
    interference_sweep,
    write_beam_class_csv,
    write_interference_csv,
    write_profile_csv,
)
from .errors import SimulatorError
from .geo import ScenarioConfig
from .ingest import (
    SYNTH_KINDS,
    IngestConfig,
    load_aero,
    load_aero_by_hour,
    load_maritime,
    load_maritime_by_hour,
    load_population,
    parse_config,
    synth_generate,
)
from .ioutil import canonical_json, real, sha256_file, whole
from .linkbudget import build_channel_matrix, channel_summary, write_channel_csv
from .pattern import all_footprints, parse_pattern, write_borders_csv
from .traffic import build_traffic_matrix, write_traffic_csv

OUT_DIR_ENV = "SATTRAFFIC_OUT_DIR"


class UsageError(SimulatorError):
    """Bad command line; reported like any other input error."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_sizes(text):
    """Active-set sizes: comma-separated integers, 'a..b' spans allowed."""
    sizes = []
    for part in text.split(","):
        part = part.strip()
        try:
            if ".." in part:
                lo, hi = part.split("..")
                lo, hi = int(lo), int(hi)
                if hi < lo:
                    raise ValueError
                sizes.extend(range(lo, hi + 1))
            else:
                sizes.append(int(part))
        except ValueError:
            raise UsageError(f"bad sizes element {part!r}") from None
    if not sizes:
        raise UsageError("sizes must name at least one active-set size")
    return sizes


def _parse_users(text):
    try:
        users = [int(part) for part in text.split(",")]
    except ValueError:
        raise UsageError(f"bad users list {text!r}") from None
    return users


def _parse_param(text):
    """One generator override, name=value with a numeric value."""
    name, sep, value = text.partition("=")
    if not sep or not name:
        raise UsageError(f"parameters take the form name=value, got {text!r}")
    try:
        return name, int(value)
    except ValueError:
        pass
    try:
        number = float(value)
    except ValueError:
        raise UsageError(f"parameter {name} needs a numeric value") from None
    return name, real(number, f"parameter {name}", error=UsageError)


def _out_dir(args):
    chosen = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


class _OutputSet:
    """The files one command writes, and the manifest that names them.

    Used as a context manager around the command's work. add() takes an
    output's final path and returns the path in a staging directory inside
    the output directory, where the writer puts it. A normal exit checks
    that no final path is a directory, hashes the staged files, writes the
    manifest beside them, deletes the old manifest, moves each output into
    place and then the manifest, and removes the staging directory. Any
    exception, interrupts included, removes the staging directory alone and
    propagates, so the output directory keeps the earlier run's files and
    manifest byte for byte. No manifest ever names a file that is gone or
    has changed.

    Each command does its work in one call inside the block, so that none
    of its arrays is still live when the exit hashes the outputs.
    """

    def __init__(self, out_dir, *, command, config, inputs=(), seed=None):
        self.out_dir = Path(out_dir)
        self.paths = []
        self.command = command
        self.config = config
        self.inputs = inputs
        self.seed = seed

    def add(self, path):
        path = Path(path)
        self.paths.append(path)
        return self.staging / path.name

    def manifest_text(self):
        manifest = {
            "command": self.command,
            "config": self.config,
            "inputs": [
                {"name": name, "path": str(path), "sha256": sha256_file(path)}
                for name, path in self.inputs
            ],
            "outputs": [
                {"name": path.name, "sha256": sha256_file(self.staging / path.name)}
                for path in self.paths
            ],
            "seed": self.seed,
            "tool_version": __version__,
        }
        return canonical_json(manifest) + "\n"

    def commit(self):
        for path in self.paths:
            if path.is_dir():
                raise IsADirectoryError(f"output {path} is a directory")
        staged_manifest = self.staging / "manifest.json"
        staged_manifest.write_text(self.manifest_text(), encoding="utf-8")
        manifest = self.out_dir / "manifest.json"
        manifest.unlink(missing_ok=True)
        for path in self.paths:
            os.replace(self.staging / path.name, path)
        os.replace(staged_manifest, manifest)

    def __enter__(self):
        self.staging = Path(tempfile.mkdtemp(prefix=".staging-", dir=self.out_dir))
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                self.commit()
        finally:
            shutil.rmtree(self.staging, ignore_errors=True)


def _ingest_config(args):
    if getattr(args, "config", None):
        return parse_config(args.config)
    return IngestConfig()


def _config_values(icfg, scfg=None, extra=None):
    values = dataclasses.asdict(icfg)
    if scfg is not None:
        values.update(dataclasses.asdict(scfg))
    if extra:
        values.update(extra)
    return values


def _hour_matrices(args, icfg, scfg):
    """Traffic and channel matrices of the demand inputs at args.hour."""
    pattern = parse_pattern(args.pattern)
    footprints = all_footprints(pattern)
    fss = load_population(args.population, icfg)
    aero = load_aero(args.aero, args.hour, icfg)
    maritime = load_maritime(args.maritime, args.hour, icfg)
    T = build_traffic_matrix(footprints, pattern, fss, aero, maritime)
    return T, build_channel_matrix(T, pattern, scfg)


def _demand_inputs(args):
    inputs = [("pattern", args.pattern)]
    for name in ("population", "aero", "maritime"):
        value = getattr(args, name, None)
        if value:
            inputs.append((name, value))
    if getattr(args, "config", None):
        inputs.append(("config", args.config))
    return inputs


def cmd_synth(args):
    name = f"{args.kind}.csv" if args.name is None else args.name
    if os.path.basename(name) != name or name in ("", ".", "..", "manifest.json"):
        raise UsageError(
            f"--name must be a bare file name other than manifest.json, got {name!r}"
        )
    out = _out_dir(args)
    params = dict(_parse_param(p) for p in args.param or [])
    target = out / name
    with _OutputSet(
        out, command=f"synth {args.kind}", config=params, seed=args.seed
    ) as outputs:
        synth_generate(args.kind, params, args.seed, outputs.add(target))
    return 0


def cmd_footprints(args):
    out = _out_dir(args)
    pattern = parse_pattern(args.pattern)
    footprints = all_footprints(pattern)
    with _OutputSet(
        out, command="footprints", config={}, inputs=[("pattern", args.pattern)]
    ) as outputs:
        write_borders_csv(footprints, outputs.add(out / "borders.csv"))
    return 0


def cmd_simulate(args):
    whole(args.hour, "hour", 0, 23, UsageError)
    icfg = _ingest_config(args)
    scfg = ScenarioConfig()
    out = _out_dir(args)
    with _OutputSet(
        out, command="simulate",
        config=_config_values(icfg, scfg, {"hour": args.hour}),
        inputs=_demand_inputs(args),
    ) as outputs:
        _simulate(args, icfg, scfg, outputs)
    return 0


def _simulate(args, icfg, scfg, outputs):
    """The traffic, channel and summary outputs, staged in outputs."""
    T, H = _hour_matrices(args, icfg, scfg)
    out = outputs.out_dir
    write_traffic_csv(T, outputs.add(out / "traffic.csv"))
    write_channel_csv(H, outputs.add(out / "channel.csv"))
    channel_summary(H, T.excluded, outputs.add(out / "channel_summary.json"))


def cmd_profile(args):
    if not (args.population or args.aero or args.maritime):
        raise UsageError("profile needs at least one demand input")
    if (args.lower is None) != (args.upper is None):
        raise UsageError("give both classification thresholds or neither")
    icfg = _ingest_config(args)
    out = _out_dir(args)
    thresholds = extra = None
    if args.lower is not None:
        thresholds = (args.lower, args.upper)
        extra = {"lower": args.lower, "upper": args.upper}
    with _OutputSet(
        out, command="profile", config=_config_values(icfg, extra=extra),
        inputs=_demand_inputs(args),
    ) as outputs:
        _profile(args, icfg, thresholds, outputs)
    return 0


def _profile(args, icfg, thresholds, outputs):
    """The profile and beam-class outputs, staged in outputs."""
    pattern = parse_pattern(args.pattern)
    footprints = all_footprints(pattern)
    fss = load_population(args.population, icfg) if args.population else ()
    aero = maritime = [()] * 24
    if args.aero:
        aero = load_aero_by_hour(args.aero, icfg)
    if args.maritime:
        maritime = load_maritime_by_hour(args.maritime, icfg)
    profile = hourly_profiles(fss, aero, maritime, footprints, pattern)
    classes = classify_beams(profile, thresholds)

    write_profile_csv(profile, outputs.add(outputs.out_dir / "profile.csv"))
    write_beam_class_csv(classes, outputs.add(outputs.out_dir / "beam_class.csv"))


def cmd_interference(args):
    whole(args.hour, "hour", 0, 23, UsageError)
    sizes = _parse_sizes(args.sizes)
    users = None if args.users is None else _parse_users(args.users)
    icfg = _ingest_config(args)
    scfg = ScenarioConfig()
    out = _out_dir(args)
    with _OutputSet(
        out, command="interference",
        config=_config_values(icfg, scfg, {"hour": args.hour, "sizes": sizes}),
        inputs=_demand_inputs(args),
    ) as outputs:
        _interference(args, icfg, scfg, sizes, users, outputs)
    return 0


def _interference(args, icfg, scfg, sizes, users, outputs):
    """The interference sweep's output, staged in outputs."""
    _, H = _hour_matrices(args, icfg, scfg)
    sweep = interference_sweep(H, scfg, sizes, users=users)
    write_interference_csv(sweep, outputs.add(outputs.out_dir / "interference.csv"))


def _add_common(sub):
    sub.add_argument("--out-dir", help=f"output directory (default ${OUT_DIR_ENV} or .)")


def _add_demand_inputs(sub):
    sub.add_argument("--pattern", required=True, help="beam pattern CSV")
    sub.add_argument("--population", required=True, help="population raster CSV")
    sub.add_argument("--aero", required=True, help="flight log CSV")
    sub.add_argument("--maritime", required=True, help="vessel log CSV")
    sub.add_argument("--config", help="key = value ingest configuration")


def build_parser():
    parser = _Parser(prog="sattraffic", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=__version__)
    subs = parser.add_subparsers(dest="command", required=True)

    synth = subs.add_parser("synth", help="write a seeded synthetic input file")
    synth.add_argument("kind", choices=SYNTH_KINDS)
    synth.add_argument("--seed", type=int, required=True)
    synth.add_argument("--name", help="output file name (default <kind>.csv)")
    synth.add_argument("--param", action="append", metavar="NAME=VALUE",
                       help="generator override, repeatable")
    _add_common(synth)
    synth.set_defaults(func=cmd_synth)

    foot = subs.add_parser("footprints", help="delimit beam borders")
    foot.add_argument("pattern", help="beam pattern CSV")
    _add_common(foot)
    foot.set_defaults(func=cmd_footprints)

    sim = subs.add_parser("simulate", help="traffic and channel matrices for one hour")
    _add_demand_inputs(sim)
    sim.add_argument("--hour", type=int, required=True)
    _add_common(sim)
    sim.set_defaults(func=cmd_simulate)

    prof = subs.add_parser("profile", help="24-hour demand profile and beam classes")
    prof.add_argument("--pattern", required=True)
    prof.add_argument("--population")
    prof.add_argument("--aero")
    prof.add_argument("--maritime")
    prof.add_argument("--config")
    prof.add_argument("--lower", type=float, help="cold threshold in Mbps")
    prof.add_argument("--upper", type=float, help="hot threshold in Mbps")
    _add_common(prof)
    prof.set_defaults(func=cmd_profile)

    intf = subs.add_parser("interference", help="interference vs active-beam count")
    _add_demand_inputs(intf)
    intf.add_argument("--hour", type=int, required=True)
    intf.add_argument("--sizes", required=True,
                      help="active-set sizes, e.g. 2,4 or 2..7")
    intf.add_argument("--users", help="comma-separated user indices (default all)")
    _add_common(intf)
    intf.set_defaults(func=cmd_interference)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (SimulatorError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
