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
import sys
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
    DemandSnapshot,
    IngestConfig,
    load_aero,
    load_aero_by_hour,
    load_maritime,
    load_maritime_by_hour,
    load_population,
    parse_config,
    synth_generate,
)
from .ioutil import canonical_json, fmt_float, sha256_file, write_csv
from .linkbudget import build_channel_matrix, channel_summary, write_channel_csv
from .pattern import all_footprints, parse_pattern
from .traffic import build_traffic_matrix, write_traffic_csv

OUT_DIR_ENV = "SATTRAFFIC_OUT_DIR"
BORDERS_HEADER = "beam_id,vertex_idx,lat_deg,lon_deg"

_SYNTH_KINDS = ("pattern", "population", "aero", "maritime")


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
        return name, float(value)
    except ValueError:
        raise UsageError(f"parameter {name} needs a numeric value") from None


def _check_hour(hour):
    if not 0 <= hour <= 23:
        raise UsageError(f"hour must be in 0..23, got {hour}")


def _out_dir(args):
    chosen = args.out_dir or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _write_manifest(out_dir, *, command, config, inputs, outputs, seed=None):
    manifest = {
        "command": command,
        "config": config,
        "inputs": [
            {"name": name, "path": str(path), "sha256": sha256_file(path)}
            for name, path in inputs
        ],
        "outputs": [
            {"name": Path(path).name, "sha256": sha256_file(path)}
            for path in outputs
        ],
        "seed": seed,
        "tool_version": __version__,
    }
    path = out_dir / "manifest.json"
    path.write_text(canonical_json(manifest) + "\n", encoding="utf-8")
    return path


class _OutputSet:
    """Tracks files written by one command so failures leave no partials."""

    def __init__(self):
        self.paths = []

    def add(self, path):
        self.paths.append(Path(path))
        return path

    def discard(self):
        for path in self.paths:
            path.unlink(missing_ok=True)


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


def _load_hour(args, icfg, hour):
    fss = load_population(
        args.population, icfg.downscale, icfg.urban,
        demand_mbps=icfg.fss_demand_mbps, bbox=icfg.bbox,
    )
    aero = load_aero(
        args.aero, hour, demand_mbps=icfg.aero_demand_mbps, bbox=icfg.bbox
    )
    maritime = load_maritime(
        args.maritime, hour, demand_mbps=icfg.maritime_demand_mbps, bbox=icfg.bbox
    )
    return fss, aero, maritime


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
    out = _out_dir(args)
    params = dict(_parse_param(p) for p in args.param or [])
    target = out / (args.name or f"{args.kind}.csv")
    outputs = _OutputSet()
    try:
        outputs.add(synth_generate(args.kind, params, args.seed, target))
        _write_manifest(
            out,
            command=f"synth {args.kind}",
            config=params,
            inputs=[],
            outputs=outputs.paths,
            seed=args.seed,
        )
    except BaseException:
        outputs.discard()
        raise
    return 0


def cmd_footprints(args):
    out = _out_dir(args)
    pattern = parse_pattern(args.pattern)
    footprints = all_footprints(pattern)
    outputs = _OutputSet()
    try:
        borders = out / "borders.csv"

        def rows():
            for fp in footprints:
                for idx, (lat, lon) in enumerate(fp.border.vertices):
                    yield (str(fp.beam_id), str(idx), fmt_float(lat), fmt_float(lon))

        write_csv(borders, BORDERS_HEADER.split(","), rows())
        outputs.add(borders)
        _write_manifest(
            out,
            command="footprints",
            config={},
            inputs=[("pattern", args.pattern)],
            outputs=outputs.paths,
        )
    except BaseException:
        outputs.discard()
        raise
    return 0


def cmd_simulate(args):
    _check_hour(args.hour)
    icfg = _ingest_config(args)
    scfg = ScenarioConfig()
    out = _out_dir(args)
    outputs = _OutputSet()
    try:
        pattern = parse_pattern(args.pattern)
        footprints = all_footprints(pattern)
        fss, aero, maritime = _load_hour(args, icfg, args.hour)
        T = build_traffic_matrix(footprints, pattern, fss, aero, maritime)
        H = build_channel_matrix(T, pattern, scfg)

        traffic_path = out / "traffic.csv"
        write_traffic_csv(T, traffic_path)
        outputs.add(traffic_path)

        channel_path = out / "channel.csv"
        write_channel_csv(H, channel_path)
        outputs.add(channel_path)

        summary_path = out / "channel_summary.json"
        summary = channel_summary(H)
        summary["excluded_terminals"] = T.excluded
        summary_path.write_text(canonical_json(summary) + "\n", encoding="utf-8")
        outputs.add(summary_path)

        _write_manifest(
            out,
            command="simulate",
            config=_config_values(icfg, scfg, {"hour": args.hour}),
            inputs=_demand_inputs(args),
            outputs=outputs.paths,
        )
    except BaseException:
        outputs.discard()
        raise
    return 0


def cmd_profile(args):
    if not (args.population or args.aero or args.maritime):
        raise UsageError("profile needs at least one demand input")
    if (args.lower is None) != (args.upper is None):
        raise UsageError("give both classification thresholds or neither")
    icfg = _ingest_config(args)
    out = _out_dir(args)
    outputs = _OutputSet()
    try:
        pattern = parse_pattern(args.pattern)
        footprints = all_footprints(pattern)
        fss = ()
        if args.population:
            fss = load_population(
                args.population, icfg.downscale, icfg.urban,
                demand_mbps=icfg.fss_demand_mbps, bbox=icfg.bbox,
            )
        aero = maritime = [()] * 24
        if args.aero:
            aero = load_aero_by_hour(
                args.aero, demand_mbps=icfg.aero_demand_mbps, bbox=icfg.bbox
            )
        if args.maritime:
            maritime = load_maritime_by_hour(
                args.maritime, demand_mbps=icfg.maritime_demand_mbps, bbox=icfg.bbox
            )
        snapshots = [
            DemandSnapshot(hour=hour, fss=fss, aero=aero[hour], maritime=maritime[hour])
            for hour in range(24)
        ]
        profile = hourly_profiles(snapshots, footprints, pattern)
        thresholds = None
        if args.lower is not None:
            thresholds = (args.lower, args.upper)
        classes = classify_beams(profile, thresholds)

        profile_path = out / "profile.csv"
        write_profile_csv(profile, profile_path)
        outputs.add(profile_path)
        class_path = out / "beam_class.csv"
        write_beam_class_csv(classes, class_path)
        outputs.add(class_path)

        extra = {}
        if thresholds is not None:
            extra = {"lower": thresholds[0], "upper": thresholds[1]}
        _write_manifest(
            out,
            command="profile",
            config=_config_values(icfg, extra=extra),
            inputs=_demand_inputs(args),
            outputs=outputs.paths,
        )
    except BaseException:
        outputs.discard()
        raise
    return 0


def cmd_interference(args):
    _check_hour(args.hour)
    sizes = _parse_sizes(args.sizes)
    users = _parse_users(args.users) if args.users else None
    if args.trials < 1:
        raise UsageError("trials must be >= 1")
    icfg = _ingest_config(args)
    scfg = ScenarioConfig()
    out = _out_dir(args)
    outputs = _OutputSet()
    try:
        pattern = parse_pattern(args.pattern)
        footprints = all_footprints(pattern)
        fss, aero, maritime = _load_hour(args, icfg, args.hour)
        T = build_traffic_matrix(footprints, pattern, fss, aero, maritime)
        H = build_channel_matrix(T, pattern, scfg)
        sweep = interference_sweep(
            H, T, scfg, sizes,
            policy=args.policy, trials=args.trials, seed=args.seed, users=users,
        )
        sweep_path = out / "interference.csv"
        write_interference_csv(sweep, sweep_path)
        outputs.add(sweep_path)
        _write_manifest(
            out,
            command="interference",
            config=_config_values(
                icfg, scfg,
                {
                    "hour": args.hour,
                    "sizes": list(sizes),
                    "policy": args.policy,
                    "trials": args.trials,
                },
            ),
            inputs=_demand_inputs(args),
            outputs=outputs.paths,
            seed=args.seed,
        )
    except BaseException:
        outputs.discard()
        raise
    return 0


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
    synth.add_argument("kind", choices=_SYNTH_KINDS)
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
    intf.add_argument("--trials", type=int, default=100)
    intf.add_argument("--seed", type=int, default=0)
    intf.add_argument("--policy", choices=("uniform", "exhaustive"),
                      default="uniform")
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
