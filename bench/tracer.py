"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each sattraffic layer at the module
attribute where the caller looks them up (``sattraffic.cli.parse_pattern``,
``sattraffic.pattern.delaunay``, ``sattraffic.linkbudget.slant_range``, ...).
Each wrapper records a span: name, start, end and the index of the span that
was open when it was called. Spans stay in memory and are written out when
the run ends. A layer's self time is its spans' time minus the part of it
that their child spans cover. Nothing under ``src/`` changes, and the trace
follows whatever the CLI actually calls.

Counts (rows parsed, terminals, served users, bytes hashed, ...) are taken
from the arguments and results at the same boundaries. The time spent taking
them is recorded as a ``trace`` span, so it is charged to no layer.

Run as a script, it installs the wrappers, calls ``sattraffic.cli.main`` in
this process and writes the per-layer metrics as JSON and the spans as CSV:

    python3 bench/tracer.py METRICS.json SPANS.csv -- simulate --pattern ...

The workloads run single-threaded; spans from several threads would share
one parent stack.
"""

import array
import collections
import functools
import importlib
import inspect
import json
import os
import resource
import sys
import time
from datetime import datetime, timezone

TRACE = "trace"

# per-layer metrics of the traced run, name -> unit; the benchmark adds the
# ones measured from outside the traced process (cli.startup_s,
# ioutil.bytes_written, trace.overhead_s)
LAYER_METRICS = {
    "pattern.parse_s": "s",
    "pattern.footprints_s": "s",
    "pattern.rows": "count",
    "geometry.delaunay_s": "s",
    "geometry.delaunay_points": "count",
    "geometry.hull_s": "s",
    "geometry.contains_s": "s",
    "geometry.contains_points": "count",
    "ingest.population_s": "s",
    "ingest.movements_s": "s",
    "ingest.calls": "count",
    "ingest.rows_parsed": "count",
    "ingest.terminals": "count",
    "ingest.dropped": "count",
    "ingest.useful_row_ratio": "ratio",
    "traffic.associate_s": "s",
    "traffic.associate_hwm_mb": "MB",
    "traffic.calls": "count",
    "traffic.terminals_in": "count",
    "traffic.served": "count",
    "traffic.excluded": "count",
    "traffic.distinct_ratio": "ratio",
    "traffic.write_csv_s": "s",
    "linkbudget.channel_s": "s",
    "linkbudget.channel_hwm_mb": "MB",
    "linkbudget.entries": "count",
    "linkbudget.write_csv_s": "s",
    "linkbudget.summary_s": "s",
    "geo.slant_range_s": "s",
    "analysis.profiles_s": "s",
    "analysis.write_csv_s": "s",
    "ioutil.hash_s": "s",
    "ioutil.hash_bytes": "bytes",
    "cli.self_s": "s",
}


class Tracer:
    """Records spans and counts for one traced run.

    Spans are kept in flat arrays rather than one object each, so that
    hundreds of thousands of spans take little memory and add no objects to
    the traced program's heap.
    """

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names = []
        self._name = array.array("i")
        self._start = array.array("d")
        self._end = array.array("d")
        self._parent = array.array("i")
        self._stack = []
        self.counts = collections.Counter()
        self.maxima = {}
        self._rows = {}

    @property
    def spans(self):
        """[(name, start, end, parent index or -1)], in call order."""
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent)
        ]

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name, fn, count=None):
        """fn recorded as a span; count(tracer, arguments, result) runs after it."""
        signature = inspect.signature(fn) if count is not None else None
        name_id = self._name_id(name)
        trace_id = self._name_id(TRACE)
        clock, stack = self.clock, self._stack
        names, starts, ends, parents = self._name, self._start, self._end, self._parent

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(starts)
            parent = stack[-1] if stack else -1
            names.append(name_id)
            parents.append(parent)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if count is not None:
                start = clock()
                count(self, signature.bind(*args, **kwargs).arguments, result)
                names.append(trace_id)
                parents.append(parent)
                starts.append(start)
                ends.append(clock())
            return result

        return wrapper

    def high_water(self, name):
        """Keep the process's peak RSS so far, in MB, as the maximum of name."""
        mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self.maxima[name] = max(self.maxima.get(name, 0.0), mb)

    def data_rows(self, path):
        """(rows, rows per UTC hour) of a CSV input; the hour is that of column 2."""
        key = os.fspath(path)
        if key not in self._rows:
            rows = 0
            per_hour = collections.Counter()
            with open(key, encoding="utf-8") as fh:
                fh.readline()
                for line in fh:
                    if not line.strip():
                        continue
                    rows += 1
                    fields = line.split(",")
                    if len(fields) == 4:
                        per_hour[_utc_hour(fields[1])] += 1
            self._rows[key] = (rows, per_hour)
        return self._rows[key]


def _utc_hour(text):
    stamp = datetime.fromisoformat(text.strip().replace("Z", "+00:00"))
    if stamp.tzinfo is None:
        stamp = stamp.replace(tzinfo=timezone.utc)
    return stamp.astimezone(timezone.utc).hour


def self_times(spans):
    """Self time of each span: its duration minus the union of its children's."""
    children = collections.defaultdict(list)
    for _, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for child_start, child_end in sorted(children.get(i, ())):
            lo = max(child_start, reach)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def span_totals(spans):
    """Self time and call count per span name."""
    seconds = collections.defaultdict(float)
    calls = collections.Counter()
    for span, own in zip(spans, self_times(spans)):
        seconds[span[0]] += own
        calls[span[0]] += 1
    return seconds, calls


# -- counters, one per wrapped boundary ---------------------------------------


def _count_pattern(tracer, args, pattern):
    tracer.counts["pattern.rows"] += pattern.beams * pattern.samples_per_beam


def _count_delaunay(tracer, args, result):
    tracer.counts["geometry.delaunay_points"] += len(args["points"])


def _count_contains(tracer, args, result):
    tracer.counts["geometry.contains_points"] += len(result)


def _count_terminals(tracer, terminals):
    tracer.counts["ingest.terminals"] += len(terminals)
    tracer.counts["ingest.dropped"] += getattr(terminals, "dropped", 0)


def _count_population(tracer, args, terminals):
    rows, _ = tracer.data_rows(args["source"])
    tracer.counts["ingest.rows_parsed"] += rows
    _count_terminals(tracer, terminals)


def _count_movements(tracer, args, terminals):
    rows, per_hour = tracer.data_rows(args["source"])
    tracer.counts["ingest.rows_parsed"] += rows
    tracer.counts["ingest.movement_rows"] += rows
    tracer.counts["ingest.useful_rows"] += per_hour[args["hour"]]
    _count_terminals(tracer, terminals)


def _count_associate(tracer, args, T):
    terminals = [*args["fss"], *args["aero"], *args["maritime"]]
    tracer.counts["traffic.terminals_in"] += len(terminals)
    tracer.counts["traffic.distinct"] += len(
        {(t.location.lat_deg, t.location.lon_deg) for t in terminals}
    )
    tracer.counts["traffic.served"] += T.n_users
    tracer.counts["traffic.excluded"] += T.excluded
    tracer.high_water("traffic.associate_hwm_mb")


def _count_channel(tracer, args, H):
    tracer.counts["linkbudget.entries"] += H.entries.size
    tracer.high_water("linkbudget.channel_hwm_mb")


def _count_hash(tracer, args, digest):
    tracer.counts["ioutil.hash_bytes"] += os.path.getsize(args["path"])


# (module, attribute, span name, counter); the attribute is the name the
# caller looks up, so a function imported into several modules is wrapped at
# each import site that a command reaches
HOOKS = (
    ("sattraffic.cli", "main", "cli.main", None),
    ("sattraffic.cli", "parse_pattern", "pattern.parse", _count_pattern),
    ("sattraffic.cli", "all_footprints", "pattern.footprints", None),
    ("sattraffic.pattern", "delaunay", "geometry.delaunay", _count_delaunay),
    ("sattraffic.pattern", "convex_hull", "geometry.hull", None),
    ("sattraffic.traffic", "polygon_contains_many", "geometry.contains", _count_contains),
    ("sattraffic.cli", "load_population", "ingest.population", _count_population),
    ("sattraffic.cli", "load_aero", "ingest.movements", _count_movements),
    ("sattraffic.cli", "load_maritime", "ingest.movements", _count_movements),
    ("sattraffic.cli", "build_traffic_matrix", "traffic.associate", _count_associate),
    ("sattraffic.analysis", "build_traffic_matrix", "traffic.associate", _count_associate),
    ("sattraffic.cli", "write_traffic_csv", "traffic.write_csv", None),
    ("sattraffic.cli", "build_channel_matrix", "linkbudget.channel", _count_channel),
    ("sattraffic.linkbudget", "slant_range", "geo.slant_range", None),
    # the interference command is no benchmark workload, but tracing it by
    # hand still splits the sweep from interference() in spans.csv
    ("sattraffic.analysis", "interference", "linkbudget.interference", None),
    ("sattraffic.cli", "interference_sweep", "analysis.sweep", None),
    ("sattraffic.cli", "write_interference_csv", "analysis.write_csv", None),
    ("sattraffic.cli", "write_channel_csv", "linkbudget.write_csv", None),
    ("sattraffic.cli", "channel_summary", "linkbudget.summary", None),
    ("sattraffic.cli", "hourly_profiles", "analysis.profiles", None),
    ("sattraffic.cli", "write_profile_csv", "analysis.write_csv", None),
    ("sattraffic.cli", "write_beam_class_csv", "analysis.write_csv", None),
    ("sattraffic.cli", "sha256_file", "ioutil.hash", _count_hash),
)


def install(tracer, hooks=HOOKS):
    """Wrap every hook's attribute; returns the hooks whose attribute is gone."""
    missing = []
    for module_name, attr, name, count in hooks:
        module = importlib.import_module(module_name)
        fn = getattr(module, attr, None)
        if fn is None:
            missing.append(f"{module_name}.{attr}")
            continue
        setattr(module, attr, tracer.wrap(name, fn, count))
    return missing


def layer_metrics(tracer, spans):
    """Every LAYER_METRICS value from the spans and the tracer's counts."""
    seconds, calls = span_totals(spans)
    c = tracer.counts
    out = {
        name: seconds[name[: -len("_s")]] if unit == "s" else float(c[name])
        for name, unit in LAYER_METRICS.items()
    }
    out["cli.self_s"] = seconds["cli.main"]
    out["ingest.calls"] = float(calls["ingest.population"] + calls["ingest.movements"])
    out["traffic.calls"] = float(calls["traffic.associate"])
    out["ingest.useful_row_ratio"] = _ratio(c["ingest.useful_rows"], c["ingest.movement_rows"])
    out["traffic.distinct_ratio"] = _ratio(c["traffic.distinct"], c["traffic.terminals_in"])
    out.update(tracer.maxima)
    return out


def _ratio(part, whole):
    return part / whole if whole else 0.0


def write_spans(spans, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index,name,start_s,end_s,parent\n")
        for i, (name, start, end, parent) in enumerate(spans):
            fh.write(f"{i},{name},{start!r},{end!r},{parent}\n")


def main(argv):
    if len(argv) < 3 or argv[2] != "--":
        print("usage: tracer.py METRICS.json SPANS.csv -- CLI-ARGS...", file=sys.stderr)
        return 2
    metrics_path, spans_path, cli_argv = argv[0], argv[1], argv[3:]
    import sattraffic.cli

    tracer = Tracer()
    missing = install(tracer)
    code = sattraffic.cli.main(cli_argv)
    done = time.perf_counter()
    spans = tracer.spans
    write_spans(spans, spans_path)
    metrics = layer_metrics(tracer, spans)
    # the benchmark takes the time after main returned out of the overhead
    result = {"exit_code": code, "missing_hooks": missing, "metrics": metrics,
              "teardown_s": time.perf_counter() - done}
    with open(metrics_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
