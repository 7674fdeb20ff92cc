"""The repository's benchmark: named workloads, end to end and per layer.

One run of one workload (the last stdout line is the result object)::

    python3 perfbench/bench.py --workload table2-small --seed 0 \\
        --seconds 15 --trace 0

``--trace 0`` reports the end-to-end metrics, measured untraced;
``--trace 1`` makes the same timed repeats, then one more inside
telemetry, ``profile_ops`` and the timing shims, and reports the
per-layer metrics.  Every workload in its own fresh process, written
to one record file::

    python3 perfbench/bench.py --seed 0 [--workload NAME] [--traced] \\
        [--out FILE]

Two record files, side by side::

    python3 perfbench/bench.py --compare BASE.json NEW.json

BLAS is pinned to one thread before numpy loads: the serve daemon's
two workers and the harness share the cores, and an unpinned pool
oversubscribes them.  See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

import benchstats
import schema

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BLAS_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _peak_rss_mb():
    """Peak RSS of the largest process of the run: this one, or a
    waited-for child (the serve daemon, a set-up probe).  Linux: KiB."""
    peak = max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))
    return peak / 1024.0


def _git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return None
    proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def environment():
    import numpy as np

    from repro.tensor import default_dtype

    return {
        "git_sha": _git_sha(),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "default_dtype": np.dtype(default_dtype()).name,
        "blas_threads": {name: os.environ.get(name) for name in BLAS_PINS},
        "platform": platform.platform(),
    }


def _print_metric(name, unit, summary):
    extra = ""
    if summary["n"] > 1:
        extra = "  (median of %d; q1 %.6g, q3 %.6g)" % (
            summary["n"], summary["q1"], summary["q3"])
    print("  %-14s %12.6g %-6s%s" % (name, summary["median"], unit, extra))


def run_one(name, seed, seconds, trace):
    """One run of one workload; prints its result object last."""
    import workloads

    workload = workloads.WORKLOADS[name]()
    repeats = workload.repeat_count(seconds)
    attempted = failed = 0
    rates, walls = [], []
    per_layer = None
    print("%s seed=%d repeats=%d trace=%d" % (name, seed, repeats, trace),
          flush=True)
    try:
        setup = workload.open(seed)
        for _ in range(repeats):
            start = time.perf_counter()
            ops, bad = workload.repeat()
            wall = time.perf_counter() - start
            attempted += ops
            failed += bad
            rates.append(ops / wall)
            walls.append(wall)
        if trace:
            per_layer = dict.fromkeys(schema.PER_LAYER, 0)
            traced_wall, measured, ops, bad = workload.per_layer()
            attempted += ops
            failed += bad
            per_layer.update(measured)
            per_layer["trace_overhead_s"] = (traced_wall
                                             - statistics.median(walls))
        problems = workload.check()
    finally:
        workload.close()
    if failed:
        problems.append("%d of %d operations failed" % (failed, attempted))

    samples = {
        "throughput": rates,
        "setup_s": setup,
        "peak_rss_mb": [_peak_rss_mb()],
    }
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "repeats": repeats, "repeat_wall_s": walls,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "env": environment(),
        "metrics": {},
    }
    for metric, values in samples.items():
        unit = schema.END_TO_END[metric][0]
        summary = benchstats.summarize(values)
        record["metrics"][metric] = dict(summary, unit=unit, samples=values)
        _print_metric(metric, unit, summary)
    if per_layer is not None:
        unknown = set(per_layer) - set(schema.PER_LAYER)
        if unknown:
            raise KeyError("undeclared per-layer metrics: %s"
                           % ", ".join(sorted(unknown)))
        record["per_layer"] = per_layer
        for metric, value in per_layer.items():
            print("  %-44s %14.6g %s"
                  % (metric, value, schema.PER_LAYER[metric]))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    print("record " + json.dumps(record, sort_keys=True))

    if trace:
        reported = {m: {"value": per_layer[m], "unit": u}
                    for m, u in schema.PER_LAYER.items()}
    else:
        reported = {m: {"value": record["metrics"][m]["median"],
                        "unit": schema.END_TO_END[m][0]}
                    for m in schema.END_TO_END}
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": reported}), flush=True)
    return 0 if not problems else 1


def setup_probe(name, seed):
    """Body of a set-up probe: a fresh interpreter prepares ``name``."""
    import workloads

    workloads.WORKLOADS[name]().prepare(seed)
    print("ready", flush=True)
    return 0


def _run_child(name, seed, seconds, trace):
    cmd = [sys.executable, os.path.join("perfbench", "bench.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          check=False)
    record = None
    for line in proc.stdout.splitlines()[:-1]:
        if line.startswith("record "):
            record = json.loads(line[len("record "):])
        else:
            print(line)
    if record is None:
        raise RuntimeError("%s (trace %d) exited %d without a record"
                           % (name, trace, proc.returncode))
    return record


def run_suite(names, seed, seconds, traced, out):
    """Each workload in a fresh process, one at a time; one record file."""
    suite = {"seed": seed, "seconds": seconds, "workloads": {}}
    for name in names:
        entry = {"timed": _run_child(name, seed, seconds, 0)}
        if traced:
            entry["traced"] = _run_child(name, seed, seconds, 1)
        suite["workloads"][name] = entry
    suite["env"] = entry["timed"]["env"]
    from repro.utils import format_table

    rows = []
    for name, entry in suite["workloads"].items():
        for metric, stats in entry["timed"]["metrics"].items():
            rows.append([name, metric, "%.6g" % stats["median"],
                         "%.6g" % stats["q1"], "%.6g" % stats["q3"],
                         stats["unit"]])
    print(format_table(["workload", "metric", "median", "q1", "q3", "unit"],
                       rows))
    if out:
        with open(out, "w") as handle:
            json.dump(suite, handle, indent=1, sort_keys=True)
            handle.write("\n")
    ok = all(entry[kind]["correct"] for entry in suite["workloads"].values()
             for kind in entry)
    return 0 if ok else 1


def compare(base_path, new_path):
    """Per workload and end-to-end metric: both sides and a verdict;
    then the per-layer deltas of the traced runs."""
    from repro.utils import format_table

    with open(base_path) as handle:
        base = json.load(handle)["workloads"]
    with open(new_path) as handle:
        new = json.load(handle)["workloads"]
    declared = {m["name"]: m for m in _declared()["end_to_end"]}
    common = [name for name in base if name in new]
    rows = []
    for name in common:
        for metric, decl in declared.items():
            b = base[name]["timed"]["metrics"][metric]
            n = new[name]["timed"]["metrics"][metric]
            change = (n["median"] - b["median"]) / b["median"]
            rows.append([
                name, metric, decl["unit"],
                "%.4g [%.4g, %.4g]" % (b["median"], b["q1"], b["q3"]),
                "%.4g [%.4g, %.4g]" % (n["median"], n["q1"], n["q3"]),
                "%+.1f%%" % (100 * change),
                benchstats.verdict(b["samples"], n["samples"],
                                   decl["better"], decl["bound"]),
            ])
    print(format_table(["workload", "metric", "unit", "base median [q1, q3]",
                        "new median [q1, q3]", "change", "verdict"], rows))
    rows = []
    for name in common:
        if "traced" not in base[name] or "traced" not in new[name]:
            continue
        b_layers = base[name]["traced"]["per_layer"]
        n_layers = new[name]["traced"]["per_layer"]
        for metric, unit in schema.PER_LAYER.items():
            b, n = b_layers.get(metric, 0), n_layers.get(metric, 0)
            if not b and not n:
                continue
            rows.append([name, metric, unit, "%.4g" % b, "%.4g" % n,
                         "%+.4g" % (n - b),
                         "%+.1f%%" % (100 * (n - b) / b) if b else "-"])
    if rows:
        print()
        print(format_table(["workload", "layer metric", "unit", "base", "new",
                            "delta", "change"], rows))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n", 1)[1],
    )
    parser.add_argument("--workload", choices=schema.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring budget per run (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="one in-process run: 0 end-to-end, "
                        "1 per-layer")
    parser.add_argument("--traced", action="store_true",
                        help="suite: also make the per-layer run")
    parser.add_argument("--out", default=None,
                        help="suite: write the record file here")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    parser.add_argument("--setup-probe", default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # File arguments are relative to where the command was typed.
    if args.out:
        args.out = os.path.abspath(args.out)
    if args.compare:
        args.compare = [os.path.abspath(path) for path in args.compare]

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench: no repro package under %s; run from a full checkout"
              % SRC, file=sys.stderr)
        return 2
    # Before numpy is imported anywhere, in this process or its children.
    for name in BLAS_PINS:
        os.environ[name] = "1"
    os.chdir(ROOT)
    sys.path.insert(0, SRC)
    # A SIGTERM unwinds through the finally blocks that stop the daemons.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))

    if args.compare:
        return compare(*args.compare)
    if args.setup_probe:
        return setup_probe(args.setup_probe, args.seed)
    seconds = (args.seconds if args.seconds is not None
               else _declared()["run_seconds"])
    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        return run_one(args.workload, args.seed, seconds, args.trace)
    names = [args.workload] if args.workload else list(schema.WORKLOADS)
    return run_suite(names, args.seed, seconds, args.traced, args.out)


if __name__ == "__main__":
    sys.exit(main())
