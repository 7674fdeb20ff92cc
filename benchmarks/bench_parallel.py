"""Record the serial-vs-parallel wall clock for a tiny Table-II sweep.

Runs the same tiny Table II at ``--workers 1`` and ``--workers 4``,
asserts the outputs are byte-identical (the repro.parallel determinism
contract), and writes the measured wall times to ``BENCH_parallel.json``
at the repo root.  Numbers are recorded honestly alongside
``cpu_count``: on a single-core container the parallel run cannot beat
serial (fork + pickle overhead makes it slightly slower); the speedup
materializes with physical cores.

Usage::

    PYTHONPATH=src python benchmarks/bench_parallel.py
"""

from __future__ import annotations

import json
import os
import sys
import time

from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExtractorCache, bench_config

WORKER_COUNTS = (1, 4)
LOSSES = ("ce",)
SAMPLERS = ("none", "smote", "eos")


def timed_run(config, workers):
    start = time.perf_counter()
    out = run_matrix(MatrixSpec("table2", config=config, losses=LOSSES,
                                samplers=SAMPLERS),
                     cache=ExtractorCache(), workers=workers)
    return time.perf_counter() - start, out


def main():
    config = bench_config()
    runs = {}
    outputs = {}
    for workers in WORKER_COUNTS:
        seconds, out = timed_run(config, workers)
        runs["workers=%d" % workers] = round(seconds, 4)
        outputs[workers] = out
        print("workers=%d: %.3fs" % (workers, seconds))

    reference = outputs[WORKER_COUNTS[0]]
    for workers in WORKER_COUNTS[1:]:
        if (outputs[workers]["results"] != reference["results"]
                or outputs[workers]["report"] != reference["report"]):
            print("FAIL: workers=%d output differs from serial" % workers)
            return 1
    print("all worker counts byte-identical")

    serial = runs["workers=%d" % WORKER_COUNTS[0]]
    parallel = runs["workers=%d" % WORKER_COUNTS[-1]]
    record = {
        "benchmark": "table2_tiny_parallel",
        "command": "python benchmarks/bench_parallel.py",
        "description": (
            "Wall-clock of the tiny Table-II sweep (losses=%s, samplers=%s)"
            " under repro.parallel worker counts. Outputs verified"
            " byte-identical across counts before recording. Speedup is"
            " bounded by physical cores: on a 1-core machine the parallel"
            " run pays fork/pickle overhead with no concurrency to gain."
            % (list(LOSSES), list(SAMPLERS))
        ),
        "cpu_count": os.cpu_count(),
        "runs_seconds": runs,
        "speedup": round(serial / parallel, 3) if parallel else None,
        "identical_output": True,
    }
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    path = os.path.join(root, "BENCH_parallel.json")
    with open(path, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    print("wrote %s" % path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
