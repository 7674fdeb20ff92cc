"""Tier-1 smoke gate for the substrate benchmark.

Re-measures the traced tiny Table-II workload and fails when
``train.batch`` seconds, divided by the seconds of the rest of the
run, exceed 1.25x the committed ``BENCH_substrate.json`` gate value.
A ratio (not absolute seconds) is compared so the gate is robust to
machine speed; a fastpath regression (tape bookkeeping creeping back
into no_grad, scratch pool misses, un-fused kernels) shifts time into
``train.batch`` and moves the ratio.  The denominator is the rest of
the run rather than the whole of it, so that speeding up the other
phases cannot by itself push ``train.batch`` over the limit.
"""

import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_PATH = REPO_ROOT / "BENCH_substrate.json"
BENCH_PATH = REPO_ROOT / "benchmarks" / "bench_substrate.py"


def _load_bench_module():
    spec = importlib.util.spec_from_file_location(
        "bench_substrate", BENCH_PATH
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def baseline():
    with open(BASELINE_PATH) as fh:
        return json.load(fh)


def test_baseline_records_the_claimed_speedup(baseline):
    """The committed snapshot must actually show the >= 1.5x win."""
    assert baseline["before"]["default_dtype"] == "float64"
    assert baseline["after"]["default_dtype"] == "float32"
    before = baseline["before"]["table2_tiny_traced"]["train_batch_seconds"]
    after = baseline["after"]["table2_tiny_traced"]["train_batch_seconds"]
    assert before / after >= 1.5


def test_train_batch_share_has_not_regressed(baseline):
    bench = _load_bench_module()
    measured = bench.traced_table2(seed=0, repeats=2)
    train_batch = measured["train_batch_seconds"]
    ratio = train_batch / (measured["total_seconds"] - train_batch)
    committed = baseline["gate"]["train_batch_to_rest"]
    limit = committed * 1.25
    assert ratio <= limit, (
        "train.batch / rest-of-run %.4f exceeds committed baseline %.4f "
        "by more than 25%% — the substrate fast path has regressed "
        "(measured: %r)" % (ratio, committed, measured)
    )
