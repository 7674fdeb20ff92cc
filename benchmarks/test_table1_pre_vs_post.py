"""Benchmark for Table I: pixel-space pre-processing vs embedding-space
over-sampling under cross-entropy loss.

Paper shape: the Post- (embedding-space) variant beats the Pre- variant
in most dataset x sampler cells (7/9 in the paper).
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_table1_pre_vs_post(benchmark, config, cache):
    spec = MatrixSpec("table1", config=config, datasets=("cifar10_like",))
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    # Embedding-space over-sampling should win at least half the cells.
    assert out["post_wins"] * 2 >= out["cells"]
