"""Benchmark for the paper's Section V-E2 runtime comparison.

Paper shape: full training on a pixel-space pre-balanced dataset costs
~3x the EOS pipeline (imbalanced phase-1 training + embedding
extraction + 10-epoch head fine-tune), because pre-balancing multiplies
the number of training batches while EOS touches only the tiny head on
low-dimensional embeddings.
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_runtime_comparison(benchmark, config):
    spec = MatrixSpec("runtime_comparison", config=config)
    out = run_once(benchmark, lambda: run_matrix(spec))
    print("\n" + out["report"])
    # The pre-processing pipeline must be meaningfully slower (paper: ~3x;
    # we only require a robust >1.3x at bench scale).
    assert out["speedup"] > 1.3
