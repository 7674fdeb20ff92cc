"""Benchmark for Table IV: EOS nearest-neighbor size analysis.

Paper shape: BAC generally improves as K grows, then plateaus (the
paper sweeps K in {10, 50, 100, 200, 300} at CIFAR scale; the bench
sweeps proportionally smaller K for the tiny dataset).
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_table4_knn_sweep(benchmark, config, cache):
    spec = MatrixSpec("table4", config=config, datasets=("cifar10_like",),
                      k_values=(2, 5, 10, 20, 40))
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    bacs = [out["results"][("cifar10_like", k)]["bac"] for k in (2, 5, 10, 20, 40)]
    # Larger neighborhoods should not collapse accuracy: the best of the
    # larger-K settings at least matches the smallest K.
    assert max(bacs[1:]) >= bacs[0] - 0.02
