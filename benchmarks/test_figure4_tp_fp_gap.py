"""Benchmark for Figure 4: generalization gap of TPs vs FPs.

Paper shape: the range gap is 2-4x larger for false positives than for
true positives on every dataset.
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_figure4_tp_fp_gap(benchmark, config, cache):
    spec = MatrixSpec("figure4", config=config,
                      datasets=("cifar10_like", "celeba_like"))
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    for dataset, gaps in out["results"].items():
        assert gaps["fp"] > gaps["tp"], (
            "%s: FP gap must exceed TP gap" % dataset
        )
