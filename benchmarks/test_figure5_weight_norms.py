"""Benchmark for Figure 5: per-class classifier weight norms.

Paper shape: under the raw baseline, weight norms decay from the
majority to the minority classes; re-training on balanced embeddings
(especially with EOS) evens out — and typically enlarges — the norms.
"""

import numpy as np
from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_figure5_weight_norms(benchmark, config, cache):
    spec = MatrixSpec("figure5", config=config, losses=("ce", "ldam"))
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    profiles = out["profiles"]

    def cv(values):
        return values.std() / values.mean()

    # The clean phenomenon shows under plain cross-entropy: baseline
    # norms decay toward the minority classes and every balanced
    # re-training flattens them.  (LDAM's deferred re-weighting already
    # pre-balances its norms — the paper itself notes the per-loss
    # picture is "uneven" — so LDAM is printed for context only.)
    base = profiles[("ce", "none")]
    half = len(base) // 2
    assert base[:half].mean() > base[half:].mean()
    for sampler in ("smote", "bsmote", "balsvm", "eos"):
        assert cv(profiles[("ce", sampler)]) < cv(base)
