"""Benchmark for Figure 7: balanced accuracy vs fine-tuning epochs.

Paper shape: both EOS and SMOTE plateau by ~epoch 10 of classifier
re-training; training longer buys at most marginal improvement.
"""

import numpy as np
from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_figure7_epochs(benchmark, config, cache):
    spec = MatrixSpec("figure7", config=config, options={"epochs": 30})
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    for name, history in out["curves"].items():
        bacs = np.array([rec["test_bac"] for rec in history])
        by_10 = bacs[9]
        final = bacs[-1]
        # Plateau: the last 20 epochs add (almost) nothing.
        assert final - by_10 < 0.08, "%s must plateau by epoch 10" % name
        # And epoch 10 is already near the curve's best.
        assert by_10 >= bacs.max() - 0.08
