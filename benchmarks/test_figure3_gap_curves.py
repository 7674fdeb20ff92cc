"""Benchmark for Figure 3: per-class generalization-gap curves.

Paper shape: the gap rises with the class imbalance level for every
loss; SMOTE-family curves exactly overlap the baseline (interpolation
cannot change feature ranges); only EOS flattens the minority tail.
"""

import numpy as np
from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_figure3_gap_curves(benchmark, config, cache):
    spec = MatrixSpec("figure3", config=config)
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    curves = out["curves"]
    for loss in ("ce", "asl", "focal", "ldam"):
        base = curves[(loss, "none")]
        # (a) the gap rises with class index (class 0 = majority).
        tail_mean = np.nanmean(base[len(base) // 2 :])
        head_mean = np.nanmean(base[: len(base) // 2])
        assert tail_mean > head_mean, "gap must rise with imbalance (%s)" % loss
        # (b) SMOTE-family curves overlap the baseline exactly;
        # Balanced-SVM may drift slightly because its SVM relabeling can
        # hand a class a few foreign points, but the curve still
        # effectively overlaps.
        for sampler in ("smote", "bsmote"):
            np.testing.assert_allclose(
                curves[(loss, sampler)], base, atol=1e-9,
                err_msg="%s must not change feature ranges" % sampler,
            )
        np.testing.assert_allclose(
            curves[(loss, "balsvm")], base, atol=0.08,
            err_msg="balsvm must approximately preserve feature ranges",
        )
        # (c) EOS reduces the tail gap.
        eos_tail = np.nanmean(curves[(loss, "eos")][len(base) // 2 :])
        assert eos_tail < tail_mean, "EOS must flatten the tail gap (%s)" % loss
