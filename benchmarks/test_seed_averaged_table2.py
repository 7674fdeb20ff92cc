"""Seed-averaged Table II (the paper's three-cut protocol).

The paper trains each model on three cuts of the training set before
selecting one.  This benchmark runs the embedding-space sampler
comparison as a Table II matrix with a seed axis (a fresh extractor per
seed) and asserts the headline on the view's seed means, where
single-cut noise is suppressed: EOS beats every interpolative sampler
on BAC, GM and FM.
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix

SAMPLERS = ("none", "smote", "bsmote", "balsvm", "eos")


def test_seed_averaged_table2(benchmark, config, cache):
    small = config.with_overrides(scale="small")
    spec = MatrixSpec("table2", config=small, losses=("ce",),
                      samplers=SAMPLERS, seeds=(0, 1, 2))
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out.report)
    means = out["seed_means"]
    for metric in ("bac", "gm", "fm"):
        eos_mean = means[(small.dataset, "ce", "eos")][metric][0]
        for rival in ("none", "smote", "bsmote", "balsvm"):
            assert eos_mean > means[(small.dataset, "ce", rival)][metric][0], (
                "seed-averaged EOS must beat %s on %s" % (rival, metric)
            )
