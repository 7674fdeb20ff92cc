"""Benchmark for Table II: the paper's main accuracy table.

Losses {CE, ASL, Focal, LDAM} x samplers {baseline, SMOTE, BSMOTE,
BalSVM, EOS} on the CIFAR-10-like profile.  Paper shape: every
embedding-space sampler beats the raw baseline; EOS is the best sampler
in most rows.
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_table2_eos_main(benchmark, config, cache):
    spec = MatrixSpec("table2", config=config, datasets=("cifar10_like",))
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    results = out["results"]
    for loss in ("ce", "asl", "focal", "ldam"):
        base = results[("cifar10_like", loss, "none")]["bac"]
        eos = results[("cifar10_like", loss, "eos")]["bac"]
        assert eos > base, "EOS must beat the %s baseline" % loss
