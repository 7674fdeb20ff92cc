"""Benchmark for Table V: EOS across CNN architectures.

Paper shape: classifier re-training with EOS improves every backbone
(ResNet-56, WideResNet, DenseNet in the paper; reduced-depth instances
of the same families here).
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_table5_architectures(benchmark, config, cache):
    spec = MatrixSpec("table5", config=config)
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    results = out["results"]
    improved = 0
    total = 0
    for (model, variant), metrics in results.items():
        if variant != "eos":
            continue
        total += 1
        if metrics["bac"] > results[(model, "baseline")]["bac"]:
            improved += 1
    assert improved == total, "EOS must improve every architecture"
