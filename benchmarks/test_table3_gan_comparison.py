"""Benchmark for Table III: EOS vs GAN-based over-samplers.

Paper shape: GAMO and BAGAN trail EOS; CGAN is competitive but trains
one generative model per deficient class (its cost is reported in the
last column).
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_table3_gan_comparison(benchmark, config, cache):
    spec = MatrixSpec("table3", config=config, datasets=("cifar10_like",))
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    results = out["results"]
    eos = results[("cifar10_like", "ce", "eos")]["bac"]
    gamo = results[("cifar10_like", "ce", "gamo")]["bac"]
    bagan = results[("cifar10_like", "ce", "bagan")]["bac"]
    # EOS at least matches the weaker GAN methods (paper: clearly beats).
    assert eos >= min(gamo, bagan) - 0.02
    # And is cheaper than every GAN sampler.
    timing = out["timing"]
    for gan in ("gamo", "bagan", "cgan"):
        assert timing[("cifar10_like", "ce", "eos")] < timing[
            ("cifar10_like", "ce", gan)
        ]
