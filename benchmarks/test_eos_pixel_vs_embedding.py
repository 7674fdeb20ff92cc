"""Benchmark for Section V-E3: EOS in pixel space vs embedding space.

Paper shape: applying EOS as a pixel-space pre-processing step loses
~7 BAC points vs applying it to the learned feature embeddings.
"""

from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_eos_pixel_vs_embedding(benchmark, config, cache):
    # This comparison needs the "small" scale: at the tiny scale the
    # variance across training runs swamps the effect.  (Note: the
    # paper's ~7-point margin is larger than ours because natural-image
    # pixel space is far less linearly separable than our synthetic
    # families' pixel space — see EXPERIMENTS.md.)
    small = config.with_overrides(scale="small")
    spec = MatrixSpec("eos_pixel_vs_embedding", config=small)
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    # Embedding-space EOS must not lose to pixel-space EOS.
    assert out["delta_bac"] > -0.03
