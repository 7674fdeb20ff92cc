"""Golden micro-scale digests of the paper views.

Each view runs once at micro scale (``bench_config(phase1_epochs=3,
finetune_epochs=3)``, seed 0) on one shared :class:`ExtractorCache`,
and its output is pinned by sha256.  A change that moves any number a
view reports fails here, naming the view; such a change must be
deliberate and its new digest explained in CHANGES.md.

Ten views hash their rendered ``.report``.  ``table3`` prints wall-clock
seconds in its report, so it hashes ``repr(sorted(out.cells.items()))``
instead: the per-cell metric dicts, in key order, with every float
written by ``repr``.  ``runtime_comparison`` reports only timings and
is not pinned.
"""

import hashlib

import pytest

from repro.evals import MatrixSpec, run_matrix
from repro.experiments import ExtractorCache, bench_config

REPORT_DIGESTS = {
    "table1": "ba10fda8f67a02e581f6f94ac6faf2a2f3d7d05d6bba6c27f873e61a6077cf3c",
    "table2": "679bab8a9c0043c753f63c95bff441dd5182af9ef91ed93cd6b67a1aa3ace90f",
    "table4": "7cfa4e21c7699f93382602db41e41b04b8faa6c6ca3c25a097cdf721003440b8",
    "table5": "3bf97dcba44493fe814777bc9c024a478f8ea6facff338070b6a24d588b64690",
    "figure3": "298bf2f7f5baa77d89818259e00a9263e62c04c6424ae36f7b501b4c3f146f11",
    "figure4": "b348b80c857aa139968adab629d604191a6edec56b1e790e549de74ac62c1a7f",
    "figure5": "39698e745f430248722493d0a93fe9cd04d508ad45d77443ad599d3903c05a8c",
    "figure6": "2e3a59d91f1959b8764ff7b363db3dd5cb15001204d99b81c6c73136bc0a5e47",
    "figure7": "66fc1a7e95762f00ad75b1f6ec15db3de3f7f7aa1b2fdc4ab67a8fb4ebd2625a",
    "eos_pixel_vs_embedding":
        "52a7fe7f276f7a35fc874a68e5b54a9a27a04c5c1f787d0ae6241ceb962261c3",
}
CELLS_DIGESTS = {
    "table3": "f3f7cc25dec5079d97e8412a859fd07613a31791f7d349499a001e871e87c6b7",
}


def _sha256(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def view_outputs():
    """Every pinned view, run once on one shared extractor cache."""
    config = bench_config(phase1_epochs=3, finetune_epochs=3)
    cache = ExtractorCache()
    return {
        view: run_matrix(MatrixSpec(view, config=config), cache=cache)
        for view in list(REPORT_DIGESTS) + list(CELLS_DIGESTS)
    }


@pytest.mark.parametrize("view", sorted(REPORT_DIGESTS))
def test_report_digest(view_outputs, view):
    assert _sha256(view_outputs[view].report) == REPORT_DIGESTS[view]


@pytest.mark.parametrize("view", sorted(CELLS_DIGESTS))
def test_cells_digest(view_outputs, view):
    text = repr(sorted(view_outputs[view].cells.items()))
    assert _sha256(text) == CELLS_DIGESTS[view]
