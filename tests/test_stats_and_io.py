"""Tests for seed-mean aggregation and the CIFAR binary loaders."""

import numpy as np
import pytest

from repro.data import load_cifar10_binary, load_cifar100_binary
from repro.evals import MatrixSpec, compile_matrix, render_view


def seed_means(per_seed):
    """The seed-mean view's entry for one eos row whose seed ``s``
    scored ``per_seed[s]`` (synthetic cells, no training)."""
    plan = compile_matrix(MatrixSpec("table2", losses=("ce",),
                                     samplers=("eos",),
                                     seeds=tuple(range(len(per_seed)))))
    results = {cell.key: per_seed[cell.key[-1]] for cell in plan.cells}
    _, extras = render_view(plan, results)
    return extras["seed_means"][("cifar10_like", "ce", "eos")]


class TestAggregateMetrics:
    """Seed averaging is the seed-mean summary of the table views."""

    def test_mean_and_std(self):
        out = seed_means([{"bac": 0.5, "gm": 0.5, "fm": 0.5},
                          {"bac": 0.7, "gm": 0.7, "fm": 0.7}])
        mean, std = out["bac"]
        assert mean == pytest.approx(0.6)
        assert std == pytest.approx(0.1)  # population std (ddof=0)
        assert out["n"] == 2

    def test_multiple_keys(self):
        out = seed_means([{"bac": 0.1, "gm": 0.2, "fm": 0.5},
                          {"bac": 0.3, "gm": 0.4, "fm": 0.9}])
        assert out["bac"][0] == pytest.approx(0.2)
        assert out["gm"][0] == pytest.approx(0.3)
        assert out["fm"] == (pytest.approx(0.7), pytest.approx(0.2))


def _write_cifar10_bin(path, n, rng):
    labels = rng.integers(0, 10, n, dtype=np.uint8)
    pixels = rng.integers(0, 256, (n, 3072), dtype=np.uint8)
    records = np.concatenate([labels[:, None], pixels], axis=1)
    path.write_bytes(records.tobytes())
    return labels, pixels


class TestCifarBinaryIO:
    def test_cifar10_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        path = tmp_path / "data_batch_1.bin"
        labels, pixels = _write_cifar10_bin(path, 20, rng)
        ds = load_cifar10_binary(path)
        assert len(ds) == 20
        assert ds.image_shape == (3, 32, 32)
        np.testing.assert_array_equal(ds.labels, labels)
        np.testing.assert_allclose(
            ds.images.reshape(20, -1), pixels / 255.0
        )

    def test_cifar10_multiple_files(self, tmp_path):
        rng = np.random.default_rng(1)
        p1, p2 = tmp_path / "b1.bin", tmp_path / "b2.bin"
        _write_cifar10_bin(p1, 5, rng)
        _write_cifar10_bin(p2, 7, rng)
        ds = load_cifar10_binary([p1, p2])
        assert len(ds) == 12

    def test_cifar10_bad_size_raises(self, tmp_path):
        path = tmp_path / "broken.bin"
        path.write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            load_cifar10_binary(path)

    def test_cifar10_no_paths(self):
        with pytest.raises(ValueError):
            load_cifar10_binary([])

    def test_cifar100_fine_and_coarse(self, tmp_path):
        rng = np.random.default_rng(2)
        n = 8
        coarse = rng.integers(0, 20, n, dtype=np.uint8)
        fine = rng.integers(0, 100, n, dtype=np.uint8)
        pixels = rng.integers(0, 256, (n, 3072), dtype=np.uint8)
        records = np.concatenate(
            [coarse[:, None], fine[:, None], pixels], axis=1
        )
        path = tmp_path / "train.bin"
        path.write_bytes(records.tobytes())

        ds_fine = load_cifar100_binary(path, label_kind="fine")
        ds_coarse = load_cifar100_binary(path, label_kind="coarse")
        np.testing.assert_array_equal(ds_fine.labels, fine)
        np.testing.assert_array_equal(ds_coarse.labels, coarse)

    def test_cifar100_invalid_kind(self, tmp_path):
        with pytest.raises(ValueError):
            load_cifar100_binary(tmp_path / "x.bin", label_kind="super")
