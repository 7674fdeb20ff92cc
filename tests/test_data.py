"""Tests for the data substrate: datasets, loaders, imbalance, synthetic."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    apply_imbalance,
    exponential_profile,
    imbalance_ratio,
    list_datasets,
    make_dataset,
    step_profile,
)
from repro.data.synthetic import SyntheticConfig, SyntheticImageFamily


@pytest.fixture
def rng():
    return np.random.default_rng(21)


@pytest.fixture
def dataset(rng):
    images = rng.random((30, 3, 4, 4))
    labels = np.repeat(np.arange(3), 10)
    return ArrayDataset(images, labels)


class TestArrayDataset:
    def test_basic_properties(self, dataset):
        assert len(dataset) == 30
        assert dataset.num_classes == 3
        assert dataset.image_shape == (3, 4, 4)

    def test_class_counts(self, dataset):
        np.testing.assert_array_equal(dataset.class_counts(), [10, 10, 10])
        np.testing.assert_array_equal(dataset.class_counts(5), [10, 10, 10, 0, 0])

    def test_getitem(self, dataset):
        img, label = dataset[5]
        assert img.shape == (3, 4, 4)
        assert label == 0

    def test_subset_copies(self, dataset):
        sub = dataset.subset([0, 1, 2])
        sub.images[0] = 0.0
        assert dataset.images[0].max() > 0

    def test_class_indices(self, dataset):
        idx = dataset.class_indices(1)
        assert np.all(dataset.labels[idx] == 1)
        assert len(idx) == 10

    def test_split_fractions(self, dataset, rng):
        a, b = dataset.split(0.3, rng)
        assert len(a) == 9 and len(b) == 21

    def test_split_invalid_fraction(self, dataset, rng):
        with pytest.raises(ValueError):
            dataset.split(1.5, rng)

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 3, 2)), np.zeros(4))
        with pytest.raises(ValueError):
            ArrayDataset(np.zeros((4, 3, 2, 2)), np.zeros(5))

    def test_shuffled_preserves_pairs(self, dataset, rng):
        shuffled = dataset.shuffled(rng)
        # Every (image sum, label) pair must survive.
        orig = sorted(zip(dataset.images.sum(axis=(1, 2, 3)), dataset.labels))
        new = sorted(zip(shuffled.images.sum(axis=(1, 2, 3)), shuffled.labels))
        np.testing.assert_allclose(orig, new)


class TestDataLoader:
    def test_batch_sizes(self, dataset, rng):
        loader = DataLoader(dataset, batch_size=8, rng=rng)
        sizes = [len(labels) for _, labels in loader]
        assert sizes == [8, 8, 8, 6]
        assert len(loader) == 4

    def test_drop_last(self, dataset, rng):
        loader = DataLoader(dataset, batch_size=8, drop_last=True, rng=rng)
        sizes = [len(labels) for _, labels in loader]
        assert sizes == [8, 8, 8]
        assert len(loader) == 3

    def test_shuffle_changes_order(self, dataset):
        loader = DataLoader(
            dataset, batch_size=30, shuffle=True, rng=np.random.default_rng(0)
        )
        _, labels1 = next(iter(loader))
        assert not np.array_equal(labels1, dataset.labels)

    def test_no_shuffle_preserves_order(self, dataset, rng):
        loader = DataLoader(dataset, batch_size=30, shuffle=False, rng=rng)
        _, labels = next(iter(loader))
        np.testing.assert_array_equal(labels, dataset.labels)

    def test_transform_applied(self, dataset, rng):
        loader = DataLoader(
            dataset,
            batch_size=30,
            transform=lambda images, rng: images * 0.0,
            rng=rng,
        )
        images, _ = next(iter(loader))
        assert images.max() == 0.0

    def test_invalid_batch_size(self, dataset):
        with pytest.raises(ValueError):
            DataLoader(dataset, batch_size=0)


class TestImbalanceProfiles:
    def test_exponential_endpoints(self):
        counts = exponential_profile(1000, 10, 100)
        assert counts[0] == 1000
        assert counts[-1] == 10

    def test_exponential_monotone(self):
        counts = exponential_profile(500, 20, 50)
        assert all(a >= b for a, b in zip(counts, counts[1:]))

    def test_exponential_floor_at_one(self):
        counts = exponential_profile(10, 10, 100)
        assert counts.min() >= 1

    def test_exponential_single_class(self):
        np.testing.assert_array_equal(exponential_profile(7, 1, 100), [7])

    def test_exponential_invalid(self):
        with pytest.raises(ValueError):
            exponential_profile(0, 10, 100)
        with pytest.raises(ValueError):
            exponential_profile(100, 10, 0.5)

    def test_step_profile(self):
        counts = step_profile(100, 10, 10)
        assert list(counts[:5]) == [100] * 5
        assert list(counts[5:]) == [10] * 5

    def test_step_minority_fraction(self):
        counts = step_profile(100, 10, 10, minority_fraction=0.2)
        assert (counts == 10).sum() == 2

    def test_apply_imbalance(self, rng):
        images = rng.random((300, 1, 2, 2))
        labels = np.repeat(np.arange(3), 100)
        ds = ArrayDataset(images, labels)
        out = apply_imbalance(ds, [100, 10, 1], rng)
        np.testing.assert_array_equal(out.class_counts(), [100, 10, 1])

    def test_apply_imbalance_insufficient_samples(self, rng):
        ds = ArrayDataset(np.zeros((4, 1, 2, 2)), np.array([0, 0, 1, 1]))
        with pytest.raises(ValueError):
            apply_imbalance(ds, [2, 5], rng)

    def test_imbalance_ratio(self):
        labels = np.array([0] * 100 + [1] * 4)
        assert imbalance_ratio(labels) == pytest.approx(25.0)


class TestSyntheticFamily:
    def test_images_in_unit_range(self, rng):
        family = SyntheticImageFamily(SyntheticConfig(num_classes=3))
        ds = family.sample(5, rng)
        assert ds.images.min() >= 0.0
        assert ds.images.max() <= 1.0

    def test_balanced_sampling(self, rng):
        family = SyntheticImageFamily(SyntheticConfig(num_classes=4))
        ds = family.sample(7, rng)
        np.testing.assert_array_equal(ds.class_counts(), [7, 7, 7, 7])

    def test_family_deterministic_given_seed(self, rng):
        cfg = SyntheticConfig(num_classes=3, seed=42)
        f1 = SyntheticImageFamily(cfg)
        f2 = SyntheticImageFamily(cfg)
        np.testing.assert_array_equal(f1.prototypes, f2.prototypes)
        np.testing.assert_array_equal(f1.basis, f2.basis)

    def test_classes_are_distinguishable(self, rng):
        """Within-class image distance must be below between-class distance."""
        cfg = SyntheticConfig(num_classes=5, within_class_std=0.5, overlap=0.0)
        family = SyntheticImageFamily(cfg)
        ds = family.sample(20, rng)
        flat = ds.images.reshape(len(ds), -1)
        centroids = np.stack([flat[ds.labels == c].mean(axis=0) for c in range(5)])
        within = np.mean(
            [
                np.linalg.norm(flat[ds.labels == c] - centroids[c], axis=1).mean()
                for c in range(5)
            ]
        )
        between = np.mean(
            [
                np.linalg.norm(centroids[c] - centroids[d])
                for c in range(5)
                for d in range(5)
                if c != d
            ]
        )
        assert between > within

    def test_train_test_same_distribution(self, rng):
        """Two independent draws should have similar class centroids."""
        family = SyntheticImageFamily(SyntheticConfig(num_classes=3))
        a = family.sample(50, np.random.default_rng(1))
        b = family.sample(50, np.random.default_rng(2))
        for c in range(3):
            ca = a.images[a.labels == c].mean(axis=0)
            cb = b.images[b.labels == c].mean(axis=0)
            assert np.abs(ca - cb).mean() < 0.05


class TestMakeDataset:
    def test_all_profiles_listed(self):
        assert set(list_datasets()) == {
            "cifar10_like",
            "svhn_like",
            "cifar100_like",
            "celeba_like",
        }

    def test_cifar10_like_structure(self):
        train, test, info = make_dataset("cifar10_like", scale="tiny", seed=0)
        assert info["num_classes"] == 10
        assert info["ratio"] == 100
        counts = train.class_counts(10)
        assert counts[0] == info["train_counts"][0]
        assert counts[0] / max(counts[-1], 1) >= 50  # near 100:1
        # Test set is balanced.
        assert len(set(test.class_counts(10))) == 1

    def test_celeba_like_structure(self):
        train, _, info = make_dataset("celeba_like", scale="tiny", seed=0)
        assert info["num_classes"] == 5
        assert info["ratio"] == 40

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            make_dataset("imagenet")

    def test_unknown_scale(self):
        with pytest.raises(KeyError):
            make_dataset("cifar10_like", scale="huge")

    def test_dict_scale(self):
        train, test, _ = make_dataset(
            "cifar10_like", scale={"n_max_train": 20, "n_test": 5}, seed=0
        )
        assert train.class_counts(10)[0] == 20
        assert test.class_counts(10)[0] == 5

    def test_seed_changes_cut_not_distribution(self):
        t1, _, _ = make_dataset("cifar10_like", scale="tiny", seed=0)
        t2, _, _ = make_dataset("cifar10_like", scale="tiny", seed=1)
        assert not np.array_equal(t1.images, t2.images)
        np.testing.assert_array_equal(t1.class_counts(10), t2.class_counts(10))

    def test_image_size_override(self):
        train, _, info = make_dataset("cifar10_like", scale="tiny", image_size=8)
        assert train.image_shape == (3, 8, 8)

    def test_transient_memory_is_at_most_one_and_three_quarter_image_blocks(
            self):
        """The decode works in place and adds its pixel noise a few rows
        at a time, so building a dataset holds about one float64 copy of
        its balanced train images at once, not two."""
        import tracemalloc

        from repro.data.synthetic import DATASET_PROFILES, SCALE_PRESETS

        config = DATASET_PROFILES["cifar10_like"]["config"]
        images = SCALE_PRESETS["small"]["n_max_train"] * config.num_classes
        block = images * config.channels * config.image_size ** 2 * 8
        tracemalloc.start()
        try:
            make_dataset("cifar10_like", scale="small", seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.75 * block, (
            "peak %.2f float64 image blocks" % (peak / block))


class TestTransforms:
    def test_flip_all(self, rng):
        from repro.data import RandomHorizontalFlip

        images = rng.random((4, 3, 5, 5))
        out = RandomHorizontalFlip(p=1.0)(images, rng)
        np.testing.assert_allclose(out, images[:, :, :, ::-1])

    def test_flip_none(self, rng):
        from repro.data import RandomHorizontalFlip

        images = rng.random((4, 3, 5, 5))
        out = RandomHorizontalFlip(p=0.0)(images, rng)
        np.testing.assert_array_equal(out, images)

    def test_crop_preserves_shape(self, rng):
        from repro.data import RandomCrop

        images = rng.random((4, 3, 6, 6))
        out = RandomCrop(2)(images, rng)
        assert out.shape == images.shape

    def test_noise_changes_values(self, rng):
        from repro.data import GaussianNoise

        images = np.zeros((2, 1, 3, 3))
        out = GaussianNoise(0.1)(images, rng)
        assert np.abs(out).max() > 0

    def test_normalize(self):
        from repro.data import Normalize

        images = np.ones((2, 3, 2, 2))
        out = Normalize([1.0, 1.0, 1.0], [2.0, 2.0, 2.0])(images)
        np.testing.assert_allclose(out, 0.0)

    def test_compose_order(self, rng):
        from repro.data import Compose

        t = Compose([lambda im, r: im + 1, lambda im, r: im * 2])
        out = t(np.zeros((1, 1, 2, 2)), rng)
        np.testing.assert_allclose(out, 2.0)

    def test_invalid_params(self):
        from repro.data import GaussianNoise, Normalize, RandomCrop, RandomHorizontalFlip

        with pytest.raises(ValueError):
            RandomHorizontalFlip(p=2.0)
        with pytest.raises(ValueError):
            RandomCrop(-1)
        with pytest.raises(ValueError):
            GaussianNoise(-0.1)
        with pytest.raises(ValueError):
            Normalize([0.0], [0.0])
