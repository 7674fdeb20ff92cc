"""Tests for nearest-neighbor search and nearest-enemy queries."""

import numpy as np
import pytest

from repro.neighbors import KNeighbors, nearest_enemies, pairwise_distances


@pytest.fixture
def rng():
    return np.random.default_rng(31)


class TestPairwiseDistances:
    def test_euclidean_matches_direct(self, rng):
        a = rng.normal(size=(6, 3))
        b = rng.normal(size=(4, 3))
        d = pairwise_distances(a, b)
        direct = np.sqrt(((a[:, None, :] - b[None, :, :]) ** 2).sum(axis=2))
        np.testing.assert_allclose(d, direct, atol=1e-10)

    def test_manhattan(self, rng):
        a = np.array([[0.0, 0.0]])
        b = np.array([[1.0, 2.0]])
        assert pairwise_distances(a, b, "manhattan")[0, 0] == 3.0

    def test_self_distance_zero(self, rng):
        a = rng.normal(size=(5, 4))
        d = pairwise_distances(a, a)
        np.testing.assert_allclose(np.diag(d), 0.0, atol=1e-7)

    def test_dim_mismatch(self, rng):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 3)), np.zeros((2, 4)))

    def test_unknown_metric(self):
        with pytest.raises(ValueError):
            pairwise_distances(np.zeros((2, 2)), np.zeros((2, 2)), "cosine")


class TestKNeighbors:
    def test_query_finds_known_neighbors(self):
        data = np.array([[0.0], [1.0], [10.0], [11.0]])
        index = KNeighbors(k=1).fit(data)
        _, idx = index.query(np.array([[0.4], [10.4]]))
        np.testing.assert_array_equal(idx[:, 0], [0, 2])

    def test_exclude_self(self):
        data = np.array([[0.0], [1.0], [2.0]])
        index = KNeighbors(k=1).fit(data)
        _, idx = index.query(data, exclude_self=True)
        np.testing.assert_array_equal(idx[:, 0], [1, 0, 1])

    def test_sorted_by_distance(self, rng):
        data = rng.normal(size=(30, 4))
        index = KNeighbors(k=5).fit(data)
        dists, _ = index.query(rng.normal(size=(7, 4)))
        assert np.all(np.diff(dists, axis=1) >= -1e-12)

    def test_chunked_matches_unchunked(self, rng):
        data = rng.normal(size=(50, 3))
        q = rng.normal(size=(20, 3))
        d1, i1 = KNeighbors(k=3, chunk_size=7).fit(data).query(q)
        d2, i2 = KNeighbors(k=3, chunk_size=1000).fit(data).query(q)
        np.testing.assert_allclose(d1, d2)
        np.testing.assert_array_equal(i1, i2)

    def test_k_capped_at_index_size(self):
        data = np.zeros((3, 2))
        index = KNeighbors(k=10).fit(data)
        dists, idx = index.query(np.zeros((1, 2)))
        assert idx.shape[1] == 3

    def test_query_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            KNeighbors(k=1).query(np.zeros((1, 2)))

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KNeighbors(k=0)

    def test_predict_majority_vote(self, rng):
        data = np.concatenate([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
        labels = np.array([0] * 20 + [1] * 20)
        index = KNeighbors(k=5).fit(data, labels)
        preds = index.predict(np.array([[0.0, 0.0], [5.0, 5.0]]))
        np.testing.assert_array_equal(preds, [0, 1])

    def test_predict_without_labels_raises(self, rng):
        index = KNeighbors(k=1).fit(rng.normal(size=(5, 2)))
        with pytest.raises(RuntimeError):
            index.predict(np.zeros((1, 2)))

    def test_exclude_self_keeps_distinct_duplicate_point(self):
        # Rows 0 and 1 are distinct training points at identical
        # coordinates.  Excluding "self" must drop each row's own index,
        # not its duplicate twin: the twin is a legitimate neighbor at
        # distance zero.
        data = np.array([[0.0], [0.0], [5.0]])
        index = KNeighbors(k=1).fit(data)
        dists, idx = index.query(data, exclude_self=True)
        assert idx[0, 0] == 1
        assert idx[1, 0] == 0
        assert dists[0, 0] == 0.0 and dists[1, 0] == 0.0
        assert idx[2, 0] in (0, 1)

    def test_exclude_self_with_subset_query(self):
        data = np.array([[0.0], [1.0], [2.0], [3.0]])
        index = KNeighbors(k=1).fit(data)
        pool_idx = np.array([1, 3])
        _, idx = index.query(data[pool_idx], exclude_self=True,
                             self_indices=pool_idx)
        # Row 1's nearest non-self is 0 or 2 (both at distance 1);
        # row 3's is 2.
        assert idx[0, 0] in (0, 2)
        assert idx[1, 0] == 2

    def test_exclude_self_misaligned_without_indices_raises(self):
        data = np.array([[0.0], [1.0], [2.0], [3.0]])
        index = KNeighbors(k=1).fit(data)
        with pytest.raises(ValueError):
            index.query(data[:2], exclude_self=True)

    def test_exclude_self_vectorized_matches_manual(self, rng):
        data = rng.normal(size=(40, 3))
        index = KNeighbors(k=4).fit(data)
        dists, idx = index.query(data, exclude_self=True)
        assert idx.shape == (40, 4)
        for i in range(40):
            assert i not in idx[i]
            assert np.all(np.diff(dists[i]) >= -1e-12)


class TestNearestEnemies:
    def test_enemies_are_other_class(self, rng):
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, 40)
        _, idx = nearest_enemies(x, y, k=4)
        for i in range(40):
            for j in idx[i]:
                if j >= 0:
                    assert y[j] != y[i]

    def test_nearest_enemy_is_closest_adversary(self):
        x = np.array([[0.0], [0.5], [3.0], [4.0]])
        y = np.array([0, 0, 1, 1])
        dists, idx = nearest_enemies(x, y, k=1)
        assert idx[0, 0] == 2  # closest class-1 point to x[0]
        assert idx[2, 0] == 1  # closest class-0 point to x[2]
        assert dists[0, 0] == pytest.approx(3.0)

    def test_k_larger_than_enemy_pool(self):
        x = np.array([[0.0], [1.0], [5.0]])
        y = np.array([0, 0, 1])
        dists, idx = nearest_enemies(x, y, k=5)
        # Only one enemy exists for class 0 points: the rest padded.
        assert idx[0, 0] == 2
        assert np.isinf(dists[0, 1:]).all() or (idx[0, 1:] == -1).all()

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            nearest_enemies(np.zeros((3, 2)), np.zeros(3, dtype=int), k=0)

    def test_chunking_consistent(self, rng):
        x = rng.normal(size=(60, 4))
        y = rng.integers(0, 4, 60)
        d1, i1 = nearest_enemies(x, y, k=3, chunk_size=11)
        d2, i2 = nearest_enemies(x, y, k=3, chunk_size=1000)
        np.testing.assert_allclose(d1, d2)
        np.testing.assert_array_equal(i1, i2)

    def test_single_class_rows_padded_not_garbage(self):
        # Every sample shares one class: no enemies exist anywhere, so
        # every slot must be the documented -1/inf padding, not whatever
        # index argpartition left behind on the all-inf distance rows.
        x = np.array([[0.0], [1.0], [2.0]])
        y = np.array([0, 0, 0])
        dists, idx = nearest_enemies(x, y, k=2)
        assert (idx == -1).all()
        assert np.isinf(dists).all()

    def test_partial_enemy_rows_padded(self):
        x = np.array([[0.0], [1.0], [5.0]])
        y = np.array([0, 0, 1])
        dists, idx = nearest_enemies(x, y, k=2)
        # Class-0 rows have exactly one enemy; the second slot pads.
        assert idx[0, 0] == 2 and idx[0, 1] == -1
        assert np.isinf(dists[0, 1])
