"""Tests for the EOS sampler (the paper's Algorithm 2)."""

import itertools

import numpy as np
import pytest

from repro._validation import validate_xy
from repro.core import EOS
from repro.core.eos import _FALLBACK_JITTER
from repro.neighbors import KNeighbors
from repro.sampling.base import sampling_targets


@pytest.fixture
def rng():
    return np.random.default_rng(61)


@pytest.fixture
def boundary_data(rng):
    """Majority blob at origin, minority blob nearby (overlapping tails)."""
    x = np.concatenate(
        [rng.normal(0.0, 0.8, size=(60, 2)), rng.normal([2.5, 0.0], 0.6, size=(8, 2))]
    )
    y = np.array([0] * 60 + [1] * 8)
    return x, y


class TestEOSBasics:
    def test_balances_classes(self, boundary_data):
        x, y = boundary_data
        xr, yr = EOS(k_neighbors=5, random_state=0).fit_resample(x, y)
        np.testing.assert_array_equal(np.bincount(yr), [60, 60])

    def test_originals_preserved(self, boundary_data):
        x, y = boundary_data
        xr, yr = EOS(random_state=0).fit_resample(x, y)
        np.testing.assert_array_equal(xr[: len(x)], x)
        np.testing.assert_array_equal(yr[: len(y)], y)

    def test_deterministic(self, boundary_data):
        x, y = boundary_data
        a = EOS(random_state=5).fit_resample(x, y)
        b = EOS(random_state=5).fit_resample(x, y)
        np.testing.assert_array_equal(a[0], b[0])

    def test_balanced_input_noop(self, rng):
        x = rng.normal(size=(20, 3))
        y = np.array([0, 1] * 10)
        xr, yr = EOS(random_state=0).fit_resample(x, y)
        assert len(xr) == 20

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            EOS(k_neighbors=0)
        with pytest.raises(ValueError):
            EOS(direction="sideways")
        with pytest.raises(ValueError):
            EOS(weighting="softmax")
        with pytest.raises(ValueError):
            EOS(expansion=0.0)


class TestNearestEnemyMechanics:
    def test_find_bases_only_with_enemy_neighbors(self, rng):
        # Minority: one point near the majority plus a tight far cluster
        # whose k-neighborhoods contain only class members.
        cluster = rng.normal([50.0, 50.0], 0.01, size=(5, 2))
        x = np.concatenate([rng.normal(0, 0.2, (30, 2)), [[0.8, 0.0]], cluster])
        y = np.array([0] * 30 + [1] * 6)
        info = EOS(k_neighbors=3, random_state=0).find_bases(x, y)
        bases, enemies, _ = info[1]
        assert 30 in bases  # the near point is a base
        for i in range(31, 36):
            assert i not in bases  # cluster members see no enemies

    def test_enemy_neighbors_are_adversaries(self, boundary_data):
        x, y = boundary_data
        info = EOS(k_neighbors=5, random_state=0).find_bases(x, y)
        for cls, (bases, enemies, weights) in info.items():
            for enemy_ids in enemies:
                assert np.all(y[enemy_ids] != cls)

    def test_uniform_weights_sum_to_one(self, boundary_data):
        x, y = boundary_data
        info = EOS(k_neighbors=5, weighting="uniform").find_bases(x, y)
        for _, (_, enemies, weights) in info.items():
            for w in weights:
                assert w.sum() == pytest.approx(1.0)
                assert len(set(np.round(w, 12))) == 1  # uniform

    def test_distance_weights_favor_close_enemies(self, rng):
        x = np.concatenate([[[0.0, 0.0]], [[1.0, 0.0]], [[4.0, 0.0]]])
        y = np.array([1, 0, 0])
        info = EOS(k_neighbors=2, weighting="distance").find_bases(x, y)
        bases, enemies, weights = info[1]
        order = np.argsort(enemies[0])  # enemy ids 1 (near), 2 (far)
        w = weights[0][order]
        assert w[0] > w[1]


class TestExpansion:
    def test_expands_minority_range_toward_enemies(self, boundary_data):
        """The defining property: unlike SMOTE, EOS widens minority ranges."""
        from repro.sampling import SMOTE

        x, y = boundary_data
        lo, hi = x[y == 1].min(axis=0), x[y == 1].max(axis=0)

        xr_eos, yr_eos = EOS(k_neighbors=8, random_state=0).fit_resample(x, y)
        synth_eos = xr_eos[len(x):]
        eos_outside = np.any((synth_eos < lo) | (synth_eos > hi), axis=1).mean()
        assert eos_outside > 0.2

        xr_sm, yr_sm = SMOTE(k_neighbors=3, random_state=0).fit_resample(x, y)
        synth_sm = xr_sm[len(x):]
        sm_outside = np.any((synth_sm < lo - 1e-9) | (synth_sm > hi + 1e-9),
                            axis=1).mean()
        assert sm_outside == 0.0

    def test_toward_samples_between_base_and_enemy(self, rng):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        y = np.array([1, 1, 0, 0])
        xr, yr = EOS(k_neighbors=3, direction="toward",
                     random_state=0).fit_resample(x, y)
        synth = xr[4:]
        assert np.all(synth[:, 0] >= -1e-9)
        assert np.all(synth[:, 0] <= 10.1 + 1e-9)

    def test_away_reflects_from_enemy(self, rng):
        x = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 0.0], [10.1, 0.0]])
        y = np.array([1, 1, 0, 0])
        xr, yr = EOS(k_neighbors=3, direction="away",
                     random_state=0).fit_resample(x, y)
        synth = xr[4:]
        # away: b + r (b - n) with n at ~10 puts points at x <= b.
        assert np.all(synth[:, 0] <= 0.1 + 1e-9)

    def test_expansion_factor_extrapolates(self, rng):
        x = np.array([[0.0], [0.1], [1.0], [1.1], [1.2]])
        y = np.array([1, 1, 0, 0, 0])
        xr, _ = EOS(
            k_neighbors=4,
            expansion=2.0,
            sampling_strategy={1: 40},
            random_state=0,
        ).fit_resample(x, y)
        synth = xr[5:]
        assert synth.max() > 1.2  # beyond the enemy

    def test_isolated_class_falls_back_to_jittered_duplication(self, rng):
        x = np.concatenate(
            [rng.normal(0, 0.01, (20, 2)), rng.normal(1000, 0.01, (3, 2))]
        )
        y = np.array([0] * 20 + [1] * 3)
        xr, yr = EOS(k_neighbors=2, random_state=0).fit_resample(x, y)
        synth = xr[23:]
        pool = x[y == 1]
        # Jitter scale: a few percent of the per-feature std (~0.01).
        spread = np.linalg.norm(pool.std(axis=0))
        for row in synth:
            nearest = np.min(np.linalg.norm(pool - row, axis=1))
            # Near an original (jittered copy), but not an exact duplicate.
            assert 0.0 < nearest < spread

    def test_isolated_class_fallback_is_deterministic(self, rng):
        x = np.concatenate(
            [rng.normal(0, 0.01, (20, 2)), rng.normal(1000, 0.01, (3, 2))]
        )
        y = np.array([0] * 20 + [1] * 3)
        a, _ = EOS(k_neighbors=2, random_state=7).fit_resample(x, y)
        b, _ = EOS(k_neighbors=2, random_state=7).fit_resample(x, y)
        np.testing.assert_array_equal(a, b)


class TestKSensitivity:
    def test_larger_k_wider_spread(self, rng):
        """More neighbors -> more distinct enemies -> more diverse samples
        (the Table-IV mechanism)."""
        x = np.concatenate(
            [rng.normal(0, 1.0, size=(100, 2)), rng.normal([3, 0], 0.5, size=(10, 2))]
        )
        y = np.array([0] * 100 + [1] * 10)
        spreads = []
        for k in (2, 20):
            xr, yr = EOS(k_neighbors=k, random_state=0).fit_resample(x, y)
            synth = xr[110:]
            spreads.append(synth.std(axis=0).mean())
        assert spreads[1] > spreads[0]

    def test_k_capped_at_dataset_size(self, rng):
        x = rng.normal(size=(6, 2))
        y = np.array([0, 0, 0, 0, 1, 1])
        xr, yr = EOS(k_neighbors=100, random_state=0).fit_resample(x, y)
        np.testing.assert_array_equal(np.bincount(yr), [4, 4])


class TestMultiClass:
    def test_three_class_balancing(self, rng):
        x = np.concatenate(
            [
                rng.normal(0, 1, size=(50, 4)),
                rng.normal(3, 1, size=(15, 4)),
                rng.normal(-3, 1, size=(5, 4)),
            ]
        )
        y = np.array([0] * 50 + [1] * 15 + [2] * 5)
        xr, yr = EOS(k_neighbors=8, random_state=0).fit_resample(x, y)
        np.testing.assert_array_equal(np.bincount(yr), [50, 50, 50])

    def test_explicit_sampling_strategy(self, rng):
        x = np.concatenate([rng.normal(0, 1, (20, 2)), rng.normal(2, 1, (5, 2))])
        y = np.array([0] * 20 + [1] * 5)
        xr, yr = EOS(
            k_neighbors=5, sampling_strategy={1: 12}, random_state=0
        ).fit_resample(x, y)
        np.testing.assert_array_equal(np.bincount(yr), [20, 12])


# ----------------------------------------------------------------------
# The batched table and draw against the per-row reference loop
# ----------------------------------------------------------------------
class ReferenceEOS(EOS):
    """EOS as a per-row loop: the reference the batched path must match.

    ``find_bases`` walks every row, and ``_generate_class`` calls
    ``rng.choice`` once per synthetic row.  :class:`EOS` must produce
    the same bytes from the same random stream.
    """

    def find_bases(self, x, y):
        x, y = validate_xy(x, y)
        n = x.shape[0]
        k = min(self.k_neighbors, n - 1)
        index = KNeighbors(k=k).fit(x)
        dists, nn_idx = index.query(x, exclude_self=True)

        per_class = {}
        for cls in np.unique(y):
            rows = np.nonzero(y == cls)[0]
            bases, enemies, weights = [], [], []
            for r in rows:
                neigh = nn_idx[r]
                enemy_mask = y[neigh] != cls
                if not enemy_mask.any():
                    continue
                enemy_ids = neigh[enemy_mask]
                if self.weighting == "uniform":
                    w = np.full(len(enemy_ids), 1.0 / len(enemy_ids))
                else:
                    d = dists[r][enemy_mask]
                    inv = 1.0 / np.maximum(d, 1e-12)
                    w = inv / inv.sum()
                bases.append(r)
                enemies.append(enemy_ids)
                weights.append(w)
            per_class[int(cls)] = (np.asarray(bases, dtype=np.int64), enemies, weights)
        return per_class

    def _fit_resample(self, x, y):
        rng = self._rng()
        targets = sampling_targets(y, self.sampling_strategy)
        if not targets:
            return x.copy(), y.copy()

        base_info = self.find_bases(x, y)
        new_x, new_y = [x], [y]
        for cls, n_new in sorted(targets.items()):
            synth = self._generate_class(x, y, cls, n_new, base_info, rng)
            new_x.append(synth)
            new_y.append(np.full(n_new, cls, dtype=np.int64))
        return np.concatenate(new_x), np.concatenate(new_y)

    def _generate_class(self, x, y, cls, n_new, base_info, rng):
        bases, enemies, weights = base_info.get(cls, (np.empty(0, np.int64), [], []))
        if len(bases) == 0:
            pool = x[y == cls]
            picks = rng.integers(0, pool.shape[0], size=n_new)
            scale = pool.std(axis=0)
            jitter = rng.normal(0.0, 1.0, size=(n_new, pool.shape[1]))
            return pool[picks] + _FALLBACK_JITTER * scale * jitter

        base_picks = rng.integers(0, len(bases), size=n_new)
        r = rng.uniform(0.0, self.expansion, size=(n_new, 1))
        base_points = x[bases[base_picks]]
        enemy_points = np.empty_like(base_points)
        for i, b in enumerate(base_picks):
            enemy_ids = enemies[b]
            w = weights[b]
            choice = rng.choice(len(enemy_ids), p=w)
            enemy_points[i] = x[enemy_ids[choice]]

        if self.direction == "toward":
            return base_points + r * (enemy_points - base_points)
        return base_points + r * (base_points - enemy_points)


def long_tailed_payload():
    """117x32 embeddings over class counts 60, 30, 15, 8, 4, shuffled."""
    rng = np.random.default_rng(0)
    counts = (60, 30, 15, 8, 4)
    labels = np.repeat(np.arange(len(counts)), counts)
    order = rng.permutation(labels.size)
    centers = rng.normal(size=(len(counts), 32))
    x = centers[labels] + rng.normal(size=(labels.size, 32))
    return np.round(x[order], 4), labels[order]


def isolated_class():
    """A 3-row class far from everything: its K <= 2 bases are empty."""
    rng = np.random.default_rng(1)
    x = np.concatenate([rng.normal(0, 0.01, (20, 2)),
                        rng.normal(1000, 0.01, (3, 2))])
    return x, np.array([0] * 20 + [1] * 3)


def isolated_beside_enemies():
    """Class 1 borders the majority; class 2 is isolated for K <= 3."""
    rng = np.random.default_rng(2)
    x = np.concatenate([rng.normal(0, 0.5, (30, 2)),
                        rng.normal([1.0, 0.0], 0.3, (6, 2)),
                        rng.normal(1000, 0.01, (4, 2))])
    return x, np.array([0] * 30 + [1] * 6 + [2] * 4)


def duplicated_rows():
    """Repeated rows under both labels: zero-distance neighbor ties."""
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(12, 3))
    x = np.concatenate([rows, rows[:6], rows[:3]])
    y = np.array([0] * 8 + [1] * 4 + [0, 0, 1, 1, 0, 0] + [1, 0, 1])
    return x, y


REFERENCE_INPUTS = {
    "long_tailed_payload": (long_tailed_payload, "auto"),
    "dict_strategy": (long_tailed_payload, {1: 45, 3: 20, 4: 61}),
    "isolated_class": (isolated_class, "auto"),
    "isolated_beside_enemies": (isolated_beside_enemies, "auto"),
    "duplicated_rows": (duplicated_rows, "auto"),
}


def assert_same_arrays(expected, actual):
    assert len(expected) == len(actual)
    for e, a in zip(expected, actual):
        assert e.dtype == a.dtype
        assert np.array_equal(e, a)


class TestBatchedMatchesReferenceLoop:
    @pytest.mark.parametrize("k", [1, 2, 5, 10, 40, 500])
    @pytest.mark.parametrize("name", sorted(REFERENCE_INPUTS))
    def test_fit_resample_and_find_bases_are_bitwise_equal(self, name, k):
        make, strategy = REFERENCE_INPUTS[name]
        x, y = make()
        for weighting, direction, expansion in itertools.product(
            ("uniform", "distance"), ("toward", "away"), (1.0, 2.0)
        ):
            params = dict(k_neighbors=k, weighting=weighting,
                          direction=direction, expansion=expansion,
                          sampling_strategy=strategy, random_state=11)
            assert_same_arrays(ReferenceEOS(**params).fit_resample(x, y),
                               EOS(**params).fit_resample(x, y))
        for weighting in ("uniform", "distance"):
            expected = ReferenceEOS(k_neighbors=k,
                                    weighting=weighting).find_bases(x, y)
            actual = EOS(k_neighbors=k, weighting=weighting).find_bases(x, y)
            assert sorted(expected) == sorted(actual)
            for cls, (bases, enemies, weights) in expected.items():
                assert_same_arrays([bases], [actual[cls][0]])
                assert_same_arrays(enemies, actual[cls][1])
                assert_same_arrays(weights, actual[cls][2])

    def test_grid_reaches_the_isolated_class_fallback(self):
        bases = EOS(k_neighbors=2).find_bases(*isolated_class())
        assert len(bases[1][0]) == 0
        bases = EOS(k_neighbors=3).find_bases(*isolated_beside_enemies())
        assert len(bases[2][0]) == 0 and len(bases[1][0]) > 0
