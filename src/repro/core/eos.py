"""Expansive Over-Sampling (EOS) — the paper's core contribution.

EOS (Algorithm 2) generates synthetic minority samples from *nearest
adversaries* ("nearest enemies"): for each minority point whose k-NN
neighborhood contains other-class members, synthetic samples are formed
as combinations of the point and one of its enemy neighbors.  Because
the enemy lies across the local decision boundary, the synthesis expands
the minority class's feature *ranges* toward the adversary class —
exactly the direction in which the train/test generalization gap opens
up — instead of interpolating strictly inside the minority convex hull
the way SMOTE-family methods do.

EOS is designed to run on CNN *feature embeddings* inside the
three-phase framework (:mod:`repro.core.framework`), but the sampler is
space-agnostic and can be applied to raw pixels for the paper's §V-E3
ablation.

Direction note: the paper's Algorithm 2 writes ``samples = B + R*(B-N)``
while the prose describes convex combinations between the base and its
nearest enemy ("adds a portion of this difference to the base example"),
which is ``B + R*(N-B)``.  We default to the convex combination
(``direction="toward"``, matching the stated goal of expanding minority
ranges toward the neighboring majority classes) and expose the literal
sign as ``direction="away"`` for the ablation benchmark.
"""

from __future__ import annotations

import numpy as np

from ..neighbors import KNeighbors
from .._validation import validate_xy
from ..sampling.base import BaseSampler, sampling_targets

__all__ = ["EOS"]

# Jitter scale for the isolated-class fallback: synthetic copies are
# perturbed by N(0, (_FALLBACK_JITTER * per-feature std)^2).
_FALLBACK_JITTER = 0.05


class EOS(BaseSampler):
    """Expansive Over-Sampling.

    Parameters
    ----------
    k_neighbors:
        Neighborhood size K used to find nearest enemies (the paper uses
        K=10 by default and sweeps {10, 50, 100, 200, 300} in Table IV).
    direction:
        "toward" (default) moves synthetic samples from the base toward
        its enemy neighbor; "away" uses the literal Algorithm-2 sign and
        reflects away from the enemy.
    weighting:
        "uniform" assigns each enemy neighbor of a base example the same
        sampling probability (paper); "distance" weights enemies
        inversely to their distance (ablation).
    expansion:
        Upper bound of the interpolation coefficient ``r`` (r ~ U[0,
        expansion]); 1.0 reproduces the paper, values > 1 extrapolate
        beyond the enemy.
    sampling_strategy:
        "auto" balances all classes to the majority count; a dict
        {class: total} requests explicit totals.
    random_state:
        RNG seed.
    """

    def __init__(
        self,
        k_neighbors=10,
        direction="toward",
        weighting="uniform",
        expansion=1.0,
        sampling_strategy="auto",
        random_state=0,
    ):
        if k_neighbors <= 0:
            raise ValueError("k_neighbors must be positive")
        if direction not in ("toward", "away"):
            raise ValueError("direction must be 'toward' or 'away'")
        if weighting not in ("uniform", "distance"):
            raise ValueError("weighting must be 'uniform' or 'distance'")
        if expansion <= 0:
            raise ValueError("expansion must be positive")
        super().__init__(
            sampling_strategy=sampling_strategy, random_state=random_state
        )
        self.k_neighbors = k_neighbors
        self.direction = direction
        self.weighting = weighting
        self.expansion = expansion

    # ------------------------------------------------------------------
    def find_bases(self, x, y):
        """Identify base examples and their enemy neighbors.

        Returns
        -------
        dict mapping class -> (base_rows, enemy_lists, weight_lists)
            ``base_rows`` are indices into ``x`` of class members whose
            K-neighborhood contains at least one adversary;
            ``enemy_lists[i]`` holds the enemy indices of base i, and
            ``weight_lists[i]`` their sampling probabilities.
        """
        x, y = validate_xy(x, y)
        enemies, counts, weights = self._enemy_table(x, y)
        per_class = {}
        for cls in np.unique(y):
            bases = np.nonzero((y == cls) & (counts > 0))[0]
            per_class[int(cls)] = (
                bases,
                [enemies[b, : counts[b]] for b in bases],
                [weights[b, : counts[b]] for b in bases],
            )
        return per_class

    def _enemy_table(self, x, y):
        """Every row's enemies within its K-neighborhood, left-aligned.

        Returns ``(enemies, counts, weights)``, each with one row per
        sample: ``enemies[i, :counts[i]]`` are row i's adversary
        neighbors in neighbor-rank order and ``weights[i, :counts[i]]``
        their sampling probabilities; later slots carry weight 0.
        """
        n = x.shape[0]
        k = min(self.k_neighbors, n - 1)
        index = KNeighbors(k=k).fit(x)
        dists, nn_idx = index.query(x, exclude_self=True)

        enemy = y[nn_idx] != y[:, None]
        # A stable sort on "not an enemy" moves enemies left and keeps
        # their neighbor-rank order.
        order = np.argsort(~enemy, axis=1, kind="stable")
        enemies = np.take_along_axis(nn_idx, order, axis=1)
        counts = enemy.sum(axis=1)
        slots = np.arange(nn_idx.shape[1]) < counts[:, None]
        if self.weighting == "uniform":
            weights = np.where(slots, 1.0 / np.maximum(counts, 1)[:, None], 0.0)
        else:
            d = np.take_along_axis(dists, order, axis=1)
            inv = 1.0 / np.maximum(d, 1e-12)
            weights = np.zeros_like(inv)
            # Normalize over each unpadded row: a padded row sum can
            # associate differently and move the last bit.
            for b in np.nonzero(counts)[0]:
                row = inv[b, : counts[b]]
                weights[b, : counts[b]] = row / row.sum()
        return enemies, counts, weights

    # ------------------------------------------------------------------
    def _fit_resample(self, x, y):
        """Balance (x, y); synthetic rows are appended after the originals."""
        rng = self._rng()
        targets = sampling_targets(y, self.sampling_strategy)
        if not targets:
            return x.copy(), y.copy()

        table = self._enemy_table(x, y)
        new_x, new_y = [x], [y]
        for cls, n_new in sorted(targets.items()):
            synth = self._generate_class(x, y, cls, n_new, table, rng)
            new_x.append(synth)
            new_y.append(np.full(n_new, cls, dtype=np.int64))
        return np.concatenate(new_x), np.concatenate(new_y)

    def _generate_class(self, x, y, cls, n_new, table, rng):
        enemies, counts, weights = table
        bases = np.nonzero((y == cls) & (counts > 0))[0]
        if len(bases) == 0:
            # No class member has an adversary in its neighborhood: the
            # class is locally isolated, so there is no boundary to
            # expand toward.  Fall back to jittered duplication: copies
            # perturbed by Gaussian noise scaled to the per-feature
            # spread, so the fallback still adds (mild) diversity
            # instead of exact duplicates.
            pool = x[y == cls]
            picks = rng.integers(0, pool.shape[0], size=n_new)
            scale = pool.std(axis=0)
            jitter = rng.normal(0.0, 1.0, size=(n_new, pool.shape[1]))
            return pool[picks] + _FALLBACK_JITTER * scale * jitter

        base_picks = rng.integers(0, len(bases), size=n_new)
        r = rng.uniform(0.0, self.expansion, size=(n_new, 1))
        # Generator.choice(m, p=w) normalizes cdf = cumsum(w) by its last
        # entry, draws one random() double u and returns the number of
        # cdf entries <= u.  Drawing all n_new doubles at once consumes
        # the same stream as one choice per row, so the picks are those
        # of the per-row loop that tests/test_eos.py keeps as reference.
        u = rng.random(n_new)
        m = counts[bases]
        cdf = np.cumsum(weights[bases], axis=1)
        cdf /= cdf[np.arange(len(bases)), m - 1][:, None]
        slots = np.arange(cdf.shape[1]) < m[base_picks][:, None]
        choice = ((cdf[base_picks] <= u[:, None]) & slots).sum(axis=1)
        rows = bases[base_picks]
        base_points = x[rows]
        enemy_points = x[enemies[rows, choice]]

        if self.direction == "toward":
            return base_points + r * (enemy_points - base_points)
        return base_points + r * (base_points - enemy_points)
