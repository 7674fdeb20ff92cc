"""Nearest-neighbor search (brute force, memory-chunked).

Provides the neighbor machinery the over-samplers need: k-nearest
neighbors under euclidean or manhattan distance (EOS takes each row's
enemies from inside its :class:`KNeighbors` neighborhood), plus
*nearest enemy* queries (the nearest neighbors belonging to a different
class, wherever they lie), behind Figure 6's nearest-enemy distance.
"""

from __future__ import annotations

import numpy as np

__all__ = ["pairwise_distances", "KNeighbors", "nearest_enemies"]


def pairwise_distances(a, b, metric="euclidean"):
    """Dense distance matrix between rows of ``a`` (n, d) and ``b`` (m, d)."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[1]:
        raise ValueError("inputs must be 2D with matching feature dims")
    if metric == "euclidean":
        # (a - b)^2 = a^2 + b^2 - 2ab, clipped for numeric safety.
        sq = (
            (a * a).sum(axis=1)[:, None]
            + (b * b).sum(axis=1)[None, :]
            - 2.0 * (a @ b.T)
        )
        return np.sqrt(np.clip(sq, 0.0, None))
    if metric == "manhattan":
        return np.abs(a[:, None, :] - b[None, :, :]).sum(axis=2)
    raise ValueError("unknown metric %r" % metric)


class KNeighbors:
    """Brute-force k-NN index with optional chunked queries.

    Parameters
    ----------
    k:
        Number of neighbors returned by :meth:`query`.
    metric:
        "euclidean" or "manhattan".
    chunk_size:
        Query rows processed per chunk, bounding the distance-matrix
        memory to ``chunk_size * n_index`` floats.
    """

    def __init__(self, k=5, metric="euclidean", chunk_size=2048):
        if k <= 0:
            raise ValueError("k must be positive")
        self.k = k
        self.metric = metric
        self.chunk_size = chunk_size
        self._data = None
        self._labels = None

    def fit(self, data, labels=None):
        """Index ``data`` (n, d) with optional integer labels."""
        self._data = np.asarray(data, dtype=np.float64)
        if self._data.ndim != 2:
            raise ValueError("data must be 2D")
        self._labels = None if labels is None else np.asarray(labels, dtype=np.int64)
        return self

    @property
    def data(self):
        return self._data

    @property
    def labels(self):
        return self._labels

    def _query_chunk(self, chunk, k_eff):
        """Sorted (distances, indices) of the k_eff nearest for one chunk."""
        d = pairwise_distances(chunk, self._data, self.metric)
        part = np.argpartition(d, k_eff - 1, axis=1)[:, :k_eff]
        rows = np.arange(d.shape[0])[:, None]
        part_d = d[rows, part]
        order = np.argsort(part_d, axis=1)
        return part_d[rows, order], part[rows, order]

    def query(self, points, k=None, exclude_self=False, self_indices=None):
        """Return (distances, indices) of the k nearest indexed rows.

        With ``exclude_self`` each query row's own training point is
        dropped from its neighbor list.  Self-matches are identified by
        *index*, never by coordinates — a distinct training point that
        happens to duplicate the query is a legitimate neighbor and is
        kept.  ``self_indices`` gives the indexed row owned by each
        query row; when omitted, queries must be row-aligned with the
        indexed data (``points[i]`` is indexed row ``i``).
        """
        if self._data is None:
            raise RuntimeError("call fit() before query()")
        k = k if k is not None else self.k
        extra = 1 if exclude_self else 0
        k_eff = min(k + extra, self._data.shape[0])
        points = np.asarray(points, dtype=np.float64)
        n = points.shape[0]
        dists = np.empty((n, k_eff))
        idxs = np.empty((n, k_eff), dtype=np.int64)
        for start in range(0, n, self.chunk_size):
            chunk_d, chunk_i = self._query_chunk(
                points[start : start + self.chunk_size], k_eff
            )
            dists[start : start + self.chunk_size] = chunk_d
            idxs[start : start + self.chunk_size] = chunk_i
        if exclude_self:
            if self_indices is None:
                if n != self._data.shape[0]:
                    raise ValueError(
                        "exclude_self without self_indices requires the "
                        "query to be row-aligned with the indexed data "
                        "(%d query rows vs %d indexed); pass self_indices"
                        % (n, self._data.shape[0])
                    )
                self_indices = np.arange(n)
            dists, idxs = self._drop_self(dists, idxs, k, self_indices)
        return dists, idxs

    def _drop_self(self, dists, idxs, k, self_indices):
        """Remove each row's own indexed point (matched by index).

        When the self index is absent from a row's candidate list
        (``argpartition`` broke a zero-distance tie among duplicates in
        favor of another copy), the farthest candidate is dropped
        instead — the row still loses exactly one column.
        """
        n, k_eff = dists.shape
        out_w = min(k, k_eff - 1) if k_eff > 1 else 0
        self_indices = np.asarray(self_indices, dtype=np.int64).reshape(-1, 1)
        is_self = idxs == self_indices
        has_self = is_self.any(axis=1)
        drop = np.where(has_self, is_self.argmax(axis=1), k_eff - 1)
        keep = np.ones((n, k_eff), dtype=bool)
        keep[np.arange(n), drop] = False
        out_d = dists[keep].reshape(n, k_eff - 1)[:, :out_w]
        out_i = idxs[keep].reshape(n, k_eff - 1)[:, :out_w]
        return out_d, out_i

    def predict(self, points, k=None):
        """Majority-vote classification using indexed labels."""
        if self._labels is None:
            raise RuntimeError("index was fit without labels")
        _, idx = self.query(points, k=k)
        votes = self._labels[idx]
        num_classes = int(self._labels.max()) + 1
        counts = np.apply_along_axis(
            lambda row: np.bincount(row, minlength=num_classes), 1, votes
        )
        return counts.argmax(axis=1)


def _enemy_chunk(features, labels, start, stop, k_eff, metric):
    """Sorted enemy (distances, indices) for rows [start, stop).

    Slots with no reachable enemy (a class with no adversaries in the
    data, or fewer than ``k_eff`` enemies) come back as inf/−1 rather
    than whatever index ``argpartition`` happened to leave there.
    """
    d = pairwise_distances(features[start:stop], features, metric)
    same = labels[start:stop, None] == labels[None, :]
    d[same] = np.inf
    part = np.argpartition(d, k_eff - 1, axis=1)[:, :k_eff]
    rows = np.arange(d.shape[0])[:, None]
    part_d = d[rows, part]
    order = np.argsort(part_d, axis=1)
    sel_d = part_d[rows, order]
    sel_i = part[rows, order]
    invalid = ~np.isfinite(sel_d)
    sel_i[invalid] = -1
    sel_d[invalid] = np.inf
    return sel_d, sel_i


def nearest_enemies(features, labels, k, metric="euclidean", chunk_size=2048):
    """For every sample, its k nearest *other-class* neighbors.

    Returns (distances, indices), both (n, k) arrays indexing into
    ``features``.  Enemies are the adversary-class points closest to
    each sample, however far away, i.e. the points across the nearest
    decision boundary.  EOS does not use this query: it keeps only the
    enemies inside each sample's K-neighborhood.  Slots beyond a
    sample's reachable enemies hold distance ``inf`` and index ``-1``.
    """
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64)
    n = features.shape[0]
    if k <= 0:
        raise ValueError("k must be positive")
    out_d = np.full((n, k), np.inf)
    out_i = np.full((n, k), -1, dtype=np.int64)
    k_eff = min(k, n - 1)
    if k_eff <= 0:
        return out_d, out_i
    for start in range(0, n, chunk_size):
        sel_d, sel_i = _enemy_chunk(features, labels, start,
                                    min(start + chunk_size, n), k_eff, metric)
        out_i[start : start + chunk_size, :k_eff] = sel_i
        out_d[start : start + chunk_size, :k_eff] = sel_d
    return out_d, out_i
