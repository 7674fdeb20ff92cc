"""Dataset containers and batch loading.

``ArrayDataset`` holds images as an (N, C, H, W) float array plus integer
labels; ``DataLoader`` provides shuffled mini-batches with optional
per-batch transforms (data augmentation in pixel space).
"""

from __future__ import annotations

import numpy as np

from .._rng import fresh_generator
from ..tensor._dtype import default_dtype

__all__ = ["ArrayDataset", "DataLoader"]


class ArrayDataset:
    """In-memory image classification dataset.

    Parameters
    ----------
    images:
        float array of shape (N, C, H, W), values roughly in [0, 1].
    labels:
        integer array of shape (N,).
    """

    def __init__(self, images, labels):
        # The single choke point for image dtype: everything downstream
        # (loaders, trainers, extractors) inherits the substrate default.
        images = np.asarray(images, dtype=default_dtype())
        labels = np.asarray(labels, dtype=np.int64)
        if images.ndim != 4:
            raise ValueError("images must be (N, C, H, W), got %s" % (images.shape,))
        if labels.ndim != 1 or labels.shape[0] != images.shape[0]:
            raise ValueError(
                "labels must be (N,) matching images, got %s" % (labels.shape,)
            )
        self.images = images
        self.labels = labels

    def __len__(self):
        return self.images.shape[0]

    def __getitem__(self, idx):
        return self.images[idx], self.labels[idx]

    @property
    def num_classes(self):
        return int(self.labels.max()) + 1 if len(self) else 0

    @property
    def image_shape(self):
        return self.images.shape[1:]

    def class_counts(self, num_classes=None):
        """Per-class sample counts as an int array of length num_classes."""
        k = num_classes if num_classes is not None else self.num_classes
        return np.bincount(self.labels, minlength=k)

    def subset(self, indices):
        """Return a new dataset containing only ``indices`` (copies:
        indexing with an array always does)."""
        indices = np.asarray(indices)
        return ArrayDataset(self.images[indices], self.labels[indices])

    def class_indices(self, label):
        """Indices of all samples with the given label."""
        return np.nonzero(self.labels == label)[0]

    def shuffled(self, rng):
        """Return a shuffled copy of the dataset."""
        perm = rng.permutation(len(self))
        return self.subset(perm)

    def split(self, fraction, rng):
        """Random split into two datasets: (fraction, 1 - fraction)."""
        if not 0 < fraction < 1:
            raise ValueError("fraction must be in (0, 1)")
        perm = rng.permutation(len(self))
        cut = int(round(fraction * len(self)))
        return self.subset(perm[:cut]), self.subset(perm[cut:])


class DataLoader:
    """Mini-batch iterator over an :class:`ArrayDataset`.

    Parameters
    ----------
    dataset:
        The dataset to iterate.
    batch_size:
        Mini-batch size; the final batch may be smaller unless
        ``drop_last`` is set.
    shuffle:
        Reshuffle sample order every epoch.
    transform:
        Optional callable ``(images, rng) -> images`` applied per batch
        (see :mod:`repro.data.transforms`).
    rng:
        numpy Generator used for shuffling and transforms.
    """

    def __init__(
        self,
        dataset,
        batch_size=32,
        shuffle=True,
        transform=None,
        drop_last=False,
        rng=None,
    ):
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        self.dataset = dataset
        self.batch_size = batch_size
        self.shuffle = shuffle
        self.transform = transform
        self.drop_last = drop_last
        self.rng = rng if rng is not None else fresh_generator()

    def __len__(self):
        n = len(self.dataset)
        if self.drop_last:
            return n // self.batch_size
        return (n + self.batch_size - 1) // self.batch_size

    def __iter__(self):
        n = len(self.dataset)
        order = self.rng.permutation(n) if self.shuffle else np.arange(n)
        for start in range(0, n, self.batch_size):
            idx = order[start : start + self.batch_size]
            if self.drop_last and len(idx) < self.batch_size:
                return
            images = self.dataset.images[idx]
            labels = self.dataset.labels[idx]
            if self.transform is not None:
                images = self.transform(images, self.rng)
            yield images, labels
