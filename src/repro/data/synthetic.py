"""Procedural image-dataset families standing in for the paper's datasets.

No network access is available in the reproduction environment, so
CIFAR-10, SVHN, CIFAR-100 and CelebA are replaced by *synthetic
families*: each family defines per-class latent prototypes (optionally
with several sub-concepts per class, some of which are pulled toward a
different class to create the class overlap that drives the paper's
minority-generalization story).  A fixed random low-frequency cosine
basis decodes latents into (C, H, W) images, and per-sample latent noise
plus pixel noise make train and test i.i.d. draws from the same
class-conditional distribution.

This construction preserves the properties the paper's experiments probe:

* classes are learnable but overlap (sub-concepts shared across classes),
* i.i.d. train/test sampling, so sparsely-sampled minority classes have a
  genuinely wider train/test embedding-range gap,
* the four named profiles mirror the paper's class counts and imbalance
  ratios (10/10/100/5 classes; 100:1, 100:1, 10:1, 40:1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ArrayDataset
from .imbalance import apply_imbalance, exponential_profile

__all__ = [
    "SyntheticConfig",
    "SyntheticImageFamily",
    "DATASET_PROFILES",
    "SCALE_PRESETS",
    "make_dataset",
    "list_datasets",
]

#: Image rows whose pixel noise :meth:`SyntheticImageFamily.decode`
#: draws at once.
_NOISE_ROWS = 100


@dataclass
class SyntheticConfig:
    """Parameters of a synthetic image family.

    Attributes
    ----------
    num_classes:
        Number of classes.
    image_size:
        Side length of the square images.
    channels:
        Image channels (3 = RGB).
    latent_dim:
        Dimension of the class-prototype latent space.
    class_separation:
        Scale of the prototype cloud; larger = easier classes.
    within_class_std:
        Latent noise around each sub-concept prototype.
    subconcepts:
        Sub-concept prototypes per class (multi-modal classes).
    overlap:
        Fraction of the distance each secondary sub-concept is pulled
        toward a *different* class's prototype (class overlap).
    pixel_noise:
        Std of additive pixel noise after decoding.
    seed:
        Seed fixing the family (prototypes + decoder basis).
    """

    num_classes: int = 10
    image_size: int = 12
    channels: int = 3
    latent_dim: int = 24
    class_separation: float = 3.0
    within_class_std: float = 1.0
    subconcepts: int = 2
    overlap: float = 0.35
    pixel_noise: float = 0.02
    seed: int = 0


class SyntheticImageFamily:
    """A fixed class-conditional image distribution that can be sampled.

    The family is deterministic given its config; sampling takes an
    external ``rng`` so different cuts of the training set can be drawn
    (the paper trains on three cuts before selecting one).
    """

    def __init__(self, config):
        self.config = config
        rng = np.random.default_rng(config.seed)
        c = config

        # Class prototypes in latent space.
        self.prototypes = rng.normal(
            0.0, c.class_separation, size=(c.num_classes, c.latent_dim)
        )

        # Sub-concept prototypes: the first sits at the class prototype;
        # the rest are jittered copies, some pulled toward another class
        # to create inter-class overlap.
        sub = np.empty((c.num_classes, c.subconcepts, c.latent_dim))
        for k in range(c.num_classes):
            sub[k, 0] = self.prototypes[k]
            for s in range(1, c.subconcepts):
                jitter = rng.normal(0.0, 0.5 * c.class_separation, c.latent_dim)
                point = self.prototypes[k] + jitter
                if c.overlap > 0 and c.num_classes > 1:
                    other = rng.integers(0, c.num_classes - 1)
                    if other >= k:
                        other += 1
                    point = (1 - c.overlap) * point + c.overlap * self.prototypes[other]
                sub[k, s] = point
        self.subconcept_prototypes = sub

        # Fixed decoder: low-frequency cosine basis per latent dimension.
        size = c.image_size
        yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
        basis = np.empty((c.latent_dim, c.channels, size, size))
        freqs = rng.uniform(0.3, 2.0, size=(c.latent_dim, c.channels, 2))
        phases = rng.uniform(0, 2 * np.pi, size=(c.latent_dim, c.channels, 2))
        for l in range(c.latent_dim):
            for ch in range(c.channels):
                fy, fx = freqs[l, ch]
                py, px = phases[l, ch]
                basis[l, ch] = np.cos(
                    2 * np.pi * fy * yy / size + py
                ) * np.cos(2 * np.pi * fx * xx / size + px)
        self.basis = basis.reshape(c.latent_dim, -1)
        self._image_shape = (c.channels, size, size)

    def decode(self, latents, rng=None):
        """Decode (N, latent_dim) latents to (N, C, H, W) images in [0, 1].

        Every step after the projection works in place on its (N, C*H*W)
        result, and the pixel noise is drawn and added ``_NOISE_ROWS``
        rows at a time (the same draws, in the same order, as one
        whole-block draw), so a decode holds about one image block.
        """
        images = latents @ self.basis
        images /= np.sqrt(self.config.latent_dim)
        np.tanh(images, out=images)
        images += 1.0
        images /= 2.0
        if rng is not None and self.config.pixel_noise > 0:
            for start in range(0, len(images), _NOISE_ROWS):
                rows = images[start:start + _NOISE_ROWS]
                rows += rng.normal(0, self.config.pixel_noise, rows.shape)
        np.clip(images, 0.0, 1.0, out=images)
        return images.reshape((-1,) + self._image_shape)

    def sample_latents(self, labels, rng):
        """Sample per-instance latents for the given integer labels."""
        c = self.config
        labels = np.asarray(labels)
        concept = rng.integers(0, c.subconcepts, size=labels.shape[0])
        centers = self.subconcept_prototypes[labels, concept]
        return centers + rng.normal(0.0, c.within_class_std, centers.shape)

    def sample(self, n_per_class, rng):
        """Draw a balanced dataset with ``n_per_class`` samples per class."""
        c = self.config
        labels = np.repeat(np.arange(c.num_classes), n_per_class)
        latents = self.sample_latents(labels, rng)
        images = self.decode(latents, rng)
        return ArrayDataset(images, labels)


# ----------------------------------------------------------------------
# Named dataset profiles mirroring the paper's four benchmarks
# ----------------------------------------------------------------------

#: Per-dataset family parameters and imbalance profile.  ``ratio`` and
#: ``num_classes`` follow the paper; sample counts are set by the scale
#: preset at :func:`make_dataset` time.
DATASET_PROFILES = {
    "cifar10_like": {
        "config": SyntheticConfig(
            num_classes=10,
            class_separation=2.8,
            within_class_std=1.6,
            subconcepts=3,
            overlap=0.45,
            seed=101,
        ),
        "ratio": 100,
    },
    "svhn_like": {
        "config": SyntheticConfig(
            num_classes=10,
            class_separation=3.4,
            within_class_std=1.5,
            subconcepts=3,
            overlap=0.35,
            seed=202,
        ),
        "ratio": 100,
    },
    "cifar100_like": {
        "config": SyntheticConfig(
            num_classes=100,
            latent_dim=32,
            class_separation=2.6,
            within_class_std=1.4,
            subconcepts=2,
            overlap=0.45,
            seed=303,
        ),
        "ratio": 10,
    },
    "celeba_like": {
        "config": SyntheticConfig(
            num_classes=5,
            class_separation=2.6,
            within_class_std=1.7,
            subconcepts=3,
            overlap=0.50,
            seed=404,
        ),
        "ratio": 40,
    },
}

#: Scale presets: (max train samples per class, test samples per class).
#: "tiny" keeps benchmarks fast; "small" is the default experiment scale;
#: "medium" gives smoother curves when more CPU time is available.
SCALE_PRESETS = {
    "tiny": {"n_max_train": 60, "n_test": 30},
    "small": {"n_max_train": 150, "n_test": 60},
    "medium": {"n_max_train": 400, "n_test": 150},
}

# CIFAR-100-like has 10x fewer samples per class, as in the paper.
_PER_DATASET_SCALE_FACTOR = {"cifar100_like": 0.25}


def list_datasets():
    """Names of the available dataset profiles."""
    return sorted(DATASET_PROFILES)


def make_dataset(name, scale="small", seed=0, image_size=None):
    """Build an imbalanced train set and balanced test set for a profile.

    Parameters
    ----------
    name:
        One of :func:`list_datasets` (e.g. ``"cifar10_like"``).
    scale:
        A key of :data:`SCALE_PRESETS`, or a dict with ``n_max_train``
        and ``n_test``.
    seed:
        Seed for the *sampling* rng (the family itself is fixed by its
        profile seed, so different seeds give different training cuts of
        the same underlying distribution).
    image_size:
        Optional override of the profile's image side length.

    Returns
    -------
    (train, test, info):
        ``train`` is exponentially imbalanced per the profile's ratio,
        ``test`` is balanced, ``info`` is a dict with the family, the
        per-class counts and the profile parameters.
    """
    if name not in DATASET_PROFILES:
        raise KeyError(
            "unknown dataset %r (available: %s)" % (name, ", ".join(list_datasets()))
        )
    profile = DATASET_PROFILES[name]
    if isinstance(scale, str):
        try:
            scale_params = dict(SCALE_PRESETS[scale])
        except KeyError:
            raise KeyError(
                "unknown scale %r (available: %s)"
                % (scale, ", ".join(sorted(SCALE_PRESETS)))
            ) from None
    else:
        scale_params = dict(scale)

    factor = _PER_DATASET_SCALE_FACTOR.get(name, 1.0)
    n_max = max(4, int(round(scale_params["n_max_train"] * factor)))
    n_test = max(4, int(round(scale_params["n_test"] * factor)))

    config = profile["config"]
    if image_size is not None:
        config = SyntheticConfig(**{**config.__dict__, "image_size": image_size})
    family = SyntheticImageFamily(config)

    rng = np.random.default_rng(seed)
    counts = exponential_profile(n_max, config.num_classes, profile["ratio"])
    train_balanced = family.sample(n_max, rng)
    train = apply_imbalance(train_balanced, counts, rng)
    test = family.sample(n_test, rng)
    info = {
        "name": name,
        "family": family,
        "train_counts": counts,
        "ratio": profile["ratio"],
        "num_classes": config.num_classes,
        "image_size": config.image_size,
    }
    return train, test, info
