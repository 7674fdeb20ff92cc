"""Experiment configuration and component registries.

An :class:`ExperimentConfig` pins every knob of a reproduction run:
dataset profile and scale, architecture, training lengths, and the EOS
neighborhood.  Two presets are provided:

* ``bench_config()`` — a minutes-scale configuration used by the
  benchmark suite (tiny synthetic datasets, compact CNN, few epochs);
* ``full_config()`` — a larger configuration (ResNet-8 extractor,
  20 phase-1 epochs) for runs beyond the bench scale.

``build_sampler`` is the single factory the runners use to construct
any over-sampler (classic, SVM-based, GAN-based, or EOS) by name.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..core import EOS
from ..gans import BAGAN, CGAN, GAMO, DeepSMOTE
from ..sampling import (
    ADASYN,
    CCR,
    SWIM,
    BalancedSVMSampler,
    BorderlineSMOTE,
    RadialBasedOversampler,
    RandomOverSampler,
    Remix,
    SMOTE,
)

__all__ = [
    "ExperimentConfig",
    "bench_config",
    "full_config",
    "build_sampler",
    "SAMPLER_NAMES",
    "LOSS_NAMES",
]

#: Losses the paper evaluates, in its presentation order.
LOSS_NAMES = ("ce", "asl", "focal", "ldam")

#: Samplers constructible via :func:`build_sampler`.
SAMPLER_NAMES = (
    "none",
    "ros",
    "smote",
    "bsmote",
    "balsvm",
    "adasyn",
    "remix",
    "rbo",
    "ccr",
    "swim",
    "eos",
    "eos_away",
    "cgan",
    "bagan",
    "gamo",
    "deepsmote",
)


@dataclass
class ExperimentConfig:
    """All knobs of one reproduction run."""

    dataset: str = "cifar10_like"
    scale: str = "tiny"
    model: str = "smallconvnet"
    model_kwargs: dict = field(default_factory=dict)
    phase1_epochs: int = 8
    finetune_epochs: int = 10
    batch_size: int = 32
    lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 5e-4
    finetune_lr: float = 0.05
    k_neighbors: int = 10
    #: pixel-space train augmentation (crop+flip).  Off by default: the
    #: synthetic image families are not translation/flip invariant the
    #: way natural images are, so the CIFAR-style augmentations hurt.
    augment: bool = False
    seed: int = 0

    def with_overrides(self, **kwargs):
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def bench_config(**overrides):
    """Minutes-scale configuration used by the benchmark suite."""
    config = ExperimentConfig(
        dataset="cifar10_like",
        scale="tiny",
        model="smallconvnet",
        model_kwargs={"width": 6},
        phase1_epochs=20,
        finetune_epochs=10,
    )
    return config.with_overrides(**overrides) if overrides else config


def full_config(**overrides):
    """Larger configuration (ResNet-8, 20 phase-1 epochs) than the bench."""
    config = ExperimentConfig(
        dataset="cifar10_like",
        scale="small",
        model="resnet8",
        model_kwargs={"width_multiplier": 0.5},
        phase1_epochs=20,
        finetune_epochs=10,
    )
    return config.with_overrides(**overrides) if overrides else config


def build_sampler(name, k_neighbors=10, random_state=0, **kwargs):
    """Construct an over-sampler by registry name.

    ``"none"`` returns None (no resampling).  GAN samplers receive their
    own compact defaults; ``k_neighbors`` applies to the neighbor-based
    methods.
    """
    if name == "none":
        return None
    if name == "ros":
        return RandomOverSampler(random_state=random_state, **kwargs)
    if name == "smote":
        return SMOTE(
            k_neighbors=k_neighbors, random_state=random_state, **kwargs
        )
    if name == "bsmote":
        return BorderlineSMOTE(
            k_neighbors=k_neighbors, random_state=random_state, **kwargs
        )
    if name == "balsvm":
        return BalancedSVMSampler(
            k_neighbors=k_neighbors, random_state=random_state, **kwargs
        )
    if name == "adasyn":
        return ADASYN(
            k_neighbors=k_neighbors, random_state=random_state, **kwargs
        )
    if name == "remix":
        return Remix(random_state=random_state, **kwargs)
    if name == "rbo":
        return RadialBasedOversampler(random_state=random_state, **kwargs)
    if name == "ccr":
        return CCR(random_state=random_state, **kwargs)
    if name == "swim":
        return SWIM(random_state=random_state, **kwargs)
    if name == "eos":
        return EOS(
            k_neighbors=k_neighbors, random_state=random_state, **kwargs
        )
    if name == "eos_away":
        return EOS(
            k_neighbors=k_neighbors,
            direction="away",
            random_state=random_state,
            **kwargs,
        )
    if name == "cgan":
        return CGAN(random_state=random_state, **kwargs)
    if name == "bagan":
        return BAGAN(random_state=random_state, **kwargs)
    if name == "gamo":
        return GAMO(random_state=random_state, **kwargs)
    if name == "deepsmote":
        return DeepSMOTE(
            k_neighbors=k_neighbors, random_state=random_state, **kwargs
        )
    raise KeyError(
        "unknown sampler %r (available: %s)" % (name, ", ".join(SAMPLER_NAMES))
    )
