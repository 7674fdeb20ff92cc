"""Autograd tensor engine (numpy-backed reverse-mode differentiation)."""

from .anomaly import AnomalyError, detect_anomaly, is_anomaly_enabled
from ._dtype import default_dtype, set_default_dtype, using_default_dtype
from .pool import clear_pool, pool_stats
from .tensor import Tensor, concatenate, is_grad_enabled, no_grad, stack, where
from .conv import (
    avg_pool2d,
    col2im,
    conv2d,
    conv_transpose2d,
    global_avg_pool2d,
    im2col,
    max_pool2d,
)
from .functional import (
    dropout,
    batchnorm_train,
    folded_batchnorm,
    linear,
    linear_relu,
    log_softmax,
    nll_loss,
    one_hot,
    softmax,
)
from .gradcheck import (
    check_gradients,
    check_inplace_mutation_detected,
    gradcheck_batchnorm_eval,
    gradcheck_conv2d_nonsquare,
    numeric_grad,
    run_extended_checks,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "default_dtype",
    "set_default_dtype",
    "using_default_dtype",
    "clear_pool",
    "pool_stats",
    "AnomalyError",
    "detect_anomaly",
    "is_anomaly_enabled",
    "concatenate",
    "stack",
    "where",
    "conv2d",
    "conv_transpose2d",
    "im2col",
    "col2im",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "softmax",
    "log_softmax",
    "one_hot",
    "dropout",
    "linear",
    "linear_relu",
    "folded_batchnorm",
    "batchnorm_train",
    "nll_loss",
    "check_gradients",
    "numeric_grad",
    "gradcheck_conv2d_nonsquare",
    "gradcheck_batchnorm_eval",
    "check_inplace_mutation_detected",
    "run_extended_checks",
]
