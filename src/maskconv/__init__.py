"""Masked convolution filter banks.

A small numpy library in which one stored "primary" convolution filter
spawns several "secondary" filters through binary masks: nested
centered-square spatial pyramids, sliding channel windows, random fixed
bit patterns, or masks learned jointly with the filters through a
straight-through estimator.  Includes the cached-product cost model,
whose multiplication count drops by the mask-sharing factor, exact
parameter/operation accounting, and a small training stack with
checkpointing and a command line front end.
"""

from maskconv.convref import (
    PatchMatrix,
    ShapeError,
    col2im,
    conv_output_size,
    conv_reference,
    im2col,
    matmul_conv,
    vec,
)
from maskconv.layers import (
    FilterBank,
    LayerSpec,
    bank_backward,
    bank_forward,
    naive_sum_forward,
)
from maskconv.masks import (
    MaskSet,
    agent_update,
    channel_windows,
    ortho_grad,
    ortho_loss,
    random_masks,
    spatial_masks,
)
from maskconv.fastinfer import OpCounts, cached_forward, measure_vs_predict, predict_counts

__all__ = [
    "FilterBank",
    "LayerSpec",
    "MaskSet",
    "OpCounts",
    "PatchMatrix",
    "ShapeError",
    "agent_update",
    "bank_backward",
    "bank_forward",
    "cached_forward",
    "channel_windows",
    "col2im",
    "conv_output_size",
    "conv_reference",
    "im2col",
    "matmul_conv",
    "measure_vs_predict",
    "naive_sum_forward",
    "ortho_grad",
    "ortho_loss",
    "predict_counts",
    "random_masks",
    "spatial_masks",
    "vec",
]

__version__ = "0.1.0"
