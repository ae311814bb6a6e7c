"""Small sequential CNN with manual backprop, batched over images.

Layers operate on ``(B, H, W, c)`` arrays.  :class:`MaskedConv` runs the
filter-bank core of :mod:`maskconv.layers` on the whole batch, and only
the dense layers' forward products go through the conv forward's
contraction, so a batch's outputs equal its single images' bit for bit;
their gradients, like the conv backward's, run on one-thread OpenBLAS
(both rules: :mod:`maskconv.convref`).  Conv activations and
their gradients keep the core's batch-innermost memory order between
layers (both orders: :mod:`maskconv.convref`): ``MaskedConv`` passes its
output on as the core returns it, ReLU and ``AvgPool2`` keep their
input's order, and ``Flatten`` hands its gradient back in its input's.

A layer's forward keeps what its backward reads in ``_saved``, and the
backward drops it, as :meth:`Network.release` does when none follows.
"""

from __future__ import annotations

import numpy as np

from maskconv.convref import ShapeError, _blas_contract, _contract, column_sums, conv_output_size, im2col
from maskconv.fastinfer import masks_for_spec
from maskconv.layers import (
    BankGrads,
    FilterBank,
    LayerSpec,
    bank_backward,
    forward_patches,
    random_bank,
    spec_for_maps,
)
from maskconv.masks import MaskSet, agent_update, from_dense, ortho_grad, ortho_loss

CONV_BYTES_MAX = 1 << 30
"""Largest patch matrix, output or masked-filter matrix a :class:`MaskedConv`
forward allocates: 1 GiB, ~290x the shipped models' largest (conv1's
patches at ``evaluate``'s batch of 64, 3.69 MB).  A checkpoint header
cannot size an allocation past it: the patch rows grow with ``d``, the
maps with ``k``, and a channel layer's mask bits and full-view masked
filters (:class:`maskconv.layers.MaskLayout`) with its ``s`` windows.  The
backward adds no second patch-sized buffer: its input-gradient columns
reuse the patch matrix's."""


class MaskedConv:
    """Convolution layer deriving its outputs from masked primary filters.

    The layer is its spec, its :class:`FilterBank` and, iff learnable, its
    masks; :meth:`init` draws fresh ones.  What the masks select is the
    layer's :func:`maskconv.layers.mask_layout`.
    ``grads`` holds the last backward's :class:`BankGrads`, without the
    input gradient, which is passed on instead.  The backward consumes the
    forward's patch matrix: :func:`bank_backward` reuses its buffer.
    """

    def __init__(self, spec: LayerSpec, bank: FilterBank, masks: MaskSet | None = None):
        self.spec, self.bank, self.masks = spec, bank, masks
        self._saved = None  # the last forward's patches
        self.grads: BankGrads | None = None

    @classmethod
    def init(cls, spec: LayerSpec, seed: int, dtype=np.float32) -> "MaskedConv":
        """He-initialized filters, zero biases; learned masks all ones, random-fixed drawn from ``seed``."""
        bank = random_bank(spec, seed, np.sqrt(2.0 / (spec.d * spec.d * spec.c)), dtype)
        masks = None
        if spec.strategy == "random-fixed":
            masks = masks_for_spec(spec, seed)
        elif spec.variant == "learnable":
            ones = np.ones((spec.d * spec.d * spec.c, spec.mask_groups * spec.s))
            masks = from_dense(ones, spec.mask_kind, spec.d, spec.c, spec.s, spec.mask_groups)
        return cls(spec, bank, masks)

    @property
    def trainable_masks(self) -> bool:
        return self.spec.strategy in ("shared", "separate")

    def forward(self, xb: np.ndarray) -> np.ndarray:
        spec = self.spec
        if xb.ndim != 4 or xb.shape[3] != spec.c:
            raise ShapeError(
                f"layer {spec.name}: expected a B x H x W x {spec.c} batch, got {xb.shape}"
            )
        h_out, w_out, _ = spec.output_shape(xb.shape[1], xb.shape[2])
        v, n, itemsize = spec.d * spec.d * spec.c, spec.n_secondary, self.bank.filters.itemsize
        need = max(v, n) * len(xb) * h_out * w_out * itemsize  # patch rows or output maps
        if need > CONV_BYTES_MAX:
            raise ShapeError(
                f"layer {spec.name}: a {xb.shape} batch needs {need} bytes of patches or maps,"
                f" over the {CONV_BYTES_MAX}-byte limit"
            )
        if v * n * itemsize > CONV_BYTES_MAX:
            raise ShapeError(
                f"layer {spec.name}: {n} masked filters of {v} values need {v * n * itemsize} bytes,"
                f" over the {CONV_BYTES_MAX}-byte limit"
            )
        xb = xb.astype(self.bank.filters.dtype, copy=False)
        # free the previous batch's patches first, so that the new ones can
        # reuse their memory rather than grow the heap by a patch matrix
        self._saved = None
        self._saved = im2col(xb, spec.d, spec.stride, spec.padding)
        return forward_patches(self._saved, self.bank, self.masks, spec)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        patches, self._saved = self._saved, None
        self.grads = bank_backward(
            grad_out, None, self.bank, self.masks, self.spec, patches, input_grad
        )
        grad_x, self.grads.x = self.grads.x, None
        return grad_x

    def ortho_loss(self) -> float:
        return ortho_loss(self.masks) if self.trainable_masks else 0.0

    def update_masks(self, lr: float, lam: float) -> tuple[int, int]:
        """Straight-through step of trainable masks; returns (flipped bits, total bits)."""
        if not self.trainable_masks:
            return 0, 0
        grad = self.grads.masks + lam * ortho_grad(self.masks)
        old, new = self.masks, agent_update(self.masks, grad, lr)
        flipped = new.flip_count(old)
        self.masks = new if flipped else old  # an unchanged set keeps the layout kept on it
        return flipped, old.bits.size

    def sgd(self, lr: float) -> None:
        bank, grads = self.bank, self.grads
        dtype = bank.filters.dtype
        biases = None if bank.biases is None else bank.biases - (lr * grads.biases).astype(dtype)
        self.bank = FilterBank(bank.filters - (lr * grads.filters).astype(dtype), biases)


class ReLU:
    def forward(self, x):
        self._saved = x > 0
        return x * self._saved

    def backward(self, grad):
        positive, self._saved = self._saved, None
        return grad * positive


class AvgPool2:
    """2x2 average pooling, stride 2; spatial dims must be even.

    Each output is ``((x00 + x01) + x10 + x11) * 0.25`` over its window,
    summed from four strided views in that order.  Output and input
    gradient keep the memory order of the array they are computed from.
    """

    def forward(self, x):
        b, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"AvgPool2 needs even spatial dims, got {x.shape}")
        y = x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
        y += x[:, 1::2, 0::2]
        y += x[:, 1::2, 1::2]
        y *= 0.25
        return y

    def backward(self, grad):
        n, h, w, c = grad.shape
        share = grad / 4.0
        up = np.empty_like(grad, shape=(n, 2 * h, 2 * w, c))  # in grad's memory order
        for a in (0, 1):
            for b in (0, 1):
                up[:, a::2, b::2] = share
        return up


class Flatten:
    """``(B, ...)`` to ``(B, features)`` in C order, whatever the input's strides.

    The backward returns the gradient in the forward input's memory order,
    so a batch-innermost conv stack below gets its gradients back in that order.
    """

    def forward(self, x):
        self._saved = x
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        x, self._saved = self._saved, None
        up = np.empty_like(x)
        up[...] = grad.reshape(up.shape)
        return up


class Dense:
    def __init__(self, w: np.ndarray, b: np.ndarray):
        self.w, self.b = w, b

    @classmethod
    def init(cls, n_in: int, n_out: int, seed: int, dtype=np.float32, init_scale: float = 1.0) -> "Dense":
        """He-initialized weights scaled by ``init_scale``, zero biases."""
        if min(n_in, n_out) < 1:
            raise ShapeError(f"dense layer needs sizes >= 1, got {n_in} x {n_out}")
        rng = np.random.default_rng(seed)
        w = (rng.normal(size=(n_in, n_out)) * np.sqrt(2.0 / n_in) * init_scale).astype(dtype)
        return cls(w, np.zeros(n_out, dtype=dtype))

    def forward(self, x):
        if x.ndim != 2 or x.shape[1] != len(self.w):
            raise ShapeError(f"dense layer: expected a B x {len(self.w)} batch, got {x.shape}")
        self._saved = x
        return _contract("bi,io->bo", x, self.w) + self.b

    def backward(self, grad):
        x, self._saved = self._saved, None
        # on the einsum path, grad as contiguous (o, b) rows gives the bits of "bi,bo->io" at about half the cost
        self.grad_w = _blas_contract("bi,ob->io", x, np.ascontiguousarray(grad.T))
        self.grad_b = column_sums(grad)
        # w as contiguous (o, i) rows keeps the einsum path's inner loop on contiguous memory
        return _blas_contract("bo,oi->bi", grad, np.ascontiguousarray(self.w.T))

    def sgd(self, lr: float) -> None:
        self.w = self.w - (lr * self.grad_w).astype(self.w.dtype)
        self.b = self.b - (lr * self.grad_b).astype(self.b.dtype)


class Network:
    """A plain layer stack: forward, backward, and parameter updates."""

    def __init__(self, layers: list):
        self.layers = layers

    def conv_layers(self) -> list[MaskedConv]:
        return [l for l in self.layers if isinstance(l, MaskedConv)]

    def forward(self, xb: np.ndarray) -> np.ndarray:
        out = xb
        for layer in self.layers:
            out = layer.forward(out)
        return out

    def backward(self, grad: np.ndarray) -> None:
        """Store every layer's parameter gradients for the loss gradient ``grad``.

        Nothing reads the gradient with respect to the network's input, so
        a first conv layer skips computing it.
        """
        first, *rest = self.layers
        for layer in reversed(rest):
            grad = layer.backward(grad)
        if isinstance(first, MaskedConv):
            first.backward(grad, input_grad=False)
        else:
            first.backward(grad)

    def release(self) -> None:
        """Drop what each layer's last forward saved for a backward."""
        for layer in self.layers:
            layer._saved = None

    def sgd(self, lr: float) -> None:
        for layer in self.layers:
            if hasattr(layer, "sgd"):
                layer.sgd(lr)

    def update_masks(self, lr: float, lam: float) -> float:
        """Step all trainable masks; returns the fraction of their bits that flipped."""
        flipped = total = 0
        for layer in self.conv_layers():
            f, t = layer.update_masks(lr, lam)
            flipped += f
            total += t
        return flipped / total if total else 0.0

    def ortho_loss(self) -> float:
        return sum(layer.ortho_loss() for layer in self.conv_layers())


def build_small_cnn(
    variant: str = "standard",
    strategy: str | None = None,
    s: int = 1,
    conv1_maps: int = 8,
    conv2_maps: int = 16,
    hidden: int = 64,
    n_classes: int = 10,
    input_hw: int = 28,
    lam: float = 0.0,
    seed: int = 0,
    dtype=np.float32,
    c_hat: int | None = None,
    g: int | None = None,
) -> Network:
    """Two conv layers (5x5 then 3x3), two pools, and a two-layer head.

    Inputs are one-channel ``input_hw`` square images.  ``conv*_maps``
    fixes the feature-map count; the stored primary-filter count k shrinks
    by the variant's mask multiplicity.  Sized so a run on a 10k-image
    28x28 dataset takes minutes on a laptop CPU.
    """
    rng = np.random.default_rng(seed)
    seeds = [int(x) for x in rng.integers(0, 2**31 - 1, size=4)]

    def conv_spec(d, c, maps, name):
        fields = {}
        if variant == "learnable":
            fields = dict(strategy=strategy, s=s, lam=lam)
        elif variant == "channel":
            fields = dict(c_hat=c_hat, g=g)
        return spec_for_maps(variant, maps, d=d, c=c, name=name, **fields)

    if variant == "channel":
        # channel windows need enough input channels; the first layer keeps
        # standard convolution, as is conventional for channel striding
        spec1 = LayerSpec("standard", d=5, c=1, k=conv1_maps, name="conv1")
    else:
        spec1 = conv_spec(5, 1, conv1_maps, "conv1")
    spec2 = conv_spec(3, conv1_maps, conv2_maps, "conv2")
    hw1 = conv_output_size(input_hw, 5) // 2
    hw2 = conv_output_size(hw1, 3) // 2
    return Network(
        [
            MaskedConv.init(spec1, seeds[0], dtype),
            ReLU(),
            AvgPool2(),
            MaskedConv.init(spec2, seeds[1], dtype),
            ReLU(),
            AvgPool2(),
            Flatten(),
            Dense.init(hw2 * hw2 * conv2_maps, hidden, seeds[2], dtype),
            ReLU(),
            # near-zero classifier logits at init keep early steps gentle
            Dense.init(hidden, n_classes, seeds[3], dtype, init_scale=0.02),
        ]
    )
