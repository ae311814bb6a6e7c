"""Small sequential CNN with manual backprop, batched over images.

Layers operate on ``(B, H, W, c)`` arrays.  The convolution layer runs
the filter-bank core of :mod:`maskconv.layers` on the whole batch, whose
fixed-order reductions make per-sample outputs equal the single-image
path bit for bit (see the reduction order in :mod:`maskconv.convref`).
The dense layers use ``einsum`` with its default sequential contraction
for the same reason: identical runs must produce identical bytes.
"""

from __future__ import annotations

import numpy as np

from maskconv.convref import ShapeError, conv_output_size, im2col
from maskconv.layers import (
    FilterBank,
    LayerSpec,
    bank_backward,
    forward_patches,
    random_bank,
    spec_for_maps,
)
from maskconv.masks import (
    MaskSet,
    agent_update,
    init_learnable,
    ortho_grad,
    ortho_loss,
    random_masks,
    sign_binarize,
)


class MaskedConv:
    """Convolution layer deriving its outputs from masked primary filters."""

    def __init__(self, spec: LayerSpec, seed: int, dtype=np.float32):
        self.spec = spec
        self.dtype = np.dtype(dtype)
        # He initialization: scale sqrt(2 / fan_in), zero biases
        bank = random_bank(spec, seed, np.sqrt(2.0 / (spec.d * spec.d * spec.c)), self.dtype)
        self.filters, self.biases = bank.filters, bank.biases
        self.latent: np.ndarray | None = None
        if spec.variant == "learnable":
            if spec.strategy == "random-fixed":
                self.masks: MaskSet | None = random_masks(
                    spec.k, spec.s, spec.d, spec.c, seed
                )
            else:
                self.latent, self.masks = init_learnable(
                    spec.k, spec.s, spec.d, spec.c, spec.strategy, seed
                )
        else:
            self.masks = spec.structural_masks()
        self._patches = None
        self.grad_filters = None
        self.grad_biases = None
        self.grad_masks = None

    @property
    def trainable_masks(self) -> bool:
        return self.latent is not None

    def bank(self) -> FilterBank:
        return FilterBank(self.filters, self.biases)

    def binarize(self) -> tuple[int, int]:
        """Refresh masks from the latent; returns (flipped bits, total bits)."""
        if not self.trainable_masks:
            return 0, 0
        ms = self.masks
        new = sign_binarize(self.latent, ms.kind, ms.d, ms.c, ms.s, ms.k)
        self.masks = new
        return new.flip_count(ms), ms.n_masks * ms.bits_per_mask

    def forward(self, xb: np.ndarray) -> np.ndarray:
        spec = self.spec
        if xb.ndim != 4 or xb.shape[3] != spec.c:
            raise ShapeError(
                f"layer {spec.name}: expected a B x H x W x {spec.c} batch, got {xb.shape}"
            )
        xb = xb.astype(self.dtype, copy=False)
        self._patches = im2col(xb, spec.d, spec.stride, spec.padding)
        return forward_patches(self._patches, self.bank(), self.masks, spec)

    def backward(self, grad_out: np.ndarray, input_grad: bool = True) -> np.ndarray | None:
        grads = bank_backward(
            grad_out,
            None,
            self.bank(),
            self.masks,
            self.spec,
            patches=self._patches,
            input_grad=input_grad,
        )
        self.grad_filters = grads.filters
        self.grad_biases = grads.biases
        self.grad_masks = grads.masks
        return grads.x

    def ortho_loss(self) -> float:
        return ortho_loss(self.masks) if self.trainable_masks else 0.0

    def update_masks(self, lr: float, lam: float) -> None:
        if not self.trainable_masks:
            return
        grad = self.grad_masks + lam * ortho_grad(self.masks)
        self.latent = agent_update(self.latent, self.masks, grad, lr)

    def sgd(self, lr: float) -> None:
        self.filters = self.filters - (lr * self.grad_filters).astype(self.dtype)
        if self.biases is not None:
            self.biases = self.biases - (lr * self.grad_biases).astype(self.dtype)


class ReLU:
    def forward(self, x):
        self._mask = x > 0
        return x * self._mask

    def backward(self, grad):
        return grad * self._mask


class AvgPool2:
    """2x2 average pooling, stride 2; spatial dims must be even.

    Each output is ``((x00 + x01) + x10 + x11) * 0.25`` over its window,
    summed from four strided views in that order.
    """

    def forward(self, x):
        b, h, w, c = x.shape
        if h % 2 or w % 2:
            raise ShapeError(f"AvgPool2 needs even spatial dims, got {x.shape}")
        self._in_shape = x.shape
        y = x[:, 0::2, 0::2] + x[:, 0::2, 1::2]
        y += x[:, 1::2, 0::2]
        y += x[:, 1::2, 1::2]
        y *= 0.25
        return y

    def backward(self, grad):
        share = (grad / 4.0).astype(grad.dtype)
        up = np.empty(self._in_shape, dtype=grad.dtype)
        for a in (0, 1):
            for b in (0, 1):
                up[:, a::2, b::2] = share
        return up


class Flatten:
    def forward(self, x):
        self._in_shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, grad):
        return grad.reshape(self._in_shape)


class Dense:
    def __init__(self, n_in: int, n_out: int, seed: int, dtype=np.float32, init_scale: float = 1.0):
        rng = np.random.default_rng(seed)
        self.w = (rng.normal(size=(n_in, n_out)) * np.sqrt(2.0 / n_in) * init_scale).astype(dtype)
        self.b = np.zeros(n_out, dtype=dtype)

    def forward(self, x):
        self._x = x
        return np.einsum("bi,io->bo", x, self.w) + self.b

    def backward(self, grad):
        self.grad_w = np.einsum("bi,bo->io", self._x, grad)
        self.grad_b = np.add.reduce(grad, axis=0)
        return np.einsum("bo,io->bi", grad, self.w)

    def sgd(self, lr: float) -> None:
        self.w = self.w - (lr * self.grad_w).astype(self.w.dtype)
        self.b = self.b - (lr * self.grad_b).astype(self.b.dtype)


class Network:
    """A plain layer stack: forward, backward, and parameter updates."""

    def __init__(self, layers: list):
        self.layers = layers

    def conv_layers(self) -> list[MaskedConv]:
        return [l for l in self.layers if isinstance(l, MaskedConv)]

    def binarize_masks(self) -> float:
        """Refresh all learnable masks; returns the overall bit flip rate."""
        flipped = total = 0
        for layer in self.conv_layers():
            f, t = layer.binarize()
            flipped += f
            total += t
        return flipped / total if total else 0.0

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

    def sgd(self, lr: float) -> None:
        for layer in self.layers:
            if hasattr(layer, "sgd"):
                layer.sgd(lr)

    def update_masks(self, lr: float, lam: float) -> None:
        for layer in self.conv_layers():
            layer.update_masks(lr, lam)

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
    input_c: int = 1,
    lam: float = 0.0,
    seed: int = 0,
    dtype=np.float32,
    c_hat: int | None = None,
    g: int | None = None,
) -> Network:
    """Two conv layers (5x5 then 3x3), two pools, and a two-layer head.

    ``conv*_maps`` fixes the feature-map count; the stored primary-filter
    count k shrinks by the variant's mask multiplicity.  Sized so a run on
    a 10k-image 28x28 dataset takes minutes on a laptop CPU.
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
        spec1 = LayerSpec("standard", d=5, c=input_c, k=conv1_maps, name="conv1")
    else:
        spec1 = conv_spec(5, input_c, conv1_maps, "conv1")
    spec2 = conv_spec(3, conv1_maps, conv2_maps, "conv2")
    hw1 = conv_output_size(input_hw, 5) // 2
    hw2 = conv_output_size(hw1, 3) // 2
    return Network(
        [
            MaskedConv(spec1, seeds[0], dtype),
            ReLU(),
            AvgPool2(),
            MaskedConv(spec2, seeds[1], dtype),
            ReLU(),
            AvgPool2(),
            Flatten(),
            Dense(hw2 * hw2 * conv2_maps, hidden, seeds[2], dtype),
            ReLU(),
            # near-zero classifier logits at init keep early steps gentle
            Dense(hidden, n_classes, seeds[3], dtype, init_scale=0.02),
        ]
    )
