"""Binary checkpoint format for the small CNN stack.

Layout (all little-endian):

    magic b"MKCV" | u32 version | u32 layer count | layer records...

Layer records start with a u8 tag (1 conv, 2 relu, 3 avgpool, 4 flatten,
5 dense).  A conv record is the layer spec, whose ``padding`` is below
``d`` (a wider one only adds output windows that read no input), the
primary filters as float32, the biases iff the variant has them, then,
iff the layer is learnable, its mask bits, the training state: u32
``(n_masks, n_words)`` and the words of :func:`maskconv.masks.to_words`.
Spatial and channel masks follow from the spec and are not stored, so a
loaded layer holds masks iff it is learnable.  The writer refuses a
layer whose bank or masks do not fit its spec, as a forward would.  Dense
records carry the weight matrix and bias vector.

The loader checks every declared size against the bytes present before
it allocates.  The mask count must be the spec's before the words are
read, and the words are unpacked only once read, so the bits take at
most 8x the file's mask bytes.  A set padding bit past ``d*d*c`` is
rejected, since no save could write it back.  Loading a saved model
reproduces its forward outputs bit-exactly at 32-bit, and a second save
of the loaded model is byte-identical.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from maskconv.binread import Reader
from maskconv.convref import ShapeError
from maskconv.layers import FilterBank, LayerSpec, check_bank, mask_layout
from maskconv.masks import MaskError, MaskSet, from_words, to_words
from maskconv.network import AvgPool2, Dense, Flatten, MaskedConv, Network, ReLU

MAGIC = b"MKCV"
VERSION = 2

_VARIANT_CODE = {"standard": 0, "spatial": 1, "channel": 2, "learnable": 3}
_STRATEGY_CODE = {None: 0, "shared": 1, "separate": 2, "random-fixed": 3}
_VARIANT_NAME = {v: k for k, v in _VARIANT_CODE.items()}
_STRATEGY_NAME = {v: k for k, v in _STRATEGY_CODE.items()}
# variant, strategy, d, c, k, s, c_hat, g, stride, padding, lam
_HEADER = struct.Struct("<BB8If")


class CheckpointError(ValueError):
    """Raised on malformed checkpoint files."""


def _f32(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype="<f4").tobytes()


def _read_f32(r: Reader, shape: tuple[int, ...], what: str) -> np.ndarray:
    return r.array(shape, "<f4", what).astype(np.float32)


def _header(spec: LayerSpec) -> bytes:
    """The conv record header of ``spec``; unset fields are written as 0.

    Raises :class:`ShapeError` unless ``padding < d``, so a layer that
    could not be loaded is never saved.
    """
    if spec.padding >= spec.d:
        raise ShapeError(f"{spec.name}: padding {spec.padding} is not below d={spec.d}")
    codes = (_VARIANT_CODE[spec.variant], _STRATEGY_CODE[spec.strategy])
    geometry = (spec.d, spec.c, spec.k, spec.s, spec.c_hat or 0, spec.g or 0, spec.stride, spec.padding)
    return _HEADER.pack(*codes, *geometry, spec.lam)


def _conv_record(layer: MaskedConv) -> bytes:
    spec = layer.spec
    biases = check_bank(layer.bank, spec)
    mask_layout(spec, layer.masks)
    parts = [_header(spec), _f32(layer.bank.filters)]
    if biases is not None:
        parts.append(_f32(biases))
    if spec.variant == "learnable":
        words = to_words(layer.masks.bits)
        parts += [struct.pack("<II", *words.shape), words.tobytes()]
    return b"".join(parts)


def _dense_record(layer: Dense) -> bytes:
    return struct.pack("<II", *layer.w.shape) + _f32(layer.w) + _f32(layer.b)


def _read_conv(r: Reader) -> MaskedConv:
    """Read one conv record; every array is read before a layer is built.

    The header must be the one the writer gives the spec it describes, so
    no field the variant ignores is carried along and a re-saved model is
    byte-identical.
    """
    start = r.offset
    header = r.take(_HEADER.size, "conv header")
    variant_code, strategy_code, d, c, k, s, c_hat, g, stride, padding, lam = _HEADER.unpack(header)
    # an unknown variant code reaches LayerSpec as itself, which rejects it by name
    variant = _VARIANT_NAME.get(variant_code, variant_code)
    spec = LayerSpec(
        variant,
        d=d,
        c=c,
        k=k,
        strategy=_STRATEGY_NAME.get(strategy_code),
        s=s,
        c_hat=c_hat or None,
        g=g or None,
        stride=stride,
        padding=padding,
        lam=lam,
    )
    if _header(spec) != header:
        raise CheckpointError(f"conv header at offset {start} does not re-encode to its own bytes")
    filters = _read_f32(r, (k, d, d, c), "conv filters")
    biases = _read_f32(r, (spec.n_secondary,), "conv biases") if spec.has_biases else None
    masks = None
    if variant == "learnable":
        n_masks, n_words = r.unpack("<II", "mask shape")
        if n_words != (d * d * c + 31) // 32:
            raise CheckpointError(f"{n_words} mask words do not fit d={d} c={c} at offset {r.offset}")
        if n_masks != s * spec.mask_groups:  # before the words are read
            raise MaskError(f"{spec.mask_kind} mask set expects {s * spec.mask_groups} masks, got {n_masks}")
        bits = from_words(r.array((n_masks, n_words), "<u4", "mask words"), d * d * c)
        masks = MaskSet(spec.mask_kind, bits, d, c, s, spec.mask_groups, _adopt=True)
    return MaskedConv(spec, FilterBank(filters, biases), masks)


def _read_dense(r: Reader) -> Dense:
    n_in, n_out = r.unpack("<II", "dense shape")
    if not n_in or not n_out:
        side = "outputs" if n_in else "inputs"
        raise CheckpointError(f"dense layer with no {side} at offset {r.offset}")
    w = _read_f32(r, (n_in, n_out), "dense weights")
    return Dense(w, _read_f32(r, (n_out,), "dense biases"))


# u8 tag -> (layer type, writer of the record after the tag, its reader)
_RECORDS = {
    1: (MaskedConv, _conv_record, _read_conv),
    2: (ReLU, lambda layer: b"", lambda r: ReLU()),
    3: (AvgPool2, lambda layer: b"", lambda r: AvgPool2()),
    4: (Flatten, lambda layer: b"", lambda r: Flatten()),
    5: (Dense, _dense_record, _read_dense),
}
_TAGS = {kind: tag for tag, (kind, _, _) in _RECORDS.items()}


def save_checkpoint(model: Network, path: str | Path) -> None:
    parts = [MAGIC, struct.pack("<II", VERSION, len(model.layers))]
    for layer in model.layers:
        tag = _TAGS.get(type(layer))
        if tag is None:
            raise CheckpointError(f"cannot serialize layer {type(layer).__name__}")
        parts += [struct.pack("<B", tag), _RECORDS[tag][1](layer)]
    Path(path).write_bytes(b"".join(parts))


def load_checkpoint(path: str | Path) -> Network:
    r = Reader(Path(path).read_bytes(), CheckpointError, f"checkpoint {path}")
    if r.take(4, "magic") != MAGIC:
        raise CheckpointError(f"bad magic in {path}: not a checkpoint file")
    version, n_layers = r.unpack("<II", "header")
    if version != VERSION:
        raise CheckpointError(f"checkpoint version {version} unsupported (want {VERSION})")
    layers = []
    for _ in range(n_layers):
        (tag,) = r.unpack("<B", "layer tag")
        if tag not in _RECORDS:
            raise CheckpointError(f"unknown layer tag {tag} at offset {r.offset - 1}")
        start = r.offset
        try:
            layers.append(_RECORDS[tag][2](r))
        except (ShapeError, MaskError) as exc:  # only a conv record builds a spec or masks
            raise CheckpointError(f"bad conv record at offset {start}: {exc}") from None
    r.end()
    return Network(layers)
