"""Network-level operation accounting from layer shape lists.

A network spec is a line-based text file, one convolution layer per line::

    layer <name> d=<int> c=<int> n=<int> variant=<v> s=<int> chat=<int> \
        g=<int> stride=<int> pad=<int> hw=<int>

``n`` is the number of secondary filters (output feature maps); the
primary-filter count ``k`` is derived from the variant.  ``hw`` is the
square input size of the layer.  ``variant`` is one of ``standard``,
``spatial``, ``channel``, ``learnable-shared``, ``learnable-separate``,
``random-fixed``.  Fields the variant does not read must be 0; a nonzero
one is rejected, as :class:`maskconv.layers.LayerSpec` rejects it.
Blank lines and ``#`` comments are ignored.

Reference shape lists for the networks used in the comparison tables ship
as package data files, so any discrepancy is inspectable by editing the
list rather than chasing a constant.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from maskconv.convref import ShapeError, conv_output_size
from maskconv.fastinfer import OpCounts, predict_counts
from maskconv.layers import LayerSpec, spec_for_maps

_VARIANT_TOKENS = {
    "standard": ("standard", None),
    "spatial": ("spatial", None),
    "channel": ("channel", None),
    "learnable-shared": ("learnable", "shared"),
    "learnable-separate": ("learnable", "separate"),
    "random-fixed": ("learnable", "random-fixed"),
}

_FIELDS = ("d", "c", "n", "variant", "s", "chat", "g", "stride", "pad", "hw")


class NetSpecError(ValueError):
    """Raised on malformed netspec files or inconsistent layer chains."""


@dataclass
class NetworkLayer:
    spec: LayerSpec
    hw: int

    @property
    def h_out(self) -> int:
        return conv_output_size(self.hw, self.spec.d, self.spec.stride, self.spec.padding)


@dataclass
class NetworkSpec:
    name: str
    layers: list[NetworkLayer]


def _layer_from_fields(name: str, fields: dict[str, str], lineno: int) -> NetworkLayer:
    try:
        variant_token = fields["variant"]
        variant, strategy = _VARIANT_TOKENS[variant_token]
    except KeyError:
        raise NetSpecError(
            f"line {lineno}: unknown variant {fields.get('variant')!r}"
        ) from None
    try:
        d, c, n = int(fields["d"]), int(fields["c"]), int(fields["n"])
        s, chat, g = int(fields["s"]), int(fields["chat"]), int(fields["g"])
        stride, pad, hw = int(fields["stride"]), int(fields["pad"]), int(fields["hw"])
    except (KeyError, ValueError) as exc:
        raise NetSpecError(f"line {lineno}: bad field value ({exc})") from None

    try:
        spec = spec_for_maps(
            variant, n, d=d, c=c, s=s or None, c_hat=chat or None, g=g or None,
            strategy=strategy, stride=stride, padding=pad, name=name,
        )
        conv_output_size(hw, d, stride, pad)
    except ShapeError as exc:
        raise NetSpecError(f"line {lineno}: {exc}") from None
    return NetworkLayer(spec, hw)


def parse_netspec(text: str, name: str = "network") -> NetworkSpec:
    """Parse netspec text; errors carry the 1-based line number."""
    layers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] != "layer" or len(tokens) != 2 + len(_FIELDS):
            raise NetSpecError(f"line {lineno}: expected 'layer <name> {' '.join(f + '=..' for f in _FIELDS)}'")
        fields = {}
        for token in tokens[2:]:
            if "=" not in token:
                raise NetSpecError(f"line {lineno}: malformed field {token!r}")
            key, value = token.split("=", 1)
            if key not in _FIELDS:
                raise NetSpecError(f"line {lineno}: unknown field {key!r}")
            fields[key] = value
        layers.append(_layer_from_fields(tokens[1], fields, lineno))
    return NetworkSpec(name, layers)


def load_netspec(path: str | Path) -> NetworkSpec:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise NetSpecError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_netspec(text, name=path.stem)


def shipped_netspec_path(name: str) -> Path:
    """Path of a netspec file shipped with the package."""
    return Path(resources.files("maskconv") / "netspecs" / f"{name}.netspec")


def layer_counts(layer: NetworkLayer) -> OpCounts:
    return predict_counts(layer.spec, layer.h_out, layer.h_out)


def network_counts(net: NetworkSpec) -> OpCounts:
    """Sum the closed-form counts over all layers."""
    total = OpCounts()
    for layer in net.layers:
        total = total + layer_counts(layer)
    return total


def network_records(net: NetworkSpec) -> list[str]:
    """Machine-readable per-layer records plus the total."""
    lines = [layer_counts(layer).record(layer.spec.name) for layer in net.layers]
    lines.append(network_counts(net).record("total"))
    return lines


def format_table(rows: list[tuple[str, OpCounts]], title: str = "") -> str:
    """Aligned text table of count rows; numbers match the records."""
    header = ["layer", *(name for name, _ in OpCounts().columns())]
    body = [[name, *(f"{v:.2f}".rstrip("0").rstrip(".") for _, v in c.columns())] for name, c in rows]
    widths = [max(len(r[i]) for r in [header, *body]) for i in range(len(header))]
    out = []
    if title:
        out.append(title)
    out.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(header)))
    out.append("  ".join("-" * w for w in widths))
    for row in body:
        out.append("  ".join(row[i].rjust(widths[i]) if i else row[i].ljust(widths[0]) for i in range(len(row))))
    return "\n".join(out)


def network_table(net: NetworkSpec) -> str:
    rows = [(layer.spec.name, layer_counts(layer)) for layer in net.layers]
    rows.append(("total", network_counts(net)))
    return format_table(rows, title=f"network {net.name}")


def compare_table(net_a: NetworkSpec, net_b: NetworkSpec) -> str:
    """Side-by-side totals with b/a ratios, plus machine-readable lines."""
    a, b = network_counts(net_a), network_counts(net_b)
    lines = [f"compare {net_a.name} vs {net_b.name}"]
    header = f"{'metric':<14} {net_a.name:>16} {net_b.name:>16} {'ratio b/a':>10}"
    lines.append(header)
    lines.append("-" * len(header))
    records = []
    for (metric, x), (_, y) in zip(a.columns(), b.columns()):
        if x == y == 0:
            ratio = 1.0
        elif x == 0:
            ratio = float("inf")
        else:
            ratio = y / x
        lines.append(f"{metric:<14} {x:>16.2f} {y:>16.2f} {ratio:>10.4f}")
        records.append(f"metric={metric} a={x:.2f} b={y:.2f} ratio={ratio:.6f}")
    return "\n".join(lines + records)
