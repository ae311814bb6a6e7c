import pytest

from maskconv.accounting import (
    NetSpecError,
    NetworkSpec,
    compare_table,
    layer_counts,
    load_netspec,
    network_counts,
    network_records,
    network_table,
    parse_netspec,
    shipped_netspec_path,
)
from maskconv.fastinfer import predict_counts
from maskconv.layers import LayerSpec

LINE = "layer {name} d={d} c={c} n={n} variant={v} s={s} chat={chat} g={g} stride={stride} pad={pad} hw={hw}"


def make_line(name="l0", d=3, c=4, n=8, v="standard", s=0, chat=0, g=0, stride=1, pad=1, hw=8):
    return LINE.format(name=name, d=d, c=c, n=n, v=v, s=s, chat=chat, g=g, stride=stride, pad=pad, hw=hw)


def test_parse_single_standard_layer():
    net = parse_netspec(make_line())
    assert len(net.layers) == 1
    layer = net.layers[0]
    assert layer.spec.variant == "standard" and layer.spec.k == 8
    assert layer.hw == 8 and layer.h_out == 8


def test_parse_learnable_variants_carry_strategy():
    net = parse_netspec(
        "\n".join(
            [
                make_line(name="a", v="learnable-shared", s=2),
                make_line(name="b", v="learnable-separate", s=4),
                make_line(name="c", v="random-fixed", s=2),
            ]
        )
    )
    assert [l.spec.strategy for l in net.layers] == ["shared", "separate", "random-fixed"]
    assert [l.spec.k for l in net.layers] == [4, 2, 4]


def test_parse_comments_and_blanks():
    text = "# two layers\n\n" + make_line() + "\n  # tail comment\n" + make_line(name="l1", c=8)
    assert len(parse_netspec(text).layers) == 2


@pytest.mark.parametrize(
    "bad,fragment",
    [
        ("layer l0 d=3", "line 1"),
        (make_line(v="bogus"), "unknown variant"),
        (make_line(d="x"), "bad field"),
        (make_line().replace("d=3", "q=3"), "unknown field"),
        (make_line(v="spatial", s=3), "spatial s must be"),
        (make_line(v="learnable-shared", s=3), "not divisible"),
        (make_line(v="channel", chat=3, g=2), "channel window"),
        (make_line(v="channel", chat=6, g=2), "channel window"),  # c_hat > c
        ("\n".join([make_line(), "layer oops d=3"]), "line 2"),
    ],
)
def test_parse_errors_carry_line_numbers(bad, fragment):
    with pytest.raises(NetSpecError) as err:
        parse_netspec(bad)
    assert fragment in str(err.value)


def test_counts_standard_3x3x64x64():
    net = parse_netspec(make_line(c=64, n=64, hw=8))
    counts = network_counts(net)
    assert counts.param_values_fp32 == 36_864
    assert counts.memory_bytes == 147_456


def test_alexnet_first_layer_primary_shape():
    # 11x11x3x96 at 6 scales keeps 16 primary filters
    line = make_line(name="conv1", d=11, c=3, n=96, v="spatial", s=6, stride=4, pad=2, hw=227)
    layer = parse_netspec(line).layers[0]
    assert layer.spec.k == 16
    assert layer_counts(layer).param_values_fp32 == 11 * 11 * 3 * 16


def test_network_counts_additive_over_concatenation():
    a = parse_netspec(make_line())
    b = parse_netspec(make_line(name="l1", c=8, n=4, v="learnable-separate", s=2))
    both = parse_netspec("\n".join([make_line(), make_line(name="l1", c=8, n=4, v="learnable-separate", s=2)]))
    lhs = network_counts(both)
    rhs = network_counts(a) + network_counts(b)
    assert lhs == rhs


@pytest.mark.parametrize(
    "line",
    [
        make_line(d=1, v="spatial", s=0),  # d=1 spatial degenerates
        make_line(v="channel", chat=4, g=1),  # full-width window
        make_line(v="learnable-shared", s=1, n=8),  # s=1 single mask
    ],
)
def test_degenerate_variants_match_standard_mul(line):
    layer = parse_netspec(line).layers[0]
    std = predict_counts(
        LayerSpec("standard", d=layer.spec.d, c=layer.spec.c, k=layer.n,
                  stride=layer.spec.stride, padding=layer.spec.padding),
        layer.h_out, layer.h_out,
    )
    got = layer_counts(layer)
    assert got.mul_fp32 == std.mul_fp32
    assert got.param_values_fp32 == std.param_values_fp32


def test_shipped_resnet56_reproduces_table_row():
    net = load_netspec(shipped_netspec_path("resnet56"))
    counts = network_counts(net)
    assert abs(counts.param_equiv32 - 8.5e5) / 8.5e5 < 0.10
    assert abs(counts.combined_mul - 1.3e8) / 1.3e8 < 0.10


def test_shipped_resnet56_spatial_reproduces_table_row():
    counts = network_counts(load_netspec(shipped_netspec_path("resnet56_spatial")))
    assert abs(counts.param_equiv32 - 4.3e5) / 4.3e5 < 0.10
    assert abs(counts.combined_mul - 0.6e8) / 0.6e8 < 0.10


def test_shipped_resnet50_rows():
    base = network_counts(load_netspec(shipped_netspec_path("resnet50")))
    assert abs(base.param_equiv32 - 2.6e7) / 2.6e7 < 0.10
    assert abs(base.combined_mul - 4.1e9) / 4.1e9 < 0.10
    sep = network_counts(load_netspec(shipped_netspec_path("resnet50_sep4")))
    assert abs(sep.param_equiv32 - 0.9e7) / 0.9e7 < 0.10
    assert abs(sep.combined_mul - 1.1e9) / 1.1e9 < 0.10


def test_compare_identical_nets_all_ratios_one():
    net = parse_netspec(make_line())
    report = compare_table(net, net)
    metric_lines = [l for l in report.splitlines() if l.startswith("metric=")]
    assert len(metric_lines) == 6
    for line in metric_lines:
        assert line.endswith("ratio=1.000000")


def test_compare_baseline_vs_spatial_halves_params():
    base = parse_netspec(make_line(c=16, n=32, hw=16), name="base")
    spatial = parse_netspec(make_line(c=16, n=32, v="spatial", s=2, hw=16), name="sp")
    report = compare_table(base, spatial)
    ratio_line = next(l for l in report.splitlines() if l.startswith("metric=params"))
    ratio = float(ratio_line.split("ratio=")[1])
    assert 1 / ratio == pytest.approx(2.0)


def test_compare_baseline_vs_shared_learnable_reports_numeric_ratio():
    base = parse_netspec(make_line(c=16, n=32, hw=16), name="base")
    shared = parse_netspec(make_line(c=16, n=32, v="learnable-shared", s=4, hw=16), name="sh")
    report = compare_table(base, shared)
    ratio_line = next(l for l in report.splitlines() if l.startswith("metric=params"))
    ratio = float(ratio_line.split("ratio=")[1])
    v = 9 * 16
    want = (v * 8 + v * 4 / 32) / (v * 32)
    assert ratio == pytest.approx(want, rel=1e-6)


def test_records_match_table_numbers():
    net = parse_netspec("\n".join([make_line(), make_line(name="l1", c=8, n=4, v="learnable-separate", s=2)]))
    records = network_records(net)
    assert len(records) == 3  # two layers + total
    table = network_table(net)
    for record in records:
        fields = dict(part.split("=") for part in record.split())
        assert fields["layer"] in table
        # every numeric field appears in the table row for that layer
        row = next(l for l in table.splitlines() if l.startswith(fields["layer"]))
        for key in ("mul_fp32", "mask_ops", "add_fp32", "memory_bytes"):
            value = fields[key]
            assert value.rstrip("0").rstrip(".") in row or value in row


def test_empty_netspec_is_zero_rows():
    net = parse_netspec("# nothing here\n")
    assert network_counts(net) == network_counts(NetworkSpec("empty", []))
    assert network_records(net)[-1].startswith("layer=total params=0")
