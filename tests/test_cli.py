import io
import struct

import numpy as np
import pytest

from maskconv import cli, network
from maskconv.accounting import shipped_netspec_path
from maskconv.checkpoint import MAGIC, VERSION, load_checkpoint, save_checkpoint
from maskconv.cli import main
from maskconv.config import ConfigError, RunConfig, load_config, parse_config_text
from maskconv.datagen import write_dataset
from maskconv.idx import IMAGES_MAGIC, write_idx_images, write_idx_labels
from maskconv.layers import FilterBank, LayerSpec
from maskconv.masks import read_mask_records, write_mask_records
from maskconv.network import MaskedConv, Network, build_small_cnn


class Capture:
    def __init__(self):
        self.lines = []

    def __call__(self, text):
        self.lines.append(str(text))

    @property
    def text(self):
        return "\n".join(self.lines)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("digits")
    write_dataset(root, n_train=120, n_test=40, seed=3)
    return root


def small_config(tmp_path, dataset, **extra):
    lines = {
        "data.path": str(dataset),
        "out.checkpoint": str(tmp_path / "model.ckpt"),
        "model.conv1_maps": "4",
        "model.conv2_maps": "8",
        "model.hidden": "16",
        "train.epochs": "1",
        "train.batch": "32",
        "train.lr": "0.2",
    }
    lines.update(extra)
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(f"{k} = {v}" for k, v in lines.items()) + "\n")
    return path


# ------------------------------------------------------------------ config


def test_config_defaults_and_overrides():
    config = RunConfig()
    assert config.get("train.lambda") == 0.1  # library default
    config.set("train.lambda", "0.5")
    assert config.get("train.lambda") == 0.5


def test_config_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown config key 'model.depth'"):
        parse_config_text("model.depth = 9")


def test_config_bad_value_rejected():
    with pytest.raises(ConfigError, match="train.epochs"):
        parse_config_text("train.epochs = soon")


def test_config_file_with_comments(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("# comment\ntrain.seed = 9\n\nmodel.variant=spatial\n")
    config = load_config(path, ["train.lr=0.7"])
    assert config.get("train.seed") == 9
    assert config.get("model.variant") == "spatial"
    assert config.get("train.lr") == 0.7


def test_resolved_lines_cover_every_key():
    lines = RunConfig().resolved_lines()
    assert len(lines) == len(RunConfig().values)


# ------------------------------------------------------------------- train


def test_train_missing_data_path_exits_2(tmp_path):
    out = Capture()
    code = main(["train", "--set", f"out.checkpoint={tmp_path/'m.ckpt'}"], out=out)
    assert code == 2
    assert "data.path" in out.text


def test_train_unknown_key_exits_2():
    out = Capture()
    code = main(["train", "--set", "model.depth=9"], out=out)
    assert code == 2
    assert "model.depth" in out.text


@pytest.mark.parametrize(
    "setting",
    [
        "train.lr=-1",
        "train.loss=foo",
        "train.batch=0",
        "model.hidden=0",
        "model.variant=bogus",
        "model.s=0",
        "train.loss=mean-squared-error",
    ],
)
def test_train_value_no_model_or_schedule_takes_exits_2(tmp_path, dataset, setting):
    out = Capture()
    code = main(["train", "--config", str(small_config(tmp_path, dataset)), "--set", setting], out=out)
    assert code == 2
    assert out.lines[-1].startswith("config error:")
    assert not (tmp_path / "model.ckpt").exists()


def test_train_writes_checkpoint_log_and_config(tmp_path, dataset):
    log_path = tmp_path / "train.log"
    cfg = small_config(tmp_path, dataset, **{"out.log": str(log_path)})
    out = Capture()
    code = main(["train", "--config", str(cfg)], out=out)
    assert code == 0
    assert (tmp_path / "model.ckpt").exists()
    assert "config data.path=" in out.text
    assert "test accuracy=" in out.text
    records = log_path.read_text().strip().splitlines()
    assert len(records) == 4  # 120 images / batch 32, 1 epoch
    for record in records:
        fields = dict(part.split("=") for part in record.split())
        assert {"step", "loss", "task_loss", "ortho_loss", "accuracy", "flip_rate"} <= set(fields)


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out.log"])
@np.errstate(all="ignore")  # a 1e30 step overflows: the divergence is the point here
def test_train_that_fails_keeps_the_records_of_its_steps(tmp_path, dataset, to_file):
    # at lr 1e30 step 1 logs finite metrics and step 2's loss is not finite
    log_path = tmp_path / "train.log"
    extra = {"train.lr": "1e30", "model.variant": "standard"}
    if to_file:
        extra["out.log"] = str(log_path)
    out = Capture()
    assert main(["train", "--config", str(small_config(tmp_path, dataset, **extra))], out=out) == 1
    assert out.lines[-1].startswith("error: non-finite loss")
    logged = [line for line in out.lines if line.startswith("step=")]
    if to_file:
        assert logged == []
        logged = log_path.read_text().splitlines()
    assert [line.split()[0] for line in logged] == ["step=1"]
    assert not (tmp_path / "model.ckpt").exists()


def test_train_with_an_unwritable_log_fails_before_training(tmp_path, dataset, monkeypatch):
    steps = []
    monkeypatch.setattr(cli, "fit", lambda *args, **kwargs: steps.append(args))
    cfg = small_config(tmp_path, dataset, **{"out.log": str(tmp_path / "missing" / "train.log")})
    out = Capture()
    assert main(["train", "--config", str(cfg)], out=out) == 1
    assert out.lines[-1].startswith("error: ") and "train.log" in out.lines[-1]
    assert steps == [] and not (tmp_path / "model.ckpt").exists()


def test_train_deterministic_checkpoints(tmp_path, dataset):
    outs = []
    for run in range(2):
        ckpt = tmp_path / f"run{run}.ckpt"
        cfg = small_config(tmp_path, dataset, **{"out.checkpoint": str(ckpt)})
        assert main(["train", "--config", str(cfg)], out=Capture()) == 0
        outs.append(ckpt.read_bytes())
    assert outs[0] == outs[1]


def test_train_lambda_sweep_emits_row_per_value(tmp_path, dataset):
    cfg = small_config(tmp_path, dataset)
    out = Capture()
    code = main(
        ["train", "--config", str(cfg), "--sweep", "train.lambda=0.01,0.1"], out=out
    )
    assert code == 0
    rows = [l for l in out.lines if l.startswith("sweep train.lambda=")]
    assert len(rows) == 2
    for row in rows:
        assert "accuracy=" in row


# -------------------------------------------------------------------- eval


def test_eval_prints_accuracy(tmp_path, dataset):
    cfg = small_config(tmp_path, dataset)
    assert main(["train", "--config", str(cfg)], out=Capture()) == 0
    out = Capture()
    code = main(
        ["eval", "--checkpoint", str(tmp_path / "model.ckpt"), "--data", str(dataset)],
        out=out,
    )
    assert code == 0
    assert "accuracy=" in out.text and "examples=40" in out.text


def test_eval_missing_checkpoint_exits_1(tmp_path, dataset):
    code = main(
        ["eval", "--checkpoint", str(tmp_path / "nope.ckpt"), "--data", str(dataset)],
        out=Capture(),
    )
    assert code == 1


def test_eval_hostile_idx_header_exits_1(tmp_path, dataset):
    model = tmp_path / "model.ckpt"
    save_checkpoint(build_small_cnn(conv1_maps=4, conv2_maps=8, hidden=16), model)
    hostile = tmp_path / "hostile"
    hostile.mkdir()
    (hostile / "test-images.idx").write_bytes(struct.pack(">IIII", IMAGES_MAGIC, 2**32 - 1, 28, 28))
    (hostile / "test-labels.idx").write_bytes((dataset / "test-labels.idx").read_bytes())
    out = Capture()
    code = main(["eval", "--checkpoint", str(model), "--data", str(hostile)], out=out)
    assert code == 1
    assert out.text.startswith("error:") and "truncated pixel data" in out.text


def write_split(root, split, n, hw=28, label=0):
    """A well-formed IDX pair of ``n`` blank ``hw x hw`` images, all labelled ``label``."""
    root.mkdir(exist_ok=True)
    write_idx_images(root / f"{split}-images.idx", np.zeros((n, hw, hw)))
    write_idx_labels(root / f"{split}-labels.idx", np.full(n, label))


@pytest.mark.parametrize(
    "split, message",
    [
        (dict(n=0), "no images to evaluate"),
        (dict(n=4, hw=32), "dense layer: expected a B x 400 batch, got (4, 576)"),
    ],
    ids=["empty", "32x32"],
)
def test_eval_split_that_does_not_fit_the_model_exits_1(tmp_path, split, message):
    model = tmp_path / "model.ckpt"
    save_checkpoint(build_small_cnn(conv1_maps=4, conv2_maps=16, hidden=16), model)
    write_split(tmp_path / "data", "test", **split)
    out = Capture()
    code = main(["eval", "--checkpoint", str(model), "--data", str(tmp_path / "data")], out=out)
    assert code == 1
    assert out.text.startswith("error:") and message in out.text


@pytest.mark.parametrize(
    "split, message",
    [
        (dict(n=0), "no images to train on"),
        (dict(n=4, hw=32), "dense layer"),
        (dict(n=4, label=10), "label out of range: saw 10..10 for 10 classes"),
    ],
    ids=["empty", "32x32", "label 10"],
)
def test_train_split_that_does_not_fit_the_model_exits_1(tmp_path, split, message):
    write_split(tmp_path / "data", "train", **split)
    out = Capture()
    code = main(["train", "--config", str(small_config(tmp_path, tmp_path / "data"))], out=out)
    assert code == 1
    assert out.lines[-1].startswith("error:") and message in out.text
    assert not (tmp_path / "model.ckpt").exists()


def test_train_saves_the_checkpoint_before_a_test_split_it_cannot_evaluate(tmp_path, dataset):
    data = tmp_path / "data"
    data.mkdir()
    for name in ("train-images.idx", "train-labels.idx"):
        (data / name).write_bytes((dataset / name).read_bytes())
    write_split(data, "test", n=0)
    out = Capture()
    code = main(["train", "--config", str(small_config(tmp_path, data))], out=out)
    assert code == 1
    assert out.lines[-1].startswith("error:") and "no images to evaluate" in out.text
    assert load_checkpoint(tmp_path / "model.ckpt").layers


def test_eval_zero_layer_checkpoint_exits_1(tmp_path, dataset):
    path = tmp_path / "empty.ckpt"
    path.write_bytes(MAGIC + struct.pack("<II", VERSION, 0))
    out = Capture()
    code = main(["eval", "--checkpoint", str(path), "--data", str(dataset)], out=out)
    assert code == 1
    assert out.text.startswith("error:") and "cannot classify" in out.text


# --------------------------------------------------------------- count-ops


def test_count_ops_shipped_resnet56(tmp_path):
    out = Capture()
    code = main(["count-ops", str(shipped_netspec_path("resnet56"))], out=out)
    assert code == 0
    total = next(l for l in out.lines if l.startswith("layer=total"))
    fields = dict(part.split("=") for part in total.split())
    assert abs(float(fields["params"]) - 8.5e5) / 8.5e5 < 0.10
    assert abs(float(fields["combined_mul"]) - 1.3e8) / 1.3e8 < 0.10


def test_count_ops_records_match_table():
    out = Capture()
    main(["count-ops", str(shipped_netspec_path("resnet56_spatial"))], out=out)
    records = [l for l in out.lines if l.startswith("layer=")]
    assert len(records) == 57  # 56 layers + total
    table_text = "\n".join(l for l in out.lines if not l.startswith("layer="))
    sample = dict(part.split("=") for part in records[0].split())
    assert sample["layer"] in table_text


def test_count_ops_compare_mode():
    out = Capture()
    code = main(
        [
            "count-ops",
            str(shipped_netspec_path("resnet56")),
            "--compare",
            str(shipped_netspec_path("resnet56_spatial")),
        ],
        out=out,
    )
    assert code == 0
    params_line = next(l for l in out.lines[0].splitlines() if l.startswith("metric=params"))
    ratio = float(params_line.split("ratio=")[1])
    assert 0.45 < ratio < 0.55  # spatial halves the stored parameters


def test_count_ops_empty_netspec_exits_0(tmp_path):
    path = tmp_path / "empty.netspec"
    path.write_text("# no layers\n")
    out = Capture()
    assert main(["count-ops", str(path)], out=out) == 0
    assert "layer=total" in out.text


def test_count_ops_malformed_line_exits_1(tmp_path):
    path = tmp_path / "bad.netspec"
    path.write_text("layer x d=3\n")
    out = Capture()
    assert main(["count-ops", str(path)], out=out) == 1
    assert "line 1" in out.text


def test_count_ops_missing_file_exits_1(tmp_path):
    assert main(["count-ops", str(tmp_path / "none.netspec")], out=Capture()) == 1


# ------------------------------------------------------------ export-masks


def test_export_masks_roundtrip(tmp_path, dataset):
    cfg = small_config(tmp_path, dataset)
    assert main(["train", "--config", str(cfg)], out=Capture()) == 0
    out_path = tmp_path / "masks.bin"
    out = Capture()
    code = main(
        [
            "export-masks",
            "--checkpoint",
            str(tmp_path / "model.ckpt"),
            "--out",
            str(out_path),
        ],
        out=out,
    )
    assert code == 0
    model = load_checkpoint(tmp_path / "model.ckpt")
    convs = [l for l in model.layers if isinstance(l, MaskedConv) and l.masks is not None]
    with open(out_path, "rb") as f:
        records = read_mask_records(f)
    assert len(records) == sum(c.masks.n_masks for c in convs)
    # first record equals the first layer's first mask
    d, c, bits = records[0]
    assert (d, c) == (convs[0].masks.d, convs[0].masks.c)
    assert np.array_equal(bits, convs[0].masks.dense()[:, 0])


@pytest.mark.parametrize("variant, kwargs", [("spatial", {}), ("channel", dict(c_hat=3, g=3))])
def test_export_masks_writes_the_masks_the_spec_derives(tmp_path, variant, kwargs):
    path = tmp_path / "model.ckpt"
    model = build_small_cnn(variant, conv1_maps=6, conv2_maps=8, hidden=8, **kwargs)
    save_checkpoint(model, path)
    want = io.BytesIO()
    for conv in model.conv_layers():
        if conv.spec.variant != "standard":
            write_mask_records(conv.spec.structural_masks(), want)
    assert len(want.getvalue()) > 0
    args = ["export-masks", "--checkpoint", str(path), "--out", str(tmp_path / "m.bin")]
    assert main(args, out=Capture()) == 0
    assert (tmp_path / "m.bin").read_bytes() == want.getvalue()


def test_export_masks_layer_counts_masked_convs_only(tmp_path):
    # a channel model's conv1 is standard, so --layer 0 is conv2
    model = build_small_cnn("channel", conv1_maps=6, conv2_maps=8, hidden=8, c_hat=3, g=3)
    path = tmp_path / "model.ckpt"
    save_checkpoint(model, path)
    conv2 = model.conv_layers()[1]
    want = io.BytesIO()
    write_mask_records(conv2.spec.structural_masks(), want)
    args = ["export-masks", "--checkpoint", str(path), "--out", str(tmp_path / "m.bin")]
    out = Capture()
    assert main([*args, "--layer", "0"], out=out) == 0
    assert (tmp_path / "m.bin").read_bytes() == want.getvalue()
    assert out.text == f"wrote {conv2.spec.s} mask records from 1 layers to {tmp_path / 'm.bin'}"
    for layer in ("1", "-1"):
        out = Capture()
        assert main([*args, "--layer", layer], out=out) == 2
        assert out.text == f"config error: --layer {layer} out of range (0..0)"


def test_export_masks_layer_of_a_model_without_masked_convs_exits_2(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_small_cnn("standard", conv1_maps=2, conv2_maps=2, hidden=4), path)
    out = Capture()
    args = ["export-masks", "--checkpoint", str(path), "--out", str(tmp_path / "m.bin"), "--layer", "0"]
    assert main(args, out=out) == 2
    assert out.text == "config error: --layer 0: the model has no masked conv layer"


def test_export_masks_hostile_checkpoint_exits_1(tmp_path):
    # a 51-byte conv record declaring d = c = k = 60000
    header = struct.pack("<BB8If", 0, 0, 60000, 60000, 60000, 1, 0, 0, 1, 0, 0.0)
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIB", VERSION, 1, 1) + header)
    assert len(path.read_bytes()) == 51
    out = Capture()
    code = main(
        ["export-masks", "--checkpoint", str(path), "--out", str(tmp_path / "m.bin")],
        out=out,
    )
    assert code == 1
    assert out.text.startswith("error:")


def test_export_masks_checkpoint_with_a_mask_padding_bit_exits_1(tmp_path):
    # a learnable shared record, d=3 c=1 k=1 s=1, whose one mask word sets bit 9 of 9
    header = struct.pack("<BB8If", 3, 1, 3, 1, 1, 1, 0, 0, 1, 0, 0.0)
    masks = struct.pack("<III", 1, 1, 1 << 9)
    path = tmp_path / "padded.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIB", VERSION, 1, 1) + header + bytes(4 * 10) + masks)
    out = Capture()
    code = main(["export-masks", "--checkpoint", str(path), "--out", str(tmp_path / "m.bin")], out=out)
    assert code == 1
    assert out.text.startswith("error:") and "padding bits" in out.text


def test_export_masks_derived_mask_bomb_exits_1(tmp_path):
    # 16 KiB of filters for a d=1 c=4096 channel layer with 4096 windows
    header = struct.pack("<BB8If", 2, 0, 1, 4096, 1, 4096, 1, 1, 1, 0, 0.0)
    path = tmp_path / "bomb.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIB", VERSION, 1, 1) + header + bytes(4 * 4096))
    out = Capture()
    code = main(
        ["export-masks", "--checkpoint", str(path), "--out", str(tmp_path / "m.bin")],
        out=out,
    )
    assert code == 1
    assert out.text.startswith("error:")


def test_eval_version_1_checkpoint_exits_1(tmp_path, dataset):
    # a version-1 standard conv record: header, flags (biases, masks, latent), filters, bias
    header = struct.pack("<BB8If", 0, 0, 3, 1, 1, 1, 0, 0, 1, 0, 0.0)
    path = tmp_path / "v1.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIB", 1, 1, 1) + header + bytes([1, 0, 0]) + bytes(40))
    out = Capture()
    code = main(["eval", "--checkpoint", str(path), "--data", str(dataset)], out=out)
    assert code == 1
    assert out.text.startswith("error:") and "version 1 unsupported" in out.text


@pytest.mark.parametrize("padding", [2**20, 2**31])
def test_eval_checkpoint_padding_not_below_d_exits_1(tmp_path, dataset, padding):
    path = tmp_path / "model.ckpt"
    save_checkpoint(build_small_cnn("standard", conv1_maps=4, conv2_maps=8, hidden=8), path)
    data = path.read_bytes()
    at = 13 + 30  # field 9 of the first conv header, after the magic, version, count and tag
    path.write_bytes(data[:at] + struct.pack("<I", padding) + data[at + 4 :])
    out = Capture()
    code = main(["eval", "--checkpoint", str(path), "--data", str(dataset)], out=out)
    assert code == 1
    assert out.text == f"error: bad conv record at offset 13: conv: padding {padding} is not below d=5"


@pytest.mark.parametrize(
    "d, padding, k, need",
    [(64, 63, 1, 4096 * 91 * 91 * 40 * 4), (1, 0, 4096, 4096 * 28 * 28 * 40 * 4)],
    ids=["wide kernel", "many maps"],
)
def test_eval_conv_over_the_byte_limit_exits_1(tmp_path, dataset, monkeypatch, d, padding, k, need):
    # 16 KiB of filters each: d = 64 with padding = 63 asks im2col for 4096 x 91*91
    # values per 28x28 image, and k = 4096 for 4096 maps; under a 1 MiB limit both are
    # refused before anything is allocated
    spec = LayerSpec("standard", d=d, c=1, k=k, padding=padding)
    bank = FilterBank(np.zeros((k, d, d, 1), np.float32), np.zeros(k, np.float32))
    path = tmp_path / "wide.ckpt"
    save_checkpoint(Network([MaskedConv(spec, bank)]), path)
    monkeypatch.setattr(network, "CONV_BYTES_MAX", 1 << 20)
    out = Capture()
    code = main(["eval", "--checkpoint", str(path), "--data", str(dataset)], out=out)
    assert code == 1
    assert out.text == (
        f"error: layer conv: a (40, 28, 28, 1) batch needs {need} bytes of patches or maps,"
        " over the 1048576-byte limit"
    )


UNDECODABLE = b"\xff\xfe\x00garbage\x80"


def test_count_ops_undecodable_netspec_exits_1(tmp_path):
    path = tmp_path / "bad.netspec"
    path.write_bytes(UNDECODABLE)
    out = Capture()
    assert main(["count-ops", str(path)], out=out) == 1
    assert out.text.startswith(f"error: {path}: not UTF-8 text")


def test_train_undecodable_config_exits_2(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_bytes(UNDECODABLE)
    out = Capture()
    assert main(["train", "--config", str(path)], out=out) == 2
    assert out.text.startswith(f"config error: {path}: not UTF-8 text")


@pytest.mark.parametrize(
    "files, argv, code, message",
    [
        ({"run.cfg": "train.seed 3\n"}, ["train", "--config", "run.cfg"], 2, "line 1: expected key=value"),
        ({}, ["train", "--config", "none.cfg"], 2, "config file not found"),
        ({"dir.cfg/x": ""}, ["train", "--config", "dir.cfg"], 2, "dir.cfg: cannot read config file"),
        ({}, ["train", "--set", "train.seed"], 2, "override must be key=value"),
        ({}, ["train", "--sweep", "train.lambda"], 2, "--sweep needs key=v1,v2,..."),
        (
            {"net.netspec": "layer conv1 d=3 c=1 n=8 variant=standard s=1 chat=0 g=0 stride=1 pad=1 hw28\n"},
            ["count-ops", "net.netspec"],
            1,
            "line 1: malformed field 'hw28'",
        ),
    ],
    ids=["config-line", "config-file", "config-directory", "set", "sweep", "netspec-field"],
)
def test_malformed_settings_exit_with_their_code(tmp_path, monkeypatch, files, argv, code, message):
    monkeypatch.chdir(tmp_path)
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(text)
    out = Capture()
    assert main(argv, out=out) == code
    assert out.lines[-1].startswith("config error: " if code == 2 else "error: ")
    assert message in out.lines[-1]


def test_usage_error_exit_code():
    assert main([], out=Capture()) == 2
    assert main(["unknown-command"], out=Capture()) == 2
