import struct

import numpy as np
import pytest

from maskconv.accounting import shipped_netspec_path
from maskconv.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from maskconv.cli import main
from maskconv.config import ConfigError, RunConfig, load_config, parse_config_text
from maskconv.datagen import write_dataset
from maskconv.idx import IMAGES_MAGIC
from maskconv.masks import read_mask_records
from maskconv.network import MaskedConv, build_small_cnn


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


# ------------------------------------------------------------------- bench


def test_bench_reports_all_specs():
    out = Capture()
    assert main(["bench", "--trials", "2", "--hw", "8"], out=out) == 0
    rows = [l for l in out.lines if l.startswith("spec ")]
    assert len(rows) == 6
    for row in rows:
        assert "ok=1" in row and "mul_fp32=" in row


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


def test_export_masks_hostile_checkpoint_exits_1(tmp_path):
    # a 54-byte conv record declaring d = c = k = 60000
    header = struct.pack("<BB8If", 0, 0, 60000, 60000, 60000, 1, 0, 0, 1, 0, 0.0)
    path = tmp_path / "hostile.ckpt"
    path.write_bytes(MAGIC + struct.pack("<IIB", 1, 1, 1) + header + bytes([1, 0, 0]))
    assert len(path.read_bytes()) == 54
    out = Capture()
    code = main(
        ["export-masks", "--checkpoint", str(path), "--out", str(tmp_path / "m.bin")],
        out=out,
    )
    assert code == 1
    assert out.text.startswith("error:")


def test_usage_error_exit_code():
    assert main([], out=Capture()) == 2
    assert main(["unknown-command"], out=Capture()) == 2
