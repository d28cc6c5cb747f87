"""End-to-end checks of the command-line layer: artifact layout, exit
codes, rerun byte-identity, and the flag/config/default precedence."""

import contextlib
import errno
import json
import os
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rankdebias import cli, pipeline
from rankdebias.cli import main
from rankdebias.data import (MAX_CLASSES, MAX_GEN_ENTRIES, BiasedDataset, write_idx_images,
                             write_idx_labels)
from rankdebias.nn import DenseNet, load_checkpoint, save_checkpoint
from rankdebias.pipeline import ExperimentConfig

pytestmark = pytest.mark.filterwarnings("ignore:.*groups are empty")

# small-but-real settings shared by every command in this module
NET = ["--batch-size", "64", "--latent-dim", "8", "--hidden-dims", "16,16",
       "--proj-hidden", "16", "--proj-dim", "8", "--head-iters", "80",
       "--epochs", "3", "--warmup-epochs", "1", "--seed", "5"]


def run(argv):
    return main([str(a) for a in argv])


def assert_refused(code, capsys, out, named: str) -> str:
    """An input refused as it should be: exit 2, named on stderr, --out
    never created and no traceback. Returns stderr for further checks."""
    err = capsys.readouterr().err
    assert code == 2, err
    assert named in err
    assert "Traceback" not in err
    assert not Path(out).exists()
    return err


def child_env() -> dict:
    """The environment of a `python -m rankdebias.cli` child: this one, with
    the package's source directory on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Workspace with a generated dataset and both pretrained encoders."""
    root = tmp_path_factory.mktemp("cliws")
    assert run(["data", "gen", "--n", 480, "--classes", 4, "--bias-ratio", 0.95,
                "--input-dim", 6, "--seed", 3, "--out", root / "ds"]) == 0
    assert run(["pretrain", "--data", root / "ds", "--role", "biased",
                "--lambda-reg", 0.1, "--out", root / "pre_b", *NET]) == 0
    assert run(["pretrain", "--data", root / "ds", "--role", "main",
                "--out", root / "pre_m", *NET]) == 0
    return root


@pytest.fixture(scope="module")
def width7(tmp_path_factory):
    """Width-7 inputs to pair with the width-6 ones of ws: a dataset, an
    encoder checkpoint, and a dataset whose image_shape holds 6 values."""
    root = tmp_path_factory.mktemp("width7")
    assert run(["data", "gen", "--n", 120, "--classes", 4, "--input-dim", 7,
                "--seed", 2, "--out", root / "ds"]) == 0
    save_checkpoint(root / "encoder.ckpt", DenseNet.init([7, 8], np.random.default_rng(0)))
    images = BiasedDataset.load(root / "ds")
    images.meta["image_shape"] = [1, 2, 3]
    images.save(root / "images")
    return root


def read_csv_rows(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    return header, [dict(zip(header, ln.split(","))) for ln in lines[1:]]


# ------------------------------------------------------------------- data


def test_data_gen_layout_and_stdout(ws, capsys):
    rc = run(["data", "gen", "--n", 200, "--classes", 3, "--bias-ratio", 0.9,
              "--input-dim", 5, "--seed", 1, "--out", ws / "ds2"])
    out = capsys.readouterr().out
    assert rc == 0
    for name in ("inputs.npy", "labels.csv", "meta.json", "manifest.json"):
        assert (ws / "ds2" / name).exists()
    assert "n=200" in out and "classes=3" in out and "bias_ratio=0.9" in out
    assert "group counts" in out
    ds = BiasedDataset.load(ws / "ds2")
    assert len(ds) == 200 and ds.num_classes == 3


@pytest.mark.parametrize("argv,field", [
    (["data", "gen", "--n", 2**64, "--classes", 4], "n"),
    (["data", "gen", "--n", 40, "--classes", 4, "--input-dim", 2**64], "input_dim"),
    (["pretrain", "--data", "ds", "--role", "main", "--epochs", 2**64], "epochs"),
    (["sweep", "--spec", "huge.json"], "n"),
    (["sweep", "--spec", "wide.json"], "hidden_dims"),
], ids=["gen-n", "gen-input-dim", "pretrain-epochs", "sweep-n", "sweep-config"])
def test_integer_beyond_int64_exits_2_naming_it(tmp_path, argv, field):
    # in a child process, since data gen with such an n used to die of
    # SIGSEGV inside numpy
    (tmp_path / "huge.json").write_text(json.dumps({"n": 10**400, "seed": [0]}))
    (tmp_path / "wide.json").write_text(json.dumps({"config": {"hidden_dims": [8, 2**64]}}))
    done = subprocess.run([sys.executable, "-m", "rankdebias.cli", *map(str, argv),
                           "--out", str(tmp_path / "out")], cwd=tmp_path, env=child_env(),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 2, done.stderr
    assert f"error: {field} must fit in int64" in done.stderr
    assert not (tmp_path / "out").exists()


def test_seed_beyond_int64_still_works(tmp_path, capsys):
    assert run(["data", "gen", "--n", 40, "--classes", 4, "--seed", 2**64,
                "--out", tmp_path / "d"]) == 0
    assert ExperimentConfig(seed=2**64).seed == 2**64


@pytest.mark.parametrize("flag,value", [
    ("n", 0), ("n", -3), ("seed", -1), ("noise", "nan"), ("input-dim", 0),
])
def test_data_gen_bad_value_names_field_and_exits_2(tmp_path, capsys, flag, value):
    rc = run(["data", "gen", "--n", 50, "--classes", 3, "--" + flag, value,
              "--out", tmp_path / "d"])
    assert_refused(rc, capsys, tmp_path / "d", f"{flag.replace('-', '_')} must")


def test_data_cmnist_missing_file_names_path(tmp_path, capsys):
    rc = run(["data", "cmnist", "--images", tmp_path / "gone-images.idx",
              "--labels", tmp_path / "gone-labels.idx", "--out", tmp_path / "o"])
    assert_refused(rc, capsys, tmp_path / "o", "gone-images.idx")


def test_data_cmnist_bad_bias_ratio_exits_2_before_creating_out(tmp_path, capsys):
    write_idx_images(tmp_path / "i.idx", np.zeros((4, 2, 2)))
    write_idx_labels(tmp_path / "l.idx", np.arange(4))
    rc = run(["data", "cmnist", "--images", tmp_path / "i.idx", "--labels",
              tmp_path / "l.idx", "--bias-ratio", 0, "--out", tmp_path / "o"])
    assert_refused(rc, capsys, tmp_path / "o", "bias_ratio must be in (0, 1]")


@pytest.mark.parametrize("corrupt", ["truncated", "float32", "csv only"])
def test_pretrain_on_corrupt_inputs_exits_2_naming_the_file(ws, tmp_path, capsys, corrupt):
    data = tmp_path / "ds"
    BiasedDataset.load(ws / "ds").save(data)
    inputs = data / "inputs.npy"
    if corrupt == "truncated":
        inputs.write_bytes(inputs.read_bytes()[:-8])
    elif corrupt == "float32":
        np.save(inputs, np.load(inputs).astype(np.float32))
    else:
        inputs.unlink()
        (data / "inputs.csv").write_text("0.5,0.5,0.5,0.5,0.5,0.5\n")
    rc = run(["pretrain", "--data", data, "--role", "main", "--out", tmp_path / "p", *NET])
    assert_refused(rc, capsys, tmp_path / "p", str(inputs))


def test_missing_dataset_directory_names_path(tmp_path, capsys):
    rc = run(["erm", "--data", tmp_path / "absent", "--out", tmp_path / "o", *NET])
    assert_refused(rc, capsys, tmp_path / "o", "absent")


@pytest.mark.parametrize("command,flag", [
    ("pretrain", "--data"), ("erm", "--test"), ("pretrain", "--config"),
    ("debias", "--biased-ckpt"), ("debias", "--main-ckpt"), ("spectrum", "--ckpt"),
    ("sweep", "--spec"), ("cmnist", "--images"), ("cmnist", "--labels"),
])
def test_input_path_of_the_wrong_kind_exits_2_naming_it(ws, tmp_path, capsys, command, flag):
    # a file where a dataset directory is expected, a directory elsewhere
    wrong = tmp_path / "wrong"
    if flag in ("--data", "--test"):
        wrong.write_text("not a dataset\n")
    else:
        wrong.mkdir()
    write_idx_images(tmp_path / "i.idx", np.zeros((4, 2, 2)))
    write_idx_labels(tmp_path / "l.idx", np.arange(4))
    ckpt = ws / "pre_b" / "encoder.ckpt"
    valid = {
        "pretrain": ["pretrain", "--data", ws / "ds", "--role", "main"],
        "erm": ["erm", "--data", ws / "ds"],
        "debias": ["debias", "--data", ws / "ds", "--biased-ckpt", ckpt, "--main-ckpt", ckpt],
        "spectrum": ["spectrum", "--ckpt", ckpt, "--data", ws / "ds"],
        "sweep": ["sweep"],
        "cmnist": ["data", "cmnist", "--images", tmp_path / "i.idx",
                   "--labels", tmp_path / "l.idx"],
    }
    # the last of a repeated flag wins
    rc = run([*valid[command], flag, wrong, "--out", tmp_path / "o"])
    assert_refused(rc, capsys, tmp_path / "o", str(wrong))


# image_shape values that are not three positive integers; each list multiplies to 6
BAD_IMAGE_SHAPES = {"image-shape-str": "abc", "image-shape-float": [1, 2.0, 3],
                    "image-shape-bool": [True, 2, 3], "image-shape-negative": [-1, -1, 6]}


@pytest.mark.parametrize("case", ["erm-test", "debias-test", "biased-ckpt", "main-ckpt",
                                  "spectrum-ckpt", "image-meta", "image-width",
                                  *BAD_IMAGE_SHAPES])
def test_inputs_that_do_not_fit_exit_2_naming_them_before_out_exists(
        ws, width7, tmp_path, capsys, monkeypatch, case):
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    for trainer in ("erm_train", "identify_error_set", "pretrain_biased"):
        monkeypatch.setattr(cli, trainer, refuse)
    ds, ckpt = ws / "ds", ws / "pre_b" / "encoder.ckpt"
    ds7, ckpt7, images = width7 / "ds", width7 / "encoder.ckpt", width7 / "images"
    shaped = tmp_path / "shaped"
    if case in BAD_IMAGE_SHAPES:
        bad = BiasedDataset.load(ds)
        bad.meta["image_shape"] = BAD_IMAGE_SHAPES[case]
        bad.save(shaped)
    debias = ["debias", "--data", ds, "--biased-ckpt", ckpt, "--main-ckpt", ckpt]
    image = ["pretrain", "--role", "main", "--modality", "cmnist-image", *NET]
    argv, culprit = {
        "erm-test": (["erm", "--data", ds, "--test", ds7, *NET], ds7),
        "debias-test": ([*debias, "--test", ds7, *NET], ds7),
        "biased-ckpt": ([*debias, "--biased-ckpt", ckpt7, *NET], ckpt7),
        "main-ckpt": ([*debias, "--main-ckpt", ckpt7, *NET], ckpt7),
        "spectrum-ckpt": (["spectrum", "--ckpt", ckpt7, "--data", ds], ckpt7),
        # a data gen set has no image_shape; images holds 7 values a row, not 6
        "image-meta": ([*image, "--data", ds], ds),
        "image-width": ([*image, "--data", images], images),
        **dict.fromkeys(BAD_IMAGE_SHAPES, ([*image, "--data", shaped],
                                           f"{shaped}: rows have width 6, not the product")),
    }[case]
    # the last of a repeated flag wins
    assert_refused(run([*argv, "--out", tmp_path / "o"]), capsys, tmp_path / "o", str(culprit))


@pytest.mark.parametrize("command", ["erm", "debias"])
@pytest.mark.parametrize("row", ["7,7,1", "-1,-1,1", "0,4,0", "0,x,1", "0,0,2", "1,0,-1"])
def test_labels_outside_their_classes_exit_2_naming_labels_csv_before_out_exists(
        ws, tmp_path, capsys, command, row):
    data = tmp_path / "ds"
    BiasedDataset.load(ws / "ds").save(data)  # 4 classes
    labels = data / "labels.csv"
    lines = labels.read_text().splitlines()
    lines[1] = row
    labels.write_text("\n".join(lines) + "\n")
    ckpt = ws / "pre_b" / "encoder.ckpt"
    argv = {"erm": ["erm", "--data", data],
            "debias": ["debias", "--data", data, "--biased-ckpt", ckpt, "--main-ckpt", ckpt,
                       "--label-fraction", 0.5]}[command]
    assert_refused(run([*argv, "--out", tmp_path / "o", *NET]), capsys, tmp_path / "o",
                   f"{labels}: ")


@pytest.mark.parametrize("value", [np.nan, -np.inf])
@pytest.mark.parametrize("command,culprit", [
    ("erm", "data"), ("erm", "test"), ("pretrain", "data"), ("debias", "data"),
    ("debias", "biased-ckpt"), ("debias", "main-ckpt"), ("spectrum", "data"),
    ("spectrum", "ckpt"),
])
def test_non_finite_inputs_or_weights_exit_2_naming_the_file_before_out_exists(
        ws, tmp_path, capsys, monkeypatch, command, culprit, value):
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    for name in ("erm_train", "identify_error_set", "pretrain_biased", "pretrain_main",
                 "apply"):
        monkeypatch.setattr(cli, name, refuse)
    ds, ckpt = ws / "ds", ws / "pre_b" / "encoder.ckpt"
    if culprit in ("data", "test"):
        bad = BiasedDataset.load(ds)
        bad.inputs[3, 2] = value
        bad.save(tmp_path / "bad")
        path = tmp_path / "bad" / "inputs.npy"
    else:
        net, _ = load_checkpoint(ckpt)
        net.flat[-1] = value
        save_checkpoint(tmp_path / "bad.ckpt", net)
        path = tmp_path / "bad.ckpt"
    paths = {"data": ds, "test": ds, "biased-ckpt": ckpt, "main-ckpt": ckpt, "ckpt": ckpt,
             culprit: path.parent if culprit in ("data", "test") else path}
    argv = {"erm": ["erm", "--data", paths["data"], "--test", paths["test"]],
            "pretrain": ["pretrain", "--data", paths["data"], "--role", "main"],
            "debias": ["debias", "--data", paths["data"], "--biased-ckpt",
                       paths["biased-ckpt"], "--main-ckpt", paths["main-ckpt"]],
            "spectrum": ["spectrum", "--data", paths["data"], "--ckpt", paths["ckpt"]]}[command]
    assert_refused(run([*argv, "--out", tmp_path / "o"]), capsys, tmp_path / "o",
                   f"error: {path}: holds non-finite values")


def test_the_finite_check_passes_an_empty_array():
    cli._require_finite(np.empty((0, 4)), Path("inputs.npy"))  # min() would raise


@pytest.mark.parametrize("edit", ["num_classes as a string", "no bias_ratio", "not JSON"])
def test_malformed_meta_json_exits_2_naming_it_before_out_exists(ws, tmp_path, capsys, edit):
    data = tmp_path / "ds"
    BiasedDataset.load(ws / "ds").save(data)
    path = data / "meta.json"
    meta = json.loads(path.read_text())
    if edit == "no bias_ratio":
        del meta["bias_ratio"]
    else:
        meta["num_classes"] = str(meta["num_classes"])
    path.write_text("{not json" if edit == "not JSON" else json.dumps(meta))
    assert_refused(run(["erm", "--data", data, "--out", tmp_path / "o", *NET]), capsys,
                   tmp_path / "o", f"error: {path}: ")


@pytest.mark.parametrize("case", ["erm", "debias", "data gen", "sweep"])
def test_a_class_count_beyond_the_bound_exits_2_naming_it_before_out_exists(
        ws, tmp_path, capsys, case):
    huge = 10**12  # a [latent_dim, huge] head would need hundreds of TiB
    data = tmp_path / "ds"
    BiasedDataset.load(ws / "ds").save(data)
    meta = data / "meta.json"
    meta.write_text(json.dumps({**json.loads(meta.read_text()), "num_classes": huge}))
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"classes": huge, "seed": [0]}))
    ckpt = ws / "pre_b" / "encoder.ckpt"
    argv, named = {
        "erm": (["erm", "--data", data, *NET], f"{meta}: num_classes"),
        "debias": (["debias", "--data", data, "--biased-ckpt", ckpt, "--main-ckpt", ckpt,
                    *NET], f"{meta}: num_classes"),
        "data gen": (["data", "gen", "--n", 10, "--classes", huge, "--input-dim", huge + 2],
                     "classes"),
        "sweep": (["sweep", "--spec", spec], "classes"),
    }[case]
    assert_refused(run([*argv, "--out", tmp_path / "o"]), capsys, tmp_path / "o",
                   f"error: {named} must be <= {MAX_CLASSES}, got {huge}")


@pytest.mark.parametrize("case", ["data gen", "sweep n", "sweep test_n"])
def test_a_generated_size_beyond_the_bound_exits_2_naming_it_before_out_exists(
        tmp_path, capsys, case):
    huge = 10**12  # 10 rows of this width would need 72.8 TiB
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"classes": 3, "seed": [0],
                                case.removeprefix("sweep "): huge // 5}))
    argv, named = {
        "data gen": (["data", "gen", "--n", 10, "--classes", 3, "--input-dim", huge],
                     f"n * input_dim must be <= {MAX_GEN_ENTRIES}, got 10 * {huge}"),
        "sweep n": (["sweep", "--spec", spec],
                    f"n * (2 + classes) must be <= {MAX_GEN_ENTRIES}, got {huge // 5} * 5"),
        "sweep test_n": (["sweep", "--spec", spec], f"test_n * (2 + classes) must be <= "
                         f"{MAX_GEN_ENTRIES}, got {huge // 5} * 5"),
    }[case]
    assert_refused(run([*argv, "--out", tmp_path / "o"]), capsys, tmp_path / "o",
                   f"error: {named}")


@pytest.mark.parametrize("culprit", ["config", "spec", "sidecar"])
def test_an_input_that_is_not_json_exits_2_naming_it_before_out_exists(
        ws, tmp_path, capsys, culprit):
    ckpt = tmp_path / "encoder.ckpt"
    save_checkpoint(ckpt, load_checkpoint(ws / "pre_b" / "encoder.ckpt")[0])
    path = {"config": tmp_path / "config.json", "spec": tmp_path / "spec.json",
            "sidecar": Path(f"{ckpt}.json")}[culprit]
    path.write_text("{not json")
    argv = {"config": ["erm", "--data", ws / "ds", "--config", path, *NET],
            "spec": ["sweep", "--spec", path],
            "sidecar": ["spectrum", "--ckpt", ckpt, "--data", ws / "ds"]}[culprit]
    assert_refused(run([*argv, "--out", tmp_path / "o"]), capsys, tmp_path / "o",
                   f"error: {path}: ")


# --------------------------------------------------------------- pretrain


def test_pretrain_artifacts_and_log_schema(ws):
    header, rows = read_csv_rows(ws / "pre_b" / "train_log.csv")
    assert header == ["epoch", "loss", "eff_rank", "lr"]
    assert len(rows) == 3
    for row in rows:
        assert float(row["eff_rank"]) <= np.log(8) + 1e-12
    ckpt, sidecar = load_checkpoint(ws / "pre_b" / "encoder.ckpt")
    assert ckpt.out_dim == 8
    assert sidecar["config"]["lambda_reg"] == 0.1
    assert "manifest_hash" in sidecar["config"]


def test_pretrain_role_main_equals_biased_zero_reg(ws, tmp_path):
    rc = run(["pretrain", "--data", ws / "ds", "--role", "biased",
              "--lambda-reg", 0.0, "--out", tmp_path / "pre0", *NET])
    assert rc == 0
    a = (ws / "pre_m" / "encoder.ckpt").read_bytes()
    b = (tmp_path / "pre0" / "encoder.ckpt").read_bytes()
    assert a == b
    assert (ws / "pre_m" / "train_log.csv").read_bytes() == \
        (tmp_path / "pre0" / "train_log.csv").read_bytes()
    ma = json.loads((ws / "pre_m" / "manifest.json").read_text())
    mb = json.loads((tmp_path / "pre0" / "manifest.json").read_text())
    assert ma["manifest_hash"] == mb["manifest_hash"]


def test_pretrain_rerun_is_byte_identical(ws, tmp_path):
    rc = run(["pretrain", "--data", ws / "ds", "--role", "biased",
              "--lambda-reg", 0.1, "--out", tmp_path / "again", *NET])
    assert rc == 0
    assert (tmp_path / "again" / "encoder.ckpt").read_bytes() == \
        (ws / "pre_b" / "encoder.ckpt").read_bytes()
    assert (tmp_path / "again" / "train_log.csv").read_bytes() == \
        (ws / "pre_b" / "train_log.csv").read_bytes()


def test_erm_divergence_exits_1_and_keeps_partial_log(ws, tmp_path, capsys):
    rc = run(["erm", "--data", ws / "ds", "--base-lr", 1e150,
              "--out", tmp_path / "dvg", *NET])
    err = capsys.readouterr().err
    assert rc == 1
    assert "diverged" in err
    assert (tmp_path / "dvg" / "train_log.csv").exists()
    assert not (tmp_path / "dvg" / "encoder.ckpt").exists()


@pytest.mark.parametrize("command", [["pretrain", "--role", "biased"], ["erm"]])
def test_penalized_divergence_exits_1_and_keeps_partial_log(ws, tmp_path, capsys, command):
    # the rank penalty must not reject the diverged encoder output as bad input
    rc = run([*command, "--data", ws / "ds", "--lambda-reg", 0.1, "--base-lr", 1e150,
              "--out", tmp_path / "dvg", *NET])
    err = capsys.readouterr().err
    assert rc == 1
    assert "diverged" in err
    assert (tmp_path / "dvg" / "train_log.csv").exists()


def test_a_zero_norm_projection_row_is_a_divergence_with_its_step(ws, tmp_path, capsys):
    # at NET's seed 5, some image view's projection of these rows, scaled
    # into (0, 1), starts at zero norm: a training failure, not bad input
    images = BiasedDataset.load(ws / "ds")
    images.inputs = 0.5 + images.inputs / (2 * np.abs(images.inputs).max())
    images.meta["image_shape"] = [1, 2, 3]
    images.save(tmp_path / "ds")
    rc = run(["pretrain", "--data", tmp_path / "ds", "--role", "biased",
              "--modality", "cmnist-image", "--out", tmp_path / "dvg", *NET])
    err = capsys.readouterr().err
    assert rc == 1
    assert "error: pretrain diverged: loss nan at epoch 0, step " in err
    assert "(partial log kept: 0 epochs)" in err
    assert (tmp_path / "dvg" / "train_log.csv").exists()
    assert not (tmp_path / "dvg" / "encoder.ckpt").exists()


def test_manifest_is_written_after_the_artifacts(ws, tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "save_checkpoint", fail)
    with pytest.raises(OSError, match="disk full"):
        run(["pretrain", "--data", ws / "ds", "--role", "main",
             "--out", tmp_path / "p", *NET])
    assert not (tmp_path / "p" / "manifest.json").exists()


def snapshot(directory):
    assert not list(directory.glob(".stage-*"))  # no staging directory left
    return {path.name: path.read_bytes() for path in directory.iterdir()}


def test_diverged_rerun_leaves_its_partial_log_and_no_manifest(ws, tmp_path, capsys):
    out = tmp_path / "p"
    pretrain = ["pretrain", "--data", ws / "ds", "--role", "main", "--out", out, *NET]
    assert run(pretrain) == 0
    first_log = snapshot(out)["train_log.csv"]
    assert run([*pretrain, "--base-lr", 1e150]) == 1
    assert "diverged" in capsys.readouterr().err
    after = snapshot(out)
    assert "manifest.json" not in after
    assert after["train_log.csv"] != first_log


def test_failed_rerun_leaves_a_completed_out_byte_identical(ws, tmp_path, monkeypatch):
    out = tmp_path / "p"
    pretrain = ["pretrain", "--data", ws / "ds", "--role", "main", "--out", out, *NET]
    assert run(pretrain) == 0
    before = snapshot(out)

    def fail(*args, **kwargs):
        raise OSError("disk full")

    monkeypatch.setattr(cli, "_write_csv", fail)
    with pytest.raises(OSError, match="disk full"):
        run([*pretrain, "--seed", 6])
    assert snapshot(out) == before


def test_failed_commit_leaves_a_completed_out_byte_identical(ws, tmp_path, monkeypatch, capsys):
    # as when the staging directory sits on another filesystem than --out
    out = tmp_path / "p"
    pretrain = ["pretrain", "--data", ws / "ds", "--role", "main", "--out", out, *NET]
    assert run(pretrain) == 0
    before = snapshot(out)

    def cross_device(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), str(src))

    monkeypatch.setattr(os, "replace", cross_device)
    capsys.readouterr()
    assert run([*pretrain, "--seed", 6]) == 1
    assert os.strerror(errno.EXDEV) in capsys.readouterr().err
    assert snapshot(out) == before


def test_failed_commit_exits_1_naming_out_at_every_rename(ws, tmp_path, monkeypatch, capsys):
    # no rollback yet: only the exit code, the message and the stage's removal
    out = tmp_path / "e"
    erm = ["erm", "--data", ws / "ds", "--out", out, *NET]
    replace = os.replace
    calls = []

    def run_failing_rename(k):
        """run(erm) with its k-th os.replace failing (none for k = 0)."""
        def fail_kth(src, dst):
            calls.append(src)
            if len(calls) == k:
                raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), str(src))
            replace(src, dst)

        calls.clear()
        monkeypatch.setattr(os, "replace", fail_kth)
        return run(erm)

    assert run(erm) == 0
    assert run_failing_rename(0) == 0
    renames = len(calls)
    # each artifact, the old manifest out and the new one in
    assert renames == len(list(out.iterdir())) + 1
    for k in range(1, renames + 1):
        assert run_failing_rename(0) == 0
        capsys.readouterr()
        assert run_failing_rename(k) == 1, k
        err = capsys.readouterr().err
        assert f"into {out}" in err and "Traceback" not in err, k
        assert not list(out.glob(".stage-*")), k


def test_run_stages_inside_out_and_leaves_its_parent_alone(ws, tmp_path, monkeypatch):
    # so --out may be a mount point, or sit in a directory it cannot write
    parent = tmp_path / "ro"
    parent.mkdir()
    out = parent / "p"
    made = []
    mkdtemp = cli.tempfile.mkdtemp

    def record(*args, **kwargs):
        made.append(kwargs["dir"])
        return mkdtemp(*args, **kwargs)

    monkeypatch.setattr(cli.tempfile, "mkdtemp", record)
    assert run(["pretrain", "--data", ws / "ds", "--role", "main", "--out", out, *NET]) == 0
    assert made == [out]
    assert sorted(p.name for p in parent.iterdir()) == ["p"]
    assert "manifest.json" in snapshot(out)


def test_sidecar_is_identical_across_dataset_regeneration(tmp_path):
    gen = ["data", "gen", "--n", 480, "--classes", 4, "--bias-ratio", 0.95,
           "--input-dim", 6, "--seed", 3]
    for name in ("a", "b"):
        assert run([*gen, "--out", tmp_path / f"ds_{name}"]) == 0
        assert run(["pretrain", "--data", tmp_path / f"ds_{name}", "--role", "main",
                    "--out", tmp_path / f"pre_{name}", *NET]) == 0
    # the dataset manifests differ only in their wall clock
    assert (tmp_path / "ds_a" / "manifest.json").read_bytes() != \
        (tmp_path / "ds_b" / "manifest.json").read_bytes()
    assert (tmp_path / "pre_a" / "encoder.ckpt.json").read_bytes() == \
        (tmp_path / "pre_b" / "encoder.ckpt.json").read_bytes()


@pytest.mark.parametrize("field,value", [
    ("base_lr", -1), ("head_lr", -1), ("finetune_lr", -1), ("finetune_momentum", 5),
    ("finetune_momentum", 1), ("finetune_momentum", -0.5), ("proj_dim", 0),
    ("proj_hidden", 0), ("tau", float("nan")), ("lambda_up", float("inf")),
])
def test_bad_config_value_names_field_and_exits_2(ws, tmp_path, capsys, field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})
    rc = run(["pretrain", "--data", ws / "ds", "--role", "biased",
              "--out", tmp_path / "p", *NET, "--" + field.replace("_", "-"), value])
    assert_refused(rc, capsys, tmp_path / "p", field)


# -------------------------------------------------------------------- erm


def test_erm_artifacts(ws, tmp_path):
    rc = run(["erm", "--data", ws / "ds", "--out", tmp_path / "erm", *NET])
    assert rc == 0
    header, log_rows = read_csv_rows(tmp_path / "erm" / "train_log.csv")
    assert header == ["epoch", "loss", "ce", "rank_term", "lr", "eff_rank"]
    assert len(log_rows) == 3
    metrics = json.loads((tmp_path / "erm" / "metrics.json").read_text())
    for key in ("bias_conflict_acc", "bias_aligned_acc", "unbiased_acc"):
        assert isinstance(metrics[key], float)
    _, err_rows = read_csv_rows(tmp_path / "erm" / "error_set.csv")
    model_enc, _ = load_checkpoint(tmp_path / "erm" / "encoder.ckpt")
    head, _ = load_checkpoint(tmp_path / "erm" / "head.ckpt")
    ds = BiasedDataset.load(ws / "ds")
    from rankdebias.nn import apply
    pred = np.argmax(apply(head, apply(model_enc, ds.inputs)), axis=1)
    assert len(err_rows) == int((pred != ds.y).sum())


def test_erm_reversed_target_reports_bias_accuracy(ws, tmp_path, capsys):
    rc = run(["erm", "--data", ws / "ds", "--target", "b",
              "--out", tmp_path / "ermb", *NET])
    out = capsys.readouterr().out
    assert rc == 0
    assert "bias-label accuracy" in out
    metrics = json.loads((tmp_path / "ermb" / "metrics.json").read_text())
    assert metrics["target"] == "b"


# ------------------------------------------------------------------ debias


def test_debias_rerun_identical_and_artifacts(ws, tmp_path):
    args = ["debias", "--data", ws / "ds", "--biased-ckpt", ws / "pre_b" / "encoder.ckpt",
            "--main-ckpt", ws / "pre_m" / "encoder.ckpt", "--lambda-up", 4, *NET]
    assert run([*args, "--out", tmp_path / "d1"]) == 0
    assert run([*args, "--out", tmp_path / "d2"]) == 0
    assert (tmp_path / "d1" / "metrics.json").read_bytes() == \
        (tmp_path / "d2" / "metrics.json").read_bytes()
    assert (tmp_path / "d1" / "head.ckpt").read_bytes() == \
        (tmp_path / "d2" / "head.ckpt").read_bytes()
    _, rows = read_csv_rows(tmp_path / "d1" / "error_set.csv")
    metrics = json.loads((tmp_path / "d1" / "metrics.json").read_text())
    assert metrics["error_set_size"] == len(rows)
    assert metrics["mode"] == "linear-eval"
    assert not (tmp_path / "d1" / "encoder_finetuned.ckpt").exists()


def test_debias_semisup_writes_finetuned_encoder(ws, tmp_path):
    rc = run(["debias", "--data", ws / "ds", "--biased-ckpt", ws / "pre_b" / "encoder.ckpt",
              "--main-ckpt", ws / "pre_m" / "encoder.ckpt", "--lambda-up", 4,
              "--mode", "semisup", "--label-fraction", 0.5,
              "--finetune-epochs", 2, "--out", tmp_path / "d3", *NET])
    assert rc == 0
    assert (tmp_path / "d3" / "encoder_finetuned.ckpt").exists()
    metrics = json.loads((tmp_path / "d3" / "metrics.json").read_text())
    from rankdebias.data import label_fraction_split
    from rankdebias.pipeline import stream
    split_seed = int(stream(5, "label-split").integers(2**31))
    labeled = label_fraction_split(BiasedDataset.load(ws / "ds"), 0.5, seed=split_seed)
    assert metrics["labeled_n"] == len(labeled)
    assert metrics["label_fraction"] == 0.5


def test_debias_semisup_scores_its_model_once(ws, tmp_path, monkeypatch):
    scored = []
    evaluate = pipeline.evaluate

    def spy(model, *args):
        scored.append(model)
        return evaluate(model, *args)

    monkeypatch.setattr(cli, "evaluate", spy)
    monkeypatch.setattr(pipeline, "evaluate", spy)
    rc = run(["debias", "--data", ws / "ds", "--biased-ckpt", ws / "pre_b" / "encoder.ckpt",
              "--main-ckpt", ws / "pre_m" / "encoder.ckpt", "--mode", "semisup",
              "--finetune-epochs", 1, "--out", tmp_path / "d", *NET])
    assert rc == 0
    assert len(scored) == 1


def test_debias_dimension_mismatch_exits_2(ws, tmp_path, capsys):
    assert run(["data", "gen", "--n", 120, "--classes", 4, "--input-dim", 9,
                "--seed", 2, "--out", tmp_path / "wide"]) == 0
    rc = run(["debias", "--data", tmp_path / "wide",
              "--biased-ckpt", ws / "pre_b" / "encoder.ckpt",
              "--main-ckpt", ws / "pre_m" / "encoder.ckpt",
              "--out", tmp_path / "d4", *NET])
    assert "width 6" in assert_refused(rc, capsys, tmp_path / "d4", "width 9")


@pytest.mark.parametrize("fraction", ["0", "-0.5", "1.5", "nan"])
def test_debias_label_fraction_outside_0_1_exits_2_before_out_exists(
        ws, tmp_path, capsys, fraction):
    rc = run(["debias", "--data", ws / "ds", "--biased-ckpt", ws / "pre_b" / "encoder.ckpt",
              "--main-ckpt", ws / "pre_m" / "encoder.ckpt", "--label-fraction", fraction,
              "--out", tmp_path / "o", *NET])
    err = assert_refused(rc, capsys, tmp_path / "o", "label fraction must be in (0, 1]")
    assert f"got {float(fraction)}" in err


def test_debias_label_fraction_that_labels_nothing_exits_2_before_out_exists(
        ws, tmp_path, capsys):
    # every (y, b) group of the 480 rows rounds 0.001 of itself to no sample
    rc = run(["debias", "--data", ws / "ds", "--biased-ckpt", ws / "pre_b" / "encoder.ckpt",
              "--main-ckpt", ws / "pre_m" / "encoder.ckpt", "--label-fraction", 0.001,
              "--out", tmp_path / "o", *NET])
    assert_refused(rc, capsys, tmp_path / "o",
                   f"error: --label-fraction 0.001 labels none of the 480 samples of {ws / 'ds'}")


# ---------------------------------------------------------------- spectrum


def test_spectrum_outputs(ws, tmp_path, capsys):
    rc = run(["spectrum", "--ckpt", ws / "pre_b" / "encoder.ckpt",
              "--data", ws / "ds", "--out", tmp_path / "sp"])
    out = capsys.readouterr().out
    assert rc == 0
    spectrum = np.loadtxt(tmp_path / "sp" / "spectrum.csv", delimiter=",", ndmin=2)
    assert spectrum[0, 0] == 1.0
    assert np.all(np.diff(spectrum[:, 0]) <= 0)
    corr = np.loadtxt(tmp_path / "sp" / "correlation.csv", delimiter=",", ndmin=2)
    assert np.allclose(corr, corr.T)
    report = json.loads((tmp_path / "sp" / "report.json").read_text())
    printed = float(out.split("effective_rank")[1].split()[0])
    assert printed == pytest.approx(report["effective_rank"], abs=1e-12)


def test_spectrum_degenerate_checkpoint_exits_2(ws, tmp_path, capsys):
    # one layer dim and no parameters: once read as an identity encoder
    ckpt = tmp_path / "one-dim.ckpt"
    ckpt.write_bytes(b"DFND" + struct.pack("<III", 1, 1, 6))
    rc = run(["spectrum", "--ckpt", ckpt, "--data", ws / "ds", "--out", tmp_path / "sp"])
    assert_refused(rc, capsys, tmp_path / "sp", "one-dim.ckpt")


# ------------------------------------------------------------------- sweep


def test_sweep_rows_and_partial_failure(tmp_path, capsys):
    spec = {
        "family": "erm", "n": 240, "classes": 4, "test_n": 240,
        "r": [0.9], "lambda_reg": [0.0, -1.0], "seed": [0, 1],
        "config": {"epochs": 2, "warmup_epochs": 0, "batch_size": 64,
                   "latent_dim": 8, "hidden_dims": [16, 16]},
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", tmp_path / "sweep.json", "--out", tmp_path / "sw"])
    capsys.readouterr()
    assert rc == 1
    header, rows = read_csv_rows(tmp_path / "sw" / "sweep.csv")
    assert header[:6] == ["config_hash", "r", "lambda_reg", "lambda_up", "tau", "seed"]
    assert len(rows) == 4
    ok = [r for r in rows if r["status"] == "ok"]
    bad = [r for r in rows if r["status"].startswith("error")]
    assert len(ok) == 2 and len(bad) == 2
    for row in ok:
        assert float(row["conflict_acc"]) >= 0.0
    selection = json.loads((tmp_path / "sw" / "selection.json").read_text())
    assert selection["selected"] is not None


def test_sweep_all_ok_exits_0(tmp_path, capsys):
    spec = {
        "family": "erm", "n": 240, "classes": 4, "test_n": 240,
        "r": [0.9], "lambda_reg": [0.0], "seed": [0],
        "config": {"epochs": 2, "warmup_epochs": 0, "batch_size": 64,
                   "latent_dim": 8, "hidden_dims": [16, 16]},
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    rc = run(["sweep", "--spec", tmp_path / "sweep.json", "--out", tmp_path / "sw"])
    capsys.readouterr()
    assert rc == 0


def test_sweep_propagates_programming_errors(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("broken job")

    monkeypatch.setattr(cli, "_sweep_job", broken)
    (tmp_path / "sweep.json").write_text(json.dumps({"family": "erm", "seed": [0]}))
    with pytest.raises(TypeError, match="broken job"):
        run(["sweep", "--spec", tmp_path / "sweep.json", "--out", tmp_path / "sw"])


def four_job_sweep(tmp_path, family="erm") -> Path:
    """A sweep spec of four jobs, two of which are refused by the config."""
    spec = {
        "family": family, "n": 240, "classes": 4, "test_n": 240,
        "r": [0.9], "lambda_reg": [0.0, -1.0], "seed": [0, 1],
        "config": {"epochs": 2, "warmup_epochs": 0, "batch_size": 64,
                   "latent_dim": 8, "hidden_dims": [16, 16]},
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    return tmp_path / "sweep.json"


def sweep_bytes(out: Path) -> tuple[bytes, bytes]:
    return (out / "sweep.csv").read_bytes(), (out / "selection.json").read_bytes()


@pytest.mark.parametrize("family", ["erm", "pipeline"])
def test_sweep_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys, family):
    spec = four_job_sweep(tmp_path, family)
    status_lines = []
    for workers in (1, 2):
        monkeypatch.setattr(pipeline, "_usable_cores", lambda: workers)
        assert run(["sweep", "--spec", spec, "--out", tmp_path / f"w{workers}"]) == 1
        out = capsys.readouterr().out
        status_lines.append([line for line in out.splitlines() if line.startswith("[")])
    assert sweep_bytes(tmp_path / "w1") == sweep_bytes(tmp_path / "w2")
    assert status_lines[0] == status_lines[1] and len(status_lines[0]) == 4


def test_sweep_through_python_m_gives_the_same_bytes(tmp_path, capsys):
    spec = four_job_sweep(tmp_path)
    assert run(["sweep", "--spec", spec, "--out", tmp_path / "inproc"]) == 1
    capsys.readouterr()
    done = subprocess.run([sys.executable, "-m", "rankdebias.cli", "sweep", "--spec",
                           str(spec), "--out", str(tmp_path / "child")],
                          env=child_env(), capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stderr
    assert sweep_bytes(tmp_path / "inproc") == sweep_bytes(tmp_path / "child")


def test_integral_grid_values_give_the_bytes_of_their_floats(tmp_path, capsys):
    spec = {"family": "erm", "n": 240, "classes": 4, "test_n": 240, "seed": [0],
            "config": {"epochs": 2, "warmup_epochs": 0, "batch_size": 64,
                       "latent_dim": 8, "hidden_dims": [16, 16]}}
    spellings = {"ints": {"r": [1], "lambda_reg": [0, 0.5], "lambda_up": [4], "tau": [1]},
                 "floats": {"r": [1.0], "lambda_reg": [0.0, 0.5], "lambda_up": [4.0],
                            "tau": [1.0]}}
    for name, grids in spellings.items():
        (tmp_path / f"{name}.json").write_text(json.dumps({**spec, **grids}))
        assert run(["sweep", "--spec", tmp_path / f"{name}.json", "--out", tmp_path / name]) == 0
    capsys.readouterr()
    assert sweep_bytes(tmp_path / "ints") == sweep_bytes(tmp_path / "floats")


def _gone(pid: int) -> bool:
    """pid has exited: no such process, or a zombie not yet reaped."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


@pytest.mark.parametrize("signum", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
def test_sigterm_stops_the_workers_and_removes_the_stage(tmp_path, signum):
    # a killed caller runs no cleanup: its workers notice it is gone by
    # themselves, and its .stage-* stays
    children = Path(f"/proc/{os.getpid()}/task/{os.getpid()}/children")
    if not children.exists():
        pytest.skip("needs /proc/<pid>/task/<pid>/children to find the workers")
    if pipeline._usable_cores() < 2:
        pytest.skip("needs 2 usable cores to start 2 workers")
    # four jobs of several seconds each, so both workers are mid-job
    spec = {"family": "erm", "n": 4000, "classes": 4, "test_n": 240, "seed": [0, 1, 2, 3],
            "config": {"epochs": 300, "warmup_epochs": 0, "batch_size": 64,
                       "latent_dim": 8, "hidden_dims": [64, 64]}}
    (tmp_path / "slow.json").write_text(json.dumps(spec))
    proc = subprocess.Popen([sys.executable, "-m", "rankdebias.cli", "sweep", "--spec",
                             str(tmp_path / "slow.json"), "--out", str(tmp_path / "sw")],
                            env=child_env(), stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            text=True)
    workers = []
    try:
        deadline = time.monotonic() + 60
        while len(workers) < 2 and proc.poll() is None and time.monotonic() < deadline:
            time.sleep(0.05)
            workers = [int(pid) for pid in
                       Path(f"/proc/{proc.pid}/task/{proc.pid}/children").read_text().split()]
        assert len(workers) == 2, workers
        time.sleep(1.0)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=30)
        assert proc.returncode == (143 if signum == signal.SIGTERM else -signum), err
        deadline = time.monotonic() + 5
        while not all(_gone(pid) for pid in workers):
            assert time.monotonic() < deadline, "a worker outlived its parent"
            time.sleep(0.05)
        if signum == signal.SIGTERM:
            assert not list((tmp_path / "sw").glob(".stage-*"))
        else:
            # the next run into --out removes the stage the killed one left
            assert list((tmp_path / "sw").glob(".stage-*"))
            assert run(["data", "gen", "--n", 40, "--classes", 4, "--out", tmp_path / "sw"]) == 0
            assert not list((tmp_path / "sw").glob(".stage-*"))
    finally:
        proc.kill()
        proc.communicate()
        for pid in workers:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def test_a_run_removes_the_stages_of_dead_runs_only(tmp_path, monkeypatch):
    dead = subprocess.Popen([sys.executable, "-c", ""])
    dead.wait()
    kill = os.kill

    def unpermitted(pid, signum):
        if pid == 7777777:
            raise PermissionError(errno.EPERM, "not permitted")
        return kill(pid, signum)

    monkeypatch.setattr(os, "kill", unpermitted)
    out = tmp_path / "o"
    stages = {"dead": f".stage-{dead.pid}-x", "alive": f".stage-{os.getpid()}-x",
              "unpermitted": ".stage-7777777-x", "no pid": ".stage-6mit8fsj",
              "huge pid": f".stage-{2**80}-x"}
    for name in stages.values():
        (out / name).mkdir(parents=True)
    assert run(["data", "gen", "--n", 40, "--classes", 4, "--out", out]) == 0
    left = {p.name for p in out.glob(".stage-*")}
    assert left == set(stages.values()) - {stages["dead"]}


def test_main_restores_the_callers_sigterm_handler(tmp_path, capsys):
    def callers(signum, frame):
        pass

    argv = ["sweep", "--spec", tmp_path / "none.json", "--out", tmp_path / "sw"]
    previous = signal.signal(signal.SIGTERM, callers)
    try:
        assert_refused(run(argv), capsys, tmp_path / "sw", "none.json")
        assert signal.getsignal(signal.SIGTERM) is callers
    finally:
        signal.signal(signal.SIGTERM, previous)
    # a handler can only be set from the main thread, so none is set here
    codes = []
    thread = threading.Thread(target=lambda: codes.append(run(argv)))
    thread.start()
    thread.join(timeout=30)
    assert codes == [2]


def test_sweep_missing_spec_exits_2(tmp_path, capsys):
    rc = run(["sweep", "--spec", tmp_path / "none.json", "--out", tmp_path / "sw"])
    assert_refused(rc, capsys, tmp_path / "sw", "none.json")


# ------------------------------------------------- config file and env var


def test_config_file_and_flag_precedence(ws, tmp_path):
    cfg_file = tmp_path / "cfg.json"
    cfg_file.write_text(json.dumps({
        "epochs": 2, "warmup_epochs": 0, "batch_size": 64, "latent_dim": 8,
        "hidden_dims": [16, 16], "proj_hidden": 16, "proj_dim": 8, "seed": 9,
    }))
    rc = run(["pretrain", "--data", ws / "ds", "--role", "biased",
              "--config", cfg_file, "--epochs", 4, "--out", tmp_path / "p"])
    assert rc == 0
    manifest = json.loads((tmp_path / "p" / "manifest.json").read_text())
    assert manifest["config"]["epochs"] == 4          # flag wins
    assert manifest["config"]["latent_dim"] == 8      # file wins over default
    assert manifest["config"]["seed"] == 9
    _, rows = read_csv_rows(tmp_path / "p" / "train_log.csv")
    assert len(rows) == 4


def test_every_config_field_round_trips_through_its_flag():
    cfg = ExperimentConfig(
        lambda_reg=0.25, lambda_up=3.5, tau=0.5, epochs=7, batch_size=16, base_lr=0.002,
        warmup_epochs=2, weight_decay=0.01, latent_dim=5, hidden_dims=(9, 7, 3),
        proj_hidden=11, proj_dim=6, head_iters=12, head_lr=0.03, finetune_epochs=4,
        finetune_lr=0.005, finetune_momentum=0.5, finetune_weight_decay=0.2, seed=13,
        modality="cmnist-image")
    flags = []
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        assert value != getattr(ExperimentConfig(), f.name), f.name
        text = ",".join(map(str, value)) if isinstance(value, tuple) else str(value)
        flags += ["--" + f.name.replace("_", "-"), text]
    args = cli.build_parser().parse_args(["erm", "--data", "d", "--out", "o", *flags])
    assert cli._build_config(args) == cfg


# for each ExperimentConfig field: the command that reads it and a value
# off both its default and NET's
FIELD_RUNS = {
    "lambda_reg": ("pretrain", 0.5), "tau": ("pretrain", 0.5), "epochs": ("pretrain", 2),
    "base_lr": ("pretrain", 1e-3), "warmup_epochs": ("pretrain", 0),
    "weight_decay": ("pretrain", 0.1), "latent_dim": ("pretrain", 6),
    "hidden_dims": ("pretrain", "16"), "proj_hidden": ("pretrain", 12),
    "proj_dim": ("pretrain", 6), "seed": ("pretrain", 6),
    "modality": ("pretrain", "cmnist-image"), "lambda_up": ("debias", 2.0),
    "batch_size": ("erm", 32), "head_iters": ("debias", 40), "head_lr": ("debias", 0.05),
    "finetune_epochs": ("debias", 3), "finetune_lr": ("debias", 1e-2),
    "finetune_momentum": ("debias", 0.5), "finetune_weight_decay": ("debias", 0.01),
}


@pytest.fixture(scope="module")
def field_runs(ws, tmp_path_factory):
    """The artifacts of one run of each command, as the NET flags give them,
    and a function running a command with more flags into a fresh --out.
    The dataset's rows, scaled into (0, 1), are also 1 x 2 x 3 images, so
    it serves either modality. The runs take seed 7: at NET's seed 5, some
    image view's projection starts at zero norm."""
    root = tmp_path_factory.mktemp("field_runs")
    images = BiasedDataset.load(ws / "ds")
    images.inputs = 0.5 + images.inputs / (2 * np.abs(images.inputs).max())
    images.meta["image_shape"] = [1, 2, 3]
    images.save(root / "ds")
    ckpt = ws / "pre_b" / "encoder.ckpt"
    argv = {"pretrain": ["pretrain", "--data", root / "ds", "--role", "biased"],
            "erm": ["erm", "--data", root / "ds"],
            "debias": ["debias", "--data", root / "ds", "--biased-ckpt", ckpt,
                       "--main-ckpt", ws / "pre_m" / "encoder.ckpt", "--mode", "semisup"]}

    def artifacts(command, *flags):
        out = Path(tempfile.mkdtemp(dir=root))
        assert run([*argv[command], *NET, "--seed", 7, *flags, "--out", out]) == 0
        # the manifest and the checkpoint sidecars repeat the config itself
        return {p.name: p.read_bytes() for p in out.iterdir()
                if p.name != "manifest.json" and not p.name.endswith(".ckpt.json")}

    return {command: artifacts(command) for command in argv}, artifacts


@pytest.mark.parametrize("name", [f.name for f in fields(ExperimentConfig)])
def test_every_config_field_changes_the_artifacts_of_a_run_that_reads_it(
        field_runs, capsys, name):
    base, artifacts = field_runs
    command, value = FIELD_RUNS[name]
    flag = "--" + name.replace("_", "-")
    assert str(value) != str(getattr(ExperimentConfig(), name))
    assert str(value) != (dict(zip(NET[::2], NET[1::2])) | {"--seed": "7"}).get(flag)
    changed = artifacts(command, flag, value)
    capsys.readouterr()
    assert changed.keys() == base[command].keys()
    assert changed != base[command], f"{name}={value} left every {command} artifact as it was"


@pytest.mark.parametrize("value", ["a,b", ","])
def test_bad_hidden_dims_names_the_flag_and_exits_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run(["erm", "--data", tmp_path / "d", "--out", tmp_path / "o",
             "--hidden-dims", value])
    assert_refused(exc.value.code, capsys, tmp_path / "o", "argument --hidden-dims")


def test_config_file_unknown_field_exits_2(ws, tmp_path, capsys):
    # (command, file contents, text stderr must name)
    cases = [
        ("pretrain", {"learning_rate": 0.1}, "learning_rate"),
        ("pretrain", {"epochs": "3"}, "epochs"),
        ("pretrain", {"hidden_dims": 16}, "hidden_dims"),
        ("pretrain", {"tau": float("nan")}, "tau"),
        ("pretrain", [1, 2], "bad.json"),
        ("sweep", {"config": {"bogus": 1}}, "bogus"),
        ("sweep", {"config": {"epochs": "3"}}, "epochs"),
        ("sweep", {"config": {"tau": float("nan")}}, "tau"),
        ("sweep", [1, 2], "bad.json"),
        ("sweep", {"r": 0.9}, "r must be real"),
        ("sweep", {"r": []}, "r must be a non-empty list"),
        ("sweep", {"seed": ["x"]}, "seed must be integral"),
        ("sweep", {"n": [100]}, "n must be integral"),
        ("sweep", {"classes": 4.9}, "classes must be integral"),
        ("sweep", {"seed": [0, 1.5]}, "seed must be integral"),
        ("sweep", {"tau": [0.07, float("nan")]}, "tau must be finite"),
        ("sweep", {"r": [float("inf")]}, "r must be finite"),
        ("sweep", {"n": float("inf")}, "n must be integral"),
        ("sweep", {"lamda_reg": [0.5]}, "lamda_reg"),
        ("sweep", {"n": 0}, "n must be >= 1"),
        ("sweep", {"classes": 1}, "classes must be >= 2"),
        ("sweep", {"test_n": 0}, "test_n must be >= 1"),
        ("sweep", {"n": 240.0}, "n must be integral"),
        ("sweep", {"r": ["0.9"]}, "r must be real"),
        ("sweep", {"lambda_reg": [True]}, "lambda_reg must be real"),
        ("sweep", {"r": None}, "r must be real"),
        ("sweep", {"lambda_reg": None}, "lambda_reg must be real"),
    ]
    cfg_file = tmp_path / "bad.json"
    for command, contents, named in cases:
        cfg_file.write_text(json.dumps(contents))
        if command == "pretrain":
            argv = ["pretrain", "--data", ws / "ds", "--role", "main", "--config", cfg_file]
        else:
            argv = ["sweep", "--spec", cfg_file]
        assert_refused(run([*argv, "--out", tmp_path / "p"]), capsys, tmp_path / "p", named)


def test_output_root_env_var(ws, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RANKDEBIAS_OUT", str(tmp_path))
    rc = run(["spectrum", "--ckpt", ws / "pre_b" / "encoder.ckpt",
              "--data", ws / "ds", "--out", "rooted"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "rooted" / "report.json").exists()


def test_absolute_out_ignores_env_var(ws, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RANKDEBIAS_OUT", str(tmp_path / "elsewhere"))
    rc = run(["spectrum", "--ckpt", ws / "pre_b" / "encoder.ckpt",
              "--data", ws / "ds", "--out", tmp_path / "direct"])
    capsys.readouterr()
    assert rc == 0
    assert (tmp_path / "direct" / "report.json").exists()
    assert not (tmp_path / "elsewhere").exists()


def test_data_gen_out_resolves_under_the_output_root(tmp_path, monkeypatch, capsys):
    root = tmp_path / "root"
    monkeypatch.setenv("RANKDEBIAS_OUT", str(root))
    monkeypatch.chdir(tmp_path)
    argv = ["data", "gen", "--n", 40, "--classes", 4, "--out"]
    assert run([*argv, "runs/ds"]) == 0
    assert (root / "runs" / "ds" / "manifest.json").exists()
    assert not (tmp_path / "runs").exists()
    assert run([*argv, tmp_path / "direct"]) == 0
    assert (tmp_path / "direct" / "manifest.json").exists()
    assert not (root / "direct").exists()
    capsys.readouterr()
