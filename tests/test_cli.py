"""End-to-end checks of the command-line layer: artifact layout, exit
codes, rerun byte-identity, and the flag/config/default precedence."""

import errno
import json
import os
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from rankdebias import cli, pipeline
from rankdebias.cli import main
from rankdebias.data import BiasedDataset, write_idx_images, write_idx_labels
from rankdebias.nn import load_checkpoint
from rankdebias.pipeline import ExperimentConfig

pytestmark = pytest.mark.filterwarnings("ignore:.*groups are empty")

# small-but-real settings shared by every command in this module
NET = ["--batch-size", "64", "--latent-dim", "8", "--hidden-dims", "16,16",
       "--proj-hidden", "16", "--proj-dim", "8", "--head-iters", "80",
       "--epochs", "3", "--warmup-epochs", "1", "--seed", "5"]


def run(argv):
    return main([str(a) for a in argv])


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


@pytest.mark.parametrize("flag,value", [
    ("n", 0), ("n", -3), ("seed", -1), ("noise", "nan"), ("input-dim", 0),
])
def test_data_gen_bad_value_names_field_and_exits_2(tmp_path, capsys, flag, value):
    rc = run(["data", "gen", "--n", 50, "--classes", 3, "--" + flag, value,
              "--out", tmp_path / "d"])
    assert rc == 2
    assert f"{flag.replace('-', '_')} must" in capsys.readouterr().err
    assert not (tmp_path / "d").exists()


def test_data_cmnist_missing_file_names_path(tmp_path, capsys):
    rc = run(["data", "cmnist", "--images", tmp_path / "gone-images.idx",
              "--labels", tmp_path / "gone-labels.idx", "--out", tmp_path / "o"])
    assert rc == 2
    assert "gone-images.idx" in capsys.readouterr().err


def test_data_cmnist_bad_bias_ratio_exits_2_before_creating_out(tmp_path, capsys):
    write_idx_images(tmp_path / "i.idx", np.zeros((4, 2, 2)))
    write_idx_labels(tmp_path / "l.idx", np.arange(4))
    rc = run(["data", "cmnist", "--images", tmp_path / "i.idx", "--labels",
              tmp_path / "l.idx", "--bias-ratio", 0, "--out", tmp_path / "o"])
    assert rc == 2
    assert "bias_ratio must be in (0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
    assert rc == 2
    assert str(inputs) in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


def test_missing_dataset_directory_names_path(tmp_path, capsys):
    rc = run(["erm", "--data", tmp_path / "absent", "--out", tmp_path / "o", *NET])
    assert rc == 2
    assert "absent" in capsys.readouterr().err


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
    assert rc == 2
    assert str(wrong) in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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


def test_failed_commit_leaves_a_completed_out_byte_identical(ws, tmp_path, monkeypatch):
    # as when the staging directory sits on another filesystem than --out
    out = tmp_path / "p"
    pretrain = ["pretrain", "--data", ws / "ds", "--role", "main", "--out", out, *NET]
    assert run(pretrain) == 0
    before = snapshot(out)

    def cross_device(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), str(src))

    monkeypatch.setattr(os, "replace", cross_device)
    with pytest.raises(OSError) as info:
        run([*pretrain, "--seed", 6])
    assert info.value.errno == errno.EXDEV
    assert snapshot(out) == before


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
    assert rc == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "p").exists()


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
    labeled, _ = label_fraction_split(BiasedDataset.load(ws / "ds"), 0.5,
                                      seed=split_seed)
    assert metrics["labeled_n"] == len(labeled)
    assert metrics["label_fraction"] == 0.5


def test_debias_dimension_mismatch_exits_2(ws, tmp_path, capsys):
    assert run(["data", "gen", "--n", 120, "--classes", 4, "--input-dim", 9,
                "--seed", 2, "--out", tmp_path / "wide"]) == 0
    rc = run(["debias", "--data", tmp_path / "wide",
              "--biased-ckpt", ws / "pre_b" / "encoder.ckpt",
              "--main-ckpt", ws / "pre_m" / "encoder.ckpt",
              "--out", tmp_path / "d4", *NET])
    assert rc == 2
    err = capsys.readouterr().err
    assert "width 6" in err and "width 9" in err


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
    assert rc == 2
    assert "one-dim.ckpt" in capsys.readouterr().err


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


def four_job_sweep(tmp_path) -> Path:
    """A sweep spec of four jobs, two of which are refused by the config."""
    spec = {
        "family": "erm", "n": 240, "classes": 4, "test_n": 240,
        "r": [0.9], "lambda_reg": [0.0, -1.0], "seed": [0, 1],
        "config": {"epochs": 2, "warmup_epochs": 0, "batch_size": 64,
                   "latent_dim": 8, "hidden_dims": [16, 16]},
    }
    (tmp_path / "sweep.json").write_text(json.dumps(spec))
    return tmp_path / "sweep.json"


def sweep_bytes(out: Path) -> tuple[bytes, bytes]:
    return (out / "sweep.csv").read_bytes(), (out / "selection.json").read_bytes()


def test_sweep_bytes_do_not_depend_on_the_worker_count(tmp_path, monkeypatch, capsys):
    spec = four_job_sweep(tmp_path)
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
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "rankdebias.cli", "sweep", "--spec",
                           str(spec), "--out", str(tmp_path / "child")],
                          env=env, capture_output=True, text=True, timeout=300)
    assert done.returncode == 1, done.stderr
    assert sweep_bytes(tmp_path / "inproc") == sweep_bytes(tmp_path / "child")


def test_sweep_missing_spec_exits_2(tmp_path, capsys):
    rc = run(["sweep", "--spec", tmp_path / "none.json", "--out", tmp_path / "sw"])
    assert rc == 2
    assert "none.json" in capsys.readouterr().err


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


@pytest.mark.parametrize("value", ["a,b", ","])
def test_bad_hidden_dims_names_the_flag_and_exits_2(tmp_path, capsys, value):
    with pytest.raises(SystemExit) as exc:
        run(["erm", "--data", tmp_path / "d", "--out", tmp_path / "o",
             "--hidden-dims", value])
    assert exc.value.code == 2
    assert "argument --hidden-dims" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


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
        ("sweep", {"r": 0.9}, "r must be a non-empty list"),
        ("sweep", {"r": []}, "r must be a non-empty list"),
        ("sweep", {"seed": ["x"]}, "seed must be a non-empty list"),
        ("sweep", {"n": [100]}, "n must be an integer"),
        ("sweep", {"classes": 4.9}, "classes must be an integer"),
        ("sweep", {"seed": [0, 1.5]}, "seed must be a non-empty list"),
        ("sweep", {"tau": [0.07, float("nan")]}, "tau must be a non-empty list"),
        ("sweep", {"r": [float("inf")]}, "r must be a non-empty list"),
        ("sweep", {"n": float("inf")}, "n must be an integer"),
        ("sweep", {"lamda_reg": [0.5]}, "lamda_reg"),
    ]
    cfg_file = tmp_path / "bad.json"
    for command, contents, named in cases:
        cfg_file.write_text(json.dumps(contents))
        if command == "pretrain":
            argv = ["pretrain", "--data", ws / "ds", "--role", "main", "--config", cfg_file]
        else:
            argv = ["sweep", "--spec", cfg_file]
        rc = run([*argv, "--out", tmp_path / "p"])
        assert rc == 2, contents
        assert named in capsys.readouterr().err, contents
        assert not (tmp_path / "p").exists(), contents


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
