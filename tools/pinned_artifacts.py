"""Run a fixed set of pinned-seed CLI commands against one source tree and
print a sha256 listing of everything they write.

    python3 tools/pinned_artifacts.py SRC_DIR OUT_DIR > listing.txt

SRC_DIR is a checkout of this repository; each command runs as
``python3 -m rankdebias.cli`` in a fresh process with SRC_DIR/src as its
PYTHONPATH and OUT_DIR as its working directory. OUT_DIR must be absent or
empty. The commands cover every subcommand: two synthetic datasets, both
pretraining roles, debias in both modes at two label fractions, debias
scored on its own labeled set (no --test: linear-eval at fraction 0.1,
semisup at 1.0), erm on both targets and with the rank penalty, a
diverging erm run, one sweep of each family with a failing row, an erm
sweep whose float grids are written as JSON integers, and a spectrum.
Three more run on a small seeded IDX fixture that the tool writes with
numpy alone: color-MNIST from it, image pretraining on that (the only
commands that draw augmented image views) and a spectrum of the image
encoder. The last four generate 5000 rows, pretrain a wide main encoder
with a 2-wide output on them for one epoch, take its spectrum and debias
with it as both encoders. The spectrum's and the debias heads' nn.apply
passes run in row blocks through a narrow last layer; the heads train on
those features, so their checkpoints, written in full precision, change
with any last bit of a blocked pass, which the spectrum's rounded CSVs
may not show.

The listing has one "<sha256>  <relative path>" line per file under
OUT_DIR, sorted by path. manifest.json files are left out, as they hold
wall-clock times. Each command's exit code and standard output go to
OUT_DIR/stdout/<NN>-<name>.txt and are listed with the artifacts.

To check that a change keeps every artifact, run the tool on a
``git archive`` of the parent commit and on the working tree, into two
different OUT_DIRs, and diff the two listings.
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np

NET = ["--batch-size", "64", "--latent-dim", "8", "--hidden-dims", "16,16",
       "--proj-hidden", "16", "--proj-dim", "8", "--head-iters", "80",
       "--epochs", "3", "--warmup-epochs", "1", "--seed", "5"]
CKPTS = ["--biased-ckpt", "pre_b/encoder.ckpt", "--main-ckpt", "pre_m/encoder.ckpt"]


def _sweep_spec(family: str) -> dict:
    # lambda_reg -1 is refused by the config, so one row of each seed fails
    return {"family": family, "n": 240, "classes": 4, "test_n": 240,
            "r": [0.9], "lambda_reg": [0.0, -1.0], "lambda_up": [4.0], "seed": [0, 1],
            "config": {"epochs": 2, "warmup_epochs": 0, "batch_size": 64,
                       "latent_dim": 8, "hidden_dims": [16, 16], "proj_hidden": 16,
                       "proj_dim": 8, "head_iters": 80}}


# float grids spelled as JSON integers; a sweep reads them as the floats
# they stand for, so its rows equal those of the same grids spelled 1.0
INTEGRAL_GRIDS = {"r": [1], "lambda_reg": [0, 0.5], "lambda_up": [4], "tau": [1]}


# the IDX fixture: 12x10 images, so rows and columns differ
IDX_N, IDX_ROWS, IDX_COLS = 160, 12, 10


def _write_idx_fixture(out: Path) -> None:
    """Sparse random uint8 images with balanced digit labels, as big-endian
    IDX files, written here rather than by the tree under test."""
    rng = np.random.default_rng(9)
    labels = rng.permutation(np.arange(IDX_N) % 10).astype(np.uint8)
    images = rng.integers(0, 256, (IDX_N, IDX_ROWS, IDX_COLS))
    images = (images * (rng.random(images.shape) < 0.4)).astype(np.uint8)
    (out / "idx_images").write_bytes(
        struct.pack(">IIII", 0x803, IDX_N, IDX_ROWS, IDX_COLS) + images.tobytes())
    (out / "idx_labels").write_bytes(struct.pack(">II", 0x801, IDX_N) + labels.tobytes())


# (name, argv); the order matters, as later commands read earlier outputs
COMMANDS = [
    ("data-train", ["data", "gen", "--n", "480", "--classes", "4", "--bias-ratio", "0.95",
                    "--input-dim", "6", "--seed", "3", "--out", "ds"]),
    ("data-test", ["data", "gen", "--n", "240", "--classes", "4", "--bias-ratio", "0.25",
                   "--input-dim", "6", "--seed", "4", "--out", "ds_test"]),
    ("pretrain-biased", ["pretrain", "--data", "ds", "--role", "biased",
                         "--lambda-reg", "0.1", "--out", "pre_b", *NET]),
    ("pretrain-main", ["pretrain", "--data", "ds", "--role", "main", "--out", "pre_m", *NET]),
    *[(f"debias-{mode}-{fraction}",
       ["debias", "--data", "ds", "--test", "ds_test", *CKPTS, "--mode", mode,
        "--label-fraction", fraction, "--lambda-up", "8",
        "--out", f"debias_{mode}_{fraction}", *NET])
      for mode in ("linear-eval", "semisup") for fraction in ("0.1", "1.0")],
    *[(f"debias-{mode}-{fraction}-labeled",
       ["debias", "--data", "ds", *CKPTS, "--mode", mode, "--label-fraction", fraction,
        "--lambda-up", "8", "--out", f"debias_{mode}_{fraction}_labeled", *NET])
      for mode, fraction in (("linear-eval", "0.1"), ("semisup", "1.0"))],
    ("erm-y", ["erm", "--data", "ds", "--test", "ds_test", "--target", "y",
               "--out", "erm_y", *NET]),
    ("erm-penalized", ["erm", "--data", "ds", "--lambda-reg", "0.2", "--out", "erm_reg", *NET]),
    ("erm-b", ["erm", "--data", "ds", "--target", "b", "--out", "erm_b", *NET]),
    ("erm-diverged", ["erm", "--data", "ds", "--base-lr", "1e150", "--out", "erm_dvg", *NET]),
    ("sweep-erm", ["sweep", "--spec", "sweep_erm.json", "--out", "sweep_erm"]),
    ("sweep-pipeline", ["sweep", "--spec", "sweep_pipeline.json", "--out", "sweep_pipeline"]),
    ("sweep-integral", ["sweep", "--spec", "sweep_integral.json", "--out", "sweep_integral"]),
    ("spectrum", ["spectrum", "--ckpt", "pre_b/encoder.ckpt", "--data", "ds", "--out", "spec"]),
    ("data-cmnist", ["data", "cmnist", "--images", "idx_images", "--labels", "idx_labels",
                     "--bias-ratio", "0.9", "--seed", "6", "--out", "ds_cm"]),
    ("pretrain-cmnist", ["pretrain", "--data", "ds_cm", "--role", "biased",
                         "--modality", "cmnist-image", "--lambda-reg", "0.1",
                         "--out", "pre_cm", *NET]),
    ("spectrum-cmnist", ["spectrum", "--ckpt", "pre_cm/encoder.ckpt", "--data", "ds_cm",
                         "--out", "spec_cm"]),
    ("data-wide", ["data", "gen", "--n", "5000", "--out", "ds_wide"]),
    ("pretrain-wide", ["pretrain", "--data", "ds_wide", "--role", "main",
                       "--hidden-dims", "256,256", "--latent-dim", "2", "--epochs", "1",
                       "--warmup-epochs", "0", "--out", "pre_wide"]),
    ("spectrum-wide", ["spectrum", "--ckpt", "pre_wide/encoder.ckpt", "--data", "ds_wide",
                       "--out", "spec_wide"]),
    ("debias-wide", ["debias", "--data", "ds_wide", "--biased-ckpt", "pre_wide/encoder.ckpt",
                     "--main-ckpt", "pre_wide/encoder.ckpt", "--head-iters", "80",
                     "--seed", "5", "--out", "debias_wide"]),
]


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_all(src: Path, out: Path) -> None:
    """Run COMMANDS from src in out, recording each exit code and stdout."""
    env = {k: v for k, v in os.environ.items() if k != "RANKDEBIAS_OUT"}
    env["PYTHONPATH"] = str(src / "src")
    out.mkdir(parents=True, exist_ok=True)
    for family in ("erm", "pipeline"):
        (out / f"sweep_{family}.json").write_text(json.dumps(_sweep_spec(family)) + "\n")
    (out / "sweep_integral.json").write_text(
        json.dumps({**_sweep_spec("erm"), **INTEGRAL_GRIDS}) + "\n")
    _write_idx_fixture(out)
    (out / "stdout").mkdir()
    for i, (name, argv) in enumerate(COMMANDS):
        proc = subprocess.run([sys.executable, "-m", "rankdebias.cli", *argv], cwd=out,
                              env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=False)
        (out / "stdout" / f"{i:02d}-{name}.txt").write_text(
            f"exit {proc.returncode}\n{proc.stdout}")


def listing(out: Path) -> list[str]:
    paths = {p.relative_to(out).as_posix(): p for p in out.rglob("*")
             if p.is_file() and p.name != "manifest.json"}
    return [f"{_sha256(paths[rel])}  {rel}" for rel in sorted(paths)]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: pinned_artifacts.py SRC_DIR OUT_DIR", file=sys.stderr)
        return 2
    src, out = Path(argv[0]).resolve(), Path(argv[1]).resolve()
    if not (src / "src" / "rankdebias" / "cli.py").is_file():
        print(f"error: {src} holds no src/rankdebias/cli.py", file=sys.stderr)
        return 2
    if out.exists() and any(out.iterdir()):
        print(f"error: {out} is not empty", file=sys.stderr)
        return 2
    run_all(src, out)
    print("\n".join(listing(out)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
