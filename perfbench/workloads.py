"""The benchmark's workloads: each one is a fixed sequence of rankdebias
CLI commands (one pass), the set-up it needs before its first pass, the
rows its training commands push through gradient steps, and the paper
relation its outputs must satisfy.

Every data and config seed is derived from the workload seed. Sizes are
fixed here, never by the caller.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import time
import zlib
from pathlib import Path

import numpy as np

from rankdebias.cli import main as cli_main

from fixtures import write_digit_idx

# commands whose time counts as training time for train_rows_per_s
TRAIN_COMMANDS = ("pretrain", "erm", "sweep", "debias")

# the acceptance "wide" model: encoder in->256->256->64, projection 64->128->64
WIDE = ["--hidden-dims", "256,256", "--latent-dim", "64", "--proj-hidden", "128",
        "--proj-dim", "64", "--batch-size", "128"]
BATCH = 128

# ColorPoints data shared by the vector workloads
VEC_N, VEC_CLASSES, VEC_DIM, VEC_BIAS = 10000, 5, 7, 0.99


def derive(seed: int, name: str) -> int:
    """A seed for one named input, fixed by the workload seed."""
    ss = np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    return int(ss.generate_state(1)[0] % 2**31)


def run_cli(argv: list[str]) -> tuple[int, float]:
    """One in-process CLI call; returns (exit code, seconds). Its console
    output is captured and dropped."""
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            code = cli_main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, time.perf_counter() - start


def artifact_digest(directory: Path) -> str:
    """sha256 over every file under directory except manifest.json and the
    checkpoint sidecars. A manifest carries wall-clock fields, and a sidecar
    carries the hash of a manifest whose inputs include a dataset directory
    with its own manifest.json, so both differ between reruns by design."""
    digest = hashlib.sha256()
    for path in sorted(p for p in Path(directory).rglob("*") if p.is_file()):
        if path.name == "manifest.json" or path.name.endswith(".ckpt.json"):
            continue
        digest.update(str(path.relative_to(directory)).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def read_log(path: Path) -> list[dict]:
    with open(path) as fh:
        return [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]


def _gen_args(n: int, bias_ratio: float, seed: int, out: Path) -> list[str]:
    return ["data", "gen", "--n", str(n), "--classes", str(VEC_CLASSES),
            "--input-dim", str(VEC_DIM), "--bias-ratio", str(bias_ratio),
            "--seed", str(seed), "--out", str(out)]


def _pretrain_args(data: Path, role: str, epochs: int, warmup: int, seed: int,
                   out: Path, extra: list[str] = ()) -> list[str]:
    penalty = ["--lambda-reg", "0.1"] if role == "biased" else []
    return ["pretrain", "--data", str(data), "--role", role, *penalty,
            "--epochs", str(epochs), "--warmup-epochs", str(warmup), "--seed", str(seed),
            *WIDE, *extra, "--out", str(out)]


class Workload:
    """Base: subclasses set the sizes and fill in the hooks."""

    name = ""
    encoder_in_dim = VEC_DIM

    def __init__(self, seed: int):
        self.seed = seed

    def prepare(self, root: Path) -> None:
        """Inputs and checkpoints needed before the first pass (set-up)."""

    def commands(self, root: Path, out: Path) -> list[list[str]]:
        raise NotImplementedError

    def train_rows(self, reference: Path) -> int:
        """Rows entering a gradient step in one pass, from the config."""
        raise NotImplementedError

    def penalized_steps(self) -> int:
        """Training steps per pass that apply the rank penalty."""
        return 0

    def check(self, out: Path) -> list[str]:
        """The paper relation this workload's outputs must satisfy."""
        return []


class PipelineVector(Workload):
    """The canonical data gen -> pretrain biased and main -> debias chain.
    Stage-1 kernels dominate; dataset IO and augmentation are a few percent."""

    name = "pipeline-vector"
    epochs, warmup = 1, 0
    head_iters = 500
    steps = VEC_N // BATCH  # pretraining drops the partial batch

    def commands(self, root, out):
        d, c = derive(self.seed, "data"), derive(self.seed, "config")
        ds = out / "ds"
        return [
            _gen_args(VEC_N, VEC_BIAS, d, ds),
            _pretrain_args(ds, "biased", self.epochs, self.warmup, c, out / "pre_b"),
            _pretrain_args(ds, "main", self.epochs, self.warmup, c, out / "pre_m"),
            ["debias", "--data", str(ds), "--biased-ckpt", str(out / "pre_b/encoder.ckpt"),
             "--main-ckpt", str(out / "pre_m/encoder.ckpt"), "--lambda-up", "16",
             "--head-iters", str(self.head_iters), "--seed", str(c), *WIDE,
             "--out", str(out / "debias")],
        ]

    def train_rows(self, reference):
        pretrain = 2 * self.epochs * self.steps * 2 * BATCH
        heads = 2 * self.head_iters * BATCH
        return pretrain + heads

    def penalized_steps(self):
        return self.epochs * self.steps

    def check(self, out):
        biased = read_log(out / "pre_b/train_log.csv")[-1]["eff_rank"]
        main = read_log(out / "pre_m/train_log.csv")[-1]["eff_rank"]
        if not biased < main:
            return [f"biased eff_rank {biased:.4f} not below main {main:.4f}"]
        return []


class ErmSweep(Workload):
    """Supervised sweep of four independent jobs: no contrastive loss, no
    augmentation, no dataset files. The only workload with jobs to pool."""

    name = "erm-sweep"
    epochs, warmup = 1, 0
    lambdas = (0.0, 0.5)
    test_n = 4000
    # erm keeps every batch except a trailing single sample
    steps = VEC_N // BATCH + (1 if VEC_N % BATCH >= 2 else 0)

    def _seeds(self) -> list[int]:
        return [derive(self.seed, "sweep-seed-0"), derive(self.seed, "sweep-seed-1")]

    def prepare(self, root):
        spec = {
            "family": "erm", "n": VEC_N, "classes": VEC_CLASSES, "test_n": self.test_n,
            "r": [VEC_BIAS], "lambda_reg": list(self.lambdas), "seed": self._seeds(),
            "config": {"epochs": self.epochs, "warmup_epochs": self.warmup,
                       "hidden_dims": [256, 256], "latent_dim": 64,
                       "batch_size": BATCH},
        }
        (root / "sweep.json").write_text(json.dumps(spec, indent=2, sort_keys=True))

    def commands(self, root, out):
        return [["sweep", "--spec", str(root / "sweep.json"), "--out", str(out / "sweep")]]

    def train_rows(self, reference):
        jobs = len(self.lambdas) * len(self._seeds())
        return jobs * self.epochs * VEC_N

    def penalized_steps(self):
        penalized = sum(1 for lam in self.lambdas if lam > 0) * len(self._seeds())
        return penalized * self.epochs * self.steps

    def check(self, out):
        with open(out / "sweep/sweep.csv") as fh:
            rows = list(csv.DictReader(fh))
        problems = [f"sweep row {r['config_hash']} status {r['status']!r}"
                    for r in rows if r["status"] != "ok"]
        if len(rows) != len(self.lambdas) * len(self._seeds()):
            problems.append(f"{len(rows)} sweep rows")
        if problems:
            return problems
        # the penalty lowers representation rank at every seed
        for seed in self._seeds():
            rank = {float(r["lambda_reg"]): float(r["eff_rank"])
                    for r in rows if int(r["seed"]) == seed}
            if not rank[self.lambdas[1]] < rank[self.lambdas[0]]:
                problems.append(f"seed {seed}: penalized eff_rank {rank[self.lambdas[1]]:.4f}"
                                f" not below plain {rank[self.lambdas[0]]:.4f}")
        return problems


class CmnistImage(Workload):
    """data cmnist -> image pretrain -> spectrum on 2352-wide inputs. Dataset
    CSV IO, hashing and per-image augmentation dominate."""

    name = "cmnist-image"
    encoder_in_dim = 3 * 28 * 28
    images = 512
    epochs, warmup = 2, 1
    steps = images // BATCH

    def prepare(self, root):
        write_digit_idx(root / "images.idx", root / "labels.idx", self.images,
                        derive(self.seed, "idx"))

    def commands(self, root, out):
        d, c = derive(self.seed, "data"), derive(self.seed, "config")
        ds = out / "cm"
        return [
            ["data", "cmnist", "--images", str(root / "images.idx"),
             "--labels", str(root / "labels.idx"), "--bias-ratio", str(VEC_BIAS),
             "--seed", str(d), "--out", str(ds)],
            _pretrain_args(ds, "biased", self.epochs, self.warmup, c, out / "pre_b",
                           ["--modality", "cmnist-image"]),
            ["spectrum", "--ckpt", str(out / "pre_b/encoder.ckpt"), "--data", str(ds),
             "--out", str(out / "spec")],
        ]

    def train_rows(self, reference):
        return self.epochs * self.steps * 2 * BATCH

    def penalized_steps(self):
        return self.epochs * self.steps

    def check(self, out):
        problems = []
        log = read_log(out / "pre_b/train_log.csv")
        if not log[-1]["eff_rank"] < log[0]["eff_rank"]:
            problems.append(f"penalized eff_rank did not fall: "
                            f"{log[0]['eff_rank']:.4f} -> {log[-1]['eff_rank']:.4f}")
        report = json.loads((out / "spec/report.json").read_text())
        rank = report["effective_rank"]
        if not 0.0 < rank <= np.log(report["dim"]):
            problems.append(f"spectrum effective_rank {rank} outside (0, ln dim]")
        order = np.loadtxt(out / "spec/order.csv", skiprows=1, dtype=np.int64)
        if sorted(order.tolist()) != list(range(report["dim"])):
            problems.append("order.csv is not a permutation of the features")
        return problems


class DebiasLowlabel(Workload):
    """Semi-supervised debias at 10% labels on pretrained encoders: head
    fits, the upweighted loss and SGD finetuning, which no other workload runs."""

    name = "debias-lowlabel"
    pre_epochs, pre_warmup = 2, 0
    head_iters = 3000
    finetune_epochs = 10
    test_n = 4000

    def prepare(self, root):
        d, c = derive(self.seed, "data"), derive(self.seed, "config")
        # bias ratio 1/classes with uniform conflicts makes b independent of y
        steps = [
            _gen_args(VEC_N, VEC_BIAS, d, root / "ds"),
            _gen_args(self.test_n, 1.0 / VEC_CLASSES, derive(self.seed, "test"),
                      root / "test"),
            _pretrain_args(root / "ds", "biased", self.pre_epochs, self.pre_warmup, c,
                           root / "pre_b"),
            _pretrain_args(root / "ds", "main", self.pre_epochs, self.pre_warmup, c,
                           root / "pre_m"),
        ]
        for argv in steps:
            code, _ = run_cli(argv)
            if code != 0:
                raise RuntimeError(f"set-up command {argv[:2]} exited {code}")

    def commands(self, root, out):
        return [["debias", "--data", str(root / "ds"), "--test", str(root / "test"),
                 "--biased-ckpt", str(root / "pre_b/encoder.ckpt"),
                 "--main-ckpt", str(root / "pre_m/encoder.ckpt"),
                 "--mode", "semisup", "--label-fraction", "0.1", "--lambda-up", "32",
                 "--head-iters", str(self.head_iters),
                 "--finetune-epochs", str(self.finetune_epochs),
                 "--seed", str(derive(self.seed, "config")), *WIDE,
                 "--out", str(out / "debias")]]

    def train_rows(self, reference):
        labeled = json.loads((reference / "debias/metrics.json").read_text())["labeled_n"]
        # finetuning skips a trailing batch of one sample
        per_epoch = labeled - (1 if labeled % BATCH == 1 else 0)
        return 2 * self.head_iters * min(BATCH, labeled) + self.finetune_epochs * per_epoch

    def check(self, out):
        metrics = json.loads((out / "debias/metrics.json").read_text())
        problems = []
        # on unbiased test data, a model on biased encoders still favours the shortcut
        aligned, conflict = metrics["bias_aligned_acc"], metrics["bias_conflict_acc"]
        if not aligned > conflict:
            problems.append(f"aligned accuracy {aligned} not above conflict accuracy {conflict}")
        # the biased encoder's errors are enriched in bias-conflicting samples.
        # After 2 epochs its head sometimes fits all ~10 labeled conflicts
        # (1 seed in 41 tried), leaving no error set and no precision to test.
        base = 100.0 * (1.0 - VEC_BIAS)
        precision = metrics["precision"]
        if precision is not None and not precision > 5 * base:
            problems.append(f"error-set precision {precision} not above 5x base rate {base:.1f}%")
        return problems


WORKLOADS = {cls.name: cls for cls in (PipelineVector, ErmSweep, CmnistImage,
                                       DebiasLowlabel)}
