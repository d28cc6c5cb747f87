"""End-to-end debiasing experiments.

The central objects are a small MLP encoder and a linear head. Stage 1
pretrains two encoders on unlabeled inputs with a contrastive loss: the
"biased" one adds a decorrelation penalty on its output features, which
starves it of feature diversity and glues it to the easy (spurious)
signal; the "main" one trains without the penalty. Stage 2 trains a
linear head on the frozen biased encoder, collects the samples it gets
wrong, and trains the final head on the main encoder with those samples
upweighted. A supervised variant (erm_train) applies the same penalty
directly to a classifier for the diagnostic experiments.

All randomness flows from one integer seed through named substreams, so
adding a consumer in one stage never shifts the draws of another.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import pickle
import subprocess
import sys
import types
import zlib
from collections.abc import Callable
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import (BiasedDataset, augment_image_batch, augment_vector_batch, check_fields,
                   check_labels, image_shape)
from .losses import UpweightSpec, ZeroNormRow, cross_entropy_core, rank_penalty, stage1_loss
from .nn import (
    AdamState,
    DenseNet,
    MomentumState,
    adam_step,
    apply,
    backward,
    cosine_lr,
    forward,
    sgd_momentum_step,
)
from .spectral import effective_rank, svd_values

RANK_EVAL_BATCH = 256
MODALITIES = ("vector", "cmnist-image")
# a head fit draws its batches in blocks of at most this many indices
# (64 kB of int64), one rng.integers call a block
_DRAW_BLOCK = 8192


def stream(seed: int, name: str) -> np.random.Generator:
    """Independent RNG derived from (seed, name). Streams with different
    names never share draws, so stage A consuming more randomness cannot
    perturb stage B."""
    return np.random.default_rng(
        np.random.SeedSequence([int(seed), zlib.crc32(name.encode())])
    )


@dataclass
class ExperimentConfig:
    """Hyperparameters for every stage. One instance describes a full run;
    stages read only the fields they use."""

    lambda_reg: float = 0.0
    lambda_up: float = 8.0
    tau: float = 0.07
    epochs: int = 40
    batch_size: int = 128
    base_lr: float = 3e-4
    warmup_epochs: int = 8
    weight_decay: float = 1e-4
    latent_dim: int = 64
    hidden_dims: tuple[int, ...] = (128, 128)
    proj_hidden: int = 128
    proj_dim: int = 64
    head_iters: int = 3000
    head_lr: float = 1e-2
    finetune_epochs: int = 10
    finetune_lr: float = 1e-4
    finetune_momentum: float = 0.9
    finetune_weight_decay: float = 0.1
    seed: int = 0
    modality: str = "vector"

    def __post_init__(self):
        check_fields(self, {
            "lambda_reg": 0, "lambda_up": 1, "epochs": 1, "batch_size": 4, "base_lr": 0,
            "warmup_epochs": 0, "weight_decay": 0, "latent_dim": 2, "hidden_dims": 1,
            "proj_hidden": 1, "proj_dim": 1, "head_iters": 1, "head_lr": 0,
            "finetune_epochs": 0, "finetune_lr": 0, "finetune_momentum": 0,
            "finetune_weight_decay": 0, "seed": 0})
        if self.tau <= 0:
            raise ValueError(f"tau must be > 0, got {self.tau}")
        if self.warmup_epochs >= self.epochs:
            raise ValueError(f"warmup_epochs must be < epochs, got {self.warmup_epochs}, "
                             f"{self.epochs}")
        if self.finetune_momentum >= 1:
            raise ValueError(f"finetune_momentum must be < 1, got {self.finetune_momentum}")
        if self.modality not in MODALITIES:
            raise ValueError(f"unknown modality {self.modality!r}")
        self.hidden_dims = tuple(int(h) for h in self.hidden_dims)


@dataclass
class Model:
    """An encoder plus the linear head reading class logits off it."""

    encoder: DenseNet
    head: DenseNet

    def predict(self, X) -> np.ndarray:
        # np.argmax keeps the smallest index on ties
        return np.argmax(apply(self.head, apply(self.encoder, X)), axis=1)


@dataclass
class ErrorSet:
    """Indices of labeled samples the biased route misclassifies, plus the
    prediction snapshot they came from."""

    indices: np.ndarray
    predictions: np.ndarray

    def __post_init__(self):
        self.indices = np.asarray(self.indices, dtype=np.int64).ravel()
        self.predictions = np.asarray(self.predictions, dtype=np.int64).ravel()
        if self.indices.size != np.unique(self.indices).size:
            raise ValueError("error indices must be unique")
        if self.indices.size and (
            self.indices.min() < 0 or self.indices.max() >= self.predictions.shape[0]
        ):
            raise ValueError("error index outside the labeled set")

    @classmethod
    def misses(cls, predictions: np.ndarray, labels: np.ndarray) -> "ErrorSet":
        """The samples whose prediction is not their label."""
        return cls(np.flatnonzero(predictions != labels), predictions)

    def check_built_for(self, n: int) -> None:
        """Raise ValueError unless the prediction snapshot covers n samples."""
        if self.predictions.shape[0] != n:
            raise ValueError(f"error set built for {self.predictions.shape[0]} samples, "
                             f"labeled set has {n}")

    def __len__(self) -> int:
        return self.indices.size


@dataclass
class MetricsReport:
    """Evaluation summary, all accuracies in percent."""

    bias_conflict_acc: float
    bias_aligned_acc: float
    unbiased_acc: float
    group_table: list[dict] = field(default_factory=list)
    eff_rank: float = float("nan")
    precision: float = float("nan")
    recall: float = float("nan")

    def to_dict(self) -> dict:
        """The fields as a dict, with NaN floats written as None."""
        return {k: None if isinstance(v, float) and np.isnan(v) else v
                for k, v in asdict(self).items()}


# ------------------------------------------------------------------ helpers


class TrainingDiverged(RuntimeError):
    """Raised when a loss turns non-finite; carries the per-epoch log rows
    completed before the failure so callers can persist them."""

    def __init__(self, message: str, log: list[dict] | None = None):
        super().__init__(message)
        self.log = log or []


def epoch_steps(n: int, batch_size: int, full: bool) -> int:
    """The epoch trainers' batch rule: the steps of an epoch over n samples
    in batches of batch_size. Pretraining (full) keeps only full batches,
    so every step has 2 * batch_size - 2 negatives per anchor; erm and
    finetuning keep a trailing batch of two samples or more. Raises
    ValueError when that leaves no batch."""
    least = batch_size if full else 2
    steps = n // batch_size + (n % batch_size >= least)
    if steps == 0:
        raise ValueError(f"dataset of {n} samples is too small to train on: "
                         f"a batch needs at least {least}")
    return steps


def _epochs(n: int, batch_size: int, epochs: int, rng: np.random.Generator, full: bool):
    """(epoch_steps, the epochs). Each epoch cuts a fresh
    rng.permutation(n), drawn as it starts, into consecutive batches, less
    a trailing one smaller than epoch_steps' rule keeps."""
    steps = epoch_steps(n, batch_size, full)
    starts = range(0, steps * batch_size, batch_size)
    return steps, ([order[s:s + batch_size] for s in starts]
                   for order in (rng.permutation(n) for _ in range(epochs)))


def _chunk_rank(reps: np.ndarray) -> float:
    """Mean effective rank of representations over fixed-size batches.

    Uses non-overlapping batches of RANK_EVAL_BATCH rows; a trailing
    partial batch is dropped when at least one full batch exists, so the
    estimate is not skewed by a tiny remainder.
    """
    ranks = []
    for start in range(0, reps.shape[0], RANK_EVAL_BATCH):
        chunk = reps[start:start + RANK_EVAL_BATCH]
        if chunk.shape[0] < RANK_EVAL_BATCH and ranks:
            break
        ranks.append(effective_rank(svd_values(chunk)))
    return float(np.mean(ranks))


# ------------------------------------------------------------- training loop


@dataclass(frozen=True)
class _Optimizer:
    """How _fit updates parameters: Adam, or heavy-ball SGD when momentum
    is set. lr maps the global step index to the learning rate."""

    lr: Callable[[int], float]
    weight_decay: float = 0.0
    momentum: float | None = None


def _cosine_adam(cfg: ExperimentConfig, steps_per_epoch: int) -> _Optimizer:
    """Adam with weight decay under warmup-then-cosine decay over cfg.epochs."""
    warmup, total = cfg.warmup_epochs * steps_per_epoch, cfg.epochs * steps_per_epoch
    return _Optimizer(lambda step: cosine_lr(step, cfg.base_lr, warmup, total),
                      cfg.weight_decay)


def _fit(nets: list[DenseNet], rows, epochs, objective, opt: _Optimizer,
         stage: str, probe=None, logged_loss=None) -> list[dict]:
    """The training loop of every stage; updates the nets in place.

    The nets are chained, each feeding the next. epochs yields, per epoch,
    an iterable of index batches; rows(idx) builds the input rows.
    objective(idx, outs) sees every net's output and returns (loss, terms,
    grad on the last output, extra grad on the first net's output or
    None); the extra grad is added to the backpropagated one. Given probe
    rows, each epoch logs a row of its index, the epoch mean of every term,
    the learning rate of the next step and the effective rank of the first
    net's outputs on probe, plus, given logged_loss, a "loss" of
    logged_loss(per-term sums, batch count). A non-finite loss raises
    TrainingDiverged carrying the rows so far.

    What can be checked once is checked before the fit, by the stage and
    its objective; a step checks only what changes with it: forward,
    backward and the optimizer step check their arrays' shapes, and the
    loss is tested with math.isfinite.

    Between steps the fit holds the parameters, the optimizer's moments
    and its one block of scratch (see nn.AdamState), one gradient buffer
    per net and whatever rows reads from. A step adds its batch,
    activations, objective temporaries and backpropagated deltas, and
    frees them when it returns, before the next step builds its batch:
    at most one step is alive at a time.
    """
    params = [net.flat for net in nets]
    state = (AdamState if opt.momentum is None else MomentumState).init(params)
    # kept for the whole fit: backward fills them on every step
    grads = [DenseNet(net.layer_dims) for net in nets]
    flat_grads = [g.flat for g in grads]
    log: list[dict] = []

    def train_step(idx, epoch, step):
        # a function, so that the step's arrays are freed when it returns
        h = rows(idx)
        outs, caches = [], []
        for net in nets:
            h, cache = forward(net, h)
            outs.append(h)
            caches.append(cache)
        loss, terms, grad, extra = objective(idx, outs)
        if not math.isfinite(loss):
            raise TrainingDiverged(
                f"{stage} diverged: loss {loss} at epoch {epoch}, step {step}", log
            )
        for i in reversed(range(len(nets))):
            if i == 0 and extra is not None:
                grad = grad + extra
            _, grad = backward(nets[i], caches[i], grad, out=grads[i], input_grad=i > 0)
        if opt.momentum is None:
            adam_step(params, flat_grads, state, opt.lr(step),
                      weight_decay=opt.weight_decay)
        else:
            sgd_momentum_step(params, flat_grads, state, opt.lr(step),
                              momentum=opt.momentum, weight_decay=opt.weight_decay)
        return terms

    step = 0
    for epoch, batches in enumerate(epochs):
        sums: dict[str, float] = {}
        count = 0
        for idx in batches:
            for name, value in train_step(idx, epoch, step).items():
                sums[name] = sums.get(name, 0.0) + value
            count += 1
            step += 1
        if probe is not None:
            row = {"epoch": epoch, **{term: float(total / count) for term, total in sums.items()},
                   "lr": float(opt.lr(step)), "eff_rank": _chunk_rank(apply(nets[0], probe))}
            if logged_loss is not None:
                row["loss"] = float(logged_loss(sums, count))
            log.append(row)
    return log


def _upweighted(labels: np.ndarray, classes: int, error_set: ErrorSet | None,
                lambda_up: float):
    """_fit objective of every supervised fit: cross-entropy over classes
    logits, the error set's samples (if any) upweighted. The labels, the
    set and lambda_up are checked and the weights built once, before the
    first step; no error set, no weights. A step gathers its labels (and
    weights) and runs the unchecked cross_entropy_core, which picks each
    row's label entry at position row * classes + label, the row offsets
    built once per batch size."""
    labels = np.asarray(labels, dtype=np.int64).ravel()
    n = labels.shape[0]
    if n == 0:
        raise ValueError("labeled set is empty")
    check_labels(labels, classes)
    if error_set is not None:
        error_set.check_built_for(n)
    weights = (None if error_set is None
               else UpweightSpec(error_set.indices, lambda_up).weights(n))
    offsets: dict[int, np.ndarray] = {}

    def objective(idx, outs):
        B = idx.shape[0]
        rows = offsets.get(B)
        if rows is None:
            rows = offsets[B] = np.arange(B) * classes
        loss, dlogits = cross_entropy_core(outs[-1], rows + labels.take(idx),
                                           None if weights is None else weights.take(idx))
        return loss, {}, dlogits, None

    return objective


# ----------------------------------------------------------------- erm_train


def erm_train(ds: BiasedDataset, cfg: ExperimentConfig,
              target: str = "y") -> tuple[Model, list[dict]]:
    """Supervised training: cross-entropy plus cfg.lambda_reg times the
    decorrelation penalty on the representations feeding the head;
    lambda_reg = 0 is plain training. The cross-entropy is _upweighted's
    without an error set: labels checked once per fit, no weights.

    target selects which label the classifier learns ("y" or "b", the
    latter for the reversed diagnostic). Returns the model and a per-epoch
    log of loss, penalty share, lr and representation rank.
    """
    lam = cfg.lambda_reg
    if target not in ("y", "b"):
        raise ValueError(f"target must be 'y' or 'b', got {target!r}")
    labels, classes = ((ds.y, ds.num_classes) if target == "y"
                       else (ds.b, ds.num_bias_classes))
    n, m = ds.inputs.shape

    steps_per_epoch, epochs = _epochs(n, cfg.batch_size, cfg.epochs,
                                      stream(cfg.seed, "erm-batches"), False)
    ce_objective = _upweighted(labels, classes, None, cfg.lambda_up)
    encoder = DenseNet.init([m, *cfg.hidden_dims, cfg.latent_dim],
                            stream(cfg.seed, "erm-encoder-init"))
    head = DenseNet.init([cfg.latent_dim, classes], stream(cfg.seed, "erm-head-init"))

    def objective(idx, outs):
        ce, _, dlogits, _ = ce_objective(idx, outs)
        penalty, grad_rep = rank_penalty(outs[0], lam)
        return ce + lam * penalty, {"ce": ce, "rank_term": penalty}, dlogits, grad_rep

    log = _fit([encoder, head], ds.inputs.__getitem__, epochs, objective,
               _cosine_adam(cfg, steps_per_epoch), "erm_train", ds.inputs[:RANK_EVAL_BATCH],
               lambda sums, count: sums["ce"] / count + lam * sums["rank_term"] / count)
    return Model(encoder, head), log


# ----------------------------------------------------------------- pretraining


def pretrain_biased(ds: BiasedDataset, cfg: ExperimentConfig
                    ) -> tuple[DenseNet, list[dict]]:
    """Stage 1 for the biased encoder: contrastive loss on projected views
    plus cfg.lambda_reg times the decorrelation penalty on raw encoder
    outputs. Labels are never read. The projection head is discarded;
    returns the encoder and a per-epoch log (loss, eff_rank, lr)."""
    n, m = ds.inputs.shape
    steps_per_epoch, epochs = _epochs(n, cfg.batch_size, cfg.epochs,
                                      stream(cfg.seed, "pretrain-batches"), True)
    encoder = DenseNet.init([m, *cfg.hidden_dims, cfg.latent_dim],
                            stream(cfg.seed, "pretrain-encoder-init"))
    proj = DenseNet.init([cfg.latent_dim, cfg.proj_hidden, cfg.proj_dim],
                         stream(cfg.seed, "pretrain-proj-init"))
    aug_rng = stream(cfg.seed, "pretrain-augment")

    if cfg.modality == "vector":
        augment, layout = augment_vector_batch, ds.inputs.std(axis=0)
    else:
        augment, layout = augment_image_batch, image_shape(ds)

    def views(idx):
        X = ds.inputs[idx]
        return np.concatenate([augment(X, aug_rng, layout) for _ in range(2)], axis=0)

    def objective(idx, outs):
        try:
            loss, grad_views, grad_proj = stage1_loss(*outs, cfg.tau, cfg.lambda_reg)
        except ZeroNormRow:
            # a projection collapsed to zero: a training failure, which
            # _fit's finite-loss check reports with its epoch and step
            return math.nan, {}, None, None
        return loss, {"loss": loss}, grad_proj, grad_views

    log = _fit([encoder, proj], views, epochs, objective, _cosine_adam(cfg, steps_per_epoch),
               "pretrain", ds.inputs[:RANK_EVAL_BATCH])
    return encoder, log


def pretrain_main(ds: BiasedDataset, cfg: ExperimentConfig
                  ) -> tuple[DenseNet, list[dict]]:
    """Stage 1 for the main encoder: the identical routine with the penalty
    switched off."""
    return pretrain_biased(ds, replace(cfg, lambda_reg=0.0))


# ------------------------------------------------------------- linear heads


def _draws(rng: np.random.Generator, n: int, batch: int, steps: int):
    """steps i.i.d. batches of batch indices in [0, n): the rows of one
    rng.integers(0, n, (k, batch)) per block of k = _DRAW_BLOCK // batch
    steps (at least 1). integers fills its output row-major from one bit
    stream, so each row, and the generator's state after the last, equals
    what a rng.integers(0, n, batch) call per step gives."""
    per_block = max(1, _DRAW_BLOCK // batch)
    for start in range(0, steps, per_block):
        yield from rng.integers(0, n, (min(per_block, steps - start), batch))


def _train_head(reps: np.ndarray, labels: np.ndarray, classes: int,
                cfg: ExperimentConfig, rng_name: str,
                error_set: ErrorSet | None = None) -> DenseNet:
    """Train a linear head on frozen representations by minibatch Adam on
    i.i.d. batch draws, run as a single epoch.

    With error_set given, its samples are upweighted by cfg.lambda_up;
    without it (the error-set head) the fit passes no weights, and the
    loss is plain cross-entropy, as with lambda_up = 1 bit for bit.
    """
    n = reps.shape[0]
    head = DenseNet.init([reps.shape[1], classes], stream(cfg.seed, rng_name + "-init"))
    draws = _draws(stream(cfg.seed, rng_name + "-batches"), n, min(cfg.batch_size, n),
                   cfg.head_iters)
    _fit([head], lambda idx: reps.take(idx, axis=0), [draws],
         _upweighted(labels, classes, error_set, cfg.lambda_up),
         _Optimizer(lambda step: cfg.head_lr), "head training")
    return head


def identify_error_set(biased_encoder: DenseNet, ds: BiasedDataset,
                       cfg: ExperimentConfig) -> ErrorSet:
    """Freeze the biased encoder, fit a linear head on the labeled set, and
    collect every sample it misclassifies. Argmax ties resolve to the
    smallest class index."""
    reps = apply(biased_encoder, ds.inputs)
    head = _train_head(reps, ds.y, ds.num_classes, cfg, "error-head")
    return ErrorSet.misses(np.argmax(apply(head, reps), axis=1), ds.y)


def debiased_linear_eval(main_encoder: DenseNet, ds: BiasedDataset,
                         error_set: ErrorSet | None, cfg: ExperimentConfig) -> Model:
    """Train the final linear head on the frozen main encoder with the
    error-set samples upweighted by cfg.lambda_up. The encoder is never
    touched; evaluate scores the returned model."""
    reps = apply(main_encoder, ds.inputs)
    head = _train_head(reps, ds.y, ds.num_classes, cfg, "debias-head", error_set)
    return Model(main_encoder, head)


def finetune_semisup(model: Model, ds: BiasedDataset,
                     error_set: ErrorSet | None, cfg: ExperimentConfig) -> Model:
    """Update the whole model (encoder and head) on the labeled set with the
    upweighted loss, using heavy-ball SGD and strong weight decay. The
    input model is left untouched; a finetuned copy is returned."""
    objective = _upweighted(ds.y, model.head.out_dim, error_set, cfg.lambda_up)
    _, epochs = _epochs(len(ds), cfg.batch_size, cfg.finetune_epochs,
                        stream(cfg.seed, "finetune-batches"), False)
    tuned = Model(model.encoder.copy(), model.head.copy())
    _fit([tuned.encoder, tuned.head], ds.inputs.__getitem__, epochs, objective,
         _Optimizer(lambda step: cfg.finetune_lr, cfg.finetune_weight_decay,
                    cfg.finetune_momentum),
         "finetune")
    return tuned


# ------------------------------------------------------------------ metrics


def evaluate(model: Model, test: BiasedDataset, error_set: ErrorSet | None = None,
             labeled: BiasedDataset | None = None) -> MetricsReport:
    """Accuracies over conflicting, aligned and all samples, a per-(y, b)
    group breakdown, and the effective rank of the representations. With
    error_set given, precision and recall are error_set_quality(error_set,
    labeled), labeled being the set it was built on (test when None);
    without it they stay NaN."""
    if len(test) == 0:
        raise ValueError("test set is empty")
    reps = apply(model.encoder, test.inputs)
    correct = np.argmax(apply(model.head, reps), axis=1) == test.y

    def acc(mask) -> float:
        return 100.0 * float(correct[mask].mean()) if mask.any() else float("nan")

    B = test.num_bias_classes
    counts, hits = np.bincount(test.groups), np.bincount(test.groups, weights=correct)
    # absent groups are omitted, not reported as zero
    table = [{"y": int(k // B), "b": int(k % B), "n": int(counts[k]),
              "acc": 100.0 * float(hits[k] / counts[k])} for k in np.flatnonzero(counts)]
    # without an error set, precision and recall keep their NaN defaults
    quality = {} if error_set is None else dict(zip(("precision", "recall"), error_set_quality(
        error_set, test if labeled is None else labeled)))
    return MetricsReport(
        bias_conflict_acc=acc(~test.aligned),
        bias_aligned_acc=acc(test.aligned),
        unbiased_acc=100.0 * float(correct.mean()),
        group_table=table,
        eff_rank=_chunk_rank(reps),
        **quality,
    )


def error_set_quality(error_set: ErrorSet, ds: BiasedDataset
                      ) -> tuple[float, float]:
    """Precision and recall (percent) of the error set against the
    ground-truth conflicting samples of ds, the set it was built on (else
    ValueError). An empty error set has undefined precision (NaN) and zero
    recall."""
    error_set.check_built_for(len(ds))
    conflicting = np.flatnonzero(~ds.aligned)
    hits = np.intersect1d(error_set.indices, conflicting).size
    precision = 100.0 * hits / len(error_set) if len(error_set) else float("nan")
    recall = 100.0 * hits / conflicting.size if conflicting.size else float("nan")
    return precision, recall


# ------------------------------------------------------------ parallel jobs

# each worker is a fresh interpreter: it takes the parent's sys.path, then
# (fn, jobs), from stdin, and pickles one ("ok", value) or ("error",
# exception) per job to the stdout it was started with, stopping at its
# first error, whose traceback it prints. Unpickling fn imports its module.
# Its own stdout writes go to its stderr, which the parent passes on, so a
# print inside a job cannot corrupt the results. It exits at once when the
# lifeline pipe named by its argument reaches EOF: the parent, the only
# holder of its write end, is gone.
_WORKER = """
import os, pickle, sys, threading, traceback
threading.Thread(target=lambda: (os.read(int(sys.argv[1]), 1), os._exit(1)), daemon=True).start()
results = os.fdopen(os.dup(1), "wb")
os.dup2(2, 1)
sys.path[:] = pickle.load(sys.stdin.buffer)
fn, jobs = pickle.load(sys.stdin.buffer)
outcomes = []
for job in jobs:
    try:
        outcomes.append(("ok", fn(*job)))
    except Exception as exc:
        traceback.print_exc()
        outcomes.append(("error", exc))
        break
pickle.dump(outcomes, results)
results.close()
"""
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_CGROUP = Path("/sys/fs/cgroup")


def _cgroup_cpu_limit() -> int | None:
    """The CPUs the cgroup CPU quota allows, rounded up (cgroup v2
    cpu.max, else v1 cpu.cfs_quota_us), or None when there is no quota."""
    try:
        quota, period = (_CGROUP / "cpu.max").read_text().split()
    except (OSError, ValueError):
        try:
            quota, period = ((_CGROUP / "cpu" / name).read_text()
                             for name in ("cpu.cfs_quota_us", "cpu.cfs_period_us"))
        except OSError:
            return None
    try:
        quota, period = int(quota), int(period)
    except ValueError:  # "max": no quota
        return None
    return -(-quota // period) if quota > 0 and period > 0 else None


def _usable_cores() -> int:
    """The cores this process may run on, capped by the cgroup CPU quota."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return min(cores, _cgroup_cpu_limit() or cores)


class _JobPickler(pickle.Pickler):
    """A pickler that refuses, with ValueError, any function or class
    defined in __main__ and any instance of such a class: pickle names
    them by reference, and a worker's __main__ has none of them."""

    def reducer_override(self, obj):
        owner = obj if isinstance(obj, (type, types.FunctionType)) else type(obj)
        if getattr(owner, "__module__", None) == "__main__":
            raise ValueError(f"run_jobs: {obj!r} is defined in __main__, which a worker "
                             "cannot import")
        return NotImplemented


def _job_payload(fn, jobs) -> bytes:
    buf = io.BytesIO()
    _JobPickler(buf).dump((fn, jobs))
    return pickle.dumps(sys.path) + buf.getvalue()


def run_jobs(fn, jobs) -> list:
    """[fn(*job) for job in jobs], with the jobs spread over worker processes.

    There is one worker per usable core, never more than there are jobs,
    and with one worker the jobs run in this process. Otherwise worker k
    is a fresh interpreter with one BLAS thread that runs jobs k::workers.
    fn and the jobs reach it by pickle, which names fn by its module and
    qualified name, and the results return by pickle. Every worker's
    payload is pickled before the first worker starts: a function or job
    that pickle refuses raises pickle's own error here, and a function,
    class or instance whose definition is in __main__ raises ValueError,
    with no process started.
    Results come back in job order, and each worker's stderr is written to
    sys.stderr once it has finished. The first failing job in job order
    re-raises its exception here; a worker that dies without a result
    raises RuntimeError. No worker outlives the call, nor, by more than a
    moment, a caller killed outright.
    """
    jobs = list(jobs)
    workers = min(len(jobs), _usable_cores())
    if workers <= 1:
        return [fn(*job) for job in jobs]
    payloads = [_job_payload(fn, jobs[k::workers]) for k in range(workers)]
    env = {**os.environ, **dict.fromkeys(_BLAS_THREAD_VARS, "1")}
    procs = []
    lifeline = os.pipe()
    try:
        for payload in payloads:
            procs.append(subprocess.Popen([sys.executable, "-c", _WORKER, str(lifeline[0])],
                                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                          stderr=subprocess.PIPE, env=env,
                                          pass_fds=lifeline[:1]))
            # a worker that died early shows in its exit code below
            with contextlib.suppress(BrokenPipeError):
                procs[-1].stdin.write(payload)
                procs[-1].stdin.flush()
        outcomes = []
        for proc in procs:
            # communicate closes stdin and drains stdout and stderr together
            data, errors = proc.communicate()
            sys.stderr.write(errors.decode(errors="replace"))
            outcomes.append(pickle.loads(data) if proc.returncode == 0 else proc.returncode)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            with contextlib.suppress(BrokenPipeError):
                proc.stdin.close()
            proc.stdout.close()
            proc.stderr.close()
            proc.wait()
        for fd in lifeline:
            os.close(fd)
    results = []
    for i in range(len(jobs)):
        done = outcomes[i % workers]
        if isinstance(done, int):
            raise RuntimeError(f"job worker {i % workers} exited with code {done} "
                               "before returning its results")
        status, value = done[i // workers]
        if status == "error":
            raise value
        results.append(value)
    return results
