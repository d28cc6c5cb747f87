"""Command-line surface.

Subcommands: data gen | data cmnist, pretrain, erm, debias, spectrum,
sweep. Every command creates --out (and its parents), writes its
artifacts into a staging directory inside it, then moves them into --out
and writes manifest.json last, so a directory that holds a manifest.json
holds every artifact of the run it describes. A failed run leaves the
files in --out as they were; a diverged training run leaves its partial
train_log.csv and no manifest. Rerunning with the same arguments
reproduces every artifact byte for byte (manifest wall-clock metadata
aside).

Exit codes: 0 success, 1 runtime failure (a diverged run, a failed commit
into --out), 2 usage or input errors, 143 SIGTERM (after the staging
directory is removed and the workers are stopped). Relative --out paths
resolve under the RANKDEBIAS_OUT environment variable when it is set.

Config precedence: command-line flags override values from --config FILE
(a JSON object of ExperimentConfig fields), which override the dataclass
defaults. Each ExperimentConfig field has one flag, its name with dashes
for underscores (--hidden-dims takes comma-separated widths). A value of
the wrong type, below its field's bound, not finite (NaN, inf) or, for an
integer other than a seed, beyond int64 exits 2 naming the field, before
--out is created. The effective config is serialized into the manifest.
"""

from __future__ import annotations

import argparse
import itertools
import os
import shutil
import signal
import sys
import tempfile
import threading
import time
from dataclasses import asdict, dataclass, field, fields, replace
from functools import partial
from pathlib import Path

import numpy as np

from .data import (
    INPUTS_NAME,
    MAX_CLASSES,
    MAX_GEN_ENTRIES,
    BiasedDataset,
    GenConfig,
    check_bias_ratio,
    check_fields,
    cmnist_from_idx,
    gen_colorpoints,
    image_shape,
    label_fraction_split,
    make_unbiased_testset,
)
from .manifest import (
    MANIFEST_NAME,
    STAGE_PREFIX,
    RunManifest,
    hash_path,
    read_json,
    write_json,
    write_manifest,
)
from .nn import DenseNet, apply, load_checkpoint, save_checkpoint
from .pipeline import (
    MODALITIES,
    ErrorSet,
    ExperimentConfig,
    TrainingDiverged,
    debiased_linear_eval,
    erm_train,
    evaluate,
    finetune_semisup,
    identify_error_set,
    pretrain_biased,
    pretrain_main,
    run_jobs,
    stream,
)
from .spectral import (
    auto_correlation,
    cluster_reorder,
    effective_rank,
    normalized_spectrum,
    svd_values,
    write_matrix_csv,
)

OUT_ROOT_ENV = "RANKDEBIAS_OUT"


def _resolve_out(path: str) -> Path:
    root = os.environ.get(OUT_ROOT_ENV)
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


# argparse names a flag's type function in its error message
def comma_separated_ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    """One flag per ExperimentConfig field, typed by its annotation and
    named after it with dashes for underscores; --config takes a JSON file
    of fields."""
    parser.add_argument("--config", help="JSON file of ExperimentConfig fields")
    types = {"int": int, "float": float, "tuple[int, ...]": comma_separated_ints}
    for f in fields(ExperimentConfig):
        kind = {"choices": MODALITIES} if f.type == "str" else {"type": types[f.type]}
        parser.add_argument("--" + f.name.replace("_", "-"), default=None, **kind)


def _config_fields(values, cls, where: str) -> dict:
    """values, checked to be a JSON object holding only fields of dataclass cls."""
    if not isinstance(values, dict):
        raise ValueError(f"{where} must hold a JSON object")
    unknown = set(values) - set(cls.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown fields in {where}: {sorted(unknown)}")
    return values


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file and flags, in increasing precedence."""
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise FileNotFoundError(f"no config file at {path}")
        values.update(_config_fields(read_json(path), ExperimentConfig, f"config file {path}"))
    for f in fields(ExperimentConfig):
        if getattr(args, f.name, None) is not None:
            values[f.name] = getattr(args, f.name)
    return ExperimentConfig(**values)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_train_log(path: Path, log: list[dict], columns: list[str]) -> None:
    _write_csv(path, columns, [[row[c] for c in columns] for row in log])


def _require_finite(values: np.ndarray, path: Path) -> None:
    """Raise ValueError naming path when values holds a NaN or an infinity.
    The min and the max are non-finite exactly then, and need no
    temporary of values' size; an empty array has neither, and passes."""
    if values.size and not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise ValueError(f"{path}: holds non-finite values (NaN or inf)")


def _load_dataset(path: str, width: int | None = None) -> BiasedDataset:
    """The dataset at path. Non-finite inputs, or, given width, the
    training dataset's, rows of another width raise ValueError naming the
    file."""
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"no dataset directory at {directory}")
    ds = BiasedDataset.load(directory)
    _require_finite(ds.inputs, directory / INPUTS_NAME)
    if width not in (None, ds.input_dim):
        raise ValueError(f"{directory}: rows have width {ds.input_dim}, "
                         f"the training rows have width {width}")
    return ds


def _load_encoder(path: str, width: int) -> DenseNet:
    """The encoder checkpointed at path; non-finite weights, or an encoder
    reading inputs of another width than the training dataset's, raise
    ValueError naming path."""
    ckpt = Path(path)
    if not ckpt.is_file():
        raise FileNotFoundError(f"no checkpoint file at {ckpt}")
    encoder, _ = load_checkpoint(ckpt)
    _require_finite(encoder.flat, ckpt)
    if encoder.in_dim != width:
        raise ValueError(f"{ckpt}: encoder reads rows of width {encoder.in_dim}, "
                         f"the training rows have width {width}")
    return encoder


# ------------------------------------------------------------------ runner


def _remove_dead_stages(out: Path) -> None:
    """Remove each stage directory in out, named .stage-<pid>-..., whose run's
    process is gone, as a SIGKILLed run leaves it. A stage whose pid lives,
    may not be signalled or is not in its name stays."""
    for stage in out.glob(STAGE_PREFIX + "*"):
        pid, dash, _ = stage.name[len(STAGE_PREFIX):].partition("-")
        try:
            if dash and pid.isdigit():
                os.kill(int(pid), 0)
        except ProcessLookupError:
            shutil.rmtree(stage, ignore_errors=True)
        except (PermissionError, OverflowError):
            pass


def _run(out: Path, command: str, config: dict, seed: int, inputs: dict, work,
         log_columns: list[str] | None = None) -> int:
    """The sequence every command shares, and the only code that writes
    to --out.

    Hashes the input paths in inputs (unset ones are skipped) into the
    run's manifest, creates out, removes the stages of dead runs from it,
    then times work(stage, manifest_hash). work writes the command's
    artifacts into stage, a fresh directory inside out that hash_path
    skips, and returns the exit code (None for 0). The run is then
    committed: the old manifest.json is moved out of out first, each
    staged file replaces its namesake, and the new manifest.json comes
    last. An OSError there raises RuntimeError naming out; the files
    already moved stay moved.
    If work raises TrainingDiverged and log_columns is given, only the
    partial train_log.csv is committed and the exit code is 1. Any other
    error leaves the files in out as they were.
    """
    manifest = RunManifest(command, config,
                           {name: hash_path(p) for name, p in inputs.items() if p}, seed)
    out.mkdir(parents=True, exist_ok=True)
    _remove_dead_stages(out)
    # inside out, so every rename of the commit stays on one filesystem
    stage = Path(tempfile.mkdtemp(prefix=f"{STAGE_PREFIX}{os.getpid()}-", dir=out))
    started = time.time()
    try:
        try:
            code = work(stage, manifest.content_hash()) or 0
        except TrainingDiverged as exc:
            if log_columns is None:
                raise
            _write_train_log(stage / "train_log.csv", exc.log, log_columns)
            print(f"error: {exc} (partial log kept: {len(exc.log)} epochs)",
                  file=sys.stderr)
            manifest, code = None, 1
        staged = sorted(stage.iterdir())
        try:
            # a rename, so a failure here still leaves out as it was
            if (out / MANIFEST_NAME).exists():
                os.replace(out / MANIFEST_NAME, stage / MANIFEST_NAME)
            for path in staged:
                os.replace(path, out / path.name)
            if manifest is not None:
                finished = time.time()
                manifest.wall_clock = {"started_unix": started, "finished_unix": finished,
                                       "duration_s": finished - started}
                write_manifest(stage, manifest)
                os.replace(stage / MANIFEST_NAME, out / MANIFEST_NAME)
        except OSError as exc:
            raise RuntimeError(f"could not commit the run into {out}: {exc}") from exc
        return code
    finally:
        shutil.rmtree(stage, ignore_errors=True)


# -------------------------------------------------------------------- data


def cmd_data(args) -> int:
    if args.data_cmd == "gen":
        gen_cfg = GenConfig(
            n=args.n,
            classes=args.classes,
            bias_ratio=args.bias_ratio,
            noise=args.noise,
            input_dim=2 + args.classes if args.input_dim is None else args.input_dim,
            seed=args.seed,
        )
        generate = partial(gen_colorpoints, gen_cfg)
        inputs = {}
        config = {"generator": "colorpoints", **asdict(gen_cfg)}
    else:
        for path in (args.images, args.labels):
            if not Path(path).is_file():
                raise FileNotFoundError(f"no IDX file at {path}")
        check_bias_ratio(args.bias_ratio)
        generate = partial(cmnist_from_idx, args.images, args.labels,
                           bias_ratio=args.bias_ratio, seed=args.seed)
        inputs = {"images": args.images, "labels": args.labels}
        config = {
            "generator": "cmnist",
            "bias_ratio": args.bias_ratio,
            "seed": args.seed,
        }

    def work(stage, manifest_hash):
        ds = generate()
        ds.save(stage)
        counts = ds.group_counts()
        print(f"wrote dataset to {args.out}")
        print(f"n={len(ds)} classes={ds.num_classes} bias_ratio={ds.bias_ratio:g} "
              f"aligned={int(ds.aligned.sum())} conflicting={int((~ds.aligned).sum())}")
        print("group counts (rows y, cols b):")
        for row in counts:
            print("  " + " ".join(f"{int(c):5d}" for c in row))

    return _run(args.out, f"data {args.data_cmd}", config, args.seed, inputs, work)


# ---------------------------------------------------------------- training


def _write_error_set(path: Path, error_set: ErrorSet) -> None:
    _write_csv(path, ["index", "prediction"],
               [[int(i), int(error_set.predictions[i])] for i in error_set.indices])


def cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    if args.role == "main":
        cfg = replace(cfg, lambda_reg=0.0)
    ds = _load_dataset(args.data)
    if cfg.modality == "cmnist-image":
        image_shape(ds, args.data)
    columns = ["epoch", "loss", "eff_rank", "lr"]

    def work(stage, manifest_hash):
        encoder, log = pretrain_biased(ds, cfg)
        save_checkpoint(stage / "encoder.ckpt", encoder,
                        {**asdict(cfg), "manifest_hash": manifest_hash})
        _write_train_log(stage / "train_log.csv", log, columns)
        print(f"wrote {args.out / 'encoder.ckpt'}")
        print(f"final loss {log[-1]['loss']:.6g}, eff_rank {log[-1]['eff_rank']:.6g}")

    return _run(args.out, "pretrain", asdict(cfg), cfg.seed, {"data": args.data}, work, columns)


def cmd_erm(args) -> int:
    cfg = _build_config(args)
    ds = _load_dataset(args.data)
    eval_ds = _load_dataset(args.test, ds.input_dim) if args.test else ds
    columns = ["epoch", "loss", "ce", "rank_term", "lr", "eff_rank"]

    def work(stage, manifest_hash):
        model, log = erm_train(ds, cfg, target=args.target)
        sidecar = {**asdict(cfg), "manifest_hash": manifest_hash}
        save_checkpoint(stage / "encoder.ckpt", model.encoder, sidecar)
        save_checkpoint(stage / "head.ckpt", model.head, sidecar)
        error_set = ErrorSet.misses(model.predict(ds.inputs),
                                    ds.y if args.target == "y" else ds.b)
        _write_error_set(stage / "error_set.csv", error_set)
        if args.target == "y":
            report = evaluate(model, eval_ds, error_set, ds)
            metrics = report.to_dict()
            summary = (f"conflict {report.bias_conflict_acc:.2f} aligned "
                       f"{report.bias_aligned_acc:.2f} unbiased {report.unbiased_acc:.2f} "
                       f"eff_rank {report.eff_rank:.4f}")
        else:
            # reversed diagnostic predicts b, so the grouped y-metrics do not apply
            pred = model.predict(eval_ds.inputs)
            acc_b = 100.0 * float((pred == eval_ds.b).mean())
            metrics = {"target": "b", "bias_label_acc": acc_b}
            summary = f"bias-label accuracy {acc_b:.2f}"
        write_json(stage / "metrics.json", metrics)
        _write_train_log(stage / "train_log.csv", log, columns)
        print(f"wrote model and metrics to {args.out}")
        print(summary)

    return _run(args.out, "erm", {**asdict(cfg), "target": args.target}, cfg.seed,
                {"data": args.data, "test": args.test}, work, columns)


def cmd_debias(args) -> int:
    cfg = _build_config(args)
    ds = _load_dataset(args.data)
    test = _load_dataset(args.test, ds.input_dim) if args.test else None
    biased_enc = _load_encoder(args.biased_ckpt, ds.input_dim)
    main_enc = _load_encoder(args.main_ckpt, ds.input_dim)
    labeled = label_fraction_split(ds, args.label_fraction,
                                   int(stream(cfg.seed, "label-split").integers(2**31)))
    if len(labeled) == 0:
        raise ValueError(f"--label-fraction {args.label_fraction} labels none of the "
                         f"{len(ds)} samples of {args.data}")

    def work(stage, manifest_hash):
        sidecar = {**asdict(cfg), "manifest_hash": manifest_hash}
        error_set = identify_error_set(biased_enc, labeled, cfg)
        model = debiased_linear_eval(main_enc, labeled, error_set, cfg)
        if args.mode == "semisup":
            model = finetune_semisup(model, labeled, error_set, cfg)
            save_checkpoint(stage / "encoder_finetuned.ckpt", model.encoder, sidecar)
        report = evaluate(model, test if test is not None else labeled, error_set, labeled)
        _write_error_set(stage / "error_set.csv", error_set)
        save_checkpoint(stage / "head.ckpt", model.head, sidecar)
        write_json(stage / "metrics.json", {
            **report.to_dict(), "mode": args.mode, "label_fraction": args.label_fraction,
            "labeled_n": len(labeled), "error_set_size": len(error_set)})
        print(f"wrote metrics to {args.out / 'metrics.json'}")
        print(f"error set {len(error_set)} of {len(labeled)} labeled samples")
        print(f"conflict {report.bias_conflict_acc:.2f} aligned "
              f"{report.bias_aligned_acc:.2f} unbiased {report.unbiased_acc:.2f}")

    config = {**asdict(cfg), "mode": args.mode, "label_fraction": args.label_fraction}
    inputs = {"data": args.data, "biased_ckpt": args.biased_ckpt,
              "main_ckpt": args.main_ckpt, "test": args.test}
    return _run(args.out, "debias", config, cfg.seed, inputs, work)


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args) -> int:
    ds = _load_dataset(args.data)
    encoder = _load_encoder(args.ckpt, ds.input_dim)

    def work(stage, manifest_hash):
        reps = apply(encoder, ds.inputs)
        values = svd_values(reps)
        spectrum = normalized_spectrum(values)
        rank = effective_rank(values)
        corr = auto_correlation(reps)
        order = cluster_reorder(corr)
        write_matrix_csv(stage / "spectrum.csv", spectrum[:, None])
        write_matrix_csv(stage / "correlation.csv", corr[np.ix_(order, order)])
        _write_csv(stage / "order.csv", ["feature"], [[int(i)] for i in order])
        write_json(stage / "report.json", {"effective_rank": rank,
                                           "n": len(ds), "dim": int(reps.shape[1])})
        print(f"effective_rank {rank:.17g}")
        print(f"wrote spectrum.csv, correlation.csv, order.csv to {args.out}")

    return _run(args.out, "spectrum", {}, 0, {"ckpt": args.ckpt, "data": args.data}, work)


# ------------------------------------------------------------------- sweep

@dataclass(kw_only=True)
class SweepSpec:
    """The keys of a sweep spec file: a job per point of the grids r through
    seed (non-empty lists), each on n training and test_n test rows. A
    spec file leaving out lambda_reg, lambda_up, tau or seed gets the value
    of its config (ExperimentConfig fields) as that grid."""

    family: str = "erm"
    n: int = 10000
    classes: int = 5
    test_n: int = 4000
    r: tuple[float, ...] = (0.99,)
    lambda_reg: tuple[float, ...]
    lambda_up: tuple[float, ...]
    tau: tuple[float, ...]
    seed: tuple[int, ...]
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.family not in ("erm", "pipeline"):
            raise ValueError(f"unknown sweep family {self.family!r}")
        # the bounds GenConfig applies in every job, checked before any runs
        check_fields(self, {"n": 1, "classes": 2, "test_n": 1}, {"classes": MAX_CLASSES})
        for name in ("n", "test_n"):  # a job's sets have width 2 + classes
            if getattr(self, name) * (2 + self.classes) > MAX_GEN_ENTRIES:
                raise ValueError(f"{name} * (2 + classes) must be <= {MAX_GEN_ENTRIES}, "
                                 f"got {getattr(self, name)} * {2 + self.classes}")
        for name in SWEEP_GRIDS:
            grid = getattr(self, name)
            if not grid:
                raise ValueError(f"{name} must be a non-empty list, got {grid!r}")
            # 1 and 1.0 must give the same config_hash
            setattr(self, name, tuple(int(x) if name == "seed" else float(x) for x in grid))


SWEEP_GRIDS = ("r", "lambda_reg", "lambda_up", "tau", "seed")
SWEEP_METRICS = ("conflict_acc", "aligned_acc", "unbiased_acc", "eff_rank",
                 "precision", "recall")
SWEEP_COLUMNS = ["config_hash", *SWEEP_GRIDS, *SWEEP_METRICS, "status"]


def _sweep_job(family: str, base: ExperimentConfig, n: int, classes: int,
               test_n: int, r: float, lam: float, lam_up: float, tau: float,
               seed: int) -> dict:
    """One isolated sweep unit: builds its own data, trains, evaluates.

    Jobs share nothing mutable; any ordering gives identical rows.
    """
    cfg = replace(base, lambda_reg=lam, lambda_up=lam_up, tau=tau, seed=seed)
    dim = 2 + classes
    data_seed = int(stream(seed, "sweep-data").integers(2**31))
    test_seed = int(stream(seed, "sweep-test").integers(2**31))
    ds = gen_colorpoints(GenConfig(n=n, classes=classes, bias_ratio=r,
                                   noise=0.05, input_dim=dim, seed=data_seed))
    source = gen_colorpoints(GenConfig(n=test_n, classes=classes, bias_ratio=1.0,
                                       noise=0.05, input_dim=dim, seed=test_seed))
    test = make_unbiased_testset(source, seed=test_seed + 1)
    if family == "erm":
        model, _ = erm_train(ds, cfg)
        error_set = ErrorSet.misses(model.predict(ds.inputs), ds.y)
    else:
        biased_enc, _ = pretrain_biased(ds, cfg)
        main_enc, _ = pretrain_main(ds, cfg)
        error_set = identify_error_set(biased_enc, ds, cfg)
        model = debiased_linear_eval(main_enc, ds, error_set, cfg)
    report = evaluate(model, test, error_set, ds)
    return dict(zip(SWEEP_METRICS, (report.bias_conflict_acc, report.bias_aligned_acc,
                                    report.unbiased_acc, report.eff_rank, report.precision,
                                    report.recall)))


def _sweep_outcome(*args) -> dict | str:
    """_sweep_job(*args), or the "error: ..." status of a job that diverged
    or was rejected; any other error is a bug and propagates."""
    try:
        return _sweep_job(*args)
    except (TrainingDiverged, ValueError, FloatingPointError) as exc:
        text = str(exc).replace(",", ";").replace("\n", " ")
        return f"error: {text}"


def _select_config(rows: list[dict]) -> dict:
    """Model selection over grouped sweep rows: among configs whose mean
    unbiased accuracy improves on the baseline (lambda_reg = 0,
    lambda_up = 1), pick the one with the highest mean conflict accuracy.
    Falls back to the baseline when nothing improves."""
    ok = [r for r in rows if r["status"] == "ok"]
    groups: dict[tuple, list[dict]] = {}
    for row in ok:
        groups.setdefault((row["lambda_reg"], row["lambda_up"], row["tau"]), []).append(row)
    if not groups:
        return {"selected": None, "reason": "no successful rows"}

    def mean(key, rows_):
        return float(np.mean([r[key] for r in rows_]))

    baseline_key = min(groups, key=lambda k: (k[0] != 0.0, k[1] != 1.0, k))
    baseline_unb = mean("unbiased_acc", groups[baseline_key])
    candidates = {k: g for k, g in groups.items()
                  if mean("unbiased_acc", g) > baseline_unb and k != baseline_key}
    pool = candidates if candidates else {baseline_key: groups[baseline_key]}
    chosen = max(sorted(pool), key=lambda k: mean("conflict_acc", pool[k]))
    return {
        "baseline": {"lambda_reg": baseline_key[0], "lambda_up": baseline_key[1],
                     "tau": baseline_key[2], "unbiased_acc": baseline_unb,
                     "conflict_acc": mean("conflict_acc", groups[baseline_key])},
        "selected": {"lambda_reg": chosen[0], "lambda_up": chosen[1],
                     "tau": chosen[2],
                     "unbiased_acc": mean("unbiased_acc", pool[chosen]),
                     "conflict_acc": mean("conflict_acc", pool[chosen])},
        "improved_over_baseline": bool(candidates),
    }


def cmd_sweep(args) -> int:
    spec_path = Path(args.spec)
    if not spec_path.is_file():
        raise FileNotFoundError(f"no sweep spec file at {spec_path}")
    values = _config_fields(read_json(spec_path), SweepSpec, f"sweep spec {spec_path}")
    base = ExperimentConfig(**_config_fields(values.get("config", {}), ExperimentConfig,
                                             f"config of sweep spec {spec_path}"))
    spec = SweepSpec(**{**{name: [getattr(base, name)] for name in SWEEP_GRIDS[1:]}, **values})
    fixed = {name: getattr(spec, name) for name in ("family", "n", "classes", "test_n")}

    def work(stage, manifest_hash):
        points = list(itertools.product(*(getattr(spec, name) for name in SWEEP_GRIDS)))
        outcomes = run_jobs(_sweep_outcome, [(spec.family, base, spec.n, spec.classes,
                                              spec.test_n, *point) for point in points])
        rows = []
        for point, outcome in zip(points, outcomes):
            grid = dict(zip(SWEEP_GRIDS, point))
            config_hash = RunManifest("sweep-job", {**fixed, **grid}, {},
                                      grid["seed"]).content_hash()[:16]
            failed = isinstance(outcome, str)
            row = {"config_hash": config_hash, **grid,
                   **(dict.fromkeys(SWEEP_METRICS, "") if failed else outcome),
                   "status": outcome if failed else "ok"}
            rows.append(row)
            print(f"[{row['status']}] " + " ".join(f"{k}={v}" for k, v in grid.items()),
                  flush=True)

        failures = sum(row["status"] != "ok" for row in rows)
        _write_csv(stage / "sweep.csv", SWEEP_COLUMNS,
                   [[row[c] for c in SWEEP_COLUMNS] for row in rows])
        write_json(stage / "selection.json", {"family": spec.family, **_select_config(rows)})
        print(f"wrote {len(rows)} rows to {args.out / 'sweep.csv'} ({failures} failed)")
        return 1 if failures else 0

    return _run(args.out, "sweep", values, base.seed, {"spec": args.spec}, work)


# -------------------------------------------------------------------- main


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rankdebias",
        description="Spectral analysis and debiasing of biased representations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_data = sub.add_parser("data", help="generate or ingest datasets")
    data_sub = p_data.add_subparsers(dest="data_cmd", required=True)
    p_gen = data_sub.add_parser("gen", help="synthetic color-points dataset")
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--classes", type=int, default=10)
    p_gen.add_argument("--bias-ratio", type=float, default=0.99)
    p_gen.add_argument("--noise", type=float, default=0.05)
    p_gen.add_argument("--input-dim", type=int, default=None)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True, type=_resolve_out)
    p_gen.set_defaults(func=cmd_data)
    p_cm = data_sub.add_parser("cmnist", help="color-MNIST from IDX files")
    p_cm.add_argument("--images", required=True)
    p_cm.add_argument("--labels", required=True)
    p_cm.add_argument("--bias-ratio", type=float, default=0.99)
    p_cm.add_argument("--seed", type=int, default=0)
    p_cm.add_argument("--out", required=True, type=_resolve_out)
    p_cm.set_defaults(func=cmd_data)

    p_pre = sub.add_parser("pretrain", help="stage-1 contrastive pretraining")
    p_pre.add_argument("--data", required=True)
    p_pre.add_argument("--role", choices=["biased", "main"], required=True)
    p_pre.add_argument("--out", required=True, type=_resolve_out)
    _add_config_flags(p_pre)
    p_pre.set_defaults(func=cmd_pretrain)

    p_erm = sub.add_parser("erm", help="supervised training with optional rank penalty")
    p_erm.add_argument("--data", required=True)
    p_erm.add_argument("--test", default=None)
    p_erm.add_argument("--target", choices=["y", "b"], default="y")
    p_erm.add_argument("--out", required=True, type=_resolve_out)
    _add_config_flags(p_erm)
    p_erm.set_defaults(func=cmd_erm)

    p_deb = sub.add_parser("debias", help="stage-2 error-set mining and upweighted training")
    p_deb.add_argument("--data", required=True)
    p_deb.add_argument("--test", default=None)
    p_deb.add_argument("--biased-ckpt", required=True)
    p_deb.add_argument("--main-ckpt", required=True)
    p_deb.add_argument("--mode", choices=["linear-eval", "semisup"],
                       default="linear-eval")
    p_deb.add_argument("--label-fraction", type=float, default=1.0)
    p_deb.add_argument("--out", required=True, type=_resolve_out)
    _add_config_flags(p_deb)
    p_deb.set_defaults(func=cmd_debias)

    p_spec = sub.add_parser("spectrum", help="spectral diagnostics of a checkpoint")
    p_spec.add_argument("--ckpt", required=True)
    p_spec.add_argument("--data", required=True)
    p_spec.add_argument("--out", required=True, type=_resolve_out)
    p_spec.set_defaults(func=cmd_spectrum)

    p_sw = sub.add_parser("sweep", help="cross-product experiment sweep")
    p_sw.add_argument("--spec", required=True)
    p_sw.add_argument("--out", required=True, type=_resolve_out)
    p_sw.set_defaults(func=cmd_sweep)
    return parser


def _exit_on_signal(signum, frame):
    # an ordinary exit, so _run removes its stage and run_jobs stops its workers
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # only the main thread may set a handler; the caller's is restored
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _exit_on_signal) if on_main else None
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        if on_main:
            signal.signal(signal.SIGTERM, previous)


if __name__ == "__main__":
    # run the module's importable copy, so run_jobs can send its job functions
    from rankdebias.cli import main
    sys.exit(main())
