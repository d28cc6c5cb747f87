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

Exit codes: 0 success, 1 runtime failure (for example a diverged run),
2 usage or input errors. Relative --out paths resolve under the
RANKDEBIAS_OUT environment variable when it is set.

Config precedence: command-line flags override values from --config FILE
(a JSON object of ExperimentConfig fields), which override the dataclass
defaults. Each ExperimentConfig field has one flag, its name with dashes
for underscores (--hidden-dims takes comma-separated widths). A value of
the wrong type, below its field's bound, or not finite (NaN, inf) exits 2
naming the field, before --out is created. The effective config is
serialized into the manifest.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import shutil
import sys
import tempfile
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    BiasedDataset,
    GenConfig,
    check_bias_ratio,
    cmnist_from_idx,
    gen_colorpoints,
    label_fraction_split,
    make_unbiased_testset,
)
from .manifest import (
    MANIFEST_NAME,
    STAGE_PREFIX,
    RunManifest,
    finish_clock,
    hash_path,
    start_clock,
    write_json,
    write_manifest,
)
from .nn import apply, load_checkpoint, save_checkpoint
from .pipeline import (
    MODALITIES,
    ErrorSet,
    ExperimentConfig,
    TrainingDiverged,
    debiased_linear_eval,
    erm_train,
    error_set_quality,
    evaluate,
    finetune_semisup,
    identify_error_set,
    pretrain_biased,
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


def _config_fields(values, where: str) -> dict:
    """values, checked to be a JSON object of ExperimentConfig fields."""
    if not isinstance(values, dict):
        raise ValueError(f"{where} must hold a JSON object")
    unknown = set(values) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config fields in {where}: {sorted(unknown)}")
    return values


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file and flags, in increasing precedence."""
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.is_file():
            raise FileNotFoundError(f"no config file at {path}")
        values.update(_config_fields(json.loads(path.read_text()), f"config file {path}"))
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


def _load_dataset(path: str) -> BiasedDataset:
    directory = Path(path)
    if not directory.is_dir():
        raise FileNotFoundError(f"no dataset directory at {directory}")
    return BiasedDataset.load(directory)


def _load_encoder(path: str):
    ckpt = Path(path)
    if not ckpt.is_file():
        raise FileNotFoundError(f"no checkpoint file at {ckpt}")
    return load_checkpoint(ckpt)


# ------------------------------------------------------------------ runner


def _run(out: Path, command: str, config: dict, seed: int, inputs: dict, work,
         log_columns: list[str] | None = None) -> int:
    """The sequence every command shares, and the only code that writes
    to --out.

    Hashes the input paths in inputs (unset ones are skipped) into the
    run's manifest, creates out, then times work(stage, manifest_hash).
    work writes the command's artifacts into stage, a fresh directory
    inside out that hash_path skips, and returns the exit code (None for
    0). The run is then committed: the old manifest.json is moved out of
    out first, each staged file replaces its namesake, and the new
    manifest.json comes last.
    If work raises TrainingDiverged and log_columns is given, only the
    partial train_log.csv is committed and the exit code is 1. Any other
    error leaves the files in out as they were.
    """
    manifest = RunManifest(command, config,
                           {name: hash_path(p) for name, p in inputs.items() if p}, seed)
    out.mkdir(parents=True, exist_ok=True)
    # inside out, so every rename of the commit stays on one filesystem
    stage = Path(tempfile.mkdtemp(prefix=STAGE_PREFIX, dir=out))
    clock = start_clock()
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
        # a rename, so a failure here still leaves out as it was
        if (out / MANIFEST_NAME).exists():
            os.replace(out / MANIFEST_NAME, stage / MANIFEST_NAME)
        for path in staged:
            os.replace(path, out / path.name)
        if manifest is not None:
            manifest.wall_clock = finish_clock(clock)
            write_manifest(stage, manifest)
            os.replace(stage / MANIFEST_NAME, out / MANIFEST_NAME)
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
        inputs = {}
        config = {"generator": "colorpoints", **asdict(gen_cfg)}
    else:
        for path in (args.images, args.labels):
            if not Path(path).is_file():
                raise FileNotFoundError(f"no IDX file at {path}")
        check_bias_ratio(args.bias_ratio)
        inputs = {"images": args.images, "labels": args.labels}
        config = {
            "generator": "cmnist",
            "bias_ratio": args.bias_ratio,
            "seed": args.seed,
        }

    def work(stage, manifest_hash):
        if args.data_cmd == "gen":
            ds = gen_colorpoints(gen_cfg)
        else:
            ds = cmnist_from_idx(args.images, args.labels,
                                 bias_ratio=args.bias_ratio, seed=args.seed)
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
    test = _load_dataset(args.test) if args.test else None
    columns = ["epoch", "loss", "ce", "rank_term", "lr", "eff_rank"]

    def work(stage, manifest_hash):
        model, log = erm_train(ds, cfg, target=args.target)
        sidecar = {**asdict(cfg), "manifest_hash": manifest_hash}
        save_checkpoint(stage / "encoder.ckpt", model.encoder, sidecar)
        save_checkpoint(stage / "head.ckpt", model.head, sidecar)
        labels = ds.y if args.target == "y" else ds.b
        train_pred = model.predict(ds.inputs)
        error_set = ErrorSet(np.flatnonzero(train_pred != labels), train_pred)
        _write_error_set(stage / "error_set.csv", error_set)
        eval_ds = test if test is not None else ds
        if args.target == "y":
            report = evaluate(model, eval_ds)
            report.precision, report.recall = error_set_quality(error_set, ds)
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
    test = _load_dataset(args.test) if args.test else None
    biased_enc, _ = _load_encoder(args.biased_ckpt)
    main_enc, _ = _load_encoder(args.main_ckpt)
    if not 0.0 < args.label_fraction <= 1.0:
        raise ValueError(f"label fraction must be in (0, 1], got {args.label_fraction}")

    def work(stage, manifest_hash):
        sidecar = {**asdict(cfg), "manifest_hash": manifest_hash}
        if args.label_fraction < 1.0:
            seed = int(stream(cfg.seed, "label-split").integers(2**31))
            labeled, _ = label_fraction_split(ds, args.label_fraction, seed=seed)
        else:
            labeled = ds
        error_set = identify_error_set(biased_enc, labeled, cfg)
        model, report = debiased_linear_eval(main_enc, labeled, error_set, cfg, test=test)
        if args.mode == "semisup":
            model, report = finetune_semisup(model, labeled, error_set, cfg, test=test)
            save_checkpoint(stage / "encoder_finetuned.ckpt", model.encoder, sidecar)
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
    encoder, _ = _load_encoder(args.ckpt)
    ds = _load_dataset(args.data)

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

# every key a sweep spec may hold; each of r through seed is a grid (a
# non-empty list)
SWEEP_KEYS = ("family", "n", "classes", "test_n", "r", "lambda_reg", "lambda_up",
              "tau", "seed", "config")
SWEEP_COLUMNS = [
    "config_hash", "r", "lambda_reg", "lambda_up", "tau", "seed",
    "conflict_acc", "aligned_acc", "unbiased_acc", "eff_rank",
    "precision", "recall", "status",
]


def _integral(value) -> int:
    """int(value), rejecting a value that int() would change (2.5, "3", True)."""
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


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
        report = evaluate(model, test)
        pred = model.predict(ds.inputs)
        es = ErrorSet(np.flatnonzero(pred != ds.y), pred)
        precision, recall = error_set_quality(es, ds)
    else:
        biased_enc, _ = pretrain_biased(ds, cfg)
        main_enc, _ = pretrain_biased(ds, replace(cfg, lambda_reg=0.0))
        es = identify_error_set(biased_enc, ds, cfg)
        _, report = debiased_linear_eval(main_enc, ds, es, cfg, test=test)
        precision, recall = report.precision, report.recall
    return {
        "conflict_acc": report.bias_conflict_acc,
        "aligned_acc": report.bias_aligned_acc,
        "unbiased_acc": report.unbiased_acc,
        "eff_rank": report.eff_rank,
        "precision": precision,
        "recall": recall,
    }


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
    spec = json.loads(spec_path.read_text())
    if not isinstance(spec, dict):
        raise ValueError(f"sweep spec {spec_path} must hold a JSON object")
    unknown = set(spec) - set(SWEEP_KEYS)
    if unknown:
        raise ValueError(f"unknown keys in sweep spec {spec_path}: {sorted(unknown)}")
    family = spec.get("family", "erm")
    if family not in ("erm", "pipeline"):
        raise ValueError(f"unknown sweep family {family!r}")
    base = ExperimentConfig(**_config_fields(spec.get("config", {}),
                                             f"config of sweep spec {spec_path}"))

    def read(key, default, cast, grid=True):
        # checked here, as the spec is written verbatim into the manifest,
        # where NaN or Infinity would not be valid JSON
        value = spec.get(key, default)
        try:
            if grid and not (isinstance(value, list) and value):
                raise TypeError
            items = [cast(x) for x in (value if grid else [value])]
            if not all(math.isfinite(x) for x in items):
                raise ValueError
            return items if grid else items[0]
        except (TypeError, ValueError, OverflowError):
            kind = "integers" if cast is _integral else "finite numbers"
            what = f"a non-empty list of {kind}" if grid else "an integer"
            raise ValueError(f"sweep spec {spec_path}: {key} must be {what}, "
                             f"got {value!r}") from None

    n = read("n", 10000, _integral, grid=False)
    classes = read("classes", 5, _integral, grid=False)
    test_n = read("test_n", 4000, _integral, grid=False)
    grids = [read("r", [0.99], float), read("lambda_reg", [base.lambda_reg], float),
             read("lambda_up", [base.lambda_up], float), read("tau", [base.tau], float),
             read("seed", [base.seed], _integral)]

    def work(stage, manifest_hash):
        points = list(itertools.product(*grids))
        outcomes = run_jobs(_sweep_outcome, [(family, base, n, classes, test_n, *point)
                                             for point in points])
        rows = []
        failures = 0
        for (r, lam, lam_up, tau, seed), outcome in zip(points, outcomes):
            job_desc = {"family": family, "n": n, "classes": classes,
                        "test_n": test_n, "r": r, "lambda_reg": lam,
                        "lambda_up": lam_up, "tau": tau, "seed": seed}
            config_hash = RunManifest("sweep-job", job_desc, {}, seed).content_hash()[:16]
            row = {"config_hash": config_hash, "r": r, "lambda_reg": lam,
                   "lambda_up": lam_up, "tau": tau, "seed": seed,
                   "conflict_acc": "", "aligned_acc": "", "unbiased_acc": "",
                   "eff_rank": "", "precision": "", "recall": "", "status": "ok"}
            if isinstance(outcome, str):
                row["status"] = outcome
                failures += 1
            else:
                row.update(outcome)
            rows.append(row)
            print(f"[{row['status']}] r={r} lambda_reg={lam} lambda_up={lam_up} "
                  f"tau={tau} seed={seed}", flush=True)

        _write_csv(stage / "sweep.csv", SWEEP_COLUMNS,
                   [[row[c] for c in SWEEP_COLUMNS] for row in rows])
        write_json(stage / "selection.json", {"family": family, **_select_config(rows)})
        print(f"wrote {len(rows)} rows to {args.out / 'sweep.csv'} ({failures} failed)")
        return 1 if failures else 0

    return _run(args.out, "sweep", spec, base.seed, {"spec": args.spec}, work)


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


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (FileNotFoundError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
