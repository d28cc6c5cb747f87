"""Command-line surface.

Subcommands: data gen | data cmnist, pretrain, erm, debias, spectrum,
sweep. Every command writes its artifacts and then a manifest.json into
the output directory; rerunning with the same arguments reproduces every
artifact byte for byte (manifest wall-clock metadata aside).

Exit codes: 0 success, 1 runtime failure (for example a diverged run),
2 usage or input errors. Relative --out paths resolve under the
RANKDEBIAS_OUT environment variable when it is set.

Config precedence: command-line flags override values from --config FILE
(a JSON object of ExperimentConfig fields), which override the dataclass
defaults. The effective config is serialized into the manifest.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from .data import (
    BiasedDataset,
    GenConfig,
    cmnist_from_idx,
    gen_colorpoints,
    label_fraction_split,
    make_unbiased_testset,
)
from .manifest import (
    RunManifest,
    finish_clock,
    hash_path,
    start_clock,
    write_manifest,
)
from .nn import apply, load_checkpoint, save_checkpoint
from .pipeline import (
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

# ExperimentConfig fields exposed as flags, typed by their defaults; flag
# name is the field name with underscores turned into dashes. hidden_dims
# has its own comma-separated flag and dataset is not a flag.
_CONFIG_FLAGS = [(f.name, type(f.default)) for f in fields(ExperimentConfig)
                 if f.name not in ("hidden_dims", "dataset")]


def _resolve_out(path: str) -> Path:
    root = os.environ.get(OUT_ROOT_ENV)
    p = Path(path)
    if root and not p.is_absolute():
        return Path(root) / p
    return p


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="JSON file of ExperimentConfig fields")
    for name, typ in _CONFIG_FLAGS:
        flag = "--" + name.replace("_", "-")
        if name == "modality":
            parser.add_argument(flag, choices=["vector", "cmnist-image"], default=None)
        else:
            parser.add_argument(flag, type=typ, default=None)
    parser.add_argument(
        "--hidden-dims", default=None,
        help="comma-separated encoder hidden widths, e.g. 256,256",
    )


def _build_config(args: argparse.Namespace) -> ExperimentConfig:
    """Merge defaults, config file and flags, in increasing precedence."""
    values: dict = {}
    if getattr(args, "config", None):
        path = Path(args.config)
        if not path.exists():
            raise FileNotFoundError(f"config file not found: {path}")
        file_values = json.loads(path.read_text())
        if not isinstance(file_values, dict):
            raise ValueError(f"config file {path} must hold a JSON object")
        unknown = set(file_values) - set(ExperimentConfig.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        values.update(file_values)
    for name, _ in _CONFIG_FLAGS:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            values[name] = flag_value
    hidden = getattr(args, "hidden_dims", None)
    if hidden is not None:
        values["hidden_dims"] = tuple(int(x) for x in str(hidden).split(","))
    elif "hidden_dims" in values:
        values["hidden_dims"] = tuple(values["hidden_dims"])
    return ExperimentConfig(**values)


def _fmt(x) -> str:
    if isinstance(x, float):
        return format(x, ".17g")
    return str(x)


def _write_csv(path: Path, header: list[str], rows: list[list]) -> None:
    lines = [",".join(header)]
    lines += [",".join(_fmt(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


def _write_json(path: Path, payload: dict) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _write_train_log(path: Path, log: list[dict], columns: list[str]) -> None:
    _write_csv(path, columns, [[row[c] for c in columns] for row in log])


def _load_dataset(path: str) -> BiasedDataset:
    directory = Path(path)
    if not directory.exists():
        raise FileNotFoundError(f"dataset directory not found: {directory}")
    return BiasedDataset.load(directory)


def _load_encoder(path: str):
    ckpt = Path(path)
    if not ckpt.exists():
        raise FileNotFoundError(f"checkpoint not found: {ckpt}")
    return load_checkpoint(ckpt)


def _manifest_for(command: str, cfg_dict: dict, inputs: dict, seed: int,
                  clock: dict) -> RunManifest:
    return RunManifest(
        command=command,
        config=cfg_dict,
        input_hashes={k: hash_path(v) for k, v in inputs.items()},
        seed=seed,
        wall_clock=clock,
    )


# -------------------------------------------------------------------- data


def cmd_data(args) -> int:
    out = _resolve_out(args.out)
    clock = start_clock()
    if args.data_cmd == "gen":
        gen_cfg = GenConfig(
            n=args.n,
            classes=args.classes,
            bias_ratio=args.bias_ratio,
            noise=args.noise,
            input_dim=args.input_dim if args.input_dim else 2 + args.classes,
            seed=args.seed,
        )
        ds = gen_colorpoints(gen_cfg)
        inputs = {}
        config = {"generator": "colorpoints", **asdict(gen_cfg)}
    else:
        for path in (args.images, args.labels):
            if not Path(path).exists():
                raise FileNotFoundError(f"IDX file not found: {path}")
        ds = cmnist_from_idx(args.images, args.labels,
                             bias_ratio=args.bias_ratio, seed=args.seed)
        inputs = {"images": args.images, "labels": args.labels}
        config = {
            "generator": "cmnist",
            "bias_ratio": args.bias_ratio,
            "seed": args.seed,
        }
    ds.save(out)
    manifest = _manifest_for(f"data {args.data_cmd}", config, inputs,
                             args.seed, finish_clock(clock))
    write_manifest(out, manifest)
    counts = ds.group_counts()
    print(f"wrote dataset to {out}")
    print(f"n={len(ds)} classes={ds.num_classes} bias_ratio={ds.bias_ratio:g} "
          f"aligned={int(ds.aligned.sum())} conflicting={int((~ds.aligned).sum())}")
    print("group counts (rows y, cols b):")
    for row in counts:
        print("  " + " ".join(f"{int(c):5d}" for c in row))
    return 0


# ---------------------------------------------------------------- training


def _run_training(args, cfg: ExperimentConfig, command: str, config: dict,
                  input_args: tuple[str, ...], train, save, log_columns=None) -> int:
    """The sequence the training commands share.

    Resolves and creates --out and times train(), which returns (result,
    log). save(out, result, log, sidecar) writes the command's artifacts,
    the log goes to train_log.csv when log_columns is given, and
    manifest.json comes last, so a crash never leaves a manifest naming
    files that do not exist. The manifest hashes the paths held by the
    input_args attributes of args that are set. A diverged run with a log
    keeps its partial log and exits 1.
    """
    out = _resolve_out(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clock = start_clock()
    try:
        result, log = train()
    except TrainingDiverged as exc:
        if log_columns is None:
            raise
        _write_train_log(out / "train_log.csv", exc.log, log_columns)
        print(f"error: {exc} (partial log kept: {len(exc.log)} epochs)",
              file=sys.stderr)
        return 1
    inputs = {name: getattr(args, name) for name in input_args if getattr(args, name)}
    manifest = _manifest_for(command, config, inputs, cfg.seed, finish_clock(clock))
    save(out, result, log, {**asdict(cfg), "manifest_hash": manifest.content_hash()})
    if log_columns is not None:
        _write_train_log(out / "train_log.csv", log, log_columns)
    write_manifest(out, manifest)
    return 0


def _write_error_set(path: Path, error_set: ErrorSet) -> None:
    _write_csv(path, ["index", "prediction"],
               [[int(i), int(error_set.predictions[i])] for i in error_set.indices])


def cmd_pretrain(args) -> int:
    cfg = _build_config(args)
    if args.role == "main":
        cfg = replace(cfg, lambda_reg=0.0)
    ds = _load_dataset(args.data)

    def save(out, encoder, log, sidecar):
        save_checkpoint(out / "encoder.ckpt", encoder, sidecar)
        print(f"wrote {out / 'encoder.ckpt'}")
        print(f"final loss {log[-1]['loss']:.6g}, eff_rank {log[-1]['eff_rank']:.6g}")

    return _run_training(args, cfg, "pretrain", asdict(cfg), ("data",),
                         lambda: pretrain_biased(ds, cfg), save,
                         ["epoch", "loss", "eff_rank", "lr"])


def cmd_erm(args) -> int:
    cfg = _build_config(args)
    ds = _load_dataset(args.data)
    test = _load_dataset(args.test) if args.test else None

    def save(out, model, log, sidecar):
        save_checkpoint(out / "encoder.ckpt", model.encoder, sidecar)
        save_checkpoint(out / "head.ckpt", model.head, sidecar)
        labels = ds.y if args.target == "y" else ds.b
        train_pred = model.predict(ds.inputs)
        error_set = ErrorSet(np.flatnonzero(train_pred != labels), train_pred)
        _write_error_set(out / "error_set.csv", error_set)
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
        _write_json(out / "metrics.json", metrics)
        print(f"wrote model and metrics to {out}")
        print(summary)

    return _run_training(args, cfg, "erm", {**asdict(cfg), "target": args.target},
                         ("data", "test"), lambda: erm_train(ds, cfg, target=args.target),
                         save, ["epoch", "loss", "ce", "rank_term", "lr", "eff_rank"])


def cmd_debias(args) -> int:
    cfg = _build_config(args)
    ds = _load_dataset(args.data)
    test = _load_dataset(args.test) if args.test else None
    biased_enc, _ = _load_encoder(args.biased_ckpt)
    main_enc, _ = _load_encoder(args.main_ckpt)
    if not 0.0 < args.label_fraction <= 1.0:
        raise ValueError(f"label fraction must be in (0, 1], got {args.label_fraction}")

    def train():
        if args.label_fraction < 1.0:
            seed = int(stream(cfg.seed, "label-split").integers(2**31))
            labeled, _ = label_fraction_split(ds, args.label_fraction, seed=seed)
        else:
            labeled = ds
        error_set = identify_error_set(biased_enc, labeled, cfg)
        model, report = debiased_linear_eval(main_enc, labeled, error_set,
                                             cfg.lambda_up, cfg, test=test)
        if args.mode == "semisup":
            model, report = finetune_semisup(model, labeled, error_set,
                                             cfg.lambda_up, cfg, test=test)
        return (labeled, error_set, model, report), None

    def save(out, result, log, sidecar):
        labeled, error_set, model, report = result
        _write_error_set(out / "error_set.csv", error_set)
        save_checkpoint(out / "head.ckpt", model.head, sidecar)
        if args.mode == "semisup":
            save_checkpoint(out / "encoder_finetuned.ckpt", model.encoder, sidecar)
        _write_json(out / "metrics.json", {
            **report.to_dict(), "mode": args.mode, "label_fraction": args.label_fraction,
            "labeled_n": len(labeled), "error_set_size": len(error_set)})
        print(f"wrote metrics to {out / 'metrics.json'}")
        print(f"error set {len(error_set)} of {len(labeled)} labeled samples")
        print(f"conflict {report.bias_conflict_acc:.2f} aligned "
              f"{report.bias_aligned_acc:.2f} unbiased {report.unbiased_acc:.2f}")

    config = {**asdict(cfg), "mode": args.mode, "label_fraction": args.label_fraction}
    return _run_training(args, cfg, "debias", config,
                         ("data", "biased_ckpt", "main_ckpt", "test"), train, save)


# ---------------------------------------------------------------- spectrum


def cmd_spectrum(args) -> int:
    encoder, _ = _load_encoder(args.ckpt)
    ds = _load_dataset(args.data)
    out = _resolve_out(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clock = start_clock()
    reps = apply(encoder, ds.inputs)
    values = svd_values(reps)
    spectrum = normalized_spectrum(values)
    rank = effective_rank(values)
    corr = auto_correlation(reps)
    order = cluster_reorder(corr)
    write_matrix_csv(out / "spectrum.csv", spectrum[:, None])
    write_matrix_csv(out / "correlation.csv", corr[np.ix_(order, order)])
    _write_csv(out / "order.csv", ["feature"], [[int(i)] for i in order])
    _write_json(out / "report.json", {"effective_rank": rank,
                                      "n": len(ds), "dim": int(reps.shape[1])})
    manifest = _manifest_for("spectrum", {},
                             {"ckpt": args.ckpt, "data": args.data},
                             0, finish_clock(clock))
    write_manifest(out, manifest)
    print(f"effective_rank {rank:.17g}")
    print(f"wrote spectrum.csv, correlation.csv, order.csv to {out}")
    return 0


# ------------------------------------------------------------------- sweep

SWEEP_COLUMNS = [
    "config_hash", "r", "lambda_reg", "lambda_up", "tau", "seed",
    "conflict_acc", "aligned_acc", "unbiased_acc", "eff_rank",
    "precision", "recall", "status",
]


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
        _, report = debiased_linear_eval(main_enc, ds, es, lam_up, cfg, test=test)
        precision, recall = report.precision, report.recall
    return {
        "conflict_acc": report.bias_conflict_acc,
        "aligned_acc": report.bias_aligned_acc,
        "unbiased_acc": report.unbiased_acc,
        "eff_rank": report.eff_rank,
        "precision": precision,
        "recall": recall,
    }


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
    if not spec_path.exists():
        raise FileNotFoundError(f"sweep spec not found: {spec_path}")
    spec = json.loads(spec_path.read_text())
    family = spec.get("family", "erm")
    if family not in ("erm", "pipeline"):
        raise ValueError(f"unknown sweep family {family!r}")
    base = ExperimentConfig(**spec.get("config", {}))
    n = int(spec.get("n", 10000))
    classes = int(spec.get("classes", 5))
    test_n = int(spec.get("test_n", 4000))
    grids = [
        [float(x) for x in spec.get("r", [0.99])],
        [float(x) for x in spec.get("lambda_reg", [base.lambda_reg])],
        [float(x) for x in spec.get("lambda_up", [base.lambda_up])],
        [float(x) for x in spec.get("tau", [base.tau])],
        [int(x) for x in spec.get("seed", [base.seed])],
    ]
    out = _resolve_out(args.out)
    out.mkdir(parents=True, exist_ok=True)
    clock = start_clock()

    rows = []
    failures = 0
    for r, lam, lam_up, tau, seed in itertools.product(*grids):
        job_desc = {"family": family, "n": n, "classes": classes,
                    "test_n": test_n, "r": r, "lambda_reg": lam,
                    "lambda_up": lam_up, "tau": tau, "seed": seed}
        config_hash = RunManifest("sweep-job", job_desc, {}, seed).content_hash()[:16]
        row = {"config_hash": config_hash, "r": r, "lambda_reg": lam,
               "lambda_up": lam_up, "tau": tau, "seed": seed,
               "conflict_acc": "", "aligned_acc": "", "unbiased_acc": "",
               "eff_rank": "", "precision": "", "recall": "", "status": "ok"}
        try:
            row.update(_sweep_job(family, base, n, classes, test_n,
                                  r, lam, lam_up, tau, seed))
        except (TrainingDiverged, ValueError, FloatingPointError) as exc:
            # a diverged or rejected job is a row; any other error is a bug
            text = str(exc).replace(",", ";").replace("\n", " ")
            row["status"] = f"error: {text}"
            failures += 1
        rows.append(row)
        print(f"[{row['status']}] r={r} lambda_reg={lam} lambda_up={lam_up} "
              f"tau={tau} seed={seed}", flush=True)

    _write_csv(out / "sweep.csv", SWEEP_COLUMNS,
               [[row[c] for c in SWEEP_COLUMNS] for row in rows])
    selection = {"family": family, **_select_config(rows)}
    _write_json(out / "selection.json", selection)
    manifest = _manifest_for("sweep", spec, {"spec": str(spec_path)},
                             base.seed, finish_clock(clock))
    write_manifest(out, manifest)
    print(f"wrote {len(rows)} rows to {out / 'sweep.csv'} ({failures} failed)")
    return 1 if failures else 0


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
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(func=cmd_data)
    p_cm = data_sub.add_parser("cmnist", help="color-MNIST from IDX files")
    p_cm.add_argument("--images", required=True)
    p_cm.add_argument("--labels", required=True)
    p_cm.add_argument("--bias-ratio", type=float, default=0.99)
    p_cm.add_argument("--seed", type=int, default=0)
    p_cm.add_argument("--out", required=True)
    p_cm.set_defaults(func=cmd_data)

    p_pre = sub.add_parser("pretrain", help="stage-1 contrastive pretraining")
    p_pre.add_argument("--data", required=True)
    p_pre.add_argument("--role", choices=["biased", "main"], required=True)
    p_pre.add_argument("--out", required=True)
    _add_config_flags(p_pre)
    p_pre.set_defaults(func=cmd_pretrain)

    p_erm = sub.add_parser("erm", help="supervised training with optional rank penalty")
    p_erm.add_argument("--data", required=True)
    p_erm.add_argument("--test", default=None)
    p_erm.add_argument("--target", choices=["y", "b"], default="y")
    p_erm.add_argument("--out", required=True)
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
    p_deb.add_argument("--out", required=True)
    _add_config_flags(p_deb)
    p_deb.set_defaults(func=cmd_debias)

    p_spec = sub.add_parser("spectrum", help="spectral diagnostics of a checkpoint")
    p_spec.add_argument("--ckpt", required=True)
    p_spec.add_argument("--data", required=True)
    p_spec.add_argument("--out", required=True)
    p_spec.set_defaults(func=cmd_spectrum)

    p_sw = sub.add_parser("sweep", help="cross-product experiment sweep")
    p_sw.add_argument("--spec", required=True)
    p_sw.add_argument("--out", required=True)
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
