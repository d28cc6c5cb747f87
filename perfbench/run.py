"""rankdebias benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload pipeline-vector --seed 1 --seconds 16 --trace 0

Run from the repository root. The package is imported from ./src. A run
sets up the workload three times (inputs, checkpoints and one untimed
warm-up pass each; the median is reported), then repeats passes of the
workload's CLI commands in a closed loop with one client until --seconds
have elapsed. With --trace 0 it reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced passes and reports the
per-layer metrics. Every pass is checked
(exit codes, byte-identical artifacts, the paper relation). The last line
of standard output is the JSON result; the line before it holds the
environment and run details, which are also written with the spans under
./perfbench_out.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from statistics import median  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench_out"

# set-up (inputs, checkpoints, one warm-up pass) is repeated this many
# times per run and its median is reported: the first pass of a process
# varies too much to be reported alone
SETUP_REPEATS = 3

END_TO_END = [
    ("wall_s", "s"),
    ("train_rows_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

_UNITS = {"calls": "count", "self_s": "s", "gflop": "GFLOP", "input_grad_gflop": "GFLOP",
          "params": "count", "bytes": "bytes", "s": "s", "jobs": "count"}


def _layer(span: str, *stats: str) -> list[tuple[str, str]]:
    return [(f"{span}.{stat}", _UNITS[stat]) for stat in stats]


CORR_BUILDS = "spectral.corr_builds_per_penalized_step"
OVERHEAD = "trace.overhead_pct"
PER_LAYER = [
    *_layer("nn.forward", "calls", "self_s", "gflop"),
    *_layer("nn.backward", "calls", "self_s", "gflop", "input_grad_gflop"),
    *_layer("nn.adam_step", "calls", "self_s", "params"),
    *_layer("nn.sgd_momentum_step", "calls", "self_s"),
    *_layer("nn.apply", "self_s"),
    *_layer("nn.save_checkpoint", "self_s"),
    *_layer("nn.load_checkpoint", "self_s"),
    *_layer("losses.nt_xent", "calls", "self_s"),
    *_layer("losses.stage1_loss", "self_s"),
    *_layer("losses.cross_entropy", "self_s"),
    *_layer("losses.debias_loss", "calls", "self_s"),
    *_layer("losses.UpweightSpec", "calls"),
    *_layer("spectral.rank_loss", "calls", "self_s"),
    *_layer("spectral.rank_loss_grad", "calls", "self_s"),
    (CORR_BUILDS, "count/step"),
    *_layer("spectral.svd_values", "calls", "self_s"),
    *_layer("spectral.effective_rank", "self_s"),
    *_layer("spectral.auto_correlation", "self_s"),
    *_layer("spectral.cluster_reorder", "self_s"),
    *_layer("data.gen_colorpoints", "self_s"),
    *_layer("data.cmnist_from_idx", "self_s"),
    *_layer("data.BiasedDataset.save", "self_s", "bytes"),
    *_layer("data.BiasedDataset.load", "self_s"),
    *_layer("data.augment_vector_batch", "calls", "self_s"),
    *_layer("data.augment_image_batch", "calls", "self_s"),
    *_layer("pipeline.pretrain_biased", "self_s"),
    *_layer("pipeline.erm_train", "self_s"),
    *_layer("pipeline.identify_error_set", "self_s"),
    *_layer("pipeline.debiased_linear_eval", "self_s"),
    *_layer("pipeline.finetune_semisup", "self_s"),
    *_layer("pipeline.evaluate", "self_s"),
    *_layer("manifest.hash_path", "calls", "self_s", "bytes"),
    *_layer("manifest.write_manifest", "self_s"),
    *[(f"cli.{cmd}.s", "s") for cmd in ("data", "pretrain", "debias", "spectrum", "sweep")],
    ("cli.sweep.jobs", "count"),
    (OVERHEAD, "%"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def _git_commit():
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _source_digest():
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(hashlib.sha256(path.read_bytes()).digest())
    return digest.hexdigest()


def environment():
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "git_commit": _git_commit(),
        "source_digest": _source_digest(),
    }


def layer_metrics(spans, op, penalized_steps):
    """Per-layer metrics of one traced pass (all but the overhead)."""
    from tracing import NAME, OP, has_ancestor, summarize

    table = summarize(spans, op)
    values = {}
    for name, _ in PER_LAYER:
        if name == OVERHEAD:
            continue
        if name == CORR_BUILDS:
            # rank_loss builds the correlation through auto_correlation,
            # rank_loss_grad builds it inline
            builds = sum(1 for i, rec in enumerate(spans)
                         if rec[OP] == op and rec[NAME] == "spectral.auto_correlation"
                         and has_ancestor(spans, i, "spectral.rank_loss"))
            builds += table.get("spectral.rank_loss_grad", {}).get("calls", 0)
            values[name] = builds / penalized_steps if penalized_steps else 0.0
        elif name == "cli.sweep.jobs":
            values[name] = table.get("cli._sweep_job", {}).get("calls", 0)
        elif name.startswith("cli."):
            values[name] = table.get(name.removesuffix(".s"), {}).get("total_s", 0.0)
        else:
            span, stat = name.rsplit(".", 1)
            values[name] = table.get(span, {}).get(stat, 0)
    return values


def run_pass(wl, root, out, tracer=None):
    """One pass of the workload's commands; returns (wall, [(cmd, s, code)])."""
    from workloads import run_cli

    steps = []
    start = time.perf_counter()
    for argv in wl.commands(root, out):
        if tracer is None:
            code, secs = run_cli(argv)
        else:
            with tracer.span(f"cli.{argv[0]}"):
                code, secs = run_cli(argv)
        steps.append((argv[0], secs, code))
        if code != 0:
            break
    return time.perf_counter() - start, steps


def check_pass(wl, out, steps, reference):
    """Problems found in one pass, and its artifact digest."""
    from workloads import artifact_digest

    problems = [f"{cmd} exited {code}" for cmd, _, code in steps if code != 0]
    if problems:
        return problems, None
    problems = wl.check(out)
    digest = artifact_digest(out)
    if reference is not None and digest != reference:
        problems.append("artifacts differ from the warm-up pass at the same seed")
    return problems, digest


def run(args, import_s):
    import tracing
    from workloads import TRAIN_COMMANDS, WORKLOADS, artifact_digest

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir()
    try:
        # set-up: inputs, checkpoints and a warm-up pass, repeated; the
        # repeats must agree, and the last warm-up pass is the reference
        # every measured pass must reproduce
        prepare_s, warmup_s, setup_digests, problems = [], [], [], []
        for i in range(SETUP_REPEATS):
            if i:
                shutil.rmtree(root)
                shutil.rmtree(warm_out)
            root, warm_out = work / f"setup{i}", work / f"warmup{i}"
            root.mkdir()
            start = time.perf_counter()
            wl.prepare(root)
            prepare_s.append(time.perf_counter() - start)
            wall, steps = run_pass(wl, root, warm_out)
            warmup_s.append(wall)
            warm_problems, reference = check_pass(wl, warm_out, steps, None)
            problems += [f"warm-up {i}: {p}" for p in warm_problems]
            setup_digests.append((artifact_digest(root), reference))
        if len(set(setup_digests)) != 1:
            problems.append("set-up repeats produced different files")
        setup_s = import_s + median([p + w for p, w in zip(prepare_s, warmup_s)])
        rows = wl.train_rows(warm_out) if reference is not None else 0

        tracer = tracing.Tracer()
        passes = []
        start = time.perf_counter()
        while True:
            k = len(passes)
            traced = bool(args.trace) and k % 2 == 1
            out = work / f"pass{k}"
            if traced:
                tracer.op = k
                with tracing.instrument(tracer, wl.encoder_in_dim):
                    wall, steps = run_pass(wl, root, out, tracer)
                if tracing.leftover_wrappers():
                    raise RuntimeError(f"tracing left wrappers at {tracing.leftover_wrappers()}")
            else:
                wall, steps = run_pass(wl, root, out)
            pass_problems, _ = check_pass(wl, out, steps, reference)
            shutil.rmtree(out, ignore_errors=True)
            train_s = sum(s for cmd, s, _ in steps if cmd in TRAIN_COMMANDS)
            passes.append({"traced": traced, "wall_s": wall, "train_s": train_s,
                           "steps": [[cmd, s] for cmd, s, _ in steps],
                           "problems": pass_problems})
            done = time.perf_counter() - start >= args.seconds
            if done and (not args.trace or len(passes) >= 2):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [p for p in passes if not p["traced"]]
    failed = sum(1 for p in passes if p["problems"])
    if args.trace:
        traced_ops = [i for i, p in enumerate(passes) if p["traced"]]
        per_pass = [layer_metrics(tracer.spans, op, wl.penalized_steps())
                    for op in traced_ops]
        values = {name: median([m[name] for m in per_pass])
                  for name in per_pass[0]}
        values[OVERHEAD] = 100.0 * (median([passes[i]["wall_s"] for i in traced_ops])
                                    / median([p["wall_s"] for p in untraced]) - 1.0)
        units = dict(PER_LAYER)
        tracer.dump(OUT / f"spans-{tag}.json")
    else:
        values = {
            "wall_s": median([p["wall_s"] for p in untraced]),
            "train_rows_per_s": median([rows / p["train_s"] if p["train_s"] else 0.0
                                         for p in untraced]),
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)

    detail = {
        "workload": wl.name, "seed": args.seed, "trace": args.trace,
        "environment": environment(),
        "artifact_digest": reference,
        "setup": {"import_s": import_s, "prepare_s": prepare_s, "warmup_s": warmup_s,
                  "setup_digest": setup_digests[-1][0]},
        "train_rows_per_pass": rows,
        "passes": passes,
        "problems": problems,
    }
    (OUT / f"result-{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    result = {
        "correct": not problems and failed == 0,
        "attempted": len(passes),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "rankdebias" / "cli.py").is_file():
        print(f"error: rankdebias sources not found under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import numpy  # noqa: F401
    import workloads  # noqa: F401  (imports rankdebias.cli)

    return run(args, time.perf_counter() - T0)


if __name__ == "__main__":
    sys.exit(main())
