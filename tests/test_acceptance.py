"""Acceptance gate for the whole package.

Each test checks one end-to-end guarantee at its stated tolerance and
prints a single PASS/FAIL line (visible even under captured output). The
experiment tests pin exact seeds and configs, so their numbers are
reproducible bit for bit; the thresholds they assert are the directional
effects the library exists to demonstrate.

Run order matters for wall-clock only; every test is independent. The
slowest fixtures (full training runs) are module-scoped and shared
between the tests that interpret them. Each one runs its independent
seeds or grid points through run_jobs, so the job functions live at
module level, where worker processes import them by name.
"""

import json
import time
from dataclasses import replace

import numpy as np
import pytest

from rankdebias.cli import main as cli_main
from rankdebias.data import (
    GenConfig,
    gen_colorpoints,
    label_fraction_split,
    make_unbiased_testset,
)
from rankdebias.losses import (
    UpweightSpec,
    cross_entropy,
    debias_loss,
    nt_xent,
    stage1_loss,
)
from rankdebias.nn import apply
from rankdebias.pipeline import (
    ErrorSet,
    ExperimentConfig,
    _chunk_rank,
    debiased_linear_eval,
    erm_train,
    error_set_quality,
    evaluate,
    finetune_semisup,
    identify_error_set,
    pretrain_biased,
    pretrain_main,
    run_jobs,
)
from rankdebias.spectral import effective_rank, rank_loss, rank_loss_grad, svd_values

from helpers import bias_metric, central_diff, eig_svd, entropy_rank, rel_err

pytestmark = [
    pytest.mark.acceptance,
    pytest.mark.filterwarnings("ignore:.*groups are empty"),
    pytest.mark.filterwarnings("ignore:.*lost all samples"),
]


@pytest.fixture
def verdict(capsys):
    """Prints one PASS/FAIL line per criterion straight to the terminal."""

    def _verdict(label: str, ok: bool, detail: str):
        status = "PASS" if ok else "FAIL"
        with capsys.disabled():
            print(f"[acceptance] {label}: {status} ({detail})")
        assert ok, f"{label}: {detail}"

    return _verdict


# ----------------------------------------------------- exact math checks


def test_effective_rank_matches_eigendecomposition_oracle(verdict):
    t0 = time.time()
    rng = np.random.default_rng(20240811)
    worst = 0.0
    for _ in range(200):
        m = int(rng.integers(2, 65))
        k = int(rng.integers(2, 65))
        M = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-3, 4)
        ours = effective_rank(svd_values(M))
        oracle = entropy_rank(eig_svd(M))
        worst = max(worst, abs(ours - oracle))
    identity_exact = all(
        effective_rank(svd_values(np.eye(d))) == np.log(d) for d in (2, 3, 17, 64)
    )
    elapsed = time.time() - t0
    verdict(
        "spectral-oracle",
        worst <= 1e-9 and identity_exact and elapsed < 10.0,
        f"max |diff| {worst:.2e} over 200 matrices, identity exact: "
        f"{identity_exact}, {elapsed:.1f}s",
    )


def test_analytic_gradients_match_finite_differences(verdict):
    t0 = time.time()
    rng = np.random.default_rng(987)
    h, tol = 1e-5, 1e-4
    worst = {}

    def run(name, n_instances, make_and_check):
        errs = [make_and_check(rng) for _ in range(n_instances)]
        worst[name] = max(errs)

    def check_rank(rng):
        Z = rng.standard_normal((int(rng.integers(6, 12)), int(rng.integers(3, 7))))
        return rel_err(central_diff(rank_loss, Z, h), rank_loss_grad(Z))

    def check_nt_xent(rng):
        n = int(rng.integers(3, 6))
        Z = rng.standard_normal((2 * n, int(rng.integers(3, 6))))
        tau = float(rng.uniform(0.05, 0.5))
        _, grad = nt_xent(Z, tau)
        return rel_err(central_diff(lambda A: nt_xent(A, tau)[0], Z, h), grad)

    def check_xent(rng):
        n, C = int(rng.integers(4, 10)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, C)) * 3.0
        labels = rng.integers(0, C, n)
        _, grad = cross_entropy(logits, labels)
        return rel_err(central_diff(lambda L: cross_entropy(L, labels)[0], logits, h), grad)

    def check_debias(rng):
        n, C = int(rng.integers(5, 10)), int(rng.integers(2, 6))
        logits = rng.standard_normal((n, C)) * 3.0
        labels = rng.integers(0, C, n)
        k = int(rng.integers(1, n))
        spec = UpweightSpec(rng.choice(n, size=k, replace=False),
                            float(rng.uniform(1.0, 20.0)))
        _, grad = debias_loss(logits, labels, spec)
        return rel_err(
            central_diff(lambda L: debias_loss(L, labels, spec)[0], logits, h), grad
        )

    def check_stage1(rng):
        n = int(rng.integers(3, 5))
        d, p = int(rng.integers(3, 6)), int(rng.integers(3, 6))
        V = rng.standard_normal((2 * n, d))
        P = rng.standard_normal((2 * n, p))
        tau = float(rng.uniform(0.05, 0.5))
        lam = float(rng.uniform(0.1, 2.0))
        _, gv, gp = stage1_loss(V, P, tau, lam)
        ev = rel_err(central_diff(lambda A: stage1_loss(A, P, tau, lam)[0], V, h), gv)
        ep = rel_err(central_diff(lambda A: stage1_loss(V, A, tau, lam)[0], P, h), gp)
        return max(ev, ep)

    run("rank_loss", 100, check_rank)
    run("nt_xent", 100, check_nt_xent)
    run("cross_entropy", 100, check_xent)
    run("debias_loss", 100, check_debias)
    run("stage1", 100, check_stage1)
    elapsed = time.time() - t0
    bad = {k: v for k, v in worst.items() if v > tol}
    detail = ", ".join(f"{k} {v:.1e}" for k, v in worst.items())
    verdict(
        "gradient-suite",
        not bad and elapsed < 120.0,
        f"worst rel err per loss: {detail}; {elapsed:.1f}s",
    )


def test_degenerate_forms_reduce_exactly(verdict):
    rng = np.random.default_rng(55)
    # equal embeddings: every candidate ties the positive
    nt_ok = True
    for n in (2, 5, 16):
        Z = np.tile(rng.standard_normal(6), (2 * n, 1))
        loss, _ = nt_xent(Z, 0.17)
        nt_ok &= abs(loss - np.log(2 * n - 1)) <= 1e-12

    # unit upweight or empty error set: plain cross-entropy, bit for bit
    logits = rng.standard_normal((40, 5)) * 2.0
    labels = rng.integers(0, 5, 40)
    base_loss, base_grad = cross_entropy(logits, labels)
    l1, g1 = debias_loss(logits, labels, UpweightSpec(np.arange(0, 40, 3), 1.0))
    l2, g2 = debias_loss(logits, labels, UpweightSpec(np.empty(0, dtype=int), 9.0))
    debias_ok = (
        l1 == base_loss and l2 == base_loss
        and np.array_equal(g1, base_grad) and np.array_equal(g2, base_grad)
    )

    # zero-penalty biased pretraining is the main pretraining
    ds = gen_colorpoints(GenConfig(n=320, classes=4, bias_ratio=0.9, seed=11,
                                   input_dim=6))
    cfg = ExperimentConfig(epochs=3, warmup_epochs=1, batch_size=64,
                           hidden_dims=(16, 16), latent_dim=8, proj_hidden=16,
                           proj_dim=8, seed=7)
    enc_main, log_main = pretrain_main(ds, cfg)
    enc_zero, log_zero = pretrain_biased(ds, replace(cfg, lambda_reg=0.0))
    pretrain_ok = (enc_main.layer_dims == enc_zero.layer_dims
                   and np.array_equal(enc_main.flat, enc_zero.flat) and log_main == log_zero)

    verdict(
        "degenerate-identities",
        nt_ok and debias_ok and pretrain_ok,
        f"nt_xent=ln(2n-1): {nt_ok}, unit-upweight==cross-entropy: {debias_ok}, "
        f"zero-penalty pretrain==main: {pretrain_ok}",
    )


# ------------------------------------------- supervised bias experiments

BIAS_RATIOS = (0.95, 0.98, 0.99, 0.995)


def _bias_ratio_run(r: float) -> dict:
    """One plain supervised run at bias ratio r. About 10 s."""
    cfg = ExperimentConfig(epochs=60, warmup_epochs=6, base_lr=1e-3,
                           hidden_dims=(256, 256), weight_decay=3e-3, seed=0)
    test_src = gen_colorpoints(GenConfig(n=4000, classes=10, bias_ratio=1.0,
                                         seed=900, input_dim=12))
    test = make_unbiased_testset(test_src, seed=901)
    ds = gen_colorpoints(GenConfig(n=10000, classes=10, bias_ratio=r,
                                   seed=100, input_dim=12))
    model, _ = erm_train(ds, replace(cfg, lambda_reg=0.0))
    return {
        "r": r,
        "eff_rank": _chunk_rank(apply(model.encoder, test.inputs)),
        "unbiased_acc": 100.0 * float(np.mean(model.predict(test.inputs) == test.y)),
    }


@pytest.fixture(scope="module")
def bias_sweep_runs():
    """Plain supervised runs across the bias-ratio grid, shared by the
    rank-trend and accuracy-trend tests."""
    t0 = time.time()
    rows = run_jobs(_bias_ratio_run, [(r,) for r in BIAS_RATIOS])
    return rows, time.time() - t0


def test_representation_rank_shrinks_with_bias_strength(bias_sweep_runs, verdict):
    rows, elapsed = bias_sweep_runs
    ranks = [row["eff_rank"] for row in rows]
    monotone = all(ranks[i] >= ranks[i + 1] for i in range(len(ranks) - 1))
    drop = (ranks[0] - ranks[-1]) / ranks[0]
    verdict(
        "rank-vs-bias",
        monotone and drop >= 0.10 and elapsed <= 900.0,
        f"ranks {', '.join(f'{v:.3f}' for v in ranks)}; drop {100 * drop:.1f}%; "
        f"{elapsed:.0f}s",
    )


def test_unbiased_accuracy_falls_with_bias_strength(bias_sweep_runs, verdict):
    rows, _ = bias_sweep_runs
    accs = [row["unbiased_acc"] for row in rows]
    strictly_down = all(accs[i] > accs[i + 1] for i in range(len(accs) - 1))
    halved = accs[-1] < 0.5 * accs[0]
    verdict(
        "accuracy-vs-bias",
        strictly_down and halved,
        f"accs {', '.join(f'{v:.2f}' for v in accs)}; "
        f"last/first {accs[-1] / accs[0]:.2f}",
    )


PENALTY_GRID = (0.0, 0.01, 1.0)


def _penalty_run(lam: float) -> dict:
    """One supervised run at r = 0.99 with decorrelation penalty lam."""
    cfg = ExperimentConfig(epochs=60, warmup_epochs=6, base_lr=1e-3,
                           hidden_dims=(256, 256), weight_decay=1e-3, seed=0)
    test_src = gen_colorpoints(GenConfig(n=4000, classes=5, bias_ratio=1.0,
                                         seed=900, input_dim=7))
    test = make_unbiased_testset(test_src, seed=901)
    ds = gen_colorpoints(GenConfig(n=10000, classes=5, bias_ratio=0.99,
                                   seed=100, input_dim=7))
    model, _ = erm_train(ds, replace(cfg, lambda_reg=lam))
    report = evaluate(model, test)
    errors = ErrorSet.misses(model.predict(ds.inputs), ds.y)
    precision, recall = error_set_quality(errors, ds)
    return {"report": report, "precision": precision, "recall": recall}


@pytest.fixture(scope="module")
def penalty_sweep_runs():
    """Supervised runs with increasing decorrelation penalty, shared by the
    amplification and error-set-mining tests."""
    return dict(zip(PENALTY_GRID, run_jobs(_penalty_run, [(lam,) for lam in PENALTY_GRID])))


def test_rank_penalty_amplifies_bias_not_aligned_accuracy(penalty_sweep_runs, verdict):
    zero = penalty_sweep_runs[0.0]["report"]
    strong = penalty_sweep_runs[max(PENALTY_GRID)]["report"]
    conflict_drop = zero.bias_conflict_acc - strong.bias_conflict_acc
    aligned_drop = zero.bias_aligned_acc - strong.bias_aligned_acc
    verdict(
        "penalty-ablation",
        conflict_drop >= 20.0 and aligned_drop <= 10.0,
        f"conflict drop {conflict_drop:.1f} pts, aligned drop {aligned_drop:.1f} pts",
    )


def test_penalized_model_errors_cover_conflicting_samples(penalty_sweep_runs, verdict):
    plain = penalty_sweep_runs[0.0]
    strong = penalty_sweep_runs[max(PENALTY_GRID)]
    recall_gain = strong["recall"] - plain["recall"]
    precision_loss = plain["precision"] - strong["precision"]
    verdict(
        "error-set-mining",
        recall_gain >= 30.0 and precision_loss <= 10.0,
        f"recall {plain['recall']:.1f} -> {strong['recall']:.1f} "
        f"(+{recall_gain:.1f}), precision {plain['precision']:.1f} -> "
        f"{strong['precision']:.1f}",
    )


# ---------------------------------------- two-stage pipeline, 4-seed means

PIPELINE_SEEDS = (0, 1, 2, 3)
ARM_NOISE = 0.02
ARM_LAMBDA_B = 0.05
ARM_LAMBDA_UP = 16.0
SEMI_R = 0.95
SEMI_LAMBDA_B = 0.1
SEMI_LAMBDA_UP = 32.0
SEMI_FINETUNE_EPOCHS = 25
METRIC_R = 0.3
METRIC_NOISE = 0.25
METRIC_GRID = (0.0, 0.1, 0.3, 1.0)


def _contrastive_cfg(seed: int) -> ExperimentConfig:
    """Narrow encoder used for the low-label and bias-metric runs."""
    return ExperimentConfig(tau=0.07, epochs=40, warmup_epochs=4,
                            base_lr=1e-3, hidden_dims=(256, 256), latent_dim=16,
                            proj_hidden=64, proj_dim=32, weight_decay=1e-4,
                            seed=seed)


def _wide_contrastive_cfg(seed: int) -> ExperimentConfig:
    """Wide encoder used for the pipeline comparisons."""
    return ExperimentConfig(tau=0.07, epochs=40, warmup_epochs=4,
                            base_lr=1e-3, hidden_dims=(256, 256), latent_dim=64,
                            proj_hidden=128, proj_dim=64, weight_decay=1e-4,
                            seed=seed)


def _arc_data(r: float, seed: int, noise: float = 0.05):
    ds = gen_colorpoints(GenConfig(n=10000, classes=5, bias_ratio=r, noise=noise,
                                   seed=100 + seed, input_dim=7))
    src = gen_colorpoints(GenConfig(n=4000, classes=5, bias_ratio=1.0, noise=noise,
                                    seed=900 + seed, input_dim=7))
    return ds, make_unbiased_testset(src, seed=901 + seed)


def _pipeline_arm_run(seed: int) -> tuple[float, float, float]:
    """Conflict accuracy of the three heads on the frozen main encoder (no
    upweight; error set from the main model; error set from the biased
    encoder)."""
    cfg = _wide_contrastive_cfg(seed)
    ds, test = _arc_data(0.99, seed, noise=ARM_NOISE)
    enc_main, _ = pretrain_main(ds, cfg)
    enc_biased, _ = pretrain_biased(ds, replace(cfg, lambda_reg=ARM_LAMBDA_B))
    e_main = identify_error_set(enc_main, ds, cfg)
    e_biased = identify_error_set(enc_biased, ds, cfg)
    up_cfg = replace(cfg, lambda_up=ARM_LAMBDA_UP)
    plain = debiased_linear_eval(enc_main, ds, None, replace(cfg, lambda_up=1.0))
    upweight = debiased_linear_eval(enc_main, ds, e_main, up_cfg)
    full = debiased_linear_eval(enc_main, ds, e_biased, up_cfg)
    return tuple(evaluate(model, test).bias_conflict_acc for model in (plain, upweight, full))


@pytest.fixture(scope="module")
def pipeline_arm_runs():
    """_pipeline_arm_run per seed."""
    return run_jobs(_pipeline_arm_run, [(seed,) for seed in PIPELINE_SEEDS])


def test_error_source_ordering_across_seeds(pipeline_arm_runs, verdict):
    plain, upweight, full = (
        float(np.mean([row[i] for row in pipeline_arm_runs])) for i in range(3)
    )
    verdict(
        "pipeline-ordering",
        full >= upweight + 2.0 and upweight >= plain + 2.0,
        f"mean conflict acc plain={plain:.1f} upweight={upweight:.1f} "
        f"full={full:.1f}",
    )


def _semisup_run(seed: int) -> tuple[float, float]:
    """Conflict accuracy of the pipeline with 10% labels (pretraining stays
    unsupervised) and of a supervised model trained from scratch on the
    same labeled subset."""
    cfg = replace(_contrastive_cfg(seed),
                  finetune_epochs=SEMI_FINETUNE_EPOCHS)
    ds, test = _arc_data(SEMI_R, seed)
    labeled = label_fraction_split(ds, 0.10, seed=777 + seed)
    enc_main, _ = pretrain_main(ds, cfg)
    enc_biased, _ = pretrain_biased(ds, replace(cfg, lambda_reg=SEMI_LAMBDA_B))
    errors = identify_error_set(enc_biased, labeled, cfg)
    up_cfg = replace(cfg, lambda_up=SEMI_LAMBDA_UP)
    model = debiased_linear_eval(enc_main, labeled, errors, up_cfg)
    tuned = finetune_semisup(model, labeled, errors, up_cfg)
    scratch_cfg = ExperimentConfig(epochs=60, warmup_epochs=6, base_lr=1e-3,
                                   hidden_dims=(256, 256), weight_decay=1e-3,
                                   seed=seed)
    scratch, _ = erm_train(labeled, scratch_cfg)
    return evaluate(tuned, test).bias_conflict_acc, evaluate(scratch, test).bias_conflict_acc


@pytest.fixture(scope="module")
def semisup_runs():
    """_semisup_run per seed."""
    return run_jobs(_semisup_run, [(seed,) for seed in PIPELINE_SEEDS])


def test_low_label_pipeline_beats_training_from_scratch(semisup_runs, verdict):
    pipeline = float(np.mean([row[0] for row in semisup_runs]))
    scratch = float(np.mean([row[1] for row in semisup_runs]))
    verdict(
        "semi-supervised",
        pipeline - scratch >= 3.0,
        f"mean conflict acc pipeline={pipeline:.1f} scratch={scratch:.1f} "
        f"gap={pipeline - scratch:+.1f}",
    )


def _bias_metric_run(seed: int) -> list[float]:
    """Probe-accuracy ratio of an encoder pretrained at each penalty of
    METRIC_GRID. Pretraining data has independent shortcut and label so
    the two probes measure separate features."""
    cfg = _contrastive_cfg(seed)
    ds = gen_colorpoints(GenConfig(n=10000, classes=5, bias_ratio=METRIC_R,
                                   noise=METRIC_NOISE, seed=100 + seed,
                                   input_dim=7))
    probe_src = gen_colorpoints(GenConfig(n=4000, classes=5, bias_ratio=1.0,
                                          noise=METRIC_NOISE, seed=950 + seed,
                                          input_dim=7))
    probe = make_unbiased_testset(probe_src, seed=951 + seed)
    ratios = []
    for lam in METRIC_GRID:
        enc, _ = pretrain_biased(ds, replace(cfg, lambda_reg=lam))
        ratios.append(bias_metric(enc, probe, cfg))
    return ratios


@pytest.fixture(scope="module")
def bias_metric_grid():
    """Mean probe-accuracy ratio over the seeds, per penalty."""
    rows = run_jobs(_bias_metric_run, [(seed,) for seed in PIPELINE_SEEDS])
    return {lam: float(np.mean([row[i] for row in rows]))
            for i, lam in enumerate(METRIC_GRID)}


def test_bias_metric_rises_with_penalty_weight(bias_metric_grid, verdict):
    values = [bias_metric_grid[lam] for lam in METRIC_GRID]
    monotone = all(values[i] <= values[i + 1] + 1e-12 for i in range(3))
    verdict(
        "bias-metric-monotone",
        monotone,
        "mean probe ratio " + " -> ".join(f"{v:.3f}" for v in values),
    )


# ------------------------------------------------------------ determinism


def test_same_manifest_reruns_are_byte_identical(tmp_path, verdict, capsys):
    data_args = ["data", "gen", "--n", "480", "--classes", "4", "--bias-ratio",
                 "0.95", "--input-dim", "6", "--seed", "3",
                 "--out", str(tmp_path / "ds")]
    net = ["--batch-size", "64", "--latent-dim", "8", "--hidden-dims", "16,16",
           "--proj-hidden", "16", "--proj-dim", "8", "--head-iters", "80",
           "--epochs", "3", "--warmup-epochs", "1", "--seed", "5"]

    def run_all(tag):
        root = tmp_path / tag
        assert cli_main(["pretrain", "--data", str(tmp_path / "ds"), "--role",
                         "biased", "--lambda-reg", "0.1",
                         "--out", str(root / "pre"), *net]) == 0
        assert cli_main(["erm", "--data", str(tmp_path / "ds"),
                         "--out", str(root / "erm"), *net]) == 0
        assert cli_main(["debias", "--data", str(tmp_path / "ds"),
                         "--biased-ckpt", str(root / "pre" / "encoder.ckpt"),
                         "--main-ckpt", str(root / "erm" / "encoder.ckpt"),
                         "--lambda-up", "4", "--out", str(root / "deb"), *net]) == 0
        assert cli_main(["spectrum", "--ckpt", str(root / "pre" / "encoder.ckpt"),
                         "--data", str(tmp_path / "ds"),
                         "--out", str(root / "spec")]) == 0
        return root

    assert cli_main(data_args) == 0
    a = run_all("first")
    b = run_all("second")
    capsys.readouterr()
    targets = [
        "pre/encoder.ckpt", "pre/train_log.csv",
        "erm/encoder.ckpt", "erm/head.ckpt", "erm/train_log.csv",
        "erm/error_set.csv", "erm/metrics.json",
        "deb/head.ckpt", "deb/error_set.csv", "deb/metrics.json",
        "spec/spectrum.csv", "spec/correlation.csv", "spec/order.csv",
        "spec/report.json",
    ]
    differing = [t for t in targets if (a / t).read_bytes() != (b / t).read_bytes()]
    verdict(
        "determinism",
        not differing,
        f"{len(targets)} artifacts compared across independent reruns"
        + (f"; differing: {differing}" if differing else ""),
    )
