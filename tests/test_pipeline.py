"""Contract tests for the experiment pipeline: determinism, freezing,
degenerate identities and the metric definitions. Training quality is
exercised separately by the acceptance suite; everything here runs on
deliberately tiny configurations."""

import ast
import os
import pickle
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from rankdebias import pipeline
from rankdebias.data import BiasedDataset, GenConfig, gen_colorpoints
from rankdebias.nn import DenseNet, apply, forward
from rankdebias.pipeline import (
    ErrorSet,
    ExperimentConfig,
    MetricsReport,
    Model,
    bias_metric,
    debiased_linear_eval,
    erm_train,
    error_set_quality,
    evaluate,
    finetune_semisup,
    identify_error_set,
    pretrain_biased,
    pretrain_main,
    rank_trajectory,
    run_jobs,
    stream,
)

import helpers

pytestmark = pytest.mark.filterwarnings("ignore:.*groups are empty")


def tiny_cfg(**overrides) -> ExperimentConfig:
    base = dict(
        epochs=3,
        warmup_epochs=1,
        batch_size=32,
        base_lr=1e-3,
        hidden_dims=(16, 16),
        latent_dim=8,
        proj_hidden=16,
        proj_dim=8,
        head_iters=60,
        finetune_epochs=2,
        seed=7,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def tiny_ds(n=320, classes=4, r=0.9, seed=11) -> BiasedDataset:
    return gen_colorpoints(
        GenConfig(n=n, classes=classes, bias_ratio=r, seed=seed, input_dim=2 + classes)
    )


def params_equal(a, b) -> bool:
    return all(np.array_equal(x, y) for x, y in zip(a, b))


# ----------------------------------------------------------------- streams


def test_stream_is_deterministic():
    a = stream(3, "augment").standard_normal(5)
    b = stream(3, "augment").standard_normal(5)
    assert np.array_equal(a, b)


def test_streams_with_different_names_differ():
    a = stream(3, "augment").standard_normal(5)
    b = stream(3, "batches").standard_normal(5)
    assert not np.array_equal(a, b)


def test_streams_with_different_seeds_differ():
    a = stream(3, "augment").standard_normal(5)
    b = stream(4, "augment").standard_normal(5)
    assert not np.array_equal(a, b)


# ------------------------------------------------------------------ config


@pytest.mark.parametrize(
    "field, value",
    [
        ("lambda_reg", -0.1),
        ("lambda_up", 0.5),
        ("tau", 0.0),
        ("epochs", 0),
        ("batch_size", 2),
        ("warmup_epochs", 99),
        ("weight_decay", -1e-3),
        ("latent_dim", 1),
        ("head_iters", 0),
        ("finetune_epochs", -1),
        ("seed", -3),
        ("modality", "audio"),
        ("epochs", "3"),
        ("epochs", 40.5),
        ("lambda_up", "8"),
        ("seed", True),
        ("hidden_dims", 16),
        ("hidden_dims", (16, "16")),
        ("hidden_dims", (16, 0)),
        ("tau", float("nan")),
        ("lambda_up", float("inf")),
        ("base_lr", float("nan")),
    ],
)
def test_config_rejects_bad_values(field, value):
    with pytest.raises(ValueError, match=field):
        ExperimentConfig(**{field: value})


def test_error_set_rejects_duplicates_and_out_of_range():
    preds = np.zeros(10, dtype=np.int64)
    with pytest.raises(ValueError):
        ErrorSet(np.array([1, 1]), preds)
    with pytest.raises(ValueError):
        ErrorSet(np.array([10]), preds)
    with pytest.raises(ValueError):
        ErrorSet(np.array([-1]), preds)
    assert len(ErrorSet(np.array([0, 9]), preds)) == 2


def test_metrics_report_serializes_nan_as_none():
    rep = MetricsReport(50.0, 75.0, 60.0, [{"y": 0, "b": 0, "n": 3, "acc": 100.0}])
    d = rep.to_dict()
    assert d["precision"] is None and d["recall"] is None
    assert d["bias_conflict_acc"] == 50.0
    assert d["group_table"][0]["n"] == 3


# --------------------------------------------------------------- erm_train


def test_erm_train_is_deterministic():
    ds = tiny_ds()
    m1, log1 = erm_train(ds, tiny_cfg())
    m2, log2 = erm_train(ds, tiny_cfg())
    assert params_equal(m1.encoder.params(), m2.encoder.params())
    assert params_equal(m1.head.params(), m2.head.params())
    assert log1 == log2


def test_erm_train_log_shape_and_penalty_share():
    ds = tiny_ds()
    _, log = erm_train(ds, tiny_cfg())
    assert len(log) == 3
    assert all(row["rank_term"] == 0.0 for row in log)
    assert all(
        set(row) == {"epoch", "loss", "ce", "rank_term", "lr", "eff_rank"}
        for row in log
    )
    _, log_reg = erm_train(ds, tiny_cfg(lambda_reg=0.1))
    assert any(row["rank_term"] != 0.0 for row in log_reg)


def test_erm_train_lambda_sign_rejected():
    # lambda_reg reaches erm_train only through its config, which refuses it
    with pytest.raises(ValueError, match="lambda_reg"):
        erm_train(tiny_ds(), tiny_cfg(lambda_reg=-1.0))


def test_erm_train_reversed_target_learns_bias_label():
    # predicting b from the offset block is nearly trivial, so a short run
    # should beat chance by a wide margin
    ds = tiny_ds(n=400, r=0.5)
    model, _ = erm_train(
        ds, tiny_cfg(epochs=12, base_lr=3e-3), target="b"
    )
    acc = np.mean(model.predict(ds.inputs) == ds.b)
    assert acc > 0.5


def test_erm_train_rejects_unknown_target():
    with pytest.raises(ValueError):
        erm_train(tiny_ds(), tiny_cfg(), target="z")


def test_erm_train_divergence_aborts_with_diagnostic():
    # a absurd learning rate overflows the forward pass within a few steps
    ds = tiny_ds()
    with pytest.raises(RuntimeError, match="diverged"):
        erm_train(ds, tiny_cfg(base_lr=1e150, epochs=2))


# -------------------------------------------------------------- pretraining


def test_pretrain_main_equals_biased_at_lambda_zero():
    ds = tiny_ds()
    cfg = tiny_cfg(lambda_reg=0.0)
    enc_a, log_a = pretrain_biased(ds, cfg)
    enc_b, log_b = pretrain_main(ds, tiny_cfg(lambda_reg=0.7))
    assert params_equal(enc_a.params(), enc_b.params())
    assert log_a == log_b


def test_pretrain_never_reads_labels():
    ds = tiny_ds()
    rotated = BiasedDataset(
        ds.inputs,
        (ds.y + 1) % ds.num_classes,
        (ds.b + 1) % ds.num_bias_classes,
        ds.aligned,
        ds.bias_ratio,
        ds.num_classes,
        ds.num_bias_classes,
        dict(ds.meta),
    )
    enc_a, _ = pretrain_biased(ds, tiny_cfg(lambda_reg=0.2))
    enc_b, _ = pretrain_biased(rotated, tiny_cfg(lambda_reg=0.2))
    assert params_equal(enc_a.params(), enc_b.params())


def test_pretrain_is_deterministic_and_logs_rank():
    ds = tiny_ds()
    enc_a, log_a = pretrain_biased(ds, tiny_cfg(lambda_reg=0.3))
    enc_b, log_b = pretrain_biased(ds, tiny_cfg(lambda_reg=0.3))
    assert params_equal(enc_a.params(), enc_b.params())
    assert log_a == log_b
    assert all(set(row) == {"epoch", "loss", "eff_rank", "lr"} for row in log_a)


def test_pretrain_rejects_dataset_smaller_than_batch():
    with pytest.raises(ValueError, match="smaller than one batch"):
        pretrain_biased(tiny_ds(n=20), tiny_cfg())


@pytest.mark.parametrize("shape", [None, [3, 2, 2]], ids=["no-image-shape", "other-width"])
def test_image_pretraining_refuses_rows_that_are_not_its_images(shape):
    ds = tiny_ds()  # rows of width 6
    if shape is not None:
        ds.meta["image_shape"] = shape
    with pytest.raises(ValueError, match="^dataset: .*image_shape"):
        pretrain_biased(ds, tiny_cfg(modality="cmnist-image"))


# ---------------------------------------------------------------- error set


def test_identify_error_set_matches_prediction_snapshot():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_biased(ds, cfg)
    es = identify_error_set(enc, ds, cfg)
    assert np.array_equal(es.indices, np.flatnonzero(es.predictions != ds.y))
    # the snapshot really is the trained head's argmax over the labeled set
    assert es.predictions.shape == (len(ds),)


def test_identify_error_set_rejects_empty_set():
    ds = tiny_ds().take(np.array([], dtype=np.int64))
    enc = DenseNet.init([ds.inputs.shape[1], 8], np.random.default_rng(0))
    with pytest.raises(ValueError, match="empty"):
        identify_error_set(enc, ds, tiny_cfg())


def test_upweighted_fits_reject_an_empty_labeled_set():
    ds = tiny_ds().take(np.array([], dtype=np.int64))
    enc = DenseNet.init([ds.inputs.shape[1], 8], np.random.default_rng(0))
    model = Model(enc, DenseNet.init([8, ds.num_classes], np.random.default_rng(1)))
    with pytest.raises(ValueError, match="labeled set is empty"):
        debiased_linear_eval(enc, ds, None, tiny_cfg())
    with pytest.raises(ValueError, match="labeled set is empty"):
        finetune_semisup(model, ds, None, tiny_cfg())


def test_identify_error_set_names_dims_on_mismatch():
    ds = tiny_ds()
    enc = DenseNet.init([3, 8], np.random.default_rng(0))
    with pytest.raises(ValueError, match=r"batch shape \(320, 6\) does not match input dim 3"):
        identify_error_set(enc, ds, tiny_cfg())


# ------------------------------------------------------------- linear eval


def test_debiased_linear_eval_leaves_encoder_untouched():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    before = [p.copy() for p in enc.params()]
    es = ErrorSet(np.arange(5), np.zeros(len(ds), dtype=np.int64))
    model = debiased_linear_eval(enc, ds, es, cfg)
    assert params_equal(enc.params(), before)
    assert model.encoder is enc


def test_debiased_linear_eval_unit_weight_matches_plain():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    empty = ErrorSet(np.array([], dtype=np.int64), np.zeros(len(ds), dtype=np.int64))
    unit = replace(cfg, lambda_up=1.0)
    m_none = debiased_linear_eval(enc, ds, None, unit)
    m_empty = debiased_linear_eval(enc, ds, empty, cfg)
    m_unit = debiased_linear_eval(enc, ds, identify_error_set(enc, ds, cfg), unit)
    assert params_equal(m_none.head.params(), m_empty.head.params())
    assert params_equal(m_none.head.params(), m_unit.head.params())


def test_debiased_linear_eval_rejects_stale_error_set():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    stale = ErrorSet(np.array([0]), np.zeros(len(ds) - 1, dtype=np.int64))
    with pytest.raises(ValueError, match="error set built for"):
        debiased_linear_eval(enc, ds, stale, cfg)


def test_upweighted_fits_reject_bad_upweighting_before_training(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(pipeline, "_fit", refuse)
    ds = tiny_ds()
    cfg = tiny_cfg()
    zero_up = tiny_cfg()
    zero_up.lambda_up = 0.0  # assigned after construction, past the config's own check
    enc = DenseNet.init([ds.inputs.shape[1], 16, 8], np.random.default_rng(0))
    model = Model(enc, DenseNet.init([8, ds.num_classes], np.random.default_rng(1)))
    es = ErrorSet(np.arange(5), np.zeros(len(ds), dtype=np.int64))
    duplicated = ErrorSet(np.arange(5), np.zeros(len(ds), dtype=np.int64))
    duplicated.indices = np.array([1, 2, 2])
    for error_set, c, match in ((es, zero_up, "lambda_up"), (duplicated, cfg, "unique")):
        with pytest.raises(ValueError, match=match):
            debiased_linear_eval(enc, ds, error_set, c)
        with pytest.raises(ValueError, match=match):
            finetune_semisup(model, ds, error_set, c)


def test_stage2_trainers_return_a_model_and_score_nothing(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a trainer scored its model")

    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    es = identify_error_set(enc, ds, cfg)
    monkeypatch.setattr(pipeline, "evaluate", refuse)
    model = debiased_linear_eval(enc, ds, es, cfg)
    tuned = finetune_semisup(model, ds, es, cfg)
    assert isinstance(model, Model) and isinstance(tuned, Model)


# ---------------------------------------------------------------- finetune


def test_finetune_zero_epochs_returns_equal_model():
    ds = tiny_ds()
    cfg = tiny_cfg(finetune_epochs=0)
    enc, _ = pretrain_main(ds, cfg)
    model = debiased_linear_eval(enc, ds, None, cfg)
    tuned = finetune_semisup(model, ds, None, cfg)
    assert params_equal(tuned.encoder.params(), model.encoder.params())
    assert params_equal(tuned.head.params(), model.head.params())
    assert tuned.encoder is not model.encoder


def test_finetune_does_not_mutate_input_model():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    model = debiased_linear_eval(enc, ds, None, cfg)
    before_enc = [p.copy() for p in model.encoder.params()]
    before_head = [p.copy() for p in model.head.params()]
    es = identify_error_set(enc, ds, cfg)
    tuned = finetune_semisup(model, ds, es, cfg)
    assert params_equal(model.encoder.params(), before_enc)
    assert params_equal(model.head.params(), before_head)
    assert not params_equal(tuned.encoder.params(), before_enc)


def test_finetune_is_deterministic():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    model = debiased_linear_eval(enc, ds, None, cfg)
    t1 = finetune_semisup(model, ds, None, cfg)
    t2 = finetune_semisup(model, ds, None, cfg)
    assert params_equal(t1.encoder.params(), t2.encoder.params())
    assert params_equal(t1.head.params(), t2.head.params())


def test_finetune_rejects_stale_error_set():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    model = debiased_linear_eval(enc, ds, None, cfg)
    stale = ErrorSet(np.array([0]), np.zeros(len(ds) + 5, dtype=np.int64))
    with pytest.raises(ValueError, match="error set built for"):
        finetune_semisup(model, ds, stale, cfg)


# ------------------------------------------------------- whole-step oracle


class _FirstStepTaken(Exception):
    pass


def first_step(monkeypatch, train) -> dict:
    """What _fit's first step inside train() sees: the nets before the step,
    the batch indices, the rows fed to the first net (augmented views
    included), the objective and the flat_grads handed to the optimizer,
    which stops the training."""
    seen = {}
    fit = pipeline._fit

    def spy_fit(nets, rows, epochs, objective, opt, *args):
        def spy_rows(idx):
            seen["idx"], seen["rows"] = idx, rows(idx)
            return seen["rows"]

        seen["nets"], seen["objective"] = [net.copy() for net in nets], objective
        return fit(nets, spy_rows, epochs, objective, opt, *args)

    def stop(params, flat_grads, *args, **kwargs):
        seen["grads"] = [g.copy() for g in flat_grads]
        raise _FirstStepTaken

    monkeypatch.setattr(pipeline, "_fit", spy_fit)
    monkeypatch.setattr(pipeline, "adam_step", stop)
    monkeypatch.setattr(pipeline, "sgd_momentum_step", stop)
    with pytest.raises(_FirstStepTaken):
        train()
    return seen


def step_objective(seen) -> float:
    h = seen["rows"]
    outs = []
    for net in seen["nets"]:
        h, _ = forward(net, h)
        outs.append(h)
    return seen["objective"](seen["idx"], outs)[0]


@pytest.mark.parametrize("case", ["erm", "pretrain", "upweighted-head"])
def test_first_step_gradients_match_central_differences(monkeypatch, case):
    # the whole step: chained backward, the rank term's extra gradient on
    # the first net's output, and the upweighted loss
    cfg = tiny_cfg(lambda_reg=0.5, lambda_up=4.0, batch_size=8, hidden_dims=(5,),
                   latent_dim=4, proj_hidden=5, proj_dim=3)
    ds = tiny_ds(n=40, classes=3)
    if case == "erm":
        seen = first_step(monkeypatch, lambda: erm_train(ds, cfg))
    elif case == "pretrain":
        seen = first_step(monkeypatch, lambda: pretrain_biased(ds, cfg))
    else:
        reps = np.random.default_rng(2).standard_normal((40, 4))
        error_set = ErrorSet(np.arange(0, 40, 3), np.zeros(40, dtype=np.int64))
        seen = first_step(monkeypatch, lambda: pipeline._train_head(
            reps, ds.y, 3, cfg, "oracle-head", error_set=error_set))
    assert len(seen["grads"]) == {"erm": 2, "pretrain": 2, "upweighted-head": 1}[case]
    for net, grad in zip(seen["nets"], seen["grads"]):
        start = net.flat.copy()

        def objective_at(flat):
            net.flat[:] = flat
            try:
                return step_objective(seen)
            finally:
                net.flat[:] = start

        assert helpers.rel_err(grad, helpers.central_diff(objective_at, start)) < 1e-6


# ---------------------------------------------------------------- evaluate


def onehot_dataset():
    """Inputs are [onehot(y), 2 * onehot(b)]: both labels linearly exposed."""
    rng = np.random.default_rng(5)
    n, C = 240, 3
    y = rng.integers(0, C, n)
    b = rng.integers(0, C, n)
    inputs = np.zeros((n, 2 * C))
    inputs[np.arange(n), y] = 1.0
    inputs[np.arange(n), C + b] = 2.0
    aligned = b == y
    return BiasedDataset(inputs, y, b, aligned, float(aligned.mean()), C, C, {})


def linear_net(W) -> DenseNet:
    """A single affine layer with weight W and zero bias."""
    return DenseNet(list(W.shape), np.r_[W.ravel(), np.zeros(W.shape[1])])


def perfect_model(C=3) -> Model:
    """Reads y straight off the one-hot block; always correct on onehot_dataset."""
    enc = linear_net(np.vstack([np.eye(C), np.zeros((C, C))]))
    head = linear_net(np.eye(C))
    return Model(enc, head)


def biased_model(C=3) -> Model:
    """Reads b off the bias block instead: correct exactly on aligned samples."""
    enc = linear_net(np.vstack([np.zeros((C, C)), np.eye(C)]))
    head = linear_net(np.eye(C))
    return Model(enc, head)


def test_evaluate_perfect_model_scores_hundred_everywhere():
    ds = onehot_dataset()
    rep = evaluate(perfect_model(), ds)
    assert rep.bias_conflict_acc == 100.0
    assert rep.bias_aligned_acc == 100.0
    assert rep.unbiased_acc == 100.0
    assert all(g["acc"] == 100.0 for g in rep.group_table)


def test_evaluate_bias_only_model_splits_cleanly():
    ds = onehot_dataset()
    rep = evaluate(biased_model(), ds)
    assert rep.bias_aligned_acc == 100.0
    assert rep.bias_conflict_acc == 0.0
    assert abs(rep.unbiased_acc - 100.0 * ds.aligned.mean()) < 1e-12


def test_evaluate_unbiased_acc_is_group_weighted_mean():
    ds = tiny_ds(n=500, r=0.7)
    cfg = tiny_cfg()
    model, _ = erm_train(ds, cfg)
    rep = evaluate(model, ds)
    total = sum(g["n"] for g in rep.group_table)
    assert total == len(ds)
    weighted = sum(g["n"] * g["acc"] for g in rep.group_table) / total
    assert abs(weighted - rep.unbiased_acc) < 1e-9


def test_evaluate_omits_empty_groups():
    ds = onehot_dataset()
    keep = ~((ds.y == 0) & (ds.b == 1))
    sub = ds.take(np.flatnonzero(keep))
    rep = evaluate(perfect_model(), sub)
    assert all((g["y"], g["b"]) != (0, 1) for g in rep.group_table)
    assert len(rep.group_table) == 8


def test_evaluate_rejects_empty_testset():
    ds = onehot_dataset().take(np.array([], dtype=np.int64))
    with pytest.raises(ValueError, match="empty"):
        evaluate(perfect_model(), ds)


def test_evaluate_scores_an_error_set_on_the_set_it_was_built_on():
    labeled = onehot_dataset()
    test = labeled.take(np.arange(100))
    conflicting = np.flatnonzero(~labeled.aligned)
    es = ErrorSet(np.sort(np.r_[conflicting[::2], np.flatnonzero(labeled.aligned)[:7]]),
                  np.zeros(len(labeled), dtype=np.int64))
    plain = evaluate(biased_model(), test)
    assert np.isnan(plain.precision) and np.isnan(plain.recall)
    scored = evaluate(biased_model(), test, es, labeled)
    assert (scored.precision, scored.recall) == error_set_quality(es, labeled)
    unscored = replace(scored, precision=plain.precision, recall=plain.recall)
    assert unscored.to_dict() == plain.to_dict()
    # without a labeled set, the error set was built on the test set itself
    own = evaluate(biased_model(), labeled, es)
    assert (own.precision, own.recall) == error_set_quality(es, labeled)


# ------------------------------------------------------- error set quality


def test_error_set_quality_hand_example():
    ds = onehot_dataset()
    conflicting = np.flatnonzero(~ds.aligned)
    aligned = np.flatnonzero(ds.aligned)
    # two true conflicts plus two aligned false alarms
    es = ErrorSet(
        np.sort(np.concatenate([conflicting[:2], aligned[:2]])),
        np.zeros(len(ds), dtype=np.int64),
    )
    p, r = error_set_quality(es, ds)
    assert p == 50.0
    assert abs(r - 100.0 * 2 / conflicting.size) < 1e-12


def test_error_set_quality_empty_set():
    ds = onehot_dataset()
    es = ErrorSet(np.array([], dtype=np.int64), np.zeros(len(ds), dtype=np.int64))
    p, r = error_set_quality(es, ds)
    assert np.isnan(p)
    assert r == 0.0


def test_error_set_quality_perfect_set():
    ds = onehot_dataset()
    es = ErrorSet(np.flatnonzero(~ds.aligned), np.zeros(len(ds), dtype=np.int64))
    assert error_set_quality(es, ds) == (100.0, 100.0)


# -------------------------------------------------------------- bias metric


def test_bias_metric_bias_only_encoder_is_large():
    ds = onehot_dataset()
    C = 3
    enc = linear_net(np.vstack([np.zeros((C, C)), np.eye(C)]))
    cfg = tiny_cfg(head_iters=300)
    assert bias_metric(enc, ds, cfg) > 2.0


def test_bias_metric_balanced_encoder_is_near_one():
    ds = onehot_dataset()
    C = 3
    enc = linear_net(np.eye(2 * C))
    cfg = tiny_cfg(head_iters=300)
    m = bias_metric(enc, ds, cfg)
    assert 0.9 < m < 1.1


def test_bias_metric_is_deterministic():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_biased(ds, cfg)
    assert bias_metric(enc, ds, cfg) == bias_metric(enc, ds, cfg)


# ---------------------------------------------------------- rank trajectory


def test_rank_trajectory_rows_and_determinism():
    cfg = tiny_cfg()

    def make_ds(r):
        return tiny_ds(n=320, r=r, seed=21)

    def make_test():
        return tiny_ds(n=200, r=0.25, seed=22)

    rows = rank_trajectory([0.5, 0.9], make_ds, make_test, cfg)
    assert [row["r"] for row in rows] == [0.5, 0.9]
    assert all(set(row) == {"r", "eff_rank", "unbiased_acc"} for row in rows)
    assert all(np.isfinite(row["eff_rank"]) for row in rows)
    again = rank_trajectory([0.5, 0.9], make_ds, make_test, cfg)
    assert rows == again


# ------------------------------------------------------------------ run_jobs


@pytest.fixture
def spawned(monkeypatch):
    """The pids of the processes started during the test, which sees two
    usable cores unless it patches _usable_cores again."""
    pids = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pids.append(self.pid)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 2)
    return pids


def assert_reaped(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)


def test_run_jobs_returns_results_in_job_order(spawned, capsys):
    # worker 1 finishes both its jobs while worker 0 still sleeps
    jobs = [("a", 0.5), ("b", 0.0), ("c", 0.2), ("d", 0.0)]
    assert run_jobs(helpers.echo_job, jobs) == ["a", "b", "c", "d"]
    assert len(spawned) == 2
    assert_reaped(spawned)
    # the jobs' prints reach this process's sys.stderr, worker by worker
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["job 'a' ran", "job 'c' ran",
                                         "job 'b' ran", "job 'd' ran"]


def test_run_jobs_workers_run_one_blas_thread_each(spawned):
    before = os.environ.get("OPENBLAS_NUM_THREADS")
    results = run_jobs(helpers.worker_pid_and_blas_threads, [(), (), ()])
    assert [threads for _, threads in results] == ["1", "1", "1"]
    # jobs 0 and 2 share worker 0
    assert results[0][0] == results[2][0] == spawned[0]
    assert results[1][0] == spawned[1]
    assert os.environ.get("OPENBLAS_NUM_THREADS") == before
    # a staticmethod travels by its dotted qualified name, Jobs.worker_pid
    assert run_jobs(helpers.Jobs.worker_pid, [(), ()]) == spawned[2:]
    assert_reaped(spawned)


def test_run_jobs_reraises_the_first_failure_in_job_order(spawned, capsys):
    # job 2 fails first in time, job 1 first in job order
    jobs = [("a",), ("b", 0.3, TypeError("b broke")), ("c", 0.0, ValueError("c broke"))]
    with pytest.raises(TypeError, match="b broke"):
        run_jobs(helpers.echo_job, jobs)
    assert len(spawned) == 2
    assert_reaped(spawned)
    # both workers' tracebacks were passed on
    err = capsys.readouterr().err
    assert "TypeError: b broke" in err and "ValueError: c broke" in err


def test_run_jobs_names_the_exit_code_of_a_dead_worker(spawned):
    with pytest.raises(RuntimeError, match="code 3"):
        run_jobs(helpers.echo_job, [("a",), ("b", 0.0, None, 3)])
    assert_reaped(spawned)


def test_run_jobs_starts_no_worker_when_a_job_cannot_be_pickled(spawned):
    # worker 0's job could be sent, worker 1's cannot: every payload is
    # pickled before the first worker starts
    with pytest.raises(TypeError, match="pickle"):
        run_jobs(helpers.echo_job, [("a", 5.0), ((i for i in ()),)])
    assert spawned == []


def test_run_jobs_refuses_functions_a_worker_cannot_import(spawned, monkeypatch):
    monkeypatch.setattr(helpers.echo_job, "__module__", "__main__")
    with pytest.raises(ValueError, match="__main__"):
        run_jobs(helpers.echo_job, [("a",), ("b",)])
    with pytest.raises((pickle.PicklingError, AttributeError), match="pickle"):
        run_jobs(lambda x: x, [(1,), (2,)])
    assert spawned == []
    # one job, or one usable core, runs in this process, where any callable will do
    assert run_jobs(lambda x: x, [(1,)]) == [1]
    monkeypatch.setattr(pipeline, "_usable_cores", lambda: 1)
    assert run_jobs(lambda x: x + 1, [(1,), (2,)]) == [2, 3]
    assert spawned == []


# a script whose job arguments are instances of a class its __main__ defines
MAIN_JOB_ARGS_SCRIPT = """
import subprocess
from rankdebias import pipeline

class Point:
    def __init__(self, x):
        self.x = x

started = []

class Recorded(subprocess.Popen):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        started.append(self.pid)

subprocess.Popen = Recorded
pipeline._usable_cores = lambda: 2
try:
    pipeline.run_jobs(repr, [(Point(1),), (Point(2),)])
except ValueError as exc:
    print(f"ValueError: {exc}")
print(f"workers started: {len(started)}")
"""


def test_run_jobs_refuses_job_arguments_defined_in_main():
    done = subprocess.run([sys.executable, "-c", MAIN_JOB_ARGS_SCRIPT],
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    error, started = done.stdout.splitlines()
    assert error.startswith("ValueError: run_jobs: <__main__.Point object")
    assert "defined in __main__" in error
    assert started == "workers started: 0"


BANNED_MODULES = ("multiprocessing", "concurrent.futures")


def banned_imports(source: str) -> list[str]:
    """"<line>: <module>" for each import in source of a BANNED_MODULES
    module or of one inside it."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]
        else:
            continue
        found += [f"{node.lineno}: {name}" for name in names
                  if any(name == m or name.startswith(m + ".") for m in BANNED_MODULES)]
    return found


def test_the_package_imports_no_multiprocessing():
    # run_jobs starts fresh interpreters through subprocess, and nothing else
    # in the package starts a process or a pool
    sources = sorted(Path(pipeline.__file__).parent.glob("*.py"))
    assert "pipeline.py" in {p.name for p in sources}
    assert {p.name: banned_imports(p.read_text()) for p in sources} == \
        {p.name: [] for p in sources}


@pytest.mark.parametrize("source", [
    "import multiprocessing", "import multiprocessing.pool as mp",
    "from multiprocessing import Pool", "from concurrent import futures",
    "import concurrent.futures", "from concurrent.futures import ProcessPoolExecutor",
    "def f():\n    import multiprocessing",
])
def test_banned_imports_finds_every_spelling(source):
    assert banned_imports(source) != []
    assert banned_imports("import subprocess\nfrom concurrent import other\n") == []


@pytest.mark.parametrize("files, limit", [
    ({}, None),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, None),
    ({"cpu/cpu.cfs_quota_us": "300000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 3),
])
def test_cgroup_cpu_limit_reads_the_quota(tmp_path, monkeypatch, files, limit):
    for name, text in files.items():
        (tmp_path / name).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(pipeline, "_CGROUP", tmp_path)
    assert pipeline._cgroup_cpu_limit() == limit


def test_usable_cores_is_capped_by_the_cgroup_quota(monkeypatch):
    monkeypatch.setattr(pipeline, "_cgroup_cpu_limit", lambda: None)
    cores = pipeline._usable_cores()
    assert cores >= 1
    monkeypatch.setattr(pipeline, "_cgroup_cpu_limit", lambda: 1)
    assert pipeline._usable_cores() == 1
    monkeypatch.setattr(pipeline, "_cgroup_cpu_limit", lambda: cores + 5)
    assert pipeline._usable_cores() == cores
