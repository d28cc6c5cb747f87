"""Contract tests for the experiment pipeline: determinism, freezing,
degenerate identities and the metric definitions. Training quality is
exercised separately by the acceptance suite; everything here runs on
deliberately tiny configurations."""

import ast
import os
import pickle
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rankdebias
from rankdebias import pipeline
from rankdebias.data import BiasedDataset, GenConfig, gen_colorpoints
from rankdebias.nn import _STEP_BLOCK, DenseNet, apply, forward
from rankdebias.pipeline import (
    ErrorSet,
    ExperimentConfig,
    MetricsReport,
    Model,
    debiased_linear_eval,
    erm_train,
    error_set_quality,
    evaluate,
    finetune_semisup,
    identify_error_set,
    pretrain_biased,
    pretrain_main,
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
    assert np.array_equal(m1.encoder.flat, m2.encoder.flat)
    assert np.array_equal(m1.head.flat, m2.head.flat)
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
    assert np.array_equal(enc_a.flat, enc_b.flat)
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
    assert np.array_equal(enc_a.flat, enc_b.flat)


def test_pretrain_is_deterministic_and_logs_rank():
    ds = tiny_ds()
    enc_a, log_a = pretrain_biased(ds, tiny_cfg(lambda_reg=0.3))
    enc_b, log_b = pretrain_biased(ds, tiny_cfg(lambda_reg=0.3))
    assert np.array_equal(enc_a.flat, enc_b.flat)
    assert log_a == log_b
    assert all(set(row) == {"epoch", "loss", "eff_rank", "lr"} for row in log_a)


def test_pretraining_reads_tau():
    # no other test runs a non-default tau, so a hard-coded default would pass them
    ds = tiny_ds()
    enc_a, _ = pretrain_biased(ds, tiny_cfg(lambda_reg=0.3))
    enc_b, _ = pretrain_biased(ds, tiny_cfg(lambda_reg=0.3, tau=0.2))
    assert enc_a.flat.tobytes() != enc_b.flat.tobytes()


def test_pretrain_rejects_dataset_smaller_than_batch():
    with pytest.raises(ValueError, match="dataset of 20 samples is too small to train on: "
                                         "a batch needs at least 32"):
        pretrain_biased(tiny_ds(n=20), tiny_cfg())


def _old_epoch_batches(n, batch_size, rng, drop_small):
    """The epoch trainers' batch generator before _epochs took its place,
    kept as the reference for the batches _epochs cuts."""
    order = rng.permutation(n)
    for start in range(0, n, batch_size):
        idx = order[start:start + batch_size]
        if idx.size >= drop_small:
            yield idx


@pytest.mark.parametrize("drop_small", [2, 8])
@pytest.mark.parametrize("remainder", [0, 1, 2, 7])
def test_epochs_count_and_cut_the_batches_of_the_old_generator(drop_small, remainder):
    batch_size, epochs = 8, 3
    n = 5 * batch_size + remainder
    steps, got = pipeline._epochs(n, batch_size, epochs, stream(7, "batches"), drop_small)
    old_rng = stream(7, "batches")
    want = [[idx.tolist() for idx in _old_epoch_batches(n, batch_size, old_rng, drop_small)]
            for _ in range(epochs)]
    got = [[idx.tolist() for idx in batches] for batches in got]
    assert [len(batches) for batches in got] == [steps] * epochs
    assert got == want


def test_cosine_schedules_end_on_their_last_step():
    # 330 rows in batches of 32: erm trains a trailing batch of 10, pretraining drops it
    ds, cfg = tiny_ds(n=330), tiny_cfg()
    _, erm_log = erm_train(ds, cfg)
    _, pretrain_log = pretrain_biased(ds, cfg)
    assert erm_log[-1]["lr"] == 0.0
    assert pretrain_log[-1]["lr"] == 0.0


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 40), st.data(), st.floats(0.0, 10.0), st.integers(1, 25))
def test_cosine_adam_lr_is_finite_and_within_0_base_lr_on_every_step(
        epochs, data, base_lr, steps_per_epoch):
    # the config's own checks are the schedule's only bounds
    warmup = data.draw(st.integers(0, epochs - 1))
    cfg = tiny_cfg(epochs=epochs, warmup_epochs=warmup, base_lr=base_lr)
    opt = pipeline._cosine_adam(cfg, steps_per_epoch)
    total = epochs * steps_per_epoch
    lrs = np.array([opt.lr(step) for step in range(total + 1)])
    assert np.isfinite(lrs).all()
    assert ((lrs >= 0.0) & (lrs <= base_lr)).all()
    assert lrs[-1] == 0.0


def test_trainers_refuse_a_set_too_small_for_one_batch_with_one_error():
    ds, cfg = tiny_ds(), tiny_cfg()
    one_row = ds.take([0])
    model = Model(DenseNet.init([ds.input_dim, 8], np.random.default_rng(0)),
                  DenseNet.init([8, ds.num_classes], np.random.default_rng(1)))
    match = "too small to train on"
    with pytest.raises(ValueError, match=match):
        erm_train(one_row, cfg)
    with pytest.raises(ValueError, match=match):
        pretrain_biased(ds.take(np.arange(cfg.batch_size - 1)), cfg)
    with pytest.raises(ValueError, match=match):
        finetune_semisup(model, one_row, None, cfg)


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
    before = enc.flat.copy()
    es = ErrorSet(np.arange(5), np.zeros(len(ds), dtype=np.int64))
    model = debiased_linear_eval(enc, ds, es, cfg)
    assert np.array_equal(enc.flat, before)
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
    assert np.array_equal(m_none.head.flat, m_empty.head.flat)
    assert np.array_equal(m_none.head.flat, m_unit.head.flat)


def test_head_fits_read_head_lr():
    # no other test runs a non-default head_lr, so a hard-coded default would pass them
    ds = tiny_ds()
    enc = DenseNet.init([ds.input_dim, 8], np.random.default_rng(0))
    model_a = debiased_linear_eval(enc, ds, None, tiny_cfg())
    model_b = debiased_linear_eval(enc, ds, None, tiny_cfg(head_lr=3e-2))
    assert model_a.head.flat.tobytes() != model_b.head.flat.tobytes()


def test_head_fits_check_every_label_before_the_first_step(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("training started")

    monkeypatch.setattr(pipeline, "_fit", refuse)
    reps = np.random.default_rng(3).normal(size=(50, 4))
    labels = np.zeros(50, dtype=np.int64)
    labels[-1] = 3  # one label, which a short fit's draws may never reach
    with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\), got range \[0, 3\]"):
        pipeline._train_head(reps, labels, 3, tiny_cfg(head_iters=1), "h")


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
    assert np.array_equal(tuned.encoder.flat, model.encoder.flat)
    assert np.array_equal(tuned.head.flat, model.head.flat)
    assert tuned.encoder is not model.encoder


def test_finetune_does_not_mutate_input_model():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    model = debiased_linear_eval(enc, ds, None, cfg)
    before_enc = model.encoder.flat.copy()
    before_head = model.head.flat.copy()
    es = identify_error_set(enc, ds, cfg)
    tuned = finetune_semisup(model, ds, es, cfg)
    assert np.array_equal(model.encoder.flat, before_enc)
    assert np.array_equal(model.head.flat, before_head)
    assert not np.array_equal(tuned.encoder.flat, before_enc)


def test_finetune_is_deterministic():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    model = debiased_linear_eval(enc, ds, None, cfg)
    t1 = finetune_semisup(model, ds, None, cfg)
    t2 = finetune_semisup(model, ds, None, cfg)
    assert np.array_equal(t1.encoder.flat, t2.encoder.flat)
    assert np.array_equal(t1.head.flat, t2.head.flat)


def test_finetune_rejects_stale_error_set():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_main(ds, cfg)
    model = debiased_linear_eval(enc, ds, None, cfg)
    stale = ErrorSet(np.array([0]), np.zeros(len(ds) + 5, dtype=np.int64))
    with pytest.raises(ValueError, match="error set built for"):
        finetune_semisup(model, ds, stale, cfg)


# ------------------------------------------------------- whole-step oracle


class _StepTaken(Exception):
    pass


def watch_step(monkeypatch, train, at: int = 0) -> dict:
    """What _fit's step number `at` (0 for the first) inside train() sees:
    the nets before the step, the batch indices, the rows fed to the first
    net (augmented views included), the objective and the flat_grads
    handed to the optimizer, which then stops the training. Earlier steps
    run in full; "sizes" lists the batch size of every step so far."""
    seen = {"sizes": []}
    fit = pipeline._fit

    def spy_fit(nets, rows, epochs, objective, opt, *args):
        def spy_rows(idx):
            seen["nets"] = [net.copy() for net in nets]
            seen["idx"], seen["rows"] = idx, rows(idx)
            seen["sizes"].append(len(idx))
            return seen["rows"]

        seen["objective"] = objective
        return fit(nets, spy_rows, epochs, objective, opt, *args)

    def stop_at(real):
        def step(params, flat_grads, *args, **kwargs):
            if len(seen["sizes"]) > at:
                seen["grads"] = [g.copy() for g in flat_grads]
                raise _StepTaken
            real(params, flat_grads, *args, **kwargs)

        return step

    monkeypatch.setattr(pipeline, "_fit", spy_fit)
    for name in ("adam_step", "sgd_momentum_step"):
        monkeypatch.setattr(pipeline, name, stop_at(getattr(pipeline, name)))
    with pytest.raises(_StepTaken):
        train()
    return seen


def step_objective(seen) -> float:
    h = seen["rows"]
    outs = []
    for net in seen["nets"]:
        h, _ = forward(net, h)
        outs.append(h)
    return seen["objective"](seen["idx"], outs)[0]


@pytest.mark.parametrize("case", ["erm", "pretrain", "upweighted-head",
                                  "erm-after-short-batch"])
def test_first_step_gradients_match_central_differences(monkeypatch, case):
    # the whole step: chained backward, the rank term's extra gradient on
    # the first net's output, and the upweighted loss; after a short
    # batch, a step must not see anything the one before it left behind
    cfg = tiny_cfg(lambda_reg=0.5, lambda_up=4.0, batch_size=8, hidden_dims=(5,),
                   latent_dim=4, proj_hidden=5, proj_dim=3)
    ds = tiny_ds(n=40, classes=3)
    if case == "erm":
        seen = watch_step(monkeypatch, lambda: erm_train(ds, cfg))
    elif case == "pretrain":
        seen = watch_step(monkeypatch, lambda: pretrain_biased(ds, cfg))
    elif case == "upweighted-head":
        reps = np.random.default_rng(2).standard_normal((40, 4))
        error_set = ErrorSet(np.arange(0, 40, 3), np.zeros(40, dtype=np.int64))
        seen = watch_step(monkeypatch, lambda: pipeline._train_head(
            reps, ds.y, 3, cfg, "oracle-head", error_set=error_set))
    else:
        # 43 rows in batches of 8: epoch 1 ends on a batch of 3, and the
        # step checked is epoch 2's first
        seen = watch_step(monkeypatch, lambda: erm_train(tiny_ds(n=43, classes=3), cfg), at=6)
        assert seen["sizes"] == [8] * 5 + [3, 8]
    assert len(seen["grads"]) == {"erm": 2, "pretrain": 2, "upweighted-head": 1,
                                  "erm-after-short-batch": 2}[case]
    for net, grad in zip(seen["nets"], seen["grads"]):
        start = net.flat.copy()

        def objective_at(flat):
            net.flat[:] = flat
            try:
                return step_objective(seen)
            finally:
                net.flat[:] = start

        assert helpers.rel_err(grad, helpers.central_diff(objective_at, start)) < 1e-6


# ------------------------------------------------------- warm-step memory


def warm_step_peak(monkeypatch, train) -> int:
    """The most memory train() holds, under tracemalloc, from the end of its
    first optimizer step on. train runs once untraced first, so that lazy
    imports and caches are in place; what it was given before tracing
    starts, the dataset, is not counted."""
    train()
    peaks = []
    adam = pipeline.adam_step

    def step_then_mark(*args, **kwargs):
        adam(*args, **kwargs)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()

    monkeypatch.setattr(pipeline, "adam_step", step_then_mark)
    tracemalloc.start()
    try:
        train()
        peaks.append(tracemalloc.get_traced_memory()[1])
    finally:
        tracemalloc.stop()
    assert len(peaks) > 3
    return max(peaks[1:])


def fit_state_bytes(*nets: DenseNet) -> int:
    """What a fit under Adam keeps between steps: each net's parameters,
    two moments and a gradient, and two blocks of optimizer scratch."""
    sizes = [net.flat.size for net in nets]
    return 8 * (4 * sum(sizes) + 2 * min(_STEP_BLOCK, max(sizes)))


def test_a_warm_image_pretraining_step_holds_one_step(monkeypatch):
    B, (c, h, w) = 64, (3, 28, 28)
    D = c * h * w
    rng = np.random.default_rng(40)
    y = rng.integers(0, 3, 256)
    ds = BiasedDataset(rng.random((256, D)), y, y, np.ones(256, dtype=bool), 1.0, 3, 3,
                       {"image_shape": [c, h, w]})
    cfg = tiny_cfg(epochs=2, batch_size=B, hidden_dims=(64,), latent_dim=16, proj_hidden=32,
                   proj_dim=16, lambda_reg=0.1, modality="cmnist-image")
    peak = warm_step_peak(monkeypatch, lambda: pretrain_biased(ds, cfg))
    state = fit_state_bytes(DenseNet([D, 64, 16]), DenseNet([16, 32, 16]))
    # a step peaks while it builds its batch: the B rows it reads, the
    # two views, and augment_image_batch's three working arrays of B
    # images, with 256 kB for the draws and index arrays; the 2B rows'
    # activations and the contrastive loss's 2B x 2B matrices come after
    # the augmentation's arrays are freed. The bound sits about 0.5 MB
    # above the peak, and a step kept alive into the next one's batch
    # would add its 2B rows, 2.4 MB.
    step = 8 * 6 * B * D + (1 << 18)
    assert peak < state + step, (peak, state, step)


def test_a_warm_erm_step_holds_one_step(monkeypatch):
    B, dims = 128, [5, 256, 256, 64]
    ds = tiny_ds(n=1024, classes=3)
    cfg = tiny_cfg(epochs=2, batch_size=B, hidden_dims=tuple(dims[1:-1]),
                   latent_dim=dims[-1], lambda_reg=0.1)
    peak = warm_step_peak(monkeypatch, lambda: erm_train(ds, cfg))
    state = fit_state_bytes(DenseNet(dims), DenseNet([dims[-1], 3]))
    # forward keeps the batch and every layer's output, the logits
    # included; backward adds two deltas as wide as the widest layer; the
    # rank penalty and the gradient on the representation take six copies
    # of the B x 64 outputs. The bound sits about 0.25 MB above the peak,
    # and a step kept alive would add its outputs, 0.6 MB.
    step = 8 * B * (sum(dims) + 3 + 2 * max(dims) + 6 * dims[-1])
    assert peak < state + step, (peak, state, step)


def test_a_warm_head_step_holds_one_step(monkeypatch):
    B, n, width, classes = 512, 4000, 64, 3
    rng = np.random.default_rng(41)
    reps, labels = rng.normal(size=(n, width)), rng.integers(0, classes, n)
    cfg = tiny_cfg(head_iters=6, batch_size=B)
    peak = warm_step_peak(monkeypatch,
                          lambda: pipeline._train_head(reps, labels, classes, cfg, "h"))
    # the upweighted loss's per-sample weights are made once, before the
    # first step
    state = fit_state_bytes(DenseNet([width, classes])) + 8 * n
    # the batch's rows, the cross-entropy's B x classes arrays and 64 kB
    # for its index arrays. The bound sits about 75 kB above the peak, and
    # a step kept alive would add its rows, 256 kB.
    step = 8 * B * (width + 8 * classes) + (1 << 16)
    assert peak < state + step, (peak, state, step)


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
    # the table equals, bit for bit, one masked mean per present (y, b) cell
    correct = model.predict(ds.inputs) == ds.y
    cells = [(yv, bv, (ds.y == yv) & (ds.b == bv))
             for yv in range(ds.num_classes) for bv in range(ds.num_bias_classes)]
    assert rep.group_table == [
        {"y": yv, "b": bv, "n": int(mask.sum()), "acc": 100.0 * float(correct[mask].mean())}
        for yv, bv, mask in cells if mask.any()]


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


def test_error_set_quality_refuses_a_set_built_on_another_set():
    labeled = onehot_dataset()
    test = labeled.take(np.arange(100))
    es = ErrorSet(np.flatnonzero(~labeled.aligned), np.zeros(len(labeled), dtype=np.int64))
    with pytest.raises(ValueError, match=f"error set built for {len(labeled)} samples, "
                                         "labeled set has 100"):
        error_set_quality(es, test)
    # evaluate scores the error set on test when labeled is left out
    with pytest.raises(ValueError, match="error set built for"):
        evaluate(biased_model(), test, es)


# -------------------------------------------------------------- bias metric


def test_bias_metric_bias_only_encoder_is_large():
    ds = onehot_dataset()
    C = 3
    enc = linear_net(np.vstack([np.zeros((C, C)), np.eye(C)]))
    cfg = tiny_cfg(head_iters=300)
    assert helpers.bias_metric(enc, ds, cfg) > 2.0


def test_bias_metric_balanced_encoder_is_near_one():
    ds = onehot_dataset()
    C = 3
    enc = linear_net(np.eye(2 * C))
    cfg = tiny_cfg(head_iters=300)
    m = helpers.bias_metric(enc, ds, cfg)
    assert 0.9 < m < 1.1


def test_bias_metric_is_deterministic():
    ds = tiny_ds()
    cfg = tiny_cfg()
    enc, _ = pretrain_biased(ds, cfg)
    assert helpers.bias_metric(enc, ds, cfg) == helpers.bias_metric(enc, ds, cfg)


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


def test_the_package_exports_exactly_the_names_its_init_binds():
    tree = ast.parse(Path(rankdebias.__file__).read_text())
    bound = {alias.asname or alias.name for node in tree.body
             if isinstance(node, ast.ImportFrom) for alias in node.names}
    bound |= {target.id for node in tree.body if isinstance(node, ast.Assign)
              for target in node.targets} - {"__all__"}
    assert sorted(rankdebias.__all__) == sorted(bound)
    namespace = {}
    exec("from rankdebias import *", namespace)
    assert all(namespace[name] is getattr(rankdebias, name) for name in rankdebias.__all__)


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
