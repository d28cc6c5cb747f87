"""Training objectives: cross-entropy, the upweighted variant, the
contrastive loss, and the combined pretraining loss."""

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from helpers import central_diff, per_sample_xent, reference_nt_xent, rel_err
from rankdebias.losses import (
    UpweightSpec,
    cross_entropy,
    debias_loss,
    nt_xent,
    stage1_loss,
)
from rankdebias.spectral import rank_loss

# ------------------------------------------------------------- cross_entropy


def test_cross_entropy_uniform_logits():
    loss, _ = cross_entropy(np.zeros((4, 10)), np.array([0, 3, 7, 9]))
    assert abs(loss - np.log(10.0)) < 1e-14


def test_cross_entropy_vanishes_with_margin():
    logits = np.full((3, 5), -50.0)
    labels = np.array([1, 2, 4])
    logits[np.arange(3), labels] = 50.0
    loss, _ = cross_entropy(logits, labels)
    assert loss < 1e-20


def test_cross_entropy_matches_per_sample_oracle():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(6, 4)) * 3.0
    labels = rng.integers(0, 4, 6)
    loss, _ = cross_entropy(logits, labels)
    np.testing.assert_allclose(loss, per_sample_xent(logits, labels).mean(),
                               rtol=1e-12)


def test_cross_entropy_grad_matches_finite_differences():
    rng = np.random.default_rng(1)
    logits = rng.normal(size=(4, 3))
    labels = rng.integers(0, 3, 4)
    _, grad = cross_entropy(logits, labels)
    fd = central_diff(lambda L: cross_entropy(L, labels)[0], logits)
    assert rel_err(grad, fd) < 1e-4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 8), st.integers(2, 6))
def test_cross_entropy_grad_sweep(seed, n, C):
    rng = np.random.default_rng(seed)
    logits = rng.normal(size=(n, C)) * 2.0
    labels = rng.integers(0, C, n)
    for weights in (None, rng.uniform(0.5, 8.0, n)):
        _, grad = cross_entropy(logits, labels, weights)
        fd = central_diff(lambda L: cross_entropy(L, labels, weights)[0], logits)
        assert rel_err(grad, fd) < 1e-4
        # shifting all logits of a row leaves softmax unchanged; a weight
        # scales its row, and so the row's rounding error
        scale = 1.0 if weights is None else weights.max()
        np.testing.assert_allclose(grad.sum(axis=1), 0.0, atol=1e-14 * scale)


def test_cross_entropy_rejects_bad_labels():
    with pytest.raises(ValueError, match="labels"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 3]))
    with pytest.raises(ValueError, match="labels"):
        cross_entropy(np.zeros((2, 3)), np.array([-1, 0]))
    with pytest.raises(ValueError):
        cross_entropy(np.zeros((2, 3)), np.array([0]))


@pytest.mark.parametrize("shape", [(3,), (2, 1), (1, 2), ()])
def test_cross_entropy_rejects_misshapen_weights(shape):
    with pytest.raises(ValueError, match="weights"):
        cross_entropy(np.zeros((2, 3)), np.array([0, 1]), np.ones(shape))


def test_weighted_cross_entropy_is_bitwise_debias_loss_on_repeated_rows():
    # a head step draws batch rows i.i.d., so a row can appear twice; the
    # per-sample weights of the whole labeled set indexed by the batch must
    # give what debias_loss gives for the error positions within the batch
    rng = np.random.default_rng(7)
    labels, errors, lam = rng.integers(0, 4, 12), np.array([1, 4, 7, 10]), 8.0
    idx = np.array([4, 0, 4, 7, 3, 3, 11, 1, 4, 9])
    logits = rng.normal(size=(idx.size, 4)) * 2.0
    weights = UpweightSpec(errors, lam).weights(labels.size)
    loss, grad = cross_entropy(logits, labels[idx], weights[idx])
    spec = UpweightSpec(np.flatnonzero(np.isin(idx, errors)), lam)
    ref_loss, ref_grad = debias_loss(logits, labels[idx], spec)
    assert loss == ref_loss
    np.testing.assert_array_equal(grad, ref_grad)


# --------------------------------------------------------------- debias_loss


def test_debias_lambda_one_is_bitwise_cross_entropy():
    rng = np.random.default_rng(2)
    logits = rng.normal(size=(8, 5))
    labels = rng.integers(0, 5, 8)
    base_loss, base_grad = cross_entropy(logits, labels)
    spec = UpweightSpec(np.array([1, 4, 6]), 1.0)
    loss, grad = debias_loss(logits, labels, spec)
    assert loss == base_loss
    np.testing.assert_array_equal(grad, base_grad)


def test_debias_empty_error_set_is_bitwise_cross_entropy():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 4))
    labels = rng.integers(0, 4, 6)
    base_loss, base_grad = cross_entropy(logits, labels)
    loss, grad = debias_loss(logits, labels, UpweightSpec(np.array([], dtype=np.int64), 10.0))
    assert loss == base_loss
    np.testing.assert_array_equal(grad, base_grad)


def test_debias_three_sample_hand_value():
    rng = np.random.default_rng(4)
    logits = rng.normal(size=(3, 4))
    labels = np.array([2, 0, 3])
    ell = per_sample_xent(logits, labels)
    loss, _ = debias_loss(logits, labels, UpweightSpec(np.array([0]), 10.0))
    np.testing.assert_allclose(loss, (10.0 * ell[0] + ell[1] + ell[2]) / 3.0,
                               rtol=1e-12)


def test_debias_monotone_in_upweight():
    rng = np.random.default_rng(5)
    logits = rng.normal(size=(5, 3))
    labels = rng.integers(0, 3, 5)
    E = np.array([1, 3])
    losses = [debias_loss(logits, labels, UpweightSpec(E, lam))[0]
              for lam in (1.0, 2.0, 4.0, 8.0)]
    assert all(b > a for a, b in zip(losses, losses[1:]))


def test_debias_grad_matches_finite_differences():
    rng = np.random.default_rng(6)
    logits = rng.normal(size=(5, 4))
    labels = rng.integers(0, 4, 5)
    spec = UpweightSpec(np.array([0, 2]), 8.0)
    _, grad = debias_loss(logits, labels, spec)
    fd = central_diff(lambda L: debias_loss(L, labels, spec)[0], logits)
    assert rel_err(grad, fd) < 1e-4


def test_debias_rejects_bad_error_sets():
    logits = np.zeros((3, 2))
    labels = np.array([0, 1, 0])
    with pytest.raises(ValueError, match="out of range"):
        debias_loss(logits, labels, UpweightSpec(np.array([3]), 2.0))
    with pytest.raises(ValueError, match="out of range"):
        debias_loss(logits, labels, UpweightSpec(np.array([-1]), 2.0))
    with pytest.raises(ValueError, match="unique"):
        UpweightSpec(np.array([1, 1]), 2.0)
    with pytest.raises(ValueError, match="lambda_up"):
        UpweightSpec(np.array([0]), 0.0)


# ------------------------------------------------------------------- nt_xent


def test_nt_xent_identical_embeddings_hit_log_bound():
    # uniform softmax over the 2n - 1 candidates
    z = np.full((4, 3), 0.7)
    loss, _ = nt_xent(z, tau=0.07)
    assert abs(loss - np.log(3.0)) <= 1e-12
    z6 = np.tile(np.array([1.0, 2.0, 0.5]), (6, 1))
    loss6, _ = nt_xent(z6, tau=0.5)
    assert abs(loss6 - np.log(5.0)) <= 1e-12


def test_nt_xent_aligned_positives_orthogonal_negatives():
    # rows [u, v, u, v] with u . v = 0, tau = 1: every anchor sees its
    # positive at similarity 1 and two negatives at 0
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 1.0, 0.0, 0.0])
    loss, _ = nt_xent(np.stack([u, v, u, v]), tau=1.0)
    np.testing.assert_allclose(loss, np.log(np.e + 2.0) - 1.0, rtol=1e-12)


def test_nt_xent_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    Z = rng.normal(size=(8, 5))
    _, grad = nt_xent(Z, tau=0.07)
    fd = central_diff(lambda W: nt_xent(W, 0.07)[0], Z)
    assert rel_err(grad, fd) < 1e-4


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 5), st.integers(2, 6),
       st.floats(0.05, 2.0))
def test_nt_xent_grad_sweep(seed, n, p, tau):
    Z = np.random.default_rng(seed).normal(size=(2 * n, p))
    _, grad = nt_xent(Z, tau)
    # on a near-flat draw (a tiny tau can saturate the softmax) the central
    # difference measures rounding, not the gradient; skip those
    assume(np.linalg.norm(grad) > 1e-6)
    fd = central_diff(lambda W: nt_xent(W, tau)[0], Z)
    assert rel_err(grad, fd) < 1e-4


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 70), st.integers(1, 40),
       st.floats(0.01, 2.0), st.sampled_from(["normal", "identical", "near-identical"]),
       st.sampled_from([1e-3, 1.0, 10.0]))
@example(0, 50, 8, 0.07, "normal", 1.0)  # --batch-size 100
@example(1, 12, 8, 0.07, "normal", 1.0)  # --batch-size 24
def test_nt_xent_is_byte_for_byte_the_contrastive_loss_with_its_own_softmax(
        seed, n, p, tau, rows, scale):
    # the gradient is divided by 2n * tau once: by 2n and then by tau
    # moves its last bits when 2n is not a power of two
    rng = np.random.default_rng(seed)
    Z = rng.normal(size=(2 * n, p)) * scale
    if rows != "normal":
        Z = Z[0] + (0.0 if rows == "identical" else 1e-9) * Z
    loss, grad = nt_xent(Z, tau)
    want_loss, want_grad = reference_nt_xent(Z, tau)
    assert np.float64(loss).tobytes() == np.float64(want_loss).tobytes()
    assert grad.tobytes() == want_grad.tobytes()


def test_nt_xent_takes_nans_where_its_own_softmax_does():
    # a NaN row: only the positions of the NaNs are compared, since the
    # row max may keep a NaN of another sign bit
    Z = np.random.default_rng(4).normal(size=(10, 5))
    Z[3, 1] = np.nan
    with np.errstate(invalid="ignore"):
        loss, grad = nt_xent(Z, 0.1)
        want_loss, want_grad = reference_nt_xent(Z, 0.1)
    assert np.isnan(loss) and np.isnan(want_loss)
    assert np.isnan(grad).any()
    np.testing.assert_array_equal(np.isnan(grad), np.isnan(want_grad))


def test_nt_xent_rotation_invariance():
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(10, 6))
    Q, _ = np.linalg.qr(rng.normal(size=(6, 6)))
    base, _ = nt_xent(Z, 0.07)
    rotated, _ = nt_xent(Z @ Q, 0.07)
    assert abs(base - rotated) < 1e-9


def test_nt_xent_rewards_positive_alignment():
    # keep pair (0, 2) in a private 2-plane so tightening it leaves every
    # other similarity untouched
    def batch(phi):
        e = np.eye(6)
        return np.stack([
            e[0],
            e[2],
            np.cos(phi) * e[0] + np.sin(phi) * e[1],
            e[3],
        ])

    tight, _ = nt_xent(batch(0.1), tau=0.5)
    loose, _ = nt_xent(batch(0.8), tau=0.5)
    assert tight < loose


def test_nt_xent_scale_invariance_of_rows():
    # cosine similarity ignores row norms
    rng = np.random.default_rng(9)
    Z = rng.normal(size=(6, 4))
    scales = rng.uniform(0.1, 10.0, (6, 1))
    a, _ = nt_xent(Z, 0.07)
    b, _ = nt_xent(Z * scales, 0.07)
    assert abs(a - b) < 1e-9


def test_nt_xent_rejects_degenerate_batches():
    with pytest.raises(ValueError, match="zero-norm"):
        nt_xent(np.array([[1.0, 0.0], [0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), 0.07)
    with pytest.raises(ValueError, match="2n"):
        nt_xent(np.ones((5, 3)), 0.07)
    with pytest.raises(ValueError, match="at least 2"):
        nt_xent(np.ones((2, 3)), 0.07)
    with pytest.raises(ValueError, match="temperature"):
        nt_xent(np.ones((4, 3)), 0.0)


# --------------------------------------------------------------- stage1_loss


def test_stage1_zero_reg_is_pure_contrastive():
    rng = np.random.default_rng(10)
    views = rng.normal(size=(8, 6))
    proj = rng.normal(size=(8, 4))
    nt_loss, nt_grad = nt_xent(proj, 0.07)
    loss, grad_views, grad_proj = stage1_loss(views, proj, 0.07, 0.0)
    assert loss == nt_loss
    np.testing.assert_array_equal(grad_proj, nt_grad)
    assert grad_views is None


def test_stage1_adds_weighted_rank_term():
    rng = np.random.default_rng(11)
    views = rng.normal(size=(8, 6))
    proj = rng.normal(size=(8, 4))
    lam = 0.3
    loss, _, _ = stage1_loss(views, proj, 0.07, lam)
    np.testing.assert_allclose(
        loss, nt_xent(proj, 0.07)[0] + lam * rank_loss(views), rtol=1e-12
    )


def test_stage1_decorrelated_views_contribute_nothing():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(8, 4))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    proj = rng.normal(size=(8, 3))
    loss, _, _ = stage1_loss(Q, proj, 0.07, 5.0)
    np.testing.assert_allclose(loss, nt_xent(proj, 0.07)[0], rtol=1e-10)


def test_stage1_composite_grads_match_finite_differences():
    rng = np.random.default_rng(13)
    views = rng.normal(size=(6, 5))
    proj = rng.normal(size=(6, 4))
    lam = 0.7
    _, grad_views, grad_proj = stage1_loss(views, proj, 0.07, lam)
    fd_views = central_diff(lambda V: stage1_loss(V, proj, 0.07, lam)[0], views)
    fd_proj = central_diff(lambda P: stage1_loss(views, P, 0.07, lam)[0], proj)
    assert rel_err(grad_views, fd_views) < 1e-4
    assert rel_err(grad_proj, fd_proj) < 1e-4


def test_stage1_rejects_mismatched_rows_and_negative_reg():
    with pytest.raises(ValueError, match="row mismatch"):
        stage1_loss(np.ones((6, 3)), np.ones((4, 3)), 0.07, 0.1)
    with pytest.raises(ValueError, match="lambda_reg"):
        stage1_loss(np.ones((4, 3)), np.ones((4, 3)), 0.07, -0.1)
