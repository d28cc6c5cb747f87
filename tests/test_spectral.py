"""Spectral diagnostics: singular values, effective rank, auto-correlation,
the decorrelation penalty and its gradient, clustering, CSV round trips."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    central_diff,
    eig_svd,
    entropy_rank,
    loop_rank_loss,
    naive_average_linkage_order,
    rel_err,
)
from rankdebias.spectral import (
    auto_correlation,
    cluster_reorder,
    effective_rank,
    normalized_spectrum,
    rank_loss,
    rank_loss_grad,
    svd_values,
    write_matrix_csv,
)

# ---------------------------------------------------------------- svd_values


def test_svd_identity_is_all_ones():
    np.testing.assert_array_equal(svd_values(np.eye(3)), np.ones(3))


def test_svd_rank_one_outer_product():
    rng = np.random.default_rng(0)
    u = rng.normal(size=6)
    u /= np.linalg.norm(u)
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    s = svd_values(np.outer(u, v))
    assert s.shape == (4,)
    np.testing.assert_allclose(s[0], 1.0, rtol=1e-12)
    np.testing.assert_allclose(s[1:], 0.0, atol=1e-12)


def test_svd_matches_eigendecomposition_oracle():
    rng = np.random.default_rng(7)
    M = rng.normal(size=(5, 4))
    np.testing.assert_allclose(svd_values(M), eig_svd(M), atol=1e-9)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 30), st.integers(1, 30))
def test_svd_descending_and_frobenius(seed, m, d):
    M = np.random.default_rng(seed).normal(size=(m, d))
    s = svd_values(M)
    assert s.shape == (min(m, d),)
    assert np.all(s >= 0.0)
    assert np.all(np.diff(s) <= 0.0)
    np.testing.assert_allclose(np.sum(s**2), np.sum(M**2), rtol=1e-10)


def test_svd_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        svd_values(np.array([[1.0, np.nan], [0.0, 1.0]]))
    with pytest.raises(ValueError, match="non-finite"):
        svd_values(np.array([[np.inf, 0.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        svd_values(np.ones(3))  # not 2-D


# ------------------------------------------------------------ effective_rank


def test_effective_rank_flat_spectrum_is_exact_log():
    assert effective_rank(np.ones(3)) == np.log(3.0)
    for n in (2, 5, 7, 64):
        assert effective_rank(svd_values(np.eye(n))) == np.log(float(n))


def test_effective_rank_single_dominant_value():
    assert effective_rank(np.array([5.0, 0.0, 0.0])) == 0.0
    assert effective_rank(np.array([3.0])) == 0.0


def test_effective_rank_mixed_spectrum_hand_value():
    # normalized spectrum (1/2, 1/4, 1/4), entropy 1.5 * ln 2
    rho = effective_rank(np.array([2.0, 1.0, 1.0]))
    assert abs(rho - 1.5 * np.log(2.0)) < 1e-14
    assert abs(rho - 1.0397207708399179) < 1e-12


def test_effective_rank_matches_loop_entropy():
    rng = np.random.default_rng(21)
    for _ in range(20):
        s = np.sort(rng.uniform(0.01, 5.0, rng.integers(2, 12)))[::-1]
        assert abs(effective_rank(s) - entropy_rank(s)) < 1e-12


def test_effective_rank_floors_tiny_values():
    # below the 1e-12 relative floor the value is ignored entirely
    assert effective_rank(np.array([1.0, 5e-13])) == 0.0
    assert effective_rank(np.array([1.0, 2e-12])) > 0.0


def test_effective_rank_rejects_bad_spectra():
    with pytest.raises(ValueError):
        effective_rank(np.zeros(4))
    with pytest.raises(ValueError):
        effective_rank(np.array([1.0, -0.5]))
    with pytest.raises(ValueError):
        effective_rank(np.array([]))
    with pytest.raises(ValueError):
        effective_rank(np.array([1.0, np.nan]))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 40), st.integers(2, 40))
def test_effective_rank_bounds_scale_and_permutation(seed, m, d):
    rng = np.random.default_rng(seed)
    M = rng.normal(size=(m, d))
    rho = effective_rank(svd_values(M))
    assert 0.0 <= rho <= np.log(min(m, d)) + 1e-12
    c = float(rng.uniform(0.1, 10.0))
    assert abs(effective_rank(svd_values(c * M)) - rho) < 1e-9
    perm = rng.permutation(m)
    assert abs(effective_rank(svd_values(M[perm])) - rho) < 1e-9


# ------------------------------------------------------- normalized_spectrum


def test_normalized_spectrum_direct_division():
    np.testing.assert_array_equal(
        normalized_spectrum(np.array([4.0, 2.0, 1.0])), np.array([1.0, 0.5, 0.25])
    )
    np.testing.assert_array_equal(
        normalized_spectrum(np.array([1.0, 0.0])), np.array([1.0, 0.0])
    )
    np.testing.assert_array_equal(normalized_spectrum(np.ones(5)), np.ones(5))


def test_normalized_spectrum_leads_with_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        out = normalized_spectrum(rng.uniform(0.1, 9.0, 8))
        assert out[0] == 1.0
        assert np.all(np.diff(out) <= 0.0)


def test_normalized_spectrum_rejects_zero():
    with pytest.raises(ValueError):
        normalized_spectrum(np.zeros(3))


# ----------------------------------------------------------- auto_correlation


def test_correlation_duplicated_column():
    rng = np.random.default_rng(3)
    z = rng.normal(size=(50, 1))
    Z = np.hstack([z, rng.normal(size=(50, 2)), z])
    C = auto_correlation(Z)
    assert abs(C[0, 3] - 1.0) < 1e-7


def test_correlation_negated_column():
    rng = np.random.default_rng(4)
    z = rng.normal(size=(50, 1))
    Z = np.hstack([z, rng.normal(size=(50, 1)), -z])
    C = auto_correlation(Z)
    assert abs(C[0, 2] + 1.0) < 1e-7


def test_correlation_orthogonal_centered_columns():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(40, 5))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)  # columns stay mean-zero: they span centered space
    C = auto_correlation(Q)
    off = C - np.eye(5)
    assert np.max(np.abs(off)) < 1e-7


def test_correlation_zero_variance_column():
    rng = np.random.default_rng(6)
    Z = rng.normal(size=(30, 3))
    Z[:, 1] = 4.2  # constant
    C = auto_correlation(Z)
    assert not np.any(np.isnan(C))
    assert C[1, 1] == 1.0
    assert abs(C[0, 1]) < 1e-12 and abs(C[2, 1]) < 1e-12


def test_correlation_matches_pearson():
    rng = np.random.default_rng(8)
    Z = rng.normal(size=(60, 6)) * rng.uniform(0.5, 3.0, 6)
    C = auto_correlation(Z)
    ref = np.corrcoef(Z, rowvar=False)
    np.testing.assert_allclose(C, ref, atol=1e-8)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 30), st.integers(1, 12))
def test_correlation_symmetric_unit_diagonal_bounded(seed, n, d):
    Z = np.random.default_rng(seed).normal(size=(n, d))
    C = auto_correlation(Z)
    np.testing.assert_allclose(C, C.T, rtol=0.0, atol=1e-12)
    assert np.all(np.diag(C) == 1.0)
    assert np.all(np.abs(C) <= 1.0 + 1e-12)


def test_correlation_needs_two_samples():
    with pytest.raises(ValueError, match="at least 2"):
        auto_correlation(np.ones((1, 4)))


# ------------------------------------------------------------------ rank_loss


def test_rank_loss_identical_columns_saturates():
    rng = np.random.default_rng(9)
    z = rng.normal(size=(100, 1))
    Z = np.tile(z, (1, 4))
    assert abs(rank_loss(Z) + 12.0) < 1e-8  # -(d*d - d) with d = 4


def test_rank_loss_decorrelated_is_zero():
    rng = np.random.default_rng(10)
    A = rng.normal(size=(40, 6))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    assert abs(rank_loss(Q)) < 1e-12


def test_rank_loss_matches_two_step_loop_oracle():
    rng = np.random.default_rng(11)
    Z = rng.normal(size=(8, 6))
    np.testing.assert_allclose(rank_loss(Z), loop_rank_loss(Z), rtol=1e-12)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6), st.integers(2, 30), st.integers(2, 10))
def test_rank_loss_bounds(seed, n, d):
    Z = np.random.default_rng(seed).normal(size=(n, d))
    val = rank_loss(Z)
    assert -(d * d - d) - 1e-9 <= val <= 0.0


def test_rank_loss_affine_rescale_invariance():
    rng = np.random.default_rng(12)
    Z = rng.normal(size=(200, 7))
    base = rank_loss(Z)
    for _ in range(5):
        a = rng.uniform(0.5, 2.0, 7) * rng.choice([-1.0, 1.0], 7)
        b = rng.uniform(-3.0, 3.0, 7)
        assert abs(rank_loss(Z * a + b) - base) < 1e-9


# ------------------------------------------------------------- rank_loss_grad


def test_rank_grad_zero_at_decorrelated_stationary_point():
    rng = np.random.default_rng(13)
    A = rng.normal(size=(40, 5))
    A -= A.mean(axis=0)
    Q, _ = np.linalg.qr(A)
    assert np.max(np.abs(rank_loss_grad(Q))) < 1e-12


def test_rank_grad_matches_finite_differences():
    rng = np.random.default_rng(14)
    Z = rng.normal(size=(8, 6))
    assert rel_err(rank_loss_grad(Z), central_diff(rank_loss, Z)) < 1e-4


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(3, 12), st.integers(2, 6))
def test_rank_grad_finite_differences_sweep(seed, n, d):
    Z = np.random.default_rng(seed).normal(size=(n, d))
    assert rel_err(rank_loss_grad(Z), central_diff(rank_loss, Z)) < 1e-4


def test_rank_grad_scales_inversely_with_input():
    # the loss is constant along rays, so gradients shrink as 1/c
    rng = np.random.default_rng(15)
    Z = rng.normal(size=(100, 5))
    g = rank_loss_grad(Z)
    np.testing.assert_allclose(rank_loss_grad(1.7 * Z), g / 1.7, rtol=1e-6)


def test_rank_grad_columns_are_mean_free():
    # adding a constant per column leaves the loss unchanged, so the
    # gradient must live in the mean-zero subspace
    rng = np.random.default_rng(16)
    g = rank_loss_grad(rng.normal(size=(25, 6)))
    np.testing.assert_allclose(g.mean(axis=0), 0.0, atol=1e-12)


# ------------------------------------------------------------ cluster_reorder


def test_cluster_identity_matrix_keeps_order():
    for d in (1, 2, 5, 9):
        np.testing.assert_array_equal(cluster_reorder(np.eye(d)), np.arange(d))


def test_cluster_perfect_interleaved_blocks():
    C = np.eye(4)
    C[0, 2] = C[2, 0] = 1.0
    C[1, 3] = C[3, 1] = 1.0
    np.testing.assert_array_equal(cluster_reorder(C), np.array([0, 2, 1, 3]))


def test_cluster_noisy_blocks_stay_contiguous():
    rng = np.random.default_rng(17)
    d = 8
    members = rng.permutation(d)
    block_a, block_b = set(members[:4].tolist()), set(members[4:].tolist())
    C = np.eye(d)
    for i in range(d):
        for j in range(i + 1, d):
            same = (i in block_a) == (j in block_a)
            mag = rng.uniform(0.8, 0.95) if same else rng.uniform(0.0, 0.2)
            C[i, j] = C[j, i] = mag * rng.choice([-1.0, 1.0])
    order = list(cluster_reorder(C))
    labels = [0 if i in block_a else 1 for i in order]
    assert labels == sorted(labels) or labels == sorted(labels, reverse=True)


def test_cluster_matches_naive_recomputation():
    rng = np.random.default_rng(18)
    for d in (3, 5, 8, 12):
        A = rng.normal(size=(d, d))
        C = np.clip((A + A.T) / 4.0, -0.99, 0.99)
        np.fill_diagonal(C, 1.0)
        np.testing.assert_array_equal(
            cluster_reorder(C), naive_average_linkage_order(C)
        )


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10**6), st.integers(1, 14))
def test_cluster_returns_permutation(seed, d):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(d, d))
    C = np.clip((A + A.T) / 4.0, -1.0, 1.0)
    np.fill_diagonal(C, 1.0)
    order = cluster_reorder(C)
    np.testing.assert_array_equal(np.sort(order), np.arange(d))


def test_cluster_rejects_non_square():
    with pytest.raises(ValueError, match="square"):
        cluster_reorder(np.ones((3, 4)))


# ------------------------------------------------------------------ CSV round trip


def test_matrix_csv_round_trip(tmp_path):
    rng = np.random.default_rng(19)
    M = rng.normal(size=(7, 5)) * 10.0 ** rng.integers(-6, 6, (7, 5))
    p = tmp_path / "m.csv"
    write_matrix_csv(p, M)
    back = np.loadtxt(p, delimiter=",", ndmin=2)
    assert back.shape == M.shape
    np.testing.assert_allclose(back, M, rtol=1e-12, atol=0.0)


def test_matrix_csv_format_is_stable(tmp_path):
    M = np.array([[1.0, -2.5], [3.25e-4, 0.0]])
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_matrix_csv(p1, M)
    write_matrix_csv(p2, M)
    assert p1.read_bytes() == p2.read_bytes()
    first = p1.read_text().splitlines()[0]
    for token in first.split(","):
        assert re.fullmatch(r"-?\d\.\d{12}e[+-]\d{2,3}", token)


def test_matrix_csv_single_row(tmp_path):
    p = tmp_path / "row.csv"
    write_matrix_csv(p, np.array([1.0, 2.0, 3.0]))
    assert np.loadtxt(p, delimiter=",", ndmin=2).shape == (1, 3)
