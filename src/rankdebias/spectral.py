"""Spectral and correlation analysis of representation matrices.

Everything here operates on a batch of latent vectors stacked as an n x d
matrix (rows = samples, columns = feature dimensions): singular spectra,
effective rank (spectral entropy), the normalized auto-correlation matrix,
the rank loss built from its off-diagonal entries, and the block-structure
reordering used to visualize feature redundancy.
"""

from __future__ import annotations

import numpy as np

# Stabilizer added under each square root in the correlation denominator so
# that zero-variance (dead) feature dimensions yield zero off-diagonals
# instead of NaN.
CORR_EPS = 1e-8

# Singular values below this fraction of the largest one are treated as
# exact zeros when computing spectral entropy.
SPECTRUM_FLOOR = 1e-12


def _as_finite_2d(M, name: str) -> np.ndarray:
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries (NaN or Inf)")
    return M


def svd_values(M) -> np.ndarray:
    """Singular values of a dense matrix, sorted descending.

    Returns all min(m, n) values, so sum(values**2) equals the squared
    Frobenius norm of the input.
    """
    M = _as_finite_2d(M, "matrix")
    if min(M.shape) < 1:
        raise ValueError(f"matrix must have at least one row and column, got {M.shape}")
    return np.linalg.svd(M, compute_uv=False)


def effective_rank(spectrum) -> float:
    """Shannon entropy (in nats) of the sum-normalized singular values.

    Equal singular values give the maximum ln(len(spectrum)); a single
    dominant value gives 0. Values below SPECTRUM_FLOOR times the largest
    are treated as zero and contribute nothing to the entropy.
    """
    s = np.asarray(spectrum, dtype=np.float64).ravel()
    if s.size == 0 or np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ValueError("spectrum must be a non-empty list of finite values >= 0")
    top = s.max()
    if top <= 0.0:
        raise ValueError("effective rank is undefined for an all-zero spectrum")
    s = s[s > SPECTRUM_FLOOR * top]
    # -sum(p log p) with p = s / S, rewritten as log(S) - sum(s log s) / S so
    # that a flat spectrum of ones lands exactly on log(len(s))
    total = s.sum()
    return float(np.log(total) - np.sum(s * np.log(s)) / total)


def normalized_spectrum(spectrum) -> np.ndarray:
    """Singular values divided by the largest one; first entry is exactly 1."""
    s = np.asarray(spectrum, dtype=np.float64).ravel()
    if s.size == 0 or s.max() <= 0.0:
        raise ValueError("cannot normalize an empty or all-zero spectrum")
    out = np.sort(s)[::-1] / s.max()
    return out


def _correlate(Z):
    """Mean-centered Z, the eps-stabilized squared column norms, their
    square roots and the normalized gram matrix, diagonal not yet set."""
    Z = _as_finite_2d(Z, "Z")
    n = Z.shape[0]
    if n < 2:
        raise ValueError(f"need at least 2 samples to correlate, got n={n}")
    Zc = Z - Z.mean(axis=0, keepdims=True)
    gram = Zc.T @ Zc
    stab = np.diag(gram) + CORR_EPS
    denom = np.sqrt(stab)
    return Zc, stab, denom, gram / np.outer(denom, denom)


def auto_correlation(Z) -> np.ndarray:
    """Normalized auto-correlation matrix of the mean-centered columns of Z.

    C[i, j] is the cosine of the angle between centered columns i and j,
    with CORR_EPS stabilizing each denominator. Diagonal entries are set
    to exactly 1 by convention (including degenerate zero-variance
    columns, whose off-diagonals come out as 0).
    """
    C = _correlate(Z)[3]
    np.fill_diagonal(C, 1.0)
    return C


def rank_loss(Z) -> float:
    """Negated sum of squared off-diagonal auto-correlations of Z.

    Zero when feature dimensions are exactly decorrelated; approaches
    -(d**2 - d) as all columns become copies of one another. Minimizing it
    therefore pushes features toward redundancy.
    """
    C = auto_correlation(Z)
    off = C - np.diag(np.diag(C))
    return float(-np.sum(off * off))


def rank_loss_grad(Z) -> np.ndarray:
    """Analytic gradient of rank_loss with respect to the entries of Z.

    Differentiates through the eps-stabilized correlation and the
    mean-centering, so it matches finite differences of rank_loss exactly
    rather than the idealized eps-free formula.
    """
    Zc, stab, denom, C = _correlate(Z)
    np.fill_diagonal(C, 0.0)

    # loss = -sum_{i != j} gram_ij^2 / (stab_i * stab_j)
    # dloss/dgram_ij = -2 C_ij / (denom_i denom_j)      (i != j)
    # dloss/dsumsq_k = 2 sum_{j != k} C_kj^2 / stab_k
    dG = -2.0 * C / np.outer(denom, denom)
    du = 2.0 * np.sum(C * C, axis=1) / stab
    dZc = 2.0 * Zc @ dG + 2.0 * Zc * du[np.newaxis, :]
    # pull back through mean-centering
    return dZc - dZc.mean(axis=0, keepdims=True)


def cluster_reorder(C) -> np.ndarray:
    """Permutation exposing block structure in a correlation matrix.

    Runs average-linkage agglomerative clustering on the distance
    1 - |C[i, j]| and returns the dendrogram leaf order. Ties are broken
    toward the smallest cluster indices, so an identity correlation matrix
    maps to the identity permutation.
    """
    C = _as_finite_2d(C, "C")
    d = C.shape[0]
    if C.shape[1] != d:
        raise ValueError(f"correlation matrix must be square, got {C.shape}")
    if d == 1:
        return np.array([0])

    dist = 1.0 - np.abs(C)
    np.fill_diagonal(dist, np.inf)
    sizes = np.ones(d)
    leaves: list[list[int] | None] = [[i] for i in range(d)]

    for _ in range(d - 1):
        # first minimum in row-major order == smallest (i, j) tie-break
        flat = np.argmin(dist)
        a, b = divmod(int(flat), d)
        if a > b:
            a, b = b, a
        # Lance-Williams update for average linkage: merge b into a
        na, nb = sizes[a], sizes[b]
        merged = (na * dist[a] + nb * dist[b]) / (na + nb)
        dist[a] = merged
        dist[:, a] = merged
        dist[a, a] = np.inf
        dist[b, :] = np.inf
        dist[:, b] = np.inf
        sizes[a] = na + nb
        leaves[a] = leaves[a] + leaves[b]  # type: ignore[operator]
        leaves[b] = None

    order = next(v for v in leaves if v is not None)
    return np.array(order)


def write_matrix_csv(path, M) -> None:
    """Write a matrix as header-free row-major CSV with %.12e formatting."""
    M = np.atleast_2d(np.asarray(M, dtype=np.float64))
    np.savetxt(path, M, delimiter=",", fmt="%.12e")


def read_matrix_csv(path) -> np.ndarray:
    """Read a header-free CSV matrix written by write_matrix_csv."""
    M = np.loadtxt(path, delimiter=",", dtype=np.float64, ndmin=2)
    if not np.all(np.isfinite(M)):
        raise ValueError(f"matrix loaded from {path} contains non-finite entries")
    return M
