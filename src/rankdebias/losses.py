"""Training objectives, each returning the loss together with its exact gradient.

Cross-entropy for classifiers (optionally with per-sample weights), the
temperature-scaled contrastive loss over paired views, the combined
pretraining loss that adds the rank penalty on encoder outputs, and the
upweighted loss used for debiased evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import check_labels
from .spectral import rank_loss, rank_loss_grad


@dataclass
class UpweightSpec:
    """Which samples to upweight and by how much."""

    error_indices: np.ndarray
    lambda_up: float

    def __post_init__(self):
        self.error_indices = np.asarray(self.error_indices, dtype=np.int64).ravel()
        if self.error_indices.size != np.unique(self.error_indices).size:
            raise ValueError("error_indices must be unique")
        if self.lambda_up <= 0:
            raise ValueError(f"lambda_up must be > 0, got {self.lambda_up}")

    def weights(self, n: int) -> np.ndarray:
        """Per-sample weights of n samples: lambda_up at error_indices, else 1."""
        idx = self.error_indices
        if idx.size and (idx.min() < 0 or idx.max() >= n):
            raise ValueError(f"error index out of range for {n} samples")
        w = np.ones(n)
        w[idx] = self.lambda_up
        return w


def cross_entropy(logits, labels, weights=None) -> tuple[float, np.ndarray]:
    """Mean softmax cross-entropy; gradient is (softmax - onehot) / n.
    weights (shape (n,)) scale each sample's loss term and gradient row
    before the division by n; weights of 1 reproduce the unweighted loss
    bit for bit. The inputs are checked on every call; training loops
    check theirs once per fit and call cross_entropy_core, the unchecked
    arithmetic, which this also runs."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int64).ravel()
    if logits.ndim != 2:
        raise ValueError(f"logits must be 2-D, got shape {logits.shape}")
    n, C = logits.shape
    if labels.shape[0] != n:
        raise ValueError(f"{labels.shape[0]} labels for {n} logit rows")
    check_labels(labels, C)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (n,):
            raise ValueError(f"weights must have shape ({n},), got {weights.shape}")
    return cross_entropy_core(logits, np.arange(n) * C + labels, weights)


def cross_entropy_core(logits: np.ndarray, picks: np.ndarray, weights=None
                       ) -> tuple[float, np.ndarray]:
    """cross_entropy's arithmetic with no checks: logits is a float64
    (n, C) array, picks holds the flat position k * C + label of each
    row's label entry, and weights is None or a float64 array of shape
    (n,)."""
    n = logits.shape[0]
    ell, grad = _softmax_terms(logits, picks)
    if weights is not None:
        ell *= weights
        grad *= weights[:, None]
    grad /= n
    return float(np.add.reduce(ell) / n), grad


def _softmax_terms(logits: np.ndarray, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each row's unscaled softmax cross-entropy log(sum(exp(row))) -
    row[pick], picks holding flat positions, and its gradient softmax - onehot.
    The row sum is the ufunc reduction the ndarray method runs. The
    row max, exact in any order, reduces the rows of a transposed copy:
    C passes over n contiguous entries, not n over C. Of a row's NaNs it
    may keep another one than the ndarray method does, so a NaN's sign
    bit can differ; that row's loss term and gradient are NaN either way."""
    shifted = logits - np.maximum.reduce(logits.T.copy(), 0)[:, None]
    grad = np.exp(shifted)
    Zsum = np.add.reduce(grad, 1)
    grad /= Zsum[:, None]
    ell = np.log(Zsum)
    ell -= shifted.take(picks)
    grad.reshape(-1)[picks] -= 1.0
    return ell, grad


def debias_loss(logits, labels, spec: UpweightSpec) -> tuple[float, np.ndarray]:
    """Cross-entropy with the samples in spec.error_indices upweighted.

    Each sample's loss term is weighted by lambda_up (error set) or 1 and
    the sum is divided by the batch size, so lambda_up = 1 (or an empty
    error set) reproduces plain cross_entropy bit for bit and lambda_up
    sweeps do not rescale the effective learning rate.
    """
    return cross_entropy(logits, labels, spec.weights(np.atleast_1d(logits).shape[0]))


class ZeroNormRow(ValueError):
    """nt_xent's refusal of an embedding row of norm 0, whose cosine
    similarity is undefined. A ValueError to a library caller; pretraining
    reads it as a degenerate step, a NaN loss."""


def nt_xent(embeddings, tau: float) -> tuple[float, np.ndarray]:
    """Contrastive loss over two augmented views of n samples.

    Rows k and k + n of `embeddings` are the paired views. Each row is
    l2-normalized, every other row at temperature tau serves as a
    candidate, and the positive is the paired view. Returns the mean loss
    over all 2n anchors and its gradient with respect to the raw
    (pre-normalization) embeddings.
    """
    Z = np.asarray(embeddings, dtype=np.float64)
    if Z.ndim != 2 or Z.shape[0] % 2 != 0:
        raise ValueError(f"embeddings must be 2n x p, got shape {Z.shape}")
    if tau <= 0:
        raise ValueError(f"temperature must be > 0, got {tau}")
    two_n = Z.shape[0]
    n = two_n // 2
    if n < 2:
        raise ValueError("need at least 2 samples per view (one negative per anchor)")
    norms = np.linalg.norm(Z, axis=1)
    if np.any(norms == 0.0):
        raise ZeroNormRow("zero-norm embedding row: cosine similarity undefined")
    Zn = Z / norms[:, None]

    sim = (Zn @ Zn.T) / tau
    np.fill_diagonal(sim, -np.inf)
    pos = (np.arange(two_n) + n) % two_n

    # loss_i = logsumexp_k(sim_ik) - sim_i,pos, where exp(-inf) weighs the diagonal 0
    # and identical rows give exactly log(2n - 1); then back through z -> z / ||z||
    losses, A = _softmax_terms(sim, np.arange(two_n) * two_n + pos)
    A /= two_n * tau
    dZn = (A + A.T) @ Zn
    dZ = (dZn - np.sum(dZn * Zn, axis=1, keepdims=True) * Zn) / norms[:, None]
    return float(np.add.reduce(losses) / two_n), dZ


def rank_penalty(rep, lambda_reg: float) -> tuple[float, np.ndarray | None]:
    """The rank penalty on encoder outputs rep: (rank_loss(rep), lambda_reg
    * rank_loss_grad(rep)); the caller adds lambda_reg times the first to
    its loss. (0.0, None) when lambda_reg is 0. With the penalty on, a
    non-finite rep (a diverged encoder) gives (nan, None), so the loss
    turns NaN and the caller's finite-loss check stops the run."""
    if lambda_reg <= 0:
        return 0.0, None
    if not np.all(np.isfinite(rep)):
        return np.nan, None
    return rank_loss(rep), lambda_reg * rank_loss_grad(rep)


def stage1_loss(views_out, proj_out, tau: float, lambda_reg: float):
    """Pretraining objective: contrastive loss on projections plus the rank
    penalty applied directly to the encoder outputs.

    Returns (loss, grad_views, grad_proj). grad_views holds only the rank
    term, and is None when the penalty is off, as in rank_penalty; the
    contrastive part reaches the encoder through the projection head, so
    the caller adds the backpropagated grad_proj to it. With the penalty
    on, non-finite encoder outputs (a diverged encoder) give a NaN loss,
    which the caller's finite-loss check catches.
    """
    views_out = np.asarray(views_out, dtype=np.float64)
    proj_out = np.asarray(proj_out, dtype=np.float64)
    if views_out.shape[0] != proj_out.shape[0]:
        raise ValueError(
            f"row mismatch: {views_out.shape[0]} encoder outputs vs "
            f"{proj_out.shape[0]} projections"
        )
    if lambda_reg < 0:
        raise ValueError(f"lambda_reg must be >= 0, got {lambda_reg}")
    loss, grad_proj = nt_xent(proj_out, tau)
    penalty, grad_views = rank_penalty(views_out, lambda_reg)
    return loss + lambda_reg * penalty, grad_views, grad_proj
