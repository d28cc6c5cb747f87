"""Shared oracles for the test suite.

Everything here is deliberately written as a second, independent route:
finite differences instead of analytic gradients, eigendecomposition
instead of SVD, explicit loops instead of vectorized updates. Keep it slow
and obvious.

split, the general N-part stratified split, lives here as the reference
for label_fraction_split and as bias_metric's probe split. bias_metric,
the probe-accuracy ratio that the bias-metric acceptance gate reads, lives
here because no command runs it. The job functions at
the end are what the run_jobs tests send to worker processes, which
unpickle them by module and qualified name.
"""

import os
import time
import warnings

import numpy as np

from rankdebias.data import BiasedDataset
from rankdebias.nn import apply
from rankdebias.pipeline import _train_head, stream


def central_diff(f, X, h=1e-5):
    """Central finite differences of scalar f at array X, entry by entry."""
    X = np.asarray(X, dtype=np.float64)
    g = np.zeros_like(X)
    it = np.nditer(X, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        Xp = X.copy()
        Xp[idx] += h
        Xm = X.copy()
        Xm[idx] -= h
        g[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return g


def net_central_diff(loss_fn, net, h=1e-5):
    """Central differences of loss_fn(net) for every parameter, as a net of
    net's layer_dims whose flat holds them. Mutates each entry of net.flat
    in place and restores it."""
    p = net.flat
    g = np.zeros_like(p)
    for i in range(p.size):
        orig = p[i]
        p[i] = orig + h
        fp = loss_fn(net)
        p[i] = orig - h
        fm = loss_fn(net)
        p[i] = orig
        g[i] = (fp - fm) / (2.0 * h)
    return type(net)(net.layer_dims, g)


def rel_err(approx, ref):
    """Frobenius-norm relative error, guarded against a tiny reference."""
    approx = np.asarray(approx, dtype=np.float64)
    ref = np.asarray(ref, dtype=np.float64)
    denom = max(float(np.linalg.norm(ref.ravel())), 1e-12)
    return float(np.linalg.norm((approx - ref).ravel()) / denom)



def preactivation_forward(net, X):
    """Forward pass that keeps each layer's pre-activation next to its
    input, built as h @ W + b and then np.maximum: (out, inputs, pre)."""
    inputs, pre = [], []
    h = np.asarray(X, dtype=np.float64)
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ W + b
        pre.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return h, inputs, pre


def preactivation_backward(net, inputs, pre, output_grad, input_grad=True):
    """Backward pass over preactivation_forward's lists, with each ReLU
    mask taken from the pre-activation: (flat parameter gradient in
    DenseNet layout, input gradient or None)."""
    delta = np.asarray(output_grad, dtype=np.float64)
    last = len(net.weights) - 1
    parts = []
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (pre[i] > 0.0)
        # layers run last to first, so each one's gradients go in front
        parts[:0] = [(inputs[i].T @ delta).ravel(), np.sum(delta, axis=0)]
        if i == 0 and not input_grad:
            return np.concatenate(parts), None
        delta = delta @ net.weights[i].T
    return np.concatenate(parts), delta

def eig_svd(M):
    """Singular values from the eigendecomposition of the Gram matrix,
    descending. Independent route used to check svd_values."""
    M = np.asarray(M, dtype=np.float64)
    G = M.T @ M if M.shape[0] >= M.shape[1] else M @ M.T
    w = np.linalg.eigvalsh(G)
    return np.sqrt(np.clip(w, 0.0, None))[::-1]


def entropy_rank(spectrum):
    """Literal -sum(p log p) evaluation with a python loop."""
    s = [float(v) for v in spectrum if v > 1e-12 * max(spectrum)]
    total = sum(s)
    acc = 0.0
    for v in s:
        p = v / total
        acc -= p * np.log(p)
    return acc


def loop_rank_loss(Z, eps=1e-8):
    """Direct two-step evaluation of the decorrelation penalty: build each
    correlation entry with explicit dot products, then sum the squares."""
    Z = np.asarray(Z, dtype=np.float64)
    Zc = Z - Z.mean(axis=0)
    d = Z.shape[1]
    total = 0.0
    for i in range(d):
        for j in range(d):
            if i == j:
                continue
            num = float(Zc[:, i] @ Zc[:, j])
            den = np.sqrt(float(Zc[:, i] @ Zc[:, i]) + eps) * np.sqrt(
                float(Zc[:, j] @ Zc[:, j]) + eps
            )
            total += (num / den) ** 2
    return -total


def naive_average_linkage_order(C):
    """Agglomerative average linkage recomputed from the original distances
    at every step (no incremental update), with the same smallest-index
    tie-break: scan candidate pairs in list order, keep the first minimum."""
    C = np.asarray(C, dtype=np.float64)
    d = C.shape[0]
    D0 = 1.0 - np.abs(C)
    clusters = [[i] for i in range(d)]
    while len(clusters) > 1:
        best = None
        for p in range(len(clusters)):
            for q in range(p + 1, len(clusters)):
                pairs = [D0[i, j] for i in clusters[p] for j in clusters[q]]
                avg = float(np.sum(pairs) / len(pairs))
                if best is None or avg < best[0]:
                    best = (avg, p, q)
        _, p, q = best
        clusters[p] = clusters[p] + clusters[q]
        del clusters[q]
    return np.array(clusters[0])


def softmax_rows(logits):
    z = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def per_sample_xent(logits, labels):
    """Per-sample cross-entropy via log-softmax, one row at a time."""
    out = []
    for row, lab in zip(np.asarray(logits, dtype=np.float64), labels):
        z = row - row.max()
        out.append(float(np.log(np.exp(z).sum()) - z[int(lab)]))
    return np.array(out)


def lstsq_probe(train_X, train_y, test_X, test_y, classes):
    """Least-squares one-vs-all linear probe accuracy, in percent.

    Closed form and deterministic, which makes it a convenient reference
    classifier for certifying which blocks of a dataset are linearly
    decodable.
    """
    A = np.hstack([train_X, np.ones((train_X.shape[0], 1))])
    T = np.eye(classes)[train_y]
    W, *_ = np.linalg.lstsq(A, T, rcond=None)
    At = np.hstack([test_X, np.ones((test_X.shape[0], 1))])
    pred = np.argmax(At @ W, axis=1)
    return 100.0 * float(np.mean(pred == test_y))


def _bilinear_resize(img, out_h, out_w):
    """Resize a (c, h, w) image with separable bilinear interpolation."""

    def axis_coords(size, out_size):
        src = (np.arange(out_size) + 0.5) * (size / out_size) - 0.5
        src = np.clip(src, 0.0, size - 1.0)
        i0 = np.floor(src).astype(int)
        i1 = np.minimum(i0 + 1, size - 1)
        return i0, i1, src - i0

    r0, r1, rf = axis_coords(img.shape[1], out_h)
    c0, c1, cf = axis_coords(img.shape[2], out_w)
    rows = img[:, r0, :] * (1.0 - rf)[None, :, None] + img[:, r1, :] * rf[None, :, None]
    return rows[:, :, c0] * (1.0 - cf) + rows[:, :, c1] * cf


def _augment_image(img, rng, cfg):
    """One stochastic view of a (c, h, w) image in [0, 1]. All random values
    are drawn regardless of which branches fire."""
    c, h, w = img.shape
    area = rng.uniform(cfg.crop_scale_min, 1.0)
    side_h = max(1, int(round(h * np.sqrt(area))))
    side_w = max(1, int(round(w * np.sqrt(area))))
    top = int(rng.integers(0, h - side_h + 1))
    left = int(rng.integers(0, w - side_w + 1))
    out = _bilinear_resize(img[:, top:top + side_h, left:left + side_w], h, w)

    do_flip = rng.random() < cfg.flip_p
    do_jitter = rng.random() < cfg.jitter_p
    s = cfg.jitter_strength
    brightness = rng.uniform(1.0 - s, 1.0 + s, c)
    contrast = rng.uniform(1.0 - s, 1.0 + s, c)
    do_gray = rng.random() < cfg.grayscale_p

    if do_flip:
        out = out[:, :, ::-1]
    if do_jitter:
        out = out * brightness[:, None, None]
        mean = out.mean(axis=(1, 2), keepdims=True)
        out = mean + contrast[:, None, None] * (out - mean)
    if do_gray:
        out = np.broadcast_to(out.mean(axis=0, keepdims=True), out.shape)
    return np.clip(out, 0.0, 1.0)


def loop_augment_images(X, rng, image_shape, cfg):
    """Image views one image at a time, each with its own crop-resize,
    flip, jitter and grayscale: the reference for augment_image_batch."""
    X = np.asarray(X, dtype=np.float64)
    out = np.empty_like(X)
    for i in range(X.shape[0]):
        out[i] = _augment_image(X[i].reshape(image_shape), rng, cfg).reshape(-1)
    return out


def split(ds: BiasedDataset, fractions, seed: int = 0) -> tuple[BiasedDataset, ...]:
    """Disjoint splits stratified by (y, b) group.

    Within each group the per-part counts follow cumulative rounding, so
    fractions summing to 1 cover the group exactly. Groups too small to
    land in some part trigger a warning, not an error.
    """
    fractions = [float(f) for f in fractions]
    if any(f < 0 for f in fractions) or sum(fractions) > 1.0 + 1e-9:
        raise ValueError(f"fractions must be >= 0 and sum to <= 1, got {fractions}")
    rng = np.random.default_rng(seed)
    cum = np.cumsum(fractions)
    parts: list[list[np.ndarray]] = [[] for _ in fractions]
    for yv in range(ds.num_classes):
        for bv in range(ds.num_bias_classes):
            # an empty group permutes to nothing and draws nothing
            idx = rng.permutation(np.flatnonzero((ds.y == yv) & (ds.b == bv)))
            start = 0
            for part, edge in zip(parts, np.rint(cum * idx.size).astype(int)):
                part.append(idx[start:edge])
                start = edge
    out = []
    for i, chunks in enumerate(parts):
        sel = np.sort(np.concatenate(chunks))
        if sel.size == 0:
            warnings.warn(f"split part {i} is empty", stacklevel=2)
        out.append(ds.take(sel))
    return tuple(out)


def bias_metric(encoder, ds, cfg) -> float:
    """How biased a frozen representation is: the accuracy of a linear probe
    predicting the bias label divided by that of a probe predicting the
    target label, both on a held-out half of ds."""
    train, test = split(ds, (0.5, 0.5),
                        seed=int(stream(cfg.seed, "probe-split").integers(2**31)))
    reps_tr = apply(encoder, train.inputs)
    reps_te = apply(encoder, test.inputs)
    head_y = _train_head(reps_tr, train.y, train.num_classes, cfg, "probe-y")
    head_b = _train_head(reps_tr, train.b, train.num_bias_classes, cfg, "probe-b")
    acc_y = float(np.mean(np.argmax(apply(head_y, reps_te), axis=1) == test.y))
    acc_b = float(np.mean(np.argmax(apply(head_b, reps_te), axis=1) == test.b))
    if acc_y == 0.0:
        raise ValueError("target probe accuracy is zero; ratio undefined")
    return acc_b / acc_y


# ------------------------------------------------------------ run_jobs jobs


def echo_job(value, seconds=0.0, error=None, exit_code=None):
    """value after sleeping seconds, unless the job raises error or ends
    its process with exit_code. Its print must stay out of the results."""
    time.sleep(seconds)
    print(f"job {value!r} ran")
    if exit_code is not None:
        os._exit(exit_code)
    if error is not None:
        raise error
    return value


def worker_pid_and_blas_threads():
    return os.getpid(), os.environ.get("OPENBLAS_NUM_THREADS")


class Jobs:
    """Job functions whose qualified names hold a dot."""

    @staticmethod
    def worker_pid():
        return os.getpid()
