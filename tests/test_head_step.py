"""The head step's unchecked arithmetic against the checked public loss and
the whole-array numpy idiom, and a smoke run of tools/head_step.py."""

import subprocess
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rankdebias import pipeline
from rankdebias.losses import UpweightSpec, cross_entropy, cross_entropy_core

TOOL = Path(__file__).resolve().parent.parent / "tools" / "head_step.py"


def idiom_xent(logits, labels, weights=None):
    """Weighted cross-entropy in whole-array numpy, with fancy-index label
    picks and the ndarray reductions."""
    n = logits.shape[0]
    shifted = logits - logits.max(axis=1, keepdims=True)
    expl = np.exp(shifted)
    Zsum = expl.sum(axis=1)
    grad = expl / Zsum[:, None]
    ell = np.log(Zsum) - shifted[np.arange(n), labels]
    grad[np.arange(n), labels] -= 1.0
    if weights is not None:
        ell *= weights
        grad *= weights[:, None]
    grad /= n
    return float(np.sum(ell) / n), grad


def assert_same_bytes(got, want):
    assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
    assert got[1].dtype == want[1].dtype and got[1].shape == want[1].shape
    assert got[1].tobytes() == want[1].tobytes()


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(1, 300),
       st.integers(1, 300), st.sampled_from([0.1, 1.0, 30.0]))
def test_the_head_objective_is_byte_for_byte_the_public_loss(seed, C, B, short, scale):
    # with an error set the objective is the weighted loss, without one the
    # unweighted loss; each fit takes a full batch of i.i.d. draws, so rows
    # repeat, then a shorter one, which must not reuse the full batch's
    # label positions
    rng = np.random.default_rng(seed)
    n = max(B // 2, 1)
    labels = rng.integers(0, C, n)
    error_set = pipeline.ErrorSet(np.flatnonzero(rng.random(n) < 0.3),
                                  rng.integers(0, C, n))
    weights = UpweightSpec(error_set.indices, 8.0).weights(n)
    for errors, sample_weights in ((error_set, weights), (None, None)):
        objective = pipeline._upweighted(labels, C, errors, 8.0)
        for size in (B, min(short, B)):
            idx = rng.integers(0, n, size)
            logits = rng.normal(size=(size, C)) * scale
            loss, _, grad, extra = objective(idx, [logits])
            assert extra is None
            w = None if sample_weights is None else sample_weights[idx]
            want = cross_entropy(logits, labels[idx], w)
            assert_same_bytes((loss, grad), want)
            assert_same_bytes(want, idiom_xent(logits, labels[idx], w))
            picks = np.arange(size) * C + labels[idx]
            assert_same_bytes(cross_entropy_core(logits, picks, w),
                              idiom_xent(logits, labels[idx], w))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 300), st.integers(1, 12))
def test_the_bias_gradient_reduction_is_np_sum(seed, B, C):
    delta = np.random.default_rng(seed).normal(size=(B, C)) * 10.0
    out = np.empty(C)
    np.add.reduce(delta, 0, out=out)
    assert out.tobytes() == np.sum(delta, axis=0).tobytes()


def test_the_head_step_tool_prints_time_threads_and_hash():
    proc = subprocess.run([sys.executable, str(TOOL), "--fits", "2", "--steps", "20"],
                          capture_output=True, text=True, check=False, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 5
    digests = []
    for name, step, digest in (("error-set", lines[0], lines[1]),
                               ("final", lines[2], lines[3])):
        assert step.startswith(f"{name} head step: ")
        assert "min of 2 fits of 20 steps" in step
        digests.append(digest.removeprefix(f"{name} head sha256: "))
        assert len(digests[-1]) == 64 and int(digests[-1], 16) >= 0
    # the final head is upweighted, the error-set head is not
    assert digests[0] != digests[1]
    assert lines[4].startswith("blas threads: ") and " nproc: " in lines[4]
