"""The head step's unchecked arithmetic against the checked public loss and
the whole-array numpy idiom, its blocked batch draws against one draw a
step, and a smoke run of tools/head_step.py."""

import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
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


# every value class the row max and the exponentials treat apart: signed
# zeros (ties for the max), the largest finite values, denormals and the
# smallest normal; then -inf, which leaves a row's loss finite or +inf;
# then inf and NaN, which make a row's loss and gradient NaN
FINITE = [0.0, -0.0, 1e308, -1e308, 5e-324, -5e-324, 2.2250738585072014e-308]
SPECIALS = {"finite": np.array(FINITE), "-inf": np.array([*FINITE, -np.inf]),
            "nan": np.array([*FINITE, -np.inf, np.inf, np.nan])}


def special_logits(rng, B, C, share, pool):
    """B x C normal logits, share of them replaced by values of the pool,
    then a fifth of the rows made of one finite special value and a fifth
    of 0, -0 and -1 only, so that the row max is a tie of signed zeros."""
    logits = rng.normal(size=(B, C)) * rng.choice([1e-3, 1.0, 1e3])
    mask = rng.random((B, C)) < share
    logits[mask] = rng.choice(pool, mask.sum())
    kind = rng.integers(0, 5, B)
    logits[kind == 0] = rng.choice(FINITE, ((kind == 0).sum(), 1))
    logits[kind == 1] = rng.choice([0.0, -0.0, -1.0], ((kind == 1).sum(), C))
    return logits


def nan_bits_cleared(a) -> bytes:
    """a's bytes with every NaN written as np.nan."""
    a = np.array(a, dtype=np.float64)
    a[np.isnan(a)] = np.nan
    return a.tobytes()


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(2, 130), st.integers(1, 300),
       st.booleans(), st.sampled_from([0.0, 0.02, 0.5, 1.0]), st.sampled_from(sorted(SPECIALS)))
def test_the_core_is_the_idiom_byte_for_byte_on_special_values(seed, C, B, weighted, share,
                                                                pool):
    rng = np.random.default_rng(seed)
    logits = special_logits(rng, B, C, share, SPECIALS[pool])
    labels = rng.integers(0, C, B)
    weights = rng.choice([0.5, 1.0, 8.0], B) if weighted else None
    picks = np.arange(B) * C + labels
    with np.errstate(all="ignore"):
        assert_same_bytes(cross_entropy_core(logits, picks, weights),
                          idiom_xent(logits, labels, weights))
        # NaNs of both signs: the row max may keep either sign of a row's
        # NaNs, in an order of its own, so only the NaNs' sign bits may
        # differ; a row holding a NaN has a NaN loss term and gradient row
        # either way, and the fit's finite-loss check stops at it
        logits[np.isnan(logits) & (rng.random((B, C)) < 0.5)] = -np.nan
        got = cross_entropy_core(logits, picks, weights)
        want = idiom_xent(logits, labels, weights)
    assert nan_bits_cleared(got[0]) == nan_bits_cleared(want[0])
    assert nan_bits_cleared(got[1]) == nan_bits_cleared(want[1])


class RecordingGenerator:
    """A Generator whose integers calls record the size they draw."""

    def __init__(self, rng):
        self.rng, self.sizes = rng, []

    def integers(self, low, high, size):
        self.sizes.append(size)
        return self.rng.integers(low, high, size)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32 - 1),
       st.one_of(st.sampled_from([1, 2**32 - 1, 2**32 + 5]), st.integers(1, 2**40)),
       st.integers(1, 600), st.integers(0, 2), st.integers(0, 2**16))
def test_head_fits_draw_their_batches_in_blocks_as_one_draw_a_step(seed, n, B, blocks, extra):
    # a cfg carrying only what _train_head reads, so B can go below
    # ExperimentConfig's least batch; the head sees n rows of width 2, all
    # views of one stored row, and _fit only collects the batches
    batch = min(B, n)
    per_block = max(1, pipeline._DRAW_BLOCK // batch)
    # a step count that is not a multiple of the block, where one can be
    steps = blocks * per_block + 1 + extra % max(per_block - 1, 1)
    cfg = SimpleNamespace(seed=seed, batch_size=B, head_iters=steps, head_lr=1e-2,
                          lambda_up=8.0)
    reps = np.broadcast_to(np.zeros((1, 2)), (n, 2))
    recorded, batches, stream = [], [], pipeline.stream

    def recording_stream(seed, name):
        rng = stream(seed, name)
        if name.endswith("-batches"):
            recorded.append(RecordingGenerator(rng))
            return recorded[-1]
        return rng

    def collect(nets, rows, epochs, *args):
        batches.extend(idx.copy() for epoch in epochs for idx in epoch)
        return []

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pipeline, "_fit", collect)
        mp.setattr(pipeline, "stream", recording_stream)
        pipeline._train_head(reps, np.zeros(1, dtype=np.int64), 2, cfg, "h")
    (drawn,) = recorded
    assert max(np.prod(size) for size in drawn.sizes) <= pipeline._DRAW_BLOCK
    ref = stream(seed, "h-batches")
    assert len(batches) == steps
    for idx in batches:
        want = ref.integers(0, n, batch)
        assert idx.dtype == want.dtype and idx.tobytes() == want.tobytes()
    assert drawn.rng.bit_generator.state == ref.bit_generator.state


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
    assert len(lines) == 7
    digests = []
    for name, step, digest in (("error-set", lines[0], lines[1]),
                               ("final", lines[2], lines[3]),
                               ("100-class", lines[4], lines[5])):
        assert step.startswith(f"{name} head step: ")
        assert "min of 2 fits of 20 steps" in step
        digests.append(digest.removeprefix(f"{name} head sha256: "))
        assert len(digests[-1]) == 64 and int(digests[-1], 16) >= 0
    # the final head is upweighted, the error-set head is not
    assert digests[0] != digests[1]
    assert "[64, 100] head" in lines[4]
    assert lines[6].startswith("blas threads: ") and " nproc: " in lines[6]
