"""Dense nets with manual backprop, the two optimizers, the LR schedule,
and the binary checkpoint format."""

import json
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import net_central_diff, preactivation_backward, preactivation_forward, rel_err
from rankdebias.nn import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    AdamState,
    CHECKPOINT_MAGIC,
    DenseNet,
    ForwardCache,
    MomentumState,
    ScheduleConfig,
    _STEP_BLOCK,
    _layer_outputs,
    adam_step,
    apply,
    backward,
    cosine_lr,
    forward,
    load_checkpoint,
    save_checkpoint,
    sgd_momentum_step,
)

# ----------------------------------------------------------------- DenseNet


def test_init_shapes_and_param_count():
    net = DenseNet.init([4, 8, 3], np.random.default_rng(0))
    assert [W.shape for W in net.weights] == [(4, 8), (8, 3)]
    assert [b.shape for b in net.biases] == [(8,), (3,)]
    assert net.flat.size == 4 * 8 + 8 + 8 * 3 + 3
    assert net.in_dim == 4 and net.out_dim == 3


def test_init_kaiming_bounds_and_zero_biases():
    net = DenseNet.init([100, 50], np.random.default_rng(1))
    bound = np.sqrt(6.0 / 100)
    assert np.max(np.abs(net.weights[0])) <= bound
    np.testing.assert_array_equal(net.biases[0], 0.0)


def test_init_is_seed_deterministic():
    a = DenseNet.init([5, 7, 2], np.random.default_rng(42))
    b = DenseNet.init([5, 7, 2], np.random.default_rng(42))
    np.testing.assert_array_equal(a.flat, b.flat)


def test_init_rejects_bad_dims():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        DenseNet.init([4], rng)
    with pytest.raises(ValueError):
        DenseNet.init([4, 0, 2], rng)


def test_weights_and_biases_are_views_into_flat():
    net = DenseNet([2, 3, 1], np.arange(13, dtype=np.float64))
    # per layer: the weight row-major, then the bias
    np.testing.assert_array_equal(net.weights[0], [[0, 1, 2], [3, 4, 5]])
    np.testing.assert_array_equal(net.biases[0], [6, 7, 8])
    np.testing.assert_array_equal(net.weights[1], [[9], [10], [11]])
    np.testing.assert_array_equal(net.biases[1], [12])
    net.flat[0] = -1.0
    net.biases[1][0] = -2.0
    assert net.weights[0][0, 0] == -1.0 and net.flat[12] == -2.0
    assert all(np.shares_memory(p, net.flat) for p in [*net.weights, *net.biases])


def test_flat_defaults_to_zeros_and_must_match_dims():
    net = DenseNet([4, 8, 3])
    np.testing.assert_array_equal(net.flat, np.zeros(4 * 8 + 8 + 8 * 3 + 3))
    with pytest.raises(ValueError, match=r"\(67,\)"):
        DenseNet([4, 8, 3], np.zeros(66))
    with pytest.raises(ValueError, match="layer_dims"):
        DenseNet([4], np.zeros(0))


def test_copy_is_deep():
    net = DenseNet.init([3, 3], np.random.default_rng(2))
    dup = net.copy()
    dup.weights[0][0, 0] += 1.0
    assert net.weights[0][0, 0] != dup.weights[0][0, 0]


def test_linear_head_init_is_single_affine():
    head = DenseNet.init([16, 10], np.random.default_rng(3))
    assert head.layer_dims == [16, 10]
    assert len(head.weights) == 1


# ------------------------------------------------------------------ forward


def test_forward_zero_net_gives_zero_output():
    net = DenseNet([3, 4, 2])
    out, _ = forward(net, np.random.default_rng(4).normal(size=(5, 3)))
    np.testing.assert_array_equal(out, np.zeros((5, 2)))


def test_forward_identity_layer_passes_input_through():
    net = DenseNet([2, 2], np.r_[np.eye(2).ravel(), np.zeros(2)])
    X = np.random.default_rng(5).normal(size=(6, 2))
    np.testing.assert_array_equal(apply(net, X), X)


def test_forward_hidden_relu_clips_negatives():
    # one hidden unit fed -1, one fed +2; only the positive one survives
    # W0 = [[-1, 2]], b0 = 0, W1 = [[1], [1]], b1 = 0
    net = DenseNet([1, 2, 1], np.array([-1.0, 2.0, 0.0, 0.0, 1.0, 1.0, 0.0]))
    out = apply(net, np.array([[1.0]]))
    assert out[0, 0] == 2.0
    # final layer is affine, so negative outputs are allowed
    out2 = apply(net, np.array([[-1.0]]))
    assert out2[0, 0] == 1.0


def test_forward_matches_naive_reference():
    rng = np.random.default_rng(6)
    net = DenseNet.init([5, 8, 3], rng)
    X = rng.normal(size=(7, 5))
    out, _ = forward(net, X)
    ref = np.empty((7, 3))
    for k in range(7):
        h = X[k]
        h = np.maximum(net.weights[0].T @ h + net.biases[0], 0.0)
        ref[k] = net.weights[1].T @ h + net.biases[1]
    np.testing.assert_allclose(out, ref, rtol=1e-12)


def test_forward_is_deterministic():
    rng = np.random.default_rng(7)
    net = DenseNet.init([4, 6, 2], rng)
    X = rng.normal(size=(9, 4))
    a, _ = forward(net, X)
    b, _ = forward(net, X)
    np.testing.assert_array_equal(a, b)


def test_forward_rejects_wrong_width():
    net = DenseNet.init([4, 2], np.random.default_rng(8))
    with pytest.raises(ValueError, match="input dim"):
        forward(net, np.ones((3, 5)))


# ----------------------------------------------------------------- backward


def test_backward_zero_output_grad():
    rng = np.random.default_rng(9)
    net = DenseNet.init([4, 6, 2], rng)
    _, cache = forward(net, rng.normal(size=(5, 4)))
    grads, din = backward(net, cache, np.zeros((5, 2)))
    np.testing.assert_array_equal(grads.flat, 0.0)
    np.testing.assert_array_equal(din, 0.0)


def test_backward_linear_squared_error_closed_form():
    rng = np.random.default_rng(10)
    W = rng.normal(size=(3, 2))
    net = DenseNet([3, 2], np.r_[W.ravel(), np.zeros(2)])
    x = rng.normal(size=(1, 3))
    y = rng.normal(size=(1, 2))
    out, cache = forward(net, x)
    e = out - y  # loss = sum(e**2), dloss/dout = 2e
    grads, din = backward(net, cache, 2.0 * e)
    np.testing.assert_allclose(grads.weights[0], np.outer(x[0], 2.0 * e[0]), rtol=1e-12)
    np.testing.assert_allclose(grads.biases[0], 2.0 * e[0], rtol=1e-12)
    np.testing.assert_allclose(din, (2.0 * e) @ W.T, rtol=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 10**6))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    dims = [3, int(rng.integers(2, 8)), int(rng.integers(2, 8)), 2]
    net = DenseNet.init(dims, rng)
    X = rng.normal(size=(4, 3))
    T = rng.normal(size=(4, 2))

    def loss_of(n):
        return float(np.sum((apply(n, X) - T) ** 2))

    _, cache = forward(net, X)
    # finite differences are meaningless across a relu kink; stay clear
    pre = [h @ W + b for h, W, b in zip(cache.inputs, net.weights, net.biases)]
    assume(all(np.min(np.abs(p)) > 1e-3 for p in pre[:-1]))
    out = apply(net, X)
    grads, _ = backward(net, cache, 2.0 * (out - T))
    fd = net_central_diff(loss_of, net)
    assert grads.layer_dims == net.layer_dims
    for g, r in zip([*grads.weights, *grads.biases], [*fd.weights, *fd.biases]):
        assert rel_err(g, r) < 1e-4


def test_backward_input_grad_matches_finite_differences():
    rng = np.random.default_rng(11)
    net = DenseNet.init([5, 6, 3], rng)
    X = rng.normal(size=(2, 5))

    def loss_at(Xv):
        return float(np.sum(apply(net, Xv) ** 2))

    out, cache = forward(net, X)
    _, din = backward(net, cache, 2.0 * out)
    h = 1e-5
    fd = np.zeros_like(X)
    for i in range(X.shape[0]):
        for j in range(X.shape[1]):
            Xp, Xm = X.copy(), X.copy()
            Xp[i, j] += h
            Xm[i, j] -= h
            fd[i, j] = (loss_at(Xp) - loss_at(Xm)) / (2 * h)
    assert rel_err(din, fd) < 1e-4


def test_backward_rejects_foreign_cache():
    rng = np.random.default_rng(12)
    net = DenseNet.init([4, 6, 2], rng)
    other = DenseNet.init([4, 5, 2], rng)
    _, cache = forward(other, rng.normal(size=(3, 4)))
    with pytest.raises(ValueError, match="dims"):
        backward(net, cache, np.zeros((3, 2)))


def test_backward_rejects_wrong_grad_shape():
    rng = np.random.default_rng(13)
    net = DenseNet.init([4, 2], rng)
    _, cache = forward(net, rng.normal(size=(3, 4)))
    with pytest.raises(ValueError, match="output_grad"):
        backward(net, cache, np.zeros((3, 3)))


def test_backward_fills_out_when_given():
    rng = np.random.default_rng(19)
    net = DenseNet.init([4, 6, 2], rng)
    _, cache = forward(net, rng.normal(size=(5, 4)))
    grad = rng.normal(size=(5, 2))
    fresh, din = backward(net, cache, grad)
    out = DenseNet([4, 6, 2], np.full(net.flat.size, np.nan))
    kept, din_out = backward(net, cache, grad, out=out)
    assert kept is out
    np.testing.assert_array_equal(out.flat, fresh.flat)
    np.testing.assert_array_equal(din_out, din)
    with pytest.raises(ValueError, match="out has dims"):
        backward(net, cache, grad, out=DenseNet([4, 5, 2]))


def test_backward_without_input_grad_keeps_parameter_grads():
    rng = np.random.default_rng(26)
    net = DenseNet.init([4, 6, 5, 2], rng)
    _, cache = forward(net, rng.normal(size=(7, 4)))
    grad = rng.normal(size=(7, 2))
    full, din = backward(net, cache, grad)
    skipped, none = backward(net, cache, grad, input_grad=False)
    assert din.shape == (7, 4) and none is None
    assert skipped.flat.tobytes() == full.flat.tobytes()


def test_forward_cache_holds_layer_inputs():
    rng = np.random.default_rng(14)
    net = DenseNet.init([3, 4, 2], rng)
    X = rng.normal(size=(5, 3))
    _, cache = forward(net, X)
    assert isinstance(cache, ForwardCache)
    assert len(cache.inputs) == 2
    np.testing.assert_array_equal(cache.inputs[0], X)
    relu = np.maximum(X @ net.weights[0] + net.biases[0], 0.0)
    assert cache.inputs[1].tobytes() == relu.tobytes()


def _oracle_nets():
    """(net, X) pairs: random nets, and nets whose first layer gives exact
    +0.0, -0.0 (products that underflow, plus a -0.0 bias) and NaN
    pre-activations, where a ReLU mask could differ."""
    rng = np.random.default_rng(28)
    for _ in range(4):
        dims = [int(d) for d in rng.integers(1, 9, size=int(rng.integers(2, 5)))]
        yield DenseNet.init(dims, rng), rng.normal(size=(int(rng.integers(1, 7)), dims[0]))
    net = DenseNet.init([5, 8, 6, 3], rng)
    W0, b0 = net.weights[0], net.biases[0]
    W0[:, :3] *= 1e-200            # tiny x tiny underflows to +-0.0
    W0[:, 3] = 0.0                 # exact +0.0
    W0[:, 4:] *= 1e200             # tiny x huge stays of order one
    b0[:3] = -0.0
    yield net, rng.normal(size=(6, 5)) * 1e-200
    X = rng.normal(size=(6, 5))
    X[2, 1] = np.nan
    yield DenseNet.init([5, 8, 6, 3], rng), X


def test_forward_apply_backward_match_preactivation_oracle():
    rng = np.random.default_rng(29)
    signed_zeros = nans = 0
    for net, X in _oracle_nets():
        ref_out, ref_inputs, ref_pre = preactivation_forward(net, X)
        hidden = ref_pre[:-1]
        signed_zeros += sum(int(np.sum((p == 0.0) & np.signbit(p))) for p in hidden)
        nans += sum(int(np.sum(np.isnan(p))) for p in hidden)
        out, cache = forward(net, X)
        assert out.tobytes() == ref_out.tobytes()
        assert apply(net, X).tobytes() == ref_out.tobytes()
        assert [h.tobytes() for h in cache.inputs] == [h.tobytes() for h in ref_inputs]
        G = rng.normal(size=out.shape)
        for input_grad in (True, False):
            grads, din = backward(net, cache, G, input_grad=input_grad)
            ref_flat, ref_din = preactivation_backward(net, ref_inputs, ref_pre, G,
                                                       input_grad=input_grad)
            assert grads.flat.tobytes() == ref_flat.tobytes()
            if input_grad:
                assert din.tobytes() == ref_din.tobytes()
            else:
                assert din is None and ref_din is None
    # the built nets do reach the cases they are built for
    assert signed_zeros > 0 and nans > 0


@pytest.mark.parametrize("dims, n", [
    *[([7, 256, 256, 64], n) for n in (1023, 1024, 1025, 2049, 4000, 10000, 20001)],
    ([7, 128, 128, 64], 10000),      # the CLI's default widths
    ([2352, 256, 256, 64], 3000),    # a color-MNIST encoder
    # narrow last layers, whose products need more rows than the byte
    # budget gives to leave OpenBLAS's small-matrix kernels
    ([7, 256, 256, 2], 10000),
    ([7, 1024, 2], 5000),
    ([64, 5], 100000),
    ([64, 10], 100000),
    # fewer rows than one block, 1024 for this net: the batch is one block
    *[([7, 256, 256, 64], n) for n in (0, 1, 255)],
    ([64, 5], 5),
])
def test_apply_in_blocks_equals_one_pass_over_the_batch(dims, n):
    rng = np.random.default_rng(31)
    net = DenseNet.init(dims, rng)
    X = rng.normal(size=(n, dims[0]))
    for whole in _layer_outputs(net, X):
        pass
    assert apply(net, X).tobytes() == whole.tobytes()


def test_apply_and_forward_keep_one_array_per_layer():
    # the debias-lowlabel encoder on its 4000-row test set
    rng = np.random.default_rng(30)
    net = DenseNet.init([7, 256, 256, 64], rng)
    X = rng.normal(size=(4000, 7))
    hidden, output, slack = 4000 * 256 * 8, 4000 * 64 * 8, 1 << 20

    def peak(fn, X):
        tracemalloc.start()
        try:
            fn(net, X)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # forward keeps both hidden layers' outputs and the net's output
    assert peak(forward, X) < 2 * hidden + output + slack
    # apply holds its output plus one block: a layer's input and its
    # output, each fewer than 2 * 1024 rows at width 256, whatever n is
    for X in (X, rng.normal(size=(40000, 7))):
        assert peak(apply, X) - len(X) * 64 * 8 < 2 * (2 * 1024 * 256 * 8) + slack


# --------------------------------------------------------------------- adam


def test_adam_zero_grad_fresh_state_is_identity():
    rng = np.random.default_rng(15)
    net = DenseNet.init([3, 2], rng)
    before = net.flat.copy()
    state = AdamState.init([net.flat])
    adam_step([net.flat], [np.zeros_like(net.flat)], state, 0.1)
    np.testing.assert_array_equal(net.flat, before)
    assert state.step == 1


def test_adam_constant_grad_step_size_approaches_lr():
    p = [np.array([10.0])]
    g = [np.array([1.0])]
    state = AdamState.init(p)
    lr = 0.01
    prev = p[0][0]
    for _ in range(50):
        adam_step(p, g, state, lr)
    step = prev - p[0][0]
    # bias correction makes every constant-gradient step lr/(1 + eps')
    last = p[0][0]
    adam_step(p, g, state, lr)
    assert abs((last - p[0][0]) - lr) < 1e-6 * lr * 100


def test_adam_five_step_manual_recurrence():
    rng = np.random.default_rng(16)
    p0 = rng.normal(size=(3, 2))
    grads = [rng.normal(size=(3, 2)) for _ in range(5)]
    lr, wd = 0.05, 0.01

    p = [p0.copy()]
    state = AdamState.init(p)
    for g in grads:
        adam_step(p, [g], state, lr, weight_decay=wd)

    # textbook transcription of the update equations
    ref = p0.copy()
    m = np.zeros_like(ref)
    v = np.zeros_like(ref)
    for t, g in enumerate(grads, start=1):
        geff = g + wd * ref
        m = ADAM_BETA1 * m + (1 - ADAM_BETA1) * geff
        v = ADAM_BETA2 * v + (1 - ADAM_BETA2) * geff**2
        mhat = m / (1 - ADAM_BETA1**t)
        vhat = v / (1 - ADAM_BETA2**t)
        ref = ref - lr * mhat / (np.sqrt(vhat) + ADAM_EPS)
    np.testing.assert_allclose(p[0], ref, rtol=1e-12)


def test_adam_weight_decay_pulls_toward_zero():
    p = [np.array([5.0, -5.0])]
    state = AdamState.init(p)
    for _ in range(10):
        adam_step(p, [np.zeros(2)], state, 0.1, weight_decay=0.1)
    assert abs(p[0][0]) < 5.0 and abs(p[0][1]) < 5.0
    assert p[0][0] > 0.0 and p[0][1] < 0.0


def test_adam_rejects_shape_mismatch():
    p = [np.zeros((2, 2))]
    state = AdamState.init(p)
    with pytest.raises(ValueError, match="shape"):
        adam_step(p, [np.zeros(3)], state, 0.1)
    with pytest.raises(ValueError, match="length"):
        adam_step(p, [], AdamState.init(p), 0.1)


def _reference_step(kind, p, g, acc, lr, wd, t):
    """The update as one expression per line, allocating its temporaries."""
    g = g + wd * p if wd else g
    if kind == "adam":
        m, v = acc
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / (1.0 - ADAM_BETA1**t)) / (np.sqrt(v / (1.0 - ADAM_BETA2**t)) + ADAM_EPS)
    else:
        (vel,) = acc
        vel *= 0.9
        vel += g
        p -= lr * vel


@pytest.mark.parametrize("kind", ["adam", "sgd"])
@pytest.mark.parametrize("wd", [0.0, 0.01])
def test_optimizer_step_is_bit_identical_to_reference_and_allocates_nothing(kind, wd):
    rng = np.random.default_rng(20)
    # about 2.5 blocks, not a whole number of them, then less than a block
    shapes = [(5 * _STEP_BLOCK // 256 + 1, 128), (_STEP_BLOCK // 3,)]
    big = shapes[0][0] * shapes[0][1]
    assert big % _STEP_BLOCK and 2 * _STEP_BLOCK < big < 3 * _STEP_BLOCK
    params = [rng.normal(size=s) for s in shapes]
    ref = [p.copy() for p in params]
    ref_acc = [[np.zeros(s) for s in shapes] for _ in range(2 if kind == "adam" else 1)]
    state = (AdamState if kind == "adam" else MomentumState).init(params)

    def step(grads, lr):
        if kind == "adam":
            adam_step(params, grads, state, lr, weight_decay=wd)
        else:
            sgd_momentum_step(params, grads, state, lr, momentum=0.9, weight_decay=wd)

    for t in range(1, 6):
        grads = [rng.normal(size=s) for s in shapes]
        lr = 0.01 * t
        if t < 5:
            step(grads, lr)
        else:
            tracemalloc.start()
            try:
                step(grads, lr)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            # one temporary of the big array would be 656 kB, of a block 256 kB
            assert peak < 16 * 1024
        for i in range(len(shapes)):
            _reference_step(kind, ref[i], grads[i], [a[i] for a in ref_acc], lr, wd, t)
    for p, r in zip(params, ref):
        assert p.tobytes() == r.tobytes()


@pytest.mark.parametrize("kind, copies", [("adam", 2), ("sgd", 1)])
def test_optimizer_state_holds_its_moments_and_one_block_of_scratch(kind, copies):
    # the flat vector of the image encoder [2352, 256, 256, 64], a 5.5 MB
    # vector; Adam keeps two moments and two scratch blocks, momentum one each
    flat = np.zeros(684_608)
    tracemalloc.start()
    try:
        state = (AdamState if kind == "adam" else MomentumState).init([flat])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= copies * (flat.nbytes + 8 * _STEP_BLOCK) + 64 * 1024
    scratch = state.scratch if kind == "adam" else (state.scratch,)
    assert [a.shape for a in scratch] == [(_STEP_BLOCK,)] * copies


def test_optimizer_scratch_is_no_larger_than_the_largest_array():
    params = [np.zeros((3, 4)), np.zeros(5)]
    assert [a.shape for a in AdamState.init(params).scratch] == [(12,), (12,)]
    assert MomentumState.init(params).scratch.shape == (12,)


@pytest.mark.parametrize("kind", ["adam", "sgd"])
def test_optimizer_refuses_a_parameter_it_cannot_update_in_place(kind):
    p = [np.zeros((4, 3)).T]
    state = (AdamState if kind == "adam" else MomentumState).init(p)
    step = adam_step if kind == "adam" else sgd_momentum_step
    with pytest.raises(ValueError, match="C-contiguous"):
        step(p, [np.ones((3, 4))], state, 0.1)


# ------------------------------------------------------------- sgd momentum


def test_sgd_no_momentum_is_vanilla_descent():
    p = [np.array([1.0, 2.0])]
    g = [np.array([0.5, -0.5])]
    state = MomentumState.init(p)
    sgd_momentum_step(p, g, state, lr=0.1, momentum=0.0)
    np.testing.assert_allclose(p[0], [0.95, 2.05], rtol=1e-15)


def test_sgd_coasts_on_velocity():
    p = [np.array([0.0])]
    state = MomentumState.init(p)
    state.velocity[0][:] = 2.0
    sgd_momentum_step(p, [np.zeros(1)], state, lr=0.1, momentum=0.9)
    np.testing.assert_allclose(p[0], [-0.18], rtol=1e-12)


def test_sgd_three_step_manual_recurrence():
    rng = np.random.default_rng(17)
    p0 = rng.normal(size=4)
    grads = [rng.normal(size=4) for _ in range(3)]
    lr, mom, wd = 0.1, 0.9, 0.05

    p = [p0.copy()]
    state = MomentumState.init(p)
    for g in grads:
        sgd_momentum_step(p, [g], state, lr, momentum=mom, weight_decay=wd)

    ref = p0.copy()
    vel = np.zeros_like(ref)
    for g in grads:
        vel = mom * vel + (g + wd * ref)
        ref = ref - lr * vel
    np.testing.assert_allclose(p[0], ref, rtol=1e-12)


def test_plain_descent_on_l2_shrinks_norm_monotonically():
    p = [np.random.default_rng(18).normal(size=10)]
    state = MomentumState.init(p)
    norms = [np.linalg.norm(p[0])]
    for _ in range(50):
        sgd_momentum_step(p, [np.zeros(10)], state, lr=0.1, momentum=0.0,
                          weight_decay=0.5)
        norms.append(np.linalg.norm(p[0]))
    assert all(b < a for a, b in zip(norms, norms[1:]))


# ----------------------------------------------------------------- schedule


def test_cosine_lr_endpoints():
    cfg = ScheduleConfig(base_lr=0.3, warmup_steps=10, total_steps=100)
    assert cosine_lr(cfg, 0) == 0.0
    assert cosine_lr(cfg, 10) == 0.3
    assert cosine_lr(cfg, 100) == 0.0


def test_cosine_lr_linear_warmup():
    cfg = ScheduleConfig(base_lr=0.2, warmup_steps=20, total_steps=50)
    assert abs(cosine_lr(cfg, 10) - 0.1) < 1e-15
    assert abs(cosine_lr(cfg, 5) - 0.05) < 1e-15


def test_cosine_lr_shape():
    cfg = ScheduleConfig(base_lr=1.0, warmup_steps=5, total_steps=55)
    ramp = [cosine_lr(cfg, t) for t in range(6)]
    assert all(b > a for a, b in zip(ramp, ramp[1:]))
    decay = [cosine_lr(cfg, t) for t in range(5, 56)]
    assert all(b <= a for a, b in zip(decay, decay[1:]))
    mid = cosine_lr(cfg, 30)  # halfway through decay
    assert abs(mid - 0.5) < 1e-12


def test_cosine_lr_zero_warmup():
    cfg = ScheduleConfig(base_lr=0.4, warmup_steps=0, total_steps=10)
    assert cosine_lr(cfg, 0) == 0.4


def test_cosine_lr_rejects_out_of_range():
    cfg = ScheduleConfig(base_lr=0.1, warmup_steps=2, total_steps=10)
    with pytest.raises(ValueError):
        cosine_lr(cfg, -1)
    with pytest.raises(ValueError):
        cosine_lr(cfg, 11)


def test_schedule_config_validation():
    with pytest.raises(ValueError):
        ScheduleConfig(base_lr=-0.1, warmup_steps=0, total_steps=10)
    with pytest.raises(ValueError):
        ScheduleConfig(base_lr=0.1, warmup_steps=10, total_steps=10)


# -------------------------------------------------------------- checkpoints


def test_checkpoint_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(19)
    net = DenseNet.init([6, 5, 4], rng)
    path = tmp_path / "enc.ckpt"
    save_checkpoint(path, net, {"lr": 0.0003, "epochs": 100})
    back, sidecar = load_checkpoint(path)
    assert back.layer_dims == net.layer_dims
    np.testing.assert_array_equal(net.flat, back.flat)
    assert sidecar["config"]["lr"] == 0.0003
    assert sidecar["layer_dims"] == [6, 5, 4]


def test_checkpoint_binary_layout(tmp_path):
    # W = [[0, 1, 2], [3, 4, 5]], b = [6, 7, 8]
    net = DenseNet([2, 3], np.arange(9, dtype=np.float64))
    path = tmp_path / "lin.ckpt"
    save_checkpoint(path, net)
    raw = path.read_bytes()
    assert raw[:4] == CHECKPOINT_MAGIC
    version, ndims = struct.unpack("<II", raw[4:12])
    assert version == 1 and ndims == 2
    assert struct.unpack("<2I", raw[12:20]) == (2, 3)
    params = np.frombuffer(raw[20:], dtype="<f8")
    np.testing.assert_array_equal(params, np.arange(9, dtype=np.float64))
    assert len(raw) == 20 + 8 * 9


def test_checkpoint_bytes_are_deterministic(tmp_path):
    net = DenseNet.init([4, 3], np.random.default_rng(20))
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, net, {"seed": 7})
    save_checkpoint(p2, net, {"seed": 7})
    assert p1.read_bytes() == p2.read_bytes()
    assert (tmp_path / "a.ckpt.json").read_bytes() == (tmp_path / "b.ckpt.json").read_bytes()


def test_checkpoint_sidecar_is_json(tmp_path):
    net = DenseNet.init([3, 2], np.random.default_rng(21))
    path = tmp_path / "c.ckpt"
    save_checkpoint(path, net, {"tau": 0.07})
    sidecar = json.loads((tmp_path / "c.ckpt.json").read_text())
    assert sidecar["layer_dims"] == [3, 2]


def test_checkpoint_rejects_bad_magic(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"NOPE" + b"\x00" * 32)
    with pytest.raises(ValueError, match="magic"):
        load_checkpoint(path)


def test_checkpoint_rejects_trailing_bytes(tmp_path):
    net = DenseNet.init([2, 2], np.random.default_rng(22))
    path = tmp_path / "t.ckpt"
    save_checkpoint(path, net)
    path.write_bytes(path.read_bytes() + b"\x00")
    with pytest.raises(ValueError, match="trailing"):
        load_checkpoint(path)


@pytest.mark.parametrize("keep", [6, 10, 100, -1])
def test_checkpoint_truncated_names_path(tmp_path, keep):
    # cuts inside the version, the layer count, the first weight matrix
    # (the 24-byte header precedes it) and the last bias
    net = DenseNet.init([5, 128, 3], np.random.default_rng(24))
    path = tmp_path / "cut.ckpt"
    save_checkpoint(path, net)
    path.write_bytes(path.read_bytes()[:keep])
    with pytest.raises(ValueError, match=r"cut\.ckpt: truncated"):
        load_checkpoint(path)


@pytest.mark.parametrize("dims", [[10], [10, 0], []])
def test_checkpoint_degenerate_header_names_path(tmp_path, dims):
    # fewer than two dims, or a zero dim; [10] once loaded as an identity net
    path = tmp_path / "deg.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + struct.pack(f"<II{len(dims)}I", 1, len(dims), *dims))
    with pytest.raises(ValueError, match=r"deg\.ckpt: layer_dims"):
        load_checkpoint(path)


@pytest.mark.parametrize("header", [
    struct.pack("<IIII", 1, 2, 100000, 100000) + bytes(4),  # 74.5 GiB of parameters
    struct.pack("<II", 1, 0xFFFFFFFF),                        # 16 GiB of layer dims
], ids=["huge-dims", "huge-layer-count"])
def test_checkpoint_header_larger_than_file_fails_before_allocating(tmp_path, header):
    path = tmp_path / "huge.ckpt"
    path.write_bytes(CHECKPOINT_MAGIC + header)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=r"huge\.ckpt: truncated"):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_checkpoint_save_and_load_copy_no_parameters(tmp_path):
    # the color-MNIST encoder's size: 684.6k parameters, 5.5 MB
    net = DenseNet.init([2352, 256, 256, 64], np.random.default_rng(25))
    path = tmp_path / "enc.ckpt"
    tracemalloc.start()
    try:
        save_checkpoint(path, net)
        save_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back, _ = load_checkpoint(path)
        load_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert net.flat.size == 684_608
    assert save_peak < 1 << 20
    # beyond the parameter vector that the loaded net holds
    assert load_peak - back.flat.nbytes < 1 << 20
    assert back.flat.tobytes() == net.flat.tobytes()


def test_checkpoint_missing_sidecar_is_tolerated(tmp_path):
    net = DenseNet.init([2, 2], np.random.default_rng(23))
    path = tmp_path / "s.ckpt"
    save_checkpoint(path, net)
    (tmp_path / "s.ckpt.json").unlink()
    back, sidecar = load_checkpoint(path)
    assert back.layer_dims == [2, 2]
    assert sidecar == {}
