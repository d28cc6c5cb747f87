"""Dense feed-forward networks with hand-written backpropagation.

Small on purpose: affine layers with ReLU on hidden layers and identity
output, Adam and SGD-with-momentum updates, cosine learning-rate
scheduling with linear warmup, and a flat binary checkpoint format. All
of a net's parameters live in one float64 vector, DenseNet.flat, which
is also the checkpoint payload; gradients come back in the same layout.
A forward pass stores each layer's output once, as one array: forward
keeps them all for backward, and apply drops each as the next is built
and runs the batch in row blocks.
All state lives in plain numpy arrays so every gradient in the system
can be checked against finite differences.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manifest import read_json, write_json

CHECKPOINT_MAGIC = b"DFND"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# apply runs a whole-dataset pass in row blocks, so it holds one block's
# activations, not n rows of them. A block's widest layer output takes
# about this many bytes (1024 rows at width 256) ...
_BLOCK_BYTES = 2 << 20
# ... unless that leaves a layer product with fewer multiply-adds than
# this. OpenBLAS sends products of up to 10**6 through small-matrix
# kernels, and a one-row block through gemv, and both round differently
# from the kernels a whole pass uses; above the floor, a block's rows
# come out byte-identical to those of one pass.
_BLOCK_MIN_MACS = 1 << 20
# adam_step and sgd_momentum_step update each parameter array this many
# entries at a time (256 kB of float64), so an optimizer state's scratch
# is one block, not a copy of the parameters
_STEP_BLOCK = 1 << 15


def _flat_size(layer_dims: list[int]) -> int:
    """Length of the flat parameter vector of a net with these layer dims,
    which need at least two entries, all positive."""
    if len(layer_dims) < 2 or any(x <= 0 for x in layer_dims):
        raise ValueError(f"layer_dims needs >= 2 positive entries, got {layer_dims}")
    return sum((fan_in + 1) * fan_out
               for fan_in, fan_out in zip(layer_dims[:-1], layer_dims[1:]))


@dataclass
class DenseNet:
    """MLP parameters: weights[i] maps layer_dims[i] -> layer_dims[i+1].

    All parameters live in the float64 vector flat, layer by layer: the
    weight (row-major), then the bias. weights[i] and biases[i] are views
    into flat, so an update to flat updates them. flat defaults to zeros.
    """

    layer_dims: list[int]
    flat: np.ndarray | None = None
    weights: list[np.ndarray] = field(init=False, repr=False)
    biases: list[np.ndarray] = field(init=False, repr=False)

    def __post_init__(self):
        dims = self.layer_dims = [int(x) for x in self.layer_dims]
        size = _flat_size(dims)
        flat = self.flat = (np.zeros(size) if self.flat is None
                            else np.ascontiguousarray(self.flat, dtype=np.float64))
        if flat.shape != (size,):
            raise ValueError(f"layer_dims {dims} need a flat vector of shape ({size},), "
                             f"got {flat.shape}")
        self.weights, self.biases = [], []
        start = 0
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            stop = start + fan_in * fan_out
            self.weights.append(flat[start:stop].reshape(fan_in, fan_out))
            self.biases.append(flat[stop:stop + fan_out])
            start = stop + fan_out

    @classmethod
    def init(cls, layer_dims, rng: np.random.Generator) -> "DenseNet":
        """Kaiming-uniform fan-in initialization; biases start at zero."""
        net = cls(layer_dims)
        for W in net.weights:
            bound = np.sqrt(6.0 / W.shape[0])
            W[...] = rng.uniform(-bound, bound, size=W.shape)
        return net

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def copy(self) -> "DenseNet":
        return DenseNet(list(self.layer_dims), self.flat.copy())


@dataclass
class ForwardCache:
    # the input to each layer: the batch, then each hidden layer's ReLU
    # output, which is also where backward reads the ReLU masks from
    inputs: list[np.ndarray]


def _checked_batch(net: DenseNet, X) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.in_dim:
        raise ValueError(f"batch shape {X.shape} does not match input dim {net.in_dim}")
    return X


def _layer_outputs(net: DenseNet, X):
    """Yield the checked batch, then each layer's output, one array per
    layer: ReLU on hidden layers, applied in place, identity on the last."""
    X = _checked_batch(net, X)
    yield X
    h = X
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        h = h @ W
        h += b
        if i != last:
            np.maximum(h, 0.0, out=h)
        yield h


def forward(net: DenseNet, X) -> tuple[np.ndarray, ForwardCache]:
    """Run the network, keeping each layer's input for backward."""
    *inputs, out = _layer_outputs(net, X)
    return out, ForwardCache(inputs)


def _block_rows(net: DenseNet) -> int:
    """Fewest rows in one of apply's blocks: the byte budget's rows, or
    more where a layer product needs them to reach the floor."""
    dims = net.layer_dims
    budget = _BLOCK_BYTES // (8 * max(dims[1:]))
    floor = max(-(-_BLOCK_MIN_MACS // (fan_in * fan_out))
                for fan_in, fan_out in zip(dims[:-1], dims[1:]))
    return max(budget, floor)


def apply(net: DenseNet, X) -> np.ndarray:
    """Forward pass that holds only the layer being computed and its input.

    The batch runs as n // _block_rows(net) blocks, or as one block when
    that is 0, each block's output written into one (n, out_dim) array, so
    the pass holds its output plus one block. Every block has at least
    _block_rows(net) rows or is the whole batch, which keeps the result
    byte-identical to one pass over the whole batch (see _BLOCK_MIN_MACS)."""
    X = _checked_batch(net, X)
    n = len(X)
    blocks = max(1, n // _block_rows(net))
    out = np.empty((n, net.out_dim))
    bounds = [k * n // blocks for k in range(blocks + 1)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        for h in _layer_outputs(net, X[start:stop]):
            pass
        out[start:stop] = h
    return out


def backward(net: DenseNet, cache: ForwardCache, output_grad,
             out: DenseNet | None = None, input_grad: bool = True
             ) -> tuple[DenseNet, np.ndarray | None]:
    """Reverse-mode gradients for the affine/ReLU stack.

    Returns (grads, input_grad): grads is a DenseNet of net's dims holding
    the parameter gradients, so grads.flat lines up with net.flat. When
    out is given the gradients are written into it and it is returned as
    grads, so a training loop can keep one gradient buffer per net. With
    input_grad=False the gradient with respect to the input batch, the
    first layer's delta @ W.T, is not computed and None is returned in its
    place. The cache must come from a forward pass of this net on the same
    batch.
    """
    widths = [h.shape[1] for h in cache.inputs]
    if widths != net.layer_dims[:-1]:
        raise ValueError(f"cache built for dims {widths}, net has {net.layer_dims}")
    delta = np.asarray(output_grad, dtype=np.float64)
    expected = (cache.inputs[0].shape[0], net.out_dim)
    if delta.shape != expected:
        raise ValueError(f"output_grad shape {delta.shape} does not match output {expected}")
    if out is None:
        out = DenseNet(net.layer_dims, np.empty_like(net.flat))
    elif out.layer_dims != net.layer_dims:
        raise ValueError(f"out has dims {out.layer_dims}, net has {net.layer_dims}")
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            # a ReLU output is > 0 exactly where its pre-activation is;
            # delta is a fresh delta @ W.T here, so it can be masked in place
            delta *= cache.inputs[i + 1] > 0.0
        np.matmul(cache.inputs[i].T, delta, out=out.weights[i])
        # the reduction np.sum runs, without its Python wrapper
        np.add.reduce(delta, 0, out=out.biases[i])
        if i == 0 and not input_grad:
            return out, None
        delta = delta @ net.weights[i].T
    return out, delta


@dataclass
class AdamState:
    """Adam moments per parameter array, and two scratch arrays of one
    block each (see _STEP_BLOCK), shared by every array. A step allocates
    nothing, and the state holds twice the parameters plus two blocks."""

    m: list[np.ndarray]
    v: list[np.ndarray]
    scratch: tuple[np.ndarray, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params) -> "AdamState":
        size = _scratch_size(params)
        return cls([np.zeros(p.shape) for p in params], [np.zeros(p.shape) for p in params],
                   (np.empty(size), np.empty(size)))


@dataclass
class MomentumState:
    """Heavy-ball velocity per parameter array, and one scratch array of
    one block (see _STEP_BLOCK), shared by every array. A step allocates
    nothing, and the state holds the parameters' size plus one block."""

    velocity: list[np.ndarray]
    scratch: np.ndarray

    @classmethod
    def init(cls, params) -> "MomentumState":
        return cls([np.zeros(p.shape) for p in params], np.empty(_scratch_size(params)))


def _scratch_size(params) -> int:
    return min(_STEP_BLOCK, max((p.size for p in params), default=0))


def _check_shapes(params, grads, accs) -> None:
    if not (len(params) == len(grads) == len(accs)):
        raise ValueError("params, grads and optimizer state must have equal lengths")
    for p, g, a in zip(params, grads, accs):
        if p.shape != g.shape or p.shape != a.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, state {a.shape}")
        if not p.flags.c_contiguous:
            raise ValueError("parameter arrays must be C-contiguous to be updated in place")


def _blocks(arrays, scratch):
    """Same-position views of the arrays, flattened, _STEP_BLOCK entries at
    a time, each followed by the scratch arrays cut to the block's length.
    Arrays of the scratch's own shape are one block and come whole, with
    no views made: a head fit updates its one small vector thousands of
    times, and the views would add a fifth to each update."""
    if arrays[0].shape == scratch[0].shape:
        return [[*arrays, *scratch]]
    flats = [x.reshape(-1) for x in arrays]
    size = flats[0].size
    return ([x[start:start + _STEP_BLOCK] for x in flats]
            + [s[:min(_STEP_BLOCK, size - start)] for s in scratch]
            for start in range(0, size, _STEP_BLOCK))


def adam_step(params, grads, state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update, in place. weight_decay is a plain l2 penalty folded
    into the gradient before the moment accumulators see it.

    Every operation writes into the state's arrays, in the order of
    p -= lr * (m / bc1) / (sqrt(v / bc2) + eps), so the result is the
    same to the bit as that expression's; each ufunc is element-wise, so
    running it block by block changes no bit either."""
    _check_shapes(params, grads, state.m)
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for arrays in zip(params, grads, state.m, state.v):
        for p, g, m, v, a, b in _blocks(arrays, state.scratch):
            if weight_decay:
                g = np.add(g, np.multiply(weight_decay, p, out=a), out=a)
            m *= ADAM_BETA1
            m += np.multiply(1.0 - ADAM_BETA1, g, out=b)
            v *= ADAM_BETA2
            v += np.multiply(1.0 - ADAM_BETA2, np.multiply(g, g, out=b), out=b)
            update = np.multiply(lr, np.divide(m, bc1, out=a), out=a)
            update /= np.add(np.sqrt(np.divide(v, bc2, out=b), out=b), ADAM_EPS, out=b)
            p -= update


def sgd_momentum_step(params, grads, state: MomentumState, lr: float,
                      momentum: float = 0.9, weight_decay: float = 0.0) -> None:
    """Heavy-ball SGD update, in place, block by block as adam_step."""
    _check_shapes(params, grads, state.velocity)
    for arrays in zip(params, grads, state.velocity):
        for p, g, vel, a in _blocks(arrays, [state.scratch]):
            if weight_decay:
                g = np.add(g, np.multiply(weight_decay, p, out=a), out=a)
            vel *= momentum
            vel += g
            p -= np.multiply(lr, vel, out=a)


def cosine_lr(step: int, base_lr: float, warmup_steps: int, total_steps: int) -> float:
    """Linear warmup to base_lr, then cosine decay to zero at total_steps."""
    if base_lr < 0 or warmup_steps < 0 or total_steps <= warmup_steps:
        raise ValueError(f"need base_lr >= 0 and 0 <= warmup_steps < total_steps, got "
                         f"{base_lr}, {warmup_steps}, {total_steps}")
    if step < 0 or step > total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def save_checkpoint(path, net: DenseNet, config: dict | None = None) -> None:
    """Write the flat binary container plus its JSON sidecar.

    Layout: magic "DFND", u32 version, u32 layer count, u32 dims, then
    net.flat as little-endian f64 (per layer the weight row-major, then
    the bias). The sidecar at <path>.json repeats the architecture and
    records the training config for humans.
    """
    path = Path(path)
    dims = net.layer_dims
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(dims)))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        # written from the array's own buffer: no copy on a little-endian host
        f.write(np.ascontiguousarray(net.flat, "<f8").data)
    write_json(str(path) + ".json", {"layer_dims": dims, "config": config or {}})


def load_checkpoint(path) -> tuple[DenseNet, dict]:
    """Read a checkpoint written by save_checkpoint; returns (net, sidecar)."""
    path = Path(path)
    with open(path, "rb") as f:

        def check(size: int) -> int:
            # checked before reading, so a corrupt header never allocates
            # more than the file holds
            left = os.fstat(f.fileno()).st_size - f.tell()
            if size > left:
                raise ValueError(f"{path}: truncated, {left} of {size} bytes left")
            return size

        def read(size: int) -> bytes:
            return f.read(check(size))

        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<I", read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (ndims,) = struct.unpack("<I", read(4))
        dims = list(struct.unpack(f"<{ndims}I", read(4 * ndims)))
        try:
            size = _flat_size(dims)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        # read straight into the parameter vector, with no bytes object
        check(8 * size)
        flat = np.empty(size, dtype="<f8")
        if f.readinto(flat) != 8 * size:
            raise ValueError(f"{path}: changed while being read")
        net = DenseNet(dims, flat)
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    sidecar_path = Path(str(path) + ".json")
    return net, read_json(sidecar_path) if sidecar_path.exists() else {}
