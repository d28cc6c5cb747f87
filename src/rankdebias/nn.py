"""Dense feed-forward networks with hand-written backpropagation.

Small on purpose: affine layers with ReLU on hidden layers and identity
output, Adam and SGD-with-momentum updates, cosine learning-rate
scheduling with linear warmup, and a flat binary checkpoint format. All
state lives in plain numpy arrays so every gradient in the system can be
checked against finite differences.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"DFND"
CHECKPOINT_VERSION = 1

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass
class DenseNet:
    """MLP parameters: weights[i] maps layer_dims[i] -> layer_dims[i+1]."""

    layer_dims: list[int]
    weights: list[np.ndarray]
    biases: list[np.ndarray]

    @classmethod
    def init(cls, layer_dims, rng: np.random.Generator) -> "DenseNet":
        """Kaiming-uniform fan-in initialization; biases start at zero."""
        dims = [int(x) for x in layer_dims]
        if len(dims) < 2 or any(x <= 0 for x in dims):
            raise ValueError(f"layer_dims needs >= 2 positive entries, got {dims}")
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            bound = np.sqrt(6.0 / fan_in)
            weights.append(rng.uniform(-bound, bound, size=(fan_in, fan_out)))
            biases.append(np.zeros(fan_out))
        return cls(dims, weights, biases)

    @property
    def in_dim(self) -> int:
        return self.layer_dims[0]

    @property
    def out_dim(self) -> int:
        return self.layer_dims[-1]

    def params(self) -> list[np.ndarray]:
        """Flat parameter list, alternating weight and bias per layer."""
        out = []
        for W, b in zip(self.weights, self.biases):
            out.append(W)
            out.append(b)
        return out

    def num_params(self) -> int:
        return sum(p.size for p in self.params())

    def copy(self) -> "DenseNet":
        return DenseNet(
            list(self.layer_dims),
            [W.copy() for W in self.weights],
            [b.copy() for b in self.biases],
        )


def make_linear_head(in_dim: int, num_classes: int, rng: np.random.Generator) -> DenseNet:
    """Single affine layer: the linear classifier used on frozen features."""
    return DenseNet.init([in_dim, num_classes], rng)


@dataclass
class ForwardCache:
    layer_dims: list[int]
    inputs: list[np.ndarray]  # input to each layer (post-activation of previous)
    pre: list[np.ndarray]     # pre-activation of each layer


def forward(net: DenseNet, X) -> tuple[np.ndarray, ForwardCache]:
    """Run the network, keeping per-layer intermediates for backward."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != net.in_dim:
        raise ValueError(f"batch shape {X.shape} does not match input dim {net.in_dim}")
    inputs, pre = [], []
    h = X
    last = len(net.weights) - 1
    for i, (W, b) in enumerate(zip(net.weights, net.biases)):
        inputs.append(h)
        z = h @ W + b
        pre.append(z)
        h = z if i == last else np.maximum(z, 0.0)
    return h, ForwardCache(list(net.layer_dims), inputs, pre)


def apply(net: DenseNet, X) -> np.ndarray:
    """Forward pass without keeping the cache."""
    out, _ = forward(net, X)
    return out


def backward(net: DenseNet, cache: ForwardCache, output_grad) -> tuple[list[np.ndarray], np.ndarray]:
    """Reverse-mode gradients for the affine/ReLU stack.

    Returns (param_grads, input_grad) with param_grads ordered like
    net.params(). The cache must come from a forward pass of this net on
    the same batch.
    """
    if cache.layer_dims != net.layer_dims:
        raise ValueError(
            f"cache built for dims {cache.layer_dims}, net has {net.layer_dims}"
        )
    delta = np.asarray(output_grad, dtype=np.float64)
    if delta.shape != cache.pre[-1].shape:
        raise ValueError(
            f"output_grad shape {delta.shape} does not match output {cache.pre[-1].shape}"
        )
    grads: list[np.ndarray] = [np.empty(0)] * (2 * len(net.weights))
    last = len(net.weights) - 1
    for i in range(last, -1, -1):
        if i != last:
            delta = delta * (cache.pre[i] > 0.0)
        grads[2 * i] = cache.inputs[i].T @ delta
        grads[2 * i + 1] = delta.sum(axis=0)
        delta = delta @ net.weights[i].T
    return grads, delta


@dataclass
class AdamState:
    m: list[np.ndarray]
    v: list[np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params) -> "AdamState":
        return cls([np.zeros_like(p) for p in params], [np.zeros_like(p) for p in params])


@dataclass
class MomentumState:
    velocity: list[np.ndarray]

    @classmethod
    def init(cls, params) -> "MomentumState":
        return cls([np.zeros_like(p) for p in params])


def _check_shapes(params, grads, accs) -> None:
    if not (len(params) == len(grads) == len(accs)):
        raise ValueError("params, grads and optimizer state must have equal lengths")
    for p, g, a in zip(params, grads, accs):
        if p.shape != g.shape or p.shape != a.shape:
            raise ValueError(f"shape mismatch: param {p.shape}, grad {g.shape}, state {a.shape}")


def adam_step(params, grads, state: AdamState, lr: float, weight_decay: float = 0.0) -> None:
    """One Adam update, in place. weight_decay is a plain l2 penalty folded
    into the gradient before the moment accumulators see it."""
    _check_shapes(params, grads, state.m)
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1**t
    bc2 = 1.0 - ADAM_BETA2**t
    for p, g, m, v in zip(params, grads, state.m, state.v):
        g = g + weight_decay * p if weight_decay else g
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        p -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)


def sgd_momentum_step(params, grads, state: MomentumState, lr: float,
                      momentum: float = 0.9, weight_decay: float = 0.0) -> None:
    """Heavy-ball SGD update, in place."""
    _check_shapes(params, grads, state.velocity)
    for p, g, vel in zip(params, grads, state.velocity):
        g = g + weight_decay * p if weight_decay else g
        vel *= momentum
        vel += g
        p -= lr * vel


@dataclass
class ScheduleConfig:
    base_lr: float
    warmup_steps: int
    total_steps: int

    def __post_init__(self):
        if self.base_lr < 0:
            raise ValueError("base_lr must be >= 0")
        if self.warmup_steps < 0 or self.total_steps <= self.warmup_steps:
            raise ValueError(
                f"need 0 <= warmup_steps < total_steps, got {self.warmup_steps}, {self.total_steps}"
            )


def cosine_lr(cfg: ScheduleConfig, step: int) -> float:
    """Linear warmup to base_lr, then cosine decay to zero at total_steps."""
    if step < 0 or step > cfg.total_steps:
        raise ValueError(f"step {step} outside [0, {cfg.total_steps}]")
    if step < cfg.warmup_steps:
        return cfg.base_lr * step / cfg.warmup_steps
    progress = (step - cfg.warmup_steps) / (cfg.total_steps - cfg.warmup_steps)
    return cfg.base_lr * 0.5 * (1.0 + np.cos(np.pi * progress))


def save_checkpoint(path, net: DenseNet, config: dict | None = None) -> None:
    """Write the flat binary container plus its JSON sidecar.

    Layout: magic "DFND", u32 version, u32 layer count, u32 dims, then all
    parameters as little-endian f64 in layer order (weights row-major,
    then bias). The sidecar at <path>.json repeats the architecture and
    records the training config for humans.
    """
    path = Path(path)
    dims = net.layer_dims
    with open(path, "wb") as f:
        f.write(CHECKPOINT_MAGIC)
        f.write(struct.pack("<I", CHECKPOINT_VERSION))
        f.write(struct.pack("<I", len(dims)))
        f.write(struct.pack(f"<{len(dims)}I", *dims))
        for W, b in zip(net.weights, net.biases):
            f.write(W.astype("<f8").tobytes(order="C"))
            f.write(b.astype("<f8").tobytes())
    sidecar = {"layer_dims": dims, "config": config or {}}
    with open(str(path) + ".json", "w") as f:
        json.dump(sidecar, f, indent=2, sort_keys=True)
        f.write("\n")


def load_checkpoint(path) -> tuple[DenseNet, dict]:
    """Read a checkpoint written by save_checkpoint; returns (net, sidecar)."""
    path = Path(path)
    with open(path, "rb") as f:

        def read(size: int) -> bytes:
            data = f.read(size)
            if len(data) != size:
                raise ValueError(f"{path}: truncated, {len(data)} of {size} bytes left")
            return data

        magic = f.read(4)
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
        (version,) = struct.unpack("<I", read(4))
        if version != CHECKPOINT_VERSION:
            raise ValueError(f"{path}: unsupported checkpoint version {version}")
        (ndims,) = struct.unpack("<I", read(4))
        dims = list(struct.unpack(f"<{ndims}I", read(4 * ndims)))
        weights, biases = [], []
        for fan_in, fan_out in zip(dims[:-1], dims[1:]):
            W = np.frombuffer(read(8 * fan_in * fan_out), dtype="<f8").reshape(fan_in, fan_out)
            weights.append(W.astype(np.float64))
            biases.append(np.frombuffer(read(8 * fan_out), dtype="<f8").astype(np.float64))
        if f.read(1):
            raise ValueError(f"{path}: trailing bytes after parameters")
    sidecar_path = Path(str(path) + ".json")
    sidecar = {}
    if sidecar_path.exists():
        sidecar = json.loads(sidecar_path.read_text())
    return DenseNet(dims, weights, biases), sidecar
