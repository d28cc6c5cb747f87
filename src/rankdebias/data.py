"""Biased dataset construction with a controllable spurious correlation.

Two sources are supported. The synthetic "color points" generator needs no
downloads: the target class is drawn on interleaved spiral arcs (hard,
nonlinear), while the bias class is a constant offset on a dedicated
coordinate (easy, linear). The color-MNIST builder tints raw IDX digit
images with a class-indexed palette. Both let the caller dial the fraction
of samples whose bias agrees with the spuriously associated class.
"""

from __future__ import annotations

import math
import numbers
import os
import struct
import warnings
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np
from numpy.lib import format as npy_format

from .manifest import read_json, write_json

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801
# the file of a saved dataset that holds its inputs
INPUTS_NAME = "inputs.npy"
# the most classes a target or bias label may have, wherever a count enters
# (meta.json, GenConfig, a sweep spec): it bounds a head's logits and the
# num_classes x num_bias_classes group tables
MAX_CLASSES = 1024
# the most input entries (rows x width) a generated dataset may have, 2 GiB
# of float64, wherever a size enters (GenConfig, a sweep spec)
MAX_GEN_ENTRIES = 1 << 28

# Tint palette for color-MNIST. Every color has a channel equal to 1 so the
# grayscale digit can be recovered exactly as the per-pixel channel maximum,
# which is what lets a test set be re-tinted with fresh random colors.
CMNIST_PALETTE = (
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.0, 0.0, 1.0),
    (1.0, 1.0, 0.0),
    (1.0, 0.0, 1.0),
    (0.0, 1.0, 1.0),
    (1.0, 0.5, 0.0),
    (0.5, 0.0, 1.0),
    (0.0, 1.0, 0.5),
    (1.0, 1.0, 1.0),
)


def check_labels(labels: np.ndarray, classes: int, name: str = "labels") -> None:
    """Raise ValueError, naming the first sample outside it, unless every
    entry of labels lies in [0, classes)."""
    outside = np.flatnonzero((labels < 0) | (labels >= classes))
    if outside.size:
        raise ValueError(f"{name} must lie in [0, {classes}), got "
                         f"{labels[outside[0]]} at sample {outside[0]}")


def spurious_map(y):
    """Bias value spuriously associated with each target class (identity)."""
    return np.asarray(y)


@dataclass
class BiasedDataset:
    """Inputs with target label y, bias label b, and per-sample alignment flag.

    save writes a directory of inputs.npy (the exact float64 inputs),
    labels.csv and meta.json; load reads it back and checks it.
    """

    inputs: np.ndarray
    y: np.ndarray
    b: np.ndarray
    aligned: np.ndarray
    bias_ratio: float
    num_classes: int
    num_bias_classes: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        self.inputs = np.asarray(self.inputs, dtype=np.float64)
        self.y = np.asarray(self.y, dtype=np.int64).ravel()
        self.b = np.asarray(self.b, dtype=np.int64).ravel()
        self.aligned = np.asarray(self.aligned, dtype=bool).ravel()
        n = self.inputs.shape[0]
        if not (self.y.shape[0] == self.b.shape[0] == self.aligned.shape[0] == n):
            raise ValueError("inputs, y, b and aligned must have the same length")
        check_labels(self.y, self.num_classes, "y")
        check_labels(self.b, self.num_bias_classes, "b")
        if not np.array_equal(self.aligned, self.b == spurious_map(self.y)):
            raise ValueError("aligned flags inconsistent with (y, b) and the spurious map")

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def input_dim(self) -> int:
        return self.inputs.shape[1]

    @property
    def groups(self) -> np.ndarray:
        """Each sample's (y, b) group index, y * num_bias_classes + b."""
        return self.y * self.num_bias_classes + self.b

    def group_counts(self) -> np.ndarray:
        """(num_classes, num_bias_classes) table of sample counts per (y, b) group."""
        C, B = self.num_classes, self.num_bias_classes
        return np.bincount(self.groups, minlength=C * B).reshape(C, B)

    def take(self, indices) -> "BiasedDataset":
        """Subset by index, recomputing the empirical aligned fraction."""
        idx = np.asarray(indices, dtype=np.int64)
        aligned = self.aligned[idx]
        ratio = float(aligned.mean()) if idx.size else 0.0
        return BiasedDataset(self.inputs[idx], self.y[idx], self.b[idx], aligned,
                             ratio, self.num_classes, self.num_bias_classes,
                             dict(self.meta))

    def save(self, directory) -> None:
        """Persist as inputs.npy, labels.csv (y, b, aligned) and meta.json.

        inputs.npy holds the inputs exactly, as a C-ordered little-endian
        float64 array in the .npy format, so its bytes depend only on the
        values.
        """
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.save(directory / INPUTS_NAME, np.ascontiguousarray(self.inputs, dtype="<f8"),
                allow_pickle=False)
        labels = np.column_stack([self.y, self.b, self.aligned.astype(np.int64)])
        np.savetxt(directory / "labels.csv", labels, delimiter=",", fmt="%d",
                   header="y,b,aligned", comments="")
        meta = dict(self.meta)
        meta.update({
            "bias_ratio": self.bias_ratio,
            "num_classes": self.num_classes,
            "num_bias_classes": self.num_bias_classes,
            "n": len(self),
            "input_dim": self.input_dim,
        })
        write_json(directory / "meta.json", meta)

    @classmethod
    def load(cls, directory) -> "BiasedDataset":
        """Read a directory written by save. A malformed inputs.npy, one of
        width 0, or one whose row count differs from labels.csv, raises
        ValueError naming its path, as does a meta.json without a real
        bias_ratio in [0, 1] and num_classes and num_bias_classes in
        [1, MAX_CLASSES]; a labels.csv that is not rows of three integers,
        or whose labels the dataset refuses, or whose aligned column holds
        a value other than 0 or 1, raises it naming labels.csv."""
        directory = Path(directory)
        inputs = _read_inputs(directory / INPUTS_NAME)
        labels_path = directory / "labels.csv"
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                labels = np.loadtxt(labels_path, delimiter=",", skiprows=1, dtype=np.int64,
                                    ndmin=2)
        except ValueError as exc:
            raise ValueError(f"{labels_path}: {exc}") from None
        if labels.size == 0:  # a header-only file: no samples
            labels = labels.reshape(0, 3)
        if labels.shape[1] != 3:
            raise ValueError(f"{labels_path}: need 3 columns (y, b, aligned), "
                             f"got {labels.shape[1]}")
        flags = np.flatnonzero((labels[:, 2] != 0) & (labels[:, 2] != 1))
        if flags.size:
            raise ValueError(f"{labels_path}: aligned must be 0 or 1, got "
                             f"{labels[flags[0], 2]} at sample {flags[0]}")
        if inputs.shape[0] != labels.shape[0]:
            raise ValueError(f"{directory / INPUTS_NAME}: {inputs.shape[0]} rows, "
                             f"but labels.csv has {labels.shape[0]}")
        meta_path = directory / "meta.json"
        meta = read_json(meta_path)
        names = [f.name for f in fields(_MetaFields)]
        missing = [name for name in names if name not in meta]
        if missing:
            raise ValueError(f"{meta_path}: no {', '.join(missing)}")
        try:
            known = _MetaFields(*(meta.pop(name) for name in names))
        except ValueError as exc:
            raise ValueError(f"{meta_path}: {exc}") from None
        try:
            return cls(inputs, labels[:, 0], labels[:, 1], labels[:, 2].astype(bool),
                       known.bias_ratio, known.num_classes, known.num_bias_classes, meta)
        except ValueError as exc:
            raise ValueError(f"{labels_path}: {exc}") from None


@dataclass
class _MetaFields:
    """The fields of meta.json that load passes to the dataset, checked as
    config fields are: a real in [0, 1] (0 for a subset with no aligned
    sample) and two positive integers of at most MAX_CLASSES."""

    bias_ratio: float
    num_classes: int
    num_bias_classes: int

    def __post_init__(self):
        check_fields(self, {"bias_ratio": 0, "num_classes": 1, "num_bias_classes": 1},
                     {"bias_ratio": 1, "num_classes": MAX_CLASSES,
                      "num_bias_classes": MAX_CLASSES})


def _read_inputs(path: Path) -> np.ndarray:
    """Read the 2-D little-endian float64 .npy file that save writes.

    The header is checked against the file size before the payload is
    read, so a corrupt header never allocates more than the file holds.
    """
    with open(path, "rb") as f:
        try:
            version = npy_format.read_magic(f)
            if version != (1, 0):
                raise ValueError(f"unsupported .npy version {version}")
            shape, fortran_order, dtype = npy_format.read_array_header_1_0(f)
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None
        if dtype != np.dtype("<f8") or fortran_order:
            raise ValueError(f"{path}: need C-ordered little-endian float64, "
                             f"got {dtype.str}{' in Fortran order' * fortran_order}")
        if len(shape) != 2 or min(shape) < 0:
            raise ValueError(f"{path}: need two non-negative dimensions, got shape {shape}")
        if shape[1] == 0:
            raise ValueError(f"{path}: rows have width 0")
        size = 8 * shape[0] * shape[1]
        left = os.fstat(f.fileno()).st_size - f.tell()
        if left != size:
            raise ValueError(f"{path}: shape {shape} needs {size} payload bytes, "
                             f"the file holds {left}")
        inputs = np.empty(shape, dtype="<f8")
        if f.readinto(inputs) != size:
            raise ValueError(f"{path}: changed while being read")
    return inputs


def check_fields(cfg, lowest: dict, highest: dict | None = None) -> None:
    """Check every field of the config dataclass cfg against its annotation,
    naming the field: int, float, tuple[int, ...] and tuple[float, ...]
    fields must hold numbers of that kind (never a bool or a string),
    floats must be finite, integers other than seeds must fit in int64, and
    a field named in lowest (highest) must be at least (at most) that value
    (each item of a tuple). str and dict fields are skipped."""
    highest = highest or {}
    for f in fields(cfg):
        if f.type in ("str", "dict"):
            continue
        value = getattr(cfg, f.name)
        kind = numbers.Real if "float" in f.type else numbers.Integral
        items = value if f.type.startswith("tuple") else [value]
        if (not isinstance(items, (list, tuple))
                or any(isinstance(v, bool) or not isinstance(v, kind) for v in items)):
            raise ValueError(f"{f.name} must be {kind.__name__.lower()}, got {value!r}")
        if not all(-math.inf < v < math.inf for v in items):  # NaN fails too
            raise ValueError(f"{f.name} must be finite, got {value}")
        if kind is numbers.Integral and f.name != "seed" and not all(
                -2**63 <= v < 2**63 for v in items):  # numpy sizes and counts are int64
            raise ValueError(f"{f.name} must fit in int64, got {value}")
        if any(v < lowest.get(f.name, -math.inf) for v in items):
            raise ValueError(f"{f.name} must be >= {lowest[f.name]}, got {value}")
        if any(v > highest.get(f.name, math.inf) for v in items):
            raise ValueError(f"{f.name} must be <= {highest[f.name]}, got {value}")


def check_bias_ratio(bias_ratio: float) -> None:
    """The aligned fraction of a generated dataset must be in (0, 1]."""
    if not 0.0 < bias_ratio <= 1.0:
        raise ValueError(f"bias_ratio must be in (0, 1], got {bias_ratio}")


def image_shape(ds: BiasedDataset, where: str = "dataset") -> tuple[int, int, int]:
    """The (c, h, w) of the flattened images that are ds's rows, the
    image_shape of its meta.json. A dataset without one, whose image_shape
    is not three positive integers, or whose image_shape's product is not
    the width raises ValueError starting with where."""
    shape = ds.meta.get("image_shape")
    if shape is None:
        raise ValueError(f"{where}: meta.json has no image_shape, so its rows are not images")
    if not (isinstance(shape, (list, tuple)) and len(shape) == 3
            and all(type(s) is int and s > 0 for s in shape)):
        raise ValueError(f"{where}: image_shape {shape!r} is not three positive integers")
    if math.prod(shape) != ds.input_dim:
        raise ValueError(f"{where}: rows have width {ds.input_dim}, "
                         f"not the product of image_shape {shape}")
    return tuple(shape)


@dataclass
class GenConfig:
    """Knobs for the synthetic color-points generator."""

    n: int
    classes: int = 10
    bias_ratio: float = 0.99
    noise: float = 0.05
    input_dim: int = 16
    seed: int = 0

    def __post_init__(self):
        check_fields(self, {"n": 1, "classes": 2, "seed": 0}, {"classes": MAX_CLASSES})
        check_bias_ratio(self.bias_ratio)
        if self.input_dim < 2 + self.classes:
            raise ValueError(
                f"input_dim must cover 2 arc coords + {self.classes} bias coords"
            )
        if self.n * self.input_dim > MAX_GEN_ENTRIES:
            raise ValueError(f"n * input_dim must be <= {MAX_GEN_ENTRIES}, "
                             f"got {self.n} * {self.input_dim}")


# Geometry and scale constants for the color-points generator. The arc
# block interleaves one spiral arm per class; adjacent arms sit
# ARC_SPAN / (classes * ARC_TURNS) apart radially, so the default noise
# leaves the task learnable by an MLP but not linearly separable. The bias
# offset is made large so a linear probe (and an optimizer's early
# dynamics) find it first.
ARC_TURNS = 0.5
ARC_R0 = 0.8
ARC_SPAN = 2.0
BIAS_OFFSET = 2.0
BIAS_NOISE = 0.1
BIAS_SHARPNESS = 3.0
DISTRACTOR_SCALE = 0.5


def _balanced_labels(n: int, classes: int) -> np.ndarray:
    counts = np.full(classes, n // classes)
    counts[: n % classes] += 1
    return np.repeat(np.arange(classes), counts)


def _assign_bias(y: np.ndarray, bias_ratio: float, classes: int,
                 rng: np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Exactly round(r * n) aligned samples; conflicts get a uniformly
    random other class."""
    n = y.shape[0]
    k_aligned = int(round(bias_ratio * n))
    order = rng.permutation(n)
    aligned = np.zeros(n, dtype=bool)
    aligned[order[:k_aligned]] = True
    b = y.copy()
    conflict = ~aligned
    b[conflict] = (y[conflict] + rng.integers(1, classes, conflict.sum())) % classes
    return b, aligned


def _warn_empty_groups(ds: BiasedDataset) -> None:
    empty = int((ds.group_counts() == 0).sum())
    if empty:
        warnings.warn(
            f"{empty} of {ds.num_classes * ds.num_bias_classes} (y, b) groups are empty",
            stacklevel=3,
        )


def _bias_block(b: np.ndarray, classes: int) -> np.ndarray:
    """Noiseless bias pattern: a smooth circular bump peaking at coordinate b.

    The bump keeps the block trivially decodable (the peak value
    BIAS_OFFSET sits exactly at coordinate b) while concentrating the
    pattern family in a few directions instead of the full one-hot basis,
    so a model that encodes only the bias stays genuinely low-rank.
    """
    coords = np.arange(classes)
    phase = 2.0 * np.pi * (coords[None, :] - b[:, None]) / classes
    return BIAS_OFFSET * np.exp(BIAS_SHARPNESS * (np.cos(phase) - 1.0))


def gen_colorpoints(cfg: GenConfig) -> BiasedDataset:
    """Generate the synthetic biased dataset.

    Input layout: coords [0, 2) hold the arc point encoding y, coords
    [2, 2 + classes) hold the bias offset block encoding b, and any
    remaining coords are pure-noise distractors.
    """
    rng = np.random.default_rng(cfg.seed)
    n, C = cfg.n, cfg.classes
    y = _balanced_labels(n, C)
    rng.shuffle(y)
    b, aligned = _assign_bias(y, cfg.bias_ratio, C, rng)

    t = rng.uniform(0.0, 1.0, n)
    angle = 2.0 * np.pi * (ARC_TURNS * t + y / C)
    radius = ARC_R0 + ARC_SPAN * t
    arc = np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])
    arc += cfg.noise * rng.standard_normal(arc.shape)

    simple = _bias_block(b, C) + BIAS_NOISE * rng.standard_normal((n, C))

    n_extra = cfg.input_dim - 2 - C
    distract = DISTRACTOR_SCALE * rng.standard_normal((n, n_extra))

    inputs = np.concatenate([arc, simple, distract], axis=1)
    meta = {
        "generator": "colorpoints",
        "seed": cfg.seed,
        "noise": cfg.noise,
        "arc_turns": ARC_TURNS,
        "arc_r0": ARC_R0,
        "arc_span": ARC_SPAN,
        "bias_offset": BIAS_OFFSET,
        "bias_noise": BIAS_NOISE,
        "bias_sharpness": BIAS_SHARPNESS,
        "distractor_scale": DISTRACTOR_SCALE,
        "complex_block": [0, 2],
        "simple_block": [2, 2 + C],
    }
    ds = BiasedDataset(inputs, y, b, aligned, cfg.bias_ratio, C, C, meta)
    _warn_empty_groups(ds)
    return ds


def _read_idx(path, magic: int, ndim: int, item: str) -> np.ndarray:
    """The uint8 array of a big-endian IDX file: the magic, ndim u32 sizes,
    then the bytes. A short header, another magic or a file whose size the
    header does not give raises ValueError naming path."""
    path = Path(path)
    raw = path.read_bytes()
    start = 4 * (1 + ndim)
    if len(raw) < start:
        raise ValueError(f"{path}: truncated IDX {item} header")
    found, *shape = struct.unpack(f">{1 + ndim}I", raw[:start])
    if found != magic:
        raise ValueError(f"{path}: bad magic 0x{found:08x}, expected 0x{magic:08x}")
    expected = start + math.prod(shape)
    if len(raw) != expected:
        raise ValueError(f"{path}: expected {expected} bytes for {shape[0]} {item}s, "
                         f"got {len(raw)}")
    return np.frombuffer(raw, dtype=np.uint8, offset=start).reshape(shape)


def read_idx_images(path) -> np.ndarray:
    """Read a big-endian IDX image file into a uint8 (n, rows, cols) array."""
    return _read_idx(path, IDX_IMAGES_MAGIC, 3, "image")


def read_idx_labels(path) -> np.ndarray:
    """Read a big-endian IDX label file into a uint8 (n,) array."""
    return _read_idx(path, IDX_LABELS_MAGIC, 1, "label")


def write_idx_images(path, images: np.ndarray) -> None:
    """Inverse of read_idx_images, mainly for building test fixtures."""
    images = np.asarray(images, dtype=np.uint8)
    n, rows, cols = images.shape
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IDX_IMAGES_MAGIC, n, rows, cols))
        f.write(images.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    labels = np.asarray(labels, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(struct.pack(">II", IDX_LABELS_MAGIC, labels.shape[0]))
        f.write(labels.tobytes())


def _tint(gray: np.ndarray, color_idx: np.ndarray) -> np.ndarray:
    """Multiplicative colorization: scale foreground intensity by the palette
    RGB, flattened channel-major (R plane, G plane, B plane)."""
    palette = np.asarray(CMNIST_PALETTE)
    n = gray.shape[0]
    flat = gray.reshape(n, -1)
    rgb = palette[color_idx]  # (n, 3)
    return (rgb[:, :, None] * flat[:, None, :]).reshape(n, -1)


def cmnist_from_idx(images_path, labels_path, bias_ratio: float, seed: int = 0) -> BiasedDataset:
    """Build color-MNIST from raw IDX files.

    Aligned samples are tinted with their digit's palette color, the rest
    with a uniformly random other class color. Pixels are scaled to [0, 1]
    and each image is flattened to 3 * rows * cols values.
    """
    check_bias_ratio(bias_ratio)
    images = read_idx_images(images_path)
    labels = read_idx_labels(labels_path)
    if images.shape[0] != labels.shape[0]:
        raise ValueError(
            f"{images.shape[0]} images but {labels.shape[0]} labels"
        )
    y = labels.astype(np.int64)
    rng = np.random.default_rng(seed)
    b, aligned = _assign_bias(y, bias_ratio, 10, rng)
    gray = images.astype(np.float64) / 255.0
    inputs = _tint(gray, b)
    meta = {
        "generator": "cmnist",
        "seed": seed,
        "palette": [list(c) for c in CMNIST_PALETTE],
        "image_shape": [3, int(images.shape[1]), int(images.shape[2])],
    }
    ds = BiasedDataset(inputs, y, b, aligned, bias_ratio, 10, 10, meta)
    _warn_empty_groups(ds)
    return ds


def make_unbiased_testset(source: BiasedDataset, seed: int = 0) -> BiasedDataset:
    """Reassign bias labels uniformly at random, independent of y, and
    re-render the bias features accordingly."""
    rng = np.random.default_rng(seed)
    n = len(source)
    new_b = rng.integers(0, source.num_bias_classes, n)
    gen = source.meta.get("generator")
    if gen == "colorpoints":
        lo, hi = source.meta["simple_block"]
        noise = source.meta["bias_noise"] * rng.standard_normal((n, hi - lo))
        inputs = source.inputs.copy()
        inputs[:, lo:hi] = _bias_block(new_b, hi - lo) + noise
    elif gen == "cmnist":
        c, h, w = source.meta["image_shape"]
        gray = source.inputs.reshape(n, c, h * w).max(axis=1)
        inputs = _tint(gray, new_b)
    else:
        raise ValueError(f"cannot re-render bias features for generator {gen!r}")
    aligned = new_b == spurious_map(source.y)
    return BiasedDataset(inputs, source.y.copy(), new_b, aligned,
                         float(aligned.mean()), source.num_classes,
                         source.num_bias_classes, dict(source.meta))


def label_fraction_split(ds: BiasedDataset, fraction: float, seed: int = 0) -> BiasedDataset:
    """The labeled part of a split stratified by (y, b) group: each nonempty
    group, in ascending order of its index, keeps the first
    rint(fraction * size) of a seeded permutation of its ascending sample
    indices; at fraction 1, ds itself. Groups that keep nothing trigger a
    warning, not an error."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"label fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return ds
    rng = np.random.default_rng(seed)
    order = np.argsort(ds.groups, kind="stable")
    # runs of one group index in order; a zero-row ds splits into one empty run
    runs = np.split(order, np.flatnonzero(np.diff(ds.groups[order])) + 1)
    kept = [rng.permutation(m)[:int(np.rint(fraction * m.size))] for m in runs if m.size]
    lost = sum(k.size == 0 for k in kept)
    if lost:
        warnings.warn(f"{lost} nonempty (y, b) groups lost all samples in the labeled split",
                      stacklevel=2)
    return ds.take(np.sort(np.concatenate([order[:0], *kept])))


@dataclass
class VectorAugmentConfig:
    """Stochastic view parameters for vector inputs. noise_scale multiplies
    the per-feature standard deviation."""

    noise_scale: float = 0.1
    dropout_p: float = 0.1
    scale_low: float = 0.8
    scale_high: float = 1.25


@dataclass
class ImageAugmentConfig:
    """Stochastic view parameters for color-MNIST images."""

    crop_scale_min: float = 0.2
    flip_p: float = 0.5
    jitter_p: float = 0.8
    jitter_strength: float = 0.4
    grayscale_p: float = 0.2


def augment_vector_batch(X, rng: np.random.Generator, feature_std,
                         config: VectorAugmentConfig | None = None) -> np.ndarray:
    """One stochastic view of each row: additive Gaussian noise scaled by the
    per-feature std, random coordinate dropout, then a random global scaling.

    Always draws the same number of random values, so configs that disable a
    transform keep every other draw (and the degenerate config returns the
    input unchanged).
    """
    cfg = config or VectorAugmentConfig()
    X = np.asarray(X, dtype=np.float64)
    std = np.broadcast_to(np.asarray(feature_std, dtype=np.float64), X.shape[1:])
    noise = rng.standard_normal(X.shape) * (cfg.noise_scale * std)
    keep = rng.random(X.shape) >= cfg.dropout_p
    scale = rng.uniform(cfg.scale_low, cfg.scale_high, (X.shape[0], 1))
    return (X + noise) * keep * scale


def _axis_coords(size: np.ndarray, out_size: int):
    """Bilinear source coordinates along one axis, for crops of size[i]
    pixels resized to out_size: the lower and upper source index of each
    output pixel and the weight of the upper one, each (len(size), out_size)."""
    size = size[:, None]
    src = (np.arange(out_size) + 0.5) * (size / out_size) - 0.5
    src = np.clip(src, 0.0, size - 1.0)
    i0 = np.floor(src).astype(np.intp)
    i1 = np.minimum(i0 + 1, size - 1)
    return i0, i1, src - i0


def _lerp_rows(rows: np.ndarray, i0, i1, frac, lo: np.ndarray, hi: np.ndarray
               ) -> np.ndarray:
    """rows[i0] * (1 - frac) + rows[i1] * frac, gathering whole rows of the
    2-D array rows into the flat buffers lo and hi; frac broadcasts against
    the (*i0.shape, row length) result, which is left in lo."""
    shape = (*i0.shape, rows.shape[1])
    lo, hi = lo.reshape(shape), hi.reshape(shape)
    # the indices are in range by construction; any mode but "raise" lets
    # take write into lo and hi directly instead of through a buffer
    np.take(rows, i0, axis=0, out=lo, mode="clip")
    np.take(rows, i1, axis=0, out=hi, mode="clip")
    lo *= 1.0 - frac
    hi *= frac
    lo += hi
    return lo


def _plane_means(planes: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Mean of each (w, h) plane of an (n, c, w, h) array, summed in the
    order numpy sums the (c, h, w) view of one resized image, whose memory
    runs (w, h, c): one term after another for c > 1, pairwise for c == 1.
    scratch is a flat buffer of planes.size floats."""
    n, c, w, h = planes.shape
    flat = planes.reshape(n * c, w * h)
    if c == 1:
        sums = np.add.reduce(flat, axis=1)
    else:
        # summed down the columns of the transpose: each row adds one term
        # to every plane's running sum
        terms = scratch.reshape(w * h, n * c)
        np.copyto(terms, flat.T)
        sums = np.add.reduce(terms, axis=0)
    sums /= w * h
    return sums.reshape(n, c, 1, 1)


def augment_image_batch(X, rng: np.random.Generator, image_shape,
                        config: ImageAugmentConfig | None = None) -> np.ndarray:
    """One stochastic view of each row, a flattened (c, h, w) image in [0, 1]:
    a random crop resized back bilinearly, then a horizontal flip, color
    jitter (per-channel brightness, then contrast about the channel mean)
    and grayscale, each with its probability, then a clip to [0, 1].

    Every image draws the same random values in the same order, whichever
    branches fire: the crop area, its top and left, flip, jitter, c
    brightness and c contrast factors, grayscale. Only the draws loop over
    images; the pixel work runs once over the whole batch.
    """
    cfg = config or ImageAugmentConfig()
    X = np.asarray(X, dtype=np.float64)
    c, h, w = image_shape
    n = X.shape[0]
    side = np.empty((2, n), dtype=np.intp)
    corner = np.empty((2, n), dtype=np.intp)
    coin = np.empty((3, n))
    factors = np.empty((n, 2, c))  # brightness, contrast
    s = cfg.jitter_strength
    # random(2) and the (2, c) uniform draw the same values as two calls each
    for i in range(n):
        root = math.sqrt(rng.uniform(cfg.crop_scale_min, 1.0))
        side[0, i] = side_h = max(1, round(h * root))
        side[1, i] = side_w = max(1, round(w * root))
        corner[0, i] = rng.integers(0, h - side_h + 1)
        corner[1, i] = rng.integers(0, w - side_w + 1)
        coin[:2, i] = rng.random(2)
        factors[i] = rng.uniform(1.0 - s, 1.0 + s, (2, c))
        coin[2, i] = rng.random()
    flip = coin[0] < cfg.flip_p
    jitter = coin[1] < cfg.jitter_p
    gray = coin[2] < cfg.grayscale_p

    # crop rows, resized to h, over the full width: (n, c, h, w) in lo
    lo, hi, views = np.empty(X.size), np.empty(X.size), np.empty_like(X)
    r0, r1, rf = _axis_coords(side[0], h)
    start = (np.arange(n * c).reshape(n, c) * h + corner[0][:, None])[:, :, None]
    rows = _lerp_rows(X.reshape(n * c * h, w), start + r0[:, None], start + r1[:, None],
                      rf[:, None, :, None], lo, hi)
    # crop columns, resized to w, as rows of the transpose (in views until
    # the end): (n, c, w, h) in lo; a flip reverses an image's column
    # coordinates
    cols = views.reshape(n, c, w, h)
    np.copyto(cols, rows.transpose(0, 1, 3, 2))
    c0, c1, cf = (np.where(flip[:, None], a[:, ::-1], a) for a in _axis_coords(side[1], w))
    start = (np.arange(n * c).reshape(n, c) * w + corner[1][:, None])[:, :, None]
    out = _lerp_rows(cols.reshape(n * c * w, h), start + c0[:, None], start + c1[:, None],
                     cf[:, None, :, None], lo, hi)

    if jitter.any():
        plain = np.flatnonzero(~jitter)
        kept = out[plain]
        out *= factors[:, 0, :, None, None]
        mean = _plane_means(out, hi)
        out -= mean
        out *= factors[:, 1, :, None, None]
        out += mean
        out[plain] = kept
    if gray.any():
        out[gray] = out[gray].mean(axis=1, keepdims=True)
    np.clip(out.transpose(0, 1, 3, 2), 0.0, 1.0, out=views.reshape(n, c, h, w))
    return views
