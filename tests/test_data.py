"""Dataset construction: the synthetic generator, color-MNIST from IDX,
unbiased test sets, splits, and view augmentation."""

import io
import json
import re
import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.stats
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib import format as npy_format

from helpers import loop_augment_images, lstsq_probe, split
from rankdebias.data import (
    BIAS_OFFSET,
    CMNIST_PALETTE,
    MAX_CLASSES,
    BiasedDataset,
    GenConfig,
    ImageAugmentConfig,
    VectorAugmentConfig,
    augment_image_batch,
    augment_vector_batch,
    cmnist_from_idx,
    gen_colorpoints,
    label_fraction_split,
    make_unbiased_testset,
    read_idx_images,
    read_idx_labels,
    spurious_map,
    write_idx_images,
    write_idx_labels,
)

pytestmark = pytest.mark.filterwarnings("ignore:.*groups are empty")


# ------------------------------------------------------------- BiasedDataset


def _tiny_ds():
    y = np.array([0, 0, 1, 1])
    b = np.array([0, 1, 1, 1])
    aligned = b == y
    X = np.arange(8, dtype=np.float64).reshape(4, 2)
    return BiasedDataset(X, y, b, aligned, 0.75, 2, 2)


def test_dataset_rejects_inconsistent_alignment():
    with pytest.raises(ValueError, match="aligned"):
        BiasedDataset(np.zeros((2, 3)), [0, 1], [0, 1], [True, False], 0.5, 2, 2)


def test_dataset_rejects_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        BiasedDataset(np.zeros((3, 2)), [0, 1], [0, 1], [True, True], 1.0, 2, 2)


@pytest.mark.parametrize("name, value", [("y", -1), ("y", 2), ("b", -1), ("b", 2)])
def test_dataset_rejects_labels_outside_their_classes(name, value):
    ds = _tiny_ds()
    labels = {"y": ds.y.copy(), "b": ds.b.copy()}
    labels[name][1] = value
    y, b = labels["y"], labels["b"]
    with pytest.raises(ValueError,
                       match=fr"^{name} must lie in \[0, 2\), got {value} at sample 1$"):
        BiasedDataset(ds.inputs, y, b, b == spurious_map(y), 0.75, 2, 2)


def test_load_names_labels_csv_for_labels_outside_their_classes(tmp_path):
    _tiny_ds().save(tmp_path / "d")
    path = tmp_path / "d" / "labels.csv"
    lines = path.read_text().splitlines()
    lines[1] = "7,7,1"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: y must lie in [0, 2), got 7")):
        BiasedDataset.load(tmp_path / "d")


def test_load_refuses_a_labels_csv_of_two_columns_naming_it(tmp_path):
    _tiny_ds().save(tmp_path / "d")
    path = tmp_path / "d" / "labels.csv"
    path.write_text("y,b\n0,0\n0,1\n1,1\n1,1\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: need 3 columns (y, b, aligned), "
                                                   "got 2")):
        BiasedDataset.load(tmp_path / "d")


@pytest.mark.parametrize("key, value, message", [
    ("num_classes", "2", "num_classes must be integral, got '2'"),
    ("num_classes", True, "num_classes must be integral, got True"),
    ("num_classes", 2.0, "num_classes must be integral, got 2.0"),
    ("num_classes", 0, "num_classes must be >= 1, got 0"),
    ("num_classes", MAX_CLASSES + 1, f"num_classes must be <= {MAX_CLASSES}, got 1025"),
    ("num_bias_classes", 10**12, f"num_bias_classes must be <= {MAX_CLASSES}, got {10**12}"),
    ("num_bias_classes", "2", "num_bias_classes must be integral, got '2'"),
    ("num_bias_classes", False, "num_bias_classes must be integral, got False"),
    ("num_bias_classes", 2.5, "num_bias_classes must be integral, got 2.5"),
    ("bias_ratio", "0.75", "bias_ratio must be real, got '0.75'"),
    ("bias_ratio", True, "bias_ratio must be real, got True"),
    ("bias_ratio", None, "bias_ratio must be real, got None"),
    ("bias_ratio", 1e400, "bias_ratio must be finite, got inf"),
    ("bias_ratio", 5, "bias_ratio must be <= 1, got 5"),
    ("bias_ratio", -0.1, "bias_ratio must be >= 0, got -0.1"),
    ("bias_ratio", "missing", "no bias_ratio"),
    ("num_classes", "missing", "no num_classes"),
    ("num_bias_classes", "missing", "no num_bias_classes"),
])
def test_load_refuses_a_malformed_meta_json_naming_it(tmp_path, key, value, message):
    _tiny_ds().save(tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    meta = json.loads(path.read_text())
    if value == "missing":
        del meta[key]
    else:
        meta[key] = value
    path.write_text(json.dumps(meta))
    with pytest.raises(ValueError, match=f"^{re.escape(f'{path}: {message}')}$"):
        BiasedDataset.load(tmp_path / "d")


def test_load_refuses_a_meta_json_that_is_not_an_object(tmp_path):
    _tiny_ds().save(tmp_path / "d")
    path = tmp_path / "d" / "meta.json"
    path.write_text("[2, 2]")
    with pytest.raises(ValueError, match=re.escape(f"{path}: need a JSON object, got list")):
        BiasedDataset.load(tmp_path / "d")


def test_group_counts_by_hand():
    counts = _tiny_ds().group_counts()
    np.testing.assert_array_equal(counts, [[1, 1], [0, 2]])
    assert counts.sum() == 4


def test_take_recomputes_ratio():
    sub = _tiny_ds().take([0, 1])
    assert sub.bias_ratio == 0.5
    assert len(sub) == 2
    np.testing.assert_array_equal(sub.inputs, [[0.0, 1.0], [2.0, 3.0]])


def test_save_load_round_trip_is_exact(tmp_path):
    ds = gen_colorpoints(GenConfig(n=60, classes=3, bias_ratio=0.8, input_dim=6))
    ds.save(tmp_path / "d")
    back = BiasedDataset.load(tmp_path / "d")
    np.testing.assert_array_equal(back.inputs, ds.inputs)
    np.testing.assert_array_equal(back.y, ds.y)
    np.testing.assert_array_equal(back.b, ds.b)
    np.testing.assert_array_equal(back.aligned, ds.aligned)
    assert back.bias_ratio == ds.bias_ratio
    assert back.meta["generator"] == "colorpoints"


@pytest.mark.filterwarnings("ignore:.*groups are empty")
def test_a_dataset_with_the_most_classes_round_trips(tmp_path):
    # every set data gen writes loads: GenConfig and meta.json share the bound
    ds = gen_colorpoints(GenConfig(n=2 * MAX_CLASSES, classes=MAX_CLASSES,
                                   input_dim=MAX_CLASSES + 2))
    ds.save(tmp_path / "d")
    back = BiasedDataset.load(tmp_path / "d")
    assert (back.num_classes, back.num_bias_classes) == (MAX_CLASSES, MAX_CLASSES)


def test_zero_row_dataset_round_trips_without_a_warning(tmp_path):
    ds = gen_colorpoints(GenConfig(n=50, classes=3))
    empty = ds.take(np.empty(0, dtype=np.int64))  # the unlabeled part at fraction 1
    empty.save(tmp_path / "d")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        back = BiasedDataset.load(tmp_path / "d")
    assert len(back) == 0 and back.input_dim == ds.input_dim
    assert (back.y.size, back.b.size, back.aligned.size) == (0, 0, 0)
    assert (back.bias_ratio, back.num_classes, back.num_bias_classes) == (0.0, 3, 3)
    assert back.meta == json.loads(json.dumps({**ds.meta, "n": 0, "input_dim": ds.input_dim}))


def test_save_is_byte_deterministic(tmp_path):
    ds = gen_colorpoints(GenConfig(n=40, classes=2, bias_ratio=0.9, input_dim=5))
    ds.save(tmp_path / "a")
    ds.save(tmp_path / "b")
    for name in ("inputs.npy", "labels.csv", "meta.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def _ds_of(inputs):
    y = np.arange(inputs.shape[0]) % 2
    return BiasedDataset(inputs, y, y, np.ones_like(y, dtype=bool), 1.0, 2, 2)


EDGE_FLOATS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308,
                               1e308, -1e308, np.inf, -np.inf, np.nan])


@settings(max_examples=50, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 9), st.integers(1, 9)),
              elements=st.floats(width=64) | EDGE_FLOATS))
def test_inputs_npy_round_trip_is_bit_exact(inputs):
    with tempfile.TemporaryDirectory() as tmp:
        a, b = Path(tmp, "a"), Path(tmp, "b")
        _ds_of(inputs).save(a)
        _ds_of(inputs).save(b)
        assert (a / "inputs.npy").read_bytes() == (b / "inputs.npy").read_bytes()
        back = BiasedDataset.load(a).inputs
    assert back.dtype == np.float64 and back.shape == inputs.shape
    assert back.tobytes() == inputs.tobytes()


def test_inputs_npy_bytes_do_not_depend_on_memory_layout(tmp_path):
    X = np.arange(12, dtype=np.float64).reshape(3, 4)
    _ds_of(X).save(tmp_path / "c")
    _ds_of(np.asfortranarray(X)).save(tmp_path / "f")
    _ds_of(X.astype(">f8")).save(tmp_path / "be")
    want = (tmp_path / "c" / "inputs.npy").read_bytes()
    assert (tmp_path / "f" / "inputs.npy").read_bytes() == want
    assert (tmp_path / "be" / "inputs.npy").read_bytes() == want


def _npy_bytes(array, allow_pickle=False) -> bytes:
    buf = io.BytesIO()
    np.save(buf, array, allow_pickle=allow_pickle)
    return buf.getvalue()


def _header_bytes(shape, descr="<f8", fortran_order=False) -> bytes:
    buf = io.BytesIO()
    npy_format.write_array_header_1_0(
        buf, {"descr": descr, "fortran_order": fortran_order, "shape": shape})
    return buf.getvalue()


TEN_BY_SEVEN = np.arange(70, dtype=np.float64).reshape(10, 7)
# each replaces the inputs.npy of a 10 x 7 dataset
CORRUPT_INPUTS = {
    "empty": b"",
    "bad magic": b"NUMPY\x01\x00" + _npy_bytes(TEN_BY_SEVEN)[8:],
    "trailing bytes": _npy_bytes(TEN_BY_SEVEN) + b"\x00",
    "float32": _npy_bytes(TEN_BY_SEVEN.astype(np.float32)),
    "big-endian": _npy_bytes(TEN_BY_SEVEN.astype(">f8")),
    "fortran order": _header_bytes((10, 7), fortran_order=True) + TEN_BY_SEVEN.tobytes(),
    "1-D": _npy_bytes(TEN_BY_SEVEN.ravel()),
    "3-D": _npy_bytes(TEN_BY_SEVEN.reshape(10, 7, 1)),
    "negative shape": _header_bytes((-10, -7)) + TEN_BY_SEVEN.tobytes(),
    "object dtype": _npy_bytes(np.array([[1.0, None]] * 10, dtype=object), allow_pickle=True),
    "header too large": _header_bytes((999999, 7)) + TEN_BY_SEVEN.tobytes(),
    "garbled header": _npy_bytes(TEN_BY_SEVEN).replace(b"'shape'", b"'shaqe'"),
    "9 of 10 rows": _npy_bytes(TEN_BY_SEVEN[:9]),
    "11 of 10 rows": _npy_bytes(TEN_BY_SEVEN[[*range(10), 0]]),
    "zero width": _npy_bytes(TEN_BY_SEVEN[:, :0]),
}


@pytest.fixture
def ten_rows(tmp_path):
    _ds_of(TEN_BY_SEVEN).save(tmp_path / "d")
    return tmp_path / "d"


@pytest.mark.parametrize("name", CORRUPT_INPUTS)
def test_load_refuses_corrupt_inputs_naming_the_path(ten_rows, name):
    path = ten_rows / "inputs.npy"
    path.write_bytes(CORRUPT_INPUTS[name])
    with pytest.raises(ValueError, match="inputs.npy"):
        BiasedDataset.load(ten_rows)


def test_load_refuses_every_truncation(ten_rows):
    path = ten_rows / "inputs.npy"
    raw = path.read_bytes()
    for cut in range(len(raw)):
        path.write_bytes(raw[:cut])
        with pytest.raises(ValueError, match="inputs.npy"):
            BiasedDataset.load(ten_rows)
    path.write_bytes(raw)
    assert BiasedDataset.load(ten_rows).inputs.tobytes() == TEN_BY_SEVEN.tobytes()


def test_load_checks_the_header_before_allocating(ten_rows):
    # the header claims (999999, 7), 56 MB; the file holds 10 rows
    (ten_rows / "inputs.npy").write_bytes(CORRUPT_INPUTS["header too large"])
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="inputs.npy"):
            BiasedDataset.load(ten_rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_labels_csv_has_header(tmp_path):
    _tiny_ds().save(tmp_path / "d")
    first = (tmp_path / "d" / "labels.csv").read_text().splitlines()[0]
    assert first == "y,b,aligned"


# ------------------------------------------------------------ gen_colorpoints


def test_gen_full_bias_ratio_aligns_everything():
    ds = gen_colorpoints(GenConfig(n=200, classes=10, bias_ratio=1.0))
    assert ds.aligned.all()
    np.testing.assert_array_equal(ds.b, ds.y)


def test_gen_exact_aligned_count():
    ds = gen_colorpoints(GenConfig(n=1000, classes=10, bias_ratio=0.99))
    assert int(ds.aligned.sum()) == 990


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10**6), st.integers(50, 400),
       st.floats(0.05, 1.0), st.integers(2, 8))
def test_gen_alignment_invariants(seed, n, r, C):
    ds = gen_colorpoints(GenConfig(n=n, classes=C, bias_ratio=r,
                                   input_dim=2 + C + 2, seed=seed))
    assert int(ds.aligned.sum()) == int(round(r * n))
    np.testing.assert_array_equal(ds.aligned, ds.b == spurious_map(ds.y))
    assert ds.inputs.shape == (n, 2 + C + 2)
    conflicts = ~ds.aligned
    assert not np.any(ds.b[conflicts] == ds.y[conflicts])


def test_gen_is_seed_deterministic():
    cfg = GenConfig(n=300, classes=4, bias_ratio=0.7, input_dim=10, seed=11)
    a, b = gen_colorpoints(cfg), gen_colorpoints(cfg)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.b, b.b)
    c = gen_colorpoints(GenConfig(n=300, classes=4, bias_ratio=0.7,
                                  input_dim=10, seed=12))
    assert not np.array_equal(a.inputs, c.inputs)


def test_gen_unbiased_ratio_makes_bias_independent():
    ds = gen_colorpoints(GenConfig(n=10_000, classes=10, bias_ratio=0.1, seed=0))
    _, p, _, _ = scipy.stats.chi2_contingency(ds.group_counts())
    assert p > 0.01


def test_gen_balanced_classes():
    ds = gen_colorpoints(GenConfig(n=1000, classes=10, bias_ratio=1.0))
    np.testing.assert_array_equal(np.bincount(ds.y), np.full(10, 100))


def test_gen_bias_block_is_linearly_easy_and_arc_block_is_not():
    # the asymmetry the whole pipeline depends on: a linear probe reads the
    # bias off the offset block almost perfectly but cannot read the class
    # off the interleaved arcs
    ds = gen_colorpoints(GenConfig(n=4000, classes=10, bias_ratio=0.1, seed=3))
    lo, hi = ds.meta["simple_block"]
    half = len(ds) // 2
    simple, arc = ds.inputs[:, lo:hi], ds.inputs[:, :2]
    bias_acc = lstsq_probe(simple[:half], ds.b[:half], simple[half:],
                           ds.b[half:], 10)
    target_acc = lstsq_probe(arc[:half], ds.y[:half], arc[half:],
                             ds.y[half:], 10)
    assert bias_acc >= 99.0
    assert target_acc < 90.0


def test_gen_offset_lands_on_bias_coordinate():
    ds = gen_colorpoints(GenConfig(n=500, classes=5, bias_ratio=0.5, input_dim=9))
    lo, hi = ds.meta["simple_block"]
    block = ds.inputs[:, lo:hi]
    np.testing.assert_array_equal(np.argmax(block, axis=1), ds.b)
    picked = block[np.arange(len(ds)), ds.b]
    assert np.all(np.abs(picked - BIAS_OFFSET) < 5 * 0.1 + 0.5)


def test_gen_warns_on_empty_groups():
    with pytest.warns(UserWarning, match="groups are empty"):
        gen_colorpoints(GenConfig(n=1000, classes=10, bias_ratio=0.999))


def test_gen_config_validation():
    with pytest.raises(ValueError, match="bias_ratio"):
        GenConfig(n=10, bias_ratio=0.0)
    with pytest.raises(ValueError, match="classes"):
        GenConfig(n=10, classes=1)
    with pytest.raises(ValueError, match="input_dim"):
        GenConfig(n=10, classes=10, input_dim=8)
    for field, value in (("n", 0), ("n", -3), ("seed", -1), ("noise", float("nan")),
                         ("classes", MAX_CLASSES + 1)):
        with pytest.raises(ValueError, match=f"^{field} must"):
            GenConfig(**{"n": 10, field: value})


# ---------------------------------------------------------------- IDX + cmnist


def _write_fixture(tmp_path, n=100, seed=0, zero_first=False):
    rng = np.random.default_rng(seed)
    images = rng.integers(0, 256, size=(n, 28, 28)).astype(np.uint8)
    images[:, 0, 0] = 255  # guarantee a saturated pixel per image
    if zero_first:
        images[0] = 0
    labels = (np.arange(n) % 10).astype(np.uint8)
    ip, lp = tmp_path / "img.idx", tmp_path / "lab.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    return ip, lp, images, labels


def test_idx_round_trip(tmp_path):
    ip, lp, images, labels = _write_fixture(tmp_path)
    np.testing.assert_array_equal(read_idx_images(ip), images)
    np.testing.assert_array_equal(read_idx_labels(lp), labels)


def test_idx_header_is_big_endian(tmp_path):
    ip, lp, *_ = _write_fixture(tmp_path, n=3)
    raw = ip.read_bytes()
    assert raw[:4] == bytes([0, 0, 8, 3])
    assert int.from_bytes(raw[4:8], "big") == 3
    assert lp.read_bytes()[:4] == bytes([0, 0, 8, 1])


def test_idx_rejects_bad_magic(tmp_path):
    ip, lp, *_ = _write_fixture(tmp_path, n=2)
    ip.write_bytes(b"\xff\xff\xff\xff" + ip.read_bytes()[4:])
    with pytest.raises(ValueError, match="magic"):
        read_idx_images(ip)
    lp.write_bytes(b"\x00\x00\x08\x03" + lp.read_bytes()[4:])
    with pytest.raises(ValueError, match="magic"):
        read_idx_labels(lp)


def test_idx_rejects_truncation(tmp_path):
    ip, lp, *_ = _write_fixture(tmp_path, n=2)
    ip.write_bytes(ip.read_bytes()[:-5])
    with pytest.raises(ValueError, match="expected"):
        read_idx_images(ip)
    (tmp_path / "tiny.idx").write_bytes(b"\x00\x00")
    with pytest.raises(ValueError, match="truncated"):
        read_idx_images(tmp_path / "tiny.idx")


def test_cmnist_full_alignment_tints_by_digit(tmp_path):
    ip, lp, images, labels = _write_fixture(tmp_path)
    ds = cmnist_from_idx(ip, lp, bias_ratio=1.0)
    np.testing.assert_array_equal(ds.b, labels)
    assert ds.aligned.all()
    assert ds.input_dim == 3 * 28 * 28
    assert ds.inputs.min() >= 0.0 and ds.inputs.max() <= 1.0
    # per-channel peak reveals the palette color; every image here has a
    # 255 pixel somewhere
    chans = ds.inputs.reshape(len(ds), 3, -1)
    peaks = chans.max(axis=2)
    np.testing.assert_allclose(peaks, np.asarray(CMNIST_PALETTE)[ds.b], atol=1e-12)


def test_cmnist_gray_recovery_via_channel_max(tmp_path):
    ip, lp, images, _ = _write_fixture(tmp_path, n=20, seed=4)
    ds = cmnist_from_idx(ip, lp, bias_ratio=0.5, seed=1)
    gray = ds.inputs.reshape(len(ds), 3, -1).max(axis=1)
    np.testing.assert_allclose(gray, images.reshape(20, -1) / 255.0, atol=1e-12)


def test_cmnist_exact_aligned_count_and_determinism(tmp_path):
    ip, lp, *_ = _write_fixture(tmp_path)
    a = cmnist_from_idx(ip, lp, bias_ratio=0.9, seed=5)
    assert int(a.aligned.sum()) == 90
    b = cmnist_from_idx(ip, lp, bias_ratio=0.9, seed=5)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.b, b.b)


def test_cmnist_zero_image_stays_zero(tmp_path):
    ip, lp, *_ = _write_fixture(tmp_path, n=10, zero_first=True)
    ds = cmnist_from_idx(ip, lp, bias_ratio=1.0)
    np.testing.assert_array_equal(ds.inputs[0], 0.0)


def test_cmnist_rejects_count_mismatch(tmp_path):
    ip, _, images, _ = _write_fixture(tmp_path, n=10)
    lp = tmp_path / "short.idx"
    write_idx_labels(lp, np.zeros(8, dtype=np.uint8))
    with pytest.raises(ValueError, match="images but"):
        cmnist_from_idx(ip, lp, bias_ratio=1.0)


def test_cmnist_rejects_bad_ratio(tmp_path):
    ip, lp, *_ = _write_fixture(tmp_path, n=4)
    with pytest.raises(ValueError, match="bias_ratio"):
        cmnist_from_idx(ip, lp, bias_ratio=1.5)


# ------------------------------------------------------- make_unbiased_testset


def test_unbiased_testset_alignment_near_chance():
    src = gen_colorpoints(GenConfig(n=10_000, classes=10, bias_ratio=1.0, seed=6))
    test = make_unbiased_testset(src, seed=7)
    frac = float(test.aligned.mean())
    assert abs(frac - 0.1) < 0.01
    _, p, _, _ = scipy.stats.chi2_contingency(test.group_counts())
    assert p > 0.01


def test_unbiased_testset_is_seed_deterministic():
    src = gen_colorpoints(GenConfig(n=500, classes=5, bias_ratio=1.0, input_dim=9))
    a = make_unbiased_testset(src, seed=8)
    b = make_unbiased_testset(src, seed=8)
    np.testing.assert_array_equal(a.inputs, b.inputs)
    np.testing.assert_array_equal(a.b, b.b)


def test_unbiased_testset_rerenders_offset_block():
    src = gen_colorpoints(GenConfig(n=2000, classes=10, bias_ratio=1.0, seed=9))
    test = make_unbiased_testset(src, seed=10)
    lo, hi = test.meta["simple_block"]
    np.testing.assert_array_equal(np.argmax(test.inputs[:, lo:hi], axis=1), test.b)
    # target features untouched
    np.testing.assert_array_equal(test.inputs[:, :lo], src.inputs[:, :lo])
    np.testing.assert_array_equal(test.y, src.y)


def test_unbiased_testset_retints_cmnist(tmp_path):
    rng = np.random.default_rng(11)
    images = rng.integers(0, 256, size=(50, 28, 28)).astype(np.uint8)
    images[:, 0, 0] = 255
    labels = (np.arange(50) % 10).astype(np.uint8)
    ip, lp = tmp_path / "i.idx", tmp_path / "l.idx"
    write_idx_images(ip, images)
    write_idx_labels(lp, labels)
    src = cmnist_from_idx(ip, lp, bias_ratio=1.0)
    test = make_unbiased_testset(src, seed=12)
    chans = test.inputs.reshape(50, 3, -1)
    np.testing.assert_allclose(chans.max(axis=2),
                               np.asarray(CMNIST_PALETTE)[test.b], atol=1e-12)
    # digit content survives the re-tint
    np.testing.assert_allclose(chans.max(axis=1), images.reshape(50, -1) / 255.0,
                               atol=1e-12)


def test_unbiased_testset_needs_known_generator():
    ds = _tiny_ds()
    with pytest.raises(ValueError, match="generator"):
        make_unbiased_testset(ds, seed=0)


# ------------------------------------------------------------------------ split


def test_split_stratified_ten_percent():
    ds = gen_colorpoints(GenConfig(n=1000, classes=10, bias_ratio=1.0, seed=15))
    labeled = label_fraction_split(ds, 0.1, seed=16)
    assert len(labeled) == 100
    np.testing.assert_array_equal(np.bincount(labeled.y, minlength=10),
                                  np.full(10, 10))


# split, the N-part reference in helpers, must stay disjoint and covering:
# bias_metric trains and tests its probes on its two halves
def test_split_parts_are_disjoint_and_cover():
    ds = gen_colorpoints(GenConfig(n=600, classes=3, bias_ratio=0.7,
                                   input_dim=7, seed=17))
    a, b = split(ds, (0.4, 0.6), seed=18)
    rows_a = {r.tobytes() for r in a.inputs}
    rows_b = {r.tobytes() for r in b.inputs}
    assert not rows_a & rows_b
    assert len(rows_a | rows_b) == len(ds)


@pytest.mark.filterwarnings("ignore:.*lost all samples")  # one-member conflict groups
def test_split_is_seed_deterministic():
    ds = gen_colorpoints(GenConfig(n=400, classes=4, bias_ratio=0.9,
                                   input_dim=8, seed=19))
    a1 = label_fraction_split(ds, 0.5, seed=20)
    a2 = label_fraction_split(ds, 0.5, seed=20)
    np.testing.assert_array_equal(a1.inputs, a2.inputs)
    b1 = label_fraction_split(ds, 0.5, seed=21)
    assert not np.array_equal(a1.inputs, b1.inputs)


def test_split_rejects_overfull_fractions():
    ds = _tiny_ds()
    with pytest.raises(ValueError, match="fractions"):
        split(ds, (0.7, 0.7))


def test_label_fraction_one_returns_the_dataset_itself():
    ds = gen_colorpoints(GenConfig(n=100, classes=2, bias_ratio=0.9, input_dim=6))
    assert label_fraction_split(ds, 1.0) is ds  # no copy of the rows


@pytest.mark.parametrize("fraction", [0.0, -0.5, 1.5, float("nan")])
def test_label_fraction_outside_0_1_raises_naming_it(fraction):
    match = rf"label fraction must be in \(0, 1\], got {fraction}"
    with pytest.raises(ValueError, match=match):
        label_fraction_split(_tiny_ds(), fraction)


def test_label_fraction_split_sizes_and_warning():
    ds = gen_colorpoints(GenConfig(n=2000, classes=10, bias_ratio=0.99, seed=22))
    with pytest.warns(UserWarning, match="lost all samples"):
        labeled = label_fraction_split(ds, 0.1, seed=23)
    first, rest = split(ds, (0.1, 0.9), seed=23)
    assert labeled.inputs.tobytes() == first.inputs.tobytes()
    for name in ("y", "b", "aligned"):
        assert np.array_equal(getattr(labeled, name), getattr(first, name)), name
    assert labeled.bias_ratio == first.bias_ratio
    assert len(labeled) + len(rest) == 2000
    assert abs(len(labeled) - 200) <= 20


def test_groups_index_y_then_b():
    ds = _tiny_ds()
    np.testing.assert_array_equal(ds.groups, [0, 1, 3, 3])
    assert ds.group_counts().dtype == np.int64


@st.composite
def grouped_datasets(draw):
    """Datasets of 0-300 rows over 1-8 target and 1-8 bias classes whose
    (y, b) groups are skewed: many empty and one-member groups beside large
    ones."""
    C, B = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    n = draw(st.integers(0, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    group = rng.choice(C * B, n, p=rng.dirichlet(np.full(C * B, 0.2)))
    y, b = np.divmod(group, B)
    return BiasedDataset(rng.standard_normal((n, 3)), y, b, b == spurious_map(y), 0.5, C, B,
                         {"generator": "drawn"})


FRACTIONS = st.sampled_from([1e-3, 0.01, 0.1, 0.25, 0.5, 0.9, 0.999]) | st.floats(
    0.0, 1.0, exclude_min=True, exclude_max=True)


@settings(max_examples=300, deadline=None)
@given(grouped_datasets(), FRACTIONS, st.integers(0, 2**31 - 1))
@example(_tiny_ds().take(np.empty(0, dtype=np.int64)), 0.5, 0)  # zero rows
@example(_tiny_ds(), 0.1, 3)  # groups of 1 and 2 members: every one keeps nothing
@example(_tiny_ds(), 0.3, 4)  # the one-member groups keep nothing, the other keeps 1
def test_label_fraction_split_is_the_first_part_of_split(ds, fraction, seed):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = label_fraction_split(ds, fraction, seed)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        (want,) = split(ds, (fraction,), seed)
    for name in ("inputs", "y", "b", "aligned"):
        a, e = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (e.dtype, e.shape, e.tobytes()), name
    assert (got.bias_ratio, got.num_classes, got.num_bias_classes, got.meta) == (
        want.bias_ratio, want.num_classes, want.num_bias_classes, want.meta)
    lost = int(((want.group_counts() == 0) & (ds.group_counts() > 0)).sum())
    assert [str(w.message) for w in caught] == (
        [f"{lost} nonempty (y, b) groups lost all samples in the labeled split"] * (lost > 0))


# ------------------------------------------------------------- augmentation


def test_vector_degenerate_config_is_identity():
    rng = np.random.default_rng(24)
    X = rng.normal(size=(5, 7))
    cfg = VectorAugmentConfig(noise_scale=0.0, dropout_p=0.0,
                              scale_low=1.0, scale_high=1.0)
    out = augment_vector_batch(X, np.random.default_rng(0), np.ones(7), cfg)
    np.testing.assert_array_equal(out, X)


def test_vector_config_changes_do_not_shift_draws():
    # altering only the scale range must leave the noise and dropout draws
    # in place, so the two views differ by exactly the scale factor
    rng = np.random.default_rng(25)
    X = rng.normal(size=(4, 6))
    cfg_a = VectorAugmentConfig(0.1, 0.3, 1.0, 1.0)
    cfg_b = VectorAugmentConfig(0.1, 0.3, 0.9, 0.9)
    va = augment_vector_batch(X, np.random.default_rng(1), np.ones(6), cfg_a)
    vb = augment_vector_batch(X, np.random.default_rng(1), np.ones(6), cfg_b)
    np.testing.assert_array_equal(vb, va * 0.9)


def _two_views(augment, seed):
    rng = np.random.default_rng(seed)
    return augment(rng)[0], augment(rng)[0]


def test_augment_views_deterministic_per_seed():
    x = np.random.default_rng(26).normal(size=(1, 12))

    def augment(rng):
        return augment_vector_batch(x, rng, np.ones(12))

    v1, v2 = _two_views(augment, 100)
    w1, w2 = _two_views(augment, 100)
    np.testing.assert_array_equal(v1, w1)
    np.testing.assert_array_equal(v2, w2)
    assert not np.array_equal(v1, v2)
    u1, _ = _two_views(augment, 101)
    assert not np.array_equal(v1, u1)


def test_image_degenerate_config_is_identity():
    rng = np.random.default_rng(27)
    X = rng.random((3, 3 * 28 * 28))
    cfg = ImageAugmentConfig(crop_scale_min=1.0, flip_p=0.0, jitter_p=0.0,
                             jitter_strength=0.4, grayscale_p=0.0)
    out = augment_image_batch(X, np.random.default_rng(2), (3, 28, 28), cfg)
    np.testing.assert_array_equal(out, X)


def test_image_views_differ_and_are_seeded(tmp_path):
    rng = np.random.default_rng(28)
    x = rng.random((1, 3 * 28 * 28))

    def augment(rng):
        return augment_image_batch(x, rng, (3, 28, 28))

    v1, v2 = _two_views(augment, 200)
    w1, _ = _two_views(augment, 200)
    np.testing.assert_array_equal(v1, w1)
    assert not np.array_equal(v1, v2)
    assert v1.min() >= 0.0 and v1.max() <= 1.0


def test_image_grayscale_branch_frequency():
    # tinted input: channels only become identical through the grayscale
    # collapse, which fires with probability 0.2
    rng = np.random.default_rng(29)
    base = rng.random((1, 3 * 28 * 28)) * np.array([1.0, 0.6, 0.2]).repeat(784)
    X = np.tile(base, (4000, 1))
    out = augment_image_batch(X, np.random.default_rng(3), (3, 28, 28))
    chans = out.reshape(-1, 3, 784)
    gray = np.all(chans == chans[:, :1, :], axis=(1, 2))
    freq = float(gray.mean())
    assert abs(freq - 0.2) < 0.02


def test_image_flip_is_exact_reversal():
    rng = np.random.default_rng(30)
    x = rng.random((1, 3 * 4 * 4))
    cfg = ImageAugmentConfig(crop_scale_min=1.0, flip_p=1.0, jitter_p=0.0,
                             jitter_strength=0.0, grayscale_p=0.0)
    out = augment_image_batch(x, np.random.default_rng(4), (3, 4, 4), cfg)
    np.testing.assert_array_equal(out.reshape(3, 4, 4),
                                  x.reshape(3, 4, 4)[:, :, ::-1])


ORACLE_CONFIGS = {
    "defaults": {},
    **{f"{name}={p}": {name: p} for name in ("flip_p", "jitter_p", "grayscale_p")
       for p in (0.0, 1.0)},
    "crop_scale_min=0.001": {"crop_scale_min": 0.001},
    "crop_scale_min=1.0": {"crop_scale_min": 1.0},
    "jitter_strength=0.99": {"jitter_strength": 0.99},
}


@pytest.mark.parametrize("n", [1, 17])
@pytest.mark.parametrize("shape", [(3, 28, 28), (3, 4, 4), (3, 5, 7), (2, 9, 3), (1, 28, 28)],
                         ids=lambda s: "x".join(map(str, s)))
@pytest.mark.parametrize("config", list(ORACLE_CONFIGS.values()), ids=list(ORACLE_CONFIGS))
def test_image_batch_matches_per_image_oracle(config, shape, n):
    # byte-equal views and the same generator state afterwards; the
    # one-channel shape sums each channel mean pairwise, the others in order
    cfg = ImageAugmentConfig(**config)
    X = np.random.default_rng(31).random((n, int(np.prod(shape))))
    rng, ref_rng = np.random.default_rng(32), np.random.default_rng(32)
    out = augment_image_batch(X, rng, shape, cfg)
    ref = loop_augment_images(X, ref_rng, shape, cfg)
    assert out.tobytes() == ref.tobytes()
    assert rng.bytes(8) == ref_rng.bytes(8)
