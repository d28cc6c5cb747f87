"""Tests of the benchmark's own code. Run from the repository root:

    python3 -m pytest -q perfbench/tests
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import fixtures  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from rankdebias import cli, losses, nn, pipeline  # noqa: E402
from rankdebias.data import BiasedDataset, read_idx_images, read_idx_labels  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:.*groups are empty")

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_metric_names_and_units_are_well_formed():
    for name, unit in run.END_TO_END + run.PER_LAYER:
        assert NAME_RE.match(name), name
        assert UNIT_RE.match(unit), unit
    names = [n for n, _ in run.END_TO_END + run.PER_LAYER]
    assert len(names) == len(set(names))
    for name in workloads.WORKLOADS:
        assert NAME_RE.match(name), name


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _span(name, start, end, parent, op=0):
    return [name, start, end, parent, op, None]


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("root", 0.0, 10.0, None),    # children cover [1, 4] and [5, 9]
        _span("a", 1.0, 4.0, 0),           # child covers [2, 3]
        _span("a.x", 2.0, 3.0, 1),
        _span("b", 5.0, 9.0, 0),           # overlapping children cover [5, 8]
        _span("b.x", 5.0, 7.0, 3),
        _span("b.y", 6.0, 8.0, 3),
        _span("other-op", 20.0, 21.0, None, op=1),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 1.0, 2.0, 2.0, 1.0])
    table = tracing.summarize(spans, op=0)
    assert "other-op" not in table
    assert table["root"] == {"calls": 1, "total_s": 10.0, "self_s": pytest.approx(3.0)}
    assert tracing.has_ancestor(spans, 2, "root")
    assert not tracing.has_ancestor(spans, 3, "a")


def _bindings():
    return {
        "pipeline.forward": pipeline.forward,
        "nn.forward": nn.forward,
        "cli.apply": cli.apply,
        "losses.nt_xent": losses.nt_xent,
        "BiasedDataset.load": BiasedDataset.__dict__["load"],
        "UpweightSpec.__post_init__": losses.UpweightSpec.__dict__["__post_init__"],
    }


def test_traced_cli_run_reaches_every_binding_and_restores_it(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    net = ["--batch-size", "32", "--latent-dim", "8", "--hidden-dims", "16,16",
           "--proj-hidden", "16", "--proj-dim", "8", "--epochs", "2",
           "--warmup-epochs", "1", "--seed", "3"]
    assert workloads.run_cli(["data", "gen", "--n", "128", "--classes", "4",
                              "--input-dim", "6", "--seed", "1",
                              "--out", str(tmp_path / "ds")])[0] == 0
    with tracing.instrument(tracer, encoder_in_dim=6):
        assert pipeline.forward is not before["pipeline.forward"]
        with tracer.span("cli.pretrain"):
            code, _ = workloads.run_cli(["pretrain", "--data", str(tmp_path / "ds"),
                                         "--role", "biased", "--lambda-reg", "0.1",
                                         *net, "--out", str(tmp_path / "pre")])
        assert code == 0
    assert _bindings() == before
    assert tracing.leftover_wrappers() == []

    steps = 2 * (128 // 32)
    values = run.layer_metrics(tracer.spans, 0, penalized_steps=steps)
    # forward is called through pipeline's own binding, so these are only
    # seen when every binding is wrapped
    assert values["nn.backward.calls"] == 2 * steps
    assert values["nn.adam_step.calls"] == steps
    assert values["losses.nt_xent.calls"] == steps
    assert values["spectral.rank_loss_grad.calls"] == steps
    assert values["spectral.corr_builds_per_penalized_step"] == 2.0
    assert values["data.BiasedDataset.load.self_s"] > 0
    assert values["cli.pretrain.s"] > 0


def test_bindings_are_restored_when_the_traced_block_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.instrument(tracing.Tracer(), encoder_in_dim=6):
            raise RuntimeError("boom")
    assert _bindings() == before
    assert tracing.leftover_wrappers() == []


def test_idx_fixture_is_byte_identical_for_one_seed(tmp_path):
    paths = []
    for run_dir, seed in (("a", 4), ("b", 4), ("c", 5)):
        (tmp_path / run_dir).mkdir()
        images, labels = tmp_path / run_dir / "img.idx", tmp_path / run_dir / "lab.idx"
        fixtures.write_digit_idx(images, labels, 40, seed)
        paths.append((images.read_bytes(), labels.read_bytes()))
    assert paths[0] == paths[1]
    assert paths[0][0] != paths[2][0]
    images = read_idx_images(tmp_path / "a" / "img.idx")
    labels = read_idx_labels(tmp_path / "a" / "lab.idx")
    assert images.shape == (40, 28, 28)
    assert np.bincount(labels, minlength=10).tolist() == [4] * 10
    # a one and an eight differ in how much of the canvas they light
    ones = images[labels == 1].astype(float).mean()
    eights = images[labels == 8].astype(float).mean()
    assert eights > 2 * ones


def test_derived_seeds_depend_only_on_the_workload_seed():
    assert workloads.derive(3, "data") == workloads.derive(3, "data")
    assert workloads.derive(3, "data") != workloads.derive(4, "data")
    assert workloads.derive(3, "data") != workloads.derive(3, "config")
