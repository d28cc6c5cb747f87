"""The demos call the library the way its signatures allow. No test runs
them, as each trains for minutes, so a removed or renamed parameter would
otherwise break them silently. Each demo is parsed with ast, and every
call to a name it imports from rankdebias, or to an attribute of one
(ErrorSet.misses), is bound, by its positional count and keyword names,
against that callable's signature. Nothing is
trained, except by the test of a function a demo defines, which loads the
demo by path and runs the function on a tiny configuration."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import numpy as np
import pytest

from rankdebias.data import GenConfig, gen_colorpoints
from rankdebias.pipeline import ExperimentConfig, evaluate

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def unbindable_calls(source: str) -> list[str]:
    """Calls in source to names imported from rankdebias, or to Name.attr
    of such a name, that their signatures do not accept (or that name no
    attribute), as 'line: name: reason'."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rankdebias"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    problems = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id in imported:
            name, target = func.id, imported[func.id]
        elif (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
              and func.value.id in imported):
            name = f"{func.value.id}.{func.attr}"
            target = getattr(imported[func.value.id], func.attr, None)
            if target is None:
                problems.append(f"{node.lineno}: {name}: no such attribute")
                continue
        else:
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue  # *args or **kwargs: the count is not known statically
        try:
            inspect.signature(target).bind(*node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            problems.append(f"{node.lineno}: {name}: {exc}")
    return problems


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_calls_match_library_signatures(demo):
    assert unbindable_calls(demo.read_text()) == []


@pytest.mark.parametrize("call, reason", [
    ("erm_train(ds, cfg, lambda_reg=0.5)", "unexpected keyword argument 'lambda_reg'"),
    ("debiased_linear_eval(enc, ds, errors, cfg, test=test)",
     "unexpected keyword argument 'test'"),
    ("ErrorSet.misses(pred)", "ErrorSet.misses: missing a required argument: 'labels'"),
    ("ErrorSet.missed(pred, ds.y)", "ErrorSet.missed: no such attribute"),
])
def test_checker_flags_a_call_the_signature_refuses(call, reason):
    source = ("from rankdebias.pipeline import ErrorSet, debiased_linear_eval, erm_train\n"
              f"result = {call}\n")
    [problem] = unbindable_calls(source)
    assert problem.startswith("2: ") and reason in problem


def test_every_demo_is_checked():
    assert [p.name for p in DEMOS] == ["rank_penalty_amplifies_bias.py",
                                       "spectral_collapse.py", "two_stage_debias.py"]


@pytest.mark.filterwarnings("ignore:.*groups are empty")
def test_rank_trajectory_rows_and_determinism():
    [path] = [p for p in DEMOS if p.name == "spectral_collapse.py"]
    spec = importlib.util.spec_from_file_location(path.stem, path)
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)  # runs the module up to its __main__ guard
    rank_trajectory = demo.rank_trajectory
    cfg = ExperimentConfig(epochs=3, warmup_epochs=1, batch_size=32, base_lr=1e-3,
                           hidden_dims=(16, 16), latent_dim=8, seed=7)

    def make_ds(r):
        return gen_colorpoints(GenConfig(n=320, classes=4, bias_ratio=r, seed=21, input_dim=6))

    test = gen_colorpoints(GenConfig(n=200, classes=4, bias_ratio=0.25, seed=22, input_dim=6))
    rows, models = rank_trajectory([0.5, 0.9], make_ds, test, cfg)
    assert [row["r"] for row in rows] == [0.5, 0.9]
    assert all(set(row) == {"r", "eff_rank", "unbiased_acc"} for row in rows)
    assert all(np.isfinite(row["eff_rank"]) for row in rows)
    # the demo reads the spectra off these models instead of training again
    assert [evaluate(m, test).eff_rank for m in models] == [row["eff_rank"] for row in rows]
    again, _ = rank_trajectory([0.5, 0.9], make_ds, test, cfg)
    assert rows == again
