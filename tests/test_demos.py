"""The demos call the library the way its signatures allow. No test runs
them, as each trains for minutes, so a removed or renamed parameter would
otherwise break them silently. Each demo is parsed with ast, and every
call to a name it imports from rankdebias is bound, by its positional
count and keyword names, against that name's signature. Nothing is
trained."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

DEMOS = sorted((Path(__file__).resolve().parent.parent / "demos").glob("*.py"))


def unbindable_calls(source: str) -> list[str]:
    """Calls in source to names imported from rankdebias that their
    signatures do not accept, as 'line: name: reason'."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("rankdebias"):
            module = importlib.import_module(node.module)
            for alias in node.names:
                imported[alias.asname or alias.name] = getattr(module, alias.name)
    problems = []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in imported):
            continue
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            continue  # *args or **kwargs: the count is not known statically
        try:
            inspect.signature(imported[node.func.id]).bind(
                *node.args, **{k.arg: k.value for k in node.keywords})
        except TypeError as exc:
            problems.append(f"{node.lineno}: {node.func.id}: {exc}")
    return problems


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.name)
def test_demo_calls_match_library_signatures(demo):
    assert unbindable_calls(demo.read_text()) == []


@pytest.mark.parametrize("call, reason", [
    ("erm_train(ds, cfg, lambda_reg=0.5)", "unexpected keyword argument 'lambda_reg'"),
    ("debiased_linear_eval(enc, ds, errors, cfg, test=test)",
     "unexpected keyword argument 'test'"),
])
def test_checker_flags_a_call_the_signature_refuses(call, reason):
    source = ("from rankdebias.pipeline import debiased_linear_eval, erm_train\n"
              f"result = {call}\n")
    [problem] = unbindable_calls(source)
    assert problem.startswith("2: ") and reason in problem


def test_every_demo_is_checked():
    assert [p.name for p in DEMOS] == ["rank_penalty_amplifies_bias.py",
                                       "spectral_collapse.py", "two_stage_debias.py"]
