"""The benchmark's tracer finds every function it traces.

perfbench/tracing.py names each traced function as (module, qualified
name) and looks it up with getattr when a traced run starts, so a deleted
or renamed name breaks every traced run. This check starts no traced
run: it loads tracing.py by path and resolves each name the way
`instrument` does, a method through its class __dict__."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def test_every_traced_name_resolves_in_the_package():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(module, qualname) for module, qualname, _ in tracing.targets(7)]
    missing = []
    for module, qualname in names:
        owner = importlib.import_module(f"rankdebias.{module}")
        if "." in qualname:
            cls_name, attr = qualname.split(".")
            found = attr in vars(getattr(owner, cls_name, object))
        else:
            found = callable(getattr(owner, qualname, None))
        if not found:
            missing.append(f"{module}.{qualname}")
    assert names
    assert missing == []
