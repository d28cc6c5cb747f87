"""In-memory span tracing of rankdebias, installed from outside the package.

The package imports most names with ``from .x import y``, so a function
has one binding per importing module. ``instrument`` replaces every
binding of each traced function across the loaded ``rankdebias`` modules
(and patches class attributes for methods), records one span per call and
puts every original binding back when the ``with`` block ends.

Spans are plain lists ``[name, start, end, parent, op, attrs]`` kept in
memory; ``Tracer.dump`` writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from pathlib import Path

NAME, START, END, PARENT, OP, ATTRS = range(6)
PACKAGE = "rankdebias"


class Tracer:
    """Collects spans. ``op`` tags every span with the operation (pass)
    that caused it, so the spans of one pass share an identifier."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, 0.0, 0.0, parent, self.op, None])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float) -> None:
        rec = self.spans[idx]
        rec[START] = start
        rec[END] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start)

    def wrap(self, name: str, fn, measure=None):
        """A stand-in for fn that records a span per call. measure(args,
        kwargs, result) may return a dict of counts for the span; it runs
        after the span has closed."""

        def traced(*args, **kwargs):
            idx = self._open(name)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, start)
            if measure is not None:
                self.spans[idx][ATTRS] = measure(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__perfbench_span__ = name
        return traced

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op", "attrs"],
                       "spans": self.spans}, fh)
            fh.write("\n")


# ------------------------------------------------------------- shape counts


def _matmul_flop(rows: int, dims) -> float:
    return float(sum(2 * rows * a * b for a, b in zip(dims[:-1], dims[1:])))


def _forward_counts(args, kwargs, result):
    out, _ = result
    return {"gflop": _matmul_flop(out.shape[0], args[0].layer_dims) / 1e9}


def _backward_counter(encoder_in_dim: int):
    """backward does one weight-gradient and one input-gradient product per
    layer. The last input-gradient product (delta @ W0.T) is counted apart
    for encoders, the nets fed the raw inputs, whose callers discard it."""

    def counts(args, kwargs, result):
        net, cache = args[0], args[1]
        dims = net.layer_dims
        rows = cache.inputs[0].shape[0]
        first = 2.0 * rows * dims[0] * dims[1]
        return {"gflop": 2 * _matmul_flop(rows, dims) / 1e9,
                "input_grad_gflop": first / 1e9 if dims[0] == encoder_in_dim else 0.0}

    return counts


def _adam_counts(args, kwargs, result):
    return {"params": sum(int(p.size) for p in args[0])}


def _path_bytes(path) -> int:
    path = Path(path)
    if path.is_dir():
        return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())
    return path.stat().st_size


def _save_counts(args, kwargs, result):
    return {"bytes": _path_bytes(args[1])}


def _hash_counts(args, kwargs, result):
    return {"bytes": _path_bytes(args[0])}


def targets(encoder_in_dim: int) -> list[tuple[str, str, object]]:
    """(module, qualified name, measure) of every traced function. The span
    name is "<module>.<qualified name>", with the module relative to the
    package. UpweightSpec is traced through __post_init__, which its
    generated __init__ calls once per construction."""
    return [
        ("nn", "forward", _forward_counts),
        ("nn", "backward", _backward_counter(encoder_in_dim)),
        ("nn", "adam_step", _adam_counts),
        ("nn", "sgd_momentum_step", None),
        ("nn", "apply", None),
        ("nn", "save_checkpoint", None),
        ("nn", "load_checkpoint", None),
        ("losses", "nt_xent", None),
        ("losses", "stage1_loss", None),
        ("losses", "cross_entropy", None),
        ("losses", "debias_loss", None),
        ("losses", "UpweightSpec.__post_init__", None),
        ("spectral", "rank_loss", None),
        ("spectral", "rank_loss_grad", None),
        ("spectral", "svd_values", None),
        ("spectral", "effective_rank", None),
        ("spectral", "auto_correlation", None),
        ("spectral", "cluster_reorder", None),
        ("data", "gen_colorpoints", None),
        ("data", "cmnist_from_idx", None),
        ("data", "BiasedDataset.save", _save_counts),
        ("data", "BiasedDataset.load", None),
        ("data", "augment_vector_batch", None),
        ("data", "augment_image_batch", None),
        ("pipeline", "pretrain_biased", None),
        ("pipeline", "erm_train", None),
        ("pipeline", "identify_error_set", None),
        ("pipeline", "debiased_linear_eval", None),
        ("pipeline", "finetune_semisup", None),
        ("pipeline", "evaluate", None),
        ("manifest", "hash_path", _hash_counts),
        ("manifest", "write_manifest", None),
        ("cli", "_sweep_job", None),
    ]


def _package_modules() -> list:
    return [m for key, m in sorted(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))]


@contextlib.contextmanager
def instrument(tracer: Tracer, encoder_in_dim: int):
    """Trace every function in targets() for the duration of the block.

    A module-level function is replaced at every binding that holds it in
    any loaded module of the package; a method is replaced on its class.
    All originals are restored on exit, also when the block raises.
    """
    modules = _package_modules()
    undo: list[tuple[object, str, object]] = []
    try:
        for module, qualname, measure in targets(encoder_in_dim):
            name = f"{module}.{qualname.removesuffix('.__post_init__')}"
            owner = sys.modules[f"{PACKAGE}.{module}"]
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, classmethod):
                    replacement = classmethod(tracer.wrap(name, original.__func__, measure))
                else:
                    replacement = tracer.wrap(name, original, measure)
                undo.append((cls, attr, original))
                setattr(cls, attr, replacement)
                continue
            original = getattr(owner, qualname)
            wrapper = tracer.wrap(name, original, measure)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        undo.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
        yield tracer
    finally:
        for obj, attr, original in reversed(undo):
            setattr(obj, attr, original)


def leftover_wrappers() -> list[str]:
    """Bindings in the package that still hold a tracing wrapper."""
    found = []
    for mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_span__"):
                found.append(f"{mod.__name__}.{attr}")
            if isinstance(value, type):
                for cattr, cval in vars(value).items():
                    inner = getattr(cval, "__func__", cval)
                    if hasattr(inner, "__perfbench_span__"):
                        found.append(f"{mod.__name__}.{attr}.{cattr}")
    return found


# ------------------------------------------------------------------ analysis


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the part of its interval that its
    child spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for rec in spans:
        if rec[PARENT] is not None:
            children.setdefault(rec[PARENT], []).append((rec[START], rec[END]))
    out = []
    for idx, rec in enumerate(spans):
        start, end = rec[START], rec[END]
        covered, reach = 0.0, start
        for c0, c1 in sorted(children.get(idx, ())):
            c0, c1 = max(c0, reach), min(c1, end)
            if c1 > c0:
                covered += c1 - c0
                reach = c1
        out.append((end - start) - covered)
    return out


def summarize(spans: list[list], op: int) -> dict[str, dict[str, float]]:
    """Per span name: calls, total time, self time and summed counts, over
    the spans of operation op."""
    own = self_times(spans)
    table: dict[str, dict[str, float]] = {}
    for rec, self_s in zip(spans, own):
        if rec[OP] != op:
            continue
        row = table.setdefault(rec[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += rec[END] - rec[START]
        row["self_s"] += self_s
        for key, value in (rec[ATTRS] or {}).items():
            row[key] = row.get(key, 0.0) + value
    return table


def has_ancestor(spans: list[list], idx: int, name: str) -> bool:
    parent = spans[idx][PARENT]
    while parent is not None:
        if spans[parent][NAME] == name:
            return True
        parent = spans[parent][PARENT]
    return False

