"""Time a step of both linear-head fits of debias and print each trained
head's sha256.

    python3 tools/head_step.py [--src SRC_DIR] [--fits 5] [--steps 3000]

Fits [64, 5] heads, batch 128, on fixed synthetic representations,
through the package's head trainer as debias runs it: the error-set head,
with no error set and so no weights, and the final head, with an
upweighted error set. Each is fitted --fits times for --steps Adam steps,
the two kinds taking turns. Prints, for each, the minimum microseconds
per step over its fits and the sha256 of the trained head's parameters,
then the BLAS thread count and the usable cores. Every fit of a kind
starts from the same seed, so its hash is the same for every fit and any
change that keeps the heads' bytes prints the same hashes. SRC_DIR, by
default this checkout, is the tree whose src/ is imported, so one copy of
the tool times two trees:

    OPENBLAS_NUM_THREADS=1 python3 tools/head_step.py --src OTHER_CHECKOUT
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
N, WIDTH, CLASSES, BATCH = 2000, 64, 5, 128


def blas_threads() -> str:
    """The thread count of the OpenBLAS bundled with numpy, else the
    OPENBLAS_NUM_THREADS setting, else "unknown"."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        get = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_num_threads64_", None)
        if get is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            return str(get())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", type=Path, default=ROOT)
    parser.add_argument("--fits", type=int, default=5)
    parser.add_argument("--steps", type=int, default=3000)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(args.src.resolve() / "src"))
    from rankdebias import pipeline

    rng = np.random.default_rng(0)
    reps = rng.standard_normal((N, WIDTH))
    labels = rng.integers(0, CLASSES, N)
    error_set = pipeline.ErrorSet(np.arange(0, N, 7), np.zeros(N, dtype=np.int64))
    cfg = pipeline.ExperimentConfig(head_iters=args.steps, batch_size=BATCH)
    fits = {"error-set": None, "final": error_set}
    times = {name: [] for name in fits}
    digests = {name: set() for name in fits}
    for _ in range(args.fits):
        for name, errors in fits.items():
            start = time.perf_counter()
            head = pipeline._train_head(reps, labels, CLASSES, cfg, "head-step", errors)
            times[name].append(time.perf_counter() - start)
            digests[name].add(hashlib.sha256(head.flat.tobytes()).hexdigest())
    for name in fits:
        if len(digests[name]) != 1:
            raise RuntimeError(f"{name} fits from one seed trained different heads: "
                               f"{sorted(digests[name])}")
        print(f"{name} head step: {1e6 * min(times[name]) / args.steps:.1f} us (min of "
              f"{args.fits} fits of {args.steps} steps, [{WIDTH}, {CLASSES}] head, "
              f"batch {BATCH})")
        print(f"{name} head sha256: {digests[name].pop()}")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"blas threads: {blas_threads()}  nproc: {cores}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
