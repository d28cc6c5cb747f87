"""Time one linear-head training step and print the trained head's sha256.

    python3 tools/head_step.py [--src SRC_DIR] [--fits 5] [--steps 3000]

Fits a [64, 5] head, batch 128, with an upweighted error set, on fixed
synthetic representations, --fits times for --steps Adam steps each,
through the package's head trainer as debias runs it. Prints the minimum
microseconds per step over the fits, the BLAS thread count, the usable
cores and the sha256 of the trained head's parameters. Every fit starts
from the same seed, so the hash is the same for every fit and any change
that keeps the head's bytes prints the same hash. SRC_DIR, by default this
checkout, is the tree whose src/ is imported, so one copy of the tool
times two trees:

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
    times, digests = [], set()
    for _ in range(args.fits):
        start = time.perf_counter()
        head = pipeline._train_head(reps, labels, CLASSES, cfg, "head-step", error_set)
        times.append(time.perf_counter() - start)
        digests.add(hashlib.sha256(head.flat.tobytes()).hexdigest())
    if len(digests) != 1:
        raise RuntimeError(f"fits from one seed trained different heads: {sorted(digests)}")
    print(f"head step: {1e6 * min(times) / args.steps:.1f} us (min of {args.fits} fits of "
          f"{args.steps} steps, [{WIDTH}, {CLASSES}] head, batch {BATCH})")
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    print(f"blas threads: {blas_threads()}  nproc: {cores}")
    print(f"head sha256: {digests.pop()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
