"""The byte-identity contract: tools/pinned_artifacts.py, run on this tree,
prints the listing in tests/golden/pinned_artifacts.txt line for line.

The listing holds the sha256 of every artifact, exit code and standard
output of the tool's pinned-seed commands, so a change that moves any
last bit of a trained net, a metric or a printed number fails here. The
bits depend on the numpy and BLAS build, the BLAS kernels picked for the
CPU and the Python version, so tests/golden/pinned_environment.json
records those beside the listing and the test skips, naming each
difference, in another environment.

A change that alters artifacts on purpose regenerates both files from
its own tree, in the recorded environment, and says in its description
which lines moved and why:

    python3 tests/test_pinned_artifacts.py [SRC_DIR]

SRC_DIR, by default this checkout, is the tree whose tool output becomes
the listing; a git archive of the commit keeps untracked files out.
"""

import ctypes
import difflib
import json
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "pinned_artifacts.py"
GOLDEN = ROOT / "tests" / "golden" / "pinned_artifacts.txt"
ENVIRONMENT = GOLDEN.with_name("pinned_environment.json")


def _openblas_core() -> str | None:
    """The CPU core the OpenBLAS bundled with numpy picked its kernels
    for, or None when numpy bundles no OpenBLAS that names it."""
    for lib in sorted(Path(np.__file__).parent.parent.glob("numpy.libs/*openblas*")):
        corename = getattr(ctypes.CDLL(str(lib)), "scipy_openblas_get_corename64_", None)
        if corename is not None:
            corename.argtypes, corename.restype = [], ctypes.c_char_p
            return corename().decode()
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas['name']} {blas['version']}", "openblas_core": _openblas_core()}


def listing(src: Path, out: Path) -> list[str]:
    proc = subprocess.run([sys.executable, str(TOOL), str(src), str(out)],
                          capture_output=True, text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_pinned_artifacts_match_the_golden_listing(tmp_path):
    recorded, found = json.loads(ENVIRONMENT.read_text()), environment()
    differences = [f"{key} {recorded.get(key)!r} recorded, {found.get(key)!r} here"
                   for key in sorted(recorded.keys() | found.keys())
                   if recorded.get(key) != found.get(key)]
    if differences:
        pytest.skip("golden listing recorded in another environment: "
                    + "; ".join(differences))
    diff = list(difflib.unified_diff(GOLDEN.read_text().splitlines(),
                                     listing(ROOT, tmp_path / "out"),
                                     "golden", "tree", lineterm="", n=0))
    assert not diff, "the listing differs from the golden one:\n" + "\n".join(diff)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as out:
        lines = listing(Path(sys.argv[1] if len(sys.argv) > 1 else ROOT).resolve(),
                        Path(out) / "out")
    GOLDEN.write_text("\n".join(lines) + "\n")
    ENVIRONMENT.write_text(json.dumps(environment(), indent=2) + "\n")
