"""Run manifests: every artifact directory records the exact configuration,
input content hashes and seed that produced it, so any output can be traced
and reproduced bit for bit.

The manifest hash covers everything except wall-clock metadata; two runs of
the same command agree on the hash even though their timestamps differ.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path

from . import __version__

MANIFEST_NAME = "manifest.json"
# a run stages its artifacts in a directory of this prefix inside --out
STAGE_PREFIX = ".stage-"
HASH_CHUNK_BYTES = 1 << 20


def _hash_file(path: Path) -> str:
    """sha256 of a file, read in HASH_CHUNK_BYTES pieces."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while chunk := fh.read(HASH_CHUNK_BYTES):
            digest.update(chunk)
    return digest.hexdigest()


def hash_path(path) -> str:
    """Content hash of a file, or of a directory tree (file names plus
    their hashes, in sorted order). A directory's manifest.json files are
    skipped: they carry wall-clock time, and the files they describe are
    hashed anyway, so regenerating the same tree gives the same hash. So is
    a staging directory that an interrupted run left behind."""
    path = Path(path)
    if path.is_dir():
        digest = hashlib.sha256()
        for child in sorted(p for p in path.rglob("*")
                            if p.is_file() and p.name != MANIFEST_NAME
                            and not p.relative_to(path).parts[0].startswith(STAGE_PREFIX)):
            digest.update(str(child.relative_to(path)).encode())
            digest.update(_hash_file(child).encode())
        return digest.hexdigest()
    return _hash_file(path)


@dataclass
class RunManifest:
    """Provenance record for one CLI command."""

    command: str
    config: dict
    input_hashes: dict
    seed: int
    tool_version: str = __version__
    wall_clock: dict = field(default_factory=dict)

    def _body(self) -> dict:
        return {
            "command": self.command,
            "config": self.config,
            "input_hashes": self.input_hashes,
            "seed": self.seed,
            "tool_version": self.tool_version,
        }

    def content_hash(self) -> str:
        """Hash of the manifest with wall-clock metadata excluded, so the
        value is identical across reruns of the same command."""
        return hashlib.sha256(json.dumps(self._body(), sort_keys=True).encode()).hexdigest()

    def to_dict(self) -> dict:
        return {**self._body(), "manifest_hash": self.content_hash(),
                "wall_clock": self.wall_clock}


def write_json(path, payload: dict) -> None:
    """The one JSON layout of every artifact: indent 2, sorted keys and a
    trailing newline."""
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path):
    """The JSON value in the file at path. A file that does not hold JSON
    text raises ValueError starting with path."""
    try:
        return json.loads(Path(path).read_text())
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ValueError(f"{path}: {exc}") from None


def write_manifest(out_dir, manifest: RunManifest) -> None:
    """Write manifest.json into out_dir. Artifacts that reference the run
    carry manifest.content_hash(), so the manifest can be written last."""
    write_json(Path(out_dir) / MANIFEST_NAME, manifest.to_dict())
