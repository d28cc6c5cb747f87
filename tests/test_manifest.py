"""Run manifests: content hashes of input files."""

import hashlib

import numpy as np

from rankdebias.manifest import HASH_CHUNK_BYTES, STAGE_PREFIX, hash_path


def test_hash_path_streams_files_larger_than_one_chunk(tmp_path):
    for size in (0, HASH_CHUNK_BYTES, 2 * HASH_CHUNK_BYTES + 17):
        path = tmp_path / f"f{size}.bin"
        path.write_bytes(np.random.default_rng(size).bytes(size))
        assert hash_path(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_hash_path_skips_a_leftover_staging_directory(tmp_path):
    (tmp_path / "inputs.csv").write_text("1,2\n")
    before = hash_path(tmp_path)
    stage = tmp_path / f"{STAGE_PREFIX}abc"
    stage.mkdir()
    (stage / "inputs.csv").write_text("3,4\n")
    assert hash_path(tmp_path) == before
