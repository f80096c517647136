import os

# Pin BLAS to one thread before numpy loads: keeps reductions bit-deterministic
# for the determinism and byte-identical-checkpoint tests.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import hashlib
import json
from pathlib import Path

import pytest

GOLDEN_CLUSTER_MAPS = Path(__file__).parent / "data" / "golden_cluster_maps.json"


@pytest.fixture(scope="session")
def golden_cluster_maps():
    """sha256 of ``ClusterMap.save`` bytes, frozen from the dict-based clustering
    that preceded the scipy.sparse label reps (same inputs, same seeds);
    ``zipf_s8_seed11`` from the full-width scipy build that preceded the
    per-node one (L = 4096) and from the per-node build that preceded the
    level-by-level one (L = 16384)."""
    return json.loads(GOLDEN_CLUSTER_MAPS.read_text(encoding="utf-8"))


@pytest.fixture
def cluster_map_digest(tmp_path):
    def digest(cmap) -> str:
        path = tmp_path / "digest_map.txt"
        cmap.save(path)
        return hashlib.sha256(path.read_bytes()).hexdigest()

    return digest
