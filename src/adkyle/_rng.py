"""Counter-based random number plumbing.

Every stochastic routine in the package draws from Philox streams keyed by
(seed, block_id).  Blocks are generated in a fixed order and merged with
pairwise summation, so results are bitwise reproducible and independent of
any worker scheduling.
"""

from __future__ import annotations

import numpy as np

BLOCK_SIZE = 65536


def block_generator(seed: int, block_id: int) -> np.random.Generator:
    """Independent generator for one sample block of a master stream."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block_id)])
    return np.random.Generator(np.random.Philox(key=key))


def block_sizes(n: int, block_size: int = BLOCK_SIZE):
    """Yield the fixed-order block lengths of n draws, one at a time (no list for a huge n)."""
    for start in range(0, n, block_size):
        yield min(block_size, n - start)


def standard_normal_matrix(seed: int, n: int, dim: int, block_size: int = BLOCK_SIZE) -> np.ndarray:
    """(n, dim) standard normals assembled from counter-based blocks of block_size rows.

    The block structure (not just the seed) is part of the reproducibility
    contract: the same (seed, n, dim, block_size) always yields the same
    matrix, and any prefix of blocks is unaffected by how many blocks follow.
    """
    out = np.empty((n, dim))  # one allocation: a size that cannot fit fails here, up front
    offset = 0
    for block_id, m in enumerate(block_sizes(n, block_size)):
        block_generator(seed, block_id).standard_normal(out=out[offset:offset + m])
        offset += m
    return out


def derive_seed(master: int, *tags: int) -> int:
    """Stable 64-bit sub-seed for a tagged child stream (e.g. one sweep entry)."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(int(t) for t in tags))
    return int(ss.generate_state(1, np.uint64)[0])
