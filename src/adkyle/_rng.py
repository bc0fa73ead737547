"""Counter-based random number plumbing.

Every stochastic routine in the package draws from Philox streams keyed by
(seed, block_id), each block a fixed run of rows of one preallocated matrix,
so a draw is bitwise reproducible and a path's row does not depend on how
many paths follow it.

Each stage draws its own stream (Random123, Salmon et al., SC'11), keyed on
derive_seed(seed, *tag) with the tags below; no stage draws on the raw seed.
Only `simulate` draws; the equilibrium solve, the efficiency sweep,
`posterior probe`, `impact` and `verify-foc` read one quadrature.
"""

from __future__ import annotations

import numpy as np

PATH_SHOCKS = (0, 1)      # simulate's (n_paths, n-1) Brownian shocks


def block_generator(seed: int, block_id: int) -> np.random.Generator:
    """Independent generator for one sample block of a master stream."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(block_id)])
    return np.random.Generator(np.random.Philox(key=key))


def standard_normal_matrix(seed: int, n: int, dim: int, block_size: int) -> np.ndarray:
    """(n, dim) standard normals assembled from counter-based blocks of block_size rows.

    The block structure (not just the seed) is part of the reproducibility
    contract: the same (seed, n, dim, block_size) always yields the same
    matrix, and any prefix of blocks is unaffected by how many blocks follow.
    """
    out = np.empty((n, dim))  # one allocation: a size that cannot fit fails here, up front
    for block_id, start in enumerate(range(0, n, block_size)):
        block_generator(seed, block_id).standard_normal(out=out[start:start + block_size])
    return out


def derive_seed(master: int, *tags: int) -> int:
    """Stable 64-bit sub-seed for a tagged child stream (e.g. one sweep entry)."""
    ss = np.random.SeedSequence(entropy=master, spawn_key=tuple(int(t) for t in tags))
    return int(ss.generate_state(1, np.uint64)[0])
