"""Seeded random-number streams shared by every stochastic module.

All randomness flows through counter-based Philox generators keyed by
(master_seed, stream indices...) via `numpy.random.SeedSequence`, which is
documented to be stable across platforms and numpy versions.  Two runs with
the same master seed therefore consume bit-identical streams, and parallel
entities (seeds, replicates, grid points) get independent streams without
any shared mutable state.
"""

from __future__ import annotations

import operator

import numpy as np

# Stamped into every run report so a run can be reproduced bit-exactly.
RNG_ALGORITHM = "philox4x64-10"


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for (master_seed, *key).

    The same arguments always yield the same stream; distinct keys yield
    statistically independent streams.  The seed and keys are ints or
    NumPy integers; any other type raises TypeError rather than being
    truncated.
    """
    master_seed = operator.index(master_seed)
    if not 0 <= master_seed < 2**64:
        raise ValueError(f"master_seed must be an unsigned 64-bit integer, got {master_seed}")
    seq = np.random.SeedSequence([master_seed, *map(operator.index, key)])
    return np.random.Generator(np.random.Philox(seq))
