"""Seeded random-number streams shared by every stochastic module.

All randomness flows through counter-based Philox generators keyed by
(master_seed, *key) via `numpy.random.SeedSequence`, which is documented
to be stable across platforms and numpy versions.  The key is injective
(Salmon et al., SC 2011): the entropy is the seed as two 32-bit words,
the key length, then the key words, each below 2**32.  Each model leads
its keys with its own domain word (REPLICATOR, SOUP), so models never
share a stream.

A Generator's `random(n)` fills n consecutive `next_double` values, the
same numbers n scalar `random()` calls return, so a model may read its
uniforms in blocks (soup does) without changing what it draws.
"""

from __future__ import annotations

import operator

# Stamped into every run report so a run can be reproduced bit-exactly.  The
# suffix names the (master_seed, *key) -> SeedSequence derivation above and
# moves with each deliberate artifact break: v3 made every soup variate a
# uniform and every lifespan growth rate the double nearest its root.
RNG_ALGORITHM = "philox4x64-10/keyed-u32-v3"

REPLICATOR = int.from_bytes(b"repl", "big")
SOUP = int.from_bytes(b"soup", "big")


def is_int(value) -> bool:
    """True for ints and NumPy integers; bools and floats such as 2.0 are refused."""
    try:
        operator.index(value)  # operator.index(True) is 1, hence the bool test
    except TypeError:
        return False
    return not isinstance(value, bool)


def _word(value, bits: int, name: str) -> int:
    if not is_int(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if not 0 <= value < 2**bits:
        raise ValueError(f"{name} must be an unsigned {bits}-bit integer, got {value}")
    return value


def stream(master_seed: int, *key: int) -> np.random.Generator:
    """Return the Philox generator for (master_seed, *key).

    Distinct arguments give distinct, independent streams.  The seed is an
    unsigned 64-bit and each key word an unsigned 32-bit integer (int or
    NumPy); other types raise TypeError and other values ValueError.
    """
    import numpy as np  # here, so that modules needing only is_int load without NumPy

    seed = _word(master_seed, 64, "master_seed")
    words = [_word(k, 32, "key word") for k in key]
    entropy = [seed & 0xFFFFFFFF, seed >> 32, len(words), *words]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))
