"""Seeded random-number streams, and the paired-run driver of both experiments.

All randomness flows through counter-based Philox generators keyed by
(master_seed, *key) via `numpy.random.SeedSequence`, which is documented
to be stable across platforms and numpy versions.  The key is injective
(Salmon et al., SC 2011): the entropy is the seed as two 32-bit words,
the key length, then the key words, each below 2**32.  Each model leads
its keys with its own domain word (REPLICATOR, SOUP), so models never
share a stream.

A Generator's `random(n)` fills n consecutive `next_double` values, the
same numbers n scalar `random()` calls return, so a model may read its
uniforms in blocks (soup does) without changing what it draws.  The
experiments run their pairs through `fan_out`, on every CPU the process
may use, and score them with `sign_test`.
"""

from __future__ import annotations

import math
import operator

from .config import is_int

# Stamped into every run report so a run can be reproduced bit-exactly.  The
# suffix names the (master_seed, *key) -> SeedSequence derivation above and
# moves with each deliberate artifact break: v3 made every soup variate a
# uniform and every lifespan growth rate the double nearest its root; v4
# made escape arms draw only their coat sites from (seed, REPLICATOR, i),
# and a traced arm its body sites from (seed, REPLICATOR, i, BODY).
RNG_ALGORITHM = "philox4x64-10/keyed-u32-v4"

REPLICATOR = int.from_bytes(b"repl", "big")
SOUP = int.from_bytes(b"soup", "big")
BODY = int.from_bytes(b"body", "big")  # a key's last word: the trace-only substream


def _word(value, bits: int, name: str) -> int:
    if not is_int(value):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    value = operator.index(value)
    if not 0 <= value < 2**bits:
        raise ValueError(f"{name} must be an unsigned {bits}-bit integer, got {value}")
    return value


def stream(master_seed: int, *key: int):
    """Return the Philox `np.random.Generator` for (master_seed, *key).

    Distinct arguments give distinct, independent streams.  The seed is an
    unsigned 64-bit and each key word an unsigned 32-bit integer (int or
    NumPy); other types raise TypeError and other values ValueError.
    """
    import numpy as np  # here: lifespan and registry reports read RNG_ALGORITHM without NumPy

    seed = _word(master_seed, 64, "master_seed")
    words = [_word(k, 32, "key word") for k in key]
    entropy = [seed & 0xFFFFFFFF, seed >> 32, len(words), *words]
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(entropy)))


def fan_out(fn, n: int) -> list:
    """[fn(0), ..., fn(n - 1)], computed on the CPUs in the process's affinity mask.

    Of W = min(those CPUs, n) processes, forked child k computes k, k + W, ...
    and pipes them back pickled, and this process computes 0, W, ..., so index
    0 and what it writes stay here.  The result is the same for any W; under
    `taskset -c 0` nothing is forked.  A child's exception, or the exit status
    of a child that dies unanswered, is raised here; every child is reaped.
    """
    import os
    import pickle

    workers = max(1, min(n, len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1))
    children = {}  # pid -> the read end of its pipe, until the child is reaped
    try:
        for k in range(1, workers):
            read, write = os.pipe()
            if (pid := os.fork()) == 0:  # leaves by os._exit: no cleanup, no inherited flush
                try:
                    try:
                        reply = True, [fn(i) for i in range(k, n, workers)]
                    except BaseException as exc:
                        reply = False, exc
                    with open(write, "wb") as fh:
                        fh.write(pickle.dumps(reply))
                    os._exit(0)
                finally:
                    os._exit(1)
            os.close(write)
            children[pid] = open(read, "rb")
        shares = [[fn(i) for i in range(0, n, workers)]]
        for pid in list(children):
            data = children[pid].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(pid).close()
            if not data:
                raise ChildProcessError(f"fan_out child {pid} exited with status {status} before answering")
            done, value = pickle.loads(data)
            if not done:
                raise value
            shares.append(value)
    finally:
        for pid, pipe in children.items():  # left only if a share failed: stop the rest
            pipe.close()
            os.kill(pid, 9)  # SIGKILL
            os.waitpid(pid, 0)
    return [shares[i % workers][i // workers] for i in range(n)]


def sign_test(scores) -> tuple[int, int, int, float]:
    """One-sided sign test with ties dropped (Dixon & Mood, JASA 1946).

    `scores` holds one (a, b) pair per paired run; a wins when a > b.
    Returns (wins, losses, ties, p), p = P[X >= wins] for X ~ Binomial(wins + losses, 1/2).
    """
    scores = list(scores)
    wins = sum(a > b for a, b in scores)
    n = wins + sum(b > a for a, b in scores)
    p = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n
    return wins, n - wins, len(scores) - n, p
