"""Hot per-site mutation kernel: one exact Bernoulli trial per site.

Sites are never visited one by one.  The profile is split into runs of
constant probability p, and each run's (n, width) block draws its flip
count k ~ Binomial(n * width, p), then a uniform k-subset of its sites
(Devroye 1986, ch. X), so the cost scales with flips, not with sites.
The bit stream is consumed in a fixed order (per run with p > 0, in site
order: one binomial draw, then one subset draw unless k = 0; then one
uniform per flip, in row-major order, for the new letter);
tests/test_kernels.py freezes one result.  `constant_runs` splits a
profile into its runs; `replicator.MutationProfile` checks its
probabilities and computes them once, and the kernel trusts them.
"""

from __future__ import annotations

import numpy as np


def constant_runs(site_prob: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    """(start, width, p) of each maximal run of one probability p > 0, in site order."""
    starts = np.flatnonzero(np.diff(site_prob, prepend=-1.0)).tolist()  # -1: site 0 opens a run
    stops = [*starts[1:], site_prob.size]
    return tuple(
        (start, stop - start, float(site_prob[start]))
        for start, stop in zip(starts, stops)
        if site_prob[start] > 0.0
    )


# _OTHER[old] lists the three letters other than `old`, in code order
_OTHER = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]], dtype=np.uint8)


def flip_sites(n, length, runs, gen):
    """Sorted flat indices (row * length + col) of the sites of an (n, length)
    batch that flip: the kernel's position draws, with no letter drawn."""
    parts = []
    for start, width, p in runs:
        k = gen.binomial(n * width, p)
        if k:  # an empty subset draws nothing, so skipping it moves no draw
            sites = gen.choice(n * width, k, replace=False, shuffle=False)
            if width != length:  # the run's r * width + c becomes r * length + start + c
                sites += sites // width * (length - width) + start
            parts.append(sites)
    if not parts:
        return np.empty(0, np.int64)
    return np.sort(np.concatenate(parts) if len(parts) > 1 else parts[0])


def mutate_sites(codes: np.ndarray, runs, gen: np.random.Generator):
    """Mutate a batch of coded sequences in place, one Bernoulli trial per site.

    codes: (n, L) uint8 matrix of letter codes 0..3, modified in place in
    any 2-d layout: the flips are written through `codes.reshape(-1)`, a
    view only when `codes` is C-contiguous, so otherwise the flat result is
    written back.  runs: `constant_runs` of the (L,) per-site substitution
    probabilities.  Returns (rows, cols, old, new): the flipped positions in
    row-major order with the letter codes before and after.  Each flip's
    uniform u picks the floor(3u)-th of the three other letters, in code
    order, so each is substituted with probability 1/3.
    """
    n, length = codes.shape
    sites = flip_sites(n, length, runs, gen)
    flat = codes.reshape(-1)
    old = flat[sites]
    new = _OTHER[old, (gen.random(sites.size) * 3.0).astype(np.intp)]  # u < 1 always
    flat[sites] = new
    if not codes.flags.c_contiguous:
        codes[...] = flat.reshape(n, length)
    rows, cols = np.divmod(sites, length)
    return rows, cols, old, new
