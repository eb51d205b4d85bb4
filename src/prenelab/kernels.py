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


def flip_sites(n, length, runs, gen):
    """Sorted flat indices (row * length + col) of the sites of an (n, length)
    batch that flip: the kernel's position draws, with no letter drawn."""
    parts = [np.empty(0, np.int64)]
    for start, width, p in runs:
        k = gen.binomial(n * width, p)
        if k:  # an empty subset draws nothing, so skipping it moves no draw
            r, c = np.divmod(gen.choice(n * width, k, replace=False, shuffle=False), width)
            parts.append(r * length + c + start)
    return np.sort(np.concatenate(parts))


def _apply_flips(codes, rows, cols, gen):
    old = codes[rows, cols]
    # one of the 3 other letters, uniformly; gen.random() < 1 always
    c = (gen.random(rows.shape[0]) * 3.0).astype(np.uint8)
    new = np.where(c >= old, c + 1, c).astype(np.uint8)
    codes[rows, cols] = new
    return old, new


def mutate_sites(codes: np.ndarray, runs, gen: np.random.Generator):
    """Mutate a batch of coded sequences in place, one Bernoulli trial per site.

    codes: (n, L) uint8 matrix of letter codes 0..3, modified in place.
    runs: `constant_runs` of the (L,) per-site substitution probabilities.
    Returns (rows, cols, old, new): the flipped positions in row-major order
    with the letter codes before and after.  Each flip substitutes one of
    the three other letters uniformly.
    """
    n, length = codes.shape
    rows, cols = np.divmod(flip_sites(n, length, runs, gen), length)
    old, new = _apply_flips(codes, rows, cols, gen)
    return rows, cols, old, new
