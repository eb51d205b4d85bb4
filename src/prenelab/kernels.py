"""Hot per-site mutation kernel.

The only loop in the package that touches ~1e8 array elements per call is
the Bernoulli scan that decides, site by site, whether a replicating
sequence miscopies.  The generator's bit stream is consumed in a fixed
order (row-major site scan, then one draw per flip for the replacement
letter), so the result depends only on the seed; tests/test_kernels.py
freezes one such result.
"""

from __future__ import annotations

import numpy as np

# Row chunking keeps the uniform buffer ~tens of MB; it does not change the
# order in which the bit stream is consumed.
_CHUNK_ROWS = 512


def _scan_sites(codes, site_prob, gen):
    n, length = codes.shape
    rows_parts = []
    cols_parts = []
    for start in range(0, n, _CHUNK_ROWS):
        stop = min(start + _CHUNK_ROWS, n)
        u = gen.random((stop - start, length))
        r, c = np.divmod(np.flatnonzero(u < site_prob), length)  # row-major
        rows_parts.append(r + start)
        cols_parts.append(c)
    if rows_parts:
        return np.concatenate(rows_parts), np.concatenate(cols_parts)
    return np.empty(0, np.int64), np.empty(0, np.int64)


def _apply_flips(codes, rows, cols, gen):
    old = codes[rows, cols]
    # one of the 3 other letters, uniformly; gen.random() < 1 always
    c = (gen.random(rows.shape[0]) * 3.0).astype(np.uint8)
    new = np.where(c >= old, c + 1, c).astype(np.uint8)
    codes[rows, cols] = new
    return old, new


def mutate_sites(codes: np.ndarray, site_prob: np.ndarray, gen: np.random.Generator):
    """Mutate a batch of coded sequences in place, one Bernoulli trial per site.

    codes: (n, L) uint8 matrix of letter codes 0..3, modified in place.
    site_prob: (L,) float64 per-site substitution probabilities in [0, 1).
    Returns (rows, cols, old, new): the flipped positions in row-major order
    with the letter codes before and after.  Each flip substitutes one of
    the three other letters uniformly.
    """
    if codes.ndim != 2:
        raise ValueError("codes must be a 2-d matrix")
    if site_prob.shape != (codes.shape[1],):
        raise ValueError(
            f"site_prob length {site_prob.shape} does not match sequence length {codes.shape[1]}"
        )
    rows, cols = _scan_sites(codes, site_prob, gen)
    old, new = _apply_flips(codes, rows, cols, gen)
    return rows, cols, old, new
