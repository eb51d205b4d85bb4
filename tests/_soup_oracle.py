"""Reference event selection for the soup: float cumulative sums over NumPy arrays.

This is the selection the running totals and Fenwick picks replaced:
every channel total is a fresh sum over the species columns, and every
pick is a float `cumsum` searched with `searchsorted(..., side="right")`.
`peek` reads only the public view of a state (free pools, row order,
counts, catalyst rule), draws each uniform with a scalar `gen.random()`,
and must consume the same draws and name the same event as the package's
`_peek_next_time`, whose `run_until` reads the same uniforms from blocks.

`enumerate_reactions` lists every reaction channel pair by pair, from the
same public view; its per-kind sums are the oracle for the three running
channel totals.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from prenelab.soup import SOUP_LETTERS, Quiescent


def weighted_pick(weights: np.ndarray, u: float) -> int:
    """Index i with probability weights[i]/sum, u uniform in [0,1)."""
    cum = np.cumsum(weights, dtype=np.float64)
    return int(np.searchsorted(cum, u * cum[-1], side="right"))


def _columns(state):
    counts = np.array(list(state.species.values()), dtype=np.int64)
    is_catalyst = np.array([state.catalyst_rule(s) for s in state.seqs], dtype=bool)
    ends_aaa = np.array([s.endswith("AAA") for s in state.seqs], dtype=bool)
    return counts, is_catalyst, ends_aaa


def sample_extend(state, counts, gen) -> tuple[str, str]:
    free = np.array(state.free, dtype=np.float64)
    seed_weights = np.concatenate([free, counts.astype(np.float64)])
    while True:
        si = weighted_pick(seed_weights, gen.random())
        li = weighted_pick(free, gen.random())
        if si < 4:
            if si == li:
                if gen.random() >= (state.free[si] - 1) / state.free[si]:
                    continue
            return SOUP_LETTERS[si], SOUP_LETTERS[li]
        return state.seqs[si - 4], SOUP_LETTERS[li]


def peek(state, gen) -> tuple[float, str, tuple]:
    """(next_time, kind, args) of the next event, drawing from gen."""
    counts, is_catalyst, ends_aaa = _columns(state)
    f = sum(state.free)
    strands = int(counts.sum())
    a_extend = state.k_on * f * (f + strands - 1) if f else 0.0
    a_detach = state.k_off * strands
    a_cat = state.k_cat * int(counts[is_catalyst].sum()) * int(counts[ends_aaa].sum())
    a_total = a_extend + a_detach + a_cat
    if a_total <= 0.0:
        raise Quiescent("total propensity is zero")
    next_time = state.time - math.log1p(-gen.random()) / a_total  # inversion
    u = gen.random() * a_total
    if u < a_extend:
        return next_time, "extend", sample_extend(state, counts, gen)
    if u < a_extend + a_detach:
        row = weighted_pick(counts.astype(np.float64), gen.random())
        return next_time, "detach", (state.seqs[row],)
    cat_weights = np.where(is_catalyst, counts, 0).astype(np.float64)
    tgt_weights = np.where(ends_aaa, counts, 0).astype(np.float64)
    cat = state.seqs[weighted_pick(cat_weights, gen.random())]
    tgt = state.seqs[weighted_pick(tgt_weights, gen.random())]
    return next_time, "catalyze", (cat, tgt)


@dataclass(frozen=True)
class Reaction:
    """One reaction channel with its propensity.

    kind "extend": species (a strand, or a single letter acting as seed)
    gains `letter` at its end.  kind "detach": the terminal letter of
    `species` returns to solution.  kind "catalyze": `species` (the
    catalyst) chops the terminal A off `target`.
    """

    kind: str
    species: str
    propensity: float
    letter: Optional[str] = None
    target: Optional[str] = None


def enumerate_reactions(state) -> list[Reaction]:
    """Every possible reaction with its propensity, in a stable order."""
    out: list[Reaction] = []
    k_on, k_off, k_cat = state.k_on, state.k_off, state.k_cat
    free = state.free
    species = state.species
    if k_on > 0:
        for i, seed in enumerate(SOUP_LETTERS):
            for j, letter in enumerate(SOUP_LETTERS):
                pairs = free[i] * (free[i] - 1) if i == j else free[i] * free[j]
                if pairs > 0:
                    out.append(Reaction("extend", seed, k_on * pairs, letter=letter))
        for seq, n in species.items():
            for j, letter in enumerate(SOUP_LETTERS):
                if free[j] > 0:
                    out.append(Reaction("extend", seq, k_on * n * free[j], letter=letter))
    if k_off > 0:
        out += [Reaction("detach", seq, k_off * n) for seq, n in species.items()]
    if k_cat > 0:
        for cat, nc in species.items():
            if not state.catalyst_rule(cat):
                continue
            for target, nt in species.items():
                if target.endswith("AAA"):
                    out.append(Reaction("catalyze", cat, k_cat * nc * nt, target=target))
    return out
