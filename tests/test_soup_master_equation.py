"""The soup sampler against its master equation.

On a reactor small enough to list every reachable state (free A = 3 and
G = 2, one AAA strand; k_on 0.4, k_off 0.5, k_cat 1.5, motif G), the law
of the state at T = 1.5 is computed exactly: a breadth-first search over
`_soup_oracle.enumerate_reactions` finds the 366 states and the
generator matrix, and uniformization (Jensen 1953) gives P(state at T).
Seeded `run_until` runs are compared with that law by Pearson's
chi-square over pooled bins.  The oracle tests pin these draws; this
test checks the law they follow (Gillespie 1977), so it still holds
after a change of draws.
"""

import math
from collections import Counter

import numpy as np

from _soup_oracle import enumerate_reactions
from prenelab import rng
from prenelab.soup import SOUP_LETTERS, CatalystRule, ReactorState, run_until

START = ((3, 0, 2, 0), (("AAA", 1),))  # (free A, C, G, U), sorted (strand, count) pairs
RATES = dict(k_on=0.4, k_off=0.5, k_cat=1.5)
HORIZON = 1.5
RUNS = 4000
MIN_EXPECTED = 5.0  # expected runs per pooled bin


def _key(free, species) -> tuple:
    return tuple(free), tuple(sorted((seq, n) for seq, n in species.items() if n))


def _state(key, k_off=RATES["k_off"]) -> ReactorState:
    free, species = key
    return ReactorState(dict(zip(SOUP_LETTERS, free)), dict(species),
                        RATES["k_on"], k_off, RATES["k_cat"], CatalystRule("G"))


def _after(key, reaction) -> tuple:
    """The state `reaction` leads to from the state `key`."""
    free, species = list(key[0]), dict(key[1])

    def move(seq: str, n: int) -> None:  # a single letter is a free monomer
        if len(seq) == 1:
            free[SOUP_LETTERS.index(seq)] += n
        else:
            species[seq] = species.get(seq, 0) + n

    if reaction.kind == "extend":
        moves = ((reaction.species, -1), (reaction.letter, -1), (reaction.species + reaction.letter, 1))
    elif reaction.kind == "detach":
        moves = ((reaction.species, -1), (reaction.species[:-1], 1), (reaction.species[-1], 1))
    else:
        moves = ((reaction.target, -1), (reaction.target[:-1], 1), ("A", 1))
    for seq, n in moves:
        move(seq, n)
    return _key(free, species)


def exact_law() -> tuple[list, np.ndarray]:
    """(states in BFS order, P(state at HORIZON)) for the reactor at START."""
    states, index, edges = [START], {START: 0}, []
    for key in states:  # grows while it is walked: a breadth-first search
        for reaction in enumerate_reactions(_state(key)):
            target = _after(key, reaction)
            if target not in index:
                index[target] = len(states)
                states.append(target)
            edges.append((index[key], index[target], reaction.propensity))
    q = np.zeros((len(states), len(states)))
    for i, j, rate in edges:
        q[i, j] += rate
        q[i, i] -= rate
    # uniformization: P(T) = sum over k of Poisson(k; lam T) times p0 (I + Q / lam)**k
    lam = -q.diagonal().min()
    step = np.eye(len(states)) + q / lam
    p0 = np.zeros(len(states))
    p0[0] = 1.0
    law, weight, k = np.zeros(len(states)), math.exp(-lam * HORIZON), 0
    mass = 0.0
    while mass < 1.0 - 1e-15:
        law += weight * p0
        mass += weight
        k += 1
        weight *= lam * HORIZON / k
        p0 = p0 @ step
    return states, law


def sampled_counts(seed: int, states: list, k_off: float = RATES["k_off"]) -> np.ndarray:
    """How many of RUNS `run_until` runs on (seed, SOUP, i) end in each state."""
    ends = Counter()
    for i in range(RUNS):
        state = _state(START, k_off)
        run_until(state, HORIZON, rng.stream(seed, rng.SOUP, i))
        ends[_key(state.free, state.species)] += 1
    index = {key: i for i, key in enumerate(states)}
    assert set(ends) <= set(index), "a run reached a state the master equation cannot"
    counts = np.zeros(len(states))
    for key, n in ends.items():
        counts[index[key]] = n
    return counts


def pooled_bins(expected: np.ndarray) -> list[np.ndarray]:
    """State indices in bins of at least MIN_EXPECTED expected runs, rarest states pooled."""
    bins, current, total = [], [], 0.0
    for i in np.argsort(expected, kind="stable"):
        current.append(i)
        total += expected[i]
        if total >= MIN_EXPECTED:
            bins.append(np.array(current))
            current, total = [], 0.0
    if current:  # a short last bin joins the one before
        bins[-1] = np.concatenate([bins[-1], current])
    return bins


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with df degrees of freedom: 1 minus the
    regularized lower gamma P(df/2, x/2), by its power series
    (Abramowitz & Stegun 6.5.29)."""
    a, z = df / 2, x / 2
    term = total = 1 / a
    n = 0
    while term > total * 1e-17:
        n += 1
        term *= z / (a + n)
        total += term
    return max(0.0, 1.0 - total * math.exp(a * math.log(z) - z - math.lgamma(a)))


def chi2_p(counts: np.ndarray, law: np.ndarray) -> float:
    """Pearson's chi-square p-value of `counts` against `law`, over pooled bins."""
    expected = law * counts.sum()
    bins = pooled_bins(expected)
    observed = np.array([counts[b].sum() for b in bins])
    wanted = np.array([expected[b].sum() for b in bins])
    return chi2_sf(float(((observed - wanted) ** 2 / wanted).sum()), len(bins) - 1)


def test_chi2_tail_matches_closed_forms():
    # 1 - P cancels, so the tail is exact to an absolute 1e-15 or so, not relatively
    for x in (0.5, 3.0, 40.0):
        assert abs(chi2_sf(x, 2) - math.exp(-x / 2)) < 1e-14
        assert abs(chi2_sf(x, 1) - math.erfc(math.sqrt(x / 2))) < 1e-14
    assert abs(chi2_sf(3.841458820694124, 1) - 0.05) < 1e-14


def test_state_space_and_exact_law():
    states, law = exact_law()
    assert len(states) == 366
    assert law.min() >= 0.0 and abs(law.sum() - 1.0) < 1e-12
    # every state keeps 6 A and 2 G, free or bound
    for free, species in states:
        bound = Counter()
        for seq, n in species:
            bound.update({letter: n * seq.count(letter) for letter in "AG"})
        assert (free[0] + bound["A"], free[2] + bound["G"]) == (6, 2)


def test_run_until_samples_the_master_equation():
    states, law = exact_law()
    p = chi2_p(sampled_counts(7, states), law)
    # false-failure rate: nominal 1e-3; measured 0 of 200 master seeds (1000-1199) at or
    # below it (1 of 200 at or below 1e-2).  Power over 20 seeds each: a sampler whose
    # detach propensity is scaled by 1.5 fails 20 of 20, by 1.25 8 of 20, by 1.1 0 of 20
    assert p > 1e-3, p
