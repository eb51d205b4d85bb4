"""One escape day against its exact law.

A population of 2 founders with the 2-site coat AA, whose coat the
poster board already holds (active since day 0), runs one
`run_population_day`: 2 offspring each, coat rate 0.5 per site, kill
probability 0.5, `immune_delay` 1, capacity 3.  Each of the 4 children
independently keeps AA with probability (1 - 0.5)**2 and is then shot,
dying with probability 0.5; any other coat is new, postered for day 2,
and escapes.  With 4 survivors the cull keeps a uniform 3-subset.  So
the law of the surviving coats, as a multiset, is exact, and seeded days
on `rng.stream(seed, REPLICATOR, i)` are compared with it by Pearson's
chi-square over pooled bins.  The frozen trace and the immune oracle pin
these draws; this test checks the law they follow, so it still holds
after a change of draws.
"""

import itertools
import math
from collections import Counter, defaultdict

import numpy as np

from prenelab import rng
from prenelab.replicator import Genome, MutationProfile, PopulationState, run_population_day
from test_soup_master_equation import chi2_p

FOUNDERS, OFFSPRING, CAPACITY = 2, 2, 3
COAT_RATE, KILL = 0.5, 0.5
DAYS = 10000
FOUNDER_COAT = (0, 0)  # letter codes: AA


def exact_law() -> dict[tuple, float]:
    """P(sorted tuple of the surviving coats) after the day."""
    child = defaultdict(float)  # a child's fate: None (killed) or its coat
    for coat in itertools.product(range(4), repeat=len(FOUNDER_COAT)):
        p = math.prod(1 - COAT_RATE if c == f else COAT_RATE / 3 for c, f in zip(coat, FOUNDER_COAT))
        if coat == FOUNDER_COAT:  # postered: shot
            child[None] += p * KILL
            p *= 1 - KILL
        child[coat] += p
    alive = {(): 1.0}
    for _ in range(FOUNDERS * OFFSPRING):
        grown = defaultdict(float)
        for coats, p in alive.items():
            for fate, q in child.items():
                grown[coats if fate is None else tuple(sorted((*coats, fate)))] += p * q
        alive = grown
    law = defaultdict(float)
    for coats, p in alive.items():
        kept = list(itertools.combinations(coats, min(len(coats), CAPACITY)))
        for subset in kept:  # the cull: a uniform subset, so each equally likely
            law[subset] += p / len(kept)
    return law


def sampled_days(seed: int) -> Counter:
    """How many of DAYS seeded days end with each sorted tuple of coats."""
    founder = Genome.from_string("AA", {"coat": (0, 2)})
    profile = MutationProfile.uniform(COAT_RATE, len(founder))
    ends = Counter()
    for i in range(DAYS):
        state = PopulationState(founder, FOUNDERS, CAPACITY, rng.stream(seed, rng.REPLICATOR, i),
                                immune_delay=1, kill_probability=KILL)
        state.coat_ids[bytes(FOUNDER_COAT)] = 0
        state.posters.append(0)
        run_population_day(state, profile, OFFSPRING)
        ends[tuple(sorted(map(tuple, state.codes.tolist())))] += 1
    return ends


def test_exact_law_sums_to_one():
    law = exact_law()
    assert abs(sum(law.values()) - 1.0) < 1e-12
    # 1 + 16 + 136 + 816 multisets of at most 3 of the 16 coats, all reachable
    assert len(law) == 969 and min(law.values()) > 0
    # three coats survive when three or four children do, each independently
    p_size = Counter()
    for coats, p in law.items():
        p_size[len(coats)] += p
    survive = 1 - (1 - COAT_RATE) ** 2 * KILL
    assert abs(p_size[3] - (survive ** 4 + 4 * survive ** 3 * (1 - survive))) < 1e-12


def test_run_population_day_samples_its_exact_law():
    law = exact_law()
    ends = sampled_days(1)
    assert set(ends) <= set(law), "a day reached an outcome its law cannot"
    keys = sorted(law)
    p = chi2_p(np.array([ends[k] for k in keys], dtype=float), np.array([law[k] for k in keys]))
    # false-failure rate: nominal 1e-3; measured 0 of 200 master seeds (1000-1199) at or
    # below it (2 of 200 at or below 1e-2).  Power over 20 seeds each: days sampled with the
    # coat rate x1.05 fail 19 of 20 (x1.1: 20), with the kill probability x1.2 20 of 20 (x1.1:
    # 4), and with the kernel's letter pick floor(2.85u) in place of floor(3u) 18 of 20
    assert p > 1e-3, p
