"""Running totals and Fenwick picks against the cumulative-sum oracle.

Each run steps one reactor with the package's `_peek_next_time` and
`_apply_peeked`, and before every event asks `_soup_oracle.peek` for the
next event on a clone of the generator: both must name the same event,
time included, and leave the two generators in the same state.  A whole
`run_until`, which reads its uniforms from blocks, must match the oracle
stepped with scalar draws.
"""

import copy
import json

import numpy as np
import pytest
from _hypothesis import given, settings, st

import _soup_oracle as oracle
from prenelab import rng, soup
from prenelab.soup import (
    CatalystRule,
    ReactorState,
    SoupConfig,
    _apply_peeked,
    _fenwick,
    _fenwick_pick,
    _peek_next_time,
    run_until,
)


def _position(gen):
    """The generator's full Philox state (counter, key, buffer) as text."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist)


def _step_against_oracle(state, gen) -> list[tuple[int, int]]:
    """One event, checked against the oracle; (row, rows) of each vanished species."""
    twin = copy.deepcopy(gen)
    expected = oracle.peek(state, twin)
    peeked = _peek_next_time(state, gen.random)
    assert peeked == expected
    assert _position(gen) == _position(twin)
    before = list(state.seqs)
    _apply_peeked(state, peeked)
    return [(before.index(s), len(before)) for s in set(before) - set(state.seqs)]


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("k_cat", [0.0, 0.1])
def test_default_scenario_matches_oracle(k_cat, seed):
    state = SoupConfig().build_state(k_cat=k_cat)
    gen = rng.stream(71, seed)
    vanished = []
    for _ in range(1500):
        vanished += _step_against_oracle(state, gen)
    state.recount()
    # species left the table both from the middle (a swap-remove) and
    # from the last row
    assert any(row < rows - 1 for row, rows in vanished)
    assert any(row == rows - 1 for row, rows in vanished)


def test_scaled_reactor_matches_oracle_across_capacity_doublings():
    cfg = SoupConfig()
    state = ReactorState(
        {letter: 100 * n for letter, n in cfg.initial_free},
        {seq: 100 * n for seq, n in cfg.initial_polymers},
        cfg.k_on, cfg.k_off, cfg.k_cat, CatalystRule(cfg.motif),
    )
    gen = rng.stream(72, 0)
    capacities, full = set(), 0
    for _ in range(4000):
        capacities.add(len(state._count))
        full += len(state.seqs) == len(state._count)
        _step_against_oracle(state, gen)
    state.recount()
    assert {16, 32, 64, 128} <= capacities
    assert full > 0  # picks ran with every row of the trees in use


@pytest.mark.parametrize("seed", [0, 1])
def test_run_until_matches_oracle_with_scalar_draws(seed):
    horizon, times = 60.0, [0.0, 15.0, 30.0, 45.0]
    ours, gen = SoupConfig().build_state(), rng.stream(73, seed)
    seen = []
    run_until(ours, horizon, gen, times, lambda t, s: seen.append((t, s.n_events, s.species)))
    theirs, twin = SoupConfig().build_state(), rng.stream(73, seed)
    expected = []
    while True:
        peeked = oracle.peek(theirs, twin)
        while times and times[0] < min(peeked[0], horizon):
            expected.append((times.pop(0), theirs.n_events, theirs.species))
        if peeked[0] >= horizon:
            break
        _apply_peeked(theirs, peeked)
    assert 2 * ours.n_events > 3 * soup._BLOCK  # two or more uniforms an event
    assert seen == expected
    assert ours.species == theirs.species and ours.free == theirs.free
    assert _position(gen) == _position(twin)


class _Scripted:
    """Stands in for a generator: hands out the given draws in order."""

    def __init__(self, draws):
        self.draws = list(draws)

    def random(self):
        return self.draws.pop(0)


# Draws are (waiting-time uniform, channel uniform, pick uniforms...); each pick
# threshold below lands exactly on a cumulative sum, where side="right"
# must move past the row that completes the sum.
EXACT_CASES = {
    # detach weights 2, 2, 4: threshold 0.25 * 8 = 2.0 ends row 0
    "detach_on_sum": (
        {}, {"AC": 2, "GG": 2, "UUUU": 4}, (0, 1.0, 0),
        [0.5, 0.5, 0.25], ("detach", ("GG",)),
    ),
    "detach_on_second_sum": (
        {}, {"AC": 2, "GG": 2, "UUUU": 4}, (0, 1.0, 0),
        [0.5, 0.5, 0.5], ("detach", ("UUUU",)),
    ),
    # catalyst weights 0, 0, 2, 2 (rows AAA, CC, GAAG, GGAAG): threshold
    # 2.0 ends row 2; threshold 0 skips the leading zero rows
    "catalyze_on_sum_past_zeros": (
        {}, {"AAA": 4, "CC": 3, "GAAG": 2, "GGAAG": 2}, (0, 0, 1.0),
        [0.5, 0.5, 0.5, 0.0], ("catalyze", ("GGAAG", "AAA")),
    ),
    "catalyze_at_zero": (
        {}, {"AAA": 4, "CC": 3, "GAAG": 2, "GGAAG": 2}, (0, 0, 1.0),
        [0.5, 0.5, 0.0, 0.75], ("catalyze", ("GAAG", "AAA")),
    ),
    # seed weights A 2, C 2, G 0, U 0, then strand GG 4: threshold 4.0
    # ends the free pools (the tree's base); the letter threshold 2.0
    # ends pool A
    "extend_on_free_total": (
        {"A": 2, "C": 2}, {"GG": 4}, (1.0, 0, 0),
        [0.5, 0.5, 0.5, 0.5], ("extend", ("GG", "C")),
    ),
    # same-pool pair A+A thinned away at exactly (2 - 1) / 2, then C+C
    # (thresholds 2.0 and 3.0) accepted
    "extend_thinning_boundary": (
        {"A": 2, "C": 2}, {"GG": 4}, (1.0, 0, 0),
        [0.5, 0.5, 0.0, 0.0, 0.5, 0.25, 0.75, 0.25], ("extend", ("C", "C")),
    ),
}


@pytest.mark.parametrize("case", sorted(EXACT_CASES))
def test_threshold_on_a_cumulative_sum(case):
    free, polymers, rates, draws, (kind, args) = EXACT_CASES[case]
    state = ReactorState(free, polymers, *rates)
    ours, theirs = _Scripted(draws), _Scripted(draws)
    peeked = _peek_next_time(state, ours.random)
    assert oracle.peek(state, theirs) == peeked
    assert peeked[1:] == (kind, args)
    assert ours.draws == theirs.draws == []


@settings(max_examples=300, deadline=None)
@given(
    weights=st.lists(st.one_of(st.just(0), st.integers(1, 10**9)), min_size=1, max_size=40),
    base=st.one_of(st.just(0), st.integers(1, 10**9)),
    data=st.data(),
)
def test_fenwick_pick_is_searchsorted(weights, base, data):
    total = base + sum(weights)
    # a uniform threshold, or one exactly on an integer (and so possibly
    # on a cumulative sum, or on the total itself)
    threshold = data.draw(
        st.one_of(
            st.floats(0, 1, exclude_max=True).map(lambda u: u * float(total)),
            st.integers(0, total).map(float),
        )
    )
    capacity = 1 << (len(weights) - 1).bit_length()
    tree = _fenwick(weights + [0] * (capacity - len(weights)))
    cum = base + np.cumsum(weights, dtype=np.float64)
    expected = int(np.searchsorted(cum, threshold, side="right"))
    row = _fenwick_pick(tree, base, threshold)
    assert row == (expected if expected < len(weights) else capacity)
