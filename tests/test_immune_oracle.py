"""The batched immune step and cull against their scalar references.

Each case builds two identical population states, steps one with the
package functions and the other with `_replicator_oracle`, and requires
the same codes, ids, poster board, events and generator
position afterwards.
"""

import json

import numpy as np
import pytest

import _replicator_oracle as oracle
from prenelab import rng
from prenelab.replicator import (
    Genome,
    PopulationState,
    cull_to_capacity,
    immune_step,
)

LENGTH = 8
COAT = (2, 5)


def _twins(seed, capacity=1000, immune_delay=1, kill_probability=0.5, record_events=True):
    founder = Genome(np.zeros(LENGTH, dtype=np.uint8), {"coat": COAT})
    return [
        PopulationState(
            founder, 1, capacity, rng.stream(seed, 2),
            immune_delay=immune_delay, kill_probability=kill_probability,
            record_events=record_events,
        )
        for _ in range(2)
    ]


def _populate(states, setup, n, letters=2):
    """Give both states the same n random virions; few letters so coats repeat."""
    codes = setup.integers(0, letters, size=(n, LENGTH), dtype=np.uint8)
    ids = setup.permutation(10 * n + 1)[:n].astype(np.int64)
    for state in states:
        state.codes = codes.copy()
        state.ids = ids.copy()


def _position(gen):
    """The generator's full Philox state (counter, key, buffer) as text."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist)


def _assert_same(new, ref):
    assert new.codes.dtype == ref.codes.dtype
    assert np.array_equal(new.codes, ref.codes)
    assert np.array_equal(new.ids, ref.ids)
    assert list(new.posters) == list(ref.posters)  # keys in creation order
    assert new.posters == ref.posters  # activation days
    assert new.events == ref.events
    assert _position(new.gen) == _position(ref.gen)


@pytest.mark.parametrize("kill_probability", [0.0, 1.0, 0.6])
@pytest.mark.parametrize("immune_delay", [0, 1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_days_match_oracle(seed, immune_delay, kill_probability):
    new, ref = _twins(seed, capacity=12, immune_delay=immune_delay,
                      kill_probability=kill_probability)
    setup = rng.stream(seed, 1)
    for day in range(6):
        _populate((new, ref), setup, int(setup.integers(0, 40)))
        new.day = ref.day = day
        immune_step(new)
        oracle.immune_step(ref)
        _assert_same(new, ref)
        cull_to_capacity(new)
        oracle.cull_to_capacity(ref)
        _assert_same(new, ref)
    assert new.gen.random() == ref.gen.random()


@pytest.mark.parametrize("kill_probability", [1.0, 0.35, 0.0])
def test_prefilled_board_with_mixed_activation_days(kill_probability):
    new, ref = _twins(40, immune_delay=2, kill_probability=kill_probability)
    _populate((new, ref), rng.stream(40, 1), 80, letters=3)
    day = 3
    # half of the coats present get an older poster, active before, on or
    # after today
    present = list(dict.fromkeys(oracle.signatures(ref)))
    for k, sig in enumerate(present[::2]):
        new.posters[sig] = ref.posters[sig] = day + (-1, 0, 1)[k % 3]
    new.day = ref.day = day
    immune_step(new)
    oracle.immune_step(ref)
    _assert_same(new, ref)
    kinds = {e["kind"] for e in new.events}
    assert kinds == ({"poster", "kill"} if kill_probability else {"poster"})
    assert new.gen.random() == ref.gen.random()


def test_no_events_recorded_unless_asked():
    new, ref = _twins(41, capacity=10, immune_delay=0, record_events=False)
    _populate((new, ref), rng.stream(41, 1), 50)
    immune_step(new)
    oracle.immune_step(ref)
    cull_to_capacity(new)
    oracle.cull_to_capacity(ref)
    _assert_same(new, ref)
    assert new.events == [] and new.population == 10


def test_empty_population_draws_nothing():
    new, ref = _twins(42, immune_delay=0, kill_probability=1.0)
    before = _position(new.gen)
    _populate((new, ref), rng.stream(42, 1), 0)
    immune_step(new)
    oracle.immune_step(ref)
    cull_to_capacity(new)
    oracle.cull_to_capacity(ref)
    _assert_same(new, ref)
    assert new.posters == {} and new.events == []
    assert _position(new.gen) == before
