"""The batched immune step and cull against their scalar references.

Each case builds two identical population states, steps one with the
package functions and the other with `_replicator_oracle`, and requires
the same codes, ids (of traced twins), poster board, trace text and
generator position afterwards.  The package's interned board is compared with the
reference's `{signature: activation day}` board through `oracle.board`.
"""

import io
import json

import numpy as np
import pytest

import _replicator_oracle as oracle
from prenelab import rng
from prenelab.replicator import (
    ArmTrace,
    Genome,
    PopulationState,
    cull_to_capacity,
    immune_step,
)

LENGTH = 8
COAT = (2, 5)


def _twins(seed, capacity=1000, immune_delay=1, kill_probability=0.5, traced=True):
    """Two identical states, the second with the reference's own empty board;
    traced twins each write their events to a text buffer of their own."""
    founder = Genome(np.zeros(LENGTH, dtype=np.uint8), {"coat": COAT})
    new, ref = (
        PopulationState(
            founder, 1, capacity, rng.stream(seed, 2),
            immune_delay=immune_delay, kill_probability=kill_probability,
            trace=ArmTrace(io.StringIO().write, "hot", rng.stream(seed, 2, rng.BODY))
            if traced else None,
        )
        for _ in range(2)
    )
    return new, ref, {}


def _populate(states, setup, n, letters=2):
    """Give both states the same n random virions (coats, the codes a state
    holds); few letters so coats repeat."""
    codes = setup.integers(0, letters, size=(n, COAT[1] - COAT[0]), dtype=np.uint8)
    ids = setup.permutation(10 * n + 1)[:n].astype(np.int64)
    for state in states:
        state.codes = codes.copy()
        state.coat = np.full(n, -1, dtype=np.int64)  # new rows: coats not yet interned
        if state.trace is not None:
            state.ids = ids.copy()


def _text(state):
    """All the lines a traced state has written to its text buffer."""
    return state.trace.write.__self__.getvalue()


def _position(gen):
    """The generator's full Philox state (counter, key, buffer) as text."""
    return json.dumps(gen.bit_generator.state, default=np.ndarray.tolist)


def _assert_same(new, ref, ref_board):
    assert new.codes.dtype == ref.codes.dtype
    assert np.array_equal(new.codes, ref.codes)
    if ref.trace is not None:
        assert np.array_equal(new.ids, ref.ids)
        assert _text(new) == _text(ref)
    assert list(oracle.board(new)) == list(ref_board)  # coats in posting order
    assert oracle.board(new) == ref_board  # activation days
    assert _position(new.gen) == _position(ref.gen)
    assert new.coat.shape == (new.population,)


@pytest.mark.parametrize("kill_probability", [0.0, 1.0, 0.6])
@pytest.mark.parametrize("immune_delay", [0, 1, 3])
@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_seeded_days_match_oracle(seed, immune_delay, kill_probability):
    new, ref, ref_board = _twins(seed, capacity=12, immune_delay=immune_delay,
                                 kill_probability=kill_probability)
    setup = rng.stream(seed, 1)
    for day in range(6):
        _populate((new, ref), setup, int(setup.integers(0, 40)))
        new.day = ref.day = day
        immune_step(new)
        oracle.immune_step(ref, ref_board)
        _assert_same(new, ref, ref_board)
        cull_to_capacity(new)
        oracle.cull_to_capacity(ref)
        _assert_same(new, ref, ref_board)
    assert new.gen.random() == ref.gen.random()


@pytest.mark.parametrize("kill_probability", [1.0, 0.35, 0.0])
def test_prefilled_board_with_mixed_activation_days(kill_probability):
    # the board is filled by stepping days 0, 1 and 2 with delay 2, so its
    # coats activate before, on and after day 3; day 3 also meets coats
    # never seen before
    new, ref, ref_board = _twins(40, immune_delay=2, kill_probability=kill_probability)
    setup = rng.stream(40, 1)
    for day in range(3):
        _populate((new, ref), setup, 6, letters=3)
        new.day = ref.day = day
        immune_step(new)
        oracle.immune_step(ref, ref_board)
        _assert_same(new, ref, ref_board)
    written = len(_text(new))
    _populate((new, ref), setup, 80, letters=3)
    present = set(oracle.signatures(ref))
    assert {ref_board[sig] for sig in present & ref_board.keys()} == {2, 3, 4}
    assert present - ref_board.keys()  # and coats never seen before
    new.day = ref.day = 3
    immune_step(new)
    oracle.immune_step(ref, ref_board)
    _assert_same(new, ref, ref_board)
    kinds = {json.loads(line)["kind"] for line in _text(new)[written:].splitlines()}
    assert kinds == ({"poster", "kill"} if kill_probability else {"poster"})
    assert new.gen.random() == ref.gen.random()


def test_no_events_recorded_unless_asked():
    new, ref, ref_board = _twins(41, capacity=10, immune_delay=0, traced=False)
    _populate((new, ref), rng.stream(41, 1), 50)
    immune_step(new)
    oracle.immune_step(ref, ref_board)
    cull_to_capacity(new)
    oracle.cull_to_capacity(ref)
    _assert_same(new, ref, ref_board)
    assert new.trace is None and new.population == 10
    assert not hasattr(new, "ids") and not hasattr(new, "next_id")


def test_empty_population_draws_nothing():
    new, ref, ref_board = _twins(42, immune_delay=0, kill_probability=1.0)
    before = _position(new.gen)
    _populate((new, ref), rng.stream(42, 1), 0)
    immune_step(new)
    oracle.immune_step(ref, ref_board)
    cull_to_capacity(new)
    oracle.cull_to_capacity(ref)
    _assert_same(new, ref, ref_board)
    assert new.posters == [] and new.coat_ids == {} and _text(new) == ""
    assert _position(new.gen) == before
