"""Scalar reference versions of the replicator's immune step and cull.

These are the straightforward per-virion loops that `immune_step` and
`cull_to_capacity` replaced: one Python string per coat, a poster board
of its own mapping each coat signature to its activation day, one
activation-day check and one scalar `gen.random()` per virion with an
active poster, compared with the run's kill probability, and the cull's
removed-id list built on every call.  The vectorised functions must
leave a state exactly as these do, down to the generator position.

The reference reads and writes only the state's codes and generator,
and the ids and trace of a traced state: only when `state.trace` is not
None does it gather `state.ids` and write each event to `state.trace`
as `json.dumps` writes it with sorted keys and compact separators.
`board` translates the package's interned board into the reference's
form for comparison.
"""

import json

import numpy as np

from prenelab.replicator import LETTERS


def signatures(state) -> list[str]:
    """Each virion's coat, the whole of its codes row."""
    return ["".join(LETTERS[c] for c in row.tolist()) for row in state.codes]


def board(state) -> dict[str, int]:
    """The package state's board as {signature: activation day}, in id order."""
    by_id = sorted(state.coat_ids.items(), key=lambda item: item[1])
    assert [cid for _, cid in by_id] == list(range(len(state.posters)))
    return {"".join(LETTERS[c] for c in coat): state.posters[cid] for coat, cid in by_id}


def _write(state, **event):
    """One event of pair 0 as its canonical JSON line."""
    event.update(pair=0, profile=state.trace.profile)
    state.trace.write(json.dumps(event, sort_keys=True, separators=(",", ":")) + "\n")


def immune_step(state, posters: dict):
    """One immune step of `state` against the reference board `posters`."""
    traced = state.trace is not None
    sigs = signatures(state)
    for sig in dict.fromkeys(sigs):  # first-seen order, deduplicated
        if sig not in posters:
            posters[sig] = state.day + state.immune_delay
            if traced:
                _write(state, kind="poster", day=state.day, signature=sig,
                       activation=posters[sig])
    if state.population == 0:
        return state
    keep = np.ones(state.population, dtype=bool)
    for i, sig in enumerate(sigs):
        active = posters[sig] <= state.day
        if active and state.gen.random() < state.kill_probability:
            keep[i] = False
            if traced:
                _write(state, kind="kill", day=state.day, id=int(state.ids[i]), signature=sig)
    state.codes = state.codes[keep]
    if traced:
        state.ids = state.ids[keep]
    return state


def cull_to_capacity(state) -> None:
    n = state.population
    if n <= state.capacity:
        return
    keep = np.sort(state.gen.choice(n, size=state.capacity, replace=False))
    removed = np.setdiff1d(np.arange(n), keep)
    state.codes = state.codes[keep]
    if state.trace is not None:
        _write(state, kind="cull", day=state.day, removed=[int(state.ids[i]) for i in removed])
        state.ids = state.ids[keep]
