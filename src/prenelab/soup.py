"""Well-mixed stochastic reactor for monomers and linear polymers.

Four monomer letters (A, C, G, U) float free in solution.  A free
monomer can attach to the designated (right) end of a strand, the
terminal letter can detach, and catalyst strands (the P-polymers: any
strand containing the configured motif and not ending in AAA) chop the
terminal A off strands ending in AAA, returning it to solution.

Dimerization treats each free monomer as a length-1 seed: Extend(seed x,
letter y) consumes one x and one y and creates the dimer xy.  For x == y
both reagents come from the same pool, so the pair count is
free(x)*(free(x)-1) rather than the mass-action product of two
independent pools.

The integrator is the exact Gillespie direct method (Gillespie 1977).
An event costs O(log S) in plain Python ints, S the number of species:

- Fenwick picks.  Three integer Fenwick trees over the species rows (all
  strands, catalysts, AAA-enders; an index tree as in Gibson & Bruck
  2000) find the smallest row whose exact integer prefix sum exceeds
  the float threshold u * total.  That is the row a float cumulative sum
  and `searchsorted(..., side="right")` would pick, so every draw and
  every pick is the same as with a plain cumulative-sum search.
- Totals from the roots.  One builder, `_table`, lays the table out at
  construction, at each doubling and for `recount`.  The capacity is a
  power of two, so the last node of each tree covers every row: the
  strand, catalyst and AAA-ender totals are read there, and
  `_channel_totals` reads the channel totals off `free` and the roots.
- In-place updates.  An event makes one or two `_shift` calls (two more
  when a vanished row is refilled from the last one).  Each reads the
  row's facts record, walks `_all`, then `_cat` or `_aaa` only for a row
  flagged there, and adds n times the row's letter counts into the bound
  mass in place.
  Besides the shifts an event reads a waiting-time uniform, a channel
  uniform and one uniform per pick (one pick for detach, two for extend
  and catalyze, plus a thinning uniform when extend pairs a pool with
  itself), runs one O(1) `audit`, and builds no list.
- Uniforms from blocks.  Every variate is a uniform; the waiting time is
  the inversion -log1p(-u) / a_total (Gillespie 1977).  `run_until`
  reads its uniforms from consecutive blocks of `gen.random(_BLOCK)`,
  one NumPy call per block instead of one per draw, and on return
  leaves `gen` just after the last uniform it used.  A block holds the
  generator's consecutive scalar draws, so `step`, which draws each
  uniform with `gen.random()`, replays `run_until` event for event.
- Two audit levels.  `audit()` runs after every event and is O(1): free
  plus running bound mass must equal the conserved mass, per letter.
  `recount()` is O(S): it rebuilds the table with `_table` from the
  species names and counts and compares every column, padding included,
  and the mass; `run_until` calls it at each sample time and on return.
"""

from __future__ import annotations

import math
import operator
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from . import rng as rng_mod
from .config import ConfigError, check_fields, is_int

__all__ = [
    "SOUP_LETTERS",
    "CatalystRule",
    "ReactorState",
    "Quiescent",
    "ConservationError",
    "SoupConfig",
    "ReplicateOutcome",
    "CatalysisReport",
    "step",
    "run_until",
    "run_catalysis_experiment",
]

SOUP_LETTERS = "ACGU"
_LETTER_INDEX = {c: i for i, c in enumerate(SOUP_LETTERS)}


class Quiescent(RuntimeError):
    """Total propensity is zero: nothing can ever happen again."""


class ConservationError(AssertionError):
    """Per-letter mass accounting broke; the reactor state is corrupt."""


@dataclass(frozen=True)
class CatalystRule:
    """P-predicate: contains the motif and does not end in AAA."""

    motif: str = "GAAG"

    def __post_init__(self):
        if not self.motif or not set(self.motif) <= set(SOUP_LETTERS):
            raise ValueError(f"motif must be a non-empty string over {SOUP_LETTERS}")

    def __call__(self, seq: str) -> bool:
        return self.motif in seq and not seq.endswith("AAA")


def _is_count(n) -> bool:
    """A non-negative integer; bools and floats such as 2.0 or 2.7 are refused."""
    return is_int(n) and n >= 0


# Integer Fenwick (binary indexed) trees over species rows, 1-based, with
# a power-of-two capacity: tree[i] holds the weight sum of rows
# (i - lowbit(i), i], so a point update or a prefix search is O(log S).

def _fenwick(weights: list[int]) -> list[int]:
    """Tree over `weights`, whose length (the capacity) is a power of two."""
    tree = [0, *weights]
    for i in range(1, len(tree)):
        parent = i + (i & -i)
        if parent < len(tree):
            tree[parent] += tree[i]
    return tree


def _fenwick_pick(tree: list[int], base: int, threshold: float) -> int:
    """Smallest row with base + (weight of rows 0..row) > threshold.

    This is the index `searchsorted(base + cumsum(w), threshold,
    side="right")` returns: the prefix sums stay exact ints and Python
    compares an int with a float exactly.  Returns the capacity when no
    row qualifies.
    """
    capacity = len(tree) - 1
    row, acc, step = 0, base, capacity
    while step:
        nxt = row + step
        if nxt <= capacity and acc + tree[nxt] <= threshold:
            row = nxt
            acc += tree[nxt]
        step >>= 1
    return row


_FIRST_CAPACITY = 16
_NO_FACTS = (0, 0, 0, 0, False, False)  # an empty row's facts record


class ReactorState:
    """Free monomer pools plus a canonical polymer species table.

    Species rows live in two columns padded to a power-of-two capacity
    that doubles when full: the count, and the facts record `(a, c, g, u,
    is_cat, ends_aaa)` that `_facts_of` makes once per row; every row
    past `len(seqs)` holds count 0 and `_NO_FACTS`, which `recount`
    checks.  One Fenwick tree per pickable weight (all strands, catalysts,
    AAA-enders) holds that weight's total at its root, its last node.  A
    row whose count reaches zero is removed at once by moving the last row
    into it, so two states with the same contents compare equal whatever
    order reactions ran in.  `free` is the four free pools as a list of
    ints; `_add` and `_remove` keep the bound mass per letter that the
    per-event `audit` reads.
    """

    def __init__(
        self,
        free: dict[str, int],
        polymers: dict[str, int],
        k_on: float,
        k_off: float,
        k_cat: float,
        catalyst_rule: CatalystRule = CatalystRule(),
    ):
        if not all(math.isfinite(k) and k >= 0 for k in (k_on, k_off, k_cat)):
            raise ValueError("rate constants must be finite and >= 0")
        self.free = [0, 0, 0, 0]
        for letter, n in free.items():
            if letter not in _LETTER_INDEX:
                raise ValueError(f"unknown monomer letter {letter!r}")
            if not _is_count(n):
                raise ValueError(f"counts must be integers >= 0, got {n!r}")
            self.free[_LETTER_INDEX[letter]] = operator.index(n)
        self.k_on = float(k_on)
        self.k_off = float(k_off)
        self.k_cat = float(k_cat)
        self.catalyst_rule = catalyst_rule
        self.time = 0.0
        self.n_events = 0

        polymers = sorted(polymers.items())
        for seq, n in polymers:
            if len(seq) < 2:
                raise ValueError(f"polymer {seq!r} shorter than 2; monomers go in free")
            if not set(seq) <= set(SOUP_LETTERS):
                raise ValueError(f"polymer {seq!r} uses letters outside {SOUP_LETTERS}")
            if not _is_count(n):
                raise ValueError(f"counts must be integers >= 0, got {n!r}")
        self.seqs = [seq for seq, n in polymers if n > 0]
        count = [operator.index(n) for _, n in polymers if n > 0]
        capacity = max(_FIRST_CAPACITY, 1 << (len(count) - 1).bit_length())
        self._load(count, [*map(self._facts_of, self.seqs)], capacity)
        self.conserved = self.mass_by_letter()

    # species table bookkeeping

    def _table(self, count: list[int], facts: list[tuple], capacity: int) -> tuple:
        """The table of rows `seqs` with these counts and facts records, padded to `capacity`."""
        n = len(self.seqs)
        count = count[:n] + [0] * (capacity - n)
        facts = facts[:n] + [_NO_FACTS] * (capacity - n)
        return (
            count, facts,
            {seq: row for row, seq in enumerate(self.seqs)},
            [sum(k * f[i] for k, f in zip(count, facts)) for i in range(4)],
            _fenwick(count),
            _fenwick([k if f[4] else 0 for k, f in zip(count, facts)]),
            _fenwick([k if f[5] else 0 for k, f in zip(count, facts)]),
        )

    def _load(self, count: list[int], facts: list[tuple], capacity: int) -> None:
        self._count, self._facts, self._row, self._bound, self._all, self._cat, self._aaa = (
            self._table(count, facts, capacity))

    def _facts_of(self, seq: str) -> tuple:
        """A row's facts record: letter counts, catalyst flag, AAA-ender flag."""
        return (*map(seq.count, SOUP_LETTERS), self.catalyst_rule(seq), seq.endswith("AAA"))

    def _shift(self, row: int, n: int) -> None:
        """Add n strands of `row` to the trees and the bound mass, in place."""
        a, c, g, u, is_cat, ends_aaa = self._facts[row]
        tree, size, i = self._all, len(self._all), row + 1
        while i < size:
            tree[i] += n
            i += i & -i
        if is_cat:
            tree, i = self._cat, row + 1
            while i < size:
                tree[i] += n
                i += i & -i
        if ends_aaa:
            tree, i = self._aaa, row + 1
            while i < size:
                tree[i] += n
                i += i & -i
        bound = self._bound
        bound[0] += n * a
        bound[1] += n * c
        bound[2] += n * g
        bound[3] += n * u

    def _add(self, seq: str, n: int = 1) -> None:
        row = self._row.get(seq)
        if row is None:
            row = len(self.seqs)
            if row == len(self._count):
                self._load(self._count, self._facts, 2 * row)
            self.seqs.append(seq)
            self._row[seq] = row
            self._facts[row] = self._facts_of(seq)
        self._count[row] += n
        self._shift(row, n)

    def _remove(self, seq: str, n: int = 1) -> None:
        row = self._row[seq]
        if self._count[row] < n:
            raise ValueError(f"cannot remove {n} of {seq!r}, only {self._count[row]} present")
        self._count[row] -= n
        self._shift(row, -n)
        if self._count[row] == 0:
            last = len(self.seqs) - 1
            if row != last:
                moved, m = self.seqs[last], self._count[last]
                self._shift(last, -m)
                for column in (self.seqs, self._count, self._facts):
                    column[row] = column[last]
                self._row[moved] = row
                self._shift(row, m)
            self._count[last], self._facts[last] = 0, _NO_FACTS
            self.seqs.pop()
            del self._row[seq]

    # views

    @property
    def species(self) -> dict[str, int]:
        return dict(zip(self.seqs, self._count))

    def free_of(self, letter: str) -> int:
        return self.free[_LETTER_INDEX[letter]]

    def mass_by_letter(self) -> list[int]:
        """free + bound occurrences, per letter, recounted from the species
        names and counts; the conserved quantity."""
        table = self._table(self._count, [*map(self._facts_of, self.seqs)], len(self._count))
        return [f + b for f, b in zip(self.free, table[3])]

    def n_catalysts(self) -> int:
        return self._cat[-1]

    def n_aaa_enders(self) -> int:
        return self._aaa[-1]

    def audit(self) -> None:
        """Per-event check, O(1): free + running bound mass == conserved."""
        f, b, m = self.free, self._bound, self.conserved
        if f[0] + b[0] != m[0] or f[1] + b[1] != m[1] or f[2] + b[2] != m[2] or f[3] + b[3] != m[3]:
            raise ConservationError(f"mass drifted: {[x + y for x, y in zip(f, b)]} != {m}")

    def recount(self) -> None:
        """Full check, O(S): the table rebuilt from the species names and
        counts, padding included, equals the held one, and so does the mass."""
        table = self._table(self._count, [*map(self._facts_of, self.seqs)], len(self._count))
        held = (self._count, self._facts, self._row, self._bound, self._all, self._cat, self._aaa)
        if held != table or 0 in self._count[: len(self.seqs)]:
            raise ConservationError("running totals disagree with the species table")
        mass = [f + b for f, b in zip(self.free, table[3])]
        if mass != self.conserved:
            raise ConservationError(f"mass drifted: {mass} != {self.conserved}")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ReactorState)
            and self.free == other.free
            and self.species == other.species
            and (self.k_on, self.k_off, self.k_cat) == (other.k_on, other.k_off, other.k_cat)
            and self.catalyst_rule == other.catalyst_rule
            and self.time == other.time
        )

    def _channel_totals(self) -> tuple[float, float, float]:
        """Extend, detach and catalyze propensity totals from `free` and the tree roots."""
        f, strands = sum(self.free), self._all[-1]
        extend = self.k_on * f * (f + strands - 1) if f else 0.0
        return extend, self.k_off * strands, self.k_cat * self._cat[-1] * self._aaa[-1]


def _apply_extend(state: ReactorState, seed: str, letter: str) -> None:
    free = state.free
    if len(seed) == 1:
        free[_LETTER_INDEX[seed]] -= 1
    else:
        state._remove(seed)
    free[_LETTER_INDEX[letter]] -= 1
    state._add(seed + letter)
    if min(free) < 0:
        raise ConservationError("free pool went negative")


def _apply_detach(state: ReactorState, seq: str) -> None:
    state._remove(seq)
    free = state.free
    free[_LETTER_INDEX[seq[-1]]] += 1
    if len(seq) == 2:
        free[_LETTER_INDEX[seq[0]]] += 1
    else:
        state._add(seq[:-1])


def _apply_catalyze(state: ReactorState, catalyst: str, target: str) -> None:
    # the catalyst is consulted, not consumed
    if catalyst.endswith("AAA"):
        raise AssertionError("catalyst selection produced an AAA-ender")
    if not target.endswith("AAA"):
        raise AssertionError("catalyze target does not end in AAA")
    state._remove(target)
    state._add(target[:-1])
    state.free[_LETTER_INDEX["A"]] += 1


def _pick_letter(free: list[int], threshold: float) -> int:
    """Smallest letter index whose cumulative free count exceeds threshold,
    or 4 if none does."""
    acc = 0
    for i, n in enumerate(free):
        acc += n
        if acc > threshold:
            return i
    return 4


def _sample_extend(state: ReactorState, draw: Callable[[], float]) -> tuple[str, str]:
    # seeds: the four free pools, then every strand row after them
    free = state.free
    n_free = sum(free)
    while True:
        threshold = draw() * float(n_free + state._all[-1])
        si = _pick_letter(free, threshold)
        if si == 4:
            si += _fenwick_pick(state._all, n_free, threshold)
        li = _pick_letter(free, draw() * float(n_free))
        if si < 4:
            if si == li:
                # same-pool pair: thin free*free down to free*(free-1)
                if draw() >= (free[si] - 1) / free[si]:
                    continue
            return SOUP_LETTERS[si], SOUP_LETTERS[li]
        return state.seqs[si - 4], SOUP_LETTERS[li]


def step(state: ReactorState, gen: np.random.Generator) -> ReactorState:
    """One exact stochastic event (Gillespie direct method), in place.

    Draws each uniform with `gen.random()`: the same uniforms, in the same
    order, that `run_until` reads from its blocks.
    """
    _apply_peeked(state, _peek_next_time(state, gen.random))
    return state


_BLOCK = 512  # uniforms per `gen.random` call in run_until


@contextmanager
def _uniforms(gen: np.random.Generator) -> Iterator[Callable[[], float]]:
    """A zero-argument draw of gen's uniforms, read a block at a time.

    A block is drawn only when the previous one runs out.  On exit, by
    return or by exception, gen is put back to its state before the
    current block and advanced by the uniforms used from it, so it is left
    just after the last uniform drawn, as if each had been a scalar
    `gen.random()`.
    """
    bitgen = gen.bit_generator
    mark = [None, None]  # gen's state before the current block, and the block's unread rest

    def blocks():
        while True:
            mark[0] = bitgen.state
            mark[1] = rest = iter(gen.random(_BLOCK).tolist())
            yield rest

    try:
        yield chain.from_iterable(blocks()).__next__
    finally:
        if mark[0] is not None:
            bitgen.state = mark[0]
            gen.random(_BLOCK - operator.length_hint(mark[1]))


def run_until(
    state: ReactorState,
    horizon: float,
    gen: np.random.Generator,
    sample_times: Sequence[float] = (),
    on_sample=None,
) -> ReactorState:
    """Advance to `horizon`, reporting state at each requested sample time.

    on_sample(t, state) fires once per sample time, with the state as of
    that time (the state is piecewise constant between events).  Stops
    early if the reactor goes quiescent, still flushing sample times.
    Every event is audited in O(1); the full `recount` runs at each
    sample time and before returning.  Raises ValueError, before drawing
    anything, unless the horizon is finite and not before the reactor's
    current time and every sample time lies between that time and the
    horizon.

    The uniforms come from blocks of `gen.random`; on return, also by an
    exception, gen is left just after the last uniform used, so the same
    events follow from calling `step` on the same stream.  The event
    drawn past the horizon is discarded and its uniforms stay used: a run
    split into `run_until(1.0)` then `run_until(2.0)` follows the same
    law as one `run_until(2.0)` (waiting times are memoryless), but not
    the same trajectory.
    """
    if not (math.isfinite(horizon) and horizon >= state.time):
        raise ValueError(f"horizon must be finite and >= time {state.time!r}, got {horizon!r}")
    pending = sorted(sample_times)
    for t in pending:
        if not state.time <= t <= horizon:  # NaN fails too
            raise ValueError(
                f"sample times must lie in [time {state.time!r}, horizon {horizon!r}], got {t!r}"
            )
    pos = 0

    def sample(t: float) -> None:
        state.recount()
        if on_sample is not None:
            on_sample(t, state)

    with _uniforms(gen) as draw:
        while state.time < horizon:
            try:
                peeked = _peek_next_time(state, draw)
            except Quiescent:
                break
            next_time = peeked[0]
            while pos < len(pending) and pending[pos] < min(next_time, horizon):
                sample(pending[pos])
                pos += 1
            if next_time >= horizon:
                state.time = horizon
                break
            _apply_peeked(state, peeked)
    for t in pending[pos:]:
        sample(t)
    state.recount()
    return state


def _peek_next_time(state: ReactorState, draw: Callable[[], float]) -> tuple[float, str, tuple]:
    """The next event as (time, kind, args), drawn but not yet applied."""
    a_extend, a_detach, a_cat = state._channel_totals()
    a_total = a_extend + a_detach + a_cat
    if a_total <= 0.0:
        raise Quiescent("total propensity is zero")
    next_time = state.time + -math.log1p(-draw()) / a_total
    u = draw() * a_total
    if u < a_extend:
        return next_time, "extend", _sample_extend(state, draw)
    if u < a_extend + a_detach:
        row = _fenwick_pick(state._all, 0, draw() * float(state._all[-1]))
        return next_time, "detach", (state.seqs[row],)
    cat = state.seqs[_fenwick_pick(state._cat, 0, draw() * float(state._cat[-1]))]
    tgt = state.seqs[_fenwick_pick(state._aaa, 0, draw() * float(state._aaa[-1]))]
    return next_time, "catalyze", (cat, tgt)


def _apply_peeked(state: ReactorState, peeked: tuple[float, str, tuple]) -> None:
    state.time, kind, args = peeked
    if kind == "extend":
        _apply_extend(state, *args)
    elif kind == "detach":
        _apply_detach(state, *args)
    else:
        _apply_catalyze(state, *args)
    state.n_events += 1
    state.audit()


@dataclass(frozen=True)
class SoupConfig:
    """Catalysis experiment scenario: shared by treatment and control."""

    initial_free: tuple[tuple[str, int], ...] = (("A", 40), ("C", 40), ("G", 40), ("U", 40))
    initial_polymers: tuple[tuple[str, int], ...] = (("GAAG", 10), ("GGAAA", 40))
    k_on: float = 0.0005
    k_off: float = 0.05
    k_cat: float = 0.1
    motif: str = "GAAG"
    horizon: float = 10.0
    n_replicates: int = 30
    master_seed: int = 0

    def __post_init__(self):
        check_fields(self, {"n_replicates": 1})
        for name in ("initial_free", "initial_polymers"):
            pool = getattr(self, name)
            if not isinstance(pool, tuple) or any(
                not isinstance(p, tuple) or len(p) != 2 or not isinstance(p[0], str) for p in pool
            ):
                raise ConfigError("must be a tuple of (str, count) pairs", key=name)
        free = dict(self.initial_free)
        if len(free) != len(self.initial_free):
            raise ConfigError("a letter is listed twice", key="initial_free")
        if set(free) - set(SOUP_LETTERS):
            raise ConfigError(f"letters must be among {SOUP_LETTERS}", key="initial_free")
        if not all(_is_count(v) for v in free.values()):
            raise ConfigError("counts must be integers >= 0", key="initial_free")
        if len(dict(self.initial_polymers)) != len(self.initial_polymers):
            raise ConfigError("a polymer is listed twice", key="initial_polymers")
        for seq, n in self.initial_polymers:
            if len(seq) < 2 or not set(seq) <= set(SOUP_LETTERS):
                raise ConfigError(f"bad polymer {seq!r}", key="initial_polymers")
            if not _is_count(n):
                raise ConfigError("counts must be integers >= 0", key="initial_polymers")
        for name in ("k_on", "k_off", "k_cat"):
            k = getattr(self, name)
            if not (math.isfinite(k) and k >= 0):
                raise ConfigError("must be finite and >= 0", key=name)
        if not self.motif or not set(self.motif) <= set(SOUP_LETTERS):
            raise ConfigError(f"must be a non-empty string over {SOUP_LETTERS}", key="motif")
        if not (math.isfinite(self.horizon) and self.horizon > 0):
            raise ConfigError("must be finite and > 0", key="horizon")

    def build_state(self, k_cat: Optional[float] = None) -> ReactorState:
        return ReactorState(
            dict(self.initial_free),
            dict(self.initial_polymers),
            self.k_on,
            self.k_off,
            self.k_cat if k_cat is None else k_cat,
            CatalystRule(self.motif),
        )


@dataclass(frozen=True)
class ReplicateOutcome:
    replicate: int
    treatment_free_a: int
    control_free_a: int
    treatment_p_count: int
    control_p_count: int


@dataclass(frozen=True)
class CatalysisReport:
    config: SoupConfig
    outcomes: tuple[ReplicateOutcome, ...]
    treatment_wins: int
    control_wins: int
    ties: int
    p_value: float


def run_catalysis_experiment(config: SoupConfig) -> CatalysisReport:
    """Treatment (catalysis on) vs control (k_cat = 0) on shared seeds.

    Replicate i of both arms consumes an identical RNG stream derived
    from (master_seed, SOUP, i): with k_cat = 0 in both arms the traces
    are identical event for event.  The arm that ends with more free A
    wins the replicate.  Replicates run on the CPUs in the affinity mask
    (`rng.fan_out`) with the same output for any number of them; `taskset
    -c 0` runs them in one process.
    """
    def replicate(i: int) -> ReplicateOutcome:
        key = (config.master_seed, rng_mod.SOUP, i)
        treatment = config.build_state()
        run_until(treatment, config.horizon, rng_mod.stream(*key))
        control = config.build_state(k_cat=0.0)
        run_until(control, config.horizon, rng_mod.stream(*key))
        return ReplicateOutcome(i, treatment.free_of("A"), control.free_of("A"),
                                treatment.n_catalysts(), control.n_catalysts())

    outcomes = rng_mod.fan_out(replicate, config.n_replicates)
    scores = [(o.treatment_free_a, o.control_free_a) for o in outcomes]
    return CatalysisReport(config, tuple(outcomes), *rng_mod.sign_test(scores))
