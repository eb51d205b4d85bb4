"""Sequence replication with per-site error profiles and immune escape.

Genomes are strands over {A, C, G, U} with named regions (coat,
polymerase, ...).  Replication copies a strand site by site; each site
independently substitutes to one of the three other letters with a
per-site probability from a MutationProfile.  An immune system posts
"kill on sight" posters keyed to exact coat subsequences after a delay;
populations escape by mutating the coat faster than posters appear.

The daily population cycle is: replicate (each virion is replaced by R
mutated offspring), immune step (new posters for unseen coats, active
posters kill), capacity cull (uniform random).  As the immune system
reads nothing but the coat, a population holds and copies only its
coat's letters, driven by one per-run RNG stream.  A traced run also
draws where its body sites flip, from a second stream that only the
trace reads, so a (config, seed) pair fixes the full event trace and
tracing changes no outcome.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional, Sequence, TextIO

import numpy as np

from . import rng as rng_mod
from .config import ConfigError, check_fields, is_int
from .kernels import constant_runs, flip_sites, mutate_sites

__all__ = [
    "LETTERS",
    "Genome",
    "MutationProfile",
    "PopulationState",
    "ArmTrace",
    "Antibody",
    "EscapeConfig",
    "PairOutcome",
    "EscapeReport",
    "ProfileLengthMismatch",
    "MissingRegion",
    "RegionMapMismatch",
    "SpaceExhausted",
    "replicate",
    "replicate_batch",
    "mutant_fraction",
    "immune_step",
    "cull_to_capacity",
    "run_population_day",
    "run_escape_experiment",
    "vdj_generate",
    "happiness",
]

LETTERS = "ACGU"
_CODE_TO_ASCII = bytes.maketrans(bytes([0, 1, 2, 3]), LETTERS.encode())
_ASCII_TO_CODE = bytes.maketrans(LETTERS.encode(), bytes([0, 1, 2, 3]))


class ProfileLengthMismatch(ValueError):
    """Mutation profile length differs from genome length."""


class MissingRegion(KeyError):
    """A named region is absent from the genome's region map."""


class RegionMapMismatch(ValueError):
    """Two genomes that must share a region map do not."""


class SpaceExhausted(ValueError):
    """More distinct variable regions requested than the alphabet allows."""


def _index(value) -> int:
    """A count or bound as an int: NumPy integers pass; bools, and floats
    such as 2.0, raise the TypeError that `operator.index` raises for a float."""
    if not is_int(value):
        raise TypeError(f"{type(value).__name__!r} object cannot be interpreted as an integer")
    return operator.index(value)


def _codes_to_str(codes) -> str:
    return bytes(codes).translate(_CODE_TO_ASCII).decode("ascii")


def _str_to_codes(seq: str) -> np.ndarray:
    if not set(seq) <= set(LETTERS):
        raise ValueError(f"sequence letters must be drawn from {LETTERS}")
    return np.frombuffer(seq.encode("ascii").translate(_ASCII_TO_CODE), dtype=np.uint8).copy()


def _check_regions(regions: dict, length: int) -> dict:
    """Regions must sit inside the strand and be pairwise disjoint.

    Bounds are integers (NumPy integers too); a float bound raises
    TypeError rather than being truncated.
    """
    clean = {}
    for name, (start, stop) in sorted(regions.items()):
        start, stop = _index(start), _index(stop)
        if not (0 <= start < stop <= length):
            raise ValueError(f"region {name!r} [{start},{stop}) outside strand of length {length}")
        clean[name] = (start, stop)
    spans = sorted(clean.values())
    for (_, prev_stop), (next_start, _) in zip(spans, spans[1:]):
        if next_start < prev_stop:
            raise ValueError("regions must be pairwise disjoint")
    return clean


class Genome:
    """A strand of letter codes plus an immutable named-region map."""

    __slots__ = ("codes", "regions")

    def __init__(self, codes: np.ndarray, regions: Optional[dict] = None):
        codes = np.asarray(codes, dtype=np.uint8)
        if codes.ndim != 1:
            raise ValueError("a genome is a 1-d strand")
        if codes.size and codes.max() > 3:
            raise ValueError("letter codes must be 0..3")
        self.codes = codes
        self.regions = _check_regions(regions or {}, codes.size)

    @classmethod
    def from_string(cls, seq: str, regions: Optional[dict] = None) -> "Genome":
        return cls(_str_to_codes(seq), regions)

    @property
    def seq(self) -> str:
        return _codes_to_str(self.codes)

    def __len__(self) -> int:
        return self.codes.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Genome)
            and np.array_equal(self.codes, other.codes)
            and self.regions == other.regions
        )

    def __repr__(self) -> str:
        head = self.seq if len(self) <= 24 else self.seq[:21] + "..."
        return f"Genome({head!r}, regions={self.regions})"

    def region_slice(self, name: str) -> np.ndarray:
        if name not in self.regions:
            raise MissingRegion(name)
        start, stop = self.regions[name]
        return self.codes[start:stop]


class MutationProfile:
    """Per-site substitution probabilities, all in [0, 1).

    `site_prob` is read-only, and `runs` holds its constant-rate runs for
    the kernel, computed once here rather than on every replication.
    """

    __slots__ = ("site_prob", "kind", "runs", "_split")

    def __init__(self, site_prob: np.ndarray, kind: str = "custom"):
        p = np.array(site_prob, dtype=np.float64)  # a private copy, frozen below
        if p.ndim != 1:
            raise ValueError("site probabilities must be a 1-d vector")
        if not np.all((p >= 0.0) & (p < 1.0)):  # NaN fails both comparisons
            raise ValueError("site probabilities must lie in [0, 1)")
        p.flags.writeable = False  # keeps `runs` true to it
        self.site_prob = p
        self.kind = kind
        self.runs = constant_runs(p)
        self._split: dict = {}

    def split(self, start: int, stop: int) -> tuple[tuple, tuple]:
        """(coat, body): the runs of sites [start, stop), counted from
        `start`, and the runs of every other site; computed once per span."""
        if (start, stop) not in self._split:
            body = self.site_prob.copy()
            body[start:stop] = 0.0  # constant_runs drops zero-rate runs
            self._split[start, stop] = constant_runs(self.site_prob[start:stop]), constant_runs(body)
        return self._split[start, stop]

    def __len__(self) -> int:
        return self.site_prob.size

    @classmethod
    def uniform(cls, rate: float, length: int) -> "MutationProfile":
        return cls(np.full(length, float(rate)), kind="uniform")

    @classmethod
    def region_multiplier(
        cls, base: float, length: int, regions: dict, factors: dict
    ) -> "MutationProfile":
        """Base rate everywhere, multiplied inside named hot or cold regions."""
        regions = _check_regions(regions, length)
        p = np.full(length, float(base))
        for name, factor in factors.items():
            if name not in regions:
                raise MissingRegion(name)
            start, stop = regions[name]
            p[start:stop] *= float(factor)
        return cls(p, kind="region_multiplier")

    @classmethod
    def shells(cls, boundaries: Sequence[int], rates: Sequence[float], length: int) -> "MutationProfile":
        """Concentric tiers: sites [0,b0) are the core, then [b0,b1), ...

        Tier rates must be non-decreasing from core outward: the innermost
        shell is copied most faithfully, each shell outward tolerates more
        error.  Boundaries are integers; a float raises TypeError.
        """
        bounds = [_index(b) for b in boundaries]
        if list(bounds) != sorted(bounds) or (bounds and not 0 < bounds[0]):
            raise ValueError("shell boundaries must be positive and increasing")
        if bounds and bounds[-1] > length:
            raise ValueError("shell boundaries must not exceed the strand length")
        if len(rates) != len(bounds) + 1:
            raise ValueError("need exactly one rate per tier (boundaries + 1)")
        rr = [float(r) for r in rates]
        if any(b > a for a, b in zip(rr[1:], rr)):
            raise ValueError("tier rates must be non-decreasing from core to boundary")
        return cls(np.repeat(rr, np.diff([0, *bounds, length])), kind="shells")


def replicate(genome: Genome, profile: MutationProfile, gen: np.random.Generator) -> Genome:
    """One offspring strand; each site flips with its profile probability."""
    child = genome.codes.copy().reshape(1, -1)
    replicate_batch(child, profile, gen)
    return Genome(child[0], genome.regions)


def replicate_batch(
    parent_codes: np.ndarray, profile: MutationProfile, gen: np.random.Generator
):
    """Mutate a whole matrix of offspring strands in place.

    parent_codes has one row per offspring (already repeated per parent).
    Returns the kernel's flip report (rows, cols, old, new) in row-major
    order.  This is where the kernel's input is checked: a 2-d matrix as
    wide as the profile.
    """
    if parent_codes.ndim != 2:
        raise ValueError("parent_codes must be a 2-d matrix")
    _check_width(profile, parent_codes.shape[1])
    return mutate_sites(parent_codes, profile.runs, gen)


def _check_width(profile: MutationProfile, length: int) -> None:
    if length != len(profile):
        raise ProfileLengthMismatch(f"profile length {len(profile)} != strand length {length}")


def mutant_fraction(
    genome: Genome, profile: MutationProfile, n: int, gen: np.random.Generator
) -> float:
    """Fraction of n offspring carrying at least one substitution."""
    n = _index(n)
    if n <= 0:
        raise ValueError("n must be positive")
    batch = np.repeat(genome.codes.reshape(1, -1), n, axis=0)
    rows, _, _, _ = replicate_batch(batch, profile, gen)
    return np.unique(rows).size / n


class ArmTrace(NamedTuple):
    """A traced arm: the text stream's `write`, the arm's profile name, and
    the generator of its births' flip sites outside the coat.  Each event
    goes to `write` as the line that `json.dumps` writes with sorted keys
    and compact separators, with `"pair":0` and `"profile"` among its keys."""

    write: Callable[[str], object]
    profile: str
    body: np.random.Generator


class PopulationState:
    """A day-indexed virion population with its immune poster board.

    Virions live in parallel arrays so the mutation kernel can run on
    the whole population at once.  As no outcome reads the body, a
    virion's `codes` row holds only its coat: sites `coat_span` of a
    genome `length` sites long.  Each virion carries the id of its coat
    in `coat`, or -1 while its coat is not yet interned.
    `coat_ids` interns each postered coat (its letter codes as bytes) to
    an id, issued in posting order; `posters[id]` is that coat's
    activation day.  Every coat seen by `immune_step` is postered, so
    `len(posters) == len(coat_ids)`, and since every poster activates a
    fixed `immune_delay` after the day it is posted, `posters` never
    decreases.  Code that writes `codes` directly must set `coat` of the
    rows it wrote to -1.

    A state given an `ArmTrace` as `trace` is traced: it numbers its
    virions, in `ids` and `next_id`, and each of the day's steps writes
    its own events as JSON lines to `trace.write`.
    """

    def __init__(
        self,
        founder: Genome,
        n_founders: int,
        capacity: int,
        gen: np.random.Generator,
        immune_delay: int,
        kill_probability: float,
        trace: Optional[ArmTrace] = None,
    ):
        capacity = _index(capacity)
        n_founders = _index(n_founders)
        immune_delay = _index(immune_delay)
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if n_founders < 1:
            raise ValueError("need at least one founder")
        if immune_delay < 0:
            raise ValueError("immune delay must be >= 0")
        if not 0.0 <= kill_probability <= 1.0:
            raise ValueError("kill probability must lie in [0, 1]")
        coat = founder.region_slice("coat")  # raises MissingRegion early
        self.coat_span = founder.regions["coat"]
        self.length = len(founder)
        self.codes = np.repeat(coat.reshape(1, -1), n_founders, axis=0)
        self.coat = np.full(n_founders, -1, dtype=np.int64)
        self.day = 0
        self.capacity = capacity
        self.gen = gen
        self.immune_delay = immune_delay
        self.kill_probability = kill_probability
        self.coat_ids: dict[bytes, int] = {}  # coat letter codes -> coat id
        self.posters: list[int] = []  # coat id -> activation day
        self.trace = trace
        if trace is not None:
            self.ids = np.arange(n_founders, dtype=np.int64)
            self.next_id = n_founders
        self.peak_population = n_founders

    @property
    def population(self) -> int:
        return self.codes.shape[0]

    def _keep(self, keep: np.ndarray) -> None:
        """Keep only the virions at the sorted index array `keep`.  Callers
        pass indices, not a mask that every parallel array would scan again,
        and `take` copies the rows of `codes` for less than `codes[keep]`."""
        self.codes = self.codes.take(keep, axis=0)
        self.coat = self.coat[keep]
        if self.trace is not None:
            self.ids = self.ids[keep]


def replicate_population(state: PopulationState, profile: MutationProfile, offspring_per_virion: int) -> None:
    """Generational replacement: every virion is replaced by R offspring.

    Only the coat is copied: the kernel runs the profile's runs inside
    `coat_span` on the state's stream `gen`.  A child inherits its
    parent's coat id unless the kernel flipped one of its sites; such a
    child's coat is left for `immune_step` to intern.  A traced birth
    lists its flipped sites, in the genome's numbering: its coat flips
    and its body flips, whose positions `trace.body` draws as the kernel
    draws positions, run by run over the body runs, with no letters (no
    outcome reads them).  The day's birth lines go out in one write.
    `run_population_day` checks the count.
    """
    coat_runs, body_runs = profile.split(*state.coat_span)
    batch = state.codes.repeat(offspring_per_virion, axis=0)
    rows, cols, _, _ = mutate_sites(batch, coat_runs, state.gen)
    coat = state.coat.repeat(offspring_per_virion)
    coat[rows] = -1
    trace = state.trace
    if trace is not None:
        coat_sites = rows * state.length + cols + state.coat_span[0]
        body = flip_sites(len(batch), state.length, body_runs, trace.body)
        sites = np.concatenate([coat_sites, body])
        sites.sort()
        rows, cols = np.divmod(sites, state.length)
        flipped = [""] * len(batch)  # each child's flipped sites, each after a comma
        for r, c in zip(rows.tolist(), cols.tolist()):
            flipped[r] += f",{c}"
        parents = np.repeat(state.ids, offspring_per_virion).tolist()
        state.ids = np.arange(state.next_id, state.next_id + len(batch), dtype=np.int64)
        state.next_id += len(batch)
        head, tail = f'{{"day":{state.day},"id":', f',"profile":"{trace.profile}","sites":['
        trace.write("".join(f'{head}{child},"kind":"birth","pair":0,"parent":{parent}{tail}{sites[1:]}]}}\n'
                            for child, parent, sites in zip(state.ids.tolist(), parents, flipped)))
    state.codes = batch
    state.coat = coat


def immune_step(state: PopulationState) -> PopulationState:
    """Post unseen coats, then let every active poster take its shots.

    Coats not yet interned (`coat` -1) are looked up in `coat_ids`, in
    population order; each coat never seen before gets the next id and a
    poster active from `day + immune_delay` on, so posters come out in
    first-seen order.  A virion is killable only by the poster of its
    own coat; poster creation this day precedes kills, so with zero
    delay a poster can fire the day it appears.  As `posters` never
    decreases, the active posters are the ids below
    `bisect_right(posters, day)`.  Raises ValueError if `day` went back
    below that of an earlier poster.  No step exits early: with no
    virion shot, `gen.random(0)` reads no bits, and with none killed,
    every row is kept in order and no kill line is written.

    RNG use: interning and posting draw nothing; one uniform per virion
    whose poster is active (kill probability 0 included), drawn as one
    batch in population order; the virion dies when its uniform is below
    the run's kill probability.  Nothing is drawn when no poster is
    active.
    """
    if state.coat.shape != (state.population,):
        raise ValueError("coat must hold one id per virion")
    day = state.day
    posters = state.posters
    trace = state.trace
    unknown = (state.coat < 0).nonzero()[0]
    if unknown.size:
        activation = day + state.immune_delay
        if posters and activation < posters[-1]:
            raise ValueError(f"day {day} is before the day of an earlier poster")
        block = state.codes.take(unknown, axis=0)  # a C-contiguous copy
        coats = block.view(f"V{block.shape[1]}").ravel().tolist()  # one bytes per row
        interned = state.coat_ids
        issued = len(interned)
        setdefault = interned.setdefault
        found = [setdefault(coat, len(interned)) for coat in coats]  # new coat: next id
        posters.extend([activation] * (len(interned) - issued))
        state.coat[unknown] = found
        if trace is not None:  # the coats interned after `issued`, in id order
            head = (f'{{"activation":{activation},"day":{day},"kind":"poster","pair":0,'
                    f'"profile":"{trace.profile}","signature":"')
            trace.write("".join(f'{head}{_codes_to_str(coat)}"}}\n' for coat in list(interned)[issued:]))
    shot = (state.coat < bisect_right(posters, day)).nonzero()[0]
    dead = shot[state.gen.random(shot.size) < state.kill_probability]
    keep = np.ones(state.population, dtype=bool)
    keep[dead] = False
    if trace is not None:
        tail = f',"kind":"kill","pair":0,"profile":"{trace.profile}","signature":"'
        trace.write("".join(f'{{"day":{day},"id":{i}{tail}{_codes_to_str(coat)}"}}\n'
                            for i, coat in zip(state.ids[dead].tolist(), state.codes[dead])))
    state._keep(keep.nonzero()[0])
    return state


def cull_to_capacity(state: PopulationState) -> None:
    """Uniform random bottleneck down to carrying capacity.

    RNG use: one `gen.choice(n, capacity, replace=False)` call when the
    population n exceeds capacity, nothing otherwise.
    """
    n = state.population
    if n <= state.capacity:
        return
    keep = state.gen.choice(n, size=state.capacity, replace=False)
    keep.sort()
    trace = state.trace
    if trace is not None:
        removed = ",".join(map(str, np.delete(state.ids, keep).tolist()))
        trace.write(f'{{"day":{state.day},"kind":"cull","pair":0,"profile":"{trace.profile}",'
                    f'"removed":[{removed}]}}\n')
    state._keep(keep)


def run_population_day(
    state: PopulationState, profile: MutationProfile, offspring_per_virion: int
) -> None:
    """One full day: replicate, immune step, capacity cull.  The offspring
    count and the profile's width are checked before the day moves or
    anything is drawn, also for an empty population."""
    offspring_per_virion = _index(offspring_per_virion)
    if offspring_per_virion < 1:
        raise ValueError("offspring_per_virion must be >= 1")
    _check_width(profile, state.length)
    state.day += 1
    replicate_population(state, profile, offspring_per_virion)
    immune_step(state)
    cull_to_capacity(state)
    state.peak_population = max(state.peak_population, state.population)


@dataclass(frozen=True)
class EscapeConfig:
    """Paired hot-coat vs high-fidelity escape experiment parameters."""

    genome_length: int = 300
    coat_span: tuple[int, int] = (0, 60)
    base_rate: float = 1.0 / 2000.0
    hot_factor: float = 10.0
    fidelity_rate: float = 1e-9
    offspring_per_virion: int = 2
    capacity: int = 150
    immune_delay: int = 3
    kill_probability: float = 0.75
    horizon: int = 40
    n_founders: int = 10
    n_pairs: int = 100
    master_seed: int = 0

    def __post_init__(self):
        check_fields(self, {"genome_length": 1, "offspring_per_virion": 1, "capacity": 1,
                            "immune_delay": 0, "horizon": 1, "n_founders": 1, "n_pairs": 1})
        if not (isinstance(self.coat_span, tuple) and len(self.coat_span) == 2):
            raise ConfigError("must be a (start, stop) pair", key="coat_span")
        if not all(map(is_int, self.coat_span)):
            raise ConfigError("bounds must be integers", key="coat_span")
        lo, hi = self.coat_span
        if not (0 <= lo < hi <= self.genome_length):
            raise ConfigError("must be a non-empty interval inside the genome", key="coat_span")
        if not 0.0 <= self.base_rate < 1.0:
            raise ConfigError("must lie in [0, 1)", key="base_rate")
        hot_rate = self.base_rate * self.hot_factor
        if not (math.isfinite(self.hot_factor) and self.hot_factor >= 0 and hot_rate < 1.0):
            raise ConfigError("hot-region rate must stay in [0, 1)", key="hot_factor")
        if not 0.0 <= self.fidelity_rate < 1.0:
            raise ConfigError("must lie in [0, 1)", key="fidelity_rate")
        if not 0.0 <= self.kill_probability <= 1.0:
            raise ConfigError("must lie in [0, 1]", key="kill_probability")

    def founder(self) -> Genome:
        return Genome(
            np.zeros(self.genome_length, dtype=np.uint8),
            {"coat": self.coat_span},
        )

    def hot_profile(self) -> MutationProfile:
        return MutationProfile.region_multiplier(
            self.base_rate,
            self.genome_length,
            {"coat": self.coat_span},
            {"coat": self.hot_factor},
        )

    def fidelity_profile(self) -> MutationProfile:
        return MutationProfile.uniform(self.fidelity_rate, self.genome_length)


@dataclass(frozen=True)
class PairOutcome:
    pair_index: int
    hot_extinction_day: Optional[int]
    fidelity_extinction_day: Optional[int]
    hot_peak: int
    fidelity_peak: int


@dataclass(frozen=True)
class EscapeReport:
    config: EscapeConfig
    outcomes: tuple[PairOutcome, ...]
    hot_wins: int
    fidelity_wins: int
    ties: int
    p_value: float


def _run_arm(
    config: EscapeConfig, profile: MutationProfile, gen: np.random.Generator,
    trace: Optional[ArmTrace] = None,
) -> PopulationState:
    state = PopulationState(
        config.founder(), config.n_founders, config.capacity, gen,
        immune_delay=config.immune_delay, kill_probability=config.kill_probability,
        trace=trace,
    )
    for _ in range(config.horizon):
        run_population_day(state, profile, config.offspring_per_virion)
        if state.population == 0:
            break
    return state


def run_escape_experiment(config: EscapeConfig, trace: Optional[TextIO] = None) -> EscapeReport:
    """Paired comparison: hot-coat mutator vs high-fidelity copier.

    Both arms of pair i consume the one stream of (master_seed,
    REPLICATOR, i), so differences are attributable to the profile.  An
    arm survives until its extinction day, or horizon + 1 if it outlives
    the horizon; the longer survivor wins the pair.  With a text stream
    `trace`, pair 0 is traced as it runs: its hot arm's events, then its
    fidelity arm's, one JSON line each, which each step of a day writes
    as it runs, so no arm's events are held in memory.  Its
    births' body sites come from (master_seed, REPLICATOR, 0, BODY), a
    stream no untraced arm opens, so the trace changes no outcome.  Pairs
    run on the CPUs in the affinity mask (`rng.fan_out`) with the same
    output for any number of them; `taskset -c 0` runs them in one process.
    """
    hot_profile = config.hot_profile()
    fid_profile = config.fidelity_profile()

    def arm(i: int, name: str, profile: MutationProfile) -> PopulationState:
        key = (config.master_seed, rng_mod.REPLICATOR, i)
        traced = trace is not None and i == 0
        arm_trace = ArmTrace(trace.write, name, rng_mod.stream(*key, rng_mod.BODY)) if traced else None
        return _run_arm(config, profile, rng_mod.stream(*key), arm_trace)

    def pair(i: int) -> PairOutcome:
        hot, fid = arm(i, "hot", hot_profile), arm(i, "fidelity", fid_profile)
        return PairOutcome(i, None if hot.population > 0 else hot.day,
                           None if fid.population > 0 else fid.day,
                           hot.peak_population, fid.peak_population)

    outcomes = rng_mod.fan_out(pair, config.n_pairs)

    def survival(day: Optional[int]) -> int:
        return config.horizon + 1 if day is None else day

    scores = [(survival(o.hot_extinction_day), survival(o.fidelity_extinction_day))
              for o in outcomes]
    return EscapeReport(config, tuple(outcomes), *rng_mod.sign_test(scores))


@dataclass(frozen=True)
class Antibody:
    """One antibody: a generated variable region on a shared constant region."""

    variable: str
    constant: str

    @property
    def seq(self) -> str:
        return self.variable + self.constant


def vdj_generate(
    constant_region: str,
    n: int,
    gen: np.random.Generator,
    variable_length: int = 8,
) -> list[Antibody]:
    """n antibodies with pairwise distinct variable regions.

    The variable space holds 4**variable_length sequences; asking for more
    raises SpaceExhausted.  One draw without replacement picks the codes,
    so variable_length is capped at 31 to keep the space in int64.
    """
    _str_to_codes(constant_region)  # validates the alphabet
    n = _index(n)
    variable_length = _index(variable_length)
    if n < 0:
        raise ValueError("n must be >= 0")
    if not 1 <= variable_length <= 31:
        raise ValueError("variable_length must lie in [1, 31]")
    space = 4**variable_length
    if n > space:
        raise SpaceExhausted(
            f"{n} distinct variable regions requested from a space of {space}"
        )
    return [
        Antibody(_codes_to_str([(x >> (2 * k)) & 3 for k in range(variable_length)]), constant_region)
        for x in gen.choice(space, n, replace=False).tolist()
    ]


def happiness(parent: Genome, offspring: Sequence[Genome]) -> dict[str, int]:
    """Per-region count of offspring whose region copies the parent exactly.

    A region is happy in an offspring when the copy left its subsequence
    untouched, raising that subsequence's copy number by one.
    """
    counts = {name: 0 for name in parent.regions}
    for child in offspring:
        if child.regions != parent.regions:
            raise RegionMapMismatch(
                f"offspring regions {child.regions} != parent regions {parent.regions}"
            )
        for name, (start, stop) in parent.regions.items():
            if np.array_equal(child.codes[start:stop], parent.codes[start:stop]):
                counts[name] += 1
    return counts
