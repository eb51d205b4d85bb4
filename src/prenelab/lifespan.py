"""Energy-allocation tree species: exact census tables and growth rates.

Each tree carries a fixed gene-number g in [0, 1]: the fraction of its
daily 2 energy units banked for survival, the rest going to reproduction.
The daily schedule (one canonical intra-day ordering, validated against
the 31-day two-species reference census in the tests) is:

    1. morning: births scheduled yesterday materialize with accounts
       (survival=3, reproduction=0) and participate fully today;
    2. collection: +g to survival, +(2-g) to reproduction;
    3. reproduction: while reproduction >= 3, withdraw 3 and schedule one
       birth for tomorrow morning;
    4. survival check: if survival < 1 the tree dies -- it is still
       counted in today's census and removed before tomorrow; otherwise
       withdraw 1;
    5. census recorded.

A birth scheduled in step 3 is honored even if the parent dies in step 4
the same day, so for some g < 1/2 the last birth materializes the morning
after the parent's death day.

Gene-numbers and accounts are exact rationals and census counts are exact
unbounded integers: no threshold comparison is ever decided by float
rounding.  Floating point appears only in the growth-rate estimate, and
exact integer signs then pick the double nearest the root.
The life table is in closed form: with g = p/q and every account scaled
by q, a mortal tree dies at age 3q // (q - p) and its k-th child
materializes at age ceil(3qk / (2q - p)), integer quotients that decide
each threshold exactly as the rational comparisons would.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

__all__ = [
    "TreeSpecies",
    "Tree",
    "LifeTable",
    "CohortState",
    "CensusTable",
    "IndividualRunResult",
    "GrowthRate",
    "SweepResult",
    "life_table",
    "simulate_census",
    "simulate_individuals",
    "growth_rate",
    "optimality_sweep",
]

# The daily schedule's accounts, in energy units.
NEWBORN_SURVIVAL = 3
DAILY_INCOME = 2
BIRTH_COST = 3
SUSTENANCE = 1


@dataclass(frozen=True)
class TreeSpecies:
    """A species is its gene-number: the survival share of daily energy."""

    gene_number: Fraction

    def __post_init__(self):
        if isinstance(self.gene_number, float):  # exact rationals only
            raise TypeError("gene_number must be exact (int, Fraction, or 'p/q' string), not float")
        g = Fraction(self.gene_number)
        if not 0 <= g <= 1:
            raise ValueError(f"gene_number must lie in [0, 1], got {g}")
        object.__setattr__(self, "gene_number", g)

    @property
    def label(self) -> str:
        return str(self.gene_number)


@dataclass
class Tree:
    """One tree with its two exact energy accounts."""

    species: TreeSpecies
    survival: Fraction
    reproduction: Fraction
    birth_day: int

    @classmethod
    def newborn(cls, species: TreeSpecies, birth_day: int) -> "Tree":
        return cls(species, Fraction(NEWBORN_SURVIVAL), Fraction(0), birth_day)


@dataclass(frozen=True)
class LifeTable:
    """Reproduction ages and death age implied by a gene-number.

    birth_ages are the ages (days since birth) at which one child
    materializes.  Mortal species have a finite tuple and an integer
    death_age; an immortal species has death_age None and an arithmetic
    tail (first_age, step) after the finite prefix.  Honoring posthumous
    births means a final birth age may equal death_age + 1.
    """

    birth_ages: tuple[int, ...]
    death_age: Optional[int]
    periodic: Optional[tuple[int, int]] = None

    def __post_init__(self):
        ages = self.birth_ages
        if any(a <= 0 for a in ages):
            raise ValueError("birth ages must be positive")
        if list(ages) != sorted(set(ages)):
            raise ValueError("birth ages must be strictly increasing")
        if self.death_age is None:
            if self.periodic is None:
                raise ValueError("immortal life table needs a periodic tail")
            first, step = self.periodic
            if step <= 0 or first <= 0:
                raise ValueError("periodic tail must have positive first age and step")
            if ages and ages[-1] >= first:
                raise ValueError("periodic tail must start after the finite prefix")
        else:
            if self.periodic is not None:
                raise ValueError("mortal life table cannot have a periodic tail")
            if any(a > self.death_age + 1 for a in ages):
                raise ValueError("birth ages may exceed death_age by at most 1 (posthumous)")


def life_table(species: TreeSpecies) -> LifeTable:
    """The life table of g = p/q in closed form, every account scaled by q.

    After the collection at age a, survival is 3q + (a+1)p - aq; the tree
    dies at the first age where that is below the sustenance q, which is
    death = 3q // (q - p), and never for g = 1.  Reproduction gains
    income = 2q - p a day, less than the birth cost 3q, so at most one
    birth is scheduled a day: the k-th on the first day that brings the
    account to k * cost, materializing the next morning at age
    ceil(k * cost / income).  Births scheduled up to the death day, the
    posthumous one included, are those with k <= (death + 1) * income // cost.
    For g = 1 the income is q, one unit a day: a birth every 3 days.
    """
    g = species.gene_number
    p, q = g.numerator, g.denominator
    if p == q:
        return LifeTable((), None, periodic=(BIRTH_COST, BIRTH_COST))
    income = DAILY_INCOME * q - p
    cost = BIRTH_COST * q
    death = NEWBORN_SURVIVAL * q // (SUSTENANCE * q - p)
    births = (death + 1) * income // cost
    return LifeTable(tuple(-(-k * cost // income) for k in range(1, births + 1)), death)


@dataclass
class CohortState:
    """Per-species birth bookkeeping for the cohort recurrence.

    births_by_day[d] counts trees materializing on day d; the state starts
    from the founder, a birth on day 0.  Each day's births follow from the
    life table: births(d) = sum over birth ages a of births(d - a), the
    discrete renewal equation.  Two running sums make a day O(1) big-int
    additions instead of a rescan:

    - the periodic tail (first, step) contributes
      T(d) = births(d - first) + T(d - step), kept per day;
    - the prefix sum P(k) is births(0) + ... + births(k - 1), so the census
      of day d, the births in [d - death_age, d], is
      P(d + 1) - P(max(0, d - death_age)), and P(d + 1) for an immortal
      species.

    births_by_day holds one count per day 0..current_day.
    """

    table: LifeTable
    births_by_day: list[int] = field(init=False, default_factory=lambda: [1])
    _prefix_births: list[int] = field(init=False, repr=False, default_factory=lambda: [0, 1])
    _tail_by_day: list[int] = field(init=False, repr=False, default_factory=lambda: [0])

    @property
    def current_day(self) -> int:
        return len(self.births_by_day) - 1

    def step(self) -> None:
        births = self.births_by_day
        d = len(births)
        total = sum(births[d - a] for a in self.table.birth_ages if a <= d)
        if self.table.periodic is not None:
            first, step = self.table.periodic
            tail = births[d - first] if d >= first else 0
            if d >= step:
                tail += self._tail_by_day[d - step]
            self._tail_by_day.append(tail)
            total += tail
        births.append(total)
        self._prefix_births.append(self._prefix_births[-1] + total)

    def census(self, day: int) -> int:
        if not 0 <= day <= self.current_day:
            raise ValueError(f"day {day} outside simulated range")
        prefix = self._prefix_births
        death_age = self.table.death_age
        if death_age is None or day <= death_age:
            return prefix[day + 1]
        return prefix[day + 1] - prefix[day - death_age]


@dataclass
class CensusTable:
    """Exact per-day, per-species alive counts."""

    species: tuple[TreeSpecies, ...]
    days: int
    counts: tuple[tuple[int, ...], ...]  # counts[species_index][day]

    def csv_rows(self) -> Iterator[tuple[int, str, int]]:
        for day in range(self.days + 1):
            for sp, series in zip(self.species, self.counts):
                yield day, sp.label, series[day]


def _refuse_repeats(species: Sequence[TreeSpecies]) -> None:
    """A gene number given twice, compared reduced (2/4 repeats 1/2), is a ValueError."""
    seen = set()  # (p, q) in lowest terms: a tuple hashes about 15x faster than a Fraction
    for sp in species:
        key = sp.gene_number.as_integer_ratio()
        if key in seen:
            raise ValueError(f"gene number {sp.gene_number} is given twice")
        seen.add(key)


def simulate_census(species_list: Sequence[TreeSpecies], days: int) -> CensusTable:
    """Cohort recurrence: one newborn founder per species, exact counts."""
    if days < 0:
        raise ValueError("days must be >= 0")
    _refuse_repeats(species_list)
    columns = []
    for sp in species_list:
        cohort = CohortState(life_table(sp))
        for _ in range(days):
            cohort.step()
        columns.append(tuple(cohort.census(d) for d in range(days + 1)))
    return CensusTable(tuple(species_list), days, tuple(columns))


@dataclass
class IndividualRunResult:
    census: CensusTable
    final_trees: list[Tree]
    cap_exceeded: bool


def simulate_individuals(
    species_list: Sequence[TreeSpecies],
    days: int,
    cap: Optional[int] = None,
) -> IndividualRunResult:
    """Tree-by-tree reference simulation (the oracle for simulate_census).

    Every tree's accounts are stepped individually through the daily
    schedule.  If the living population would exceed `cap`, the run stops
    with cap_exceeded set and the census truncated to the completed days --
    never silently.
    """
    if days < 0:
        raise ValueError("days must be >= 0")
    _refuse_repeats(species_list)
    trees: list[list[Tree]] = [[Tree.newborn(sp, 0)] for sp in species_list]
    pending: list[int] = [0 for _ in species_list]  # births for tomorrow
    columns: list[list[int]] = [[] for _ in species_list]
    cap_exceeded = False
    completed = -1

    for day in range(days + 1):
        if day > 0:
            for idx, sp in enumerate(species_list):
                trees[idx].extend(
                    Tree.newborn(sp, day) for _ in range(pending[idx])
                )
        if cap is not None and sum(len(t) for t in trees) > cap:
            cap_exceeded = True
            break
        for idx, sp in enumerate(species_list):
            g = sp.gene_number
            alive_after_today = []
            births_tomorrow = 0
            censused = 0
            for tree in trees[idx]:
                tree.survival += g
                tree.reproduction += DAILY_INCOME - g
                while tree.reproduction >= BIRTH_COST:
                    tree.reproduction -= BIRTH_COST
                    births_tomorrow += 1
                censused += 1  # dying trees are still counted today
                if tree.survival < 1:
                    continue
                tree.survival -= SUSTENANCE
                alive_after_today.append(tree)
            trees[idx] = alive_after_today
            pending[idx] = births_tomorrow
            columns[idx].append(censused)
        completed = day

    table = CensusTable(
        tuple(species_list),
        completed,
        tuple(tuple(col[: completed + 1]) for col in columns),
    )
    return IndividualRunResult(table, [t for group in trees for t in group], cap_exceeded)


@dataclass(frozen=True)
class GrowthRate:
    """Asymptotic per-day growth factor and the equation residual at it."""

    lambda_per_day: float
    residual: float


def _residual(table: LifeTable, lam: float) -> tuple[float, float]:
    """The Euler-Lotka residual, sum over birth ages a of lam**-a minus 1,
    and its derivative in lam, in floats; the periodic tail in closed form."""
    f, slope = -1.0, 0.0
    for a in table.birth_ages:
        term = lam**-a
        f += term
        slope -= a * term
    if table.periodic is not None:
        if lam <= 1.0:
            return math.inf, -math.inf
        first, step = table.periodic
        head, ratio = lam**-first, lam**-step
        f += head / (1.0 - ratio)
        slope -= (first * (1.0 - ratio) + step * ratio) * head / (1.0 - ratio) ** 2
    return f, slope / lam


def _newton_root(table: LifeTable) -> float:
    """Float estimate of the root: Newton's method from a point below it.

    The residual is convex and decreasing, so Newton steps from a point
    where it is positive climb to the root without passing it; they stop
    when a step no longer climbs.  The start is a lower bound by Jensen's
    inequality: the first j birth ages, summing to s, alone give
    sum lam**-a >= j * lam**(-s / j), which is 1 at lam = j**(j / s).
    """
    ages = list(table.birth_ages[:64])
    if table.periodic is not None:
        first, step = table.periodic
        ages += range(first, first + step * max(0, 64 - len(ages)), step)
    exponent, total = 0.0, 0
    for j, a in enumerate(ages, 1):
        total += a
        exponent = max(exponent, j * math.log(j) / total)
    lam = math.exp(exponent)
    for _ in range(100):
        f, slope = _residual(table, lam)
        climbed = lam - f / slope
        if not climbed > lam:
            break
        lam = climbed
    return lam


def _residual_sign(ages: tuple[int, ...], periodic: Optional[tuple[int, int]], num: int, exp: int) -> int:
    """Exact sign of the Euler-Lotka residual at the dyadic lam = num / 2**exp.

    With x = 2**exp / num, the birth ages up to k sum to an integer
    Horner polynomial over num**k, and the periodic tail
    x**first / (1 - x**step) is one exact fraction.  Ages past k add
    between 0 and x**(k + 1) / (1 - x), the geometric series of every
    age past k.  k starts where that bound is about 2**-58 and doubles
    until the bound cannot flip the sign (Ziv's strategy, ACM TOMS 1991);
    at the last birth age the residual is exact.
    """
    den = 1 << exp
    last = ages[-1] if ages else 0
    tail_num, tail_den = 0, 1
    if periodic is not None:
        if num <= den:
            return 1  # the periodic tail diverges at lam <= 1
        first, step = periodic
        tail_num = num**step << exp * first
        tail_den = num**first * (num**step - (1 << exp * step))
    k = last
    if num > den:
        lam = num / den
        bits = 58 * math.log(2.0) + math.log(lam / (lam - 1.0))
        k = min(last, max(1, math.ceil(bits / math.log(lam))))
    while True:
        acc, prev = 0, 0  # the ages a <= k sum to acc / num**k
        for a in ages:
            if a > k:
                break
            acc = acc * num ** (a - prev) + (1 << exp * a)
            prev = a
        scale = num**k
        acc *= num ** (k - prev)
        # the residual without the ages past k, times scale * tail_den
        head = acc * tail_den + scale * (tail_num - tail_den)
        if k >= last or head > 0:
            return (head > 0) - (head < 0)
        # plus the bound x**(k + 1) / (1 - x) = 2**(exp*(k + 1)) / (scale * (num - den))
        if head * (num - den) + (tail_den << exp * (k + 1)) < 0:
            return -1
        k = min(2 * k, last)


def _midpoint(x: float, y: float) -> tuple[int, int]:
    """(num, exp) with num / 2**exp exactly halfway between the doubles x and y."""
    (p, q), (r, s) = x.as_integer_ratio(), y.as_integer_ratio()
    den = max(q, s)  # a power of two, as q and s are
    return p * (den // q) + r * (den // s), den.bit_length()


def _nearest_root(table: LifeTable, lam: float) -> float:
    """The double nearest the root, walked to from the estimate lam.

    lam is nearest exactly when the residual, which falls as lam grows,
    is positive at the midpoint to the double below and negative at the
    midpoint to the double above; each sign is decided exactly.
    """
    key = (table.birth_ages, table.periodic)
    climbed = False
    while True:
        up = math.nextafter(lam, math.inf)
        if _residual_sign(*key, *_midpoint(lam, up)) <= 0:
            break
        lam, climbed = up, True
    while not climbed:
        down = math.nextafter(lam, 0.0)
        if _residual_sign(*key, *_midpoint(down, lam)) >= 0:
            break
        lam = down
    return lam


def growth_rate(table: LifeTable) -> GrowthRate:
    """The double nearest the root of  sum over birth ages a of lambda**(-a) = 1.

    This is the Euler-Lotka equation (Lotka 1939).  Its left side falls
    strictly as lambda grows, so it has one root; a float Newton estimate
    is moved to the nearest double by exact residual signs at the
    midpoints between doubles (see _residual_sign).  The residual
    reported is the float residual at the returned lambda.  An empty
    schedule has no root: the species dies out and lambda is reported
    as 0.
    """
    if not table.birth_ages and table.periodic is None:
        return GrowthRate(0.0, 0.0)
    if table.periodic is None and len(table.birth_ages) == 1:
        # Not a shortcut: the root is exactly 1.0, and _residual_sign at the
        # midpoint above it would divide by num / den - 1.0, which rounds to 0.
        return GrowthRate(1.0, 0.0)
    lam = _nearest_root(table, _newton_root(table))
    return GrowthRate(lam, _residual(table, lam)[0])


_TIE_BITS = 64  # roots that 64 halvings of an ulp do not separate are reported as tied


def _highest_roots(keys: list, lam: float) -> list:
    """The schedules with the largest root, among schedules whose roots
    all round to lam: bisect lam's rounding interval with exact residual
    signs until one schedule is left, or for _TIE_BITS halvings."""
    (lo, lo_exp), (hi, hi_exp) = (
        _midpoint(math.nextafter(lam, 0.0), lam), _midpoint(lam, math.nextafter(lam, math.inf))
    )
    exp = max(lo_exp, hi_exp)
    lo, hi = lo << exp - lo_exp, hi << exp - hi_exp
    for _ in range(_TIE_BITS):
        if len(keys) == 1:
            break
        mid, lo, hi, exp = lo + hi, 2 * lo, 2 * hi, exp + 1
        signs = [_residual_sign(*key, mid, exp) for key in keys]
        if max(signs) == 0:
            return [key for key, sign in zip(keys, signs) if sign == 0]
        if max(signs) > 0:
            keys = [key for key, sign in zip(keys, signs) if sign > 0]
            lo = mid
        else:
            hi = mid
    return keys


@dataclass
class SweepResult:
    rows: list[tuple[TreeSpecies, LifeTable, GrowthRate]]
    argmax: list[TreeSpecies]


def optimality_sweep(g_grid: Iterable) -> SweepResult:
    """lambda(g) over a grid, with exact tie reporting in the argmax set.

    lambda is piecewise constant in g (schedules only change at integer-day
    thresholds), so grid points sharing a schedule tie exactly; the rates
    are memoized per schedule to make those ties bit-identical.  Distinct
    schedules whose rates are the same double are ordered by their exact
    roots (_highest_roots).
    """
    species = [g if isinstance(g, TreeSpecies) else TreeSpecies(g) for g in g_grid]
    if not species:
        raise ValueError("empty sweep grid")
    _refuse_repeats(species)

    tables = [life_table(sp) for sp in species]

    rate_by_schedule: dict[tuple, GrowthRate] = {}
    rows = []
    for sp, table in zip(species, tables):
        key = (table.birth_ages, table.periodic)
        if key not in rate_by_schedule:
            rate_by_schedule[key] = growth_rate(table)
        rows.append((sp, table, rate_by_schedule[key]))

    best = max(r.lambda_per_day for r in rate_by_schedule.values())
    top = [key for key, r in rate_by_schedule.items() if r.lambda_per_day == best]
    if best > 0.0:
        top = _highest_roots(top, best)
    argmax = [sp for sp, table, _ in rows if (table.birth_ages, table.periodic) in top]
    return SweepResult(rows, argmax)
