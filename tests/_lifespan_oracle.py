"""Reference census and life-table walks: the straightforward versions.

`rescan_census` is the cohort recurrence as first written: each day's
births sum `births_by_day[d - a]` over every birth age up to d
(`ages_up_to`), the periodic tail included term by term, and each day's
census rescans every past cohort for the ones still inside the alive
window (`alive_at_age`).  O(days^2) on big integers, but obviously
right.

`fraction_life_table` walks one tree day by day in `Fraction`
arithmetic, with the accounts exactly as the model states them
(survival 3, income g and 2 - g, birth cost 3, sustenance 1).

`euler_lotka_residual` is the growth-rate equation's left side minus 1
in `Fraction` arithmetic, every birth age summed and the periodic tail
in closed form: the exact oracle for the rounding of growth rates.

All of them read only the public `LifeTable`/`TreeSpecies` API of the
module they check.  `census_row` and `lattice_period` are views that
only the tests read.
"""

from fractions import Fraction
from typing import Iterator

import math

from prenelab.lifespan import CensusTable, LifeTable, TreeSpecies


def census_row(census: CensusTable, day: int) -> tuple[int, ...]:
    """Every species' count on one day."""
    return tuple(column[day] for column in census.counts)


def lattice_period(table: LifeTable) -> int:
    """gcd of all birth ages: the census-ratio period of the schedule."""
    ages = list(table.birth_ages)
    if table.periodic is not None:
        first, step = table.periodic
        ages.extend([first, first + step])
    return math.gcd(*ages) if ages else 0


def ages_up_to(table: LifeTable, limit: int) -> Iterator[int]:
    """All birth ages <= limit, in increasing order, the periodic tail included."""
    for a in table.birth_ages:
        if a > limit:
            return
        yield a
    if table.periodic is not None:
        first, step = table.periodic
        a = first
        while a <= limit:
            yield a
            a += step


def alive_at_age(table: LifeTable, age: int) -> bool:
    """Census window: a tree is counted at ages 0 .. death_age inclusive."""
    if age < 0:
        return False
    return table.death_age is None or age <= table.death_age


def rescan_census(table: LifeTable, days: int) -> tuple[int, ...]:
    """Census of days 0..days from one founder born on day 0."""
    births = [1]
    for d in range(1, days + 1):
        births.append(sum(births[d - a] for a in ages_up_to(table, d) if d - a >= 0))
    return tuple(
        sum(n for born, n in enumerate(births[: day + 1]) if alive_at_age(table, day - born))
        for day in range(days + 1)
    )


def euler_lotka_residual(table: LifeTable, lam: Fraction) -> Fraction:
    """sum over birth ages a of lam**-a, minus 1, exactly, at a rational lam > 1."""
    x = 1 / lam
    total = sum(x**a for a in table.birth_ages)
    if table.periodic is not None:
        first, step = table.periodic
        total += x**first / (1 - x**step)
    return total - 1


def fraction_life_table(species: TreeSpecies) -> LifeTable:
    g = species.gene_number
    if g == 1:
        ages: list[int] = []
        seen: dict[Fraction, int] = {}
        reproduction = Fraction(0)
        day = 0
        while reproduction not in seen:
            seen[reproduction] = day
            reproduction += 2 - g
            births_today = 0
            while reproduction >= 3:
                reproduction -= 3
                births_today += 1
            if births_today:
                ages.append(day + 1)
            day += 1
        cycle_start = seen[reproduction]
        in_cycle = [a for a in ages if a - 1 >= cycle_start]
        assert len(in_cycle) == 1
        prefix = tuple(a for a in ages if a - 1 < cycle_start)
        return LifeTable(prefix, None, periodic=(in_cycle[0], day - cycle_start))

    ages = []
    survival = Fraction(3)
    reproduction = Fraction(0)
    age = 0
    while True:
        survival += g
        reproduction += 2 - g
        while reproduction >= 3:
            reproduction -= 3
            ages.append(age + 1)
        if survival < 1:
            return LifeTable(tuple(ages), age)
        survival -= 1
        age += 1
