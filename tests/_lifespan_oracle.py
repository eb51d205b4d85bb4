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

All of them read only the public `LifeTable`/`TreeSpecies` API of the
module they check.
"""

from fractions import Fraction
from typing import Iterator

from prenelab.lifespan import LifeTable, TreeSpecies


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
