"""Exact-census, life-table, and growth-rate tests.

The 31-day two-species census literal below is the reference table this
model must reproduce row for row; it was transcribed once and is frozen.
Growth rates are checked against an independent polynomial-root oracle,
not against the bisection under test.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from _hypothesis import given, settings, st

from _lifespan_oracle import (
    alive_at_age,
    ages_up_to,
    census_row,
    euler_lotka_residual,
    fraction_life_table,
    lattice_period,
    rescan_census,
)
from prenelab.lifespan import (
    CohortState,
    GrowthRate,
    LifeTable,
    Tree,
    TreeSpecies,
    _highest_roots,
    growth_rate,
    life_table,
    optimality_sweep,
    simulate_census,
    simulate_individuals,
)

# day: (g=1 count, g=1/2 count)
REFERENCE_CENSUS = {
    0: (1, 1), 1: (1, 1), 2: (1, 2), 3: (2, 2), 4: (2, 4), 5: (2, 4),
    6: (4, 8), 7: (4, 7), 8: (4, 14), 9: (8, 13), 10: (8, 26), 11: (8, 24),
    12: (16, 48), 13: (16, 44), 14: (16, 88), 15: (32, 81), 16: (32, 162),
    17: (32, 149), 18: (64, 298), 19: (64, 274), 20: (64, 548),
    21: (128, 504), 22: (128, 1008), 23: (128, 927), 24: (256, 1854),
    25: (256, 1705), 26: (256, 3410), 27: (512, 3136), 28: (512, 6272),
    29: (512, 5768), 30: (1024, 11536),
}

G1 = TreeSpecies(Fraction(1))
GHALF = TreeSpecies(Fraction(1, 2))


def _tribonacci_lambda() -> float:
    """Independent oracle: lambda(1/2) solves x^-2 + x^-4 + x^-6 = 1,
    so y = x^2 is the tribonacci root of y^3 = y^2 + y + 1."""
    roots = np.roots([1, -1, -1, -1])
    y = max(r.real for r in roots if abs(r.imag) < 1e-9)
    return float(np.sqrt(y))


class TestSpecies:
    def test_rejects_float_gene_number(self):
        with pytest.raises(TypeError):
            TreeSpecies(0.5)

    @pytest.mark.parametrize("g", [Fraction(-1, 10), Fraction(11, 10)])
    def test_rejects_out_of_range(self, g):
        with pytest.raises(ValueError):
            TreeSpecies(g)

    def test_accepts_string_and_int(self):
        assert TreeSpecies(Fraction("2/5")).gene_number == Fraction(2, 5)
        assert TreeSpecies(1).gene_number == 1

    def test_newborn_accounts(self):
        t = Tree.newborn(GHALF, 4)
        assert t.survival == 3 and t.reproduction == 0 and t.birth_day == 4


class TestLifeTable:
    @pytest.mark.parametrize(
        "g, ages, death",
        [
            (Fraction(0), (2, 3), 3),
            (Fraction(1, 10), (2, 4), 3),   # age-4 birth is posthumous
            (Fraction(1, 4), (2, 4), 4),
            (Fraction(3, 10), (2, 4), 4),
            (Fraction(2, 5), (2, 4, 6), 5),  # age-6 birth is posthumous
            (Fraction(9, 20), (2, 4, 6), 5),
            (Fraction(1, 2), (2, 4, 6), 6),
            (Fraction(11, 20), (3, 5, 7), 6),
            (Fraction(3, 5), (3, 5, 7), 7),
        ],
    )
    def test_mortal_tables(self, g, ages, death):
        t = life_table(TreeSpecies(g))
        assert t.birth_ages == ages
        assert t.death_age == death

    def test_full_saver_is_immortal_and_periodic(self):
        t = life_table(G1)
        assert t.death_age is None
        assert t.birth_ages == ()
        assert t.periodic == (3, 3)
        assert list(ages_up_to(t, 12)) == [3, 6, 9, 12]

    def test_only_full_saver_is_immortal_on_fine_grid(self):
        for k in range(100):
            assert life_table(TreeSpecies(Fraction(k, 100))).death_age is not None
        assert life_table(TreeSpecies(Fraction(100, 100))).death_age is None

    def test_alive_window_includes_death_day(self):
        t = life_table(GHALF)
        assert alive_at_age(t, 6) and not alive_at_age(t, 7)
        assert not alive_at_age(t, -1)

    def test_lattice_periods(self):
        assert lattice_period(life_table(GHALF)) == 2
        assert lattice_period(life_table(TreeSpecies(Fraction(0)))) == 1
        assert lattice_period(life_table(G1)) == 3

    def test_validation(self):
        with pytest.raises(ValueError):
            LifeTable((3, 2), 5)
        with pytest.raises(ValueError):
            LifeTable((2, 8), 5)  # more than one day past death
        with pytest.raises(ValueError):
            LifeTable((2,), None)  # immortal needs a tail
        with pytest.raises(ValueError):
            LifeTable((2,), 5, periodic=(4, 3))  # mortal cannot have one
        LifeTable((2, 6), 5)  # posthumous age death+1 is allowed

    @pytest.mark.parametrize("ages, death, periodic, message", [
        ((0, 2), 5, None, "birth ages must be positive"),
        ((), None, (0, 3), "periodic tail must have positive first age and step"),
        ((), None, (3, 0), "periodic tail must have positive first age and step"),
        ((2, 5), None, (4, 3), "periodic tail must start after the finite prefix"),
    ])
    def test_each_refusal_names_its_rule(self, ages, death, periodic, message):
        with pytest.raises(ValueError, match=message):
            LifeTable(ages, death, periodic)


class TestCensus:
    def test_individuals_refuse_negative_days(self):
        with pytest.raises(ValueError, match="days must be >= 0"):
            simulate_individuals([GHALF], -1)

    def test_reference_table_exactly(self):
        table = simulate_census([G1, GHALF], 30)
        for day, row in REFERENCE_CENSUS.items():
            assert census_row(table, day) == row, f"day {day}"

    def test_immortal_doubles_every_three_days(self):
        series = simulate_census([G1], 100).counts[0]
        for day in range(101):
            assert series[day] == 2 ** (day // 3)
        assert series[100] == 2**33

    def test_individuals_match_reference_table(self):
        res = simulate_individuals([G1, GHALF], 30)
        assert not res.cap_exceeded
        for day, row in REFERENCE_CENSUS.items():
            assert census_row(res.census, day) == row

    def test_dying_tree_counted_on_death_day(self):
        # founder at g=1/2 dies on day 6: counted in 8, gone from 7
        series = simulate_census([GHALF], 7).counts[0]
        assert series[6] == 8 and series[7] == 7

    def test_population_cap_stops_run(self):
        res = simulate_individuals([GHALF], 30, cap=100)
        assert res.cap_exceeded
        assert res.census.days < 30
        full = simulate_census([GHALF], res.census.days)
        assert res.census.counts == full.counts

    def test_csv_rows_cover_grid(self):
        table = simulate_census([G1, GHALF], 3)
        rows = list(table.csv_rows())
        assert len(rows) == 8
        assert rows[0] == (0, "1", 1)
        assert rows[1] == (0, "1/2", 1)

    def test_negative_days_rejected(self):
        with pytest.raises(ValueError):
            simulate_census([G1], -1)

    @pytest.mark.parametrize("second", [Fraction(1, 2), Fraction(2, 4), "3/6"])
    def test_repeated_gene_number_rejected(self, second):
        for simulate in (simulate_census, simulate_individuals):
            with pytest.raises(ValueError, match=r"^gene number 1/2 is given twice$"):
                simulate([GHALF, G1, TreeSpecies(second)], 3)

    def test_cohort_census_range_check(self):
        c = CohortState(life_table(GHALF))
        with pytest.raises(ValueError):
            c.census(1)


@st.composite
def rational_gene(draw):
    den = draw(st.integers(min_value=1, max_value=24))
    num = draw(st.integers(min_value=0, max_value=den))
    return Fraction(num, den)


class TestCohortAgainstIndividuals:
    @settings(max_examples=60, deadline=None)
    @given(g=rational_gene(), days=st.integers(min_value=0, max_value=22))
    def test_exact_agreement(self, g, days):
        sp = TreeSpecies(g)
        fast = simulate_census([sp], days)
        slow = simulate_individuals([sp], days)
        assert not slow.cap_exceeded
        assert fast.counts == slow.census.counts

    def test_posthumous_birth_agreement(self):
        # g=1/10: parent dies day 3, its second child appears day 4
        sp = TreeSpecies(Fraction(1, 10))
        fast = simulate_census([sp], 12).counts[0]
        slow = simulate_individuals([sp], 12).census.counts[0]
        assert fast == slow
        assert fast[4] > fast[3] - 1  # the day-4 birth really lands

    @settings(max_examples=30, deadline=None)
    @given(g=rational_gene())
    def test_accounts_stay_exact_rationals(self, g):
        res = simulate_individuals([TreeSpecies(g)], 10)
        for tree in res.final_trees:
            assert isinstance(tree.survival, Fraction)
            assert isinstance(tree.reproduction, Fraction)
            assert 0 <= tree.reproduction < 3


class TestAgainstReferenceWalks:
    """The running-sum census and the integer life table against the
    straightforward rescan and Fraction walk in _lifespan_oracle."""

    @settings(max_examples=60, deadline=None)
    @given(g=rational_gene(), days=st.integers(min_value=0, max_value=200))
    def test_census_matches_rescan_and_individuals(self, g, days):
        sp = TreeSpecies(g)
        fast = simulate_census([sp], days).counts[0]
        assert fast == rescan_census(fraction_life_table(sp), days)
        slow = simulate_individuals([sp], days, cap=1000)
        assert slow.census.counts[0] == fast[: slow.census.days + 1]

    def test_census_matches_rescan_on_default_pair(self):
        table = simulate_census([G1, GHALF], 400)
        for index, sp in enumerate((G1, GHALF)):
            assert table.counts[index] == rescan_census(fraction_life_table(sp), 400)

    def test_life_table_matches_fraction_walk_on_sweep_grid(self):
        for i in range(4001):
            sp = TreeSpecies(Fraction(i, 4000))
            assert life_table(sp) == fraction_life_table(sp), sp.label

    def test_life_table_matches_fraction_walk_on_small_denominators(self):
        # Every reduced k/n with n <= 100 holds the closed forms' exact-division
        # edges: death at an integer 3q / (q - p), a birth on the day the account
        # reaches the cost exactly, and a posthumous birth.  No g makes
        # (death + 1) * income a multiple of the cost: that needs q to divide
        # death + 1, which holds only at g = 0, where 4 * 2 is no multiple of 3.
        edges = {"exact death": 0, "exact birth": 0, "posthumous": 0}
        for g in {Fraction(k, n) for n in range(1, 101) for k in range(n + 1)}:
            sp = TreeSpecies(g)
            table = fraction_life_table(sp)
            assert life_table(sp) == table, sp.label
            if g < 1:
                p, q = g.numerator, g.denominator
                edges["exact death"] += 3 * q % (q - p) == 0
                edges["exact birth"] += any(a * (2 * q - p) % (3 * q) == 0 for a in table.birth_ages)
                edges["posthumous"] += table.birth_ages[-1:] == (table.death_age + 1,)
        assert min(edges.values()) > 0, edges

    @settings(max_examples=200, deadline=None)
    @given(g=st.fractions(min_value=0, max_value=1, max_denominator=1000))
    def test_life_table_matches_fraction_walk(self, g):
        sp = TreeSpecies(g)
        assert life_table(sp) == fraction_life_table(sp)


class TestGrowthRate:
    def test_full_saver_rate_is_cube_root_of_two(self):
        r = growth_rate(life_table(G1))
        assert r.lambda_per_day == pytest.approx(2 ** (1 / 3), abs=1e-14)
        assert abs(r.residual) <= 1e-12

    def test_half_saver_matches_polynomial_oracle(self):
        r = growth_rate(life_table(GHALF))
        assert r.lambda_per_day == pytest.approx(_tribonacci_lambda(), abs=1e-13)
        # frozen from the oracle above
        assert r.lambda_per_day == pytest.approx(1.356203065626295, abs=1e-12)
        assert abs(r.residual) <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(g=rational_gene())
    def test_residual_bound_everywhere(self, g):
        r = growth_rate(life_table(TreeSpecies(g)))
        assert abs(r.residual) <= 1e-12

    def test_empty_schedule_reports_zero(self):
        assert growth_rate(LifeTable((), 1)) == GrowthRate(0.0, 0.0)

    def test_single_birth_is_replacement(self):
        r = growth_rate(LifeTable((4,), 5))
        assert r.lambda_per_day == 1.0 and r.residual == 0.0

    def test_rate_consistent_with_long_run_census_ratio(self):
        series = simulate_census([GHALF], 80).counts[0]
        lam = growth_rate(life_table(GHALF)).lambda_per_day
        estimate = (series[80] / series[60]) ** (1 / 20)
        assert abs(estimate - lam) / lam < 1e-3

    def test_half_beats_full_saver(self):
        lam_half = growth_rate(life_table(GHALF)).lambda_per_day
        lam_one = growth_rate(life_table(G1)).lambda_per_day
        assert lam_half > lam_one


class TestNearestDouble:
    """Each growth rate is the double nearest the root: the exact residual
    is positive halfway to the double below and negative halfway to the
    double above."""

    @staticmethod
    def _assert_nearest(table):
        lam = growth_rate(table).lambda_per_day
        below = (Fraction(lam) + Fraction(math.nextafter(lam, 0.0))) / 2
        above = (Fraction(lam) + Fraction(math.nextafter(lam, math.inf))) / 2
        assert euler_lotka_residual(table, below) > 0 > euler_lotka_residual(table, above)

    def test_sweep_grid(self):
        schedules = {}
        for k in range(41):
            table = life_table(TreeSpecies(Fraction(k, 40)))
            if len(table.birth_ages) > 1 or table.periodic is not None:
                schedules[table.birth_ages, table.periodic] = table
        assert len(schedules) > 10
        for table in schedules.values():
            self._assert_nearest(table)

    @pytest.mark.parametrize(
        "table",
        [
            LifeTable((1, 2), 2),  # the golden ratio
            LifeTable((1,), None, periodic=(2, 1)),  # root exactly 2
            LifeTable((), None, periodic=(1, 1)),  # root exactly 2
            LifeTable((2,), None, periodic=(4, 3)),
            LifeTable((2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610), 610),
            LifeTable((2, 4, 600), 600),  # the last age past every truncation
            LifeTable((500, 1000), 1000),  # a root near 1
        ],
        ids=["phi", "root-2-prefix", "root-2-tail", "tail-and-prefix", "fibonacci", "far", "near-1"],
    )
    def test_hand_tables(self, table):
        self._assert_nearest(table)

    def test_roots_sharing_a_double_are_ordered_exactly(self):
        # x + x**2 + x**100 = 1 has the larger root, by about 1e-21
        near, nearer = ((1, 2, 100), None), ((1, 2, 101), None)
        lam = growth_rate(LifeTable((1, 2, 100), 100)).lambda_per_day
        assert growth_rate(LifeTable((1, 2, 101), 101)).lambda_per_day == lam
        assert _highest_roots([nearer, near], lam) == [near]
        # x + x**2 = 1 and x + x**3 + x**4 = 1 share the root 1/phi: a true tie
        phi, also_phi = ((1, 2), None), ((1, 3, 4), None)
        lam = growth_rate(LifeTable((1, 2), 2)).lambda_per_day
        assert growth_rate(LifeTable((1, 3, 4), 4)).lambda_per_day == lam
        assert _highest_roots([phi, also_phi], lam) == [phi, also_phi]


class TestSweep:
    def _grid(self):
        return [Fraction(k, 20) for k in range(21)]

    def test_half_in_argmax_on_canonical_grid(self):
        sweep = optimality_sweep(self._grid())
        genes = {sp.gene_number for sp in sweep.argmax}
        assert Fraction(1, 2) in genes

    def test_argmax_plateau_is_exact_tie(self):
        # 2/5, 9/20, 1/2 share the schedule {2,4,6}; rates must tie exactly
        sweep = optimality_sweep(self._grid())
        genes = {sp.gene_number for sp in sweep.argmax}
        assert genes == {Fraction(2, 5), Fraction(9, 20), Fraction(1, 2)}
        rates = {
            r.lambda_per_day
            for sp, _, r in sweep.rows
            if sp.gene_number in genes
        }
        assert len(rates) == 1

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            optimality_sweep([])

    def test_repeated_gene_number_rejected(self):
        with pytest.raises(ValueError, match=r"^gene number 1/2 is given twice$"):
            optimality_sweep([Fraction(1, 2), Fraction(1), Fraction(2, 4)])
        with pytest.raises(ValueError, match=r"^gene number 1/2 is given twice$"):
            optimality_sweep([GHALF, "2/4"])

