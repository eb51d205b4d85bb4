"""End-to-end acceptance checks, one per numbered shipping criterion.

Each test prints a single `criterion N: PASS/FAIL` line (run with -s to
see them on success) and enforces its runtime budget.  Expected values
are frozen reference data or computed by independent oracles inside this
file; the tests never ask the code under test for its own expectation.
"""

import os
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path
from random import Random

from _world_gen import (
    CONTENT_POOL,
    FIXED_POINT_POOL,
    brute_copy_number,
    brute_flags,
    brute_longest_shared,
    random_faithful_world,
    random_world,
)
from prenelab import lifespan, registry, replicator, rng, soup
from prenelab.cli import main

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_LOG = str(Path(__file__).parent / "data" / "registry_golden.jsonl")

# 31 days x (g=1, g=1/2) alive counts, frozen reference table
DAY_COUNTS = {
    0: (1, 1), 1: (1, 1), 2: (1, 2), 3: (2, 2), 4: (2, 4), 5: (2, 4),
    6: (4, 8), 7: (4, 7), 8: (4, 14), 9: (8, 13), 10: (8, 26), 11: (8, 24),
    12: (16, 48), 13: (16, 44), 14: (16, 88), 15: (32, 81), 16: (32, 162),
    17: (32, 149), 18: (64, 298), 19: (64, 274), 20: (64, 548),
    21: (128, 504), 22: (128, 1008), 23: (128, 927), 24: (256, 1854),
    25: (256, 1705), 26: (256, 3410), 27: (512, 3136), 28: (512, 6272),
    29: (512, 5768), 30: (1024, 11536),
}


@contextmanager
def criterion(number: int, budget_s: float, detail: str = ""):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL {detail}")
        raise
    elapsed = time.monotonic() - started
    assert elapsed < budget_s, f"criterion {number} took {elapsed:.2f}s, budget {budget_s}s"
    print(f"criterion {number}: PASS {detail} [{elapsed:.2f}s]")


def test_criterion_1_census_table_regression(tmp_path):
    with criterion(1, 1.0, "62-value census table via `lifespan table --days 30`"):
        out = tmp_path / "census.csv"
        assert main(["lifespan", "table", "--days", "30", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "day,species_g,alive"
        got = {}
        for line in lines[1:]:
            day, label, alive = line.split(",")
            got[(int(day), label)] = int(alive)
        assert len(got) == 62
        for day, (immortal, mortal) in DAY_COUNTS.items():
            assert got[(day, "1")] == immortal, f"day {day} immortal"
            assert got[(day, "1/2")] == mortal, f"day {day} mortal"


def test_criterion_2_day_100_immortal_share():
    with criterion(2, 1.0, "day-100 immortal share < 1/1000, exact integers"):
        species = [lifespan.TreeSpecies(Fraction(1)), lifespan.TreeSpecies(Fraction(1, 2))]
        census = lifespan.simulate_census(species, 100)
        immortal = census.counts[0][100]
        mortal = census.counts[1][100]
        assert immortal == 2**33
        assert Fraction(immortal, immortal + mortal) < Fraction(1, 1000)


def _bisect_growth_oracle(ages: tuple[int, ...]) -> float:
    # independent root finder for  sum lam**(-a) == 1  on a fixed bracket
    def f(lam: float) -> float:
        return sum(lam ** (-a) for a in ages) - 1.0

    lo, hi = 1.0, 4.0
    assert f(lo) > 0.0 > f(hi)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if mid in (lo, hi):
            break
        if f(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2.0


def test_criterion_3_half_saver_optimality():
    with criterion(3, 5.0, "g=1/2 in sweep argmax; growth rate vs two oracles"):
        grid = [Fraction(i, 20) for i in range(21)]
        sweep = lifespan.optimality_sweep(grid)
        argmax = {sp.gene_number for sp in sweep.argmax}
        assert Fraction(1, 2) in argmax

        lam = next(
            r.lambda_per_day for sp, _, r in sweep.rows if sp.gene_number == Fraction(1, 2)
        )
        # oracle 1: independent bisection on the reproduction schedule 2,4,6
        assert abs(lam - _bisect_growth_oracle((2, 4, 6))) < 1e-9
        # oracle 2: the long-run census ratio over days 60..80
        census = lifespan.simulate_census([lifespan.TreeSpecies(Fraction(1, 2))], 80)
        series = census.counts[0]
        ratio = (series[80] / series[60]) ** (1 / 20)
        assert abs(lam - ratio) / ratio < 1e-3


def test_criterion_4_cohort_individual_equivalence():
    with criterion(4, 30.0, "50 random gene-numbers: cohort == individual census"):
        picker = Random(20240822)
        for _ in range(50):
            den = picker.randint(1, 24)
            g = Fraction(picker.randint(0, den), den)
            days = picker.randint(0, 25)
            species = lifespan.TreeSpecies(g)
            fast = lifespan.simulate_census([species], days)
            slow = lifespan.simulate_individuals([species], days)
            assert slow.census.counts == fast.counts, f"g={g} days={days}"


def test_criterion_5_replicator_statistics():
    with criterion(5, 60.0, "mutant fraction formula; hot-coat escape advantage"):
        p, length = 1 / 2000, 10000
        genome = replicator.Genome.from_string("A" * length)
        profile = replicator.MutationProfile.uniform(p, length)
        fraction = replicator.mutant_fraction(
            genome, profile, 10**4, rng.stream(2024)
        )
        expected = 1.0 - (1.0 - p) ** length
        # false failures with rng.stream(1000) to rng.stream(1039) in place of 2024: 0 of
        # 40 (largest miss 0.0020; the bound is about 6 binomial sigma)
        assert abs(fraction - expected) <= 0.005

        report = replicator.run_escape_experiment(replicator.EscapeConfig(n_pairs=100))
        horizon = report.config.horizon

        def survival(day):
            return horizon + 1 if day is None else day

        hot = [survival(o.hot_extinction_day) for o in report.outcomes]
        fid = [survival(o.fidelity_extinction_day) for o in report.outcomes]
        # false failures with master seeds 1000-1039 in place of 0: 0 of 40 for either
        # check (each ended 100-0, p = 7.9e-31)
        assert statistics.median(hot) > statistics.median(fid)
        assert report.p_value < 0.01


def test_criterion_6_soup_conservation_and_catalysis():
    with criterion(6, 60.0, "1e5-event mass conservation; catalysis beats control"):
        state = soup.SoupConfig().build_state()
        gen = rng.stream(123)
        violations = 0
        for _ in range(100_000):
            try:
                soup.step(state, gen)
            except soup.ConservationError:
                violations += 1
                break
            state.audit()
        assert violations == 0
        assert state.n_events == 100_000

        report = soup.run_catalysis_experiment(soup.SoupConfig())
        assert report.config.n_replicates >= 30
        assert report.treatment_wins > report.control_wins
        assert report.p_value < 0.05


def test_criterion_7_registry_queries_vs_brute_force():
    with criterion(7, 30.0, "200 random logs; faithful monotonicity; 500 substring cases"):
        # copy_number / classify / extinct against full rescans
        for i in range(200):
            world = random_world(rng.stream(7000, i), n_events=50)
            text = world.to_jsonl()
            now = world.now
            times = sorted({-1, 0, now // 2, now})
            for target in CONTENT_POOL:
                prene = registry.Prene.exact(target)
                for t in times:
                    expected = brute_copy_number(text, target, t)
                    assert registry.copy_number(world, prene, t) == expected
                    flags = registry.classify(world, prene, t)
                    assert (flags.gene, flags.meme, flags.turene) == brute_flags(
                        text, target, t
                    )
                    assert registry.extinct(world, prene, t) == (expected == 0)

        # faithful logs: once a content's copy number hits zero it stays zero
        for i in range(60):
            world = random_faithful_world(rng.stream(7100, i), n_events=50)
            for target in FIXED_POINT_POOL:
                prene = registry.Prene.exact(target)
                seen_alive = False
                died = False
                for t in range(-1, world.now + 1):
                    n = registry.copy_number(world, prene, t)
                    if n > 0:
                        assert not died, f"log {i}: {target} came back after extinction"
                        seen_alive = True
                    elif seen_alive:
                        died = True

        # longest shared substring against the quadratic scan
        gen = rng.stream(7200)
        alphabet = b"ACGU"
        for _ in range(500):
            k = int(gen.integers(2, 5))
            contents = [
                bytes(alphabet[j] for j in gen.integers(0, 4, size=int(gen.integers(0, 65))))
                for _ in range(k)
            ]
            assert registry.longest_shared(contents) == brute_longest_shared(contents)


def test_criterion_8_rerun_byte_determinism(tmp_path):
    with criterion(8, 120.0, "every subcommand rerun gives byte-identical artifacts"):
        rep_cfg = tmp_path / "rep.cfg"
        rep_cfg.write_text(
            "genome_length = 60\ncoat_start = 0\ncoat_stop = 12\ncapacity = 25\n"
            "horizon = 8\nn_pairs = 4\nn_founders = 3\n"
        )
        soup_cfg = tmp_path / "soup.cfg"
        soup_cfg.write_text("n_replicates = 4\nhorizon = 3.0\n")
        commands = [
            ["lifespan", "table", "--days", "30", "--out", "OUT/census.csv"],
            ["lifespan", "sweep", "--steps", "20", "--out", "OUT/sweep.csv"],
            ["lifespan", "growth", "--g", "1/2", "--out", "OUT/growth.csv"],
            [
                "replicator", "run", "--seed", "11", "--config", str(rep_cfg),
                "--out", "OUT/rep.csv", "--events", "OUT/rep_events.jsonl",
            ],
            ["soup", "run", "--seed", "11", "--samples", "10", "--out", "OUT/soup.csv"],
            [
                "soup", "run", "--seed", "11", "--config", str(soup_cfg),
                "--experiment", "--out", "OUT/soup_exp.csv",
            ],
            ["registry", "ingest", "--log", GOLDEN_LOG, "--out", "OUT/canon.jsonl"],
            [
                "registry", "query", "--log", GOLDEN_LOG, "--what", "copy-number",
                "--content", "POX", "--at", "3", "--out", "OUT/count.json",
            ],
        ]
        for run_dir in ("first", "second"):
            base = tmp_path / run_dir
            for command in commands:
                concrete = [c.replace("OUT", str(base)) for c in command]
                proc = subprocess.run(
                    [sys.executable, "-m", "prenelab", *concrete],
                    capture_output=True,
                    text=True,
                    cwd=ROOT,
                    env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                )
                assert proc.returncode == 0, proc.stderr
        first, second = tmp_path / "first", tmp_path / "second"
        names = sorted(p.name for p in first.iterdir())
        assert len(names) == 9
        for name in names:
            assert (first / name).read_bytes() == (second / name).read_bytes(), name
