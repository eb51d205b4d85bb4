"""Replication-error profiles, immune escape, and antibody generation."""

import hashlib
import io
import itertools
import json
import os
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from _hypothesis import given, settings, st

from _replicator_oracle import board
from prenelab import rng
from prenelab.config import ConfigError
from prenelab.replicator import (
    LETTERS,
    Antibody,
    ArmTrace,
    EscapeConfig,
    Genome,
    MissingRegion,
    MutationProfile,
    PopulationState,
    ProfileLengthMismatch,
    RegionMapMismatch,
    SpaceExhausted,
    happiness,
    immune_step,
    mutant_fraction,
    replicate,
    run_escape_experiment,
    run_population_day,
    vdj_generate,
)
from prenelab.rng import sign_test


def _traced(*key, profile="hot"):
    """A trace of an arm named `profile` into a fresh text buffer, its body
    sites drawn from `rng.stream(*key, rng.BODY)`, and that buffer."""
    buf = io.StringIO()
    return ArmTrace(buf.write, profile, rng.stream(*key, rng.BODY)), buf


def _events(buf) -> list[dict]:
    return [json.loads(line) for line in buf.getvalue().splitlines()]


class TestGenome:
    def test_string_round_trip(self):
        g = Genome.from_string("ACGUUGCA")
        assert g.seq == "ACGUUGCA"
        assert len(g) == 8

    def test_rejects_foreign_letters(self):
        with pytest.raises(ValueError):
            Genome.from_string("ACGT")  # T is not in this alphabet

    def test_rejects_out_of_range_codes(self):
        with pytest.raises(ValueError):
            Genome(np.array([0, 4], dtype=np.uint8))

    def test_region_bounds_checked(self):
        with pytest.raises(ValueError):
            Genome.from_string("ACGU", {"coat": (0, 5)})
        with pytest.raises(ValueError):
            Genome.from_string("ACGU", {"coat": (2, 2)})

    def test_regions_must_be_disjoint(self):
        with pytest.raises(ValueError):
            Genome.from_string("ACGUACGU", {"a": (0, 4), "b": (3, 6)})

    @pytest.mark.parametrize("bounds", [(0, 2.5), (0.0, 2), (0.9, 3), (False, True)])
    def test_float_region_bounds_rejected(self, bounds):
        with pytest.raises(TypeError):
            Genome.from_string("ACGUACGU", {"coat": bounds})

    def test_numpy_integer_region_bounds_accepted(self):
        g = Genome.from_string("ACGUACGU", {"coat": (np.int64(1), np.uint8(3))})
        assert g.regions == {"coat": (1, 3)}
        assert all(type(b) is int for b in g.regions["coat"])

    def test_adjacent_regions_allowed(self):
        g = Genome.from_string("ACGUACGU", {"a": (0, 4), "b": (4, 8)})
        assert g.regions == {"a": (0, 4), "b": (4, 8)}

    def test_missing_region_error(self):
        with pytest.raises(MissingRegion):
            Genome.from_string("ACGU").region_slice("coat")


class TestMutationProfile:
    def test_uniform(self):
        p = MutationProfile.uniform(0.01, 5)
        assert np.allclose(p.site_prob, 0.01) and len(p) == 5

    def test_probabilities_must_be_below_one(self):
        with pytest.raises(ValueError):
            MutationProfile.uniform(1.0, 3)
        with pytest.raises(ValueError):
            MutationProfile.uniform(-0.1, 3)

    def test_nan_probability_rejected(self):
        with pytest.raises(ValueError, match=r"\[0, 1\)"):
            MutationProfile(np.array([0.1, float("nan")]))

    def test_region_multiplier(self):
        p = MutationProfile.region_multiplier(
            0.001, 10, {"hot": (2, 5)}, {"hot": 10.0}
        )
        assert np.allclose(p.site_prob[2:5], 0.01)
        assert np.allclose(p.site_prob[:2], 0.001)
        assert np.allclose(p.site_prob[5:], 0.001)

    def test_region_multiplier_float_bounds_rejected(self):
        with pytest.raises(TypeError):
            MutationProfile.region_multiplier(0.01, 8, {"coat": (0.9, 3)}, {"coat": 2.0})

    def test_region_multiplier_unknown_region(self):
        with pytest.raises(MissingRegion):
            MutationProfile.region_multiplier(0.001, 10, {"hot": (2, 5)}, {"cold": 0.1})

    def test_shells_tiers(self):
        p = MutationProfile.shells([3, 6], [0.0, 0.1, 0.3], 9)
        assert np.allclose(p.site_prob, [0, 0, 0, 0.1, 0.1, 0.1, 0.3, 0.3, 0.3])

    def test_shells_zero_width_tiers_are_empty(self):
        # the tier [3, 3) and the tier past a last boundary at the strand length hold no site
        p = MutationProfile.shells([3, 3, 9], [0.0, 0.1, 0.2, 0.3], 9)
        assert p.site_prob.tolist() == [0.0] * 3 + [0.2] * 6
        assert p.runs == ((3, 6, 0.2),)

    def test_shells_rates_must_not_decrease_outward(self):
        with pytest.raises(ValueError):
            MutationProfile.shells([3], [0.2, 0.1], 6)

    def test_shells_boundary_validation(self):
        with pytest.raises(ValueError):
            MutationProfile.shells([4, 2], [0.0, 0.1, 0.2], 6)
        with pytest.raises(ValueError):
            MutationProfile.shells([7], [0.0, 0.1], 6)
        with pytest.raises(ValueError):
            MutationProfile.shells([3], [0.0, 0.1, 0.2], 6)

    def test_shells_float_boundary_rejected(self):
        # int() would truncate 2.5 to 2 and give site 2 the core rate
        for bound in (2.5, True):
            with pytest.raises(TypeError):
                MutationProfile.shells([bound], [0.1, 0.2], 5)

    def test_shells_numpy_integer_boundaries(self):
        p = MutationProfile.shells(np.array([2, 4]), [0.0, 0.1, 0.2], 5)
        assert np.allclose(p.site_prob, [0, 0, 0.1, 0.1, 0.2])


class TestReplicate:
    def test_zero_profile_is_identity(self):
        g = Genome.from_string("ACGUUGCA", {"coat": (0, 4)})
        child = replicate(g, MutationProfile.uniform(0.0, 8), rng.stream(3, 0))
        assert child == g

    def test_length_and_regions_preserved(self):
        g = Genome.from_string("ACGU" * 10, {"coat": (0, 8), "tail": (30, 40)})
        child = replicate(g, MutationProfile.uniform(0.3, 40), rng.stream(3, 1))
        assert len(child) == len(g)
        assert child.regions == g.regions
        assert child.codes.max() <= 3

    def test_profile_length_mismatch(self):
        g = Genome.from_string("ACGU")
        with pytest.raises(ProfileLengthMismatch):
            replicate(g, MutationProfile.uniform(0.1, 5), rng.stream(3, 2))

    @pytest.mark.parametrize("tier_rates", [[0.002, 0.02, 0.2]])
    def test_empirical_rate_per_tier(self, tier_rates):
        # invariant: per-tier frequency within 4*sqrt(p(1-p)/N) sites
        L = 90
        profile = MutationProfile.shells([30, 60], tier_rates, L)
        g = Genome(np.zeros(L, dtype=np.uint8))
        n = 4000
        batch = np.repeat(g.codes.reshape(1, -1), n, axis=0)
        from prenelab.replicator import replicate_batch

        rows, cols, _, _ = replicate_batch(batch, profile, rng.stream(21, 0))
        for tier, (lo, hi) in enumerate([(0, 30), (30, 60), (60, 90)]):
            p = tier_rates[tier]
            hits = np.count_nonzero((cols >= lo) & (cols < hi))
            n_sites = n * (hi - lo)
            sigma = (p * (1 - p) / n_sites) ** 0.5
            # false-failure rate about 1.9e-4 (3 tiers x 6.3e-5 per two-sided 4-sigma comparison)
            assert abs(hits / n_sites - p) < 4 * sigma

    def test_mutant_fraction_binomial(self):
        g = Genome(np.zeros(2000, dtype=np.uint8))
        frac = mutant_fraction(g, MutationProfile.uniform(1 / 2000, 2000), 4000, rng.stream(22, 0))
        expected = 1 - (1 - 1 / 2000) ** 2000
        assert abs(frac - expected) < 0.03

    def test_mutant_fraction_count_must_be_an_integer(self):
        g = Genome(np.zeros(20, dtype=np.uint8))
        for n in (2.5, True):
            with pytest.raises(TypeError, match="interpreted as an integer"):
                mutant_fraction(g, MutationProfile.uniform(0.5, 20), n, rng.stream(22, 1))


class TestCoatSignature:
    """A population holds only its coat, and the board interns each virion's coat exactly."""

    @staticmethod
    def _board(*coats):
        state = PopulationState(
            Genome.from_string(coats[0], {"coat": (0, 4)}), len(coats), 10,
            rng.stream(30, 0), immune_delay=1, kill_probability=0.5,
        )
        for row, coat in enumerate(coats):
            state.codes[row] = Genome.from_string(coat).codes
        immune_step(state)
        return list(board(state))

    def test_direct_slice(self):
        state = PopulationState(
            Genome.from_string("ACGUUGCA", {"coat": (2, 6)}), 3, 10, rng.stream(30, 0), 1, 0.5,
        )
        assert state.codes.shape == (3, 4) and state.length == 8
        immune_step(state)
        assert list(board(state)) == ["GUUG"]

    def test_requires_coat_region(self):
        with pytest.raises(MissingRegion):
            PopulationState(Genome.from_string("ACGU"), 1, 10, rng.stream(30, 0), 3, 0.5)

    def test_coat_mutation_changes_signature(self):
        assert self._board("AAAA", "AAGA") == ["AAAA", "AAGA"]

    def test_mutation_outside_coat_keeps_signature(self):
        # every traced birth flips body sites, and no coat is ever new
        founder = Genome.from_string("ACGUACGU", {"coat": (2, 6)})
        trace, buf = _traced(30, 0)
        state = PopulationState(founder, 2, 10, rng.stream(30, 0), 5, 0.5, trace=trace)
        profile = MutationProfile.region_multiplier(0.9, 8, {"coat": (2, 6)}, {"coat": 0.0})
        run_population_day(state, profile, 3)
        births = [e for e in _events(buf) if e["kind"] == "birth"]
        assert len(births) == 6 and all(e["sites"] for e in births)
        assert all(c < 2 or c >= 6 for e in births for c in e["sites"])
        assert list(board(state)) == ["GUAC"] and state.coat.tolist() == [0] * 6


def _founder_state(**kw):
    g = Genome.from_string("ACGUACGU", {"coat": (0, 4)})
    defaults = dict(
        founder=g, n_founders=1, capacity=10, gen=rng.stream(31, 0),
        immune_delay=1, kill_probability=1.0,
    )
    defaults.update(kw)
    return PopulationState(**defaults)


@pytest.mark.parametrize("call, message", [
    (lambda: Genome(np.zeros((2, 4), dtype=np.uint8)), "a genome is a 1-d strand"),
    (lambda: MutationProfile(np.zeros((2, 4))), "site probabilities must be a 1-d vector"),
    (lambda: _founder_state(capacity=0), "capacity must be >= 1"),
    (lambda: _founder_state(n_founders=0), "need at least one founder"),
    (lambda: _founder_state(immune_delay=-1), "immune delay must be >= 0"),
    (lambda: mutant_fraction(Genome.from_string("ACGU"), MutationProfile.uniform(0.1, 4), 0,
                             rng.stream(31, 0)), "n must be positive"),
    (lambda: vdj_generate("ACGU", -1, rng.stream(31, 0)), "n must be >= 0"),
], ids=["genome-2d", "profile-2d", "capacity", "founders", "delay", "mutant-n", "vdj-n"])
def test_library_input_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class TestImmuneStep:
    @pytest.mark.parametrize("kill_probability", [1.5, -0.1, float("nan")])
    def test_kill_probability_checked_at_construction(self, kill_probability):
        with pytest.raises(ValueError, match="kill probability"):
            _founder_state(kill_probability=kill_probability)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("immune_delay", 1.5), ("capacity", 20.5), ("n_founders", 2.0),
            ("immune_delay", True), ("capacity", True), ("n_founders", True),
        ],
    )
    def test_counts_must_be_integers(self, field, value):
        with pytest.raises(TypeError, match="interpreted as an integer"):
            _founder_state(**{field: value})

    def test_board_maps_coat_to_activation_day(self):
        state = _founder_state(immune_delay=np.int64(2), kill_probability=0.0)
        immune_step(state)  # day 0
        assert board(state) == {"ACGU": 2}
        assert state.coat_ids == {bytes([0, 1, 2, 3]): 0} and state.posters == [2]
        assert type(state.posters[0]) is int
        assert state.coat.tolist() == [0]

    def test_empty_population_no_change(self):
        state = _founder_state()
        state.codes = state.codes[:0]
        state.coat = state.coat[:0]
        immune_step(state)
        assert state.population == 0 and state.posters == [] and state.coat_ids == {}

    def test_codes_replaced_without_coat_ids_rejected(self):
        state = _founder_state()
        state.codes = np.repeat(state.codes, 3, axis=0)
        with pytest.raises(ValueError, match="one id per virion"):
            immune_step(state)

    def test_day_going_back_before_a_poster_rejected(self):
        # activation days would decrease, and the active ids no longer be a prefix
        state = _founder_state(n_founders=2, immune_delay=1, kill_probability=0.0)
        state.day = 5
        immune_step(state)
        state.day = 3
        immune_step(state)  # nothing new to post: no check needed, no change
        assert state.posters == [6]
        state.codes[1, 0] = 1
        state.coat[1] = -1
        with pytest.raises(ValueError, match="day 3"):
            immune_step(state)

    def test_certain_kill_with_zero_delay(self):
        state = _founder_state(immune_delay=0, kill_probability=1.0)
        immune_step(state)
        assert state.population == 0

    def test_poster_created_once_per_signature(self):
        state = _founder_state(n_founders=5, immune_delay=3, kill_probability=0.0)
        immune_step(state)
        assert len(state.posters) == 1
        immune_step(state)
        assert len(state.posters) == 1

    def test_poster_honors_delay(self):
        state = _founder_state(immune_delay=2, kill_probability=1.0)
        immune_step(state)  # day 0: poster made, activates day 2
        assert state.population == 1
        state.day = 1
        immune_step(state)
        assert state.population == 1
        state.day = 2
        immune_step(state)
        assert state.population == 0

    def test_kills_only_matching_coats(self):
        # two coats present; only the postered-and-active one is vulnerable
        state = _founder_state(n_founders=2, immune_delay=0, kill_probability=1.0)
        state.codes[1, 0] = 1  # second virion's coat differs at site 0
        immune_step(state)
        # both coats get postered on the same day and both are active: all die
        assert state.population == 0

    def test_survivors_after_activation_have_escaped_coats(self):
        # founder clone, hot coat, certain kill, delay 2: once the founder
        # poster activates, no survivor may carry a coat postered that long ago
        g = Genome(np.zeros(30, dtype=np.uint8), {"coat": (0, 10)})
        state = PopulationState(
            g, 8, 200, rng.stream(32, 0), immune_delay=2, kill_probability=1.0,
            trace=_traced(32, 0)[0],
        )
        profile = MutationProfile.region_multiplier(
            0.001, 30, {"coat": (0, 10)}, {"coat": 50.0}
        )
        for _ in range(6):
            run_population_day(state, profile, 3)
        assert state.population > 0
        posted = board(state)
        for row in state.codes:
            sig = "".join(LETTERS[c] for c in row[:10])
            assert sig != "A" * 10
            assert posted[sig] > state.day  # not yet active

    def test_kill_events_match_poster_signatures(self):
        trace, buf = _traced(31, 0)
        state = _founder_state(n_founders=6, immune_delay=0, kill_probability=0.7, trace=trace)
        immune_step(state)
        kills = [e for e in _events(buf) if e["kind"] == "kill"]
        assert kills
        for e in kills:
            assert e["signature"] in board(state)


class TestPopulationCycle:
    @pytest.mark.parametrize("immune_delay", [0, 2])
    @pytest.mark.parametrize("seed", [33, 34])
    def test_coat_ids_follow_descent(self, seed, immune_delay):
        # hot coat, so many coats are new each day; kills and culls thin the rows
        g = Genome(np.zeros(24, dtype=np.uint8), {"coat": (4, 12)})
        state = PopulationState(
            g, 5, 60, rng.stream(seed, 0), immune_delay=immune_delay, kill_probability=0.5,
        )
        profile = MutationProfile.region_multiplier(0.01, 24, {"coat": (4, 12)}, {"coat": 10.0})
        before = []
        for _ in range(12):
            run_population_day(state, profile, 3)
            assert state.coat.shape == (state.population,)
            for row, cid in zip(state.codes, state.coat.tolist()):
                assert cid == state.coat_ids[row.tobytes()]
            assert len(state.posters) == len(state.coat_ids)
            assert sorted(state.coat_ids.values()) == list(range(len(state.posters)))
            assert all(a <= b for a, b in zip(state.posters, state.posters[1:]))
            assert state.posters[: len(before)] == before  # the board only grows
            before = list(state.posters)
        assert len(before) > 20

    @pytest.mark.parametrize("traced", [False, True])
    def test_empty_day_draws_and_writes_nothing(self, traced):
        trace, buf = _traced(31, 0) if traced else (None, io.StringIO())
        state = _founder_state(n_founders=3, trace=trace)
        state._keep(np.empty(0, dtype=np.intp))
        gens = [state.gen] + ([trace.body] if traced else [])
        before = [repr(gen.bit_generator.state) for gen in gens]  # its arrays print in full
        run_population_day(state, MutationProfile.uniform(0.5, 8), 2)
        assert [repr(gen.bit_generator.state) for gen in gens] == before
        assert buf.getvalue() == ""
        assert state.day == 1 and state.population == 0

    def test_single_lineage_extinct_at_delay_plus_one(self):
        state = _founder_state(capacity=1, immune_delay=1, kill_probability=1.0)
        profile = MutationProfile.uniform(0.0, 8)
        while state.population > 0 and state.day < 10:
            run_population_day(state, profile, 1)
        assert state.day == 2

    def test_no_immunity_means_no_extinction(self):
        state = _founder_state(capacity=16, immune_delay=0, kill_probability=0.0)
        profile = MutationProfile.uniform(0.0, 8)
        for _ in range(20):
            run_population_day(state, profile, 2)
        assert state.population == 16

    def test_capacity_respected_after_cull(self):
        state = _founder_state(n_founders=4, capacity=7, kill_probability=0.0)
        profile = MutationProfile.uniform(0.0, 8)
        for _ in range(5):
            run_population_day(state, profile, 3)
            assert state.population <= 7

    def test_ids_unique_and_parents_exist(self):
        trace, buf = _traced(31, 0)
        state = _founder_state(n_founders=3, capacity=30, kill_probability=0.2, trace=trace)
        profile = MutationProfile.uniform(0.05, 8)
        for _ in range(6):
            run_population_day(state, profile, 2)
        events = _events(buf)
        born = {e["id"] for e in events if e["kind"] == "birth"}
        assert len(born) == sum(1 for e in events if e["kind"] == "birth")
        known = set(range(3)) | born
        for e in events:
            if e["kind"] == "birth":
                assert e["parent"] in known

    def test_peak_population_tracked(self):
        state = _founder_state(n_founders=2, capacity=50, kill_probability=0.0)
        profile = MutationProfile.uniform(0.0, 8)
        for _ in range(3):
            run_population_day(state, profile, 2)
        assert state.peak_population == 16

    def test_offspring_count_must_be_an_integer(self):
        state = _founder_state()
        for count in (2.5, True):
            with pytest.raises(TypeError, match="interpreted as an integer"):
                run_population_day(state, MutationProfile.uniform(0.0, 8), count)

    def test_refused_offspring_count_leaves_state_unchanged(self):
        state = _founder_state(n_founders=3)
        profile = MutationProfile.uniform(0.1, 8)
        codes, coat = state.codes.copy(), state.coat.copy()
        position = dict(state.gen.bit_generator.state)
        refused = [(2.5, TypeError), (True, TypeError), (0, ValueError), (-1, ValueError)]
        for count, error in refused:
            with pytest.raises(error):
                run_population_day(state, profile, count)
        assert state.day == 0
        assert np.array_equal(state.codes, codes) and np.array_equal(state.coat, coat)
        assert repr(state.gen.bit_generator.state) == repr(position)

    @pytest.mark.parametrize("n_founders", [3, 0])
    def test_refused_profile_width_leaves_state_unchanged(self, n_founders):
        # an empty population replicates nothing, and is refused all the same
        state = _founder_state(n_founders=max(n_founders, 1))
        state.codes = state.codes[:n_founders]
        state.coat = state.coat[:n_founders]
        codes = state.codes.copy()
        position = repr(state.gen.bit_generator.state)
        with pytest.raises(ProfileLengthMismatch):
            run_population_day(state, MutationProfile.uniform(0.1, 9), 2)
        assert state.day == 0 and state.population == n_founders
        assert np.array_equal(state.codes, codes)
        assert repr(state.gen.bit_generator.state) == position


class TestEscapeExperiment:
    def test_config_validation_names_field(self):
        with pytest.raises(ConfigError, match="coat_span"):
            EscapeConfig(coat_span=(10, 5))
        with pytest.raises(ConfigError, match="hot_factor"):
            EscapeConfig(base_rate=0.2, hot_factor=10.0)
        with pytest.raises(ConfigError, match="horizon"):
            EscapeConfig(horizon=0)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("hot_factor", float("nan")),
            ("hot_factor", float("inf")),
            ("immune_delay", 1.5),
            ("immune_delay", float("nan")),
            ("capacity", 20.5),
            ("horizon", 2.5),
            ("n_founders", 2.0),
            ("coat_span", (0, 60.5)),
            ("master_seed", True),
            ("n_pairs", True),
            ("immune_delay", True),
            ("coat_span", (False, 60)),
            ("coat_span", (0, 60, 1)),
            ("coat_span", 5),
        ],
    )
    def test_config_rejects_non_finite_and_non_integer(self, field, value):
        with pytest.raises(ConfigError, match=f"^key '{field}': "):
            EscapeConfig(**{field: value})

    def test_hot_coat_outlives_high_fidelity(self):
        report = run_escape_experiment(
            EscapeConfig(n_pairs=12, horizon=30, master_seed=77)
        )
        assert report.hot_wins > report.fidelity_wins
        # false failures with master seeds 1000-1039 in place of 77: 0 of 40 (each ended
        # 12-0, p = 2.4e-4)
        assert report.p_value < 0.01

    def test_experiment_deterministic(self):
        cfg = EscapeConfig(n_pairs=4, horizon=15, master_seed=5)
        a = run_escape_experiment(cfg)
        b = run_escape_experiment(cfg)
        assert a.outcomes == b.outcomes
        assert a.p_value == b.p_value

    def test_trace_leaves_the_outcomes_unchanged(self):
        cfg = EscapeConfig(n_pairs=3, horizon=10, master_seed=5)
        trace = io.StringIO()
        assert run_escape_experiment(cfg, trace=trace) == run_escape_experiment(cfg)
        profiles = [json.loads(line)["profile"] for line in trace.getvalue().splitlines()]
        assert profiles == sorted(profiles, key=["hot", "fidelity"].index)
        assert set(profiles) == {"hot", "fidelity"}

    def test_trace_holds_no_arm_in_memory(self):
        # Each event is written as it happens, so a traced pair at the
        # default config peaks where an untraced one does; holding one
        # arm's events until the arm ends would add about 5 MiB.
        class Discard(io.TextIOBase):
            def write(self, s):
                return len(s)

        def peak(trace):
            tracemalloc.start()
            try:
                report = run_escape_experiment(EscapeConfig(master_seed=1, n_pairs=1), trace)
                return report, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        untraced, untraced_peak = peak(None)
        traced, traced_peak = peak(Discard())
        assert traced.outcomes == untraced.outcomes
        assert traced_peak <= untraced_peak + 2**20

    def test_body_flips_leave_the_outcome_stream_alone(self):
        from prenelab.replicator import _run_arm

        cfg = EscapeConfig(horizon=10, master_seed=9)
        key = (9, rng.REPLICATOR, 0)
        trace, buf = _traced(*key)
        traced = _run_arm(cfg, cfg.hot_profile(), rng.stream(*key), trace)
        untraced = _run_arm(cfg, cfg.hot_profile(), rng.stream(*key))
        assert any(site >= 60 for e in _events(buf) if e["kind"] == "birth" for site in e["sites"])
        assert repr(traced.gen.bit_generator.state) == repr(untraced.gen.bit_generator.state)
        assert (traced.day, traced.peak_population) == (untraced.day, untraced.peak_population)

    def test_untraced_run_opens_no_body_stream(self, monkeypatch):
        # on one CPU every pair runs here, where the keys can be recorded
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        keys = []
        stream = rng.stream
        monkeypatch.setattr(rng, "stream", lambda *key: keys.append(key) or stream(*key))
        run_escape_experiment(EscapeConfig(n_pairs=3, horizon=5, master_seed=5))
        assert sorted(keys) == [(5, rng.REPLICATOR, i) for i in range(3) for _ in "hf"]
        assert not any(key[-1] == rng.BODY for key in keys)

    def test_trace_sites_with_the_coat_mid_genome(self):
        trace = io.StringIO()
        cfg = EscapeConfig(coat_span=(100, 160), n_pairs=1, horizon=10, master_seed=3)
        run_escape_experiment(cfg, trace)
        births = [e for e in map(json.loads, trace.getvalue().splitlines()) if e["kind"] == "birth"]
        sites = [site for e in births for site in e["sites"]]
        for e in births:
            assert all(a < b for a, b in zip(e["sites"], e["sites"][1:]))
        assert all(0 <= site < cfg.genome_length for site in sites)
        assert min(sites) < 100 and max(sites) >= 160  # the body, on both sides of the coat
        assert any(100 <= site < 160 for site in sites)

    def test_full_event_trace_deterministic(self):
        from prenelab.replicator import _run_arm

        cfg = EscapeConfig(n_pairs=1, horizon=12, master_seed=9)
        profile = cfg.hot_profile()
        (a, a_buf), (b, b_buf) = _traced(9, 0), _traced(9, 0)
        for trace in (a, b):
            _run_arm(cfg, profile, rng.stream(9, 0), trace)
        assert a_buf.getvalue() == b_buf.getvalue()
        assert any(site >= 60 for e in _events(a_buf) if e["kind"] == "birth" for site in e["sites"])


# sha256 of the canonical JSONL event trace (sorted keys, compact
# separators, one line per event, without the `pair` and `profile` keys
# of the written lines) of _run_arm for EscapeConfig(horizon=15,
# master_seed=9) on pair 0's streams rng.stream(9, rng.REPLICATOR, 0) and,
# for the body sites, rng.stream(9, rng.REPLICATOR, 0, rng.BODY), frozen
# (label keyed-u32-v4): any change in the number or order of RNG draws
# changes these.  hot: 3522 births listing 1489 flipped sites (445 in the
# body), 883 posters, 770 kills, 11 culls; fidelity: 440 births, no flip,
# 1 poster, 230 kills, extinct on day 13.
GOLDEN_TRACE_SHA256 = {
    "hot": "d7187741083410f9de89b3ad7ef55b2abcd7f362974090eb079883bd873dbe01",
    "fidelity": "9155381a76babe46308ee6b6ff3244d43fbfc607ff8e5b128375a906762317db",
}


@pytest.mark.parametrize("arm", sorted(GOLDEN_TRACE_SHA256))
def test_frozen_event_trace(arm):
    from prenelab.replicator import _run_arm

    cfg = EscapeConfig(horizon=15, master_seed=9)
    profile = cfg.hot_profile() if arm == "hot" else cfg.fidelity_profile()
    trace, buf = _traced(9, rng.REPLICATOR, 0, profile=arm)
    _run_arm(cfg, profile, rng.stream(9, rng.REPLICATOR, 0), trace)
    events = _events(buf)
    assert {(e.pop("pair"), e.pop("profile")) for e in events} == {(0, arm)}
    text = "".join(json.dumps(e, sort_keys=True, separators=(",", ":")) + "\n" for e in events)
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_TRACE_SHA256[arm]


def _scores(wins, losses, ties=0):
    return [(2, 1)] * wins + [(0, 3)] * losses + [(4, 4)] * ties


class TestSignTest:
    def test_exact_tail_values(self):
        assert sign_test(_scores(10, 0)) == (10, 0, 0, 1 / 1024)
        assert sign_test(_scores(8, 2)) == (8, 2, 0, (45 + 10 + 1) / 1024)
        assert sign_test([]) == (0, 0, 0, 1.0)
        # ties are dropped from the binomial, so all ties (n == 0) give p = 1
        assert sign_test(_scores(8, 2, ties=5)) == (8, 2, 5, (45 + 10 + 1) / 1024)
        assert sign_test(_scores(0, 0, ties=4)) == (0, 0, 4, 1.0)

    def test_symmetry(self):
        assert sign_test(_scores(5, 5))[3] > 0.5

    def test_order_independent(self):
        scores = _scores(7, 3, ties=2)
        expected = sign_test(scores)
        shuffler = random.Random(61)
        for _ in range(5):
            shuffler.shuffle(scores)
            assert sign_test(iter(scores)) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), max_size=11))
    def test_p_is_the_exact_binomial_tail(self, scores):
        wins, losses, ties, p = sign_test(scores)
        assert (wins, losses, ties) == (
            sum(a > b for a, b in scores), sum(a < b for a, b in scores),
            sum(a == b for a, b in scores),
        )
        # every fair-coin outcome of the untied pairs, counted directly
        n = wins + losses
        at_least = sum(sum(flips) >= wins for flips in itertools.product((0, 1), repeat=n))
        assert p == float(Fraction(at_least, 2**n))


class TestVdjGenerate:
    def test_single_antibody_preserves_constant(self):
        out = vdj_generate("GGCCAAUU", 1, rng.stream(41, 0), variable_length=4)
        assert len(out) == 1
        assert out[0].constant == "GGCCAAUU"
        assert out[0].seq == out[0].variable + "GGCCAAUU"

    def test_hundred_distinct_variable_regions(self):
        out = vdj_generate("GG", 100, rng.stream(41, 1), variable_length=8)
        variables = {a.variable for a in out}
        assert len(variables) == 100
        assert all(a.constant == "GG" for a in out)
        assert all(len(a.variable) == 8 for a in out)

    def test_space_exhausted_by_counting(self):
        with pytest.raises(SpaceExhausted):
            vdj_generate("GG", 4**2 + 1, rng.stream(41, 2), variable_length=2)

    def test_full_space_enumerable(self):
        out = vdj_generate("GG", 16, rng.stream(41, 3), variable_length=2)
        assert {a.variable for a in out} == {
            a + b for a in "ACGU" for b in "ACGU"
        }

    def test_count_must_be_an_integer(self):
        for n in (2.5, True):
            with pytest.raises(TypeError, match="interpreted as an integer"):
                vdj_generate("ACGU", n, rng.stream(41, 6))

    def test_refused_variable_length_draws_nothing(self):
        gen = rng.stream(41, 7)
        position = repr(gen.bit_generator.state)
        for length, error in [(2.5, TypeError), (True, TypeError), (0, ValueError), (32, ValueError)]:
            with pytest.raises(error):
                vdj_generate("ACGU", 3, gen, variable_length=length)
        assert repr(gen.bit_generator.state) == position

    def test_deterministic_per_stream(self):
        a = vdj_generate("GG", 50, rng.stream(41, 4))
        b = vdj_generate("GG", 50, rng.stream(41, 4))
        assert a == b

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(min_value=0, max_value=64), vl=st.integers(min_value=1, max_value=5))
    def test_distinctness_everywhere(self, n, vl):
        if n > 4**vl:
            with pytest.raises(SpaceExhausted):
                vdj_generate("A", n, rng.stream(41, 5), variable_length=vl)
        else:
            out = vdj_generate("A", n, rng.stream(41, 5), variable_length=vl)
            assert len({a.variable for a in out}) == n


class TestHappiness:
    def _parent(self):
        return Genome.from_string("A" * 40, {"core": (0, 20), "rim": (20, 40)})

    def test_zero_rate_everyone_happy(self):
        parent = self._parent()
        profile = MutationProfile.uniform(0.0, 40)
        kids = [replicate(parent, profile, rng.stream(51, k)) for k in range(100)]
        assert happiness(parent, kids) == {"core": 100, "rim": 100}

    def test_core_happier_than_rim_under_shells(self):
        parent = self._parent()
        profile = MutationProfile.shells([20], [0.0, 0.5], 40)
        core_means = []
        rim_means = []
        for seed in range(100):
            kids = [replicate(parent, profile, rng.stream(52, seed, k)) for k in range(20)]
            h = happiness(parent, kids)
            core_means.append(h["core"])
            rim_means.append(h["rim"])
        assert sum(core_means) / 100 > sum(rim_means) / 100
        assert all(c >= r for c, r in zip(core_means, rim_means))

    def test_hundred_offspring_table(self):
        parent = self._parent()
        profile = MutationProfile.shells([20], [0.0, 0.05], 40)
        kids = [replicate(parent, profile, rng.stream(53, k)) for k in range(100)]
        table = happiness(parent, kids)
        assert set(table) == {"core", "rim"}
        assert table["core"] == 100
        # rim survival per copy is (1 - 0.05)^20 = 0.358; binomial 4 sigma, false-failure
        # rate about 6.3e-5 (one two-sided 4-sigma comparison, normal approximation)
        assert abs(table["rim"] - 35.8) < 4 * (100 * 0.358 * 0.642) ** 0.5

    def test_region_map_mismatch(self):
        parent = self._parent()
        stranger = Genome.from_string("A" * 40, {"core": (0, 10)})
        with pytest.raises(RegionMapMismatch):
            happiness(parent, [stranger])
