"""Reactor propensities, exact conservation, and the catalysis experiment."""

import copy
import hashlib
import io
import itertools
import json
from contextlib import redirect_stdout

import numpy as np
import pytest

from _soup_oracle import enumerate_reactions
from prenelab import rng, soup
from prenelab.config import ConfigError
from prenelab.soup import (
    CatalysisReport,
    CatalystRule,
    ConservationError,
    Quiescent,
    ReactorState,
    SoupConfig,
    _apply_catalyze,
    _apply_peeked,
    _peek_next_time,
    run_catalysis_experiment,
    run_until,
    step,
)


def run_events(state, n, gen):
    """n exact events in a row, one `step` each."""
    for _ in range(n):
        step(state, gen)
    return state


class TestCatalystRule:
    def test_motif_validated(self):
        with pytest.raises(ValueError):
            CatalystRule("")
        with pytest.raises(ValueError):
            CatalystRule("GAXG")

    def test_predicate(self):
        rule = CatalystRule("GAAG")
        assert rule("GAAG")
        assert rule("CCGAAGCC")
        assert not rule("CCCC")          # no motif
        assert not rule("GAAGAAA")       # motif present but ends in AAA
        assert not rule("GGAAA")         # no motif and ends in AAA


class TestReactorState:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReactorState({}, {}, -1.0, 0, 0)
        with pytest.raises(ValueError):
            ReactorState({"X": 1}, {}, 0, 0, 0)
        with pytest.raises(ValueError):
            ReactorState({"A": -1}, {}, 0, 0, 0)
        with pytest.raises(ValueError):
            ReactorState({}, {"A": 1}, 0, 0, 0)  # length-1 is a monomer
        with pytest.raises(ValueError):
            ReactorState({}, {"AX": 1}, 0, 0, 0)

    @pytest.mark.parametrize(
        "n,capacity", [(0, 16), (16, 16), (17, 32), (32, 32), (33, 64), (100, 128)]
    )
    def test_table_starts_at_smallest_capacity_that_holds_it(self, n, capacity):
        # the first n four-letter strands; from n = 28 on they include ACGU
        polymers = dict.fromkeys(map("".join, itertools.islice(itertools.product("ACGU", repeat=4), n)), 1)
        state = ReactorState({}, polymers, 0, 0, 0)
        assert len(state._count) == capacity
        assert state.species == polymers
        state.recount()

    def test_removing_more_than_present_is_refused(self):
        state = ReactorState({"A": 1}, {"AC": 2}, 0, 0, 0)
        with pytest.raises(ValueError, match="cannot remove 3 of 'AC', only 2 present"):
            state._remove("AC", 3)
        assert state.species == {"AC": 2}
        state.recount()

    def test_zero_count_species_dropped(self):
        state = ReactorState({"A": 2}, {"AC": 0, "GG": 3}, 0, 0, 0)
        assert state.species == {"GG": 3}

    def test_canonical_equality_ignores_insertion_order(self):
        a = ReactorState({"A": 1}, {"AC": 2, "GG": 1}, 0.1, 0.2, 0.3)
        b = ReactorState({"A": 1}, {"GG": 1, "AC": 2}, 0.1, 0.2, 0.3)
        assert a == b

    def test_equality_sees_every_field(self):
        a = ReactorState({"A": 1}, {"AC": 2}, 0.1, 0.2, 0.3)
        moved = copy.deepcopy(a)
        moved.time = 1.0
        others = [
            ReactorState({"A": 2}, {"AC": 2}, 0.1, 0.2, 0.3),
            ReactorState({"A": 1}, {"AC": 3}, 0.1, 0.2, 0.3),
            ReactorState({"A": 1}, {"AC": 2}, 0.1, 0.2, 0.4),
            ReactorState({"A": 1}, {"AC": 2}, 0.1, 0.2, 0.3, CatalystRule("AC")),
            moved,
            "not a state",
        ]
        assert all(a != other for other in others)

    def test_mass_by_letter(self):
        state = ReactorState({"A": 5, "G": 1}, {"AAC": 2, "GU": 1}, 0, 0, 0)
        # A: 5 free + 2*2 bound; C: 2 bound; G: 1 free + 1 bound; U: 1 bound
        assert state.mass_by_letter() == [9, 2, 2, 1]
        assert state.conserved == [9, 2, 2, 1]

    def test_audit_catches_corruption(self):
        # one G taken from the free pool, or from the running bound mass
        for column in ("free", "_bound"):
            state = ReactorState({"A": 5}, {"GGAAA": 2}, 0, 0, 0)
            getattr(state, column)[2] -= 1
            drift = r"^mass drifted: \[11, 0, 3, 0\] != \[11, 0, 4, 0\]$"
            with pytest.raises(ConservationError, match=drift):
                state.audit()

    @pytest.mark.parametrize(
        "rates", [(float("nan"), 0.1, 0), (0.1, float("inf"), 0), (0, 0, float("nan"))]
    )
    def test_non_finite_rate_constants_rejected(self, rates):
        with pytest.raises(ValueError, match="finite"):
            ReactorState({"A": 5}, {"AC": 2}, *rates)

    @pytest.mark.parametrize(
        "free,polymers",
        [({"A": 2.7}, {}), ({}, {"AC": 1.5}), ({"A": 2.0}, {}), ({}, {"AC": "3"})],
    )
    def test_non_integer_counts_rejected(self, free, polymers):
        with pytest.raises(ValueError, match="integers"):
            ReactorState(free, polymers, 0.1, 0.1, 0)

    def test_numpy_integer_counts_accepted(self):
        state = ReactorState({"A": np.int64(3)}, {"AC": np.int32(2)}, 0, 0, 0)
        assert state.free_of("A") == 3 and state.species == {"AC": 2}


class TestRecount:
    """The O(S) recount sees a species table corrupted behind the running
    totals, which the O(1) per-event audit cannot."""

    # the count, then each field of the facts record: a letter count
    # raised by one, or the catalyst or AAA-ender flag flipped; then a
    # real record in the last padding row of the 16-row table
    _FACT = {"A": 0, "C": 1, "G": 2, "U": 3, "flag": 4, "aaa": 5}
    _HOW = ["count", *_FACT, "pad"]

    @classmethod
    def _corrupted(cls, how):
        state = ReactorState({"A": 30, "C": 30}, {"GAAG": 3, "GGAAA": 4}, 0.01, 0.2, 0.3)
        row = state._row["GGAAA" if how == "aaa" else "GAAG"]
        if how == "count":
            state._count[row] += 1
        elif how == "pad":
            state._facts[-1] = state._facts_of("GAAG")
        else:
            facts, i = list(state._facts[row]), cls._FACT[how]
            facts[i] = not facts[i] if i >= 4 else facts[i] + 1
            state._facts[row] = tuple(facts)
        return state

    @pytest.mark.parametrize("how", _HOW)
    def test_per_event_audit_passes_recount_fails(self, how):
        state = self._corrupted(how)
        state.audit()
        with pytest.raises(ConservationError):
            state.recount()

    @pytest.mark.parametrize("how", _HOW)
    def test_run_until_recounts_before_returning(self, how):
        state = self._corrupted(how)
        with pytest.raises(ConservationError):
            run_until(state, 0.5, rng.stream(69, 0))
        assert state.n_events > 0

    def test_run_until_recounts_at_sample_times(self):
        rows = []
        with pytest.raises(ConservationError):
            run_until(
                self._corrupted("count"), 0.5, rng.stream(69, 1),
                sample_times=[0.0], on_sample=lambda t, s: rows.append(t),
            )
        assert rows == []

    def test_recount_checks_the_mass(self):
        # a free pool corrupted: the table is consistent, the mass is not
        state = ReactorState({"A": 5}, {"GGAAA": 2}, 0, 0, 0)
        state.free[0] += 1
        with pytest.raises(ConservationError, match=r"^mass drifted: \[12, 0, 4, 0\] != \[11, 0, 4, 0\]$"):
            state.recount()

    def test_quiescent_run_still_recounts(self):
        state = ReactorState({"A": 5}, {"AC": 2}, 0, 0, 0)
        state._count[0] += 1
        with pytest.raises(ConservationError):
            run_until(state, 1.0, rng.stream(69, 2))


_SMALL = (
    {"A": 20, "C": 10, "G": 15, "U": 5},
    {"GGAAA": 6, "GAAG": 3, "CU": 2},
    (0.01, 0.2, 0.5),
)
# the benchmark's reactor: 100x the default pools at the default rates
_DEFAULT = SoupConfig()
_HUNDREDFOLD = (
    {letter: 100 * n for letter, n in _DEFAULT.initial_free},
    {seq: 100 * n for seq, n in _DEFAULT.initial_polymers},
    (_DEFAULT.k_on, _DEFAULT.k_off, _DEFAULT.k_cat),
)


class TestEnumerateReactions:
    """Channel totals against `_soup_oracle.enumerate_reactions`."""

    def test_empty_reactor(self):
        assert enumerate_reactions(ReactorState({}, {}, 1, 1, 1)) == []

    def test_monomers_only_gives_dimerizations(self):
        state = ReactorState({"A": 3, "C": 2}, {}, 0.5, 0.3, 0.2)
        rx = enumerate_reactions(state)
        assert {r.kind for r in rx} == {"extend"}
        by_pair = {(r.species, r.letter): r.propensity for r in rx}
        # same-pool pair count is n*(n-1); cross pools are products
        assert by_pair[("A", "A")] == pytest.approx(0.5 * 3 * 2)
        assert by_pair[("A", "C")] == pytest.approx(0.5 * 3 * 2)
        assert by_pair[("C", "A")] == pytest.approx(0.5 * 2 * 3)
        assert by_pair[("C", "C")] == pytest.approx(0.5 * 2 * 1)

    def test_single_monomer_cannot_self_pair(self):
        state = ReactorState({"A": 1}, {}, 1.0, 0, 0)
        assert enumerate_reactions(state) == []

    def test_one_catalyst_one_target(self):
        state = ReactorState({}, {"GAAG": 1, "GGAAA": 1}, 0, 0, 1.0)
        rx = enumerate_reactions(state)
        assert len(rx) == 1
        r = rx[0]
        assert (r.kind, r.species, r.target, r.propensity) == ("catalyze", "GAAG", "GGAAA", 1.0)

    def test_detach_propensity(self):
        state = ReactorState({}, {"ACG": 4}, 0, 0.25, 0)
        rx = enumerate_reactions(state)
        assert len(rx) == 1
        assert rx[0].kind == "detach" and rx[0].propensity == pytest.approx(1.0)

    @pytest.mark.parametrize(
        "seed,pools,events",
        [(0, _SMALL, 50), (1, _SMALL, 50), (2, _SMALL, 50), (3, _HUNDREDFOLD, 2000)],
        ids=["0", "1", "2", "hundredfold"],
    )
    def test_channel_totals_match_enumeration(self, seed, pools, events):
        free, polymers, rates = pools
        state = ReactorState(free, polymers, *rates)
        run_events(state, events, rng.stream(61, seed))
        rx = enumerate_reactions(state)
        for kind, total in zip(("extend", "detach", "catalyze"), state._channel_totals()):
            assert total == pytest.approx(sum(r.propensity for r in rx if r.kind == kind))


class TestStep:
    def test_catalyze_chops_terminal_a(self):
        state = ReactorState({}, {"GAAG": 1, "GGAAA": 1}, 0, 0, 1.0)
        step(state, rng.stream(62, 0))
        assert state.species == {"GAAG": 1, "GGAA": 1}
        assert state.free_of("A") == 1

    def test_catalyze_on_bare_aaa_leaves_dimer(self):
        state = ReactorState({}, {"GAAG": 1, "AAA": 1}, 0, 0, 1.0)
        step(state, rng.stream(62, 1))
        assert state.species == {"GAAG": 1, "AA": 1}
        assert state.free_of("A") == 1

    def test_detach_dimer_dissolves(self):
        state = ReactorState({}, {"AC": 1}, 0, 1.0, 0)
        step(state, rng.stream(62, 2))
        assert state.species == {}
        assert state.free_of("A") == 1 and state.free_of("C") == 1

    def test_detach_trimer_leaves_dimer(self):
        state = ReactorState({}, {"ACG": 1}, 0, 1.0, 0)
        step(state, rng.stream(62, 3))
        assert state.species == {"AC": 1}
        assert state.free_of("G") == 1

    def test_quiescent(self):
        with pytest.raises(Quiescent):
            step(ReactorState({}, {}, 1, 1, 1), rng.stream(62, 4))
        with pytest.raises(Quiescent):
            # all rates zero: counts alone create no propensity
            step(ReactorState({"A": 5}, {"AC": 2}, 0, 0, 0), rng.stream(62, 5))

    def test_time_strictly_increases(self):
        state = ReactorState({"A": 50, "C": 50}, {}, 0.01, 0.5, 0)
        gen = rng.stream(62, 6)
        last = 0.0
        for _ in range(200):
            step(state, gen)
            assert state.time > last
            last = state.time

    @pytest.mark.parametrize("seed", range(4))
    def test_long_run_conserves_and_stays_nonnegative(self, seed):
        state = ReactorState(
            {"A": 80, "C": 60, "G": 70, "U": 50},
            {"GGAAA": 10, "GAAG": 4},
            0.002, 0.3, 0.1,
        )
        gen = rng.stream(63, seed)
        for _ in range(3000):
            step(state, gen)
            assert min(state.free) >= 0
            assert all(n >= 0 for n in state.species.values())
        assert state.mass_by_letter() == state.conserved
        assert 0 not in state.species.values()

    def test_determinism_per_seed(self):
        def run():
            state = ReactorState(
                {"A": 30, "C": 30, "G": 30, "U": 30},
                {"GGAAA": 5, "GAAG": 2},
                0.005, 0.2, 0.3,
            )
            run_events(state, 500, rng.stream(64, 0))
            return state

        a, b = run(), run()
        assert a == b and a.time == b.time

    def test_catalyst_assert_guards_aaa_ender(self):
        state = ReactorState({}, {"GGAAA": 2}, 0, 0, 1.0)
        with pytest.raises(AssertionError):
            _apply_catalyze(state, "GGAAA", "GGAAA")


class TestWaitingTimes:
    def test_mean_interval_matches_inverse_propensity(self):
        # large pools: propensity drifts under 2% over the run, so the
        # empirical mean of 2000 exponential gaps must sit within 5%
        state = ReactorState({"A": 200_000, "C": 200_000}, {}, 1e-8, 0, 0)
        a0 = sum(state._channel_totals())
        gen = rng.stream(65, 0)
        times = []
        last = 0.0
        for _ in range(2000):
            step(state, gen)
            times.append(state.time - last)
            last = state.time
        mean_dt = sum(times) / len(times)
        assert abs(mean_dt - 1 / a0) / (1 / a0) < 0.05


class TestRunUntil:
    def test_audit_runs_once_per_event(self, monkeypatch):
        audit, seen = ReactorState.audit, []

        def counted(state):
            seen.append(state.n_events)
            audit(state)

        monkeypatch.setattr(ReactorState, "audit", counted)
        state = ReactorState({"A": 60, "C": 60}, {"GAAG": 3, "GGAAA": 5}, 0.002, 0.1, 0.3)
        run_until(state, 5.0, rng.stream(68, 2), sample_times=[1.0, 2.0])
        assert state.n_events > 50
        assert seen == list(range(1, state.n_events + 1))

    def test_sample_grid_rows(self):
        state = ReactorState({"A": 60, "C": 60}, {}, 0.002, 0.1, 0)
        rows = []
        run_until(
            state, 5.0, rng.stream(68, 0),
            sample_times=[0.0, 1.0, 2.0, 3.0, 4.0, 5.0],
            on_sample=lambda t, s: rows.append((t, s.free_of("A"), sum(s.species.values()))),
        )
        assert [r[0] for r in rows] == [0.0, 1.0, 2.0, 3.0, 4.0, 5.0]
        assert rows[0][1] == 60 and rows[0][2] == 0
        assert state.time == pytest.approx(5.0)

    def test_quiescent_flushes_remaining_samples(self):
        state = ReactorState({}, {"AC": 1}, 0, 1.0, 0)  # one detach, then silence
        rows = []
        run_until(
            state, 100.0, rng.stream(68, 1),
            sample_times=[50.0, 99.0],
            on_sample=lambda t, s: rows.append((t, sum(s.species.values()))),
        )
        assert rows == [(50.0, 0), (99.0, 0)]

    @pytest.mark.parametrize(
        "horizon,sample_times",
        [
            pytest.param(float("nan"), (), id="nan"),
            pytest.param(-1.0, (), id="-1.0"),
            pytest.param(float("inf"), (), id="inf"),
            pytest.param(1.0, (0.5, float("nan")), id="nan-sample"),
            pytest.param(1.0, (float("inf"),), id="inf-sample"),
            pytest.param(0.1, (0.1 * 3 / 3,), id="sample-past-horizon"),
            pytest.param(1.0, (-1.0,), id="sample-before-time"),
        ],
    )
    def test_bad_horizon_rejected(self, horizon, sample_times):
        # inf would never return: the default reactor never goes quiescent
        state = SoupConfig().build_state()
        gen = rng.stream(1, 0)
        with pytest.raises(ValueError, match="horizon"):
            run_until(state, horizon, gen, sample_times)
        assert state.time == 0.0 and state.n_events == 0
        assert gen.random() == rng.stream(1, 0).random()  # nothing drawn

    def test_sample_before_an_earlier_run_rejected(self):
        state = SoupConfig().build_state()
        gen = rng.stream(1, 0)
        run_until(state, 2.0, gen)
        events = state.n_events
        after = rng.stream(1, 0)
        run_until(SoupConfig().build_state(), 2.0, after)
        seen = []
        with pytest.raises(ValueError, match=r"\[time 2\.0, horizon 3\.0\], got 1\.0"):
            run_until(state, 3.0, gen, [1.0], lambda t, s: seen.append(t))
        assert seen == [] and state.time == 2.0 and state.n_events == events
        assert gen.random() == after.random()  # nothing drawn
        # a sample at the current time is valid
        run_until(state, 3.0, gen, [2.0], lambda t, s: seen.append((t, s.time)))
        assert seen == [(2.0, 2.0)]

    def test_horizon_before_an_earlier_run_rejected(self):
        state = SoupConfig().build_state()
        gen = rng.stream(1, 0)
        run_until(state, 2.0, gen)
        events = state.n_events
        with pytest.raises(ValueError, match="horizon"):
            run_until(state, 1.0, gen)
        # a repeat call at the current time is valid and runs no events
        run_until(state, 2.0, gen)
        assert state.time == 2.0 and state.n_events == events


class TestBlockReader:
    """run_until reads uniforms from blocks; the block size changes nothing."""

    @staticmethod
    def _stages(monkeypatch, block):
        monkeypatch.setattr(soup, "_BLOCK", block)
        state, gen = SoupConfig().build_state(), rng.stream(5, 1)
        seen = []

        def snapshot():
            twin = copy.deepcopy(gen)  # read the next draw without taking it
            seen.append((state.species, list(state.free), state.time, state.n_events, twin.random()))

        run_until(state, 2.0, gen)
        snapshot()
        run_until(state, 4.0, gen, [2.5, 3.0, 3.5], lambda t, s: None)
        snapshot()
        run_events(state, 50, gen)
        snapshot()
        return seen

    def test_block_size_changes_nothing(self, monkeypatch):
        default = self._stages(monkeypatch, soup._BLOCK)
        assert self._stages(monkeypatch, 7) == default
        assert default[0][3] > 7  # the small blocks ran out many times

    @pytest.mark.parametrize("block", [7, soup._BLOCK])
    def test_exception_from_on_sample_leaves_gen_after_last_used(self, monkeypatch, block):
        monkeypatch.setattr(soup, "_BLOCK", block)
        state, gen = SoupConfig().build_state(), rng.stream(5, 2)

        def fail(t, s):
            raise KeyError(t)

        with pytest.raises(KeyError):
            run_until(state, 5.0, gen, [3.0], fail)
        # scalar replay: every event up to the first one past t = 3.0 draws
        twin_state, twin = SoupConfig().build_state(), rng.stream(5, 2)
        while True:
            peeked = _peek_next_time(twin_state, twin.random)
            if peeked[0] > 3.0:
                break
            _apply_peeked(twin_state, peeked)
        assert state.n_events == twin_state.n_events > 0
        assert gen.random() == twin.random()


class TestCatalysisExperiment:
    @pytest.mark.parametrize(
        "kwargs,field",
        [
            ({"k_on": float("nan")}, "k_on"),
            ({"k_off": float("inf")}, "k_off"),
            ({"k_cat": float("nan")}, "k_cat"),
            ({"horizon": float("inf")}, "horizon"),
            ({"horizon": float("nan")}, "horizon"),
            ({"initial_free": (("A", 2.7),)}, "initial_free"),
            ({"initial_polymers": (("AC", 1.5),)}, "initial_polymers"),
            ({"initial_free": (("A", True),)}, "initial_free"),
            ({"initial_polymers": (("AC", True),)}, "initial_polymers"),
            ({"initial_free": (("A", 40), ("A", 5))}, "initial_free"),
            ({"initial_polymers": (("GAAG", 10), ("GAAG", 5))}, "initial_polymers"),
            ({"initial_free": (("A", 1, 2),)}, "initial_free"),
            ({"initial_polymers": (("GA",),)}, "initial_polymers"),
            ({"initial_polymers": ((("G", "A"), 3),)}, "initial_polymers"),
        ],
    )
    def test_config_rejects_non_finite_and_non_integer(self, kwargs, field):
        with pytest.raises(ConfigError, match=field):
            SoupConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_replicates", 2.5), ("n_replicates", 2.0), ("master_seed", 1.5),
            ("master_seed", "1"), ("master_seed", True), ("n_replicates", True),
        ],
    )
    def test_config_rejects_non_integer_counts(self, field, value):
        with pytest.raises(ConfigError, match=f"^key '{field}': must be an integer$"):
            SoupConfig(**{field: value})

    def test_config_accepts_numpy_integer_counts(self):
        config = SoupConfig(n_replicates=np.int64(2), master_seed=np.uint64(3))
        assert config.n_replicates == 2 and config.master_seed == 3

    def test_config_validation_names_field(self):
        with pytest.raises(ConfigError, match="k_cat"):
            SoupConfig(k_cat=-1)
        with pytest.raises(ConfigError, match="initial_polymers"):
            SoupConfig(initial_polymers=(("A", 3),))
        with pytest.raises(ConfigError, match="horizon"):
            SoupConfig(horizon=0)
        with pytest.raises(ConfigError, match="motif"):
            SoupConfig(motif="AXA")
        with pytest.raises(ConfigError, match="^key 'motif': must be a string$"):
            SoupConfig(motif=("G", "A"))  # its text form would not parse back

    def test_zero_kcat_arms_identical(self):
        report = run_catalysis_experiment(
            SoupConfig(k_cat=0.0, n_replicates=5, master_seed=3)
        )
        for o in report.outcomes:
            assert o.treatment_free_a == o.control_free_a
            assert o.treatment_p_count == o.control_p_count
        assert report.ties == 5

    def test_no_targets_arms_identical(self):
        # no free A and no detachment: an AAA ending can never form, so
        # the catalysis channel stays silent and the arms never diverge
        report = run_catalysis_experiment(
            SoupConfig(
                initial_free=(("A", 0), ("C", 40), ("G", 40), ("U", 40)),
                initial_polymers=(("GAAG", 10), ("CCCC", 5)),
                k_off=0.0,
                n_replicates=5,
                master_seed=4,
            )
        )
        for o in report.outcomes:
            assert o.treatment_free_a == o.control_free_a
        assert report.ties == 5

    def test_treatment_beats_control(self):
        report = run_catalysis_experiment(SoupConfig(n_replicates=10, master_seed=5))
        assert report.treatment_wins > report.control_wins
        assert report.p_value < 0.05

    def test_deterministic(self):
        cfg = SoupConfig(n_replicates=4, master_seed=6)
        assert run_catalysis_experiment(cfg) == run_catalysis_experiment(cfg)


# Frozen soup goldens, last generated when every variate became a uniform
# (label keyed-u32-v3): any change in the number or order of RNG draws, in
# the stream derivation, or in what an event does, changes these digests.

def _cli_csv_sha256(tmp_path, args, config_text=None):
    from prenelab.cli import main

    extra = []
    if config_text is not None:
        (tmp_path / "soup.cfg").write_text(config_text)
        extra = ["--config", str(tmp_path / "soup.cfg")]
    out = tmp_path / "out.csv"
    with redirect_stdout(io.StringIO()):
        assert main([*args, *extra, "--out", str(out)]) == 0
    return hashlib.sha256(out.read_bytes()).hexdigest()


def test_frozen_time_series(tmp_path):
    # 21 sample rows at the default scenario (horizon 10)
    digest = _cli_csv_sha256(tmp_path, ["soup", "run", "--seed", "5", "--samples", "20"])
    assert digest == "848778eb6369a24d4254234acefc7acb2edfa2c568aecd2e67f9f36532a70636"


def test_frozen_experiment(tmp_path):
    digest = _cli_csv_sha256(
        tmp_path,
        ["soup", "run", "--seed", "5", "--experiment"],
        "n_replicates = 6\nhorizon = 5.0\n",
    )
    assert digest == "1fba6a0089a0f7f0e2a950681abc91e06ed8c5dd9c072a24bd91adb3b27374a6"


def test_frozen_scaled_reactor():
    # 100x the default pools for 10,000 events: the species table grows
    # to 190 rows, past several capacity doublings of the pick trees
    cfg = SoupConfig()
    state = ReactorState(
        {letter: 100 * n for letter, n in cfg.initial_free},
        {seq: 100 * n for seq, n in cfg.initial_polymers},
        cfg.k_on, cfg.k_off, cfg.k_cat, CatalystRule(cfg.motif),
    )
    gen = rng.stream(77, 3)
    run_events(state, 10_000, gen)
    summary = {
        "time": repr(state.time),
        "free": [int(x) for x in state.free],
        "species": sorted(state.species.items()),
        "next_draw": repr(gen.random()),
    }
    text = json.dumps(summary, sort_keys=True, separators=(",", ":"))
    assert len(state.seqs) == 190
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "f990aa7b2c43c981aca8c1182cc8f23b88b363be3b9a2d7598b40feb6943cf5a"
    )
