"""Config grammar: parsing, typing, rejection, and round-trip identity."""

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from _hypothesis import given, settings, st

from prenelab.config import (
    ConfigError,
    escape_config_from_text,
    parse_fraction,
    parse_pairs,
    serialize_escape_config,
    serialize_soup_config,
    soup_config_from_text,
)
from prenelab.replicator import EscapeConfig
from prenelab.soup import SoupConfig


class TestParsePairs:
    def test_basic_pairs_with_line_numbers(self):
        text = "a = 1\n\n# comment\nb.c = two words\n"
        assert parse_pairs(text) == [(1, "a", "1"), (4, "b.c", "two words")]

    def test_whitespace_is_forgiven(self):
        assert parse_pairs("  key   =   7  \n") == [(1, "key", "7")]

    @pytest.mark.parametrize(
        "text,fragment",
        [
            ("just words\n", "expected `key = value`"),
            ("3bad = 1\n", "bad key"),
            ("-lead = 1\n", "bad key"),
            ("k =\n", "empty value"),
            ("k = 1\nk = 2\n", "duplicate key"),
        ],
    )
    def test_syntax_errors_name_the_line(self, text, fragment):
        with pytest.raises(ConfigError, match=fragment) as err:
            parse_pairs(text)
        assert "line" in str(err.value)

    def test_duplicate_error_points_at_both_lines(self):
        with pytest.raises(ConfigError, match=r"line 3.*first on line 1"):
            parse_pairs("k = 1\n\nk = 2\n")

    def test_bad_utf8_bytes_rejected(self):
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_pairs(b"\xff\xfe = 1")

    def test_non_text_rejected(self):
        with pytest.raises(ConfigError, match="must be text"):
            parse_pairs(123)

    @given(st.one_of(st.text(max_size=200), st.binary(max_size=200)))
    @settings(max_examples=300, deadline=None)
    def test_parser_is_total(self, blob):
        # any input either parses or raises ConfigError, nothing else
        try:
            out = parse_pairs(blob)
        except ConfigError:
            return
        assert isinstance(out, list)
        for lineno, key, value in out:
            assert isinstance(lineno, int) and lineno >= 1
            assert key and value


class TestParseFraction:
    @pytest.mark.parametrize(
        "text,expected",
        [("1/2", Fraction(1, 2)), ("3", Fraction(3)), ("9/20", Fraction(9, 20)), ("0", Fraction(0))],
    )
    def test_accepts(self, text, expected):
        assert parse_fraction(text) == expected

    @pytest.mark.parametrize("text", ["0.5", "a/b", "1/0", "1/2/3", "", "1e-3"])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            parse_fraction(text)


class TestEscapeConfig:
    def test_empty_text_gives_defaults(self):
        assert escape_config_from_text("") == EscapeConfig()

    def test_seed_comes_from_caller_not_file(self):
        assert escape_config_from_text("", master_seed=9).master_seed == 9

    def test_overrides_apply(self):
        cfg = escape_config_from_text(
            "capacity = 17\nkill_probability = 0.25\ncoat_start = 3\ncoat_stop = 9\n"
        )
        assert cfg.capacity == 17
        assert cfg.kill_probability == 0.25
        assert cfg.coat_span == (3, 9)

    def test_unknown_key_named_with_line(self):
        with pytest.raises(ConfigError, match=r"line 2.*'speed'.*unknown key"):
            escape_config_from_text("capacity = 3\nspeed = 11\n")

    def test_bad_int_value_named(self):
        with pytest.raises(ConfigError, match=r"'capacity'.*bad int"):
            escape_config_from_text("capacity = many\n")

    def test_coat_keys_must_pair_up(self):
        with pytest.raises(ConfigError, match="together"):
            escape_config_from_text("coat_start = 0\n")

    def test_domain_validation_names_field(self):
        with pytest.raises(ConfigError, match="kill_probability") as err:
            escape_config_from_text("kill_probability = 1.5\n")
        assert err.value.key == "kill_probability"

    @pytest.mark.parametrize("key, value, message", [
        ("genome_length", 0, "must be >= 1"),
        ("offspring_per_virion", 0, "must be >= 1"),
        ("capacity", 0, "must be >= 1"),
        ("immune_delay", -1, "must be >= 0"),
        ("horizon", 0, "must be >= 1"),
        ("n_founders", 0, "must be >= 1"),
        ("n_pairs", 0, "must be >= 1"),
        ("base_rate", 1.0, "must lie in [0, 1)"),
        ("base_rate", -1e-9, "must lie in [0, 1)"),
        ("fidelity_rate", 1.0, "must lie in [0, 1)"),
        ("fidelity_rate", -1e-9, "must lie in [0, 1)"),
    ])
    def test_each_bound_and_rate_names_its_field(self, key, value, message):
        with pytest.raises(ConfigError) as err:
            EscapeConfig(**{key: value})
        assert str(err.value) == f"key {key!r}: {message}"
        if isinstance(value, int):  # the bound itself is accepted
            assert getattr(EscapeConfig(coat_span=(0, 1), **{key: value + 1}), key) == value + 1

    def test_round_trip_identity(self):
        text = "capacity = 17\nhot_factor = 12.5\nn_pairs = 3\n"
        once = escape_config_from_text(text, master_seed=4)
        twice = escape_config_from_text(serialize_escape_config(once), master_seed=4)
        assert once == twice

    def test_serialize_is_canonical(self):
        text = serialize_escape_config(EscapeConfig())
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys == sorted(keys)
        assert all(" = " in line for line in text.splitlines())

    def test_frozen_serialized_text(self):
        # exact text of the hand-listed serializer, frozen before the
        # serializers were built from the schemas
        assert serialize_escape_config(EscapeConfig()) == (
            "base_rate = 0.0005\ncapacity = 150\ncoat_start = 0\ncoat_stop = 60\n"
            "fidelity_rate = 1e-09\ngenome_length = 300\nhorizon = 40\n"
            "hot_factor = 10.0\nimmune_delay = 3\nkill_probability = 0.75\n"
            "n_founders = 10\nn_pairs = 100\noffspring_per_virion = 2\n"
        )


# A valid non-default text value for every scalar config field but master_seed.
ESCAPE_VALUES = {
    "genome_length": "400", "base_rate": "0.001", "hot_factor": "5.0",
    "fidelity_rate": "1e-08", "offspring_per_virion": "3", "capacity": "17",
    "immune_delay": "4", "kill_probability": "0.5", "horizon": "12",
    "n_founders": "3", "n_pairs": "7",
}
SOUP_VALUES = {
    "k_on": "0.001", "k_off": "0.5", "k_cat": "0.25", "motif": "GA",
    "horizon": "12.5", "n_replicates": "3",
}


per_config = pytest.mark.parametrize(
    "config_class, values, from_text, serialize",
    [
        (EscapeConfig, ESCAPE_VALUES, escape_config_from_text, serialize_escape_config),
        (SoupConfig, SOUP_VALUES, soup_config_from_text, serialize_soup_config),
    ],
    ids=["escape", "soup"],
)


def _scalar_fields(config_class) -> set[str]:
    return {
        f.name for f in dataclasses.fields(config_class)
        if not isinstance(f.default, tuple) and f.name != "master_seed"
    }


@per_config
def test_every_scalar_field_is_a_config_key(config_class, values, from_text, serialize):
    assert set(values) == _scalar_fields(config_class)
    default = config_class()
    for key, text in values.items():
        config = from_text(f"{key} = {text}\n", master_seed=5)
        value = getattr(config, key)
        assert value != getattr(default, key), key
        assert type(value) is type(getattr(default, key)), key
        assert str(value) == text, key
        assert from_text(serialize(config), master_seed=5) == config, key
        assert f"{key} = {text}\n" in serialize(config), key


@per_config
def test_float_fields_refuse_bools_and_round_trip(config_class, values, from_text, serialize):
    floats = [f.name for f in dataclasses.fields(config_class) if type(f.default) is float]
    assert floats
    for key in floats:
        for refused in (True, False, "0.5", None):
            with pytest.raises(ConfigError, match=f"^key '{key}': must be a float or an integer$"):
                config_class(**{key: refused})
        number = float(values[key])
        for accepted in (number, int(number), np.float64(number), np.int64(int(number))):
            config = config_class(**{key: accepted}, master_seed=5)
            parsed = from_text(serialize(config), master_seed=5)
            assert parsed == config, (key, accepted)
            assert type(getattr(parsed, key)) is float, (key, accepted)


@pytest.mark.parametrize("config_class", [EscapeConfig, SoupConfig])
def test_int_and_str_fields_refuse_other_kinds(config_class):
    refusals = {int: ("an integer", (True, 2.0, "2", None)), str: ("a string", (5, b"GA", None))}
    checked = set()
    for field in dataclasses.fields(config_class):
        kind = type(field.default)
        if kind in refusals:
            checked.add(kind)
            noun, refused = refusals[kind]
            for value in refused:
                with pytest.raises(ConfigError, match=f"^key '{field.name}': must be {noun}$"):
                    config_class(**{field.name: value})
    assert int in checked


@pytest.mark.parametrize("config_class", [EscapeConfig, SoupConfig])
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed_outside_u64_is_refused(config_class, seed):
    with pytest.raises(ConfigError) as err:
        config_class(master_seed=seed)
    assert str(err.value) == "key 'master_seed': must be an unsigned 64-bit integer"


def test_infinite_float_value_is_refused():
    with pytest.raises(ConfigError) as err:
        soup_config_from_text("horizon = inf\n")
    assert str(err.value) == "line 1, key 'horizon': bad float value 'inf' (must be finite)"


@pytest.mark.parametrize("key", ["master_seed", "coat_span", "initial_free", "initial_polymers"])
def test_seed_and_tuple_fields_are_not_keys(key):
    for from_text in (escape_config_from_text, soup_config_from_text):
        with pytest.raises(ConfigError, match="unknown key"):
            from_text(f"{key} = 1\n")


class TestSoupConfigText:
    def test_empty_text_gives_defaults(self):
        assert soup_config_from_text("") == SoupConfig()

    def test_free_and_polymer_keys(self):
        cfg = soup_config_from_text("free.A = 7\npolymer.GGAAA = 2\npolymer.CC = 1\n")
        assert dict(cfg.initial_free)["A"] == 7
        assert dict(cfg.initial_free)["C"] == 40  # untouched default
        # any polymer key replaces the default polymer set wholesale
        assert dict(cfg.initial_polymers) == {"GGAAA": 2, "CC": 1}

    def test_bad_free_letter(self):
        with pytest.raises(ConfigError, match=r"'free\.X'"):
            soup_config_from_text("free.X = 3\n")

    def test_foreign_free_letter_is_refused(self):
        with pytest.raises(ConfigError) as err:
            SoupConfig(initial_free=(("X", 1),))
        assert str(err.value) == "key 'initial_free': letters must be among ACGU"

    def test_bad_polymer_sequence_names_field(self):
        with pytest.raises(ConfigError, match="initial_polymers"):
            soup_config_from_text("polymer.AXA = 3\n")

    def test_domain_validation_names_field(self):
        with pytest.raises(ConfigError, match="k_on") as err:
            soup_config_from_text("k_on = -1.0\n")
        assert err.value.key == "k_on"

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            soup_config_from_text("kon = 1.0\n")

    def test_round_trip_identity(self):
        text = "k_cat = 0.25\nfree.G = 11\npolymer.GAAG = 4\nmotif = GA\n"
        once = soup_config_from_text(text, master_seed=2)
        twice = soup_config_from_text(serialize_soup_config(once), master_seed=2)
        assert once == twice

    def test_frozen_serialized_text(self):
        # exact text of the hand-listed serializer, frozen before the
        # serializers were built from the schemas
        cfg = SoupConfig(
            initial_free=(("A", 7), ("C", 0), ("G", 11), ("U", 40)),
            initial_polymers=(("CC", 1), ("GAAG", 4), ("GGAAA", 2)),
            k_on=0.1, k_off=3.0000000000000004, k_cat=0.25,
            motif="GA", horizon=12.5, n_replicates=3, master_seed=9,
        )
        assert serialize_soup_config(cfg) == (
            "free.A = 7\nfree.C = 0\nfree.G = 11\nfree.U = 40\nhorizon = 12.5\n"
            "k_cat = 0.25\nk_off = 3.0000000000000004\nk_on = 0.1\nmotif = GA\n"
            "n_replicates = 3\npolymer.CC = 1\npolymer.GAAG = 4\npolymer.GGAAA = 2\n"
        )

    def test_float_values_survive_round_trip_exactly(self):
        once = soup_config_from_text("k_on = 0.1\nk_off = 3.0000000000000004\n")
        twice = soup_config_from_text(serialize_soup_config(once))
        assert twice.k_on == once.k_on
        assert twice.k_off == once.k_off

    @given(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.integers(min_value=0, max_value=10**6),
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_identity_generated(self, k_on, free_a):
        text = f"k_on = {k_on!r}\nfree.A = {free_a}\n"
        once = soup_config_from_text(text)
        assert soup_config_from_text(serialize_soup_config(once)) == once
