"""Line-oriented `key = value` scenario configs, keyed by the config dataclasses,
and the two errors for rejected outside input: ConfigError for a config or
flag value, LogError for an event log (raised by `registry`).

Grammar: UTF-8 text; blank lines and full-line `#` comments are ignored;
every other line is `key = value` with exactly one `=`.  Keys are dotted
identifiers.  A key is the name of an `EscapeConfig` or `SoupConfig`
field whose default is an int, float or str (`master_seed` excepted; it
is a flag), and its value is parsed as the default's type.  The tuple
fields have key families of their own: `coat_start`/`coat_stop` for
`coat_span`, `free.<LETTER>` and `polymer.<SEQUENCE>` for the soup
pools.  Unknown keys, bad types, and out-of-range values are rejected
with the line number and key named.  The parser never raises anything
but ConfigError, no matter the input bytes.  `is_int` (an int or NumPy
integer, never a bool) is the integer test of every field check.

Accepted configs round-trip: parse -> serialize -> parse gives the same
typed values, and serialize is canonical (sorted keys, one space around
`=`), so equal configs produce byte-identical files.
"""

from __future__ import annotations

import math
import operator
import re

__all__ = [
    "ConfigError",
    "LogError",
    "check_fields",
    "parse_pairs",
    "parse_fraction",
    "escape_config_from_text",
    "soup_config_from_text",
    "serialize_escape_config",
    "serialize_soup_config",
]

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*(\.[A-Za-z0-9_]+)*$")


class ConfigError(ValueError):
    """Config rejected; carries the offending line number and key."""

    def __init__(self, message: str, line: int | None = None, key: str | None = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if key is not None:
            where.append(f"key {key!r}")
        full = f"{', '.join(where)}: {message}" if where else message
        super().__init__(full)
        self.line = line
        self.key = key


class LogError(ValueError):
    """An event that the append-only log must reject."""


def parse_pairs(text) -> list[tuple[int, str, str]]:
    """Raw (line_number, key, value) triples, syntax checked only."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ConfigError(f"config is not valid UTF-8 ({exc.reason})") from None
    if not isinstance(text, str):
        raise ConfigError("config must be text")
    out = []
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError("expected `key = value`", line=lineno)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"bad key {key!r}", line=lineno)
        if not value:
            raise ConfigError("empty value", line=lineno, key=key)
        if key in seen:
            raise ConfigError(
                f"duplicate key (first on line {seen[key]})", line=lineno, key=key
            )
        seen[key] = lineno
        out.append((lineno, key, value))
    return out


def parse_fraction(value: str):
    """Exact rational from `p/q` or a bare integer literal."""
    from fractions import Fraction

    value = value.strip()
    if re.fullmatch(r"-?\d+(\s*/\s*\d+)?", value) is None:
        raise ValueError(f"not a fraction: {value!r}")
    try:
        return Fraction(value.replace(" ", ""))
    except ZeroDivisionError:
        raise ValueError(f"zero denominator: {value!r}") from None


def _typed(value: str, kind: type, line: int, key: str):
    try:
        out = kind(value)
        if kind is float and not math.isfinite(out):
            raise ValueError("must be finite")
        return out
    except ValueError as exc:
        raise ConfigError(
            f"bad {kind.__name__} value {value!r} ({exc})", line=line, key=key
        ) from None


def _schema(config_class) -> dict[str, type]:
    """Config key -> type: each field with an int, float or str default but the seed."""
    import dataclasses

    return {
        f.name: type(f.default)
        for f in dataclasses.fields(config_class)
        if type(f.default) in (int, float, str) and f.name != "master_seed"
    }


def is_int(value) -> bool:
    """True for ints and NumPy integers; bools and floats such as 2.0 are refused."""
    try:
        operator.index(value)  # operator.index(True) is 1, hence the bool test
    except TypeError:
        return False
    return not isinstance(value, bool)


def check_fields(config, at_least: dict[str, int]) -> None:
    """Each keyed field holds a value of its default's kind, so that the text form
    parses back: an int field an integer (not a bool), a float field a float or an
    integer, a str field a str; each field named in `at_least` (fixed per config
    class) is at least its bound; the seed is an unsigned 64-bit integer."""
    for key, kind in {**_schema(type(config)), "master_seed": int}.items():
        value = getattr(config, key)
        if kind is int and not is_int(value):
            raise ConfigError("must be an integer", key=key)
        if kind is float and not (isinstance(value, float) or is_int(value)):
            raise ConfigError("must be a float or an integer", key=key)
        if kind is str and not isinstance(value, str):
            raise ConfigError("must be a string", key=key)
    for key, low in at_least.items():
        if getattr(config, key) < low:
            raise ConfigError(f"must be >= {low}", key=key)
    if not 0 <= config.master_seed < 2**64:
        raise ConfigError("must be an unsigned 64-bit integer", key="master_seed")


def escape_config_from_text(text, master_seed: int = 0):
    """EscapeConfig from config text, including the coat_start/coat_stop keys."""
    from .replicator import EscapeConfig  # loads NumPy

    schema = _schema(EscapeConfig)
    kwargs = {}
    coat = {}
    for lineno, key, value in parse_pairs(text):
        if key in ("coat_start", "coat_stop"):
            coat[key] = _typed(value, int, lineno, key)
        elif key in schema:
            kwargs[key] = _typed(value, schema[key], lineno, key)
        else:
            raise ConfigError("unknown key", line=lineno, key=key)
    if coat:
        if set(coat) != {"coat_start", "coat_stop"}:
            raise ConfigError("coat_start and coat_stop must be given together")
        kwargs["coat_span"] = (coat["coat_start"], coat["coat_stop"])
    return EscapeConfig(master_seed=master_seed, **kwargs)


def soup_config_from_text(text, master_seed: int = 0):
    """SoupConfig from config text, including free.<L> and polymer.<SEQ> keys."""
    from .soup import SOUP_LETTERS, SoupConfig  # loads NumPy

    schema = _schema(SoupConfig)
    kwargs = {}
    free = dict(SoupConfig().initial_free)
    polymers: dict[str, int] = {}
    for lineno, key, value in parse_pairs(text):
        if key.startswith("free."):
            letter = key[len("free."):]
            if letter not in SOUP_LETTERS:
                raise ConfigError(
                    f"free monomer letter must be one of {SOUP_LETTERS}", line=lineno, key=key
                )
            free[letter] = _typed(value, int, lineno, key)
        elif key.startswith("polymer."):
            seq = key[len("polymer."):]
            polymers[seq] = _typed(value, int, lineno, key)
        elif key in schema:
            kwargs[key] = _typed(value, schema[key], lineno, key)
        else:
            raise ConfigError("unknown key", line=lineno, key=key)
    kwargs["initial_free"] = tuple(sorted(free.items()))
    if polymers:
        kwargs["initial_polymers"] = tuple(sorted(polymers.items()))
    return SoupConfig(master_seed=master_seed, **kwargs)


def _fmt(value) -> str:
    return repr(float(value)) if isinstance(value, float) else str(value)  # NumPy floats too


def serialize_escape_config(config) -> str:
    """Canonical text form; master_seed is a flag, not a config key."""
    pairs = {key: getattr(config, key) for key in _schema(type(config))}
    pairs["coat_start"], pairs["coat_stop"] = config.coat_span
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in sorted(pairs.items()))


def serialize_soup_config(config) -> str:
    pairs = {key: getattr(config, key) for key in _schema(type(config))}
    pairs.update((f"free.{letter}", n) for letter, n in config.initial_free)
    pairs.update((f"polymer.{seq}", n) for seq, n in config.initial_polymers)
    return "".join(f"{k} = {_fmt(v)}\n" for k, v in sorted(pairs.items()))
