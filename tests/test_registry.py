"""Event-log validation, recognizer queries, and taxonomy operations."""

import base64
import json
import os
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import _registry_oracle
from _world_gen import (
    all_objects,
    CONTENT_POOL,
    FIXED_POINT_POOL,
    brute_copy_number,
    brute_flags,
    brute_lineage,
    brute_longest_shared,
    random_faithful_world,
    random_world,
)
from prenelab import registry
from prenelab.registry import (
    Classification,
    LogError,
    Prene,
    World,
    classify,
    copy_number,
    extinct,
    lineage,
    longest_shared,
    normalize,
)

GOLDEN = Path(__file__).parent / "data" / "registry_golden.jsonl"


def golden_world() -> World:
    w = World()
    w.create(1, "nucleic_acid", b"POX")
    w.create(2, "document", b"  The Origin  ")
    w.transcribe(1, 3, "computer")
    w.create(4, "brain", b"POX")
    w.destroy(1)
    w.create(5, "document", b"the origin")
    w.destroy(4)
    w.transcribe(3, 6, "other:microfilm")
    w.destroy(3)
    return w


def test_registry_and_lifespan_import_without_numpy():
    code = "import sys, prenelab.registry, prenelab.lifespan; print('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.stdout == "False\n"


class TestNormalize:
    def test_document_lowercased_and_collapsed(self):
        assert normalize(b"  The   ORIGIN\tof species ", "document") == b"the origin of species"

    @pytest.mark.parametrize("substrate", ["nucleic_acid", "brain", "computer", "other:tape"])
    def test_other_substrates_verbatim(self, substrate):
        assert normalize(b"  MiXeD  ", substrate) == b"  MiXeD  "


def test_log_error_is_the_config_modules_value_error():
    from prenelab import config

    assert registry.LogError is config.LogError
    assert issubclass(LogError, ValueError)


class TestWorldAppend:
    def test_duplicate_id_rejected(self):
        w = World()
        w.create(1, "computer", b"x")
        with pytest.raises(LogError):
            w.create(1, "computer", b"y")

    def test_destroy_requires_alive(self):
        w = World()
        with pytest.raises(LogError):
            w.destroy(9)
        w.create(1, "computer", b"x")
        w.destroy(1)
        with pytest.raises(LogError):
            w.destroy(1)

    def test_create_source_must_be_alive(self):
        w = World()
        w.create(1, "computer", b"x")
        w.destroy(1)
        with pytest.raises(LogError):
            w.create(2, "computer", b"x", src=1)

    def test_transcribe_changes_substrate(self):
        w = World()
        w.create(1, "computer", b"x")
        with pytest.raises(LogError):
            w.transcribe(1, 2, "computer")
        w.transcribe(1, 3, "brain")
        assert all_objects(w)[3].content == b"x"

    def test_bad_substrate_rejected(self):
        w = World()
        with pytest.raises(LogError):
            w.create(1, "parchment", b"x")
        with pytest.raises(LogError):
            w.create(1, "other:", b"x")
        w.create(1, "other:parchment", b"x")

    @pytest.mark.parametrize(
        "append",
        [
            lambda w: w.create(True, "brain", b"x"),
            lambda w: w.create(1.5, "brain", b"x"),
            lambda w: w.create("1", "brain", b"x"),
            lambda w: w.create(2, "brain", b"x", src=True),
            lambda w: w.create(2, "brain", b"x", src=1.0),
            lambda w: w.transcribe(True, 2, "computer"),
            lambda w: w.transcribe(1, False, "computer"),
            lambda w: w.transcribe(1, 2.0, "computer"),
            lambda w: w.destroy(True),
        ],
    )
    def test_non_integer_and_bool_ids_rejected(self, append):
        w = World()
        w.create(1, "brain", b"x")
        with pytest.raises(LogError, match="must be an integer"):
            append(w)
        assert World.from_jsonl(w.to_jsonl()).to_jsonl() == w.to_jsonl()

    def test_numpy_integer_ids_stored_as_ints_and_round_trip(self):
        w = World()
        w.create(np.int64(1), "brain", b"x")
        w.create(np.uint16(2), "document", b"y", src=np.int32(1))
        w.transcribe(np.uint64(2), np.int8(3), "computer")
        w.destroy(np.int16(1))
        assert all(type(obj) is int for _, _, obj, *_ in w.events)
        assert all(type(src) is int for *_, src in w.events if src is not None)
        text = w.to_jsonl()
        assert World.from_jsonl(text).to_jsonl() == text

    def test_time_range_validated(self):
        w = golden_world()
        with pytest.raises(ValueError):
            w.alive_objects(99)
        with pytest.raises(ValueError):
            w.alive_objects(-2)
        assert w.alive_objects(-1) == []


class TestSerialization:
    def test_golden_file_byte_identical(self):
        text = GOLDEN.read_text()
        assert golden_world().to_jsonl() == text

    def test_round_trip_byte_identical(self):
        text = GOLDEN.read_text()
        assert World.from_jsonl(text).to_jsonl() == text

    def test_random_logs_round_trip(self):
        gen = np.random.default_rng(7)
        for _ in range(20):
            w = random_world(gen)
            text = w.to_jsonl()
            assert World.from_jsonl(text).to_jsonl() == text

    def test_jsonl_lines_is_an_iterator_over_the_lines_of_to_jsonl(self):
        worlds = [golden_world(), random_world(np.random.default_rng(11), 80), World()]
        for w in worlds:
            lines = w.jsonl_lines()
            assert iter(lines) is lines
            assert "".join(lines) == w.to_jsonl()
        assert list(golden_world().jsonl_lines()) == GOLDEN.read_text().splitlines(keepends=True)

    def test_jsonl_lines_holds_no_copy_of_the_log(self):
        # each line is made when asked for: neither the event list nor the text is built
        world = World.from_jsonl("\n".join(_long_log(2600)) + "\n")
        size = len(world.to_jsonl())
        tracemalloc.start()
        try:
            for _ in world.jsonl_lines():
                pass
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - retained <= 0.1 * size, (peak - retained, size)

    def test_writer_escapes_substrate_names_as_json_dumps(self):
        w = World()
        names = ['other:say "hi"', "other:back\\slash", "other:caf\u00e9", "other:tab\there\x01",
                 "other:line\u2028sep\x85"]
        for k, name in enumerate(names):
            w.create(k, name, b"x%d" % k, src=k - 1 if k else None)
        w.transcribe(0, 10, "other:na\u00efve")
        w.destroy(1)
        expected = "".join(
            json.dumps({
                "i": i, "kind": kind, "obj": obj, "substrate": substrate,
                "content_b64": None if content is None else base64.b64encode(content).decode(),
                "src": src,
            }, separators=(",", ":")) + "\n"
            for i, kind, obj, substrate, content, src in w.events
        )
        assert "\\u00e9" in expected and "\\u0001" in expected and "\\\"hi\\\"" in expected
        text = w.to_jsonl()
        assert text == expected
        assert World.from_jsonl(text).to_jsonl() == text

    @pytest.mark.parametrize(
        "bad_line",
        [
            "not json",
            '"just a string"',
            '{"i":0,"kind":"create"}',
            '{"i":5,"kind":"create","obj":1,"substrate":"brain","content_b64":"eA==","src":null}',
            '{"i":0,"kind":"vanish","obj":1,"substrate":null,"content_b64":null,"src":null}',
            "",
        ],
    )
    def test_malformed_lines_named(self, bad_line):
        with pytest.raises(LogError, match="line 1"):
            World.from_jsonl(bad_line + "\n")


def _record(i, kind, obj, substrate=None, content_b64=None, src=None) -> str:
    fields = {"i": i, "kind": kind, "obj": obj, "substrate": substrate,
              "content_b64": content_b64, "src": src}
    return json.dumps(fields, separators=(",", ":"))


def _long_log(n_events: int) -> list[str]:
    """A valid log of creates, transcribes and destroys, every line in to_jsonl's form."""
    w = World()
    for i in range(n_events):
        if i % 3 == 2:
            w.transcribe(i - 1, i, "computer")
        elif i % 3 == 1:
            w.create(i, "document", b"Some  Text %d" % (i % 7))
        elif i >= 3:
            w.destroy(i - 2)
        else:
            w.create(i, "brain", b"x")
    return w.to_jsonl().splitlines()


def _corruptions(lines: list[str], k: int) -> dict[str, list[str]]:
    """Ways to break line k (0-based) of a valid log, each a whole new log."""
    record = json.loads(lines[k])
    i = record["i"]
    out = {
        "blank": [""],
        "spaces": ["   "],
        "bad json": ["{not json"],
        "string": ['"just a string"'],
        "number": ["5"],
        "null": ["null"],
        "two values": [lines[k] + "," + lines[k]],
        "missing i": [json.dumps({key: v for key, v in record.items() if key != "i"})],
        "missing obj and kind": [json.dumps({"i": i})],
        "order break": [_record(i + 5, "create", 10**6, "brain", "eA==")],
        "unknown kind": [_record(i, "vanish", 10**6)],
        "bad base64": [_record(i, "create", 10**6, "brain", "!!")],
        "base64 in a list": [_record(i, "create", 10**6, "brain", ["eA=="])],
        "bad substrate": [_record(i, "create", 10**6, "tablet", "eA==")],
        "missing source": [_record(i, "transcribe", 10**6, "computer", src=-7)],
        "destroy missing": [_record(i, "destroy", 10**6)],
        "string across lines": [lines[k][:-1] + ',"pad":"x', 'y"}'],
    }
    if k > 3:
        out["duplicate id"] = [_record(i, "create", 0, "brain", "eA==")]
        out["dead source"] = [_record(i, "transcribe", 10**6, "computer", src=1)]  # destroyed at 3
        # each fails two checks; _ORDER_MESSAGES names the one that must win
        out["create: substrate, duplicate id"] = [_record(i, "create", 0, "tablet", "eA==")]
        out["create: duplicate id, dead source"] = [_record(i, "create", 0, "brain", "eA==", src=1)]
        out["transcribe: substrate, dead source"] = [_record(i, "transcribe", 10**6, "tablet", src=1)]
        out["transcribe: dead source, duplicate id"] = [_record(i, "transcribe", 0, "computer", src=1)]
        out["transcribe: duplicate id, same substrate"] = [_record(i, "transcribe", 0, "brain", src=0)]
        out["duplicate id, order break"] = [_record(i + 5, "create", 0, "brain", "eA==")]
    # same substrate as its source: line k - 1 created obj k - 1 on "document"
    if record["kind"] == "transcribe":
        out["same substrate"] = [_record(i, "transcribe", 10**6, "document", src=i - 1)]
    return {name: lines[:k] + bad + lines[k + 1 :] for name, bad in out.items()}


_SUBSTRATE_MESSAGE = f"substrate must be one of {registry.SUBSTRATES} or 'other:<name>', got 'tablet'"
_ORDER_MESSAGES = {
    "create: substrate, duplicate id": _SUBSTRATE_MESSAGE,
    "create: duplicate id, dead source": "object id 0 already exists",
    "transcribe: substrate, dead source": _SUBSTRATE_MESSAGE,
    "transcribe: dead source, duplicate id": "source object 1 does not exist or is not alive",
    "transcribe: duplicate id, same substrate": "object id 0 already exists",
    "duplicate id, order break": "object id 0 already exists",
}


def _create_holding(field: str, inner: str) -> str:
    """A create line whose substrate or content_b64 string has `inner` in its middle."""
    line = _record(0, "create", 1, "other:ab", "eA==")
    if field == "substrate":
        return line.replace('"other:ab"', f'"other:a{inner}b"')
    return line.replace('"eA=="', f'"eA{inner}=="')


def _loads_like_oracle(text: str) -> World:
    got, expected = World.from_jsonl(text), _registry_oracle.load(text)
    assert got.events == expected.events
    assert all_objects(got) == all_objects(expected)
    return got


def _fails_like_oracle(text: str) -> str:
    message = _message(World.from_jsonl, text)
    assert message == _message(_registry_oracle.load, text)
    return message


def _message(load, text):
    with pytest.raises(LogError) as info:
        load(text)
    return str(info.value)


class TestLoader:
    """The streaming loader must reject exactly what the per-line loader
    rejects, with the same message, and accept the same logs."""

    def test_corrupted_logs_match_per_line_loader(self):
        lines = _long_log(2600)
        for k in (0, 1, 2, 1023, 1024, 1025, 2048, 2599):
            for name, bad in _corruptions(lines, k).items():
                text = "\n".join(bad) + "\n"
                expected = _message(_registry_oracle.load, text)
                assert _message(World.from_jsonl, text) == expected, (k, name)
                assert expected.startswith(f"line {k + 1}: "), (k, name, expected)
                if name in _ORDER_MESSAGES:
                    assert expected == f"line {k + 1}: {_ORDER_MESSAGES[name]}", (k, name)

    def test_bracket_free_misaligned_log_rejected(self):
        ev0 = _record(0, "create", 1, "brain", "eA==")
        ev1 = _record(1, "create", 2, "brain", "eA==")
        pad = _record(2, "create", 3, "brain", "eA==")[:-1] + ',"pad":"x'
        text = f"{ev0},{ev1}\n{pad}\ny\"}}\n"
        assert "[" not in text and "]" not in text
        # joined with bare commas, the three lines parse as three plausible events
        assert len(json.loads("[" + ",".join(text.splitlines()) + "]")) == 3
        message = _message(World.from_jsonl, text)
        assert message == _message(_registry_oracle.load, text)
        assert message == "line 1: not valid JSON (Extra data)"

    def test_log_with_brackets_loads_through_fallback(self):
        w = World()
        w.create(1, "other:[vault]", b"x")
        w.transcribe(1, 2, "brain")
        w.destroy(1)
        text = w.to_jsonl()
        assert World.from_jsonl(text).to_jsonl() == text
        assert copy_number(World.from_jsonl(text), Prene.exact(b"x")) == 1
        bad = text + '{"i":3,"kind":"destroy","obj":1,"substrate":"other:[x]"}\n'
        assert _message(World.from_jsonl, bad) == _message(_registry_oracle.load, bad)

    def test_bracketed_log_never_parsed_as_one_array(self):
        # as one array of rows this reads as three rows of one value each
        e = [_record(i, "create", i, "brain", "eA==") for i in range(4)]
        text = f"{e[0]}],[{e[1]}\n[[{e[2]}\n{e[3]}]]\n"
        message = _message(World.from_jsonl, text)
        assert message == _message(_registry_oracle.load, text)
        assert message == "line 1: not valid JSON (Extra data)"

    def test_only_lines_outside_the_writers_form_reach_json_loads(self, monkeypatch):
        calls = []
        loads = registry.json.loads

        def counting(text, *args, **kwargs):
            calls.append(text)
            return loads(text, *args, **kwargs)

        monkeypatch.setattr(registry.json, "loads", counting)
        lines = _long_log(2600)
        text = "\n".join(lines) + "\n"
        assert World.from_jsonl(text).now + 1 == 2600
        assert calls == []
        # the same record with its keys in another order
        lines[1300] = json.dumps(dict(reversed(json.loads(lines[1300]).items())), separators=(",", ":"))
        calls.clear()
        permuted = "\n".join(lines) + "\n"
        assert World.from_jsonl(permuted).events == World.from_jsonl(text).events
        assert calls == [lines[1300]]

    def test_load_holds_no_copy_of_the_log(self):
        # one streaming pass: no list of lines or of parsed records lives beside the world
        text = "\n".join(_long_log(2600)) + "\n"
        tracemalloc.start()
        try:
            world = World.from_jsonl(text)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert world.now + 1 == 2600
        assert peak - retained <= 0.1 * len(text), (peak - retained, len(text))

    def test_valid_logs_load_like_per_line_loader(self):
        gen = np.random.default_rng(3)
        texts = [w.to_jsonl() for w in (random_world(gen, 80) for _ in range(10))]
        texts += ["", "\n".join(_long_log(2600)) + "\n", GOLDEN.read_text().replace("\n", "\r\n")]
        for text in texts:
            got, expected = World.from_jsonl(text), _registry_oracle.load(text)
            assert got.events == expected.events
            assert all_objects(got) == all_objects(expected)

    # lines to_jsonl never writes, each set read after a create of object 1;
    # all but the last set are valid
    CORPUS = {
        "duplicate key": ['{"i":1,"kind":"create","obj":5,"obj":2,"substrate":"brain",'
                          '"content_b64":"eA==","src":null}'],
        "unknown keys": ['{"i":1,"kind":"transcribe","obj":2,"substrate":"computer","src":1,'
                         '"note":"copied","extra":{"depth":2}}'],
        "permuted keys": ['{"src":null,"content_b64":"eQ==","substrate":"computer","obj":2,'
                          '"kind":"create","i":1}', '{"obj":1,"i":2,"kind":"destroy"}'],
        "non-canonical padding": [_record(1, "create", 2, "brain", "QR==")],
        "null content": [_record(1, "create", 2, "brain", None)],
        "same text, document and not": [_record(1, "create", 2, "document", "VGhlICBSaW5n"),
                                        _record(2, "create", 3, "computer", "VGhlICBSaW5n")],
        "duplicate key, last one bad": ['{"i":1,"kind":"destroy","obj":1,"obj":7}'],
    }

    @pytest.mark.parametrize("name", CORPUS)
    def test_corpus_loads_and_fails_like_per_line_loader(self, name):
        lines = [_record(0, "create", 1, "brain", "eA==")] + self.CORPUS[name]
        text = "\n".join(lines) + "\n"
        if name.endswith("bad"):
            assert _message(World.from_jsonl, text) == _message(_registry_oracle.load, text)
            assert _message(World.from_jsonl, text) == "line 2: destroy of missing or dead object 7"
            return
        got, expected = World.from_jsonl(text), _registry_oracle.load(text)
        assert got.events == expected.events
        assert all_objects(got) == all_objects(expected)
        assert got.to_jsonl() == expected.to_jsonl()
        bad = text + _record(len(lines), "create", 1, "brain", "eA==") + "\n"  # id 1 exists
        message = _message(World.from_jsonl, bad)
        assert message == _message(_registry_oracle.load, bad)
        assert message == f"line {len(lines) + 1}: object id 1 already exists"

    def test_non_canonical_padding_ingests_canonically(self):
        text = _record(0, "create", 1, "brain", "QR==") + "\n"
        world = World.from_jsonl(text)
        assert all_objects(world)[1].content == b"A"
        assert world.to_jsonl() == _record(0, "create", 1, "brain", "QQ==") + "\n"

    def test_same_text_on_document_and_not_is_two_contents(self):
        lines = TestLoader.CORPUS["same text, document and not"]
        text = _record(0, "create", 1, "brain", "eA==") + "\n" + "\n".join(lines) + "\n"
        world = World.from_jsonl(text)
        assert all_objects(world)[2].normalized == b"the ring"
        assert all_objects(world)[3].normalized == all_objects(world)[3].content == b"The  Ring"
        assert copy_number(world, Prene.exact(b"the ring")) == 1
        assert copy_number(world, Prene.exact(b"The  Ring")) == 1

    @pytest.mark.parametrize(
        "line, message",
        [
            (_record(0, "create", {}, "brain", "eA=="), "obj must be an integer, got {}"),
            (_record(0, "create", True, "brain", "eA=="), "obj must be an integer, got true"),
            (_record(0, "create", 1.5, "brain", "eA=="), "obj must be an integer, got 1.5"),
            (_record(0, "destroy", "1"), 'obj must be an integer, got "1"'),
            (_record(False, "create", 1, "brain", "eA=="), "i must be an integer, got false"),
            (_record(0.0, "create", 1, "brain", "eA=="), "i must be an integer, got 0.0"),
            (_record(0, "create", 1, "brain", "eA==", src=[1]), "src must be an integer, got [1]"),
            (_record(0, "transcribe", 2, "computer", src=[1]), "src must be an integer, got [1]"),
            (_record(0, "transcribe", 2, "computer", src=True), "src must be an integer, got true"),
        ],
    )
    def test_non_integer_ids_are_log_errors(self, line, message):
        first = _record(0, "create", 7, "brain", "eA==")
        # the bad record is line 2, with its index shifted to follow line 1
        line = line.replace('"i":0,', '"i":1,')
        assert _message(World.from_jsonl, f"{first}\n{line}\n") == f"line 2: {message}"

    @pytest.mark.parametrize(
        "record, missing",
        [
            ({"i": 1, "kind": "create", "obj": 2}, ["content_b64", "substrate"]),
            ({"i": 1, "kind": "create", "obj": 2, "content_b64": "eA=="}, ["substrate"]),
            ({"i": 1, "kind": "create", "obj": 2, "substrate": "brain"}, ["content_b64"]),
            ({"i": 1, "kind": "transcribe", "obj": 2, "substrate": "computer"}, ["src"]),
            ({"i": 1, "kind": "transcribe", "obj": 2, "src": 1}, ["substrate"]),
        ],
    )
    def test_missing_kind_fields_are_named(self, record, missing):
        # the per-line loader escapes these as a KeyError, so the messages are pinned here
        first = _record(0, "create", 1, "brain", "eA==")
        message = _message(World.from_jsonl, f"{first}\n{json.dumps(record)}\n")
        assert message == f"line 2: missing fields {missing}"

    @pytest.mark.parametrize("canonical", [True, False])
    def test_integer_past_the_digit_limit_is_a_log_error(self, canonical):
        # int() and json.loads refuse a 5000-digit integer with a plain ValueError
        first = _record(0, "create", 7, "brain", "eA==")
        line = _record(1, "create", 0, "brain", "eA==").replace('"obj":0', '"obj":' + "9" * 5000)
        if not canonical:
            line = line.replace('"i":1,', '"i": 1,')
        limit = sys.get_int_max_str_digits()
        message = _message(World.from_jsonl, f"{first}\n{line}\n")
        assert message == f"line 2: integer of more than {limit} digits"

    def test_true_id_no_longer_collides_with_one(self):
        text = _record(0, "create", 1, "brain", "eA==") + "\n"
        text += _record(1, "create", True, "brain", "eA==") + "\n"
        assert _message(World.from_jsonl, text) == "line 2: obj must be an integer, got true"

    def test_null_src_still_reaches_the_alive_check(self):
        text = _record(0, "create", 1, "brain", "eA==") + "\n"
        text += _record(1, "transcribe", 2, "computer", src=None) + "\n"
        assert _message(World.from_jsonl, text) == _message(_registry_oracle.load, text)

    def test_non_string_substrate_is_a_log_error(self):
        text = _record(0, "create", 1, None, "eA==") + "\n"
        assert _message(World.from_jsonl, text) == (
            "line 1: substrate must be one of ('nucleic_acid', 'brain', 'computer', "
            "'document') or 'other:<name>', got None"
        )

    @pytest.mark.parametrize("substrate", ['["brain"]', '{"brain":1}'])
    def test_unhashable_substrate_is_a_log_error(self, substrate):
        first = _record(0, "create", 1, "brain", "eA==") + "\n"
        for line in (_record(1, "create", 2, "brain", "eA=="), _record(1, "transcribe", 2, "computer", src=1)):
            line = line.replace('"brain"', substrate).replace('"computer"', substrate)
            assert _fails_like_oracle(first + line + "\n").startswith("line 2: substrate must be one of")

    # every character str.splitlines breaks a line at, besides "\n"
    BREAKS = ["\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    def test_line_breaks_split_lines_as_the_per_line_loader_does(self, brk):
        first = _record(0, "create", 1, "brain", "eA==")
        second = _record(1, "transcribe", 2, "computer", src=1)
        for text in (first + brk + second, first + brk + second + brk):
            assert _loads_like_oracle(text).now == 1
        assert _fails_like_oracle(first + brk + brk + second) == "line 2: blank line in event log"

    @pytest.mark.parametrize("brk", BREAKS, ids=ascii)
    @pytest.mark.parametrize("field", ["substrate", "content_b64"])
    def test_line_break_inside_a_string_ends_the_line(self, field, brk):
        text = _create_holding(field, brk) + "\n" + _record(1, "destroy", 1) + "\n"
        assert _fails_like_oracle(text) == "line 1: not valid JSON (Unterminated string starting at)"

    @pytest.mark.parametrize("char", ["\t", "\x00", "\x1f", "\x7f", "\\u0041", '\\"'], ids=ascii)
    @pytest.mark.parametrize("field", ["substrate", "content_b64"])
    def test_other_characters_inside_a_string_match_the_per_line_loader(self, field, char):
        text = _create_holding(field, char) + "\n" + _record(1, "destroy", 1) + "\n"
        if (field, char) in {("substrate", "\x7f"), ("substrate", "\\u0041"), ("substrate", '\\"')}:
            assert _loads_like_oracle(text).now == 1
        else:
            assert _fails_like_oracle(text).startswith("line 1: ")

    @pytest.mark.parametrize("number", ["-0", "01", "1.0", "1e2", "true"])
    @pytest.mark.parametrize("field", ["i", "obj", "src"])
    def test_integers_follow_json_grammar(self, field, number):
        lines = [_record(0, "create", 0, "brain", "eA=="), _record(1, "transcribe", 2, "computer", src=0)]
        k = 1 if field == "src" else 0
        lines[k] = lines[k].replace(f'"{field}":0', f'"{field}":{number}', 1)
        text = "\n".join(lines) + "\n"
        if number == "-0":
            assert [obj for _, _, obj, *_ in _loads_like_oracle(text).events] == [0, 2]
        elif number == "01":
            assert _fails_like_oracle(text) == f"line {k + 1}: not valid JSON (Expecting ',' delimiter)"
        else:  # the per-line loader names the append API's argument, and shows it by repr
            shown = json.dumps(json.loads(number))
            message = _message(World.from_jsonl, text)
            assert message == f"line {k + 1}: {field} must be an integer, got {shown}"
            assert _message(_registry_oracle.load, text).startswith(f"line {k + 1}: ")

    def test_grammar_edges_match_the_per_line_loader(self):
        first = _record(0, "create", 1, "brain", "eA==")
        second = _record(1, "destroy", 1)
        assert _fails_like_oracle(first.replace('"brain"', '""') + "\n") == (
            f"line 1: substrate must be one of {registry.SUBSTRATES} or 'other:<name>', got ''")
        escaped = _loads_like_oracle(first.replace('"brain"', '"\\u0062rain"') + "\n")
        assert all_objects(escaped)[1].substrate == "brain"
        assert _loads_like_oracle(first + " \n" + second + "\n").now == 1
        assert _fails_like_oracle("\ufeff" + first + "\n") == (
            "line 1: not valid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))")
        assert _loads_like_oracle(first + "\n" + second).now == 1
        assert _loads_like_oracle("").now == -1


@pytest.mark.parametrize("t", [0.5, True, "1"])
@pytest.mark.parametrize("query", ["copy_number", "classify", "alive_objects"])
def test_queries_refuse_non_integer_times(query, t):
    w = World()
    w.create(1, "document", b"x")
    w.create(2, "document", b"x")
    w.destroy(1)
    with pytest.raises(TypeError, match="t must be an integer"):
        if query == "alive_objects":
            w.alive_objects(t)
        else:
            getattr(registry, query)(w, Prene.exact(b"x"), t)


class TestCopyNumber:
    def test_empty_world_zero(self):
        assert copy_number(World(), Prene.exact(b"anything")) == 0

    def test_single_document(self):
        w = World()
        w.create(1, "document", b"hello world")
        assert copy_number(w, Prene.exact(b"hello world")) == 1

    def test_document_normalization_applies(self):
        w = World()
        w.create(1, "document", b"  Hello   WORLD ")
        assert copy_number(w, Prene.exact(b"hello world")) == 1
        assert copy_number(w, Prene.exact(b"  Hello   WORLD ")) == 0

    def test_golden_frozen_values(self):
        w = golden_world()
        pox = Prene.exact(b"POX")
        assert [copy_number(w, pox, t) for t in range(9)] == [1, 1, 2, 3, 2, 2, 1, 2, 1]
        assert copy_number(w, Prene.exact(b"the origin")) == 2

    def test_matches_brute_force_on_random_logs(self):
        gen = np.random.default_rng(11)
        for _ in range(30):
            w = random_world(gen)
            text = w.to_jsonl()
            for content in CONTENT_POOL:
                prene = Prene.exact(content)
                for t in range(-1, len(w.events)):
                    assert copy_number(w, prene, t) == brute_copy_number(text, content, t)


class TestClassify:
    def test_computer_and_nucleic_acid_copies(self):
        w = World()
        w.create(1, "nucleic_acid", b"POX")
        w.transcribe(1, 2, "computer")
        assert classify(w, Prene.exact(b"POX")) == Classification(
            gene=True, meme=False, turene=True
        )

    def test_no_copies_all_false_and_extinct(self):
        w = World()
        assert classify(w, Prene.exact(b"x")) == Classification(False, False, False)
        assert extinct(w, Prene.exact(b"x"))

    def test_transcribe_then_destroy_source(self):
        w = World()
        w.create(1, "nucleic_acid", b"POX")
        w.transcribe(1, 2, "computer")
        w.destroy(1)
        assert classify(w, Prene.exact(b"POX")) == Classification(
            gene=False, meme=False, turene=True
        )

    def test_document_copies_earn_no_flag(self):
        w = World()
        w.create(1, "document", b"idea")
        c = classify(w, Prene.exact(b"idea"))
        assert c == Classification(False, False, False)
        assert not extinct(w, Prene.exact(b"idea"))

    def test_matches_brute_force_on_random_logs(self):
        gen = np.random.default_rng(13)
        for _ in range(20):
            w = random_world(gen)
            text = w.to_jsonl()
            for content in CONTENT_POOL[:3]:
                prene = Prene.exact(content)
                for t in range(len(w.events)):
                    c = classify(w, prene, t)
                    assert (c.gene, c.meme, c.turene) == brute_flags(text, content, t)


class TestExtinct:
    def test_one_live_copy(self):
        w = World()
        w.create(1, "brain", b"x")
        assert not extinct(w, Prene.exact(b"x"))
        w.destroy(1)
        assert extinct(w, Prene.exact(b"x"))

    def test_faithful_copy_extinction_is_monotone(self):
        # a copy needs an alive source, so once the last copy of a content
        # is gone it can never come back (the genesis events seed it first)
        gen = np.random.default_rng(17)
        for _ in range(25):
            w = random_faithful_world(gen)
            for content in FIXED_POINT_POOL:
                prene = Prene.exact(content)
                seen_alive = False
                dead_since = None
                for t in range(len(w.events)):
                    if not extinct(w, prene, t):
                        seen_alive = True
                        assert dead_since is None, (
                            f"resurrected at t={t} after extinction at {dead_since}"
                        )
                    elif seen_alive and dead_since is None:
                        dead_since = t


class TestLineage:
    def test_single_genesis_object(self):
        w = World()
        w.create(1, "computer", b"x")
        assert lineage(w, Prene.exact(b"x")) == ([1], [])

    def test_chain_of_three_transcribes(self):
        w = World()
        w.create(1, "nucleic_acid", b"x")
        w.transcribe(1, 2, "computer")
        w.transcribe(2, 3, "brain")
        w.transcribe(3, 4, "document")
        nodes, edges = lineage(w, Prene.exact(b"x"))
        assert nodes == [1, 2, 3, 4]
        assert edges == [(2, 1), (3, 2), (4, 3)]

    def test_edges_respect_event_order_and_acyclic(self):
        gen = np.random.default_rng(19)
        for _ in range(15):
            w = random_world(gen)
            for content in CONTENT_POOL[:2]:
                nodes, edges = lineage(w, Prene.exact(content))
                created = {o.id: o.created_at for o in all_objects(w).values()}
                for child, parent in edges:
                    assert created[parent] < created[child]

    def test_matches_brute_force(self):
        gen = np.random.default_rng(23)
        for _ in range(15):
            w = random_world(gen)
            text = w.to_jsonl()
            for content in CONTENT_POOL[:3]:
                assert lineage(w, Prene.exact(content)) == brute_lineage(
                    text, content, len(w.events) - 1
                )


class TestRecognizerCalls:
    """A pure recognizer runs once per distinct normalized content, not per object."""

    def test_each_query_calls_it_once_per_distinct_content(self):
        pool = [("document", b"The Ring"), ("document", b"the  RING "), ("document", b"the ring"),
                ("computer", b"the ring"), ("brain", b"The Ring"), ("nucleic_acid", b"GATTACA")]
        gen = np.random.default_rng(31)
        w = World()
        for k in range(300):
            substrate, content = pool[int(gen.integers(len(pool)))]
            w.create(k, substrate, content)
            if k % 3 == 2:
                w.transcribe(k, 1000 + k, "other:tape")
            if k % 4 == 3:
                w.destroy(k - 2)
        distinct = {normalize(o.content, o.substrate) for o in all_objects(w).values()}
        assert len(distinct) < 10 < len(all_objects(w))
        calls = Counter()

        def counting(content):
            calls[content] += 1
            return content == b"the ring"

        prene, text, now = Prene("the ring", counting), w.to_jsonl(), len(w.events) - 1
        checks = [
            (lambda t: copy_number(w, prene, t), lambda t: brute_copy_number(text, b"the ring", t)),
            (lambda t: tuple(vars(classify(w, prene, t)).values()),
             lambda t: brute_flags(text, b"the ring", t)),
            (lambda t: extinct(w, prene, t), lambda t: brute_copy_number(text, b"the ring", t) == 0),
            (lambda t: lineage(w, prene), lambda t: brute_lineage(text, b"the ring", now)),
        ]
        for query, brute in checks:
            for t in (-1, now // 2, now):
                calls.clear()
                assert query(t) == brute(t)
                assert set(calls) <= distinct and max(calls.values(), default=1) == 1


class TestSharedSubstrings:
    def test_identical_contents_full_string(self):
        assert longest_shared([b"GATTACA", b"GATTACA"]) == b"GATTACA"

    def test_three_way_example(self):
        assert longest_shared([b"GATTACA", b"TTAC", b"ATTACG"]) == b"TTAC"

    def test_disjoint_alphabet_empty(self):
        assert longest_shared([b"GATTACA", b"TTAC", b"XYZ"]) == b""

    def test_tie_broken_lexicographically(self):
        # AB and CD both have length 2; AB sorts first
        assert longest_shared([b"ABXCD", b"CDYAB"]) == b"AB"

    def test_single_object_returns_itself(self):
        assert longest_shared([b"HELLO"]) == b"HELLO"

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            longest_shared([])

    def test_empty_input_is_named(self):
        with pytest.raises(ValueError, match="^need at least one object$"):
            longest_shared(())

    def test_uses_normalized_object_contents(self):
        w = World()
        w.create(1, "document", b"The RING")
        w.create(2, "computer", b"bring")
        objs = list(all_objects(w).values())
        assert longest_shared(objs) == b"ring"

    def test_duplicates_and_document_variants_change_nothing(self):
        w = World()
        w.create(1, "document", b"The  Ring of GATTACA")
        w.create(2, "document", b"the ring OF gattaca ")
        w.create(3, "computer", b"ring of gattaca")
        w.create(4, "computer", b"ring of gattaca")
        w.create(5, "brain", b"XXring of gatYY")
        objs = list(all_objects(w).values())
        distinct = [b"the ring of gattaca", b"ring of gattaca", b"XXring of gatYY"]
        assert longest_shared(objs) == longest_shared(distinct) == b"ring of gat"
        assert longest_shared(objs + objs[::-1]) == b"ring of gat"
        assert longest_shared([b"ABXCD", b"CDYAB", b"ABXCD", b"CDYAB"]) == b"AB"
        gen = np.random.default_rng(30)
        for _ in range(50):
            contents = [bytes(gen.choice(list(b"AB"), size=int(gen.integers(0, 9))).astype(np.uint8))
                        for _ in range(int(gen.integers(1, 4)))]
            repeated = [contents[int(i)] for i in gen.integers(0, len(contents), 12)]
            assert longest_shared(contents + repeated) == brute_longest_shared(contents)

    def test_matches_brute_force_on_random_cases(self):
        gen = np.random.default_rng(29)
        alphabet = list(b"ABC")
        for _ in range(150):
            n = int(gen.integers(1, 5))
            contents = [
                bytes(gen.choice(alphabet, size=int(gen.integers(0, 24))).astype(np.uint8))
                for _ in range(n)
            ]
            assert longest_shared(contents) == brute_longest_shared(contents)
