"""Event-log validation, recognizer queries, and taxonomy operations."""

from pathlib import Path

import numpy as np
import pytest

from _world_gen import (
    CONTENT_POOL,
    FIXED_POINT_POOL,
    brute_copy_number,
    brute_flags,
    brute_lineage,
    brute_longest_shared,
    random_faithful_world,
    random_world,
)
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


class TestNormalize:
    def test_document_lowercased_and_collapsed(self):
        assert normalize(b"  The   ORIGIN\tof species ", "document") == b"the origin of species"

    @pytest.mark.parametrize("substrate", ["nucleic_acid", "brain", "computer", "other:tape"])
    def test_other_substrates_verbatim(self, substrate):
        assert normalize(b"  MiXeD  ", substrate) == b"  MiXeD  "


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
        assert w.objects[3].content == b"x"

    def test_bad_substrate_rejected(self):
        w = World()
        with pytest.raises(LogError):
            w.create(1, "parchment", b"x")
        with pytest.raises(LogError):
            w.create(1, "other:", b"x")
        w.create(1, "other:parchment", b"x")

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
                created = {o.id: o.created_at for o in w.objects.values()}
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

    def test_uses_normalized_object_contents(self):
        w = World()
        w.create(1, "document", b"The RING")
        w.create(2, "computer", b"bring")
        objs = list(w.objects.values())
        assert longest_shared(objs) == b"ring"

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
