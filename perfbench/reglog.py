"""Seeded registry event logs and a replay oracle for their queries.

The log is written directly as canonical JSON lines (the format
`prene-lab registry ingest` emits), without going through
`prenelab.registry`, so `ingest` must reproduce it byte for byte.  The
oracle replays the same records with its own object table and its own
normalization and answers every query the benchmark asks by brute force.
It shares no code with the module it checks.
"""

from __future__ import annotations

import base64
import json
import random
import re

SUBSTRATES = ("nucleic_acid", "brain", "computer", "document", "other:stone")
# Every content carries this core, so the longest substring shared by all
# live objects is never empty and the search has real work to do.
CORE = b" gaag "
_WHITESPACE = re.compile(rb"[ \t\n\r\x0b\x0c]+")


def _words(rnd: random.Random, n: int) -> list[bytes]:
    letters = "bcdfghjklmnpqrstvwxz"
    out: set[bytes] = set()
    while len(out) < n:
        out.add("".join(rnd.choice(letters) for _ in range(rnd.randint(3, 6))).encode())
    return sorted(out)


def _document_variant(rnd: random.Random, canonical: bytes) -> bytes:
    """Same normalized document, different stored bytes: case and spacing."""
    head, tail = canonical.split(CORE)
    if rnd.random() < 0.5:
        head = head.upper()
    pad = b" " * rnd.randint(0, 2)
    return pad + head + b" " + CORE + b"  " + tail + pad


def generate(seed: int, n_events: int) -> tuple[list[dict], list[bytes]]:
    """A valid create/destroy/transcribe log and its canonical contents.

    Returns (records, contents): records in log order as dicts with the
    canonical key order, and the distinct canonical contents created.
    """
    rnd = random.Random(seed)
    words = _words(rnd, 24)
    contents = sorted({a + CORE + b for a in words[:12] for b in words[12:]})
    contents = rnd.sample(contents, 40)
    records: list[dict] = []
    alive: list[tuple[int, str]] = []  # (object id, substrate)
    next_id = 1
    for i in range(n_events):
        roll = rnd.random()
        if not alive or roll < 0.38:
            substrate = rnd.choice(SUBSTRATES)
            content = rnd.choice(contents)
            if substrate == "document" and rnd.random() < 0.5:
                content = _document_variant(rnd, content)
            src = rnd.choice(alive)[0] if alive and rnd.random() < 0.2 else None
            record = {
                "i": i, "kind": "create", "obj": next_id, "substrate": substrate,
                "content_b64": base64.b64encode(content).decode("ascii"), "src": src,
            }
            alive.append((next_id, substrate))
            next_id += rnd.randint(1, 3)
        elif roll < 0.70:
            source_id, source_substrate = rnd.choice(alive)
            substrate = rnd.choice([s for s in SUBSTRATES if s != source_substrate])
            record = {
                "i": i, "kind": "transcribe", "obj": next_id, "substrate": substrate,
                "content_b64": None, "src": source_id,
            }
            alive.append((next_id, substrate))
            next_id += rnd.randint(1, 3)
        else:
            victim = alive.pop(rnd.randrange(len(alive)))
            record = {
                "i": i, "kind": "destroy", "obj": victim[0], "substrate": None,
                "content_b64": None, "src": None,
            }
        records.append(record)
    return records, contents


def to_text(records: list[dict]) -> str:
    return "".join(json.dumps(r, separators=(",", ":")) + "\n" for r in records)


class Replay:
    """Brute-force answers over a replayed log; t is an event index."""

    def __init__(self, records: list[dict]):
        self.n_events = len(records)
        # id -> [substrate, raw content, created, destroyed, source]
        self.objects: dict[int, list] = {}
        for r in records:
            if r["kind"] == "create":
                content = base64.b64decode(r["content_b64"])
                self.objects[r["obj"]] = [r["substrate"], content, r["i"], None, r["src"]]
            elif r["kind"] == "transcribe":
                content = self.objects[r["src"]][1]
                self.objects[r["obj"]] = [r["substrate"], content, r["i"], None, r["src"]]
            else:
                self.objects[r["obj"]][3] = r["i"]

    @staticmethod
    def normalized(substrate: str, content: bytes) -> bytes:
        if substrate != "document":
            return content
        return _WHITESPACE.sub(b" ", content.lower()).strip(b" ")

    def alive(self, t: int) -> list[tuple[str, bytes]]:
        """(substrate, normalized content) of every object alive at t."""
        return [
            (sub, self.normalized(sub, raw))
            for sub, raw, born, died, _ in self.objects.values()
            if born <= t and (died is None or died > t)
        ]

    def copy_number(self, target: bytes, t: int) -> int:
        return sum(1 for _, c in self.alive(t) if c == target)

    def classify(self, target: bytes, t: int) -> dict:
        subs = {s for s, c in self.alive(t) if c == target}
        return {"gene": "nucleic_acid" in subs, "meme": "brain" in subs, "turene": "computer" in subs}

    def lineage(self, target: bytes) -> dict:
        nodes = sorted(
            oid for oid, (sub, raw, *_) in self.objects.items()
            if self.normalized(sub, raw) == target
        )
        members = set(nodes)
        edges = sorted(
            [oid, o[4]] for oid, o in self.objects.items()
            if oid in members and o[4] in members
        )
        return {"nodes": nodes, "edges": edges}

    def longest_shared(self, t: int) -> tuple[bytes, int]:
        """(smallest longest common substring, number of alive objects)."""
        contents = [c for _, c in self.alive(t)]
        shortest = min(contents, key=len)
        for k in range(len(shortest), 0, -1):
            found = [
                piece
                for piece in {shortest[i : i + k] for i in range(len(shortest) - k + 1)}
                if all(piece in c for c in contents)
            ]
            if found:
                return min(found), len(contents)
        return b"", len(contents)
