"""Event-sourced store of content-bearing objects and their recognizers.

A world is an append-only log of create, destroy, and transcribe events
over stored objects.  Each object carries immutable content bytes on one
substrate (nucleic acid, brain, computer, document, or a named other).
A prene is a deciding recognizer over normalized content: its copy
number at a moment is how many alive objects it accepts, and the
substrate mix of those objects decides whether it currently counts as a
gene (nucleic acid), a meme (brain), a Turene (computer), or several at
once.

Queries are pure reads against the immutable log; the brute-force
versions in the test suite rescan the whole log and must agree with the
incremental answers here.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

__all__ = [
    "SUBSTRATES",
    "normalize",
    "Prene",
    "StoredObject",
    "Event",
    "World",
    "LogError",
    "Classification",
    "copy_number",
    "classify",
    "extinct",
    "lineage",
    "longest_shared",
]

SUBSTRATES = ("nucleic_acid", "brain", "computer", "document")


class LogError(ValueError):
    """An event that the append-only log must reject."""


def check_substrate(substrate: str) -> str:
    if substrate in SUBSTRATES or (
        substrate.startswith("other:") and len(substrate) > len("other:")
    ):
        return substrate
    raise LogError(
        f"substrate must be one of {SUBSTRATES} or 'other:<name>', got {substrate!r}"
    )


def normalize(content: bytes, substrate: str) -> bytes:
    """Substrate-specific canonical form of stored content.

    Documents are case- and whitespace-insensitive; every other substrate
    stores content verbatim.
    """
    if substrate == "document":
        return b" ".join(content.lower().split())
    return content


@dataclass(frozen=True)
class Prene:
    """A pure, deterministic membership predicate over normalized content."""

    id: str
    recognizer: Callable[[bytes], bool]

    @classmethod
    def exact(cls, target: bytes, id: Optional[str] = None) -> "Prene":
        name = id if id is not None else f"exact:{base64.b64encode(target).decode()}"
        return cls(name, lambda content: content == target)

    def accepts(self, content: bytes, substrate: str) -> bool:
        return bool(self.recognizer(normalize(content, substrate)))


@dataclass
class StoredObject:
    id: int
    substrate: str
    content: bytes
    created_at: int
    destroyed_at: Optional[int] = None
    source: Optional[int] = None

    def alive_at(self, t: int) -> bool:
        return self.created_at <= t and (self.destroyed_at is None or self.destroyed_at > t)


@dataclass(frozen=True)
class Event:
    """One log entry; unused fields are None for the given kind."""

    i: int
    kind: str  # "create" | "destroy" | "transcribe"
    obj: int
    substrate: Optional[str] = None
    content: Optional[bytes] = None
    src: Optional[int] = None

    def to_json_line(self) -> str:
        record = {
            "i": self.i,
            "kind": self.kind,
            "obj": self.obj,
            "substrate": self.substrate,
            "content_b64": (
                base64.b64encode(self.content).decode("ascii")
                if self.content is not None
                else None
            ),
            "src": self.src,
        }
        return json.dumps(record, separators=(",", ":"))


class World:
    """Append-only event log plus the object table it induces."""

    def __init__(self):
        self.events: list[Event] = []
        self.objects: dict[int, StoredObject] = {}

    # append API; every mutation funnels through _append

    def create(
        self,
        obj_id: int,
        substrate: str,
        content: bytes,
        src: Optional[int] = None,
    ) -> Event:
        return self._append(
            Event(len(self.events), "create", obj_id, check_substrate(substrate), bytes(content), src)
        )

    def destroy(self, obj_id: int) -> Event:
        return self._append(Event(len(self.events), "destroy", obj_id))

    def transcribe(self, src_id: int, new_id: int, substrate: str) -> Event:
        return self._append(
            Event(len(self.events), "transcribe", new_id, check_substrate(substrate), None, src_id)
        )

    def _append(self, event: Event) -> Event:
        if event.i != len(self.events):
            raise LogError(f"event index {event.i} breaks append-only order")
        now = event.i
        if event.kind == "create":
            if event.obj in self.objects:
                raise LogError(f"object id {event.obj} already exists")
            if event.src is not None:
                self._require_alive(event.src, now)
            self.objects[event.obj] = StoredObject(
                event.obj, event.substrate, event.content, now, source=event.src
            )
        elif event.kind == "destroy":
            target = self.objects.get(event.obj)
            if target is None or target.destroyed_at is not None:
                raise LogError(f"destroy of missing or dead object {event.obj}")
            target.destroyed_at = now
        elif event.kind == "transcribe":
            source = self._require_alive(event.src, now)
            if event.obj in self.objects:
                raise LogError(f"object id {event.obj} already exists")
            if event.substrate == source.substrate:
                raise LogError(
                    f"transcription must change substrate, both are {event.substrate!r}"
                )
            self.objects[event.obj] = StoredObject(
                event.obj, event.substrate, source.content, now, source=event.src
            )
        else:
            raise LogError(f"unknown event kind {event.kind!r}")
        self.events.append(event)
        return event

    def _require_alive(self, obj_id: Optional[int], now: int) -> StoredObject:
        obj = self.objects.get(obj_id)
        if obj is None or obj.destroyed_at is not None:
            raise LogError(f"source object {obj_id} does not exist or is not alive")
        return obj

    # time handling: t is an event index; the state at t includes the
    # effect of events 0..t.  t = -1 is the empty world before any event.

    @property
    def now(self) -> int:
        return len(self.events) - 1

    def _resolve_t(self, t: Optional[int]) -> int:
        if t is None:
            return self.now
        if not -1 <= t <= self.now:
            raise ValueError(f"t={t} outside log range [-1, {self.now}]")
        return t

    def alive_objects(self, t: Optional[int] = None) -> list[StoredObject]:
        at = self._resolve_t(t)
        return [o for o in self.objects.values() if o.alive_at(at)]

    # serialization

    def to_jsonl(self) -> str:
        return "".join(e.to_json_line() + "\n" for e in self.events)

    @classmethod
    def from_jsonl(cls, text: str) -> "World":
        world = cls()
        for lineno, line in enumerate(text.splitlines()):
            if not line.strip():
                raise LogError(f"line {lineno + 1}: blank line in event log")
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise LogError(f"line {lineno + 1}: not valid JSON ({exc.msg})") from None
            if not isinstance(record, dict):
                raise LogError(f"line {lineno + 1}: event must be a JSON object")
            missing = {"i", "kind", "obj"} - record.keys()
            if missing:
                raise LogError(f"line {lineno + 1}: missing fields {sorted(missing)}")
            kind = record["kind"]
            try:
                if kind == "create":
                    try:
                        content = base64.b64decode(record["content_b64"] or "", validate=True)
                    except (ValueError, TypeError):  # binascii.Error is a ValueError
                        raise LogError("content_b64 is not valid base64") from None
                    world.create(
                        record["obj"], record["substrate"], content, record.get("src")
                    )
                elif kind == "destroy":
                    world.destroy(record["obj"])
                elif kind == "transcribe":
                    world.transcribe(record["src"], record["obj"], record["substrate"])
                else:
                    raise LogError(f"unknown event kind {kind!r}")
            except LogError as exc:
                raise LogError(f"line {lineno + 1}: {exc}") from None
            if world.events[-1].i != record["i"]:
                raise LogError(
                    f"line {lineno + 1}: index {record['i']} breaks append-only order"
                )
        return world


# queries


def copy_number(world: World, prene: Prene, t: Optional[int] = None) -> int:
    """How many distinct alive objects store this prene at t."""
    return sum(
        1 for o in world.alive_objects(t) if prene.accepts(o.content, o.substrate)
    )


@dataclass(frozen=True)
class Classification:
    gene: bool
    meme: bool
    turene: bool


_FLAG_SUBSTRATE = {"gene": "nucleic_acid", "meme": "brain", "turene": "computer"}


def classify(world: World, prene: Prene, t: Optional[int] = None) -> Classification:
    """Which special-prene flags the alive copies currently earn.

    Flags may overlap; copies on document or other substrates keep a
    prene alive without earning any flag.
    """
    present = {
        o.substrate
        for o in world.alive_objects(t)
        if prene.accepts(o.content, o.substrate)
    }
    return Classification(
        gene="nucleic_acid" in present,
        meme="brain" in present,
        turene="computer" in present,
    )


def extinct(world: World, prene: Prene, t: Optional[int] = None) -> bool:
    return copy_number(world, prene, t) == 0


def lineage(world: World, prene: Prene) -> tuple[list[int], list[tuple[int, int]]]:
    """Provenance subgraph over every logged object the prene accepts.

    Nodes are accepting object ids (alive or not); an edge (child, parent)
    exists where the child's source link points at another accepting
    object.  Acyclic because sources must predate their copies.
    """
    accepted = [
        o.id for o in world.objects.values() if prene.accepts(o.content, o.substrate)
    ]
    node_set = set(accepted)
    edges = [
        (o.id, o.source)
        for o in world.objects.values()
        if o.id in node_set and o.source is not None and o.source in node_set
    ]
    return sorted(accepted), sorted(edges)


# taxonomy over content sets


def _normalized_contents(
    objects: Sequence[StoredObject] | Sequence[bytes],
) -> list[bytes]:
    out = []
    for obj in objects:
        if isinstance(obj, StoredObject):
            out.append(normalize(obj.content, obj.substrate))
        else:
            out.append(bytes(obj))
    return out


def _substrings_of_length(content: bytes, k: int) -> set[bytes]:
    return {content[i : i + k] for i in range(len(content) - k + 1)}


def longest_shared(objects: Sequence[StoredObject] | Sequence[bytes]) -> bytes:
    """One longest substring common to all contents, smallest on ties.

    Binary search over the answer length; each probe intersects the
    hashed k-substring sets of all contents.  Feasibility is monotone in
    k (any common k-substring contains common shorter ones), so the
    search is sound; the empty string is returned when nothing is shared.
    """
    if not objects:
        raise ValueError("need at least one object")
    contents = _normalized_contents(objects)

    def common_at(k: int) -> set[bytes]:
        sets = _substrings_of_length(contents[0], k)
        for other in contents[1:]:
            if not sets:
                break
            sets &= _substrings_of_length(other, k)
        return sets

    lo, hi = 0, min(len(c) for c in contents)  # lo always feasible
    best: set[bytes] = set()
    while lo < hi:
        mid = (lo + hi + 1) // 2
        found = common_at(mid)
        if found:
            lo = mid
            best = found
        else:
            hi = mid - 1
    if lo == 0:
        return b""
    return min(best)
