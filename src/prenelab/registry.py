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
incremental answers here.  Each object's normalized content is computed
once, when the object is created, so a query only runs the recognizer.
"""

from __future__ import annotations

import base64
import json
from dataclasses import dataclass, field
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

from .rng import is_int

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
        isinstance(substrate, str)
        and substrate.startswith("other:")
        and len(substrate) > len("other:")
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


@dataclass(slots=True)
class StoredObject:
    id: int
    substrate: str
    content: bytes
    created_at: int
    destroyed_at: Optional[int] = None
    source: Optional[int] = None
    # normalize(content, substrate), fixed at creation; queries read only this
    _normalized: bytes = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self._normalized = normalize(self.content, self.substrate)


class Event(NamedTuple):
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

    # append API; ids are checked here (from_jsonl checks its own), events in _append

    def create(
        self, obj_id: int, substrate: str, content: bytes, src: Optional[int] = None
    ) -> Event:
        obj_id = _plain_id("obj_id", obj_id)
        src = None if src is None else _plain_id("src", src)
        return self._append(
            Event(len(self.events), "create", obj_id, substrate, bytes(content), src)
        )

    def destroy(self, obj_id: int) -> Event:
        return self._append(Event(len(self.events), "destroy", _plain_id("obj_id", obj_id)))

    def transcribe(self, src_id: int, new_id: int, substrate: str) -> Event:
        new_id = _plain_id("new_id", new_id)
        src_id = None if src_id is None else _plain_id("src_id", src_id)  # None fails as dead
        return self._append(
            Event(len(self.events), "transcribe", new_id, substrate, None, src_id)
        )

    def _append(self, event: Event) -> Event:
        """The one place an event is validated and applied."""
        now, kind, obj_id, substrate, content, src = event
        if now != len(self.events):
            raise LogError(f"event index {now} breaks append-only order")
        objects = self.objects
        if kind == "create":
            check_substrate(substrate)
            if obj_id in objects:
                raise LogError(f"object id {obj_id} already exists")
            if src is not None:
                self._require_alive(src, now)
            objects[obj_id] = StoredObject(obj_id, substrate, content, now, source=src)
        elif kind == "destroy":
            target = objects.get(obj_id)
            if target is None or target.destroyed_at is not None:
                raise LogError(f"destroy of missing or dead object {obj_id}")
            target.destroyed_at = now
        elif kind == "transcribe":
            check_substrate(substrate)
            source = self._require_alive(src, now)
            if obj_id in objects:
                raise LogError(f"object id {obj_id} already exists")
            if substrate == source.substrate:
                raise LogError(f"transcription must change substrate, both are {substrate!r}")
            objects[obj_id] = StoredObject(obj_id, substrate, source.content, now, source=src)
        else:
            raise LogError(f"unknown event kind {kind!r}")
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
        return [
            o
            for o in self.objects.values()
            if o.created_at <= at and (o.destroyed_at is None or o.destroyed_at > at)
        ]

    # serialization

    def to_jsonl(self) -> str:
        return "".join(e.to_json_line() + "\n" for e in self.events)

    @classmethod
    def from_jsonl(cls, text: str) -> "World":
        """Replay a log in the to_jsonl format, rejecting its first bad line.

        Each line is one JSON object whose `i`, `obj` and any non-null
        `src` are JSON integers (booleans and floats are refused); every
        event is built once and validated by _append.  _parse_lines
        parses many lines per `json.loads` call without changing any
        `line N:` message.
        """
        world = cls()
        events = world.events
        for lineno, record in enumerate(_parse_lines(text), 1):
            try:
                if not isinstance(record, dict):
                    raise LogError("event must be a JSON object")
                _require(record, _EVENT_FIELDS)
                src = record.get("src")
                if not (type(record["i"]) is int and type(record["obj"]) is int
                        and (src is None or type(src) is int)):
                    raise LogError(_id_error(record))
                kind = record["kind"]
                if kind == "create":
                    try:
                        content = base64.b64decode(record.get("content_b64") or "", validate=True)
                    except (ValueError, TypeError):  # binascii.Error is a ValueError
                        raise LogError("content_b64 is not valid base64") from None
                    _require(record, _CREATE_FIELDS)
                    event = Event(
                        len(events), kind, record["obj"], record["substrate"], content, src
                    )
                elif kind == "transcribe":
                    _require(record, _TRANSCRIBE_FIELDS)
                    event = Event(len(events), kind, record["obj"], record["substrate"], None, src)
                else:
                    event = Event(len(events), kind, record["obj"])
                world._append(event)
                if event.i != record["i"]:
                    raise LogError(f"index {record['i']} breaks append-only order")
            except LogError as exc:
                raise LogError(f"line {lineno}: {exc}") from None
        return world


_EVENT_FIELDS = frozenset(("i", "kind", "obj"))
_CREATE_FIELDS = frozenset(("content_b64", "substrate"))
_TRANSCRIBE_FIELDS = frozenset(("src", "substrate"))


def _require(record: dict, fields: frozenset) -> None:
    if not record.keys() >= fields:
        raise LogError(f"missing fields {sorted(fields - record.keys())}")


def _plain_id(name: str, value) -> int:
    """An id given to the append API as a plain int; bools and floats are refused."""
    if not is_int(value):
        raise LogError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _id_error(record: dict) -> str:
    """Names the first of i, obj and a non-null src that is not a JSON integer."""
    name = next(key for key in ("i", "obj", "src") if type(record.get(key)) is not int)
    return f"{name} must be an integer, got {json.dumps(record[name])}"


# Lines per guarded parse: bounds how many parsed records are held at once.
_PARSE_CHUNK = 1024


def _parse_lines(text: str) -> Iterator:
    """The JSON value of each line of a log, in order, parsed as needed.

    A log without '[' or ']' is parsed a chunk of lines per call, as the
    array of one-element rows "[[" + "]\\n,[".join(chunk) + "]]".  The
    result is used only when it has one row per line and each row holds
    exactly one value: without brackets in the text each row is
    self-contained, and strict JSON forbids a raw newline inside a
    string, so no string can run from one row into the next; a
    one-element row is then exactly the value `json.loads(line)` returns.
    In every other case (a blank line, a line holding two values, bad
    JSON, brackets anywhere) the chunk's lines are parsed one at a time
    as the replay reaches them, so every error names the same line, with
    the same message, as a per-line loader.
    """
    lines = text.splitlines()
    guarded = "[" not in text and "]" not in text
    for start in range(0, len(lines), _PARSE_CHUNK):
        chunk = lines[start : start + _PARSE_CHUNK]
        rows = _parse_rows(chunk) if guarded else None
        if rows is None:
            yield from _parse_each(chunk, start)
        else:
            for (value,) in rows:
                yield value


def _parse_rows(chunk: list[str]) -> Optional[list]:
    try:
        rows = json.loads("[[" + "]\n,[".join(chunk) + "]]")
    except (ValueError, RecursionError):  # json.JSONDecodeError is a ValueError
        return None
    if len(rows) == len(chunk) and all(type(row) is list and len(row) == 1 for row in rows):
        return rows
    return None


def _parse_each(lines: list[str], offset: int) -> Iterator:
    for lineno, line in enumerate(lines, offset + 1):
        if not line.strip():
            raise LogError(f"line {lineno}: blank line in event log")
        try:
            yield json.loads(line)
        except json.JSONDecodeError as exc:
            raise LogError(f"line {lineno}: not valid JSON ({exc.msg})") from None


# queries


def copy_number(world: World, prene: Prene, t: Optional[int] = None) -> int:
    """How many distinct alive objects store this prene at t."""
    accepts = prene.recognizer
    return sum(1 for o in world.alive_objects(t) if accepts(o._normalized))


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
    accepts = prene.recognizer
    present = {o.substrate for o in world.alive_objects(t) if accepts(o._normalized)}
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
    accepts = prene.recognizer
    accepted = [o.id for o in world.objects.values() if accepts(o._normalized)]
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
            out.append(obj._normalized)
        else:
            out.append(bytes(obj))
    return out


def _substrings_of_length(content: bytes, k: int) -> set[bytes]:
    return {content[i : i + k] for i in range(len(content) - k + 1)}


def longest_shared(objects: Sequence[StoredObject] | Sequence[bytes]) -> bytes:
    """One longest substring common to all contents, smallest on ties.

    Binary search over the answer length; each probe intersects the
    hashed k-substring sets of the distinct contents.  Feasibility is
    monotone in k (any common k-substring contains common shorter ones),
    so the search is sound; the empty string is returned when nothing is
    shared.
    """
    if not objects:
        raise ValueError("need at least one object")
    contents = list(dict.fromkeys(_normalized_contents(objects)))  # duplicates add nothing

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
