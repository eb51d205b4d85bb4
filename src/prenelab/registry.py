"""Event-sourced store of content-bearing objects and their recognizers.

A world is an append-only log of create, destroy, and transcribe events
over stored objects.  Each object carries immutable content bytes on one
substrate (nucleic acid, brain, computer, document, or a named other).
A prene is a deciding recognizer over normalized content: its copy
number at a moment is how many alive objects it accepts, and the
substrate mix of those objects decides whether it currently counts as a
gene (nucleic acid), a meme (brain), a Turene (computer), or several at
once.

Storage is columnar (a column store: Abadi, Madden & Hachem, SIGMOD
2008).  Objects are rows of per-field lists (id, created, destroyed,
source, content), indexed by an id -> row dict, and the log is two
lists: each event's kind and the row it acts on.  Contents are interned
by (raw bytes, substrate) (hash-consing: Filliâtre & Conchon, ML
Workshop 2006): a row's content is one shared record holding the raw
bytes, the substrate, the normalized bytes and the rows that store it,
so normalization runs once per distinct content and a query runs the
recognizer once per distinct normalized content, then filters only the
rows of the contents it accepts.  `World.events` and `alive_objects`
build read-only views from the columns when asked for, and
`World.jsonl_lines` serializes the log a line at a time from the same
columns.

Queries are pure reads against the immutable log; the brute-force
versions in the test suite rescan the whole log and must agree with the
answers here.
"""

from __future__ import annotations

import base64
import json
import re
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .config import LogError, is_int

__all__ = [
    "SUBSTRATES",
    "normalize",
    "Prene",
    "StoredObject",
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
    """A pure, deterministic membership predicate over normalized content.

    Because the recognizer is pure, `copy_number`, `classify`, `extinct`
    and `lineage` call it at most once per distinct normalized content in
    the world, however many objects store that content.
    """

    id: str
    recognizer: Callable[[bytes], bool]

    @classmethod
    def exact(cls, target: bytes) -> "Prene":
        return cls(f"exact:{base64.b64encode(target).decode()}", lambda content: content == target)


class StoredObject(NamedTuple):
    """One logged object, read from the world's columns when asked for."""

    id: int
    substrate: str
    content: bytes
    created_at: int
    destroyed_at: Optional[int]
    source: Optional[int]
    normalized: bytes  # normalize(content, substrate)


class _Content:
    """One interned (raw bytes, substrate) pair and the rows that store it."""

    __slots__ = ("raw", "substrate", "normalized", "rows")

    def __init__(self, raw: bytes, substrate: str):
        self.raw, self.substrate, self.rows = raw, substrate, []
        self.normalized = normalize(raw, substrate)


class World:
    """Append-only event log plus the object table it induces."""

    def __init__(self):
        self._kinds: list[str] = []  # the log: each event's kind
        self._rows: list[int] = []  # and the row of the object it acts on
        self._row: dict[int, int] = {}  # object id -> row; rows are in creation order
        self._ids: list[int] = []
        self._created: list[int] = []
        self._destroyed: list[Optional[int]] = []
        self._source: list[Optional[int]] = []
        self._content: list[_Content] = []
        self._contents: dict[tuple[bytes, str], _Content] = {}
        self._substrates: set[str] = set()  # the substrates check_substrate has accepted

    # append API; ids are checked here (from_jsonl checks its own), events by one method per kind

    def create(self, obj_id: int, substrate: str, content: bytes, src: Optional[int] = None) -> None:
        obj_id = _plain_id("obj_id", obj_id)
        src = None if src is None else _plain_id("src", src)
        self._create(obj_id, substrate, bytes(content), src)

    def destroy(self, obj_id: int) -> None:
        self._destroy(_plain_id("obj_id", obj_id))

    def transcribe(self, src_id: int, new_id: int, substrate: str) -> None:
        new_id = _plain_id("new_id", new_id)
        src_id = None if src_id is None else _plain_id("src_id", src_id)  # None fails as dead
        self._transcribe(new_id, substrate, src_id)

    def _create(self, obj_id: int, substrate, raw: bytes, src: Optional[int]) -> None:
        if type(substrate) is not str or substrate not in self._substrates:  # a JSON list is unhashable
            self._substrates.add(check_substrate(substrate))
        if obj_id in self._row:
            raise LogError(f"object id {obj_id} already exists")
        if src is not None:
            self._require_alive(src)
        self._new_row("create", obj_id, raw, substrate, src)

    def _transcribe(self, obj_id: int, substrate, src: Optional[int]) -> None:
        if type(substrate) is not str or substrate not in self._substrates:
            self._substrates.add(check_substrate(substrate))
        source = self._content[self._require_alive(src)]
        if obj_id in self._row:
            raise LogError(f"object id {obj_id} already exists")
        if substrate == source.substrate:
            raise LogError(f"transcription must change substrate, both are {substrate!r}")
        self._new_row("transcribe", obj_id, source.raw, substrate, src)

    def _destroy(self, obj_id: int) -> None:
        row = self._row.get(obj_id)
        if row is None or self._destroyed[row] is not None:
            raise LogError(f"destroy of missing or dead object {obj_id}")
        self._destroyed[row] = len(self._kinds)
        self._kinds.append("destroy")
        self._rows.append(row)

    def _new_row(self, kind: str, obj_id: int, raw: bytes, substrate: str, src: Optional[int]) -> None:
        content = self._contents.get((raw, substrate))
        if content is None:
            content = self._contents[raw, substrate] = _Content(raw, substrate)
        row = self._row[obj_id] = len(self._ids)
        content.rows.append(row)
        self._ids.append(obj_id)
        self._created.append(len(self._kinds))
        self._destroyed.append(None)
        self._source.append(src)
        self._content.append(content)
        self._kinds.append(kind)
        self._rows.append(row)

    def _require_alive(self, obj_id: Optional[int]) -> int:
        row = self._row.get(obj_id)
        if row is None or self._destroyed[row] is not None:
            raise LogError(f"source object {obj_id} does not exist or is not alive")
        return row

    # time handling: t is an event index; the state at t includes the
    # effect of events 0..t.  t = -1 is the empty world before any event.

    @property
    def now(self) -> int:
        return len(self._kinds) - 1

    @property
    def n_objects(self) -> int:
        """How many objects the log has created, alive or not."""
        return len(self._ids)

    def resolve_t(self, t: Optional[int]) -> int:
        """t checked against the log's range; None means `now`."""
        if t is None:
            return self.now
        if not is_int(t):
            raise TypeError(f"t must be an integer, got {t!r}")
        if not -1 <= t <= self.now:
            raise ValueError(f"t={t} outside log range [-1, {self.now}]")
        return t

    def _alive_rows(self, rows: Iterable[int], at: int) -> list[int]:
        """The given rows whose objects are alive at the resolved time at."""
        created, destroyed = self._created, self._destroyed
        return [
            r for r in rows
            if created[r] <= at and (destroyed[r] is None or destroyed[r] > at)
        ]

    # read-only views

    def _views(self, rows: Iterable[int]) -> list[StoredObject]:
        ids, created, destroyed, sources = self._ids, self._created, self._destroyed, self._source
        return [
            StoredObject(ids[r], c.substrate, c.raw, created[r], destroyed[r], sources[r], c.normalized)
            for r in rows
            for c in (self._content[r],)
        ]

    def _records(self) -> Iterator[tuple]:
        """Each event as an (i, kind, obj, substrate, content, src) tuple, in log order."""
        ids, contents, sources = self._ids, self._content, self._source
        for i, (kind, row) in enumerate(zip(self._kinds, self._rows)):
            if kind == "destroy":
                yield i, kind, ids[row], None, None, None
            else:
                c = contents[row]
                yield i, kind, ids[row], c.substrate, c.raw if kind == "create" else None, sources[row]

    @property
    def events(self) -> list[tuple]:
        """The log as (i, kind, obj, substrate, content, src) tuples, built on
        each call; a field the kind does not use is None.  `now + 1` is its
        length without building it, and `jsonl_lines` serializes it without
        building it.
        """
        return list(self._records())

    def alive_objects(self, t: Optional[int] = None) -> list[StoredObject]:
        at = self.resolve_t(t)
        return self._views(self._alive_rows(range(len(self._ids)), at))

    # serialization

    def jsonl_lines(self) -> Iterator[str]:
        """The log as text, one line per event, yielded as each is made.

        Each line is byte for byte `json.dumps(record, separators=(",", ":"))`
        of the event's record {"i", "kind", "obj", "substrate",
        "content_b64", "src"}, then "\\n".  Only the substrate string needs
        JSON escaping; each distinct substrate and content is encoded once.
        """
        quoted = {None: "null"}  # substrate -> its JSON string
        encoded = {None: "null"}  # content -> its base64 as a JSON string
        for i, kind, obj, substrate, content, src in self._records():
            sub = quoted.get(substrate) or quoted.setdefault(substrate, json.dumps(substrate))
            b64 = encoded.get(content) or encoded.setdefault(
                content, f'"{base64.b64encode(content).decode("ascii")}"'
            )
            yield (
                f'{{"i":{i},"kind":"{kind}","obj":{obj},"substrate":{sub},'
                f'"content_b64":{b64},"src":{"null" if src is None else src}}}\n'
            )

    def to_jsonl(self) -> str:
        """The whole log as one string: the lines of `jsonl_lines`, joined."""
        return "".join(self.jsonl_lines())

    @classmethod
    def from_jsonl(cls, text: str) -> "World":
        """Replay a log in the to_jsonl format, rejecting its first bad line.

        One streaming pass of _LINE over the text reads one line per
        match, counting lines as `str.splitlines` does.  A line in
        to_jsonl's own form gives its fields as regex groups and needs
        no `json.loads`; any other line is read by `json.loads` and
        shape-checked by _parse.  Either way `i`, `obj` and any non-null
        `src` are JSON integers (booleans and floats are refused), and
        each event is validated and applied by its kind's method, as in
        the append API.  Each distinct `content_b64` text is decoded once.
        """
        world = cls()
        create, transcribe, destroy, kinds = world._create, world._transcribe, world._destroy, world._kinds
        decoded: dict[str, bytes] = {}  # content_b64 text -> raw bytes
        for lineno, match in enumerate(_LINE.finditer(text), 1):
            i, kind, obj, substrate, b64, src, line = match.groups()
            try:
                if line is None:  # to_jsonl's own form
                    try:
                        i, obj, record = int(i), int(obj), None
                        if src is not None:
                            src = int(src)
                    except ValueError:  # _INT admits only digits: past int()'s limit
                        raise _long_int() from None
                else:
                    record = _parse(line)
                    i, kind, obj, substrate, b64, src = map(record.get, _FIELDS)
                if kind == "create":
                    # JSON null, false, 0, "", [] and {} all read as empty content
                    b64 = b64 or ""
                    raw = decoded.get(b64) if type(b64) is str else None
                    if raw is None:
                        try:
                            raw = decoded[b64] = base64.b64decode(b64, validate=True)
                        except (ValueError, TypeError):  # binascii.Error is a ValueError
                            raise LogError("content_b64 is not valid base64") from None
                    if record is not None and ("content_b64" not in record or "substrate" not in record):
                        raise _missing(record, ("content_b64", "substrate"))
                    create(obj, substrate, raw, src)
                elif kind == "transcribe":
                    if record is not None and ("src" not in record or "substrate" not in record):
                        raise _missing(record, ("src", "substrate"))
                    transcribe(obj, substrate, src)
                elif kind == "destroy":
                    destroy(obj)
                else:
                    raise LogError(f"unknown event kind {kind!r}")
                if i != len(kinds) - 1:
                    raise LogError(f"index {i} breaks append-only order")
            except LogError as exc:
                raise LogError(f"line {lineno}: {exc}") from None
        return world


_FIELDS = ("i", "kind", "obj", "substrate", "content_b64", "src")

# One log line and its break, as str.splitlines splits them.  A line in
# to_jsonl's own form (its keys in order, integers in JSON grammar, and
# strings holding no escape, quote, control character or line break)
# gives the six fields as groups 1-6, a null as None; any other line,
# including one with anything after its "}", is group 7.  As in
# splitlines, the end of the text starts no line.
_BREAKS = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_INT = r"(-?(?:0|[1-9][0-9]*))"
_STR = r'(?:"([^"\\\x00-\x1f\x85\u2028\u2029]*)"|null)'
_LINE = re.compile(
    rf'(?!\Z)(?:\{{"i":{_INT},"kind":"(create|transcribe|destroy)","obj":{_INT},'
    rf'"substrate":{_STR},"content_b64":{_STR},"src":(?:{_INT}|null)\}}(?=[{_BREAKS}]|\Z)'
    rf"|([^{_BREAKS}]*))(?:\r\n|[{_BREAKS}])?"
)


def _parse(line: str) -> dict:
    """A line not in to_jsonl's form, read by `json.loads` and shape-checked."""
    if not line.strip():
        raise LogError("blank line in event log")
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise LogError(f"not valid JSON ({exc.msg})") from None
    except ValueError:  # an integer past int()'s digit limit
        raise _long_int() from None
    if not isinstance(record, dict):
        raise LogError("event must be a JSON object")
    if not record.keys() >= {"i", "kind", "obj"}:
        raise _missing(record, ("i", "kind", "obj"))
    for name in ("i", "obj", "src"):
        value = record.get(name)
        if type(value) is not int and (name != "src" or value is not None):
            raise LogError(f"{name} must be an integer, got {json.dumps(value)}")
    return record


def _long_int() -> LogError:
    return LogError(f"integer of more than {sys.get_int_max_str_digits()} digits")


def _missing(record: dict, fields: tuple[str, ...]) -> LogError:
    return LogError(f"missing fields {sorted(set(fields) - record.keys())}")


def _plain_id(name: str, value) -> int:
    """An id given to the append API as a plain int; bools and floats are refused."""
    if not is_int(value):
        raise LogError(f"{name} must be an integer, got {value!r}")
    return int(value)


# queries: the recognizer runs once per distinct normalized content


def _accepted(world: World, prene: Prene) -> list[_Content]:
    """The interned contents whose normalized bytes the prene accepts."""
    contents = world._contents.values()
    verdicts = {norm: prene.recognizer(norm) for norm in dict.fromkeys(c.normalized for c in contents)}
    return [c for c in contents if verdicts[c.normalized]]


def copy_number(world: World, prene: Prene, t: Optional[int] = None) -> int:
    """How many distinct alive objects store this prene at t."""
    at = world.resolve_t(t)
    return sum(len(world._alive_rows(c.rows, at)) for c in _accepted(world, prene))


@dataclass(frozen=True)
class Classification:
    gene: bool
    meme: bool
    turene: bool


def classify(world: World, prene: Prene, t: Optional[int] = None) -> Classification:
    """Which special-prene flags the alive copies currently earn.

    Flags may overlap; copies on document or other substrates keep a
    prene alive without earning any flag.
    """
    at = world.resolve_t(t)
    present = {c.substrate for c in _accepted(world, prene) if world._alive_rows(c.rows, at)}
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
    ids, sources = world._ids, world._source
    rows = [r for c in _accepted(world, prene) for r in c.rows]
    nodes = {ids[r] for r in rows}
    edges = [(ids[r], sources[r]) for r in rows if sources[r] in nodes]
    return sorted(nodes), sorted(edges)


# taxonomy over content sets


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
    contents = list(dict.fromkeys(  # duplicates add nothing
        o.normalized if isinstance(o, StoredObject) else bytes(o) for o in objects
    ))

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
