"""Seeded random event logs and independent replay oracles.

The oracles reimplement every query by replaying the serialized events
from scratch; they share no code with the incremental implementations
they check.
"""

import base64
import json

import numpy as np

from prenelab.registry import World, normalize

CONTENT_POOL = [b"AA", b"AB", b"BA", b"BB", b"ABBA", b"X"]
# already normalized on every substrate, so a copy's verdict cannot flip
# when transcription moves it through a document
FIXED_POINT_POOL = [b"aa", b"ab", b"ba"]
SUBSTRATE_POOL = ["nucleic_acid", "brain", "computer", "document", "other:tape"]


def all_objects(world: World) -> dict:
    """Every logged object by id, alive or not, as `StoredObject` views."""
    return {o.id: o for o in world._views(range(len(world._ids)))}


def random_world(gen: np.random.Generator, n_events: int = 50) -> World:
    """A valid random log mixing creates, copies, destroys, transcribes."""
    world = World()
    next_id = 1
    for _ in range(n_events):
        alive = [o for o in all_objects(world).values() if o.destroyed_at is None]
        roll = gen.random()
        if not alive or roll < 0.45:
            content = CONTENT_POOL[gen.integers(len(CONTENT_POOL))]
            substrate = SUBSTRATE_POOL[gen.integers(len(SUBSTRATE_POOL))]
            src = None
            if alive and gen.random() < 0.4:
                src = alive[gen.integers(len(alive))].id  # copy link, any content
            world.create(next_id, substrate, content, src)
            next_id += 1
        elif roll < 0.70:
            world.destroy(alive[gen.integers(len(alive))].id)
        else:
            src = alive[gen.integers(len(alive))]
            others = [s for s in SUBSTRATE_POOL if s != src.substrate]
            world.transcribe(src.id, next_id, others[gen.integers(len(others))])
            next_id += 1
    return world


def random_faithful_world(gen: np.random.Generator, n_events: int = 50) -> World:
    """Faithful-copy log: every create after genesis copies an alive source."""
    world = World()
    next_id = 1
    for content in FIXED_POINT_POOL:
        world.create(next_id, "nucleic_acid", content)
        next_id += 1
    for _ in range(n_events - 3):
        alive = [o for o in all_objects(world).values() if o.destroyed_at is None]
        roll = gen.random()
        if alive and roll < 0.45:
            src = alive[gen.integers(len(alive))]
            world.create(next_id, src.substrate, src.content, src.id)
            next_id += 1
        elif alive and roll < 0.60:
            src = alive[gen.integers(len(alive))]
            others = [s for s in SUBSTRATE_POOL if s != src.substrate]
            world.transcribe(src.id, next_id, others[gen.integers(len(others))])
            next_id += 1
        elif alive:
            world.destroy(alive[gen.integers(len(alive))].id)
    return world


def replay_objects(jsonl_text: str, upto_t: int) -> list[dict]:
    """Replay serialized events 0..upto_t into plain object records."""
    objects: dict[int, dict] = {}
    for line in jsonl_text.splitlines():
        record = json.loads(line)
        if record["i"] > upto_t:
            break
        kind = record["kind"]
        if kind == "create":
            objects[record["obj"]] = {
                "id": record["obj"],
                "substrate": record["substrate"],
                "content": base64.b64decode(record["content_b64"] or ""),
                "src": record["src"],
                "dead": False,
            }
        elif kind == "destroy":
            objects[record["obj"]]["dead"] = True
        elif kind == "transcribe":
            objects[record["obj"]] = {
                "id": record["obj"],
                "substrate": record["substrate"],
                "content": objects[record["src"]]["content"],
                "src": record["src"],
                "dead": False,
            }
    return list(objects.values())


def brute_copy_number(jsonl_text: str, target: bytes, t: int) -> int:
    return sum(
        1
        for o in replay_objects(jsonl_text, t)
        if not o["dead"] and normalize(o["content"], o["substrate"]) == target
    )


def brute_flags(jsonl_text: str, target: bytes, t: int) -> tuple[bool, bool, bool]:
    present = {
        o["substrate"]
        for o in replay_objects(jsonl_text, t)
        if not o["dead"] and normalize(o["content"], o["substrate"]) == target
    }
    return ("nucleic_acid" in present, "brain" in present, "computer" in present)


def brute_lineage(jsonl_text: str, target: bytes, t: int):
    objs = replay_objects(jsonl_text, t)
    accepted = {
        o["id"] for o in objs if normalize(o["content"], o["substrate"]) == target
    }
    edges = [
        (o["id"], o["src"])
        for o in objs
        if o["id"] in accepted and o["src"] is not None and o["src"] in accepted
    ]
    return sorted(accepted), sorted(edges)


def brute_longest_shared(contents: list[bytes]) -> bytes:
    shortest = min(contents, key=len)
    best = b""
    for i in range(len(shortest)):
        for j in range(i + 1, len(shortest) + 1):
            sub = shortest[i:j]
            if all(sub in c for c in contents):
                if len(sub) > len(best) or (len(sub) == len(best) and sub < best):
                    best = sub
    return best
