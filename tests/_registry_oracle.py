"""Reference event-log loader: one `json.loads` and one public append per line.

`World.from_jsonl` reads lines in `to_jsonl`'s own form from a regular
expression's groups and hands only other lines to `json.loads`; this
loader reads every line with `str.splitlines` and `json.loads` and
replays it through `World.create`, `World.destroy` and
`World.transcribe`, so its `line N: ...` messages are the contract for
every log it rejects.  Two exceptions: it reads kind-specific fields
with `record[...]`, so a record that lacks one escapes as a `KeyError`
where the loader under test reports missing fields; and for an id that
is not a JSON integer it names the append API's argument and shows the
value by `repr` (`obj_id must be an integer, got True`) where the loader
names the log field and shows JSON (`obj must be an integer, got true`).
"""

import base64
import json

from prenelab.registry import LogError, World


def load(text: str) -> World:
    world = World()
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
                except (ValueError, TypeError):
                    raise LogError("content_b64 is not valid base64") from None
                world.create(record["obj"], record["substrate"], content, record.get("src"))
            elif kind == "destroy":
                world.destroy(record["obj"])
            elif kind == "transcribe":
                world.transcribe(record["src"], record["obj"], record["substrate"])
            else:
                raise LogError(f"unknown event kind {kind!r}")
        except LogError as exc:
            raise LogError(f"line {lineno + 1}: {exc}") from None
        if world.now != record["i"]:
            raise LogError(f"line {lineno + 1}: index {record['i']} breaks append-only order")
    return world
