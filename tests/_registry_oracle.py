"""Reference event-log loader: one `json.loads` and one public append per line.

This is the loader the guarded one-pass parse replaced.  It reads each
line on its own and replays it through `World.create`, `World.destroy`
and `World.transcribe`, so its `line N: ...` messages are the contract
for every log it rejects.  It reads kind-specific fields with
`record[...]`, so a record that lacks one escapes as a `KeyError`; the
loader under test reports those as missing fields instead.
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
