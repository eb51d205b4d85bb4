"""One pass of one workload in a fresh process.

    python3 perfbench/child.py WORKLOAD SEED WORKDIR TRACE CHECK

Builds the workload's inputs (untimed), runs its legs back to back and
times each one, then hashes every artifact and, with CHECK = 1, checks
every output against its oracle.  The caller checks one pass per run
and compares the artifact hashes of the others with it, which proves
the same outputs without paying for the oracles again.
With TRACE = 1 the prenelab functions listed in instrument.py are
wrapped for the timed part and the spans are written to
WORKDIR/spans.jsonl.  The result goes to WORKDIR/result.json.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import resource
import sys
import time
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

import instrument
import spans
import workloads


def _report(text: str) -> dict | None:
    """The `prene-lab` run report: the last JSON line with tool = prene-lab."""
    for line in reversed(text.splitlines()):
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("tool") == "prene-lab":
            return record
    return None


def _run_leg(leg, cli, tracer):
    """(seconds, output, problem): output is the run report or return value."""
    buf = io.StringIO()
    problem = None
    output = None
    started = time.perf_counter()
    try:
        with tracer.span(leg.name) if tracer else nullcontext(), redirect_stdout(buf):
            if leg.argv is not None:
                code = cli.main(leg.argv)
            else:
                output = leg.call()
    except (Exception, SystemExit) as exc:  # the program under test failed this leg
        problem = f"{leg.name} raised {type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - started
    if problem is None and leg.argv is not None:
        output = _report(buf.getvalue())
        if code != 0 or output is None:
            problem = f"{leg.name} exited {code}"
    return seconds, output, problem


def main(argv: list[str]) -> int:
    workload, seed, workdir = argv[0], int(argv[1]), Path(argv[2])
    trace, check = argv[3] == "1", argv[4] == "1"
    os.chdir(workdir)  # command lines name their files relative to the work dir
    from prenelab import cli

    legs = workloads.BUILDERS[workload](seed, workdir)
    tracer = spans.Tracer() if trace else None
    if tracer:
        instrument.install(tracer)
    runs = []
    started = time.perf_counter()
    try:
        for leg in legs:
            runs.append(_run_leg(leg, cli, tracer))
    finally:
        wall = time.perf_counter() - started
        if tracer:
            tracer.restore()

    legs_out = []
    artifact_bytes = 0
    for leg, (seconds, output, problem) in zip(legs, runs):
        problems = [problem] if problem else []
        if check and not problems:
            try:
                problems = leg.check(output, workdir)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                problems = [f"{leg.name} check could not read the output: {exc!r}"]
        digests = {}
        for name in leg.artifacts:
            path = workdir / name
            digests[name] = hashlib.sha256(path.read_bytes()).hexdigest() if path.is_file() else None
            if leg.argv is not None and path.is_file():
                artifact_bytes += path.stat().st_size
        legs_out.append({
            "name": leg.name,
            "seconds": seconds,
            # a library reactor leg returns its ReactorState; the events it ran
            # give soup_reactor_events_per_s
            "events": getattr(output, "n_events", None),
            "problems": problems,
            "digests": digests,
        })

    result = {
        "wall_s": wall,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "legs": legs_out,
    }
    if tracer:
        tracer.counts["cli.artifact_bytes"] = artifact_bytes
        result["counts"] = dict(tracer.counts)
        tracer.write(workdir / "spans.jsonl")
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
