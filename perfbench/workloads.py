"""The three workloads: seeded inputs, command lists and output oracles.

A workload is a list of legs run one after another in one process.  A
leg is either one `prene-lab` command line (run through `cli.main`) or
one library call where the command line cannot reach the regime.  Each
leg names the artifact files it writes and carries a check that judges
its output against an oracle that does not use the code under test.

    escape  replicator run at the shipped defaults; the only workload
            that reaches kernels and replicator.
    soup    soup run --experiment at horizon 100, plus one reactor at
            100x the default pools driven through the library; the only
            workload that reaches soup.
    ledger  lifespan table and sweep, then registry ingest, a fixed mix
            of registry queries on the command line, and a library batch
            of queries on one loaded world.
"""

from __future__ import annotations

import base64
import csv
import json
import random
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, Optional

import reglog

WORKLOADS = ("escape", "soup", "ledger")

ESCAPE_PAIRS = 100  # the shipped default of `replicator run`
SOUP_HORIZON = 100
SOUP_REPLICATES = 30  # the shipped default of `soup run --experiment`
REACTOR_SCALE = 100
REACTOR_HORIZON = 1.0
CENSUS_DAYS = 2000
SWEEP_STEPS = 4000
LOG_EVENTS = 10_000


@dataclass
class Leg:
    name: str
    argv: Optional[list[str]] = None
    call: Optional[Callable[[], object]] = None
    artifacts: list[str] = field(default_factory=list)
    # check(output, workdir) -> list of problems; output is the parsed run
    # report for a command line, the return value for a library call
    check: Callable[[object, Path], list[str]] = lambda output, workdir: []


def seed_u64(seed: int) -> int:
    return seed % 2**64


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


# escape

def escape(seed: int, workdir: Path) -> list[Leg]:
    def check(report, workdir):
        rows = _read_csv(workdir / "escape.csv")
        problems = []
        if rows[0] != ["seed", "profile", "extinction_day", "peak_pop"]:
            problems.append(f"escape.csv header {rows[0]}")
        expected = [[str(i), arm] for i in range(ESCAPE_PAIRS) for arm in ("hot", "fidelity")]
        if [row[:2] for row in rows[1:]] != expected:
            problems.append(f"escape.csv has {len(rows) - 1} rows, not one per pair and arm")
        config = report["config"]
        if config["hot_wins"] + config["fidelity_wins"] + config["ties"] != ESCAPE_PAIRS:
            problems.append("hot_wins + fidelity_wins + ties != n_pairs")
        if (workdir / "escape_events.jsonl").stat().st_size == 0:
            problems.append("empty event trace")
        return problems

    argv = [
        "replicator", "run", "--seed", str(seed_u64(seed)),
        "--out", "escape.csv", "--events", "escape_events.jsonl",
    ]
    return [Leg("replicator_run", argv, artifacts=["escape.csv", "escape_events.jsonl"], check=check)]


# soup

def _reactor_pools() -> tuple[dict[str, int], dict[str, int]]:
    from prenelab.soup import SoupConfig

    defaults = SoupConfig()
    free = {letter: n * REACTOR_SCALE for letter, n in defaults.initial_free}
    polymers = {seq: n * REACTOR_SCALE for seq, n in defaults.initial_polymers}
    return free, polymers


def soup(seed: int, workdir: Path) -> list[Leg]:
    from prenelab import rng
    from prenelab import soup as soup_mod

    (workdir / "soup.cfg").write_text(f"horizon = {SOUP_HORIZON}\n", encoding="utf-8")
    free, polymers = _reactor_pools()
    initial_mass = Counter()
    for letter, n in free.items():
        initial_mass[letter] += n
    for seq, n in polymers.items():
        for letter in seq:
            initial_mass[letter] += n

    def check_experiment(report, workdir):
        rows = _read_csv(workdir / "soup.csv")
        problems = []
        if rows[0][0] != "replicate" or len(rows) != 1 + SOUP_REPLICATES:
            problems.append(f"soup.csv has {len(rows) - 1} rows")
        config = report["config"]
        if config["treatment_wins"] + config["control_wins"] + config["ties"] != SOUP_REPLICATES:
            problems.append("treatment_wins + control_wins + ties != n_replicates")
        return problems

    def reactor():
        defaults = soup_mod.SoupConfig()
        state = soup_mod.ReactorState(
            free, polymers, defaults.k_on, defaults.k_off, defaults.k_cat,
            soup_mod.CatalystRule(defaults.motif),
        )
        soup_mod.run_until(state, REACTOR_HORIZON, rng.stream(seed_u64(seed), 1))
        summary = {
            "time": repr(state.time),
            "events": state.n_events,
            "free": [int(x) for x in state.free],
            "species": sorted(state.species.items()),
        }
        (workdir / "reactor.json").write_text(json.dumps(summary) + "\n", encoding="utf-8")
        return state

    def check_reactor(state, workdir):
        mass = dict(zip("ACGU", (int(x) for x in state.mass_by_letter())))
        problems = []
        if mass != {letter: initial_mass[letter] for letter in "ACGU"}:
            problems.append(f"reactor mass {mass} != initial letters {dict(initial_mass)}")
        if state.n_events == 0:
            problems.append("reactor ran no events")
        return problems

    argv = [
        "soup", "run", "--experiment", "--seed", str(seed_u64(seed)),
        "--config", "soup.cfg", "--out", "soup.csv",
    ]
    return [
        Leg("soup_experiment", argv, artifacts=["soup.csv"], check=check_experiment),
        Leg("soup_reactor", call=reactor, artifacts=["reactor.json"], check=check_reactor),
    ]


# ledger

def _census_check(report, workdir):
    rows = _read_csv(workdir / "census.csv")
    immortal = [(int(day), int(alive)) for day, g, alive in rows[1:] if g == "1"]
    problems = []
    if len(rows) != 1 + 2 * (CENSUS_DAYS + 1):
        problems.append(f"census.csv has {len(rows) - 1} rows")
    if immortal != [(d, 2 ** (d // 3)) for d in range(CENSUS_DAYS + 1)]:
        problems.append("g = 1 census column is not 2^floor(d/3)")
    return problems


def _sweep_check(report, workdir):
    rows = _read_csv(workdir / "sweep.csv")
    grid = [Fraction(int(num), int(den)) for num, den, *_ in rows[1:]]
    if grid != [Fraction(i, SWEEP_STEPS) for i in range(SWEEP_STEPS + 1)]:
        return ["sweep.csv grid is not i/steps"]
    return []


def _pick_queries(seed: int, contents: list[bytes]) -> tuple[list[tuple], list[tuple]]:
    """(CLI queries, library batch), each a list of (what, content, t).

    34 command-line queries per pass, so the three passes every run makes
    pool at least 100 latencies and ten of them lie beyond the p90.
    """
    rnd = random.Random(f"ledger-queries-{seed}")
    absent = b"absent" + reglog.CORE + b"nowhere"
    times = [LOG_EVENTS * k // 5 for k in range(1, 5)] + [LOG_EVENTS - 1]
    cli_queries = []
    for target in rnd.sample(contents, 7) + [absent]:
        for what in ("copy-number", "classify", "extinct", "lineage"):
            cli_queries.append((what, target, rnd.choice(times)))
    cli_queries += [("longest-shared", None, t) for t in times[2::2]]
    batch = []
    for target in contents + [absent]:
        batch += [("copy-number", target, t) for t in rnd.sample(times, 3)]
        batch += [("classify", target, rnd.choice(times)), ("extinct", target, rnd.choice(times))]
        batch.append(("lineage", target, None))
    batch += [("longest-shared", None, t) for t in times]
    return cli_queries, batch


def _expected(oracle: reglog.Replay, what: str, target, t) -> dict:
    if what == "copy-number":
        return {"copy_number": oracle.copy_number(target, t)}
    if what == "classify":
        return oracle.classify(target, t)
    if what == "extinct":
        return {"extinct": oracle.copy_number(target, t) == 0}
    if what == "lineage":
        return oracle.lineage(target)
    best, alive = oracle.longest_shared(t)
    return {
        "longest_shared_b64": base64.b64encode(best).decode("ascii"),
        "length": len(best),
        "alive_objects": alive,
    }


def ledger(seed: int, workdir: Path) -> list[Leg]:
    from prenelab import registry

    records, contents = reglog.generate(seed, LOG_EVENTS)
    log_text = reglog.to_text(records)
    (workdir / "world.jsonl").write_text(log_text, encoding="utf-8")
    oracle = reglog.Replay(records)
    cli_queries, batch = _pick_queries(seed, contents)

    def check_ingest(report, workdir):
        if (workdir / "ingested.jsonl").read_bytes() != log_text.encode("utf-8"):
            return ["ingest output differs from the generated log"]
        return []

    legs = [
        Leg(
            "lifespan_table",
            ["lifespan", "table", "--days", str(CENSUS_DAYS), "--out", "census.csv"],
            artifacts=["census.csv"], check=_census_check,
        ),
        Leg(
            "lifespan_sweep",
            ["lifespan", "sweep", "--steps", str(SWEEP_STEPS), "--out", "sweep.csv"],
            artifacts=["sweep.csv"], check=_sweep_check,
        ),
        Leg(
            "registry_ingest",
            ["registry", "ingest", "--log", "world.jsonl", "--out", "ingested.jsonl"],
            artifacts=["ingested.jsonl"], check=check_ingest,
        ),
    ]

    for k, (what, target, t) in enumerate(cli_queries):
        out = f"query_{k:02d}.json"
        argv = ["registry", "query", "--log", "world.jsonl", "--what", what, "--at", str(t), "--out", out]
        if target is not None:
            argv += ["--content-b64", base64.b64encode(target).decode("ascii")]

        def check(report, workdir, out=out, query=(what, target, t)):
            got = json.loads((workdir / out).read_text(encoding="utf-8"))
            expected = _expected(oracle, *query)
            return [] if got == expected else [f"{out}: {got} != oracle {expected}"]

        legs.append(Leg("registry_query", argv, artifacts=[out], check=check))

    def run_batch():
        world = registry.World.from_jsonl(log_text)
        answers = []
        for what, target, t in batch:
            prene = registry.Prene.exact(target) if target is not None else None
            if what == "copy-number":
                answers.append({"copy_number": registry.copy_number(world, prene, t)})
            elif what == "classify":
                flags = registry.classify(world, prene, t)
                answers.append({"gene": flags.gene, "meme": flags.meme, "turene": flags.turene})
            elif what == "extinct":
                answers.append({"extinct": registry.extinct(world, prene, t)})
            elif what == "lineage":
                nodes, edges = registry.lineage(world, prene)
                answers.append({"nodes": nodes, "edges": [list(e) for e in edges]})
            else:
                objects = world.alive_objects(t)
                best = registry.longest_shared(objects)
                answers.append({
                    "longest_shared_b64": base64.b64encode(best).decode("ascii"),
                    "length": len(best),
                    "alive_objects": len(objects),
                })
        (workdir / "batch.json").write_text(json.dumps(answers) + "\n", encoding="utf-8")
        return answers

    def check_batch(answers, workdir):
        wrong = [
            (what, t) for (what, target, t), got in zip(batch, answers)
            if got != _expected(oracle, what, target, t)
        ]
        if len(answers) != len(batch) or wrong:
            return [f"batch: {len(wrong)} of {len(batch)} answers differ from the oracle"]
        return []

    legs.append(Leg("registry_batch", call=run_batch, artifacts=["batch.json"], check=check_batch))
    return legs


BUILDERS = {"escape": escape, "soup": soup, "ledger": ledger}
