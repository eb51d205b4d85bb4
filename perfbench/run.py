"""prenelab benchmark: end-to-end and per-layer metrics for three workloads.

Run from the repository root:

    python3 perfbench/run.py --workload escape --seed 1 --seconds 25 --trace 0

Each pass of the workload runs in a fresh single-threaded child process
(perfbench/child.py), one at a time, until --seconds have been measured.
With --trace 0 the passes are untraced and give the end-to-end metrics;
with --trace 1 one untraced pass is followed by traced passes, which
give the per-layer metrics.  The last line of standard output is one
JSON object {"correct", "attempted", "failed", "metrics"}; the line
before it holds everything else the run measured (named metrics of each
leg with units and percentiles, artifact digests, exact counts, machine
facts).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import importlib.util
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import instrument
import spans
import workloads

HERE = Path(__file__).resolve().parent

RUN_LIMIT_S = 170  # every run ends well inside the 180 s a run may take
SETUP_PROBES_PER_PASS = 2
MIN_PASSES = 3
MIN_TRACED_PASSES = 2
NOISE_REPEATS = 8


def _child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def setup_probe(env: dict, cwd: Path, deadline: float) -> float | None:
    """Wall time of a fresh `python -m prenelab --version`, or None if it failed."""
    started = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "prenelab", "--version"], env=env, cwd=cwd,
            capture_output=True, text=True, timeout=_remaining(deadline),
        )
    except subprocess.TimeoutExpired:
        return None
    seconds = time.perf_counter() - started
    if proc.returncode != 0 or not proc.stdout.startswith("prene-lab "):
        return None
    return seconds


def run_pass(workload: str, seed: int, workdir: Path, traced: bool, check: bool, env: dict,
             deadline: float):
    """Run one pass in a child; (result dict, spans or None), or (None, reason)."""
    workdir.mkdir(parents=True)
    argv = [
        sys.executable, str(HERE / "child.py"), workload, str(seed), str(workdir),
        str(int(traced)), str(int(check)),
    ]
    try:
        proc = subprocess.run(argv, env=env, cwd=workdir, capture_output=True, text=True,
                              timeout=_remaining(deadline))
    except subprocess.TimeoutExpired:
        return None, "pass timed out"
    result_path = workdir / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        return None, f"child exited {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    result = json.loads(result_path.read_text(encoding="utf-8"))
    trace = spans.read_spans(workdir / "spans.jsonl") if traced else None
    return result, trace


def host_noise_probe() -> dict:
    """Seconds of a fixed pure-Python loop, repeated back to back."""
    times = []
    for _ in range(NOISE_REPEATS):
        started = time.perf_counter()
        total = 0
        for i in range(400_000):
            total += i
        times.append(time.perf_counter() - started)
    return {"loop_s_min": min(times), "loop_s_median": statistics.median(times),
            "loop_s_max": max(times), "repeats": NOISE_REPEATS}


def machine_facts() -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "machine": platform.machine(),
    }


def summary(samples: list[float]) -> dict:
    """Median, and the highest percentile with at least ten samples beyond it."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for pct in (99, 95, 90, 75, 50):
        if len(samples) * (100 - pct) / 100 >= 10:
            out[f"p{pct}"] = statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]
            break
    return out


def named_metrics(workload: str, passes: list[dict]) -> dict:
    """The workload's named end-to-end metrics over the untraced passes."""
    by_leg: dict[str, list[float]] = {}
    rates = []
    for result in passes:
        for leg in result["legs"]:
            by_leg.setdefault(leg["name"], []).append(leg["seconds"])
            if leg["events"]:
                rates.append(leg["events"] / leg["seconds"])

    def timed(samples, unit="s"):
        return dict(summary(samples), unit=unit) if samples else None

    out = {
        "wall_s": timed([r["wall_s"] for r in passes]),
        "peak_rss_mib": timed([r["maxrss_kib"] / 1024 for r in passes], "MiB"),
    }
    if workload == "soup":
        out["soup_experiment_s"] = timed(by_leg["soup_experiment"])
        out["soup_reactor_events_per_s"] = timed(rates, "1/s")
    if workload == "ledger":
        for leg in ("lifespan_table", "lifespan_sweep", "registry_ingest", "registry_batch"):
            out[f"{leg}_s"] = timed(by_leg[leg])
        queries = by_leg["registry_query"]
        out["registry_query_p50_s"] = {"value": statistics.median(queries), "n": len(queries), "unit": "s"}
        if len(queries) >= 100:
            p90 = statistics.quantiles(queries, n=10, method="inclusive")[8]
            out["registry_query_p90_s"] = {
                "value": p90, "n": len(queries), "beyond": sum(q > p90 for q in queries), "unit": "s",
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "prenelab" / "__init__.py").is_file():
        print(f"perfbench: {root} has no src/prenelab; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))

    started = time.monotonic()
    deadline = started + RUN_LIMIT_S
    env = _child_env(root)
    work = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    facts = machine_facts()
    facts["noise"] = host_noise_probe()

    attempted = failed = 0
    problems: list[str] = []
    setup_times: list[float] = []
    untraced: list[dict] = []
    traced: list[tuple[dict, list]] = []
    reference_digests: dict[str, str] = {}
    try:
        setup_probe(env, root, deadline)  # untimed: compiles bytecode on a fresh checkout
        measure_from = time.monotonic()
        while True:
            for _ in range(SETUP_PROBES_PER_PASS):
                attempted += 1
                seconds = setup_probe(env, root, deadline)
                if seconds is None:
                    failed += 1
                    problems.append("setup probe `python -m prenelab --version` failed")
                else:
                    setup_times.append(seconds)
            index = len(untraced) + len(traced)
            as_traced = bool(args.trace) and index > 0
            pass_started = time.monotonic()
            # outputs are checked on the first pass, and on the first traced
            # one; every other pass must reproduce their artifacts exactly
            check = index == 0 or (as_traced and not traced)
            result, trace = run_pass(
                args.workload, args.seed, work / f"pass{index}", as_traced, check, env, deadline
            )
            if result is None:
                attempted += 1
                failed += 1
                problems.append(f"pass {index}: {trace}")
                break
            for leg in result["legs"]:
                attempted += 1
                leg_problems = list(leg["problems"])
                for name, digest in leg["digests"].items():
                    if digest is None:
                        leg_problems.append(f"{name} was not written")
                    elif reference_digests.setdefault(name, digest) != digest:
                        leg_problems.append(f"{name} sha256 differs from pass 0")
                if leg_problems:
                    failed += 1
                    problems.extend(f"pass {index}: {p}" for p in leg_problems)
            (traced.append((result, trace)) if as_traced else untraced.append(result))
            shutil.rmtree(work / f"pass{index}")
            now = time.monotonic()
            enough = (len(traced) >= MIN_TRACED_PASSES) if args.trace else (len(untraced) >= MIN_PASSES)
            if enough and now - measure_from >= args.seconds:
                break
            if now + (now - pass_started) + 5 > deadline:
                if not enough:
                    problems.append("run limit reached before the minimum number of passes")
                    failed += 1
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "machine": facts,
        "passes": {"untraced": len(untraced), "traced": len(traced)},
        "pass_wall_s": [r["wall_s"] for r in untraced],
        "setup_s": dict(summary(setup_times), unit="s") if setup_times else None,
        "artifact_sha256": reference_digests,
    }
    metrics: dict[str, dict] = {}
    if untraced:
        detail["named"] = named_metrics(args.workload, untraced)
    if args.trace and traced and untraced:
        per_pass = [
            instrument.layer_metrics(spans.totals(trace), result["counts"]) for result, trace in traced
        ]
        counts = {name: per_pass[0][name] for name in instrument.EXACT_COUNTS}
        if any(p[name] != counts[name] for p in per_pass for name in counts):
            failed += 1
            problems.append("exact per-layer counts differ between traced passes")
        # every layer metric comes from one pass, the one with the median
        # (lower middle) wall time, so ratios between them stay consistent
        walls = [r["wall_s"] for r, _ in traced]
        chosen = walls.index(statistics.median_low(walls))
        layer = dict(per_pass[chosen], **{"trace.overhead_ratio": walls[chosen] / untraced[0]["wall_s"]})
        detail["exact_counts"] = counts
        detail["traced_wall_s"] = walls
        for entry in spec["per_layer"]:
            metrics[entry["name"]] = {"value": layer[entry["name"]], "unit": entry["unit"]}
    elif not args.trace and untraced and setup_times:
        values = {
            "setup_s": statistics.median(setup_times),
            "wall_s": detail["named"]["wall_s"]["median"],
            "peak_rss_mib": detail["named"]["peak_rss_mib"]["median"],
        }
        for entry in spec["end_to_end"]:
            metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    else:
        failed += 1
        problems.append("no complete pass")
    detail["fail_ratio"] = failed / max(attempted, 1)
    detail["problems"] = problems[:50]

    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
