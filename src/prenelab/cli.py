"""`prene-lab` command line: run the simulators and write artifact files.

Subcommands:
    lifespan table | sweep | growth
    replicator run
    soup run
    registry ingest | query

Every successful run prints one JSON run report to stdout, last (tool
version, echoed config, RNG algorithm, seed, wall time, artifact paths);
a failed run prints only its error line to stderr.  Artifact files
are byte-deterministic for a given command line; the report is not,
because it carries the wall time.  CSV artifacts always have a header
row and LF line endings.  Census counts of any size are written
exactly.  Each artifact is written as it is made, so no command holds
its whole output in memory.  A failed command, Ctrl-C included, leaves
no artifact behind and leaves a file already at an artifact path
unchanged: each artifact is written to a temporary file next to its
path, moved onto it only once the command has succeeded.

Exit codes: 0 success; 2 usage (bad flag or config value, with the
offender named); 1 IO or input-data failure.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time
from collections.abc import Iterable, Iterator
from contextlib import contextmanager, nullcontext
from itertools import chain
from pathlib import Path

from . import __version__
from .config import (
    ConfigError,
    LogError,
    escape_config_from_text,
    parse_fraction,
    parse_pairs,
    serialize_escape_config,
    serialize_soup_config,
    soup_config_from_text,
)

__all__ = ["main"]


# flag value parsers: argparse reports failures as exit-2 usage errors
# that name the flag

def _bounded_int(low: int, high: int | None, message: str):
    """Parser for a base-10 integer in [low, high); high=None is unbounded."""

    def parse(text: str) -> int:
        try:
            value = int(text, 10)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low or (high is not None and value >= high):
            raise argparse.ArgumentTypeError(message)
        return value

    return parse


_u64 = _bounded_int(0, 2**64, "must be an unsigned 64-bit integer")
_u32 = _bounded_int(0, 2**32, "must be an unsigned 32-bit integer")
_positive_int = _bounded_int(1, None, "must be >= 1")


def _fraction(text: str):
    try:
        value = parse_fraction(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError("must lie in [0, 1]")
    return value


# artifact writers: explicit LF endings, header always present, each line
# written as it is made

def _artifact(path: str):
    """`path` opened for UTF-8 text with LF endings, its parent directories made."""
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    return open(path, "w", encoding="utf-8", newline="\n")


def _write(path: str, chunks: Iterable[str]) -> None:
    with _artifact(path) as fh:
        fh.writelines(chunks)


def _write_table(args, header: list[str], rows: Iterable) -> None:
    """Write `rows` to `args.out` in `args.format`, one line per row as it comes."""
    if args.format == "csv":
        lines = chain([",".join(header)], (",".join(_cell(v) for v in row) for row in rows))
    else:
        lines = (json.dumps(dict(zip(header, row)), sort_keys=True, separators=(",", ":"))
                 for row in rows)
    _write(args.out, (f"{line}\n" for line in lines))


def _cell(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _read_text(path: str, error: type[Exception] = ConfigError) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError:
        raise error(f"{path} is not valid UTF-8") from None


# lifespan

def _lambda_row(species, table, rate, *extra) -> list:
    """g as p/q, lambda, `extra`, then birth ages ("a;b;first+stepk") and death age."""
    g = species.gene_number
    ages = [str(a) for a in table.birth_ages]
    if table.periodic is not None:
        first, step = table.periodic
        ages.append(f"{first}+{step}k")
    death = "inf" if table.death_age is None else str(table.death_age)
    return [g.numerator, g.denominator, rate.lambda_per_day, *extra, ";".join(ages), death]


def _cmd_lifespan_table(args) -> dict:
    from fractions import Fraction
    from . import lifespan

    genes = args.g if args.g else [Fraction(1), Fraction(1, 2)]
    species = [lifespan.TreeSpecies(g) for g in genes]
    try:
        census = lifespan.simulate_census(species, args.days)
    except ValueError as exc:  # a gene number given twice (2/4 repeats 1/2)
        raise ConfigError(str(exc), key="--g") from None
    # CPython's int-to-str digit limit (3.10.7 on) guards parsing untrusted text; the
    # census counts are the program's own exact integers, so it is lifted for their write
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _write_table(args, ["day", "species_g", "alive"], census.csv_rows())
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)
    return {"days": args.days, "g": [str(g) for g in genes]}


def _cmd_lifespan_sweep(args) -> dict:
    from fractions import Fraction
    from . import lifespan

    grid = [Fraction(i, args.steps) for i in range(args.steps + 1)]
    result = lifespan.optimality_sweep(grid)
    rows = [_lambda_row(*row) for row in result.rows]
    _write_table(args, ["g_num", "g_den", "lambda", "birth_ages", "death_age"], rows)
    return {"steps": args.steps, "argmax_g": [sp.label for sp in result.argmax]}


def _cmd_lifespan_growth(args) -> dict:
    from . import lifespan

    species = lifespan.TreeSpecies(args.g)
    table = lifespan.life_table(species)
    rate = lifespan.growth_rate(table)
    rows = [_lambda_row(species, table, rate, rate.residual)]
    header = ["g_num", "g_den", "lambda", "residual", "birth_ages", "death_age"]
    _write_table(args, header, rows)
    return {"g": str(species.gene_number)}


# replicator

def _cmd_replicator_run(args) -> dict:
    from . import replicator  # loads NumPy

    text = _read_text(args.config) if args.config else ""
    config = escape_config_from_text(text, master_seed=args.seed)
    # pair 0's event trace, written while the experiment runs it
    with _artifact(args.events) if args.events else nullcontext() as fh:
        report = replicator.run_escape_experiment(config, trace=fh)

    rows = []
    for o in report.outcomes:
        rows.append([o.pair_index, "hot", o.hot_extinction_day, o.hot_peak])
        rows.append([o.pair_index, "fidelity", o.fidelity_extinction_day, o.fidelity_peak])
    _write_table(args, ["seed", "profile", "extinction_day", "peak_pop"], rows)
    echo = {key: value for _, key, value in parse_pairs(serialize_escape_config(config))}
    echo.update(hot_wins=report.hot_wins, fidelity_wins=report.fidelity_wins,
                ties=report.ties, sign_test_p=repr(report.p_value))
    return echo


# soup

def _cmd_soup_run(args) -> dict:
    import dataclasses
    from . import rng, soup  # soup loads NumPy

    text = _read_text(args.config) if args.config else ""
    config = soup_config_from_text(text, master_seed=args.seed)
    echo = {key: value for _, key, value in parse_pairs(serialize_soup_config(config))}

    if args.experiment:
        report = soup.run_catalysis_experiment(config)
        header = [f.name for f in dataclasses.fields(soup.ReplicateOutcome)]
        rows = [dataclasses.astuple(o) for o in report.outcomes]
        _write_table(args, header, rows)
        echo.update(treatment_wins=report.treatment_wins, control_wins=report.control_wins,
                    ties=report.ties, sign_test_p=repr(report.p_value))
        return echo

    # clamped: horizon * n / n can round past the horizon (0.1 * 3 / 3)
    grid = [
        min(config.horizon * j / args.samples, config.horizon) for j in range(args.samples + 1)
    ]
    rows = []

    def on_sample(t: float, state: soup.ReactorState) -> None:
        rows.append([t, *state.free, len(state.seqs), state.n_catalysts(), state.n_aaa_enders()])

    state = config.build_state()
    gen = rng.stream(config.master_seed, rng.SOUP, 0)  # soup experiment replicate 0's stream
    soup.run_until(state, config.horizon, gen, grid, on_sample)
    header = ["t", "free_A", "free_C", "free_G", "free_U", "n_species", "n_P", "n_AAA_enders"]
    _write_table(args, header, rows)
    echo["samples"] = args.samples
    return echo


# registry

def _load_world(path: str):
    from . import registry

    return registry.World.from_jsonl(_read_text(path, LogError))


def _cmd_registry_ingest(args) -> dict:
    world = _load_world(args.log)
    _write(args.out, world.jsonl_lines())
    return {"log": args.log, "events": world.now + 1, "objects": world.n_objects}


def _query_content(args) -> bytes:
    import base64

    if args.content_b64 is not None:
        try:
            return base64.b64decode(args.content_b64, validate=True)
        except ValueError:  # binascii.Error is a ValueError
            raise ConfigError("--content-b64 is not valid base64")
    if args.content is not None:
        return args.content.encode("utf-8")
    raise ConfigError(f"query {args.what!r} needs --content or --content-b64")


def _cmd_registry_query(args) -> dict:
    import base64
    from . import registry

    world = _load_world(args.log)
    t = args.at
    try:
        at = world.resolve_t(t)
    except ValueError as exc:
        raise ConfigError(str(exc), key="--at") from None

    if args.what == "longest-shared":
        objects = world.alive_objects(t)
        if not objects:
            raise ConfigError(f"no object is alive at t={at} for longest-shared", key="--at")
        best = registry.longest_shared(objects)
        result = {
            "longest_shared_b64": base64.b64encode(best).decode("ascii"),
            "length": len(best),
            "alive_objects": len(objects),
        }
    else:
        prene = registry.Prene.exact(_query_content(args))
        if args.what == "copy-number":
            result = {"copy_number": registry.copy_number(world, prene, t)}
        elif args.what == "classify":
            flags = registry.classify(world, prene, t)
            result = {"gene": flags.gene, "meme": flags.meme, "turene": flags.turene}
        elif args.what == "extinct":
            result = {"extinct": registry.extinct(world, prene, t)}
        else:  # lineage
            nodes, edges = registry.lineage(world, prene)
            result = {"nodes": nodes, "edges": [list(e) for e in edges]}

    line = json.dumps(result, sort_keys=True, separators=(",", ":"))
    if args.out:
        _write(args.out, [f"{line}\n"])
    else:
        print(line)
    return {"log": args.log, "what": args.what, "at": t}


# parser wiring

def _add_out_format(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="artifact file path")
    parser.add_argument(
        "--format", choices=("csv", "jsonl"), default="csv", help="artifact serialization"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="prene-lab",
        description="Deterministic simulators for four desk-scale evolution models.",
    )
    parser.add_argument("--version", action="version", version=f"prene-lab {__version__}")
    top = parser.add_subparsers(dest="subcommand", required=True)

    p_life = top.add_parser("lifespan", help="tree species census and growth rates")
    life = p_life.add_subparsers(dest="action", required=True)

    p_table = life.add_parser("table", help="per-day alive counts for chosen gene-numbers")
    p_table.add_argument("--days", type=_u32, default=30, help="last simulated day")
    p_table.add_argument(
        "--g",
        type=_fraction,
        action="append",
        help="gene-number p/q; repeatable; default: 1 and 1/2",
    )
    _add_out_format(p_table)
    p_table.set_defaults(func=_cmd_lifespan_table, subcommand="lifespan table")

    p_sweep = life.add_parser("sweep", help="growth rate over an even gene-number grid")
    p_sweep.add_argument("--steps", type=_positive_int, default=20, help="grid is i/steps")
    _add_out_format(p_sweep)
    p_sweep.set_defaults(func=_cmd_lifespan_sweep, subcommand="lifespan sweep")

    p_growth = life.add_parser("growth", help="life table and growth rate of one species")
    p_growth.add_argument("--g", type=_fraction, required=True, help="gene-number p/q")
    _add_out_format(p_growth)
    p_growth.set_defaults(func=_cmd_lifespan_growth, subcommand="lifespan growth")

    p_rep = top.add_parser("replicator", help="mutator vs high-fidelity escape experiment")
    rep = p_rep.add_subparsers(dest="action", required=True)
    p_rep_run = rep.add_parser("run", help="paired escape experiment")
    p_rep_run.add_argument("--seed", type=_u64, default=0, help="master seed (u64)")
    p_rep_run.add_argument("--config", help="key = value scenario file")
    p_rep_run.add_argument("--events", help="also write pair 0's full JSONL event trace here")
    _add_out_format(p_rep_run)
    p_rep_run.set_defaults(func=_cmd_replicator_run, subcommand="replicator run")

    p_soup = top.add_parser("soup", help="stochastic polymer reactor")
    soup_sub = p_soup.add_subparsers(dest="action", required=True)
    p_soup_run = soup_sub.add_parser("run", help="time series, or paired experiment")
    p_soup_run.add_argument("--seed", type=_u64, default=0, help="master seed (u64)")
    p_soup_run.add_argument("--config", help="key = value scenario file")
    p_soup_run.add_argument(
        "--samples", type=_positive_int, default=50, help="time-series grid points"
    )
    p_soup_run.add_argument(
        "--experiment",
        action="store_true",
        help="paired catalysis experiment instead of a single time series",
    )
    _add_out_format(p_soup_run)
    p_soup_run.set_defaults(func=_cmd_soup_run, subcommand="soup run")

    p_reg = top.add_parser("registry", help="copy-number bookkeeping over event logs")
    reg = p_reg.add_subparsers(dest="action", required=True)

    p_ingest = reg.add_parser("ingest", help="validate a log and re-serialize canonically")
    p_ingest.add_argument("--log", required=True, help="JSONL event log to read")
    p_ingest.add_argument("--out", required=True, help="canonical JSONL output path")
    p_ingest.set_defaults(func=_cmd_registry_ingest, subcommand="registry ingest")

    p_query = reg.add_parser("query", help="ask one question of a log")
    p_query.add_argument("--log", required=True, help="JSONL event log to read")
    p_query.add_argument(
        "--what",
        required=True,
        choices=("copy-number", "classify", "extinct", "lineage", "longest-shared"),
    )
    content = p_query.add_mutually_exclusive_group()
    content.add_argument("--content", help="query content as UTF-8 text")
    content.add_argument("--content-b64", help="query content as base64 bytes")
    p_query.add_argument("--at", type=int, default=None, help="event-time t; default: now")
    p_query.add_argument("--out", help="write the JSON result here instead of stdout")
    p_query.set_defaults(func=_cmd_registry_query, subcommand="registry query")

    return parser


_OUTPUTS = ("--out", "--events")


def _refuse_shared_paths(args) -> None:
    """No output may name an input or another output: checked before any file is touched."""
    seen: dict[Path, str] = {}
    for flag in ("--log", "--config", *_OUTPUTS):
        path = getattr(args, flag[2:], None)
        if path:
            earlier = seen.setdefault(Path(path).resolve(), flag)
            if earlier != flag:
                raise ConfigError(f"names the same file as {earlier}", key=flag)


@contextmanager
def _staged(args) -> Iterator[None]:
    """Point each output flag at a temporary file `<path>.<pid>.tmp` next to
    its path.  If the block succeeds, move each onto its path, failing first
    if any path is a directory; on any failure, remove them.  A `_special`
    path is written in place.
    """
    staged = []  # (artifact path, temporary file)
    for flag in _OUTPUTS:
        path = getattr(args, flag[2:], None)
        if path and not _special(path):
            staged.append((path, f"{path}.{os.getpid()}.tmp"))
            setattr(args, flag[2:], staged[-1][1])
    try:
        yield
        for path, _ in staged:
            if os.path.isdir(path):
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        for path, temp in staged:
            os.replace(temp, path)
    except BaseException:
        for _, temp in staged:
            Path(temp).unlink(missing_ok=True)
        raise


def _special(path: str) -> bool:
    """A symlink, device or FIFO: not a file that an artifact can replace."""
    return os.path.islink(path) or os.path.exists(path) and not (
        os.path.isfile(path) or os.path.isdir(path))


def main(argv: list[str] | None = None) -> int:
    """Run one command; on success print its run report and return 0.  The
    report lists as artifacts the paths named by `--out` and `--events`."""
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.monotonic()
    artifacts = [str(Path(p)) for f in _OUTPUTS if (p := getattr(args, f[2:], None))]
    try:
        _refuse_shared_paths(args)
        with _staged(args):
            echo = args.func(args)
        from . import rng  # not at start-up: --version and --help never reach here
        report = {
            "tool": "prene-lab",
            "version": __version__,
            "subcommand": args.subcommand,
            "rng_algorithm": rng.RNG_ALGORITHM,
            "seed": getattr(args, "seed", None),
            "config": echo,
            "wall_time_s": round(time.monotonic() - started, 6),
            "artifacts": artifacts,
        }
        print(json.dumps(report, sort_keys=True), flush=True)
    except ConfigError as exc:
        print(f"prene-lab: config error: {exc}", file=sys.stderr)
        return 2
    except LogError as exc:
        print(f"prene-lab: log error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):  # stdout closed: keep the exit-time flush off it
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        print(f"prene-lab: io error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
