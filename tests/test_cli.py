"""Command line contract: artifacts, formats, exit codes, determinism."""

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from prenelab import replicator, rng
from prenelab.cli import _write_table, build_parser, main
from prenelab.config import escape_config_from_text
from prenelab.rng import sign_test

ROOT = Path(__file__).resolve().parents[1]
GOLDEN_LOG = str(Path(__file__).parent / "data" / "registry_golden.jsonl")


def run_cli(args, tmp_path, check=True):
    """In-process invocation; returns (exit_code, report_dict_or_None)."""
    import io
    from contextlib import redirect_stdout

    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(args)
    if check:
        assert code == 0, buf.getvalue()
    lines = [l for l in buf.getvalue().splitlines() if l.strip()]
    report = None
    for line in reversed(lines):
        try:
            candidate = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(candidate, dict) and candidate.get("tool") == "prene-lab":
            report = candidate
            break
    return code, report


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def assert_scored_as_reported(scores, config, wins, losses):
    """sign_test of the artifact's own columns gives the report's tally and p."""
    tally = (config[wins], config[losses], config["ties"])
    assert sign_test(scores) == (*tally, float(config["sign_test_p"]))
    assert sum(tally) == len(scores)


def run_proc(args):
    return subprocess.run(
        [sys.executable, "-m", "prenelab", *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
    )


class TestLifespanTable:
    def test_default_species_and_days(self, tmp_path):
        out = tmp_path / "census.csv"
        code, report = run_cli(["lifespan", "table", "--out", str(out)], tmp_path)
        lines = out.read_text().splitlines()
        assert lines[0] == "day,species_g,alive"
        assert lines[1] == "0,1,1"
        assert lines[2] == "0,1/2,1"
        # 30 days, two species: header + 31 * 2 rows
        assert len(lines) == 1 + 31 * 2
        assert lines[-1] == "30,1/2,11536"
        assert report["config"]["g"] == ["1", "1/2"]
        assert report["rng_algorithm"] == "philox4x64-10/keyed-u32-v4"
        assert report["artifacts"] == [str(out)]

    def test_days_zero_is_header_plus_founders(self, tmp_path):
        out = tmp_path / "census.csv"
        run_cli(["lifespan", "table", "--days", "0", "--out", str(out)], tmp_path)
        assert out.read_text() == "day,species_g,alive\n0,1,1\n0,1/2,1\n"

    def test_explicit_g_list(self, tmp_path):
        out = tmp_path / "census.csv"
        run_cli(
            ["lifespan", "table", "--days", "3", "--g", "2/5", "--g", "0", "--out", str(out)],
            tmp_path,
        )
        lines = out.read_text().splitlines()
        assert lines[1] == "0,2/5,1"
        assert lines[2] == "0,0,1"

    @pytest.mark.parametrize("second", ["1/2", "2/4", " 3 / 6"])
    def test_gene_number_given_twice_exits_2(self, tmp_path, capsys, second):
        out = tmp_path / "census.csv"
        args = ["lifespan", "table", "--g", "1/2", "--g", second, "--out", str(out)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "prene-lab: config error: key '--g': gene number 1/2 is given twice\n"
        assert not out.exists()

    def test_jsonl_format(self, tmp_path):
        out = tmp_path / "census.jsonl"
        run_cli(
            ["lifespan", "table", "--days", "2", "--g", "1/2", "--format", "jsonl", "--out", str(out)],
            tmp_path,
        )
        rows = [json.loads(l) for l in out.read_text().splitlines()]
        assert rows[0] == {"day": 0, "species_g": "1/2", "alive": 1}
        assert rows[-1] == {"day": 2, "species_g": "1/2", "alive": 2}

    def test_lf_endings_no_crlf(self, tmp_path):
        out = tmp_path / "census.csv"
        run_cli(["lifespan", "table", "--days", "2", "--out", str(out)], tmp_path)
        raw = out.read_bytes()
        assert b"\r" not in raw
        assert raw.endswith(b"\n")


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_tables_are_written_a_row_at_a_time(tmp_path, fmt):
    # 50k rows, over 10 MB, from a lazy generator: the writer holds no list, string or bytes
    out, pad = tmp_path / f"big.{fmt}", "x" * 200
    rows = ((k, pad) for k in range(50_000))
    tracemalloc.start()
    try:
        _write_table(argparse.Namespace(out=str(out), format=fmt), ["k", "pad"], rows)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak
    assert out.stat().st_size > 10**7
    lines = out.read_text(encoding="utf-8").splitlines()
    if fmt == "csv":
        assert lines[0] == "k,pad" and lines[1:] == [f"{k},{pad}" for k in range(50_000)]
    else:
        assert [json.loads(line) for line in lines] == [{"k": k, "pad": pad} for k in range(50_000)]


class TestLifespanSweepAndGrowth:
    def test_sweep_columns_and_argmax(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code, report = run_cli(
            ["lifespan", "sweep", "--steps", "10", "--out", str(out)], tmp_path
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "g_num,g_den,lambda,birth_ages,death_age"
        assert len(lines) == 12
        assert report["config"]["argmax_g"] == ["2/5", "1/2"]
        # immortal row renders a periodic tail and an infinite death age
        last = lines[-1].split(",")
        assert last[0:2] == ["1", "1"]
        assert last[3] == "3+3k"
        assert last[4] == "inf"

    def test_growth_row(self, tmp_path):
        out = tmp_path / "growth.csv"
        run_cli(["lifespan", "growth", "--g", "1/2", "--out", str(out)], tmp_path)
        lines = out.read_text().splitlines()
        assert lines[0] == "g_num,g_den,lambda,residual,birth_ages,death_age"
        cells = lines[1].split(",")
        assert cells[0:2] == ["1", "2"]
        assert abs(float(cells[2]) - 1.356203065626295) < 1e-12
        assert cells[4] == "2;4;6"
        assert cells[5] == "6"


class TestReplicatorRun:
    def test_summary_and_events(self, tmp_path):
        cfg = tmp_path / "rep.cfg"
        cfg.write_text(
            "genome_length = 40\ncoat_start = 0\ncoat_stop = 8\ncapacity = 20\n"
            "horizon = 6\nn_pairs = 3\nn_founders = 2\n"
        )
        out = tmp_path / "summary.csv"
        events = tmp_path / "events.jsonl"
        code, report = run_cli(
            [
                "replicator", "run", "--seed", "5", "--config", str(cfg),
                "--out", str(out), "--events", str(events),
            ],
            tmp_path,
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "seed,profile,extinction_day,peak_pop"
        assert len(lines) == 1 + 2 * 3  # hot and fidelity row per pair
        profiles = [l.split(",")[1] for l in lines[1:]]
        assert profiles == ["hot", "fidelity"] * 3
        for line in events.read_text().splitlines():
            event = json.loads(line)
            assert event["pair"] == 0
            assert event["profile"] in ("hot", "fidelity")
            assert event["kind"] in ("birth", "poster", "kill", "cull")
        assert report["config"]["capacity"] == "20"
        assert set(report["artifacts"]) == {str(out), str(events)}

    def test_traced_run_draws_one_stream_per_arm(self, tmp_path, monkeypatch):
        # pair 0 is traced while the experiment runs it, not run a second time;
        # on one CPU every pair runs here, where the calls can be counted
        cfg = tmp_path / "rep.cfg"
        cfg.write_text("genome_length = 40\ncoat_start = 0\ncoat_stop = 8\nhorizon = 4\nn_pairs = 3\n")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        calls = []
        stream = rng.stream
        monkeypatch.setattr(rng, "stream", lambda *key: calls.append(key) or stream(*key))
        run_cli(
            ["replicator", "run", "--seed", "5", "--config", str(cfg),
             "--out", str(tmp_path / "summary.csv"), "--events", str(tmp_path / "events.jsonl")],
            tmp_path,
        )
        # one outcome stream per arm, and pair 0's arms each open the trace's body stream
        outcome = [(5, rng.REPLICATOR, i) for i in range(3) for _ in ("hot", "fidelity")]
        assert sorted(calls) == sorted(outcome + [(5, rng.REPLICATOR, 0, rng.BODY)] * 2)
        assert (tmp_path / "events.jsonl").stat().st_size > 0

    def test_events_path_naming_a_directory_exits_1_before_running(self, tmp_path, capsys):
        cfg = tmp_path / "rep.cfg"
        cfg.write_text("genome_length = 40\ncoat_start = 0\ncoat_stop = 8\nhorizon = 4\nn_pairs = 2\n")
        out = tmp_path / "summary.csv"
        args = ["replicator", "run", "--config", str(cfg), "--out", str(out), "--events", str(tmp_path)]
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("prene-lab: io error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()  # the trace is opened before the experiment runs

    @pytest.mark.parametrize("out, events", [
        ("a.csv", "a.csv"), ("a.csv", "./a.csv"), ("./a.csv", "sub/../a.csv"), ("a.csv", "{tmp}/a.csv"),
    ])
    def test_events_naming_the_out_file_exits_2(self, tmp_path, capsys, monkeypatch, out, events):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "rep.cfg").write_text("genome_length = 40\ncoat_start = 0\ncoat_stop = 8\nhorizon = 4\n")
        args = ["replicator", "run", "--config", "rep.cfg", "--out", out,
                "--events", events.format(tmp=tmp_path)]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "prene-lab: config error: key '--events': names the same file as --out\n"
        assert [p.name for p in tmp_path.iterdir()] == ["rep.cfg"]

    def test_survivors_marked_none_in_csv(self, tmp_path):
        # kill probability zero: nothing ever dies inside the horizon
        cfg = tmp_path / "rep.cfg"
        cfg.write_text(
            "genome_length = 40\ncoat_start = 0\ncoat_stop = 8\ncapacity = 10\n"
            "horizon = 4\nn_pairs = 2\nn_founders = 2\nkill_probability = 0.0\n"
        )
        out = tmp_path / "summary.csv"
        run_cli(
            ["replicator", "run", "--config", str(cfg), "--out", str(out)], tmp_path
        )
        for line in out.read_text().splitlines()[1:]:
            assert line.split(",")[2] == "none"

    def test_pair_scores_match_the_artifact(self, tmp_path):
        # at seed 1 this scenario has hot wins, fidelity wins and ties
        cfg = tmp_path / "rep.cfg"
        cfg.write_text(
            "genome_length = 100\ncoat_start = 0\ncoat_stop = 20\ncapacity = 30\n"
            "horizon = 8\nn_pairs = 12\nimmune_delay = 1\n"
        )
        out = tmp_path / "summary.csv"
        _, report = run_cli(
            ["replicator", "run", "--seed", "1", "--config", str(cfg), "--out", str(out)],
            tmp_path,
        )
        # a survivor ranks at horizon + 1, above any extinction day
        survival = [9 if r["extinction_day"] == "none" else int(r["extinction_day"])
                    for r in read_rows(out)]
        scores = list(zip(survival[0::2], survival[1::2]))  # (hot, fidelity) per pair
        assert len(scores) == 12
        assert_scored_as_reported(scores, report["config"], "hot_wins", "fidelity_wins")
        assert min(report["config"][k] for k in ("hot_wins", "fidelity_wins", "ties")) > 0

    def test_event_trace_is_the_canonical_json_of_each_arm(self, tmp_path):
        text = (
            "genome_length = 40\ncoat_start = 0\ncoat_stop = 8\ncapacity = 6\n"
            "horizon = 8\nn_pairs = 1\nn_founders = 2\nimmune_delay = 2\n"
        )
        cfg = tmp_path / "rep.cfg"
        cfg.write_text(text)
        events = tmp_path / "events.jsonl"
        run_cli(
            ["replicator", "run", "--seed", "3", "--config", str(cfg),
             "--out", str(tmp_path / "summary.csv"), "--events", str(events)],
            tmp_path,
        )
        config = escape_config_from_text(text, master_seed=3)
        expected = io.StringIO()
        for profile, mutation in (("hot", config.hot_profile()),
                                  ("fidelity", config.fidelity_profile())):
            trace = replicator.ArmTrace(expected.write, profile,
                                        rng.stream(3, rng.REPLICATOR, 0, rng.BODY))
            replicator._run_arm(config, mutation, rng.stream(3, rng.REPLICATOR, 0), trace)
        lines = expected.getvalue().splitlines()
        records = [json.loads(line) for line in lines]
        for line, record in zip(lines, records):
            assert line == json.dumps(record, sort_keys=True, separators=(",", ":"))
        assert {r["kind"] for r in records} == {"birth", "poster", "kill", "cull"}
        assert {bool(r["sites"]) for r in records if r["kind"] == "birth"} == {True, False}
        assert [r["profile"] for r in records] == sorted(
            (r["profile"] for r in records), key=["hot", "fidelity"].index)
        assert {r["pair"] for r in records} == {0}
        assert events.read_bytes() == expected.getvalue().encode("utf-8")

    def test_unknown_config_key_exits_2(self, tmp_path):
        cfg = tmp_path / "rep.cfg"
        cfg.write_text("virulence = 11\n")
        code, _ = run_cli(
            ["replicator", "run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            tmp_path,
            check=False,
        )
        assert code == 2


class TestSoupRun:
    def test_time_series_shape(self, tmp_path):
        out = tmp_path / "soup.csv"
        code, report = run_cli(
            ["soup", "run", "--seed", "3", "--samples", "4", "--out", str(out)], tmp_path
        )
        lines = out.read_text().splitlines()
        assert lines[0] == "t,free_A,free_C,free_G,free_U,n_species,n_P,n_AAA_enders"
        assert len(lines) == 1 + 5  # samples + 1 grid points
        first = lines[1].split(",")
        assert float(first[0]) == 0.0
        assert first[1:5] == ["40", "40", "40", "40"]
        assert first[6] == "10"  # catalyst strands at t = 0
        assert first[7] == "40"  # AAA enders at t = 0

    def test_last_sample_lands_on_the_horizon(self, tmp_path):
        # 0.1 * 3 / 3 rounds to 0.10000000000000002, past the horizon
        cfg = tmp_path / "soup.cfg"
        cfg.write_text("horizon = 0.1\n")
        out = tmp_path / "soup.csv"
        run_cli(
            ["soup", "run", "--config", str(cfg), "--samples", "3", "--out", str(out)], tmp_path
        )
        times = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert len(times) == 4
        assert times[-1] == "0.1"

    def test_experiment_mode(self, tmp_path):
        cfg = tmp_path / "soup.cfg"
        cfg.write_text("n_replicates = 4\nhorizon = 2.0\n")
        out = tmp_path / "exp.csv"
        code, report = run_cli(
            ["soup", "run", "--config", str(cfg), "--experiment", "--out", str(out)],
            tmp_path,
        )
        lines = out.read_text().splitlines()
        assert (
            lines[0]
            == "replicate,treatment_free_a,control_free_a,treatment_p_count,control_p_count"
        )
        assert len(lines) == 5
        assert "treatment_wins" in report["config"]

    def test_replicate_scores_match_the_artifact(self, tmp_path):
        cfg = tmp_path / "soup.cfg"
        cfg.write_text("n_replicates = 12\nhorizon = 50.0\n")
        out = tmp_path / "exp.csv"
        _, report = run_cli(
            ["soup", "run", "--seed", "1", "--config", str(cfg), "--experiment", "--out", str(out)],
            tmp_path,
        )
        scores = [(int(r["treatment_free_a"]), int(r["control_free_a"])) for r in read_rows(out)]
        assert len(scores) == 12
        assert_scored_as_reported(scores, report["config"], "treatment_wins", "control_wins")

    def test_time_series_runs_replicate_zeros_stream(self, tmp_path):
        # at t = horizon the single run is the experiment's replicate 0 treatment arm
        cfg = tmp_path / "soup.cfg"
        cfg.write_text("n_replicates = 2\nhorizon = 3.0\n")
        series, exp = tmp_path / "soup.csv", tmp_path / "exp.csv"
        for extra, out in (([], series), (["--experiment"], exp)):
            run_cli(["soup", "run", "--seed", "7", "--config", str(cfg), *extra, "--out", str(out)],
                    tmp_path)
        last, first = read_rows(series)[-1], read_rows(exp)[0]
        assert float(last["t"]) == 3.0 and first["replicate"] == "0"
        assert last["free_A"] == first["treatment_free_a"]
        assert last["n_P"] == first["treatment_p_count"]

    def test_bad_config_value_exits_2(self, tmp_path):
        cfg = tmp_path / "soup.cfg"
        cfg.write_text("k_cat = -2.0\n")
        code, _ = run_cli(
            ["soup", "run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            tmp_path,
            check=False,
        )
        assert code == 2


@pytest.mark.parametrize("command", ["replicator", "soup"])
def test_non_utf8_config_is_a_config_error(tmp_path, capsys, command):
    cfg = tmp_path / "bad.cfg"
    cfg.write_bytes(b"horizon = \xff\n")
    assert main([command, "run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"prene-lab: config error: {cfg} is not valid UTF-8\n"


@pytest.mark.parametrize(
    "command, message", [("replicator", "must be >= 1"), ("soup", "must be finite and > 0")]
)
def test_bad_config_names_the_field_once(tmp_path, capsys, command, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("horizon = 0\n")
    args = [command, "run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"prene-lab: config error: key 'horizon': {message}\n"


class TestRegistryCli:
    def test_ingest_golden_is_canonical_fixed_point(self, tmp_path):
        out = tmp_path / "canon.jsonl"
        run_cli(["registry", "ingest", "--log", GOLDEN_LOG, "--out", str(out)], tmp_path)
        assert out.read_bytes() == open(GOLDEN_LOG, "rb").read()

    def test_ingest_of_an_empty_log_writes_an_empty_file(self, tmp_path):
        empty, out = tmp_path / "empty.jsonl", tmp_path / "canon.jsonl"
        empty.write_bytes(b"")
        _, report = run_cli(["registry", "ingest", "--log", str(empty), "--out", str(out)], tmp_path)
        assert out.read_bytes() == b""
        assert report["config"]["events"] == 0

    def test_ingest_echoes_event_and_object_counts(self, tmp_path):
        out = tmp_path / "canon.jsonl"
        _, report = run_cli(
            ["registry", "ingest", "--log", GOLDEN_LOG, "--out", str(out)], tmp_path
        )
        kinds = [json.loads(line)["kind"] for line in Path(GOLDEN_LOG).read_text().splitlines()]
        assert report["config"]["events"] == len(kinds)
        assert report["config"]["objects"] == sum(k in ("create", "transcribe") for k in kinds)

    @pytest.mark.parametrize(
        "what,extra,expected",
        [
            ("copy-number", ["--content", "POX", "--at", "3"], {"copy_number": 3}),
            ("copy-number", ["--content", "POX"], {"copy_number": 1}),
            (
                "classify",
                ["--content", "POX", "--at", "3"],
                {"gene": True, "meme": True, "turene": True},
            ),
            ("extinct", ["--content", "POX", "--at", "3"], {"extinct": False}),
            (
                "lineage",
                ["--content", "POX"],
                {"nodes": [1, 3, 4, 6], "edges": [[3, 1], [6, 3]]},
            ),
        ],
    )
    def test_queries_match_frozen_golden_answers(self, tmp_path, what, extra, expected):
        out = tmp_path / "q.json"
        run_cli(
            ["registry", "query", "--log", GOLDEN_LOG, "--what", what, *extra, "--out", str(out)],
            tmp_path,
        )
        assert json.loads(out.read_text()) == expected

    def test_longest_shared_of_two_documents(self, tmp_path):
        log = tmp_path / "log.jsonl"
        from prenelab.registry import World

        world = World()
        world.create(1, "document", b"The Origin of Species")
        world.create(2, "document", b"origin stories")
        log.write_text(world.to_jsonl())
        out = tmp_path / "q.json"
        run_cli(
            ["registry", "query", "--log", str(log), "--what", "longest-shared", "--out", str(out)],
            tmp_path,
        )
        got = json.loads(out.read_text())
        assert got["length"] == len("origin ")
        import base64

        assert base64.b64decode(got["longest_shared_b64"]) == b"origin "

    @pytest.mark.parametrize("empty_log, at", [(False, ["--at", "-1"]), (True, [])])
    def test_longest_shared_of_empty_world_exits_2(self, tmp_path, capsys, empty_log, at):
        log = tmp_path / "empty.jsonl"
        log.write_text("")
        args = ["--log", str(log) if empty_log else GOLDEN_LOG, "--what", "longest-shared", *at]
        assert main(["registry", "query", *args]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "prene-lab: config error: key '--at': no object is alive at t=-1 for longest-shared\n"
        )

    @pytest.mark.parametrize("what", ["copy-number", "classify", "extinct", "lineage"])
    def test_content_b64_answers_as_content_does(self, capsys, what):
        answers = []
        for flag, value in (("--content", "POX"), ("--content-b64", "UE9Y")):
            args = ["registry", "query", "--log", GOLDEN_LOG, "--what", what, "--at", "3", flag, value]
            assert main(args) == 0
            answers.append(capsys.readouterr().out.splitlines()[0])
        assert answers[0] == answers[1]

    def test_content_b64_that_is_not_base64_exits_2(self, capsys):
        args = ["registry", "query", "--log", GOLDEN_LOG, "--what", "extinct", "--content-b64", "QUJ"]
        assert main(args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "prene-lab: config error: --content-b64 is not valid base64\n"

    def test_query_without_content_exits_2(self, tmp_path):
        code, _ = run_cli(
            ["registry", "query", "--log", GOLDEN_LOG, "--what", "copy-number"],
            tmp_path,
            check=False,
        )
        assert code == 2

    def test_both_content_flags_exit_2(self):
        proc = run_proc(
            ["registry", "query", "--log", GOLDEN_LOG, "--what", "copy-number",
             "--content", "NOPE", "--content-b64", "UE9Y"]
        )
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert "usage" in proc.stderr and "not allowed with argument" in proc.stderr

    def test_at_out_of_range_exits_2(self, tmp_path):
        code, _ = run_cli(
            ["registry", "query", "--log", GOLDEN_LOG, "--what", "extinct",
             "--content", "POX", "--at", "99"],
            tmp_path,
            check=False,
        )
        assert code == 2

    def test_missing_log_exits_1(self, tmp_path):
        code, _ = run_cli(
            ["registry", "ingest", "--log", str(tmp_path / "nope.jsonl"),
             "--out", str(tmp_path / "o.jsonl")],
            tmp_path,
            check=False,
        )
        assert code == 1

    def test_corrupt_log_exits_1(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        code, _ = run_cli(
            ["registry", "ingest", "--log", str(bad), "--out", str(tmp_path / "o.jsonl")],
            tmp_path,
            check=False,
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["ingest", "query"])
    def test_non_utf8_log_is_a_log_error(self, tmp_path, capsys, command):
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b'{"i": 0, "kind": "create", "obj": 1, "substrate": "\xff"}\n')
        extra = {
            "ingest": ["--out", str(tmp_path / "o.jsonl")],
            "query": ["--what", "copy-number", "--content", "ABC"],
        }[command]
        assert main(["registry", command, "--log", str(bad), *extra]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"prene-lab: log error: {bad} is not valid UTF-8\n"
        assert not (tmp_path / "o.jsonl").exists()

    @pytest.mark.parametrize("content_b64", ["QUJ", "QU JD!!", "QUJD\u00e9", 5])
    @pytest.mark.parametrize("command", ["ingest", "query"])
    def test_bad_base64_content_is_a_log_error(self, tmp_path, command, content_b64):
        # valid content on line 1, so the message must name line 2
        bad = tmp_path / "bad.jsonl"
        lines = [
            {"i": 0, "kind": "create", "obj": 1, "substrate": "brain", "content_b64": "QUJD"},
            {"i": 1, "kind": "create", "obj": 2, "substrate": "brain", "content_b64": content_b64},
        ]
        bad.write_text("".join(json.dumps(line) + "\n" for line in lines))
        extra = {
            "ingest": ["--out", str(tmp_path / "o.jsonl")],
            "query": ["--what", "copy-number", "--content", "ABC"],
        }[command]
        proc = run_proc(["registry", command, "--log", str(bad), *extra])
        assert proc.returncode == 1
        assert proc.stderr == "prene-lab: log error: line 2: content_b64 is not valid base64\n"

    @pytest.mark.parametrize(
        "record, missing",
        [
            ({"i": 1, "kind": "create", "obj": 2}, ["content_b64", "substrate"]),
            ({"i": 1, "kind": "create", "obj": 2, "content_b64": "QUJD"}, ["substrate"]),
            ({"i": 1, "kind": "create", "obj": 2, "substrate": "brain"}, ["content_b64"]),
            ({"i": 1, "kind": "transcribe", "obj": 2, "substrate": "computer"}, ["src"]),
            ({"i": 1, "kind": "transcribe", "obj": 2, "src": 1}, ["substrate"]),
        ],
    )
    @pytest.mark.parametrize("command", ["ingest", "query"])
    def test_missing_kind_fields_are_a_log_error(self, tmp_path, capsys, command, record, missing):
        log = tmp_path / "bad.jsonl"
        first = {"i": 0, "kind": "create", "obj": 1, "substrate": "brain", "content_b64": "QUJD"}
        log.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n")
        extra = {
            "ingest": ["--out", str(tmp_path / "o.jsonl")],
            "query": ["--what", "copy-number", "--content", "ABC"],
        }[command]
        code, _ = run_cli(["registry", command, "--log", str(log), *extra], tmp_path, check=False)
        assert code == 1
        assert capsys.readouterr().err == f"prene-lab: log error: line 2: missing fields {missing}\n"


    @pytest.mark.parametrize(
        "record, message",
        [
            ({"i": 1, "kind": "destroy", "obj": {}}, "obj must be an integer, got {}"),
            ({"i": 1, "kind": "transcribe", "obj": 2, "substrate": "computer", "src": [1]},
             "src must be an integer, got [1]"),
            ({"i": False, "kind": "destroy", "obj": 1}, "i must be an integer, got false"),
            ({"i": 1, "kind": "create", "obj": True, "substrate": "brain", "content_b64": "QUJD"},
             "obj must be an integer, got true"),
            ({"i": 1, "kind": "create", "obj": 1.5, "substrate": "brain", "content_b64": "QUJD"},
             "obj must be an integer, got 1.5"),
        ],
    )
    @pytest.mark.parametrize("command", ["ingest", "query"])
    def test_non_integer_id_is_a_log_error(self, tmp_path, command, record, message):
        log = tmp_path / "bad.jsonl"
        first = {"i": 0, "kind": "create", "obj": 1, "substrate": "brain", "content_b64": "QUJD"}
        log.write_text(json.dumps(first) + "\n" + json.dumps(record) + "\n")
        extra = {
            "ingest": ["--out", str(tmp_path / "o.jsonl")],
            "query": ["--what", "copy-number", "--content", "ABC"],
        }[command]
        proc = run_proc(["registry", command, "--log", str(log), *extra])
        assert proc.returncode == 1
        assert proc.stderr == f"prene-lab: log error: line 2: {message}\n"
        assert proc.stdout == ""

    @pytest.mark.parametrize("canonical", [True, False])
    def test_integer_past_the_digit_limit_is_a_log_error(self, tmp_path, capsys, canonical):
        log = tmp_path / "big.jsonl"
        first = '{"i":0,"kind":"create","obj":1,"substrate":"brain","content_b64":"QUJD","src":null}'
        big = '{"i":1,"kind":"destroy","obj":%s,"substrate":null,"content_b64":null,"src":null}' % ("9" * 5000)
        log.write_text(first + "\n" + (big if canonical else big.replace('"i":1,', '"i": 1,')) + "\n")
        args = ["registry", "query", "--log", str(log), "--what", "copy-number", "--content", "ABC"]
        code, _ = run_cli(args, tmp_path, check=False)
        assert code == 1
        limit = sys.get_int_max_str_digits()
        assert capsys.readouterr().err == f"prene-lab: log error: line 2: integer of more than {limit} digits\n"


class TestRunReport:
    """`main` prints one run report, after the command has succeeded."""

    @pytest.mark.parametrize(
        "kind, code",
        [("config", 2), ("log", 1), ("io", 1)],
    )
    def test_failing_command_prints_no_report(self, tmp_path, capsys, kind, code):
        bad_log = tmp_path / "bad.jsonl"
        bad_log.write_text("not json\n")
        cfg = tmp_path / "soup.cfg"
        cfg.write_text("n_replicates = 0\n")
        args = {
            "config": ["soup", "run", "--config", str(cfg), "--out", str(tmp_path / "o.csv")],
            "log": ["registry", "ingest", "--log", str(bad_log), "--out", str(tmp_path / "o")],
            "io": ["registry", "query", "--log", str(tmp_path / "nope.jsonl"),
                   "--what", "longest-shared"],
        }[kind]
        assert main(args) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"prene-lab: {kind} error: ")
        assert captured.err.count("\n") == 1
        assert not (tmp_path / "o.csv").exists()

    @pytest.mark.parametrize("command, flag, text", [
        (["registry", "ingest"], "--log", None),
        (["registry", "query", "--what", "extinct", "--content", "POX"], "--log", None),
        (["replicator", "run"], "--config", "genome_length = 40\ncoat_start = 0\ncoat_stop = 8\nhorizon = 4\n"),
        (["soup", "run"], "--config", "horizon = 0.1\n"),
    ], ids=["ingest", "query", "replicator", "soup"])
    def test_out_naming_an_input_exits_2_and_leaves_it(self, tmp_path, capsys, monkeypatch,
                                                       command, flag, text):
        monkeypatch.chdir(tmp_path)
        data = Path(GOLDEN_LOG).read_bytes() if text is None else text.encode("utf-8")
        (tmp_path / "input").write_bytes(data)
        assert main([*command, flag, "input", "--out", "./input"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"prene-lab: config error: key '--out': names the same file as {flag}\n"
        assert (tmp_path / "input").read_bytes() == data
        assert [p.name for p in tmp_path.iterdir()] == ["input"]

    @pytest.mark.parametrize("command, code", [
        (["lifespan", "table", "--g", "1/2", "--g", "2/4"], 2),
        (["registry", "query", "--log", GOLDEN_LOG, "--what", "extinct", "--content", "POX",
          "--at", "99"], 2),
        (["registry", "ingest", "--log", "bad.jsonl"], 1),
        (["registry", "query", "--log", "bad.jsonl", "--what", "longest-shared"], 1),
    ], ids=["table", "query-at", "ingest-log", "query-log"])
    def test_refused_command_leaves_no_out_file(self, tmp_path, capsys, monkeypatch, command, code):
        # artifacts are written as they are made, so every refusal must come before the open
        monkeypatch.chdir(tmp_path)
        (tmp_path / "bad.jsonl").write_text("not json\n")
        assert main([*command, "--out", "sub/o.out"]) == code
        assert capsys.readouterr().out == ""
        assert [p.name for p in tmp_path.iterdir()] == ["bad.jsonl"]

    def test_query_result_printed_before_the_report(self, capsys):
        args = ["registry", "query", "--log", GOLDEN_LOG, "--what", "extinct", "--content", "POX"]
        assert main(args) == 0
        result, report = capsys.readouterr().out.splitlines()
        assert json.loads(result) == {"extinct": False}
        report = json.loads(report)
        assert report["subcommand"] == "registry query"
        assert report["artifacts"] == []
        assert report["config"] == {"log": GOLDEN_LOG, "what": "extinct", "at": None}
        assert set(report) == {
            "tool", "version", "subcommand", "rng_algorithm", "seed", "config",
            "wall_time_s", "artifacts",
        }

    @pytest.mark.parametrize("command", [
        ["lifespan", "table", "--days", "1"],
        ["registry", "ingest", "--log", GOLDEN_LOG],
        ["registry", "query", "--log", GOLDEN_LOG, "--what", "extinct", "--content", "POX"],
    ], ids=["table", "ingest", "query"])
    def test_artifacts_are_listed_as_normalized_paths(self, tmp_path, monkeypatch, command):
        monkeypatch.chdir(tmp_path)
        _, report = run_cli([*command, "--out", "./sub//a.out"], tmp_path)
        assert report["artifacts"] == [str(Path("sub/a.out"))]
        assert (tmp_path / "sub" / "a.out").is_file()


class TestClosedStdout:
    """A closed stdout is an io error like any other: one line, exit 1."""

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", [
        ["lifespan", "table", "--days", "2", "--out", "{tmp}/t.csv"],
        ["registry", "query", "--log", GOLDEN_LOG, "--what", "extinct", "--content", "POX"],
    ], ids=["report", "query-result"])
    def test_one_stderr_line_and_exit_1(self, tmp_path, command, unbuffered):
        read, write = os.pipe()
        os.close(read)  # closed before the child writes
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [sys.executable, "-m", "prenelab", *(a.format(tmp=tmp_path) for a in command)]
        try:
            proc = subprocess.run(argv, stdout=write, stderr=subprocess.PIPE, text=True,
                                  cwd=ROOT, env=env)
        finally:
            os.close(write)
        assert proc.stderr == "prene-lab: io error: [Errno 32] Broken pipe\n"
        assert proc.returncode == 1


class TestUsageErrors:
    @pytest.mark.parametrize(
        "args",
        [
            ["lifespan", "table", "--days", "nope", "--out", "x.csv"],
            ["lifespan", "table", "--days", "-3", "--out", "x.csv"],
            ["lifespan", "table"],  # --out is required
            ["lifespan", "growth", "--g", "3/2", "--out", "x.csv"],  # g > 1
            ["lifespan", "growth", "--g", "0.5", "--out", "x.csv"],  # not a fraction
            ["replicator", "run", "--seed", "-1", "--out", "x.csv"],
            ["soup", "run", "--format", "xml", "--out", "x.csv"],
            ["bogus"],
        ],
    )
    def test_argparse_usage_exits_2(self, args, capsys):
        with pytest.raises(SystemExit) as err:
            main(args)
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert "usage" in message or "error" in message

    def test_flag_is_named_in_message(self, capsys):
        with pytest.raises(SystemExit):
            main(["lifespan", "table", "--days", "nope", "--out", "x.csv"])
        message = capsys.readouterr().err
        assert "--days" in message
        assert "not an integer: 'nope'" in message

    @pytest.mark.parametrize(
        "flag, inside, outside, message",
        [
            (["lifespan", "table", "--days"], 2**32 - 1, 2**32, "unsigned 32-bit"),
            (["replicator", "run", "--seed"], 2**64 - 1, 2**64, "unsigned 64-bit"),
            (["soup", "run", "--seed"], 0, -1, "unsigned 64-bit"),
            (["lifespan", "sweep", "--steps"], 1, 0, "must be >= 1"),
        ],
    )
    def test_integer_flag_limits(self, flag, inside, outside, message, capsys):
        # parse only: an accepted limit such as --days 2**32-1 would run for ever
        parser = build_parser()
        args = parser.parse_args([*flag, str(inside), "--out", "x.csv"])
        assert getattr(args, flag[-1].lstrip("-")) == inside
        with pytest.raises(SystemExit) as err:
            parser.parse_args([*flag, str(outside), "--out", "x.csv"])
        assert err.value.code == 2
        assert message in capsys.readouterr().err


class TestDeterminism:
    """The seed reaches the artifacts.  That a rerun of the same command
    line gives the same bytes is test_acceptance's criterion 8."""

    def test_seed_changes_replicator_events(self, tmp_path):
        cfg = tmp_path / "rep.cfg"
        cfg.write_text(
            "genome_length = 40\ncoat_start = 0\ncoat_stop = 8\ncapacity = 15\n"
            "horizon = 5\nn_pairs = 2\nn_founders = 2\n"
        )
        traces = []
        for seed in ("1", "2"):
            events = tmp_path / f"events{seed}.jsonl"
            run_cli(
                ["replicator", "run", "--seed", seed, "--config", str(cfg),
                 "--out", str(tmp_path / f"rep{seed}.csv"), "--events", str(events)],
                tmp_path,
            )
            traces.append(events.read_bytes())
        assert traces[0] != traces[1]


# Runs one command in a fresh interpreter, then reports its exit code and
# whether NumPy was loaded.
_IMPORT_PROBE = """\
import json, sys
from prenelab.cli import main
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version and --help exit from argparse
    code = exc.code
print(json.dumps({
    "code": code,
    "numpy": "numpy" in sys.modules,
    "prenelab": sorted(m for m in sys.modules if m.startswith("prenelab.")),
    "stdlib": [m for m in ("dataclasses", "fractions", "inspect", "pickle", "multiprocessing",
                           "concurrent.futures", "subprocess") if m in sys.modules],
}))
"""
_START = ["cli", "config"]  # all that --version and --help load
_STDLIB = ["dataclasses", "fractions", "inspect", "pickle"]
# the replicates fork by hand: no command loads a process-pool library
_NO_POOL = ["multiprocessing", "concurrent.futures", "subprocess"]


class TestImports:
    """A command loads NumPy, and a model module, only if it runs that model.

    `--version` and `--help` load only `cli` and `config`: no `rng`, no
    model module, nor `dataclasses` (with the `inspect` it pulls in),
    `fractions` or `pickle`.  `soup run` loads neither `kernels` nor
    `replicator`; the registry commands do without `fractions` and
    `pickle`, lifespan without `pickle`, and no command loads a
    process-pool library.
    """

    @pytest.mark.parametrize(
        "args, artifact, numpy, modules, absent",
        [
            (["--version"], None, False, _START, _STDLIB),
            (["--help"], None, False, _START, _STDLIB),
            (["lifespan", "table", "--days", "5", "--out", "census.csv"], "census.csv", False,
             _START + ["rng", "lifespan"], ["pickle"]),
            (["registry", "ingest", "--log", GOLDEN_LOG, "--out", "canon.jsonl"],
             "canon.jsonl", False, _START + ["rng", "registry"], ["fractions", "pickle"]),
            (["registry", "query", "--log", GOLDEN_LOG, "--what", "classify",
              "--content", "POX", "--out", "query.json"], "query.json", False,
             _START + ["rng", "registry"], ["fractions", "pickle"]),
            (["replicator", "run", "--config", "rep.cfg", "--out", "rep.csv",
              "--events", "events.jsonl"], "events.jsonl", True,
             _START + ["rng", "kernels", "replicator"], []),
            (["soup", "run", "--config", "soup.cfg", "--samples", "3", "--out", "soup.csv"],
             "soup.csv", True, _START + ["rng", "soup"], []),
        ],
        ids=["version", "help", "lifespan", "ingest", "query", "replicator", "soup"],
    )
    def test_numpy_loads_only_for_the_models_that_use_it(
        self, tmp_path, args, artifact, numpy, modules, absent
    ):
        (tmp_path / "rep.cfg").write_text("n_pairs = 2\nhorizon = 4\n")
        (tmp_path / "soup.cfg").write_text("horizon = 1.0\n")
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE, *args],
            capture_output=True,
            text=True,
            cwd=tmp_path,  # outside the repository
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded["code"] == 0
        assert loaded["numpy"] == numpy
        assert loaded["prenelab"] == sorted(f"prenelab.{m}" for m in modules)
        assert [m for m in loaded["stdlib"] if m in absent + _NO_POOL] == []
        if artifact is not None:
            assert (tmp_path / artifact).stat().st_size > 0

    def test_every_cli_annotation_resolves_without_loading_a_model(self):
        # annotations in the start-up modules (cli, config, rng) naming what
        # start-up does not import would raise NameError in typing.get_type_hints
        script = """\
import json, sys, types, typing
import prenelab.cli, prenelab.config, prenelab.rng
checked = {}
for module in (prenelab.cli, prenelab.config, prenelab.rng):
    functions = [f for f in vars(module).values()
                 if isinstance(f, types.FunctionType) and f.__module__ == module.__name__]
    for f in functions:
        typing.get_type_hints(f)
    checked[module.__name__] = len(functions)
print(json.dumps([checked, sorted({"fractions", "numpy", "prenelab.registry"} & set(sys.modules))]))
"""
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0, proc.stderr
        checked, loaded = json.loads(proc.stdout)
        assert checked["prenelab.cli"] > 10
        assert checked["prenelab.config"] > 10 and checked["prenelab.rng"] > 3
        assert loaded == []


class TestConsoleScript:
    def test_entry_point_reports_version(self):
        # call the declared console-script target, so this needs no install
        tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11
        with open(ROOT / "pyproject.toml", "rb") as f:
            target = tomllib.load(f)["project"]["scripts"]["prene-lab"]
        module, _, func = target.partition(":")
        script = f"import sys, {module}; sys.exit({module}.{func}(['--version']))"
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        assert proc.returncode == 0
        assert "prene-lab" in proc.stdout
