"""Artifact manifest: each command line in data/artifacts.json, run through
`cli.main` in a fresh directory, writes files with the recorded SHA-256
digests, and the run report lists exactly those files.  `{data}` in an
argv stands for this directory's `data/`.  The manifest names the RNG
label it was recorded under, so an artifact change edits this one file
and shows the label bump beside it.  Every subcommand has a pinned
command line there, and every `prene-lab` line of the README runs, on
the inputs in data/readme/ and the golden log."""

import hashlib
import io
import json
import re
import shlex
import shutil
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from prenelab import cli, rng

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "artifacts.json").read_text(encoding="utf-8"))
README = Path(__file__).resolve().parents[1] / "README.md"
SUBCOMMANDS = {
    ("lifespan", "table"), ("lifespan", "sweep"), ("lifespan", "growth"),
    ("replicator", "run"), ("soup", "run"), ("registry", "ingest"), ("registry", "query"),
}


def test_manifest_is_recorded_under_the_current_rng_label():
    assert MANIFEST["rng_algorithm"] == rng.RNG_ALGORITHM


@pytest.mark.parametrize("run", MANIFEST["runs"], ids=lambda run: " ".join(run["argv"]))
def test_outputs_keep_their_recorded_bytes(tmp_path, monkeypatch, run):
    monkeypatch.chdir(tmp_path)
    buf = io.StringIO()
    with redirect_stdout(buf):
        assert cli.main([arg.format(data=DATA) for arg in run["argv"]]) == 0
    digests = {name: hashlib.sha256(Path(name).read_bytes()).hexdigest() for name in run["sha256"]}
    assert digests == run["sha256"]
    assert json.loads(buf.getvalue().splitlines()[-1])["artifacts"] == list(run["sha256"])


def test_manifest_pins_every_subcommand():
    assert {tuple(run["argv"][:2]) for run in MANIFEST["runs"]} >= SUBCOMMANDS


def readme_command_lines():
    """The argv of each `prene-lab` line in README's sh blocks, in order."""
    blocks = re.findall(r"^```sh\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("prene-lab ")]


def test_readme_command_lines_run(tmp_path, monkeypatch):
    # the ingest line writes the canonical.jsonl that the query lines read
    monkeypatch.chdir(tmp_path)
    for path in (DATA / "readme").iterdir():
        shutil.copy(path, tmp_path)
    shutil.copy(DATA / "registry_golden.jsonl", "raw.jsonl")
    commands = readme_command_lines()
    assert {tuple(argv[:2]) for argv in commands} >= SUBCOMMANDS
    for argv in commands:
        buf = io.StringIO()
        with redirect_stdout(buf):
            assert cli.main(argv) == 0, argv
        named = [argv[argv.index(flag) + 1] for flag in ("--out", "--events") if flag in argv]
        assert json.loads(buf.getvalue().splitlines()[-1])["artifacts"] == named, argv
        assert all(Path(name).is_file() for name in named), argv
