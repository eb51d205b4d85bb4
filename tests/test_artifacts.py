"""Artifact manifest: each command line in data/artifacts.json, run through
`cli.main` in a fresh directory, writes files with the recorded SHA-256
digests, and the run report lists exactly those files.  `{data}` in an
argv stands for this directory's `data/`.  The manifest names the RNG
label it was recorded under, so an artifact change edits this one file
and shows the label bump beside it."""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from prenelab import cli, rng

DATA = Path(__file__).parent / "data"
MANIFEST = json.loads((DATA / "artifacts.json").read_text(encoding="utf-8"))


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
