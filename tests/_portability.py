"""Do the NumPy-free subcommands write their recorded bytes under another Python?

    python tests/_portability.py <python>

e.g. `python tests/_portability.py ~/.pyenv/versions/3.13.0/bin/python`.
Each `lifespan` and `registry` command line of tests/data/artifacts.json
runs through `cli.main` under the given interpreter, with
`PYTHONPATH=src`, in a fresh temporary directory; the sha256 of each file
it writes is compared with the recorded digest.  These subcommands do not
import NumPy, so any interpreter that `pyproject.toml` allows can run them.
One line is printed per command line, and the exit status is 1 if any
digest differs or any run fails.  Stdlib only; pytest does not collect
this file.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DATA = ROOT / "tests" / "data"
NUMPY_FREE = ("lifespan", "registry")
RUN = "import sys; from prenelab.cli import main; sys.exit(main(sys.argv[1:]))"


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    python = argv[0]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    version = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                             capture_output=True, text=True, check=True).stdout.strip()
    manifest = json.loads((DATA / "artifacts.json").read_text(encoding="utf-8"))
    runs = [run for run in manifest["runs"] if run["argv"][0] in NUMPY_FREE]
    matched = 0
    for run in runs:
        args = [arg.format(data=DATA) for arg in run["argv"]]
        with tempfile.TemporaryDirectory() as tmp:
            done = subprocess.run([python, "-c", RUN, *args], cwd=tmp, env=env,
                                  capture_output=True, text=True)
            digests = {
                name: hashlib.sha256((Path(tmp) / name).read_bytes()).hexdigest()
                for name in run["sha256"] if (Path(tmp) / name).is_file()
            }
        ok = done.returncode == 0 and digests == run["sha256"]
        matched += ok
        detail = "" if ok else f" (exit {done.returncode}) {done.stderr.strip()[-200:]}"
        print(f"{'ok  ' if ok else 'DIFF'} {' '.join(run['argv'])}{detail}")
    print(f"Python {version}: {matched} of {len(runs)} command lines wrote their recorded bytes")
    return 0 if matched == len(runs) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
