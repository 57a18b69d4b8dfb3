"""`python -m recdiv` in a fresh interpreter gives the golden bytes.

The in-process tests import the package through pytest, and pool workers
fork from it with every module loaded, so a module that the entry point
fails to import, or a package root that breaks on import, would not show
there. These cases start the interpreter anew, with only src on the path.
"""

import os
import subprocess
import sys
from pathlib import Path

from test_golden import COMMAND_DIGESTS, COMMANDS, DIGESTS, LIMIT, SPECS, _sha

SRC = Path(__file__).resolve().parent.parent / "src"


def _recdiv(argv, cwd) -> bytes:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-m", "recdiv", *argv], cwd=cwd,
                          capture_output=True, env=env, timeout=120)
    assert (proc.returncode, proc.stderr) == (0, b"")
    return proc.stdout


def test_module_sweep_on_two_workers_gives_golden_bytes(tmp_path):
    poly, init = SPECS["tribonacci"]
    out = _recdiv(["sweep", "--poly", poly, "--init", init, "--limit", str(LIMIT),
                   "--workers", "2", "--csv", "rows.csv", "--json", "summary.json"], tmp_path)
    got = {
        "csv": _sha((tmp_path / "rows.csv").read_bytes()),
        "json": _sha((tmp_path / "summary.json").read_bytes()),
        "sweep_stdout": _sha(out),
    }
    want = DIGESTS["tribonacci"]
    assert got == {key: want[key] for key in got}


def test_module_detect_gives_golden_bytes(tmp_path):
    name = "detect-structural-divisor"
    assert _sha(_recdiv(COMMANDS[name], tmp_path)) == COMMAND_DIGESTS[name]
