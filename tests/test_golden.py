"""No output bit moves unless the change says so: the recorder in
tests/golden.py, run in a fresh process with one BLAS thread, reproduces the
digests in tests/data/golden.json.  A change that moves bits on purpose
rewrites the file with `python -m tests.golden --write` and names each digest
that moved.

The digests hold for the numpy version and BLAS they were recorded with.
Under another numpy or BLAS the test skips, naming both environments: a
product there may round otherwise without any change to the package."""
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from tests.golden import RECORD, THREAD_VARS, environment

ROOT = Path(__file__).resolve().parents[1]


def test_outputs_match_the_golden_digests():
    recorded = json.loads(RECORD.read_text())
    here = {**environment(), "blas_threads": "1"}
    if recorded["environment"] != here:
        pytest.skip(f"digests recorded under {recorded['environment']}, this is {here}")
    env = {**os.environ, **dict.fromkeys(THREAD_VARS, "1"),
           "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), str(ROOT)])}
    run = subprocess.run([sys.executable, "-m", "tests.golden"], cwd=ROOT, env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    fresh = json.loads(run.stdout)
    assert fresh["environment"] == recorded["environment"]
    moved = sorted(name for name in recorded["digests"].keys() | fresh["digests"].keys()
                   if recorded["digests"].get(name) != fresh["digests"].get(name))
    assert moved == []
