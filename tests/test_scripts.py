"""The scripts under ``scripts/`` run end to end in a fresh interpreter."""

import os
import subprocess
import sys
from pathlib import Path

import caflow
from caflow.cli import run_reproduce

SRC = Path(caflow.__file__).resolve().parents[1]
SCRIPTS = SRC.parent / "scripts"


def run_script(name, *args):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args], env=env,
        capture_output=True, text=True, timeout=300,
    )


def test_reproduce_all_writes_the_bundled_bytes(tmp_path):
    done = run_script("reproduce_all.py", "--only", "fig2", "--out", str(tmp_path / "script"))
    assert done.returncode == 0, done.stderr
    expected = run_reproduce("fig2", tmp_path / "direct")
    assert (tmp_path / "script" / "fig2.csv").read_bytes() == expected.read_bytes()


def test_policy_comparison_prints_a_header_and_one_row():
    done = run_script("policy_comparison.py", "--rhos", "0.3")
    assert done.returncode == 0, done.stderr
    header, *rows = done.stdout.splitlines()
    assert header.split() == ["rho", "jfq", "jsq", "bernoulli"]
    assert len(rows) == 1 and rows[0].split()[0] == "0.30"
