"""The benchmark's own checks, run as the benchmark runs them.

``perfbench/selftest.py`` confirms that every output checker accepts a
genuine output and rejects a corrupted one; a one-second dense-oracle run
confirms that the fit, predict and oracle-check commands still produce
outputs those checkers accept; one sparse-fit round puts the paper's default
design (two components) through the benchmark's score, descent, KKT, AIC and
held-out-last checks. All run as subprocesses from the checkout.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(*argv):
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, capture_output=True, text=True, timeout=300
    )


def test_selftest_checkers_reject_corruption():
    proc = run_script("perfbench/selftest.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "14/14 checkers reject their corrupted output" in proc.stdout + proc.stderr


def test_dense_oracle_round_is_correct():
    proc = run_script(
        "perfbench/run.py", "--workload", "dense-oracle", "--seed", "1", "--seconds", "1", "--trace", "0"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0
    assert result["attempted"] > 0


def test_sparse_fit_round_is_correct():
    # run.py always completes its first round, so a duration shorter than any
    # round runs exactly one, whatever the machine's speed
    proc = run_script(
        "perfbench/run.py", "--workload", "sparse-fit", "--seed", "1", "--seconds", "0.001", "--trace", "0"
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["correct"] is True, proc.stderr
    assert result["attempted"] == 916
    # the four canary fits may miss convergence or the IMSE ceiling
    assert result["failed"] <= 4
