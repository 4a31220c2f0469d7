"""The benchmark's workloads are deterministic: any spread is the host's.

Each workload runs in two separate processes with the same seed and a
fixed number of units, under different ``PYTHONHASHSEED`` values.  The
hypothesis digest and every exact count the traced run reports must
match bit for bit, and tracing must not change a single hypothesis.

    python3 -m pytest perfbench/test_determinism.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent

#: Units per run: ops on the sweeps, one pass per placement on the stream.
UNITS = {"sweep-paper": 8, "sweep-powerlaw": 8, "stream-incident": 3}

#: Per-layer metrics that count work rather than time it.
EXACT = (
    "netsim.converges",
    "netsim.prefixes_converged",
    "netsim.prefixes_reused",
    "netsim.routing_evictions",
    "netsim.traces_computed",
    "netsim.trace_hit_ratio",
    "netsim.trace_evictions",
    "experiments.converges_per_scenario",
    "core.edge_inputs_per_scenario",
    "core.greedy_iterations",
    "core.failure_sets",
    "core.reroute_sets",
    "empathy.verdicts_conflict",
    "stream.events_quarantined",
    "stream.transitions_scheduled",
    "stream.episodes_coalesced",
    "stream.reports_emitted",
    "stream.cross_shard_episodes",
    "stream.checkpoints_saved",
    "stream.shard_balance",
)


def _run(script: Path, workload: str, cwd: Path, trace: int = 1, hashseed="0"):
    return subprocess.run(
        [
            sys.executable, str(script), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--ops", str(UNITS[workload]),
            "--trace", str(trace),
        ],
        capture_output=True, text=True, cwd=cwd, timeout=600,
        env=dict(os.environ, PYTHONHASHSEED=hashseed),
    )


def _digest(stdout: str) -> str:
    line = next(l for l in stdout.splitlines() if "digest" in l)
    return line.split("digest ")[1].split(";")[0]


@pytest.mark.parametrize("workload", sorted(UNITS))
def test_same_seed_same_outputs_and_counts(workload):
    first = _run(HERE / "run.py", workload, HERE.parent, hashseed="0")
    second = _run(HERE / "run.py", workload, HERE.parent, hashseed="1")
    untraced = _run(HERE / "run.py", workload, HERE.parent, trace=0)
    for proc in (first, second, untraced):
        assert proc.returncode == 0, proc.stderr
    a = json.loads(first.stdout.splitlines()[-1])
    b = json.loads(second.stdout.splitlines()[-1])
    c = json.loads(untraced.stdout.splitlines()[-1])
    assert a["correct"] and b["correct"] and c["correct"]
    assert (a["attempted"], a["failed"]) == (b["attempted"], b["failed"])
    assert _digest(first.stdout) == _digest(second.stdout)
    # Tracing wraps entry points but must not change a single hypothesis.
    assert _digest(first.stdout) == _digest(untraced.stdout)
    for name in EXACT:
        assert a["metrics"][name] == b["metrics"][name], name


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    proc = _run(tmp_path / "perfbench" / "run.py", "sweep-paper", tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
