"""Checks of the benchmark itself.

    python -m pytest perfbench/test_smoke.py

The smoke run takes every workload through the correctness gate on tiny
inputs, untraced and traced.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from run import END_TO_END_UNITS, PER_LAYER_UNITS  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402


def test_seed_reproduces_inputs(tmp_path):
    workload = WORKLOADS["dense-multipair"].sized(smoke=True)
    first = generate(workload, 7, tmp_path / "a")["inputs_sha256"]
    again = generate(workload, 7, tmp_path / "b")["inputs_sha256"]
    other = generate(workload, 8, tmp_path / "c")["inputs_sha256"]
    assert first == again
    assert first != other


def test_smoke_run_passes_gate_with_expected_counts():
    completed = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "all", "--smoke", "--seconds", "1", "--seed", "3"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert completed.returncode == 0, completed.stderr[-3000:]
    result = json.loads(completed.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    metrics = result["metrics"]
    for name in WORKLOADS:
        for metric in {**END_TO_END_UNITS, **PER_LAYER_UNITS}:
            assert f"{name}/{metric}" in metrics
        # Counts the unchanged pipeline is known to produce.
        assert metrics[f"{name}/terminology.matcher_builds"]["value"] == 2.0
        assert metrics[f"{name}/terminology.rematch_ratio"]["value"] == 2.0
        assert metrics[f"{name}/stub.connections_per_request"]["value"] == 1.0
        assert metrics[f"{name}/runner.errors"]["value"] == 0


def test_fails_without_program(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "big-glossary", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
