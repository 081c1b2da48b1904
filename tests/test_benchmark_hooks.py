"""The benchmark wraps and calls program functions by name; a hook that is
deleted or renamed fails here before it breaks ``perfbench/run.py``."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glossmt

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_trace_stage_installs_on_the_program():
    # A fresh process: install() replaces module attributes for good.
    script = (
        "import importlib.util, sys\n"
        "spec = importlib.util.spec_from_file_location('trace_stage', sys.argv[1])\n"
        "trace_stage = importlib.util.module_from_spec(spec)\n"
        "spec.loader.exec_module(trace_stage)\n"
        "trace_stage.install(trace_stage.Tracer())\n"
    )
    src = str(Path(glossmt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script, str(PERFBENCH / "trace_stage.py")], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


@pytest.mark.parametrize(
    "module,name",
    [
        ("config", "load_config"),
        ("corpus", "read_segments"),
        ("postprocess", "read_outputs"),
        ("metrics", "chrf"),
        ("metrics", "significance_test"),
    ],
)
def test_functions_the_benchmark_calls_exist(module, name):
    assert callable(getattr(importlib.import_module(f"glossmt.{module}"), name))
