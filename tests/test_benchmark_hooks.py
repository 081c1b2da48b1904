"""The benchmark wraps and calls program functions by name; a hook that is
deleted or renamed fails here before it breaks ``perfbench/run.py``."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glossmt
from test_cli import translated_project

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


def test_trace_stage_spans_the_layers_the_benchmark_reports(tmp_path, fixtures_dir, stub_endpoint):
    # A per-layer metric reads 0 when the program stops calling the name it wraps.
    config, _ = translated_project(tmp_path, fixtures_dir, stub_endpoint)
    src = str(Path(glossmt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    layers = {
        "build": {"terminology.matcher_build", "terminology.find_candidates", "terminology.casefold_with_map",
                  "jsonl.iter_jsonl"},
        "score": {"terminology.read_candidates", "metrics.term_accuracy", "jsonl.iter_jsonl"},
    }
    for stage, names in layers.items():
        spans_out = tmp_path / f"{stage}.spans.json"
        result = subprocess.run(
            [sys.executable, str(PERFBENCH / "trace_stage.py"), str(spans_out), stage, "--config", str(config)],
            env=env, capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr
        trace = json.loads(spans_out.read_text(encoding="utf-8"))
        assert names <= {trace["names"][span[0]] for span in trace["spans"]}, stage
