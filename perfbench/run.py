"""Pipeline benchmark for glossmt: ingest -> build -> translate -> score.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--smoke]

Run from a source checkout (the program is imported from ``src/``). Each
run generates the workload's inputs from the seed, starts the fake endpoint
(``stub.py``) as its own process, and repeats full pipeline passes until
``--seconds`` are used up. Every stage is its own ``python -m glossmt.cli``
process, as a user runs it; wall time runs from spawn to exit and CPU time
and peak RSS come from ``os.wait4``. Timings are medians over the passes.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced passes; traced passes run each stage under
``trace_stage.py`` and the per-layer metrics are medians over them, with
``trace.overhead_pct`` comparing the two kinds of pass. ``--workload all``
runs every workload in trace mode and prints both metric sets; with
``--smoke`` the inputs shrink so that all three pass the gate in seconds.

Every pass must pass the correctness gate: every stage exits 0, the
generation records number exactly the test prompts with no error record,
every score file appears in ``reports/``, and the SHA-256 over all
artifacts except ``*.timing.jsonl`` is the same for every pass (traced or
not) and for every earlier run of the same workload, seed and size in this
checkout. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Timings are warm-cache only: the inputs were just written, and dropping the
page cache is not possible without privileges.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
STAGES = ("ingest", "build", "translate", "score")
MIN_PASSES = 2
MIN_SETUP_SAMPLES = 5
SIGNIFICANCE_RESAMPLES = 1000

END_TO_END_UNITS = {
    "setup_s": "s",
    "build_s": "s",
    "translate_s": "s",
    "score_s": "s",
    "pipeline_s": "s",
    "pipeline_cpu_s": "s",
    "request_p50_ms": "ms",
    "peak_rss_mb": "MB",
}

# Per-layer metric -> (unit, how it is read from the span table of a pass).
# "busy" sums the span durations of a function, "self" subtracts the spans
# nested in it, "calls" counts them.
SPAN_METRICS = {
    "terminology.find_candidates_s": ("s", "busy", "terminology.find_candidates"),
    "terminology.find_candidates_calls": ("count", "calls", "terminology.find_candidates"),
    "terminology.casefold_s": ("s", "busy", "terminology.casefold_with_map"),
    "terminology.matcher_build_s": ("s", "busy", "terminology.matcher_build"),
    "terminology.load_glossary_s": ("s", "busy", "terminology.load_glossary"),
    "terminology.term_in_text_s": ("s", "busy", "terminology.term_in_text"),
    "terminology.term_in_text_calls": ("count", "calls", "terminology.term_in_text"),
    "metrics.term_accuracy_s": ("s", "self", "metrics.term_accuracy"),
    "metrics.bleu_s": ("s", "busy", "metrics.bleu"),
    "metrics.chrf_s": ("s", "busy", "metrics.chrf"),
    "promptgen.render_example_s": ("s", "busy", "promptgen.render_example"),
    "promptgen.write_dataset_s": ("s", "busy", "promptgen.write_dataset"),
    "promptgen.read_dataset_s": ("s", "busy", "promptgen.read_dataset"),
    "runner.generate_batch_s": ("s", "busy", "runner.generate_batch"),
    "postprocess.postprocess_batch_s": ("s", "busy", "postprocess.postprocess_batch"),
    "postprocess.write_outputs_s": ("s", "busy", "postprocess.write_outputs"),
    "postprocess.read_outputs_s": ("s", "busy", "postprocess.read_outputs"),
    "mqm.load_annotations_s": ("s", "busy", "mqm.load_annotations"),
    "mqm.tally_s": ("s", "busy", "mqm.tally"),
    "corpus.load_parallel_s": ("s", "busy", "corpus.load_parallel"),
    "corpus.read_segments_s": ("s", "busy", "corpus.read_segments"),
    "corpus.split_corpus_s": ("s", "busy", "corpus.split_corpus"),
    "jsonl.write_jsonl_s": ("s", "busy", "jsonl.write_jsonl"),
    "jsonl.iter_jsonl_s": ("s", "busy", "jsonl.iter_jsonl"),
    "report.write_report_files_s": ("s", "busy", "report.write_report_files"),
    **{f"cli.{stage}_self_s": ("s", "self", f"cli.{stage}") for stage in STAGES},
}
OTHER_LAYER_UNITS = {
    "terminology.find_candidates_us": "us",
    "terminology.rematch_ratio": "ratio",
    "terminology.matcher_builds": "1/pair",
    "metrics.significance_test_s": "s",
    "runner.requests": "count",
    "runner.retries": "count",
    "runner.errors": "count",
    "runner.request_overhead_ms": "ms",
    "runner.request_p99_ms": "ms",
    "stub.connections_per_request": "ratio",
    "stub.max_inflight": "count",
    "mqm.spans_loaded": "count",
    "mqm.spans_rejected": "count",
    "jsonl.records": "count",
    "jsonl.bytes_written": "count",
    "trace.overhead_pct": "%",
}
PER_LAYER_UNITS = {**{k: v[0] for k, v in SPAN_METRICS.items()}, **OTHER_LAYER_UNITS}


class GateError(Exception):
    """A pass produced wrong, missing or non-reproducible results."""


@dataclass
class StageRun:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int


@dataclass
class PassResult:
    traced: bool
    stages: dict[str, StageRun]
    artifacts_sha256: str
    records: int
    request_ms: list[float]
    stub: dict
    layers: dict = field(default_factory=dict)

    @property
    def wall_s(self) -> float:
        return sum(stage.wall_s for stage in self.stages.values())


# ---------------------------------------------------------------------------
# Processes

def _stage_env() -> dict[str, str]:
    env = {
        key: value
        for key, value in os.environ.items()
        if key.lower() not in ("http_proxy", "https_proxy", "all_proxy") and key != "GLOSSMT_API_TOKEN"
    }
    env["PYTHONPATH"] = str(SRC)
    # Fixed hash seed: set iteration order, and so timing, does not vary
    # between passes. Artifacts do not depend on it.
    env["PYTHONHASHSEED"] = "0"
    return env


def run_stage(stage: str, work: Path, spans_path: Path | None) -> StageRun:
    if spans_path is None:
        command = [sys.executable, "-m", "glossmt.cli", stage, "--config", "exp.ini"]
    else:
        command = [sys.executable, str(HERE / "trace_stage.py"), str(spans_path), stage, "--config", "exp.ini"]
    with open(work / "logs" / f"{stage}.out", "wb") as out, open(work / "logs" / f"{stage}.err", "wb") as err:
        started = time.perf_counter()
        process = subprocess.Popen(command, cwd=work, env=_stage_env(), stdout=out, stderr=err)
        try:
            _, status, usage = os.wait4(process.pid, 0)
        except BaseException:
            process.kill()
            process.wait()
            raise
        wall = time.perf_counter() - started
    process.returncode = os.waitstatus_to_exitcode(status)
    return StageRun(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, process.returncode)


class Stub:
    """The fake endpoint process, from readiness probe to stop."""

    def __init__(self, work: Path, port: int, latency_ms: float):
        self.base = f"http://127.0.0.1:{port}"
        self._opener = urllib.request.build_opener(urllib.request.ProxyHandler({}))
        self._log = open(work / "logs" / "stub.err", "wb")
        self.process = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--data", str(work / "endpoint.json"),
             "--port", str(port), "--latency-ms", str(latency_ms)],
            stdout=subprocess.PIPE,
            stderr=self._log,
        )
        try:
            self._await_ready()
        except BaseException:
            self.stop()
            raise

    def _await_ready(self) -> None:
        ready, _, _ = select.select([self.process.stdout], [], [], 30)
        line = self.process.stdout.readline().decode() if ready else ""
        if not line.startswith("READY"):
            raise GateError(f"endpoint stub did not start (see {self._log.name})")
        if self._call("GET", "/health").get("ok") is not True:
            raise GateError("endpoint stub failed its readiness probe")

    def _call(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.base + path, method=method, data=b"" if method == "POST" else None)
        with self._opener.open(request, timeout=10) as response:
            return json.loads(response.read())

    def reset(self) -> None:
        self._call("POST", "/reset")

    def stats(self) -> dict:
        return self._call("GET", "/stats")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()
        self._log.close()


# ---------------------------------------------------------------------------
# Artifacts and the correctness gate

def artifacts_sha256(out: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file() and not p.name.endswith(".timing.jsonl")):
        digest.update(str(path.relative_to(out)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def _jsonl_records(path: Path) -> list[dict]:
    records = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line.strip()]
    return [r for r in records if r.get("record_type") != "manifest"]


def _csv_rows(path: Path) -> list[dict]:
    with open(path, encoding="utf-8", newline="") as handle:
        return list(csv.DictReader(line for line in handle if not line.startswith("#")))


def check_reports(out: Path) -> None:
    """Every score file must show up in the report tables."""
    reports = out / "reports"
    score_files = sorted((out / "scores").rglob("*.json"))
    if not score_files:
        raise GateError("no score files written")
    metrics_rows = {row["system"]: row for row in _csv_rows(reports / "metrics.csv")}
    mqm_rows = {}
    if (reports / "mqm_scores.csv").is_file():
        mqm_rows = {row["system"]: row for row in _csv_rows(reports / "mqm_scores.csv")}
    for path in score_files:
        data = json.loads(path.read_text(encoding="utf-8"))
        system, pair = data["report"]["system"], data["report"]["pair"]
        if not metrics_rows.get(system, {}).get(f"{pair} BLEU"):
            raise GateError(f"score file {path.name} is missing from reports/metrics.csv")
        if data.get("mqm") and not mqm_rows.get(system, {}).get(f"{pair} MQM"):
            raise GateError(f"score file {path.name} is missing from reports/mqm_scores.csv")


def run_pass(work: Path, workload, stub: Stub, traced: bool) -> PassResult:
    out = work / "out"
    shutil.rmtree(out, ignore_errors=True)
    stub.reset()
    spans_dir = work / "spans"
    stages: dict[str, StageRun] = {}
    for stage in STAGES:
        spans_path = spans_dir / f"{stage}.json" if traced else None
        stages[stage] = run_stage(stage, work, spans_path)
        if stages[stage].exit_code != 0:
            tail = (work / "logs" / f"{stage}.err").read_text(errors="replace")[-2000:]
            raise GateError(f"stage {stage} exited {stages[stage].exit_code}:\n{tail}")
    records, errors, request_ms = 0, 0, []
    for code in workload.pairs:
        generated = _jsonl_records(out / "generations" / f"{code}.jsonl")
        records += len(generated)
        errors += sum(1 for r in generated if r.get("error") is not None)
        request_ms += [1000 * r["seconds"] for r in _jsonl_records(out / "generations" / f"{code}.timing.jsonl")]
    if records != workload.requests_per_pass or errors:
        raise GateError(f"{records} generation records ({errors} errors), expected {workload.requests_per_pass} and 0")
    check_reports(out)
    result = PassResult(traced, stages, artifacts_sha256(out), records, request_ms, stub.stats())
    if traced:
        result.layers = layer_metrics(workload, [spans_dir / f"{s}.json" for s in STAGES], result, out, work)
    return result


# ---------------------------------------------------------------------------
# Metrics

def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(passes: list[PassResult], setup_samples: list[float]) -> dict[str, float]:
    samples = [ms for p in passes for ms in p.request_ms]
    return {
        "setup_s": statistics.median(setup_samples),
        "build_s": statistics.median(p.stages["build"].wall_s for p in passes),
        "translate_s": statistics.median(p.stages["translate"].wall_s for p in passes),
        "score_s": statistics.median(p.stages["score"].wall_s for p in passes),
        "pipeline_s": statistics.median(p.wall_s for p in passes),
        "pipeline_cpu_s": statistics.median(sum(s.cpu_s for s in p.stages.values()) for p in passes),
        "request_p50_ms": _percentile(samples, 50),
        "peak_rss_mb": statistics.median(max(s.maxrss_mb for s in p.stages.values()) for p in passes),
    }


def _span_table(paths: list[Path]) -> tuple[dict[str, dict], dict[str, int], set[str], list[float]]:
    table: dict[str, dict] = {}
    counters: dict[str, int] = {}
    matched: set[str] = set()
    find_durations: list[float] = []
    for path in paths:
        data = json.loads(path.read_text(encoding="utf-8"))
        names, spans = data["names"], data["spans"]
        nested = [0.0] * len(spans)
        for name_id, start, end, parent, busy in spans:
            if parent >= 0:
                nested[parent] += busy
        for index, (name_id, start, end, parent, busy) in enumerate(spans):
            entry = table.setdefault(names[name_id], {"busy": 0.0, "self": 0.0, "calls": 0})
            entry["busy"] += busy
            entry["self"] += busy - nested[index]
            entry["calls"] += 1
            if names[name_id] == "terminology.find_candidates":
                find_durations.append(busy)
        for key, value in data["counters"].items():
            counters[key] = counters.get(key, 0) + value
        matched.update(data["matched_segments"])
    return table, counters, matched, find_durations


def _significance_seconds(out: Path, work: Path) -> float:
    """Time ``metrics.significance_test`` on per-segment chrF of the test
    set: cleaned outputs against the raw (untruncated) outputs."""
    from glossmt import corpus, metrics, postprocess
    from glossmt.config import load_config

    config = load_config(work / "exp.ini")
    elapsed = 0.0
    for pair_config in config.pairs:
        code = pair_config.pair.code
        references = corpus.read_segments(out / "splits" / f"{code}.jsonl", pair_config.pair, split="test")
        outputs = {o.segment_id: o for o in postprocess.read_outputs(out / "outputs" / f"{code}.jsonl")}
        cleaned, raw = [], []
        for reference in references:
            output = outputs[reference.id]
            cleaned.append(metrics.chrf([output.cleaned_text], [reference.target_text]))
            raw.append(metrics.chrf([output.raw_text], [reference.target_text]))
        started = time.perf_counter()
        metrics.significance_test(cleaned, raw, SIGNIFICANCE_RESAMPLES, config.seed)
        elapsed += time.perf_counter() - started
    return elapsed


def layer_metrics(workload, span_files: list[Path], result: PassResult, out: Path, work: Path) -> dict[str, float]:
    table, counters, matched, find_durations = _span_table(span_files)
    metrics = {}
    for name, (unit, kind, span) in SPAN_METRICS.items():
        metrics[name] = table.get(span, {}).get(kind, 0)
    calls = table.get("terminology.find_candidates", {}).get("calls", 0)
    stub = result.stub
    annotation_rows = sum(len(_jsonl_records(work / "in" / f"{code}.spans.jsonl")) for code in workload.pairs)
    metrics.update(
        {
            "terminology.find_candidates_us": 1e6 * statistics.median(find_durations) if find_durations else 0.0,
            "terminology.rematch_ratio": calls / len(matched) if matched else 0.0,
            "terminology.matcher_builds": table.get("terminology.matcher_build", {}).get("calls", 0) / len(workload.pairs),
            "metrics.significance_test_s": _significance_seconds(out, work),
            "runner.requests": counters.get("runner.requests", 0),
            "runner.retries": counters.get("runner.retries", 0),
            "runner.errors": counters.get("runner.errors", 0),
            "runner.request_overhead_ms": _percentile(result.request_ms, 50) - stub["service_ms_p50"],
            "stub.connections_per_request": stub["connections"] / stub["requests"],
            "stub.max_inflight": stub["max_inflight"],
            "mqm.spans_loaded": counters.get("mqm.spans_loaded", 0),
            "mqm.spans_rejected": annotation_rows - counters.get("mqm.spans_loaded", 0),
            "jsonl.records": counters.get("jsonl.write_jsonl.records", 0) + counters.get("jsonl.iter_jsonl.records", 0),
            "jsonl.bytes_written": counters.get("jsonl.bytes_written", 0),
        }
    )
    return metrics


def per_layer(passes: list[PassResult]) -> dict[str, float]:
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]
    metrics = {name: statistics.median(p.layers[name] for p in traced) for name in traced[0].layers}
    untraced_s = statistics.median(p.wall_s for p in untraced)
    metrics["trace.overhead_pct"] = 100 * (statistics.median(p.wall_s for p in traced) - untraced_s) / untraced_s
    # Pooled over every pass: the runner's worker threads run no traced code.
    metrics["runner.request_p99_ms"] = _percentile([ms for p in passes for ms in p.request_ms], 99)
    return metrics


# ---------------------------------------------------------------------------
# Runs

def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def _program_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "glossmt").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _check_hash(key: str, digest: str) -> None:
    """Artifacts must be identical across runs of one program on one set of
    inputs."""
    path = WORK / "artifact-hashes.json"
    known = json.loads(path.read_text()) if path.is_file() else {}
    if known.setdefault(key, digest) != digest:
        raise GateError(f"artifacts differ from an earlier run of {key}: {known[key]} != {digest}")
    path.write_text(json.dumps(known, indent=1, sort_keys=True))


def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """One run: returns metrics, attempted/failed counts and the run record."""
    from workloads import STUB_PORT, WORKLOADS, generate

    workload = WORKLOADS[name].sized(smoke)
    work = WORK / f"{name}{'-smoke' if smoke else ''}-{seed}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "logs").mkdir(parents=True)
    (work / "spans").mkdir()
    record = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": int(trace), "smoke": smoke,
        "commit": _commit(), "python": sys.version.split()[0], "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg(),
        "cache": "warm page cache only; dropping the page cache needs privileges",
    }
    generated = generate(workload, seed, work)
    record["inputs_sha256"] = generated["inputs_sha256"]
    passes: list[PassResult] = []
    setup_samples: list[float] = []
    attempted = 0
    stub = Stub(work, STUB_PORT, workload.latency_ms)
    try:
        warmup = run_stage("ingest", work, None)  # compiles bytecode; untimed
        attempted += 1
        if warmup.exit_code != 0:
            raise GateError(f"ingest exited {warmup.exit_code}")
        started = time.perf_counter()
        pass_seconds: list[float] = []
        while True:
            traced = trace and len(passes) % 2 == 1
            pass_started = time.perf_counter()
            result = run_pass(work, workload, stub, traced)
            passes.append(result)
            pass_seconds.append(time.perf_counter() - pass_started)
            print(f"pass {len(passes)} ({'traced' if traced else 'untraced'}): "
                  + " ".join(f"{k} {v.wall_s:.3f}s (cpu {v.cpu_s:.3f}s)" for k, v in result.stages.items()), file=sys.stderr)
            attempted += len(result.stages) + result.records
            setup_samples.append(result.stages["ingest"].wall_s)
            if result.artifacts_sha256 != passes[0].artifacts_sha256:
                raise GateError("artifacts differ between passes of one run")
            # Start another pass only if one like the last two still fits.
            next_pass = max(pass_seconds[-2:])
            if len(passes) >= MIN_PASSES and time.perf_counter() - started + next_pass > seconds:
                break
        while not trace and not smoke and len(setup_samples) < MIN_SETUP_SAMPLES:
            ingest = run_stage("ingest", work, None)
            attempted += 1
            if ingest.exit_code != 0:
                raise GateError(f"ingest exited {ingest.exit_code}")
            setup_samples.append(ingest.wall_s)
        if trace:
            expected_rejects = generated["planted_bad_spans"]
            for p in passes:
                if p.traced and p.layers["mqm.spans_rejected"] != expected_rejects:
                    raise GateError(f"{p.layers['mqm.spans_rejected']} spans rejected, {expected_rejects} planted")
        _check_hash(f"{name}:{seed}:{record['inputs_sha256'][:16]}:{_program_sha256()[:16]}", passes[0].artifacts_sha256)
    except GateError as exc:
        raise GateError(f"{exc}\n(inputs, artifacts and logs kept in {work})") from exc
    finally:
        stub.stop()
        record["loadavg_after"] = os.getloadavg()
    shutil.rmtree(work, ignore_errors=True)
    record.update(
        {
            "passes": len(passes),
            "traced_passes": sum(p.traced for p in passes),
            "request_samples_untraced": sum(len(p.request_ms) for p in passes if not p.traced),
            "request_samples_all": sum(len(p.request_ms) for p in passes),
            "artifacts_sha256": passes[0].artifacts_sha256,
        }
    )
    untraced = [p for p in passes if not p.traced]
    return {
        "end_to_end": end_to_end(untraced, setup_samples),
        "per_layer": per_layer(passes) if trace else {},
        "attempted": attempted,
        "failed": 0,  # any failure fails the gate instead
        "record": record,
    }


def _print_metrics(title: str, values: dict[str, float], units: dict[str, str]) -> None:
    print(title)
    for name, value in values.items():
        print(f"  {name:36s} {value:14.6f} {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="glossmt pipeline benchmark")
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for a quick end-to-end check")
    args = parser.parse_args(argv)
    # A terminated run still stops the endpoint and the stage it is waiting on.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "glossmt" / "cli.py").is_file():
        print(f"perfbench: no program to benchmark: {SRC / 'glossmt'} not found", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)} or all")
    trace = bool(args.trace) or args.workload == "all"
    WORK.mkdir(exist_ok=True)
    attempted = failed = 0
    metrics: dict[str, dict] = {}
    correct = True
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, trace, args.smoke)
        except GateError as exc:
            print(f"perfbench: {name}: correctness gate failed: {exc}", file=sys.stderr)
            correct = False
            attempted, failed = attempted + 1, failed + 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        record = result["record"]
        print(f"run-record: {json.dumps(record)}")
        print(f"{name}: inputs sha256 {record['inputs_sha256']}")
        print(f"{name}: artifacts sha256 {record['artifacts_sha256']} (identical over {record['passes']} passes)")
        e2e, layers = result["end_to_end"], result["per_layer"]
        print(f"{name}: request_p50_ms from {record['request_samples_untraced']} samples"
              + (f", runner.request_p99_ms from {record['request_samples_all']}" if trace else "")
              + f"; failed_share = {result['failed']}/{result['attempted']} operations")
        if args.workload == "all" or not args.trace:
            _print_metrics(f"{name}: end-to-end", e2e, END_TO_END_UNITS)
        if layers:
            _print_metrics(f"{name}: per-layer (traced passes)", layers, PER_LAYER_UNITS)
        if args.workload == "all":
            chosen = {**e2e, **layers}
            units = {**END_TO_END_UNITS, **PER_LAYER_UNITS}
            metrics.update({f"{name}/{k}": {"value": v, "unit": units[k]} for k, v in chosen.items()})
        else:
            chosen, units = (layers, PER_LAYER_UNITS) if args.trace else (e2e, END_TO_END_UNITS)
            metrics.update({k: {"value": v, "unit": units[k]} for k, v in chosen.items()})
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
