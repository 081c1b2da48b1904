"""Run one ``glossmt`` CLI stage with the public functions of each layer
wrapped in timing spans.

    python trace_stage.py SPANS_OUT STAGE [CLI ARGS...]

Nothing in the program changes: wrappers are installed from outside, on the
module attribute each caller looks the function up through. Where a module
binds a function at import (``metrics`` imports ``term_in_text``), the
wrapper is installed there as well. Spans (name, start, end, parent, busy)
stay in memory and are written to SPANS_OUT as JSON when the stage ends,
together with the counters taken at the same boundaries. The root span
``cli.<stage>`` starts before ``glossmt`` is imported, so import time counts
as the stage's own time.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import functools  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # [name id, start, end, parent index (-1 for none), busy seconds]
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self.matched_segments: set[str] = set()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def open(self, name: str, start: float | None = None) -> int:
        stack = self._stack()
        index = len(self.spans)
        now = time.perf_counter() if start is None else start
        self.spans.append([self._name_id(name), now, None, stack[-1] if stack else -1, 0.0])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] += span[2] - span[1]
        self._stack().pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, function, after=None):
        """A wrapper recording one span per call; ``after(args, result)``
        takes counters at the boundary."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = self.open(name)
            try:
                result = function(*args, **kwargs)
            finally:
                self.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_generator(self, name: str, function):
        """One span per generator: busy time is the time spent inside it,
        summed over its resumptions; start and end bound them all."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            iterator = function(*args, **kwargs)
            index = None
            stack = self._stack()
            while True:
                resumed = time.perf_counter()
                if index is None:
                    index = self.open(name, resumed)
                else:
                    stack.append(index)
                try:
                    item = next(iterator)
                except StopIteration:
                    self._resume_done(index, resumed)
                    return
                except BaseException:
                    self._resume_done(index, resumed)
                    raise
                self._resume_done(index, resumed)
                self.count(f"{name}.records")
                yield item

        return traced

    def _resume_done(self, index: int, resumed: float) -> None:
        span = self.spans[index]
        span[2] = time.perf_counter()
        span[4] += span[2] - resumed
        self._stack().pop()

    def dump(self, path: str, stage: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "stage": stage,
                    "exit_code": exit_code,
                    "names": self.names,
                    "spans": self.spans,
                    "counters": self.counters,
                    "matched_segments": sorted(self.matched_segments),
                },
                handle,
            )


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer of ``glossmt``."""
    from glossmt import _jsonl, corpus, metrics, mqm, postprocess, promptgen, report, runner, terminology

    def patch(module, attr, after=None, also=()):
        wrapped = tracer.wrap(f"{module.__name__.rsplit('.', 1)[1]}.{attr}", getattr(module, attr), after)
        for target in (module, *also):
            setattr(target, attr, wrapped)

    original_write_jsonl = _jsonl.write_jsonl

    def write_jsonl(path, records, manifest=None):
        def counted():
            for record in records:
                tracer.count("jsonl.write_jsonl.records")
                yield record

        original_write_jsonl(path, counted(), manifest=manifest)
        tracer.count("jsonl.bytes_written", os.path.getsize(path))

    _jsonl.write_jsonl = tracer.wrap("jsonl.write_jsonl", write_jsonl)
    _jsonl.iter_jsonl = tracer.wrap_generator("jsonl.iter_jsonl", _jsonl.iter_jsonl)

    for attr in ("load_parallel", "read_segments", "split_corpus", "write_segments", "merge_tuning_sets"):
        patch(corpus, attr)

    # cli and metrics bind term_in_text / build_matcher through the module
    # or at import; wrap every binding.
    for attr in ("load_glossary", "filter_by_reliability", "write_glossary_tsv", "build_matcher",
                 "write_candidates", "read_candidates"):
        patch(terminology, attr)
    patch(terminology, "term_in_text", also=(metrics,))
    patch(terminology, "casefold_with_map")

    matcher = terminology.TermMatcher

    def note_segment(args, result):
        segment = args[1]
        key = f"{segment.pair.code}\t{segment.source_text}\t{segment.target_text}"
        tracer.matched_segments.add(hashlib.sha1(key.encode("utf-8")).hexdigest()[:16])

    matcher.__init__ = tracer.wrap("terminology.matcher_build", matcher.__init__)
    matcher.find_candidates = tracer.wrap("terminology.find_candidates", matcher.find_candidates, note_segment)

    for attr in ("render_example", "build_dataset", "write_dataset", "read_dataset", "write_dataset_rawtext"):
        patch(promptgen, attr)

    def count_batch(args, records):
        tracer.count("runner.requests", sum(r.attempts for r in records))
        tracer.count("runner.retries", sum(r.attempts - 1 for r in records))
        tracer.count("runner.errors", sum(1 for r in records if not r.ok))

    patch(runner, "generate_batch", after=count_batch)
    for attr in ("write_records", "read_records", "write_timing_sidecar", "write_run_manifest"):
        patch(runner, attr)

    for attr in ("postprocess_batch", "write_outputs", "read_outputs"):
        patch(postprocess, attr)

    for attr in ("bleu", "chrf", "term_accuracy", "load_external_scores"):
        patch(metrics, attr)

    def count_spans(args, spans):
        tracer.count("mqm.spans_loaded", len(spans))

    patch(mqm, "load_annotations", after=count_spans)
    for attr in ("filter_by_confidence", "tally", "mqm_score"):
        patch(mqm, attr)

    patch(report, "write_report_files")


def main(argv: list[str]) -> int:
    spans_out, stage = argv[0], argv[1]
    tracer = Tracer()
    root = tracer.open(f"cli.{stage}", _PROCESS_START)
    exit_code = 1
    try:
        from glossmt import cli

        install(tracer)
        exit_code = cli.main(argv[1:])
    finally:
        tracer.close(root)
        tracer.dump(spans_out, stage, exit_code)
    return exit_code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
