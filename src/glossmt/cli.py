"""Command-line pipeline orchestration.

Subcommands walk the pipeline: ingest (corpora + glossaries in, validated
artifacts out), build (splits, candidate matching, rendered datasets),
translate (batch generation against the endpoint, reusing each stored ok
record whose settings and prompt still match, then post-processing), score
(metrics, terminology accuracy, MQM), report (regenerate tables from stored
score files). ``COMMANDS`` declares them. Each takes ``--config`` only and
works on every pair the config lists; to work on fewer pairs, write a
config that lists only those, and its hash marks what it writes.

Exit codes: 0 success; 1 usage or configuration error; 2 broken input data
or I/O failure; 3 inference endpoint failure; 130 interrupted (Ctrl-C; an
interrupted ``translate`` keeps no records of its batch). Logs go to
standard error; data goes to files and standard output only. Every
artifact but the timing sidecar and ``datasets/train-merged.txt`` carries a
manifest with the resolved-config hash and the seed. Every subcommand is
re-runnable: same config and seed give byte-identical artifacts, with
timing in its sidecar.

Each command imports only the stage modules it calls, so ``ingest`` and
``build`` never load the runner, the metrics or the report writer. No
stage imports ``dataclasses``: the record classes derive from
``_jsonl.Frozen``, which builds no methods at import time.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from urllib.parse import quote

# Each command imports the stage modules it calls: a stage runs in its own
# process, and should not pay for loading the others. Calls go through the
# module (runner.generate_batch), where perfbench/trace_stage.py wraps them.
from . import _jsonl, corpus, terminology
from .config import PairConfig, PipelineConfig, load_config
from .errors import DataError, EndpointError, MissingCountError, UsageError

log = logging.getLogger(__name__)


# Artifact -> (path under the output directory, the command that writes it).
ARTIFACTS = {
    "corpus": ("corpus/{pair}.jsonl", "ingest"),
    "glossary": ("glossary/{pair}.tsv", "ingest"),
    "splits": ("splits/{pair}.jsonl", "build"),
    "train_dataset": ("datasets/train-{pair}.jsonl", "build"),
    "test_dataset": ("datasets/test-{pair}.jsonl", "build"),
    "train_merged": ("datasets/train-merged.jsonl", "build"),
    "train_merged_text": ("datasets/train-merged.txt", "build"),
    "candidates": ("candidates/{pair}.{mode}.jsonl", "build"),
    "generations": ("generations/{pair}.jsonl", "translate"),
    "generation_manifest": ("generations/{pair}.manifest.json", "translate"),
    "timing": ("generations/{pair}.timing.jsonl", "translate"),
    "outputs": ("outputs/{pair}.jsonl", "translate"),
    "score_file": ("scores/{system}.{pair}.json", "score"),
}


class Layout:
    """Artifact paths under the configured output directory."""

    def __init__(self, root: Path):
        self.root = Path(root)

    def path(self, name: str, code: str | None = None, *, mode: str | None = None,
             system: str | None = None) -> Path:
        # Names like "org/model" must stay one file in scores/; the JSON
        # keeps the real name.
        system = quote(system, safe="") if system is not None else None
        return self.root / ARTIFACTS[name][0].format(pair=code, mode=mode, system=system)

    def require(self, name: str, code: str | None = None, **names) -> Path:
        """The artifact's path, which must hold a file."""
        path = self.path(name, code, **names)
        if not path.is_file():
            raise UsageError(f"missing artifact {path}; run `glossmt {ARTIFACTS[name][1]}` first")
        return path

    def scores_dir(self) -> Path:
        return self.root / "scores"

    def reports_dir(self) -> Path:
        return self.root / "reports"


# ---------------------------------------------------------------------------
# Subcommands

def cmd_ingest(config: PipelineConfig) -> int:
    layout = Layout(config.output_dir)
    base_manifest = config.manifest()
    # Every pair's corpus and glossary are read and checked before the first write.
    inputs = []
    for pair_config in config.pairs:
        code = pair_config.pair.code
        segments = corpus.load_parallel(
            pair_config.source_path, pair_config.target_path, pair_config.pair
        )
        glossary = terminology.load_glossary(pair_config.glossary_path, pair_config.pair)
        filtered = terminology.filter_by_reliability(glossary, config.min_stars)
        if not filtered.entries:
            raise UsageError(
                f"pair {code}: the glossary {pair_config.glossary_path} keeps no entry "
                f"(loaded {len(glossary)}, min_stars={config.min_stars})"
            )
        inputs.append((code, segments, len(glossary), filtered))
    for code, segments, loaded, filtered in inputs:
        corpus.write_segments(
            layout.path("corpus", code),
            {"": segments},
            manifest={**base_manifest, "pair": code, "segments": len(segments)},
        )
        terminology.write_glossary_tsv(
            layout.path("glossary", code),
            filtered.entries,
            manifest={
                **base_manifest,
                "pair": code,
                "entries": len(filtered),
                "loaded": loaded,
                "min_stars": config.min_stars,
            },
        )
        print(
            f"{code}: segments={len(segments)} "
            f"glossary_entries={len(filtered)} (loaded {loaded}, "
            f"min_stars={config.min_stars})"
        )
    return 0


def cmd_build(config: PipelineConfig) -> int:
    from . import promptgen

    layout = Layout(config.output_dir)
    template = config.template()
    base_manifest = config.manifest()
    # Every pair's corpus and glossary are read and checked before the first write.
    inputs = []
    for pair_config in config.pairs:
        code = pair_config.pair.code
        segments = corpus.read_segments(layout.require("corpus", code), pair_config.pair)
        tuning, validation, test = corpus.split_corpus(segments, config.split)
        matcher = terminology.TermMatcher(*terminology.read_glossary_tsv(layout.require("glossary", code)))
        inputs.append((code, tuning, validation, test, matcher))
    merged_segments = corpus.merge_tuning_sets([tuning for _, tuning, *_ in inputs], config.seed)
    # Train term pairs under the ids merge_tuning_sets gives the segments.
    merged_pairs: dict[str, tuple[terminology.TermPair, ...]] = {}
    for code, tuning, validation, test, matcher in inputs:
        corpus.write_segments(
            layout.path("splits", code),
            {"tuning": tuning, "validation": validation, "test": test},
            manifest={**base_manifest, "pair": code},
        )
        train = promptgen.build_dataset(tuning, matcher, template, "train")
        test_prompts = promptgen.build_dataset(test, matcher, template, "test")
        for mode, examples, path in (
            ("train", train, layout.path("train_dataset", code)),
            ("test", test_prompts, layout.path("test_dataset", code)),
        ):
            promptgen.write_dataset(
                path,
                examples,
                manifest={**base_manifest, "pair": code, "family": template.family_id, "mode": mode},
            )
            terminology.write_candidates(
                layout.path("candidates", code, mode=mode),
                [(e.segment_id, e.term_pairs) for e in examples],
                manifest={**base_manifest, "pair": code, "mode": mode},
            )
        merged_pairs.update((f"{code}:{e.segment_id}", e.term_pairs) for e in train)
        stats = promptgen.dataset_stats(train)
        coverage = stats["with_terms"] / stats["examples"] if stats["examples"] else 0.0
        print(
            f"{code}: train={stats['examples']} test={len(test_prompts)} "
            f"with_terms={stats['with_terms']} total_pairs={stats['total_pairs']} "
            f"coverage={coverage:.2f}"
        )
    merged = [
        promptgen.render_example(segment, merged_pairs[segment.id], template, "train")
        for segment in merged_segments
    ]
    promptgen.write_dataset(
        layout.path("train_merged"),
        merged,
        manifest={**base_manifest, "family": template.family_id, "mode": "train", "merged": True},
    )
    promptgen.write_dataset_rawtext(layout.path("train_merged_text"), merged)
    print(f"merged: train={len(merged)}")
    return 0


def _external_counts(pair_config: PairConfig, segment_ids):
    """The pair's external token counts, which must cover ``segment_ids``;
    None when the pair sets no ``external_counts``."""
    from . import postprocess

    if pair_config.external_counts_path is None:
        return None
    counts = postprocess.ExternalCounts.load(pair_config.external_counts_path)
    missing = next((i for i in segment_ids if i not in counts), None)
    if missing is not None:
        raise MissingCountError(f"pair {pair_config.pair.code}: no external token count for segment {missing!r}")
    return counts


def cmd_translate(config: PipelineConfig) -> int:
    from . import postprocess, promptgen, runner

    layout = Layout(config.output_dir)
    base_manifest = config.manifest()
    snapshot = config.inference.snapshot()
    # The template and every pair's prompts and token counts are read before the first request.
    template = config.template()
    examples_by_pair = [
        promptgen.read_dataset(layout.require("test_dataset", p.pair.code), p.pair) for p in config.pairs
    ]
    counts_by_pair = [
        _external_counts(p, [e.segment_id for e in examples])
        for p, examples in zip(config.pairs, examples_by_pair)
    ]
    for pair_config, examples, counts in zip(config.pairs, examples_by_pair, counts_by_pair):
        code = pair_config.pair.code
        generations = layout.path("generations", code)
        completed: dict[str, runner.GenerationRecord] = {}
        if generations.is_file():
            # Reuse only ok records this configuration would produce again.
            prompts = {e.segment_id: e.rendered_text for e in examples}
            completed = {
                record.segment_id: record
                for record in runner.read_records(generations)
                if record.ok
                and record.config == snapshot
                and record.prompt_text == prompts.get(record.segment_id)
            }
            log.info("pair=%s reused=%d", code, len(completed))
        pending = [e for e in examples if e.segment_id not in completed]
        aborted = None
        try:
            new_records = runner.generate_batch(pending, config.inference)
        except EndpointError as exc:
            aborted, new_records = exc, exc.partial_records
        by_id = {**completed, **{r.segment_id: r for r in new_records}}
        records = [by_id[e.segment_id] for e in examples if e.segment_id in by_id]
        runner.write_records(generations, records, manifest={**base_manifest, "pair": code})
        runner.write_run_manifest(
            layout.path("generation_manifest", code),
            config.inference,
            records,
            config_hash=base_manifest["config_hash"],
            seed=config.seed,
            aborted=aborted is not None,
        )
        if aborted is not None:
            raise aborted
        runner.write_timing_sidecar(layout.path("timing", code), records)
        outputs, totals = postprocess.postprocess_batch(records, template, counts)
        postprocess.write_outputs(layout.path("outputs", code), outputs, manifest={**base_manifest, "pair": code})
        errors = sum(1 for r in records if not r.ok)
        print(
            f"{code}: records={len(records)} errors={errors} "
            f"truncated={totals['truncated_count']} "
            f"tokens_raw={totals['token_total_raw']} tokens_cleaned={totals['token_total_cleaned']} "
            f"scheme={totals['counting_scheme']}"
        )
    return 0


def cmd_score(config: PipelineConfig) -> int:
    from . import metrics, mqm, postprocess

    layout = Layout(config.output_dir)
    system = config.inference.model_name
    base_manifest = config.manifest()
    for pair_config in config.pairs:
        code = pair_config.pair.code
        references = corpus.read_segments(layout.require("splits", code), pair_config.pair, split="test")
        outputs = postprocess.read_outputs(layout.require("outputs", code))
        outputs_by_id = {o.segment_id: o for o in outputs}
        if {r.id for r in references} != set(outputs_by_id):
            raise UsageError(
                f"pair {code}: outputs and test references do not cover the same segment ids"
            )
        hypotheses = [outputs_by_id[r.id].cleaned_text for r in references]
        reference_texts = [r.target_text for r in references]
        candidates = terminology.read_candidates(layout.require("candidates", code, mode="test"))
        accuracy, correct, total = metrics.term_accuracy(outputs, candidates)
        external = {}
        if pair_config.external_scores_path is not None:
            external = metrics.load_external_scores(pair_config.external_scores_path, outputs_by_id)
        score_report = metrics.ScoreReport(
            pair=code,
            system=system,
            bleu=metrics.bleu(hypotheses, reference_texts),
            chrf=metrics.chrf(hypotheses, reference_texts),
            term_accuracy=accuracy,
            term_correct=correct,
            term_total=total,
            external_scores=external,
        )
        mqm_block = None
        if pair_config.annotations_path is not None:
            # Spans are checked against the text whose tokens are their denominator.
            raw = config.mqm_tokens == "raw"
            spans = mqm.load_annotations(
                pair_config.annotations_path,
                {o.segment_id: o.raw_text if raw else o.cleaned_text for o in outputs},
            )
            spans = mqm.filter_by_confidence(spans, config.confidence_threshold)
            # read_outputs holds a file to one scheme, and the test split is never empty.
            token_total = sum(o.token_count_raw if raw else o.token_count_cleaned for o in outputs)
            counts = mqm.tally(spans, token_total, scheme=f"{outputs[0].counting_scheme}:{config.mqm_tokens}")
            mqm_block = {"counts": counts.to_dict(), "score": mqm.mqm_score(counts)}
        _jsonl.write_json(
            layout.path("score_file", code, system=system),
            {
                "manifest": {**base_manifest, "pair": code, "system": system},
                "report": score_report.to_dict(),
                "mqm": mqm_block,
            },
        )
        summary = (
            f"{code} [{system}]: bleu={score_report.bleu:.2f} chrf={score_report.chrf:.2f} "
            f"term_accuracy={accuracy:.2f} ({correct}/{total})"
        )
        if mqm_block is not None:
            summary += f" mqm={mqm_block['score']:.2f}"
        print(summary)
    _write_reports(config, layout)
    return 0


def _collect_scores(layout: Layout):
    from . import metrics, mqm

    def read_score_file(data):
        counts = mqm.SeverityCounts.from_dict(data["mqm"]["counts"]) if data.get("mqm") is not None else None
        return metrics.ScoreReport.from_dict(data["report"]), counts

    reports = []
    mqm_entries = []
    # The report keys its cells by (system, pair), so a second file for one
    # would replace or hide the first.
    read_from: dict[tuple[str, str], Path] = {}
    for path in sorted(layout.scores_dir().glob("*.json")):
        score_report, counts = _jsonl.read_json(path, "score file", read_score_file)
        key = (score_report.system, score_report.pair)
        if key in read_from:
            raise UsageError(
                f"score files {read_from[key]} and {path} both hold system {key[0]} on pair {key[1]}; remove one"
            )
        read_from[key] = path
        reports.append(score_report)
        if counts is not None:
            mqm_entries.append((score_report.system, score_report.pair, counts))
    return reports, mqm_entries


def _write_reports(config: PipelineConfig, layout: Layout) -> list[Path]:
    from . import report

    reports, mqm_entries = _collect_scores(layout)
    if not reports and not mqm_entries:
        raise UsageError(f"no score files under {layout.scores_dir()}; run `glossmt score` first")
    return report.write_report_files(
        layout.reports_dir(), reports, mqm_entries, manifest=config.manifest()
    )


def cmd_report(config: PipelineConfig) -> int:
    written = _write_reports(config, Layout(config.output_dir))
    for path in written:
        print(str(path))
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad usage; route through UsageError for the
    # declared exit-code mapping (usage -> 1) instead.
    def error(self, message):
        raise UsageError(message)


# Command -> (function, help line). Every command takes ``--config`` only.
COMMANDS = {
    "ingest": (cmd_ingest, "validate and store corpora and glossaries"),
    "build": (cmd_build, "split corpora and render datasets"),
    "translate": (cmd_translate, "run test prompts against the endpoint"),
    "score": (cmd_score, "compute metrics and write score files"),
    "report": (cmd_report, "regenerate report tables from score files"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="glossmt", description=__doc__.splitlines()[0])
    subparsers = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_line) in COMMANDS.items():
        command = subparsers.add_parser(name, help=help_line)
        command.add_argument("--config", required=True, type=Path, help="pipeline config file")
    return parser


def _run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
        return COMMANDS[args.command][0](load_config(args.config))
    except EndpointError as exc:
        print(f"glossmt: endpoint error: {exc}", file=sys.stderr)
        return 3
    except UsageError as exc:
        print(f"glossmt: usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"glossmt: data error: {exc}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one command and return its exit code. With no ``argv``, main is
    the process's program (``python -m glossmt.cli`` or the ``glossmt``
    script), and once its command has ended it ignores SIGINT: a Ctrl-C
    that lands in ``sys.exit`` or interpreter shutdown would otherwise end
    a stage whose work is done by the signal, with no line."""
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(levelname)s %(name)s %(message)s"
    )
    try:
        code = _run(argv)
        if argv is None:
            import signal

            signal.signal(signal.SIGINT, signal.SIG_IGN)
    except KeyboardInterrupt:
        print("glossmt: interrupted", file=sys.stderr)
        code = 130
    return code


if __name__ == "__main__":
    sys.exit(main())
