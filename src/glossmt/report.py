"""CSV and Markdown result tables.

Four tables, shaped like the usual MT-evaluation layout: surface metrics
(BLEU/chrF plus any externally ingested scores such as COMET or QE) per
system and pair, terminology accuracy, MQM severity counts, and MQM scores.
Rows are systems (sorted), column groups are language pairs (sorted), so
output is deterministic regardless of input order. Every file carries a
leading ``#`` manifest comment; the Markdown report states the manifest in
its footer.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Sequence

from . import _jsonl
from .mqm import SeverityCounts, mqm_score

if TYPE_CHECKING:
    from .metrics import ScoreReport


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def write_csv(path, header: Sequence[str], rows: Sequence[Sequence[str]], manifest: dict | None = None) -> None:
    with _jsonl.open_atomic(path) as handle:
        if manifest is not None:
            handle.write("# " + _jsonl.dumps(manifest) + "\n")
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def markdown_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    lines = [
        "| " + " | ".join(header) + " |",
        "| " + " | ".join("---" for _ in header) + " |",
    ]
    lines.extend("| " + " | ".join(row) + " |" for row in rows)
    return "\n".join(lines)


def _pivot(
    entries: Sequence[tuple[str, str, Any]],
    labels: Sequence[str],
    cells: Callable[[Any], list[str]],
) -> tuple[list[str], list[list[str]]]:
    """entries: (system, pair_code, value). Rows are the sorted systems and
    column groups the sorted pairs; each group has one ``"{pair} {label}"``
    column per label, filled by ``cells(value)``. A system with no entry for
    a pair gets empty cells."""
    systems = sorted({system for system, _, _ in entries})
    pairs = sorted({pair for _, pair, _ in entries})
    by_key = {(system, pair): value for system, pair, value in entries}
    header = ["system"] + [f"{pair} {label}" for pair in pairs for label in labels]
    rows = []
    for system in systems:
        row = [system]
        for pair in pairs:
            key = (system, pair)
            row.extend(cells(by_key[key]) if key in by_key else [""] * len(labels))
        rows.append(row)
    return header, rows


def _by_report(reports: Sequence[ScoreReport]) -> list[tuple[str, str, ScoreReport]]:
    return [(r.system, r.pair, r) for r in reports]


def build_metric_table(reports: Sequence[ScoreReport]) -> tuple[list[str], list[list[str]]]:
    """BLEU, chrF, and any external score names, grouped per pair."""
    external_names = sorted({name for r in reports for name in r.external_scores})
    return _pivot(
        _by_report(reports),
        ["BLEU", "chrF", *external_names],
        lambda r: [_fmt(r.bleu), _fmt(r.chrf)]
        + [_fmt(r.external_scores[name]) if name in r.external_scores else "" for name in external_names],
    )


def build_term_accuracy_table(reports: Sequence[ScoreReport]) -> tuple[list[str], list[list[str]]]:
    return _pivot(
        _by_report(reports),
        ["accuracy", "correct", "expected"],
        lambda r: [_fmt(r.term_accuracy), str(r.term_correct), str(r.term_total)],
    )


def build_mqm_counts_table(
    entries: Sequence[tuple[str, str, SeverityCounts]],
) -> tuple[list[str], list[list[str]]]:
    """entries: (system, pair_code, counts)."""
    return _pivot(
        entries,
        ["MIN", "MAJ", "CRIT", "tokens"],
        lambda c: [str(c.minor), str(c.major), str(c.critical), str(c.token_total)],
    )


def build_mqm_score_table(
    entries: Sequence[tuple[str, str, SeverityCounts]],
) -> tuple[list[str], list[list[str]]]:
    return _pivot(entries, ["MQM"], lambda c: [_fmt(mqm_score(c))])


def write_report_files(
    directory,
    reports: Sequence[ScoreReport],
    mqm_entries: Sequence[tuple[str, str, SeverityCounts]],
    manifest: dict | None = None,
) -> list[Path]:
    """Write metrics/term-accuracy/MQM CSVs plus a combined report.md;
    returns the written paths."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = []  # (title, file name, (header, rows))
    if reports:
        tables.append(("Surface metrics", "metrics.csv", build_metric_table(reports)))
        tables.append(("Terminology accuracy", "term_accuracy.csv", build_term_accuracy_table(reports)))
    if mqm_entries:
        tables.append(("MQM severity counts", "mqm_counts.csv", build_mqm_counts_table(mqm_entries)))
        tables.append(("MQM scores", "mqm_scores.csv", build_mqm_score_table(mqm_entries)))

    written: list[Path] = []
    parts = ["# Evaluation report", ""]
    for title, name, (header, rows) in tables:
        write_csv(directory / name, header, rows, manifest=manifest)
        written.append(directory / name)
        parts.extend([f"## {title}", "", markdown_table(header, rows), ""])
    if manifest is not None:
        parts.extend(["---", "", "Manifest: `" + _jsonl.dumps(manifest) + "`", ""])
    report_path = directory / "report.md"
    with _jsonl.open_atomic(report_path) as handle:
        handle.write("\n".join(parts))
    written.append(report_path)
    return written
