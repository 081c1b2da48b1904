"""Independent reference implementations used to cross-check the package.

Everything here is deliberately built with different mechanics from the
package modules — exhaustive sliding-window scans instead of indexed lookups,
exact Fraction arithmetic instead of float accumulation, sort/group-by
instead of counters — so that the two routes can disagree when either one
is wrong. Nothing in this module imports from glossmt.
"""

from __future__ import annotations

import codecs
import csv
import itertools
import json
import math
import re
import unicodedata
from fractions import Fraction
from pathlib import Path

# ---------------------------------------------------------------------------
# Strict term matching (casefolded, word-boundary, single internal spaces)


def _fold_indexed(text: str) -> tuple[str, list[int]]:
    chars: list[str] = []
    origins: list[int] = []
    for index, char in enumerate(text):
        for folded in char.casefold():
            chars.append(folded)
            origins.append(index)
    return "".join(chars), origins


def _squash(text: str) -> str:
    return " ".join(text.split())


def term_occurrences(term: str, text: str) -> list[int]:
    """Original-text offsets of every boundary-valid casefolded occurrence."""
    needle = _squash(term).casefold()
    haystack, origins = _fold_indexed(_squash(text))
    hits = []
    start = haystack.find(needle)
    while start != -1:
        end = start + len(needle)
        boundary_ok = not (start > 0 and haystack[start - 1].isalnum()) and not (
            end < len(haystack) and haystack[end].isalnum()
        )
        if boundary_ok:
            hits.append(origins[start])
        start = haystack.find(needle, start + 1)
    return hits


def term_present(term: str, text: str) -> bool:
    return bool(term_occurrences(term, text))


def brute_force_candidates(
    entries, source_text: str, target_text: str
) -> list[tuple[str, str, int]]:
    """(source_term, target_term, first_source_offset) for every glossary
    entry realized on both sides, in the declared output order.

    ``entries`` is an iterable of objects with source_term/target_term
    attributes or of (source_term, target_term) tuples.
    """
    found = []
    for entry in entries:
        try:
            source_term, target_term = entry.source_term, entry.target_term
        except AttributeError:
            source_term, target_term = entry
        source_hits = term_occurrences(source_term, source_text)
        if not source_hits:
            continue
        if not term_present(target_term, target_text):
            continue
        found.append((_squash(source_term), _squash(target_term), source_hits[0]))
    found.sort(
        key=lambda item: (
            -len(item[0]),
            item[0].casefold(),
            item[1].casefold(),
            item[0],
            item[1],
        )
    )
    return found


# ---------------------------------------------------------------------------
# BLEU (mteval-13a tokenization, n=1..4, exponential brevity penalty,
# no smoothing), computed with exact rational statistics.


def reference_tokenize(line: str) -> list[str]:
    text = line.replace("<skipped>", "")
    text = text.replace("-\n", "")
    text = text.replace("\n", " ")
    for entity, char in (("&quot;", '"'), ("&amp;", "&"), ("&lt;", "<"), ("&gt;", ">")):
        text = text.replace(entity, char)
    text = " " + text + " "
    text = re.sub(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])", r" \1 ", text)
    text = re.sub(r"([^0-9])([\.,])", r"\1 \2 ", text)
    text = re.sub(r"([\.,])([^0-9])", r" \1 \2", text)
    text = re.sub(r"([0-9])(-)", r"\1 \2 ", text)
    return text.split()


def _ngram_bag(tokens: list[str], order: int) -> dict:
    bag: dict = {}
    for window in zip(*(tokens[offset:] for offset in range(order))):
        bag[window] = bag.get(window, 0) + 1
    return bag


def bleu_oracle(hypotheses, references) -> float:
    assert len(hypotheses) == len(references) and hypotheses
    matched = {order: 0 for order in (1, 2, 3, 4)}
    possible = {order: 0 for order in (1, 2, 3, 4)}
    hypothesis_tokens = 0
    reference_tokens = 0
    for hypothesis, reference in zip(hypotheses, references):
        hyp = reference_tokenize(hypothesis)
        ref = reference_tokenize(reference)
        hypothesis_tokens += len(hyp)
        reference_tokens += len(ref)
        for order in (1, 2, 3, 4):
            hyp_bag = _ngram_bag(hyp, order)
            ref_bag = _ngram_bag(ref, order)
            matched[order] += sum(
                min(count, ref_bag.get(gram, 0)) for gram, count in hyp_bag.items()
            )
            possible[order] += max(len(hyp) - order + 1, 0)
    if hypothesis_tokens == 0 or any(matched[order] == 0 for order in matched):
        return 0.0
    precisions = [Fraction(matched[order], possible[order]) for order in (1, 2, 3, 4)]
    geometric_mean = math.exp(sum(math.log(p) for p in precisions) / 4)
    if hypothesis_tokens >= reference_tokens:
        brevity = 1.0
    else:
        brevity = math.exp(1 - Fraction(reference_tokens, hypothesis_tokens))
    return 100.0 * brevity * geometric_mean


# ---------------------------------------------------------------------------
# chrF (character n-grams 1..6, beta=2, whitespace removed, unsmoothed
# per-order F averaged over orders present), exact rational statistics.


def chrf_oracle(hypotheses, references) -> float:
    assert len(hypotheses) == len(references) and hypotheses
    orders = range(1, 7)
    matched = {order: 0 for order in orders}
    hyp_counts = {order: 0 for order in orders}
    ref_counts = {order: 0 for order in orders}
    for hypothesis, reference in zip(hypotheses, references):
        hyp_text = "".join(hypothesis.split())
        ref_text = "".join(reference.split())
        for order in orders:
            hyp_bag = _ngram_bag(list(hyp_text), order)
            ref_bag = _ngram_bag(list(ref_text), order)
            matched[order] += sum(
                min(count, ref_bag.get(gram, 0)) for gram, count in hyp_bag.items()
            )
            hyp_counts[order] += sum(hyp_bag.values())
            ref_counts[order] += sum(ref_bag.values())
    f_scores = []
    for order in orders:
        if hyp_counts[order] == 0 and ref_counts[order] == 0:
            continue
        precision = Fraction(matched[order], hyp_counts[order]) if hyp_counts[order] else Fraction(0)
        recall = Fraction(matched[order], ref_counts[order]) if ref_counts[order] else Fraction(0)
        if precision == 0 and recall == 0:
            f_scores.append(Fraction(0))
        else:
            f_scores.append(5 * precision * recall / (4 * precision + recall))
    if not f_scores:
        return 0.0
    return float(100 * sum(f_scores) / len(f_scores))


# ---------------------------------------------------------------------------
# Severity tallying via sort + group-by


def tally_oracle(spans) -> dict[str, int]:
    """spans: iterable with .severity in MIN/MAJ/CRIT. Returns counts."""
    counts = {"MIN": 0, "MAJ": 0, "CRIT": 0}
    labeled = sorted(span.severity for span in spans)
    for severity, group in itertools.groupby(labeled):
        counts[severity] = sum(1 for _ in group)
    return counts


def mqm_oracle(minor: int, major: int, critical: int, token_total: int) -> float:
    penalty = Fraction(10 * critical + 5 * major + minor, token_total)
    return float(100 * (1 - penalty))


# ---------------------------------------------------------------------------
# Glossary artifact rows, read and checked one at a time


class GlossaryRowError(Exception):
    """What the per-row reader rejected: the message and the 1-based line,
    None for a fault of the whole file."""

    def __init__(self, message: str, line: int | None):
        super().__init__(message, line)
        self.message = message
        self.line = line


def read_glossary_rows(path) -> tuple[list[str], list[str]]:
    """The source and target term columns of a glossary artifact, read the
    way the package read them before its bulk reader: each line decoded and
    put in NFC on its own, split at tabs (by the csv module when it holds a
    ``"``), and checked in file order for 4 fields, a reliability of ``1``
    to ``4``, non-empty and whitespace-normalized terms, and a casefolded
    pair not seen before. An artifact with no row is rejected as a whole."""
    raw_lines = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8).splitlines()
    lines = []
    for number, raw in enumerate(raw_lines, start=1):
        try:
            lines.append(unicodedata.normalize("NFC", raw.decode("utf-8")))
        except UnicodeDecodeError:
            raise GlossaryRowError("not valid UTF-8", number) from None
    try:
        manifest = json.loads(lines[0][2:]) if lines and lines[0].startswith("# ") else None
    except (ValueError, RecursionError):
        manifest = None
    if not isinstance(manifest, dict):
        raise GlossaryRowError("the first line is not the manifest comment", 1)
    if len(lines) == 1:
        raise GlossaryRowError("the glossary artifact has no rows", None)
    sources: list[str] = []
    targets: list[str] = []
    seen: set[tuple[str, str]] = set()
    for number, line in enumerate(lines[1:], start=2):
        row = next(csv.reader([line], delimiter="\t")) if '"' in line else line.split("\t")
        if len(row) != 4:
            raise GlossaryRowError(f"bad glossary row: {len(row)} fields, not 4", number)
        source, target, reliability, _ = row
        if reliability not in ("1", "2", "3", "4"):
            raise GlossaryRowError(f"bad glossary row: reliability {reliability!r} is not 1 to 4", number)
        if not _squash(source) or not _squash(target):
            raise GlossaryRowError("bad glossary row: glossary terms must be non-empty", number)
        if (_squash(source), _squash(target)) != (source, target):
            raise GlossaryRowError("bad glossary row: a term is not whitespace-normalized", number)
        key = (source.casefold(), target.casefold())
        if key in seen:
            raise GlossaryRowError(f"bad glossary row: duplicate glossary pair {source!r} -> {target!r}", number)
        seen.add(key)
        sources.append(source)
        targets.append(target)
    return sources, targets
