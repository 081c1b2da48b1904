"""Corpus-level surface metrics, terminology accuracy, and significance.

BLEU uses the standard international (mteval-13a-compatible) tokenization —
punctuation split off, digit-adjacent periods/commas kept — and no smoothing:
any n-gram order with zero matches scores 0.0, and identical corpora score
exactly 100.0. chrF is the character n-gram F-score (orders 1..6, beta=2)
with all whitespace removed before n-gram extraction, likewise unsmoothed.
Both are corpus scores computed, as in sacreBLEU, from the sums of
per-segment integer statistics (:func:`bleu_statistics`,
:func:`chrf_statistics`): n-gram matches and totals per order. Each order's
clipped match count (:func:`_clipped_matches`) takes the cheapest of three
paths: a set intersection once a lower order showed one side without repeated
n-grams, a set intersection when the hypothesis Counter shows none, and
otherwise one Counter per side clipped at C speed.

Neural metric scores (COMET and friends) are never computed here; they are
ingested from external score files and merged into reports.
"""

from __future__ import annotations

import logging
import math
import operator
import re
from collections import Counter
from itertools import repeat
from typing import TYPE_CHECKING, Collection, Sequence

from . import _jsonl
from .errors import UsageError
from .prng import SplitMix64
from .terminology import TermPair, terms_in_text

if TYPE_CHECKING:
    from .postprocess import ModelOutput

log = logging.getLogger(__name__)

BLEU_MAX_ORDER = 4
CHRF_MAX_ORDER = 6
CHRF_BETA = 2.0

# mteval-13a pads every character of the class [{-~[-` -&(-+:-@/] with
# spaces. The class is these 29 ASCII characters, space included, so a
# translate table does it without a Python call per character.
_13A_PUNCT_TABLE = {ord(char): f" {char} " for char in " !\"#$%&()*+/:;<=>?@[\\]^_`{|}~"}
_13A_PERIOD_BEFORE = re.compile(r"([^0-9])([\.,])")
_13A_PERIOD_AFTER = re.compile(r"([\.,])([^0-9])")
_13A_DASH = re.compile(r"([0-9])(-)")


def tokenize_13a(line: str) -> list[str]:
    """mteval-13a-compatible tokenization used for BLEU."""
    norm = line.replace("<skipped>", "")
    norm = norm.replace("-\n", "").replace("\n", " ")
    norm = (
        norm.replace("&quot;", '"')
        .replace("&amp;", "&")
        .replace("&lt;", "<")
        .replace("&gt;", ">")
    )
    norm = f" {norm} "
    norm = norm.translate(_13A_PUNCT_TABLE)
    norm = _13A_PERIOD_BEFORE.sub(r"\1 \2 ", norm)
    norm = _13A_PERIOD_AFTER.sub(r" \1 \2", norm)
    norm = _13A_DASH.sub(r"\1 \2 ", norm)
    return norm.split()


def _check_paired(hypotheses: Sequence[str], references: Sequence[str]) -> None:
    if len(hypotheses) != len(references):
        raise UsageError(
            f"hypothesis/reference length mismatch: {len(hypotheses)} vs {len(references)}"
        )
    if not hypotheses:
        raise UsageError("need at least one hypothesis/reference pair")


def _clipped_matches(hypothesis_ngrams, reference_ngrams, both_repeat: bool) -> tuple[int, bool]:
    """Sum over distinct n-grams of min(hypothesis count, reference count).

    Returns the sum and whether both sides may still repeat an n-gram, which
    the caller passes back as ``both_repeat`` for the next order: once the
    n-grams of one side are distinct, so are its longer n-grams, since each
    extends a distinct shorter one. The count takes one of three paths:

    - ``both_repeat`` is false: every count on one side is 1, so the sum is
      the size of the intersection of the two sets, with no Counter built.
    - The hypothesis Counter has one key per n-gram: the same intersection,
      from its keys.
    - The hypothesis repeats: with the reference Counter too, the sum is
      |H| - sum of max(h - r, 0), counted by C-level iterators rather than
      by ``Counter.__and__``'s Python loop.
    """
    if not both_repeat:
        return len(set(hypothesis_ngrams).intersection(reference_ngrams)), False
    hypothesis_counts = Counter(hypothesis_ngrams)
    if len(hypothesis_counts) == len(hypothesis_ngrams):
        return len(hypothesis_counts.keys() & reference_ngrams), False
    reference_counts = Counter(reference_ngrams)
    excess = sum(
        filter(
            (0).__lt__,
            map(
                operator.sub,
                hypothesis_counts.values(),
                map(reference_counts.get, hypothesis_counts, repeat(0)),
            ),
        )
    )
    return len(hypothesis_ngrams) - excess, len(reference_counts) < len(reference_ngrams)


def _summed(rows) -> list[int]:
    """Column sums of per-segment statistics tuples."""
    return [sum(column) for column in zip(*rows)]


def bleu_statistics(hypothesis: str, reference: str) -> tuple[int, ...]:
    """Per-segment BLEU sufficient statistics: matches for n=1..4, totals
    (hypothesis n-grams) for n=1..4, hypothesis length, reference length."""
    hyp_tokens = tokenize_13a(hypothesis)
    ref_tokens = tokenize_13a(reference)
    matches = []
    totals = []
    both_repeat = True
    for n in range(1, BLEU_MAX_ORDER + 1):
        if n == 1:
            hyp_ngrams, ref_ngrams = hyp_tokens, ref_tokens
        else:
            hyp_ngrams = list(zip(*[hyp_tokens[i:] for i in range(n)]))
            ref_ngrams = list(zip(*[ref_tokens[i:] for i in range(n)]))
        match, both_repeat = _clipped_matches(hyp_ngrams, ref_ngrams, both_repeat)
        matches.append(match)
        totals.append(len(hyp_ngrams))
    return (*matches, *totals, len(hyp_tokens), len(ref_tokens))


def bleu(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Corpus BLEU: modified n-gram precisions for n=1..4, geometric mean,
    exponential brevity penalty, scale 0..100."""
    _check_paired(hypotheses, references)
    sums = _summed(map(bleu_statistics, hypotheses, references))
    matches = sums[:BLEU_MAX_ORDER]
    totals = sums[BLEU_MAX_ORDER : 2 * BLEU_MAX_ORDER]
    hypothesis_length, reference_length = sums[2 * BLEU_MAX_ORDER :]
    if hypothesis_length == 0 or any(m == 0 for m in matches):
        return 0.0
    # fsum is correctly rounded; sum() of floats rounds differently from 3.12 on.
    log_precision_sum = math.fsum(math.log(m / t) for m, t in zip(matches, totals)) / BLEU_MAX_ORDER
    if hypothesis_length >= reference_length:
        brevity_penalty = 1.0
    else:
        brevity_penalty = math.exp(1 - reference_length / hypothesis_length)
    return 100.0 * brevity_penalty * math.exp(log_precision_sum)


def chrf_statistics(hypothesis: str, reference: str) -> tuple[int, ...]:
    """Per-segment chrF sufficient statistics over whitespace-free character
    n-grams: matches, hypothesis totals and reference totals for n=1..6."""
    hyp_chars = "".join(hypothesis.split())
    ref_chars = "".join(reference.split())
    # Order n is order n-1 extended by one character: a str, then lists.
    hyp_ngrams, ref_ngrams = hyp_chars, ref_chars
    matches = []
    hyp_totals = []
    ref_totals = []
    both_repeat = True
    for n in range(1, CHRF_MAX_ORDER + 1):
        if n > 1:
            hyp_ngrams = list(map(operator.add, hyp_ngrams, hyp_chars[n - 1 :]))
            ref_ngrams = list(map(operator.add, ref_ngrams, ref_chars[n - 1 :]))
        match, both_repeat = _clipped_matches(hyp_ngrams, ref_ngrams, both_repeat)
        matches.append(match)
        hyp_totals.append(len(hyp_ngrams))
        ref_totals.append(len(ref_ngrams))
    return (*matches, *hyp_totals, *ref_totals)


def chrf(hypotheses: Sequence[str], references: Sequence[str]) -> float:
    """Corpus chrF: per-order F-scores (beta=2) over character n-grams 1..6
    with whitespace removed, averaged over the orders present in the data."""
    _check_paired(hypotheses, references)
    sums = _summed(map(chrf_statistics, hypotheses, references))
    matches = sums[:CHRF_MAX_ORDER]
    hyp_totals = sums[CHRF_MAX_ORDER : 2 * CHRF_MAX_ORDER]
    ref_totals = sums[2 * CHRF_MAX_ORDER :]
    beta_squared = CHRF_BETA**2
    f_scores = []
    for match, hyp_total, ref_total in zip(matches, hyp_totals, ref_totals):
        if hyp_total == 0 and ref_total == 0:
            continue  # order longer than anything in the corpus
        precision = match / hyp_total if hyp_total else 0.0
        recall = match / ref_total if ref_total else 0.0
        if precision + recall == 0.0:
            f_scores.append(0.0)
        else:
            f_scores.append(
                (1 + beta_squared) * precision * recall / (beta_squared * precision + recall)
            )
    if not f_scores:
        return 0.0
    return 100.0 * _mean(f_scores)


def term_accuracy(
    outputs: Sequence[ModelOutput],
    candidates: Sequence[tuple[str, Sequence[TermPair]]],
) -> tuple[float, int, int]:
    """Micro-averaged terminology accuracy.

    ``candidates`` holds the expected set per segment as (segment_id, pairs),
    the glossary pairs strict matching finds on (source, reference) — what
    :func:`~glossmt.terminology.read_candidates` returns for the test set. A
    pair counts as correct when its target term occurs in the cleaned MT
    output under the same matching semantics. Returns (accuracy, correct,
    total); a test set with zero expected pairs scores 0.0. Each side's ids
    are unique, as ``read_outputs`` and ``read_candidates`` check."""
    outputs_by_id = {output.segment_id: output for output in outputs}
    candidate_ids = {segment_id for segment_id, _ in candidates}
    if candidate_ids != set(outputs_by_id):
        missing = sorted(candidate_ids - set(outputs_by_id))[:5]
        extra = sorted(set(outputs_by_id) - candidate_ids)[:5]
        raise UsageError(
            f"outputs and candidates are not aligned (missing={missing}, extra={extra})"
        )
    correct = 0
    total = 0
    for segment_id, expected in candidates:
        if not expected:
            continue
        cleaned = outputs_by_id[segment_id].cleaned_text
        total += len(expected)
        correct += sum(terms_in_text((pair.target_term for pair in expected), cleaned))
    accuracy = correct / total if total else 0.0
    return accuracy, correct, total


def significance_test(
    scores_a: Sequence[float], scores_b: Sequence[float], resamples: int, seed: int
) -> float:
    """Paired approximate randomization test on the difference of means.

    Per resample, each aligned score pair is swapped with probability 1/2:
    segment i is swapped when bit i % 64 of the resample's draw i // 64 is
    set, so one 64-bit draw serves 64 segments. The p-value is the
    add-one-smoothed fraction of resamples whose absolute mean difference
    reaches the observed one. Identical inputs give exactly 1.0.
    Deterministic given the seed.
    """
    if len(scores_a) != len(scores_b):
        raise UsageError(
            f"score list length mismatch: {len(scores_a)} vs {len(scores_b)}"
        )
    if len(scores_a) < 2:
        raise UsageError("need at least two aligned scores")
    if resamples < 1:
        raise UsageError("resamples must be positive")
    n = len(scores_a)
    observed = abs(_mean(scores_a) - _mean(scores_b))
    rng = SplitMix64(seed)
    differences = [a - b for a, b in zip(scores_a, scores_b)]
    at_least_as_extreme = 0
    for _ in range(resamples):
        difference_total = 0.0
        for i, difference in enumerate(differences):
            if not i & 63:
                bits = rng.next_u64()
            if bits & 1:
                difference_total -= difference
            else:
                difference_total += difference
            bits >>= 1
        if abs(difference_total) / n >= observed:
            at_least_as_extreme += 1
    return (at_least_as_extreme + 1) / (resamples + 1)


class ScoreReport(_jsonl.Frozen):
    """Per (system, pair) evaluation summary; ``pair`` is the pair code."""

    __slots__ = (
        "pair", "system", "bleu", "chrf", "term_accuracy", "term_correct", "term_total", "external_scores",
    )

    def __init__(
        self,
        pair: str,
        system: str,
        bleu: float,
        chrf: float,
        term_accuracy: float,
        term_correct: int,
        term_total: int,
        external_scores: dict[str, float] | None = None,
    ):
        if external_scores is None:
            external_scores = {}
        if not pair:
            raise UsageError(f"pair must be a non-empty code, got {pair!r}")
        if not system:
            raise UsageError("system name must be non-empty")
        for name in external_scores:
            if not math.isfinite(_jsonl.field(external_scores, name, (int, float))):
                raise UsageError(f"external score {name!r} must be finite")
        if not 0.0 <= bleu <= 100.0:
            raise UsageError(f"bleu out of range: {bleu}")
        if not 0.0 <= chrf <= 100.0:
            raise UsageError(f"chrf out of range: {chrf}")
        if term_correct > term_total or term_correct < 0:
            raise UsageError("term_correct must be in 0..term_total")
        if term_total > 0:
            expected = term_correct / term_total
            if not abs(term_accuracy - expected) <= 1e-9:  # NaN fails too
                raise UsageError("term_accuracy does not equal term_correct/term_total")
        elif term_accuracy != 0.0:
            raise UsageError("term_accuracy must be 0.0 when term_total is 0")
        self._fill(locals())

    def to_dict(self) -> dict:
        return _jsonl.to_record(self, _REPORT_KEYS)

    @classmethod
    def from_dict(cls, data: dict) -> "ScoreReport":
        return cls(**_jsonl.from_record(data, _REPORT_KEYS))


# Score-file key -> (attribute, kind[, default]); a bool is no number.
_REPORT_KEYS = {
    "pair": ("pair", str), "system": ("system", str), "bleu": ("bleu", (int, float)),
    "chrf": ("chrf", (int, float)), "term_accuracy": ("term_accuracy", (int, float)),
    "term_correct": ("term_correct", int), "term_total": ("term_total", int),
    "external_scores": ("external_scores", dict, {}),
}


def load_external_scores(path, segment_ids: Collection[str] | None = None) -> dict[str, float]:
    """Mean per metric name over a JSONL file of {segment_id, name, value}.
    Rejected with a logged reason: a repeated (segment_id, name) and, given
    ``segment_ids`` (the scored segments), a row on any other segment."""

    def build(record) -> tuple[str, str, float]:
        segment_id = _jsonl.field(record, "segment_id")
        name = _jsonl.field(record, "name")
        if not name:
            raise ValueError("name must be non-empty")
        value = float(_jsonl.field(record, "value", (int, float)))
        if not math.isfinite(value):
            raise ValueError(f"value must be finite, got {value}")
        return segment_id, name, value

    values: dict[str, list[float]] = {}
    seen: set[tuple[str, str]] = set()
    for segment_id, name, value in _jsonl.read_records(path, build):
        if segment_ids is not None and segment_id not in segment_ids:
            reason = "unknown_segment"
        elif (segment_id, name) in seen:
            reason = "duplicate"
        else:
            seen.add((segment_id, name))
            values.setdefault(name, []).append(value)
            continue
        log.warning("path=%s segment_id=%r name=%r rejected_score reason=%s", path, segment_id, name, reason)
    return {name: _mean(vals) for name, vals in sorted(values.items())}


def _mean(values: Sequence[float]) -> float:
    """The float mean, as ``statistics.fmean`` computes it (``fsum`` over
    the count), without importing ``statistics`` at start-up."""
    try:
        return math.fsum(values) / len(values)
    except OverflowError:  # finite values whose sum overflows, e.g. 1e308 twice
        return math.fsum(v / len(values) for v in values)
