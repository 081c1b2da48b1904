"""MQM scoring from error-span annotations.

Annotations come in as JSONL records {segment_id, span, start?, end?,
severity, confidence} — the export shape of span-level quality annotators.
Severities reduce to the three-level MIN/MAJ/CRIT scheme with fixed weights
1/5/10, and the score is

    100 * (1 - (10*critical + 5*major + minor) / token_total)

unclamped, so heavily penalized systems can go negative. token_total is a
corpus-level token count whose counting scheme is recorded alongside the
tallies.
"""

from __future__ import annotations

import logging
from collections import Counter
from typing import Mapping, Sequence

from . import _jsonl
from .errors import FormatError, UsageError

log = logging.getLogger(__name__)

SEVERITY_MINOR = "MIN"
SEVERITY_MAJOR = "MAJ"
SEVERITY_CRITICAL = "CRIT"
SEVERITIES = (SEVERITY_MINOR, SEVERITY_MAJOR, SEVERITY_CRITICAL)

# Fixed by the MQM weighting scheme; deliberately not configurable.
SEVERITY_WEIGHTS = {SEVERITY_MINOR: 1, SEVERITY_MAJOR: 5, SEVERITY_CRITICAL: 10}

_SEVERITY_ALIASES = {
    "min": SEVERITY_MINOR,
    "minor": SEVERITY_MINOR,
    "maj": SEVERITY_MAJOR,
    "major": SEVERITY_MAJOR,
    "crit": SEVERITY_CRITICAL,
    "critical": SEVERITY_CRITICAL,
}


def normalize_severity(value) -> str | None:
    """Map a severity label onto MIN/MAJ/CRIT; None when unknown."""
    if not isinstance(value, str):
        return None
    return _SEVERITY_ALIASES.get(value.strip().lower())


class ErrorSpan(_jsonl.Frozen):
    __slots__ = ("segment_id", "span_text", "severity", "confidence", "start", "end")

    def __init__(
        self,
        segment_id: str,
        span_text: str,
        severity: str,
        confidence: float,
        start: int | None = None,
        end: int | None = None,
    ):
        if severity not in SEVERITIES:
            raise UsageError(f"severity must be one of {SEVERITIES}, got {severity!r}")
        if not 0.0 <= confidence <= 1.0:
            raise UsageError(f"confidence must be in [0,1], got {confidence}")
        if (start is None) != (end is None):
            raise UsageError("start and end offsets must be given together")
        if start is not None and not 0 <= start < end:
            raise UsageError(f"bad span offsets [{start}, {end})")
        self._fill(locals())


class SeverityCounts(_jsonl.Frozen):
    __slots__ = ("minor", "major", "critical", "token_total", "counting_scheme")

    def __init__(self, minor: int, major: int, critical: int, token_total: int, counting_scheme: str):
        self._fill(locals())
        if min(self.minor, self.major, self.critical) < 0:
            raise UsageError("severity counts must be nonnegative")
        if self.token_total <= 0:
            raise UsageError(f"token_total must be positive, got {self.token_total}")
        if self.penalty > self.token_total * 10**306:  # so the score stays above -10**308
            raise UsageError("severity counts too large for an MQM score in a float")

    @property
    def penalty(self) -> int:
        return (
            SEVERITY_WEIGHTS[SEVERITY_CRITICAL] * self.critical
            + SEVERITY_WEIGHTS[SEVERITY_MAJOR] * self.major
            + SEVERITY_WEIGHTS[SEVERITY_MINOR] * self.minor
        )

    def to_dict(self) -> dict:
        return _jsonl.to_record(self, _COUNTS_KEYS)

    @classmethod
    def from_dict(cls, data: dict) -> "SeverityCounts":
        return cls(**_jsonl.from_record(data, _COUNTS_KEYS))


# Score-file key -> (attribute, kind); a bool is no count.
_COUNTS_KEYS = {
    "minor": ("minor", int), "major": ("major", int), "critical": ("critical", int),
    "token_total": ("token_total", int), "counting_scheme": ("counting_scheme", str),
}


def load_annotations(path, outputs_by_id: Mapping[str, str] | None = None) -> list[ErrorSpan]:
    """Load spans, rejecting (with a logged count) records whose severity is
    not recognizable, whose confidence is out of [0,1], whose segment id or
    span is not a string, or whose offsets are not consistent integers. When
    ``outputs_by_id`` (segment_id -> MT text) is given, a span must name one
    of its segments, and a span with offsets must slice its output to
    span_text."""
    spans: list[ErrorSpan] = []
    rejected = 0
    for line_number, record in _jsonl.iter_jsonl(path):
        missing = [key for key in ("segment_id", "span", "severity", "confidence") if key not in record]
        if missing:
            raise FormatError(f"missing field {missing[0]!r}", path=path, line=line_number)
        severity = normalize_severity(record["severity"])
        if severity is None:
            rejected += 1
            log.warning("path=%s line=%d rejected_span reason=unknown_severity value=%r",
                        path, line_number, record["severity"])
            continue
        confidence = record["confidence"]
        if isinstance(confidence, bool) or not isinstance(confidence, (int, float)):
            rejected += 1
            log.warning("path=%s line=%d rejected_span reason=bad_confidence", path, line_number)
            continue
        try:
            span = ErrorSpan(
                segment_id=_jsonl.field(record, "segment_id"),
                span_text=_jsonl.field(record, "span"),
                severity=severity,
                confidence=float(confidence),
                start=_jsonl.field(record, "start", int, default=None),
                end=_jsonl.field(record, "end", int, default=None),
            )
        except (TypeError, OverflowError, UsageError):
            rejected += 1
            log.warning("path=%s line=%d rejected_span reason=invalid", path, line_number)
            continue
        if outputs_by_id is not None:
            output = outputs_by_id.get(span.segment_id)
            reason = None
            if output is None:
                reason = "unknown_segment"
            elif span.start is not None and output[span.start : span.end] != span.span_text:
                reason = "offsets_mismatch"
            if reason is not None:
                rejected += 1
                log.warning("path=%s line=%d rejected_span reason=%s", path, line_number, reason)
                continue
        spans.append(span)
    if rejected:
        log.info("path=%s rejected_spans=%d loaded=%d", path, rejected, len(spans))
    return spans


def filter_by_confidence(spans: Sequence[ErrorSpan], threshold: float) -> list[ErrorSpan]:
    """Keep spans with confidence >= threshold (in [0, 1] by the config), order preserved."""
    return [span for span in spans if span.confidence >= threshold]


def tally(spans: Sequence[ErrorSpan], token_total: int, scheme: str) -> SeverityCounts:
    """Count spans by severity against a token denominator."""
    counts = Counter(span.severity for span in spans)
    return SeverityCounts(
        minor=counts[SEVERITY_MINOR],
        major=counts[SEVERITY_MAJOR],
        critical=counts[SEVERITY_CRITICAL],
        token_total=token_total,
        counting_scheme=scheme,
    )


def mqm_score(counts: SeverityCounts) -> float:
    return 100.0 * (1.0 - counts.penalty / counts.token_total)
