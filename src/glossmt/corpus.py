"""Parallel corpus ingestion, validation, and deterministic splitting.

Input corpora are line-aligned plain-text file pairs (one segment per line,
line N of the source file translating to line N of the target file). All
segment text is whitespace-normalized on construction — runs of whitespace
collapse to single spaces and the ends are trimmed — so downstream matching
and prompt rendering always see one canonical form.
"""

from __future__ import annotations

import codecs
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable, Sequence

from . import _jsonl
from .errors import AlignmentError, ConfigurationError, FormatError, UsageError
from .prng import seeded_permutation, seeded_shuffle

log = logging.getLogger(__name__)

# Display names rendered verbatim into prompts ("English:", "Spanish:").
DISPLAY_NAMES = {
    "en": "English",
    "es": "Spanish",
    "de": "German",
    "ro": "Romanian",
    "fr": "French",
    "it": "Italian",
    "pt": "Portuguese",
    "nl": "Dutch",
}


def normalize_text(text: str) -> str:
    """Collapse whitespace runs to single spaces and trim both ends.

    Whitespace is what ``str.split()`` splits on (``str.isspace``), the same
    set as the regex class ``\\s``.
    """
    return " ".join(text.split())


def read_text_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, without a leading byte-order mark.

    Lines end only at ``\\n``, ``\\r\\n`` or ``\\r``; ``str.splitlines``
    also splits at U+2028, U+0085, form feeds and more, which would cut one
    line in two and misalign a parallel file pair. Invalid UTF-8 raises
    FormatError with the offending line number.
    """
    raw_lines = Path(path).read_bytes().removeprefix(codecs.BOM_UTF8).splitlines()
    lines: list[str] = []
    for line_number, raw in enumerate(raw_lines, start=1):
        try:
            lines.append(raw.decode("utf-8"))
        except UnicodeDecodeError as exc:
            raise FormatError("not valid UTF-8", path=path, line=line_number) from exc
    return lines


@dataclass(frozen=True)
class LanguagePair:
    """A translation direction with the display names used in prompts."""

    source_lang: str
    target_lang: str
    source_name: str
    target_name: str

    def __post_init__(self):
        if not self.source_lang or not self.target_lang:
            raise ConfigurationError("language codes must be non-empty")
        if self.source_lang == self.target_lang:
            raise ConfigurationError(
                f"source and target language are both {self.source_lang!r}"
            )
        if not self.source_name or not self.target_name:
            raise ConfigurationError("language display names must be non-empty")

    @property
    def code(self) -> str:
        return f"{self.source_lang}-{self.target_lang}"

    @classmethod
    def from_code(
        cls,
        code: str,
        source_name: str | None = None,
        target_name: str | None = None,
    ) -> "LanguagePair":
        source_lang, sep, target_lang = code.partition("-")
        if not sep or not source_lang or not target_lang:
            raise ConfigurationError(f"language pair {code!r} is not of the form xx-yy")
        source_name = source_name or DISPLAY_NAMES.get(source_lang)
        target_name = target_name or DISPLAY_NAMES.get(target_lang)
        if source_name is None or target_name is None:
            raise ConfigurationError(
                f"no display name known for pair {code!r}; "
                "provide source/target names explicitly"
            )
        return cls(source_lang, target_lang, source_name, target_name)


@dataclass(frozen=True)
class ParallelSegment:
    """One aligned sentence pair. Text is normalized at construction."""

    id: str
    pair: LanguagePair
    source_text: str
    target_text: str

    def __post_init__(self):
        object.__setattr__(self, "source_text", normalize_text(self.source_text))
        object.__setattr__(self, "target_text", normalize_text(self.target_text))
        if not self.id:
            raise UsageError("segment id must be non-empty")
        if not self.source_text or not self.target_text:
            raise UsageError(f"segment {self.id!r} has an empty side")


@dataclass(frozen=True)
class SplitSpec:
    """Per-pair split sizes plus the seed that fixes the assignment."""

    seed: int
    tuning_size: int = 1600
    validation_size: int = 200
    test_size: int = 200

    def __post_init__(self):
        for name in ("tuning_size", "validation_size", "test_size"):
            if getattr(self, name) <= 0:
                raise ConfigurationError(f"{name} must be positive")

    @property
    def total(self) -> int:
        return self.tuning_size + self.validation_size + self.test_size


def load_parallel(source_path, target_path, pair: LanguagePair) -> list[ParallelSegment]:
    """Load a line-aligned file pair into segments.

    Lines that are empty (after whitespace normalization) on either side are
    dropped, with the count logged; dropped lines still consume their line
    index, so segment ids always equal the 0-based line number in the input
    files. Files with different line counts raise AlignmentError.
    """
    source_lines = read_text_lines(source_path)
    target_lines = read_text_lines(target_path)
    if len(source_lines) != len(target_lines):
        raise AlignmentError(
            f"line counts differ: {source_path} has {len(source_lines)}, "
            f"{target_path} has {len(target_lines)}"
        )
    segments = []
    dropped = 0
    for index, (source_line, target_line) in enumerate(zip(source_lines, target_lines)):
        # A line normalizes to "" exactly when strip() empties it; the
        # segment normalizes the kept lines once.
        if not source_line.strip() or not target_line.strip():
            dropped += 1
            continue
        segments.append(ParallelSegment(str(index), pair, source_line, target_line))
    if dropped:
        log.info("pair=%s dropped_empty_lines=%d kept=%d", pair.code, dropped, len(segments))
    return segments


def _check_unique_ids(segments: Sequence[ParallelSegment]) -> None:
    seen: set[str] = set()
    for segment in segments:
        if segment.id in seen:
            raise UsageError(f"duplicate segment id {segment.id!r}")
        seen.add(segment.id)


def split_corpus(
    segments: Sequence[ParallelSegment], spec: SplitSpec
) -> tuple[list[ParallelSegment], list[ParallelSegment], list[ParallelSegment]]:
    """Partition segments into (tuning, validation, test) sets.

    The assignment is a seeded permutation of the input followed by slicing,
    so it depends only on the input order and the seed. The three sets are
    disjoint by construction; leftover segments beyond the requested sizes
    are discarded.
    """
    _check_unique_ids(segments)
    if spec.total > len(segments):
        raise ConfigurationError(
            f"split needs {spec.total} segments but corpus has {len(segments)}"
        )
    order = seeded_permutation(len(segments), spec.seed)
    shuffled = [segments[i] for i in order]
    tuning = shuffled[: spec.tuning_size]
    validation = shuffled[spec.tuning_size : spec.tuning_size + spec.validation_size]
    test = shuffled[spec.tuning_size + spec.validation_size : spec.total]
    return tuning, validation, test


def merge_tuning_sets(
    tuning_sets: Sequence[Sequence[ParallelSegment]], seed: int
) -> list[ParallelSegment]:
    """Interleave per-pair tuning sets into one shuffled multilingual set.

    Segment ids are re-qualified as ``<pair-code>:<id>`` so ids stay unique
    across pairs; the final order is a seeded shuffle of the concatenation.
    """
    if not tuning_sets or all(len(s) == 0 for s in tuning_sets):
        raise ConfigurationError("merge needs at least one non-empty tuning set")
    merged = [
        replace(segment, id=f"{segment.pair.code}:{segment.id}")
        for tuning_set in tuning_sets
        for segment in tuning_set
    ]
    _check_unique_ids(merged)
    return seeded_shuffle(merged, seed)


# ---------------------------------------------------------------------------
# Serialization: {id, pair, split, source, target} records, one per segment.

def write_segments(
    path,
    segments_by_split: dict[str, Sequence[ParallelSegment]],
    manifest: dict | None = None,
) -> None:
    """Write segments as JSONL, labelled with their split name (or "")."""

    def records() -> Iterable[dict]:
        for split_name, segments in segments_by_split.items():
            for segment in segments:
                yield {
                    "id": segment.id,
                    "pair": segment.pair.code,
                    "split": split_name,
                    "source": segment.source_text,
                    "target": segment.target_text,
                }

    _jsonl.write_jsonl(path, records(), manifest=manifest)


def read_segments(path, pair: LanguagePair, split: str | None = None) -> list[ParallelSegment]:
    """Read segments back, optionally keeping only one split label."""

    def build(record) -> ParallelSegment | None:
        record_pair = _jsonl.field(record, "pair")
        if record_pair != pair.code:
            raise ValueError(f"record pair {record_pair!r} does not match {pair.code!r}")
        # Filter before construction: normalizing dropped segments is waste.
        if split is not None and _jsonl.field(record, "split") != split:
            return None
        return ParallelSegment(
            _jsonl.field(record, "id"), pair, _jsonl.field(record, "source"), _jsonl.field(record, "target")
        )

    return [segment for segment in _jsonl.read_records(path, build) if segment is not None]
