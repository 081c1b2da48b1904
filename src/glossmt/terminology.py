"""Glossary ingestion, reliability filtering, and strict term matching.

Glossaries are 4-column TSV files: source term, target term, reliability
(1-4 stars), domain id.

Matching semantics (shared by the matcher, :func:`term_in_text`, and the
candidate lists rendered into prompts):

* comparison is Unicode-casefolded;
* matches must sit on word boundaries — the characters adjacent to the
  match, if any, must not be letters or digits;
* internal whitespace in a multi-word term matches exactly one space
  (segment text and terms are both whitespace-normalized, so this holds by
  construction);
* a glossary pair is emitted for a segment only when the source term occurs
  in the source text AND the target term occurs in the target text.
"""

from __future__ import annotations

import csv
import logging
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from . import _jsonl
from .corpus import LanguagePair, ParallelSegment, normalize_text, read_text_lines
from .errors import UsageError

log = logging.getLogger(__name__)

MIN_RELIABILITY = 1
MAX_RELIABILITY = 4


@dataclass(frozen=True, init=False)
class GlossaryEntry:
    """One term pair with its reliability rating and domain tag."""

    source_term: str
    target_term: str
    reliability: int
    domain_id: str = ""
    # Casefolded (source, target) pair; duplicates collapse on this. Left out
    # of equality, hashing and repr.
    key: tuple[str, str] = field(init=False, compare=False, repr=False)

    def __init__(self, source_term: str, target_term: str, reliability: int, domain_id: str = ""):
        # Written out so that each field is set once, after normalization
        # and the checks: loading a glossary builds one entry per row.
        source_term = normalize_text(source_term)
        target_term = normalize_text(target_term)
        if not source_term or not target_term:
            raise UsageError("glossary terms must be non-empty")
        if not MIN_RELIABILITY <= reliability <= MAX_RELIABILITY:
            raise UsageError(
                f"reliability must be in {MIN_RELIABILITY}..{MAX_RELIABILITY}, "
                f"got {reliability}"
            )
        object.__setattr__(self, "source_term", source_term)
        object.__setattr__(self, "target_term", target_term)
        object.__setattr__(self, "reliability", reliability)
        object.__setattr__(self, "domain_id", domain_id)
        object.__setattr__(self, "key", (source_term.casefold(), target_term.casefold()))


@dataclass(frozen=True)
class Glossary:
    pair: LanguagePair
    entries: tuple[GlossaryEntry, ...]

    def __post_init__(self):
        if len({entry.key for entry in self.entries}) == len(self.entries):
            return
        seen: set[tuple[str, str]] = set()
        for entry in self.entries:
            if entry.key in seen:
                raise UsageError(
                    f"duplicate glossary pair {entry.source_term!r} -> {entry.target_term!r}"
                )
            seen.add(entry.key)

    def __len__(self) -> int:
        return len(self.entries)

    @classmethod
    def build(cls, pair: LanguagePair, entries: Iterable[GlossaryEntry]) -> "Glossary":
        """Construct a glossary, dropping casefolded duplicate pairs (first wins)."""
        kept: list[GlossaryEntry] = []
        seen: set[tuple[str, str]] = set()
        duplicates = 0
        for entry in entries:
            if entry.key in seen:
                duplicates += 1
                continue
            seen.add(entry.key)
            kept.append(entry)
        if duplicates:
            log.info("pair=%s dropped_duplicate_pairs=%d kept=%d", pair.code, duplicates, len(kept))
        return cls(pair, tuple(kept))


def load_glossary(path, pair: LanguagePair) -> Glossary:
    """Load a 4-column TSV glossary.

    Malformed rows — wrong column count, empty terms, a reliability that is
    not an integer in 1..4 — are skipped with a logged count rather than
    aborting the load. Lines starting with ``#`` are comments. Files that
    are not valid UTF-8 raise FormatError with the offending line number.
    """
    entries: list[GlossaryEntry] = []
    skipped = 0
    for line_number, line in enumerate(read_text_lines(path), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        row = _split_row(line)
        if len(row) != 4:
            skipped += 1
            log.warning("path=%s line=%d skipped_row reason=column_count", path, line_number)
            continue
        source_term, target_term, reliability_text, domain_id = row
        try:
            reliability = int(reliability_text)
        except ValueError:
            skipped += 1
            log.warning("path=%s line=%d skipped_row reason=bad_reliability", path, line_number)
            continue
        try:
            entry = GlossaryEntry(source_term, target_term, reliability, domain_id.strip())
        except UsageError:
            skipped += 1
            log.warning("path=%s line=%d skipped_row reason=invalid_entry", path, line_number)
            continue
        entries.append(entry)
    if skipped:
        log.info("path=%s skipped_rows=%d", path, skipped)
    return Glossary.build(pair, entries)


def _split_row(line: str) -> list[str]:
    """The tab-separated fields of one glossary line. Without a quote
    character the csv module's default dialect splits exactly at each tab,
    so only quoted lines need the csv parser."""
    if '"' not in line:
        return line.split("\t")
    return next(csv.reader([line], delimiter="\t"))


def filter_by_reliability(glossary: Glossary, min_stars: int) -> Glossary:
    """Keep only entries rated at or above ``min_stars`` (1..4)."""
    if not MIN_RELIABILITY <= min_stars <= MAX_RELIABILITY:
        raise UsageError(f"min_stars must be in {MIN_RELIABILITY}..{MAX_RELIABILITY}")
    kept = tuple(e for e in glossary.entries if e.reliability >= min_stars)
    return Glossary(glossary.pair, kept)


# ---------------------------------------------------------------------------
# Matching

def casefold_with_map(text: str) -> tuple[str, list[int]]:
    """Casefold ``text``, returning the folded string and, per folded
    character, the index of the original character it came from (casefolding
    can expand one character into several, e.g. ß -> ss).

    Folding is per character and no character folds to the empty string, so
    when the length is unchanged every character folded to exactly one and
    the map is the identity.
    """
    folded = text.casefold()
    if len(folded) == len(text):
        return folded, list(range(len(text)))
    # Only the characters that fold to several (ß, İ, ﬁ, ...) break the
    # identity; fill the runs between them with ranges.
    widths = {}
    for char in set(text):
        width = len(char.casefold())
        if width > 1:
            widths[char] = width
    positions = []
    for char in widths:
        position = text.find(char)
        while position != -1:
            positions.append(position)
            position = text.find(char, position + 1)
    positions.sort()
    index_map: list[int] = []
    start = 0
    for position in positions:
        index_map.extend(range(start, position))
        index_map.extend([position] * widths[text[position]])
        start = position + 1
    index_map.extend(range(start, len(text)))
    return folded, index_map


def _on_word_boundaries(text: str, start: int, end: int) -> bool:
    if start > 0 and text[start - 1].isalnum():
        return False
    if end < len(text) and text[end].isalnum():
        return False
    return True


# A term's head is its first character and the run of letters and digits
# after it ([^\W_] is exactly str.isalnum). A term occurring on word
# boundaries at position s has the head of the text at s, so this pattern,
# which yields the head at every position not preceded by a letter or digit,
# finds every place a term can match and which terms to try there.
_HEAD_RE = re.compile(r"(?<![^\W_])(?=(.[^\W_]*))", re.DOTALL)


def _occurs_on_boundaries(pattern: str, haystack: str) -> bool:
    """Whether ``pattern`` occurs in ``haystack`` on word boundaries; both
    are already casefolded."""
    start = haystack.find(pattern)
    while start != -1:
        if _on_word_boundaries(haystack, start, start + len(pattern)):
            return True
        start = haystack.find(pattern, start + 1)
    return False


@dataclass(frozen=True)
class TermPair:
    """A glossary pair realized in a segment.

    ``first_source_offset`` is the character index (into the normalized
    source text) of the first boundary-valid occurrence of the source term;
    it is None for pairs re-read from serialized artifacts, which do not
    store offsets.
    """

    source_term: str
    target_term: str
    first_source_offset: int | None = None

    @classmethod
    def from_record(cls, record) -> "TermPair":
        """A pair from its serialized ``{src, tgt}`` form."""
        return cls(_jsonl.field(record, "src"), _jsonl.field(record, "tgt"))


class TermMatcher:
    """Multi-pattern matcher for one glossary.

    Indexes the casefolded source terms by their head (see
    :data:`_HEAD_RE`) and the entries by source term. A candidate pair for a
    segment is any glossary entry whose source term occurs in the source
    text and whose target term occurs in the target text, both on word
    boundaries. The source scan visits only the terms whose head the text
    has at a word start, and only the entries of source terms that hit, so
    its cost grows with the hits, not with the glossary.
    """

    def __init__(self, glossary: Glossary):
        if not glossary.entries:
            raise UsageError("cannot build a matcher from an empty glossary")
        self.glossary = glossary
        self.pair = glossary.pair
        # casefolded source term -> (entry, casefolded target term) for
        # every entry with that source term under casefolding.
        self._entries_by_source: dict[str, list[tuple[GlossaryEntry, str]]] = {}
        self._sources_by_head: dict[str, list[str]] = {}
        for entry in glossary.entries:
            source_key, target_key = entry.key
            entries = self._entries_by_source.get(source_key)
            if entries is None:
                entries = self._entries_by_source[source_key] = []
                head = _HEAD_RE.match(source_key).group(1)
                self._sources_by_head.setdefault(head, []).append(source_key)
            entries.append((entry, target_key))

    def find_candidates(self, segment: ParallelSegment) -> list[TermPair]:
        """All glossary pairs realized in the segment, sorted by descending
        source-term length, then lexicographically."""
        if segment.pair != self.pair:
            raise UsageError(
                f"segment pair {segment.pair.code} does not match matcher pair {self.pair.code}"
            )
        folded_source, source_map = casefold_with_map(segment.source_text)
        first_offset: dict[str, int] = {}
        for hit in _HEAD_RE.finditer(folded_source):
            source_keys = self._sources_by_head.get(hit.group(1))
            if source_keys is None:
                continue
            start = hit.start()
            for source_key in source_keys:
                if (
                    source_key not in first_offset
                    and folded_source.startswith(source_key, start)
                    and _on_word_boundaries(folded_source, start, start + len(source_key))
                ):
                    first_offset[source_key] = source_map[start]
        folded_target = segment.target_text.casefold()
        found = [
            TermPair(entry.source_term, entry.target_term, offset)
            for source_key, offset in first_offset.items()
            for entry, target_key in self._entries_by_source[source_key]
            if _occurs_on_boundaries(target_key, folded_target)
        ]
        found.sort(key=_candidate_sort_key)
        return found


def _candidate_sort_key(pair: TermPair):
    return (
        -len(pair.source_term),
        pair.source_term.casefold(),
        pair.target_term.casefold(),
        pair.source_term,
        pair.target_term,
    )


def build_matcher(glossary: Glossary) -> TermMatcher:
    return TermMatcher(glossary)


def term_in_text(term: str, text: str) -> bool:
    """Whether ``term`` occurs in ``text`` under the matching semantics
    (casefolded, word-boundary-anchored, single internal spaces)."""
    (found,) = terms_in_text([term], text)
    return found


def terms_in_text(terms: Iterable[str], text: str) -> list[bool]:
    """:func:`term_in_text` for each of ``terms``, normalizing and
    casefolding ``text`` once."""
    haystack = normalize_text(text).casefold()
    found = []
    for term in terms:
        pattern = normalize_text(term).casefold()
        if not pattern:
            raise UsageError("term must be non-empty")
        found.append(_occurs_on_boundaries(pattern, haystack))
    return found


# ---------------------------------------------------------------------------
# Serialization

def write_candidates(
    path,
    candidates_by_segment: Sequence[tuple[str, Sequence[TermPair]]],
    manifest: dict | None = None,
) -> None:
    """Write per-segment candidate lists as JSONL records
    {segment_id, pairs: [{src, tgt}, ...]}."""
    records = (
        {
            "segment_id": segment_id,
            "pairs": [{"src": p.source_term, "tgt": p.target_term} for p in pairs],
        }
        for segment_id, pairs in candidates_by_segment
    )
    _jsonl.write_jsonl(path, records, manifest=manifest)


def read_candidates(path) -> list[tuple[str, list[TermPair]]]:
    return _jsonl.read_records(
        path,
        lambda record: (
            _jsonl.field(record, "segment_id"),
            [TermPair.from_record(p) for p in _jsonl.field(record, "pairs", list)],
        ),
    )


def write_glossary_tsv(path, entries: Iterable[GlossaryEntry], manifest: dict | None = None) -> None:
    """Write entries in the 4-column TSV format load_glossary reads."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        if manifest is not None:
            handle.write("# " + _jsonl.dumps(manifest) + "\n")
        writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
        for entry in entries:
            writer.writerow(
                [entry.source_term, entry.target_term, entry.reliability, entry.domain_id]
            )

