"""Glossary ingestion, reliability filtering, and strict term matching.

Glossaries are 4-column TSV files: source term, target term, reliability
(1-4 stars), domain id. The user's files are read leniently by
:func:`load_glossary`. The glossary artifact that ``ingest`` writes is read
by :func:`read_glossary_tsv` under one row rule, which :data:`_ROW` spells
out: 4 tab-separated fields, two non-empty terms that are
whitespace-normalized (single spaces, no other whitespace), a reliability
of exactly ``1`` to ``4``, and no casefolded pair twice. A row that holds a
``"`` is csv-quoted, and is checked field by field under the same rule.

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
import json
import logging
import re
from typing import Iterable, Sequence

from . import _jsonl
from .corpus import LanguagePair, ParallelSegment, normalize_text, read_text_lines
from .errors import FormatError, UsageError

log = logging.getLogger(__name__)

MIN_RELIABILITY = 1
MAX_RELIABILITY = 4

# The artifact row rule for a row without a '"'. ``\s`` is str.isspace, so a
# term that matches _TERM is its own normalize_text.
_TERM = r'[^\s"]+(?: [^\s"]+)*'
_ROW = rf'{_TERM}\t{_TERM}\t[1-4]\t[^\t\n"]*'
_ROWS_RE = re.compile(rf"(?:{_ROW}\n)*{_ROW}")


class GlossaryEntry(_jsonl.Frozen, hidden=("key",)):
    """One term pair with its reliability rating and domain tag.

    ``key`` is the casefolded (source, target) pair; duplicates collapse on
    it. It is left out of equality, hashing and repr."""

    __slots__ = ("source_term", "target_term", "reliability", "domain_id", "key")

    def __init__(self, source_term: str, target_term: str, reliability: int, domain_id: str = ""):
        source_term = normalize_text(source_term)
        target_term = normalize_text(target_term)
        if not source_term or not target_term:
            raise UsageError("glossary terms must be non-empty")
        if not MIN_RELIABILITY <= reliability <= MAX_RELIABILITY:
            raise UsageError(
                f"reliability must be in {MIN_RELIABILITY}..{MAX_RELIABILITY}, "
                f"got {reliability}"
            )
        key = (source_term.casefold(), target_term.casefold())
        self._fill(locals())


class Glossary(_jsonl.Frozen):
    __slots__ = ("pair", "entries")

    def __init__(self, pair: LanguagePair, entries: tuple[GlossaryEntry, ...]):
        if len({entry.key for entry in entries}) != len(entries):
            seen: set[tuple[str, str]] = set()
            for entry in entries:
                if entry.key in seen:
                    raise UsageError(
                        f"duplicate glossary pair {entry.source_term!r} -> {entry.target_term!r}"
                    )
                seen.add(entry.key)
        self._fill(locals())

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


def read_glossary_tsv(path) -> tuple[list[str], list[str], list[tuple[str, str]]]:
    """The source and target term columns of a glossary artifact, and each
    row's casefolded ``(source, target)`` key: the artifact is its manifest
    comment, then at least one row, each under the row rule of the module
    docstring. Any other line is a FormatError that names it; so is an
    artifact with no row.

    The body is checked against the row pattern in one match and cut into
    columns with str.split. Only when that match fails is each row checked
    on its own, so that a csv-quoted row is read and the first bad row is
    named."""
    lines = read_text_lines(path)
    try:
        manifest = json.loads(lines[0].removeprefix("# ")) if lines and lines[0].startswith("# ") else None
    except (ValueError, RecursionError):
        manifest = None
    if not isinstance(manifest, dict):
        raise FormatError("the first line is not the manifest comment", path=path, line=1)
    if len(lines) == 1:
        raise FormatError("the glossary artifact has no rows", path=path)
    body = "\n".join(lines[1:])
    if _ROWS_RE.fullmatch(body):
        fields = body.replace("\n", "\t").split("\t")
        sources, targets, bad_row = fields[0::4], fields[1::4], None
    else:
        sources, targets, bad_row = _read_rows(lines, path)
    # The rows read end before the first bad row, so a duplicate among them
    # comes first in the file and is the one named.
    keys = list(zip(_casefold_column(sources), _casefold_column(targets)))
    if len(set(keys)) < len(keys):
        seen: set[tuple[str, str]] = set()
        for index, key in enumerate(keys):
            if key in seen:
                raise FormatError(
                    f"bad glossary row: duplicate glossary pair {sources[index]!r} -> {targets[index]!r}",
                    path=path,
                    line=index + 2,
                )
            seen.add(key)
    if bad_row is not None:
        raise bad_row
    return sources, targets, keys


def _read_rows(lines: list[str], path) -> tuple[list[str], list[str], FormatError | None]:
    """The term columns of the artifact rows before the first bad one, and
    the FormatError that names that one (None when no row is bad)."""
    sources: list[str] = []
    targets: list[str] = []
    for line_number, line in enumerate(lines[1:], start=2):
        try:
            source_term, target_term = _checked_row(line)
        except ValueError as exc:
            return sources, targets, FormatError(f"bad glossary row: {exc}", path=path, line=line_number)
        sources.append(source_term)
        targets.append(target_term)
    return sources, targets, None


def _checked_row(line: str) -> tuple[str, str]:
    """The two terms of one artifact row, which may be csv-quoted; a
    ValueError says which part of the row rule it breaks."""
    row = _split_row(line)
    if len(row) != 4:
        raise ValueError(f"{len(row)} fields, not 4")
    source_term, target_term, reliability, _ = row
    if reliability not in ("1", "2", "3", "4"):
        raise ValueError(f"reliability {reliability!r} is not 1 to 4")
    normalized = (normalize_text(source_term), normalize_text(target_term))
    if not all(normalized):
        raise ValueError("glossary terms must be non-empty")
    if normalized != (source_term, target_term):
        raise ValueError("a term is not whitespace-normalized")
    return source_term, target_term


def _casefold_column(terms: Sequence[str]) -> list[str]:
    """Each term casefolded, in one call: no term holds a newline, and
    casefolding neither makes nor removes one."""
    return "\n".join(terms).casefold().split("\n") if terms else []


def _split_row(line: str) -> list[str]:
    """The tab-separated fields of one glossary line. Without a quote
    character the csv module's default dialect splits exactly at each tab,
    so only quoted lines need the csv parser."""
    if '"' not in line:
        return line.split("\t")
    return next(csv.reader([line], delimiter="\t"))


def filter_by_reliability(glossary: Glossary, min_stars: int) -> Glossary:
    """Keep only entries rated at or above ``min_stars``, which the config holds to 1..4."""
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


class TermPair(_jsonl.Frozen):
    """A glossary pair realized in a segment.

    ``first_source_offset`` is the character index (into the normalized
    source text) of the first boundary-valid occurrence of the source term;
    it is None for pairs re-read from serialized artifacts, which do not
    store offsets.
    """

    __slots__ = ("source_term", "target_term", "first_source_offset")

    def __init__(self, source_term: str, target_term: str, first_source_offset: int | None = None):
        self._fill(locals())

    @classmethod
    def from_record(cls, record) -> "TermPair":
        """A pair from its serialized ``{src, tgt}`` form."""
        return cls(_jsonl.field(record, "src"), _jsonl.field(record, "tgt"))


class TermMatcher:
    """Multi-pattern matcher for one glossary, given as its term columns and
    their casefold keys: entry ``i`` is ``source_terms[i]`` ->
    ``target_terms[i]``, both whitespace-normalized, and ``keys[i]`` is the
    pair casefolded, no two alike, as :func:`read_glossary_tsv` and
    :class:`Glossary` hold them.

    Indexes the casefolded source terms by their head (see
    :data:`_HEAD_RE`) and the entries by source term. A candidate pair for a
    segment is any glossary entry whose source term occurs in the source
    text and whose target term occurs in the target text, both on word
    boundaries. The source scan visits only the terms whose head the text
    has at a word start, and only the entries of source terms that hit, so
    its cost grows with the hits, not with the glossary.
    """

    def __init__(self, source_terms: Sequence[str], target_terms: Sequence[str], keys: Sequence[tuple[str, str]]):
        # casefolded source term -> (casefolded target term, source term,
        # target term) for every entry with that source term under casefolding.
        self._entries_by_source: dict[str, list[tuple[str, str, str]]] = {}
        for source_term, target_term, (source_key, target_key) in zip(source_terms, target_terms, keys):
            self._entries_by_source.setdefault(source_key, []).append((target_key, source_term, target_term))
        self._sources_by_head: dict[str, list[str]] = {}
        for source_key in self._entries_by_source:
            self._sources_by_head.setdefault(_HEAD_RE.match(source_key).group(1), []).append(source_key)

    def find_candidates(self, segment: ParallelSegment) -> list[TermPair]:
        """All glossary pairs realized in the segment, sorted by descending
        source-term length, then by casefolded source and target term. The
        segment is of the matcher's pair, as ``corpus.read_segments`` checks."""
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
        # No two entries share both keys, so the sort never looks past them.
        found = sorted(
            (-len(source_term), source_key, target_key, source_term, target_term, offset)
            for source_key, offset in first_offset.items()
            for target_key, source_term, target_term in self._entries_by_source[source_key]
            if _occurs_on_boundaries(target_key, folded_target)
        )
        return [TermPair(source_term, target_term, offset) for *_, source_term, target_term, offset in found]


def build_matcher(glossary: Glossary) -> TermMatcher:
    """The matcher of a :class:`Glossary`'s entries."""
    entries = glossary.entries
    return TermMatcher([e.source_term for e in entries], [e.target_term for e in entries], [e.key for e in entries])


def term_in_text(term: str, text: str) -> bool:
    """Whether ``term`` occurs in ``text`` under the matching semantics
    (casefolded, word-boundary-anchored, single internal spaces)."""
    term = normalize_text(term)
    if not term:
        raise UsageError("term must be non-empty")
    (found,) = terms_in_text([term], text)
    return found


def terms_in_text(terms: Iterable[str], text: str) -> list[bool]:
    """:func:`term_in_text` for each of ``terms``, normalizing and
    casefolding ``text`` once. The terms are taken as given: non-empty and
    whitespace-normalized, as :func:`read_candidates` checks them."""
    haystack = normalize_text(text).casefold()
    return [_occurs_on_boundaries(term.casefold(), haystack) for term in terms]


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
    """The per-segment candidate lists :func:`write_candidates` wrote. A
    term that is empty or not whitespace-normalized is a FormatError."""
    def build(record) -> tuple[str, list[TermPair]]:
        pairs = [TermPair.from_record(p) for p in _jsonl.field(record, "pairs", list)]
        for pair in pairs:
            for term in (pair.source_term, pair.target_term):
                if not term or normalize_text(term) != term:
                    raise ValueError(f"term {term!r} is empty or not whitespace-normalized")
        return record["segment_id"], pairs

    return _jsonl.read_records(path, build, "segment_id")


def write_glossary_tsv(path, entries: Iterable[GlossaryEntry], manifest: dict | None = None) -> None:
    """Write entries in the 4-column TSV format load_glossary and
    read_glossary_tsv read, after a manifest comment line when given one."""
    with _jsonl.open_atomic(path) as handle:
        if manifest is not None:
            handle.write("# " + _jsonl.dumps(manifest) + "\n")
        writer = csv.writer(handle, delimiter="\t", lineterminator="\n")
        for entry in entries:
            writer.writerow(
                [entry.source_term, entry.target_term, entry.reliability, entry.domain_id]
            )

