"""Seeded input generation for the benchmark workloads.

Every byte of a workload's inputs is drawn from ``glossmt.prng.SplitMix64``
keyed by (workload name, seed, size), so one seed always reproduces the same
files; ``inputs_sha256`` proves it. The program under test sees only the
files written here.

The text is synthetic: a filler vocabulary per language (same index = same
meaning, so the target side is a word-by-word "translation" of the source)
plus a separate term vocabulary from which the glossary is drawn. Terms are
planted into segments on both sides, so strict matching finds them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace
from pathlib import Path

from glossmt.prng import SplitMix64, seeded_permutation

# The runner's worker count; equal to nproc on the reference machine. Kept
# constant so the resolved config, and therefore every artifact, does not
# depend on the machine the benchmark runs on.
CONCURRENCY = 2
# Fixed so the endpoint URL, which is stamped into every generation record,
# is the same on every run and every checkout.
STUB_PORT = 38517
CONFIDENCE_THRESHOLD = 0.3
LANGUAGE_NAMES = {"en": "English", "es": "Spanish", "de": "German", "fr": "French"}

_CONSONANTS = "bcdfglmnprstvz"
_VOWELS = "aeiou"
# Letters that force the per-character casefold path and, for ß and İ, change
# the string length under casefolding.
_NON_ASCII = {
    "en": ["İ"],
    "es": ["ñ", "á", "é"],
    "de": ["ß", "ü", "ä", "ö"],
    "fr": ["é", "è", "ç", "à"],
}


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    pairs: tuple[str, ...]
    words_per_segment: int
    entries_per_pair: int
    terms_per_segment: int
    split: tuple[int, int, int]
    latency_ms: float
    fail_share: float
    non_ascii: bool = False
    smoke_split: tuple[int, int, int] = (40, 10, 20)
    smoke_entries: int = 200

    def sized(self, smoke: bool) -> "Workload":
        if not smoke:
            return self
        return replace(self, split=self.smoke_split, entries_per_pair=self.smoke_entries)

    @property
    def segments_per_pair(self) -> int:
        # Headroom beyond the split, so the split never runs out of segments.
        return sum(self.split) + sum(self.split) // 20 + 4

    @property
    def requests_per_pass(self) -> int:
        return self.split[2] * len(self.pairs)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="big-glossary",
            why="one pair, a large glossary and few hits per segment: the per-entry "
            "matcher scan and the re-matching in build and score dominate",
            pairs=("en-es",),
            words_per_segment=25,
            entries_per_pair=10_000,
            terms_per_segment=2,
            split=(250, 100, 200),
            latency_ms=0.0,
            fail_share=0.0,
        ),
        Workload(
            name="dense-multipair",
            why="three pairs, long non-ASCII segments with many hits each: casefolding, "
            "prompt rendering, chrF, term accuracy and MQM dominate",
            pairs=("en-es", "en-de", "en-fr"),
            words_per_segment=60,
            entries_per_pair=2_000,
            terms_per_segment=8,
            split=(90, 30, 60),
            latency_ms=0.0,
            fail_share=0.0,
            non_ascii=True,
        ),
        Workload(
            name="endpoint-latency",
            why="a small glossary and 200 requests per pass against 10 ms of service time "
            "with 2% first-attempt 503s: the HTTP runner dominates, matching is negligible",
            pairs=("en-es",),
            words_per_segment=25,
            entries_per_pair=300,
            terms_per_segment=2,
            split=(100, 50, 200),
            latency_ms=10.0,
            fail_share=0.02,
            smoke_split=(40, 10, 60),
        ),
    )
}


class _Rng:
    """Convenience draws over SplitMix64."""

    def __init__(self, key: str):
        self._gen = SplitMix64(int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big"))

    def below(self, n: int) -> int:
        return self._gen.below(n)

    def unit(self) -> float:
        return self._gen.next_u64() / 2**64

    def choice(self, items):
        return items[self.below(len(items))]


def _word(rng: _Rng, syllables: int, extra: list[str] | None = None) -> str:
    parts = []
    for _ in range(syllables):
        parts.append(rng.choice(_CONSONANTS) + rng.choice(_VOWELS))
    if extra and rng.unit() < 0.3:
        position = rng.below(len(parts))
        parts[position] = parts[position][0] + rng.choice(extra)
    return "".join(parts) + rng.choice(["", "n", "s", "r", "l"])


def _vocabulary(rng: _Rng, size: int, syllables: tuple[int, int], extra, taken: set[str]) -> list[str]:
    words: list[str] = []
    low, high = syllables
    while len(words) < size:
        word = _word(rng, low + rng.below(high - low + 1), extra)
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


def _capitalize(word: str, rng: _Rng, non_ascii: bool, source_side: bool) -> str:
    # Dotted capital I (İ) casefolds to two characters, so it shifts offsets.
    if non_ascii and source_side and word[0] == "i" and rng.unit() < 0.5:
        return "İ" + word[1:]
    return word[:1].upper() + word[1:]


@dataclass
class PairInputs:
    code: str
    # (line index, source text, target text) of every segment ingest keeps
    kept: list[tuple[int, str, str]] = field(default_factory=list)

    @property
    def target_name(self) -> str:
        return LANGUAGE_NAMES[self.code.split("-")[1]]


def _glossary_rows(rng: _Rng, source_terms, target_terms):
    """TSV lines plus the indices of plantable (>= 3 star) entries."""
    rows = ["# synthetic glossary: source\ttarget\tstars\tdomain"]
    plantable = []
    for index, (source, target) in enumerate(zip(source_terms, target_terms)):
        roll = rng.unit()
        stars = 1 + rng.below(2) if roll < 0.03 else 3 + rng.below(2)
        if stars >= 3:
            plantable.append(index)
        rows.append(f"{source}\t{target}\t{stars}\tD{rng.below(40):02d}")
    # Rows that ingest must skip or drop, at fixed positions among the data.
    bad = [
        f"{source_terms[0]}\t{target_terms[0]}\t3",  # column count
        f"{source_terms[1]}\t{target_terms[1]}\tthree\tD00",  # reliability not int
        f"{source_terms[2]}\t{target_terms[2]}\t7\tD00",  # reliability out of range
        f"\t{target_terms[3]}\t4\tD00",  # empty source term
        f"{source_terms[4].upper()}\t{target_terms[4].upper()}\t4\tD00",  # casefold duplicate
    ]
    for offset, line in enumerate(bad):
        rows.insert(1 + (offset + 1) * len(rows) // (len(bad) + 1), line)
    return rows, plantable


def _terms(rng: _Rng, vocabulary: list[str], count: int) -> list[str]:
    terms, seen = [], set()
    while len(terms) < count:
        length = 1 + (rng.below(10) >= 6) + (rng.below(10) >= 8)
        term = " ".join(rng.choice(vocabulary) for _ in range(length))
        if term not in seen:
            seen.add(term)
            terms.append(term)
    return terms


def generate(workload: Workload, seed: int, directory: Path) -> dict:
    """Write the workload's inputs and config under ``directory``.

    Returns the number of invalid MQM span rows planted, which ``score``
    must reject, and the SHA-256 of the inputs.
    """
    inputs = directory / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    rng = _Rng(f"{workload.name}:{seed}:{sum(workload.split)}:{workload.entries_per_pair}")
    filler_size = 1500
    taken: set[str] = set()
    source_filler = _vocabulary(rng, filler_size, (1, 2), None, taken)
    pairs_info: dict[str, PairInputs] = {}
    for code in workload.pairs:
        src_lang, tgt_lang = code.split("-")
        extra_src = _NON_ASCII[src_lang] if workload.non_ascii else None
        extra_tgt = _NON_ASCII[tgt_lang] if workload.non_ascii else None
        tgt_taken: set[str] = set()
        target_filler = _vocabulary(rng, filler_size, (1, 2), extra_tgt, tgt_taken)
        term_count = workload.entries_per_pair
        source_term_words = _vocabulary(rng, term_count // 2 + 50, (3, 4), extra_src, taken)
        target_term_words = _vocabulary(rng, term_count // 2 + 50, (3, 4), extra_tgt, tgt_taken)
        source_terms = _terms(rng, source_term_words, term_count)
        target_terms = _terms(rng, target_term_words, term_count)
        # A few polysemous entries: one source term, a second target term.
        for index in range(7, term_count, 97):
            source_terms[index] = source_terms[index - 1]
        rows, plantable = _glossary_rows(rng, source_terms, target_terms)
        (inputs / f"{code}.tsv").write_text("\n".join(rows) + "\n", encoding="utf-8")

        info = PairInputs(code)
        source_lines, target_lines = [], []
        for line_index in range(workload.segments_per_pair):
            if line_index % 211 == 105:
                # Empty on one side: ingest drops the pair but keeps the line index.
                source_lines.append(" ".join(rng.choice(source_filler) for _ in range(5)))
                target_lines.append("   ")
                continue
            indices = [rng.below(filler_size) for _ in range(workload.words_per_segment)]
            src_words = [source_filler[i] for i in indices]
            tgt_words = [target_filler[i] for i in indices]
            spread = max(1, workload.terms_per_segment // 2)
            planted = workload.terms_per_segment - spread + rng.below(2 * spread + 1)
            for _ in range(planted):
                entry = plantable[rng.below(len(plantable))]
                source_term, target_term = source_terms[entry], target_terms[entry]
                if rng.unit() < 0.2:
                    source_term = " ".join(
                        _capitalize(w, rng, workload.non_ascii, True) for w in source_term.split()
                    )
                    target_term = target_term.upper() if rng.unit() < 0.3 else target_term
                src_words.insert(rng.below(len(src_words) + 1), source_term)
                tgt_words.insert(rng.below(len(tgt_words) + 1), target_term)
            src_words[0] = _capitalize(src_words[0], rng, workload.non_ascii, True)
            tgt_words[0] = _capitalize(tgt_words[0], rng, workload.non_ascii, False)
            if len(src_words) > 8:
                comma = 3 + rng.below(len(src_words) - 6)
                src_words[comma] += ","
                tgt_words[min(comma, len(tgt_words) - 2)] += ","
            source_text = " ".join(src_words) + "."
            target_text = " ".join(tgt_words) + "."
            source_lines.append(source_text)
            target_lines.append(target_text)
            info.kept.append((line_index, source_text, target_text))
        (inputs / f"{code}.{src_lang}").write_text("\n".join(source_lines) + "\n", encoding="utf-8")
        (inputs / f"{code}.{tgt_lang}").write_text("\n".join(target_lines) + "\n", encoding="utf-8")
        pairs_info[code] = info

    config_seed = seed % (2**31)
    planted_bad_spans = 0
    test_prompts = []
    for info in pairs_info.values():
        test_segments = _test_segments(info, workload.split, config_seed)
        planted_bad_spans += _write_scoring_extras(rng, inputs, info.code, test_segments)
        test_prompts += [f"{info.target_name}\t{source}" for _, source, _ in test_segments]
    _write_config(workload, config_seed, directory)
    # Exactly this share of the test prompts fails its first attempt, so the
    # retried requests sit at the same latency percentiles for every seed.
    failing = round(workload.fail_share * len(test_prompts))
    endpoint = {
        "references": {
            f"{info.target_name}\t{source}": target
            for info in pairs_info.values()
            for _, source, target in info.kept
        },
        "fail_first": [test_prompts[i] for i in seeded_permutation(len(test_prompts), rng.below(2**63))[:failing]],
    }
    (directory / "endpoint.json").write_text(json.dumps(endpoint, ensure_ascii=False), encoding="utf-8")
    return {"planted_bad_spans": planted_bad_spans, "inputs_sha256": inputs_sha256(directory)}


def _test_segments(info: PairInputs, split: tuple[int, int, int], config_seed: int):
    """The segments the program will put in the test split, by its
    documented rule: a seeded permutation of the kept segments, then slicing."""
    order = seeded_permutation(len(info.kept), config_seed)
    tuning, validation, test = split
    return [info.kept[i] for i in order[tuning + validation : tuning + validation + test]]


_SEVERITIES = ["MIN", "MAJ", "CRIT", "minor", "Major", "critical"]


def _write_scoring_extras(rng: _Rng, inputs: Path, code: str, test_segments) -> int:
    """MQM spans (with a share of invalid rows) and external per-segment
    scores for the test segments. Returns the number of invalid span rows."""
    spans, scores, bad = [], [], 0
    for position, (line_index, _, _) in enumerate(test_segments):
        segment_id = str(line_index)
        scores.append({"segment_id": segment_id, "name": "comet", "value": round(0.5 + 0.4 * rng.unit(), 4)})
        for _ in range(rng.below(4)):
            spans.append(
                {
                    "segment_id": segment_id,
                    "span": rng.choice(["dosis", "term", "tablet", "solution"]),
                    "severity": rng.choice(_SEVERITIES),
                    "confidence": round(rng.unit(), 3),
                }
            )
        if position % 10 == 3:
            invalid = [
                {"severity": "WEIRD", "confidence": 0.9},
                {"severity": "MAJ", "confidence": 1.5},
                {"severity": "MIN", "confidence": "high"},
                {"severity": "CRIT", "confidence": 0.8, "start": 4},
            ][bad % 4]
            spans.append({"segment_id": segment_id, "span": "x", **invalid})
            bad += 1
    for name, records in ((f"{code}.spans.jsonl", spans), (f"{code}.comet.jsonl", scores)):
        (inputs / name).write_text(
            "".join(json.dumps(r, ensure_ascii=False, sort_keys=True) + "\n" for r in records),
            encoding="utf-8",
        )
    return bad


def _write_config(workload: Workload, config_seed: int, directory: Path) -> None:
    tuning, validation, test = workload.split
    lines = [
        "[project]",
        "output_dir = out",
        f"seed = {config_seed}",
        "",
        "[split]",
        f"tuning = {tuning}",
        f"validation = {validation}",
        f"test = {test}",
        "",
        "[terminology]",
        "min_stars = 3",
        "",
        "[template]",
        "family = chatml",
        "",
        "[inference]",
        f"endpoint_url = http://127.0.0.1:{STUB_PORT}/completions",
        "model_name = bench-model",
        "top_p = 0.9",
        "max_new_tokens = 256",
        "request_timeout = 30",
        f"max_concurrent_requests = {CONCURRENCY}",
        "max_retries = 2",
        "retry_backoff = 0.02",
        "",
        "[scoring]",
        "counting_scheme = whitespace",
        f"confidence_threshold = {CONFIDENCE_THRESHOLD}",
        "mqm_tokens = raw",
    ]
    for code in workload.pairs:
        src_lang, tgt_lang = code.split("-")
        lines += [
            "",
            f"[pair.{code}]",
            f"source = in/{code}.{src_lang}",
            f"target = in/{code}.{tgt_lang}",
            f"glossary = in/{code}.tsv",
            f"annotations = in/{code}.spans.jsonl",
            f"external_scores = in/{code}.comet.jsonl",
        ]
    (directory / "exp.ini").write_text("\n".join(lines) + "\n", encoding="utf-8")


def inputs_sha256(directory: Path) -> str:
    """SHA-256 over the config, the endpoint's data and every input file."""
    digest = hashlib.sha256()
    paths = [directory / "exp.ini", directory / "endpoint.json", *sorted((directory / "in").iterdir())]
    for path in paths:
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()
