"""Rendering of training examples and zero-shot test prompts.

Templates are plain strings with ``{placeholder}`` slots; substitution is a
single pass, so segment text containing placeholder syntax is emitted
verbatim and never re-expanded. The newline convention is LF only — the
templates themselves define all blank-line placement.

Each template family carries a ``target_region``: the exact substring of
both templates that holds the target side (the target-segment slot plus any
role markers that close it). Test-mode prompts are the train templates with
that region deleted, which makes the train/test round-trip exact by
construction: stripping the rendered target region from a train example
reproduces the test prompt character-for-character.
"""

from __future__ import annotations

import re
from typing import Sequence

from . import _jsonl
from .corpus import LanguagePair, ParallelSegment, read_text_lines
from .errors import FormatError, TemplateError, UsageError
from .terminology import TermMatcher, TermPair

PLACEHOLDERS = frozenset(
    {
        "glossary_type",
        "glossary_block",
        "source_id",
        "target_id",
        "source_segment",
        "target_segment",
    }
)
_GLOSSARY_PLACEHOLDERS = frozenset({"glossary_type", "glossary_block"})

_PLACEHOLDER_RE = re.compile(r"\{([a-z_]+)\}")

MODES = ("train", "test")


class TemplateSpec(_jsonl.Frozen):
    """One model family's train templates plus its test-mode elision rule."""

    __slots__ = ("family_id", "with_terms_template", "without_terms_template", "target_region", "eos_marker")

    def __init__(
        self,
        family_id: str,
        with_terms_template: str,
        without_terms_template: str,
        target_region: str,
        eos_marker: str | None,
    ):
        if not family_id:
            raise TemplateError("family_id must be non-empty")
        if eos_marker is not None and not eos_marker:
            raise TemplateError("eos_marker must be non-empty or None")
        if not target_region or "{target_segment}" not in target_region:
            raise TemplateError("target_region must contain {target_segment}")
        for label, template in (
            ("with_terms_template", with_terms_template),
            ("without_terms_template", without_terms_template),
        ):
            for name in _PLACEHOLDER_RE.findall(template):
                if name not in PLACEHOLDERS:
                    raise TemplateError(f"{label} uses unknown placeholder {{{name}}}")
            if template.count(target_region) != 1:
                raise TemplateError(f"{label} must contain target_region exactly once")
            # The elided template must not leak the target into test prompts.
            if "{target_segment}" in template.replace(target_region, "", 1):
                raise TemplateError(
                    f"{label} has {{target_segment}} outside the target_region"
                )
        for name in _PLACEHOLDER_RE.findall(without_terms_template):
            if name in _GLOSSARY_PLACEHOLDERS:
                raise TemplateError(
                    f"without_terms_template may not use {{{name}}}"
                )
        self._fill(locals())


# Built-in families. The glossary_type slot receives the full header
# ("Glossary:" or "Glossaries:", colon included).
_FLAN = TemplateSpec(
    family_id="flan",
    with_terms_template=(
        "{glossary_type}\n"
        "{glossary_block}\n"
        "Translate the source text from {source_id} to {target_id} "
        "following the provided translation glossaries.\n"
        "{source_id}: {source_segment}\n"
        "{target_id}: {target_segment}"
    ),
    without_terms_template=(
        "Translate the source text from {source_id} to {target_id}.\n"
        "{source_id}: {source_segment}\n"
        "{target_id}: {target_segment}"
    ),
    target_region=" {target_segment}",
    eos_marker=None,
)

_LLAMA3 = TemplateSpec(
    family_id="llama3",
    with_terms_template=(
        "<|begin_of_text|><|start_header_id|>system<|end_header_id|>\n"
        "You are a helpful translation assistant.<|eot_id|>"
        "<|start_header_id|>user<|end_header_id|>\n"
        "{glossary_type}\n"
        "{glossary_block}\n"
        "Translate the source text from {source_id} to {target_id} "
        "following the provided translation glossaries.\n"
        "{source_id}: {source_segment}\n"
        "{target_id}:<|eot_id|>\n"
        "<|start_header_id|>assistant<|end_header_id|>\n"
        "{target_segment}<|eot_id|>"
    ),
    without_terms_template=(
        "<|begin_of_text|><|start_header_id|>system<|end_header_id|>\n"
        "You are a helpful translation assistant.<|eot_id|>"
        "<|start_header_id|>user<|end_header_id|>\n"
        "Translate the source text from {source_id} to {target_id}.\n"
        "{source_id}: {source_segment}\n"
        "{target_id}:<|eot_id|>\n"
        "<|start_header_id|>assistant<|end_header_id|>\n"
        "{target_segment}<|eot_id|>"
    ),
    target_region="{target_segment}<|eot_id|>",
    eos_marker="<|eot_id|>",
)

_CHATML = TemplateSpec(
    family_id="chatml",
    with_terms_template=(
        "<|im_start|>user\n"
        "{glossary_type}\n"
        "{glossary_block}\n"
        "Translate the source text from {source_id} to {target_id} "
        "following the provided translation glossaries.\n"
        "{source_id}: {source_segment}\n"
        "{target_id}:<|im_end|>\n"
        "<|im_start|>assistant\n"
        "{target_segment}<|im_end|>"
    ),
    without_terms_template=(
        "<|im_start|>user\n"
        "Translate the source text from {source_id} to {target_id}.\n"
        "{source_id}: {source_segment}\n"
        "{target_id}:<|im_end|>\n"
        "<|im_start|>assistant\n"
        "{target_segment}<|im_end|>"
    ),
    target_region="{target_segment}<|im_end|>",
    eos_marker="<|im_end|>",
)

FAMILIES = {spec.family_id: spec for spec in (_FLAN, _LLAMA3, _CHATML)}


def builtin_template(family_id: str) -> TemplateSpec:
    try:
        return FAMILIES[family_id]
    except KeyError:
        known = ", ".join(sorted(FAMILIES))
        raise UsageError(f"unknown template family {family_id!r} (built-in: {known})") from None


class InstructionExample(_jsonl.Frozen):
    """A rendered prompt plus the term pairs and template that produced it.

    ``target_text`` carries the target segment separately (None in test
    mode) so encoder-decoder tuning toolchains can take the prompt and the
    target as distinct inputs.
    """

    __slots__ = ("segment_id", "pair", "mode", "term_pairs", "rendered_text", "family_id", "target_text")

    def __init__(
        self,
        segment_id: str,
        pair: LanguagePair,
        mode: str,
        term_pairs: tuple[TermPair, ...],
        rendered_text: str,
        family_id: str,
        target_text: str | None = None,
    ):
        if mode not in MODES:
            raise UsageError(f"mode must be one of {MODES}, got {mode!r}")
        if mode == "train" and target_text is None:
            raise UsageError("train examples must carry target_text")
        if mode == "test" and target_text is not None:
            raise UsageError("test examples must not carry target_text")
        self._fill(locals())


def render_glossary_block(pairs: Sequence[TermPair]) -> tuple[str, str]:
    """Format term pairs as the prompt's glossary section.

    Returns ("Glossary:" for one pair, "Glossaries:" for several) and one
    line per pair, `"src" -> "tgt"` with straight double quotes, in the
    caller's (i.e. the matcher's) order. ``pairs`` is non-empty, and its
    pairs are distinct because a glossary's are."""
    header = "Glossary:" if len(pairs) == 1 else "Glossaries:"
    block = "\n".join(f'"{p.source_term}" -> "{p.target_term}"' for p in pairs)
    return header, block


def _substitute(template: str, values: dict[str, str]) -> str:
    def replace(match: re.Match) -> str:
        name = match.group(1)
        if name not in values:
            raise TemplateError(f"unresolved placeholder {{{name}}}")
        return values[name]

    return _PLACEHOLDER_RE.sub(replace, template)


def render_example(
    segment: ParallelSegment,
    pairs: Sequence[TermPair],
    template: TemplateSpec,
    mode: str,
) -> InstructionExample:
    """Render one segment. An empty pair list routes to the without-terms
    template; test mode deletes the template's target region so the prompt
    ends at the target-language cue."""
    values = {
        "source_id": segment.pair.source_name,
        "target_id": segment.pair.target_name,
        "source_segment": segment.source_text,
    }
    if pairs:
        header, block = render_glossary_block(pairs)
        template_text = template.with_terms_template
        values["glossary_type"] = header
        values["glossary_block"] = block
    else:
        template_text = template.without_terms_template
    if mode == "train":
        values["target_segment"] = segment.target_text
    else:
        template_text = template_text.replace(template.target_region, "", 1)
    return InstructionExample(
        segment_id=segment.id,
        pair=segment.pair,
        mode=mode,
        term_pairs=tuple(pairs),
        rendered_text=_substitute(template_text, values),
        family_id=template.family_id,
        target_text=segment.target_text if mode == "train" else None,
    )


def build_dataset(
    segments: Sequence[ParallelSegment],
    matcher: TermMatcher,
    template: TemplateSpec,
    mode: str,
) -> list[InstructionExample]:
    """One example per segment, in input order."""
    return [
        render_example(segment, matcher.find_candidates(segment), template, mode)
        for segment in segments
    ]


def dataset_stats(examples: Sequence[InstructionExample]) -> dict[str, int]:
    return {
        "examples": len(examples),
        "with_terms": sum(1 for e in examples if e.term_pairs),
        "total_pairs": sum(len(e.term_pairs) for e in examples),
    }


# ---------------------------------------------------------------------------
# Template files
#
# Format: a header of `key: value` lines (family_id, eos_marker,
# target_region), then one `--- with_terms ---` and one
# `--- without_terms ---` marker line each followed by the template body.
# Bodies run to the next marker (or EOF); the line break before a marker is
# a separator, not body text.

_SECTION_RE = re.compile(r"^--- (\w+) ---$")
_HEADER_KEYS = {"family_id", "eos_marker", "target_region"}


def load_template_file(path) -> TemplateSpec:
    lines = read_text_lines(path)
    header: dict[str, str] = {}
    sections: dict[str, list[str]] = {}
    current: list[str] | None = None
    for line_number, line in enumerate(lines, start=1):
        marker = _SECTION_RE.match(line)
        if marker:
            name = marker.group(1)
            if name in sections:
                raise FormatError(f"duplicate section {name!r}", path=path, line=line_number)
            sections[name] = []
            current = sections[name]
            continue
        if current is not None:
            current.append(line)
            continue
        if not line.strip():
            continue
        key, sep, value = line.partition(":")
        key = key.strip()
        if not sep or key not in _HEADER_KEYS:
            raise FormatError(
                f"expected `key: value` header with key in {sorted(_HEADER_KEYS)}",
                path=path,
                line=line_number,
            )
        header[key] = value.strip()
    missing = {"with_terms", "without_terms"} - set(sections)
    if missing:
        raise FormatError(f"missing sections: {sorted(missing)}", path=path)
    unknown = set(sections) - {"with_terms", "without_terms"}
    if unknown:
        raise FormatError(f"unknown sections: {sorted(unknown)}", path=path)
    if "family_id" not in header:
        raise FormatError("header must declare family_id", path=path)
    if "target_region" not in header:
        raise FormatError("header must declare target_region", path=path)
    try:
        return TemplateSpec(
            family_id=header["family_id"],
            with_terms_template="\n".join(sections["with_terms"]),
            without_terms_template="\n".join(sections["without_terms"]),
            target_region=header["target_region"],
            eos_marker=header.get("eos_marker") or None,
        )
    except TemplateError as exc:
        raise FormatError(str(exc), path=path) from exc


# ---------------------------------------------------------------------------
# Dataset serialization

def write_dataset(path, examples: Sequence[InstructionExample], manifest: dict | None = None) -> None:
    """JSONL records {segment_id, mode, family, terms, text, target (train only)}."""

    def records():
        for example in examples:
            record = {
                "segment_id": example.segment_id,
                "mode": example.mode,
                "family": example.family_id,
                "terms": [
                    {"src": p.source_term, "tgt": p.target_term} for p in example.term_pairs
                ],
                "text": example.rendered_text,
            }
            if example.mode == "train":
                record["target"] = example.target_text
            yield record

    _jsonl.write_jsonl(path, records(), manifest=manifest)


def read_dataset(path, pair: LanguagePair) -> list[InstructionExample]:
    return _jsonl.read_records(
        path,
        lambda record: InstructionExample(
            segment_id=_jsonl.field(record, "segment_id"),
            pair=pair,
            mode=_jsonl.field(record, "mode"),
            term_pairs=tuple(TermPair.from_record(t) for t in _jsonl.field(record, "terms", list)),
            rendered_text=_jsonl.field(record, "text"),
            family_id=_jsonl.field(record, "family"),
            target_text=_jsonl.field(record, "target", default=None),
        ),
        "segment_id",
    )


def write_dataset_rawtext(path, examples: Sequence[InstructionExample]) -> None:
    """Rendered texts only, blocks separated by a blank line, for tuning
    tools that consume plain text."""
    content = "\n\n".join(example.rendered_text for example in examples)
    with _jsonl.open_atomic(path) as handle:
        handle.write(content + "\n" if content else "")
