"""Cleaning of raw model outputs and token accounting.

Cleaning is end-of-sequence truncation only: when the template family has a
marker, output is cut at its first occurrence (over-generation past that
point — assistant chatter, repeated translations — is dropped); a family
without one keeps the whole reply. Trailing whitespace is trimmed either
way. Nothing else is stripped; anything more would change what is being
evaluated.

Token counting schemes, which decide the counts and never the cleaning:

* ``whitespace`` — maximal non-space runs; self-contained and fast, but not
  comparable to model-tokenizer counts.
* ``external`` — counts precomputed elsewhere (e.g. by the model's own
  tokenizer) and supplied as a JSONL file ``{segment_id, token_count}``.

The scheme is recorded on every output, and an outputs file holds one, so
the MQM token total that ``score`` sums from it never mixes schemes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

from . import _jsonl
from .config import SCHEME_EXTERNAL, SCHEME_WHITESPACE
from .errors import MissingCountError, UsageError

if TYPE_CHECKING:
    from .promptgen import TemplateSpec
    from .runner import GenerationRecord


@dataclass(frozen=True)
class ModelOutput:
    segment_id: str
    raw_text: str
    cleaned_text: str
    truncated: bool
    token_count_raw: int
    token_count_cleaned: int
    counting_scheme: str

    def __post_init__(self):
        if not self.raw_text.startswith(self.cleaned_text):
            raise UsageError(
                f"segment {self.segment_id!r}: cleaned_text is not a prefix of raw_text"
            )
        if self.token_count_raw < 0 or self.token_count_cleaned < 0:
            raise UsageError("token counts must be nonnegative")
        if not self.counting_scheme:
            raise UsageError("counting_scheme must be recorded")


def truncate_at_eos(raw: str, marker: str | None) -> tuple[str, bool]:
    """Cut at the first occurrence of the marker and trim trailing
    whitespace; (trimmed text, False) when there is no marker or it never
    occurs."""
    if marker is None:
        return raw.rstrip(), False
    if not marker:
        raise UsageError("eos marker must be non-empty")
    position = raw.find(marker)
    if position == -1:
        return raw.rstrip(), False
    return raw[:position].rstrip(), True


def count_tokens(text: str) -> int:
    """Whitespace-scheme count: number of maximal non-space runs."""
    return len(text.split())


class ExternalCounts(dict):
    """Precomputed per-segment token counts, keyed by segment id."""

    @classmethod
    def load(cls, path) -> "ExternalCounts":
        counts = cls()
        seen: set[str] = set()

        def build(record) -> None:
            segment_id = _jsonl.unique_field(record, "segment_id", seen)
            token_count = _jsonl.field(record, "token_count", int)
            if token_count < 0:
                raise ValueError(f"token_count must be nonnegative, got {token_count}")
            counts[segment_id] = token_count

        _jsonl.read_records(path, build)
        return counts

    def count(self, segment_id: str) -> int:
        try:
            return self[segment_id]
        except KeyError:
            raise MissingCountError(f"no external token count for segment {segment_id!r}") from None


def postprocess_batch(
    records: Sequence[GenerationRecord],
    template: TemplateSpec,
    counts: ExternalCounts | None = None,
) -> tuple[list[ModelOutput], dict]:
    """Clean a batch and aggregate token totals.

    Each output is cut at the template's eos marker, if it has one. Tokens
    are counted on whitespace, or, given ``counts``, both counts are looked
    up per segment (external files carry one count per segment). Error
    records pass through with empty text and zero counts — they stay visible
    downstream rather than vanishing from the denominator silently.
    """
    scheme_name = SCHEME_EXTERNAL if counts is not None else SCHEME_WHITESPACE
    outputs = []
    for record in records:
        cleaned, truncated = truncate_at_eos(record.raw_output, template.eos_marker)
        if counts is not None:
            raw_count = cleaned_count = counts.count(record.segment_id)
        else:
            raw_count = count_tokens(record.raw_output)
            cleaned_count = count_tokens(cleaned)
        outputs.append(
            ModelOutput(
                segment_id=record.segment_id,
                raw_text=record.raw_output,
                cleaned_text=cleaned,
                truncated=truncated,
                token_count_raw=raw_count,
                token_count_cleaned=cleaned_count,
                counting_scheme=scheme_name,
            )
        )
    totals = {
        "outputs": len(outputs),
        "token_total_raw": sum(o.token_count_raw for o in outputs),
        "token_total_cleaned": sum(o.token_count_cleaned for o in outputs),
        "truncated_count": sum(1 for o in outputs if o.truncated),
        "counting_scheme": scheme_name,
    }
    return outputs, totals


# ---------------------------------------------------------------------------
# Serialization

# Artifact key -> (attribute, kind).
_OUTPUT_KEYS = {
    "segment_id": ("segment_id", str), "raw": ("raw_text", str), "cleaned": ("cleaned_text", str),
    "truncated": ("truncated", bool), "tokens_raw": ("token_count_raw", int),
    "tokens_cleaned": ("token_count_cleaned", int), "scheme": ("counting_scheme", str),
}


def write_outputs(path, outputs: Sequence[ModelOutput], manifest: dict | None = None) -> None:
    _jsonl.write_jsonl(path, (_jsonl.to_record(o, _OUTPUT_KEYS) for o in outputs), manifest=manifest)


def read_outputs(path) -> list[ModelOutput]:
    seen: set[str] = set()
    scheme = None

    def build(record) -> ModelOutput:
        nonlocal scheme
        _jsonl.unique_field(record, "segment_id", seen)
        output = ModelOutput(**_jsonl.from_record(record, _OUTPUT_KEYS))
        scheme = scheme or output.counting_scheme
        if output.counting_scheme != scheme:
            raise ValueError(f"counting scheme {output.counting_scheme!r} after {scheme!r}; a file holds one")
        return output

    return _jsonl.read_records(path, build)
