"""Cleaning of raw model outputs and token accounting.

Cleaning is end-of-sequence truncation only: output is cut at the first
occurrence of the template family's marker (over-generation past that point
— assistant chatter, repeated translations — is dropped). Nothing else is
stripped; anything more would change what is being evaluated.

Token counting schemes:

* ``whitespace`` — maximal non-space runs; self-contained and fast, but not
  comparable to model-tokenizer counts.
* ``external`` — counts precomputed elsewhere (e.g. by the model's own
  tokenizer) and supplied as a JSONL file ``{segment_id, token_count}``.

The scheme is recorded on every output so totals are never mixed."""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Sequence, Union

from . import _jsonl
from .errors import MissingCountError, UsageError
from .promptgen import TemplateSpec
from .runner import GenerationRecord

log = logging.getLogger(__name__)

SCHEME_WHITESPACE = "whitespace"
SCHEME_EXTERNAL = "external"
SCHEME_NO_TRUNCATION = "no-truncation"


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


def truncate_at_eos(raw: str, marker: str) -> tuple[str, bool]:
    """Cut at the first occurrence of the marker and trim trailing
    whitespace; (trimmed text, False) when the marker never occurs."""
    if not marker:
        raise UsageError("eos marker must be non-empty")
    position = raw.find(marker)
    if position == -1:
        return raw.rstrip(), False
    return raw[:position].rstrip(), True


def count_tokens(text: str) -> int:
    """Whitespace-scheme count: number of maximal non-space runs."""
    return len(text.split())


class ExternalCounts:
    """Precomputed per-segment token counts, keyed by segment id."""

    def __init__(self, counts: dict[str, int]):
        self._counts = dict(counts)

    @classmethod
    def load(cls, path) -> "ExternalCounts":
        counts: dict[str, int] = {}

        def build(record) -> None:
            segment_id = _jsonl.field(record, "segment_id")
            token_count = _jsonl.field(record, "token_count", int)
            if token_count < 0:
                raise ValueError(f"token_count must be nonnegative, got {token_count}")
            if segment_id in counts:
                raise ValueError(f"duplicate segment_id {segment_id!r}")
            counts[segment_id] = token_count

        _jsonl.read_records(path, build)
        return cls(counts)

    def count(self, segment_id: str) -> int:
        try:
            return self._counts[segment_id]
        except KeyError:
            raise MissingCountError(f"no external token count for segment {segment_id!r}") from None

    def __len__(self) -> int:
        return self._counts.__len__()


def postprocess_batch(
    records: Sequence[GenerationRecord],
    template: TemplateSpec,
    scheme: Union[str, ExternalCounts] = SCHEME_WHITESPACE,
) -> tuple[list[ModelOutput], dict]:
    """Clean a batch and aggregate token totals.

    ``scheme`` is "whitespace", "no-truncation" (skip marker truncation for
    families without a marker; whitespace counting), or an ExternalCounts
    instance (marker truncation; both counts looked up per segment, since
    external files carry one count per segment). Error records pass through
    with empty text and zero counts — they stay visible downstream rather
    than vanishing from the denominator silently.
    """
    external = scheme if isinstance(scheme, ExternalCounts) else None
    if external is None and scheme not in (SCHEME_WHITESPACE, SCHEME_NO_TRUNCATION):
        raise UsageError(
            f"scheme must be {SCHEME_WHITESPACE!r}, {SCHEME_NO_TRUNCATION!r}, "
            f"or an ExternalCounts instance, got {scheme!r}"
        )
    truncate = external is not None or scheme == SCHEME_WHITESPACE
    if truncate and template.eos_marker is None:
        raise UsageError(
            f"template family {template.family_id!r} has no eos marker; "
            f"use scheme {SCHEME_NO_TRUNCATION!r}"
        )
    scheme_name = SCHEME_EXTERNAL if external is not None else SCHEME_WHITESPACE

    outputs = []
    for record in records:
        if truncate:
            cleaned, truncated = truncate_at_eos(record.raw_output, template.eos_marker)
        else:
            cleaned, truncated = record.raw_output.rstrip(), False
        if external is not None:
            raw_count = cleaned_count = external.count(record.segment_id)
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

def write_outputs(path, outputs: Sequence[ModelOutput], manifest: dict | None = None) -> None:
    _jsonl.write_jsonl(
        path,
        (
            {
                "segment_id": o.segment_id,
                "raw": o.raw_text,
                "cleaned": o.cleaned_text,
                "truncated": o.truncated,
                "tokens_raw": o.token_count_raw,
                "tokens_cleaned": o.token_count_cleaned,
                "scheme": o.counting_scheme,
            }
            for o in outputs
        ),
        manifest=manifest,
    )


def read_outputs(path) -> list[ModelOutput]:
    return _jsonl.read_records(
        path,
        lambda record: ModelOutput(
            segment_id=_jsonl.field(record, "segment_id"),
            raw_text=_jsonl.field(record, "raw"),
            cleaned_text=_jsonl.field(record, "cleaned"),
            truncated=_jsonl.field(record, "truncated", bool),
            token_count_raw=_jsonl.field(record, "tokens_raw", int),
            token_count_cleaned=_jsonl.field(record, "tokens_cleaned", int),
            counting_scheme=_jsonl.field(record, "scheme"),
        ),
    )
