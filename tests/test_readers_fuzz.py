"""Every artifact reader, fed one record over its own field names with
arbitrary JSON values, returns a value or raises a DataError (FormatError
for a malformed record), never any other exception."""

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from glossmt import _jsonl
from glossmt.corpus import LanguagePair, read_segments
from glossmt.errors import DataError, FormatError
from glossmt.metrics import load_external_scores
from glossmt.mqm import load_annotations
from glossmt.postprocess import ExternalCounts, read_outputs
from glossmt.promptgen import read_dataset
from glossmt.runner import read_records
from glossmt.terminology import read_candidates

EN_ES = LanguagePair.from_code("en-es")

# reader name -> (call, a record it reads)
READERS = {
    "read_segments": (
        lambda path: read_segments(path, EN_ES, split="test"),
        {"id": "0", "pair": "en-es", "split": "test", "source": "one dose", "target": "una dosis"},
    ),
    "read_candidates": (read_candidates, {"segment_id": "0", "pairs": [{"src": "dose", "tgt": "dosis"}]}),
    "read_dataset": (
        lambda path: read_dataset(path, EN_ES),
        {"segment_id": "0", "mode": "train", "family": "chatml", "terms": [{"src": "dose", "tgt": "dosis"}],
         "text": "one dose = una dosis", "target": "una dosis"},
    ),
    "read_records": (
        read_records,
        {"segment_id": "0", "prompt": "one dose", "output": "una dosis", "model": "m",
         "config": {"model": "m"}, "attempts": 1, "error": None},
    ),
    "read_outputs": (
        read_outputs,
        {"segment_id": "0", "raw": "una dosis<|im_end|>", "cleaned": "una dosis", "truncated": True,
         "tokens_raw": 2, "tokens_cleaned": 2, "scheme": "whitespace"},
    ),
    "ExternalCounts.load": (ExternalCounts.load, {"segment_id": "0", "token_count": 3}),
    "load_external_scores": (load_external_scores, {"segment_id": "0", "name": "comet", "value": 0.8}),
    "load_annotations": (
        lambda path: load_annotations(path, outputs_by_id={"0": "luz amarilla"}),
        {"segment_id": "0", "span": "luz", "severity": "MIN", "confidence": 0.7, "start": 0, "end": 3},
    ),
}

SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=8)
    | st.sampled_from(["0", "en-es", "test", "train", "chatml", "MIN", "crit", "luz", ""])
)
DROP = object()


def records(valid):
    """The valid record with any of its fields replaced by arbitrary JSON
    (two levels deep, enough for the {src, tgt} term pairs) or dropped."""
    fields = st.sampled_from(sorted(valid))
    objects = st.dictionaries(fields | st.sampled_from(["src", "tgt"]), SCALARS, max_size=4)
    values = SCALARS | objects | st.lists(SCALARS | objects, max_size=3)
    changes = st.dictionaries(fields, values | st.just(DROP))
    return changes.map(
        lambda change: {k: v for k, v in {**valid, **change}.items() if v is not DROP}
    )


RECORDS = {name: records(valid) for name, (_, valid) in READERS.items()}


# The readers whose records each name a segment that no other record names.
KEYED = sorted(set(READERS) - {"load_external_scores", "load_annotations"})


def write_record(path, *records):
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in records), encoding="utf-8")


@pytest.mark.parametrize("name", sorted(READERS))
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_reader_returns_value_or_data_error(tmp_path, name, data):
    path = tmp_path / "artifact.jsonl"
    write_record(path, data.draw(RECORDS[name]))
    try:
        READERS[name][0](path)
    except DataError:
        pass


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(content=st.binary())
def test_iter_jsonl_on_arbitrary_bytes(tmp_path, content):
    path = tmp_path / "artifact.jsonl"
    path.write_bytes(content)
    try:
        rows = list(_jsonl.iter_jsonl(path))
    except FormatError:
        return
    assert all(isinstance(record, dict) for _, record in rows)


# Malformed records, each a FormatError on its line: a wrong type, an empty
# id, a value too large for a float.
MALFORMED = [
    ("read_segments", {"id": "0", "pair": "en-es", "split": "test", "source": 5, "target": "t"}),
    ("read_segments", {"id": "", "pair": "en-es", "split": "test", "source": "s", "target": "t"}),
    ("read_outputs", {"segment_id": "0", "raw": "a", "cleaned": "a", "truncated": False,
                      "tokens_raw": None, "tokens_cleaned": 1, "scheme": "whitespace"}),
    ("read_outputs", {"segment_id": "0", "raw": 1, "cleaned": "a", "truncated": False,
                      "tokens_raw": 1, "tokens_cleaned": 1, "scheme": "whitespace"}),
    ("ExternalCounts.load", {"segment_id": ["0"], "token_count": 3}),
    ("read_records", {"segment_id": "0", "prompt": "p", "output": "o", "model": "m",
                      "config": [], "attempts": 1, "error": None}),
    ("load_external_scores", {"segment_id": "0", "name": "comet", "value": 10**400}),
]


@pytest.mark.parametrize("name, record", MALFORMED)
def test_malformed_record_is_format_error_with_line(tmp_path, name, record):
    path = tmp_path / "artifact.jsonl"
    write_record(path, record)
    with pytest.raises(FormatError) as exc:
        READERS[name][0](path)
    assert exc.value.line == 1


@pytest.mark.parametrize("name", KEYED)
def test_repeated_record_is_format_error_on_its_line(tmp_path, name):
    read, valid = READERS[name]
    path = tmp_path / "artifact.jsonl"
    write_record(path, valid, valid)
    with pytest.raises(FormatError, match="bad record: duplicate ") as exc:
        read(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("name", sorted(READERS))
def test_manifest_after_line_1_is_format_error_on_its_line(tmp_path, name):
    read, valid = READERS[name]
    path = tmp_path / "artifact.jsonl"
    write_record(path, valid, {"record_type": "manifest", "config_hash": "0" * 64, "seed": 1})
    with pytest.raises(FormatError) as exc:
        read(path)
    assert exc.value.line == 2


@pytest.mark.parametrize("name", sorted(READERS))
def test_valid_record_reads(tmp_path, name):
    read, valid = READERS[name]
    path = tmp_path / "artifact.jsonl"
    write_record(path, valid)
    assert read(path)


def test_non_string_annotation_ids_are_rejected_not_loaded(tmp_path):
    path = tmp_path / "spans.jsonl"
    path.write_text(
        '{"segment_id": 4, "span": "luz", "severity": "MIN", "confidence": 0.7}\n'
        '{"segment_id": "4", "span": ["luz"], "severity": "MIN", "confidence": 0.7}\n'
        '{"segment_id": "4", "span": "luz", "severity": "MIN", "confidence": 0.7, "start": 0.5, "end": 2}\n'
        '{"segment_id": "4", "span": "luz", "severity": "MIN", "confidence": 0.7}\n',
        encoding="utf-8",
    )
    assert [span.segment_id for span in load_annotations(path)] == ["4"]
