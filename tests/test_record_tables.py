"""The key tables of the four flat artifact record types: each field in
``__slots__`` is declared once, and each type reads back what it writes (the
output round trip is in test_postprocess.py)."""

import pytest

from glossmt import _jsonl, metrics, mqm, postprocess, runner
from glossmt.metrics import ScoreReport
from glossmt.mqm import SeverityCounts
from glossmt.postprocess import ModelOutput
from glossmt.runner import GenerationRecord

TABLES = [
    (GenerationRecord, runner._RECORD_KEYS, {"duration_s"}),
    (ModelOutput, postprocess._OUTPUT_KEYS, set()),
    (ScoreReport, metrics._REPORT_KEYS, set()),
    (SeverityCounts, mqm._COUNTS_KEYS, set()),
]


@pytest.mark.parametrize("cls,keys,left_out", TABLES, ids=[t[0].__name__ for t in TABLES])
def test_every_field_is_in_its_table_once(cls, keys, left_out):
    attributes = [spec[0] for spec in keys.values()]
    assert len(attributes) == len(set(attributes))
    assert set(attributes) == set(cls.__slots__) - left_out


def generation(error=None, duration_s=None):
    return GenerationRecord(
        segment_id="7", prompt_text="one dose", raw_output="una dosis", model_name="m",
        config={"model": "m", "top_p": 0.9}, attempts=2, error=error, duration_s=duration_s,
    )


@pytest.mark.parametrize("error", [None, "HTTP 500 after 2 attempts"])
def test_generation_record_round_trips_without_timing(tmp_path, error):
    path = tmp_path / "generations.jsonl"
    runner.write_records(path, [generation(error, duration_s=0.25)], manifest={"seed": 1})
    assert runner.read_records(path) == [generation(error)]


# A report as `score` builds it when no external scores are configured.
REPORT = ScoreReport(
    pair="en-es", system="base", bleu=33.3, chrf=55.5, term_accuracy=0.75, term_correct=3, term_total=4
)


def test_score_report_round_trips_through_a_file(tmp_path):
    path = tmp_path / "score.json"
    _jsonl.write_json(path, {"report": REPORT.to_dict()})
    assert _jsonl.read_json(path, "score file", lambda data: ScoreReport.from_dict(data["report"])) == REPORT


def test_score_file_without_external_scores_reads_as_none():
    record = REPORT.to_dict()
    del record["external_scores"]
    assert ScoreReport.from_dict(record) == REPORT


def test_severity_counts_round_trip_through_a_file(tmp_path):
    counts = SeverityCounts(minor=5, major=3, critical=1, token_total=999, counting_scheme="whitespace:raw")
    path = tmp_path / "score.json"
    _jsonl.write_json(path, {"mqm": {"counts": counts.to_dict()}})
    assert _jsonl.read_json(path, "score file", lambda data: SeverityCounts.from_dict(data["mqm"]["counts"])) == counts
