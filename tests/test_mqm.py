import logging

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glossmt.errors import UsageError
from glossmt.mqm import (
    SEVERITY_WEIGHTS,
    ErrorSpan,
    SeverityCounts,
    filter_by_confidence,
    load_annotations,
    mqm_score,
    normalize_severity,
    tally,
)
from oracles import mqm_oracle, tally_oracle

# Frozen corpus-level rows: (minor, major, critical, token_total) -> score.
# These came from a published quality-evaluation table and are the
# compatibility anchor for the scoring formula.
PUBLISHED_ROWS = [
    (145, 1277, 1240, 29569, 35.98),
    (359, 1105, 450, 25225, 58.83),
    (592, 241, 15, 11034, 82.35),
    (583, 149, 13, 10906, 86.63),
]


def span(sid="0", text="x", severity="MIN", confidence=0.9, start=None, end=None):
    return ErrorSpan(
        segment_id=sid,
        span_text=text,
        severity=severity,
        confidence=confidence,
        start=start,
        end=end,
    )


class TestSeverity:
    def test_weights(self):
        assert SEVERITY_WEIGHTS == {"MIN": 1, "MAJ": 5, "CRIT": 10}

    def test_aliases(self):
        assert normalize_severity("minor") == "MIN"
        assert normalize_severity("Major") == "MAJ"
        assert normalize_severity("CRITICAL") == "CRIT"
        assert normalize_severity("crit") == "CRIT"
        assert normalize_severity("catastrophic") is None


class TestErrorSpan:
    def test_unknown_severity_rejected(self):
        with pytest.raises(UsageError):
            span(severity="WARN")

    def test_confidence_range(self):
        for bad in (-0.1, 1.1):
            with pytest.raises(UsageError):
                span(confidence=bad)

    def test_offsets_must_come_together(self):
        with pytest.raises(UsageError):
            span(start=3)

    def test_offset_order(self):
        with pytest.raises(UsageError):
            span(start=5, end=5)


class TestScoring:
    @pytest.mark.parametrize("minor,major,critical,tokens,expected", PUBLISHED_ROWS)
    def test_published_rows(self, minor, major, critical, tokens, expected):
        counts = SeverityCounts(
            minor=minor,
            major=major,
            critical=critical,
            token_total=tokens,
            counting_scheme="external",
        )
        assert mqm_score(counts) == pytest.approx(expected, abs=0.02)
        assert mqm_oracle(minor, major, critical, tokens) == pytest.approx(
            expected, abs=0.02
        )

    def test_no_errors_scores_100(self):
        counts = SeverityCounts(0, 0, 0, 500, "whitespace")
        assert mqm_score(counts) == 100.0

    def test_score_unclamped_below_zero(self):
        counts = SeverityCounts(0, 0, 20, 100, "whitespace")
        assert mqm_score(counts) == pytest.approx(-100.0)

    def test_zero_tokens_rejected(self):
        with pytest.raises(UsageError):
            mqm_score(SeverityCounts(0, 0, 0, 0, "whitespace"))

    @given(
        minor=st.integers(0, 50),
        major=st.integers(0, 50),
        critical=st.integers(0, 50),
        tokens=st.integers(1, 10000),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_oracle_everywhere(self, minor, major, critical, tokens):
        counts = SeverityCounts(minor, major, critical, tokens, "whitespace")
        assert mqm_score(counts) == pytest.approx(
            mqm_oracle(minor, major, critical, tokens), abs=1e-9
        )

    def test_monotonic_in_severity(self):
        base = mqm_score(SeverityCounts(1, 0, 0, 100, "w"))
        upgraded = mqm_score(SeverityCounts(0, 1, 0, 100, "w"))
        critical = mqm_score(SeverityCounts(0, 0, 1, 100, "w"))
        assert base > upgraded > critical


class TestTally:
    def test_counts_by_severity(self):
        spans = [
            span(severity="MIN"),
            span(severity="CRIT"),
            span(severity="MIN"),
            span(severity="MAJ"),
        ]
        counts = tally(spans, token_total=100, scheme="whitespace")
        assert (counts.minor, counts.major, counts.critical) == (2, 1, 1)
        assert counts.penalty == 2 + 5 + 10
        oracle = tally_oracle(spans)
        assert (oracle["MIN"], oracle["MAJ"], oracle["CRIT"]) == (2, 1, 1)

    def test_zero_token_total_rejected(self):
        with pytest.raises(UsageError):
            tally([], token_total=0, scheme="whitespace")

    @given(
        severities=st.lists(st.sampled_from(["MIN", "MAJ", "CRIT"]), max_size=40)
    )
    @settings(max_examples=100, deadline=None)
    def test_agrees_with_groupby_oracle(self, severities):
        spans = [span(sid=str(i), severity=s) for i, s in enumerate(severities)]
        counts = tally(spans, token_total=10, scheme="w")
        oracle = tally_oracle(spans)
        assert (counts.minor, counts.major, counts.critical) == (
            oracle["MIN"],
            oracle["MAJ"],
            oracle["CRIT"],
        )


class TestConfidenceFilter:
    def test_keeps_at_or_above_threshold(self):
        spans = [span(confidence=c) for c in (0.2, 0.5, 0.8)]
        kept = filter_by_confidence(spans, threshold=0.5)
        assert [s.confidence for s in kept] == [0.5, 0.8]

    def test_threshold_zero_keeps_all(self):
        spans = [span(confidence=c) for c in (0.0, 0.4, 1.0)]
        assert len(filter_by_confidence(spans, 0.0)) == 3

    def test_threshold_bounds(self):
        with pytest.raises(UsageError):
            filter_by_confidence([], threshold=1.5)

    def test_fixture_thresholds(self, fixtures_dir):
        spans = load_annotations(fixtures_dir / "annotations_en_es.jsonl")
        assert len(spans) == 3
        assert len(filter_by_confidence(spans, 0.5)) == 2
        assert len(filter_by_confidence(spans, 0.6)) == 0

    def test_raising_threshold_never_lowers_score(self, fixtures_dir):
        spans = load_annotations(fixtures_dir / "annotations_en_es.jsonl")
        scores = []
        for threshold in (0.0, 0.5, 0.6):
            kept = filter_by_confidence(spans, threshold)
            scores.append(mqm_score(tally(kept, token_total=400, scheme="w")))
        assert scores == sorted(scores)


class TestLoadAnnotations:
    def test_dirty_file_keeps_valid_rows(self, fixtures_dir, caplog):
        with caplog.at_level(logging.WARNING):
            spans = load_annotations(fixtures_dir / "annotations_dirty.jsonl")
        assert len(spans) == 2
        assert {s.severity for s in spans} == {"MAJ", "MIN"}
        assert sum("rejected" in r.getMessage() for r in caplog.records) >= 1

    def test_offset_slice_checked_against_outputs(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        path.write_text(
            '{"segment_id": "0", "span": "luz", "severity": "MIN", "confidence": 0.9, "start": 0, "end": 3}\n'
            '{"segment_id": "0", "span": "luz", "severity": "MIN", "confidence": 0.9, "start": 4, "end": 7}\n',
            encoding="utf-8",
        )
        spans = load_annotations(path, outputs_by_id={"0": "luz amarilla"})
        # second record's slice reads "amar", not "luz" -> rejected
        assert len(spans) == 1
        assert spans[0].start == 0

    def test_unknown_segment_rejected_with_or_without_offsets(self, tmp_path, caplog):
        path = tmp_path / "annotations.jsonl"
        path.write_text(
            '{"segment_id": "0", "span": "luz", "severity": "MIN", "confidence": 0.9}\n'
            '{"segment_id": "9", "span": "luz", "severity": "MIN", "confidence": 0.9}\n'
            '{"segment_id": "9", "span": "luz", "severity": "MIN", "confidence": 0.9, "start": 0, "end": 3}\n',
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            spans = load_annotations(path, outputs_by_id={"0": "luz amarilla"})
        assert [s.segment_id for s in spans] == ["0"]
        assert sum("reason=unknown_segment" in m for m in caplog.messages) == 2
        # Without outputs to check against, every well-formed span loads.
        assert len(load_annotations(path)) == 3

    def test_severity_aliases_accepted(self, tmp_path):
        path = tmp_path / "annotations.jsonl"
        path.write_text(
            '{"segment_id": "0", "span": "a", "severity": "minor", "confidence": 0.5}\n'
            '{"segment_id": "1", "span": "b", "severity": "Critical", "confidence": 0.5}\n',
            encoding="utf-8",
        )
        spans = load_annotations(path)
        assert [s.severity for s in spans] == ["MIN", "CRIT"]


class TestRoundTrip:
    def test_counts_round_trip(self):
        counts = SeverityCounts(5, 3, 1, 999, "external")
        assert SeverityCounts.from_dict(counts.to_dict()) == counts
