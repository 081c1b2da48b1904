import json

import pytest

from glossmt.errors import FormatError, UsageError
from glossmt.postprocess import (
    ExternalCounts,
    ModelOutput,
    count_tokens,
    postprocess_batch,
    read_outputs,
    truncate_at_eos,
    write_outputs,
)
from glossmt.promptgen import builtin_template
from glossmt.runner import GenerationRecord


def record(sid, output, error=None):
    return GenerationRecord(
        segment_id=sid,
        prompt_text="prompt",
        raw_output=output,
        model_name="m",
        config={},
        attempts=1,
        error=error,
    )


class TestTruncate:
    def test_cuts_at_first_marker(self):
        cleaned, truncated = truncate_at_eos("hola mundo<|im_end|>extra<|im_end|>", "<|im_end|>")
        assert cleaned == "hola mundo"
        assert truncated is True

    def test_no_marker_rstrips_only(self):
        cleaned, truncated = truncate_at_eos("hola mundo  \n", "<|im_end|>")
        assert cleaned == "hola mundo"
        assert truncated is False

    def test_idempotent(self):
        once, _ = truncate_at_eos("texto<END>rest", "<END>")
        twice, flagged = truncate_at_eos(once, "<END>")
        assert twice == once
        assert flagged is False

    def test_marker_at_start(self):
        cleaned, truncated = truncate_at_eos("<END>everything", "<END>")
        assert cleaned == ""
        assert truncated is True


class TestCountTokens:
    def test_whitespace_split(self):
        assert count_tokens("la  dosis\tdiaria\n") == 3

    def test_empty(self):
        assert count_tokens("") == 0
        assert count_tokens("   ") == 0


class TestModelOutput:
    def test_cleaned_must_prefix_raw(self):
        with pytest.raises(UsageError):
            ModelOutput(
                segment_id="1",
                raw_text="abc",
                cleaned_text="xyz",
                truncated=False,
                token_count_raw=1,
                token_count_cleaned=1,
                counting_scheme="whitespace",
            )

    def test_negative_counts_rejected(self):
        with pytest.raises(UsageError):
            ModelOutput(
                segment_id="1",
                raw_text="abc",
                cleaned_text="abc",
                truncated=False,
                token_count_raw=-1,
                token_count_cleaned=0,
                counting_scheme="whitespace",
            )


class TestBatch:
    def test_whitespace_scheme_with_marker(self):
        template = builtin_template("chatml")
        records = [
            record("0", "hola mundo<|im_end|>trailing junk"),
            record("1", "sin marcador aquí"),
        ]
        outputs, totals = postprocess_batch(records, template)
        assert outputs[0].cleaned_text == "hola mundo"
        assert outputs[0].truncated is True
        assert outputs[1].cleaned_text == "sin marcador aquí"
        assert outputs[1].truncated is False
        # raw splits on whitespace only, so "mundo<|im_end|>trailing" is one token
        assert totals == {
            "outputs": 2,
            "token_total_raw": 6,
            "token_total_cleaned": 5,
            "truncated_count": 1,
            "counting_scheme": "whitespace",
        }

    def test_cleaned_counts_never_exceed_raw(self):
        template = builtin_template("chatml")
        records = [record(str(i), f"palabra {i}<|im_end|>x y z") for i in range(5)]
        outputs, _ = postprocess_batch(records, template)
        assert all(o.token_count_cleaned <= o.token_count_raw for o in outputs)

    def test_template_without_marker_is_not_truncated(self):
        template = builtin_template("flan")  # no eos marker
        outputs, totals = postprocess_batch([record("0", "la dosis<|im_end|> diaria  ")], template)
        assert outputs[0].cleaned_text == "la dosis<|im_end|> diaria"
        assert outputs[0].truncated is False
        assert totals["counting_scheme"] == "whitespace"
        assert totals["token_total_cleaned"] == 3

    def test_error_records_pass_through_empty(self):
        template = builtin_template("chatml")
        outputs, totals = postprocess_batch(
            [record("0", "", error="HTTP 500")], template
        )
        assert outputs[0].cleaned_text == ""
        assert outputs[0].token_count_raw == 0
        assert totals["outputs"] == 1

    def test_external_counts_used_for_both_totals(self):
        template = builtin_template("chatml")
        counts = ExternalCounts({"0": 12, "1": 7})
        records = [record("0", "uno dos<|im_end|>"), record("1", "tres")]
        outputs, totals = postprocess_batch(records, template, counts)
        assert outputs[0].truncated is True
        assert outputs[0].token_count_raw == outputs[0].token_count_cleaned == 12
        assert totals["token_total_raw"] == totals["token_total_cleaned"] == 19
        assert totals["counting_scheme"] == "external"


class TestExternalCountsFile:
    def test_load(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        path.write_text(
            '{"segment_id": "0", "token_count": 4}\n'
            '{"segment_id": "1", "token_count": 9}\n',
            encoding="utf-8",
        )
        counts = ExternalCounts.load(path)
        assert len(counts) == 2
        assert counts["1"] == 9

    def test_duplicate_segment_rejected(self, tmp_path):
        path = tmp_path / "counts.jsonl"
        path.write_text(
            '{"segment_id": "0", "token_count": 4}\n'
            '{"segment_id": "0", "token_count": 5}\n',
            encoding="utf-8",
        )
        with pytest.raises(FormatError):
            ExternalCounts.load(path)

    def test_negative_or_non_integer_rejected(self, tmp_path):
        for bad in ('{"segment_id": "0", "token_count": -1}', '{"segment_id": "0", "token_count": 1.5}'):
            path = tmp_path / "counts.jsonl"
            path.write_text(bad + "\n", encoding="utf-8")
            with pytest.raises(FormatError):
                ExternalCounts.load(path)


class TestOutputIO:
    def test_round_trip(self, tmp_path):
        template = builtin_template("chatml")
        outputs, _ = postprocess_batch(
            [record("0", "hola<|im_end|>"), record("1", "adiós")], template
        )
        path = tmp_path / "outputs.jsonl"
        write_outputs(path, outputs, manifest={"scheme": "whitespace"})
        loaded = read_outputs(path)
        assert loaded == outputs

    def test_duplicate_segment_rejected(self, tmp_path):
        template = builtin_template("chatml")
        outputs, _ = postprocess_batch([record("0", "hola"), record("1", "adiós")], template)
        path = tmp_path / "outputs.jsonl"
        write_outputs(path, [*outputs, outputs[0]], manifest={})
        with pytest.raises(FormatError, match="duplicate segment_id '0'") as exc:
            read_outputs(path)
        assert (exc.value.path, exc.value.line) == (path, 4)

    def test_dump_schema(self, tmp_path):
        template = builtin_template("chatml")
        outputs, _ = postprocess_batch([record("0", "hola<|im_end|>x")], template)
        path = tmp_path / "outputs.jsonl"
        write_outputs(path, outputs, manifest={})
        row = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
        assert set(row) == {
            "segment_id",
            "raw",
            "cleaned",
            "truncated",
            "tokens_raw",
            "tokens_cleaned",
            "scheme",
        }
