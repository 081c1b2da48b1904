import re
import sys

import pytest

from glossmt.corpus import (
    LanguagePair,
    ParallelSegment,
    SplitSpec,
    load_parallel,
    merge_tuning_sets,
    normalize_text,
    read_segments,
    split_corpus,
    write_segments,
)
from glossmt.errors import AlignmentError, ConfigurationError, FormatError, UsageError


def seg(pair, sid, source_text="src text", target_text="tgt text"):
    return ParallelSegment(id=sid, pair=pair, source_text=source_text, target_text=target_text)


class TestNormalize:
    def test_collapses_internal_whitespace(self):
        assert normalize_text("the \t vial  here") == "the vial here"

    def test_strips_ends(self):
        assert normalize_text("  x  ") == "x"

    def test_empty(self):
        assert normalize_text(" \t ") == ""

    def test_equals_regex_form_on_every_code_point(self):
        # normalize_text splits with str.split(); it was
        # re.sub(r"\s+", " ", text).strip(). Each code point appears alone
        # between letters, in a run of two, and next to all the others, so
        # the two agree only if \s and str.split() class it alike.
        every = [chr(c) for c in range(sys.maxunicode + 1)]
        for text in ("x".join(every), "x".join(c + c for c in every), "".join(every)):
            assert normalize_text(text) == re.sub(r"\s+", " ", text).strip()


class TestLanguagePair:
    def test_from_code_known(self):
        pair = LanguagePair.from_code("en-es")
        assert pair.source_name == "English"
        assert pair.target_name == "Spanish"
        assert pair.code == "en-es"

    def test_from_code_unknown_language_rejected(self):
        with pytest.raises(ConfigurationError):
            LanguagePair.from_code("en-xx")

    def test_explicit_display_names_allow_anything(self):
        pair = LanguagePair(
            source_lang="en", target_lang="xx", source_name="English", target_name="Klingon"
        )
        assert pair.code == "en-xx"

    def test_bad_code_shape(self):
        with pytest.raises(ConfigurationError):
            LanguagePair.from_code("enes")


class TestLoadParallel:
    def test_loads_and_numbers_lines(self, fixtures_dir, en_es):
        segments = load_parallel(
            fixtures_dir / "emea.en", fixtures_dir / "emea.es", en_es
        )
        assert len(segments) == 100
        assert segments[0].id == "0"
        assert segments[0].source_text.startswith("Amoxicillin is susceptible")
        assert segments[0].target_text.startswith("La amoxicilina es sensible")

    def test_normalizes_double_spaces(self, fixtures_dir, en_es):
        segments = load_parallel(
            fixtures_dir / "emea.en", fixtures_dir / "emea.es", en_es
        )
        by_id = {s.id: s for s in segments}
        assert "  " not in by_id["6"].source_text
        assert "  " not in by_id["6"].target_text

    def test_mismatched_line_counts(self, tmp_path, en_es):
        a = tmp_path / "a.en"
        b = tmp_path / "b.es"
        a.write_text("one\ntwo\nthree\n", encoding="utf-8")
        b.write_text("uno\ndos\n", encoding="utf-8")
        with pytest.raises(AlignmentError) as exc:
            load_parallel(a, b, en_es)
        assert "3" in str(exc.value) and "2" in str(exc.value)

    def test_drops_pairs_empty_after_normalization(self, tmp_path, en_es):
        a = tmp_path / "a.en"
        b = tmp_path / "b.es"
        a.write_text("one\n   \nthree\n", encoding="utf-8")
        b.write_text("uno\ndos\ntres\n", encoding="utf-8")
        segments = load_parallel(a, b, en_es)
        assert [s.id for s in segments] == ["0", "2"]

    def test_only_line_breaks_end_lines(self, tmp_path, en_es):
        # Three lines each by `wc -l`; U+2028, U+0085, form feed and \x1c-\x1e
        # are whitespace inside a line, not line ends.
        a = tmp_path / "a.en"
        b = tmp_path / "b.es"
        a.write_bytes("fever\u2028dose\nrash\x0crenal\r\nvial\u0085oral\n".encode("utf-8"))
        b.write_bytes("fiebre\x1cdosis\ndolor\x1derupción\rvial\x1eoral\n".encode("utf-8"))
        segments = load_parallel(a, b, en_es)
        assert [(s.id, s.source_text, s.target_text) for s in segments] == [
            ("0", "fever dose", "fiebre dosis"),
            ("1", "rash renal", "dolor erupción"),
            ("2", "vial oral", "vial oral"),
        ]

    def test_leading_bom_is_stripped(self, tmp_path, en_es):
        a = tmp_path / "a.en"
        b = tmp_path / "b.es"
        a.write_bytes(b"\xef\xbb\xbfdose\n")
        b.write_bytes(b"\xef\xbb\xbfdosis\n")
        [segment] = load_parallel(a, b, en_es)
        assert (segment.source_text, segment.target_text) == ("dose", "dosis")

    def test_invalid_utf8_is_format_error_with_line(self, tmp_path, en_es):
        a = tmp_path / "a.en"
        b = tmp_path / "b.es"
        a.write_bytes(b"one\ntwo \xff\n")
        b.write_text("uno\ndos\n", encoding="utf-8")
        with pytest.raises(FormatError) as exc:
            load_parallel(a, b, en_es)
        assert exc.value.line == 2
        assert "not valid UTF-8" in str(exc.value)

    def test_missing_file_is_an_oserror(self, tmp_path, en_es):
        with pytest.raises(OSError):
            load_parallel(tmp_path / "nope.en", tmp_path / "nope.es", en_es)


class TestSegmentValidation:
    def test_empty_source_rejected(self, en_es):
        with pytest.raises(UsageError):
            ParallelSegment(id="1", pair=en_es, source_text="  ", target_text="x")

    def test_empty_id_rejected(self, en_es):
        with pytest.raises(UsageError):
            ParallelSegment(id="", pair=en_es, source_text="x", target_text="y")

    def test_fields_are_normalized(self, en_es):
        s = ParallelSegment(id="1", pair=en_es, source_text=" a  b ", target_text="c\td")
        assert s.source_text == "a b"
        assert s.target_text == "c d"


class TestSplit:
    def make_corpus(self, en_es, n=2000):
        return [seg(en_es, str(i), f"source {i}", f"target {i}") for i in range(n)]

    def test_sizes_and_disjointness(self, en_es):
        corpus = self.make_corpus(en_es)
        spec = SplitSpec(tuning_size=1600, validation_size=200, test_size=200, seed=13)
        tuning, validation, test = split_corpus(corpus, spec)
        assert len(tuning) == 1600
        assert len(validation) == 200
        assert len(test) == 200
        ids = [s.id for part in (tuning, validation, test) for s in part]
        assert len(ids) == len(set(ids)) == 2000

    def test_deterministic_per_seed(self, en_es):
        corpus = self.make_corpus(en_es, 50)
        spec = SplitSpec(tuning_size=30, validation_size=10, test_size=10, seed=7)
        first = split_corpus(corpus, spec)
        second = split_corpus(corpus, spec)
        assert [s.id for s in first[2]] == [s.id for s in second[2]]
        other = split_corpus(
            corpus, SplitSpec(tuning_size=30, validation_size=10, test_size=10, seed=8)
        )
        assert [s.id for s in first[2]] != [s.id for s in other[2]]

    def test_infeasible_sizes(self, en_es):
        corpus = self.make_corpus(en_es, 10)
        spec = SplitSpec(tuning_size=8, validation_size=2, test_size=2, seed=1)
        with pytest.raises(ConfigurationError):
            split_corpus(corpus, spec)

    def test_duplicate_ids_rejected(self, tmp_path, en_es):
        # split_corpus takes ids as unique: read_segments rejects a repeated one.
        path = tmp_path / "segments.jsonl"
        write_segments(path, {"tuning": [seg(en_es, "1")], "test": [seg(en_es, "1")]}, manifest={"seed": 1})
        with pytest.raises(FormatError, match="duplicate id '1'") as exc:
            read_segments(path, en_es, split="tuning")
        assert exc.value.line == 3

    def test_nonpositive_sizes_rejected(self):
        with pytest.raises(ConfigurationError):
            SplitSpec(tuning_size=0, validation_size=1, test_size=1, seed=0)


class TestMerge:
    def test_ids_are_qualified_and_interleaved(self, en_es):
        de = LanguagePair.from_code("en-de")
        part_a = [seg(en_es, str(i)) for i in range(5)]
        part_b = [seg(de, str(i)) for i in range(5)]
        merged = merge_tuning_sets([part_a, part_b], seed=3)
        assert len(merged) == 10
        assert {s.id for s in merged} == {f"en-es:{i}" for i in range(5)} | {
            f"en-de:{i}" for i in range(5)
        }
        # seeded shuffle must actually interleave for this seed
        assert [s.id for s in merged] != [s.id for s in part_a + part_b]
        assert merge_tuning_sets([part_a, part_b], seed=3) == merged


class TestRoundTrip:
    def test_write_then_read(self, tmp_path, en_es):
        segments = [seg(en_es, str(i), f"s {i}", f"t {i}") for i in range(4)]
        path = tmp_path / "segments.jsonl"
        write_segments(
            path,
            {"tuning": segments[:2], "test": segments[2:]},
            manifest={"seed": 1},
        )
        everything = read_segments(path, en_es)
        assert [s.id for s in everything] == ["0", "1", "2", "3"]
        test_only = read_segments(path, en_es, split="test")
        assert [s.id for s in test_only] == ["2", "3"]
        assert test_only[0] == seg(en_es, "2", "s 2", "t 2")
