import logging
import math
import re
import sys

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glossmt.corpus import ParallelSegment
from glossmt.errors import FormatError, UsageError
from glossmt.metrics import (
    _13A_PUNCT_TABLE,
    ScoreReport,
    bleu,
    bleu_statistics,
    chrf,
    chrf_statistics,
    load_external_scores,
    significance_test,
    term_accuracy,
    tokenize_13a,
)
from glossmt.postprocess import ModelOutput
from glossmt.terminology import Glossary, GlossaryEntry, TermMatcher
from oracles import _ngram_bag, bleu_oracle, chrf_oracle, reference_tokenize

# Frozen corpus-level values for tests/fixtures/metric_{hyps,refs}.txt,
# computed once with the exact-arithmetic reference implementation in
# oracles.py and pinned here.
FIXTURE_BLEU = 66.63599485866453
FIXTURE_CHRF = 84.01919638078584


@pytest.fixture(scope="module")
def fixture_pairs(fixtures_dir):
    refs = (fixtures_dir / "metric_refs.txt").read_text(encoding="utf-8").splitlines()
    hyps = (fixtures_dir / "metric_hyps.txt").read_text(encoding="utf-8").splitlines()
    assert len(refs) == len(hyps) == 20
    return hyps, refs


class TestTokenizer:
    def test_punctuation_split(self):
        assert tokenize_13a("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_decimal_numbers_kept_whole(self):
        assert tokenize_13a("dose of 2.5 mg.") == ["dose", "of", "2.5", "mg", "."]

    def test_comma_between_digits_kept(self):
        assert tokenize_13a("1,000 units") == ["1,000", "units"]

    def test_digit_dash_split(self):
        assert tokenize_13a("10-20 ml") == ["10", "-", "20", "ml"]

    def test_entities_unescaped(self):
        assert tokenize_13a("x &amp; y &lt;z&gt;") == ["x", "&", "y", "<", "z", ">"]

    def test_skipped_tag_removed(self):
        assert tokenize_13a("a <skipped> b") == ["a", "b"]

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_reference_tokenizer(self, line):
        assert tokenize_13a(line) == reference_tokenize(line)

    def test_punct_table_equals_regex_form_on_every_code_point(self):
        # tokenize_13a pads the 13a punctuation class through a translate
        # table of its ASCII characters; the class is the regex below. Each
        # code point appears alone between letters and next to all the
        # others, so the two agree only if the table holds exactly the class.
        pattern = re.compile(r"([\{-\~\[-\` -\&\(-\+\:-\@\/])")
        every = [chr(c) for c in range(sys.maxunicode + 1)]
        for text in ("x".join(every), "".join(every)):
            assert text.translate(_13A_PUNCT_TABLE) == pattern.sub(r" \1 ", text)


def _oracle_statistics(hyp_units, ref_units, max_order):
    """(matches, hypothesis totals, reference totals) per order 1..max_order,
    counted from tests/oracles.py's n-gram bags."""
    matches, hyp_totals, ref_totals = [], [], []
    for order in range(1, max_order + 1):
        hyp_bag = _ngram_bag(hyp_units, order)
        ref_bag = _ngram_bag(ref_units, order)
        matches.append(sum(min(count, ref_bag.get(gram, 0)) for gram, count in hyp_bag.items()))
        hyp_totals.append(sum(hyp_bag.values()))
        ref_totals.append(sum(ref_bag.values()))
    return matches, hyp_totals, ref_totals


_ALPHABET = "ab ß,."
# Lengths 0..20 over a tiny alphabet: n-grams repeat often on one side, both
# or neither, so every path of the clipped-match count runs.
_TINY_TEXT = st.text(alphabet=_ALPHABET, max_size=20)
# Up to 80 characters, free or a repeated chunk plus a tail: chrF orders
# 4..6 repeat on both sides in some draws and on neither in others, so the
# high orders take the Counter path and the set path too.
_LONG_TEXT = st.one_of(
    st.text(alphabet=_ALPHABET, max_size=80),
    st.builds(
        lambda chunk, times, tail: (chunk * times + tail)[:80],
        st.text(alphabet=_ALPHABET, min_size=1, max_size=12),
        st.integers(2, 8),
        st.text(alphabet=_ALPHABET, max_size=12),
    ),
)


def _check_bleu_statistics(hypothesis, reference):
    hyp = reference_tokenize(hypothesis)
    ref = reference_tokenize(reference)
    matches, totals, _ = _oracle_statistics(hyp, ref, 4)
    assert bleu_statistics(hypothesis, reference) == (
        *matches,
        *totals,
        len(hyp),
        len(ref),
    )


def _check_chrf_statistics(hypothesis, reference):
    matches, hyp_totals, ref_totals = _oracle_statistics(
        list("".join(hypothesis.split())), list("".join(reference.split())), 6
    )
    assert chrf_statistics(hypothesis, reference) == (*matches, *hyp_totals, *ref_totals)


class TestSegmentStatistics:
    @given(_TINY_TEXT, _TINY_TEXT)
    @settings(max_examples=400, deadline=None)
    @example("", "")
    @example("", "a b")
    @example("   ", " \t")
    @example("a", "ab")  # shorter than every higher order
    @example("a b , .", "a a b b")  # only the hypothesis without repeats
    @example("a a b b", "a b , .")  # only the reference without repeats
    @example("a a a b", "a a b b b")  # both sides repeat
    # The sides stop repeating at different orders: the hypothesis after
    # order 1, the reference after order 3, and the mirror case.
    @example("a b a ß", "a b ß , a b ß")
    @example("a b ß , a b ß", "a b a ß")
    def test_bleu_statistics_equal_oracle_counts(self, hypothesis, reference):
        _check_bleu_statistics(hypothesis, reference)

    @given(_LONG_TEXT, _LONG_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_bleu_statistics_equal_oracle_counts_on_longer_texts(self, hypothesis, reference):
        _check_bleu_statistics(hypothesis, reference)

    @given(_TINY_TEXT, _TINY_TEXT)
    @settings(max_examples=400, deadline=None)
    @example("", "")
    @example("", "ab")
    @example("   ", " \t")
    @example("ab", "a b ß")  # shorter than the higher orders
    @example("abß,.", "aabb")  # only the hypothesis without repeats
    @example("aabb", "abß,.")  # only the reference without repeats
    @example("aaab", "aabbb")  # both sides repeat
    # The sides stop repeating at different orders: the hypothesis after
    # order 1, the reference after order 3, and the mirror case.
    @example("abaß", "abß,abß")
    @example("abß,abß", "abaß")
    def test_chrf_statistics_equal_oracle_counts(self, hypothesis, reference):
        _check_chrf_statistics(hypothesis, reference)

    @given(_LONG_TEXT, _LONG_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_chrf_statistics_equal_oracle_counts_on_longer_texts(self, hypothesis, reference):
        _check_chrf_statistics(hypothesis, reference)


class TestBleu:
    def test_fixture_value_frozen(self, fixture_pairs):
        hyps, refs = fixture_pairs
        assert bleu(hyps, refs) == pytest.approx(FIXTURE_BLEU, abs=1e-9)

    def test_last_digit_is_the_same_on_every_interpreter(self):
        # log(4/7) + log(3/6) + log(2/5) + log(1/4) added left to right ends one
        # bit off the correctly rounded sum, which sum() of floats gives from
        # Python 3.12 on and math.fsum on every version.
        assert repr(bleu(["sat big dog big sat on the"], ["big sat on the red"])) == "41.113361690051974"

    def test_fixture_value_vs_live_oracle(self, fixture_pairs):
        hyps, refs = fixture_pairs
        assert abs(bleu(hyps, refs) - bleu_oracle(hyps, refs)) < 0.1

    def test_identity_is_100(self, fixture_pairs):
        _, refs = fixture_pairs
        assert bleu(refs, refs) == 100.0

    def test_disjoint_is_0(self):
        assert bleu(["aaa bbb ccc ddd"] * 3, ["www xxx yyy zzz"] * 3) == 0.0

    def test_no_smoothing_zero_higher_order(self):
        # unigrams overlap but no bigram does -> every order must match
        assert bleu(["a x b y c z"], ["a b c d e f"]) == 0.0

    def test_brevity_penalty_applied(self):
        long_ref = ["uno dos tres cuatro cinco seis siete ocho"]
        short_hyp = ["uno dos tres cuatro"]
        score = bleu(short_hyp, long_ref)
        assert 0.0 < score < 100.0
        assert score == pytest.approx(100.0 * math.exp(1 - 8 / 4), abs=1e-9)

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            bleu(["a"], ["a", "b"])

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            bleu([], [])

    @given(
        st.lists(
            st.text(alphabet="abc áé,. ", min_size=1, max_size=30).filter(str.strip),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_hypotheses_agree_with_oracle(self, texts):
        refs = ["la dosis diaria de amoxicilina se toma por la mañana"] * len(texts)
        assert abs(bleu(texts, refs) - bleu_oracle(texts, refs)) < 0.1


class TestChrf:
    def test_fixture_value_frozen(self, fixture_pairs):
        hyps, refs = fixture_pairs
        assert chrf(hyps, refs) == pytest.approx(FIXTURE_CHRF, abs=1e-9)

    def test_fixture_value_vs_live_oracle(self, fixture_pairs):
        hyps, refs = fixture_pairs
        assert abs(chrf(hyps, refs) - chrf_oracle(hyps, refs)) < 0.1

    def test_identity_is_100(self, fixture_pairs):
        _, refs = fixture_pairs
        assert chrf(refs, refs) == 100.0

    def test_disjoint_is_0(self):
        assert chrf(["aaaa"] * 2, ["zzzz"] * 2) == 0.0

    def test_whitespace_ignored(self):
        assert chrf(["ab cd"], ["abcd"]) == 100.0

    def test_partial_overlap_matches_oracle(self):
        hyps = ["la dosis diaria", "efectos adversos graves"]
        refs = ["la dosis semanal", "efectos adversos leves"]
        assert abs(chrf(hyps, refs) - chrf_oracle(hyps, refs)) < 0.1

    @given(
        st.lists(
            st.text(alphabet="abcdé ", min_size=1, max_size=25).filter(str.strip),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_random_hypotheses_agree_with_oracle(self, texts):
        refs = ["abc déf abcd"] * len(texts)
        assert abs(chrf(texts, refs) - chrf_oracle(texts, refs)) < 0.1


def output(sid, text):
    return ModelOutput(
        segment_id=sid,
        raw_text=text,
        cleaned_text=text,
        truncated=False,
        token_count_raw=len(text.split()),
        token_count_cleaned=len(text.split()),
        counting_scheme="whitespace",
    )


class TestTermAccuracy:
    def matcher(self, en_es):
        entries = (
            GlossaryEntry("insulin", "insulina", 4, "1"),
            GlossaryEntry("dose", "dosis", 4, "1"),
            GlossaryEntry("fever", "fiebre", 4, "1"),
            GlossaryEntry("rash", "erupción", 4, "1"),
        )
        return TermMatcher(Glossary(pair=en_es, entries=entries))

    def candidates(self, segments, en_es):
        matcher = self.matcher(en_es)
        return [(s.id, matcher.find_candidates(s)) for s in segments]

    def segments(self, en_es):
        return [
            ParallelSegment(
                id="0",
                pair=en_es,
                source_text="the insulin dose is low",
                target_text="la dosis de insulina es baja",
            ),
            ParallelSegment(
                id="1",
                pair=en_es,
                source_text="fever and rash were reported",
                target_text="se notificaron fiebre y erupción",
            ),
        ]

    def test_all_terms_present_scores_1(self, en_es):
        outputs = [
            output("0", "la dosis de insulina parece baja"),
            output("1", "se observó fiebre y erupción"),
        ]
        accuracy, correct, total = term_accuracy(
            outputs, self.candidates(self.segments(en_es), en_es)
        )
        assert (accuracy, correct, total) == (1.0, 4, 4)

    def test_three_of_four_terms_scores_075(self, en_es):
        outputs = [
            output("0", "la dosis de insulina parece baja"),
            output("1", "se observó fiebre y sarpullido"),  # "erupción" missing
        ]
        accuracy, correct, total = term_accuracy(
            outputs, self.candidates(self.segments(en_es), en_es)
        )
        assert total == 4 and correct == 3
        assert accuracy == pytest.approx(0.75)

    def test_term_must_respect_boundaries_in_output(self, en_es):
        outputs = [
            output("0", "la sobredosis de insulinaglargina"),  # both embedded
            output("1", "fiebre y erupción"),
        ]
        accuracy, correct, total = term_accuracy(
            outputs, self.candidates(self.segments(en_es), en_es)
        )
        assert correct == 2 and total == 4

    def test_zero_expected_pairs_scores_0(self, en_es):
        segments = [
            ParallelSegment(
                id="0", pair=en_es, source_text="nothing here", target_text="nada aquí"
            )
        ]
        accuracy, correct, total = term_accuracy(
            [output("0", "nada")], self.candidates(segments, en_es)
        )
        assert (accuracy, correct, total) == (0.0, 0, 0)

    def test_misaligned_ids_rejected(self, en_es):
        with pytest.raises(UsageError):
            term_accuracy([output("9", "x")], self.candidates(self.segments(en_es), en_es))

    def test_duplicate_output_ids_rejected(self, en_es):
        with pytest.raises(UsageError):
            term_accuracy(
                [output("0", "x"), output("0", "y")],
                self.candidates(self.segments(en_es)[:1], en_es),
            )

    def test_duplicate_candidate_ids_rejected(self, en_es):
        candidates = self.candidates(self.segments(en_es)[:1], en_es)
        with pytest.raises(UsageError):
            term_accuracy([output("0", "x")], candidates + candidates)


class TestSignificance:
    def test_identical_inputs_give_p_1(self):
        scores = [10.0, 20.0, 30.0, 40.0]
        assert significance_test(scores, scores, resamples=200, seed=1) == 1.0

    def test_deterministic_per_seed(self):
        a = [55.0, 60.0, 58.0, 62.0, 57.0, 61.0]
        b = [50.0, 52.0, 51.0, 53.0, 50.5, 52.5]
        p1 = significance_test(a, b, resamples=500, seed=42)
        p2 = significance_test(a, b, resamples=500, seed=42)
        assert p1 == p2

    def test_large_consistent_gap_is_significant(self):
        a = [70.0 + i * 0.1 for i in range(20)]
        b = [30.0 + i * 0.1 for i in range(20)]
        p = significance_test(a, b, resamples=1000, seed=7)
        assert p < 0.01

    def test_p_value_bounds(self):
        a = [1.0, 2.0, 3.0]
        b = [1.1, 1.9, 3.2]
        p = significance_test(a, b, resamples=99, seed=3)
        assert 1 / 100 <= p <= 1.0

    def test_add_one_smoothing_floor(self):
        # even a huge gap cannot produce p below 1/(resamples+1)
        p = significance_test([100.0] * 10, [0.0] * 10, resamples=99, seed=5)
        assert p == pytest.approx(1 / 100)

    def test_length_mismatch_rejected(self):
        with pytest.raises(UsageError):
            significance_test([1.0], [1.0, 2.0], resamples=10, seed=0)

    def test_too_few_scores_rejected(self):
        with pytest.raises(UsageError):
            significance_test([1.0], [2.0], resamples=10, seed=0)


class TestScoreReport:
    def test_round_trip(self):
        report = ScoreReport(
            pair="en-es",
            system="base",
            bleu=33.3,
            chrf=55.5,
            term_accuracy=0.75,
            term_correct=3,
            term_total=4,
            external_scores={"comet22": 0.82},
        )
        assert ScoreReport.from_dict(report.to_dict()) == report

    def test_inconsistent_accuracy_rejected(self):
        with pytest.raises(UsageError):
            ScoreReport(
                pair="en-es",
                system="base",
                bleu=10.0,
                chrf=10.0,
                term_accuracy=0.9,
                term_correct=3,
                term_total=4,
            )

    def test_out_of_range_bleu_rejected(self):
        with pytest.raises(UsageError):
            ScoreReport(
                pair="en-es",
                system="base",
                bleu=101.0,
                chrf=10.0,
                term_accuracy=0.0,
                term_correct=0,
                term_total=0,
            )

    @pytest.mark.parametrize("pair", ["", None])
    def test_missing_pair_code_rejected(self, pair):
        with pytest.raises(UsageError):
            ScoreReport(
                pair=pair,
                system="base",
                bleu=10.0,
                chrf=10.0,
                term_accuracy=0.0,
                term_correct=0,
                term_total=0,
            )


class TestExternalScores:
    def test_mean_per_name(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"segment_id": "0", "name": "comet22", "value": 0.8}\n'
            '{"segment_id": "1", "name": "comet22", "value": 0.9}\n'
            '{"segment_id": "0", "name": "xcomet", "value": 0.5}\n',
            encoding="utf-8",
        )
        scores = load_external_scores(path)
        assert scores == {"comet22": pytest.approx(0.85), "xcomet": pytest.approx(0.5)}

    def test_overflowing_sum_falls_back_to_scaled_sum(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"segment_id": "0", "name": "comet22", "value": 1e308}\n'
            '{"segment_id": "1", "name": "comet22", "value": 1e308}\n',
            encoding="utf-8",
        )
        assert load_external_scores(path) == {"comet22": 1e308}

    def test_non_finite_value_is_format_error(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"segment_id": "0", "name": "comet22", "value": Infinity}\n'
            '{"segment_id": "1", "name": "comet22", "value": -Infinity}\n',
            encoding="utf-8",
        )
        with pytest.raises(FormatError) as exc:
            load_external_scores(path)
        assert exc.value.line == 1

    def test_duplicate_row_counts_once(self, tmp_path, caplog):
        path = tmp_path / "scores.jsonl"
        path.write_text(
            '{"segment_id": "0", "name": "comet22", "value": 0.8}\n'
            '{"segment_id": "0", "name": "comet22", "value": 0.2}\n'
            '{"segment_id": "1", "name": "comet22", "value": 0.6}\n',
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            assert load_external_scores(path) == {"comet22": pytest.approx(0.7)}
        assert [m.split("reason=")[1] for m in caplog.messages] == ["duplicate"]
