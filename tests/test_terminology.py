import csv
import dataclasses
import logging
import re
import sys

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from glossmt.corpus import ParallelSegment
from glossmt.errors import FormatError, UsageError
from glossmt.terminology import (
    Glossary,
    GlossaryEntry,
    TermMatcher,
    TermPair,
    _split_row,
    build_matcher,
    casefold_with_map,
    filter_by_reliability,
    load_glossary,
    read_candidates,
    term_in_text,
    write_candidates,
    write_glossary_tsv,
)
from oracles import brute_force_candidates


def entry(src, tgt, stars=4, domain="0000"):
    return GlossaryEntry(
        source_term=src, target_term=tgt, reliability=stars, domain_id=domain
    )


def glossary_of(pair, *terms):
    return Glossary.build(pair, [entry(s, t) for s, t in terms])


def segment(pair, source, target, sid="0"):
    return ParallelSegment(id=sid, pair=pair, source_text=source, target_text=target)


class TestGlossaryEntry:
    def test_terms_are_normalized(self):
        e = entry("  insulin   glargine ", "insulina\tglargina")
        assert e.source_term == "insulin glargine"
        assert e.target_term == "insulina glargina"

    def test_reliability_bounds(self):
        for bad in (0, 5):
            with pytest.raises(UsageError):
                entry("a", "b", stars=bad)

    def test_empty_term_rejected(self):
        with pytest.raises(UsageError):
            entry("", "b")

    def test_key_is_casefolded(self):
        assert entry("DOSE", "Dosis").key == ("dose", "dosis")

    def test_key_is_outside_equality_hash_and_repr(self):
        e = entry("DOSE", " Dosis", stars=3, domain="10")
        assert e == entry("DOSE", "Dosis", stars=3, domain="10")
        assert e != entry("dose", "Dosis", stars=3, domain="10")
        assert hash(e) == hash(("DOSE", "Dosis", 3, "10"))
        assert repr(e) == (
            "GlossaryEntry(source_term='DOSE', target_term='Dosis', reliability=3, domain_id='10')"
        )

    def test_replace_recomputes_key(self):
        e = dataclasses.replace(entry("dose", "dosis"), source_term="Daily  DOSE")
        assert e.source_term == "Daily DOSE"
        assert e.key == ("daily dose", "dosis")


class TestLoadGlossary:
    def test_fixture_counts(self, fixtures_dir, en_es):
        glossary = load_glossary(fixtures_dir / "glossary_en_es.tsv", en_es)
        # 50 rows, 2 casefold-duplicates dropped (first occurrence wins)
        assert len(glossary) == 48

    def test_duplicates_keep_first(self, fixtures_dir, en_es):
        glossary = load_glossary(fixtures_dir / "glossary_en_es.tsv", en_es)
        amox = [e for e in glossary.entries if e.key[0] == "amoxicillin"]
        assert len(amox) == 1
        assert amox[0].source_term == "amoxicillin"  # lowercase row came first

    def test_reliability_filter(self, fixtures_dir, en_es):
        glossary = load_glossary(fixtures_dir / "glossary_en_es.tsv", en_es)
        kept = filter_by_reliability(glossary, min_stars=3)
        assert len(kept) == 43
        assert all(e.reliability >= 3 for e in kept.entries)
        dropped = {e.key[0] for e in glossary.entries} - {
            e.key[0] for e in kept.entries
        }
        assert "bacteria" in dropped and "headache" in dropped

    def test_comments_and_malformed_rows_skipped(self, tmp_path, en_es, caplog):
        path = tmp_path / "glossary.tsv"
        path.write_text(
            "# comment line\n"
            "fever\tfiebre\t4\t1001\n"
            "broken row without tabs\n"
            "rash\terupción\t2\t1001\n",
            encoding="utf-8",
        )
        with caplog.at_level(logging.WARNING):
            glossary = load_glossary(path, en_es)
        assert len(glossary) == 2
        assert any("line=3" in r.getMessage() for r in caplog.records)

    def test_bad_reliability_rejected_rowwise(self, tmp_path, en_es):
        path = tmp_path / "glossary.tsv"
        path.write_text("fever\tfiebre\tnine\t1001\n", encoding="utf-8")
        glossary = load_glossary(path, en_es)
        assert len(glossary) == 0

    def test_leading_bom_does_not_hide_the_first_row(self, tmp_path, en_es):
        path = tmp_path / "glossary.tsv"
        path.write_bytes(b"\xef\xbb\xbfdose\tdosis\t4\t1\n")
        glossary = load_glossary(path, en_es)
        assert [e.source_term for e in glossary.entries] == ["dose"]
        seg = segment(en_es, "one dose daily", "una dosis diaria")
        assert [p.source_term for p in build_matcher(glossary).find_candidates(seg)] == ["dose"]

    def test_quoted_row_keeps_its_tab_inside_the_field(self, tmp_path, en_es):
        path = tmp_path / "glossary.tsv"
        path.write_text('"a\tb"\tc\t3\td\n', encoding="utf-8")
        glossary = load_glossary(path, en_es)
        assert glossary.entries == (GlossaryEntry("a b", "c", 3, "d"),)

    @given(
        fields=st.lists(
            st.text(st.characters(blacklist_characters='\t"\r\n'), max_size=6),
            min_size=1,
            max_size=6,
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_tab_split_equals_csv_reader_without_quotes(self, fields):
        line = "\t".join(fields)
        assume(line)  # csv yields no row for "", and load_glossary skips blank lines
        assert _split_row(line) == next(csv.reader([line], delimiter="\t"))

    def test_duplicate_entries_in_constructor_rejected(self, en_es):
        with pytest.raises(UsageError):
            Glossary(pair=en_es, entries=(entry("a", "b"), entry("A", "B")))


class TestCasefoldMap:
    def test_identity_for_ascii(self):
        folded, origins = casefold_with_map("Dose")
        assert folded == "dose"
        assert origins == [0, 1, 2, 3]

    def test_expanding_fold_keeps_origin_indices(self):
        # ß casefolds to "ss": both output chars map back to index 0
        folded, origins = casefold_with_map("ßx")
        assert folded == "ssx"
        assert origins == [0, 0, 1]

    @given(
        text=st.text(
            alphabet=st.one_of(st.characters(), st.sampled_from("ßİŉﬁ")), max_size=40
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_per_character_reference(self, text):
        chars, origins = [], []
        for index, char in enumerate(text):
            folded = char.casefold()
            chars.append(folded)
            origins.extend([index] * len(folded))
        assert casefold_with_map(text) == ("".join(chars), origins)


class TestMatching:
    def test_candidates_ordered_longest_source_first(self, en_es):
        glossary = glossary_of(
            en_es,
            ("activity", "actividad"),
            ("amoxicillin", "amoxicilina"),
            ("spectrum of activity", "espectro de actividad"),
        )
        matcher = build_matcher(glossary)
        seg = segment(
            en_es,
            "the spectrum of activity of amoxicillin alone",
            "el espectro de actividad de la amoxicilina sola",
        )
        found = matcher.find_candidates(seg)
        assert [(p.source_term, p.target_term) for p in found] == [
            ("spectrum of activity", "espectro de actividad"),
            ("amoxicillin", "amoxicilina"),
            ("activity", "actividad"),
        ]

    def test_requires_both_sides(self, en_es):
        matcher = build_matcher(glossary_of(en_es, ("fever", "fiebre")))
        only_source = segment(en_es, "high fever today", "dolor intenso hoy")
        assert matcher.find_candidates(only_source) == []
        only_target = segment(en_es, "strong pain today", "fiebre alta hoy")
        assert matcher.find_candidates(only_target) == []

    def test_casefolded_match(self, en_es):
        matcher = build_matcher(glossary_of(en_es, ("amoxicillin", "amoxicilina")))
        seg = segment(en_es, "AMOXICILLIN 500 mg", "AMOXICILINA 500 mg")
        found = matcher.find_candidates(seg)
        assert [(p.source_term, p.target_term) for p in found] == [
            ("amoxicillin", "amoxicilina")
        ]

    def test_word_boundaries_block_substrings(self, en_es):
        matcher = build_matcher(glossary_of(en_es, ("activity", "actividad")))
        seg = segment(en_es, "radioactivity levels", "niveles de radioactividad")
        assert matcher.find_candidates(seg) == []
        punct = segment(en_es, "High activity, observed.", "Alta actividad, observada.")
        assert len(matcher.find_candidates(punct)) == 1

    def test_multiword_term_needs_single_internal_space(self, en_es):
        matcher = build_matcher(
            glossary_of(en_es, ("insulin glargine", "insulina glargina"))
        )
        # segment text is whitespace-normalized at construction, so this matches
        seg = segment(en_es, "uses insulin  glargine daily", "usa insulina  glargina")
        assert len(matcher.find_candidates(seg)) == 1

    def test_subterm_and_superterm_both_reported(self, en_es):
        matcher = build_matcher(
            glossary_of(
                en_es,
                ("insulin", "insulina"),
                ("insulin glargine", "insulina glargina"),
            )
        )
        seg = segment(
            en_es, "insulin glargine is injected", "la insulina glargina se inyecta"
        )
        found = matcher.find_candidates(seg)
        assert [(p.source_term, p.target_term) for p in found] == [
            ("insulin glargine", "insulina glargina"),
            ("insulin", "insulina"),
        ]

    def test_each_pair_reported_once(self, en_es):
        matcher = build_matcher(glossary_of(en_es, ("dose", "dosis")))
        seg = segment(en_es, "dose after dose after dose", "dosis tras dosis")
        found = matcher.find_candidates(seg)
        assert len(found) == 1
        assert found[0].first_source_offset == 0

    def test_first_offset_skips_boundary_invalid_hits(self, en_es):
        matcher = build_matcher(glossary_of(en_es, ("activity", "actividad")))
        seg = segment(
            en_es,
            "radioactivity first, then activity itself",
            "radioactividad primero, luego la actividad",
        )
        found = matcher.find_candidates(seg)
        assert len(found) == 1
        offset = found[0].first_source_offset
        assert seg.source_text[offset : offset + len("activity")] == "activity"
        assert offset == seg.source_text.index(" activity") + 1

    def test_term_in_text_helper(self):
        assert term_in_text("dose", "One DOSE daily")
        assert not term_in_text("dose", "overdosed again")
        assert term_in_text("beta-lactamase", "a beta-lactamase inhibitor")

    def test_sharp_s_casefold_equivalence(self, en_es):
        matcher = build_matcher(glossary_of(en_es, ("straße", "calle")))
        seg = segment(en_es, "die STRASSE dort", "la calle allí")
        assert len(matcher.find_candidates(seg)) == 1


class TestOracleEquivalence:
    """The head-indexed matcher must agree with an exhaustive scan on every
    input."""

    # Casefold expansions (ß, İ, ﬁ), non-ASCII and ASCII digits, and `_`
    # (a word character to `\w` but not a letter or digit); terms may start
    # or end with punctuation.
    alphabet = "abcßâéİﬁ_1٣ -.,'"
    terms = st.text(alphabet=alphabet, min_size=1, max_size=8).filter(
        lambda t: " ".join(t.split())
    )

    @given(
        entries=st.lists(
            st.tuples(terms, terms), min_size=1, max_size=6, unique=True
        ),
        data=st.data(),
    )
    @settings(max_examples=300, deadline=None)
    def test_matcher_agrees_with_brute_force(self, entries, data, en_es):
        cleaned = []
        seen = set()
        for src, tgt in entries:
            e = GlossaryEntry(
                source_term=src, target_term=tgt, reliability=4, domain_id="0"
            )
            if e.key in seen:
                continue
            seen.add(e.key)
            cleaned.append(e)
        glossary = Glossary(pair=en_es, entries=tuple(cleaned))
        matcher = TermMatcher(glossary)
        # Texts are glued from the terms themselves (some upper-cased) and
        # short random runs, so hits and near-misses at every kind of
        # boundary are common.
        term_texts = [t for pair in entries for t in pair]
        pieces = st.one_of(
            st.sampled_from(term_texts),
            st.sampled_from(term_texts).map(str.upper),
            st.text(alphabet=self.alphabet, max_size=3),
        )
        texts = st.lists(pieces, max_size=10).map("".join)
        source, target = data.draw(texts), data.draw(texts)
        if not source.strip() or not target.strip():
            return
        seg = ParallelSegment(
            id="x", pair=en_es, source_text=source, target_text=target
        )
        got = [
            (p.source_term, p.target_term, p.first_source_offset)
            for p in matcher.find_candidates(seg)
        ]
        expected = brute_force_candidates(
            cleaned, seg.source_text, seg.target_text
        )
        assert got == expected

    def test_entries_sharing_a_source_term(self, en_es):
        glossary = glossary_of(
            en_es,
            ("dose", "dosis"),
            ("Dose", "toma"),
            ("dose", "posología"),
            ("insulin dose", "dosis de insulina"),
            ("insulin", "insulina"),
            ("STRASSE", "calle"),
            ("straße", "vía"),
        )
        matcher = TermMatcher(glossary)
        for source, target in (
            ("the insulin dose is low", "la dosis de insulina es baja"),
            ("one dose, one DOSE", "una toma, una posología"),
            ("dose the Straße", "la calle"),
            ("die strasse dose", "la vía, dosis y toma"),
            ("nothing here", "dosis toma calle"),
        ):
            seg = segment(en_es, source, target)
            got = [
                (p.source_term, p.target_term, p.first_source_offset)
                for p in matcher.find_candidates(seg)
            ]
            expected = brute_force_candidates(
                glossary.entries, seg.source_text, seg.target_text
            )
            assert got == expected, (source, target)

    def test_terms_sharing_a_head(self, en_es):
        glossary = glossary_of(
            en_es,
            ("dose", "dosis"),
            ("dose form", "forma farmacéutica"),
            ("dose-response", "dosis-respuesta"),
            ("dose.", "dosis"),
            ("doses", "dosis"),
        )
        matcher = TermMatcher(glossary)
        seg = segment(
            en_es,
            "the dose form, a dose-response curve and one dose.",
            "la forma farmacéutica, una curva dosis-respuesta y una dosis.",
        )
        got = [
            (p.source_term, p.target_term, p.first_source_offset)
            for p in matcher.find_candidates(seg)
        ]
        assert got == [
            ("dose-response", "dosis-respuesta", 17),
            ("dose form", "forma farmacéutica", 4),
            ("dose.", "dosis", 45),
            ("dose", "dosis", 4),
        ]
        assert got == brute_force_candidates(glossary.entries, seg.source_text, seg.target_text)

    @given(
        entries=st.lists(
            st.tuples(
                st.sampled_from(["ab", "AB", "a b", "ß", "SS", "ss a"]),
                st.sampled_from(["ab", "b", "ss", "ß b", "c"]),
            ),
            min_size=1,
            max_size=12,
        ),
        source=st.text(alphabet="abßS ,", min_size=1, max_size=30),
        target=st.text(alphabet="abcßS ,", min_size=1, max_size=30),
    )
    @settings(max_examples=300, deadline=None)
    def test_shared_source_terms_agree_with_brute_force(self, entries, source, target, en_es):
        glossary = glossary_of(en_es, *entries)
        matcher = TermMatcher(glossary)
        if not source.strip(" ,") or not target.strip(" ,"):
            return
        seg = segment(en_es, source, target)
        got = [
            (p.source_term, p.target_term, p.first_source_offset)
            for p in matcher.find_candidates(seg)
        ]
        assert got == brute_force_candidates(glossary.entries, seg.source_text, seg.target_text)

    def test_offsets_agree_on_fixture_corpus(self, fixtures_dir, en_es):
        from glossmt.corpus import load_parallel

        glossary = filter_by_reliability(
            load_glossary(fixtures_dir / "glossary_en_es.tsv", en_es), 3
        )
        matcher = build_matcher(glossary)
        segments = load_parallel(
            fixtures_dir / "emea.en", fixtures_dir / "emea.es", en_es
        )
        total = 0
        for seg in segments:
            got = [
                (p.source_term, p.target_term, p.first_source_offset)
                for p in matcher.find_candidates(seg)
            ]
            expected = brute_force_candidates(
                glossary.entries, seg.source_text, seg.target_text
            )
            assert got == expected, seg.id
            total += len(got)
        assert total > 0


def test_head_class_is_isalnum_on_every_code_point():
    # The matcher's head pattern spells "letter or digit" as [^\W_]; word
    # boundaries are checked with str.isalnum. They must agree everywhere.
    every = "".join(map(chr, range(sys.maxunicode + 1)))
    assert re.findall(r"[^\W_]", every) == [c for c in every if c.isalnum()]


class TestCandidateIO:
    def test_round_trip(self, tmp_path, en_es):
        pairs = [
            TermPair(source_term="a b", target_term="c", first_source_offset=3),
            TermPair(source_term="x", target_term="y", first_source_offset=None),
        ]
        path = tmp_path / "candidates.jsonl"
        write_candidates(path, [("7", pairs)], manifest={"mode": "test"})
        loaded = read_candidates(path)
        assert loaded == [("7", [
            TermPair(source_term="a b", target_term="c"),
            TermPair(source_term="x", target_term="y"),
        ])]

    def test_dump_uses_src_tgt_keys(self, tmp_path):
        import json

        path = tmp_path / "candidates.jsonl"
        write_candidates(
            path,
            [("1", [TermPair(source_term="a", target_term="b")])],
            manifest={},
        )
        lines = path.read_text(encoding="utf-8").splitlines()
        record = json.loads(lines[1])
        assert record["pairs"] == [{"src": "a", "tgt": "b"}]


class TestGlossaryTsvIO:
    def test_round_trip_with_manifest(self, tmp_path, en_es):
        entries = [entry("fever", "fiebre", 4, "1001"), entry("rash", "erupción", 2, "1001")]
        path = tmp_path / "glossary.tsv"
        write_glossary_tsv(path, entries, manifest={"source": "unit"})
        loaded = load_glossary(path, en_es)
        assert [e.key for e in loaded.entries] == [e.key for e in entries]
        assert [e.reliability for e in loaded.entries] == [4, 2]


class TestFormatErrors:
    def test_binary_garbage_reports_line(self, tmp_path, en_es):
        path = tmp_path / "glossary.tsv"
        path.write_bytes(b"fever\tfiebre\t4\t1\n\xff\xfe broken\n")
        with pytest.raises(FormatError) as exc:
            load_glossary(path, en_es)
        assert exc.value.line == 2
