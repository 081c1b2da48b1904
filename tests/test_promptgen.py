import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from glossmt.corpus import ParallelSegment
from glossmt.errors import FormatError, TemplateError, UsageError
from glossmt.promptgen import (
    FAMILIES,
    InstructionExample,
    TemplateSpec,
    build_dataset,
    builtin_template,
    dataset_stats,
    load_template_file,
    read_dataset,
    render_example,
    render_glossary_block,
    write_dataset,
    write_dataset_rawtext,
)
from glossmt.terminology import Glossary, GlossaryEntry, TermPair, build_matcher

AMOX_SOURCE = (
    "Amoxicillin is susceptible to degradation by beta-lactamases produced by "
    "resistant bacteria and therefore the spectrum of activity of amoxicillin "
    "alone does not include organisms which produce these enzymes."
)
AMOX_TARGET = (
    "La amoxicilina es sensible a la degradación por las beta-lactamasas "
    "producidas por bacterias resistentes y por tanto el espectro de actividad "
    "de la amoxicilina sola no incluye microorganismos productores de estas "
    "enzimas."
)

# Frozen rendered strings. These bytes are the compatibility contract for
# the three builtin families; any change to them breaks downstream prompts.
FLAN_TRAIN_WITH_TERMS = (
    "Glossaries:\n"
    '"spectrum of activity" -> "espectro de actividad"\n'
    '"amoxicillin" -> "amoxicilina"\n'
    '"activity" -> "actividad"\n'
    "Translate the source text from English to Spanish following the provided "
    "translation glossaries.\n"
    f"English: {AMOX_SOURCE}\n"
    f"Spanish: {AMOX_TARGET}"
)
FLAN_TRAIN_WITHOUT_TERMS = (
    "Translate the source text from English to Spanish.\n"
    "English: Do not use Cymevene if you are breast-feeding.\n"
    "Spanish: No use Cymevene si está en periodo de lactancia."
)
FLAN_TEST_SINGLE_TERM = (
    "Glossary:\n"
    '"insulin" -> "insulina"\n'
    "Translate the source text from English to Spanish following the provided "
    "translation glossaries.\n"
    "English: Within-subject variability of the time action profile of Levemir "
    "and NPH insulin Pharmacodynamic Endpoint\n"
    "Spanish:"
)


def pairs_of(*items):
    return [TermPair(source_term=s, target_term=t) for s, t in items]


def amox_segment(en_es):
    return ParallelSegment(
        id="0", pair=en_es, source_text=AMOX_SOURCE, target_text=AMOX_TARGET
    )


class TestGlossaryBlock:
    def test_plural_header_for_many(self):
        header, block = render_glossary_block(pairs_of(("a", "b"), ("c", "d")))
        assert header == "Glossaries:"
        assert block == '"a" -> "b"\n"c" -> "d"'

    def test_singular_header_for_one(self):
        header, block = render_glossary_block(pairs_of(("insulin", "insulina")))
        assert header == "Glossary:"
        assert block == '"insulin" -> "insulina"'


class TestFlanRendering:
    def test_train_with_terms_exact_bytes(self, en_es):
        example = render_example(
            amox_segment(en_es),
            pairs_of(
                ("spectrum of activity", "espectro de actividad"),
                ("amoxicillin", "amoxicilina"),
                ("activity", "actividad"),
            ),
            builtin_template("flan"),
            mode="train",
        )
        assert example.rendered_text == FLAN_TRAIN_WITH_TERMS
        assert example.target_text == AMOX_TARGET

    def test_train_without_terms_exact_bytes(self, en_es):
        segment = ParallelSegment(
            id="1",
            pair=en_es,
            source_text="Do not use Cymevene if you are breast-feeding.",
            target_text="No use Cymevene si está en periodo de lactancia.",
        )
        example = render_example(segment, [], builtin_template("flan"), mode="train")
        assert example.rendered_text == FLAN_TRAIN_WITHOUT_TERMS

    def test_test_mode_single_term_exact_bytes(self, en_es):
        segment = ParallelSegment(
            id="2",
            pair=en_es,
            source_text=(
                "Within-subject variability of the time action profile of "
                "Levemir and NPH insulin Pharmacodynamic Endpoint"
            ),
            target_text="irrelevant for the prompt",
        )
        example = render_example(
            segment,
            pairs_of(("insulin", "insulina")),
            builtin_template("flan"),
            mode="test",
        )
        assert example.rendered_text == FLAN_TEST_SINGLE_TERM
        assert example.target_text is None

    def test_test_prompt_is_train_prompt_minus_target_region(self, en_es):
        template = builtin_template("flan")
        segment = amox_segment(en_es)
        pairs = pairs_of(("amoxicillin", "amoxicilina"))
        train = render_example(segment, pairs, template, mode="train")
        test = render_example(segment, pairs, template, mode="test")
        rebuilt = test.rendered_text + template.target_region.replace(
            "{target_segment}", segment.target_text
        )
        assert rebuilt == train.rendered_text


class TestOtherFamilies:
    def test_llama3_train_markers(self, en_es):
        example = render_example(
            amox_segment(en_es),
            pairs_of(("activity", "actividad")),
            builtin_template("llama3"),
            mode="train",
        )
        text = example.rendered_text
        assert text.startswith("<|begin_of_text|><|start_header_id|>system<|end_header_id|>")
        assert text.endswith(f"{AMOX_TARGET}<|eot_id|>")
        assert "Glossary:" in text

    def test_llama3_test_stops_at_assistant_cue(self, en_es):
        example = render_example(
            amox_segment(en_es), [], builtin_template("llama3"), mode="test"
        )
        assert example.rendered_text.endswith(
            "<|start_header_id|>assistant<|end_header_id|>\n"
        )
        assert "{target_segment}" not in example.rendered_text

    def test_chatml_eos_marker(self, en_es):
        template = builtin_template("chatml")
        assert template.eos_marker == "<|im_end|>"
        example = render_example(
            amox_segment(en_es), [], template, mode="train"
        )
        assert example.rendered_text.endswith(f"{AMOX_TARGET}<|im_end|>")
        test = render_example(amox_segment(en_es), [], template, mode="test")
        assert test.rendered_text.endswith("<|im_start|>assistant\n")

    def test_unknown_family(self):
        with pytest.raises(UsageError):
            builtin_template("alpaca")

    def test_all_families_only_lf_newlines(self):
        for spec in FAMILIES.values():
            assert "\r" not in spec.with_terms_template
            assert "\r" not in spec.without_terms_template


class TestInjectionSafety:
    def test_placeholder_text_in_segment_is_not_expanded(self, en_es):
        segment = ParallelSegment(
            id="9",
            pair=en_es,
            source_text="literal {glossary_block} and {target_segment} here",
            target_text="uno {source_segment} dos",
        )
        example = render_example(segment, [], builtin_template("flan"), mode="train")
        assert "literal {glossary_block} and {target_segment} here" in example.rendered_text
        assert example.rendered_text.endswith("uno {source_segment} dos")

    def test_terms_with_braces_are_preserved(self, en_es):
        example = render_example(
            amox_segment(en_es),
            pairs_of(("amoxicillin", "{target_segment}")),
            builtin_template("flan"),
            mode="train",
        )
        assert '"amoxicillin" -> "{target_segment}"' in example.rendered_text


class TestRoundTripProperty:
    text_strategy = st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=50
    ).filter(lambda s: s.strip())

    @given(source=text_strategy, target=text_strategy)
    @settings(max_examples=150, deadline=None)
    def test_every_family_round_trips(self, source, target, en_es):
        segment = ParallelSegment(
            id="p", pair=en_es, source_text=source, target_text=target
        )
        for family in FAMILIES:
            template = builtin_template(family)
            train = render_example(segment, [], template, mode="train")
            test = render_example(segment, [], template, mode="test")
            filled_region = template.target_region.replace(
                "{target_segment}", segment.target_text
            )
            assert test.rendered_text + filled_region == train.rendered_text


class TestTemplateSpecValidation:
    def test_unknown_placeholder_rejected(self):
        with pytest.raises(TemplateError):
            TemplateSpec(
                family_id="x",
                with_terms_template="{bogus} {target_segment}",
                without_terms_template="{target_segment}",
                target_region="{target_segment}",
                eos_marker=None,
            )

    def test_target_region_must_appear(self):
        with pytest.raises(TemplateError):
            TemplateSpec(
                family_id="x",
                with_terms_template="{glossary_block} {target_segment}",
                without_terms_template="{target_segment}",
                target_region="MISSING {target_segment}",
                eos_marker=None,
            )

    def test_glossary_placeholders_banned_from_without_terms(self):
        with pytest.raises(TemplateError):
            TemplateSpec(
                family_id="x",
                with_terms_template="{glossary_block} {target_segment}",
                without_terms_template="{glossary_block} {target_segment}",
                target_region=" {target_segment}",
                eos_marker=None,
            )

    def test_empty_eos_marker_rejected(self):
        with pytest.raises(TemplateError, match="eos_marker must be non-empty or None"):
            TemplateSpec(
                family_id="x",
                with_terms_template="{glossary_block} {target_segment}",
                without_terms_template="{target_segment}",
                target_region=" {target_segment}",
                eos_marker="",
            )

    def test_target_segment_required_in_region(self):
        with pytest.raises(TemplateError):
            TemplateSpec(
                family_id="x",
                with_terms_template="{glossary_block} {target_segment}",
                without_terms_template="{target_segment}",
                target_region="no placeholder",
                eos_marker=None,
            )


class TestTemplateFile:
    def test_load_custom_template(self, fixtures_dir, en_es):
        template = load_template_file(fixtures_dir / "custom_template.txt")
        assert template.family_id == "demo"
        assert template.eos_marker == "<END>"
        segment = ParallelSegment(
            id="1", pair=en_es, source_text="hello world", target_text="hola mundo"
        )
        train = render_example(segment, [], template, mode="train")
        assert train.rendered_text.endswith("hola mundo<END>")
        test = render_example(segment, [], template, mode="test")
        assert "{target_segment}" not in test.rendered_text
        assert not test.rendered_text.endswith("<END>")

    def test_leading_bom_is_accepted(self, tmp_path, fixtures_dir):
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbf" + (fixtures_dir / "custom_template.txt").read_bytes())
        assert load_template_file(path) == load_template_file(fixtures_dir / "custom_template.txt")

    def test_invalid_utf8_is_format_error_with_line(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_bytes(b"family_id: demo\n\xff\n")
        with pytest.raises(FormatError) as exc:
            load_template_file(path)
        assert exc.value.line == 2

    def test_unicode_line_separator_stays_in_its_line(self, tmp_path, fixtures_dir):
        text = (fixtures_dir / "custom_template.txt").read_text(encoding="utf-8")
        path = tmp_path / "separator.txt"
        path.write_text(text.replace("Render ", "Render\u2028"), encoding="utf-8")
        template = load_template_file(path)
        assert "Render\u2028{source_id}" in template.with_terms_template
        assert "Render\n" not in template.with_terms_template

    def test_missing_section_is_format_error(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text(
            "family_id: x\ntarget_region: {target_segment}\n"
            "--- with_terms ---\n{glossary_block} {target_segment}\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError):
            load_template_file(path)

    def test_invalid_template_body_is_format_error(self, tmp_path):
        path = tmp_path / "broken.txt"
        path.write_text(
            "family_id: x\ntarget_region: {target_segment}\n"
            "--- with_terms ---\n{nonsense} {target_segment}\n"
            "--- without_terms ---\n{target_segment}\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError):
            load_template_file(path)


class TestDatasetBuild:
    def make_matcher(self, en_es):
        entries = (
            GlossaryEntry("amoxicillin", "amoxicilina", 4, "1"),
            GlossaryEntry("activity", "actividad", 4, "1"),
        )
        return build_matcher(Glossary(pair=en_es, entries=entries))

    def test_build_and_stats(self, en_es):
        segments = [
            amox_segment(en_es),
            ParallelSegment(
                id="1", pair=en_es, source_text="no terms here", target_text="sin nada"
            ),
        ]
        examples = build_dataset(
            segments, self.make_matcher(en_es), builtin_template("flan"), mode="train"
        )
        assert [e.segment_id for e in examples] == ["0", "1"]
        assert examples[0].term_pairs and not examples[1].term_pairs
        stats = dataset_stats(examples)
        assert stats == {"examples": 2, "with_terms": 1, "total_pairs": 2}

    def test_write_read_round_trip(self, tmp_path, en_es):
        segments = [amox_segment(en_es)]
        examples = build_dataset(
            segments, self.make_matcher(en_es), builtin_template("flan"), mode="train"
        )
        path = tmp_path / "train.jsonl"
        write_dataset(path, examples, manifest={"family": "flan"})
        loaded = read_dataset(path, en_es)
        # offsets live in the candidates artifact, not the dataset dump
        def without_offsets(example):
            return InstructionExample(
                segment_id=example.segment_id,
                pair=example.pair,
                mode=example.mode,
                term_pairs=tuple(
                    TermPair(source_term=p.source_term, target_term=p.target_term)
                    for p in example.term_pairs
                ),
                rendered_text=example.rendered_text,
                family_id=example.family_id,
                target_text=example.target_text,
            )

        assert loaded == [without_offsets(e) for e in examples]

    def test_dump_schema(self, tmp_path, en_es):
        examples = build_dataset(
            [amox_segment(en_es)],
            self.make_matcher(en_es),
            builtin_template("flan"),
            mode="test",
        )
        path = tmp_path / "test.jsonl"
        write_dataset(path, examples, manifest={})
        record = json.loads(path.read_text(encoding="utf-8").splitlines()[1])
        assert record["segment_id"] == "0"
        assert record["mode"] == "test"
        assert record["family"] == "flan"
        assert record["terms"] == [
            {"src": "amoxicillin", "tgt": "amoxicilina"},
            {"src": "activity", "tgt": "actividad"},
        ]
        assert "target" not in record

    def test_rawtext_blocks(self, tmp_path, en_es):
        examples = [
            render_example(
                ParallelSegment(
                    id=str(i), pair=en_es, source_text=f"s{i}", target_text=f"t{i}"
                ),
                [],
                builtin_template("flan"),
                mode="train",
            )
            for i in range(2)
        ]
        path = tmp_path / "train.txt"
        write_dataset_rawtext(path, examples)
        content = path.read_text(encoding="utf-8")
        assert content == examples[0].rendered_text + "\n\n" + examples[1].rendered_text + "\n"


class TestExampleValidation:
    def test_train_requires_target(self, en_es):
        with pytest.raises(UsageError):
            InstructionExample(
                segment_id="1",
                pair=en_es,
                mode="train",
                term_pairs=(),
                rendered_text="x",
                family_id="flan",
                target_text=None,
            )

    def test_test_forbids_target(self, en_es):
        with pytest.raises(UsageError):
            InstructionExample(
                segment_id="1",
                pair=en_es,
                mode="test",
                term_pairs=(),
                rendered_text="x",
                family_id="flan",
                target_text="y",
            )

    def test_unknown_mode(self, en_es):
        with pytest.raises(UsageError):
            InstructionExample(
                segment_id="1",
                pair=en_es,
                mode="eval",
                term_pairs=(),
                rendered_text="x",
                family_id="flan",
            )
