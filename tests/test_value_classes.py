"""The value semantics of every record class: equal fields compare and hash
equal, one changed field makes objects unequal, fields cannot be set or
deleted, and repr shows ``Name(field=value, ...)`` in constructor order."""

import ast
import importlib
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import glossmt
from glossmt import _jsonl
from glossmt.config import InferenceConfig, PairConfig, PipelineConfig
from glossmt.corpus import LanguagePair, ParallelSegment, SplitSpec
from glossmt.metrics import ScoreReport
from glossmt.mqm import ErrorSpan, SeverityCounts
from glossmt.postprocess import ModelOutput
from glossmt.promptgen import InstructionExample, TemplateSpec
from glossmt.runner import GenerationRecord
from glossmt.terminology import Glossary, GlossaryEntry, TermPair
from interpreters import OTHER_INTERPRETERS

EN_ES = LanguagePair("en", "es", "English", "Spanish")
ENTRY = GlossaryEntry("dose", "dosis", 4, "10")
PAIR_CONFIG = PairConfig(EN_ES, Path("a.en"), Path("a.es"), Path("g.tsv"))
INFERENCE = InferenceConfig(model_name="m")
SPLIT = SplitSpec(seed=1, tuning_size=6, validation_size=2, test_size=2)

# class -> (constructor keywords, in parameter order, with values that the
# constructor keeps as they are; one keyword with another value)
SAMPLES = {
    InferenceConfig: (
        dict(
            endpoint_url="http://127.0.0.1:8000/completions", model_name="m", top_p=0.9, temperature=0.5,
            max_new_tokens=64, request_timeout=5.0, max_concurrent_requests=2, max_retries=1, retry_backoff=0.1,
        ),
        {"model_name": "n"},
    ),
    PairConfig: (
        dict(
            pair=EN_ES, source_path=Path("a.en"), target_path=Path("a.es"), glossary_path=Path("g.tsv"),
            annotations_path=None, external_scores_path=None, external_counts_path=Path("c.jsonl"),
        ),
        {"glossary_path": Path("h.tsv")},
    ),
    PipelineConfig: (
        dict(
            output_dir=Path("out"), seed=1, pairs=(PAIR_CONFIG,), split=SPLIT, inference=INFERENCE, min_stars=3,
            template_family="flan", template_file=None, confidence_threshold=0.5, mqm_tokens="raw",
        ),
        {"seed": 2},
    ),
    LanguagePair: (
        dict(source_lang="en", target_lang="es", source_name="English", target_name="Spanish"),
        {"target_name": "Castilian"},
    ),
    ParallelSegment: (
        dict(id="7", pair=EN_ES, source_text="one dose", target_text="una dosis"),
        {"id": "8"},
    ),
    SplitSpec: (
        dict(seed=1, tuning_size=6, validation_size=2, test_size=2),
        {"test_size": 3},
    ),
    GlossaryEntry: (
        dict(source_term="dose", target_term="dosis", reliability=4, domain_id="10"),
        {"reliability": 3},
    ),
    Glossary: (
        dict(pair=EN_ES, entries=(ENTRY,)),
        {"entries": ()},
    ),
    TermPair: (
        dict(source_term="dose", target_term="dosis", first_source_offset=4),
        {"first_source_offset": None},
    ),
    TemplateSpec: (
        dict(
            family_id="t", with_terms_template="{glossary_type} {glossary_block}\n{source_segment}\n{target_segment}",
            without_terms_template="{source_segment}\n{target_segment}", target_region="\n{target_segment}",
            eos_marker="</s>",
        ),
        {"eos_marker": None},
    ),
    InstructionExample: (
        dict(
            segment_id="7", pair=EN_ES, mode="train", term_pairs=(TermPair("dose", "dosis"),),
            rendered_text="one dose\nuna dosis", family_id="t", target_text="una dosis",
        ),
        {"segment_id": "8"},
    ),
    ModelOutput: (
        dict(
            segment_id="7", raw_text="una dosis </s> más", cleaned_text="una dosis", truncated=True,
            token_count_raw=4, token_count_cleaned=2, counting_scheme="whitespace",
        ),
        {"truncated": False},
    ),
    GenerationRecord: (
        dict(
            segment_id="7", prompt_text="one dose", raw_output="una dosis", model_name="m", config={"model": "m"},
            attempts=1, error=None, duration_s=0.25,
        ),
        {"attempts": 2},
    ),
    ScoreReport: (
        dict(
            pair="en-es", system="base", bleu=33.3, chrf=55.5, term_accuracy=0.75, term_correct=3, term_total=4,
            external_scores={"comet": 0.8},
        ),
        {"bleu": 30.0},
    ),
    ErrorSpan: (
        dict(segment_id="7", span_text="dosis", severity="MAJ", confidence=0.9, start=4, end=9),
        {"severity": "MIN"},
    ),
    SeverityCounts: (
        dict(minor=5, major=3, critical=1, token_total=999, counting_scheme="whitespace:raw"),
        {"minor": 6},
    ),
}


def test_every_record_class_has_a_sample():
    package = Path(glossmt.__file__).parent
    classes = {
        value
        for path in package.glob("*.py")
        for value in vars(importlib.import_module(f"glossmt.{path.stem}")).values()
        if isinstance(value, type) and issubclass(value, _jsonl.Frozen) and value is not _jsonl.Frozen
    }
    assert classes == set(SAMPLES)


@pytest.mark.parametrize("cls", SAMPLES, ids=[cls.__name__ for cls in SAMPLES])
def test_value_semantics(cls):
    keywords, change = SAMPLES[cls]
    assert list(keywords) == list(inspect.signature(cls).parameters)
    obj = cls(**keywords)
    assert {name: getattr(obj, name) for name in keywords} == keywords

    same = cls(**keywords)
    assert obj == same and not obj != same
    values = tuple(keywords.values())
    if any(isinstance(value, dict) for value in values):
        with pytest.raises(TypeError):
            hash(obj)
    else:
        assert hash(obj) == hash(same) == hash(values)
    assert obj != values

    changed = cls(**{**keywords, **change})
    assert obj != changed and not obj == changed

    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(obj, name, getattr(obj, name))
        with pytest.raises(AttributeError):
            delattr(obj, name)
    with pytest.raises(AttributeError):
        obj.other = 1
    assert obj == same

    shown = ", ".join(f"{name}={value!r}" for name, value in keywords.items())
    assert repr(obj) == f"{cls.__name__}({shown})"


def test_a_field_left_unbound_fails_at_construction():
    class Point(_jsonl.Frozen):
        __slots__ = ("x", "y")

        def __init__(self, x):
            self._fill(locals())

    with pytest.raises(KeyError, match="'y'"):
        Point(1)


def test_only_frozen_sets_fields():
    def owners(node, owner=None):
        """The class around each ``object.__setattr__`` under ``node``."""
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute) and child.attr == "__setattr__":
                if getattr(child.value, "id", None) == "object":
                    yield owner
            yield from owners(child, child.name if isinstance(child, ast.ClassDef) else owner)

    package = Path(glossmt.__file__).parent
    found = {
        (path.name, owner)
        for path in package.glob("*.py")
        for owner in owners(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {("_jsonl.py", "Frozen")}


@pytest.mark.parametrize("python", OTHER_INTERPRETERS)
def test_records_are_alike_on_every_interpreter(python):
    # Records set their fields from locals(), which PEP 667 redefined in 3.13.
    script = Path(__file__).with_name("record_reprs.py")
    env = {**os.environ, "PYTHONPATH": str(Path(glossmt.__file__).parents[1])}

    def reprs(executable):
        return subprocess.run([executable, "-S", script], env=env, capture_output=True, text=True, check=True).stdout

    assert reprs(python) == reprs(sys.executable)
