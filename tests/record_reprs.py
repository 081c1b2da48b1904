"""Print one object of each record class, one line each: its repr, then the
value of every field, hidden ones included.

Each record's ``__init__`` sets its fields from ``locals()``, whose meaning
in a function PEP 667 changed in Python 3.13, so the lines must be the same
under every interpreter the package supports. The script imports no test
framework, so it runs under an interpreter that has none installed:

    PYTHONPATH=src python3.13 tests/record_reprs.py
"""

from pathlib import Path

from glossmt.config import InferenceConfig, PairConfig, PipelineConfig
from glossmt.corpus import LanguagePair, ParallelSegment, SplitSpec
from glossmt.metrics import ScoreReport
from glossmt.mqm import ErrorSpan, SeverityCounts
from glossmt.postprocess import ModelOutput
from glossmt.promptgen import InstructionExample, TemplateSpec
from glossmt.runner import GenerationRecord
from glossmt.terminology import Glossary, GlossaryEntry, TermPair


def samples() -> list:
    en_es = LanguagePair("en", "es", "English", "Spanish")
    entry = GlossaryEntry(" Dose ", "DOSIS", 4, "10")
    pair_config = PairConfig(en_es, Path("a.en"), Path("a.es"), Path("g.tsv"), external_counts_path=Path("c.jsonl"))
    inference = InferenceConfig("http://127.0.0.1:8000/completions", "m", 0.9, 0.5, 64, 5.0, 2, 1, 0.1)
    split = SplitSpec(seed=1, tuning_size=6, validation_size=2, test_size=2)
    term = TermPair("dose", "dosis", 4)
    return [
        inference,
        pair_config,
        PipelineConfig(Path("out"), 1, (pair_config,), split, inference, 3, "flan", None, 0.5, "cleaned"),
        en_es,
        ParallelSegment("7", en_es, "  one\tdose ", "una\n dosis"),
        split,
        entry,
        Glossary(en_es, (entry,)),
        term,
        TemplateSpec(
            "t", "{glossary_type} {glossary_block}\n{source_segment}\n{target_segment}",
            "{source_segment}\n{target_segment}", "\n{target_segment}", "</s>",
        ),
        InstructionExample("7", en_es, "train", (term,), "one dose\nuna dosis", "t", "una dosis"),
        ModelOutput("7", "una dosis </s> más", "una dosis", True, 4, 2, "whitespace"),
        GenerationRecord("7", "one dose", "una dosis", "m", {"model": "m"}, 1, None, 0.25),
        ScoreReport("en-es", "base", 33.3, 55.5, 0.75, 3, 4, None),
        ErrorSpan("7", "dosis", "MAJ", 0.9, 4, 9),
        SeverityCounts(5, 3, 1, 999, "whitespace:raw"),
    ]


if __name__ == "__main__":
    for record in samples():
        print(repr(record), [getattr(record, name) for name in record.__slots__])
