"""Terminology-constrained translation datasets, inference, and evaluation.

The pipeline: ingest line-aligned parallel corpora and TSV glossaries,
find glossary pairs realized in each segment (strict two-sided matching),
render instruction-tuning datasets and zero-shot test prompts, run prompts
against a completion-style HTTP endpoint, clean the outputs, and score them
(BLEU, chrF, terminology accuracy, MQM from error-span annotations).
"""

__version__ = "0.1.0"
