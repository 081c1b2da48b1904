"""Acceptance suite: the shipped guarantees, one test per criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion; each test additionally prints an ``ACCEPTANCE n: PASS``
line (shown with -s or -rA). The frozen strings and numbers here are
deliberately restated rather than imported from the unit tests, so that
weakening a unit-test constant cannot silently weaken the acceptance bar.
"""

import json
import random
import shutil
import time

import pytest

from glossmt.cli import main
from glossmt.corpus import LanguagePair, ParallelSegment, SplitSpec, load_parallel, split_corpus, write_segments
from glossmt.metrics import bleu, chrf, term_accuracy
from glossmt.mqm import SeverityCounts, filter_by_confidence, load_annotations, mqm_score, tally
from glossmt.postprocess import ModelOutput, postprocess_batch
from glossmt.promptgen import builtin_template, render_example
from glossmt.runner import GenerationRecord
from glossmt.terminology import (
    Glossary,
    GlossaryEntry,
    TermMatcher,
    build_matcher,
    filter_by_reliability,
    load_glossary,
)
from oracles import bleu_oracle, brute_force_candidates, chrf_oracle

EN_ES = LanguagePair.from_code("en-es")


def report_pass(number, name):
    print(f"ACCEPTANCE {number} ({name}): PASS")


# ---------------------------------------------------------------------------
# 1. Severity-weighted scoring reproduces the published per-system rows.

PUBLISHED_MQM_ROWS = [
    # (minor, major, critical, token_total) -> expected score
    ((145, 1277, 1240, 29569), 35.98),
    ((359, 1105, 450, 25225), 58.83),
    ((592, 241, 15, 11034), 82.35),
    ((583, 149, 13, 10906), 86.63),
]


def test_01_mqm_reproduces_published_rows():
    for (minor, major, critical, tokens), expected in PUBLISHED_MQM_ROWS:
        counts = SeverityCounts(
            minor=minor,
            major=major,
            critical=critical,
            token_total=tokens,
            counting_scheme="external",
        )
        assert mqm_score(counts) == pytest.approx(expected, abs=0.02), counts
    report_pass(1, "severity-weighted scoring vs published rows")


# ---------------------------------------------------------------------------
# 2. Prompt rendering is bit-exact against the frozen listings.

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
FROZEN_TRAIN_WITH_TERMS = (
    "Glossaries:\n"
    '"spectrum of activity" -> "espectro de actividad"\n'
    '"amoxicillin" -> "amoxicilina"\n'
    '"activity" -> "actividad"\n'
    "Translate the source text from English to Spanish following the provided "
    "translation glossaries.\n"
    f"English: {AMOX_SOURCE}\n"
    f"Spanish: {AMOX_TARGET}"
)
FROZEN_TRAIN_WITHOUT_TERMS = (
    "Translate the source text from English to Spanish.\n"
    "English: Do not use Cymevene if you are breast-feeding.\n"
    "Spanish: No use Cymevene si está en periodo de lactancia."
)
FROZEN_TEST_PROMPT = (
    "Glossary:\n"
    '"insulin" -> "insulina"\n'
    "Translate the source text from English to Spanish following the provided "
    "translation glossaries.\n"
    "English: Within-subject variability of the time action profile of Levemir "
    "and NPH insulin Pharmacodynamic Endpoint\n"
    "Spanish:"
)


def test_02_prompt_rendering_bit_exact():
    template = builtin_template("flan")
    glossary = Glossary(
        pair=EN_ES,
        entries=(
            GlossaryEntry("spectrum of activity", "espectro de actividad", 4, "1"),
            GlossaryEntry("amoxicillin", "amoxicilina", 4, "1"),
            GlossaryEntry("activity", "actividad", 4, "1"),
            GlossaryEntry("insulin", "insulina", 4, "1"),
        ),
    )
    matcher = TermMatcher(glossary)

    amox = ParallelSegment(
        id="0", pair=EN_ES, source_text=AMOX_SOURCE, target_text=AMOX_TARGET
    )
    rendered = render_example(
        amox, matcher.find_candidates(amox), template, mode="train"
    )
    assert rendered.rendered_text == FROZEN_TRAIN_WITH_TERMS

    cymevene = ParallelSegment(
        id="1",
        pair=EN_ES,
        source_text="Do not use Cymevene if you are breast-feeding.",
        target_text="No use Cymevene si está en periodo de lactancia.",
    )
    rendered = render_example(
        cymevene, matcher.find_candidates(cymevene), template, mode="train"
    )
    assert rendered.rendered_text == FROZEN_TRAIN_WITHOUT_TERMS

    levemir = ParallelSegment(
        id="2",
        pair=EN_ES,
        source_text=(
            "Within-subject variability of the time action profile of Levemir "
            "and NPH insulin Pharmacodynamic Endpoint"
        ),
        target_text="La variabilidad intraindividual de la insulina",
    )
    rendered = render_example(
        levemir, matcher.find_candidates(levemir), template, mode="test"
    )
    assert rendered.rendered_text == FROZEN_TEST_PROMPT
    assert all("\r" not in s for s in (
        FROZEN_TRAIN_WITH_TERMS, FROZEN_TRAIN_WITHOUT_TERMS, FROZEN_TEST_PROMPT
    ))
    report_pass(2, "prompt rendering bit-exact")


# ---------------------------------------------------------------------------
# 3. Head-indexed matcher == brute-force oracle on 1,000 seeded instances.

WORDS = [
    "dose", "insulin", "glargine", "fever", "rash", "renal", "impairment",
    "vial", "solution", "infusion", "tablet", "oral", "daily", "weekly",
    "adverse", "reaction", "straße", "báz", "amoxicillin", "activity",
    "spectrum", "of", "the", "a", "per", "mg", "ml", "x2", "beta",
]


def _random_term(rng: random.Random) -> str:
    words = rng.choices(WORDS, k=rng.choice([1, 1, 1, 2, 2, 3]))
    term = " ".join(words)
    if rng.random() < 0.3:
        term = term.upper() if rng.random() < 0.5 else term.title()
    return term


def _random_text(rng: random.Random, terms: list[str]) -> str:
    token_count = rng.randint(1, 80)
    tokens = rng.choices(WORDS, k=token_count)
    # sprinkle in whole glossary terms, case variants, and boundary traps
    for term in terms:
        if not tokens:
            break
        roll = rng.random()
        if roll < 0.45:
            form = term
            if rng.random() < 0.4:
                form = term.casefold() if rng.random() < 0.5 else term.upper()
            tokens.insert(rng.randrange(len(tokens) + 1), form)
        elif roll < 0.6:
            embedded = f"pre{term.split()[0]}fix"
            tokens.insert(rng.randrange(len(tokens) + 1), embedded)
    text = " ".join(tokens[:90])
    if rng.random() < 0.3:
        text = text.replace(" ", ", ", 1)
    return text


def test_03_matcher_oracle_equivalence_1000_instances():
    started = time.monotonic()
    rng = random.Random(20240817)

    # the subterm-inclusion shape is pinned as instance zero
    subterm_glossary = [
        GlossaryEntry("spectrum of activity", "espectro de actividad", 4, "1"),
        GlossaryEntry("activity", "actividad", 4, "1"),
    ]
    instances = [
        (
            subterm_glossary,
            "the spectrum of activity of amoxicillin",
            "el espectro de actividad de la amoxicilina",
        )
    ]
    for index in range(999):
        # mostly small glossaries, with the 500-entry bound exercised
        if index % 100 == 0:
            entry_count = 500
        else:
            entry_count = min(500, 1 + int(rng.expovariate(1 / 15)))
        by_key = {}
        while len(by_key) < entry_count:
            entry = GlossaryEntry(
                _random_term(rng), _random_term(rng), rng.randint(1, 4), "1"
            )
            by_key.setdefault(entry.key, entry)
        entries = list(by_key.values())
        sample = [e.source_term for e in rng.sample(entries, min(6, len(entries)))]
        target_sample = [e.target_term for e in rng.sample(entries, min(6, len(entries)))]
        instances.append(
            (entries, _random_text(rng, sample), _random_text(rng, target_sample))
        )

    assert len(instances) == 1000
    for entries, source, target in instances:
        glossary = Glossary(pair=EN_ES, entries=tuple(entries))
        matcher = TermMatcher(glossary)
        segment = ParallelSegment(
            id="x", pair=EN_ES, source_text=source, target_text=target
        )
        got = [
            (p.source_term, p.target_term, p.first_source_offset)
            for p in matcher.find_candidates(segment)
        ]
        expected = brute_force_candidates(
            entries, segment.source_text, segment.target_text
        )
        assert got == expected, (source, target)

    # instance zero must actually exhibit subterm inclusion
    first_matcher = TermMatcher(Glossary(pair=EN_ES, entries=tuple(subterm_glossary)))
    first = first_matcher.find_candidates(
        ParallelSegment(
            id="0",
            pair=EN_ES,
            source_text=instances[0][1],
            target_text=instances[0][2],
        )
    )
    assert [p.source_term for p in first] == ["spectrum of activity", "activity"]

    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"took {elapsed:.1f}s, budget is 60s"
    report_pass(3, f"matcher == oracle on 1000 instances in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. Split sizing, disjointness, determinism, seed sensitivity.


def test_04_split_properties(tmp_path):
    segments = [
        ParallelSegment(
            id=str(i), pair=EN_ES, source_text=f"source {i}", target_text=f"target {i}"
        )
        for i in range(2000)
    ]
    spec = SplitSpec(tuning_size=1600, validation_size=200, test_size=200, seed=21)
    tuning, validation, test = split_corpus(segments, spec)
    assert (len(tuning), len(validation), len(test)) == (1600, 200, 200)
    ids = [s.id for part in (tuning, validation, test) for s in part]
    assert len(set(ids)) == 2000

    def dump(path):
        write_segments(
            path,
            {"tuning": tuning, "validation": validation, "test": test},
            manifest={"seed": spec.seed},
        )
        return path.read_bytes()

    tuning, validation, test = split_corpus(segments, spec)
    first = dump(tmp_path / "a.jsonl")
    second = dump(tmp_path / "b.jsonl")
    assert first == second

    reseeded = SplitSpec(tuning_size=1600, validation_size=200, test_size=200, seed=22)
    _, _, other_test = split_corpus(segments, reseeded)
    assert {s.id for s in other_test} != {s.id for s in test}
    report_pass(4, "split sizes, disjointness, determinism, seed sensitivity")


# ---------------------------------------------------------------------------
# 5. BLEU / chrF equal the independent oracle on the frozen fixture.


def test_05_metric_oracle_equivalence(fixtures_dir):
    refs = (fixtures_dir / "metric_refs.txt").read_text(encoding="utf-8").splitlines()
    hyps = (fixtures_dir / "metric_hyps.txt").read_text(encoding="utf-8").splitlines()
    assert len(refs) == len(hyps) == 20

    assert abs(bleu(hyps, refs) - bleu_oracle(hyps, refs)) < 0.1
    assert abs(chrf(hyps, refs) - chrf_oracle(hyps, refs)) < 0.1
    assert bleu(refs, refs) == 100.0
    assert chrf(refs, refs) == 100.0
    disjoint_hyps = ["qq ww ee rr"] * 4
    disjoint_refs = ["aa bb cc dd"] * 4
    assert bleu(disjoint_hyps, disjoint_refs) == 0.0
    assert chrf(disjoint_hyps, disjoint_refs) == 0.0
    report_pass(5, "BLEU/chrF oracle equivalence, identity=100, disjoint=0")


# ---------------------------------------------------------------------------
# 6. Terminology accuracy: exact 1.0 and exact 0.75 fixtures.


def _as_output(segment_id, text):
    return ModelOutput(
        segment_id=segment_id,
        raw_text=text,
        cleaned_text=text,
        truncated=False,
        token_count_raw=len(text.split()),
        token_count_cleaned=len(text.split()),
        counting_scheme="whitespace",
    )


def test_06_terminology_accuracy(fixtures_dir):
    glossary = filter_by_reliability(
        load_glossary(fixtures_dir / "glossary_en_es.tsv", EN_ES), 3
    )
    matcher = build_matcher(glossary)
    segments = load_parallel(fixtures_dir / "emea.en", fixtures_dir / "emea.es", EN_ES)

    # MT output identical to the reference realizes every expected term
    outputs = [_as_output(s.id, s.target_text) for s in segments]
    accuracy, correct, total = term_accuracy(
        outputs, [(s.id, matcher.find_candidates(s)) for s in segments]
    )
    assert total > 0
    assert accuracy == 1.0 and correct == total

    # hand-enumerated 4-expected / 3-realized fixture
    hand_entries = (
        GlossaryEntry("insulin", "insulina", 4, "1"),
        GlossaryEntry("dose", "dosis", 4, "1"),
        GlossaryEntry("fever", "fiebre", 4, "1"),
        GlossaryEntry("rash", "erupción", 4, "1"),
    )
    hand_matcher = TermMatcher(Glossary(pair=EN_ES, entries=hand_entries))
    hand_segments = [
        ParallelSegment(
            id="0",
            pair=EN_ES,
            source_text="the insulin dose is low",
            target_text="la dosis de insulina es baja",
        ),
        ParallelSegment(
            id="1",
            pair=EN_ES,
            source_text="fever and rash were reported",
            target_text="se notificaron fiebre y erupción",
        ),
    ]
    hand_outputs = [
        _as_output("0", "la dosis de insulina parece baja"),
        _as_output("1", "se observó fiebre pero no la otra cosa"),
    ]
    accuracy, correct, total = term_accuracy(
        hand_outputs, [(s.id, hand_matcher.find_candidates(s)) for s in hand_segments]
    )
    assert (correct, total) == (3, 4)
    assert accuracy == 0.75
    report_pass(6, "terminology accuracy 1.0 and 0.75 fixtures")


# ---------------------------------------------------------------------------
# 7. Truncation cuts at the first end marker; cleaned <= raw; idempotent.


def test_07_truncation_and_overgeneration():
    template = builtin_template("llama3")
    assert template.eos_marker == "<|eot_id|>"
    records = [
        GenerationRecord(
            segment_id="0",
            prompt_text="p",
            raw_output="La dosis diaria.<|eot_id|>And here is an explanation<|eot_id|>",
            model_name="m",
            config={},
            attempts=1,
        ),
        GenerationRecord(
            segment_id="1",
            prompt_text="p",
            raw_output="Sin marcador de parada",
            model_name="m",
            config={},
            attempts=1,
        ),
        GenerationRecord(
            segment_id="2",
            prompt_text="p",
            raw_output="<|eot_id|>",
            model_name="m",
            config={},
            attempts=1,
        ),
    ]
    outputs, totals = postprocess_batch(records, template)
    assert outputs[0].cleaned_text == "La dosis diaria."
    assert outputs[0].truncated is True
    assert outputs[2].cleaned_text == ""
    assert all(o.token_count_cleaned <= o.token_count_raw for o in outputs)
    assert totals["token_total_cleaned"] <= totals["token_total_raw"]

    # idempotence: feeding cleaned text back through changes nothing
    again = [
        GenerationRecord(
            segment_id=o.segment_id,
            prompt_text="p",
            raw_output=o.cleaned_text,
            model_name="m",
            config={},
            attempts=1,
        )
        for o in outputs
    ]
    reprocessed, _ = postprocess_batch(again, template)
    for before, after in zip(outputs, reprocessed):
        assert after.cleaned_text == before.cleaned_text
        assert after.truncated is False
        assert after.token_count_cleaned == before.token_count_cleaned
    report_pass(7, "first-marker truncation, cleaned<=raw, idempotent")


# ---------------------------------------------------------------------------
# 8. Confidence filtering: 3 -> 2 -> 0 spans, MQM never decreases.


def test_08_confidence_filter_monotonicity(fixtures_dir):
    spans = load_annotations(fixtures_dir / "annotations_en_es.jsonl")
    assert sorted(s.confidence for s in spans) == [0.40, 0.50, 0.52]
    token_total = 400
    expected_counts = {0.0: 3, 0.5: 2, 0.6: 0}
    scores = []
    for threshold, expected in expected_counts.items():
        kept = filter_by_confidence(spans, threshold)
        assert len(kept) == expected, f"threshold {threshold}"
        scores.append(mqm_score(tally(kept, token_total, scheme="whitespace")))
    assert scores == sorted(scores), scores
    assert scores[-1] == 100.0
    report_pass(8, "confidence thresholds 3->2->0 spans, MQM non-decreasing")


# ---------------------------------------------------------------------------
# 9. End-to-end determinism against a stub endpoint.

PIPELINE_CONFIG = """\
[project]
seed = 11
output_dir = {out}

[split]
tuning = 60
validation = 20
test = 20

[terminology]
min_stars = 3

[template]
family = chatml

[inference]
endpoint_url = {endpoint}
model_name = stub-model
top_p = 0.9
max_new_tokens = 64
request_timeout = 5.0
max_concurrent_requests = 4
max_retries = 2
retry_backoff = 0.01

[scoring]
counting_scheme = whitespace
confidence_threshold = 0.5
mqm_tokens = raw

[pair.en-es]
source = {src}
target = {tgt}
glossary = {gls}
annotations = {ann}
"""


def test_09_end_to_end_determinism(tmp_path, fixtures_dir, stub_endpoint):
    started = time.monotonic()
    out = tmp_path / "out"
    config_path = tmp_path / "pipeline.ini"
    config_path.write_text(
        PIPELINE_CONFIG.format(
            out=out,
            endpoint=stub_endpoint.url + "/echo",
            src=fixtures_dir / "emea.en",
            tgt=fixtures_dir / "emea.es",
            gls=fixtures_dir / "glossary_en_es.tsv",
            ann=fixtures_dir / "annotations_en_es.jsonl",
        ),
        encoding="utf-8",
    )

    def pipeline():
        for command in ("ingest", "build", "translate", "score", "report"):
            code = main([command, "--config", str(config_path)])
            assert code == 0, f"{command} exited {code}"

    def snapshot():
        artifacts = {}
        for path in sorted(out.rglob("*")):
            if not path.is_file():
                continue
            if path.name.endswith(".timing.jsonl"):
                continue  # wall-clock sidecar, excluded by design
            artifacts[str(path.relative_to(out))] = path.read_bytes()
        return artifacts

    pipeline()
    first = snapshot()
    assert any("datasets" in name for name in first)
    assert any("reports" in name for name in first)
    shutil.rmtree(out)
    pipeline()
    second = snapshot()

    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"artifact differs between runs: {name}"

    score_data = json.loads(
        first["scores/stub-model.en-es.json"].decode("utf-8")
    )
    assert score_data["mqm"] is not None

    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"took {elapsed:.1f}s, budget is 120s"
    report_pass(9, f"end-to-end byte-identical reruns in {elapsed:.1f}s")
