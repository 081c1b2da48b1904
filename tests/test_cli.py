import argparse
import json
import logging
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import glossmt
from glossmt import runner
from glossmt._jsonl import read_records
from glossmt.cli import Layout, build_parser, main

CONFIG_TEMPLATE = """\
[project]
seed = {seed}
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
max_retries = {retries}
retry_backoff = 0.01

[scoring]
counting_scheme = whitespace
confidence_threshold = 0.5
mqm_tokens = raw

[pair.en-es]
source = {src}
target = {tgt}
glossary = {gls}
"""


def write_project(tmp_path, fixtures_dir, endpoint, seed=11, retries=2, name="pipeline.ini"):
    out = tmp_path / "out"
    path = tmp_path / name
    path.write_text(
        CONFIG_TEMPLATE.format(
            seed=seed,
            out=out,
            endpoint=endpoint,
            retries=retries,
            src=fixtures_dir / "emea.en",
            tgt=fixtures_dir / "emea.es",
            gls=fixtures_dir / "glossary_en_es.tsv",
        ),
        encoding="utf-8",
    )
    return path, Layout(out)


def run(*argv):
    return main([str(a) for a in argv])


def edit_config(config, old, new):
    text = config.read_text(encoding="utf-8")
    assert old in text
    config.write_text(text.replace(old, new), encoding="utf-8")


def add_pair_input(config, key, path):
    """Name an input in the en-es pair section, as one does once it exists."""
    edit_config(config, "[pair.en-es]\n", f"[pair.en-es]\n{key} = {path}\n")


def project_with(tmp_path, fixtures_dir, old, new):
    """A project config with one piece of text replaced."""
    config, _ = write_project(tmp_path, fixtures_dir, "http://127.0.0.1:9/echo")
    edit_config(config, old, new)
    return config


def translated_project(tmp_path, fixtures_dir, stub_endpoint):
    config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
    for step in ("ingest", "build", "translate"):
        assert run(step, "--config", config) == 0
    return config, layout


def assert_one_line_error(capsys, kind, text):
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert f"glossmt: {kind} error:" in err
    assert text in err


class TestPipeline:
    def test_full_run(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )

        assert run("ingest", "--config", config) == 0
        assert layout.corpus("en-es").is_file()
        assert layout.glossary("en-es").is_file()

        assert run("build", "--config", config) == 0
        assert layout.splits("en-es").is_file()
        assert layout.train_dataset("en-es").is_file()
        assert layout.test_dataset("en-es").is_file()
        assert layout.train_merged().is_file()
        assert layout.train_merged_text().is_file()
        assert layout.candidates("en-es", "train").is_file()
        assert layout.candidates("en-es", "test").is_file()

        assert run("translate", "--config", config) == 0
        assert layout.generations("en-es").is_file()
        assert layout.timing("en-es").is_file()
        assert layout.outputs("en-es").is_file()
        manifest = json.loads(layout.generation_manifest("en-es").read_text())
        assert manifest["records"] == 20
        assert manifest["errors"] == 0
        assert manifest["aborted"] is False

        add_pair_input(config, "annotations", fixtures_dir / "annotations_en_es.jsonl")
        assert run("score", "--config", config) == 0
        score_path = layout.score_file("stub-model", "en-es")
        assert score_path.is_file()
        data = json.loads(score_path.read_text(encoding="utf-8"))
        assert data["report"]["system"] == "stub-model"
        assert 0.0 <= data["report"]["bleu"] <= 100.0
        assert data["report"]["term_total"] >= 0
        # The fixture spans sit on segments 4, 10 and 12, none of which is in
        # the seed-11 test split, so none of them is counted.
        counts = data["mqm"]["counts"]
        assert (counts["minor"], counts["major"], counts["critical"]) == (0, 0, 0)
        assert counts["token_total"] > 0
        assert data["mqm"]["score"] == 100.0

        assert run("report", "--config", config) == 0
        assert (layout.reports_dir() / "report.md").is_file()
        assert (layout.reports_dir() / "metrics.csv").is_file()
        out = capsys.readouterr().out
        assert "bleu=" in out

    def test_default_config_runs_to_score(self, tmp_path, fixtures_dir, stub_endpoint):
        # No [template] and no [scoring]: the marker-less flan family with
        # whitespace counting, so nothing is truncated.
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        text = config.read_text(encoding="utf-8")
        config.write_text(re.sub(r"\[(template|scoring)\]\n(.+\n)+\n", "", text), encoding="utf-8")
        assert "[template]" not in config.read_text(encoding="utf-8")
        assert "[scoring]" not in config.read_text(encoding="utf-8")
        for step in ("ingest", "build", "translate", "score"):
            assert run(step, "--config", config) == 0
        rows = read_records(layout.outputs("en-es"), lambda row: row)
        assert len(rows) == 20
        assert all(row["truncated"] is False and row["scheme"] == "whitespace" for row in rows)

    def test_split_artifact_counts(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        lines = layout.splits("en-es").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        by_split = {}
        for row in rows:
            by_split.setdefault(row["split"], []).append(row["id"])
        assert len(by_split["tuning"]) == 60
        assert len(by_split["validation"]) == 20
        assert len(by_split["test"]) == 20
        all_ids = [i for ids in by_split.values() for i in ids]
        assert len(set(all_ids)) == 100

    def test_system_name_override(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        for step in ("ingest", "build", "translate"):
            assert run(step, "--config", config) == 0
        assert run("score", "--config", config, "--system", "run-a") == 0
        assert layout.score_file("run-a", "en-es").is_file()

    def test_system_name_with_slash_reaches_report(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config, "--system", "org/model") == 0
        score_path = layout.score_file("org/model", "en-es")
        assert score_path.parent == layout.scores_dir()
        assert json.loads(score_path.read_text(encoding="utf-8"))["report"]["system"] == "org/model"
        assert layout.score_file("stub-model", "en-es").name == "stub-model.en-es.json"
        assert run("report", "--config", config) == 0
        assert "org/model" in (layout.reports_dir() / "metrics.csv").read_text(encoding="utf-8")

    def test_lone_surrogate_in_reply_round_trips(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/surrogate")
        for step in ("ingest", "build", "translate", "score"):
            assert run(step, "--config", config) == 0
        text = layout.generations("en-es").read_text(encoding="utf-8")
        assert "\\ud800" in text
        records = runner.read_records(layout.generations("en-es"))
        assert len(records) == 20
        assert all(r.ok and r.raw_output.endswith(" \ud800") for r in records)

    def test_spans_are_checked_against_the_scored_outputs(
        self, tmp_path, fixtures_dir, stub_endpoint, caplog
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        outputs = read_records(layout.outputs("en-es"), dict)
        first, second = outputs[0], outputs[1]
        word = second["raw"].split()[0]
        spans = [
            {"segment_id": first["segment_id"], "span": "x", "severity": "minor", "confidence": 0.9},
            {"segment_id": second["segment_id"], "span": word, "severity": "major",
             "confidence": 0.9, "start": 0, "end": len(word)},
            # not a test segment: rejected with or without offsets
            {"segment_id": "unknown", "span": "x", "severity": "critical", "confidence": 0.9},
            {"segment_id": "unknown", "span": "x", "severity": "critical", "confidence": 0.9,
             "start": 0, "end": 1},
            # the offsets slice something other than the span text
            {"segment_id": second["segment_id"], "span": word + "!", "severity": "critical",
             "confidence": 0.9, "start": 0, "end": len(word)},
        ]
        annotations = tmp_path / "spans.jsonl"
        annotations.write_text("".join(json.dumps(span) + "\n" for span in spans), encoding="utf-8")
        add_pair_input(config, "annotations", annotations)
        with caplog.at_level(logging.WARNING):
            assert run("score", "--config", config) == 0
        counts = json.loads(layout.score_file("stub-model", "en-es").read_text(encoding="utf-8"))["mqm"]["counts"]
        assert (counts["minor"], counts["major"], counts["critical"]) == (1, 1, 0)
        reasons = [m.split("reason=")[1] for m in caplog.messages if "rejected_span" in m]
        assert reasons == ["unknown_segment", "unknown_segment", "offsets_mismatch"]

    def test_external_scores_are_checked_against_the_scored_outputs(
        self, tmp_path, fixtures_dir, stub_endpoint, caplog
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        first, second = (row["segment_id"] for row in read_records(layout.outputs("en-es"), dict)[:2])
        rows = [{"segment_id": "no-such-id", "name": "comet22", "value": 0.9}] * 3 + [
            {"segment_id": first, "name": "xcomet", "value": 0.25},
            {"segment_id": first, "name": "xcomet", "value": 1.0},
            {"segment_id": second, "name": "xcomet", "value": 0.75},
        ]
        scores = tmp_path / "external.jsonl"
        scores.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        add_pair_input(config, "external_scores", scores)
        with caplog.at_level(logging.WARNING):
            assert run("score", "--config", config) == 0
        data = json.loads(layout.score_file("stub-model", "en-es").read_text(encoding="utf-8"))
        assert data["report"]["external_scores"] == {"xcomet": 0.5}
        reasons = [m.split("reason=")[1] for m in caplog.messages if "rejected_score" in m]
        assert reasons == ["unknown_segment"] * 3 + ["duplicate"]

    def test_report_tables_every_score_file(self, tmp_path, fixtures_dir, stub_endpoint, caplog):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config, "--system", "sys") == 0
        en_es = json.loads(layout.score_file("sys", "en-es").read_text(encoding="utf-8"))
        en_es["report"]["pair"] = en_es["manifest"]["pair"] = "ja-ko"
        layout.score_file("sys", "ja-ko").write_text(json.dumps(en_es), encoding="utf-8")
        with caplog.at_level(logging.WARNING):
            assert run("report", "--config", config) == 0
        assert not caplog.messages
        header = (layout.reports_dir() / "metrics.csv").read_text(encoding="utf-8").splitlines()[1]
        assert header.split(",") == [
            "system", "en-es BLEU", "en-es chrF", "ja-ko BLEU", "ja-ko chrF"
        ]

    def test_report_rejects_two_score_files_for_one_system_and_pair(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config, "--system", "a") == 0
        original = layout.score_file("a", "en-es")
        copy = original.with_name("a-copy.en-es.json")
        copy.write_bytes(original.read_bytes())
        capsys.readouterr()
        assert run("report", "--config", config) == 1
        first, second = sorted([original, copy])
        assert_one_line_error(capsys, "usage", f"score files {first} and {second} both hold system a on pair en-es")



def run_fresh_process(config, stages, absent_modules):
    """Run ``stages`` in one new interpreter; fail if it imported any of ``absent_modules``."""
    script = (
        "import sys\n"
        "import glossmt, glossmt.cli\n"
        f"for stage in {tuple(stages)!r}:\n"
        "    assert glossmt.cli.main([stage, '--config', sys.argv[1]]) == 0, stage\n"
        f"for module in {tuple(absent_modules)!r}:\n"
        "    assert module not in sys.modules, module + ' was imported'\n"
    )
    src = str(Path(glossmt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    result = subprocess.run(
        [sys.executable, "-c", script, str(config)], env=env, capture_output=True, text=True
    )
    assert result.returncode == 0, result.stderr


SCORING_MODULES = ("glossmt.metrics", "glossmt.mqm", "glossmt.report")
HTTP_CLIENT_MODULES = ("urllib.request", "http.client", "ssl")


class TestStartup:
    def test_ingest_and_build_load_no_http_client(self, tmp_path, fixtures_dir):
        config, _ = write_project(tmp_path, fixtures_dir, "http://127.0.0.1:9")
        run_fresh_process(
            config,
            ("ingest", "build"),
            (*HTTP_CLIENT_MODULES, "xml.etree", "statistics", "concurrent.futures",
             "glossmt.runner", "glossmt.postprocess", *SCORING_MODULES),
        )

    def test_stages_after_translate_load_no_http_client(self, tmp_path, fixtures_dir, stub_endpoint):
        config, _ = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        run_fresh_process(config, ("postprocess", "score", "report"), HTTP_CLIENT_MODULES)

    def test_ingest_loads_only_its_own_modules(self, tmp_path, fixtures_dir):
        config, _ = write_project(tmp_path, fixtures_dir, "http://127.0.0.1:9")
        own = {"_jsonl", "cli", "config", "corpus", "errors", "prng", "promptgen", "terminology"}
        others = {path.stem for path in Path(glossmt.__file__).parent.glob("*.py")} - own - {"__init__"}
        assert others
        run_fresh_process(config, ("ingest",), tuple(f"glossmt.{name}" for name in sorted(others)))

    def test_translate_loads_no_scoring_module(self, tmp_path, fixtures_dir, stub_endpoint):
        config, _ = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        for step in ("ingest", "build"):
            assert run(step, "--config", config) == 0
        run_fresh_process(config, ("translate",), ("requests", *SCORING_MODULES))

    @pytest.mark.parametrize("stage", ["score", "report"])
    def test_scoring_stages_load_no_runner(self, tmp_path, fixtures_dir, stub_endpoint, stage):
        config, _ = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        if stage == "report":
            assert run("score", "--config", config) == 0
        run_fresh_process(config, (stage,), ("glossmt.runner", "concurrent.futures"))


class TestDeterminism:
    def collect(self, layout):
        names = [
            layout.splits("en-es"),
            layout.train_dataset("en-es"),
            layout.test_dataset("en-es"),
            layout.train_merged(),
            layout.train_merged_text(),
            layout.candidates("en-es", "test"),
            layout.generations("en-es"),
            layout.outputs("en-es"),
            layout.totals("en-es"),
            layout.score_file("stub-model", "en-es"),
            layout.reports_dir() / "metrics.csv",
            layout.reports_dir() / "report.md",
        ]
        return {p.relative_to(layout.root): p.read_bytes() for p in names}

    def test_identical_bytes_across_reruns(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )

        def pipeline():
            for argv in (
                ("ingest", "--config", config),
                ("build", "--config", config),
                ("translate", "--config", config),
                ("score", "--config", config),
            ):
                assert run(*argv) == 0

        pipeline()
        first = self.collect(layout)
        shutil.rmtree(layout.root)
        pipeline()
        second = self.collect(layout)
        assert first.keys() == second.keys()
        for name in first:
            assert first[name] == second[name], f"artifact differs across runs: {name}"

    def test_seed_changes_split(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        first = layout.splits("en-es").read_bytes()
        assert run("build", "--config", config, "--seed", "999") == 0
        assert layout.splits("en-es").read_bytes() != first


class TestExitCodes:
    def test_missing_artifact_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint):
        config, _ = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        assert run("build", "--config", config) == 1

    def test_bad_flag_value_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, _ = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        assert run("build", "--config", config, "--seed", "bogus") == 1
        assert_one_line_error(capsys, "usage", "--seed")

    def test_options_are_the_config_seed_pair_resume_and_system(self):
        subcommands = next(
            action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
        )
        options = {
            command: {option for action in parser._actions for option in action.option_strings}
            - {"-h", "--help"}
            for command, parser in subcommands.choices.items()
        }
        common = {"--config", "--seed", "--pair"}
        assert options == {
            "ingest": common,
            "build": common,
            "translate": common | {"--resume"},
            "postprocess": common,
            "score": common | {"--system"},
            "report": common,
        }

    @pytest.mark.parametrize(
        "argv",
        [
            "postprocess --scheme external",
            "postprocess --counts-file counts.jsonl",
            "score --scheme whitespace",
            "score --annotations spans.jsonl",
            "score --external-scores comet.jsonl",
            "score --threshold 0.5",
            "score --mqm-tokens cleaned",
        ],
    )
    def test_removed_flag_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys, argv):
        # These values are set in the config file, where the config hash covers them.
        config, _ = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        command, flag, value = argv.split()
        assert run(command, "--config", config, flag, value) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("glossmt: usage error:") and flag in err

    def test_no_truncation_scheme_in_config_is_usage_error(self, tmp_path, fixtures_dir, capsys):
        config = project_with(
            tmp_path,
            fixtures_dir,
            "counting_scheme = whitespace",
            "counting_scheme = no-truncation",
        )
        assert run("ingest", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "counting_scheme")

    def test_no_truncation_scheme_at_postprocess_is_usage_error(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys
    ):
        config, _ = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        capsys.readouterr()
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = no-truncation")
        assert run("postprocess", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "counting_scheme")

    def test_unknown_pair_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint):
        config, _ = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        assert run("ingest", "--config", config, "--pair", "en-zz") == 1

    def test_missing_config_is_usage_error(self, tmp_path):
        assert run("ingest", "--config", tmp_path / "absent.ini") == 1

    def test_config_with_leading_bom_is_accepted(self, tmp_path, fixtures_dir):
        config, layout = write_project(tmp_path, fixtures_dir, "http://127.0.0.1:9")
        config.write_bytes(b"\xef\xbb\xbf" + config.read_bytes())
        assert run("ingest", "--config", config) == 0
        assert layout.glossary("en-es").is_file()

    def test_corrupt_artifact_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        assert run("ingest", "--config", config) == 0
        layout.corpus("en-es").write_text("not json at all\n", encoding="utf-8")
        assert run("build", "--config", config) == 2

    def test_invalid_utf8_corpus_is_data_error(self, tmp_path, fixtures_dir, capsys):
        source = tmp_path / "corpus.en"
        source.write_bytes((fixtures_dir / "emea.en").read_bytes().replace(b"\n", b" \xff\n", 1))
        config = project_with(tmp_path, fixtures_dir, str(fixtures_dir / "emea.en"), str(source))
        assert run("ingest", "--config", config) == 2
        assert_one_line_error(capsys, "data", "not valid UTF-8 (line 1)")

    def test_invalid_utf8_template_is_data_error(self, tmp_path, fixtures_dir, capsys):
        template = tmp_path / "template.txt"
        template.write_bytes((fixtures_dir / "custom_template.txt").read_bytes() + b"\xff\n")
        config = project_with(tmp_path, fixtures_dir, "family = chatml", f"file = {template}")
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 2
        assert_one_line_error(capsys, "data", "not valid UTF-8 (line 16)")

    def test_unreachable_endpoint_is_endpoint_error(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, "http://127.0.0.1:9/echo", retries=0
        )
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        assert run("translate", "--config", config) == 3
        manifest = json.loads(layout.generation_manifest("en-es").read_text())
        assert manifest["aborted"] is True
        # The partial records match the manifest (their number depends on
        # thread timing) and are all errors; nothing past the abort is written.
        records = runner.read_records(layout.generations("en-es"))
        assert len(records) == manifest["records"]
        assert all(not r.ok for r in records)
        assert not layout.timing("en-es").exists()
        assert not layout.outputs("en-es").exists()


class TestScoreInputs:
    """``score`` maps missing and broken inputs onto the exit codes."""

    def rewrite_candidates(self, layout, edit):
        path = layout.candidates("en-es", "test")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")

    def test_missing_totals_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        layout.totals("en-es").unlink()
        add_pair_input(config, "annotations", fixtures_dir / "annotations_en_es.jsonl")
        assert run("score", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "run `glossmt translate` first")

    def test_corrupt_totals_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        layout.totals("en-es").write_text('{"totals": {}}\n', encoding="utf-8")
        add_pair_input(config, "annotations", fixtures_dir / "annotations_en_es.jsonl")
        assert run("score", "--config", config) == 2
        assert_one_line_error(capsys, "data", "bad totals file")

    def test_missing_candidates_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        layout.candidates("en-es", "test").unlink()
        assert run("score", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "run `glossmt build` first")

    def test_duplicate_candidate_ids_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        self.rewrite_candidates(layout, lambda lines: lines + [lines[1]])
        assert run("score", "--config", config) == 2
        assert_one_line_error(
            capsys, "data", f"{layout.candidates('en-es', 'test')}: bad record: duplicate segment_id"
        )

    def test_candidate_ids_differing_from_references_is_usage_error(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)

        def rename_first(lines):
            record = json.loads(lines[1])
            record["segment_id"] = "not-a-test-segment"
            return [lines[0], json.dumps(record), *lines[2:]]

        self.rewrite_candidates(layout, rename_first)
        assert run("score", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "not aligned")

    @pytest.mark.parametrize(
        "corrupt_line",
        ['{"segment_id": "0", "pairs": [', '{"segment_id": 0, "pairs": []}', '{"segment_id": "0"}'],
    )
    def test_corrupt_candidates_line_is_data_error(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys, corrupt_line
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        self.rewrite_candidates(layout, lambda lines: [*lines[:2], corrupt_line, *lines[3:]])
        assert run("score", "--config", config) == 2
        assert_one_line_error(capsys, "data", "(line 3)")


class TestReportInputs:
    """``report`` turns a broken score file into one line and exit code 2."""

    @pytest.mark.parametrize(
        "content",
        ['{"report": {"pair": "en-es"', '{"manifest": {}}', '{"report": {"system": "stub-model"}}'],
        ids=["corrupt", "keyless", "pairless"],
    )
    def test_broken_score_file_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys, content):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config) == 0
        layout.score_file("stub-model", "en-es").write_text(content + "\n", encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--config", config) == 2
        assert_one_line_error(capsys, "data", "bad score file")

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda data: data["report"].update(external_scores={"comet": "high"}),
            lambda data: data["report"].update(bleu=True),
            lambda data: data["report"].update(term_total=float(data["report"]["term_total"])),
            lambda data: data.update(
                mqm={
                    "counts": {
                        "minor": 0, "major": 0, "critical": 0,
                        "token_total": 0, "counting_scheme": "whitespace:cleaned",
                    },
                    "score": 100.0,
                }
            ),
        ],
        ids=["external-score-not-a-number", "bleu-is-bool", "term-total-not-int", "zero-token-total"],
    )
    def test_mistyped_score_file_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys, corrupt):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config) == 0
        data = json.loads(layout.score_file("stub-model", "en-es").read_text(encoding="utf-8"))
        corrupt(data)
        data["report"]["system"] = "other"
        bad = layout.score_file("other", "en-es")
        bad.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--config", config) == 2
        assert_one_line_error(capsys, "data", f"{bad}: bad score file")
        # score rewrites the reports from every score file, so it fails alike.
        assert run("score", "--config", config) == 2
        assert_one_line_error(capsys, "data", f"{bad}: bad score file")

    def test_duplicate_output_record_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        outputs = layout.outputs("en-es")
        lines = outputs.read_text(encoding="utf-8").splitlines(keepends=True)
        outputs.write_text("".join([*lines, lines[1]]), encoding="utf-8")
        capsys.readouterr()
        assert run("score", "--config", config) == 2
        assert_one_line_error(capsys, "data", f"{outputs}: bad record: duplicate segment_id")


class TestMatchOnce:
    """Terms are matched once, in ``build``; later steps reuse the result."""

    def test_score_does_not_need_the_glossary(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config) == 0
        with_glossary = layout.score_file("stub-model", "en-es").read_bytes()
        layout.glossary("en-es").unlink()
        assert run("score", "--config", config) == 0
        assert layout.score_file("stub-model", "en-es").read_bytes() == with_glossary

    def test_merged_train_records_carry_per_pair_terms(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        per_pair = {
            f"en-es:{record['segment_id']}": record["terms"]
            for record in read_records(layout.train_dataset("en-es"), dict)
        }
        merged = read_records(layout.train_merged(), dict)
        assert sorted(record["segment_id"] for record in merged) == sorted(per_pair)
        for record in merged:
            assert record["terms"] == per_pair[record["segment_id"]]
        assert any(record["terms"] for record in merged)


class TestResume:
    def test_resume_retries_only_failures(self, tmp_path, fixtures_dir, stub_endpoint):
        stub_endpoint.reset()
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/flaky", retries=0
        )
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        # every prompt's first request gets a 500 and retries are off
        assert run("translate", "--config", config) == 0
        rows = [
            json.loads(line)
            for line in layout.generations("en-es").read_text(encoding="utf-8").splitlines()[1:]
        ]
        failed = [row["segment_id"] for row in rows if row["error"]]
        assert len(failed) == 20
        requests_before = len(stub_endpoint.requests)

        assert run("translate", "--config", config, "--resume") == 0
        rows = [
            json.loads(line)
            for line in layout.generations("en-es").read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert all(row["error"] is None for row in rows)
        assert len(stub_endpoint.requests) - requests_before == len(failed)

    def test_resume_requests_again_under_another_model(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        config.write_text(
            config.read_text(encoding="utf-8").replace("model_name = stub-model", "model_name = other-model"),
            encoding="utf-8",
        )
        before = len(stub_endpoint.requests)
        assert run("translate", "--config", config, "--resume") == 0
        assert len(stub_endpoint.requests) - before == 20
        rows = read_records(layout.generations("en-es"), dict)
        assert len(rows) == 20
        assert {row["model"] for row in rows} == {"other-model"}
        assert {row["config"]["model"] for row in rows} == {"other-model"}

    def test_resume_with_all_ok_sends_nothing(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        for step in ("ingest", "build", "translate"):
            assert run(step, "--config", config) == 0
        before = len(stub_endpoint.requests)
        assert run("translate", "--config", config, "--resume") == 0
        assert len(stub_endpoint.requests) == before

    def test_resume_marks_carried_records_in_timing_sidecar(self, tmp_path, fixtures_dir, stub_endpoint):
        stub_endpoint.reset()
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/flaky-half", retries=0
        )
        for step in ("ingest", "build", "translate"):
            assert run(step, "--config", config) == 0
        rows = read_records(layout.generations("en-es"), dict)
        completed = {row["segment_id"] for row in rows if row["error"] is None}
        assert 0 < len(completed) < len(rows)

        assert run("translate", "--config", config, "--resume") == 0
        timing = read_records(layout.timing("en-es"), dict)
        assert len(timing) == len(rows)
        carried = [row for row in timing if row["segment_id"] in completed]
        fresh = [row for row in timing if row["segment_id"] not in completed]
        assert {row["segment_id"] for row in timing if row.get("carried")} == completed
        assert all(row["carried"] is True and row["seconds"] is None for row in carried)
        assert all("carried" not in row and row["seconds"] > 0 for row in fresh)


class TestPostprocessCommand:
    def test_external_counts_scheme(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        whitespace_hash = json.loads(layout.totals("en-es").read_text(encoding="utf-8"))["config_hash"]
        counts_file = tmp_path / "counts.jsonl"
        counts_file.write_text(
            "".join(
                json.dumps({"segment_id": row["segment_id"], "token_count": 7}) + "\n"
                for row in read_records(layout.generations("en-es"), dict)
            ),
            encoding="utf-8",
        )
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = external")
        add_pair_input(config, "external_counts", counts_file)
        assert run("postprocess", "--config", config) == 0
        data = json.loads(layout.totals("en-es").read_text(encoding="utf-8"))
        totals = data["totals"]
        assert totals["counting_scheme"] == "external"
        assert totals["token_total_raw"] == totals["token_total_cleaned"] == 7 * 20
        # The switch is in the config, so the totals carry a new hash.
        assert data["config_hash"] != whitespace_hash

    def test_external_scheme_requires_counts_file(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, _ = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        capsys.readouterr()
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = external")
        assert run("postprocess", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "external_counts")

    def test_translate_checks_counts_file_before_any_request(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys
    ):
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        for step in ("ingest", "build"):
            assert run(step, "--config", config) == 0
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = external")
        stub_endpoint.reset()
        capsys.readouterr()
        assert run("translate", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "external_counts")
        assert stub_endpoint.requests == []
        assert not layout.generations("en-es").exists()
