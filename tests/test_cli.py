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
from glossmt import cli, runner
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


def translated_project(tmp_path, fixtures_dir, stub_endpoint, model_name="stub-model"):
    config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
    if model_name != "stub-model":
        edit_config(config, "model_name = stub-model\n", f"model_name = {model_name}\n")
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
        assert layout.path("corpus", "en-es").is_file()
        assert layout.path("glossary", "en-es").is_file()

        assert run("build", "--config", config) == 0
        assert layout.path("splits", "en-es").is_file()
        assert layout.path("train_dataset", "en-es").is_file()
        assert layout.path("test_dataset", "en-es").is_file()
        assert layout.path("train_merged").is_file()
        assert layout.path("train_merged_text").is_file()
        assert layout.path("candidates", "en-es", mode="train").is_file()
        assert layout.path("candidates", "en-es", mode="test").is_file()

        assert run("translate", "--config", config) == 0
        assert layout.path("generations", "en-es").is_file()
        assert layout.path("timing", "en-es").is_file()
        assert layout.path("outputs", "en-es").is_file()
        manifest = json.loads(layout.path("generation_manifest", "en-es").read_text())
        assert manifest["records"] == 20
        assert manifest["errors"] == 0
        assert manifest["aborted"] is False

        add_pair_input(config, "annotations", fixtures_dir / "annotations_en_es.jsonl")
        assert run("score", "--config", config) == 0
        score_path = layout.path("score_file", "en-es", system="stub-model")
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
        rows = read_records(layout.path("outputs", "en-es"), lambda row: row)
        assert len(rows) == 20
        assert all(row["truncated"] is False and row["scheme"] == "whitespace" for row in rows)

    def test_split_artifact_counts(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        lines = layout.path("splits", "en-es").read_text(encoding="utf-8").splitlines()
        rows = [json.loads(line) for line in lines[1:]]
        by_split = {}
        for row in rows:
            by_split.setdefault(row["split"], []).append(row["id"])
        assert len(by_split["tuning"]) == 60
        assert len(by_split["validation"]) == 20
        assert len(by_split["test"]) == 20
        all_ids = [i for ids in by_split.values() for i in ids]
        assert len(set(all_ids)) == 100

    def test_system_name_is_the_model_name(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint, model_name="run-a")
        assert run("score", "--config", config) == 0
        assert layout.path("score_file", "en-es", system="run-a").is_file()

    def test_system_name_with_slash_reaches_report(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint, model_name="org/model")
        assert run("score", "--config", config) == 0
        score_path = layout.path("score_file", "en-es", system="org/model")
        assert score_path.parent == layout.scores_dir()
        assert json.loads(score_path.read_text(encoding="utf-8"))["report"]["system"] == "org/model"
        assert layout.path("score_file", "en-es", system="stub-model").name == "stub-model.en-es.json"
        assert run("report", "--config", config) == 0
        assert "org/model" in (layout.reports_dir() / "metrics.csv").read_text(encoding="utf-8")

    def test_lone_surrogate_in_reply_round_trips(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/surrogate")
        for step in ("ingest", "build", "translate", "score"):
            assert run(step, "--config", config) == 0
        text = layout.path("generations", "en-es").read_text(encoding="utf-8")
        assert "\\ud800" in text
        records = runner.read_records(layout.path("generations", "en-es"))
        assert len(records) == 20
        assert all(r.ok and r.raw_output.endswith(" \ud800") for r in records)

    def test_spans_are_checked_against_the_scored_outputs(
        self, tmp_path, fixtures_dir, stub_endpoint, caplog
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        outputs = read_records(layout.path("outputs", "en-es"), dict)
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
        counts = json.loads(layout.path("score_file", "en-es", system="stub-model").read_text(encoding="utf-8"))["mqm"]["counts"]
        assert (counts["minor"], counts["major"], counts["critical"]) == (1, 1, 0)
        reasons = [m.split("reason=")[1] for m in caplog.messages if "rejected_span" in m]
        assert reasons == ["unknown_segment", "unknown_segment", "offsets_mismatch"]

    def test_external_scores_are_checked_against_the_scored_outputs(
        self, tmp_path, fixtures_dir, stub_endpoint, caplog
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        first, second = (row["segment_id"] for row in read_records(layout.path("outputs", "en-es"), dict)[:2])
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
        data = json.loads(layout.path("score_file", "en-es", system="stub-model").read_text(encoding="utf-8"))
        assert data["report"]["external_scores"] == {"xcomet": 0.5}
        reasons = [m.split("reason=")[1] for m in caplog.messages if "rejected_score" in m]
        assert reasons == ["unknown_segment"] * 3 + ["duplicate"]

    def test_report_tables_every_score_file(self, tmp_path, fixtures_dir, stub_endpoint, caplog):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint, model_name="sys")
        assert run("score", "--config", config) == 0
        en_es = json.loads(layout.path("score_file", "en-es", system="sys").read_text(encoding="utf-8"))
        en_es["report"]["pair"] = en_es["manifest"]["pair"] = "ja-ko"
        layout.path("score_file", "ja-ko", system="sys").write_text(json.dumps(en_es), encoding="utf-8")
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
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint, model_name="a")
        assert run("score", "--config", config) == 0
        original = layout.path("score_file", "en-es", system="a")
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
        run_fresh_process(config, ("score", "report"), HTTP_CLIENT_MODULES)

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
            layout.path("splits", "en-es"),
            layout.path("train_dataset", "en-es"),
            layout.path("test_dataset", "en-es"),
            layout.path("train_merged"),
            layout.path("train_merged_text"),
            layout.path("candidates", "en-es", mode="test"),
            layout.path("generations", "en-es"),
            layout.path("outputs", "en-es"),
            layout.path("score_file", "en-es", system="stub-model"),
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
        first = layout.path("splits", "en-es").read_bytes()
        edit_config(config, "seed = 11\n", "seed = 999\n")
        assert run("build", "--config", config) == 0
        assert layout.path("splits", "en-es").read_bytes() != first


class TestExitCodes:
    def test_interrupt_exits_130_with_one_line(self, tmp_path, fixtures_dir, monkeypatch, capsys):
        config, _ = write_project(tmp_path, fixtures_dir, "http://127.0.0.1:9/echo")

        def interrupted(*args, **kwargs):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "cmd_ingest", interrupted)
        assert run("ingest", "--config", config) == 130
        assert capsys.readouterr().err == "glossmt: interrupted\n"

    def test_missing_artifact_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint):
        config, _ = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        assert run("build", "--config", config) == 1

    def test_options_are_the_config_and_pair(self):
        subcommands = next(
            action for action in build_parser()._actions if isinstance(action, argparse._SubParsersAction)
        )
        options = {
            command: {option for action in parser._actions for option in action.option_strings}
            - {"-h", "--help"}
            for command, parser in subcommands.choices.items()
        }
        common = {"--config", "--pair"}
        assert options == {command: common for command in ("ingest", "build", "translate", "score", "report")}

    @pytest.mark.parametrize(
        "argv",
        [
            "build --seed 5",
            "translate --resume",
            "translate --scheme external",
            "translate --counts-file counts.jsonl",
            "score --scheme whitespace",
            "score --annotations spans.jsonl",
            "score --external-scores comet.jsonl",
            "score --threshold 0.5",
            "score --mqm-tokens cleaned",
            "score --system run-a",
        ],
    )
    def test_removed_flag_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys, argv):
        # These values are set in the config file only, where the config hash covers them.
        config, _ = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        command, flag, *value = argv.split()
        assert run(command, "--config", config, flag, *value) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("glossmt: usage error:") and flag in err

    @pytest.mark.parametrize(
        "old, new, named",
        [
            ("max_concurrent_requests = 4", "max_concurent_requests = 8", "'max_concurent_requests' in [inference]"),
            ("mqm_tokens = raw", "mqm_token = cleaned", "'mqm_token' in [scoring]"),
            ("glossary =", "glosary =", "'glosary' in [pair.en-es]"),
            ("[scoring]", "[scoreing]", "unknown section [scoreing]"),
            ("[project]", "[DEFAULT]\nseed = 3\n\n[project]", "unknown section [DEFAULT]"),
        ],
        ids=["unknown-key", "unknown-scoring-key", "unknown-pair-key", "unknown-section", "default-section"],
    )
    def test_unknown_config_key_or_section_is_usage_error(self, tmp_path, fixtures_dir, capsys, old, new, named):
        # A typo would otherwise run with the default it meant to replace.
        config = project_with(tmp_path, fixtures_dir, old, new)
        assert run("ingest", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("glossmt: usage error:") and named in err
        assert not (tmp_path / "out").exists()

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
        assert run("translate", "--config", config) == 1
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
        assert layout.path("glossary", "en-es").is_file()

    def test_corrupt_artifact_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        assert run("ingest", "--config", config) == 0
        layout.path("corpus", "en-es").write_text("not json at all\n", encoding="utf-8")
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

    def test_template_broken_after_build_stops_translate_before_any_request(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys
    ):
        template = tmp_path / "template.txt"
        template.write_bytes((fixtures_dir / "custom_template.txt").read_bytes())
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        edit_config(config, "family = chatml", f"file = {template}")
        for step in ("ingest", "build"):
            assert run(step, "--config", config) == 0
        template.write_bytes(template.read_bytes() + b"\xff\n")
        stub_endpoint.reset()
        capsys.readouterr()
        assert run("translate", "--config", config) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith("glossmt: data error:") and "not valid UTF-8 (line 16)" in err
        assert stub_endpoint.requests == []
        assert not layout.path("generations", "en-es").exists()

    def test_unreachable_endpoint_is_endpoint_error(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, "http://127.0.0.1:9/echo", retries=0
        )
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        assert run("translate", "--config", config) == 3
        manifest = json.loads(layout.path("generation_manifest", "en-es").read_text())
        assert manifest["aborted"] is True
        # The partial records match the manifest (their number depends on
        # thread timing) and are all errors; nothing past the abort is written.
        records = runner.read_records(layout.path("generations", "en-es"))
        assert len(records) == manifest["records"]
        assert all(not r.ok for r in records)
        assert not layout.path("timing", "en-es").exists()
        assert not layout.path("outputs", "en-es").exists()


class TestScoreInputs:
    """``score`` maps missing and broken inputs onto the exit codes."""

    def rewrite_candidates(self, layout, edit):
        path = layout.path("candidates", "en-es", mode="test")
        lines = path.read_text(encoding="utf-8").splitlines()
        path.write_text("\n".join(edit(lines)) + "\n", encoding="utf-8")

    def test_outputs_mixing_counting_schemes_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        # MQM's token total is summed over the outputs, so they must share one scheme.
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        outputs = layout.path("outputs", "en-es")
        lines = outputs.read_text(encoding="utf-8").splitlines(keepends=True)
        lines[2] = lines[2].replace('"scheme": "whitespace"', '"scheme": "external"')
        outputs.write_text("".join(lines), encoding="utf-8")
        add_pair_input(config, "annotations", fixtures_dir / "annotations_en_es.jsonl")
        capsys.readouterr()
        assert run("score", "--config", config) == 2
        err = capsys.readouterr().err
        assert err == (
            f"glossmt: data error: {outputs}: bad record: counting scheme 'external' after 'whitespace'; "
            "a file holds one (line 3)\n"
        )
        assert not layout.path("score_file", "en-es", system="stub-model").exists()

    def test_missing_candidates_is_usage_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        layout.path("candidates", "en-es", mode="test").unlink()
        assert run("score", "--config", config) == 1
        assert_one_line_error(capsys, "usage", "run `glossmt build` first")

    def test_duplicate_candidate_ids_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        self.rewrite_candidates(layout, lambda lines: lines + [lines[1]])
        assert run("score", "--config", config) == 2
        assert_one_line_error(
            capsys, "data", f"{layout.path('candidates', 'en-es', mode='test')}: bad record: duplicate segment_id"
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


def with_mqm_counts(**changes):
    """A change to a score file that gives it an MQM block of valid counts
    but for ``changes``."""
    counts = {"minor": 0, "major": 0, "critical": 0, "token_total": 100, "counting_scheme": "whitespace:raw"}
    return lambda data: data.update(mqm={"counts": {**counts, **changes}, "score": 100.0})


class TestReportInputs:
    """``report`` turns a broken score file into one line and exit code 2."""

    @pytest.mark.parametrize(
        "content",
        ['{"report": {"pair": "en-es"', '{"manifest": {}}', '{"report": {"system": "stub-model"}}', "[]"],
        ids=["corrupt", "keyless", "pairless", "not-an-object"],
    )
    def test_broken_score_file_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys, content):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config) == 0
        layout.path("score_file", "en-es", system="stub-model").write_text(content + "\n", encoding="utf-8")
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
            with_mqm_counts(minor=1.5),
            with_mqm_counts(major=True),
            with_mqm_counts(token_total=True),
            with_mqm_counts(counting_scheme=7),
            with_mqm_counts(minor=1.5, major=True, token_total=True, counting_scheme=7),
            lambda data: data["report"].update(external_scores={"comet": 10**400}),
            with_mqm_counts(critical=10**400, token_total=1),
            lambda data: data.update(mqm=0),
        ],
        ids=[
            "external-score-not-a-number", "bleu-is-bool", "term-total-not-int", "zero-token-total",
            "mqm-minor-not-int", "mqm-major-is-bool", "mqm-token-total-is-bool", "mqm-scheme-not-str",
            "mqm-all-mistyped", "external-score-too-large-for-a-float", "mqm-score-too-large-for-a-float",
            "mqm-block-not-an-object",
        ],
    )
    def test_mistyped_score_file_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys, corrupt):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        assert run("score", "--config", config) == 0
        data = json.loads(layout.path("score_file", "en-es", system="stub-model").read_text(encoding="utf-8"))
        corrupt(data)
        data["report"]["system"] = "other"
        bad = layout.path("score_file", "en-es", system="other")
        bad.write_text(json.dumps(data), encoding="utf-8")
        capsys.readouterr()
        assert run("report", "--config", config) == 2
        assert_one_line_error(capsys, "data", f"{bad}: bad score file")
        # score rewrites the reports from every score file, so it fails alike.
        assert run("score", "--config", config) == 2
        assert_one_line_error(capsys, "data", f"{bad}: bad score file")

    def test_duplicate_output_record_is_data_error(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        outputs = layout.path("outputs", "en-es")
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
        with_glossary = layout.path("score_file", "en-es", system="stub-model").read_bytes()
        layout.path("glossary", "en-es").unlink()
        assert run("score", "--config", config) == 0
        assert layout.path("score_file", "en-es", system="stub-model").read_bytes() == with_glossary

    def test_merged_train_records_carry_per_pair_terms(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        assert run("ingest", "--config", config) == 0
        assert run("build", "--config", config) == 0
        per_pair = {
            f"en-es:{record['segment_id']}": record["terms"]
            for record in read_records(layout.path("train_dataset", "en-es"), dict)
        }
        merged = read_records(layout.path("train_merged"), dict)
        assert sorted(record["segment_id"] for record in merged) == sorted(per_pair)
        for record in merged:
            assert record["terms"] == per_pair[record["segment_id"]]
        assert any(record["terms"] for record in merged)


class TestResume:
    """Every ``translate`` reuses the stored ok records whose settings and
    prompt still match, and requests the rest."""

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
            for line in layout.path("generations", "en-es").read_text(encoding="utf-8").splitlines()[1:]
        ]
        failed = [row["segment_id"] for row in rows if row["error"]]
        assert len(failed) == 20
        requests_before = len(stub_endpoint.requests)

        assert run("translate", "--config", config) == 0
        rows = [
            json.loads(line)
            for line in layout.path("generations", "en-es").read_text(encoding="utf-8").splitlines()[1:]
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
        assert run("translate", "--config", config) == 0
        assert len(stub_endpoint.requests) - before == 20
        rows = read_records(layout.path("generations", "en-es"), dict)
        assert len(rows) == 20
        assert {row["model"] for row in rows} == {"other-model"}
        assert {row["config"]["model"] for row in rows} == {"other-model"}

    def test_resume_with_all_ok_sends_nothing(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/echo"
        )
        for step in ("ingest", "build", "translate"):
            assert run(step, "--config", config) == 0
        names = ("generations", "generation_manifest", "outputs")
        first = {name: layout.path(name, "en-es").read_bytes() for name in names}
        generated = [row["segment_id"] for row in read_records(layout.path("generations", "en-es"), dict)]
        before = len(stub_endpoint.requests)

        assert run("translate", "--config", config) == 0
        assert len(stub_endpoint.requests) == before
        assert {name: layout.path(name, "en-es").read_bytes() for name in names} == first
        assert all(row["carried"] for row in read_records(layout.path("timing", "en-es"), dict))

        # Adding external counts re-cleans the stored generations without a request.
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = external")
        add_pair_input(config, "external_counts", write_counts(tmp_path / "counts.jsonl", generated))
        assert run("translate", "--config", config) == 0
        assert len(stub_endpoint.requests) == before
        assert {row["scheme"] for row in read_records(layout.path("outputs", "en-es"), dict)} == {"external"}

    def test_corrupt_generations_stop_translate_until_deleted(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys
    ):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        layout.path("generations", "en-es").write_text("not json at all\n", encoding="utf-8")
        stub_endpoint.reset()
        capsys.readouterr()
        assert run("translate", "--config", config) == 2
        assert_one_line_error(capsys, "data", str(layout.path("generations", "en-es")))
        assert stub_endpoint.requests == []
        layout.path("generations", "en-es").unlink()
        assert run("translate", "--config", config) == 0
        assert len(stub_endpoint.requests) == 20

    def test_resume_marks_carried_records_in_timing_sidecar(self, tmp_path, fixtures_dir, stub_endpoint):
        stub_endpoint.reset()
        config, layout = write_project(
            tmp_path, fixtures_dir, stub_endpoint.url + "/flaky-half", retries=0
        )
        for step in ("ingest", "build", "translate"):
            assert run(step, "--config", config) == 0
        rows = read_records(layout.path("generations", "en-es"), dict)
        completed = {row["segment_id"] for row in rows if row["error"] is None}
        assert 0 < len(completed) < len(rows)

        assert run("translate", "--config", config) == 0
        timing = read_records(layout.path("timing", "en-es"), dict)
        assert len(timing) == len(rows)
        carried = [row for row in timing if row["segment_id"] in completed]
        fresh = [row for row in timing if row["segment_id"] not in completed]
        assert {row["segment_id"] for row in timing if row.get("carried")} == completed
        assert all(row["carried"] is True and row["seconds"] is None for row in carried)
        assert all("carried" not in row and row["seconds"] > 0 for row in fresh)


def write_counts(path, segment_ids, count=7):
    """An external token-count file giving each segment ``count`` tokens."""
    path.write_text(
        "".join(json.dumps({"segment_id": i, "token_count": count}) + "\n" for i in segment_ids), encoding="utf-8"
    )
    return path


def outputs_manifest(layout, code="en-es"):
    return json.loads(layout.path("outputs", code).read_text(encoding="utf-8").splitlines()[0])


class TestPostprocessCommand:
    """The cleaning and token counting that ``translate`` runs on its records."""

    def test_external_counts_scheme(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, layout = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        whitespace_hash = outputs_manifest(layout)["config_hash"]
        generated = [row["segment_id"] for row in read_records(layout.path("generations", "en-es"), dict)]
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = external")
        add_pair_input(config, "external_counts", write_counts(tmp_path / "counts.jsonl", generated))
        capsys.readouterr()
        stub_endpoint.reset()
        assert run("translate", "--config", config) == 0
        assert stub_endpoint.requests == []
        assert "tokens_raw=140 tokens_cleaned=140 scheme=external" in capsys.readouterr().out
        outputs = read_records(layout.path("outputs", "en-es"), dict)
        assert {row["scheme"] for row in outputs} == {"external"}
        assert sum(row["tokens_raw"] for row in outputs) == sum(row["tokens_cleaned"] for row in outputs) == 7 * 20
        # The switch is in the config, so the outputs carry a new hash.
        assert outputs_manifest(layout)["config_hash"] != whitespace_hash

    def test_whitespace_scheme_with_counts_file_is_usage_error(self, tmp_path, fixtures_dir, capsys):
        # The counts would be hashed but never read, so the config is refused.
        config, _ = write_project(tmp_path, fixtures_dir, "http://127.0.0.1:9/echo")
        add_pair_input(config, "external_counts", write_counts(tmp_path / "counts.jsonl", ["0"]))
        assert run("ingest", "--config", config) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("glossmt: usage error:")
        assert "counting_scheme = 'whitespace'" in err and "external_counts" in err
        assert not (tmp_path / "out").exists()

    def test_scheme_follows_each_pairs_external_counts(self, tmp_path, fixtures_dir, stub_endpoint):
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        edit_config(config, "counting_scheme = whitespace\n", "")
        annotations = fixtures_dir / "annotations_en_es.jsonl"
        add_pair_input(config, "annotations", annotations)
        counts = write_counts(tmp_path / "counts.jsonl", [str(i) for i in range(100)])
        with open(config, "a", encoding="utf-8") as handle:
            handle.write(
                f"\n[pair.en-fr]\nsource = {fixtures_dir / 'emea.en'}\ntarget = {fixtures_dir / 'emea.es'}\n"
                f"glossary = {fixtures_dir / 'glossary_en_es.tsv'}\nannotations = {annotations}\n"
                f"external_counts = {counts}\n"
            )
        for step in ("ingest", "build", "translate", "score"):
            assert run(step, "--config", config) == 0

        def mqm_counts(code):
            path = layout.path("score_file", code, system="stub-model")
            return json.loads(path.read_text(encoding="utf-8"))["mqm"]["counts"]

        assert mqm_counts("en-es")["counting_scheme"] == "whitespace:raw"
        assert mqm_counts("en-fr")["counting_scheme"] == "external:raw"
        assert mqm_counts("en-fr")["token_total"] == 7 * 20

    def test_external_scheme_requires_counts_file(self, tmp_path, fixtures_dir, stub_endpoint, capsys):
        config, _ = translated_project(tmp_path, fixtures_dir, stub_endpoint)
        capsys.readouterr()
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = external")
        assert run("translate", "--config", config) == 1
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
        assert not layout.path("generations", "en-es").exists()

    def test_translate_checks_count_coverage_before_any_request(
        self, tmp_path, fixtures_dir, stub_endpoint, capsys
    ):
        config, layout = write_project(tmp_path, fixtures_dir, stub_endpoint.url + "/echo")
        for step in ("ingest", "build"):
            assert run(step, "--config", config) == 0
        first_prompt = read_records(layout.path("test_dataset", "en-es"), dict)[0]["segment_id"]
        edit_config(config, "counting_scheme = whitespace", "counting_scheme = external")
        add_pair_input(config, "external_counts", write_counts(tmp_path / "counts.jsonl", ["not-a-test-segment"]))
        stub_endpoint.reset()
        capsys.readouterr()
        assert run("translate", "--config", config) == 2
        assert capsys.readouterr().err == (
            f"glossmt: data error: pair en-es: no external token count for segment {first_prompt!r}\n"
        )
        assert stub_endpoint.requests == []
        assert not layout.path("generations", "en-es").exists()
