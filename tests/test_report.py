import json

from glossmt.corpus import LanguagePair
from glossmt.metrics import ScoreReport
from glossmt.mqm import SeverityCounts
from glossmt.report import (
    build_metric_table,
    build_mqm_counts_table,
    build_mqm_score_table,
    build_term_accuracy_table,
    markdown_table,
    write_csv,
    write_report_files,
)


def report(pair, system, bleu=30.0, chrf=50.0, correct=3, total=4, external=None):
    return ScoreReport(
        pair=pair.code,
        system=system,
        bleu=bleu,
        chrf=chrf,
        term_accuracy=correct / total if total else 0.0,
        term_correct=correct,
        term_total=total,
        external_scores=external or {},
    )


def sample_reports(en_es):
    en_de = LanguagePair.from_code("en-de")
    return [
        report(en_es, "baseline", bleu=30.12, chrf=52.5),
        report(en_es, "tuned", bleu=35.9, chrf=57.25, external={"comet22": 0.81}),
        report(en_de, "tuned", bleu=28.4, chrf=55.0),
    ]


class TestTables:
    def test_metric_table_layout(self, en_es):
        header, rows = build_metric_table(sample_reports(en_es))
        assert header[0] == "system"
        assert "en-de BLEU" in header and "en-es chrF" in header
        assert "en-es comet22" in header
        by_system = {row[0]: row for row in rows}
        assert set(by_system) == {"baseline", "tuned"}
        tuned = dict(zip(header, by_system["tuned"]))
        assert tuned["en-es BLEU"] == "35.90"
        assert tuned["en-de BLEU"] == "28.40"
        # a system without a score for some column shows an empty cell
        baseline = dict(zip(header, by_system["baseline"]))
        assert baseline["en-de BLEU"] == ""
        assert baseline["en-es comet22"] == ""

    def test_term_accuracy_table(self, en_es):
        header, rows = build_term_accuracy_table(sample_reports(en_es))
        assert header[0] == "system"
        assert {"en-es accuracy", "en-es correct", "en-es expected"} <= set(header)
        baseline = dict(zip(header, next(r for r in rows if r[0] == "baseline")))
        assert baseline["en-es accuracy"] == "0.75"
        assert baseline["en-es correct"] == "3"
        assert baseline["en-es expected"] == "4"

    def test_mqm_tables(self, en_es):
        entries = [
            ("tuned", "en-es", SeverityCounts(5, 2, 1, 400, "whitespace")),
        ]
        header, rows = build_mqm_counts_table(entries)
        assert header == ["system", "en-es MIN", "en-es MAJ", "en-es CRIT", "en-es tokens"]
        assert rows == [["tuned", "5", "2", "1", "400"]]
        score_header, score_rows = build_mqm_score_table(entries)
        assert score_header == ["system", "en-es MQM"]
        expected = 100.0 * (1 - (5 + 10 + 10) / 400)
        assert score_rows == [["tuned", f"{expected:.2f}"]]

    def test_markdown_table_shape(self):
        text = markdown_table(["a", "b"], [["1", "2"]])
        lines = text.splitlines()
        assert lines[0] == "| a | b |"
        assert lines[1] == "| --- | --- |"
        assert lines[2] == "| 1 | 2 |"


class TestWriters:
    def test_write_csv_with_manifest_comment(self, tmp_path):
        path = tmp_path / "table.csv"
        write_csv(path, ["x", "y"], [["1", "2"]], manifest={"seed": 3})
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0].startswith("# ")
        assert json.loads(lines[0][2:]) == {"seed": 3}
        assert lines[1] == "x,y"
        assert lines[2] == "1,2"

    def test_write_report_files(self, tmp_path, en_es):
        entries = [("tuned", "en-es", SeverityCounts(5, 2, 1, 400, "whitespace"))]
        paths = write_report_files(
            tmp_path, sample_reports(en_es), entries, manifest={"config_hash": "h"}
        )
        names = {p.name for p in paths}
        assert names == {
            "metrics.csv",
            "term_accuracy.csv",
            "mqm_counts.csv",
            "mqm_scores.csv",
            "report.md",
        }
        markdown = (tmp_path / "report.md").read_text(encoding="utf-8")
        assert "| system |" in markdown
        assert "config_hash" in markdown

    def test_no_mqm_entries_skips_mqm_sections(self, tmp_path, en_es):
        paths = write_report_files(tmp_path, sample_reports(en_es), [], manifest={})
        names = {p.name for p in paths}
        assert "mqm_counts.csv" not in names
        assert (tmp_path / "report.md").exists()


class TestWholeReport:
    """Every cell of every table, and report.md byte for byte, for a mixed
    input: a system with one pair only, an external score on one report,
    and MQM counts on one cell."""

    def reports(self):
        en_de, en_es = LanguagePair.from_code("en-de"), LanguagePair.from_code("en-es")
        return [
            report(en_es, "zero-shot", bleu=20.5, chrf=45.0, correct=0, total=0),
            report(en_es, "tuned", bleu=35.9, chrf=57.25, correct=4, total=4, external={"comet22": 0.81}),
            report(en_de, "tuned", bleu=28.4, chrf=55.0, correct=1, total=3),
            report(en_es, "baseline", bleu=30.12, chrf=52.5, correct=3, total=4),
            report(en_de, "baseline", bleu=25.0, chrf=50.125, correct=2, total=5),
        ]

    entries = [("tuned", "en-es", SeverityCounts(5, 2, 1, 400, "whitespace"))]

    def test_tables_and_markdown(self, tmp_path):
        assert build_metric_table(self.reports()) == (
            ["system", "en-de BLEU", "en-de chrF", "en-de comet22", "en-es BLEU", "en-es chrF", "en-es comet22"],
            [
                ["baseline", "25.00", "50.12", "", "30.12", "52.50", ""],
                ["tuned", "28.40", "55.00", "", "35.90", "57.25", "0.81"],
                ["zero-shot", "", "", "", "20.50", "45.00", ""],
            ],
        )
        assert build_term_accuracy_table(self.reports()) == (
            ["system", "en-de accuracy", "en-de correct", "en-de expected",
             "en-es accuracy", "en-es correct", "en-es expected"],
            [
                ["baseline", "0.40", "2", "5", "0.75", "3", "4"],
                ["tuned", "0.33", "1", "3", "1.00", "4", "4"],
                ["zero-shot", "", "", "", "0.00", "0", "0"],
            ],
        )
        assert build_mqm_counts_table(self.entries) == (
            ["system", "en-es MIN", "en-es MAJ", "en-es CRIT", "en-es tokens"],
            [["tuned", "5", "2", "1", "400"]],
        )
        assert build_mqm_score_table(self.entries) == (["system", "en-es MQM"], [["tuned", "93.75"]])
        paths = write_report_files(tmp_path, self.reports(), self.entries, manifest={"config_hash": "h", "seed": 3})
        assert [p.name for p in paths] == [
            "metrics.csv", "term_accuracy.csv", "mqm_counts.csv", "mqm_scores.csv", "report.md",
        ]
        assert (tmp_path / "report.md").read_text(encoding="utf-8") == (
            "# Evaluation report\n"
            "\n"
            "## Surface metrics\n"
            "\n"
            "| system | en-de BLEU | en-de chrF | en-de comet22 | en-es BLEU | en-es chrF | en-es comet22 |\n"
            "| --- | --- | --- | --- | --- | --- | --- |\n"
            "| baseline | 25.00 | 50.12 |  | 30.12 | 52.50 |  |\n"
            "| tuned | 28.40 | 55.00 |  | 35.90 | 57.25 | 0.81 |\n"
            "| zero-shot |  |  |  | 20.50 | 45.00 |  |\n"
            "\n"
            "## Terminology accuracy\n"
            "\n"
            "| system | en-de accuracy | en-de correct | en-de expected"
            " | en-es accuracy | en-es correct | en-es expected |\n"
            "| --- | --- | --- | --- | --- | --- | --- |\n"
            "| baseline | 0.40 | 2 | 5 | 0.75 | 3 | 4 |\n"
            "| tuned | 0.33 | 1 | 3 | 1.00 | 4 | 4 |\n"
            "| zero-shot |  |  |  | 0.00 | 0 | 0 |\n"
            "\n"
            "## MQM severity counts\n"
            "\n"
            "| system | en-es MIN | en-es MAJ | en-es CRIT | en-es tokens |\n"
            "| --- | --- | --- | --- | --- |\n"
            "| tuned | 5 | 2 | 1 | 400 |\n"
            "\n"
            "## MQM scores\n"
            "\n"
            "| system | en-es MQM |\n"
            "| --- | --- |\n"
            "| tuned | 93.75 |\n"
            "\n"
            "---\n"
            "\n"
            'Manifest: `{"config_hash": "h","seed": 3}`\n'
        )
