import json
import os

import pytest

from glossmt import _jsonl, promptgen, report, terminology
from glossmt.corpus import LanguagePair
from glossmt.errors import AlignmentError, FormatError, UsageError
from glossmt.metrics import ScoreReport


def test_write_puts_manifest_first(tmp_path):
    path = tmp_path / "data.jsonl"
    _jsonl.write_jsonl(path, [{"b": 2, "a": 1}], manifest={"seed": 9})
    lines = path.read_text(encoding="utf-8").splitlines()
    first = json.loads(lines[0])
    assert first["record_type"] == "manifest"
    assert first["seed"] == 9
    # keys are sorted for byte-stable output
    assert lines[1] == '{"a": 1,"b": 2}' or lines[1] == '{"a": 1, "b": 2}'


def test_iter_skips_manifest_and_numbers_lines(tmp_path):
    path = tmp_path / "data.jsonl"
    _jsonl.write_jsonl(path, [{"x": 1}, {"x": 2}], manifest={"m": True})
    rows = list(_jsonl.iter_jsonl(path))
    assert [record for _, record in rows] == [{"x": 1}, {"x": 2}]
    assert [number for number, _ in rows] == [2, 3]


def test_iter_yields_a_manifest_after_line_1(tmp_path):
    path = tmp_path / "data.jsonl"
    manifest = {"record_type": "manifest", "seed": 1}
    path.write_text("".join(_jsonl.dumps(r) + "\n" for r in (manifest, {"x": 1}, manifest)), encoding="utf-8")
    assert list(_jsonl.iter_jsonl(path)) == [(2, {"x": 1}), (3, manifest)]


def test_bad_json_reports_path_and_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text('{"ok": 1}\nnot json\n', encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        list(_jsonl.iter_jsonl(path))
    assert exc.value.line == 2
    assert "data.jsonl" in str(exc.value)


def test_unicode_not_escaped(tmp_path):
    path = tmp_path / "data.jsonl"
    _jsonl.write_jsonl(path, [{"t": "dosis única"}])
    assert "única" in path.read_text(encoding="utf-8")


def test_lone_surrogate_written_as_json_escape(tmp_path):
    path = tmp_path / "data.jsonl"
    record = {"t": "dosis \ud800 única"}
    _jsonl.write_jsonl(path, [record])
    assert path.read_bytes() == '{"t": "dosis \\ud800 única"}\n'.encode("utf-8")
    assert [r for _, r in _jsonl.iter_jsonl(path)] == [record]


def test_bytes_without_surrogates_unchanged(tmp_path):
    path = tmp_path / "data.jsonl"
    records = [{"t": "dosis única", "e": "\U0001f48a ß İ", "b": "back\\slash"}]
    _jsonl.write_jsonl(path, records, manifest={"seed": 1})
    expected = "".join(_jsonl.dumps(r) + "\n" for r in [{"record_type": "manifest", "seed": 1}, *records])
    assert path.read_bytes() == expected.encode("utf-8")


@pytest.mark.parametrize("k,error", [(0, OSError), (1, KeyboardInterrupt), (3, OSError)])
def test_write_failing_after_k_records_keeps_the_earlier_artifact(tmp_path, monkeypatch, k, error):
    path = tmp_path / "data.jsonl"
    _jsonl.write_jsonl(path, [{"x": i} for i in range(5)], manifest={"seed": 1})
    before = path.read_bytes()
    encode = _jsonl.dumps
    encoded = []

    def fail_after_k_records(record):
        if len(encoded) == 1 + k:  # the manifest and k records
            raise error
        encoded.append(record)
        return encode(record)

    monkeypatch.setattr(_jsonl, "dumps", fail_after_k_records)
    with pytest.raises(error):
        _jsonl.write_jsonl(path, [{"y": i} for i in range(5)], manifest={"seed": 2})
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


EN_ES = LanguagePair.from_code("en-es")

# Each artifact writer: (write n items under a directory, the file it writes).
WRITERS = {
    "write_jsonl": (lambda d, n: _jsonl.write_jsonl(d / "a.jsonl", [{"x": i} for i in range(n)]), "a.jsonl"),
    "write_json": (lambda d, n: _jsonl.write_json(d / "a.json", {"x": n}), "a.json"),
    "write_glossary_tsv": (
        lambda d, n: terminology.write_glossary_tsv(
            d / "g.tsv", [terminology.GlossaryEntry(f"t{i}", f"u{i}", 4) for i in range(n)]
        ),
        "g.tsv",
    ),
    "write_dataset_rawtext": (
        lambda d, n: promptgen.write_dataset_rawtext(
            d / "train.txt",
            [promptgen.InstructionExample(str(i), EN_ES, "test", (), f"p{i}", "flan") for i in range(n)],
        ),
        "train.txt",
    ),
    "write_csv": (lambda d, n: report.write_csv(d / "t.csv", ["n"], [[str(i)] for i in range(n)]), "t.csv"),
    "report.md": (
        lambda d, n: report.write_report_files(
            d, [ScoreReport("en-es", f"s{i}", 1.0, 2.0, 0.0, 0, 0) for i in range(n)], []
        ),
        "report.md",
    ),
}


@pytest.mark.parametrize("writer", WRITERS)
def test_every_artifact_writer_replaces_its_file_whole(tmp_path, monkeypatch, writer):
    write, name = WRITERS[writer]
    path = tmp_path / name
    write(tmp_path, 2)
    before = path.read_bytes()
    names = sorted(p.name for p in tmp_path.iterdir())
    replace = os.replace

    def fail_on_the_artifact(source, target):
        if target == path:
            raise OSError("No space left on device")
        replace(source, target)

    monkeypatch.setattr(os, "replace", fail_on_the_artifact)
    with pytest.raises(OSError):
        write(tmp_path, 3)
    assert path.read_bytes() == before
    assert sorted(p.name for p in tmp_path.iterdir()) == names
    monkeypatch.undo()
    write(tmp_path, 3)
    assert path.read_bytes() != before
    assert sorted(p.name for p in tmp_path.iterdir()) == names


def test_invalid_utf8_reports_line(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_bytes(b'{"ok": 1}\n{"t": "\xff"}\n')
    with pytest.raises(FormatError) as exc:
        list(_jsonl.iter_jsonl(path))
    assert exc.value.line == 2
    assert "UTF-8" in str(exc.value)


@pytest.mark.parametrize("line", ["1" * 5000, "[" * 100_000 + "]" * 100_000])
def test_json_python_cannot_parse_is_format_error(tmp_path, line):
    path = tmp_path / "data.jsonl"
    path.write_text(line + "\n", encoding="utf-8")
    with pytest.raises(FormatError) as exc:
        list(_jsonl.iter_jsonl(path))
    assert exc.value.line == 1


class TestField:
    def test_returns_value_of_kind(self):
        assert _jsonl.field({"a": "x"}, "a") == "x"
        assert _jsonl.field({"n": 2.5}, "n", (int, float)) == 2.5

    def test_wrong_kind_is_type_error(self):
        with pytest.raises(TypeError, match="'a' must be str"):
            _jsonl.field({"a": 5}, "a")

    def test_bool_is_not_a_number(self):
        with pytest.raises(TypeError):
            _jsonl.field({"n": True}, "n", int)
        assert _jsonl.field({"b": False}, "b", bool) is False

    def test_missing_is_key_error(self):
        with pytest.raises(KeyError):
            _jsonl.field({}, "a")

    def test_default_covers_missing_and_null_only(self):
        assert _jsonl.field({}, "a", default=None) is None
        assert _jsonl.field({"a": None}, "a", default="d") == "d"
        with pytest.raises(TypeError):
            _jsonl.field({"a": 1}, "a", default=None)


class TestReadRecords:
    def write(self, tmp_path, *lines):
        path = tmp_path / "data.jsonl"
        _jsonl.write_jsonl(path, [json.loads(line) for line in lines], manifest={"seed": 1})
        return path

    def test_builds_every_data_record(self, tmp_path):
        path = self.write(tmp_path, '{"a": "x"}', '{"a": "y"}')
        assert _jsonl.read_records(path, lambda r: _jsonl.field(r, "a")) == ["x", "y"]

    @pytest.mark.parametrize(
        "error", [KeyError("a"), TypeError("t"), ValueError("v"), OverflowError("o"), UsageError("u")]
    )
    def test_build_errors_become_format_errors_with_line(self, tmp_path, error):
        path = self.write(tmp_path, '{"a": "x"}', '{"a": "y"}')

        def build(record):
            if record["a"] == "y":
                raise error
            return record

        with pytest.raises(FormatError) as exc:
            _jsonl.read_records(path, build)
        assert exc.value.line == 3  # the manifest is line 1

    def test_other_errors_pass_through(self, tmp_path):
        path = self.write(tmp_path, '{"a": "x"}')

        def build(record):
            raise AlignmentError("kept as is")

        with pytest.raises(AlignmentError):
            _jsonl.read_records(path, build)

    def test_key_repeated_is_format_error_on_its_line(self, tmp_path):
        path = self.write(tmp_path, '{"a": "x"}', '{"a": "y"}', '{"a": "x"}')
        assert len(_jsonl.read_records(path, dict)) == 3
        with pytest.raises(FormatError, match="bad record: duplicate a 'x'") as exc:
            _jsonl.read_records(path, dict, "a")
        assert exc.value.line == 4


class TestKeyTables:
    KEYS = {"id": ("segment_id", str), "n": ("count", int), "note": ("note", str, None)}

    def test_to_record_names_each_key(self):
        class Row:
            segment_id, count, note = "7", 2, None

        assert _jsonl.to_record(Row(), self.KEYS) == {"id": "7", "n": 2, "note": None}

    def test_from_record_checks_kinds_and_fills_defaults(self):
        assert _jsonl.from_record({"id": "7", "n": 2}, self.KEYS) == {"segment_id": "7", "count": 2, "note": None}
        with pytest.raises(TypeError, match="'n' must be int"):
            _jsonl.from_record({"id": "7", "n": True}, self.KEYS)
        with pytest.raises(KeyError):
            _jsonl.from_record({"n": 2}, self.KEYS)


class TestReadJson:
    def read(self, tmp_path, text, build=lambda data: data["a"]):
        path = tmp_path / "data.json"
        path.write_text(text, encoding="utf-8")
        return _jsonl.read_json(path, "data file", build)

    def test_builds_the_object(self, tmp_path):
        assert self.read(tmp_path, '{"a": [1, 2]}') == [1, 2]

    @pytest.mark.parametrize(
        "text", ['{"a": 1', "[1]", '{"b": 1}', "[" * 100000 + "]" * 100000],
        ids=["truncated", "not-an-object", "missing-key", "too-deep"],
    )
    def test_broken_file_is_format_error(self, tmp_path, text):
        with pytest.raises(FormatError, match="data.json: bad data file: "):
            self.read(tmp_path, text)

    def test_not_utf8_is_format_error(self, tmp_path):
        path = tmp_path / "data.json"
        path.write_bytes(b'{\n"a":\n"\xff"}')
        with pytest.raises(FormatError, match=r"data.json: not valid UTF-8 \(line 3\)"):
            _jsonl.read_json(path, "data file", dict)

    @pytest.mark.parametrize(
        "error", [KeyError("a"), TypeError("t"), ValueError("v"), OverflowError("o"), UsageError("u")]
    )
    def test_build_errors_map_as_in_read_records(self, tmp_path, error):
        def build(data):
            raise error

        with pytest.raises(FormatError, match="bad data file"):
            self.read(tmp_path, "{}", build)

    def test_number_too_large_for_a_float_is_format_error(self, tmp_path):
        with pytest.raises(FormatError, match="bad data file"):
            self.read(tmp_path, '{"a": 1' + "0" * 400 + "}", lambda data: float(data["a"]))
