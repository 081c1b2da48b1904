import importlib.util
import sys
import textwrap
from pathlib import Path

import pytest

from glossmt.config import InferenceConfig, load_config
from glossmt.errors import ConfigurationError
from glossmt.prng import seeded_permutation

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"

BASE_CONFIG = """\
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
family = flan

[inference]
endpoint_url = http://127.0.0.1:9999/completions
model_name = test-model
top_p = 0.95
max_new_tokens = 128

[scoring]
counting_scheme = whitespace
confidence_threshold = 0.5
mqm_tokens = raw

[pair.en-es]
source = {src}
target = {tgt}
glossary = {gls}
"""


def write_config(tmp_path, fixtures_dir, extra="", **fields):
    values = {
        "out": tmp_path / "out",
        "src": fixtures_dir / "emea.en",
        "tgt": fixtures_dir / "emea.es",
        "gls": fixtures_dir / "glossary_en_es.tsv",
    }
    values.update(fields)
    path = tmp_path / "pipeline.ini"
    path.write_text(BASE_CONFIG.format(**values) + textwrap.dedent(extra), encoding="utf-8")
    return path


def replace_in(path, old, new):
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_text(text.replace(old, new), encoding="utf-8")
    return path


class TestLoad:
    def test_full_load(self, tmp_path, fixtures_dir):
        config = load_config(write_config(tmp_path, fixtures_dir))
        assert config.seed == 11
        assert config.split.tuning_size == 60
        assert config.split.seed == 11
        assert config.min_stars == 3
        assert config.template_family == "flan"
        assert config.inference.model_name == "test-model"
        assert config.inference.top_p == 0.95
        assert config.pairs[0].counting_scheme == "whitespace"
        assert config.confidence_threshold == 0.5
        assert len(config.pairs) == 1
        assert config.pairs[0].pair.code == "en-es"

    def test_relative_paths_resolved_against_config_dir(self, tmp_path, fixtures_dir):
        (tmp_path / "data").mkdir()
        for name in ("emea.en", "emea.es", "glossary_en_es.tsv"):
            (tmp_path / "data" / name).write_bytes(
                (fixtures_dir / name).read_bytes()
            )
        path = write_config(
            tmp_path,
            fixtures_dir,
            src="data/emea.en",
            tgt="data/emea.es",
            gls="data/glossary_en_es.tsv",
        )
        config = load_config(path)
        assert config.pairs[0].source_path == tmp_path / "data" / "emea.en"

    def test_absolute_path_stays_absolute(self, tmp_path, fixtures_dir):
        config = load_config(write_config(tmp_path, fixtures_dir))
        assert config.pairs[0].source_path == fixtures_dir / "emea.en"
        assert config.output_dir == tmp_path / "out"

    def test_empty_optional_path_is_unset(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir, extra="annotations =\nexternal_counts =\n")
        replace_in(path, "family = flan", "family = flan\nfile =")
        config = load_config(path)
        assert config.pairs[0].annotations_path is None
        assert config.pairs[0].external_counts_path is None
        assert config.template_file is None

    def test_missing_input_file_rejected(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir, src=tmp_path / "absent.en")
        with pytest.raises(ConfigurationError) as exc:
            load_config(path)
        assert "absent.en" in str(exc.value)

    def test_missing_config_file(self, tmp_path):
        with pytest.raises(ConfigurationError):
            load_config(tmp_path / "nope.ini")

    def test_unparseable_config(self, tmp_path):
        path = tmp_path / "broken.ini"
        path.write_text("[unclosed\nkey value\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_pair_section_missing_required_option(self, tmp_path, fixtures_dir):
        path = tmp_path / "pipeline.ini"
        path.write_text(
            f"[pair.en-es]\nsource = {fixtures_dir / 'emea.en'}\n", encoding="utf-8"
        )
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_no_pairs_rejected(self, tmp_path):
        path = tmp_path / "pipeline.ini"
        path.write_text("[project]\nseed = 1\n", encoding="utf-8")
        with pytest.raises(ConfigurationError):
            load_config(path)


class TestValidation:
    def test_unknown_scheme_rejected(self, tmp_path, fixtures_dir):
        path = replace_in(
            write_config(tmp_path, fixtures_dir), "counting_scheme = whitespace", "counting_scheme = bpe"
        )
        with pytest.raises(ConfigurationError, match="counting_scheme"):
            load_config(path)

    def test_scheme_follows_each_pairs_external_counts(self, tmp_path, fixtures_dir):
        counts = tmp_path / "counts.jsonl"
        counts.write_text('{"segment_id": "0", "token_count": 3}\n', encoding="utf-8")
        second_pair = f"""
            [pair.en-fr]
            source = {fixtures_dir / 'emea.en'}
            target = {fixtures_dir / 'emea.es'}
            glossary = {fixtures_dir / 'glossary_en_es.tsv'}
            external_counts = {counts}
            """
        path = write_config(tmp_path, fixtures_dir, extra=second_pair)
        for declared in ("whitespace", "external"):
            replace_in(path, "counting_scheme = whitespace", f"counting_scheme = {declared}")
            with pytest.raises(ConfigurationError, match="drop counting_scheme"):
                load_config(path)
            replace_in(path, f"counting_scheme = {declared}", "counting_scheme = whitespace")
        replace_in(path, "counting_scheme = whitespace\n", "")
        schemes = {p.pair.code: p.counting_scheme for p in load_config(path).pairs}
        assert schemes == {"en-es": "whitespace", "en-fr": "external"}

    def test_unknown_mqm_tokens_rejected(self, tmp_path, fixtures_dir):
        path = replace_in(write_config(tmp_path, fixtures_dir), "mqm_tokens = raw", "mqm_tokens = subword")
        with pytest.raises(ConfigurationError, match="mqm_tokens"):
            load_config(path)

    def test_unknown_template_family_rejected(self, tmp_path, fixtures_dir):
        path = replace_in(write_config(tmp_path, fixtures_dir), "family = flan", "family = gpt9")
        with pytest.raises(ConfigurationError):
            load_config(path)

    def test_template_file_wins_over_family(self, tmp_path, fixtures_dir):
        path = replace_in(
            write_config(tmp_path, fixtures_dir),
            "family = flan",
            f"family = flan\nfile = {fixtures_dir / 'custom_template.txt'}",
        )
        config = load_config(path)
        assert config.template().family_id == "demo"

    def test_threshold_out_of_range_rejected(self, tmp_path, fixtures_dir):
        path = replace_in(
            write_config(tmp_path, fixtures_dir), "confidence_threshold = 0.5", "confidence_threshold = 1.5"
        )
        with pytest.raises(ConfigurationError, match="confidence_threshold"):
            load_config(path)

    @pytest.mark.parametrize("seed", [0, 2**64 - 1])
    def test_seed_range_is_64_bits_unsigned(self, tmp_path, fixtures_dir, seed):
        # SplitMix64 keeps a seed's low 64 bits, so -1 would split as 2**64 - 1 does;
        # tests/test_cli.py checks that -1 and 2**64 are refused.
        assert seeded_permutation(20, -1) == seeded_permutation(20, 2**64 - 1)
        path = replace_in(write_config(tmp_path, fixtures_dir), "seed = 11\n", f"seed = {seed}\n")
        assert load_config(path).seed == seed

    def test_left_out_keys_take_the_field_defaults(self, tmp_path, fixtures_dir):
        path = tmp_path / "pipeline.ini"
        path.write_text(
            f"[pair.en-es]\nsource = {fixtures_dir / 'emea.en'}\ntarget = {fixtures_dir / 'emea.es'}\n"
            f"glossary = {fixtures_dir / 'glossary_en_es.tsv'}\n",
            encoding="utf-8",
        )
        config = load_config(path)
        assert config.output_dir == tmp_path / "out"
        assert (config.seed, config.split.seed, config.split.total) == (0, 0, 2000)
        assert config.inference == InferenceConfig()
        assert config.inference.model_name == "default-model"
        assert (config.min_stars, config.template_family, config.pairs[0].counting_scheme) == (3, "flan", "whitespace")


class TestBenchmarkConfig:
    """The benchmark's generated config must keep loading; a key the loader
    stops accepting fails here before it breaks the benchmark."""

    @pytest.fixture(scope="class")
    def workloads(self):
        spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[spec.name] = module  # dataclasses look their module up
        spec.loader.exec_module(module)
        yield module
        del sys.modules[spec.name]

    @pytest.mark.parametrize("name", ["big-glossary", "dense-multipair", "endpoint-latency"])
    def test_generated_config_loads(self, tmp_path, workloads, name):
        workload = workloads.WORKLOADS[name].sized(smoke=True)
        workloads.generate(workload, 1, tmp_path)
        config = load_config(tmp_path / "exp.ini")
        assert [p.pair.code for p in config.pairs] == list(workload.pairs)
        assert {p.counting_scheme for p in config.pairs} == {"whitespace"}


class TestHashing:
    def test_hash_stable_across_loads(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir)
        assert load_config(path).config_hash() == load_config(path).config_hash()

    def test_hash_changes_with_seed(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir)
        first = load_config(path).config_hash()
        second = load_config(replace_in(path, "seed = 11", "seed = 12")).config_hash()
        assert first != second

    def test_hash_does_not_depend_on_declaring_the_scheme(self, tmp_path, fixtures_dir):
        path = write_config(tmp_path, fixtures_dir)
        declared = load_config(path).config_hash()
        assert load_config(replace_in(path, "counting_scheme = whitespace\n", "")).config_hash() == declared

        counts = tmp_path / "counts.jsonl"
        counts.write_text('{"segment_id": "0", "token_count": 3}\n', encoding="utf-8")
        path = write_config(tmp_path, fixtures_dir, extra=f"external_counts = {counts}\n")
        declared = load_config(replace_in(path, "counting_scheme = whitespace", "counting_scheme = external")).config_hash()
        assert load_config(replace_in(path, "counting_scheme = external\n", "")).config_hash() == declared

    def test_manifest_fields(self, tmp_path, fixtures_dir):
        config = load_config(write_config(tmp_path, fixtures_dir))
        manifest = config.manifest()
        assert manifest["seed"] == 11
        assert manifest["config_hash"] == config.config_hash()
