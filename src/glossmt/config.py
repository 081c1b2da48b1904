"""Pipeline configuration: one declarative INI-style file.

``_KEYS`` lists every section the file may hold, each key it may set and
how the key's text is read; any other section or key is a
ConfigurationError that names it. A key the file leaves out takes the
default of the constructor parameter it fills. There is one ``[pair.*]``
section per language pair, e.g. ``[pair.en-es]``, and every command works
on every pair. The file holds every setting and input path, the seed
included. A pair counts ``external`` tokens exactly when it sets
``external_counts``; ``counting_scheme`` is only checked against that. The
resolved configuration is hashed (sha256 over its canonical JSON) and that
hash is stamped into every artifact manifest.

Every stage reads its config first, so this module owns the value checks
(``InferenceConfig`` included) and imports no stage module but ``corpus``,
``promptgen`` and ``terminology``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import threading
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from ._jsonl import Frozen
from .corpus import LanguagePair, SplitSpec
from .errors import ConfigurationError
from .promptgen import FAMILIES, TemplateSpec, builtin_template, load_template_file
from .terminology import MAX_RELIABILITY, MIN_RELIABILITY

SCHEME_WHITESPACE = "whitespace"
SCHEME_EXTERNAL = "external"
MQM_TOKEN_MODES = ("raw", "cleaned")

# [section] -> key -> how its text is read. A key fills the constructor
# parameter of its name, except that [split] keys gain "_size", [template]
# keys a "template_" prefix, and a pair's paths "_path". A ``Path`` is
# resolved against the config file's directory and must name a file; left
# empty, it is unset. The output directory is made, not read, so it is text.
_KEYS: dict[str, dict[str, type]] = {
    "project": {"output_dir": str, "seed": int},
    "split": {"tuning": int, "validation": int, "test": int},
    "terminology": {"min_stars": int},
    "template": {"family": str, "file": Path},
    "inference": {
        "endpoint_url": str, "model_name": str, "top_p": float, "temperature": float,
        "max_new_tokens": int, "request_timeout": float, "max_concurrent_requests": int,
        "max_retries": int, "retry_backoff": float,
    },
    "scoring": {"counting_scheme": str, "confidence_threshold": float, "mqm_tokens": str},
    "pair": {  # every [pair.*] section
        "source": Path, "target": Path, "glossary": Path, "source_name": str, "target_name": str,
        "annotations": Path, "external_scores": Path, "external_counts": Path,
    },
}


class InferenceConfig(Frozen):
    __slots__ = (
        "endpoint_url", "model_name", "top_p", "temperature", "max_new_tokens", "request_timeout",
        "max_concurrent_requests", "max_retries", "retry_backoff",
    )

    def __init__(
        self,
        endpoint_url: str = "http://127.0.0.1:8000/completions",
        model_name: str = "default-model",
        top_p: float = 0.9,
        temperature: float | None = None,
        max_new_tokens: int = 512,
        request_timeout: float = 60.0,
        max_concurrent_requests: int = 1,
        max_retries: int = 2,
        retry_backoff: float = 0.5,
    ):
        try:
            url = urlsplit(endpoint_url)
            url.port  # a port that is not a number in 0..65535 raises here
        except ValueError as exc:
            raise ConfigurationError(f"endpoint_url cannot be parsed: {exc}") from exc
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ConfigurationError(f"endpoint_url must be an http or https URL, got {endpoint_url!r}")
        # Every record, manifest and the config hash copy the URL; the token
        # goes in GLOSSMT_API_TOKEN. The URL is not echoed, for the same reason.
        if "@" in url.netloc:
            raise ConfigurationError("endpoint_url must not carry credentials (user:password@host)")
        if not model_name:
            raise ConfigurationError("model_name must be non-empty")
        if not 0 < top_p <= 1:
            raise ConfigurationError(f"top_p must be in (0,1], got {top_p}")
        # NaN and infinity have no JSON form, so no request could carry them.
        if temperature is not None and not (math.isfinite(temperature) and temperature >= 0):
            raise ConfigurationError(f"temperature must be finite and nonnegative, got {temperature}")
        if max_new_tokens < 1:
            raise ConfigurationError("max_new_tokens must be positive")
        # A longer wait overflows socket.settimeout and time.sleep; NaN fails both comparisons.
        longest = threading.TIMEOUT_MAX
        if not 0 < request_timeout <= longest:
            raise ConfigurationError(f"request_timeout must be in (0, {longest}] s, got {request_timeout}")
        if max_concurrent_requests < 1:
            raise ConfigurationError("max_concurrent_requests must be >= 1")
        if max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if not 0 <= retry_backoff <= longest:
            raise ConfigurationError(f"retry_backoff must be in [0, {longest}] s, got {retry_backoff}")
        try:  # the last retry waits retry_backoff * 2**(max_retries - 1) s
            last_wait = math.ldexp(retry_backoff, max_retries - 1)
        except OverflowError:
            last_wait = math.inf
        if last_wait > longest:
            raise ConfigurationError(f"max_retries = {max_retries} makes the last retry wait over {longest} s")
        self._fill(locals())

    def snapshot(self) -> dict[str, Any]:
        """The request settings stored on every record (token-free)."""
        return {
            "endpoint_url": self.endpoint_url,
            "model": self.model_name,
            "top_p": self.top_p,
            "temperature": self.temperature,
            "max_tokens": self.max_new_tokens,
        }

    def payload(self, prompt: str) -> dict[str, Any]:
        body: dict[str, Any] = {
            "model": self.model_name,
            "prompt": prompt,
            "top_p": self.top_p,
            "max_tokens": self.max_new_tokens,
        }
        if self.temperature is not None:
            body["temperature"] = self.temperature
        return body


class PairConfig(Frozen):
    __slots__ = (
        "pair", "source_path", "target_path", "glossary_path", "annotations_path", "external_scores_path",
        "external_counts_path",
    )

    def __init__(
        self,
        pair: LanguagePair,
        source_path: Path,
        target_path: Path,
        glossary_path: Path,
        annotations_path: Path | None = None,
        external_scores_path: Path | None = None,
        external_counts_path: Path | None = None,
    ):
        self._fill(locals())

    @property
    def counting_scheme(self) -> str:
        return SCHEME_EXTERNAL if self.external_counts_path is not None else SCHEME_WHITESPACE


class PipelineConfig(Frozen):
    __slots__ = (
        "output_dir", "seed", "pairs", "split", "inference", "min_stars", "template_family", "template_file",
        "confidence_threshold", "mqm_tokens",
    )

    def __init__(
        self,
        output_dir: Path,
        seed: int,
        pairs: tuple[PairConfig, ...],
        split: SplitSpec,
        inference: InferenceConfig,
        min_stars: int = 3,
        template_family: str = "flan",
        template_file: Path | None = None,
        confidence_threshold: float = 0.0,
        mqm_tokens: str = "raw",
    ):
        # SplitMix64 keeps a seed's low 64 bits, so -1 and 2**64 - 1 would split alike.
        if not 0 <= seed < 2**64:
            raise ConfigurationError(f"seed must be in 0..{2**64 - 1}, got {seed}")
        if not pairs:
            raise ConfigurationError("at least one [pair.*] section is required")
        codes = [p.pair.code for p in pairs]
        if len(set(codes)) != len(codes):
            raise ConfigurationError("duplicate [pair.*] sections")
        if mqm_tokens not in MQM_TOKEN_MODES:
            raise ConfigurationError(
                f"mqm_tokens must be one of {MQM_TOKEN_MODES}, got {mqm_tokens!r}"
            )
        if not 0.0 <= confidence_threshold <= 1.0:
            raise ConfigurationError("confidence_threshold must be in [0,1]")
        if not MIN_RELIABILITY <= min_stars <= MAX_RELIABILITY:
            raise ConfigurationError(f"min_stars must be in {MIN_RELIABILITY}..{MAX_RELIABILITY}, got {min_stars}")
        if template_file is None and template_family not in FAMILIES:
            raise ConfigurationError(
                f"unknown template family {template_family!r} and no template file given"
            )
        self._fill(locals())

    def template(self) -> TemplateSpec:
        if self.template_file is not None:
            return load_template_file(self.template_file)
        return builtin_template(self.template_family)

    def canonical(self) -> dict:
        """The resolved configuration as plain data, for hashing and manifests."""
        return {
            "output_dir": str(self.output_dir),
            "seed": self.seed,
            "pairs": [
                {
                    "pair": p.pair.code,
                    "source_name": p.pair.source_name,
                    "target_name": p.pair.target_name,
                    "source": str(p.source_path),
                    "target": str(p.target_path),
                    "glossary": str(p.glossary_path),
                    "annotations": str(p.annotations_path) if p.annotations_path else None,
                    "external_scores": str(p.external_scores_path) if p.external_scores_path else None,
                    "external_counts": str(p.external_counts_path) if p.external_counts_path else None,
                }
                for p in self.pairs
            ],
            "split": {
                "tuning": self.split.tuning_size,
                "validation": self.split.validation_size,
                "test": self.split.test_size,
            },
            "min_stars": self.min_stars,
            "template_family": self.template_family,
            "template_file": str(self.template_file) if self.template_file else None,
            "inference": self.inference.snapshot(),
            # Keeps every hash as it was when the key chose the scheme (ROADMAP item 2 drops it).
            "counting_scheme": SCHEME_EXTERNAL
            if all(p.external_counts_path for p in self.pairs) else SCHEME_WHITESPACE,
            "confidence_threshold": self.confidence_threshold,
            "mqm_tokens": self.mqm_tokens,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def manifest(self) -> dict:
        return {"config_hash": self.config_hash(), "seed": self.seed}


def load_config(path) -> PipelineConfig:
    """Parse a config file.

    All paths referenced by the resulting configuration must exist (the
    output directory is created, not required).
    """
    path = Path(path)
    if not path.is_file():
        raise ConfigurationError(f"config file not found: {path}")
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, encoding="utf-8-sig") as handle:
            parser.read_file(handle)
    except (configparser.Error, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"cannot parse {path}: {exc}") from exc

    sections = _read_sections(parser, path.parent)
    # The seed fills PipelineConfig and SplitSpec, and the output directory
    # is resolved here, so these two defaults live here; every other one on
    # its constructor parameter.
    project = sections.get("project", {})
    seed = project.get("seed", 0)
    pairs = tuple(
        _pair_config(section[len("pair.") :], values)
        for section, values in sections.items()
        if section.startswith("pair.")
    )
    scoring = sections.get("scoring", {})
    declared_scheme = scoring.pop("counting_scheme", None)
    config = PipelineConfig(
        output_dir=path.parent / project.get("output_dir", "out"),
        seed=seed,
        pairs=pairs,
        split=SplitSpec(seed=seed, **{f"{key}_size": size for key, size in sections.get("split", {}).items()}),
        inference=InferenceConfig(**sections.get("inference", {})),
        **sections.get("terminology", {}),
        **{f"template_{key}": value for key, value in sections.get("template", {}).items()},
        **scoring,
    )
    if declared_scheme is not None and {p.counting_scheme for p in pairs} != {declared_scheme}:
        raise ConfigurationError(
            f"[scoring] counting_scheme = {declared_scheme!r} does not match the pairs: a pair counts "
            "external tokens exactly when it sets external_counts; drop counting_scheme"
        )
    return config


def _read_sections(parser: configparser.ConfigParser, base: Path) -> dict[str, dict[str, Any]]:
    """The keys each section sets, read as ``_KEYS`` says."""
    if parser.defaults():
        raise ConfigurationError("unknown section [DEFAULT]")
    sections: dict[str, dict[str, Any]] = {}
    missing = set()
    for section in parser.sections():
        kinds = _KEYS.get("pair" if section.startswith("pair.") else section)
        if kinds is None:
            raise ConfigurationError(f"unknown section [{section}]")
        values = sections[section] = {}
        for key, raw in parser.items(section):
            kind = kinds.get(key)
            if kind is None:
                raise ConfigurationError(f"unknown key {key!r} in [{section}]")
            if kind is not Path:
                try:
                    values[key] = kind(raw)
                except ValueError as exc:
                    raise ConfigurationError(f"[{section}] {key} = {raw!r}: {exc}") from exc
            elif raw:
                values[key] = base / raw  # an absolute path stays as it is
                if not values[key].is_file():
                    missing.add(str(values[key]))
    if missing:
        raise ConfigurationError("missing input files: " + ", ".join(sorted(missing)))
    return sections


def _pair_config(code: str, values: dict[str, Any]) -> PairConfig:
    pair = LanguagePair.from_code(code, values.pop("source_name", None), values.pop("target_name", None))
    for key in ("source", "target", "glossary"):
        if key not in values:
            raise ConfigurationError(f"[pair.{code}] is missing {key!r}")
    return PairConfig(pair=pair, **{f"{key}_path": value for key, value in values.items()})
