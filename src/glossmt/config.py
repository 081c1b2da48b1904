"""Pipeline configuration: one declarative INI-style file.

Sections::

    [project]     output_dir, seed
    [split]       tuning, validation, test     (per-pair sizes)
    [terminology] min_stars
    [template]    family (flan|llama3|chatml) or file = <template file>
    [inference]   endpoint_url, model_name, top_p, temperature,
                  max_new_tokens, request_timeout, max_concurrent_requests,
                  max_retries, retry_backoff
    [scoring]     counting_scheme, confidence_threshold, mqm_tokens
    [pair.en-es]  source, target, glossary, (source_name, target_name,
                  annotations, external_scores, external_counts)

One ``[pair.*]`` section per language pair. The file holds every setting
and input path; only the seed can be overridden, by ``--seed``. The
resolved configuration is hashed (sha256 over its canonical JSON) and that
hash is stamped into every artifact manifest.

Every stage reads its config first, so this module owns the value checks
(``InferenceConfig`` and the counting-scheme names included) and imports no
stage module but ``corpus`` and ``promptgen``.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Any
from urllib.parse import urlsplit

from .corpus import LanguagePair, SplitSpec
from .errors import ConfigurationError
from .promptgen import FAMILIES, TemplateSpec, builtin_template, load_template_file

SCHEME_WHITESPACE = "whitespace"
SCHEME_EXTERNAL = "external"
COUNTING_SCHEMES = (SCHEME_WHITESPACE, SCHEME_EXTERNAL)
MQM_TOKEN_MODES = ("raw", "cleaned")


@dataclass(frozen=True)
class InferenceConfig:
    endpoint_url: str
    model_name: str
    top_p: float = 0.9
    temperature: float | None = None
    max_new_tokens: int = 512
    request_timeout: float = 60.0
    max_concurrent_requests: int = 1
    max_retries: int = 2
    retry_backoff: float = 0.5

    def __post_init__(self):
        url = urlsplit(self.endpoint_url)
        if url.scheme not in ("http", "https") or not url.netloc:
            raise ConfigurationError(f"endpoint_url must be an http or https URL, got {self.endpoint_url!r}")
        if not self.model_name:
            raise ConfigurationError("model_name must be non-empty")
        if not 0 < self.top_p <= 1:
            raise ConfigurationError(f"top_p must be in (0,1], got {self.top_p}")
        # NaN and infinity have no JSON form, so no request could carry them.
        if self.temperature is not None and not (math.isfinite(self.temperature) and self.temperature >= 0):
            raise ConfigurationError(f"temperature must be finite and nonnegative, got {self.temperature}")
        if self.max_new_tokens < 1:
            raise ConfigurationError("max_new_tokens must be positive")
        if self.request_timeout <= 0:
            raise ConfigurationError("request_timeout must be positive")
        if self.max_concurrent_requests < 1:
            raise ConfigurationError("max_concurrent_requests must be >= 1")
        if self.max_retries < 0:
            raise ConfigurationError("max_retries must be >= 0")
        if self.retry_backoff < 0:
            raise ConfigurationError("retry_backoff must be >= 0")

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


@dataclass(frozen=True)
class PairConfig:
    pair: LanguagePair
    source_path: Path
    target_path: Path
    glossary_path: Path
    annotations_path: Path | None = None
    external_scores_path: Path | None = None
    external_counts_path: Path | None = None


@dataclass(frozen=True)
class PipelineConfig:
    output_dir: Path
    seed: int
    pairs: tuple[PairConfig, ...]
    split: SplitSpec
    min_stars: int
    template_family: str
    template_file: Path | None
    inference: InferenceConfig
    counting_scheme: str
    confidence_threshold: float
    mqm_tokens: str

    def __post_init__(self):
        if not self.pairs:
            raise ConfigurationError("at least one [pair.*] section is required")
        codes = [p.pair.code for p in self.pairs]
        if len(set(codes)) != len(codes):
            raise ConfigurationError("duplicate [pair.*] sections")
        if self.counting_scheme not in COUNTING_SCHEMES:
            raise ConfigurationError(
                f"counting_scheme must be one of {COUNTING_SCHEMES}, got {self.counting_scheme!r}"
            )
        if self.mqm_tokens not in MQM_TOKEN_MODES:
            raise ConfigurationError(
                f"mqm_tokens must be one of {MQM_TOKEN_MODES}, got {self.mqm_tokens!r}"
            )
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ConfigurationError("confidence_threshold must be in [0,1]")
        if self.template_file is None and self.template_family not in FAMILIES:
            raise ConfigurationError(
                f"unknown template family {self.template_family!r} and no template file given"
            )

    def pair_config(self, code: str) -> PairConfig:
        for pair_config in self.pairs:
            if pair_config.pair.code == code:
                return pair_config
        known = ", ".join(p.pair.code for p in self.pairs)
        raise ConfigurationError(f"pair {code!r} not in config (configured: {known})")

    def select_pairs(self, code: str | None) -> tuple[PairConfig, ...]:
        if code is None:
            return self.pairs
        return (self.pair_config(code),)

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
            "counting_scheme": self.counting_scheme,
            "confidence_threshold": self.confidence_threshold,
            "mqm_tokens": self.mqm_tokens,
        }

    def config_hash(self) -> str:
        canonical = json.dumps(self.canonical(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    def manifest(self) -> dict:
        return {"config_hash": self.config_hash(), "seed": self.seed}


def _get(parser: configparser.ConfigParser, section: str, option: str, kind, default):
    if not parser.has_option(section, option):
        return default
    raw = parser.get(section, option)
    try:
        return kind(raw)
    except ValueError as exc:
        raise ConfigurationError(f"[{section}] {option} = {raw!r}: {exc}") from exc


def load_config(path, seed: int | None = None) -> PipelineConfig:
    """Parse a config file; ``seed``, when given, replaces the file's seed.

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

    base = path.parent

    def resolve(raw: str) -> Path:
        candidate = Path(raw)
        return candidate if candidate.is_absolute() else base / candidate

    if seed is None:
        seed = _get(parser, "project", "seed", int, 0)
    output_dir = resolve(_get(parser, "project", "output_dir", str, "out"))

    pairs = []
    for section in parser.sections():
        if not section.startswith("pair."):
            continue
        code = section[len("pair.") :]
        pair = LanguagePair.from_code(
            code,
            source_name=_get(parser, section, "source_name", str, None),
            target_name=_get(parser, section, "target_name", str, None),
        )
        for option in ("source", "target", "glossary"):
            if not parser.has_option(section, option):
                raise ConfigurationError(f"[{section}] is missing {option!r}")

        def optional_path(option: str) -> Path | None:
            raw = _get(parser, section, option, str, None)
            return resolve(raw) if raw else None

        pairs.append(
            PairConfig(
                pair=pair,
                source_path=resolve(parser.get(section, "source")),
                target_path=resolve(parser.get(section, "target")),
                glossary_path=resolve(parser.get(section, "glossary")),
                annotations_path=optional_path("annotations"),
                external_scores_path=optional_path("external_scores"),
                external_counts_path=optional_path("external_counts"),
            )
        )

    split = SplitSpec(
        tuning_size=_get(parser, "split", "tuning", int, 1600),
        validation_size=_get(parser, "split", "validation", int, 200),
        test_size=_get(parser, "split", "test", int, 200),
        seed=seed,
    )

    temperature = _get(parser, "inference", "temperature", float, None)
    inference = InferenceConfig(
        endpoint_url=_get(parser, "inference", "endpoint_url", str, "http://127.0.0.1:8000/completions"),
        model_name=_get(parser, "inference", "model_name", str, "default-model"),
        top_p=_get(parser, "inference", "top_p", float, 0.9),
        temperature=temperature,
        max_new_tokens=_get(parser, "inference", "max_new_tokens", int, 512),
        request_timeout=_get(parser, "inference", "request_timeout", float, 60.0),
        max_concurrent_requests=_get(parser, "inference", "max_concurrent_requests", int, 1),
        max_retries=_get(parser, "inference", "max_retries", int, 2),
        retry_backoff=_get(parser, "inference", "retry_backoff", float, 0.5),
    )

    template_file_raw = _get(parser, "template", "file", str, None)
    config = PipelineConfig(
        output_dir=output_dir,
        seed=seed,
        pairs=tuple(pairs),
        split=split,
        min_stars=_get(parser, "terminology", "min_stars", int, 3),
        template_family=_get(parser, "template", "family", str, "flan"),
        template_file=resolve(template_file_raw) if template_file_raw else None,
        inference=inference,
        counting_scheme=_get(parser, "scoring", "counting_scheme", str, SCHEME_WHITESPACE),
        confidence_threshold=_get(parser, "scoring", "confidence_threshold", float, 0.0),
        mqm_tokens=_get(parser, "scoring", "mqm_tokens", str, "raw"),
    )
    _check_paths(config)
    return config


def _check_paths(config: PipelineConfig) -> None:
    missing = []
    for pair_config in config.pairs:
        for candidate in (
            pair_config.source_path,
            pair_config.target_path,
            pair_config.glossary_path,
            pair_config.annotations_path,
            pair_config.external_scores_path,
            pair_config.external_counts_path,
        ):
            if candidate is not None and not candidate.is_file():
                missing.append(str(candidate))
    if config.template_file is not None and not config.template_file.is_file():
        missing.append(str(config.template_file))
    if missing:
        raise ConfigurationError("missing input files: " + ", ".join(sorted(set(missing))))
