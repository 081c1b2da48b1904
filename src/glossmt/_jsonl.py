"""JSON Lines helpers shared by the artifact writers and readers, plus the
writer of the pretty-printed JSON artifacts (totals, score files, run
manifests).

Every artifact file starts with a manifest record (``record_type:
"manifest"``) carrying at least the config hash and seed, so a file can be
traced back to the run that produced it. Readers skip the manifest
transparently. A reader reads its fields with :func:`field` in a ``build``
function that :func:`read_records` applies to every record.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from .errors import FormatError, UsageError

MANIFEST_TYPE = "manifest"

T = TypeVar("T")

_REQUIRED = object()


def dumps(record: dict[str, Any]) -> str:
    # Stable key order and no trailing spaces: artifacts must be
    # byte-identical across runs with the same config and seed.
    return json.dumps(record, ensure_ascii=False, sort_keys=True, separators=(",", ": "))


def write_jsonl(path, records: Iterable[dict[str, Any]], manifest: dict[str, Any] | None = None) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # A lone surrogate (an endpoint may return "\ud800") cannot be encoded
    # as UTF-8; backslashreplace writes it as that same JSON escape.
    with open(path, "w", encoding="utf-8", errors="backslashreplace", newline="\n") as handle:
        if manifest is not None:
            handle.write(dumps({"record_type": MANIFEST_TYPE, **manifest}) + "\n")
        for record in records:
            handle.write(dumps(record) + "\n")


def write_json(path, data: dict[str, Any]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def iter_jsonl(path) -> Iterable[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for every data record, skipping the manifest."""
    with open(path, "rb") as handle:
        for line_number, raw in enumerate(handle, start=1):
            try:
                line = raw.decode("utf-8").strip()
            except UnicodeDecodeError as exc:
                raise FormatError("not valid UTF-8", path=path, line=line_number) from exc
            if not line:
                continue
            try:
                record = json.loads(line)
            except (ValueError, RecursionError) as exc:
                # ValueError beyond JSONDecodeError: an integer too long to parse.
                message = getattr(exc, "msg", exc)
                raise FormatError(f"invalid JSON: {message}", path=path, line=line_number) from exc
            if not isinstance(record, dict):
                raise FormatError("record is not a JSON object", path=path, line=line_number)
            if record.get("record_type") == MANIFEST_TYPE:
                continue
            yield line_number, record


def field(record, key: str, kind=str, default=_REQUIRED):
    """``record[key]`` after checking it is a ``kind`` (a type or a tuple of
    types); a bool never counts as a number. With a ``default``, a missing
    or null value gives the default instead."""
    value = record[key] if default is _REQUIRED else record.get(key)
    if type(value) is kind:  # the common case, checked first
        return value
    if value is None and default is not _REQUIRED:
        return default
    kinds = kind if isinstance(kind, tuple) else (kind,)
    if not isinstance(value, kinds) or (isinstance(value, bool) and bool not in kinds):
        names = " or ".join(k.__name__ for k in kinds)
        raise TypeError(f"field {key!r} must be {names}, got {value!r}")
    return value


def unique_field(record, key: str, seen: set) -> str:
    """``field(record, key)``, which must not be in ``seen``; it is added."""
    value = field(record, key)
    if value in seen:
        raise ValueError(f"duplicate {key} {value!r}")
    seen.add(value)
    return value


def read_records(path, build: Callable[[dict[str, Any]], T]) -> list[T]:
    """``[build(record) for each data record]``; a record whose ``build``
    raises KeyError, TypeError, ValueError, OverflowError or UsageError is a
    FormatError with its line number."""
    results = []
    for line_number, record in iter_jsonl(path):
        try:
            results.append(build(record))
        except KeyError as exc:
            raise FormatError(f"missing field {exc}", path=path, line=line_number) from exc
        except (TypeError, ValueError, OverflowError, UsageError) as exc:
            raise FormatError(f"bad record: {exc}", path=path, line=line_number) from exc
    return results
