"""JSON Lines helpers shared by the artifact writers and readers, plus the
writer and reader of the pretty-printed JSON artifacts (score files, run
manifests).

Every JSONL artifact but the timing sidecar starts with a manifest record
(``record_type: "manifest"``) carrying at least the config hash and seed,
so a file can be traced back to the run that produced it; readers skip it
on line 1 only. A reader reads its fields with :func:`field` in a ``build``
function that :func:`read_records` applies to every record, checking its
key, or :func:`read_json` to a whole JSON file; both turn what ``build``
rejects into a FormatError the same way.

A record type with flat fields declares its artifact keys once, in a table
mapping each key to ``(attribute, kind)`` or ``(attribute, kind, default)``;
:func:`to_record` and :func:`from_record` derive both directions from it.
Every record type derives from :class:`Frozen`, and its ``__init__`` sets
its fields in one call, ``self._fill(locals())``.

Every artifact is written through :func:`open_atomic`, so it is the old
whole file, the new whole file, or absent.
"""

from __future__ import annotations

import contextlib
import json
import os
from pathlib import Path
from typing import Any, Callable, Iterable, TypeVar

from .errors import FormatError, UsageError

MANIFEST_TYPE = "manifest"

T = TypeVar("T")

_REQUIRED = object()


class Frozen:
    """Base of the immutable value classes, with the semantics
    ``dataclass(frozen=True)`` gives, derived from ``__slots__``: objects of
    one class are equal when their fields are, hash as the tuple of their
    fields, show as ``Name(field=value, ...)``, and refuse to set or delete
    a field. A subclass's ``__init__`` checks its arguments, binds each
    field's value to a local of the field's name and ends with
    ``self._fill(locals())``; the fields named in the class keyword
    ``hidden`` stay out of equality, hash and repr."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, hidden: tuple[str, ...] = (), **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for name in cls.__slots__ if name not in hidden)

    def _fill(self, values: dict[str, Any]) -> None:
        """Set each field to ``values[field]``; a field left out is a KeyError."""
        for name in self.__slots__:
            object.__setattr__(self, name, values[name])

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


@contextlib.contextmanager
def open_atomic(path, errors: str = "strict"):
    """A UTF-8 text file, LF line ends, to write ``path``'s new content to.
    It is a temporary file in ``path``'s directory, which replaces ``path``
    when the block ends and is removed if the block raises. Nothing is
    fsynced: the rename keeps a crash of the process from leaving a cut
    file, not a crash of the machine."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    temporary = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    try:
        with open(temporary, "w", encoding="utf-8", errors=errors, newline="\n") as handle:
            yield handle
        os.replace(temporary, path)
    except BaseException:
        temporary.unlink(missing_ok=True)
        raise


# Stable key order and no trailing spaces: artifacts must be byte-identical
# across runs with the same config and seed. One encoder serves every
# record, since json.dumps with options makes a new one per call.
_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True, separators=(",", ": "))


def dumps(record: dict[str, Any]) -> str:
    return _ENCODER.encode(record)


def write_jsonl(path, records: Iterable[dict[str, Any]], manifest: dict[str, Any] | None = None) -> None:
    # A lone surrogate (an endpoint may return "\ud800") cannot be encoded
    # as UTF-8; backslashreplace writes it as that same JSON escape.
    with open_atomic(path, errors="backslashreplace") as handle:
        if manifest is not None:
            handle.write(dumps({"record_type": MANIFEST_TYPE, **manifest}) + "\n")
        for record in records:
            handle.write(dumps(record) + "\n")


def write_json(path, data: dict[str, Any]) -> None:
    with open_atomic(path) as handle:
        handle.write(json.dumps(data, indent=2, sort_keys=True) + "\n")


def decode_utf8(data: bytes, path) -> str:
    """``data``, the bytes of the file at ``path``, decoded as UTF-8 in one
    call; a bad byte is a FormatError naming its line (lines end at ``\\n``)."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError("not valid UTF-8", path=path, line=data.count(b"\n", 0, exc.start) + 1) from exc


def iter_jsonl(path) -> Iterable[tuple[int, dict[str, Any]]]:
    """Yield (line_number, record) for every record but a manifest on line 1.
    The file is decoded whole, so one bad byte yields no record."""
    text = decode_utf8(Path(path).read_bytes(), path)
    for line_number, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
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
        if line_number == 1 and record.get("record_type") == MANIFEST_TYPE:
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


def to_record(obj, keys: dict[str, tuple]) -> dict[str, Any]:
    """Each key of ``keys`` -> ``obj``'s value of the attribute it names."""
    return {key: getattr(obj, spec[0]) for key, spec in keys.items()}


def from_record(record, keys: dict[str, tuple]) -> dict[str, Any]:
    """Each attribute named in ``keys`` -> its key's value, read by :func:`field`."""
    return {spec[0]: field(record, key, *spec[1:]) for key, spec in keys.items()}


def _build(build: Callable[[Any], T], data, path, what: str, line: int | None = None) -> T:
    """``build(data)``, with a KeyError, TypeError, ValueError, OverflowError,
    RecursionError or UsageError it raises turned into a FormatError."""
    try:
        return build(data)
    except KeyError as exc:
        raise FormatError(f"bad {what}: missing field {exc}", path=path, line=line) from exc
    except (TypeError, ValueError, OverflowError, RecursionError, UsageError) as exc:
        raise FormatError(f"bad {what}: {exc}", path=path, line=line) from exc


def read_records(path, build: Callable[[dict[str, Any]], T], key: str | None = None) -> list[T]:
    """``[build(record) for each data record]``; a rejection names its line.
    Given a ``key``, no two records may have the same ``field(record, key)``."""
    seen = set()

    def build_keyed(record) -> T:
        if (value := field(record, key)) in seen:
            raise ValueError(f"duplicate {key} {value!r}")
        seen.add(value)
        return build(record)

    one = build if key is None else build_keyed
    return [_build(one, record, path, "record", line) for line, record in iter_jsonl(path)]


def read_json(path, what: str, build: Callable[[dict[str, Any]], T]) -> T:
    """``build(data)`` for the JSON object in the file at ``path``, which is
    rejected as a ``what`` with the error map of :func:`read_records`."""

    def parse(text: str) -> T:
        data = json.loads(text)
        if not isinstance(data, dict):
            raise TypeError("not a JSON object")
        return build(data)

    return _build(parse, decode_utf8(Path(path).read_bytes(), path), path, what)
