"""Exception types shared across the package, and the checked reader of
line-delimited JSON input records that raises them."""

from __future__ import annotations

import json
import sys
from typing import Iterable, Iterator


class ModalfuseError(Exception):
    """Base class for all package errors."""


class ValidationError(ModalfuseError):
    """Input data violates a documented invariant."""


class ConfigError(ModalfuseError):
    """Configuration values are inconsistent (dimension mismatch, bad keys)."""


class NotFoundError(ModalfuseError):
    """A requested key is absent from a store or manifest."""


class CorruptionError(ModalfuseError):
    """Stored bytes fail an integrity check (CRC, magic, truncation)."""


class RecordParseError(ModalfuseError):
    """A line-delimited record could not be parsed.

    Carries the 1-based line number when known.
    """

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


def json_records(lines: Iterable[str], what: str) -> Iterator[tuple[int, dict]]:
    """(1-based line number, record) for each non-blank line; a line that is
    not a JSON object raises RecordParseError. ``what`` names the record kind
    in messages."""
    for lineno, raw in enumerate(lines, start=1):
        raw = raw.strip()
        if not raw:
            continue
        try:
            rec = json.loads(raw)
        except ValueError as e:       # JSONDecodeError, or an integer of too many digits
            raise RecordParseError(f"bad {what} record: {e}", line=lineno) from e
        if type(rec) is not dict:
            raise RecordParseError(f"{what} record must be a JSON object, got {raw[:80]}",
                                   line=lineno)
        yield lineno, rec


JSON_TYPE_NAMES = {bool: "a bool", int: "an int", float: "a number", str: "a string"}


def is_json_type(value, kind: type) -> bool:
    """Whether decoded JSON ``value`` has type ``kind``, by plain ``type``
    tests: an int that a float can hold passes for a float, a bool never
    passes for an int."""
    return type(value) is kind or (kind is float and type(value) is int
                                   and abs(value) <= sys.float_info.max)


def check_fields(rec: dict, fields: dict, what: str, line: int) -> None:
    """RecordParseError unless ``rec`` holds each key of ``fields`` with its
    type: one of JSON_TYPE_NAMES, or [kind] for a list of that type."""
    for key, kind in fields.items():
        if key not in rec:
            raise RecordParseError(f"{what} record needs {key!r}", line=line)
        value = rec[key]
        if type(kind) is list:
            ok = type(value) is list and all(is_json_type(v, kind[0]) for v in value)
            expected = f"a list of {JSON_TYPE_NAMES[kind[0]].split()[-1]}s"
        else:
            ok = is_json_type(value, kind)
            expected = JSON_TYPE_NAMES[kind]
        if not ok:
            raise RecordParseError(f"{what} field {key!r} must be {expected}, got {value!r}",
                                   line=line)
