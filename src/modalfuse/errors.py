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


def _reject_constant(name: str):
    raise ValueError(f"{name} is not a JSON number")


def _finite_float(text: str) -> float:
    if abs(value := float(text)) > sys.float_info.max:
        raise ValueError(f"{text} is beyond float range")
    return value


# json.loads accepts NaN, Infinity and -Infinity, which JSON lacks, and reads
# a number beyond float range, 1e400, as infinity; this decoder raises ValueError
STRICT_JSON = json.JSONDecoder(parse_constant=_reject_constant, parse_float=_finite_float)


def json_object(text: str, what: str, line: int | None = None) -> dict:
    """``text`` decoded as one JSON object; RecordParseError, naming ``line``,
    where it is not one, holds a non-finite number or a string with a lone
    surrogate. ``what`` names the record kind in messages."""
    try:
        rec = STRICT_JSON.decode(text)
        # only a \u escape puts a surrogate in decoded text; UTF-8 has none
        if "\\u" in text:
            json.dumps(rec, ensure_ascii=False).encode("utf-8")
    except UnicodeEncodeError as e:
        raise RecordParseError(f"bad {what} record: {e.object[e.start]!r} is a lone "
                               "surrogate, not a character", line=line) from e
    except ValueError as e:   # JSONDecodeError, a non-finite number, too many digits
        raise RecordParseError(f"bad {what} record: {e}", line=line) from e
    if type(rec) is not dict:
        raise RecordParseError(f"{what} record must be a JSON object, got {text.strip()[:80]}",
                               line=line)
    return rec


def json_records(lines: Iterable[str | bytes], what: str) -> Iterator[tuple[int, dict]]:
    """(1-based line number, record) for each non-blank line of text or UTF-8
    bytes, through ``json_object``; a line that is not UTF-8 raises
    RecordParseError too."""
    for lineno, line in enumerate(lines, start=1):
        try:
            raw = (line.decode("utf-8") if type(line) is bytes else line).strip()
        except UnicodeDecodeError as e:
            raise RecordParseError(f"bad {what} record: {e}", line=lineno) from e
        if raw:
            yield lineno, json_object(raw, what, lineno)


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
