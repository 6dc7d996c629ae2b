"""Reading records (one dict per CSV row or JSON array element): what evidence
files and analysis plans share.

The converters read a field as text, names, a number or an integer; `located`
reports what they refuse as an `EvidenceFormatError` at the record's locator.
Within `parse_memo()`, a parse shares one object per distinct value.
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Callable, Iterator, Mapping, Optional, Sequence


class EvidenceFormatError(ValueError):
    """Schema or invariant violation in an evidence file."""

    def __init__(self, message: str, *, locator: str | None = None):
        self.locator = locator
        super().__init__(f"{locator}: {message}" if locator else message)


# Set for one parse only: raw text -> its `forms`, `(type(v), v)` -> interned `v`, and `shared` keys.
_PARSE_MEMO: ContextVar[Optional[dict]] = ContextVar("parse_memo", default=None)


@contextmanager
def parse_memo() -> Iterator[None]:
    """A fresh memo for the parse run inside; gone when it returns or raises."""
    token = _PARSE_MEMO.set({})
    try:
        yield
    finally:
        _PARSE_MEMO.reset(token)


def forms(text: str) -> tuple[str, str]:
    """(display, canonical) forms of a text; within a parse, computed once per text and interned."""
    memo = _PARSE_MEMO.get()
    if memo is None or (found := memo.get(text)) is None:
        shown = " ".join(text.split())
        found = shown, shown.lower()
        if memo is not None:
            found = memo[text] = tuple(map(interned, found))
    return found


def interned(value):
    """Within a parse, the first value equal to `value` and of its exact type; else `value`."""
    memo = _PARSE_MEMO.get()
    return value if memo is None else memo.setdefault((type(value), value), value)


def shared(key: tuple, make: Callable[[], object]):
    """Within a parse, the one object `make` gave for the first equal `key`; else a fresh one."""
    memo = _PARSE_MEMO.get()
    if memo is None:
        return make()
    if (value := memo.get(key)) is None:
        value = memo[key] = make()
    return value


_REQUIRED = object()


def value_of(record: Mapping, name: str, default=_REQUIRED):
    """A field of a record; JSON null and an empty CSV cell count as absent."""
    value = record.get(name)
    if value is None:
        if default is _REQUIRED:
            raise ValueError(f"missing field {name!r}")
        return default
    return value


def text_of(record: Mapping, name: str, default=_REQUIRED) -> str:
    value = value_of(record, name, default)
    if not (isinstance(value, str) or value is default):
        raise TypeError(f"field {name!r} must be text, got {value!r}")
    return value


def names_of(record: Mapping, name: str, default=_REQUIRED) -> Sequence[str]:
    value = value_of(record, name, default)
    if not ((isinstance(value, list) and all(isinstance(v, str) for v in value)) or value is default):
        raise TypeError(f"field {name!r} must be a list of names")
    return value


def as_number(value, name: str) -> float:
    """A finite plain float from a number or a numeral."""
    if isinstance(value, bool):  # JSON true/false is not a number
        raise ValueError(f"field {name!r} is not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"field {name!r} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"field {name!r} must be finite: {value!r}")
    return number


def as_integer(value, name: str) -> int:
    """A plain int from an integral number or numeral; a fraction is an error, not truncated."""
    number = as_number(value, name)
    if not number.is_integer():
        raise ValueError(f"field {name!r} is not an integer: {value!r}")
    return int(number)


@contextmanager
def located(locator: str) -> Iterator[None]:
    """Report a ValueError or TypeError raised for one record as a format error at its locator."""
    try:
        yield
    except EvidenceFormatError:
        raise
    except (ValueError, TypeError) as exc:
        raise EvidenceFormatError(str(exc), locator=locator) from None


def json_object(text: str, locator: str | None = None) -> dict:
    """A JSON document whose top level is an object."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise EvidenceFormatError(f"invalid JSON: {exc}", locator=locator) from None
    if not isinstance(doc, dict):
        raise EvidenceFormatError("top level must be an object", locator=locator)
    return doc


def records_of(doc: Mapping, section: str, locator: str | None = None) -> Iterator[tuple[dict, str]]:
    """The records of a JSON array field (absent: none), each with its locator `section[i]`."""
    records = doc.get(section, [])
    if not isinstance(records, list):
        raise EvidenceFormatError(f"section {section!r} must be an array", locator=locator)
    for i, record in enumerate(records):
        if not isinstance(record, dict):
            raise EvidenceFormatError("record must be an object", locator=f"{section}[{i}]")
        yield record, f"{section}[{i}]"
