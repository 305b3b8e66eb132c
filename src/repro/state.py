"""Typed readers for the ``state_dict()`` / ``load_state()`` contract.

Everything a :class:`~repro.service.engine.ServiceConfig` can build —
the simulator, the schedulers, the estimators, the fault injectors, the
tenant registry and the event queue — writes its state as plain JSON
values (dicts, lists, strings, ints, floats, ``None``) and reads it
back through these helpers.  JSON keeps the type of a number (``2``
stays an int, ``2.0`` a float, and a float's repr round-trips exactly),
so a reader checks the type rather than coercing it: a state whose
field has the wrong type raises :class:`TypeError`, which the service's
anchor codec reports as a malformed snapshot instead of resuming from a
silently different engine.  :func:`json_pieces` writes such a state
(or any large JSON value) as its canonical text, in bounded pieces.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Callable, Dict, Iterator, List, Optional, TypeVar

__all__ = ["integer", "number", "string", "name", "boolean", "array",
           "mapping", "optional", "row", "json_pieces"]

T = TypeVar("T")

#: List items encoded per call by :func:`json_pieces`.
PIECE_ITEMS = 256

_ENCODE = json.JSONEncoder(sort_keys=True).encode


def json_pieces(value: Any) -> Iterator[str]:
    """``json.dumps(value, sort_keys=True)``, in pieces that join to it.

    A state's rows number in the thousands, and one ``json.dumps`` call
    holds a small string per number and name it writes until it joins
    them — several times the size of its output.  Here a dict is opened
    key by key (its keys must be strings, as a state's are) and a list
    of more than :data:`PIECE_ITEMS` items is encoded that many items at
    a time, so no call holds more than one such slice.
    """
    if isinstance(value, dict):
        yield "{"
        for k, key in enumerate(sorted(value)):
            yield f"{', ' if k else ''}{_ENCODE(key)}: "
            yield from json_pieces(value[key])
        yield "}"
    elif isinstance(value, list) and len(value) > PIECE_ITEMS:
        yield "["
        for start in range(0, len(value), PIECE_ITEMS):
            piece = _ENCODE(value[start:start + PIECE_ITEMS])[1:-1]
            yield f", {piece}" if start else piece
        yield "]"
    else:
        yield _ENCODE(value)


def _refuse(value: Any, expected: str) -> TypeError:
    return TypeError(f"expected {expected}, got {type(value).__name__} "
                     f"{value!r:.40}")


def integer(value: Any) -> int:
    """An int (a bool is not one)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise _refuse(value, "an integer")
    return value


def number(value: Any) -> float:
    """An int or a float, returned unchanged so its type survives."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise _refuse(value, "a number")
    return value


def string(value: Any) -> str:
    if not isinstance(value, str):
        raise _refuse(value, "a string")
    return value


def name(value: Any) -> str:
    """A string that many rows repeat — a job id, a tenant, a decision
    kind — interned, so that the rows read back share one object for it
    as the rows of a live run do, rather than one copy per row."""
    return sys.intern(string(value))


def boolean(value: Any) -> bool:
    if not isinstance(value, bool):
        raise _refuse(value, "a boolean")
    return value


def array(value: Any) -> List[Any]:
    if not isinstance(value, list):
        raise _refuse(value, "a list")
    return value


def mapping(value: Any) -> Dict[str, Any]:
    if not isinstance(value, dict):
        raise _refuse(value, "an object")
    return value


def optional(read: Callable[[Any], T]) -> Callable[[Any], Optional[T]]:
    """A reader that passes ``None`` and reads anything else with ``read``."""
    return lambda value: None if value is None else read(value)


def row(value: Any, *readers: Callable[[Any], Any]) -> List[Any]:
    """A list of exactly one item per reader, each read by its reader."""
    items = array(value)
    if len(items) != len(readers):
        raise ValueError(f"expected {len(readers)} items, got {len(items)}")
    return [read(item) for read, item in zip(readers, items)]
