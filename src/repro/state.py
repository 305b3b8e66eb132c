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
silently different engine.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, TypeVar

__all__ = ["integer", "number", "string", "boolean", "array", "mapping",
           "optional", "row"]

T = TypeVar("T")


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
