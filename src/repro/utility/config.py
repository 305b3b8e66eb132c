"""Job configuration interface.

The paper's RUSH-YARN prototype accepts each job's requirements — time
budget ``B``, priority ``W``, sensitivity ``beta`` and the utility class —
as an XML file submitted through a configuration interface (Section IV).
This module reproduces that interface: utilities can be built from plain
dictionaries (the programmatic path) or parsed from the same kind of XML
document (the operator path).

Example XML document::

    <job>
      <utility class="sigmoid">
        <budget>600</budget>
        <priority>5</priority>
        <beta>0.8</beta>
      </utility>
    </job>
"""

from __future__ import annotations

import xml.etree.ElementTree as ET
from typing import Any, Callable, Dict, Mapping

from repro.errors import ConfigurationError
from repro.utility.base import UtilityFunction
from repro.utility.constant import ConstantUtility
from repro.utility.linear import LinearUtility
from repro.utility.piecewise import PiecewiseUtility
from repro.utility.sigmoid import SigmoidUtility
from repro.utility.step import StepUtility

__all__ = [
    "utility_from_config",
    "utility_from_xml",
    "utility_to_config",
    "register_utility_class",
]

_BUILDERS: Dict[str, Callable[[Mapping[str, Any]], UtilityFunction]] = {}


def register_utility_class(name: str,
                           builder: Callable[[Mapping[str, Any]], UtilityFunction]) -> None:
    """Register a custom utility class under ``name``.

    This is the library equivalent of the paper's invitation for users to
    "submit their own utility classes": after registration the class can be
    referenced from configuration dictionaries and XML job files.
    """
    key = name.strip().lower()
    if not key:
        raise ConfigurationError("utility class name must be non-empty")
    _BUILDERS[key] = builder


def _build_linear(params: Mapping[str, Any]) -> UtilityFunction:
    return LinearUtility(budget=float(params["budget"]),
                         priority=float(params.get("priority", 1.0)),
                         beta=float(params.get("beta", 1.0)))


def _build_sigmoid(params: Mapping[str, Any]) -> UtilityFunction:
    return SigmoidUtility(budget=float(params["budget"]),
                          priority=float(params.get("priority", 1.0)),
                          beta=float(params.get("beta", 0.5)))


def _build_constant(params: Mapping[str, Any]) -> UtilityFunction:
    return ConstantUtility(priority=float(params.get("priority", 1.0)))


def _build_step(params: Mapping[str, Any]) -> UtilityFunction:
    return StepUtility(budget=float(params["budget"]),
                       priority=float(params.get("priority", 1.0)))


def _build_piecewise(params: Mapping[str, Any]) -> UtilityFunction:
    points = params.get("points")
    if not points:
        raise ConfigurationError("piecewise utility needs a 'points' list")
    return PiecewiseUtility(points)


register_utility_class("linear", _build_linear)
register_utility_class("sigmoid", _build_sigmoid)
register_utility_class("constant", _build_constant)
register_utility_class("step", _build_step)
register_utility_class("piecewise", _build_piecewise)


def utility_from_config(config: Mapping[str, Any]) -> UtilityFunction:
    """Build a utility function from a configuration mapping.

    The mapping must contain a ``class`` key naming a registered utility
    class; the remaining keys are passed to that class's builder.
    """
    try:
        name = str(config["class"]).strip().lower()
    except KeyError:
        raise ConfigurationError("utility config needs a 'class' key") from None
    builder = _BUILDERS.get(name)
    if builder is None:
        known = ", ".join(sorted(_BUILDERS))
        raise ConfigurationError(f"unknown utility class {name!r}; known: {known}")
    try:
        return builder(config)
    except KeyError as exc:
        raise ConfigurationError(
            f"utility class {name!r} is missing required parameter {exc}") from None
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad parameter for utility class {name!r}: {exc}") from None


def utility_to_config(utility: UtilityFunction) -> Dict[str, Any]:
    """Serialize a built-in utility back to its configuration mapping.

    Round-trips with :func:`utility_from_config` for the shipped classes;
    raises :class:`ConfigurationError` for unknown custom classes.  A class
    with ``PARAMS`` is written as those parameters under its registered
    name, ``FooUtility`` -> ``"foo"``.
    """
    if isinstance(utility, PiecewiseUtility):
        return {"class": "piecewise", "points": list(utility.breakpoints)}
    name = type(utility).__name__.removesuffix("Utility").lower()
    if utility.PARAMS and name in _BUILDERS:
        return {"class": name,
                **{param: getattr(utility, param) for param in utility.PARAMS}}
    raise ConfigurationError(
        f"cannot serialize utility of type {type(utility).__name__}")


def utility_from_xml(document: str) -> UtilityFunction:
    """Parse the paper's XML job-requirement format into a utility.

    ``document`` is the XML text.  The utility element may appear at the
    root or nested under a ``<job>`` element; its class is given by the
    ``class`` attribute and each parameter by a child element whose text is
    the value.
    """
    try:
        root = ET.fromstring(document)
    except ET.ParseError as exc:
        raise ConfigurationError(f"malformed job XML: {exc}") from None
    node = root if root.tag == "utility" else root.find("utility")
    if node is None:
        raise ConfigurationError("job XML has no <utility> element")
    name = node.get("class")
    if name is None:
        raise ConfigurationError("<utility> element needs a class attribute")
    params: Dict[str, Any] = {"class": name}
    for child in node:
        if child.tag == "points":
            params["points"] = [
                (float(pt.get("time")), float(pt.get("value")))
                for pt in child.findall("point")
            ]
        else:
            params[child.tag] = (child.text or "").strip()
    return utility_from_config(params)
