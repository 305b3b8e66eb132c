"""Project call graph over the flow index.

Call sites in :class:`~repro.lint.flow.symbols.ModuleSummary` carry
locally-resolved dotted names (``repro.core.wcde.solve_wcde``,
``repro.core.RushPlanner.plan``, …).  This module finishes the job:
it chases re-exports through package ``__init__`` import maps, resolves
method calls through class definitions (including inherited methods),
and materializes an edge set with reachability queries that remember
*how* each function was reached so messages can cite a call chain.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.lint.flow.symbols import FlowIndex, ModuleSummary

__all__ = ["CallGraph"]

#: Node identity: fully-resolved ``module.qualname``.
Node = str


class CallGraph:
    """Resolved call edges + reachability over a :class:`FlowIndex`."""

    def __init__(self, index: FlowIndex) -> None:
        self.index = index
        #: fq function name -> (owning summary, function info dict)
        self.functions: Dict[Node, Tuple[ModuleSummary, Dict[str, Any]]] = {}
        #: fq class name -> (owning summary, class info dict)
        self.classes: Dict[str, Tuple[ModuleSummary, Dict[str, Any]]] = {}
        self._resolve_cache: Dict[str, Optional[Node]] = {}
        for module, summary in index.modules.items():
            for qual, info in summary.functions.items():
                self.functions[f"{module}.{qual}"] = (summary, info)
            for cls, cinfo in summary.classes.items():
                self.classes[f"{module}.{cls}"] = (summary, cinfo)
        #: caller fq -> list of (callee fq, line)
        self.edges: Dict[Node, List[Tuple[Node, int]]] = {}
        for node, (summary, info) in self.functions.items():
            out: List[Tuple[Node, int]] = []
            for call in info["calls"]:
                callee = call.get("callee")
                if callee is None:
                    continue
                resolved = self.resolve(callee)
                if resolved is not None:
                    out.append((resolved, call["line"]))
            self.edges[node] = out

    # -- name resolution ----------------------------------------------

    def resolve(self, fq: str) -> Optional[Node]:
        """Resolve a dotted name to a known function node, if any.

        Handles direct hits, re-exports through package ``__init__``
        modules (``repro.core.solve_wcde`` → ``repro.core.wcde.
        solve_wcde``), class constructor calls (→ ``Cls.__init__`` when
        defined), and method lookup through base classes.
        """
        if fq in self._resolve_cache:
            return self._resolve_cache[fq]
        self._resolve_cache[fq] = None  # cycle guard
        result = self._resolve_uncached(fq, set())
        self._resolve_cache[fq] = result
        return result

    def _resolve_uncached(self, fq: str, seen: Set[str]) -> Optional[Node]:
        if fq in seen:
            return None
        seen.add(fq)
        if fq in self.functions:
            return fq
        # Constructor call: Cls(...) targets Cls.__init__ when defined.
        if fq in self.classes:
            init = self._method_on(fq, "__init__", set())
            return init
        # Split into (module prefix, remainder) at the longest prefix
        # that names an indexed module.
        module, rest = self._split_module(fq)
        if module is None or not rest:
            return None
        summary = self.index.modules[module]
        parts = rest.split(".")
        head = parts[0]
        # Method on a class defined in this module (maybe inherited).
        if head in summary.classes and len(parts) >= 2:
            hit = self._method_on(f"{module}.{head}", parts[1], set())
            if hit is not None:
                return hit
        # Re-export: the module's import map forwards the name.
        if head in summary.imports:
            forwarded = summary.imports[head]
            target = ".".join([forwarded] + parts[1:])
            return self._resolve_uncached(target, seen)
        return None

    def _split_module(self, fq: str) -> Tuple[Optional[str], str]:
        parts = fq.split(".")
        for cut in range(len(parts), 0, -1):
            candidate = ".".join(parts[:cut])
            if candidate in self.index.modules:
                return candidate, ".".join(parts[cut:])
        return None, fq

    def _method_on(self, class_fq: str, method: str,
                   seen: Set[str]) -> Optional[Node]:
        """Find ``method`` on ``class_fq`` or its (resolvable) bases."""
        if class_fq in seen or class_fq not in self.classes:
            return None
        seen.add(class_fq)
        summary, cinfo = self.classes[class_fq]
        if method in cinfo.get("methods", ()):
            cls_name = class_fq.rsplit(".", 1)[-1]
            node = f"{summary.module}.{cls_name}.{method}"
            if node in self.functions:
                return node
        for base in cinfo.get("bases", ()):
            base_fq = self._resolve_class(base)
            if base_fq is not None:
                hit = self._method_on(base_fq, method, seen)
                if hit is not None:
                    return hit
        return None

    def _resolve_class(self, fq: str) -> Optional[str]:
        if fq in self.classes:
            return fq
        module, rest = self._split_module(fq)
        if module is None or not rest:
            return None
        summary = self.index.modules[module]
        parts = rest.split(".")
        head = parts[0]
        if head in summary.classes and len(parts) == 1:
            return f"{module}.{head}"
        if head in summary.imports:
            forwarded = summary.imports[head]
            return self._resolve_class(".".join([forwarded] + parts[1:]))
        return None

    # -- reachability -------------------------------------------------

    def reachable_from(self, roots: Iterable[Node]) -> Dict[Node,
                                                            Optional[Node]]:
        """BFS closure of ``roots``; maps node → parent (roots → None).

        Parent pointers let callers reconstruct one witness call chain
        from any reached function back to a root for diagnostics.
        """
        parent: Dict[Node, Optional[Node]] = {}
        queue: deque = deque()
        for root in roots:
            if root in self.functions and root not in parent:
                parent[root] = None
                queue.append(root)
        while queue:
            node = queue.popleft()
            for callee, _line in self.edges.get(node, ()):
                if callee not in parent:
                    parent[callee] = node
                    queue.append(callee)
        return parent

    def chain_to_root(self, node: Node,
                      parent: Dict[Node, Optional[Node]]) -> List[Node]:
        """Witness path ``[root, ..., node]`` from a reachability map."""
        chain: List[Node] = []
        current: Optional[Node] = node
        while current is not None:
            chain.append(current)
            current = parent.get(current)
        return list(reversed(chain))
