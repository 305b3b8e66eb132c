"""Per-module symbol extraction and the project flow index.

One parse of each file produces a :class:`ModuleSummary`: a digest of
everything the interprocedural passes need — import bindings, module
global names, class structure, and per-function facts (call sites with
taint dependencies, return taint, RNG sinks, global writes, wall-clock
and I/O calls, raise/except structure, suppression index).
:func:`build_index` collects one summary per file into a
:class:`FlowIndex`.

Taint dependencies (the ``dep`` dicts threaded through summaries) form
a tiny lattice resolved later by :mod:`repro.lint.flow.taint`:

* ``None`` — clean;
* ``{"kind": "source", ...}`` — derived from an unseeded RNG origin
  (stdlib ``random``, legacy ``numpy.random`` module calls, seedless
  ``default_rng()`` / bit-generator constructors, ``os.urandom``,
  ``secrets``, ``uuid.uuid4``);
* ``{"kind": "param", "index": i, ...}`` — tainted iff argument ``i``
  of the enclosing function is tainted at some call site;
* ``{"kind": "call", "callee": fq, ...}`` — tainted iff the named
  function's return value is tainted.

Every dep carries a ``chain`` of ``{"line", "note"}`` hops recording
the intra-function derivation, so interprocedural findings can render
the full ``source → hop → … → sink`` path with file:line precision.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import (Any, Dict, FrozenSet, List, Optional, Sequence, Set,
                    Tuple)

from repro.lint.framework import (_parse_suppressions, _suppressed,
                                  iter_python_files)
from repro.lint.rules import _SEEDABLE_NUMPY, _handler_records

__all__ = [
    "ModuleSummary",
    "FlowIndex",
    "module_name_for",
    "extract_module",
    "build_index",
]

Dep = Optional[Dict[str, Any]]

#: Fully-qualified call targets that read the wall clock.
_WALL_CLOCK_FQ = frozenset({
    "time.time", "time.time_ns", "time.localtime", "time.gmtime",
    "time.ctime", "time.strftime", "time.asctime",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.datetime.fromtimestamp",
    "datetime.date.today", "datetime.date.fromtimestamp",
})

#: Builtin call names that perform I/O.
_IO_BUILTINS = frozenset({"open", "print", "input"})

#: Fully-qualified I/O surfaces beyond the builtins.
_IO_FQ = frozenset({
    "sys.stdout.write", "sys.stderr.write", "builtins.open",
    "builtins.print", "builtins.input",
})

#: Method names that mutate their receiver in place (used to classify a
#: call on a module-global container as a global write).
_MUTATORS = frozenset({
    "append", "add", "update", "pop", "popitem", "clear", "extend",
    "remove", "discard", "insert", "setdefault", "sort", "reverse",
})


def module_name_for(path: str) -> str:
    """Dotted module name for ``path``.

    Paths under a ``repro`` component map to their real dotted name
    (``src/repro/core/wcde.py`` → ``repro.core.wcde``); anything else is
    addressed by its stem, so a flat fixture directory resolves sibling
    imports (``from helper import f``) naturally.
    """
    parts = list(Path(path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][:-3]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    if not parts:
        return ""
    if "repro" in parts:
        idx = len(parts) - 1 - parts[::-1].index("repro")
        return ".".join(parts[idx:])
    # Flat/out-of-tree project: climb enclosing packages (directories
    # with an __init__.py) so `pkg/inner.py` names `pkg.inner` and
    # re-exports through `pkg/__init__.py` stay resolvable.
    names = [parts[-1]]
    directory = Path(path).parent
    if Path(path).stem == "__init__":
        directory = directory.parent
    while (directory / "__init__.py").is_file():
        names.insert(0, directory.name)
        directory = directory.parent
    return ".".join(names)


def _dotted(node: ast.expr) -> Optional[str]:
    """Flatten ``a.b.c`` attribute chains to a dotted string."""
    chain: List[str] = []
    while isinstance(node, ast.Attribute):
        chain.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        chain.append(node.id)
        return ".".join(reversed(chain))
    return None


def _hop(line: int, note: str) -> Dict[str, Any]:
    return {"line": line, "note": note}


def _dep_with_hop(dep: Dep, line: int, note: str) -> Dep:
    """A copy of ``dep`` with one derivation hop appended."""
    if dep is None:
        return None
    out = dict(dep)
    out["chain"] = list(dep.get("chain", ())) + [_hop(line, note)]
    return out


@dataclass
class ModuleSummary:
    """Everything the flow passes need to know about one module."""

    module: str
    path: str
    imports: Dict[str, str] = field(default_factory=dict)
    #: Names bound at module scope (what global-write detection keys on).
    globals: Set[str] = field(default_factory=set)
    classes: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    functions: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    suppress_lines: Dict[int, FrozenSet[str]] = field(default_factory=dict)
    suppress_file: FrozenSet[str] = frozenset()

    def suppressed(self, rule_id: str, line: int) -> bool:
        """Whether ``rule_id`` is silenced at ``line`` in this module."""
        return _suppressed(rule_id, line, self.suppress_lines,
                           self.suppress_file)


class _FunctionExtractor:
    """One walk over a function body, producing its summary dict.

    The walk is statement-ordered, so assignments seen earlier shade
    taint for uses later — a cheap flow-sensitive approximation (branch
    bodies are walked in order and their bindings union, which
    over-approximates reachability but never loses a taint).
    """

    def __init__(self, mod: "_ModuleExtractor", fn: ast.AST,
                 qualname: str, class_name: Optional[str]) -> None:
        self.mod = mod
        self.fn = fn
        self.qualname = qualname
        self.class_name = class_name
        args = fn.args
        self.params: List[str] = [a.arg for a in (
            list(args.posonlyargs) + list(args.args))]
        self.kwonly: List[str] = [a.arg for a in args.kwonlyargs]
        self.all_params = self.params + self.kwonly
        self.is_method = class_name is not None and not any(
            _deco_name(d) == "staticmethod" for d in fn.decorator_list)
        self.locals: Set[str] = _collect_locals(fn)
        self.global_decls: Set[str] = set()
        for sub in ast.walk(fn):
            if isinstance(sub, ast.Global):
                self.global_decls |= set(sub.names)
        self.env: Dict[str, Dep] = {}
        self.local_types: Dict[str, str] = {}
        self.info: Dict[str, Any] = {
            "name": fn.name, "qualname": qualname, "line": fn.lineno,
            "params": self._param_names(), "calls": [], "returns": [],
            "sinks": [], "global_writes": [],
            "wall_clock": [], "io": [], "raises": [], "handlers": [],
        }

    def _param_names(self) -> List[str]:
        names = list(self.all_params)
        if self.is_method and names:
            names = names[1:]
        return names

    # -- name resolution ----------------------------------------------

    def _resolve(self, dotted: str) -> str:
        """Resolve a dotted chain against self/locals/imports/module."""
        parts = dotted.split(".")
        head = parts[0]
        if head == "self" and self.is_method and self.class_name:
            cls = self.mod.classes.get(self.class_name, {})
            if len(parts) >= 2:
                attr = parts[1]
                typed = cls.get("attr_types", {}).get(attr)
                if typed is not None:
                    return ".".join([typed] + parts[2:])
                return ".".join(
                    [self.mod.module, self.class_name] + parts[1:])
            return dotted
        if head in self.local_types and len(parts) >= 2:
            return ".".join([self.local_types[head]] + parts[1:])
        if head in self.locals or head in self.all_params:
            return dotted
        return self.mod.resolve(dotted)

    # -- taint sources ------------------------------------------------

    def _source_dep(self, call: ast.Call, fq: str) -> Tuple[Dep, bool]:
        """(dep, handled) for RNG-constructor/source semantics of ``fq``."""
        seedless = not call.args and not call.keywords
        none_seed = (len(call.args) == 1 and not call.keywords
                     and isinstance(call.args[0], ast.Constant)
                     and call.args[0].value is None)
        if fq.startswith("numpy.random."):
            attr = fq[len("numpy.random."):]
            if attr in _SEEDABLE_NUMPY:
                if seedless or none_seed:
                    return ({"kind": "source", "line": call.lineno,
                             "note": f"unseeded numpy.random.{attr}()",
                             "chain": [_hop(call.lineno,
                                            f"unseeded {attr}() entropy "
                                            "source")]}, True)
                return (self._args_dep(call, f"{attr}(...)"), True)
            return ({"kind": "source", "line": call.lineno,
                     "note": f"legacy numpy.random.{attr}() global stream",
                     "chain": [_hop(call.lineno,
                                    f"legacy np.random.{attr}() draws "
                                    "from the hidden global "
                                    "RandomState")]}, True)
        if fq == "random.Random" or fq == "random.SystemRandom":
            if seedless or none_seed or fq.endswith("SystemRandom"):
                return ({"kind": "source", "line": call.lineno,
                         "note": f"unseeded {fq}()",
                         "chain": [_hop(call.lineno,
                                        f"unseeded {fq}()")]}, True)
            return (self._args_dep(call, "Random(...)"), True)
        if fq.startswith("random."):
            return ({"kind": "source", "line": call.lineno,
                     "note": f"stdlib {fq}() hidden global state",
                     "chain": [_hop(call.lineno,
                                    f"stdlib {fq}() draws from hidden "
                                    "global state")]}, True)
        if fq in ("os.urandom", "uuid.uuid4") or fq.startswith("secrets."):
            return ({"kind": "source", "line": call.lineno,
                     "note": f"{fq}() OS entropy",
                     "chain": [_hop(call.lineno,
                                    f"{fq}() reads OS entropy")]}, True)
        return (None, False)

    def _args_dep(self, call: ast.Call, note: str) -> Dep:
        """Taint union over a call's arguments (first tainted wins)."""
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            dep = self._eval(arg)
            if dep is not None:
                return _dep_with_hop(dep, call.lineno,
                                     f"passed through {note}")
        return None

    # -- expression evaluation ----------------------------------------

    def _eval(self, node: Optional[ast.expr]) -> Dep:
        """Taint of one expression; records calls/sinks as a side effect."""
        if node is None:
            return None
        if isinstance(node, ast.Name):
            if node.id in self.env:
                return self.env[node.id]
            if node.id in self.info["params"]:
                return {"kind": "param",
                        "index": self.info["params"].index(node.id),
                        "chain": []}
            return None
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Attribute):
            base = self._eval(node.value)
            if base is not None:
                return _dep_with_hop(base, node.lineno,
                                     f"via attribute .{node.attr}")
            return None
        if isinstance(node, (ast.BinOp, ast.BoolOp, ast.Compare,
                             ast.Subscript, ast.Tuple, ast.List, ast.Set,
                             ast.Starred, ast.UnaryOp, ast.IfExp,
                             ast.JoinedStr, ast.FormattedValue,
                             ast.NamedExpr)):
            dep = None
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.expr):
                    sub = self._eval(child)
                    if dep is None and sub is not None:
                        dep = sub
                elif isinstance(child, ast.comprehension):
                    self._eval(child.iter)
            if isinstance(node, ast.NamedExpr) and isinstance(
                    node.target, ast.Name):
                self._bind(node.target.id, dep)
            return dep
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                             ast.GeneratorExp)):
            dep = None
            for gen in node.generators:
                sub = self._eval(gen.iter)
                for target in ast.walk(gen.target):
                    if isinstance(target, ast.Name):
                        self._bind(target.id, sub)
                if dep is None:
                    dep = sub
            if isinstance(node, ast.DictComp):
                for part in (node.key, node.value):
                    sub = self._eval(part)
                    dep = dep if dep is not None else sub
            else:
                sub = self._eval(node.elt)
                dep = dep if dep is not None else sub
            return dep
        if isinstance(node, ast.Dict):
            dep = None
            for part in list(node.keys) + list(node.values):
                if part is not None:
                    sub = self._eval(part)
                    dep = dep if dep is not None else sub
            return dep
        if isinstance(node, ast.Lambda):
            return None
        if isinstance(node, ast.Await):
            return self._eval(node.value)
        return None

    def _eval_call(self, call: ast.Call) -> Dep:
        func = call.func
        dotted = _dotted(func)
        fq = self._resolve(dotted) if dotted else None

        if fq is not None:
            dep, handled = self._source_dep(call, fq)
            if handled:
                self._eval_arguments_only(call)
                return dep
            if fq in _WALL_CLOCK_FQ:
                self.info["wall_clock"].append(
                    _hop(call.lineno, f"{fq}() reads the wall clock"))
            if fq in _IO_FQ or (fq in _IO_BUILTINS and "." not in fq):
                self.info["io"].append(
                    _hop(call.lineno, f"{fq}() performs I/O"))

        # Method call on a tainted receiver: the canonical sink (a draw
        # from an unseeded generator) — and the result is itself tainted.
        if isinstance(func, ast.Attribute):
            recv = self._eval(func.value)
            if recv is not None:
                self.info["sinks"].append({
                    "line": call.lineno,
                    "note": f".{func.attr}() drawn from a value of "
                            "unseeded-RNG provenance",
                    "cause": recv,
                })
                self._eval_arguments_only(call)
                self._note_mutator(call, func)
                return _dep_with_hop(recv, call.lineno,
                                     f"result of .{func.attr}()")
            self._note_mutator(call, func)

        arg_deps = [self._eval(a) for a in call.args]
        kw_deps = {kw.arg: self._eval(kw.value)
                   for kw in call.keywords if kw.arg is not None}
        for kw in call.keywords:
            if kw.arg is None:
                self._eval(kw.value)

        record: Dict[str, Any] = {
            "callee": fq, "raw": dotted or "<expr>", "line": call.lineno,
            "args": arg_deps, "kwargs": kw_deps,
        }
        self.info["calls"].append(record)

        if fq is not None:
            return {"kind": "call", "callee": fq, "line": call.lineno,
                    "chain": []}
        # Unknown callable: conservatively propagate argument taint
        # (e.g. float(x), np.asarray(x) keep provenance).
        for dep in arg_deps + list(kw_deps.values()):
            if dep is not None:
                return _dep_with_hop(dep, call.lineno,
                                     "passed through a call")
        return None

    def _eval_arguments_only(self, call: ast.Call) -> None:
        for arg in call.args:
            self._eval(arg)
        for kw in call.keywords:
            self._eval(kw.value)

    # -- side-effect bookkeeping --------------------------------------

    def _note_mutator(self, call: ast.Call, func: ast.Attribute) -> None:
        if func.attr not in _MUTATORS:
            return
        base = func.value
        if (isinstance(base, ast.Name) and base.id in self.mod.globals
                and base.id not in self.locals
                and base.id not in self.all_params):
            self.info["global_writes"].append(
                {"name": base.id, "line": call.lineno,
                 "note": f".{func.attr}() mutates module global"})

    def _bind(self, name: str, dep: Dep) -> None:
        if dep is None:
            self.env.pop(name, None)
        else:
            self.env[name] = dep

    # -- statements ---------------------------------------------------

    def run(self) -> Dict[str, Any]:
        self._walk_body(self.fn.body)
        return self.info

    def _walk_body(self, body: Sequence[ast.stmt]) -> None:
        for stmt in body:
            self._walk_stmt(stmt)

    def _walk_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are summarized separately
        if isinstance(stmt, ast.ClassDef):
            return
        if isinstance(stmt, ast.Assign):
            dep = self._eval(stmt.value)
            self._record_assignment_targets(stmt.targets, stmt, dep)
            self._record_local_type(stmt.targets, stmt.value)
            return
        if isinstance(stmt, ast.AnnAssign):
            dep = self._eval(stmt.value) if stmt.value else None
            self._record_assignment_targets([stmt.target], stmt, dep)
            if stmt.value is not None:
                self._record_local_type([stmt.target], stmt.value)
            return
        if isinstance(stmt, ast.AugAssign):
            dep = self._eval(stmt.value)
            prior = self._eval(stmt.target) if isinstance(
                stmt.target, ast.Name) else None
            self._record_assignment_targets(
                [stmt.target], stmt, dep if dep is not None else prior)
            return
        if isinstance(stmt, ast.Return):
            dep = self._eval(stmt.value)
            if dep is not None:
                self.info["returns"].append(
                    _dep_with_hop(dep, stmt.lineno, "returned to caller"))
            return
        if isinstance(stmt, ast.Expr):
            self._eval(stmt.value)
            return
        if isinstance(stmt, ast.Raise):
            self._note_raise(stmt)
            if stmt.exc is not None and isinstance(stmt.exc, ast.Call):
                self._eval_arguments_only(stmt.exc)
            return
        if isinstance(stmt, ast.Try):
            self._note_try(stmt)
            self._walk_body(stmt.body)
            for handler in stmt.handlers:
                self._walk_body(handler.body)
            self._walk_body(stmt.orelse)
            self._walk_body(stmt.finalbody)
            return
        if isinstance(stmt, (ast.If, ast.While)):
            self._eval(stmt.test)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            dep = self._eval(stmt.iter)
            for target in ast.walk(stmt.target):
                if isinstance(target, ast.Name):
                    self._bind(target.id, dep)
            self._walk_body(stmt.body)
            self._walk_body(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                dep = self._eval(item.context_expr)
                if item.optional_vars is not None:
                    if isinstance(item.optional_vars, ast.Name):
                        self._bind(item.optional_vars.id, dep)
                        self._record_local_type(
                            [item.optional_vars], item.context_expr)
            self._walk_body(stmt.body)
            return
        if isinstance(stmt, (ast.Assert, ast.Delete)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self._eval(child)
            return
        # Pass/Break/Continue/Import/Global/Nonlocal: nothing to track.

    def _record_assignment_targets(self, targets: Sequence[ast.expr],
                                   stmt: ast.stmt, dep: Dep) -> None:
        for target in targets:
            if isinstance(target, ast.Name):
                if target.id in self.global_decls:
                    self.info["global_writes"].append(
                        {"name": target.id, "line": stmt.lineno,
                         "note": "rebinds module global (global stmt)"})
                else:
                    self._bind(target.id, dep)
            elif isinstance(target, (ast.Tuple, ast.List)):
                for el in target.elts:
                    self._record_assignment_targets([el], stmt, dep)
            elif isinstance(target, (ast.Subscript, ast.Attribute)):
                base = target.value
                while isinstance(base, (ast.Subscript, ast.Attribute)):
                    base = base.value
                if (isinstance(base, ast.Name)
                        and base.id in self.mod.globals
                        and base.id not in self.locals
                        and base.id not in self.all_params):
                    self.info["global_writes"].append(
                        {"name": base.id, "line": stmt.lineno,
                         "note": "writes through module global"})
                self._eval(target.value)

    def _record_local_type(self, targets: Sequence[ast.expr],
                           value: ast.expr) -> None:
        if not isinstance(value, ast.Call):
            return
        dotted = _dotted(value.func)
        if dotted is None:
            return
        fq = self._resolve(dotted)
        if not self.mod.looks_like_class(fq):
            return
        for target in targets:
            if isinstance(target, ast.Name):
                self.local_types[target.id] = fq

    def _note_raise(self, stmt: ast.Raise) -> None:
        if stmt.exc is None:
            self.info["raises"].append(
                {"exc": "<reraise>", "line": stmt.lineno})
            return
        exc = stmt.exc
        if isinstance(exc, ast.Call):
            exc = exc.func
        dotted = _dotted(exc)
        name = self._resolve(dotted) if dotted else "<expr>"
        self.info["raises"].append({"exc": name, "line": stmt.lineno})

    def _note_try(self, stmt: ast.Try) -> None:
        guarded: List[str] = []
        for body_stmt in stmt.body:
            for sub in ast.walk(body_stmt):
                if isinstance(sub, ast.Call):
                    dotted = _dotted(sub.func)
                    if dotted is not None:
                        guarded.append(self._resolve(dotted))
        for handler in stmt.handlers:
            types: List[str] = []
            bare = handler.type is None
            type_nodes: List[ast.expr] = []
            if isinstance(handler.type, ast.Tuple):
                type_nodes = list(handler.type.elts)
            elif handler.type is not None:
                type_nodes = [handler.type]
            for node in type_nodes:
                dotted = _dotted(node)
                if dotted is not None:
                    types.append(self._resolve(dotted))
            self.info["handlers"].append({
                "types": types, "bare": bare, "line": handler.lineno,
                "records": _handler_records(handler),
                "guarded": sorted(set(guarded)),
            })


def _deco_name(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def _collect_locals(fn: ast.AST) -> Set[str]:
    """Names bound in ``fn``'s own scope (excluding global/nonlocal)."""
    out: Set[str] = set()
    args = fn.args
    for arg in (list(args.posonlyargs) + list(args.args)
                + list(args.kwonlyargs)):
        out.add(arg.arg)
    for star in (args.vararg, args.kwarg):
        if star is not None:
            out.add(star.arg)
    skip: Set[str] = set()
    for node in ast.walk(fn):
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            skip |= set(node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                               ast.ClassDef)) and node is not fn:
            out.add(node.name)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            out.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                out.add(alias.asname or alias.name.split(".")[0])
    return out - skip


class _ModuleExtractor:
    """Extract one file's :class:`ModuleSummary` from its AST."""

    def __init__(self, module: str, path: str, source: str,
                 tree: ast.Module) -> None:
        self.module = module
        self.path = path
        self.tree = tree
        self.imports: Dict[str, str] = {}
        self.globals: Set[str] = set()
        self.classes: Dict[str, Dict[str, Any]] = {}
        self.module_defs: Set[str] = set()
        self._collect_imports()
        self._collect_module_scope()
        self.suppress_lines, self.suppress_file = _parse_suppressions(source)

    # -- module-scope collection --------------------------------------

    def _collect_imports(self) -> None:
        package = self.module.rsplit(".", 1)[0] if "." in self.module else ""
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    target = (alias.name if alias.asname
                              else alias.name.split(".")[0])
                    self.imports[bound] = target
            elif isinstance(node, ast.ImportFrom):
                base = node.module or ""
                if node.level:
                    parts = self.module.split(".")
                    # one level strips the module name itself, further
                    # levels strip packages.
                    parts = parts[:len(parts) - node.level]
                    base = ".".join(parts + ([node.module]
                                             if node.module else []))
                    base = base or package
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    bound = alias.asname or alias.name
                    self.imports[bound] = (f"{base}.{alias.name}"
                                           if base else alias.name)

    def _collect_module_scope(self) -> None:
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                self.module_defs.add(node.name)
            elif isinstance(node, ast.ClassDef):
                self.module_defs.add(node.name)
                self._collect_class(node)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.globals.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if isinstance(node.target, ast.Name):
                    self.globals.add(node.target.id)

    def _collect_class(self, node: ast.ClassDef) -> None:
        bases = []
        for base in node.bases:
            dotted = _dotted(base)
            if dotted is not None:
                bases.append(self.resolve(dotted))
        methods = [item.name for item in node.body
                   if isinstance(item, (ast.FunctionDef,
                                        ast.AsyncFunctionDef))]
        self.classes[node.name] = {
            "bases": bases, "methods": methods, "attr_types": {},
            "line": node.lineno,
        }

    def resolve(self, dotted: str) -> str:
        """Resolve a dotted name through this module's import bindings."""
        head, _, rest = dotted.partition(".")
        if head in self.imports:
            base = self.imports[head]
            return f"{base}.{rest}" if rest else base
        if head in self.module_defs or head in self.globals:
            return f"{self.module}.{dotted}"
        return dotted

    def looks_like_class(self, fq: str) -> bool:
        """Heuristic: the terminal dotted component is CapWords."""
        terminal = fq.rsplit(".", 1)[-1]
        return bool(terminal) and terminal[0].isupper()

    # -- extraction ---------------------------------------------------

    def run(self) -> ModuleSummary:
        self._collect_attr_types()
        functions: Dict[str, Any] = {}
        for node in self.tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info = _FunctionExtractor(self, node, node.name, None).run()
                functions[node.name] = info
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef,
                                         ast.AsyncFunctionDef)):
                        qual = f"{node.name}.{item.name}"
                        info = _FunctionExtractor(
                            self, item, qual, node.name).run()
                        functions[qual] = info
        return ModuleSummary(
            module=self.module, path=self.path,
            imports=self.imports, globals=self.globals,
            classes=self.classes, functions=functions,
            suppress_lines=self.suppress_lines,
            suppress_file=self.suppress_file)

    def _collect_attr_types(self) -> None:
        """``self.x = SomeClass(...)`` assignments type class attrs."""
        for node in self.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            info = self.classes[node.name]
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Assign):
                    continue
                if not isinstance(sub.value, ast.Call):
                    continue
                dotted = _dotted(sub.value.func)
                if dotted is None:
                    continue
                fq = self.resolve(dotted)
                if not self.looks_like_class(fq):
                    continue
                for target in sub.targets:
                    if (isinstance(target, ast.Attribute)
                            and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        info["attr_types"][target.attr] = fq


def extract_module(path: str) -> ModuleSummary:
    """Parse one file into its :class:`ModuleSummary`."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    return _ModuleExtractor(module_name_for(path), path, source, tree).run()


@dataclass
class FlowIndex:
    """The project-wide symbol index: one summary per module."""

    modules: Dict[str, ModuleSummary] = field(default_factory=dict)
    #: Paths that failed to parse, with the syntax error message.
    broken: Dict[str, str] = field(default_factory=dict)

    def by_path(self, path: str) -> Optional[ModuleSummary]:
        for summary in self.modules.values():
            if summary.path == path:
                return summary
        return None


def build_index(paths: Sequence[str]) -> FlowIndex:
    """Extract every ``*.py`` file under ``paths`` into a flow index."""
    index = FlowIndex()
    for path in iter_python_files(paths):
        try:
            summary = extract_module(path)
        except OSError as exc:
            index.broken[path] = str(exc)
        except SyntaxError as exc:
            index.broken[path] = f"syntax error: {exc.msg}"
        else:
            index.modules[summary.module] = summary
    return index
