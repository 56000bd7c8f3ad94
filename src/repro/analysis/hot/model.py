"""Per-file hot-path fact extraction and the joined ``HotProgram``.

The hot analyzer answers one question the others cannot: *which
Python costs are paid once per dispatched event?*  The verify model
already proves where the hot paths are — the forward closure
of every schedule/push site (:meth:`Program.kernel_reachable`).  This
module extracts the complementary *cost facts* from each file:

* allocation sites (display literals, comprehensions, f-strings,
  closures) with loop/cold context,
* depth-≥2 attribute chains (``a.b.c``) grouped by their first
  dereference so rules can ask "is ``a.b`` re-read per event?",
* ``.get()`` probes with loop-invariance evidence,
* ``try/except`` shapes (caught types, whether handlers re-raise),
* class definitions (``__slots__`` presence, bases) and class
  instantiation sites.

Cold contexts are excluded at extraction time so the rules stay
provable-only: anything inside a ``raise`` statement, an ``except``
handler, an ``assert``, or an ``if <x>.enabled:`` tracer guard is
never the per-event common case and must not be flagged.

Everything extracted is JSON-serializable — the hot facts ride in the
same ``program`` :class:`~repro.analysis.lint.cache.AnalysisCache`
entry as the verify summary of the same file, extracted from the same
parse.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.lint.core import dotted_name
from repro.analysis.verify.model import Program, module_name_for

__all__ = [
    "hot_summary_tree",
    "HotProgram",
]

#: Method names treated as dict probes by item-call-in-hot-loop.
PROBE_METHODS = ("get",)

#: Exception names whose non-re-raising handlers signal expected-case
#: branching (EAFP where a membership test or ``.get`` is cheaper).
EXPECTED_EXCEPTIONS = frozenset(
    {"KeyError", "IndexError", "AttributeError", "StopIteration"})

#: Base-class names that end the "is every base slotted?" search.
_SLOTTED_ROOTS = frozenset({"object"})

_DISPLAY_KINDS = {
    ast.Tuple: "tuple",
    ast.List: "list",
    ast.Set: "set",
    ast.Dict: "dict",
}

_COMP_KINDS = {
    ast.ListComp: "list-comp",
    ast.SetComp: "set-comp",
    ast.DictComp: "dict-comp",
    ast.GeneratorExp: "genexp",
}


def _desc(node: ast.AST, limit: int = 60) -> str:
    text = ast.unparse(node)
    if len(text) > limit:
        text = text[:limit - 3] + "..."
    return text


def _chain_parts(node: ast.expr) -> Optional[List[str]]:
    """``["a", "b", "c"]`` for ``a.b.c``; None when the base is not a
    bare Name (calls/subscripts in the middle make hoisting unprovable).
    """
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        parts.reverse()
        return parts
    return None


def _names_in(node: ast.AST) -> Set[str]:
    return {child.id for child in ast.walk(node)
            if isinstance(child, ast.Name)}


def _is_trace_guard(test: ast.expr) -> bool:
    """``if tracer.enabled:`` (possibly and-ed) — the guarded block is
    the *disabled-by-default* tracing slow path, not per-event cost."""
    if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
        return any(_is_trace_guard(value) for value in test.values)
    return isinstance(test, ast.Attribute) and test.attr == "enabled"


def _is_type_checking(test: ast.expr) -> bool:
    return dotted_name(test).rsplit(".", 1)[-1] == "TYPE_CHECKING"


def _target_names(target: ast.expr) -> Set[str]:
    return {child.id for child in ast.walk(target)
            if isinstance(child, ast.Name)}


def _bound_names(node: ast.AST) -> Set[str]:
    """Every name stored (or deleted) anywhere under ``node`` — the
    set a loop may rebind per iteration, so nothing mentioning one is
    provably loop-invariant."""
    return {child.id for child in ast.walk(node)
            if isinstance(child, ast.Name)
            and isinstance(child.ctx, (ast.Store, ast.Del))}


class _HotScanner:
    """One pass over a function body collecting per-event cost facts."""

    def __init__(self, qualname: str, node: ast.AST) -> None:
        self.qualname = qualname
        self.lineno = getattr(node, "lineno", 0)
        self.allocs: List[Dict[str, Any]] = []
        self.chains: List[Dict[str, Any]] = []
        self.probes: List[Dict[str, Any]] = []
        self.tries: List[Dict[str, Any]] = []
        self.instantiations: List[Dict[str, Any]] = []
        #: Chain expressions the function already binds to a local
        #: (``session = packet.session``) — rules skip these prefixes.
        self.bindings: Set[str] = set()
        #: Stack of enclosing loops: a set of target names for ``for``
        #: and comprehensions, None for ``while`` (targets unknown).
        self._loops: List[Optional[Set[str]]] = []
        self._cold = 0

    # -- context helpers -----------------------------------------------
    def _in_loop(self) -> bool:
        return bool(self._loops)

    def _invariant(self, names: Set[str]) -> bool:
        """Provably loop-invariant: no name is bound by any enclosing
        loop, and no enclosing loop has unknown targets."""
        for targets in self._loops:
            if targets is None or names & targets:
                return False
        return True

    def _record(self, records: List[Dict[str, Any]],
                entry: Dict[str, Any], node: ast.AST) -> None:
        entry["lineno"] = getattr(node, "lineno", self.lineno)
        entry["col"] = getattr(node, "col_offset", 0)
        entry["loop"] = self._in_loop()
        entry["cold"] = self._cold > 0
        records.append(entry)

    # -- statements ----------------------------------------------------
    def scan_body(self, body: List[ast.stmt]) -> None:
        for stmt in body:
            self._stmt(stmt)

    def _stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def evaluated per call of the enclosing function
            # allocates a fresh closure per event.  Its body belongs to
            # its own scanner.
            self._alloc(node, "closure", desc=f"def {node.name}")
        elif isinstance(node, ast.ClassDef):
            pass  # walked by the per-scope driver
        elif isinstance(node, (ast.Raise, ast.Assert)):
            pass  # never the per-event common case
        elif isinstance(node, ast.If):
            if _is_type_checking(node.test):
                return
            self._expr(node.test)
            if _is_trace_guard(node.test):
                self._cold += 1
                self.scan_body(node.body)
                self._cold -= 1
            else:
                self.scan_body(node.body)
            self.scan_body(node.orelse)
        elif isinstance(node, ast.Try):
            self._try(node)
        elif isinstance(node, ast.For):
            self._expr(node.iter)
            self._loops.append(
                _target_names(node.target) | _bound_names(node))
            self.scan_body(node.body)
            self.scan_body(node.orelse)
            self._loops.pop()
        elif isinstance(node, ast.While):
            self._loops.append(None)  # condition-driven: targets unknown
            self._expr(node.test)
            self.scan_body(node.body)
            self.scan_body(node.orelse)
            self._loops.pop()
        elif isinstance(node, ast.Assign):
            if len(node.targets) == 1 \
                    and isinstance(node.targets[0], ast.Name):
                parts = _chain_parts(node.value)
                if parts is not None:
                    self.bindings.add(".".join(parts))
            self._expr(node.value)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None:
                self._expr(node.value)
        elif isinstance(node, ast.AugAssign):
            self._expr(node.value)
        else:
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.stmt):
                    self._stmt(child)
                elif isinstance(child, ast.expr):
                    self._expr(child)

    def _try(self, node: ast.Try) -> None:
        if node.handlers:
            types: List[str] = []
            reraises = False
            for handler in node.handlers:
                if handler.type is None:
                    types.append("")
                elif isinstance(handler.type, ast.Tuple):
                    types.extend(dotted_name(elt)
                                 for elt in handler.type.elts)
                else:
                    types.append(dotted_name(handler.type))
                reraises = reraises or any(
                    isinstance(child, ast.Raise)
                    for stmt in handler.body
                    for child in ast.walk(stmt))
            self._record(self.tries,
                         {"types": types, "reraises": reraises}, node)
        self.scan_body(node.body)
        self._cold += 1
        for handler in node.handlers:
            self.scan_body(handler.body)
        self._cold -= 1
        self.scan_body(node.orelse)
        self.scan_body(node.finalbody)

    # -- expressions ---------------------------------------------------
    def _expr(self, node: ast.expr) -> None:
        if isinstance(node, ast.Attribute):
            self._attribute(node)
        elif isinstance(node, ast.Call):
            self._call(node)
        elif isinstance(node, tuple(_DISPLAY_KINDS)):
            self._display(node)
        elif isinstance(node, tuple(_COMP_KINDS)):
            self._comprehension(node)
        elif isinstance(node, ast.JoinedStr):
            if any(isinstance(value, ast.FormattedValue)
                   for value in node.values):
                self._alloc(node, "f-string")
            for value in node.values:
                self._expr(value)
        elif isinstance(node, ast.Lambda):
            self._alloc(node, "closure")
        else:
            self._generic(node)

    def _generic(self, node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._expr(child)
            elif isinstance(child, ast.keyword):
                self._expr(child.value)

    def _attribute(self, node: ast.Attribute) -> None:
        parts = _chain_parts(node)
        if parts is None:
            self._expr(node.value)
            return
        if len(parts) >= 3 and isinstance(node.ctx, ast.Load):
            self._record(self.chains, {
                "prefix": ".".join(parts[:2]),
                "chain": ".".join(parts),
            }, node)

    def _call(self, node: ast.Call) -> None:
        func = node.func
        name = dotted_name(func)
        last = name.rsplit(".", 1)[-1] if name else ""
        if isinstance(func, ast.Attribute) \
                and func.attr in PROBE_METHODS:
            names = _names_in(node)
            self._record(self.probes, {
                "desc": _desc(node),
                "invariant": self._in_loop()
                and self._invariant(names),
            }, node)
            if _chain_parts(func) is None:
                self._expr(func.value)
        elif name and last[:1].isupper():
            self._record(self.instantiations, {"name": name}, node)
        elif isinstance(func, ast.Attribute):
            self._attribute(func)
        elif not isinstance(func, ast.Name):
            self._expr(func)
        for arg in node.args:
            self._expr(arg)
        for kw in node.keywords:
            self._expr(kw.value)

    def _alloc(self, node: ast.AST, kind: str, size: int = 0,
               desc: Optional[str] = None) -> None:
        self._record(self.allocs, {
            "kind": kind,
            "desc": desc if desc is not None else _desc(node),
            "size": size,
            "invariant": self._in_loop()
            and self._invariant(_names_in(node)),
        }, node)

    def _display(self, node: ast.expr) -> None:
        kind = _DISPLAY_KINDS[type(node)]
        folded = isinstance(node, ast.Tuple) and all(
            isinstance(elt, ast.Constant) for elt in node.elts)
        size = len(node.keys) if isinstance(node, ast.Dict) \
            else len(node.elts)  # type: ignore[attr-defined]
        if not folded:  # constant tuples are interned by the compiler
            self._alloc(node, kind, size=size)
        self._generic(node)

    def _comprehension(self, node: ast.expr) -> None:
        self._alloc(node, _COMP_KINDS[type(node)])
        pushed = 0
        for comp in node.generators:
            self._expr(comp.iter)  # first iter evaluated outside
            self._loops.append(_target_names(comp.target))
            pushed += 1
            for cond in comp.ifs:
                self._expr(cond)
        if isinstance(node, ast.DictComp):
            self._expr(node.key)
            self._expr(node.value)
        else:
            self._expr(node.elt)  # type: ignore[attr-defined]
        for _ in range(pushed):
            self._loops.pop()

    def summary(self, name: str) -> Dict[str, Any]:
        return {
            "qualname": self.qualname,
            "name": name,
            "lineno": self.lineno,
            "allocs": self.allocs,
            "chains": self.chains,
            "probes": self.probes,
            "tries": self.tries,
            "instantiations": self.instantiations,
            "bindings": sorted(self.bindings),
        }


def _dataclass_slots(node: ast.ClassDef) -> bool:
    """True for ``@dataclass(..., slots=True)`` decorations."""
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        name = dotted_name(decorator.func)
        if name is None or name.rsplit(".", 1)[-1] != "dataclass":
            continue
        for keyword in decorator.keywords:
            if (keyword.arg == "slots"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is True):
                return True
    return False


def _scan_class(node: ast.ClassDef, qualname: str) -> Dict[str, Any]:
    has_slots = _dataclass_slots(node) or any(
        isinstance(stmt, (ast.Assign, ast.AnnAssign)) and any(
            isinstance(target, ast.Name) and target.id == "__slots__"
            for target in (stmt.targets
                           if isinstance(stmt, ast.Assign)
                           else [stmt.target]))
        for stmt in node.body)
    bases = [dotted_name(base) or _desc(base) for base in node.bases]
    exception_like = node.name.endswith(("Error", "Exception")) or any(
        base.rsplit(".", 1)[-1].endswith(("Error", "Exception"))
        or base.rsplit(".", 1)[-1] in ("BaseException", "Warning")
        for base in bases)
    return {
        "name": node.name,
        "qualname": qualname,
        "lineno": node.lineno,
        "col": node.col_offset,
        "has_slots": has_slots,
        "bases": bases,
        "exception_like": exception_like,
    }


def hot_summary_tree(tree: ast.Module, path: Path) -> Dict[str, Any]:
    """Extract one parsed file's JSON-serializable hot-path facts."""
    module_name = module_name_for(path)
    functions: List[Dict[str, Any]] = []
    classes: List[Dict[str, Any]] = []

    def scan_def(node: ast.AST, name: str, prefix: str) -> None:
        qualname = f"{prefix}{name}" if prefix else name
        scanner = _HotScanner(qualname, node)
        scanner.scan_body(getattr(node, "body", []))
        functions.append(scanner.summary(name))
        walk_scope(getattr(node, "body", []), f"{qualname}.")

    def walk_scope(body: List[ast.stmt], prefix: str) -> None:
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scan_def(node, node.name, prefix)
            elif isinstance(node, ast.ClassDef):
                qualname = f"{prefix}{node.name}" if prefix \
                    else node.name
                classes.append(_scan_class(node, qualname))
                walk_scope(node.body, f"{qualname}.")
            elif isinstance(node, (ast.If, ast.Try, ast.With, ast.For,
                                   ast.While)):
                for child in ast.iter_child_nodes(node):
                    if isinstance(child, ast.stmt):
                        walk_scope([child], prefix)

    walk_scope(tree.body, "")
    return {
        "module": module_name,
        "path": str(path),
        "functions": functions,
        "classes": classes,
    }


# ----------------------------------------------------------------------
# Joined view
# ----------------------------------------------------------------------
class HotProgram:
    """Hot facts joined with the verify Program's reachability."""

    def __init__(self, program: Program,
                 hot_summaries: List[Dict[str, Any]]) -> None:
        self.program = program
        #: ``"module:qualname"`` -> (file hot summary, function facts).
        self.functions: Dict[str, Tuple[Dict[str, Any],
                                        Dict[str, Any]]] = {}
        #: Bare class name -> every definition with that name.
        self.classes_by_name: Dict[str, List[Dict[str, Any]]] = {}
        self._functions_by_path: Dict[str, List[Dict[str, Any]]] = {}
        for summary in hot_summaries:
            module = summary["module"]
            per_path = self._functions_by_path.setdefault(
                summary["path"], [])
            for function in summary["functions"]:
                key = f"{module}:{function['qualname']}"
                self.functions[key] = (summary, function)
                per_path.append(function)
            for entry in summary["classes"]:
                record = {**entry, "path": summary["path"],
                          "module": module}
                self.classes_by_name.setdefault(
                    entry["name"], []).append(record)
        for functions in self._functions_by_path.values():
            functions.sort(key=lambda fn: int(fn["lineno"]))
        self.reachable = program.kernel_reachable()

    def is_suppressed(self, path: str, line: int, rule: str) -> bool:
        return self.program.is_suppressed(path, line, rule)

    def hot_functions(self) -> Iterator[Tuple[str, Dict[str, Any],
                                              Dict[str, Any]]]:
        """Kernel-reachable functions, sorted for stable reports."""
        for key in sorted(self.functions):
            if key in self.reachable:
                summary, function = self.functions[key]
                yield key, summary, function

    def resolve_class(self, name: str) -> Optional[Dict[str, Any]]:
        """The unique in-tree class with this (last-segment) name."""
        candidates = self.classes_by_name.get(
            name.rsplit(".", 1)[-1], [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def provably_unslotted(self, entry: Dict[str, Any]) -> bool:
        """True when adding ``__slots__`` to this class would provably
        make its instances dict-free.

        Requires every base to resolve in-tree *and* define
        ``__slots__`` itself (or be ``object``): an unresolvable or
        unslotted base contributes a dict no matter what the subclass
        declares, so such classes are skipped rather than guessed at.
        """
        if entry["has_slots"]:
            return False
        for base in entry["bases"]:
            if base.rsplit(".", 1)[-1] in _SLOTTED_ROOTS:
                continue
            resolved = self.resolve_class(base)
            if resolved is None or not resolved["has_slots"]:
                return False
        return True

    def enclosing_function(self, path: str,
                           line: int) -> Optional[Dict[str, Any]]:
        """The function whose def precedes ``line`` most closely."""
        best: Optional[Dict[str, Any]] = None
        for function in self._functions_by_path.get(path, []):
            if int(function["lineno"]) <= line:
                best = function
            else:
                break
        return best
