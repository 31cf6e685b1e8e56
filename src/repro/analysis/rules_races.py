"""Static schedule-safety rules (RA008-RA010).

The dynamic sanitizer (:mod:`repro.analysis.races`) proves a *run* is
schedule-independent; these rules catch the source patterns that make
runs schedule-dependent in the first place:

* **RA008** — module- or class-level mutable state written from more
  than one simulated process (generator function).  Module globals
  mutated by several processes have no owner, so their final state
  depends on same-instant scheduling order — the restart-dedupe bug
  class.  Share state through a Store / Resource (which the sanitizer
  instruments) or give it a single writer.
* **RA009** — a bare blocking wait (``yield x.recv()/get()/request()``)
  with no timeout race or cancellation path, inside service/scheduler
  code.  A long-running service that parks on an unbounded wait cannot
  be drained, preempted or shut down — the stall class the wait-for
  graph detects at runtime.  Race the wait against a timeout
  (``yield req | env.timeout(t)``) and cancel the loser.
* **RA010** — ``call_later(0, ...)`` without an explicit ``priority=``:
  two zero-delay calls land at the same ``(time, priority)`` and their
  relative order is decided by the layer-3 tie-break, which programs
  may not rely on (see the ordering contract in ``repro.sim.kernel``).
  Pass ``priority=`` to pin the order, or schedule with a real delay.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.analysis.core import Finding, ModuleInfo, Rule, dotted_name

__all__ = [
    "SharedMutableStateRule",
    "UnboundedServiceWaitRule",
    "UnorderedZeroDelayRule",
]

#: method names that mutate a container in place
_MUTATORS = frozenset({
    "add", "append", "appendleft", "clear", "discard", "extend",
    "extendleft", "insert", "pop", "popitem", "popleft", "push",
    "remove", "setdefault", "sort", "update",
})

#: constructors whose result is shared mutable state when module-level
_CONTAINER_CTORS = frozenset({
    "dict", "list", "set", "deque", "defaultdict", "Counter",
    "OrderedDict",
})


def _is_mutable_literal(node: ast.AST) -> bool:
    if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.ListComp,
                         ast.DictComp, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name is not None and name.rsplit(".", 1)[-1] in _CONTAINER_CTORS:
            return True
    return False


class _FunctionIndexer(ast.NodeVisitor):
    """Index every function: qualname, generator-ness, locals, writes."""

    def __init__(self) -> None:
        self.stack: list[dict] = []
        self.functions: list[dict] = []

    def _enter(self, node) -> None:
        qual = ".".join(
            [f["name"] for f in self.stack] + [node.name]
        )
        args = node.args
        params = {
            a.arg
            for a in (
                args.posonlyargs + args.args + args.kwonlyargs
                + ([args.vararg] if args.vararg else [])
                + ([args.kwarg] if args.kwarg else [])
            )
        }
        self.stack.append({
            "name": node.name,
            "qual": qual,
            "is_gen": False,
            "locals": params,
            "writes": [],  # (shared name, lineno, col)
        })

    def _exit(self) -> None:
        self.functions.append(self.stack.pop())

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter(node)
        self.generic_visit(node)
        self._exit()

    visit_AsyncFunctionDef = visit_FunctionDef  # type: ignore[assignment]

    def visit_Yield(self, node: ast.Yield) -> None:
        if self.stack:
            self.stack[-1]["is_gen"] = True
        self.generic_visit(node)

    visit_YieldFrom = visit_Yield  # type: ignore[assignment]

    # -- track locals so shadowed names don't count as shared writes ----
    def _add_binding_names(self, tgt: ast.AST) -> None:
        """Plain-name (re)bindings make a name local; ``x[k] =`` does not."""
        if isinstance(tgt, ast.Name):
            self.stack[-1]["locals"].add(tgt.id)
        elif isinstance(tgt, (ast.Tuple, ast.List)):
            for elt in tgt.elts:
                self._add_binding_names(elt)
        elif isinstance(tgt, ast.Starred):
            self._add_binding_names(tgt.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        if self.stack:
            for tgt in node.targets:
                self._add_binding_names(tgt)
        self._note_target_writes(node.targets, node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._note_target_writes([node.target], node)
        self.generic_visit(node)

    def visit_Call(self, node: ast.Call) -> None:
        if self.stack and isinstance(node.func, ast.Attribute):
            if node.func.attr in _MUTATORS:
                name = dotted_name(node.func.value)
                if name is not None:
                    self.stack[-1]["writes"].append(
                        (name, node.lineno, node.col_offset)
                    )
        self.generic_visit(node)

    def _note_target_writes(self, targets, node) -> None:
        """``x[k] = v`` / ``x += v`` / ``x.a[k] = v`` count as writes."""
        if not self.stack:
            return
        for tgt in targets:
            base = tgt
            if isinstance(base, ast.Subscript):
                base = base.value
            elif isinstance(tgt, ast.Name) and isinstance(node, ast.Assign):
                continue  # plain rebinding makes it a local, not a write
            name = dotted_name(base)
            if name is not None:
                self.stack[-1]["writes"].append(
                    (name, node.lineno, node.col_offset)
                )


class SharedMutableStateRule(Rule):
    """RA008: module/class state written from >1 simulated process."""

    code = "RA008"
    name = "shared-mutable-state"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        shared: set[str] = set()
        for stmt in module.tree.body:
            if isinstance(stmt, ast.Assign) and _is_mutable_literal(stmt.value):
                for tgt in stmt.targets:
                    if isinstance(tgt, ast.Name):
                        shared.add(tgt.id)
            elif isinstance(stmt, ast.ClassDef):
                for sub in stmt.body:
                    if isinstance(sub, ast.Assign) and _is_mutable_literal(sub.value):
                        for tgt in sub.targets:
                            if isinstance(tgt, ast.Name):
                                shared.add(f"{stmt.name}.{tgt.id}")
        if not shared:
            return
        indexer = _FunctionIndexer()
        indexer.visit(module.tree)
        #: shared name -> [(writer qualname, lineno, col), ...]
        writers: dict[str, list[tuple[str, int, int]]] = {}
        for fn in indexer.functions:
            if not fn["is_gen"]:
                continue
            for name, lineno, col in fn["writes"]:
                root = name.split(".", 1)[0]
                if name in shared and root not in fn["locals"]:
                    writers.setdefault(name, []).append(
                        (fn["qual"], lineno, col)
                    )
        for name in sorted(writers):
            sites = writers[name]
            distinct = sorted({q for q, _, _ in sites})
            if len(distinct) < 2:
                continue
            for qual, lineno, col in sites:
                yield Finding(
                    code=self.code,
                    message=(
                        f"shared mutable state {name!r} is written from "
                        f"{len(distinct)} simulated processes "
                        f"({', '.join(distinct)}); its final state depends "
                        "on same-instant scheduling order — give it a "
                        "single writer or share it through a Store"
                    ),
                    path=module.relpath,
                    line=lineno,
                    col=col,
                )


#: waitable-producing calls that block unboundedly without a race
_BLOCKING_WAITS = frozenset({"recv", "get", "request", "acquire"})


class UnboundedServiceWaitRule(Rule):
    """RA009: bare blocking wait in service/scheduler code."""

    code = "RA009"
    name = "unbounded-service-wait"

    def __init__(self, service_paths: Sequence[str] = ("scheduler/",)) -> None:
        self.service_paths = tuple(service_paths)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if not any(frag in module.relpath for frag in self.service_paths):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Yield) or node.value is None:
                continue
            call = node.value
            if not (isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in _BLOCKING_WAITS):
                continue
            target = dotted_name(call.func.value) or "<expr>"
            # `yield env.timeout(...)` style waits are time-bound and the
            # attr names don't collide; anything reaching here is a bare
            # recv/get/request with no timeout race or cancellation path
            yield Finding(
                code=self.code,
                message=(
                    f"service code parks on a bare blocking "
                    f"'yield {target}.{call.func.attr}(...)' with no "
                    "timeout or cancellation path; a drained/preempted "
                    "service cannot wake it — race it against a timeout "
                    "(yield req | env.timeout(t)) and cancel the loser"
                ),
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
            )


def _is_zero(node: Optional[ast.AST]) -> bool:
    return (
        isinstance(node, ast.Constant)
        and isinstance(node.value, (int, float))
        and not isinstance(node.value, bool)
        and node.value == 0
    )


class UnorderedZeroDelayRule(Rule):
    """RA010: ``call_later(0, ...)`` without an explicit priority."""

    code = "RA010"
    name = "unordered-zero-delay"

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            is_call_later = (
                isinstance(func, ast.Attribute) and func.attr == "call_later"
            ) or (isinstance(func, ast.Name) and func.id == "call_later")
            if not is_call_later or not node.args:
                continue
            if not _is_zero(node.args[0]):
                continue
            if any(kw.arg == "priority" for kw in node.keywords):
                continue
            yield Finding(
                code=self.code,
                message=(
                    "call_later(0, ...) chains run at the same (time, "
                    "priority) and their relative order is an arbitrary "
                    "tie-break (the schedule sanitizer permutes it); pass "
                    "priority= to pin the order, or use a real delay"
                ),
                path=module.relpath,
                line=node.lineno,
                col=node.col_offset,
            )
