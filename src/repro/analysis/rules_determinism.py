"""RA001 — all randomness and wall-clock time flows through seeded streams.

The simulation's reproducibility contract: every stochastic draw comes
from ``RandomStreams.stream(name)`` (common-random-numbers discipline)
and simulated time comes from ``env.now`` — never from the host's
``random`` module, ``time.time`` / ``datetime.now`` wall clocks,
``os.urandom``, or module-level ``numpy.random`` state.  Iterating a
``set`` literal/constructor directly is also flagged: element order
depends on the interpreter's hash seed, which silently reorders
otherwise-deterministic runs.  A module-level ``itertools.count(...)``
is flagged too: it outlives every simulation in the process, so ids it
hands out depend on what ran before (``Environment.next_id`` instead).

``sim/rng.py`` (the stream factory itself) and ``faults.py`` (which
seeds its plans through RandomStreams) are allowlisted.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Sequence

from repro.analysis.core import Finding, ModuleInfo, Rule, dotted_name

__all__ = ["DeterminismRule"]

#: default modules allowed to touch entropy primitives directly
DEFAULT_ALLOWLIST = ("sim/rng.py", "faults.py")

#: dotted-call chains (suffix match) that leak host nondeterminism
_BANNED_CALL_SUFFIXES = {
    "time.time": "wall clock",
    "time.time_ns": "wall clock",
    "time.monotonic": "wall clock",
    "time.perf_counter": "wall clock",
    "datetime.now": "wall clock",
    "datetime.utcnow": "wall clock",
    "datetime.today": "wall clock",
    "date.today": "wall clock",
    "os.urandom": "OS entropy",
    "uuid.uuid4": "OS entropy",
}

#: module prefixes whose *calls* are banned wholesale
_BANNED_CALL_PREFIXES = {
    "random.": "stdlib global RNG",
    "secrets.": "OS entropy",
    "np.random.": "numpy global/unseeded RNG",
    "numpy.random.": "numpy global/unseeded RNG",
}

_BANNED_IMPORTS = {"random", "secrets"}
_BANNED_FROM = {
    ("time", "time"),
    ("time", "time_ns"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("os", "urandom"),
    ("uuid", "uuid4"),
}


class DeterminismRule(Rule):
    code = "RA001"
    name = "determinism"

    def __init__(self, allowlist: Sequence[str] = DEFAULT_ALLOWLIST) -> None:
        self.allowlist = tuple(allowlist)

    def _allowed(self, module: ModuleInfo) -> bool:
        return any(module.relpath.endswith(suffix) for suffix in self.allowlist)

    def check_module(self, module: ModuleInfo) -> Iterator[Finding]:
        if self._allowed(module):
            return
        yield from self._module_counters(module)
        for node in ast.walk(module.tree):
            finding = self._check_node(module, node)
            if finding is not None:
                yield finding

    def _check_node(self, module: ModuleInfo, node: ast.AST) -> Optional[Finding]:
        if isinstance(node, ast.Import):
            for alias in node.names:
                root = alias.name.split(".")[0]
                if root in _BANNED_IMPORTS:
                    return self._finding(
                        module, node,
                        f"import of {alias.name!r} (stdlib global RNG); "
                        "draw from RandomStreams.stream(name) instead",
                    )
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if node.module in _BANNED_IMPORTS or (
                    node.module, alias.name
                ) in _BANNED_FROM:
                    return self._finding(
                        module, node,
                        f"import of {alias.name!r} from {node.module!r} "
                        "(host entropy/clock); use RandomStreams / env.now",
                    )
        elif isinstance(node, ast.Call):
            chain = dotted_name(node.func)
            if chain is None:
                return None
            for suffix, why in _BANNED_CALL_SUFFIXES.items():
                if chain == suffix or chain.endswith("." + suffix):
                    return self._finding(
                        module, node,
                        f"call to {chain}() ({why}); "
                        "simulated time is env.now, entropy is RandomStreams",
                    )
            for prefix, why in _BANNED_CALL_PREFIXES.items():
                if chain.startswith(prefix):
                    return self._finding(
                        module, node,
                        f"call to {chain}() ({why}); "
                        "draw from RandomStreams.stream(name) instead",
                    )
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            if self._is_set_expr(node.iter):
                return self._finding(
                    module, node.iter,
                    "iteration over a set (hash-seed-dependent order); "
                    "sort it or iterate a sequence",
                )
        elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for gen in node.generators:
                if self._is_set_expr(gen.iter):
                    return self._finding(
                        module, gen.iter,
                        "comprehension over a set (hash-seed-dependent order); "
                        "sort it or iterate a sequence",
                    )
        return None

    def _module_counters(self, module: ModuleInfo) -> Iterator[Finding]:
        for node in module.tree.body:
            if not isinstance(node, (ast.Assign, ast.AnnAssign)):
                continue
            value = node.value
            if (isinstance(value, ast.Call)
                    and dotted_name(value.func) == "itertools.count"):
                yield self._finding(
                    module, value,
                    "module-level itertools.count() (shared by every "
                    "simulation in the process); use env.next_id(kind)",
                )

    @staticmethod
    def _is_set_expr(node: ast.expr) -> bool:
        if isinstance(node, ast.Set):
            return True
        return (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "set"
        )

    def _finding(self, module: ModuleInfo, node: ast.AST, message: str) -> Finding:
        return Finding(
            code=self.code,
            message=message,
            path=module.relpath,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
        )
