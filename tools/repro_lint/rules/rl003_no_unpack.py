"""RL003 — no-unpack hot path (project rule: kernel reachability).

The packed backend's whole speedup rests on registered application
kernels staying in the word domain end to end.  The runtime no-unpack
asserts catch a violation only on the code path a test happens to
execute; this rule proves it statically for every function reachable from
the kernel registry.

Reachability runs on the shared module-resolving call graph
(:meth:`~repro_lint.engine.Project.call_graph` — see
:mod:`repro_lint.callgraph`), which replaced the original name-matching
heuristic:

* roots are the functions registered in ``apps/executor.KERNELS``,
  resolved through import aliases and ``__init__`` re-exports, not just
  same-file names;
* edges follow every call the graph can resolve — plain names through
  imports (absolute and relative, aliased or not), ``module.helper(...)``
  attribute calls on imported modules, ``self.helper(...)`` methods, and
  calls to decorated functions;
* attribute calls on *untyped* values (``engine.maj(...)``,
  ``batch.select(...)`` where the receiver is a parameter) are still not
  followed — the engine/Bitstream layer keeps its own runtime
  no-unpack asserts, and guessing receiver types would drown the rule in
  false edges.

Inside the reachable set the rule flags the bit-expansion markers:
``.to_bits()``, ``np.unpackbits`` and per-bit Python loops over the
stream length.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from ..callgraph import FuncKey
from ..engine import Finding, Project, Rule, register

_EXECUTOR = "src/repro/apps/executor.py"
_UNPACK_ATTRS = frozenset({"to_bits"})
_LOOP_NAMES = frozenset({"length", "n_bits", "nbits"})


def _kernel_roots(project: Project) -> List[Tuple[FuncKey, str]]:
    """(function key, kernel registry name) for every KERNELS entry."""
    executor = project.by_path.get(_EXECUTOR)
    if executor is None or executor.tree is None:
        return []
    graph = project.call_graph()
    roots: List[Tuple[FuncKey, str]] = []
    for node in executor.tree.body:
        if not (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "KERNELS"
                        for t in node.targets)
                and isinstance(node.value, ast.Dict)):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if not isinstance(value, ast.Name):
                continue
            reg_name = (key.value if isinstance(key, ast.Constant)
                        else value.id)
            info = graph.lookup(_EXECUTOR, value.id)
            if info is not None:
                roots.append((info.key, str(reg_name)))
    return roots


def _scan_markers(relpath: str, func: ast.AST,
                  witness: str) -> Iterable[Finding]:
    for node in ast.walk(func):
        if isinstance(node, ast.Call):
            f = node.func
            if isinstance(f, ast.Attribute) and f.attr in _UNPACK_ATTRS:
                yield Finding(
                    relpath, node.lineno, "RL003",
                    f".{f.attr}() on the hot path (reachable from "
                    f"registered kernel {witness!r}): expands the packed "
                    f"payload — stay in the word domain")
            elif ((isinstance(f, ast.Attribute) and f.attr == "unpackbits")
                    or (isinstance(f, ast.Name)
                        and f.id == "unpackbits")):
                yield Finding(
                    relpath, node.lineno, "RL003",
                    f"np.unpackbits on the hot path (reachable from "
                    f"registered kernel {witness!r}): expands the packed "
                    f"payload to one byte per bit")
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            it = node.iter
            if (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                    and it.func.id == "range"
                    and any((isinstance(a, ast.Name)
                             and a.id in _LOOP_NAMES)
                            or (isinstance(a, ast.Attribute)
                                and a.attr in _LOOP_NAMES)
                            for a in it.args)):
                yield Finding(
                    relpath, node.lineno, "RL003",
                    f"per-bit Python loop over the stream length "
                    f"(reachable from registered kernel {witness!r}): "
                    f"the word backends exist so this never happens")


def _check(project: Project) -> Iterable[Finding]:
    roots = _kernel_roots(project)
    if not roots:
        return []
    graph = project.call_graph()
    reached = graph.reachable(roots)
    findings: List[Finding] = []
    for key in sorted(reached):
        info = graph.functions[key]
        findings.extend(_scan_markers(info.relpath, info.node,
                                      reached[key]))
    return findings


register(Rule(
    code="RL003", name="no-unpack-hot-path",
    summary="Kernel-reachable code must never expand packed bit payloads.",
    explain="""\
Walks the shared module-resolving call graph (Project.call_graph(), see
repro_lint/callgraph.py) from the functions registered in
apps/executor.KERNELS and flags, anywhere in the reachable set:

* `.to_bits()` calls;
* `np.unpackbits(...)` — the definitional unpack;
* `for ... in range(length)`-style per-bit Python loops.

Since the call-graph migration, edges follow aliased and absolute
imports, `module.helper(...)` calls on imported modules, re-exports
through `__init__.py`, `self.helper(...)` methods and decorated
functions — not just same-name top-level calls.  Attribute calls on
untyped receivers (`engine.maj(...)`) are still not followed; the
engine/Bitstream layer keeps its runtime no-unpack asserts.""",
    project_check=_check))
