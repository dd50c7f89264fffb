"""RL002 — pool-boundary pickle safety.

Everything crossing the ``WorkerPool`` boundary is pickled (under every
start method the serving layer uses — spawn and forkserver pickle the
callable too, not just the arguments).  A lambda, a function nested
inside another function, or a bound method of a function-local object
pickles never or only by accident — and the failure surfaces as an opaque
``PicklingError`` from a worker, far from the call site.  This rule moves
that failure to lint time.

The check is one pass: a call that *is* the boundary is the zero-hop
case, and a call to a project function that forwards its argument into
one (resolved on the shared call graph) is the same finding any number
of hops away.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Set, Tuple

from ..callgraph import CallGraph, FuncKey, FunctionInfo
from ..dataflow import FunctionFlow, _shallow_walk
from ..engine import Finding, Project, Rule, register

#: plain-name calls whose callable/kernel argument crosses the boundary
_NAME_TARGETS = {
    "pool_map": ("fn", 0),
    "run_tiled": ("kernel", 0),
    "build_tile_tasks": ("kernel", 0),
}
#: method calls whose first argument crosses the boundary (WorkerPool's
#: submit/map; ServingClient.submit takes a kernel *name* string, which
#: this rule never flags, so the shared method name is harmless)
_ATTR_TARGETS = {"submit", "map"}
#: constructors whose every argument is shipped to workers
_CTOR_TARGETS = {"EngineFactory"}


class _Scope:
    """Names bound locally inside one enclosing function (the def-use
    pass of :mod:`repro_lint.dataflow`, shared with RL006)."""

    def __init__(self, func: ast.AST) -> None:
        flow = FunctionFlow(func)
        self.variables = flow.params | set(flow.defs) | flow.opaque
        self.functions = {
            node.name for node in _shallow_walk(func)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}
        self.lambda_vars = {
            name for name, values in flow.defs.items()
            if any(isinstance(v, ast.Lambda) for v in values)}


def _offending_args(node: ast.Call) -> List[Tuple[ast.AST, str]]:
    """(arg node, boundary description) pairs this call ships to workers."""
    func = node.func
    out: List[Tuple[ast.AST, str]] = []
    if isinstance(func, ast.Name) and func.id in _NAME_TARGETS:
        kw_name, pos = _NAME_TARGETS[func.id]
        arg = next((k.value for k in node.keywords if k.arg == kw_name),
                   node.args[pos] if len(node.args) > pos else None)
        if arg is not None:
            out.append((arg, f"{func.id}({kw_name}=...)"))
    elif isinstance(func, ast.Attribute) and func.attr in _ATTR_TARGETS:
        if node.args:
            out.append((node.args[0], f".{func.attr}(...)"))
    elif isinstance(func, ast.Name) and func.id in _CTOR_TARGETS:
        for arg in node.args:
            out.append((arg, f"{func.id}(...)"))
        for kw in node.keywords:
            out.append((kw.value, f"{func.id}({kw.arg}=...)"))
    return out


def _classify(arg: ast.AST, scopes: List[_Scope]) -> Optional[str]:
    if isinstance(arg, ast.Lambda):
        return "a lambda"
    if isinstance(arg, ast.Name):
        if any(arg.id in s.functions for s in scopes):
            return f"nested function {arg.id!r}"
        if any(arg.id in s.lambda_vars for s in scopes):
            return f"lambda-valued local {arg.id!r}"
    if (isinstance(arg, ast.Attribute)
            and isinstance(arg.value, ast.Name)
            and any(arg.value.id in s.variables for s in scopes)):
        return (f"bound method {arg.value.id}.{arg.attr} of a "
                f"function-local object")
    return None


def _param_names(info: FunctionInfo) -> List[str]:
    a = info.node.args
    names = [x.arg for x in a.posonlyargs + a.args]
    if info.class_name is not None and names and names[0] in ("self",
                                                              "cls"):
        names = names[1:]
    return names


def _call_bindings(target: FunctionInfo,
                   call: ast.Call) -> Iterable[Tuple[ast.AST, str]]:
    """(argument expression, parameter name) pairs of one call site."""
    names = _param_names(target)
    for i, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            break
        if i < len(names):
            yield arg, names[i]
    for kw in call.keywords:
        if kw.arg is not None:
            yield kw.value, kw.arg


def _boundary_params(graph: CallGraph) -> Dict[FuncKey, Set[str]]:
    """Fixpoint: parameters that flow into a worker-pool boundary."""
    boundary: Dict[FuncKey, Set[str]] = {}
    changed = True
    while changed:
        changed = False
        for key, info in graph.functions.items():
            params = set(_param_names(info)) | {
                x.arg for x in info.node.args.kwonlyargs}
            mod = graph.by_relpath[info.relpath]
            found: Set[str] = set()
            for call in (n for n in ast.walk(info.node)
                         if isinstance(n, ast.Call)):
                found.update(arg.id for arg, _ in _boundary_args(
                    call, graph, mod, info, boundary)
                    if isinstance(arg, ast.Name) and arg.id in params)
            if not found <= boundary.get(key, set()):
                boundary.setdefault(key, set()).update(found)
                changed = True
    return boundary


def _boundary_args(call: ast.Call, graph: CallGraph, mod: Optional[object],
                   info: Optional[FunctionInfo],
                   boundary: Dict[FuncKey, Set[str]]
                   ) -> Iterable[Tuple[ast.AST, str]]:
    """(argument, how it crosses) pairs for one call site: the direct
    boundary (zero hops), or a resolved call whose parameter is forwarded
    into one."""
    direct = _offending_args(call)
    for arg, where in direct:
        yield arg, f"across the worker-pool boundary via {where}"
    if direct or mod is None:
        return
    target = graph.resolve_call(mod, call, info)
    if target is None or target.key not in boundary:
        return
    for arg, pname in _call_bindings(target, call):
        if pname in boundary[target.key]:
            yield arg, (f"to {target.qualname}({pname}=...), which "
                        f"forwards it across the worker-pool pickle "
                        f"boundary")


def _check(project: Project) -> Iterable[Finding]:
    graph = project.call_graph()
    boundary = _boundary_params(graph)
    findings: List[Finding] = []
    for ctx in project.files:
        mod = graph.by_relpath.get(ctx.relpath)

        def visit(node: ast.AST, scopes: List[_Scope],
                  info: Optional[FunctionInfo]) -> None:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                scopes = scopes + [_Scope(node)]
                info = graph.by_node.get(id(node), info)
            elif isinstance(node, ast.Call) and scopes:
                for arg, how in _boundary_args(node, graph, mod, info,
                                               boundary):
                    why = _classify(arg, scopes)
                    if why is not None:
                        findings.append(Finding(
                            ctx.relpath, arg.lineno, "RL002",
                            f"{why} passed {how}: not picklable under "
                            f"spawn/forkserver — use a module-level "
                            f"function (or a picklable factory like "
                            f"EngineFactory)"))
            for child in ast.iter_child_nodes(node):
                visit(child, scopes, info)

        if ctx.tree is not None:
            visit(ctx.tree, [], None)
    return findings


register(Rule(
    code="RL002", name="pool-pickle-safety",
    summary="Callables crossing the WorkerPool boundary must be picklable.",
    explain="""\
Flags, at any call to pool_map(fn, ...), WorkerPool .submit/.map,
run_tiled/build_tile_tasks(kernel=...) or EngineFactory(...):

* a lambda (or a local variable assigned a lambda),
* a function nested inside the calling function,
* a bound method of a function-local object (`obj.meth` where `obj` is a
  parameter or local variable),

because the pool pickles the callable under spawn/forkserver and these
forms fail (or capture unpicklable state) at runtime, as an opaque
worker-side PicklingError.  Module-level functions, KERNELS name strings
and picklable factories (EngineFactory) are the sanctioned currencies.
Module-scope calls are exempt: only function bodies can close over
function-local state.

The boundary is followed through the shared call graph over src/: a
parameter forwarded (through any number of resolved hops) into one of
those calls marks its position as a boundary, and passing a lambda,
nested function or local bound method there is flagged at the outermost
call site.""",
    project_check=_check))
