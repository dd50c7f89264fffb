"""RL004 — blocking calls on the asyncio event loop.

One synchronous sleep or blocking wait inside an ``async def`` parks the
entire event loop: every in-flight request stalls, the stdio front-end
stops reading, and under backpressure the whole server can deadlock
against a pipelining client.  The scheduler's fairness and latency
contracts all assume the loop never blocks.

The check is one pass over the shared call graph
(:meth:`~repro_lint.engine.Project.call_graph`): a blocking call written
directly in an ``async def`` is the zero-hop case, and a call to a sync
function from which the graph reaches a blocking call (a ``time.sleep``
three helpers deep) is the same finding any number of hops away.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, Optional, Set

from ..callgraph import CallGraph, FuncKey, FunctionInfo
from ..engine import FileContext, Finding, Project, Rule, register
from ._util import call_name

#: dotted callee names that block the calling thread outright
_BLOCKING_CALLS = frozenset({
    "time.sleep", "os.system", "subprocess.run", "subprocess.call",
    "subprocess.check_call", "subprocess.check_output",
    "socket.create_connection", "urllib.request.urlopen",
})
#: builtins that perform synchronous I/O when called on the loop
_BLOCKING_BUILTINS = frozenset({"open", "input"})


def _blocking_call_in(info: FunctionInfo,
                      ctx: Optional[FileContext]) -> Optional[str]:
    """Name of a blocking call directly in this body that no RL004
    suppression at its own line silences (None if there is none)."""
    silenced: Set[int] = set()
    if ctx is not None:
        silenced = {s.target_line for s in ctx.suppressions
                    if "RL004" in s.codes}
    for node in ast.walk(info.node):
        if not isinstance(node, ast.Call) or node.lineno in silenced:
            continue
        name = call_name(node)
        if name in _BLOCKING_CALLS or name in _BLOCKING_BUILTINS:
            return name
    return None


def _blocking_functions(graph: CallGraph,
                        project: Project) -> Dict[FuncKey, str]:
    """Every function that reaches a blocking call, with that call's name."""
    blocks: Dict[FuncKey, str] = {}
    for key, info in graph.functions.items():
        name = _blocking_call_in(info, project.by_path.get(info.relpath))
        if name is not None:
            blocks[key] = name
    callers = graph.callers()
    queue = list(blocks)
    while queue:
        key = queue.pop(0)
        for caller in callers.get(key, ()):
            if caller not in blocks:
                blocks[caller] = blocks[key]
                queue.append(caller)
    return blocks


def _check_file(ctx: FileContext, graph: CallGraph,
                blocks: Dict[FuncKey, str]) -> Iterable[Finding]:
    serve = ctx.relpath.startswith("src/repro/serve/")
    mod = graph.by_relpath.get(ctx.relpath)

    def visit(node: ast.AST, func: Optional[ast.AST],
              info: Optional[FunctionInfo]) -> Iterable[Finding]:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # the *nearest* def decides: a sync def nested in an async
            # def runs wherever the closure is called, not on the loop
            func = node
            info = graph.by_node.get(id(node), info)
        elif isinstance(node, ast.Call):
            yield from check_call(node, func, info)
        for child in ast.iter_child_nodes(node):
            yield from visit(child, func, info)

    def check_call(node: ast.Call, func: Optional[ast.AST],
                   info: Optional[FunctionInfo]) -> Iterable[Finding]:
        name = call_name(node)
        in_async = isinstance(func, ast.AsyncFunctionDef)
        if serve and name == "time.sleep":
            # Flagged everywhere under serve/ (not just async bodies):
            # this layer's sync methods run on or adjacent to the loop
            # thread, and the legitimate worker-side exceptions must be
            # documented with a justified suppression.
            where = ("inside an async def" if in_async
                     else "in the serving layer")
            yield Finding(
                ctx.relpath, node.lineno, "RL004",
                f"time.sleep {where} blocks the event loop; use "
                f"await asyncio.sleep(...) (or justify a worker-side "
                f"sleep with a suppression)")
        elif not in_async:
            return
        elif (isinstance(node.func, ast.Attribute)
                and node.func.attr == "result" and not node.args):
            yield Finding(
                ctx.relpath, node.lineno, "RL004",
                "synchronous Future.result() inside an async def blocks "
                "the loop until the future resolves; await an asyncio "
                "wrapper (wrap_future / run_in_executor) instead")
        elif name in _BLOCKING_CALLS or name in _BLOCKING_BUILTINS:
            yield Finding(
                ctx.relpath, node.lineno, "RL004",
                f"blocking call {name}(...) inside an async def; move "
                f"it off-loop via loop.run_in_executor(...)")
        elif mod is not None:
            target = graph.resolve_call(mod, node, info)
            if (target is not None and not target.is_async
                    and target.key in blocks):
                yield Finding(
                    ctx.relpath, node.lineno, "RL004",
                    f"async {func.name}() calls {target.qualname}(), "
                    f"which reaches blocking {blocks[target.key]}(...) "
                    f"through the call graph: the event loop parks for "
                    f"the full duration — move the chain off-loop via "
                    f"run_in_executor")

    yield from visit(ctx.tree, None, None)


def _check(project: Project) -> Iterable[Finding]:
    graph = project.call_graph()
    blocks = _blocking_functions(graph, project)
    for ctx in project.files:
        if ctx.tree is not None and ctx.relpath.startswith("src/repro/"):
            yield from _check_file(ctx, graph, blocks)


register(Rule(
    code="RL004", name="blocking-in-async",
    summary="No synchronous blocking on the event loop, at any call depth.",
    explain="""\
Scope: src/repro/.  Flags:

* `time.sleep(...)` anywhere in src/repro/serve/ — inside `async def` it
  parks the loop outright; in sync helpers it is allowed only with a
  justified suppression (e.g. the worker-side warmup dwell in
  serve/pool.py, which runs in a pool worker process, never on the loop);
* inside any `async def` body: `concurrent.futures`-style `.result()`
  (use `asyncio.wrap_future`/`run_in_executor`), `open()`, `input()`,
  `time.sleep`, `subprocess.*`, `os.system`, socket/urllib connects;
* inside any `async def` body, a call to a sync function from which the
  shared call graph reaches one of those blocking calls any number of
  hops away (the message names the blocking call).  A blocking call
  silenced by a justified RL004 suppression at its own line is not
  counted as a source.

A sync `def` nested inside an `async def` is exempt at every hop count:
its body runs where the closure is invoked (typically handed to
`run_in_executor`, like the stdio front-end's off-loop response writer).
Lambdas are not exempt.  `asyncio.sleep` and awaited executor hops never
match.""",
    project_check=_check))
