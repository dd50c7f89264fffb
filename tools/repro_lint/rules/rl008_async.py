"""RL008 — async-concurrency defects only the call graph can see.

RL004 owns blocking on the loop and RL002 the pickle boundary, at any
call depth.  This rule keeps the concurrency bugs neither of them
describes: the coroutine that was never awaited (it silently does
nothing), the ``create_task``/``ensure_future`` whose result is dropped
(the task can be garbage-collected mid-flight and its exception is
swallowed), and the thread lock held across an ``await`` (every other
coroutine needing the lock deadlocks behind the suspended holder).

It runs on the shared call graph
(:meth:`~repro_lint.engine.Project.call_graph`):

* **unawaited coroutine** — a statement-position call that resolves to
  an ``async def``;
* **dropped task handle** — ``create_task(...)`` / ``ensure_future(...)``
  in statement position;
* **lock across await** — a synchronous ``with <lock>:`` (the name or
  attribute mentions "lock", or the context expression is a
  ``threading.Lock``-family constructor) whose body contains ``await``
  inside an ``async def``; ``async with`` never matches.  This is also
  the refcount hazard: the scene-store pin counts are guarded by these
  locks, so holding one across a suspension point stalls every release.
"""

from __future__ import annotations

import ast
from typing import Iterable, List

from ..callgraph import CallGraph
from ..engine import Finding, Project, Rule, register

_TASK_SPAWNERS = frozenset({"create_task", "ensure_future"})
_LOCK_CTORS = frozenset({"Lock", "RLock", "Condition", "Semaphore",
                         "BoundedSemaphore"})


def _src_scope(relpath: str) -> bool:
    return relpath.startswith("src/repro/")


# ---------------------------------------------------------------------------
# component: unawaited coroutines + dropped task handles
# ---------------------------------------------------------------------------
def _stmt_position_calls(graph: CallGraph) -> Iterable[Finding]:
    for key in sorted(graph.functions):
        info = graph.functions[key]
        if not _src_scope(info.relpath):
            continue
        mod = graph.by_relpath[info.relpath]
        for node in ast.walk(info.node):
            if not (isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Call)):
                continue
            call = node.value
            f = call.func
            spawner = (f.attr if isinstance(f, ast.Attribute) else
                       f.id if isinstance(f, ast.Name) else None)
            if spawner in _TASK_SPAWNERS:
                yield Finding(
                    info.relpath, node.lineno, "RL008",
                    f"{spawner}(...) result dropped: an unreferenced "
                    f"task can be garbage-collected mid-flight and its "
                    f"exception is silently swallowed — keep the handle "
                    f"(and await or add a done-callback)")
                continue
            target = graph.resolve_call(mod, call, info)
            if target is not None and target.is_async:
                yield Finding(
                    info.relpath, node.lineno, "RL008",
                    f"coroutine {target.qualname}(...) is never awaited: "
                    f"calling an async def only builds the coroutine "
                    f"object — nothing runs and the result is discarded")


# ---------------------------------------------------------------------------
# component: sync lock held across a suspension point
# ---------------------------------------------------------------------------
def _is_lockish(expr: ast.AST) -> bool:
    node = expr
    if isinstance(node, ast.Call):
        f = node.func
        name = (f.attr if isinstance(f, ast.Attribute) else
                f.id if isinstance(f, ast.Name) else None)
        if name in _LOCK_CTORS:
            return True
        node = f
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return any("lock" in p.lower() for p in parts)


def _lock_across_await(graph: CallGraph) -> Iterable[Finding]:
    for key in sorted(graph.functions):
        info = graph.functions[key]
        if not info.is_async or not _src_scope(info.relpath):
            continue
        for node in ast.walk(info.node):
            if not isinstance(node, ast.With):
                continue
            if not any(_is_lockish(item.context_expr)
                       for item in node.items):
                continue
            suspension = next(
                (n for b in node.body for n in ast.walk(b)
                 if isinstance(n, ast.Await)), None)
            if suspension is not None:
                yield Finding(
                    info.relpath, node.lineno, "RL008",
                    f"thread lock held across await (line "
                    f"{suspension.lineno}) in async "
                    f"{info.qualname}(): the holder suspends while "
                    f"every other coroutine (and thread) needing the "
                    f"lock deadlocks behind it — release before "
                    f"awaiting, or use asyncio.Lock with async with")


def _check(project: Project) -> Iterable[Finding]:
    graph = project.call_graph()
    return [*_stmt_position_calls(graph), *_lock_across_await(graph)]


register(Rule(
    code="RL008", name="async-concurrency",
    summary="No unawaited coroutines, dropped task handles, or locks "
            "held across await.",
    explain="""\
Runs on the shared module-resolving call graph over src/repro/ and
flags three async-concurrency defects:

* a statement-position call that resolves to an `async def` — the
  coroutine is built and discarded, nothing ever runs;
* `create_task(...)` / `ensure_future(...)` in statement position —
  an unreferenced task can be garbage-collected mid-flight and its
  exception is swallowed; bind the handle;
* a synchronous `with <lock>:` whose body awaits, inside an
  `async def` — the holder suspends while every other coroutine and
  thread queues on the lock (the scene-store pin counts sit behind
  exactly such locks); `async with asyncio.Lock()` never matches.

Blocking calls reached from the loop are RL004's findings, and
unpicklable arguments forwarded to the pool are RL002's, at any number
of hops.""",
    project_check=_check))
