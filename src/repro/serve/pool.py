"""Persistent worker pool: resident processes shared across submissions.

:class:`WorkerPool` is the long-lived counterpart of the throwaway
``ProcessPoolExecutor`` that :func:`repro.apps.executor.pool_map` used to
spin up per call.  A request-serving workload (many small tiled scenes
back to back) pays pool startup once, here, instead of once per request;
``pool_map`` remains the one-shot wrapper and accepts a ``pool=`` argument
to run over a resident instance instead.

Contracts
---------
* **Explicit start method.**  The executor's fork/spawn-identical
  behaviour is only guaranteed when the start method is actually pinned;
  relying on the interpreter's mutable global default would let any
  library ``set_start_method`` call change worker semantics under us.
  Every pool therefore resolves an explicit ``multiprocessing`` context:
  ``mp_context`` may be a context object, a method name (``'fork'`` /
  ``'spawn'`` / ``'forkserver'``) or ``None`` for
  :func:`default_mp_context` (``fork`` where the platform offers it,
  ``spawn`` otherwise).
* **Backend pinning.**  Each worker pins the execution backend once at
  startup (the pool creator's active backend by default).  Tasks that
  carry their own backend name — like the tile executor's — may still
  re-select per task; ``set_backend`` is idempotent, so the initializer
  only saves the per-task switch in the common single-backend case and
  keeps mixed-backend serving correct.
* **Determinism.**  The pool adds no randomness: tasks carry their own
  seed material, and result order is the caller's submission order
  (``map``) or per-future (``submit``).
* **Crash containment.**  A task that *raises* fails only its own future;
  the processes stay resident.  A task that *kills* its worker breaks the
  underlying executor (every in-flight future gets
  :class:`BrokenProcessPool`); :meth:`restart` respawns the workers so the
  pool object itself stays serviceable — the async scheduler does this
  automatically.
"""

from __future__ import annotations

import functools
import multiprocessing
import os
import sys
import time
from concurrent.futures import Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from typing import Any, Callable, List, Optional, Sequence, Union

from ..config import RunConfig
from ..core.backend import get_backend, set_backend

__all__ = ["WorkerPool", "BrokenProcessPool", "default_mp_context",
           "serving_mp_context", "resolve_mp_context", "serving_pool"]

MpContextLike = Union[str, multiprocessing.context.BaseContext, None]


def default_mp_context() -> multiprocessing.context.BaseContext:
    """The pinned default start method: ``fork`` on Linux, else ``spawn``.

    ``fork`` keeps pool startup cheap (no re-import of numpy per worker)
    but is only trusted on Linux: macOS *offers* fork yet its system
    libraries (Accelerate BLAS, ObjC runtime) are fork-unsafe — the very
    reason CPython 3.8 moved the darwin default to spawn — and Windows
    has no fork at all.  Both methods are equivalent for results: tasks
    are self-contained picklable tuples and the spawn-context regression
    test asserts bit-identical output.
    """
    methods = multiprocessing.get_all_start_methods()
    use_fork = sys.platform.startswith("linux") and "fork" in methods
    return multiprocessing.get_context("fork" if use_fork else "spawn")


def serving_mp_context() -> multiprocessing.context.BaseContext:
    """Context for long-lived serving front-ends: ``forkserver``/``spawn``.

    A serving process is multi-threaded for its whole life (event loop,
    reader threads, executor callbacks) and auto-restarts crashed
    workers; only a forkserver or spawn pool can respawn without forking
    a threaded process.  One-shot batch pools keep the cheaper
    :func:`default_mp_context`.
    """
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "forkserver" if "forkserver" in methods else "spawn")


def resolve_mp_context(mp_context: MpContextLike
                       ) -> multiprocessing.context.BaseContext:
    """Normalise a context argument to an explicit context object."""
    if mp_context is None:
        return default_mp_context()
    if isinstance(mp_context, str):
        return multiprocessing.get_context(mp_context)
    return mp_context


def serving_pool(config: RunConfig, jobs: Optional[int] = None, *,
                 mp_context: MpContextLike = None,
                 backend: Optional[str] = None) -> "WorkerPool":
    """The resident pool a serving front-end owns.

    Explicit arguments win over ``config``.  ``jobs`` defaults to the
    config's, but never below 2: a 1-worker server cannot overlap
    requests.  The start method defaults to the config's, else
    :func:`serving_mp_context`.
    """
    if jobs is None:
        jobs = max(2, config.jobs)
    if mp_context is None:
        mp_context = (config.mp_context if config.mp_context is not None
                      else serving_mp_context())
    return WorkerPool(jobs, mp_context=mp_context,
                      backend=backend if backend is not None
                      else config.backend)


def _pin_backend(name: str) -> None:
    """Worker initializer: select the execution backend once per process."""
    set_backend(name)


def _warmup_pid(delay: float) -> int:
    """Warmup task: report the worker's pid after a short dwell.

    The dwell keeps an already-warm worker busy long enough for its
    still-booting siblings to win the next task off the shared queue —
    without it one fast worker can drain every warmup task while the
    others are still spawning.
    """
    # repro-lint: disable=RL004 -- runs inside a pool worker process, never on the serving event loop
    time.sleep(delay)
    return os.getpid()


class WorkerPool:
    """A resident process pool with pinned start method and backend.

    Parameters
    ----------
    jobs:
        Number of resident worker processes (the pool's ``capacity``).
    mp_context:
        Start method: a context object, a method name, or ``None`` for
        :func:`default_mp_context`.
    backend:
        Execution-backend name each worker pins at startup; defaults to
        the backend active in the creating process.

    Use as a context manager, or call :meth:`close` explicitly; workers
    stay resident between calls either way.
    """

    def __init__(self, jobs: int, *, mp_context: MpContextLike = None,
                 backend: Optional[str] = None):
        if jobs < 1:
            raise ValueError("jobs must be >= 1")
        self.jobs = int(jobs)
        self.backend = backend if backend is not None else get_backend().name
        self._ctx = resolve_mp_context(mp_context)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._broken = False
        #: Lifetime count of :meth:`restart` calls — the serving metrics
        #: read it as the pool's crash-respawn trajectory.
        self.restarts = 0
        self._spawn_executor()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _spawn_executor(self) -> None:
        self._executor = ProcessPoolExecutor(
            max_workers=self.jobs, mp_context=self._ctx,
            initializer=_pin_backend, initargs=(self.backend,))
        self._broken = False

    def restart(self) -> None:
        """Respawn the workers (after a hard crash broke the executor).

        Respawning uses the pool's pinned context.  Under ``fork`` this
        forks from whatever threads the process has by then (the usual
        CPython lazy-pool caveat); long-lived servers that must survive
        worker crashes safely should pin ``forkserver`` (fork-safe
        respawn from a clean single-threaded server, startup still
        cheap) or ``spawn`` — ``serve_stdio`` does exactly that.
        """
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
        self._spawn_executor()
        self.restarts += 1

    def close(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Worker count — the natural in-flight budget for a scheduler."""
        return self.jobs

    @property
    def start_method(self) -> str:
        return self._ctx.get_start_method()

    @property
    def broken(self) -> bool:
        """True once a worker death broke the executor (see :meth:`restart`)."""
        return self._broken

    @property
    def closed(self) -> bool:
        return self._executor is None

    def worker_pids(self) -> List[int]:
        """PIDs of the currently resident worker processes.

        Empty until workers exist (``ProcessPoolExecutor`` spawns them
        lazily — :meth:`warmup` forces the full fleet up).  The load
        harness uses this to inject a worker death mid-soak.
        """
        if self._executor is None:
            return []
        return [p.pid for p in self._executor._processes.values()]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def submit(self, fn: Callable[[Any], Any], task: Any) -> Future:
        """Submit one picklable task; returns its future immediately."""
        executor = self._executor
        if executor is None:
            raise RuntimeError("WorkerPool is closed")
        try:
            fut = executor.submit(fn, task)
        except BrokenProcessPool:
            self._broken = True
            raise
        fut.add_done_callback(functools.partial(self._note_broken, executor))
        return fut

    def _note_broken(self, executor: ProcessPoolExecutor,
                     fut: Future) -> None:
        # The dead executor fails its futures from its own thread, maybe
        # after restart() already replaced it: a stale failure must not
        # mark the fresh workers broken (that would restart them again).
        if (executor is self._executor and not fut.cancelled()
                and isinstance(fut.exception(), BrokenProcessPool)):
            self._broken = True

    def map(self, fn: Callable[[Any], Any],
            tasks: Sequence[Any]) -> List[Any]:
        """Ordered map over ``tasks`` on the resident workers.

        On the first failing task the not-yet-started remainder is
        cancelled before the exception propagates (matching
        ``Executor.map`` semantics), so a 100-tile run that dies on tile
        3 doesn't compute 97 doomed tiles first.
        """
        futures = [self.submit(fn, t) for t in tasks]
        results = []
        try:
            for f in futures:
                results.append(f.result())
        except BaseException:
            for f in futures:
                f.cancel()
            raise
        return results

    def warmup(self, timeout: float = 30.0) -> set:
        """Start every worker now; returns the set of warmed worker pids.

        Pool startup is otherwise lazy, which would bill the first
        request for process spawn time.  Submitting ``jobs`` no-op tasks
        and waiting on the futures is *not* enough: a fast worker can
        finish its task (and grab its siblings') while the others are
        still booting, so that warmup returns with cold workers and the
        first requests still pay spawn cost.  Instead this loops
        barrier-style — rounds of short dwell tasks, collecting worker
        pids — until ``jobs`` *distinct* pids have responded (every
        worker provably up and serving) or ``timeout`` elapses (a
        heavily loaded host: the workers that did come up are warm, and
        boot must not hang forever).
        """
        deadline = time.monotonic() + timeout
        seen: set = set()
        delay = 0.002
        while len(seen) < self.jobs:
            batch = [self.submit(_warmup_pid, delay)
                     for _ in range(self.jobs)]
            wait(batch)
            seen.update(f.result() for f in batch)
            if time.monotonic() >= deadline:
                break
            delay = min(delay * 2, 0.05)
        return seen
