"""Asyncio request scheduler: concurrent tiled requests on one shared pool.

:class:`Scheduler` is the serving counterpart of the batch entry point
:func:`repro.apps.executor.run_tiled`.  A request
(:meth:`Scheduler.submit_app`) is decomposed into per-tile tasks by the
same :func:`~repro.apps.executor.build_tile_tasks` the batch path uses,
the tasks are dispatched onto a resident :class:`~repro.serve.pool.WorkerPool`,
and the results are reassembled by the same
:func:`~repro.apps.executor.stitch_tiles` — so a served request is
**bit-identical** to ``run_tiled`` with the same ``(kernel, inputs,
length, tile, seed, kwargs)``, no matter what else is in flight.

Fairness
--------
The scheduler ships a request's tiles to the pool in *chunks*: up to
``k = max(1, CHUNK_PIXELS // tile_area)`` contiguous tiles travel as one
pool task (:func:`~repro.apps.executor._run_tiles`), so a small request
pays one IPC round trip instead of one per tile.  The chunk is the unit
of fairness: the scheduler keeps at most ``max_inflight`` (default: pool
capacity) pool tasks submitted at once and picks the next chunk
**round-robin across active requests**, so a 1000-tile scene admitted
first cannot starve a 4-tile request admitted a moment later: while both
are active their chunks alternate onto the workers.  Dispatch order is
deterministic given the admission order (``dispatch_log`` records it,
one entry per tile, for the test suite); results are never
order-sensitive, as each tile's RNG derives from its request's
``SeedSequence`` child alone, whichever chunk carries it.

Failure containment
-------------------
* Invalid requests (unknown kernel/kwargs, bad shapes) fail inside
  ``submit_app`` during task building — before anything touches the pool.
* A chunk that raises fails only its own request; worker processes stay
  resident and other requests proceed.
* A chunk that *kills* its worker breaks the pool's executor: every
  request with chunks in flight at that moment fails with
  :class:`~repro.serve.pool.BrokenProcessPool`, the scheduler restarts
  the pool's workers, and queued/later requests run normally — the
  resident pool object is never poisoned.
* A request whose caller cancels the ``submit_app`` future (e.g. an
  ``asyncio.wait_for`` timeout) is abandoned: its undispatched chunks are
  dropped so they stop occupying slots other requests need.

Observability
-------------
Every scheduler carries a :class:`~repro.serve.metrics.ServeMetrics`
(``scheduler.metrics``): per-request queue wait (admission to first tile
dispatch), exec time, end-to-end latency, tiles dispatched (one count per
``dispatch_log`` entry) next to the pool tasks that carried them, pool
restarts, and in-flight high-water marks.
:meth:`Scheduler.stats` snapshots it together with the pool's state; the
stdio front-end serves the same snapshot as the ``{"type": "stats"}``
request.
"""

from __future__ import annotations

import asyncio
import itertools
import time
from collections import deque
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..apps import executor as _executor
from ..config import RunConfig
from ..energy.model import EnergyLedger
from .metrics import ServeMetrics
from .pool import BrokenProcessPool, WorkerPool
from .transport import SceneStore

__all__ = ["Scheduler", "ServeRequest"]

#: Pixels of tile work shipped per pool task: a request's tiles travel in
#: chunks of ``max(1, CHUNK_PIXELS // tile_area)``.  On a 2-vCPU host a
#: traced yardstick ``small_stdio`` run showed ~2.4 ms of pool IPC per
#: round trip against ~1.3 ms of in-process work per 4x4 tile, so an 8x8
#: request at tile 4 spent most of its time moving data.  64 px ships
#: that request as one task (``small_stdio`` 94 -> 175 req/s, medians of
#: 10 A/B pairs), keeps tiles of 8x8 and up at one task each, and still
#: splits a 64-tile request at tile 2 into four chunks that interleave
#: and can be cancelled; 256 px made that request a single task.
CHUNK_PIXELS = 64


class ServeRequest:
    """Bookkeeping for one in-flight request (internal to the scheduler)."""

    def __init__(self, req_id: int, plan: "_executor.TilePlan",
                 future: "asyncio.Future", t_admit: float) -> None:
        self.id = req_id
        self.plan = plan
        self.future = future
        self.results: List[Optional[Tuple[np.ndarray, EnergyLedger]]] = \
            [None] * len(plan.tasks)
        r0, r1, c0, c1 = plan.grid[0]
        self.chunk = max(1, CHUNK_PIXELS // ((r1 - r0) * (c1 - c0)))
        self.next_tile = 0
        self.completed = 0
        self.failed = False
        self.t_admit = t_admit
        self.t_first_dispatch: Optional[float] = None
        self.counted = False   # metrics: finalized exactly once

    @property
    def has_pending(self) -> bool:
        return not self.failed and self.next_tile < len(self.plan.tasks)

    def take(self) -> Tuple[int, List[Tuple]]:
        """The next chunk: up to ``chunk`` contiguous tile tasks, and the
        grid index of the first."""
        idx = self.next_tile
        self.next_tile = min(idx + self.chunk, len(self.plan.tasks))
        return idx, self.plan.tasks[idx:self.next_tile]


class Scheduler:
    """Fair round-robin chunk scheduler over a resident :class:`WorkerPool`.

    One scheduler serves one asyncio event loop; requests may be submitted
    concurrently from any number of coroutines (or across threads via
    :class:`repro.serve.client.ServingClient`).  See the module docstring
    for the determinism, fairness and failure contracts.

    Every request's scene ships through the scheduler's own
    content-addressed shared-memory
    :class:`~repro.serve.transport.SceneStore` (``scheduler.scene_store``):
    a repeated scene is a cache hit shipping zero bytes, and tile tasks
    carry references instead of copied arrays.  :meth:`close` unlinks it.

    Parameters
    ----------
    pool:
        The resident worker pool to dispatch onto.
    max_inflight:
        Maximum pool tasks (chunks of tiles) submitted at once; defaults
        to the pool's capacity, which makes every dispatch decision as
        late — and therefore as fair — as possible.
    metrics:
        The :class:`~repro.serve.metrics.ServeMetrics` registry to feed;
        a fresh one is created when omitted.
    config:
        The scheduler's default :class:`repro.config.RunConfig` —
        applied to every request that doesn't carry its own (see
        :meth:`submit_app`) and echoed verbatim under ``"config"`` in
        :meth:`stats`.  ``None`` resolves to ``RunConfig.default()``,
        the fast preset.  The config's ``jobs`` field is ignored here:
        the shared pool owns its capacity.
    """

    def __init__(self, pool: WorkerPool,
                 max_inflight: Optional[int] = None,
                 metrics: Optional[ServeMetrics] = None,
                 config: Optional[RunConfig] = None) -> None:
        if max_inflight is not None and max_inflight < 1:
            raise ValueError("max_inflight must be >= 1")
        self.config = RunConfig.resolve(config)
        self.pool = pool
        self.max_inflight = (max_inflight if max_inflight is not None
                             else pool.capacity)
        self.metrics = metrics if metrics is not None else ServeMetrics()
        self.scene_store = SceneStore()
        self._round_robin: "deque[ServeRequest]" = deque()
        self._inflight = 0
        self._ids = itertools.count()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._outstanding: set = set()
        #: ``(request_id, tile_index)`` in dispatch order, one entry per
        #: tile (a chunk logs its tiles contiguously) — the fairness
        #: audit trail the test suite asserts on.  Bounded: a long-running
        #: serve loop dispatches millions of tiles and must not accumulate
        #: an ever-growing list, so only the most recent entries survive.
        self.dispatch_log: "deque[Tuple[int, int]]" = deque(maxlen=4096)

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    async def submit_app(self, kernel: str,
                         inputs: Optional[Dict[str, np.ndarray]],
                         length: int, *,
                         config: Optional[RunConfig] = None,
                         tile: Optional[int] = None,
                         seed: Optional[int] = None,
                         engine_kwargs: Optional[Dict[str, Any]] = None,
                         kernel_kwargs: Optional[Dict[str, Any]] = None,
                         backend: Optional[str] = None,
                         scene: Optional[str] = None
                         ) -> Tuple[np.ndarray, EnergyLedger]:
        """Serve one tiled request; returns ``(image, ledger)``.

        Arguments and result match :func:`repro.apps.executor.run_tiled`
        exactly (minus ``jobs``, which the shared pool owns) and so does
        the output, bit for bit.  ``config`` pins the request's full run
        configuration (engine model axes, tile, seed, backend); ``None``
        falls back to the scheduler's own config, and the explicit
        ``tile``/``seed``/``backend``/``engine_kwargs`` arguments
        override the config field-by-field, exactly as in the batch
        path.  ``backend`` pins the request's execution backend
        explicitly (default: the config's, else the process-active one
        at build time); cross-thread callers should pass one of the two,
        since the active backend is process-global.  ``scene`` submits
        against a scene handle from :meth:`put_scene` instead of
        ``inputs``: the request then ships no scene bytes at all.
        """
        loop = asyncio.get_running_loop()
        if self._loop is None:
            self._loop = loop
        elif self._loop is not loop:
            raise RuntimeError("Scheduler is bound to a different event "
                               "loop; create one scheduler per loop")
        t_admit = time.perf_counter()
        try:
            plan = _executor.build_tile_tasks(
                kernel, inputs, length,
                config=config if config is not None else self.config,
                tile=tile, seed=seed,
                engine_kwargs=engine_kwargs, kernel_kwargs=kernel_kwargs,
                backend=backend, scene_store=self.scene_store, scene=scene)
        except KeyError as exc:   # expired/unknown scene handle
            raise ValueError(str(exc.args[0]) if exc.args else str(exc))
        self.metrics.on_scene(plan.scene.hit, plan.scene.bytes_shipped)
        # Requests rejected during task building never count as admitted:
        # they touched neither the pool nor the dispatch loop.
        if not plan.tasks:
            # Degenerate inputs (a zero-area 2-D shape) produce an empty
            # grid; resolve now exactly as run_tiled would — completion
            # otherwise only happens inside a tile callback that never
            # fires, and the await would hang forever.
            self.scene_store.release(plan.scene.digest)
            self.metrics.on_admit()
            self.metrics.on_request_done(
                True, queue_wait=0.0, exec_s=0.0,
                latency_s=time.perf_counter() - t_admit)
            return _executor.stitch_tiles(plan, [])
        request = ServeRequest(next(self._ids), plan, loop.create_future(),
                               t_admit)
        self.metrics.on_admit()
        self._outstanding.add(request.future)
        request.future.add_done_callback(self._outstanding.discard)
        self._round_robin.append(request)
        self._pump()
        return await request.future

    def put_scene(self, inputs: Dict[str, np.ndarray]) -> str:
        """Pin ``inputs`` in the scene store and return its digest handle.

        Subsequent :meth:`submit_app` calls may pass ``scene=digest``
        instead of ``inputs`` and ship zero scene bytes.  The scene stays
        resident until :meth:`drop_scene` (it is exempt from cache
        eviction while pinned).
        """
        return self.scene_store.pin(inputs).digest

    def drop_scene(self, digest: str) -> None:
        """Unpin a :meth:`put_scene` handle (idempotent once unpinned)."""
        self.scene_store.unpin(digest)

    def close(self) -> None:
        """Tear down the scheduler's scene store.

        Call after :meth:`drain`; the pool is closed separately by
        whoever owns it.  Idempotent.
        """
        self.scene_store.close()

    def stats(self) -> Dict[str, Any]:
        """Plain-JSON metrics snapshot plus pool state.

        This is the ``{"type": "stats"}`` response payload of the stdio
        front-end and the return value of ``ServingClient.stats()``.
        Call on the scheduler's event loop (the metrics registry is
        mutated there); cross-thread readers go through the loop like the
        client does.
        """
        snap = self.metrics.snapshot()
        snap["pool"] = {
            "capacity": self.pool.capacity,
            "start_method": self.pool.start_method,
            "restarts": self.pool.restarts,
            "broken": self.pool.broken,
            "closed": self.pool.closed,
        }
        snap["config"] = self.config.to_dict()
        snap["scene_store"] = self.scene_store.stats()
        return snap

    async def drain(self) -> None:
        """Wait until every admitted request has resolved *and* every
        submitted chunk future has delivered its callback.

        Call (on the scheduler's loop) before stopping that loop — a chunk
        callback arriving after the loop is closed would otherwise raise
        ``RuntimeError`` in the pool's callback thread and strand any
        request still awaiting it.
        """
        if self._outstanding:
            await asyncio.gather(*list(self._outstanding),
                                 return_exceptions=True)
        while self._inflight:   # chunks of already-failed requests
            await asyncio.sleep(0.005)

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------
    def _pump(self) -> None:
        """Fill free pool slots, one chunk per active request per pass."""
        while self._inflight < self.max_inflight and self._round_robin:
            request = self._round_robin.popleft()
            if request.future.cancelled():
                # Caller gave up (e.g. wait_for timeout): stop dispatching
                # its chunks so they don't occupy slots live requests need.
                request.failed = True
                self._finalize(request, ok=False)
                continue
            if not request.has_pending:
                continue
            idx, chunk = request.take()
            if request.has_pending:
                self._round_robin.append(request)
            n = len(chunk)
            self.dispatch_log.extend((request.id, i)
                                     for i in range(idx, idx + n))
            now = time.perf_counter()
            queue_wait = None
            if request.t_first_dispatch is None:
                request.t_first_dispatch = now
                queue_wait = now - request.t_admit
            self.metrics.on_dispatch(n, queue_wait)
            try:
                fut = self.pool.submit(_executor._run_tiles, chunk)
            except Exception as exc:   # broken/closed pool at submit time
                self._fail(request, exc)
                self._revive_pool()
                continue
            self._inflight += 1
            self.metrics.on_submit(n)
            fut.add_done_callback(
                lambda f, request=request, idx=idx, n=n:
                self._loop.call_soon_threadsafe(
                    self._on_tile_done, request, idx, n, f))

    def _on_tile_done(self, request: ServeRequest, idx: int, n: int,
                      fut) -> None:
        """Runs on the event loop for every finished chunk future: tiles
        ``idx`` to ``idx + n - 1`` of ``request``."""
        self._inflight -= 1
        self.metrics.on_tile_done(n)
        if request.future.cancelled():
            # Abandoned by the caller mid-flight: drop the result and stop
            # dispatching the rest (set_result on a cancelled future would
            # raise InvalidStateError into the loop).
            self._fail(request, asyncio.CancelledError())
        elif fut.cancelled():
            self._fail(request, BrokenProcessPool(
                "chunk task cancelled by a pool restart"))
        else:
            exc = fut.exception()
            if exc is not None:
                self._fail(request, exc)
            elif not request.failed:
                request.results[idx:idx + n] = fut.result()
                request.completed += n
                if request.completed == len(request.plan.tasks):
                    request.future.set_result(
                        _executor.stitch_tiles(request.plan,
                                               request.results))
                    self._finalize(request, ok=True)
        self._revive_pool()
        self._pump()

    def _fail(self, request: ServeRequest, exc: BaseException) -> None:
        """Fail one request (once); its unsubmitted chunks are dropped."""
        request.failed = True
        try:
            self._round_robin.remove(request)
        except ValueError:
            pass
        if not request.future.done():
            request.future.set_exception(exc)
        self._finalize(request, ok=False)

    def _finalize(self, request: ServeRequest, ok: bool) -> None:
        """Record one request's terminal metrics, exactly once."""
        if request.counted:
            return
        request.counted = True
        self.scene_store.release(request.plan.scene.digest)
        now = time.perf_counter()
        start = request.t_first_dispatch
        self.metrics.on_request_done(
            ok,
            # never dispatched (failed/cancelled while queued): its whole
            # life was queue wait
            queue_wait=(now - request.t_admit) if start is None else None,
            exec_s=(now - start) if start is not None else None,
            latency_s=now - request.t_admit)

    def _revive_pool(self) -> None:
        """Respawn workers after a hard crash so later requests proceed."""
        if self.pool.broken and not self.pool.closed:
            self.pool.restart()
            self.metrics.on_pool_restart()
