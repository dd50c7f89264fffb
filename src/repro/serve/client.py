"""Synchronous programmatic client for the serving layer.

:class:`ServingClient` owns a resident :class:`~repro.serve.pool.WorkerPool`
and a :class:`~repro.serve.scheduler.Scheduler` running on a background
event-loop thread, and exposes a plain blocking/future API so ordinary
scripts (``examples/serving.py``) can serve requests without writing any
asyncio::

    with ServingClient(jobs=4) as client:
        fut_a = client.submit("gamma_correct", inputs_a, 128, tile=8,
                              kernel_kwargs={"gamma": 0.5})
        fut_b = client.submit("matting", inputs_b, 64, tile=8, seed=3)
        image_a, ledger_a = fut_a.result()   # chunks of a and b interleaved
        image_b, ledger_b = fut_b.result()

Every request is bit-identical to the equivalent
:func:`repro.apps.executor.run_tiled` call (same kernel/inputs/length/
tile/seed/kwargs), alone or concurrent — the scheduler guarantees it.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from typing import Any, Dict, Optional, Tuple

import numpy as np

from ..config import RunConfig
from ..core.backend import get_backend
from ..energy.model import EnergyLedger
from .pool import WorkerPool, serving_pool
from .scheduler import Scheduler

__all__ = ["ServingClient"]


class ServingClient:
    """Blocking facade over a resident pool + asyncio scheduler.

    Parameters
    ----------
    jobs:
        Worker processes for the owned pool (ignored when ``pool`` is
        given).
    mp_context / backend:
        Forwarded to the owned :class:`WorkerPool`.  The default context
        is :func:`~repro.serve.pool.serving_mp_context` (forkserver where
        available), not the batch-path ``fork`` default: the client is a
        long-lived multi-threaded front-end whose scheduler auto-restarts
        crashed pools, and only forkserver/spawn can respawn workers
        without forking a threaded process.
    pool:
        Serve over an existing pool instead of owning one (the caller
        keeps responsibility for closing it).
    max_inflight:
        Scheduler in-flight budget in pool tasks, each a chunk of one
        request's tiles (default: pool capacity).
    warmup:
        Start every worker during construction instead of lazily on the
        first request (default True — serving wants cold-start paid at
        boot, not billed to the first caller).
    config:
        The client's default :class:`repro.config.RunConfig`; ``None``
        resolves to ``RunConfig.default()`` — the fast preset.  Every
        request inherits it unless it carries its own ``config=``, and
        the explicit constructor arguments above override its
        ``jobs``/``backend``/``mp_context`` fields.

    Scenes ship once through the scheduler's content-addressed
    shared-memory store: repeated scenes are zero-byte cache hits, and
    :meth:`put_scene` handles skip shipping altogether.
    """

    def __init__(self, jobs: Optional[int] = None, *,
                 mp_context: Any = None,
                 backend: Optional[str] = None,
                 pool: Optional[WorkerPool] = None,
                 max_inflight: Optional[int] = None,
                 warmup: bool = True,
                 config: Optional[RunConfig] = None):
        cfg = RunConfig.resolve(config)
        self.config = cfg
        self._owns_pool = pool is None
        self.pool = pool if pool is not None else serving_pool(
            cfg, jobs, mp_context=mp_context, backend=backend)
        try:
            # validate before warming: a bad max_inflight must not leave
            # an orphaned, already-spawned worker fleet behind
            self.scheduler = Scheduler(self.pool, max_inflight=max_inflight,
                                       config=cfg)
            if warmup:
                self.pool.warmup()
        except BaseException:
            if self._owns_pool:
                self.pool.close()
            raise
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._run_loop, name="repro-serve-client", daemon=True)
        self._thread.start()

    def _run_loop(self) -> None:
        asyncio.set_event_loop(self._loop)
        self._loop.run_forever()

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def submit(self, kernel: str,
               inputs: Optional[Dict[str, np.ndarray]],
               length: int, *, config: Optional[RunConfig] = None,
               tile: Optional[int] = None, seed: Optional[int] = None,
               engine_kwargs: Optional[Dict[str, Any]] = None,
               kernel_kwargs: Optional[Dict[str, Any]] = None,
               backend: Optional[str] = None,
               scene: Optional[str] = None
               ) -> concurrent.futures.Future:
        """Enqueue one request; the future resolves to ``(image, ledger)``.

        ``config`` pins this request's run configuration (default: the
        client's own config); the explicit arguments override it
        field-by-field.  The caller's active execution backend, input
        arrays and kwargs dicts are captured now, in the calling thread:
        the backend is process-global and the plan is built later on the
        loop thread, so without the snapshot a caller reusing/mutating a
        buffer or kwargs dict after ``submit`` returns would race the
        request build.  ``scene`` (a :meth:`put_scene` digest) replaces
        ``inputs`` — the request then carries no arrays at all, so
        nothing is copied here either.
        """
        if self._loop.is_closed():
            raise RuntimeError("ServingClient is closed")
        if backend is None:
            req_cfg = config if config is not None else self.config
            backend = (req_cfg.backend if req_cfg.backend is not None
                       else get_backend().name)
        if scene is None:
            inputs = {name: np.array(arr, copy=True)
                      for name, arr in inputs.items()}
        engine_kwargs = dict(engine_kwargs) if engine_kwargs else None
        kernel_kwargs = dict(kernel_kwargs) if kernel_kwargs else None
        return asyncio.run_coroutine_threadsafe(
            self.scheduler.submit_app(
                kernel, inputs, length, config=config, tile=tile,
                seed=seed, engine_kwargs=engine_kwargs,
                kernel_kwargs=kernel_kwargs, backend=backend, scene=scene),
            self._loop)

    def request(self, kernel: str,
                inputs: Optional[Dict[str, np.ndarray]],
                length: int, *, config: Optional[RunConfig] = None,
                tile: Optional[int] = None, seed: Optional[int] = None,
                engine_kwargs: Optional[Dict[str, Any]] = None,
                kernel_kwargs: Optional[Dict[str, Any]] = None,
                backend: Optional[str] = None,
                scene: Optional[str] = None
                ) -> Tuple[np.ndarray, EnergyLedger]:
        """Blocking single request — submit and wait."""
        return self.submit(kernel, inputs, length, config=config,
                           tile=tile, seed=seed,
                           engine_kwargs=engine_kwargs,
                           kernel_kwargs=kernel_kwargs,
                           backend=backend, scene=scene).result()

    def put_scene(self, inputs: Dict[str, np.ndarray]) -> str:
        """Publish + pin a scene; returns the digest for ``submit(scene=)``.

        The scene stays resident in the shared-memory store (exempt from
        eviction) until :meth:`drop_scene`; repeated :meth:`submit` calls
        against the handle ship zero scene bytes.  The store is
        thread-safe, so this never hops onto the loop thread.
        """
        if self._loop.is_closed():
            raise RuntimeError("ServingClient is closed")
        return self.scheduler.put_scene(inputs)

    def drop_scene(self, digest: str) -> None:
        """Unpin a :meth:`put_scene` handle."""
        if self._loop.is_closed():
            raise RuntimeError("ServingClient is closed")
        self.scheduler.drop_scene(digest)

    def stats(self) -> Dict[str, Any]:
        """Metrics snapshot (:meth:`repro.serve.scheduler.Scheduler.stats`).

        Runs on the scheduler's loop thread — the metrics registry is
        only ever mutated there, so the snapshot is always consistent
        even while requests are in flight.
        """
        if self._loop.is_closed():
            raise RuntimeError("ServingClient is closed")

        async def _snap() -> Dict[str, Any]:
            return self.scheduler.stats()

        return asyncio.run_coroutine_threadsafe(_snap(),
                                                self._loop).result()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Drain outstanding requests, then tear down loop and pool.

        The drain must happen while the loop still runs: in-flight tile
        callbacks land on it via ``call_soon_threadsafe``, so stopping the
        loop first would raise in the pool's callback thread and leave any
        pending ``submit`` future unresolved forever.
        """
        if not self._loop.is_closed():
            asyncio.run_coroutine_threadsafe(
                self.scheduler.drain(), self._loop).result()
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join()
            self._loop.close()
            self.scheduler.close()   # unlink scene-store shm segments
        if self._owns_pool and not self.pool.closed:
            self.pool.close()

    def __enter__(self) -> "ServingClient":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
