"""Prometheus-style metrics for the serving layer.

The serving hot path (PR 5) had no observability: nothing recorded how
long a request queued before its first tile dispatched, how long it
executed, how many tiles (and pool tasks) the scheduler pushed, or how
often a worker crash forced a pool respawn.  :class:`ServeMetrics` is
that surface.  One instance lives on each
:class:`~repro.serve.scheduler.Scheduler` (``scheduler.metrics``); the
scheduler feeds it from its dispatch loop, and front-ends expose it two
ways:

* ``scheduler.stats()`` / ``ServingClient.stats()`` — a plain-JSON
  snapshot (counters, gauges with high-water marks, and p50/p90/p99 of
  the recent latency windows), also served by ``serve_stdio`` as the
  ``{"type": "stats"}`` request;
* :meth:`ServeMetrics.render_prometheus` — the text exposition format
  (``# HELP`` / ``# TYPE`` / sample lines), for scraping or log-shipping.

Counted quantities
------------------
``requests``   admitted / ok / failed, in-flight + high-water mark.
``tiles``      dispatched (one per ``dispatch_log`` entry — the test
               suite asserts the two agree), completed, in-flight + hwm;
               every count is in tiles, whichever chunk carried them.
``tasks``      pool tasks dispatched and their in-flight hwm: one task
               ships one request header plus the windows of up to
               ``CHUNK_PIXELS // tile_area`` contiguous tiles (see
               :mod:`repro.serve.scheduler`), so tasks <= tiles, and
               ``max_inflight`` bounds tasks, not tiles.
``pool``       restarts (worker-death respawns by the scheduler).
``scenes``     scene-cache hits/misses and scene bytes shipped across a
               process boundary (zero for a shared-memory cache hit —
               see :mod:`repro.serve.transport`).
``windows``    ``queue_wait_s`` (request admission to first tile
               dispatch), ``exec_s`` (first dispatch to completion) and
               ``latency_s`` (admission to completion, successful
               requests only), each a bounded reservoir of recent
               observations with count/sum kept exactly.

All mutation happens on the scheduler's event loop (single-threaded), so
no locks are needed; cross-thread readers go through the loop (see
``ServingClient.stats``).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Dict, Iterable, Optional, Tuple

import numpy as np

__all__ = ["Counter", "Gauge", "Window", "ServeMetrics"]

#: Percentiles reported by every :class:`Window` snapshot.
PERCENTILES: Tuple[int, ...] = (50, 90, 99)


class Counter:
    """Monotonically increasing counter (Prometheus ``counter``)."""

    __slots__ = ("name", "help", "value")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Up/down gauge that also tracks its high-water mark.

    Prometheus models the hwm as a second gauge (``<name>_hwm``);
    :meth:`ServeMetrics.render_prometheus` emits both.
    """

    __slots__ = ("name", "help", "value", "hwm")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self.value = 0
        self.hwm = 0

    def inc(self, n: int = 1) -> None:
        self.value += n
        if self.value > self.hwm:
            self.hwm = self.value

    def dec(self, n: int = 1) -> None:
        self.value -= n


class Window:
    """Bounded reservoir of recent observations with exact count/sum.

    Percentiles are computed over the most recent ``maxlen`` observations
    only — a long-lived server must not accumulate an unbounded sample
    list — while ``count`` and ``sum`` stay exact for the whole lifetime
    (so rates and means survive the eviction).
    """

    __slots__ = ("name", "help", "count", "sum", "_recent")

    def __init__(self, name: str, help: str, maxlen: int = 4096) -> None:
        self.name = name
        self.help = help
        self.count = 0
        self.sum = 0.0
        self._recent: "deque[float]" = deque(maxlen=maxlen)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        self._recent.append(value)

    def percentiles(self, qs: Iterable[int] = PERCENTILES
                    ) -> Dict[str, Optional[float]]:
        """``{"p50": ..., ...}`` over the recent window; ``None`` if empty."""
        if not self._recent:
            return {f"p{q}": None for q in qs}
        arr = np.fromiter(self._recent, dtype=np.float64)
        return {f"p{q}": float(np.percentile(arr, q)) for q in qs}

    def snapshot(self) -> Dict[str, Any]:
        snap: Dict[str, Any] = {"count": self.count, "sum": self.sum}
        snap.update(self.percentiles())
        snap["mean"] = (self.sum / self.count) if self.count else None
        snap["max"] = float(max(self._recent)) if self._recent else None
        return snap


class ServeMetrics:
    """The scheduler's metric registry (see the module docstring)."""

    def __init__(self) -> None:
        self.requests_admitted = Counter(
            "serve_requests_admitted_total", "Requests admitted")
        self.requests_ok = Counter(
            "serve_requests_ok_total", "Requests completed successfully")
        self.requests_failed = Counter(
            "serve_requests_failed_total",
            "Requests failed (bad kwargs, raising tile, worker death, "
            "caller cancellation)")
        self.requests_inflight = Gauge(
            "serve_requests_inflight", "Requests admitted but unresolved")
        self.tiles_dispatched = Counter(
            "serve_tiles_dispatched_total",
            "Tiles dispatched to the pool (one per dispatch_log entry)")
        self.tiles_completed = Counter(
            "serve_tiles_completed_total",
            "Tiles whose pool task has delivered")
        self.tiles_inflight = Gauge(
            "serve_tiles_inflight", "Tiles submitted to the pool and not "
            "yet delivered")
        self.tasks_dispatched = Counter(
            "serve_tasks_dispatched_total",
            "Pool tasks dispatched, each a chunk of one request's tiles")
        self.tasks_inflight = Gauge(
            "serve_tasks_inflight", "Pool tasks submitted and not yet "
            "delivered")
        self.pool_restarts = Counter(
            "serve_pool_restarts_total",
            "Worker-pool respawns after a worker death broke the executor")
        self.scene_hits = Counter(
            "serve_scene_cache_hits_total",
            "Requests whose scene was already resident in the "
            "shared-memory scene store (zero scene bytes shipped)")
        self.scene_misses = Counter(
            "serve_scene_cache_misses_total",
            "Requests whose scene had to be published into the "
            "shared-memory scene store")
        self.scene_bytes_shipped = Counter(
            "serve_scene_bytes_shipped_total",
            "Scene bytes that crossed a process boundary: full inputs "
            "on a scene-store miss, zero on a hit")
        self.queue_wait_s = Window(
            "serve_queue_wait_seconds",
            "Request admission to first tile dispatch")
        self.exec_s = Window(
            "serve_exec_seconds",
            "First tile dispatch to request completion")
        self.latency_s = Window(
            "serve_latency_seconds",
            "Request admission to completion (successful requests)")

    # ------------------------------------------------------------------
    # scheduler hooks
    # ------------------------------------------------------------------
    def on_admit(self) -> None:
        self.requests_admitted.inc()
        self.requests_inflight.inc()

    def on_dispatch(self, tiles: int = 1,
                    queue_wait: Optional[float] = None) -> None:
        """One task of ``tiles`` tiles dispatched; ``queue_wait`` on the
        request's first."""
        self.tiles_dispatched.inc(tiles)
        self.tasks_dispatched.inc()
        if queue_wait is not None:
            self.queue_wait_s.observe(queue_wait)

    def on_submit(self, tiles: int) -> None:
        """One task of ``tiles`` tiles accepted by the pool."""
        self.tiles_inflight.inc(tiles)
        self.tasks_inflight.inc()

    def on_tile_done(self, tiles: int = 1) -> None:
        """One task of ``tiles`` tiles delivered (result or error)."""
        self.tiles_completed.inc(tiles)
        self.tiles_inflight.dec(tiles)
        self.tasks_inflight.dec()

    def on_request_done(self, ok: bool, *,
                        queue_wait: Optional[float] = None,
                        exec_s: Optional[float] = None,
                        latency_s: Optional[float] = None) -> None:
        """One request resolved (exactly once per admitted request)."""
        (self.requests_ok if ok else self.requests_failed).inc()
        self.requests_inflight.dec()
        if queue_wait is not None:
            self.queue_wait_s.observe(queue_wait)
        if ok and exec_s is not None:
            self.exec_s.observe(exec_s)
        if ok and latency_s is not None:
            self.latency_s.observe(latency_s)

    def on_pool_restart(self) -> None:
        self.pool_restarts.inc()

    def on_scene(self, hit: bool, bytes_shipped: int) -> None:
        """One request's scene transport resolved (hit or shipped)."""
        (self.scene_hits if hit else self.scene_misses).inc()
        self.scene_bytes_shipped.inc(int(bytes_shipped))

    # ------------------------------------------------------------------
    # export
    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Plain-JSON view — the ``{"type": "stats"}`` response payload.

        Every value is a JSON-native int/float/``None``; the dict always
        round-trips through ``json.dumps(..., allow_nan=False)``.
        """
        return {
            "requests": {
                "admitted": self.requests_admitted.value,
                "ok": self.requests_ok.value,
                "failed": self.requests_failed.value,
                "inflight": self.requests_inflight.value,
                "inflight_hwm": self.requests_inflight.hwm,
            },
            "tiles": {
                "dispatched": self.tiles_dispatched.value,
                "completed": self.tiles_completed.value,
                "inflight": self.tiles_inflight.value,
                "inflight_hwm": self.tiles_inflight.hwm,
            },
            "tasks": {
                "dispatched": self.tasks_dispatched.value,
                "inflight_hwm": self.tasks_inflight.hwm,
            },
            "pool_restarts": self.pool_restarts.value,
            "scene_cache": {
                "hits": self.scene_hits.value,
                "misses": self.scene_misses.value,
                "hit_rate": (
                    self.scene_hits.value
                    / (self.scene_hits.value + self.scene_misses.value)
                    if (self.scene_hits.value + self.scene_misses.value)
                    else None),
                "bytes_shipped": self.scene_bytes_shipped.value,
            },
            "queue_wait_s": self.queue_wait_s.snapshot(),
            "exec_s": self.exec_s.snapshot(),
            "latency_s": self.latency_s.snapshot(),
        }

    def render_prometheus(self) -> str:
        """Text exposition format (``# HELP``/``# TYPE`` + samples)."""
        lines = []
        for c in (self.requests_admitted, self.requests_ok,
                  self.requests_failed, self.tiles_dispatched,
                  self.tiles_completed, self.tasks_dispatched,
                  self.pool_restarts,
                  self.scene_hits, self.scene_misses,
                  self.scene_bytes_shipped):
            lines += [f"# HELP {c.name} {c.help}",
                      f"# TYPE {c.name} counter",
                      f"{c.name} {c.value}"]
        for g in (self.requests_inflight, self.tiles_inflight,
                  self.tasks_inflight):
            lines += [f"# HELP {g.name} {g.help}",
                      f"# TYPE {g.name} gauge",
                      f"{g.name} {g.value}",
                      f"# HELP {g.name}_hwm High-water mark of {g.name}",
                      f"# TYPE {g.name}_hwm gauge",
                      f"{g.name}_hwm {g.hwm}"]
        for w in (self.queue_wait_s, self.exec_s, self.latency_s):
            lines += [f"# HELP {w.name} {w.help}",
                      f"# TYPE {w.name} summary"]
            for key, value in w.percentiles().items():
                if value is not None:
                    q = int(key[1:]) / 100
                    lines.append(f'{w.name}{{quantile="{q}"}} {value:.9g}')
            lines += [f"{w.name}_sum {w.sum:.9g}",
                      f"{w.name}_count {w.count}"]
        return "\n".join(lines) + "\n"
