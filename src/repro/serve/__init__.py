"""Async serving layer: persistent worker pool + fair tile scheduler.

The production-facing face of the tile executor.  Where
:func:`repro.apps.executor.run_tiled` is the batch entry point (one
request, one throwaway pool), this package keeps a resident
:class:`WorkerPool` and serves *concurrent* requests over it:

* :class:`WorkerPool` — long-lived worker processes with an explicitly
  pinned multiprocessing start method and per-worker backend pinning;
  ``pool_map``/``run_tiled`` accept instances via ``pool=`` so even the
  classic batch path can amortise startup.
* :class:`Scheduler` — asyncio request scheduler; decomposes each request
  with the executor's own task builder, interleaves tiles from different
  requests fair round-robin, and stitches per-request results exactly as
  ``run_tiled`` does.  Served output is bit-identical to the batch path
  per request.
* :class:`ServingClient` — blocking facade (background event loop) for
  scripts and benchmarks.
* :class:`SceneStore` — content-addressed shared-memory scene transport
  (:mod:`repro.serve.transport`): every scheduler publishes each
  request's input arrays once, workers attach lazily, and tile tasks
  carry ``(digest, window)`` references instead of copied arrays; ``put_scene`` handles let a client stream requests over the
  same scene while shipping its bytes exactly once.
* :func:`serve_stdio` — the line-delimited JSON request loop behind
  ``python -m repro serve --jobs N`` (strict RFC 8259 responses; a
  ``{"type": "stats"}`` request returns the metrics snapshot;
  ``put_scene``/``drop_scene`` manage scene handles).
* :class:`ServeMetrics` — Prometheus-style serving metrics (per-request
  queue wait / exec time / latency percentiles, tiles dispatched, pool
  restarts, in-flight high-water marks); every scheduler carries one,
  exposed via ``Scheduler.stats()`` / ``ServingClient.stats()``.

See ``examples/serving.py`` for an end-to-end tour; served throughput
and latency are measured by ``yardstick/run.py`` (``BENCHMARK.json``).
"""

from .pool import BrokenProcessPool, WorkerPool, default_mp_context
from .metrics import ServeMetrics
from .transport import SceneStore
from .scheduler import Scheduler
from .client import ServingClient
from .service import serve_stdio

__all__ = ["WorkerPool", "BrokenProcessPool", "default_mp_context",
           "ServeMetrics", "SceneStore", "Scheduler", "ServingClient",
           "serve_stdio"]
