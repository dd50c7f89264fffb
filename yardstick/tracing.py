"""Spans around the public entry points of each layer, from outside.

The traced run never edits ``repro``: it swaps public functions and
methods for timing wrappers for the duration of a ``with`` block and puts
the originals back afterwards.  Spans are kept in memory; a layer's *self
time* is its span's duration minus the time its child spans cover, so the
self times of every span under a root add up to the root's duration.

Only calls made in this process can be wrapped.  Work inside the serving
pool's workers is measured by replaying the same tiles in-process through
``run_tiled(jobs=1)`` with the engine behind :class:`EngineProxy`.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import pickle
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional

#: Engine methods by the kernel stage they belong to.
ENGINE_STAGES = {
    "generate": "engine.generate",
    "generate_pair": "engine.generate",
    "generate_correlated": "engine.generate",
    "multiply": "engine.logic",
    "scaled_add": "engine.logic",
    "approx_add": "engine.logic",
    "abs_subtract": "engine.logic",
    "minimum": "engine.logic",
    "maximum": "engine.logic",
    "maj": "engine.logic",
    "mux": "engine.logic",
    "op": "engine.logic",
    "divide": "engine.divide",
    "divide_jk": "engine.divide",
    "to_binary": "engine.to_binary",
    "convert": "engine.to_binary",
}


class Span:
    __slots__ = ("name", "start", "end", "parent", "child_s")

    def __init__(self, name: str, start: float,
                 parent: Optional["Span"]) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.child_s = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.child_s

    def root(self) -> "Span":
        span = self
        while span.parent is not None:
            span = span.parent
        return span


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        span = Span(name, time.perf_counter(), stack[-1] if stack else None)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if span.parent is not None:
                span.parent.child_s += span.duration
            with self._lock:
                self.spans.append(span)

    def current(self) -> Optional[str]:
        """Name of the innermost open span on this thread."""
        stack = self._stack()
        return stack[-1].name if stack else None

    def count(self, name: str, n: float = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [s for s in self.spans if s.name == name]

    def total_s(self, name: str) -> float:
        return sum(s.duration for s in self.named(name))

    def mean_ms(self, name: str) -> float:
        spans = self.named(name)
        return 1e3 * sum(s.duration for s in spans) / len(spans) \
            if spans else 0.0

    def self_times(self, root: str) -> Dict[str, float]:
        """Summed self time per span name, over the trees under ``root``."""
        out: Dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.root().name == root:
                out[span.name] += span.self_s
        return dict(out)


#: The layers must account for this share of the traced end-to-end time.
BREAKDOWN_TOLERANCE = 0.10


def breakdown_error(self_times: Dict[str, float], root: str) -> float:
    """How far the layers' self times miss the traced end-to-end time.

    The end-to-end time is the summed duration of the ``root`` spans;
    the breakdown is the self time of every span *below* them.  Time the
    layers do not cover stays as the roots' own self time, so this is
    the untraced share: 0 when the layers account for everything.
    """
    total = sum(self_times.values())
    if total <= 0:
        raise ValueError(f"no time recorded under {root!r}")
    return self_times.get(root, 0.0) / total


# ----------------------------------------------------------------------
# patching
# ----------------------------------------------------------------------
def patch(stack: contextlib.ExitStack, owner: Any, attr: str,
          replacement: Any) -> None:
    """Set ``owner.attr`` until ``stack`` closes, keeping its binding kind."""
    original = inspect.getattr_static(owner, attr)
    if isinstance(original, staticmethod):
        replacement = staticmethod(replacement)
    setattr(owner, attr, replacement)
    stack.callback(setattr, owner, attr, original)


def patch_span(stack: contextlib.ExitStack, tracer: Tracer, owner: Any,
               attr: str, name: str) -> None:
    """Wrap ``owner.attr`` in a span called ``name``."""
    patch(stack, owner, attr, tracer.wrap(getattr(owner, attr), name))


class EngineProxy:
    """Times every stage call of one wrapped engine; forwards the rest."""

    def __init__(self, engine: Any, tracer: Tracer) -> None:
        self._engine = engine
        self._tracer = tracer

    def __getattr__(self, name: str) -> Any:
        attr = getattr(self._engine, name)
        stage = ENGINE_STAGES.get(name)
        if stage is None:
            return attr
        self._tracer.count("engine.calls")
        return self._tracer.wrap(attr, stage)


def trace_kernel_layers(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Spans for one in-process tile path: build, publish, fetch, engine
    construction and stages, kernels, ``exact_count``, stitch."""
    from repro.apps import executor
    from repro.core.streambatch import StreamBatch
    from repro.serve import transport

    engine_cls = executor.InMemorySCEngine

    def traced_engine(*args, **kwargs):
        with tracer.span("engine.init"):
            engine = engine_cls(*args, **kwargs)
        tracer.count("engine.instances")
        return EngineProxy(engine, tracer)

    patch(stack, executor, "InMemorySCEngine", traced_engine)
    for name, kernel in list(executor.KERNELS.items()):
        executor.KERNELS[name] = tracer.wrap(kernel, "kernel")
        stack.callback(executor.KERNELS.__setitem__, name, kernel)
    patch_span(stack, tracer, StreamBatch, "exact_count",
               "streambatch.exact_count")
    patch_span(stack, tracer, transport, "fetch_tile",
               "transport.fetch_tile")
    trace_request_layers(stack, tracer)


def trace_request_layers(stack: contextlib.ExitStack,
                         tracer: Tracer) -> None:
    """Spans for the request-side calls the serving process makes."""
    from repro.apps import executor
    from repro.serve import transport

    patch_span(stack, tracer, executor, "build_tile_tasks", "executor.build")
    patch_span(stack, tracer, executor, "stitch_tiles", "executor.stitch")
    patch_span(stack, tracer, transport.SceneStore, "publish",
               "transport.publish")


def trace_pipeline(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Spans inside ``run_app``: its tiled SC run, and the scene
    generation and PSNR/SSIM scoring around it (``pipeline.score``)."""
    from repro.apps import pipeline

    patch_span(stack, tracer, pipeline, "run_tiled", "executor.run_tiled")
    for name in ("scene_triplet", "natural_scene", "neighbour_grid",
                 "composite_float", "upscale_float",
                 "recomposite_quality_inputs", "quality_pair"):
        patch_span(stack, tracer, pipeline, name, "pipeline.score")


def trace_serving(stack: contextlib.ExitStack, tracer: Tracer) -> None:
    """Spans and counts for a served run: JSON codec, warm-up, and every
    task's pickled size and round trip through the pool."""
    from repro.serve import pool, service

    trace_request_layers(stack, tracer)
    patch_span(stack, tracer, service, "decode_request", "service.decode")
    patch_span(stack, tracer, service, "encode_response", "service.encode")
    patch_span(stack, tracer, pool.WorkerPool, "warmup", "pool.warmup")
    submit = pool.WorkerPool.submit

    def traced_submit(self, fn, task):
        if tracer.current() == "pool.warmup":
            return submit(self, fn, task)   # not a tile
        tracer.count("pool.tasks")
        tracer.count("pool.task_bytes", len(pickle.dumps(task)))
        t0 = time.perf_counter()
        fut = submit(self, fn, task)
        fut.add_done_callback(lambda _f: tracer.count(
            "pool.round_trip_s", time.perf_counter() - t0))
        return fut

    patch(stack, pool.WorkerPool, "submit", traced_submit)
