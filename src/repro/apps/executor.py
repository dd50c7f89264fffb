"""Sharded tile executor for the application and filter pipelines.

A scene is decomposed into square tiles; every tile becomes one independent
unit of SC work (its own :class:`~repro.imsc.engine.InMemorySCEngine` and
RNG) that a worker pool can execute in any order.  This is the software
analogue of fanning an image out across ReRAM mats: each mat converts and
computes its tile locally, and only binary tile results travel back.

Determinism contract
--------------------
* The tile grid depends only on the image shape and ``tile`` — never on
  ``jobs`` — and tiles are stitched by index.
* Tile *i* seeds from ``SeedSequence(seed, spawn_key=(i,))`` — the same
  sequence as the *i*-th child ``SeedSequence(seed)`` spawns — so it sees
  the same random stream whichever worker or chunk runs it and however
  many workers exist.  ``jobs=1`` (in-process) and ``jobs=N`` (process pool)
  therefore produce bit-identical images.
* Tiled output differs from the untiled whole-image run (each tile has its
  own random-row fill) but is itself a fixed function of
  ``(seed, tile, image)``.

A pool task is ``(job, start, windows)``: one :class:`TileJob` request
header (its scene is the caller's arrays in process, else a
:class:`repro.serve.transport.SceneRef`) plus the windows of tiles
``start, start + 1, ...``; a one-tile task is the per-tile oracle.
Workers re-select the execution backend by name, so the pool behaves
identically under ``fork`` and ``spawn`` start methods — and the start
method is pinned explicitly (``mp_context`` argument, resolved via
:func:`repro.serve.pool.default_mp_context`) rather than left to the
interpreter's mutable global default.  The same :func:`pool_map` primitive
backs the Monte-Carlo accuracy harness's sharded
:func:`repro.core.accuracy.op_mse` path.

Pool reuse and serving
----------------------
``pool_map`` historically spun up a throwaway ``ProcessPoolExecutor`` per
call; it is now a thin wrapper over the resident
:class:`repro.serve.pool.WorkerPool` and accepts ``pool=`` to run over a
long-lived instance instead (``run_tiled(..., pool=...)`` threads it
through), so request-serving workloads pay worker startup once.  The
request decomposition itself is exposed as :func:`build_tile_tasks` /
:func:`stitch_tiles`; the asyncio serving layer
(:mod:`repro.serve.scheduler`) uses exactly these to interleave chunks of
tiles (``plan.task(start, stop)``) from concurrent requests onto one
shared pool while preserving the per-request determinism contract above.

Beyond the three evaluation applications, :data:`KERNELS` registers the
four SC image filters of :mod:`repro.apps.filters`; filter-specific
parameters (``gamma``, ``lo``/``hi``, ...) travel via ``kernel_kwargs``.

Every entry point here takes one :class:`repro.config.RunConfig`
(``config=``) in place of the historical kwarg fan; per-field kwargs
remain as overrides, and with neither the fast preset
(packed + column + sparse) applies.  Request validation lives behind
:func:`repro.config.validate_task_kwargs` / ``RunConfig.validate_for``.
"""

from __future__ import annotations

import contextlib
from typing import (
    Any,
    Callable,
    Dict,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..config import RunConfig, validate_task_kwargs
from ..core.backend import get_backend, set_backend
from ..energy.model import EnergyLedger
from ..imsc.engine import InMemorySCEngine
from .compositing import composite_sc_kernel
from .filters import (
    contrast_stretch_kernel,
    gamma_correct_kernel,
    mean_filter_kernel,
    roberts_cross_kernel,
)
from .interpolation import upscale_sc_kernel
from .matting import matting_sc_kernel

__all__ = ["tile_grid", "run_tiled", "pool_map", "KERNELS", "TileJob",
           "TilePlan", "build_tile_tasks", "stitch_tiles"]

#: Flat per-tile kernels, keyed by app/filter name.  Each takes ``(engine,
#: **named 1-D arrays, length=..., **kernel_kwargs)`` and returns a 1-D
#: float image.
KERNELS = {
    "compositing": composite_sc_kernel,
    "interpolation": upscale_sc_kernel,
    "matting": matting_sc_kernel,
    "roberts_cross": roberts_cross_kernel,
    "mean_filter": mean_filter_kernel,
    "gamma_correct": gamma_correct_kernel,
    "contrast_stretch": contrast_stretch_kernel,
}


def tile_grid(height: int, width: int,
              tile: int) -> List[Tuple[int, int, int, int]]:
    """Row-major ``(r0, r1, c0, c1)`` bounds of a ``tile x tile`` decomposition.

    Edge tiles are clipped; the grid covers every pixel exactly once.
    """
    if tile < 1:
        raise ValueError("tile must be a positive integer")
    return [(r, min(r + tile, height), c, min(c + tile, width))
            for r in range(0, height, tile)
            for c in range(0, width, tile)]


def pool_map(fn: Callable[[Any], Any], tasks: Sequence[Any],
             jobs: Optional[int] = None, *, pool: Optional[Any] = None,
             mp_context: Any = None,
             config: Optional[RunConfig] = None) -> List[Any]:
    """Deterministic map over picklable tasks, fanned over ``jobs`` workers.

    ``jobs=1`` runs in-process (no pool, identical results); results are
    always returned in task order, so callers reducing over them are
    independent of worker scheduling.  The one-shot pool never spawns more
    workers than there are tasks — a small faulty sweep with ``jobs=8``
    and three tiles pays three process startups, not eight.

    ``pool=`` runs the map over a resident
    :class:`repro.serve.pool.WorkerPool` instead (``jobs`` is then
    ignored: the pool's own capacity governs parallelism), so back-to-back
    calls amortise worker startup.  ``mp_context`` pins the start method
    of the one-shot pool (name, context object, or ``None`` for the
    pinned platform default — see :mod:`repro.serve.pool`); results are
    bit-identical either way because tasks are self-contained.

    ``config=`` (a :class:`repro.config.RunConfig`) supplies ``jobs`` and
    ``mp_context`` when the explicit arguments are left ``None``; the
    explicit arguments always win.
    """
    cfg = RunConfig.resolve(config)
    if jobs is None:
        jobs = cfg.jobs
    if mp_context is None:
        mp_context = cfg.mp_context
    if pool is not None:
        return pool.map(fn, tasks)
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError("jobs must be >= 1")
    workers = min(jobs, len(tasks))
    if workers <= 1:
        return [fn(t) for t in tasks]
    from ..serve.pool import WorkerPool  # deferred: serve sits above apps
    with WorkerPool(workers, mp_context=mp_context) as one_shot:
        return one_shot.map(fn, tasks)


class TileJob(NamedTuple):
    """One request's header, shipped once per pool task.  ``scene`` is the
    caller's dict of 2-D arrays or a :class:`repro.serve.transport.SceneRef`.
    """

    backend: str
    kernel: str
    length: int
    seed: int
    engine_kwargs: Dict[str, Any]
    kernel_kwargs: Dict[str, Any]
    scene: Any


def _run_tiles(task: Tuple[TileJob, int, Sequence[Tuple[int, int, int, int]]]
               ) -> List[Tuple[np.ndarray, EnergyLedger]]:
    """Run one pool task ``(job, start, windows)``: tiles ``start, ...``.

    Each tile *i* gets its own window copy, its own engine seeded from
    ``SeedSequence(job.seed, spawn_key=(i,))`` and its own
    :data:`KERNELS` lookup, so a chunk yields exactly what its tiles
    would one by one; only the pool round trip is shared.
    """
    from ..serve import transport   # deferred: serve sits above apps
    job, start, windows = task
    set_backend(job.backend)
    results = []
    for i, window in enumerate(windows, start):
        arrays = transport.fetch_tile(job.scene, window)
        child = np.random.SeedSequence(job.seed, spawn_key=(i,))
        engine = InMemorySCEngine(rng=np.random.default_rng(child),
                                  **job.engine_kwargs)
        out = KERNELS[job.kernel](engine, length=job.length, **arrays,
                                  **job.kernel_kwargs)
        results.append((np.asarray(out, dtype=np.float64), engine.ledger))
    return results


class TilePlan(NamedTuple):
    """A tiled request, decomposed into self-contained worker tasks.

    Produced by :func:`build_tile_tasks`; ``task(start, stop)`` is the
    picklable argument :func:`_run_tiles` expects for grid cells
    ``grid[start:stop]``, and :func:`stitch_tiles` reassembles the
    per-tile results.  The plan is a pure function of ``(kernel, inputs,
    length, tile, seed, kwargs)`` — executing its tasks in any order, on
    any pool, yields the same image.

    ``scene`` is the scene-store accounting ticket
    (:class:`repro.serve.transport.SceneTicket`) of a plan built with a
    store: its ``digest`` names the published scene the executing side
    must ``release`` once the request resolves.  Plans built without a
    store carry ``None``.
    """

    shape: Tuple[int, int]
    grid: List[Tuple[int, int, int, int]]
    job: TileJob
    scene: Optional[Any] = None

    def task(self, start: int, stop: int) -> Tuple:
        """The pool task running tiles ``start`` to ``stop - 1``."""
        return self.job, start, self.grid[start:stop]


def build_tile_tasks(kernel: str, inputs: Optional[Dict[str, np.ndarray]],
                     length: int, *, config: Optional[RunConfig] = None,
                     tile: Optional[int] = None, seed: Optional[int] = None,
                     engine_kwargs: Optional[Dict[str, Any]] = None,
                     kernel_kwargs: Optional[Dict[str, Any]] = None,
                     backend: Optional[str] = None,
                     scene_store: Optional[Any] = None,
                     scene: Optional[str] = None) -> TilePlan:
    """Validate one tiled request and decompose it into a :class:`TilePlan`.

    This is the request-side half of :func:`run_tiled` (the other half is
    :func:`stitch_tiles`); the serving scheduler calls it directly so that
    tiles from different requests can interleave on one pool.  All
    validation happens here, in the caller's process, so a bad request
    fails before anything is submitted.  ``backend`` overrides the
    process-active execution backend baked into the tasks — the threaded
    serving client uses it to capture its caller's backend at submit time.

    ``config=`` (a :class:`repro.config.RunConfig`, defaulting to
    ``RunConfig.default()`` — the fast preset) supplies ``tile``, ``seed``
    and ``backend`` when the explicit arguments are ``None``, and pins the
    engine's model axes; explicit arguments and ``engine_kwargs`` keys
    override the config field-by-field (see
    :meth:`RunConfig.merged_engine_kwargs` for the one bit→dense
    coercion).  Explicit ``tile``/``seed``/``backend`` values are checked
    like the config fields they override, so a bad one fails by name.

    Scene forms
    -----------
    * Without ``scene_store`` the tasks carry the caller's arrays — the
      in-process path of ``run_tiled``.
    * ``scene_store=`` (a :class:`repro.serve.transport.SceneStore`):
      the inputs are published once into shared memory (content-addressed
      — a repeated scene is a cache hit shipping zero bytes) and tasks
      carry only a :class:`~repro.serve.transport.SceneRef`.  The
      returned plan's ``scene.digest`` holds one store reference the
      caller must ``release`` after the request resolves (the scheduler
      and ``run_tiled`` both do).
    * ``scene=`` (a digest string, requires ``scene_store``): build the
      plan for an already-published scene without the arrays at all —
      the ``put_scene`` handle path; ``inputs`` must then be ``None``.

    Both forms produce bit-identical output: every tile is cut by the
    same :func:`repro.serve.transport.fetch_tile`.
    """
    from ..serve import transport   # deferred: serve sits above apps
    if kernel not in KERNELS:
        raise ValueError(f"unknown tile kernel {kernel!r}")
    cfg = RunConfig.resolve(config).replace(**{
        name: value for name, value in
        (("tile", tile), ("seed", seed), ("backend", backend))
        if value is not None})
    if cfg.tile is None:
        raise ValueError("a tile size is required: pass tile= or set it "
                         "on the config")
    backend = get_backend(cfg.backend).name
    engine_kwargs = cfg.merged_engine_kwargs(engine_kwargs)
    if scene is not None:
        if scene_store is None:
            raise ValueError("scene= (a digest) requires scene_store=")
        if inputs is not None:
            raise ValueError("pass either inputs or scene=, not both")
    elif inputs is None:
        raise ValueError("inputs is required without scene=")
    ticket = None
    try:
        # Everything from the checkout/publish ref-acquire onward sits
        # inside this try: any exception before the plan is returned must
        # drop the store reference, or the scene never unlinks (RL005).
        if scene is not None:
            ref, (height, width) = scene_store.checkout(scene)
            ticket = transport.SceneTicket(scene, True, 0, ref)
            input_names = [name for name, _, _, _ in ref.fields]
        else:
            height, width = transport.scene_shape(inputs)
            input_names = list(inputs)
        grid = tile_grid(height, width, cfg.tile)
        kernel_kwargs = dict(kernel_kwargs or {})
        validate_task_kwargs(kernel, input_names, engine_kwargs,
                             kernel_kwargs)
        if ticket is None and scene_store is not None:
            ticket = scene_store.publish(inputs)
        job = TileJob(backend, kernel, length, cfg.seed, engine_kwargs,
                      kernel_kwargs, inputs if ticket is None else ticket.ref)
    except BaseException:
        # A rejected request must not strand the store reference taken by
        # checkout() / publish() above.
        if ticket is not None:
            scene_store.release(ticket.digest)
        raise
    return TilePlan((height, width), grid, job, ticket)


def stitch_tiles(plan: TilePlan,
                 results: Sequence[Tuple[np.ndarray, EnergyLedger]]
                 ) -> Tuple[np.ndarray, EnergyLedger]:
    """Reassemble per-tile results (in grid order) into ``(image, ledger)``."""
    height, width = plan.shape
    out = np.empty((height, width), dtype=np.float64)
    ledger = EnergyLedger()
    for (r0, r1, c0, c1), (tile_out, tile_ledger) in zip(plan.grid, results):
        out[r0:r1, c0:c1] = tile_out.reshape(r1 - r0, c1 - c0)
        ledger.merge(tile_ledger)
    return out, ledger


def run_tiled(kernel: str, inputs: Dict[str, np.ndarray], length: int, *,
              config: Optional[RunConfig] = None,
              tile: Optional[int] = None, jobs: Optional[int] = None,
              seed: Optional[int] = None,
              engine_kwargs: Optional[Dict[str, Any]] = None,
              kernel_kwargs: Optional[Dict[str, Any]] = None,
              pool: Optional[Any] = None, mp_context: Any = None,
              scene_store: Optional[Any] = None
              ) -> Tuple[np.ndarray, EnergyLedger]:
    """Run one application kernel over a tiled scene, optionally in parallel.

    Parameters
    ----------
    kernel:
        Key into :data:`KERNELS` ('compositing' | 'interpolation' |
        'matting' | 'roberts_cross' | 'mean_filter' | 'gamma_correct' |
        'contrast_stretch').
    inputs:
        Named 2-D arrays, all of the *output* grid's shape; each tile task
        receives the matching sub-arrays, flattened.  The filter modules
        export ``*_inputs`` helpers building these from a source image.
    length:
        SC stream length N.
    config:
        A :class:`repro.config.RunConfig` supplying every axis below that
        is left ``None`` (plus the engine model axes and the backend);
        ``None`` resolves to ``RunConfig.default()`` — the fast preset
        (packed + column + sparse).  Explicit arguments override the
        config field-by-field.
    tile:
        Tile edge length in pixels (required here or on the config).
    jobs:
        Worker processes; ``1`` executes in-process (no pool, same bits).
    seed:
        Root seed: tile *i* seeds from ``SeedSequence(seed,
        spawn_key=(i,))``.
    engine_kwargs:
        Extra :class:`InMemorySCEngine` constructor arguments (fault rates,
        fault domain, fault sampling, cell model, ...) applied to every
        tile engine, overriding the config's model axes key-by-key.
        Validated up front in the parent process — an unknown key or
        invalid value raises a :class:`ValueError` naming it, instead of
        an opaque pickled ``TypeError`` from a worker.
    kernel_kwargs:
        Extra keyword arguments forwarded to the kernel itself (e.g.
        ``gamma``/``degree`` for 'gamma_correct', ``lo``/``hi`` for
        'contrast_stretch').  Must be picklable.
    pool:
        Optional resident :class:`repro.serve.pool.WorkerPool` to execute
        on (``jobs`` is then ignored); back-to-back calls over one pool
        skip the per-call worker startup.  Output is bit-identical to the
        one-shot path.
    mp_context:
        Start method for the one-shot pool (see :func:`pool_map`).
    scene_store:
        Optional :class:`repro.serve.transport.SceneStore` to publish the
        inputs into, as the serving scheduler does; calls over one store
        re-ship nothing for a repeated scene.  Without one, a run with
        ``pool`` or ``jobs > 1`` publishes into a temporary store, and an
        in-process run reads the caller's arrays.  Same bits either way.

    Returns
    -------
    ``(image, ledger)`` — the stitched output and the serial merge of all
    tile ledgers.  The ledger models total device work and is independent
    of ``jobs``; host-side wall-clock parallelism is not a hardware cost.
    """
    from ..serve.transport import SceneStore   # deferred: serve above apps
    cfg = RunConfig.resolve(config)
    jobs = cfg.jobs if jobs is None else jobs
    # Tasks that leave the process carry a shm scene reference, not arrays.
    own_store = scene_store is None and (pool is not None or jobs != 1)
    with (SceneStore() if own_store
          else contextlib.nullcontext(scene_store)) as store:
        plan = build_tile_tasks(kernel, inputs, length, config=cfg,
                                tile=tile, seed=seed,
                                engine_kwargs=engine_kwargs,
                                kernel_kwargs=kernel_kwargs,
                                scene_store=store)
        tasks = [plan.task(i, i + 1) for i in range(len(plan.grid))]
        try:
            chunks = pool_map(_run_tiles, tasks, jobs, pool=pool,
                              mp_context=mp_context, config=cfg)
        finally:
            if plan.scene is not None:
                store.release(plan.scene.digest)
    return stitch_tiles(plan, [result for chunk in chunks
                               for result in chunk])
