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
* Per-tile RNGs derive from ``numpy.random.SeedSequence(seed).spawn(n)``,
  so tile *i* sees the same random stream no matter which worker runs it or
  how many workers exist.  ``jobs=1`` (in-process) and ``jobs=N`` (process
  pool) therefore produce bit-identical images.
* Tiled output differs from the untiled whole-image run (each tile has its
  own random-row fill) but is itself a fixed function of
  ``(seed, tile, image)``.

Workers receive only picklable primitives (arrays, the kernel name, engine
kwargs, a child ``SeedSequence``) and re-select the execution backend by
name, so the pool behaves identically under ``fork`` and ``spawn`` start
methods — and the start method is pinned explicitly (``mp_context``
argument, resolved via :func:`repro.serve.pool.default_mp_context`) rather
than left to the interpreter's mutable global default.  The same
:func:`pool_map` primitive backs the Monte-Carlo accuracy harness's
sharded :func:`repro.core.accuracy.op_mse` path.

Pool reuse and serving
----------------------
``pool_map`` historically spun up a throwaway ``ProcessPoolExecutor`` per
call; it is now a thin wrapper over the resident
:class:`repro.serve.pool.WorkerPool` and accepts ``pool=`` to run over a
long-lived instance instead (``run_tiled(..., pool=...)`` threads it
through), so request-serving workloads pay worker startup once.  The
request decomposition itself is exposed as :func:`build_tile_tasks` /
:func:`stitch_tiles`; the asyncio serving layer
(:mod:`repro.serve.scheduler`) uses exactly these to interleave tiles from
concurrent requests onto one shared pool while preserving the per-request
determinism contract above.

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

__all__ = ["tile_grid", "run_tiled", "pool_map", "KERNELS", "TilePlan",
           "build_tile_tasks", "stitch_tiles"]

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


def _run_tile(task: Tuple[str, str, Any, int,
                          Dict[str, Any], Dict[str, Any],
                          np.random.SeedSequence]
              ) -> Tuple[np.ndarray, EnergyLedger]:
    """Execute one tile: fresh engine, deterministic child RNG.

    The third task element is either a dict of 1-D tile arrays sliced
    in the parent (plans built without a scene store) or a
    :class:`repro.serve.transport.SceneTileRef`: the worker then attaches
    to the published scene segment and copies out just its tile window,
    bit-identically to the parent-side slice.
    """
    (backend_name, kernel_name, arrays, length, engine_kwargs,
     kernel_kwargs, child) = task
    if not isinstance(arrays, dict):   # SceneTileRef: resolve via shm
        from ..serve.transport import fetch_tile
        arrays = fetch_tile(arrays)
    set_backend(backend_name)
    engine = InMemorySCEngine(rng=np.random.default_rng(child),
                              **engine_kwargs)
    out = KERNELS[kernel_name](engine, length=length, **arrays,
                               **kernel_kwargs)
    return np.asarray(out, dtype=np.float64), engine.ledger


class TilePlan(NamedTuple):
    """A tiled request, decomposed into self-contained worker tasks.

    Produced by :func:`build_tile_tasks`; ``tasks[i]`` is the picklable
    argument :func:`_run_tile` expects for grid cell ``grid[i]``, and
    :func:`stitch_tiles` reassembles the per-tile results.  The plan is a
    pure function of ``(kernel, inputs, length, tile, seed, kwargs)`` —
    executing its tasks in any order, on any pool, yields the same image.

    ``scene`` is the scene-store accounting ticket
    (:class:`repro.serve.transport.SceneTicket`) of a plan built with a
    store: its ``digest`` names the published scene the executing side
    must ``release`` once the request resolves.  Plans built without a
    store carry ``None``.
    """

    kernel: str
    shape: Tuple[int, int]
    grid: List[Tuple[int, int, int, int]]
    tasks: List[Tuple]
    scene: Optional[Any] = None


def build_tile_tasks(kernel: str, inputs: Optional[Dict[str, np.ndarray]],
                     length: int, *, config: Optional[RunConfig] = None,
                     tile: Optional[int] = None, seed: Optional[int] = None,
                     engine_kwargs: Optional[Dict[str, Any]] = None,
                     kernel_kwargs: Optional[Dict[str, Any]] = None,
                     backend: Optional[str] = None,
                     scene_store: Optional[Any] = None,
                     scene: Optional[str] = None) -> TilePlan:
    """Validate one tiled request and decompose it into per-tile tasks.

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
    coercion).

    Task forms
    ----------
    * Without ``scene_store`` every task carries its tile's array slices
      — the in-process and one-shot-pool batch path of ``run_tiled``.
    * ``scene_store=`` (a :class:`repro.serve.transport.SceneStore`):
      the inputs are published once into shared memory (content-addressed
      — a repeated scene is a cache hit shipping zero bytes) and tasks
      carry only tile *references*.  The returned plan's
      ``scene.digest`` holds one store reference the caller must
      ``release`` after the request resolves (the scheduler and
      ``run_tiled`` both do).
    * ``scene=`` (a digest string, requires ``scene_store``): build the
      plan for an already-published scene without the arrays at all —
      the ``put_scene`` handle path; ``inputs`` must then be ``None``.

    Both forms produce bit-identical output: the worker-side tile copy
    matches the parent-side ``.copy().ravel()`` exactly.
    """
    if kernel not in KERNELS:
        raise ValueError(f"unknown tile kernel {kernel!r}")
    cfg = RunConfig.resolve(config)
    if tile is None:
        tile = cfg.tile
    if tile is None:
        raise ValueError("a tile size is required: pass tile= or set it "
                         "on the config")
    if seed is None:
        seed = cfg.seed
    if backend is None:
        backend = cfg.backend
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
            fields, (height, width) = scene_store.checkout(scene)
            from ..serve.transport import SceneTicket
            ticket = SceneTicket(scene, True, 0)
            input_names = [name for name, _, _, _ in fields]
        else:
            shapes = {v.shape for v in inputs.values()}
            if len(shapes) != 1 or any(len(s) != 2 for s in shapes):
                raise ValueError("tiled inputs must share one 2-D shape")
            (height, width), = shapes
            input_names = list(inputs)
        grid = tile_grid(height, width, tile)
        children = np.random.SeedSequence(seed).spawn(len(grid))
        backend_name = get_backend(backend).name
        kernel_kwargs = dict(kernel_kwargs or {})
        validate_task_kwargs(kernel, input_names, engine_kwargs,
                             kernel_kwargs)
        if scene_store is not None:
            if ticket is None:
                ticket = scene_store.publish(inputs)
            tasks = [
                (backend_name, kernel,
                 scene_store.tile_ref(ticket.digest, window),
                 length, engine_kwargs, kernel_kwargs, children[i])
                for i, window in enumerate(grid)
            ]
        else:
            # .copy(): full-width slices would otherwise ravel to *views*
            # of the caller's buffer, and an in-process kernel must never
            # alias (or write through to) the caller's input.
            tasks = [
                (backend_name, kernel,
                 {name: arr[r0:r1, c0:c1].copy().ravel()
                  for name, arr in inputs.items()},
                 length, engine_kwargs, kernel_kwargs, children[i])
                for i, (r0, r1, c0, c1) in enumerate(grid)
            ]
    except BaseException:
        # A rejected request must not strand the store reference taken by
        # checkout() / publish() above.
        if ticket is not None:
            scene_store.release(ticket.digest)
        raise
    return TilePlan(kernel, (height, width), grid, tasks, ticket)


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
        Root seed for the per-tile ``SeedSequence`` spawn.
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
        Optional :class:`repro.serve.transport.SceneStore`: publish the
        inputs into shared memory and hand the workers tile *references*
        instead of array slices, as the serving scheduler does.  Output
        is bit-identical either way; back-to-back calls over one store
        and one resident ``pool`` re-ship nothing for a repeated scene.

    Returns
    -------
    ``(image, ledger)`` — the stitched output and the serial merge of all
    tile ledgers.  The ledger models total device work and is independent
    of ``jobs``; host-side wall-clock parallelism is not a hardware cost.
    """
    cfg = RunConfig.resolve(config)
    plan = build_tile_tasks(kernel, inputs, length, config=cfg, tile=tile,
                            seed=seed, engine_kwargs=engine_kwargs,
                            kernel_kwargs=kernel_kwargs,
                            scene_store=scene_store)
    try:
        results = pool_map(_run_tile, plan.tasks, jobs, pool=pool,
                           mp_context=mp_context, config=cfg)
    finally:
        if plan.scene is not None:
            scene_store.release(plan.scene.digest)
    return stitch_tiles(plan, results)
