"""Backend-parameterised application runner.

One entry point, :func:`run_app`, executes any of the three evaluation
applications on any backend and returns quality metrics plus the backend's
energy ledger:

* ``backend='sc'``      — the in-memory SC engine (optionally faulty);
* ``backend='bincim'``  — the binary CIM baseline (optionally faulty);
* ``backend='float'``   — the exact software reference (quality = 100%).

For matting, quality follows the paper's protocol: re-composite with the
estimated alpha and compare against the blend using the true alpha.

Batched word-domain execution
-----------------------------
The SC path runs entirely on batched stream arrays: operands are generated
as one :class:`~repro.core.bitstream.Bitstream` per role stack (shape
``(..., words)`` in the active backend's layout) and split by payload
slicing (:meth:`~repro.core.bitstream.Bitstream.select`), so under the
``packed`` backend a whole image flows through generation → logic →
fault injection → readout as uint64 words.

Sharding (``jobs`` / ``tile``)
------------------------------
With ``tile=T`` the scene is decomposed into ``T x T`` tiles and fanned out
through :mod:`repro.apps.executor` across ``jobs`` worker processes — the
software analogue of per-mat execution.  Seeding contract: the untiled run
(``tile=None``, the default) draws every stream from ``default_rng(seed)``
in a fixed order and is bit-reproducible against earlier releases; tiled
runs seed tile *i* from ``SeedSequence(seed, spawn_key=(i,))``, so
results depend on the tile grid but **not** on ``jobs`` — ``jobs=1`` and
``jobs=8`` are bit-identical.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..bincim.design import BinaryCimDesign
from ..config import RunConfig
from ..core.backend import use_backend
from ..energy.model import EnergyLedger
from ..imsc.engine import InMemorySCEngine
from ..reram.faults import DEFAULT_FAULT_RATES, GateFaultRates
from .compositing import composite_bincim, composite_float, composite_sc
from .executor import run_tiled
from .images import natural_scene, scene_triplet
from .interpolation import (
    neighbour_grid,
    upscale_bincim,
    upscale_float,
    upscale_sc_kernel,
)
from .matting import (
    matting_bincim,
    matting_float,
    matting_sc,
    recomposite_quality_inputs,
)
from .metrics import quality_pair

__all__ = ["AppResult", "run_app", "APPS", "BACKENDS"]

APPS = ("compositing", "interpolation", "matting")
BACKENDS = ("float", "sc", "bincim")


@dataclass
class AppResult:
    """Quality and cost of one application execution."""

    app: str
    backend: str
    length: Optional[int]
    faulty: bool
    ssim_pct: float
    psnr_db: float
    output: np.ndarray
    reference: np.ndarray
    ledger: Optional[EnergyLedger] = None


def _engine_kwargs(cfg: RunConfig, faulty: bool,
                   fault_rates: Optional[GateFaultRates],
                   fault_domain: Optional[str],
                   fault_sampling: Optional[str],
                   cell_model: Optional[str]) -> Dict[str, object]:
    rates = (fault_rates if fault_rates is not None
             else DEFAULT_FAULT_RATES) if faulty else None
    explicit = {k: v for k, v in (("fault_domain", fault_domain),
                                  ("fault_sampling", fault_sampling),
                                  ("cell_model", cell_model))
                if v is not None}
    kwargs = cfg.merged_engine_kwargs(explicit)
    kwargs["fault_rates"] = rates
    return kwargs


#: Distinguishes "argument not passed" from an explicit ``None`` — for
#: ``tile``, where ``None`` is a meaningful value (whole-image path) that
#: must remain expressible even when the config carries a tile size.
_UNSET = object()


def run_app(app: str, backend: str, length: int = 128,
            faulty: bool = False,
            fault_rates: Optional[GateFaultRates] = None,
            bincim_fault_rate: float = 1e-4,
            bincim_fault_granularity: str = "gate",
            size: int = 48, upscale_factor: int = 2,
            seed: Optional[int] = None,
            jobs: Optional[int] = None, tile=_UNSET,
            fault_domain: Optional[str] = None,
            fault_sampling: Optional[str] = None,
            cell_model: Optional[str] = None,
            config: Optional[RunConfig] = None) -> AppResult:
    """Execute one application on one backend and score it.

    Parameters
    ----------
    app:
        'compositing' | 'interpolation' | 'matting'.
    backend:
        'float' | 'sc' | 'bincim'.
    length:
        SC stream length N (ignored by the other backends).
    faulty:
        Enable CIM fault injection (Table IV's ✓ columns).
    fault_rates / bincim_fault_rate / bincim_fault_granularity:
        Fault intensities for the SC and binary backends.  The binary
        default injects per-gate faults at 1e-4 — stateful-logic writes
        enjoy single-cell margins, roughly 50x better than the multi-row
        current discrimination of scouting reads (see EXPERIMENTS.md).
    size:
        Scene edge length in pixels.
    seed:
        Scene and fault-sampling seed; ``None`` (default) takes the
        config's seed.
    jobs / tile:
        SC-only sharding controls: ``tile=T`` splits the scene into
        ``T x T`` tiles with deterministic per-tile seeds and ``jobs=N``
        fans them out over N worker processes (see module docs and
        :mod:`repro.apps.executor`).  ``tile=None`` keeps the whole-image
        path, whose streams are bit-reproducible across releases;
        ``jobs > 1`` therefore requires an explicit ``tile``.
    fault_domain:
        'word' or 'bit' — forwarded to the engine; 'bit' is the per-bit
        conformance oracle and produces bit-identical output.  ``None``
        (default) takes the config's value.
    fault_sampling:
        'dense' or 'sparse' — forwarded to the engine; 'dense' is the
        bit-exact fault-mask oracle (reproducible per seed across
        releases), 'sparse' draws Binomial flip counts and scatters the
        sites into the packed payload — statistically conformant and much
        faster for faulty sweeps (see :mod:`repro.imsc.engine`).  ``None``
        (default) takes the config's value.
    cell_model:
        S-to-B device-variability model forwarded to the SC engine:
        'per-bit' (the oracle — bit-reproducible against earlier releases)
        or 'column' (batched popcount readout; statistically equivalent
        and much faster, see :mod:`repro.imsc.stob`).  ``None`` (default)
        takes the config's value.  Ignored by the other backends.
    config:
        A :class:`repro.config.RunConfig`; ``None`` resolves to
        ``RunConfig.default()`` — the fast preset — so a bare
        ``run_app(app, 'sc')`` runs packed + column + sparse.  Pass
        ``config=RunConfig.oracle()`` to reproduce the paper-faithful
        per-bit/dense numbers bit-exactly.  Explicit arguments override
        the config field-by-field; the config's ``jobs``/``tile`` apply
        to the 'sc' backend only (the other backends have no sharded
        path), and its execution ``backend`` field scopes the active
        bitstream backend for the run.
    """
    cfg = RunConfig.resolve(config)
    if app not in APPS:
        raise ValueError(f"unknown app {app!r}")
    if backend not in BACKENDS:
        raise ValueError(f"unknown backend {backend!r}")
    if seed is None:
        seed = cfg.seed
    if jobs is None:
        jobs = cfg.jobs if backend == "sc" else 1
    if tile is _UNSET:
        tile = cfg.tile if backend == "sc" else None
    if not isinstance(jobs, int) or isinstance(jobs, bool) or jobs < 1:
        raise ValueError("jobs must be >= 1")
    if tile is not None and tile < 1:
        raise ValueError("tile must be None or a positive integer")
    if backend != "sc" and (jobs != 1 or tile is not None):
        raise ValueError("jobs/tile sharding applies to the 'sc' backend only")
    if tile is None and jobs != 1:
        raise ValueError("jobs > 1 requires a tile size (tile=None runs "
                         "the whole image in-process)")
    scene_rng = np.random.default_rng(seed)
    kwargs = _engine_kwargs(cfg, faulty, fault_rates, fault_domain,
                            fault_sampling, cell_model)

    def sc_run(kernel: str, inputs: Dict[str, np.ndarray],
               whole_image) -> Tuple[np.ndarray, EnergyLedger]:
        """Tiled or whole-image SC execution of one app."""
        if tile is None:
            # The config's execution backend scopes the whole-image run;
            # the tiled path instead bakes the backend name into each
            # task (workers re-select it).
            scope = (use_backend(cfg.backend) if cfg.backend is not None
                     else nullcontext())
            with scope:
                engine = InMemorySCEngine(rng=seed, **kwargs)
                return whole_image(engine), engine.ledger
        return run_tiled(kernel, inputs, length, config=cfg, tile=tile,
                         jobs=jobs, seed=seed, engine_kwargs=kwargs)

    if app == "compositing":
        background, foreground, alpha = scene_triplet(size, size, scene_rng)
        reference = composite_float(foreground, background, alpha)
        if backend == "float":
            output, ledger = reference.copy(), None
        elif backend == "sc":
            output, ledger = sc_run(
                "compositing",
                {"foreground": foreground, "background": background,
                 "alpha": alpha},
                lambda e: composite_sc(e, foreground, background, alpha,
                                       length))
        else:
            design = BinaryCimDesign(
                fault_rate=bincim_fault_rate if faulty else 0.0,
                fault_granularity=bincim_fault_granularity, rng=seed)
            output = composite_bincim(design, foreground, background, alpha)
            ledger = design.ledger

    elif app == "interpolation":
        image = natural_scene(size, size, scene_rng)
        reference = upscale_float(image, upscale_factor)
        if backend == "float":
            output, ledger = reference.copy(), None
        elif backend == "sc":
            # One neighbour lookup serves both paths: the whole-image run
            # feeds the flat arrays straight to the kernel, the tiled run
            # slices their 2-D views per tile.
            i11, i12, i21, i22, dx, dy, oshape = neighbour_grid(
                image, upscale_factor)
            output, ledger = sc_run(
                "interpolation",
                {name: arr.reshape(oshape) for name, arr in
                 (("i11", i11), ("i12", i12), ("i21", i21), ("i22", i22),
                  ("dx", dx), ("dy", dy))},
                lambda e: upscale_sc_kernel(
                    e, i11, i12, i21, i22, dx, dy, length).reshape(oshape))
        else:
            design = BinaryCimDesign(
                fault_rate=bincim_fault_rate if faulty else 0.0,
                fault_granularity=bincim_fault_granularity, rng=seed)
            output = upscale_bincim(design, image, upscale_factor)
            ledger = design.ledger

    else:  # matting
        background, foreground, alpha = scene_triplet(size, size, scene_rng)
        composite = composite_float(foreground, background, alpha)
        if backend == "float":
            alpha_est, ledger = matting_float(composite, background,
                                              foreground), None
        elif backend == "sc":
            alpha_est, ledger = sc_run(
                "matting",
                {"composite": composite, "background": background,
                 "foreground": foreground},
                lambda e: matting_sc(e, composite, background, foreground,
                                     length))
        else:
            design = BinaryCimDesign(
                fault_rate=bincim_fault_rate if faulty else 0.0,
                fault_granularity=bincim_fault_granularity, rng=seed)
            alpha_est = matting_bincim(design, composite, background,
                                       foreground)
            ledger = design.ledger
        reference, output = recomposite_quality_inputs(
            background, foreground, alpha, alpha_est)

    ssim_pct, psnr_db = quality_pair(reference, output)
    return AppResult(app=app, backend=backend,
                     length=length if backend == "sc" else None,
                     faulty=faulty, ssim_pct=ssim_pct, psnr_db=psnr_db,
                     output=output, reference=reference, ledger=ledger)
