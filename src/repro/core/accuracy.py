"""Monte-Carlo accuracy harness for SNGs and SC operations.

Reproduces the methodology behind Tables I and II of the paper: draw operand
values from a uniform distribution, run the SC flow at a given stream length,
and report the mean squared error (in percent, i.e. ``MSE x 100``) between
the recovered and the exact result.

The harness is chunked so that million-sample sweeps at N = 512 stay within
a modest memory budget.  :func:`sng_mse` and :func:`op_mse` share one
chunk worker and one driver; a Table I cell is the driver with no
operation (generation only).

Sharded execution (``jobs``)
----------------------------
Both entry points can fan their Monte-Carlo chunks over
the tile executor's process pool (:func:`repro.apps.executor.pool_map`).
Because the classic path threads one stateful generator through the chunks
sequentially, the sharded path instead gives every chunk a deterministic
child of ``SeedSequence(seed)`` and builds a *fresh* generator from a
caller-supplied picklable factory — pass a callable
``factory(seed_sequence) -> sng`` as the ``sng`` argument
(:class:`repro.imsc.engine.EngineFactory` wraps the in-memory engine this
way, so faulty sweeps — including ``fault_sampling='sparse'`` — shard
too).  Chunk results are reduced in chunk order, so ``jobs=1`` and
``jobs=N`` are bit-identical (the regression suite asserts this); both
differ from the legacy shared-object path, which remains untouched for the
pinned Table I/II values.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable, Dict, Optional, Tuple, Union

import numpy as np

from .backend import get_backend, set_backend
from .bitstream import Bitstream
from . import ops

__all__ = [
    "sng_mse",
    "OpSpec",
    "OP_SPECS",
    "op_mse",
]


def sng_mse(sng, length: int, samples: int = 100_000,
            seed: Optional[int] = 0, chunk: int = 8192,
            jobs: int = 1, *, pool=None) -> float:
    """MSE(%) of bit-stream generation for a given SNG (Table I cell).

    Draws ``samples`` operand values uniformly from ``[0, 1]``, generates one
    stream of ``length`` bits per value, recovers the value by popcount and
    returns ``mean((recovered - exact)^2) * 100``.

    Like :func:`op_mse`, ``sng`` may be a picklable factory callable
    ``factory(seed_sequence) -> sng`` instead of a generator object, in
    which case the chunks get deterministic per-chunk ``SeedSequence``
    children and may fan out over ``jobs`` worker processes; the result is
    independent of ``jobs`` (but differs from the legacy shared-object
    path, which stays untouched for the pinned Table I values).  ``pool``
    runs the chunks over a resident :class:`repro.serve.pool.WorkerPool`
    instead of a one-shot pool — a sweep of many cells should create one
    pool and share it (the table runners do).
    """
    return _mse(None, sng, length, samples, seed, chunk, jobs, pool)


@dataclass(frozen=True)
class OpSpec:
    """Recipe for measuring one SC operation's accuracy (Table II row).

    Attributes
    ----------
    name:
        Row label as used in the paper.
    correlated:
        Whether the operand pair must share the RNG (SCC = +1).
    exact:
        Ground-truth function of the operand probabilities.
    compute:
        Function ``(x_stream, y_stream, aux_streams) -> Bitstream``.
    needs_half_stream:
        Whether an auxiliary independent 0.5 stream is required (MAJ/MUX).
    domain:
        Operand-sampling transform applied to uniform draws ``(u, v)``.
    """

    name: str
    correlated: bool
    exact: Callable[[np.ndarray, np.ndarray], np.ndarray]
    compute: Callable[[Bitstream, Bitstream, Optional[Bitstream]], Bitstream]
    needs_half_stream: bool = False
    domain: Callable[[np.ndarray, np.ndarray],
                     Tuple[np.ndarray, np.ndarray]] = staticmethod(
                         lambda u, v: (u, v))


def _div_domain(u: np.ndarray, v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # CORDIV needs x <= y and a divisor bounded away from zero.
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    hi = np.maximum(hi, 0.05)
    lo = np.minimum(lo, hi)
    return lo, hi


OP_SPECS: Dict[str, OpSpec] = {
    "multiplication": OpSpec(
        name="Multiplication",
        correlated=False,
        exact=lambda x, y: x * y,
        compute=lambda sx, sy, aux: ops.mul_and(sx, sy),
    ),
    "scaled_addition": OpSpec(
        name="Scaled Addition",
        correlated=False,
        exact=lambda x, y: (x + y) / 2.0,
        compute=lambda sx, sy, aux: ops.scaled_add_maj(sx, sy, aux),
        needs_half_stream=True,
    ),
    "scaled_addition_mux": OpSpec(
        name="Scaled Addition (MUX)",
        correlated=False,
        exact=lambda x, y: (x + y) / 2.0,
        compute=lambda sx, sy, aux: ops.scaled_add_mux(sx, sy, aux),
        needs_half_stream=True,
    ),
    "approx_addition": OpSpec(
        name="Approx. Addition",
        correlated=False,
        exact=lambda x, y: x + y,
        compute=lambda sx, sy, aux: ops.add_or(sx, sy),
        domain=staticmethod(lambda u, v: (u * 0.5, v * 0.5)),
    ),
    "abs_subtraction": OpSpec(
        name="Abs. Subtraction",
        correlated=True,
        exact=lambda x, y: np.abs(x - y),
        compute=lambda sx, sy, aux: ops.sub_xor(sx, sy),
    ),
    "division": OpSpec(
        name="Division",
        correlated=True,
        exact=lambda x, y: x / y,
        compute=lambda sx, sy, aux: ops.div_cordiv(sx, sy),
        domain=staticmethod(_div_domain),
    ),
    "minimum": OpSpec(
        name="Minimum",
        correlated=True,
        exact=lambda x, y: np.minimum(x, y),
        compute=lambda sx, sy, aux: ops.min_and(sx, sy),
    ),
    "maximum": OpSpec(
        name="Maximum",
        correlated=True,
        exact=lambda x, y: np.maximum(x, y),
        compute=lambda sx, sy, aux: ops.max_or(sx, sy),
    ),
}


def _chunk_sq_err(op: Union[str, OpSpec, None], sng,
                  gen: np.random.Generator, n: int, length: int) -> float:
    """Sum of squared recovery errors over one operand chunk.

    ``op=None`` measures stream generation alone (a Table I cell);
    otherwise the operands go through one Table II operation.
    """
    if op is None:
        x = gen.random(n)
        err = sng.generate(x, length).value() - x
        return float(np.sum(err * err))
    spec = OP_SPECS[op] if isinstance(op, str) else op
    u = gen.random(n)
    v = gen.random(n)
    x, y = spec.domain(u, v)
    sx, sy = sng.generate_pair(x, y, length, correlated=spec.correlated)
    aux = None
    if spec.needs_half_stream:
        aux = sng.generate(np.full(n, 0.5), length)
    out = spec.compute(sx, sy, aux)
    err = out.value() - spec.exact(x, y)
    return float(np.sum(err * err))


def _mse_chunk(task) -> float:
    """Worker for the sharded path: one chunk, fresh deterministic state."""
    backend_name, op, factory, length, n, child = task
    set_backend(backend_name)
    operand_seed, sng_seed = child.spawn(2)
    gen = np.random.default_rng(operand_seed)
    return _chunk_sq_err(op, factory(sng_seed), gen, n, length)


def _mse(op: Union[str, OpSpec, None], sng, length: int, samples: int,
         seed: Optional[int], chunk: int, jobs: int, pool) -> float:
    """The Monte-Carlo driver behind :func:`sng_mse` and :func:`op_mse`.

    A factory ``sng`` runs the sharded path: every chunk gets a child of
    ``SeedSequence(seed)`` and a fresh generator, and may run on a worker
    process.  A generator object runs the sequential path: one operand
    generator and one stateful ``sng`` threaded through the chunks in
    order.  Either way chunk sums reduce in chunk order.
    """
    sizes = [min(chunk, samples - i * chunk)
             for i in range(ceil(samples / chunk))]
    if callable(sng) and not hasattr(sng, "generate"):
        if op is not None and not isinstance(op, str):
            raise ValueError("the sharded op_mse path needs an OP_SPECS key "
                             "(workers resolve the spec by name)")
        children = np.random.SeedSequence(seed).spawn(len(sizes))
        backend_name = get_backend().name
        tasks = [(backend_name, op, sng, length, n, child)
                 for n, child in zip(sizes, children)]
        from ..apps.executor import pool_map  # deferred: core must not need apps
        totals = pool_map(_mse_chunk, tasks, jobs, pool=pool)
    else:
        if jobs != 1 or pool is not None:
            name = "sng_mse" if op is None else "op_mse"
            raise ValueError(f"{name}(jobs=N / pool=...) requires an sng "
                             "*factory* (callable(seed_sequence) -> sng); a "
                             "shared sng object cannot be sharded "
                             "deterministically")
        gen = np.random.default_rng(seed)
        totals = [_chunk_sq_err(op, sng, gen, n, length) for n in sizes]
    return float(sum(totals)) / samples * 100.0


def op_mse(op: Union[str, OpSpec], sng, length: int, samples: int = 50_000,
           seed: Optional[int] = 0, chunk: int = 4096,
           jobs: int = 1, *, pool=None) -> float:
    """MSE(%) of one SC arithmetic operation (Table II cell).

    Parameters
    ----------
    op:
        Key into :data:`OP_SPECS` or an :class:`OpSpec`.
    sng:
        Any generator exposing ``generate`` and ``generate_pair`` (the
        classic sequential path), *or* a picklable factory callable
        ``factory(seed_sequence) -> sng`` — in which case every chunk gets
        a fresh generator seeded from a deterministic per-chunk
        ``SeedSequence`` child and chunks may fan out over worker
        processes (see module docs).
    length:
        Stream length N.
    samples / chunk:
        Monte-Carlo sample count and processing chunk size.
    jobs:
        Worker processes for the sharded (factory) path; the result is
        independent of ``jobs``.  Requires a factory: the sequential path
        threads one stateful generator and cannot be split.
    pool:
        Optional resident :class:`repro.serve.pool.WorkerPool` for the
        sharded path (see :func:`sng_mse`).
    """
    return _mse(op, sng, length, samples, seed, chunk, jobs, pool)
