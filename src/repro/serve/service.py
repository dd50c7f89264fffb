"""Line-delimited JSON request loop for ``python -m repro serve``.

One request per line on stdin, one response per line on stdout (responses
are written in *completion* order and echo the request ``id``, so a client
pipelining requests can match them up).  The loop serves requests
concurrently through one :class:`~repro.serve.scheduler.Scheduler` over a
resident :class:`~repro.serve.pool.WorkerPool` — submitting several
requests before reading responses interleaves their tiles on the shared
workers.

Run request (``"type": "run"``, the default when ``type`` is omitted)::

    {"id": 1, "kernel": "gamma_correct",
     "inputs": {"image": [[...], ...]},          # named 2-D arrays
     "length": 128, "tile": 8, "seed": 0,
     "engine_kwargs": {...}, "kernel_kwargs": {...},   # optional
     "backend": "packed"}                              # optional

* ``backend`` pins the request's execution backend (``unpacked`` /
  ``packed``); default is the server process's active backend.
* ``config`` may carry a full :class:`repro.config.RunConfig` object
  (``RunConfig.to_dict()`` shape) pinning the request's run
  configuration — engine model axes, tile, seed, backend — with the
  same unknown-key strictness as the request envelope; the other
  request keys override it field-by-field, and ``tile`` may be omitted
  when the config carries one.  Without it, requests inherit the
  server's config (echoed under ``"config"`` in the ``stats``
  response).
* ``engine_kwargs.fault_rates`` may be a JSON object of
  :class:`~repro.reram.faults.GateFaultRates` fields (``and2``/``or2``/
  ``xor2``/``maj3``/``read``) — decoded into the dataclass here, so
  faulty engines are reachable over the wire.
* ``seed``, ``length`` and ``tile`` must be JSON integers (``length``
  and ``tile`` at least 1); nothing is coerced.  A ``null`` seed would
  reach the engine as "draw OS entropy", silently making served output
  nondeterministic — the one thing the serving layer promises not to be.
* Unknown keys are rejected with an ``ok: false`` response naming them;
  a silently ignored key (the pre-fix behaviour for ``backend``) means a
  client believes it pinned something it didn't.

Scene handles (the scheduler's shared-memory scene store) let a client
streaming many requests over the same inputs ship the arrays **once**:
publish them with ``put_scene``, then pass the returned digest as
``"scene"`` in run requests instead of ``"inputs"``, and drop the handle
when done::

    {"id": 3, "type": "put_scene", "inputs": {"image": [[...], ...]}}
    {"id": 4, "kernel": "gamma_correct", "scene": "<digest>",
     "length": 128, "tile": 8}
    {"id": 5, "type": "drop_scene", "scene": "<digest>"}

Stats request — a metrics snapshot of the scheduler/pool (see
:mod:`repro.serve.metrics`), answered immediately, never queued behind
compute::

    {"id": 2, "type": "stats"}

Response objects::

    {"id": 1, "ok": true, "output": [[...], ...],
     "energy_j": ..., "latency_s": ...}
    {"id": 1, "ok": true, ..., "nonfinite": 3}         # see below
    {"id": 2, "ok": true, "stats": {...}}              # stats request
    {"id": 3, "ok": true, "scene": "<digest>"}         # put_scene
    {"id": 5, "ok": true}                              # drop_scene
    {"id": 1, "ok": false, "error": "..."}             # on failure

Responses are **strict RFC 8259**: every ``json.dumps`` here runs with
``allow_nan=False``, and degenerate outputs containing ``NaN``/``±Inf``
(which the bare encoder would emit as literals strict parsers reject)
are mapped to JSON ``null`` with a ``nonfinite`` count flagging the
substitution.

A failed request (bad kwargs, worker crash) answers with ``ok: false``
and the loop keeps serving — the resident pool is never poisoned.  EOF on
stdin drains outstanding requests and exits.
"""

from __future__ import annotations

import asyncio
import json
import math
import sys
from typing import Any, Dict, Optional, TextIO, Tuple

import numpy as np

from ..config import RunConfig
from ..reram.faults import GateFaultRates
from .pool import WorkerPool, serving_pool
from .scheduler import Scheduler

__all__ = ["serve_stdio", "decode_request", "encode_response",
           "encode_error", "encode_stats"]

#: Every key a run request may carry; anything else is rejected by name.
REQUEST_KEYS = frozenset({
    "id", "type", "kernel", "inputs", "length", "tile", "seed",
    "engine_kwargs", "kernel_kwargs", "backend", "scene", "config",
})


def _json_int(raw: Dict[str, Any], key: str,
              minimum: Optional[int] = None) -> Optional[int]:
    """``raw[key]`` as a strict JSON integer (``None`` when absent).

    No coercion: ``3.7``, ``true`` and ``"64"`` are rejected by name
    rather than silently becoming ``3``, ``1`` and ``64`` — and a
    ``null``/float seed would make served output nondeterministic.
    """
    if key not in raw:
        return None
    value = raw[key]
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{key} must be a JSON integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{key} must be >= {minimum}, got {value!r}")
    return value


def decode_request(raw: Dict[str, Any]) -> Dict[str, Any]:
    """Validate a parsed run-request object into ``submit_app`` kwargs.

    The caller extracts ``id`` *before* this runs, so a structurally
    invalid request still gets an error response carrying its own id (the
    pipelining correlation contract); only unparseable JSON loses it.

    Strictness is deliberate: an unknown key, a non-integer or
    out-of-range ``seed``/``length``/``tile`` or a non-string ``backend``
    raises (→ ``ok: false`` naming the problem) instead of being coerced
    or dropped — a mangled-but-accepted request breaks reproducibility
    claims silently, which is worse than failing.
    """
    unknown = sorted(set(raw) - REQUEST_KEYS)
    if unknown:
        raise ValueError(
            f"unknown request key(s): {', '.join(map(repr, unknown))}; "
            f"valid keys: {', '.join(sorted(REQUEST_KEYS))}")
    config = None
    if "config" in raw:
        # Same strictness as the request envelope: RunConfig.from_dict
        # rejects unknown/conflicting config keys by name.
        config = RunConfig.from_dict(raw["config"])
    scene = raw.get("scene")
    if scene is not None and not isinstance(scene, str):
        raise ValueError(f"scene must be a digest string, got {scene!r}")
    if scene is not None and "inputs" in raw:
        raise ValueError("pass either 'inputs' or 'scene', not both")
    required = ("kernel", "length") if scene is not None \
        else ("kernel", "inputs", "length")
    for key in required:
        if key not in raw:
            raise ValueError(f"request is missing {key!r}")
    if "tile" not in raw and (config is None or config.tile is None):
        raise ValueError("request is missing 'tile'")
    length = _json_int(raw, "length", minimum=1)
    tile = _json_int(raw, "tile", minimum=1)
    seed = _json_int(raw, "seed")   # None: the config's, else the server's
    backend = raw.get("backend")
    if backend is not None and not isinstance(backend, str):
        raise ValueError(f"backend must be a string, got {backend!r}")
    inputs = None if scene is not None else {
        name: np.asarray(arr, dtype=np.float64)
        for name, arr in raw["inputs"].items()}
    engine_kwargs = dict(raw.get("engine_kwargs") or {})
    rates = engine_kwargs.get("fault_rates")
    if isinstance(rates, dict):
        # JSON boundary: the engine wants a GateFaultRates dataclass; a
        # JSON client can only send its fields as an object.
        try:
            engine_kwargs["fault_rates"] = GateFaultRates(**rates)
        except TypeError as exc:
            raise ValueError(f"bad fault_rates object: {exc}") from exc
    return {
        "kernel": raw["kernel"],
        "inputs": inputs,
        "length": length,
        "tile": tile,
        "seed": seed,
        "engine_kwargs": engine_kwargs,
        "kernel_kwargs": raw.get("kernel_kwargs") or {},
        "backend": backend,
        "scene": scene,
        "config": config,
    }


def _null_nonfinite(arr: np.ndarray) -> Tuple[list, int]:
    """Nested lists with NaN/±Inf mapped to ``None``, plus their count."""
    mask = ~np.isfinite(arr)
    count = int(mask.sum())
    if not count:
        return arr.tolist(), 0
    out = arr.astype(object)
    out[mask] = None
    return out.tolist(), count


def encode_response(req_id: Any, image: np.ndarray, ledger) -> str:
    """Strict-JSON success response (see the module docstring).

    Bare ``json.dumps`` writes non-RFC-8259 ``NaN``/``Infinity`` literals
    for non-finite floats; here those are substituted with ``null`` and
    counted in a ``nonfinite`` field so the client knows the output was
    degenerate, and the dump runs with ``allow_nan=False`` as a backstop.
    """
    output, nonfinite = _null_nonfinite(
        np.asarray(image, dtype=np.float64))
    payload = {"id": req_id, "ok": True, "output": output,
               "energy_j": ledger.energy_j,
               "latency_s": ledger.latency_s}
    for key in ("energy_j", "latency_s"):
        if not math.isfinite(payload[key]):
            payload[key] = None
            nonfinite += 1
    if nonfinite:
        payload["nonfinite"] = nonfinite
    return json.dumps(payload, allow_nan=False)


def encode_error(req_id: Any, exc: BaseException) -> str:
    return json.dumps({"id": req_id, "ok": False,
                       "error": f"{type(exc).__name__}: {exc}"},
                      allow_nan=False)


def encode_stats(req_id: Any, stats: Dict[str, Any]) -> str:
    return json.dumps({"id": req_id, "ok": True, "stats": stats},
                      allow_nan=False)


def serve_stdio(in_stream: Optional[TextIO] = None,
                out_stream: Optional[TextIO] = None, *,
                jobs: Optional[int] = None, mp_context: Any = None,
                backend: Optional[str] = None,
                max_pending: int = 64,
                config: Optional[RunConfig] = None) -> int:
    """Run the serving loop until EOF on ``in_stream``; returns 0.

    ``config`` (a :class:`repro.config.RunConfig`, default
    ``RunConfig.default()`` — the fast preset) is the server's default
    run configuration: requests inherit its engine model axes, tile and
    seed unless they carry their own ``"config"``/explicit keys, and
    :meth:`Scheduler.stats` echoes it.  The explicit arguments override
    the config: ``jobs`` sizes the resident pool (default: the config's
    ``jobs``, but never below 2 — a 1-worker server cannot overlap
    requests), and ``mp_context``/``backend`` pin its start method and
    execution backend.  The default context here is ``forkserver`` where
    available (not the package-wide ``fork`` default): a serving process
    is multi-threaded for its whole life, and only a forkserver/spawn
    pool can respawn crashed workers without forking a threaded process.
    ``max_pending`` bounds the number of admitted-but-unfinished
    requests: each one holds its decoded tile plan in memory, so past
    the bound the loop stops reading stdin until a response goes out
    (backpressure instead of unbounded growth).
    """
    if max_pending < 1:
        raise ValueError("max_pending must be >= 1")
    cfg = RunConfig.resolve(config)
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout

    async def _serve(pool: WorkerPool) -> None:
        loop = asyncio.get_running_loop()
        write_lock = asyncio.Lock()
        outstanding: set = set()

        def _write_line(line: str) -> None:
            out_stream.write(line + "\n")
            out_stream.flush()

        async def respond(line: str) -> None:
            # Off the loop thread: a big response to a slow/blocked stdout
            # reader must not park the event loop (that would freeze all
            # serving and can deadlock a pipelining client).  The lock
            # serialises writers so responses never interleave.
            async with write_lock:
                await loop.run_in_executor(None, _write_line, line)

        async def handle(raw_line: str) -> None:
            req_id = None
            try:
                raw = json.loads(raw_line)
                if not isinstance(raw, dict):
                    raise ValueError("request must be a JSON object")
                req_id = raw.get("id")
                rtype = raw.get("type", "run")
                if rtype == "stats":
                    # Metrics snapshot: answered from the loop thread
                    # immediately, never queued behind compute.
                    await respond(encode_stats(req_id, scheduler.stats()))
                    return
                if rtype == "put_scene":
                    extra = sorted(set(raw) - {"id", "type", "inputs"})
                    if extra:
                        raise ValueError(
                            f"unknown put_scene key(s): "
                            f"{', '.join(map(repr, extra))}")
                    if "inputs" not in raw:
                        raise ValueError("put_scene is missing 'inputs'")
                    inputs = {name: np.asarray(arr, dtype=np.float64)
                              for name, arr in raw["inputs"].items()}
                    digest = scheduler.put_scene(inputs)
                    await respond(json.dumps(
                        {"id": req_id, "ok": True, "scene": digest},
                        allow_nan=False))
                    return
                if rtype == "drop_scene":
                    scene = raw.get("scene")
                    if not isinstance(scene, str):
                        raise ValueError(
                            f"drop_scene needs a 'scene' digest string, "
                            f"got {scene!r}")
                    scheduler.drop_scene(scene)
                    await respond(json.dumps({"id": req_id, "ok": True},
                                             allow_nan=False))
                    return
                if rtype != "run":
                    raise ValueError(
                        f"unknown request type {rtype!r}; expected 'run', "
                        f"'stats', 'put_scene' or 'drop_scene'")
                request = decode_request(raw)
                image, ledger = await scheduler.submit_app(**request)
            except Exception as exc:  # answer, don't kill the loop
                await respond(encode_error(req_id, exc))
            else:
                await respond(encode_response(req_id, image, ledger))

        scheduler = Scheduler(pool, config=cfg)
        while True:
            line = await loop.run_in_executor(None, in_stream.readline)
            if not line:
                break
            if not line.strip():
                continue
            while len(outstanding) >= max_pending:
                await asyncio.wait(outstanding,
                                   return_when=asyncio.FIRST_COMPLETED)
            task = asyncio.ensure_future(handle(line))
            outstanding.add(task)
            task.add_done_callback(outstanding.discard)
        if outstanding:
            await asyncio.gather(*outstanding)
        await scheduler.drain()
        scheduler.close()   # unlink the scene store's shm segments

    # Start the workers (and the forkserver) before any other thread
    # exists — boot, not the first request, pays worker cold-start, and
    # the forkserver is established while the process is still
    # single-threaded.
    with serving_pool(cfg, jobs, mp_context=mp_context,
                      backend=backend) as pool:
        pool.warmup()
        asyncio.run(_serve(pool))
    return 0
