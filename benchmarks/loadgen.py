"""Open-loop sustained-load and soak harness for the serving layer.

Replays a **mixed request trace** — big and small scenes, fault-free and
faulty (sparse-sampled) engines, both execution backends — against the
serving layer and reports tail latency and throughput the way
huggingbench's ``exp_runner`` reports percentiles: p50/p90/p99 of
per-request latency, plus achieved requests/s.  The generator is
**open-loop**: with ``--rate R`` request *i* is submitted at ``t0 + i/R``
whether or not earlier requests have finished (arrival is independent of
service, so queueing delay shows up in the percentiles instead of being
hidden by back-pressure); ``--rate 0`` submits the whole trace as one
burst, which measures **saturation throughput** directly.

Every successful response is verified **bit-identical** to
``run_tiled(jobs=1)`` with the same arguments (references computed once
per unique ``(template, seed)`` and cached), so a load run is also a
correctness run: one mangled response fails the harness.

Soak mode (``--soak``) raises the trace to >= 1000 requests and injects a
**worker death** (SIGKILL of one resident worker) mid-stream, turning the
PR 5 crash-containment claims into a measured property: the requests in
flight at the kill fail with ``BrokenProcessPool`` (counted, expected),
the scheduler must respawn the pool exactly once (``pool_restarts``), and
every surviving response must still verify bit-exact.

Front-ends::

    --front-end client   ServingClient (in-process pool; default)
    --front-end stdio    the line-delimited JSON loop of `serve_stdio`,
                         driven through paced in-memory streams; the
                         trace ends with a {"type": "stats"} request so
                         the server-side metrics ride along in the report
                         (worker-death injection needs pool access and is
                         client-front-end only)

A schema-checked ``BENCH_serve.json`` record (config + percentiles +
counts) is written at the repo root after every run — the serving perf
trajectory re-anchors read.  Typical invocations::

    PYTHONPATH=src python benchmarks/loadgen.py                  # smoke burst
    PYTHONPATH=src python benchmarks/loadgen.py --rate 20 --requests 200
    PYTHONPATH=src python benchmarks/loadgen.py --soak           # acceptance
    PYTHONPATH=src python benchmarks/loadgen.py --front-end stdio
"""

import argparse
import dataclasses
import io
import json
import os
import pathlib
import signal
import threading
import time

import numpy as np

from repro.apps.executor import run_tiled
from repro.config import RunConfig
from repro.apps.filters import (
    contrast_stretch_inputs,
    gamma_correct_inputs,
    mean_filter_inputs,
)
from repro.apps.images import natural_scene
from repro.core.backend import use_backend
from repro.report import write_bench_record
from repro.reram.faults import DEFAULT_FAULT_RATES
from repro.serve import ServingClient
from repro.serve.service import serve_stdio

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_JSON = ROOT / "BENCH_serve.json"

#: Request seeds cycle over this many values so the reference cache stays
#: bounded (len(templates) * SEED_CYCLE entries) on arbitrarily long soaks.
SEED_CYCLE = 8


# ----------------------------------------------------------------------
# trace
# ----------------------------------------------------------------------
def build_templates(small: int, big: int, length: int, tile: int) -> list:
    """The mixed request templates the trace cycles through.

    Four shapes covering the serving matrix: small+big scenes, both
    backends, a non-default cell model, and a faulty sparse-sampled
    engine.
    """
    rng = np.random.default_rng(1234)
    img_small = natural_scene(small, small, rng)
    img_big = natural_scene(big, big, rng)
    return [
        dict(name="small_gamma_packed", kernel="gamma_correct",
             inputs=gamma_correct_inputs(img_small), length=length,
             tile=tile, engine_kwargs={"cell_model": "column"},
             kernel_kwargs={"gamma": 0.5}, backend="packed"),
        dict(name="big_mean_packed", kernel="mean_filter",
             inputs=mean_filter_inputs(img_big), length=length, tile=tile,
             engine_kwargs={"cell_model": "column"}, kernel_kwargs={},
             backend="packed"),
        dict(name="small_contrast_unpacked", kernel="contrast_stretch",
             inputs=contrast_stretch_inputs(img_small), length=length,
             tile=tile, engine_kwargs={},
             kernel_kwargs={"lo": 0.1, "hi": 0.9}, backend="unpacked"),
        dict(name="small_faulty_sparse", kernel="mean_filter",
             inputs=mean_filter_inputs(img_small), length=length,
             tile=tile,
             engine_kwargs={"fault_rates": DEFAULT_FAULT_RATES,
                            "fault_sampling": "sparse"},
             kernel_kwargs={}, backend="packed"),
    ]


def build_trace(n: int, templates: list) -> list:
    """``n`` deterministic ``(template_index, seed)`` entries."""
    return [(i % len(templates), i % SEED_CYCLE) for i in range(n)]


class ReferenceCache:
    """Bit-exact ``run_tiled(jobs=1)`` oracles, one per (template, seed)."""

    def __init__(self, templates: list) -> None:
        self.templates = templates
        self._cache: dict = {}

    def get(self, tidx: int, seed: int) -> np.ndarray:
        key = (tidx, seed)
        if key not in self._cache:
            t = self.templates[tidx]
            with use_backend(t["backend"]):
                self._cache[key], _ = run_tiled(
                    t["kernel"], t["inputs"], t["length"], tile=t["tile"],
                    jobs=1, seed=seed, engine_kwargs=t["engine_kwargs"],
                    kernel_kwargs=t["kernel_kwargs"])
        return self._cache[key]


# ----------------------------------------------------------------------
# client front-end
# ----------------------------------------------------------------------
def run_client(trace: list, templates: list, jobs: int, rate: float,
               kill_worker: bool) -> dict:
    """Drive ``ServingClient`` open-loop; returns raw per-request records
    plus the server-side metrics snapshot."""
    records = []
    kill_at = len(trace) // 2
    killed = 0
    with ServingClient(jobs=jobs) as client:
        victims = client.pool.worker_pids()   # fleet is warm (warmup=True)
        t0 = time.perf_counter()
        for i, (tidx, seed) in enumerate(trace):
            if rate > 0:
                target = t0 + i / rate
                delay = target - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
            if kill_worker and i == kill_at and victims:
                os.kill(victims[0], signal.SIGKILL)
                killed = 1
            t = templates[tidx]
            rec = {"tidx": tidx, "seed": seed,
                   "t_submit": time.perf_counter()}
            fut = client.submit(t["kernel"], t["inputs"], t["length"],
                                tile=t["tile"], seed=seed,
                                engine_kwargs=t["engine_kwargs"],
                                kernel_kwargs=t["kernel_kwargs"],
                                backend=t["backend"])
            fut.add_done_callback(
                lambda f, rec=rec:
                rec.__setitem__("t_done", time.perf_counter()))
            rec["future"] = fut
            records.append(rec)
        for rec in records:
            try:
                rec["output"] = rec["future"].result(timeout=600)[0]
                rec["ok"] = True
            except Exception as exc:
                rec["ok"] = False
                rec["error"] = type(exc).__name__
            del rec["future"]
        elapsed = time.perf_counter() - t0
        stats = client.stats()
    return {"records": records, "elapsed_s": elapsed, "stats": stats,
            "killed_workers": killed}


# ----------------------------------------------------------------------
# stdio front-end
# ----------------------------------------------------------------------
class _PacedReader(io.TextIOBase):
    """In-memory stdin whose ``readline`` paces the open-loop arrivals."""

    def __init__(self, lines: list, rate: float, submit_times: dict):
        self._lines = lines
        self._rate = rate
        self._submit_times = submit_times
        self._i = 0
        self._t0 = None

    def readline(self) -> str:   # called from serve_stdio's reader thread
        if self._i >= len(self._lines):
            return ""            # EOF: drain and exit
        if self._t0 is None:
            self._t0 = time.perf_counter()
        req_id, line = self._lines[self._i]
        if self._rate > 0:
            delay = (self._t0 + self._i / self._rate) - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        self._i += 1
        if req_id is not None:
            self._submit_times[req_id] = time.perf_counter()
        return line


class _TimestampedWriter(io.TextIOBase):
    """In-memory stdout recording each response line's completion time.

    ``serve_stdio`` writes exactly one full ``line + "\\n"`` per
    ``write`` call (serialised by its write lock), so per-call parsing is
    sound.
    """

    def __init__(self) -> None:
        self.responses: list = []
        self._lock = threading.Lock()

    def write(self, s: str) -> int:
        if s.strip():
            with self._lock:
                self.responses.append((json.loads(s), time.perf_counter()))
        return len(s)

    def flush(self) -> None:
        pass


def run_stdio(trace: list, templates: list, jobs: int,
              rate: float) -> dict:
    """Drive ``serve_stdio`` through paced in-memory streams."""
    lines = []
    for i, (tidx, seed) in enumerate(trace):
        t = templates[tidx]
        lines.append((i, json.dumps({
            "id": i, "kernel": t["kernel"],
            "inputs": {k: v.tolist() for k, v in t["inputs"].items()},
            "length": t["length"], "tile": t["tile"], "seed": seed,
            "engine_kwargs": {k: (dataclasses.asdict(v)
                                  if dataclasses.is_dataclass(v) else v)
                              for k, v in t["engine_kwargs"].items()},
            "kernel_kwargs": t["kernel_kwargs"],
            "backend": t["backend"]}) + "\n"))
    lines.append(("__stats__", json.dumps(
        {"id": "__stats__", "type": "stats"}) + "\n"))
    submit_times: dict = {}
    reader = _PacedReader(lines, rate, submit_times)
    writer = _TimestampedWriter()
    t0 = time.perf_counter()
    serve_stdio(reader, writer, jobs=jobs)
    elapsed = time.perf_counter() - t0

    stats = None
    records = []
    for resp, t_done in writer.responses:
        if resp.get("id") == "__stats__":
            stats = resp.get("stats")
            continue
        i = resp["id"]
        tidx, seed = trace[i]
        rec = {"tidx": tidx, "seed": seed,
               "t_submit": submit_times[i], "t_done": t_done,
               "ok": bool(resp.get("ok"))}
        if rec["ok"]:
            rec["output"] = np.asarray(resp["output"], dtype=np.float64)
        else:
            rec["error"] = resp.get("error", "").split(":")[0]
        records.append(rec)
    return {"records": records, "elapsed_s": elapsed, "stats": stats,
            "killed_workers": 0}


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _percentiles(values: list) -> dict:
    if not values:
        return {"p50": None, "p90": None, "p99": None,
                "mean": None, "max": None}
    arr = np.asarray(values, dtype=np.float64)
    return {"p50": float(np.percentile(arr, 50)),
            "p90": float(np.percentile(arr, 90)),
            "p99": float(np.percentile(arr, 99)),
            "mean": float(arr.mean()), "max": float(arr.max())}


def summarise(raw: dict, trace: list, templates: list,
              rate: float) -> dict:
    """Verify every ok response bit-exact and fold the run into numbers."""
    refs = ReferenceCache(templates)
    ok = failed = incorrect = 0
    failed_by_error: dict = {}
    latencies = []
    for rec in raw["records"]:
        if rec["ok"]:
            ok += 1
            latencies.append(rec["t_done"] - rec["t_submit"])
            if not np.array_equal(rec["output"],
                                  refs.get(rec["tidx"], rec["seed"])):
                incorrect += 1
        else:
            failed += 1
            failed_by_error[rec["error"]] = \
                failed_by_error.get(rec["error"], 0) + 1
    # Span from first submission to last completion — excludes pool boot
    # (paid before the trace starts), which the stdio wall-clock includes.
    t_done = [r["t_done"] for r in raw["records"] if "t_done" in r]
    elapsed = (max(t_done) - min(r["t_submit"] for r in raw["records"])
               if t_done else raw["elapsed_s"])
    stats = raw["stats"] or {}
    return {
        "requests": len(trace),
        "ok": ok,
        "failed": failed,
        "incorrect": incorrect,
        "failed_by_error": failed_by_error,
        "killed_workers": raw["killed_workers"],
        "pool_restarts": stats.get("pool", {}).get("restarts"),
        "elapsed_s": elapsed,
        "offered_rps": rate if rate > 0 else None,
        "achieved_rps": ok / elapsed if elapsed > 0 else None,
        # a burst submits everything at t0: the completion rate IS the
        # saturation throughput of the serving layer for this mix
        "saturation_rps": (ok / elapsed
                           if rate == 0 and elapsed > 0 else None),
        "latency_s": _percentiles(latencies),
        # cross-request hit rate of the scene store (the mixed trace
        # cycles a handful of scenes, so steady state should be nearly
        # all hits)
        "scene_hit_rate": (stats.get("scene_store") or {}).get("hit_rate"),
        "server_stats": stats,
    }


def render(results: dict) -> str:
    lat = results["latency_s"]
    lines = [
        f"{results['requests']} requests "
        f"({results['ok']} ok, {results['failed']} failed, "
        f"{results['incorrect']} incorrect) in "
        f"{results['elapsed_s']:.2f}s",
    ]
    if lat["p50"] is not None:
        lines.append(
            f"  latency p50/p90/p99: {lat['p50'] * 1e3:7.1f} / "
            f"{lat['p90'] * 1e3:7.1f} / {lat['p99'] * 1e3:7.1f} ms "
            f"(mean {lat['mean'] * 1e3:.1f}, max {lat['max'] * 1e3:.1f})")
    if results["offered_rps"]:
        lines.append(f"  offered {results['offered_rps']:.1f} req/s, "
                     f"achieved {results['achieved_rps']:.1f} req/s")
    elif results["saturation_rps"]:
        lines.append(f"  saturation throughput: "
                     f"{results['saturation_rps']:.1f} req/s")
    if results["scene_hit_rate"] is not None:
        lines.append(f"  scene-cache hit rate: "
                     f"{results['scene_hit_rate'] * 100:.1f}%")
    if results["killed_workers"]:
        lines.append(f"  worker deaths injected: "
                     f"{results['killed_workers']}, pool restarts: "
                     f"{results['pool_restarts']}, failed with: "
                     f"{results['failed_by_error']}")
    return "\n".join(lines)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--requests", type=int, default=None,
                        help="trace length (default 24; >= 1000 in soak)")
    parser.add_argument("--rate", type=float, default=0.0,
                        help="open-loop arrival rate in req/s; 0 submits "
                             "one burst (saturation measurement)")
    parser.add_argument("--jobs", type=int, default=4,
                        help="resident worker processes")
    parser.add_argument("--front-end", choices=["client", "stdio"],
                        default="client", dest="front_end",
                        help="drive ServingClient (default) or the "
                             "stdin/JSON serve_stdio loop")
    parser.add_argument("--small", type=int, default=8,
                        help="small-scene edge length in pixels")
    parser.add_argument("--big", type=int, default=16,
                        help="big-scene edge length in pixels")
    parser.add_argument("--length", type=int, default=32,
                        help="SC stream length N")
    parser.add_argument("--tile", type=int, default=4,
                        help="tile edge length")
    parser.add_argument("--soak", action="store_true",
                        help="sustained-load acceptance: >= 1000 requests "
                             "with a worker death injected mid-stream")
    parser.add_argument("--kill-worker", action="store_true",
                        dest="kill_worker",
                        help="SIGKILL one resident worker at the trace "
                             "midpoint (client front-end only; implied "
                             "by --soak)")
    parser.add_argument("--json", type=pathlib.Path, default=BENCH_JSON,
                        help="bench-record output path "
                             "(default: BENCH_serve.json at the repo root)")
    args = parser.parse_args()

    requests = args.requests
    if requests is None:
        requests = 1000 if args.soak else 24
    if args.soak:
        requests = max(requests, 1000)
    kill_worker = args.kill_worker or args.soak
    if kill_worker and args.front_end == "stdio":
        parser.error("--kill-worker/--soak needs pool access and is "
                     "client-front-end only")

    templates = build_templates(args.small, args.big, args.length,
                                args.tile)
    trace = build_trace(requests, templates)
    if args.front_end == "client":
        raw = run_client(trace, templates, args.jobs, args.rate,
                         kill_worker)
    else:
        raw = run_stdio(trace, templates, args.jobs, args.rate)
    results = summarise(raw, trace, templates, args.rate)
    print(render(results))

    config = {"front_end": args.front_end, "requests": requests,
              "rate": args.rate, "jobs": args.jobs, "small": args.small,
              "big": args.big, "length": args.length, "tile": args.tile,
              "soak": args.soak, "kill_worker": kill_worker,
              "templates": [t["name"] for t in templates]}
    write_bench_record(args.json, "serve", config, results,
                       run_config=RunConfig.fast(tile=args.tile,
                                                 jobs=args.jobs))
    print(f"bench record -> {args.json}")

    if results["incorrect"]:
        print(f"FAIL: {results['incorrect']} response(s) not bit-identical "
              f"to run_tiled(jobs=1)")
        return 1
    if kill_worker:
        unexpected = {k: v for k, v in results["failed_by_error"].items()
                      if k != "BrokenProcessPool"}
        if unexpected:
            print(f"FAIL: unexpected failure kinds under worker death: "
                  f"{unexpected}")
            return 1
        if not results["pool_restarts"]:
            print("FAIL: worker death injected but the pool never "
                  "restarted")
            return 1
    elif results["failed"]:
        print(f"FAIL: {results['failed']} request(s) failed with no fault "
              f"injected: {results['failed_by_error']}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
