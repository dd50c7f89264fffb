"""The benchmark workloads.

Each workload class builds its inputs from the seed alone.  Its ``run``
boots whatever it serves through, measures for about ``seconds``, checks
every output bit for bit against ``run_tiled(jobs=1)`` computed outside
the timed window, and returns an :class:`Outcome` of end-to-end metrics.
Its ``trace`` measures the per-layer metrics instead: part of the time
untraced, part with spans around the layers' public entry points, plus an
in-process replay of the same tiles.

The host these figures come from drifts: on the 2-vCPU VM they were sized
on, other tenants moved speed by 30% or more between minutes, with or
without CPU steal showing.  Such interference only ever slows the program
down, so both workloads report the stretches it missed: ``small_stdio``
the fastest tenth of its runs of completions, ``faulty_batch``, which
repeats identical calls, each app's fastest call.
"""

from __future__ import annotations

import contextlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.apps import filters
from repro.apps.compositing import composite_float
from repro.apps.executor import run_tiled
from repro.apps.images import natural_scene, scene_triplet
from repro.apps.interpolation import neighbour_grid
from repro.apps.matting import recomposite_quality_inputs
from repro.apps.metrics import quality_pair
from repro.apps.pipeline import run_app
from repro.config import RunConfig
from repro.reram.faults import DEFAULT_FAULT_RATES
from repro.serve.service import serve_stdio
from repro.serve.transport import SceneStore

from . import harness, tracing
from .harness import log, median

BACKEND = "packed"
CONFIG = RunConfig.fast(backend=BACKEND)
JOBS = harness.cpu_count()
#: Latency percentiles need samples: keep going past ``seconds`` (up to
#: this multiple of it) until p90 has ten samples beyond it.
MIN_SAMPLES = 100
MAX_STRETCH = 3.0
#: A timed phase during which the hypervisor stole more than this share of
#: the VM's CPU is measured again, up to QUIET_ATTEMPTS times in all, and
#: the quietest attempt is reported (every attempt's outputs are checked).
STEAL_LIMIT = 0.05
QUIET_ATTEMPTS = 2


def quietest(measure: Callable[[], Any]) -> Tuple[Any, List[float]]:
    """Run ``measure`` until a run loses at most ``STEAL_LIMIT`` of the CPU
    to the hypervisor; returns the quietest result and every steal share."""
    shares: List[float] = []
    best = None
    for _ in range(QUIET_ATTEMPTS):
        stolen0, total0 = harness.cpu_steal_ticks()
        result = measure()
        stolen1, total1 = harness.cpu_steal_ticks()
        shares.append((stolen1 - stolen0) / max(1, total1 - total0))
        if best is None or shares[-1] < best[0]:
            best = (shares[-1], result)
        if shares[-1] <= STEAL_LIMIT:
            break
    return best[1], shares


@dataclass
class Outcome:
    """What one workload run measured and how many operations it checked."""

    metrics: Dict[str, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    incorrect: int = 0
    record: Dict[str, Any] = field(default_factory=dict)

    def check(self, ok: bool, same: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
        elif not same:
            self.incorrect += 1

    @property
    def ok_pct(self) -> float:
        return 100.0 * (self.attempted - self.failed) / self.attempted


def _seeds(rng: np.random.Generator, n: int) -> List[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, n)]


def _model(ledgers: List[Any], pixels: int) -> Dict[str, float]:
    """Modelled device cost per output pixel, from the tile ledgers."""
    energy = sum(ledger.energy_j for ledger in ledgers)
    latency = sum(ledger.latency_s for ledger in ledgers)
    return {"model_energy_nj_per_px": 1e9 * energy / pixels,
            "model_throughput_mpix_s": pixels / latency / 1e6}


def _quality(pairs: List[Tuple[np.ndarray, np.ndarray]]) -> Dict[str, float]:
    scores = [quality_pair(ref, out) for ref, out in pairs]
    return {"ssim_pct": float(np.mean([s for s, _ in scores])),
            "psnr_db": float(np.mean([p for _, p in scores]))}


def _per_tile(tracer: tracing.Tracer, root: str,
              tiles: int) -> Dict[str, float]:
    """Kernel-stage self times per tile, from an in-process run."""
    own = tracer.self_times(root)
    out = {f"{name}_ms": 1e3 * own.get(name, 0.0) / tiles for name in (
        "engine.generate", "engine.logic", "engine.divide",
        "engine.to_binary", "streambatch.exact_count")}
    out["kernel.self_ms"] = 1e3 * own.get("kernel", 0.0) / tiles
    out["engine.init_ms"] = tracer.mean_ms("engine.init")
    out["engine.calls_per_tile"] = (tracer.counts["engine.calls"]
                                    / tracer.counts["engine.instances"])
    return out


def _stats_delta(before: Dict[str, Any], after: Dict[str, Any]
                 ) -> Dict[str, float]:
    """Scheduler counters accrued between two ``stats()`` snapshots."""
    def diff(*path: str) -> float:
        a, b = after, before
        for key in path:
            a, b = a[key], b[key]
        return a - b
    return {
        "requests": diff("requests", "admitted"),
        "tiles": diff("tiles", "dispatched"),
        "queue_wait_s": diff("queue_wait_s", "sum")
        / diff("queue_wait_s", "count"),
        "service_s": diff("exec_s", "sum") / diff("exec_s", "count"),
        "hits": diff("scene_cache", "hits"),
        "misses": diff("scene_cache", "misses"),
        "bytes_shipped": diff("scene_cache", "bytes_shipped"),
        "inflight_hwm": after["tiles"]["inflight_hwm"],
    }


def _served_layers(tracer: tracing.Tracer, stats: Dict[str, float],
                   kernel_tile_s: float) -> Dict[str, float]:
    """Per-layer metrics of a traced served run (serving process side)."""
    tasks = tracer.counts["pool.tasks"]
    return {
        "scheduler.queue_wait_ms": 1e3 * stats["queue_wait_s"],
        "scheduler.service_ms": 1e3 * stats["service_s"],
        "scheduler.tiles_per_request": stats["tiles"] / stats["requests"],
        "scheduler.inflight_hwm": float(stats["inflight_hwm"]),
        "pool.warmup_s": tracer.mean_ms("pool.warmup") / 1e3,
        "pool.ipc_ms_per_tile": 1e3 * (
            tracer.counts["pool.round_trip_s"] / tasks - kernel_tile_s),
        "executor.task_pickle_bytes": tracer.counts["pool.task_bytes"]
        / tasks,
        "executor.build_ms": tracer.mean_ms("executor.build"),
        "executor.stitch_ms": tracer.mean_ms("executor.stitch"),
        "transport.publish_ms": tracer.mean_ms("transport.publish"),
        "transport.hit_rate": stats["hits"] / (stats["hits"]
                                               + stats["misses"]),
        "transport.bytes_per_request": stats["bytes_shipped"]
        / stats["requests"],
    }


def _time_in_process(requests: List[Dict[str, Any]], repeats: int) -> float:
    """Untraced ``run_tiled(jobs=1)`` seconds per tile over ``requests``."""
    tiles = 0
    t0 = time.perf_counter()
    for _ in range(repeats):
        for req in requests:
            image, _ = _reference(req)
            tiles += _tile_count(image.shape, req["tile"])
    return (time.perf_counter() - t0) / tiles


def _replay(requests: List[Dict[str, Any]], repeats: int
            ) -> Tuple[tracing.Tracer, int, float]:
    """Run requests in-process with every kernel layer traced.

    Returns the tracer, the tile count and the replay's breakdown error.
    Tiles go through a scene store, as served tiles do, so the worker-side
    ``fetch_tile`` is timed too.
    """
    tracer = tracing.Tracer()
    tiles = 0
    with SceneStore() as store, contextlib.ExitStack() as stack:
        tracing.trace_kernel_layers(stack, tracer)
        for _ in range(repeats):
            for req in requests:
                with tracer.span("replay.request"):
                    image, _ = run_tiled(
                        req["kernel"], req["inputs"], req["length"],
                        config=CONFIG, tile=req["tile"], jobs=1,
                        seed=req["seed"], kernel_kwargs=req["kernel_kwargs"],
                        scene_store=store)
                tiles += _tile_count(image.shape, req["tile"])
    err = tracing.breakdown_error(tracer.self_times("replay.request"),
                                  "replay.request")
    return tracer, tiles, err


def _kernel_layers(replay: tracing.Tracer, tiles: int,
                   served_tile_s: float, kernel_tile_s: float
                   ) -> Dict[str, float]:
    """Per-layer metrics of the in-process replay of served tiles."""
    return {**_per_tile(replay, "replay.request", tiles),
            "transport.fetch_tile_ms": replay.mean_ms("transport.fetch_tile"),
            "serve.overhead_share_pct": 100 * (1 - kernel_tile_s
                                               / served_tile_s)}


def _tile_count(shape: Tuple[int, int], tile: int) -> int:
    return -(-shape[0] // tile) * -(-shape[1] // tile)


def _reference(req: Dict[str, Any]) -> Tuple[np.ndarray, Any]:
    return run_tiled(req["kernel"], req["inputs"], req["length"],
                     config=CONFIG, tile=req["tile"], jobs=1,
                     seed=req["seed"], kernel_kwargs=req["kernel_kwargs"])


# ----------------------------------------------------------------------
# small_stdio
# ----------------------------------------------------------------------
SMALL_SIZE, SMALL_TILE, SMALL_LENGTH = 8, 4, 32
#: Distinct (scene, seed) requests the traffic cycles over.  All stay
#: resident in the scene store, so after the warm-up every request hits;
#: scoring quality over this many scenes keeps SSIM steady across seeds.
SMALL_SCENES = 32
SMALL_WARM = SMALL_SCENES   # untimed: publishes every scene once
#: Offered open-loop rate, req/s.  Closed-loop capacity on the 2-vCPU
#: host it was sized on ranged 70-320 req/s as CPU steal came and went; a
#: rate above the slow end turns the open loop into a growing backlog.
SMALL_RATE = 50.0
#: Requests the closed loop keeps unanswered: enough tiles queued that no
#: worker idles between one response and the next request.
SMALL_DEPTH = 2 * JOBS
#: Closed-loop throughput and latency are measured over the fastest
#: SMALL_FASTEST share of the runs of SMALL_CHUNK consecutive responses
#: (about 0.5 s each).  Slow runs came scattered through every 30 s loop
#: on the 2-vCPU VM this was sized on: across ten seeds the median run's
#: rate spread by 15% of its median, the fastest tenth's by 7%.
SMALL_CHUNK = 100
SMALL_FASTEST = 0.1


def _stats_line(req_id: str) -> str:
    return json.dumps({"id": req_id, "type": "stats"}) + "\n"


@dataclass
class _Session:
    setup_s: float
    reader: harness.PacedReader
    responses: Dict[Any, Tuple[float, Dict[str, Any]]]
    peak_rss_mb: float

    @property
    def stats(self) -> Dict[str, float]:
        """Scheduler counters of the timed phase alone."""
        return _stats_delta(self.responses["warm"][1]["stats"],
                            self.responses["done"][1]["stats"])

    def timed_done(self) -> List[float]:
        return [self.responses[i][0] if i in self.responses else np.inf
                for i in range(len(self.reader.due))]


class SmallStdio:
    """Many tiny ``gamma_correct`` requests through the JSON wire loop."""

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.scenes = [natural_scene(SMALL_SIZE, SMALL_SIZE, rng)
                       for _ in range(SMALL_SCENES)]
        self.requests = [dict(kernel="gamma_correct",
                              inputs=filters.gamma_correct_inputs(scene),
                              length=SMALL_LENGTH, tile=SMALL_TILE, seed=s,
                              kernel_kwargs={"gamma": 0.5})
                         for scene, s in zip(self.scenes,
                                             _seeds(rng, SMALL_SCENES))]
        # Everything after the id, encoded once: the generator only
        # concatenates strings inside the timed window.
        self._bodies = [", " + json.dumps({
            "kernel": r["kernel"],
            "inputs": {"image": r["inputs"]["image"].tolist()},
            "length": r["length"], "tile": r["tile"], "seed": r["seed"],
            "kernel_kwargs": r["kernel_kwargs"], "backend": BACKEND})[1:]
            for r in self.requests]
        self.refs = [_reference(r) for r in self.requests]
        self.warm = [self._line(f'"w{k}"', k) for k in range(SMALL_WARM)]

    def _line(self, req_id: str, k: int) -> str:
        return '{"id": ' + req_id + self._bodies[k % SMALL_SCENES] + "\n"

    def line_for(self, i: int) -> str:
        return self._line(str(i), i)

    def session(self, out: Outcome, *, rate: float = 0.0,
                count: Optional[int] = None, duration: Optional[float] = None,
                tracer: Optional[tracing.Tracer] = None) -> _Session:
        """One ``serve_stdio`` boot: warm requests, a timed phase, stats.

        The timed phase is open-loop at ``rate`` for ``count`` requests,
        or with ``rate == 0`` closed-loop at ``SMALL_DEPTH`` for
        ``duration`` seconds.  A stats request closes the warm-up and
        another the timed phase, so the scheduler's counters can be taken
        for the timed phase only.
        """
        writer = harness.ResponseWriter()
        rss: List[float] = []
        reader = harness.PacedReader(
            self.line_for, writer, rate=rate, count=count,
            depth=SMALL_DEPTH, duration=duration, warm=self.warm,
            before_timed=[_stats_line("warm")], tail=[_stats_line("done")],
            on_drained=lambda: rss.append(harness.peak_rss_mb()))
        with contextlib.ExitStack() as stack:
            stack.enter_context(harness.vcpus_kept_awake(JOBS))
            if tracer is not None:
                tracing.trace_serving(stack, tracer)
            t_boot = time.perf_counter()
            serve_stdio(reader, writer, jobs=JOBS, backend=BACKEND)
        session = _Session(reader.t_first_read - t_boot, reader,
                           writer.responses(), rss[0])
        expected = [(f"w{k}", k) for k in range(SMALL_WARM)] + [
            (i, i) for i in range(len(reader.due))]
        for req_id, k in expected:
            image, ledger = self.refs[k % SMALL_SCENES]
            _, resp = session.responses.get(req_id, (None, {}))
            ok = bool(resp.get("ok"))
            out.check(ok, ok and harness.same_result(
                resp["output"], resp["energy_j"], resp["latency_s"],
                image, ledger))
        return session

    def open_loop(self, out: Outcome, seconds: float,
                  tracer: Optional[tracing.Tracer] = None
                  ) -> Tuple[_Session, Dict[str, Any]]:
        count = max(MIN_SAMPLES, int(SMALL_RATE * seconds))
        s = self.session(out, rate=SMALL_RATE, count=count, tracer=tracer)
        latency = harness.due_latencies(s.reader.due, s.timed_done())
        lateness = [h - d for h, d in zip(s.reader.handed, s.reader.due)]
        summary = harness.latency_summary(latency)
        summary["mean_ms"] = 1e3 * float(np.mean(latency))
        summary["lateness_mean_ms"] = 1e3 * float(np.mean(lateness))
        summary["lateness_max_ms"] = 1e3 * float(np.max(lateness))
        # A generator running later than the median it measures is timing
        # itself, not the server; a server slower than the offered rate
        # grows a backlog instead of a latency.
        done = s.timed_done()
        summary["achieved_rps"] = len(done) / (max(done) - s.reader.t0)
        summary["valid"] = (
            summary["lateness_mean_ms"] <= summary["p50_ms"]
            and summary["achieved_rps"] >= 0.95 * SMALL_RATE)
        if not summary["valid"]:
            log(f"small_stdio: open-loop run invalid: generator lateness "
                f"{summary['lateness_mean_ms']:.2f} ms, p50 "
                f"{summary['p50_ms']:.2f} ms, achieved "
                f"{summary['achieved_rps']:.1f} of {SMALL_RATE:g} req/s")
        return s, summary

    def closed_loop(self, out: Outcome, seconds: float
                    ) -> Tuple[_Session, Dict[str, Any]]:
        """Saturation: ``SMALL_DEPTH`` requests always unanswered.

        Latency runs from each request's hand-over to its response.
        Throughput and latency are those of the responses completed in
        the fastest ``SMALL_FASTEST`` of the runs of ``SMALL_CHUNK``
        responses; the record keeps the whole loop's figures too.
        Neither waits on an idle vCPU to wake up, which sets the open
        loop's latency on a VM.
        """
        s = self.session(out, duration=seconds)
        pairs = [(due, done) for due, done in zip(s.reader.due,
                                                  s.timed_done())
                 if np.isfinite(done)]   # unanswered ones count as failed
        done = [d for _, d in pairs]
        latency = np.asarray(harness.due_latencies(*zip(*pairs)))
        rps, fastest = harness.fastest_chunks(s.reader.t0, done,
                                              SMALL_CHUNK, SMALL_FASTEST)
        summary = harness.latency_summary(latency[fastest])
        elapsed = max(done) - s.reader.t0
        chunks = harness.chunk_rates(s.reader.t0, done, SMALL_CHUNK)
        summary.update(rps=rps, median_chunk_rps=median(chunks),
                       chunk_rps=chunks, all_latency=harness.latency_summary(
                           latency),
                       rps_overall=len(done) / elapsed, elapsed_s=elapsed,
                       tiles=s.stats["tiles"])
        return s, summary

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        # A boot that serves just its warm-up, for set-up time only; it
        # also starts the forkserver, a once-per-process cost.
        cold = self.session(out, rate=SMALL_RATE, count=0)
        s_open, lat_open = self.open_loop(out, seconds / 4)
        (s_closed, closed), steal = quietest(
            lambda: self.closed_loop(out, 3 * seconds / 4))
        s_boot = self.session(out, rate=SMALL_RATE, count=0)
        setups = [s.setup_s for s in (s_open, s_closed, s_boot)]
        out.metrics.update(
            setup_s=median(setups),
            throughput_rps=closed["rps"],
            throughput_mpix_s=closed["rps"] * SMALL_SIZE ** 2 / 1e6,
            latency_p50_ms=closed["p50_ms"],
            latency_p90_ms=closed["p90_ms"],
            peak_rss_mb=max(s_open.peak_rss_mb, s_closed.peak_rss_mb),
            **_quality([(filters.gamma_correct_float(scene, 0.5), image)
                        for scene, (image, _) in zip(self.scenes,
                                                     self.refs)]),
            **_model([ledger for _, ledger in self.refs],
                     SMALL_SIZE ** 2 * SMALL_SCENES))
        out.record.update(open_loop=lat_open, closed_loop=closed,
                          setup_samples_s=setups, cold_setup_s=cold.setup_s,
                          steal_shares=steal)
        return out

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        _, plain = self.open_loop(out, seconds / 3)
        _, closed = self.closed_loop(out, seconds / 3)
        tracer = tracing.Tracer()
        s_traced, traced = self.open_loop(out, seconds / 3, tracer)
        stats = s_traced.stats
        kernel_tile_s = _time_in_process(self.requests, 10)
        served_tile_s = JOBS * closed["elapsed_s"] / closed["tiles"]
        replay, tiles, replay_err = _replay(self.requests, 10)
        # Served breakdown: a request's mean due-time latency against the
        # layers it crosses one after the other.
        parts = {
            "loadgen.lateness": traced["lateness_mean_ms"],
            "service.decode": tracer.mean_ms("service.decode"),
            "scheduler.queue_wait": 1e3 * stats["queue_wait_s"],
            "scheduler.service": 1e3 * stats["service_s"],
            "service.encode": tracer.mean_ms("service.encode"),
        }
        served_err = abs(traced["mean_ms"] - sum(parts.values())) \
            / traced["mean_ms"]
        out.metrics.update(
            _served_layers(tracer, stats, kernel_tile_s),
            **_kernel_layers(replay, tiles, served_tile_s, kernel_tile_s))
        out.metrics.update({
            "service.decode_ms": parts["service.decode"],
            "service.encode_ms": parts["service.encode"],
            "service.request_kb": float(np.mean(
                [len(self.line_for(i)) for i in range(SMALL_SCENES)]))
            / 1024,
            "loadgen.lateness_ms": plain["lateness_mean_ms"],
            "trace.overhead_pct": 100 * (traced["mean_ms"] / plain["mean_ms"]
                                         - 1),
            "trace.breakdown_error_pct": 100 * max(served_err, replay_err),
        })
        out.record.update(
            untraced_open_loop=plain, traced_open_loop=traced,
            closed_loop=closed,
            served_breakdown_ms=parts, served_breakdown_error=served_err,
            replay_breakdown_error=replay_err,
            replay_self_ms_per_tile={
                k: 1e3 * v / tiles
                for k, v in replay.self_times("replay.request").items()},
            kernel_ms_per_tile=1e3 * kernel_tile_s,
            served_worker_ms_per_tile=1e3 * served_tile_s)
        return out


# ----------------------------------------------------------------------
# faulty_batch
# ----------------------------------------------------------------------
APPS = ("compositing", "interpolation", "matting")
FAULTY = dict(length=256, size=96, tile=32)
FAULTY_SCENES = 4


def run_faulty_app(app: str, scene_seed: int, faulty: bool = True):
    return run_app(app, "sc", faulty=faulty, jobs=1, seed=scene_seed,
                   config=CONFIG, **FAULTY)


def faulty_reference(app: str, seed: int) -> Tuple[np.ndarray, Any]:
    """``run_tiled(jobs=1)`` on the inputs ``run_app`` builds for ``app``."""
    size, length, tile = FAULTY["size"], FAULTY["length"], FAULTY["tile"]
    rng = np.random.default_rng(seed)
    kwargs = dict(config=CONFIG, tile=tile, jobs=1, seed=seed,
                  engine_kwargs={"fault_rates": DEFAULT_FAULT_RATES})
    if app == "interpolation":
        *arrays, shape = neighbour_grid(natural_scene(size, size, rng), 2)
        names = ("i11", "i12", "i21", "i22", "dx", "dy")
        return run_tiled(app, {n: a.reshape(shape)
                               for n, a in zip(names, arrays)},
                         length, **kwargs)
    background, foreground, alpha = scene_triplet(size, size, rng)
    if app == "compositing":
        return run_tiled(app, {"foreground": foreground,
                               "background": background, "alpha": alpha},
                         length, **kwargs)
    composite = composite_float(foreground, background, alpha)
    alpha_est, ledger = run_tiled(
        app, {"composite": composite, "background": background,
              "foreground": foreground}, length, **kwargs)
    return recomposite_quality_inputs(background, foreground, alpha,
                                      alpha_est)[1], ledger


def first_pass(scene_seed: int) -> None:
    """The cold first pass a fresh process pays (the set-up probe)."""
    for app in APPS:
        run_faulty_app(app, scene_seed)


class FaultyBatch:
    """The paper's Table IV apps under faults, in-process, cycling scenes."""

    def __init__(self, seed: int, run_py: str):
        self.scene_seeds = _seeds(np.random.default_rng(seed),
                                  FAULTY_SCENES)
        self.keys = [(app, s) for s in self.scene_seeds for app in APPS]
        self._run_py = run_py
        self._refs: Dict[Tuple[str, int], Tuple[np.ndarray, Any]] = {}

    def _setup_probe(self) -> float:
        """Wall time of a fresh interpreter's import + first pass."""
        t = time.perf_counter()
        subprocess.run([sys.executable, self._run_py, "--first-pass",
                        str(self.scene_seeds[0])], check=True, timeout=120)
        return time.perf_counter() - t

    def batch(self, seconds: float,
              call: Callable[[str, int], Any] = run_faulty_app,
              min_samples: int = MIN_SAMPLES) -> Dict[str, Any]:
        """Cycle over the keys for ``seconds``.

        Only each key's first result is kept; every later call of the key
        records whether it equals that one bit for bit, so memory (and
        ``peak_rss_mb``) does not grow with the number of calls a host
        manages.
        """
        calls: List[Tuple[Tuple[str, int], float, bool]] = []
        first: Dict[Tuple[str, int], Any] = {}
        t0 = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - t0
            if (elapsed >= seconds and len(calls) >= min_samples) \
                    or elapsed >= MAX_STRETCH * seconds:
                break
            key = self.keys[len(calls) % len(self.keys)]
            t = time.perf_counter()
            result = call(*key)
            dt = time.perf_counter() - t
            seen = first.setdefault(key, result)
            calls.append((key, dt, harness.same_result(
                result.output, result.ledger.energy_j,
                result.ledger.latency_s, seen.output, seen.ledger)))
        return {"calls": calls, "first": first,
                "elapsed_s": time.perf_counter() - t0}

    def _verify(self, out: Outcome, run: Dict[str, Any]) -> None:
        """Each key's first result against its reference, and every call
        against its key's first result."""
        correct = {}
        for key, result in run["first"].items():
            if key not in self._refs:
                self._refs[key] = faulty_reference(*key)
            image, ledger = self._refs[key]
            correct[key] = harness.same_result(
                result.output, result.ledger.energy_j,
                result.ledger.latency_s, image, ledger)
        for key, _, same in run["calls"]:
            out.check(True, same and correct[key])

    def run(self, seconds: float) -> Outcome:
        out = Outcome()
        # Set-up probes before, after and well after the batch: a slow
        # spell of the host lasts seconds, so three probes in a row would
        # share it.
        setups = [self._setup_probe()]
        first_pass(self.scene_seeds[0])   # warm this process, untimed
        run = self.batch(seconds)
        setups.append(self._setup_probe())
        calls = run["calls"]
        self._verify(out, run)
        setups.append(self._setup_probe())
        if len(run["first"]) < len(self.keys):
            raise RuntimeError("the run ended before every scene ran once")
        results = [run["first"][key] for key in self.keys]
        # Every scene of an app has the same size, tile count and stream
        # length, so the app's fastest call over all its scenes stands for
        # each of its calls.  Other tenants of the host only ever slow a
        # call down: on the 2-vCPU VM this was sized on they did so by up
        # to 40% for tens of seconds at a time, in CPU time as much as in
        # wall time, without any CPU steal showing.  The median over calls
        # spread by 34% across ten seeds where the fastest spread by 5-20%;
        # pooling an app's scenes needs one quiet moment per app, not one
        # per scene.
        times = {key: [dt for k, dt, _ in calls if k == key]
                 for key in self.keys}
        best = {app: min(dt for (a, _), ts in times.items() if a == app
                         for dt in ts) for app in APPS}
        lat = harness.latency_summary([best[app] for (app, _), _, _
                                       in calls])
        pass_s = FAULTY_SCENES * sum(best.values())
        out.metrics.update(
            setup_s=median(setups),
            throughput_rps=len(self.keys) / pass_s,
            throughput_mpix_s=sum(r.output.size for r in results)
            / pass_s / 1e6,
            latency_p50_ms=lat["p50_ms"], latency_p90_ms=lat["p90_ms"],
            psnr_db=float(np.mean([r.psnr_db for r in results])),
            ssim_pct=float(np.mean([r.ssim_pct for r in results])),
            peak_rss_mb=harness.peak_rss_mb(),
            **_model([r.ledger for r in results],
                     sum(r.output.size for r in results)))
        out.record.update(
            latency=lat, calls=len(calls), elapsed_s=run["elapsed_s"],
            overall_rps=len(calls) / run["elapsed_s"],
            raw_latency=harness.latency_summary([dt for _, dt, _ in calls]),
            median_call_rps=len(self.keys) / sum(
                median(ts) for ts in times.values()),
            setup_samples_s=setups,
            call_s={f"{app}/{s}": ts for (app, s), ts in times.items()})
        return out

    def _kernel_s(self, faulty: bool) -> float:
        """Traced kernel time over one pass of every scene."""
        tracer = tracing.Tracer()
        with contextlib.ExitStack() as stack:
            tracing.trace_kernel_layers(stack, tracer)
            for key in self.keys:
                run_faulty_app(*key, faulty=faulty)
        return tracer.total_s("kernel")

    def trace(self, seconds: float) -> Outcome:
        out = Outcome()
        first_pass(self.scene_seeds[0])
        plain = self.batch(seconds / 2, min_samples=len(self.keys))
        tracer = tracing.Tracer()
        with contextlib.ExitStack() as stack:
            tracing.trace_kernel_layers(stack, tracer)
            tracing.trace_pipeline(stack, tracer)
            traced = self.batch(seconds / 2, tracer.wrap(
                run_faulty_app, "app.run_app"), len(self.keys))
        for run in (plain, traced):
            self._verify(out, run)
        own = tracer.self_times("app.run_app")
        err = tracing.breakdown_error(own, "app.run_app")
        n_calls = len(traced["calls"])
        tiles = tracer.counts["engine.instances"]
        rate = {k: len(r["calls"]) / r["elapsed_s"]
                for k, r in (("plain", plain), ("traced", traced))}
        out.metrics.update(_per_tile(tracer, "app.run_app", tiles))
        out.metrics.update({
            "executor.build_ms": tracer.mean_ms("executor.build"),
            "executor.stitch_ms": tracer.mean_ms("executor.stitch"),
            # the same tiles without faults: what the fault model costs
            "engine.fault_overhead_ratio": self._kernel_s(True)
            / self._kernel_s(False),
            "pipeline.score_ms": 1e3 * own.get("pipeline.score", 0.0)
            / n_calls,
            "trace.overhead_pct": 100 * (rate["plain"] / rate["traced"] - 1),
            "trace.breakdown_error_pct": 100 * err,
        })
        out.record.update(rps=rate, breakdown_error=err,
                          self_ms_per_call={k: 1e3 * v / n_calls
                                            for k, v in own.items()})
        return out
