"""Serving observability + JSON front-end strictness suite.

Covers the PR 6 contracts layered on top of :mod:`repro.serve`:

* the :class:`~repro.serve.metrics.ServeMetrics` registry — its tile
  counters agree with the scheduler's ``dispatch_log`` ground truth, a
  small request ships its tiles as one pool task and tasks never
  outnumber tiles,
  requests are finalized exactly once (ok / failed / cancelled), and
  every snapshot is strict RFC 8259 JSON;
* ``{"type": "stats"}`` round-trips through both front-ends
  (``ServingClient.stats()`` and the ``serve_stdio`` JSON loop);
* a worker death mid-stream shows ``pool_restarts == 1`` and every
  surviving response stays bit-identical to ``run_tiled(jobs=1)``, also
  on a mixed trace (both backends, faulty and column engines, two scene
  sizes) that must leave no shared-memory scene segment behind;
* ``decode_request`` strictness — ``backend`` threads through instead of
  being silently dropped, unknown keys are rejected by name, a
  null/float seed is rejected (silent nondeterminism), and
  ``fault_rates`` objects decode into :class:`GateFaultRates`;
* ``encode_response`` strictness — non-finite values become JSON
  ``null`` with a ``nonfinite`` count, never bare ``NaN`` literals;
* :meth:`WorkerPool.warmup` barriers until every worker is provably up;
* the ``BENCH_*.json`` record schema (``benchmarks/records.py``).
"""

import asyncio
import dataclasses
import gc
import importlib.util
import io
import json
import os
import pathlib
import signal
import types

import numpy as np
import pytest

from repro.apps.executor import run_tiled
from repro.apps.filters import (
    contrast_stretch_inputs,
    gamma_correct_inputs,
    mean_filter_inputs,
)
from repro.apps.images import natural_scene
from repro.core.backend import use_backend
from repro.reram.faults import DEFAULT_FAULT_RATES, GateFaultRates
from repro.serve import (
    BrokenProcessPool,
    Scheduler,
    ServeMetrics,
    ServingClient,
    WorkerPool,
)
from repro.serve.metrics import Gauge, Window
from repro.serve.service import decode_request, encode_response, serve_stdio
from repro.serve.transport import SCENE_PREFIX

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _image(size=6, seed=3):
    return natural_scene(size, size, np.random.default_rng(seed))


def _scene_segments():
    """Names of the live ``/dev/shm`` scene segments."""
    if not os.path.isdir("/dev/shm"):
        pytest.skip("no /dev/shm on this platform")
    return {n for n in os.listdir("/dev/shm") if n.startswith(SCENE_PREFIX)}


def _raw_request(**overrides):
    """A valid stdio run-request object; ``overrides`` mutate it."""
    raw = {"id": 0, "kernel": "gamma_correct",
           "inputs": {"image": _image().tolist()}, "length": 32, "tile": 3,
           "seed": 1, "kernel_kwargs": {"gamma": 0.5}}
    raw.update(overrides)
    return raw


# ----------------------------------------------------------------------
# metric primitives
# ----------------------------------------------------------------------
class TestMetricPrimitives:
    def test_window_percentiles_count_and_sum(self):
        w = Window("w", "h")
        for v in range(1, 101):
            w.observe(v)
        snap = w.snapshot()
        assert snap["count"] == 100
        assert snap["sum"] == pytest.approx(5050.0)
        assert snap["mean"] == pytest.approx(50.5)
        assert snap["max"] == 100.0
        arr = np.arange(1, 101, dtype=np.float64)
        for q in (50, 90, 99):
            assert snap[f"p{q}"] == pytest.approx(np.percentile(arr, q))

    def test_empty_window_snapshots_none_not_nan(self):
        snap = Window("w", "h").snapshot()
        assert snap["count"] == 0 and snap["sum"] == 0.0
        assert all(snap[k] is None
                   for k in ("p50", "p90", "p99", "mean", "max"))
        json.dumps(snap, allow_nan=False)   # must be strict JSON

    def test_window_eviction_keeps_exact_count_and_sum(self):
        w = Window("w", "h", maxlen=4)
        for v in range(10):
            w.observe(v)
        # percentiles cover only the surviving reservoir (6, 7, 8, 9) …
        assert w.percentiles()["p50"] == pytest.approx(7.5)
        # … while count/sum stay exact for the whole lifetime
        assert w.count == 10
        assert w.sum == pytest.approx(sum(range(10)))

    def test_gauge_tracks_high_water_mark(self):
        g = Gauge("g", "h")
        g.inc(3)
        g.dec(2)
        g.inc()
        assert g.value == 2
        assert g.hwm == 3

    def test_render_prometheus_exposition(self):
        m = ServeMetrics()
        m.on_admit()
        m.on_dispatch(queue_wait=0.25)
        m.on_submit(1)
        m.on_tile_done()
        m.on_request_done(True, exec_s=0.5, latency_s=0.75)
        text = m.render_prometheus()
        assert "# TYPE serve_requests_admitted_total counter" in text
        assert "serve_requests_admitted_total 1" in text
        assert "serve_tiles_dispatched_total 1" in text
        assert "serve_tasks_dispatched_total 1" in text
        assert "# TYPE serve_requests_inflight gauge" in text
        assert "serve_requests_inflight_hwm 1" in text
        assert "serve_tasks_inflight 0\n" in text
        assert "serve_tasks_inflight_hwm 1\n" in text
        assert 'serve_latency_seconds{quantile="0.5"} 0.75' in text
        assert "serve_queue_wait_seconds_count 1" in text
        assert text.endswith("\n")

    def test_fresh_snapshot_is_strict_json(self):
        json.dumps(ServeMetrics().snapshot(), allow_nan=False)


# ----------------------------------------------------------------------
# scheduler integration
# ----------------------------------------------------------------------
class TestSchedulerMetrics:
    def test_counters_match_dispatch_log(self):
        img = _image(8, seed=9)
        inputs = mean_filter_inputs(img)

        async def main():
            with WorkerPool(2) as pool:
                scheduler = Scheduler(pool)
                await asyncio.gather(
                    scheduler.submit_app("mean_filter", inputs, 32,
                                         tile=4, seed=1),
                    scheduler.submit_app("mean_filter", inputs, 32,
                                         tile=4, seed=2))
                await scheduler.drain()
                return (list(scheduler.dispatch_log), scheduler.stats(),
                        scheduler.metrics.render_prometheus())

        log, snap, prom = asyncio.run(main())
        # two 8x8 requests at tile=4 -> 4 tiles each, one chunk each
        assert len(log) == 8
        assert snap["tiles"]["dispatched"] == len(log)
        assert snap["tiles"]["completed"] == len(log)
        assert snap["tiles"]["inflight"] == 0
        assert snap["tasks"]["dispatched"] == 2
        # max_inflight (default: pool capacity) bounds tasks, not tiles
        assert 1 <= snap["tasks"]["inflight_hwm"] <= 2
        assert 4 <= snap["tiles"]["inflight_hwm"] <= 2 * 4
        assert snap["requests"]["admitted"] == 2
        assert snap["requests"]["ok"] == 2
        assert snap["requests"]["failed"] == 0
        assert snap["requests"]["inflight"] == 0
        assert 1 <= snap["requests"]["inflight_hwm"] <= 2
        # one queue-wait observation per request (its first dispatch),
        # one exec/latency observation per successful request
        assert snap["queue_wait_s"]["count"] == 2
        assert snap["exec_s"]["count"] == 2
        assert snap["latency_s"]["count"] == 2
        assert snap["latency_s"]["p50"] >= snap["exec_s"]["p50"] >= 0.0
        assert snap["pool_restarts"] == 0
        assert snap["pool"]["capacity"] == 2
        assert snap["pool"]["restarts"] == 0
        json.dumps(snap, allow_nan=False)
        assert "serve_tiles_dispatched_total 8" in prom
        assert "serve_tasks_dispatched_total 2" in prom

    @pytest.mark.parametrize("size,tile,tasks", [
        (8, 4, 1),     # a small_stdio request: 4 tiles of 16 px, one task
        (8, 8, 1),     # one 64 px tile
        (16, 8, 4),    # 64 px tiles: k = 1, one task per tile
        (10, 3, 3),    # 16 tiles of 9 px in chunks of 7/7/2
        (6, 1, 1),     # 36 tiles of 1 px: one chunk of up to 64
        (9, 1, 2),     # 81 tiles of 1 px: 64 + 17
    ])
    def test_tasks_never_exceed_tiles(self, size, tile, tasks):
        inputs = gamma_correct_inputs(_image(size, seed=2))

        async def main():
            with WorkerPool(2) as pool:
                scheduler = Scheduler(pool)
                await scheduler.submit_app("gamma_correct", inputs, 32,
                                           tile=tile, seed=1)
                return list(scheduler.dispatch_log), scheduler.stats()

        log, snap = asyncio.run(main())
        tiles = (-(-size // tile)) ** 2
        assert [t for _, t in log] == list(range(tiles))
        assert snap["tiles"]["dispatched"] == tiles
        assert snap["tasks"]["dispatched"] == tasks <= tiles

    def test_build_rejected_request_is_not_admitted(self):
        img = _image()

        async def main():
            with WorkerPool(1) as pool:
                scheduler = Scheduler(pool)
                with pytest.raises(ValueError, match="fault_sampling"):
                    await scheduler.submit_app(
                        "mean_filter", mean_filter_inputs(img), 32, tile=3,
                        engine_kwargs={"fault_sampling": "bogus"})
                return scheduler.stats()

        snap = asyncio.run(main())
        # rejected during task building: touched neither pool nor metrics
        assert snap["requests"]["admitted"] == 0
        assert snap["requests"]["failed"] == 0
        assert snap["tiles"]["dispatched"] == 0

    def test_cancelled_request_counted_failed_exactly_once(self):
        big = _image(16, seed=1)     # 64 tiles at tile=2
        small = _image(6, seed=2)

        async def main():
            with WorkerPool(2) as pool:
                pool.warmup()
                scheduler = Scheduler(pool)
                t_big = asyncio.ensure_future(scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(big), 64, tile=2,
                    seed=1))
                # cancel as soon as the first chunk is out: a fixed sleep
                # can outlast all four chunks on a fast host
                while not scheduler.dispatch_log and not t_big.done():
                    await asyncio.sleep(0)
                t_big.cancel()
                await scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(small), 32, tile=3,
                    seed=0)
                with pytest.raises(asyncio.CancelledError):
                    await t_big
                await scheduler.drain()
                return scheduler.stats()

        snap = asyncio.run(main())
        assert snap["requests"]["admitted"] == 2
        assert snap["requests"]["ok"] == 1
        assert snap["requests"]["failed"] == 1
        assert snap["requests"]["inflight"] == 0
        # latency/exec windows only record successful requests
        assert snap["latency_s"]["count"] == 1
        assert snap["exec_s"]["count"] == 1

    def test_zero_tile_request_counts_ok(self):
        empty = {"image": np.zeros((1, 0))}

        async def main():
            with WorkerPool(1) as pool:
                scheduler = Scheduler(pool)
                await scheduler.submit_app("gamma_correct", empty, 32,
                                           tile=4,
                                           kernel_kwargs={"gamma": 0.5})
                return scheduler.stats()

        snap = asyncio.run(main())
        assert snap["requests"]["admitted"] == 1
        assert snap["requests"]["ok"] == 1
        assert snap["tiles"]["dispatched"] == 0


# ----------------------------------------------------------------------
# stats round-trips
# ----------------------------------------------------------------------
class TestStatsRoundTrips:
    def test_client_stats_reflects_served_requests(self):
        img = _image(8, seed=4)
        inputs = gamma_correct_inputs(img)
        with ServingClient(jobs=2) as client:
            for seed in (1, 2):
                client.request("gamma_correct", inputs, 32, tile=4,
                               seed=seed, kernel_kwargs={"gamma": 0.5})
            snap = client.stats()
        assert snap["requests"]["admitted"] == 2
        assert snap["requests"]["ok"] == 2
        assert snap["requests"]["failed"] == 0
        assert snap["tiles"]["dispatched"] == 8    # 2 requests x 4 tiles
        assert snap["pool"]["capacity"] == 2
        assert snap["pool"]["restarts"] == 0
        assert snap["pool"]["broken"] is False
        json.dumps(snap, allow_nan=False)

    def test_stats_roundtrip_through_stdio(self):
        # jobs=1 + max_pending=1 force sequential handling, so the stats
        # response deterministically reflects the completed run request.
        run = _raw_request(id="r")
        stats_req = {"id": "s", "type": "stats"}
        stdin = io.StringIO(json.dumps(run) + "\n"
                            + json.dumps(stats_req) + "\n")
        stdout = io.StringIO()
        assert serve_stdio(stdin, stdout, jobs=1, max_pending=1) == 0
        raw = stdout.getvalue()
        assert "NaN" not in raw and "Infinity" not in raw
        got = {r["id"]: r for r in map(json.loads, raw.splitlines())}
        assert got["r"]["ok"] is True
        assert got["s"]["ok"] is True
        snap = got["s"]["stats"]
        assert snap["requests"]["admitted"] == 1
        assert snap["requests"]["ok"] == 1
        assert snap["tiles"]["dispatched"] == 4    # 6x6 scene at tile=3
        assert snap["pool_restarts"] == 0
        assert snap["pool"]["capacity"] == 1

    def test_unknown_request_type_rejected(self):
        stdin = io.StringIO(json.dumps({"id": 1, "type": "bogus"}) + "\n")
        stdout = io.StringIO()
        assert serve_stdio(stdin, stdout, jobs=1) == 0
        resp = json.loads(stdout.getvalue())
        assert resp["id"] == 1
        assert resp["ok"] is False
        assert "bogus" in resp["error"]


# ----------------------------------------------------------------------
# worker death mid-stream
# ----------------------------------------------------------------------
class TestWorkerDeath:
    def test_death_restarts_pool_once_and_survivors_stay_bit_exact(self):
        img = _image(10, seed=5)
        inputs = mean_filter_inputs(img)
        refs = {s: run_tiled("mean_filter", inputs, 48, tile=2, jobs=1,
                             seed=s)[0] for s in range(4)}
        with ServingClient(jobs=2) as client:
            victims = client.pool.worker_pids()
            assert len(victims) == 2   # warmup=True spawned the fleet
            futures = {s: client.submit("mean_filter", inputs, 48, tile=2,
                                        seed=s) for s in range(4)}
            os.kill(victims[0], signal.SIGKILL)
            survivors = {}
            for s, fut in futures.items():
                try:
                    survivors[s] = fut.result(timeout=300)[0]
                except BrokenProcessPool:
                    pass   # in flight at the kill: expected casualty
            # the scheduler respawned the workers; the pool still serves
            post, _ = client.request("mean_filter", inputs, 48, tile=2,
                                     seed=0)
            snap = client.stats()
        np.testing.assert_array_equal(post, refs[0])
        for s, out in survivors.items():
            np.testing.assert_array_equal(out, refs[s])
        assert snap["pool_restarts"] == 1
        assert snap["pool"]["restarts"] == 1
        assert snap["pool"]["broken"] is False
        assert snap["requests"]["ok"] + snap["requests"]["failed"] == 5
        assert snap["requests"]["inflight"] == 0

    def test_mixed_trace_survives_death_without_leaking_segments(self):
        # Four request shapes covering the serving matrix: small and big
        # scenes, both backends, the column cell model and a faulty
        # sparse-sampled engine.
        rng = np.random.default_rng(1234)
        small, big = natural_scene(6, 6, rng), natural_scene(10, 10, rng)
        column = {"cell_model": "column"}
        templates = [
            ("gamma_correct", gamma_correct_inputs(small), column,
             {"gamma": 0.5}, "packed"),
            ("mean_filter", mean_filter_inputs(big), column, {}, "packed"),
            ("contrast_stretch", contrast_stretch_inputs(small), {},
             {"lo": 0.1, "hi": 0.9}, "unpacked"),
            ("mean_filter", mean_filter_inputs(small),
             {"fault_rates": DEFAULT_FAULT_RATES,
              "fault_sampling": "sparse"}, {}, "packed"),
        ]
        trace = [(i % len(templates), i % 8) for i in range(24)]
        refs = {}
        for tidx, seed in set(trace):
            kernel, inputs, engine_kwargs, kernel_kwargs, backend = \
                templates[tidx]
            with use_backend(backend):
                refs[tidx, seed], _ = run_tiled(
                    kernel, inputs, 32, tile=3, jobs=1, seed=seed,
                    engine_kwargs=engine_kwargs,
                    kernel_kwargs=kernel_kwargs)

        gc.collect()   # unlink stores other tests left to the collector
        before = _scene_segments()
        futures = []
        with ServingClient(jobs=2) as client:
            victim = client.pool.worker_pids()[0]
            for i, (tidx, seed) in enumerate(trace):
                if i == len(trace) // 2:
                    os.kill(victim, signal.SIGKILL)
                kernel, inputs, engine_kwargs, kernel_kwargs, backend = \
                    templates[tidx]
                futures.append(client.submit(
                    kernel, inputs, 32, tile=3, seed=seed,
                    engine_kwargs=engine_kwargs,
                    kernel_kwargs=kernel_kwargs, backend=backend))
            survivors = 0
            for key, fut in zip(trace, futures):
                try:
                    out = fut.result(timeout=300)[0]
                except BrokenProcessPool:
                    continue   # in flight at the kill: expected casualty
                np.testing.assert_array_equal(out, refs[key])
                survivors += 1
            restarts = client.pool.restarts
        gc.collect()
        assert survivors > 0
        assert restarts == 1
        assert _scene_segments() <= before


# ----------------------------------------------------------------------
# request decoding strictness
# ----------------------------------------------------------------------
class TestRequestDecoding:
    def test_backend_threads_through(self):
        assert decode_request(_raw_request(backend="packed"))["backend"] \
            == "packed"
        assert decode_request(_raw_request())["backend"] is None

    def test_unknown_keys_rejected_by_name(self):
        with pytest.raises(ValueError) as err:
            decode_request(_raw_request(jobz=2, Backend="packed"))
        assert "'jobz'" in str(err.value)
        assert "'Backend'" in str(err.value)

    @pytest.mark.parametrize("seed", [None, 1.5, True, "7"])
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(ValueError, match="seed"):
            decode_request(_raw_request(seed=seed))

    @pytest.mark.parametrize("key,value", [
        ("length", 3.7), ("length", True), ("length", "64"),
        ("length", None), ("length", 0), ("length", -5),
        ("tile", 2.9), ("tile", True), ("tile", "2"), ("tile", 0),
    ])
    def test_length_and_tile_are_strict_positive_integers(self, key,
                                                          value):
        # no coercion (3.7 -> 3, true -> 1, "64" -> 64) and no length 0
        # reaching the engine: rejected at the front door, by name
        with pytest.raises(ValueError, match=f"^{key} must be"):
            decode_request(_raw_request(**{key: value}))

    def test_non_string_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            decode_request(_raw_request(backend=3))

    def test_fault_rates_object_decodes_to_dataclass(self):
        raw = _raw_request(engine_kwargs={
            "fault_rates": dataclasses.asdict(DEFAULT_FAULT_RATES)})
        decoded = decode_request(raw)["engine_kwargs"]["fault_rates"]
        assert isinstance(decoded, GateFaultRates)
        assert decoded == DEFAULT_FAULT_RATES

    def test_bad_fault_rates_field_rejected(self):
        raw = _raw_request(engine_kwargs={"fault_rates": {"nand9": 0.1}})
        with pytest.raises(ValueError, match="fault_rates"):
            decode_request(raw)

    def test_stdio_backend_pins_request_backend(self):
        img = _image(6, seed=8)
        inputs = gamma_correct_inputs(img)
        refs = {}
        for backend in ("unpacked", "packed"):
            with use_backend(backend):
                refs[backend], _ = run_tiled(
                    "gamma_correct", inputs, 32, tile=3, jobs=1, seed=2,
                    kernel_kwargs={"gamma": 0.5})
        base = {"kernel": "gamma_correct",
                "inputs": {"image": img.tolist()}, "length": 32, "tile": 3,
                "seed": 2, "kernel_kwargs": {"gamma": 0.5}}
        requests = [dict(base, id="u", backend="unpacked"),
                    dict(base, id="p", backend="packed"),
                    dict(base, id="x", backend="nope")]
        stdin = io.StringIO("\n".join(map(json.dumps, requests)) + "\n")
        stdout = io.StringIO()
        assert serve_stdio(stdin, stdout, jobs=2) == 0
        got = {r["id"]: r
               for r in map(json.loads, stdout.getvalue().splitlines())}
        # pre-fix behaviour silently dropped "backend"; now it must pin
        # the execution backend (and an unknown name must fail loudly)
        assert got["u"]["ok"] is True and got["p"]["ok"] is True
        np.testing.assert_array_equal(np.array(got["u"]["output"]),
                                      refs["unpacked"])
        np.testing.assert_array_equal(np.array(got["p"]["output"]),
                                      refs["packed"])
        assert got["x"]["ok"] is False and "nope" in got["x"]["error"]


# ----------------------------------------------------------------------
# response encoding strictness
# ----------------------------------------------------------------------
class TestStrictEncoding:
    def test_nonfinite_values_become_null_and_counted(self):
        ledger = types.SimpleNamespace(energy_j=float("nan"),
                                       latency_s=float("inf"))
        img = np.array([[1.0, np.nan], [np.inf, 2.0]])
        line = encode_response(7, img, ledger)
        assert "NaN" not in line and "Infinity" not in line
        payload = json.loads(line)   # strict by default: literals explode
        assert payload["ok"] is True
        assert payload["nonfinite"] == 4
        assert payload["output"][0] == [1.0, None]
        assert payload["output"][1] == [None, 2.0]
        assert payload["energy_j"] is None
        assert payload["latency_s"] is None

    def test_finite_response_has_no_nonfinite_field(self):
        ledger = types.SimpleNamespace(energy_j=1.5e-9, latency_s=2.5e-6)
        payload = json.loads(encode_response(1, np.ones((2, 2)), ledger))
        assert "nonfinite" not in payload
        assert payload["output"] == [[1.0, 1.0], [1.0, 1.0]]


# ----------------------------------------------------------------------
# warmup barrier
# ----------------------------------------------------------------------
class TestWarmupBarrier:
    def test_warmup_returns_every_worker_pid(self):
        with WorkerPool(3) as pool:
            warmed = pool.warmup()
            assert len(warmed) == 3
            assert warmed == set(pool.worker_pids())


# ----------------------------------------------------------------------
# BENCH_*.json record schema (benchmarks/records.py)
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def records():
    """The record schema module; benchmarks/ is not a package, so load it
    by path."""
    spec = importlib.util.spec_from_file_location(
        "records", ROOT / "benchmarks" / "records.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestBenchRecords:
    def test_write_load_roundtrip_coerces_numpy(self, records, tmp_path):
        path = tmp_path / "BENCH_x.json"
        records.write_bench_record(path, "x",
                                   config={"jobs": np.int64(4)},
                                   results={"speedup": np.float64(2.5),
                                            "curve": np.arange(3.0)})
        record = records.load_bench_record(path)
        assert record["schema"] == records.BENCH_SCHEMA_VERSION
        assert record["config"]["jobs"] == 4
        assert record["results"]["speedup"] == 2.5
        assert record["results"]["curve"] == [0.0, 1.0, 2.0]

    @pytest.mark.parametrize("mutate, match", [
        (lambda r: r.pop("utc"), "missing"),
        (lambda r: r.__setitem__("schema", 99), "schema"),
        (lambda r: r.__setitem__("bench", "No Caps!"), "bench name"),
        (lambda r: r.__setitem__("utc", "yesterday"), "timestamp"),
        (lambda r: r.__setitem__("config", [1, 2]), "config"),
        (lambda r: r["results"].__setitem__("x", float("nan")),
         "strict JSON"),
    ])
    def test_validator_rejects_malformed_records(self, records, mutate,
                                                match):
        record = records.bench_record("ok", {"a": 1}, {"b": 2.0})
        mutate(record)
        with pytest.raises(ValueError, match=match):
            records.validate_bench_record(record)

    def test_nan_result_fails_at_write_time(self, records, tmp_path):
        with pytest.raises(ValueError, match="strict JSON"):
            records.write_bench_record(tmp_path / "BENCH_bad.json", "bad",
                                       config={},
                                       results={"x": float("nan")})

    def test_existing_root_records_are_schema_valid(self, records):
        # run_report.py fails loudly on a malformed trajectory record;
        # this pins the same property in tier 1 for whatever records the
        # working tree currently holds.
        for path in sorted(ROOT.glob("BENCH_*.json")):
            record = records.load_bench_record(path)
            assert record["bench"]
