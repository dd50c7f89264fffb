"""Serving-layer suite: determinism, fairness, crash containment, contexts.

Covers the contracts of :mod:`repro.serve`:

* a served request is bit-identical to ``run_tiled(jobs=1)`` with the same
  arguments — alone, concurrent with other requests (mixed kernels,
  lengths, engine kwargs, fault configs and backends in flight at once,
  on either side of every chunk boundary), or through the resident
  ``pool=`` batch path;
* the scheduler dispatches chunks of tiles fair round-robin, so small
  requests are not starved by big ones;
* a failing request (bad kwargs, raising task — also one tile in the
  middle of a chunk — or a task that kills its worker) fails alone and
  never poisons the resident pool;
* the executor's fork/spawn-identical claim is enforced with an explicit
  ``mp_context`` (spawn regression for ``run_tiled`` jobs-invariance).
"""

import asyncio
import io
import json
import multiprocessing
import os
import signal
import time

import numpy as np
import pytest

from repro.apps.executor import KERNELS, run_tiled
from repro.apps.filters import gamma_correct_inputs, mean_filter_inputs
from repro.apps.images import natural_scene
from repro.core.backend import use_backend
from repro.reram.faults import DEFAULT_FAULT_RATES
from repro.serve import (
    BrokenProcessPool,
    Scheduler,
    ServingClient,
    WorkerPool,
)
from repro.serve.service import serve_stdio

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="test kernels are registered in-process and reach "
                         "the workers only under the fork start method")


def _image(size=12, seed=3):
    return natural_scene(size, size, np.random.default_rng(seed))


#: (image size, tile) geometries on either side of the scheduler's chunk
#: boundaries (``CHUNK_PIXELS = 64`` px per pool task): tiles of 36 and 64
#: px travel one per task (k = 1); 8x8 at tile 4 is one full chunk of 4
#: tiles; 10x10 at tile 3 is 16 tiles in chunks of 7, 7 and a ragged 2.
CHUNK_GEOMETRIES = ((12, 6), (16, 8), (8, 4), (10, 3))


#: (kernel, inputs, length, kwargs) triplets exercising mixed kernels,
#: lengths, engine axes and fault configs in flight at once.
def _mixed_requests(size=12):
    img = _image(size)
    return [
        ("gamma_correct", gamma_correct_inputs(img), 32,
         dict(seed=1, kernel_kwargs={"gamma": 0.5})),
        ("mean_filter", mean_filter_inputs(img), 64,
         dict(seed=2, engine_kwargs={"cell_model": "column"})),
        ("matting", {"composite": img, "background": img * 0.5,
                     "foreground": np.clip(img + 0.1, 0.0, 1.0)}, 32,
         dict(seed=3)),
        ("gamma_correct", gamma_correct_inputs(img), 32,
         dict(seed=4, kernel_kwargs={"gamma": 2.0})),
        ("gamma_correct", gamma_correct_inputs(img), 48,
         dict(seed=5, kernel_kwargs={"gamma": 0.5}, engine_kwargs={
             "fault_rates": DEFAULT_FAULT_RATES,
             "fault_sampling": "sparse"})),
    ]


# ----------------------------------------------------------------------
# test kernels (module-level: picklable; reach workers via fork)
# ----------------------------------------------------------------------
def _boom_kernel(engine, image, length):
    raise RuntimeError("boom tile")


def _exit_kernel(engine, image, length):
    os._exit(13)   # hard worker death, not an exception


def _pid_task(_):
    time.sleep(0.005)   # let both workers participate in a map
    return os.getpid()


# ----------------------------------------------------------------------
# WorkerPool
# ----------------------------------------------------------------------
class TestWorkerPool:
    def test_workers_stay_resident_across_maps(self):
        # One-shot pools would show up to four distinct worker PIDs over
        # two maps; a resident pool can only ever show its two.
        with WorkerPool(2) as pool:
            pool.warmup()
            first = set(pool.map(_pid_task, range(8)))
            second = set(pool.map(_pid_task, range(8)))
        assert 1 <= len(first | second) <= 2

    def test_capacity_start_method_and_close(self):
        pool = WorkerPool(3, mp_context="spawn" if not HAS_FORK else "fork")
        assert pool.capacity == 3
        assert pool.start_method in ("fork", "spawn", "forkserver")
        assert not pool.closed
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(_pid_task, 0)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError, match="jobs"):
            WorkerPool(0)

    def test_task_exception_does_not_break_pool(self):
        with WorkerPool(2) as pool:
            pool.warmup()
            before = set(pool.map(_pid_task, range(8)))
            with pytest.raises(ZeroDivisionError):
                pool.map(_div_by_zero, [0])
            assert not pool.broken
            after = set(pool.map(_pid_task, range(8)))
            assert 1 <= len(before | after) <= 2   # same resident workers

    @needs_fork
    def test_restart_after_worker_death(self):
        with WorkerPool(2, mp_context="fork") as pool:
            pool.warmup()
            with pytest.raises(BrokenProcessPool):
                pool.map(_kill_self, [0])
            assert pool.broken
            pool.restart()
            assert not pool.broken
            assert len(set(pool.map(_pid_task, range(4)))) >= 1

    @needs_fork
    def test_stale_failure_after_restart_keeps_fresh_pool_healthy(self):
        # A dead executor fails its in-flight futures from its own
        # thread, possibly after restart() replaced it; that late failure
        # must not flag the fresh workers broken (a second restart).
        with WorkerPool(1, mp_context="fork") as pool:
            (old_pid,) = pool.warmup()
            stale = pool.submit(time.sleep, 30)
            time.sleep(0.3)   # let the worker pick the task up
            pool.restart()
            os.kill(old_pid, signal.SIGKILL)
            with pytest.raises(BrokenProcessPool):
                stale.result(timeout=60)
            assert not pool.broken
            assert pool.map(abs, [-3]) == [3]
            assert pool.restarts == 1

    def test_pool_map_over_resident_pool_matches_one_shot(self):
        img = _image()
        inputs = gamma_correct_inputs(img)
        base, led1 = run_tiled("gamma_correct", inputs, 32, tile=6, jobs=1,
                               seed=9, kernel_kwargs={"gamma": 0.5})
        with WorkerPool(2) as pool:
            res, led2 = run_tiled("gamma_correct", inputs, 32, tile=6,
                                  seed=9, kernel_kwargs={"gamma": 0.5},
                                  pool=pool)
        np.testing.assert_array_equal(base, res)
        assert led2.energy_j == pytest.approx(led1.energy_j)


def _div_by_zero(_):
    return 1 // 0


def _kill_self(_):
    os._exit(13)


# ----------------------------------------------------------------------
# spawn-context regression (executor claims fork/spawn-identical output)
# ----------------------------------------------------------------------
class TestStartMethodInvariance:
    def test_run_tiled_spawn_matches_in_process(self):
        img = _image(10, seed=8)
        inputs = mean_filter_inputs(img)
        base, _ = run_tiled("mean_filter", inputs, 32, tile=5, jobs=1,
                            seed=6)
        fan, _ = run_tiled("mean_filter", inputs, 32, tile=5, jobs=2,
                           seed=6, mp_context="spawn")
        np.testing.assert_array_equal(base, fan)

    @needs_fork
    def test_fork_and_spawn_pools_agree(self):
        img = _image(10, seed=8)
        inputs = gamma_correct_inputs(img)
        kwargs = dict(tile=5, seed=2, kernel_kwargs={"gamma": 0.7})
        with WorkerPool(2, mp_context="fork") as pool:
            forked, _ = run_tiled("gamma_correct", inputs, 32, pool=pool,
                                  **kwargs)
        with WorkerPool(2, mp_context="spawn") as pool:
            spawned, _ = run_tiled("gamma_correct", inputs, 32, pool=pool,
                                   **kwargs)
        np.testing.assert_array_equal(forked, spawned)


# ----------------------------------------------------------------------
# Scheduler: determinism of served output
# ----------------------------------------------------------------------
class TestServingDeterminism:
    @pytest.mark.parametrize("backend", ("unpacked", "packed"))
    def test_concurrent_serving_bit_identical_to_run_tiled(self, backend):
        # Every geometry of CHUNK_GEOMETRIES, all in flight at once.
        with use_backend(backend):
            requests = [(kernel, inputs, length, dict(kw, tile=tile))
                        for size, tile in CHUNK_GEOMETRIES
                        for kernel, inputs, length, kw
                        in _mixed_requests(size)]
            refs = [run_tiled(kernel, inputs, length, jobs=1, **kw)
                    for kernel, inputs, length, kw in requests]

            async def serve_all():
                with WorkerPool(2, backend=backend) as pool:
                    scheduler = Scheduler(pool)
                    return await asyncio.gather(*[
                        scheduler.submit_app(kernel, inputs, length, **kw)
                        for kernel, inputs, length, kw in requests])

            served = asyncio.run(serve_all())
        for (ref_img, ref_led), (out_img, out_led) in zip(refs, served):
            np.testing.assert_array_equal(ref_img, out_img)
            assert out_led.energy_j == pytest.approx(ref_led.energy_j)
            assert out_led.latency_s == pytest.approx(ref_led.latency_s)

    def test_mixed_backends_in_flight_at_once(self):
        # Requests built under different backends carry their backend name
        # and may share one resident pool concurrently.
        img = _image()
        with use_backend("unpacked"):
            req_u = run_tiled("gamma_correct", gamma_correct_inputs(img),
                              32, tile=6, jobs=1, seed=5,
                              kernel_kwargs={"gamma": 0.5})
        with use_backend("packed"):
            req_p = run_tiled("gamma_correct", gamma_correct_inputs(img),
                              32, tile=6, jobs=1, seed=5,
                              kernel_kwargs={"gamma": 0.5})

        with ServingClient(jobs=2) as client:
            with use_backend("unpacked"):
                fut_u = client.submit("gamma_correct",
                                      gamma_correct_inputs(img), 32,
                                      tile=6, seed=5,
                                      kernel_kwargs={"gamma": 0.5})
            with use_backend("packed"):
                fut_p = client.submit("gamma_correct",
                                      gamma_correct_inputs(img), 32,
                                      tile=6, seed=5,
                                      kernel_kwargs={"gamma": 0.5})
            out_u, _ = fut_u.result()
            out_p, _ = fut_p.result()
        np.testing.assert_array_equal(req_u[0], out_u)
        np.testing.assert_array_equal(req_p[0], out_p)
        # and the two backends agree with each other (conformance)
        np.testing.assert_array_equal(out_u, out_p)

    def test_zero_tile_request_resolves_immediately(self):
        # A zero-area scene yields an empty tile grid; the served request
        # must resolve like run_tiled does, not await a callback that
        # never fires.
        empty = {"image": np.zeros((1, 0))}
        kw = dict(tile=4, kernel_kwargs={"gamma": 0.5})
        ref, _ = run_tiled("gamma_correct", empty, 32, jobs=1, **kw)

        async def main():
            with WorkerPool(1) as pool:
                scheduler = Scheduler(pool)
                return await asyncio.wait_for(
                    scheduler.submit_app("gamma_correct", empty, 32, **kw),
                    timeout=30)

        out, _ = asyncio.run(main())
        assert out.shape == ref.shape == (1, 0)

    def test_submit_detaches_from_caller_buffers(self):
        # tile >= width makes the row-band slices ravel to views; the
        # submit path must snapshot them so a caller recycling its buffer
        # after submit() cannot corrupt an in-flight request.
        img = _image(8, seed=7)
        inputs = mean_filter_inputs(img)
        ref, _ = run_tiled("mean_filter", inputs, 32, tile=8, jobs=1,
                           seed=1)
        with ServingClient(jobs=2) as client:
            recycled = {k: v.copy() for k, v in inputs.items()}
            fut = client.submit("mean_filter", recycled, 32, tile=8,
                                seed=1)
            for v in recycled.values():   # immediately scribble over it
                v[:] = 0.0
            out, _ = fut.result()
        np.testing.assert_array_equal(ref, out)

    def test_close_drains_inflight_requests(self):
        # Closing the client with requests still executing must resolve
        # their futures (drain), not strand them on a dead loop.
        img = _image(10, seed=6)
        inputs = mean_filter_inputs(img)
        client = ServingClient(jobs=2)
        futures = [client.submit("mean_filter", inputs, 64, tile=2,
                                 seed=s) for s in (1, 2)]
        client.close()
        ref, _ = run_tiled("mean_filter", inputs, 64, tile=2, jobs=1,
                           seed=1)
        out, _ = futures[0].result(timeout=30)
        np.testing.assert_array_equal(ref, out)
        assert futures[1].done()

    def test_serving_faulty_sparse_matches_batch(self):
        from repro.reram.faults import DEFAULT_FAULT_RATES
        img = _image(8, seed=4)
        kwargs = dict(seed=11, engine_kwargs={
            "fault_rates": DEFAULT_FAULT_RATES,
            "fault_sampling": "sparse"})
        ref, _ = run_tiled("mean_filter", mean_filter_inputs(img), 32,
                           tile=4, jobs=1, **kwargs)
        with ServingClient(jobs=2) as client:
            out, _ = client.request("mean_filter", mean_filter_inputs(img),
                                    32, tile=4, **kwargs)
        np.testing.assert_array_equal(ref, out)


# ----------------------------------------------------------------------
# Scheduler: fairness
# ----------------------------------------------------------------------
class TestServingFairness:
    def test_round_robin_interleaves_and_small_finishes_first(self):
        # tile=2 -> chunks of CHUNK_PIXELS // 4 = 16 tiles
        big_img = _image(16, seed=1)     # 64 tiles: 4 chunks
        small_img = _image(4, seed=2)    # 4 tiles: 1 chunk

        async def main():
            with WorkerPool(2) as pool:
                pool.warmup()
                scheduler = Scheduler(pool)
                t_big = asyncio.ensure_future(scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(big_img), 64,
                    tile=2, seed=1))
                await asyncio.sleep(0)   # admit big first
                t_small = asyncio.ensure_future(scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(small_img), 64,
                    tile=2, seed=2))
                await asyncio.gather(t_big, t_small)
                return scheduler.dispatch_log

        log = asyncio.run(main())
        assert len(log) == 64 + 4
        big_id = log[0][0]
        small_positions = [i for i, (rid, _) in enumerate(log)
                           if rid != big_id]
        big_positions = [i for i, (rid, _) in enumerate(log)
                         if rid == big_id]
        assert len(small_positions) == 4
        # The small request is not starved: its one chunk dispatches
        # before the big request's last chunk (tiles 48-63), with big
        # chunks on both sides of it (chunks alternate while both are
        # active).  A chunk's tiles are logged contiguously.
        assert small_positions == list(range(small_positions[0],
                                             small_positions[0] + 4))
        big_last_chunk = log.index((big_id, 48))
        assert big_positions[0] < small_positions[0]
        assert small_positions[-1] < big_last_chunk

    def test_dispatch_order_is_deterministic(self):
        img = _image(8, seed=9)

        async def main():
            with WorkerPool(2) as pool:
                scheduler = Scheduler(pool)
                await asyncio.gather(
                    scheduler.submit_app("mean_filter",
                                         mean_filter_inputs(img), 32,
                                         tile=4, seed=1),
                    scheduler.submit_app("mean_filter",
                                         mean_filter_inputs(img), 32,
                                         tile=4, seed=2))
                return scheduler.dispatch_log

        assert asyncio.run(main()) == asyncio.run(main())


# ----------------------------------------------------------------------
# Scheduler: failure containment
# ----------------------------------------------------------------------
class TestServingFailures:
    def test_invalid_request_fails_before_touching_pool(self):
        img = _image(6)

        async def main():
            with WorkerPool(1) as pool:
                scheduler = Scheduler(pool)
                with pytest.raises(ValueError, match="fault_sampling"):
                    await scheduler.submit_app(
                        "mean_filter", mean_filter_inputs(img), 32, tile=3,
                        engine_kwargs={"fault_sampling": "bogus"})
                assert not scheduler.dispatch_log
                # the pool is untouched and still serves
                out, _ = await scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(img), 32, tile=3,
                    seed=0)
                return out

        ref, _ = run_tiled("mean_filter", mean_filter_inputs(img), 32,
                           tile=3, jobs=1, seed=0)
        np.testing.assert_array_equal(asyncio.run(main()), ref)

    def test_cancelled_request_stops_dispatching_and_frees_pool(self):
        big_img = _image(16, seed=3)     # 64 tiles at tile=2: 4 chunks
        small_img = _image(6, seed=4)

        async def main():
            with WorkerPool(2) as pool:
                pool.warmup()
                scheduler = Scheduler(pool)
                big = asyncio.ensure_future(scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(big_img), 128,
                    tile=2, seed=1))
                # cancel as soon as the first chunk is out: a fixed sleep
                # can outlast all four chunks on a fast host
                while not scheduler.dispatch_log and not big.done():
                    await asyncio.sleep(0)
                big.cancel()
                # pool slots are freed and later requests still serve
                out, _ = await scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(small_img), 32,
                    tile=3, seed=0)
                with pytest.raises(asyncio.CancelledError):
                    await big
                big_id = scheduler.dispatch_log[0][0]
                dispatched = [t for rid, t in scheduler.dispatch_log
                              if rid == big_id]
                # abandoned, not run to end: whole chunks of 16 tiles
                # stop dispatching once the cancel is seen
                assert len(dispatched) < 64
                assert len(dispatched) % 16 == 0
                return out

        ref, _ = run_tiled("mean_filter", mean_filter_inputs(small_img),
                           32, tile=3, jobs=1, seed=0)
        np.testing.assert_array_equal(asyncio.run(main()), ref)

    @needs_fork
    def test_raising_tile_fails_request_not_pool(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "_boom", _boom_kernel)
        img = _image(6)

        async def main():
            with WorkerPool(2, mp_context="fork") as pool:
                pool.warmup()
                pids = set(pool.map(_pid_task, range(8)))
                scheduler = Scheduler(pool)
                good = asyncio.ensure_future(scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(img), 32, tile=3,
                    seed=0))
                with pytest.raises(RuntimeError, match="boom tile"):
                    await scheduler.submit_app("_boom", {"image": img}, 32,
                                               tile=3, seed=1)
                out, _ = await good
                assert not pool.broken
                # same resident workers, still serving
                assert set(pool.map(_pid_task, range(8))) <= pids
                return out

        ref, _ = run_tiled("mean_filter", mean_filter_inputs(img), 32,
                           tile=3, jobs=1, seed=0)
        np.testing.assert_array_equal(asyncio.run(main()), ref)

    def test_raising_tile_mid_chunk_fails_only_its_request(self):
        # 8x8 at tile 4 ships as one chunk of 4 tiles; an out-of-range
        # pixel in tile 2 makes that tile's generate raise in the worker.
        img = _image(8, seed=5)
        bad = img.copy()
        bad[5, 2] = 1.5
        kw = dict(tile=4, kernel_kwargs={"gamma": 0.5})

        async def main():
            with WorkerPool(2) as pool:
                pool.warmup()
                scheduler = Scheduler(pool)
                good = [asyncio.ensure_future(scheduler.submit_app(
                    "gamma_correct", {"image": img}, 32, seed=s, **kw))
                    for s in (1, 2)]
                with pytest.raises(ValueError, match=r"\[0\.0, 1\.0\]"):
                    await scheduler.submit_app(
                        "gamma_correct", {"image": bad}, 32, seed=3, **kw)
                outs = [out for out, _ in await asyncio.gather(*good)]
                assert not pool.broken
                assert pool.restarts == 0
                # the resident pool still serves
                outs.append((await scheduler.submit_app(
                    "gamma_correct", {"image": img}, 32, seed=4, **kw))[0])
                snap = scheduler.stats()
                assert snap["requests"]["ok"] == 3
                assert snap["requests"]["failed"] == 1
                return outs

        outs = asyncio.run(main())
        for seed, out in zip((1, 2, 4), outs):
            ref, _ = run_tiled("gamma_correct", {"image": img}, 32, jobs=1,
                               seed=seed, **kw)
            np.testing.assert_array_equal(out, ref)

    @needs_fork
    def test_worker_death_fails_request_pool_respawns(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "_exit", _exit_kernel)
        img = _image(6)

        async def main():
            with WorkerPool(2, mp_context="fork") as pool:
                scheduler = Scheduler(pool)
                with pytest.raises(BrokenProcessPool):
                    await scheduler.submit_app("_exit", {"image": img}, 32,
                                               tile=3, seed=1)
                # the scheduler respawned the workers; new requests serve
                out, _ = await scheduler.submit_app(
                    "mean_filter", mean_filter_inputs(img), 32, tile=3,
                    seed=0)
                return out

        ref, _ = run_tiled("mean_filter", mean_filter_inputs(img), 32,
                           tile=3, jobs=1, seed=0)
        np.testing.assert_array_equal(asyncio.run(main()), ref)


# ----------------------------------------------------------------------
# stdio service protocol
# ----------------------------------------------------------------------
class TestStdioService:
    def test_serves_and_contains_errors(self):
        img = _image(8, seed=2)
        requests = [
            {"id": "a", "kernel": "gamma_correct",
             "inputs": {"image": img.tolist()}, "length": 32, "tile": 4,
             "seed": 3, "kernel_kwargs": {"gamma": 0.5}},
            {"id": "b", "kernel": "gamma_correct",
             "inputs": {"image": img.tolist()}, "length": 32, "tile": 4,
             "seed": 3, "kernel_kwargs": {"gamma": -1, "bogus": True}},
            {"id": "c", "kernel": "nope",
             "inputs": {"image": img.tolist()}, "length": 32, "tile": 4},
            # structurally invalid (missing "length") — the error response
            # must still echo this id so a pipelining client can match it
            {"id": "d", "kernel": "gamma_correct",
             "inputs": {"image": img.tolist()}, "tile": 4},
        ]
        stdin = io.StringIO("\n".join(json.dumps(r) for r in requests)
                            + "\n\n")
        stdout = io.StringIO()
        assert serve_stdio(stdin, stdout, jobs=2) == 0
        got = {r["id"]: r
               for r in map(json.loads, stdout.getvalue().splitlines())}
        assert set(got) == {"a", "b", "c", "d"}
        assert got["b"]["ok"] is False and "bogus" in got["b"]["error"]
        assert got["c"]["ok"] is False and "nope" in got["c"]["error"]
        assert got["d"]["ok"] is False and "length" in got["d"]["error"]
        ref, ledger = run_tiled("gamma_correct", gamma_correct_inputs(img),
                                32, tile=4, jobs=1, seed=3,
                                kernel_kwargs={"gamma": 0.5})
        assert got["a"]["ok"] is True
        np.testing.assert_array_equal(np.array(got["a"]["output"]), ref)
        assert got["a"]["energy_j"] == pytest.approx(ledger.energy_j)

    def test_rejects_malformed_requests(self):
        stdin = io.StringIO('{"kernel": "mean_filter"}\n[1, 2]\nnot json\n')
        stdout = io.StringIO()
        assert serve_stdio(stdin, stdout, jobs=1) == 0
        responses = list(map(json.loads, stdout.getvalue().splitlines()))
        assert len(responses) == 3
        assert all(r["ok"] is False for r in responses)
