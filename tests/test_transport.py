"""Shared-memory scene transport: identity, caching, hygiene, fast paths.

Covers the contracts of :mod:`repro.serve.transport` and the satellites
that ride with it:

* the content-addressed :class:`SceneStore` — publish/hit/release
  refcounting, ``put_scene`` pins, LRU eviction, close-is-final;
* shm-reference transport is **bit-identical** to ``run_tiled(jobs=1)``,
  including through the scheduler and scene handles;
* shared-memory **hygiene**: no orphaned ``/dev/shm`` segments and no
  ``resource_tracker`` noise after normal shutdown, after a cancelled
  request, and after a SIGKILL'd worker mid-request;
* the cached ``_validate_task_kwargs`` introspection probes a throwaway
  engine once per distinct engine-kwargs combination (and never caches
  failures);
* the sparse fault scatter short-circuits a zero-site draw at every
  layer (engine, ``Bitstream.flip_at``, backend ``scatter_flip``)
  without touching the payload.
"""

import asyncio
import gc
import multiprocessing
import os
import pickle
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import config
from repro.apps import executor
from repro.apps.executor import KERNELS, run_tiled
from repro.apps.filters import gamma_correct_inputs
from repro.apps.images import natural_scene
from repro.core.backend import get_backend, use_backend
from repro.core.bitstream import Bitstream
from repro.imsc.engine import InMemorySCEngine
from repro.serve import SceneStore, Scheduler, ServingClient, WorkerPool
from repro.serve.transport import SCENE_PREFIX, fetch_tile, scene_digest

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not HAS_FORK, reason="test kernels are registered in-process and reach "
                         "the workers only under the fork start method")


@pytest.fixture(autouse=True)
def _collect_stray_stores():
    """Schedulers left to the garbage collector by other test modules
    unlink their scene store through a ``weakref.finalize`` callback; run
    the collector first so the ``/dev/shm`` census below only ever sees
    segments created by the current test."""
    gc.collect()
    yield


def _image(size=12, seed=3):
    return natural_scene(size, size, np.random.default_rng(seed))


def _my_segments():
    """Live /dev/shm scene segments created by *this* process."""
    shm_dir = "/dev/shm"
    if not os.path.isdir(shm_dir):
        pytest.skip("no /dev/shm on this platform")
    tag = f"-{os.getpid()}-"
    return sorted(n for n in os.listdir(shm_dir)
                  if n.startswith(SCENE_PREFIX) and tag in n)


# ----------------------------------------------------------------------
# SceneStore: content addressing + refcounted lifetime
# ----------------------------------------------------------------------
class TestSceneStore:
    def test_digest_is_order_invariant_and_content_sensitive(self):
        a = np.arange(6.0).reshape(2, 3)
        b = np.ones((2, 3))
        d1 = scene_digest({"x": a, "y": b})
        d2 = scene_digest({"y": b, "x": a})
        assert d1 == d2
        assert scene_digest({"x": a + 1, "y": b}) != d1
        assert scene_digest({"z": a, "y": b}) != d1

    def test_publish_hit_release_unlink(self):
        inputs = {"image": _image(8)}
        with SceneStore(max_cached_scenes=0) as store:
            t1 = store.publish(inputs)
            assert not t1.hit and t1.bytes_shipped == inputs["image"].nbytes
            assert len(_my_segments()) == 1
            t2 = store.publish(inputs)
            assert t2.hit and t2.bytes_shipped == 0
            assert t2.digest == t1.digest
            store.release(t1.digest)
            assert store.resident == 1   # t2's ref still holds it
            store.release(t2.digest)
            assert store.resident == 0
            assert _my_segments() == []
        assert _my_segments() == []

    def test_cache_keeps_idle_scene_resident_for_next_request(self):
        inputs = {"image": _image(8)}
        with SceneStore() as store:
            t1 = store.publish(inputs)
            store.release(t1.digest)
            assert store.resident == 1   # cached across requests
            t2 = store.publish(inputs)
            assert t2.hit
            store.release(t2.digest)
        assert _my_segments() == []

    def test_lru_eviction_only_touches_idle_scenes(self):
        with SceneStore(max_cached_scenes=1) as store:
            busy = store.publish({"image": _image(8, seed=1)})   # ref held
            idle = store.publish({"image": _image(8, seed=2)})
            store.release(idle.digest)
            store.release(store.publish({"image": _image(8, seed=3)}).digest)
            # the idle seed=2 scene was evicted; the busy one survives
            assert store.resident == 2
            with pytest.raises(KeyError, match="unknown or expired"):
                store.checkout(idle.digest)
            store.checkout(busy.digest)
            store.release(busy.digest)
            store.release(busy.digest)

    def test_pin_survives_eviction_until_unpin(self):
        inputs = {"image": _image(8)}
        with SceneStore(max_cached_scenes=0) as store:
            digest = store.pin(inputs).digest
            assert store.resident == 1
            ref, shape = store.checkout(digest)
            assert shape == inputs["image"].shape
            assert [f[0] for f in ref.fields] == ["image"]
            store.release(digest)
            assert store.resident == 1   # the pin holds it
            store.unpin(digest)
            assert store.resident == 0
        assert _my_segments() == []

    @pytest.mark.parametrize("inputs", [
        {"image": np.arange(5.0)},                          # 1-D
        {"image": np.zeros((2, 2, 2))},                     # 3-D
        {"image": np.zeros((2, 2)), "aux": np.zeros((2, 3))},
        {},
    ])
    def test_unusable_scene_rejected_before_publish(self, inputs):
        with SceneStore() as store:
            with pytest.raises(ValueError, match="one 2-D shape"):
                store.pin(inputs)
            assert store.stats()["resident"] == 0
        assert _my_segments() == []

    def test_close_is_final_and_idempotent(self):
        store = SceneStore()
        store.publish({"image": _image(8)})
        store.close()
        store.close()
        assert _my_segments() == []
        with pytest.raises(RuntimeError, match="closed"):
            store.publish({"image": _image(8)})

    def test_dropped_store_unlinks_via_finalizer(self):
        store = SceneStore()
        store.publish({"image": _image(8)})
        assert len(_my_segments()) == 1
        del store
        import gc
        gc.collect()
        assert _my_segments() == []

    @pytest.mark.parametrize("kind", ("dict", "SceneRef"))
    def test_fetch_tile_matches_parent_side_slice(self, kind):
        img = _image(10)
        aux = img * 0.5
        inputs = {"image": img, "aux": aux}
        with SceneStore() as store:
            t = store.publish(inputs)
            scene = inputs if kind == "dict" else t.ref
            window = (2, 7, 1, 9)
            got = fetch_tile(scene, window)
            np.testing.assert_array_equal(
                got["image"], img[2:7, 1:9].copy().ravel())
            np.testing.assert_array_equal(
                got["aux"], aux[2:7, 1:9].copy().ravel())
            # copies, not views: mutating the result is kernel-safe
            got["image"][:] = -1.0
            np.testing.assert_array_equal(
                fetch_tile(scene, window)["image"], img[2:7, 1:9].ravel())
            # a full-width window ravels a copy too, never the caller's
            # (or the shared) buffer
            full = fetch_tile(scene, (0, 4, 0, 10))["image"]
            assert not np.shares_memory(full, img)
            store.release(t.digest)


# ----------------------------------------------------------------------
# bit-identity: shm transport == run_tiled(jobs=1)
# ----------------------------------------------------------------------
class TestTransportIdentity:
    @pytest.mark.parametrize("backend", ("unpacked", "packed"))
    def test_run_tiled_scene_store_matches_in_process(self, backend):
        img = _image(10, seed=8)
        inputs = gamma_correct_inputs(img)
        kwargs = dict(tile=4, seed=6, kernel_kwargs={"gamma": 0.5})
        with use_backend(backend):
            base, led1 = run_tiled("gamma_correct", inputs, 32, jobs=1,
                                   **kwargs)
            with SceneStore() as store, WorkerPool(2) as pool:
                via_shm, led2 = run_tiled("gamma_correct", inputs, 32,
                                          pool=pool, scene_store=store,
                                          **kwargs)
        np.testing.assert_array_equal(base, via_shm)
        assert led2.energy_j == pytest.approx(led1.energy_j)
        assert _my_segments() == []

    def test_scheduler_shm_and_copy_agree_and_count_hits(self):
        img = _image(10)
        inputs = gamma_correct_inputs(img)
        base, _ = run_tiled("gamma_correct", inputs, 32, tile=4, jobs=1,
                            seed=5, kernel_kwargs={"gamma": 0.7})
        backend = get_backend().name

        async def serve():
            with WorkerPool(2) as pool:
                scheduler = Scheduler(pool)
                out = await asyncio.gather(*[
                    scheduler.submit_app(
                        "gamma_correct", inputs, 32, tile=4, seed=5,
                        kernel_kwargs={"gamma": 0.7}, backend=backend)
                    for _ in range(3)])
                stats = scheduler.stats()
                await scheduler.drain()
                scheduler.close()
                return out, stats

        served, stats = asyncio.run(serve())
        for img_out, _ in served:
            np.testing.assert_array_equal(base, img_out)
        # same scene three times: one miss, then hits, and only the miss
        # shipped bytes
        cache = stats["scene_cache"]
        assert cache["misses"] == 1 and cache["hits"] == 2
        total = sum(int(a.nbytes) for a in inputs.values())
        assert cache["bytes_shipped"] == total
        assert stats["scene_store"]["hits"] >= 2
        assert _my_segments() == []

    def test_put_scene_handle_round_trip(self):
        img = _image(10)
        inputs = gamma_correct_inputs(img)
        base, _ = run_tiled("gamma_correct", inputs, 32, tile=4, seed=2,
                            kernel_kwargs={"gamma": 0.4})
        with ServingClient(jobs=2) as client:
            digest = client.put_scene(inputs)
            out1, _ = client.request("gamma_correct", None, 32, tile=4,
                                     seed=2, kernel_kwargs={"gamma": 0.4},
                                     scene=digest)
            out2, _ = client.request("gamma_correct", None, 32, tile=4,
                                     seed=2, kernel_kwargs={"gamma": 0.4},
                                     scene=digest)
            client.drop_scene(digest)
            stats = client.stats()
        np.testing.assert_array_equal(base, out1)
        np.testing.assert_array_equal(base, out2)
        # handle requests are pure hits: nothing shipped after the pin
        assert stats["scene_cache"]["hits"] == 2
        assert stats["scene_cache"]["misses"] == 0
        assert _my_segments() == []

    def test_unknown_scene_handle_fails_cleanly(self):
        with ServingClient(jobs=1) as client:
            with pytest.raises(Exception, match="unknown or expired"):
                client.request("gamma_correct", None, 32, tile=4,
                               scene="deadbeef" * 8)
            # the pool is not poisoned
            img = _image(8)
            out, _ = client.request("gamma_correct",
                                    gamma_correct_inputs(img), 32, tile=4)
            assert out.shape == img.shape
        assert _my_segments() == []


# ----------------------------------------------------------------------
# task format: one request header plus the tiles' windows
# ----------------------------------------------------------------------
class TestTaskFormat:
    def test_four_tile_chunk_pickles_small(self):
        # an 8x8 request at tile 4 ships as one 4-tile task; the header
        # travels once, so the task stays well under the 1,038 B the
        # per-tile tuples of a 4-tile chunk used to pickle to
        inputs = gamma_correct_inputs(_image(8))
        with SceneStore() as store:
            plan = executor.build_tile_tasks(
                "gamma_correct", inputs, 32, tile=4, seed=1,
                kernel_kwargs={"gamma": 0.5}, scene_store=store)
            assert len(plan.grid) == 4
            assert len(pickle.dumps(plan.task(0, 4))) <= 400
            store.release(plan.scene.digest)

    def test_chunk_equals_its_one_tile_tasks(self):
        inputs = gamma_correct_inputs(_image(10))
        plan = executor.build_tile_tasks(
            "gamma_correct", inputs, 32, tile=4, seed=9,
            kernel_kwargs={"gamma": 0.5})
        chunk = executor._run_tiles(plan.task(0, len(plan.grid)))
        for i, (out, ledger) in enumerate(chunk):
            (ref_out, ref_ledger), = executor._run_tiles(plan.task(i, i + 1))
            np.testing.assert_array_equal(out, ref_out)
            assert ledger.energy_j == ref_ledger.energy_j

    @pytest.mark.parametrize("seed", [0, 1, 12345, 2**70])
    def test_tile_seed_is_the_spawned_child(self, seed):
        # the determinism contract: a worker keying tile i's sequence by
        # its index draws exactly what spawn(n)[i] would
        for i, child in enumerate(np.random.SeedSequence(seed).spawn(50)):
            keyed = np.random.SeedSequence(seed, spawn_key=(i,))
            np.testing.assert_array_equal(keyed.generate_state(4),
                                          child.generate_state(4))
            np.testing.assert_array_equal(
                np.random.default_rng(keyed).random(3),
                np.random.default_rng(child).random(3))


# ----------------------------------------------------------------------
# hygiene: teardown paths must not leak segments
# ----------------------------------------------------------------------
def _slow_kernel(engine, image, length):
    import time
    time.sleep(0.05)
    return image * 0.0


def _kill_kernel(engine, image, length):
    os._exit(13)


class TestShmHygiene:
    @pytest.mark.parametrize("via", ("jobs", "pool"))
    def test_run_tiled_without_store_leaves_no_segments(self, via):
        inputs = gamma_correct_inputs(_image(10))
        kwargs = dict(tile=4, seed=4, kernel_kwargs={"gamma": 0.5})
        base, _ = run_tiled("gamma_correct", inputs, 32, jobs=1, **kwargs)
        if via == "jobs":
            out, _ = run_tiled("gamma_correct", inputs, 32, jobs=2,
                               **kwargs)
        else:
            with WorkerPool(2) as pool:
                out, _ = run_tiled("gamma_correct", inputs, 32, pool=pool,
                                   **kwargs)
        np.testing.assert_array_equal(base, out)
        assert _my_segments() == []

    def test_no_segments_after_normal_shutdown(self):
        img = _image(10)
        with ServingClient(jobs=2) as client:
            for _ in range(2):
                client.request("gamma_correct", gamma_correct_inputs(img),
                               32, tile=4)
            assert len(_my_segments()) >= 1   # scene resident (cached)
        assert _my_segments() == []

    @needs_fork
    def test_no_segments_after_cancelled_request(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "slow", _slow_kernel)
        img = _image(12)

        async def cancel_mid_flight(pool):
            scheduler = Scheduler(pool)
            task = asyncio.ensure_future(scheduler.submit_app(
                "slow", {"image": img}, 16, tile=3))
            await asyncio.sleep(0.05)
            task.cancel()
            with pytest.raises(asyncio.CancelledError):
                await task
            await scheduler.drain()
            scheduler.close()

        with WorkerPool(2, mp_context="fork") as pool:
            asyncio.run(cancel_mid_flight(pool))
        assert _my_segments() == []

    @needs_fork
    def test_no_segments_after_worker_death_mid_request(self, monkeypatch):
        monkeypatch.setitem(KERNELS, "die", _kill_kernel)
        img = _image(10)

        async def die_then_recover(pool):
            scheduler = Scheduler(pool)
            with pytest.raises(Exception):
                await scheduler.submit_app("die", {"image": img}, 16,
                                           tile=4)
            # pool respawned: a real request still works, over shm
            out, _ = await scheduler.submit_app(
                "gamma_correct", gamma_correct_inputs(img), 32, tile=4)
            assert out.shape == img.shape
            await scheduler.drain()
            scheduler.close()

        with WorkerPool(2, mp_context="fork") as pool:
            asyncio.run(die_then_recover(pool))
        assert _my_segments() == []

    @pytest.mark.parametrize("mp_context", [
        None,
        pytest.param("fork", marks=needs_fork),
    ])
    def test_subprocess_serving_emits_no_tracker_warnings(self, mp_context):
        """A full client lifecycle leaves no tracker noise on stderr.

        Runs in a subprocess because resource_tracker warnings surface at
        interpreter exit — exactly where an in-process test can't look.
        The fork variant guards the nastiest tracker trap: workers forked
        before the parent's tracker exists would each spawn a private
        tracker on a ``SharedMemory`` attach and emit bogus "leaked
        shared_memory" warnings at exit; the mmap attach path must not.
        """
        code = textwrap.dedent(f"""
            import numpy as np
            from repro.apps.filters import gamma_correct_inputs
            from repro.apps.images import natural_scene
            from repro.serve import ServingClient
            img = natural_scene(10, 10, np.random.default_rng(0))
            inputs = gamma_correct_inputs(img)
            with ServingClient(jobs=2, mp_context={mp_context!r}) as client:
                digest = client.put_scene(inputs)
                for _ in range(2):
                    client.request("gamma_correct", None, 16, tile=4,
                                   scene=digest)
                client.request("gamma_correct", inputs, 16, tile=4)
                client.drop_scene(digest)
            print("DONE")
        """)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(os.path.dirname(__file__), os.pardir, "src")]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", code],
                              capture_output=True, text=True, env=env,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert "DONE" in proc.stdout
        assert "resource_tracker" not in proc.stderr, proc.stderr
        assert "leaked" not in proc.stderr, proc.stderr


# ----------------------------------------------------------------------
# satellite: cached request validation
# ----------------------------------------------------------------------
class TestValidationCache:
    def test_probe_engine_constructed_once_per_kwargs(self, monkeypatch):
        config._engine_param_names()   # warm with the real signature
        calls = {"n": 0}
        real = executor.InMemorySCEngine

        class Counting(real):
            def __init__(self, *args, **kwargs):
                calls["n"] += 1
                super().__init__(*args, **kwargs)

        # the probe resolves the engine from its home module at call time
        monkeypatch.setattr("repro.imsc.engine.InMemorySCEngine", Counting)
        config._ENGINE_PROBE_CACHE.clear()
        kwargs = {"cell_model": "column", "fault_sampling": "sparse"}
        for _ in range(3):
            config.validate_task_kwargs("gamma_correct", ["image"],
                                        dict(kwargs), {"gamma": 0.5})
        assert calls["n"] == 1
        config.validate_task_kwargs("gamma_correct", ["image"],
                                    {}, {"gamma": 0.5})
        assert calls["n"] == 2
        config._ENGINE_PROBE_CACHE.clear()

    def test_invalid_engine_values_raise_every_time(self, monkeypatch):
        config._engine_param_names()
        calls = {"n": 0}
        real = executor.InMemorySCEngine

        class Counting(real):
            def __init__(self, *args, **kwargs):
                calls["n"] += 1
                super().__init__(*args, **kwargs)

        monkeypatch.setattr("repro.imsc.engine.InMemorySCEngine", Counting)
        config._ENGINE_PROBE_CACHE.clear()
        for _ in range(2):
            with pytest.raises(ValueError, match="cell_model"):
                config.validate_task_kwargs(
                    "gamma_correct", ["image"],
                    {"cell_model": "bogus"}, {"gamma": 0.5})
        assert calls["n"] == 2   # failures are never cached
        config._ENGINE_PROBE_CACHE.clear()

    def test_kernel_signature_cache_follows_rebinding(self, monkeypatch):
        def narrow_kernel(engine, image, length):
            return image

        def wide_kernel(engine, image, extra, length):
            return image

        monkeypatch.setitem(KERNELS, "gamma_correct", narrow_kernel)
        config.validate_task_kwargs("gamma_correct", ["image"], {}, {})
        with pytest.raises(ValueError, match="missing required"):
            monkeypatch.setitem(KERNELS, "gamma_correct", wide_kernel)
            config.validate_task_kwargs("gamma_correct", ["image"],
                                        {}, {})


# ----------------------------------------------------------------------
# satellite: zero-site sparse fault draw is a no-op fast path
# ----------------------------------------------------------------------
class TestZeroFlipShortCircuit:
    @pytest.mark.parametrize("backend", ("unpacked", "packed"))
    def test_scatter_flip_empty_sites_returns_payload_unchanged(
            self, backend):
        with use_backend(backend):
            rng = np.random.default_rng(0)
            sb = Bitstream((rng.random((2, 3, 70)) < 0.5).astype(np.uint8))
            empty = np.empty(0, dtype=np.int64)
            out = sb.backend.scatter_flip(sb._data, empty, sb.length)
            assert out is sb._data   # no copy, no round-trip
            assert sb.flip_at(empty) is sb

    @pytest.mark.parametrize("backend", ("unpacked", "packed"))
    def test_zero_site_draw_skips_scatter_and_keeps_bits(self, backend,
                                                         monkeypatch):
        with use_backend(backend):
            eng = InMemorySCEngine(fault_sampling="sparse", rng=7)
            rng = np.random.default_rng(1)
            sb = Bitstream((rng.random((2, 4, 64)) < 0.5).astype(np.uint8))
            before = np.array(sb._data, copy=True)

            def boom(*args, **kwargs):
                raise AssertionError("scatter_flip must not run for k=0")

            monkeypatch.setattr(type(sb.backend), "scatter_flip", boom)
            out = eng._flip_sparse(sb, 0.0)   # Binomial(n, 0) == 0
            assert out is sb
            np.testing.assert_array_equal(out._data, before)
