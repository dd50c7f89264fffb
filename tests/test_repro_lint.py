"""Tests for the repro-lint static-analysis framework (tools/repro_lint).

Every project rule (RL001-RL006, RL008) gets fixture tests proving a true
positive and a silenced case (inline suppression or baseline entry).
The framework tests cover the suppression grammar, the baseline
lifecycle, path handling (a typo'd path or an empty directory must fail
the gate, not lint nothing), the CLI exit codes, the pyproject
ruff-selection mirror and the call-graph resolver's edge cases.
"""

from __future__ import annotations

import json
import pathlib
import sys
import textwrap
import tomllib

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "tools"))

from repro_lint import engine
from repro_lint.cli import main
from repro_lint.engine import (
    BaselineEntry,
    PathError,
    iter_py_files,
    load_baseline,
    run_sources,
)

EXECUTOR = "src/repro/apps/executor.py"


def _run(files, **kwargs):
    """run_sources over (relpath, fixture source) pairs, dedented."""
    return run_sources([(path, textwrap.dedent(source))
                        for path, source in files], **kwargs)


def _codes(result):
    return [finding.code for finding in result.findings]


# ---------------------------------------------------------------------------
# RL001 — determinism
# ---------------------------------------------------------------------------
class TestRL001Determinism:
    def test_flags_every_nondeterministic_source(self):
        res = _run([("src/repro/fake.py", """\
            import random
            import time

            import numpy as np


            def sample():
                rng = np.random.default_rng()
                legacy = np.random.rand(4)
                seedless = random.random()
                wall = time.time()
                return rng, legacy, seedless, wall
            """)])
        rl001 = [f for f in res.findings if f.code == "RL001"]
        assert [f.line for f in rl001] == [8, 9, 10, 11]

    def test_allows_seeded_rng_and_monotonic_timers(self):
        res = _run([("src/repro/fake.py", """\
            import time

            import numpy as np


            def sample(seed):
                rng = np.random.default_rng(seed)
                t0 = time.perf_counter()
                return rng, t0
            """)])
        assert res.clean

    def test_scope_excludes_benchmark_code(self):
        res = _run([("benchmarks/fake.py", """\
            import time


            def stamp():
                return time.time()
            """)])
        assert "RL001" not in _codes(res)

    def test_suppression_with_justification_silences(self):
        res = _run([("src/repro/fake.py", """\
            import time


            def stamp():
                return time.time()  # repro-lint: disable=RL001 -- provenance only
            """)])
        assert res.clean
        assert len(res.suppressed) == 1


# ---------------------------------------------------------------------------
# RL002 — pool-boundary pickle safety
# ---------------------------------------------------------------------------
class TestRL002PickleSafety:
    def test_flags_lambda_and_nested_function(self):
        res = _run([("src/repro/fake.py", """\
            def fan_out(pool_map, items):
                def helper(x):
                    return x + 1

                first = pool_map(lambda x: x * 2, items)
                second = pool_map(helper, items)
                return first, second
            """)])
        rl002 = [f for f in res.findings if f.code == "RL002"]
        assert [f.line for f in rl002] == [5, 6]

    def test_flags_bound_method_of_local_object(self):
        res = _run([("src/repro/fake.py", """\
            def drive(executor, make_worker, task):
                worker = make_worker()
                return executor.submit(worker.run, task)
            """)])
        assert _codes(res) == ["RL002"]

    def test_flags_nested_function_forwarded_to_pool_boundary(self):
        res = _run([("src/repro/apps/fake.py", """\
            def fan(pool_map, fn, items):
                return pool_map(fn, items)


            def outer(pool_map, items):
                def helper(x):
                    return x + 1

                return fan(pool_map, helper, items)
            """)])
        assert _codes(res) == ["RL002"]
        assert res.findings[0].line == 9
        assert "pickle boundary" in res.findings[0].message

    def test_allows_module_level_function(self):
        res = _run([("src/repro/fake.py", """\
            def kernel(x):
                return x


            def fan_out(pool_map, items):
                return pool_map(kernel, items)
            """)])
        assert res.clean

    def test_module_scope_calls_exempt(self):
        res = _run([("src/repro/fake.py", """\
            RESULT = map(lambda x: x, [1, 2])
            """)])
        assert res.clean

    def test_suppression_silences(self):
        res = _run([("src/repro/fake.py", """\
            def fan_out(pool_map, items):
                return pool_map(lambda x: x, items)  # repro-lint: disable=RL002 -- jobs=1 inline path only
            """)])
        assert res.clean
        assert len(res.suppressed) == 1


# ---------------------------------------------------------------------------
# RL003 — no-unpack hot path (project rule)
# ---------------------------------------------------------------------------
class TestRL003NoUnpack:
    def test_flags_markers_reachable_from_kernels(self):
        res = _run([
            (EXECUTOR, """\
                from .kernels import demo_kernel

                KERNELS = {"demo": demo_kernel}
                """),
            ("src/repro/apps/kernels.py", """\
                def helper(stream):
                    return stream.to_bits()


                def demo_kernel(stream):
                    return helper(stream)


                def unreachable(stream):
                    return stream.to_bits()
                """),
        ])
        rl003 = [f for f in res.findings if f.code == "RL003"]
        assert len(rl003) == 1
        assert rl003[0].relpath == "src/repro/apps/kernels.py"
        assert rl003[0].line == 2
        assert "'demo'" in rl003[0].message

    def test_flags_unpackbits_and_per_bit_loop(self):
        res = _run([
            (EXECUTOR, """\
                from .kernels import demo_kernel

                KERNELS = {"demo": demo_kernel}
                """),
            ("src/repro/apps/kernels.py", """\
                import numpy as np


                def demo_kernel(stream, length):
                    bits = np.unpackbits(stream.payload)
                    acc = 0
                    for i in range(length):
                        acc += bits[i]
                    return acc
                """),
        ])
        rl003 = [f for f in res.findings if f.code == "RL003"]
        assert [f.line for f in rl003] == [5, 7]

    def test_unreachable_markers_not_flagged(self):
        res = _run([("src/repro/apps/orphan.py", """\
            def never_registered(stream):
                return stream.to_bits()
            """)])
        assert "RL003" not in _codes(res)

    def test_suppression_silences_audited_to_bits(self):
        res = _run([
            (EXECUTOR, """\
                from .kernels import demo_kernel

                KERNELS = {"demo": demo_kernel}
                """),
            ("src/repro/apps/kernels.py", """\
                def demo_kernel(batch):
                    return batch.to_bits()  # repro-lint: disable=RL003 -- debug readout, audited
                """),
        ])
        assert res.clean
        assert len(res.suppressed) == 1


# ---------------------------------------------------------------------------
# RL004 — blocking in the asyncio serving layer
# ---------------------------------------------------------------------------
class TestRL004BlockingInAsync:
    def test_flags_time_sleep_anywhere_in_serve_layer(self):
        res = _run([("src/repro/serve/fake.py", """\
            import time


            def dwell(delay):
                time.sleep(delay)
            """)])
        assert _codes(res) == ["RL004"]

    def test_flags_blocking_calls_inside_async_def(self):
        res = _run([("src/repro/serve/fake.py", """\
            async def fetch(future, path):
                data = open(path).read()
                return data, future.result()
            """)])
        rl004 = [f for f in res.findings if f.code == "RL004"]
        assert len(rl004) == 2

    def test_sync_nested_def_is_exempt(self):
        res = _run([("src/repro/serve/fake.py", """\
            async def handle(loop, path):
                def write_out():
                    with open(path, "w") as fh:
                        fh.write("done")

                await loop.run_in_executor(None, write_out)
            """)])
        assert res.clean

    def test_flags_transitively_blocking_call_outside_serve_scope(self):
        res = _run([("src/repro/core/fake.py", """\
            import time


            def helper():
                time.sleep(1)


            def middle():
                return helper()


            async def handler():
                return middle()
            """)])
        assert _codes(res) == ["RL004"]
        assert res.findings[0].line == 13
        assert "time.sleep" in res.findings[0].message

    def test_nested_sync_def_shields_transitive_calls(self):
        res = _run([("src/repro/serve/fake.py", """\
            def helper():
                return open("x").read()


            async def handle(loop):
                def write_out():
                    return helper()

                await loop.run_in_executor(None, write_out)
            """)])
        assert res.clean

    def test_flags_direct_blocking_call_outside_serve_scope(self):
        res = _run([("src/repro/core/fake.py", """\
            import subprocess


            async def handler():
                subprocess.run(["ls"])
            """)])
        assert _codes(res) == ["RL004"]

    def test_scope_limited_to_serve_layer(self):
        res = _run([("src/repro/core/fake.py", """\
            import time


            def dwell(delay):
                time.sleep(delay)
            """)])
        assert "RL004" not in _codes(res)

    def test_suppression_for_worker_side_sleep(self):
        res = _run([("src/repro/serve/fake.py", """\
            import time


            def warmup(delay):
                # repro-lint: disable=RL004 -- runs in a pool worker, never on the loop
                time.sleep(delay)
            """)])
        assert res.clean
        assert len(res.suppressed) == 1


# ---------------------------------------------------------------------------
# RL005 — resource pairing
# ---------------------------------------------------------------------------
class TestRL005ResourcePairing:
    def test_flags_unprotected_shm_create(self):
        res = _run([("src/repro/fake.py", """\
            from multiprocessing import shared_memory


            def make_segment(nbytes):
                seg = shared_memory.SharedMemory(create=True, size=nbytes)
                return seg
            """)])
        assert _codes(res) == ["RL005"]

    def test_flags_unpaired_checkout(self):
        res = _run([("src/repro/fake.py", """\
            def grab(store, digest):
                fields, shape = store.checkout(digest)
                return fields, shape
            """)])
        assert _codes(res) == ["RL005"]

    def test_try_finally_protects_the_acquire(self):
        res = _run([("src/repro/fake.py", """\
            from multiprocessing import shared_memory


            def make_segment(nbytes, fill):
                seg = None
                try:
                    seg = shared_memory.SharedMemory(create=True, size=nbytes)
                    fill(seg)
                finally:
                    if seg is not None:
                        seg.close()
            """)])
        assert res.clean

    def test_releasing_handler_protects_the_acquire(self):
        res = _run([("src/repro/fake.py", """\
            def pin_scene(store, inputs):
                try:
                    digest = store.publish(inputs)
                except BaseException:
                    store.shutdown()
                    raise
                return digest
            """)])
        assert res.clean

    def test_flags_bare_except_pass(self):
        res = _run([("src/repro/fake.py", """\
            def quiet(risky):
                try:
                    risky()
                except:
                    pass
            """)])
        assert _codes(res) == ["RL005"]

    def test_baseline_entry_silences(self):
        entry = BaselineEntry("src/repro/fake.py", "RL005",
                              "store.checkout(digest)",
                              "ownership transfers to the store tables")
        res = _run([("src/repro/fake.py", """\
            def grab(store, digest):
                return store.checkout(digest)
            """)], baseline=[entry])
        assert res.clean
        assert len(res.baselined) == 1


# ---------------------------------------------------------------------------
# RL006 — seed flow (data-flow pass)
# ---------------------------------------------------------------------------
class TestRL006SeedFlow:
    def test_flags_literal_seed(self):
        res = _run([("src/repro/fake.py", """\
            import numpy as np


            def sample():
                return np.random.default_rng(1234)
            """)])
        assert _codes(res) == ["RL006"]
        assert res.findings[0].line == 5
        assert "literal integer seed 1234" in res.findings[0].message

    def test_flags_seed_laundered_through_a_local(self):
        res = _run([("src/repro/fake.py", """\
            import numpy as np


            def sample():
                s = 42
                return np.random.default_rng(s)
            """)])
        assert _codes(res) == ["RL006"]
        assert res.findings[0].line == 6

    def test_flags_module_level_literal_seed(self):
        res = _run([("src/repro/fake.py", """\
            import numpy as np

            RNG = np.random.default_rng(7)
            """)])
        assert _codes(res) == ["RL006"]
        assert res.findings[0].line == 3

    def test_flags_discarded_spawn_children(self):
        res = _run([("src/repro/fake.py", """\
            def shift(seed_seq):
                seed_seq.spawn(3)
                return seed_seq
            """)])
        assert _codes(res) == ["RL006"]
        assert "discarded" in res.findings[0].message

    def test_flags_seedsequence_consumed_twice(self):
        res = _run([("src/repro/fake.py", """\
            import numpy as np


            def pair(seed):
                ss = np.random.SeedSequence(seed)
                a = np.random.default_rng(ss)
                b = np.random.default_rng(ss)
                return a, b
            """)])
        assert _codes(res) == ["RL006"]
        assert res.findings[0].line == 7
        assert "bit-identical" in res.findings[0].message

    def test_derived_seed_idioms_are_clean(self):
        res = _run([("src/repro/fake.py", """\
            import numpy as np


            class Engine:
                def __init__(self, seed):
                    self._seed = seed

                def make_rng(self):
                    return np.random.default_rng(self._seed)


            def coerce(rng_or_seed):
                if isinstance(rng_or_seed, np.random.Generator):
                    return rng_or_seed
                return np.random.default_rng(rng_or_seed)


            def split(seed_seq, n):
                children = seed_seq.spawn(n)
                return [np.random.default_rng(c) for c in children]
            """)])
        assert res.clean

    def test_scope_excludes_tests_and_benchmarks(self):
        res = _run([("tests/fake_seed.py", """\
            import numpy as np

            RNG = np.random.default_rng(1234)
            """)])
        assert "RL006" not in _codes(res)

    def test_suppression_for_golden_fixture_stream(self):
        res = _run([("src/repro/fake.py", """\
            import numpy as np


            def golden():
                return np.random.default_rng(1234)  # repro-lint: disable=RL006 -- pinned golden-file stream
            """)])
        assert res.clean
        assert len(res.suppressed) == 1


# ---------------------------------------------------------------------------
# RL008 — whole-program async concurrency (project rule)
# ---------------------------------------------------------------------------
class TestRL008AsyncConcurrency:
    def test_flags_unawaited_coroutine(self):
        res = _run([("src/repro/serve/fake.py", """\
            async def fetch_scene(req):
                return req


            async def handler(req):
                fetch_scene(req)
                return None
            """)])
        assert _codes(res) == ["RL008"]
        assert res.findings[0].line == 6
        assert "never awaited" in res.findings[0].message

    def test_flags_dropped_create_task_handle(self):
        res = _run([("src/repro/serve/fake.py", """\
            import asyncio


            async def handler(coro):
                asyncio.create_task(coro)
            """)])
        assert _codes(res) == ["RL008"]
        assert "dropped" in res.findings[0].message

    def test_flags_thread_lock_held_across_await(self):
        res = _run([("src/repro/core/fake.py", """\
            import asyncio
            import threading


            class Store:
                def __init__(self):
                    self._lock = threading.Lock()

                async def update(self, key):
                    with self._lock:
                        await asyncio.sleep(0)
            """)])
        assert _codes(res) == ["RL008"]
        assert res.findings[0].line == 10
        assert "held across await" in res.findings[0].message

    def test_awaited_and_bound_idioms_are_clean(self):
        res = _run([("src/repro/serve/fake.py", """\
            import asyncio


            async def fetch_scene(req):
                return req


            async def handler(req):
                result = await fetch_scene(req)
                task = asyncio.create_task(fetch_scene(req))
                async with asyncio.Lock():
                    await asyncio.sleep(0)
                return result, await task
            """)])
        assert res.clean

    def test_suppression_for_fire_and_forget(self):
        res = _run([("src/repro/serve/fake.py", """\
            async def probe(req):
                return req


            async def handler(req):
                probe(req)  # repro-lint: disable=RL008 -- fixture: deliberate fire-and-forget probe
                return None
            """)])
        assert res.clean
        assert len(res.suppressed) == 1


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------
class TestSuppressions:
    def test_standalone_comment_covers_next_line(self):
        res = _run([("src/repro/fake.py", """\
            import time


            def stamp():
                # repro-lint: disable=RL001 -- provenance only
                return time.time()
            """)])
        assert res.clean
        assert len(res.suppressed) == 1
        assert res.suppressed[0][1].justification == "provenance only"

    def test_missing_justification_is_rl000_and_does_not_silence(self):
        res = _run([("src/repro/fake.py", """\
            import time


            def stamp():
                return time.time()  # repro-lint: disable=RL001
            """)])
        codes = _codes(res)
        assert "RL000" in codes
        assert "RL001" in codes

    def test_unused_suppression_is_rl000_on_full_runs_only(self):
        files = [("src/repro/fake.py", """\
            def noop():  # repro-lint: disable=RL001 -- nothing fires here
                return 0
            """)]
        full = _run(files)
        assert _codes(full) == ["RL000"]
        assert "never matched" in full.findings[0].message
        partial = _run(files, select=["RL001"])
        assert partial.clean

    def test_unsilenceable_codes_cannot_be_named(self):
        res = _run([("src/repro/fake.py", """\
            X = 1  # repro-lint: disable=RL000 -- nice try
            """)])
        assert _codes(res) == ["RL000"]

    def test_one_comment_covers_multiple_codes(self):
        res = _run([("src/repro/serve/fake.py", """\
            import time


            def stamp():
                return time.time(), time.sleep(0)  # repro-lint: disable=RL001, RL004 -- fixture covering two rules
            """)])
        assert res.clean
        assert len(res.suppressed) == 2


# ---------------------------------------------------------------------------
# baseline lifecycle
# ---------------------------------------------------------------------------
class TestBaseline:
    FILES = [("src/repro/fake.py", """\
        import time


        def stamp():
            return time.time()
        """)]

    def test_matching_entry_absorbs_the_finding(self):
        entry = BaselineEntry("src/repro/fake.py", "RL001", "time.time()",
                              "legacy provenance stamp")
        res = _run(self.FILES, baseline=[entry])
        assert res.clean
        assert len(res.baselined) == 1

    def test_stale_entry_fails_the_run(self):
        entry = BaselineEntry("src/repro/fake.py", "RL001",
                              "no-such-fragment", "outdated")
        res = _run(self.FILES, baseline=[entry])
        codes = _codes(res)
        assert "RL001" in codes
        assert any(f.code == "RL000" and "stale" in f.message
                   for f in res.findings)

    def test_load_rejects_empty_justification(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "findings": [
            {"path": "a.py", "code": "RL001", "contains": "x",
             "justification": "   "}]}), encoding="utf-8")
        entries, errors = load_baseline(path)
        assert not entries
        assert any("justification" in e.message for e in errors)

    def test_load_rejects_unknown_and_missing_keys(self, tmp_path):
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps({"version": 1, "findings": [
            {"path": "a.py", "code": "RL001", "contains": "x",
             "justification": "ok", "line": 3},
            {"path": "a.py", "code": "RL001"}]}), encoding="utf-8")
        entries, errors = load_baseline(path)
        assert not entries
        assert len(errors) == 2

    def test_checked_in_baseline_is_fully_justified(self):
        entries, errors = load_baseline(engine.DEFAULT_BASELINE)
        assert not errors
        for entry in entries:
            assert entry.justification.strip()
            assert "TODO" not in entry.justification


# ---------------------------------------------------------------------------
# stdlib hygiene rules (the ruff mirror)
# ---------------------------------------------------------------------------
class TestHygieneRules:
    def test_unused_import_f401(self):
        res = _run([("tools/fake.py", """\
            import os


            def nothing():
                return 1
            """)])
        assert "F401" in _codes(res)

    def test_reexport_convention_not_flagged(self):
        res = _run([("tools/fake.py", "import os as os\n")])
        assert res.clean

    def test_duplicate_import_f811(self):
        res = _run([("tools/fake.py", """\
            import os
            import os

            print(os.sep)
            """)])
        assert "F811" in _codes(res)

    def test_whitespace_rules(self):
        assert "W191" in _codes(_run([("tools/fake.py",
                                       "if True:\n\tX = 1\n")]))
        assert "W291" in _codes(_run([("tools/fake.py", "X = 1 \n")]))
        assert "W292" in _codes(_run([("tools/fake.py", "X = 1")]))

    def test_syntax_error_cannot_be_suppressed(self):
        res = _run([("tools/fake.py",
                     "def broken(:  # repro-lint: disable=E999 -- nope\n")])
        assert any(f.code == "E999" for f in res.findings)

    def test_pyproject_select_matches_framework_mirror(self):
        config = tomllib.loads(
            (REPO / "pyproject.toml").read_text(encoding="utf-8"))
        select = config["tool"]["ruff"]["lint"]["select"]
        assert tuple(select) == engine.RUFF_SELECT

    def test_mirror_prefixes_and_codes_cover_each_other(self):
        for code in engine.STDLIB_CODES:
            assert any(code.startswith(prefix)
                       for prefix in engine.RUFF_SELECT), code
        for prefix in engine.RUFF_SELECT:
            assert any(code.startswith(prefix)
                       for code in engine.STDLIB_CODES), prefix


# ---------------------------------------------------------------------------
# call-graph resolution edge cases (RL003 rides the shared resolver)
# ---------------------------------------------------------------------------
class TestCallGraph:
    def test_aliased_module_import_resolves(self):
        res = _run([
            (EXECUTOR, """\
                from .kernels import demo_kernel as dk

                KERNELS = {"demo": dk}
                """),
            ("src/repro/apps/kernels.py", """\
                from repro.apps import deep as d


                def demo_kernel(stream):
                    return d.helper(stream)
                """),
            ("src/repro/apps/deep.py", """\
                def helper(stream):
                    return stream.to_bits()
                """),
        ])
        rl003 = [f for f in res.findings if f.code == "RL003"]
        assert [(f.relpath, f.line) for f in rl003] == \
            [("src/repro/apps/deep.py", 2)]

    def test_reexport_through_package_init_resolves(self):
        res = _run([
            (EXECUTOR, """\
                from .lib import helper_kernel

                KERNELS = {"demo": helper_kernel}
                """),
            ("src/repro/apps/lib/__init__.py", """\
                from .impl import helper_kernel as helper_kernel
                """),
            ("src/repro/apps/lib/impl.py", """\
                def helper_kernel(stream):
                    return stream.to_bits()
                """),
        ])
        rl003 = [f for f in res.findings if f.code == "RL003"]
        assert [(f.relpath, f.line) for f in rl003] == \
            [("src/repro/apps/lib/impl.py", 2)]

    def test_method_reached_via_self_resolves(self):
        res = _run([
            (EXECUTOR, """\
                from .runner import run_kernel

                KERNELS = {"demo": run_kernel}
                """),
            ("src/repro/apps/runner.py", """\
                class Runner:
                    def run(self, stream):
                        return self.step(stream)

                    def step(self, stream):
                        return stream.to_bits()


                def run_kernel(stream):
                    return Runner().run(stream)
                """),
        ])
        rl003 = [f for f in res.findings if f.code == "RL003"]
        assert [(f.relpath, f.line) for f in rl003] == \
            [("src/repro/apps/runner.py", 6)]

    def test_decorated_kernel_still_resolves(self):
        res = _run([
            (EXECUTOR, """\
                from .deco import demo_kernel

                KERNELS = {"demo": demo_kernel}
                """),
            ("src/repro/apps/deco.py", """\
                import functools


                @functools.lru_cache(maxsize=None)
                def demo_kernel(stream):
                    return stream.to_bits()
                """),
        ])
        rl003 = [f for f in res.findings if f.code == "RL003"]
        assert [(f.relpath, f.line) for f in rl003] == \
            [("src/repro/apps/deco.py", 6)]

    def test_call_cycles_terminate(self):
        res = _run([
            (EXECUTOR, """\
                from .cyc import ping_kernel

                KERNELS = {"demo": ping_kernel}
                """),
            ("src/repro/apps/cyc.py", """\
                def ping_kernel(stream, depth):
                    if depth:
                        return pong(stream, depth - 1)
                    return stream.to_bits()


                def pong(stream, depth):
                    return ping_kernel(stream, depth)
                """),
        ])
        rl003 = [f for f in res.findings if f.code == "RL003"]
        assert [(f.relpath, f.line) for f in rl003] == \
            [("src/repro/apps/cyc.py", 4)]


# ---------------------------------------------------------------------------
# path handling (satellite: typo'd paths must fail, not lint nothing)
# ---------------------------------------------------------------------------
class TestPathHandling:
    def test_unknown_path_raises(self):
        with pytest.raises(PathError):
            iter_py_files(["definitely/not/a/path.py"])

    def test_cli_exits_2_on_unknown_path(self, capsys):
        assert main(["definitely/not/a/path.py"]) == 2
        assert "does not exist" in capsys.readouterr().err

    def test_empty_directory_raises(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        with pytest.raises(PathError):
            iter_py_files([str(tmp_path / "pkg")], tmp_path)

    def test_cli_exits_2_on_empty_directory(self, tmp_path, capsys):
        (tmp_path / "pkg").mkdir()
        assert main([str(tmp_path / "pkg")]) == 2
        assert "no .py files" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# the gate end to end
# ---------------------------------------------------------------------------
class TestGate:
    def test_full_tree_is_clean(self, capsys):
        assert main([]) == 0
        assert "clean" in capsys.readouterr().out

    def _violation(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "bad.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(textwrap.dedent("""\
            import time


            def stamp():
                return time.time()
            """), encoding="utf-8")
        return bad

    def test_deliberate_violation_fails_the_gate(self, tmp_path, capsys):
        bad = self._violation(tmp_path)
        rc = main([str(bad), "--project-root", str(tmp_path),
                   "--no-baseline"])
        assert rc == 1
        assert "RL001" in capsys.readouterr().out

    def test_select_narrows_the_run(self, tmp_path, capsys):
        bad = self._violation(tmp_path)
        rc = main([str(bad), "--project-root", str(tmp_path),
                   "--no-baseline", "--select", "W"])
        assert rc == 0
        capsys.readouterr()

    def test_json_output(self, tmp_path, capsys):
        bad = self._violation(tmp_path)
        rc = main([str(bad), "--project-root", str(tmp_path),
                   "--no-baseline", "--format", "json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files"] == 1
        assert [f["code"] for f in payload["findings"]] == ["RL001"]

    def test_explain_every_registered_rule(self, capsys):
        engine.load_plugins()
        for code in sorted(engine.RULES):
            assert main(["--explain", code]) == 0
            assert code in capsys.readouterr().out

    def test_explain_unknown_rule_exits_2(self, capsys):
        assert main(["--explain", "RL999"]) == 2
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules_names_the_catalogue(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("RL001", "RL002", "RL003", "RL004", "RL005",
                     "RL006", "RL008"):
            assert code in out
        assert "RL007" not in out
