"""End-to-end application throughput: seed per-pixel path vs batched word domain.

Workload: the three Table IV applications through ``run_app`` (scene
generation, SNG, SC ops, S-to-B and quality scoring included) at a
realistic size/length, under three execution configurations:

* ``seed``           — the unpacked backend driving the per-bit oracles
  (``fault_domain='bit'``, ``cell_model='per-bit'``): the pre-refactor
  per-pixel execution path, kept in-tree for conformance.
* ``packed``         — the packed (uint64 word) backend with word-domain
  execution and the batched column S-to-B model, whole-image.
* ``packed+sharded`` — the same plus the tile executor
  (``tile``/``jobs``), which also shrinks per-stage working sets to
  cache-friendly sizes.

Run as a benchmark (appends to ``reproduction_report.txt``)::

    pytest benchmarks/bench_apps.py --benchmark-only -s

or standalone, e.g. for the Makefile smoke target::

    PYTHONPATH=src python benchmarks/bench_apps.py --length 64 --size 24
"""

import argparse
import os
import pathlib
import time

from repro.apps import run_app
from repro.config import RunConfig
from repro.core.backend import use_backend
from records import write_bench_record

APPS = ("compositing", "interpolation", "matting")

FULL_LENGTH = 512
FULL_SIZE = 48
FULL_TILE = 32

#: Configurations: name -> (backend, fault_domain, cell_model, sharded?).
CONFIGS = (
    ("seed", "unpacked", "bit", "per-bit", False),
    ("packed", "packed", "word", "column", False),
    ("packed+sharded", "packed", "word", "column", True),
)


def _time_config(app: str, backend: str, domain: str, cell: str, shard: bool,
                 length: int, size: int, tile: int, jobs: int,
                 repeats: int, faulty: bool, seed: int) -> float:
    """Best-of-``repeats`` wall time of one full ``run_app`` execution."""
    best = float("inf")
    for _ in range(repeats):
        with use_backend(backend):
            t0 = time.perf_counter()
            run_app(app, "sc", length=length, size=size, seed=seed,
                    faulty=faulty, fault_domain=domain, cell_model=cell,
                    tile=tile if shard else None, jobs=jobs if shard else 1)
            best = min(best, time.perf_counter() - t0)
    return best


def compare_apps(length: int = FULL_LENGTH, size: int = FULL_SIZE,
                 tile: int = FULL_TILE, jobs: int = 1, repeats: int = 2,
                 faulty: bool = False, seed: int = 0, apps=APPS) -> dict:
    """Per-app wall-clock of every configuration plus speedups vs ``seed``."""
    result = {"length": length, "size": size, "tile": tile, "jobs": jobs,
              "faulty": faulty, "apps": {}}
    for app in apps:
        rows = {}
        for name, backend, domain, cell, shard in CONFIGS:
            rows[name] = _time_config(app, backend, domain, cell, shard,
                                      length, size, tile, jobs, repeats,
                                      faulty, seed)
        result["apps"][app] = {
            "seconds": rows,
            "speedup": {name: rows["seed"] / rows[name] for name in rows},
        }
    return result


def render(result: dict) -> str:
    lines = [
        f"run_app end-to-end, N={result['length']} bits, "
        f"scene {result['size']}x{result['size']}, "
        f"tile={result['tile']}, jobs={result['jobs']}, "
        f"faulty={result['faulty']}",
    ]
    for app, row in result["apps"].items():
        parts = [f"  {app:>14}:"]
        for name, _, _, _, _ in CONFIGS:
            parts.append(f"{name} {row['seconds'][name] * 1e3:8.1f} ms"
                         f" ({row['speedup'][name]:4.2f}x)")
        lines.append("   ".join(parts))
    best = max(row["speedup"]["packed+sharded"]
               for row in result["apps"].values())
    lines.append(f"  best packed+sharded speedup: {best:.2f}x")
    return "\n".join(lines)


def best_speedup(result: dict) -> float:
    return max(row["speedup"]["packed+sharded"]
               for row in result["apps"].values())


def test_app_throughput(benchmark):
    from conftest import emit

    jobs = min(4, os.cpu_count() or 1)
    result = benchmark.pedantic(
        lambda: compare_apps(jobs=jobs), rounds=1, iterations=1)
    emit("Application throughput -- batched word-domain pipeline vs the "
         "seed per-pixel path", render(result))
    # Acceptance guard: with the batched column S-to-B model the packed
    # pipeline must deliver >= 8x the seed path end-to-end on at least one
    # application (raised from 4x once the conversion step stopped
    # dominating; observed ~13-16x on interpolation single-threaded).
    assert best_speedup(result) >= 8.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=FULL_LENGTH,
                        help="stream length N in bits")
    parser.add_argument("--size", type=int, default=FULL_SIZE,
                        help="scene edge length in pixels")
    parser.add_argument("--tile", type=int, default=FULL_TILE,
                        help="tile edge for the sharded configuration")
    parser.add_argument("--jobs", type=int,
                        default=min(4, os.cpu_count() or 1),
                        help="worker processes for the sharded configuration")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per configuration (best is kept)")
    parser.add_argument("--faulty", action="store_true",
                        help="benchmark with CIM fault injection enabled")
    parser.add_argument("--apps", nargs="+", default=list(APPS),
                        choices=APPS, help="applications to benchmark")
    args = parser.parse_args()
    result = compare_apps(args.length, args.size, args.tile, args.jobs,
                          args.repeats, args.faulty, apps=tuple(args.apps))
    print(render(result))
    path = pathlib.Path.cwd() / "BENCH_apps.json"
    write_bench_record(path, "apps",
                       config={"length": args.length, "size": args.size,
                               "tile": args.tile, "jobs": args.jobs,
                               "repeats": args.repeats,
                               "faulty": args.faulty, "apps": args.apps},
                       results={"best_speedup": best_speedup(result),
                                "apps": result["apps"]},
                       # resolved config of the headline (packed+sharded)
                       # configuration the guard asserts on
                       run_config=RunConfig.fast(
                           backend="packed", tile=args.tile,
                           jobs=args.jobs))
    print(f"bench record -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
