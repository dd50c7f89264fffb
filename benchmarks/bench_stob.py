"""Batched (column) vs per-bit analog S-to-B conversion throughput.

Workload: one ``InMemoryStoB.convert`` over a ``2**18-stream x 512-bit``
batch under the packed backend — the conversion step that dominated
fault-free packed application runs after PR 2.  ``cell_model='per-bit'``
samples a lognormal conductance for every stream bit (the conformance
oracle); ``cell_model='column'`` computes the reference-column current
from the packed popcount with cached per-column draws and a
variance-matched noise term, so the payload never unpacks.

Run as a benchmark (appends to ``reproduction_report.txt``)::

    pytest benchmarks/bench_stob.py --benchmark-only -s

or standalone, e.g. for the Makefile smoke target::

    PYTHONPATH=src python benchmarks/bench_stob.py --streams 8192 --length 256

The standalone run enforces ``--min-speedup`` (default 5x, the acceptance
floor; the full-scale ratio is orders of magnitude higher).
"""

import argparse
import pathlib
import time

import numpy as np

from repro.config import RunConfig
from repro.core.backend import use_backend
from repro.core.bitstream import Bitstream
from repro.imsc.stob import CELL_MODELS, InMemoryStoB
from records import write_bench_record

FULL_STREAMS = 1 << 18
FULL_LENGTH = 512
MIN_SPEEDUP = 5.0


def compare_cell_models(streams: int = FULL_STREAMS,
                        length: int = FULL_LENGTH, repeats: int = 2,
                        seed: int = 0) -> dict:
    """Best-of-``repeats`` conversion wall time per cell model + speedup."""
    result = {"streams": streams, "length": length, "models": {}}
    with use_backend("packed"):
        p = np.random.default_rng(seed).random(streams)
        batch = Bitstream.bernoulli(p, length, rng=seed + 1)
        truth = batch.value()
        for model in CELL_MODELS:
            stob = InMemoryStoB(rng=seed + 2, cell_model=model)
            out = stob.convert(batch)   # warm-up: ADC + column caches
            best = float("inf")
            for _ in range(repeats):
                t0 = time.perf_counter()
                stob.convert(batch)
                best = min(best, time.perf_counter() - t0)
            result["models"][model] = {
                "seconds": best,
                "streams_per_s": streams / best,
                "mse_pct": float(np.mean((out - truth) ** 2)) * 100.0,
            }
    result["speedup"] = (result["models"]["per-bit"]["seconds"]
                         / result["models"]["column"]["seconds"])
    return result


def render(result: dict) -> str:
    lines = [
        f"S-to-B conversion, {result['streams']:,} streams x "
        f"{result['length']} bits (packed backend)",
    ]
    for model, row in result["models"].items():
        lines.append(f"  {model:>8}: {row['seconds'] * 1e3:9.1f} ms/conv"
                     f"   {row['streams_per_s'] / 1e6:8.2f} Mstream/s"
                     f"   MSE {row['mse_pct']:.4f}%")
    lines.append(f"  column speedup: {result['speedup']:.1f}x")
    return "\n".join(lines)


def test_stob_throughput(benchmark):
    from conftest import emit

    result = benchmark.pedantic(compare_cell_models, rounds=1, iterations=1)
    emit("S-to-B throughput -- batched column model vs per-bit sampling",
         render(result))
    # Acceptance guard: the batched conversion must deliver >= 5x the
    # per-bit oracle (the observed full-scale ratio is far higher), while
    # recovering values with comparable accuracy.
    assert result["speedup"] >= MIN_SPEEDUP
    per_bit = result["models"]["per-bit"]["mse_pct"]
    column = result["models"]["column"]["mse_pct"]
    assert column <= per_bit * 1.2 + 1e-3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--streams", type=int, default=FULL_STREAMS,
                        help="number of parallel streams to convert")
    parser.add_argument("--length", type=int, default=FULL_LENGTH,
                        help="stream length N in bits")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed conversions per model (best is kept)")
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help="fail unless column/per-bit speedup reaches "
                             "this factor (0 disables the guard)")
    args = parser.parse_args()
    result = compare_cell_models(args.streams, args.length, args.repeats)
    print(render(result))
    path = pathlib.Path.cwd() / "BENCH_stob.json"
    write_bench_record(path, "stob",
                       config={"streams": args.streams,
                               "length": args.length,
                               "repeats": args.repeats,
                               "min_speedup": args.min_speedup},
                       results={"speedup": result["speedup"],
                                "models": result["models"]},
                       # headline side of the comparison: column S-to-B
                       run_config=RunConfig.fast(cell_model="column"))
    print(f"bench record -> {path}")
    if args.min_speedup and result["speedup"] < args.min_speedup:
        print(f"FAIL: speedup {result['speedup']:.1f}x below the "
              f"{args.min_speedup:.1f}x floor")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
