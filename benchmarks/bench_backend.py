"""Packed vs unpacked execution-backend throughput on the SC hot path.

Workload: the acceptance chain of the backend subsystem — an AND
multiplication feeding a MAJ scaled addition with popcount value recovery —
over a 2**20-bit x 1024-stream batch (the ``mul_and + scaled_add_maj``
chain at production scale).  Both backends execute the identical bit
content; the packed backend runs it on uint64 words (64 bits per lane)
instead of one byte per bit, and is expected to deliver >= 4x the
stream-bit throughput.

Run as a benchmark (appends to ``reproduction_report.txt``)::

    pytest benchmarks/bench_backend.py --benchmark-only -s

or standalone, e.g. for the Makefile smoke target::

    PYTHONPATH=src python benchmarks/bench_backend.py --length 131072 --batch 128
"""

import argparse
import pathlib
import time

import numpy as np

from repro.config import RunConfig
from repro.core import ops as scops
from repro.core.backend import use_backend
from repro.core.bitstream import Bitstream
from records import write_bench_record

FULL_LENGTH = 1 << 20          # >= 1e6 bits per stream
FULL_BATCH = 1024
SMOKE_LENGTH = 1 << 17
SMOKE_BATCH = 128


def _chain(x: Bitstream, y: Bitstream, r: Bitstream) -> np.ndarray:
    """mul_and -> scaled_add_maj -> popcount, all backend-routed."""
    prod = scops.mul_and(x, y)
    acc = scops.scaled_add_maj(prod, y, r)
    return acc.popcount()


def _time_backend(name: str, operands, repeats: int) -> float:
    """Best-of-``repeats`` wall time of the chain under one backend."""
    with use_backend(name):
        streams = [Bitstream(bits) for bits in operands]
        _chain(*streams)  # warm-up (also populates any per-length caches)
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            _chain(*streams)
            best = min(best, time.perf_counter() - t0)
    return best


def compare_backends(length: int = FULL_LENGTH, batch: int = FULL_BATCH,
                     repeats: int = 3, seed: int = 0) -> dict:
    """Throughput (stream-bits/s through the chain) per backend + speedup."""
    rng = np.random.default_rng(seed)
    operands = [rng.integers(0, 2, size=(batch, length), dtype=np.uint8)
                for _ in range(3)]
    bits_per_eval = batch * length
    result = {"length": length, "batch": batch, "backends": {}}
    for name in ("unpacked", "packed"):
        elapsed = _time_backend(name, operands, repeats)
        result["backends"][name] = {
            "seconds": elapsed,
            "gbits_per_s": bits_per_eval / elapsed / 1e9,
        }
    result["speedup"] = (result["backends"]["unpacked"]["seconds"]
                         / result["backends"]["packed"]["seconds"])
    return result


def render(result: dict) -> str:
    lines = [
        f"chain: mul_and + scaled_add_maj + popcount, "
        f"N={result['length']:,} bits x {result['batch']} streams",
    ]
    for name, row in result["backends"].items():
        lines.append(f"  {name:>9}: {row['seconds'] * 1e3:9.1f} ms/eval"
                     f"   {row['gbits_per_s']:8.2f} Gbit/s")
    lines.append(f"  packed speedup: {result['speedup']:.2f}x")
    return "\n".join(lines)


def test_backend_throughput(benchmark):
    from conftest import emit

    result = benchmark.pedantic(compare_backends, rounds=1, iterations=1)
    emit("Backend throughput -- packed (uint64 words) vs unpacked (uint8)",
         render(result))
    # Regression guard for the acceptance criterion: the packed backend
    # must deliver at least 4x the unpacked throughput on the full chain.
    assert result["speedup"] >= 4.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=FULL_LENGTH,
                        help="stream length N in bits")
    parser.add_argument("--batch", type=int, default=FULL_BATCH,
                        help="number of parallel streams")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timed evaluations per backend (best is kept)")
    args = parser.parse_args()
    result = compare_backends(args.length, args.batch, args.repeats)
    print(render(result))
    path = pathlib.Path.cwd() / "BENCH_backend.json"
    write_bench_record(path, "backend",
                       config={"length": args.length, "batch": args.batch,
                               "repeats": args.repeats},
                       results={"speedup": result["speedup"],
                                "backends": result["backends"]},
                       # headline side of the comparison: the packed backend
                       run_config=RunConfig.fast(backend="packed"))
    print(f"bench record -> {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
