"""Faulty-path throughput: sparse Binomial fault-mask sampling vs the
dense per-site Bernoulli oracle.

After PR 2/3 made fault-free packed runs ~17x faster end-to-end, the
paper's *faulty* sweeps became the slowest scenario in the repo: every
sensing-step flip site drew a full ``shape``-sized uniform array even at
per-gate rates around 1e-3.  ``fault_sampling='sparse'`` draws each
site's flip *count* from ``Binomial(n_sites, p)`` and scatters that many
site indices straight into the packed payload
(:meth:`repro.core.bitstream.Bitstream.flip_at`), so the fault model's
cost scales with the expected number of flips instead of the number of
stream bits.

Workloads (packed backend, word domain, column S-to-B, the derived
``DEFAULT_FAULT_RATES`` — i.e. paper-representative gate rates):

* a faulty ``run_app`` interpolation run (generation-dominated: the
  IMSNG greater-than scan pays three dense masks per segment bit);
* a faulty ``run_tiled`` contrast-stretch filter run (CORDIV-dominated:
  the dense word path draws two read masks per stream position).

Run as a benchmark (appends to ``reproduction_report.txt``)::

    pytest benchmarks/bench_faults.py --benchmark-only -s

or standalone, e.g. for the Makefile smoke target::

    PYTHONPATH=src python benchmarks/bench_faults.py --length 64 --size 16

The standalone run enforces ``--min-speedup`` (default 5x, the acceptance
floor; the full-scale ratio is well above it on both workloads).
"""

import argparse
import pathlib
import time

import numpy as np

from repro.apps import run_app
from repro.config import RunConfig
from repro.apps.executor import run_tiled
from repro.apps.filters import contrast_stretch_inputs
from repro.apps.images import natural_scene
from repro.core.backend import use_backend
from repro.report import write_bench_record
from repro.reram.faults import DEFAULT_FAULT_RATES

ROOT = pathlib.Path(__file__).resolve().parent.parent

FULL_LENGTH = 512
FULL_SIZE = 48
MIN_SPEEDUP = 5.0

MODES = ("dense", "sparse")


def _time_app(mode: str, length: int, size: int, repeats: int,
              seed: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_app("interpolation", "sc", length=length, size=size, seed=seed,
                faulty=True, fault_domain="word", fault_sampling=mode,
                cell_model="column")
        best = min(best, time.perf_counter() - t0)
    return best


def _time_filter(mode: str, length: int, size: int, repeats: int,
                 seed: int) -> float:
    image = natural_scene(size, size, np.random.default_rng(seed))
    inputs = contrast_stretch_inputs(image)
    kwargs = {"fault_rates": DEFAULT_FAULT_RATES, "fault_sampling": mode,
              "cell_model": "column"}
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        run_tiled("contrast_stretch", inputs, length,
                  tile=max(4, size // 2), jobs=1, seed=seed,
                  engine_kwargs=kwargs)
        best = min(best, time.perf_counter() - t0)
    return best


def compare_fault_sampling(length: int = FULL_LENGTH, size: int = FULL_SIZE,
                           repeats: int = 2, seed: int = 0) -> dict:
    """Best-of-``repeats`` faulty wall time per sampling mode + speedups."""
    result = {"length": length, "size": size, "workloads": {}}
    with use_backend("packed"):
        for name, timer in (("interpolation", _time_app),
                            ("contrast_stretch", _time_filter)):
            rows = {mode: timer(mode, length, size, repeats, seed)
                    for mode in MODES}
            result["workloads"][name] = {
                "seconds": rows,
                "speedup": rows["dense"] / rows["sparse"],
            }
    result["best_speedup"] = max(w["speedup"]
                                 for w in result["workloads"].values())
    return result


def render(result: dict) -> str:
    lines = [
        f"faulty packed runs, N={result['length']} bits, "
        f"scene {result['size']}x{result['size']}, "
        f"rates=DEFAULT_FAULT_RATES (derived VCM gate rates)",
    ]
    for name, row in result["workloads"].items():
        lines.append(
            f"  {name:>16}: "
            f"dense {row['seconds']['dense'] * 1e3:8.1f} ms   "
            f"sparse {row['seconds']['sparse'] * 1e3:8.1f} ms   "
            f"({row['speedup']:5.2f}x)")
    lines.append(f"  best sparse speedup: {result['best_speedup']:.2f}x")
    return "\n".join(lines)


def test_fault_sampling_speedup(benchmark):
    from conftest import emit

    result = benchmark.pedantic(compare_fault_sampling, rounds=1,
                                iterations=1)
    emit("Faulty-path throughput -- sparse Binomial fault sampling vs the "
         "dense Bernoulli oracle", render(result))
    # Acceptance guard: sparse sampling must deliver >= 5x on a faulty
    # packed app/filter run at paper-representative gate rates (observed
    # ~28x on interpolation, ~10x on the CORDIV-bound contrast stretch).
    assert result["best_speedup"] >= MIN_SPEEDUP


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--length", type=int, default=FULL_LENGTH,
                        help="stream length N in bits")
    parser.add_argument("--size", type=int, default=FULL_SIZE,
                        help="scene edge length in pixels")
    parser.add_argument("--repeats", type=int, default=2,
                        help="timed runs per mode (best is kept)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--min-speedup", type=float, default=MIN_SPEEDUP,
                        help="fail unless the best sparse speedup reaches "
                             "this factor (0 disables, for tiny smoke "
                             "configs)")
    args = parser.parse_args()
    result = compare_fault_sampling(args.length, args.size, args.repeats,
                                    args.seed)
    print(render(result))
    path = ROOT / "BENCH_faults.json"
    write_bench_record(path, "faults",
                       config={"length": args.length, "size": args.size,
                               "repeats": args.repeats, "seed": args.seed,
                               "min_speedup": args.min_speedup},
                       results={"best_speedup": result["best_speedup"],
                                "workloads": result["workloads"]},
                       # headline side of the comparison: sparse sampling
                       run_config=RunConfig.fast(backend="packed",
                                                 seed=args.seed))
    print(f"bench record -> {path}")
    if result["best_speedup"] < args.min_speedup:
        print(f"FAIL: best speedup {result['best_speedup']:.2f}x < "
              f"{args.min_speedup:.2f}x")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
