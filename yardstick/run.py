"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 yardstick/run.py --workload small_stdio --seed 1 --seconds 40 \\
        --trace 0
    python3 yardstick/run.py --workload all --seed 1 --seconds 40

``--trace 0`` measures the end-to-end metrics listed in BENCHMARK.json,
``--trace 1`` the per-layer ones.  Progress goes to stderr; stdout ends
with one JSON line ``{"correct", "attempted", "failed", "metrics"}``, and
the full record (host fingerprint, sample counts, tails, breakdowns) is
written under ``.bench_results/``.  The exit code is non-zero when any
output differs from its ``run_tiled(jobs=1)`` reference.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("small_stdio", "faulty_batch")


def _import_path() -> None:
    """Put the checkout's sources first on the import path (workers and
    probe processes inherit it)."""
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        raise SystemExit(f"no repro sources under {ROOT / 'src'}: run from "
                         f"a full checkout")
    for path in (ROOT, ROOT / "src"):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))


def _declared() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    from yardstick import harness, workloads
    from repro.serve.pool import serving_mp_context

    harness.log(f"{name}: seed {seed}, {seconds:g} s, trace {int(trace)}")
    if name == "small_stdio":
        bench = workloads.SmallStdio(seed)
    else:
        bench = workloads.FaultyBatch(seed, str(pathlib.Path(__file__)))
    steal0 = harness.cpu_steal_ticks()
    out = bench.trace(seconds) if trace else bench.run(seconds)
    steal1 = harness.cpu_steal_ticks()

    units = _declared()["per_layer" if trace else "end_to_end"]
    metrics = dict(out.metrics)
    if not trace:
        metrics["ok_pct"] = out.ok_pct
    unknown = sorted(set(metrics) - set(units))
    if unknown:
        raise RuntimeError(f"metrics missing from BENCHMARK.json: {unknown}")
    idle = sorted(set(units) - set(metrics))
    if idle and not trace:
        raise RuntimeError(f"declared metrics not measured: {idle}")
    # A layer this workload never calls did no work here.
    metrics.update(dict.fromkeys(idle, 0.0))
    served = name != "faulty_batch"
    record = {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace),
        "host": harness.host_fingerprint(
            ROOT, jobs=workloads.JOBS if served else 1,
            start_method=(serving_mp_context().get_start_method()
                          if served else None)),
        "attempted": out.attempted, "failed": out.failed,
        "incorrect": out.incorrect, "layers_not_exercised": idle,
        "cpu_steal_share": ((steal1[0] - steal0[0])
                            / max(1, steal1[1] - steal0[1])),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in sorted(metrics.items())},
        "detail": out.record,
    }
    if trace:
        from yardstick.tracing import BREAKDOWN_TOLERANCE
        error = metrics["trace.breakdown_error_pct"] / 100
        record["breakdown_within_tolerance"] = error <= BREAKDOWN_TOLERANCE
        if error > BREAKDOWN_TOLERANCE:
            harness.log(f"{name}: the layers miss {100 * error:.1f}% of the "
                        f"traced end-to-end time (limit "
                        f"{100 * BREAKDOWN_TOLERANCE:.0f}%)")
    if record["host"]["oversubscribed"]:
        harness.log(f"{name}: jobs {workloads.JOBS} exceeds nproc "
                    f"{record['host']['nproc']}")
    results = ROOT / ".bench_results"
    results.mkdir(exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(record, indent=1, default=str) + "\n")
    return record


def _print_table(record: dict) -> None:
    print(f"{record['workload']} (seed {record['seed']}, "
          f"trace {record['trace']}): {record['attempted']} checked, "
          f"{record['failed']} failed, {record['incorrect']} incorrect")
    for name, m in record["metrics"].items():
        print(f"  {name:32s} {m['value']:14.6g} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-pass", type=int, metavar="SCENE_SEED",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _import_path()
    if args.first_pass is not None:   # faulty_batch's set-up probe
        from yardstick import workloads
        workloads.first_pass(args.first_pass)
        return 0
    if args.workload is None:
        parser.error("--workload is required")

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    from yardstick.harness import stop_helper_processes
    try:
        records = [run_workload(n, args.seed, args.seconds, bool(args.trace))
                   for n in names]
    finally:
        stop_helper_processes()
    for record in records:
        _print_table(record)
    correct = all(r["incorrect"] == 0 for r in records)
    metrics = {}
    for r in records:
        prefix = f"{r['workload']}/" if len(records) > 1 else ""
        metrics.update({prefix + k: v for k, v in r["metrics"].items()})
    print(json.dumps({"correct": correct,
                      "attempted": sum(r["attempted"] for r in records),
                      "failed": sum(r["failed"] for r in records),
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
