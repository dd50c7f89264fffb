"""Reproduction-report driver behind ``make bench``.

``make bench`` used to run ``pytest benchmarks/ --benchmark-only``, but the
benchmark modules are named ``bench_*.py`` — outside pytest's default
``test_*.py`` collection pattern — so pytest collected nothing, exited 5
("no tests ran") and never produced the report.  This driver invokes the
pieces directly:

1. ``python -m repro all`` — ASCII renderings of every table/figure;
2. each standalone benchmark script at acceptance scale (their built-in
   speedup guards make this double as the performance acceptance run).

Everything is streamed to stdout and appended to
``reproduction_report.txt`` at the repo root; the exit code is non-zero
if any step fails.  ``--quick`` shrinks every workload to smoke size
(seconds, guards relaxed) for CI-style sanity runs; full scale is the
default.  The pytest-benchmark variants of the table/figure benchmarks
remain runnable via ``pytest benchmarks/ --benchmark-only -s``
(``benchmarks/pytest.ini`` restores their collection).

Besides the text report, every benchmark step writes a machine-readable
``BENCH_*.json`` record into its working directory (see
``benchmarks/records.py``).  Full mode runs the steps from the repo root,
so it refreshes the committed records; ``--quick`` runs them from a
temporary directory, so a smoke run never overwrites them.  After the
steps finish the driver validates every ``BENCH_*.json`` in that
directory against the record schema and **fails loudly** on a malformed
one, in quick and full mode alike.
"""

import argparse
import contextlib
import os
import pathlib
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH = ROOT / "benchmarks"
REPORT = ROOT / "reproduction_report.txt"

sys.path.insert(0, str(ROOT / "src"))   # records.py imports repro.config

from records import load_bench_record   # noqa: E402


def _steps(quick: bool):
    py = sys.executable
    if quick:
        # Same steps as the full run, shrunk to smoke size (flags
        # mirror make bench-smoke) — quick mode trades guard strength
        # for speed, never coverage.
        return [
            ("Tables and figures (quick reproduction)",
             [py, "-m", "repro", "all", "--samples", "1000", "--runs", "1",
              "--size", "24"]),
            ("Backend word chain (smoke)",
             [py, str(BENCH / "bench_backend.py"), "--length", "131072",
              "--batch", "128", "--repeats", "2"]),
            ("Analog S-to-B conversion (smoke)",
             [py, str(BENCH / "bench_stob.py"), "--streams", "8192",
              "--length", "256", "--repeats", "2"]),
            ("Application pipelines (smoke)",
             [py, str(BENCH / "bench_apps.py"), "--length", "64",
              "--size", "24", "--tile", "12", "--jobs", "2",
              "--repeats", "1", "--apps", "matting"]),
            ("Fault-mask sampling (smoke)",
             [py, str(BENCH / "bench_faults.py"), "--length", "64",
              "--size", "16", "--repeats", "1", "--min-speedup", "2"]),
        ]
    return [
        ("Tables and figures (CLI reproduction)",
         [py, "-m", "repro", "all", "--samples", "5000", "--runs", "2",
          "--size", "32"]),
        ("Backend word chain (packed vs unpacked)",
         [py, str(BENCH / "bench_backend.py")]),
        ("Analog S-to-B conversion (column vs per-bit)",
         [py, str(BENCH / "bench_stob.py")]),
        ("Application pipelines (packed/sharded vs seed)",
         [py, str(BENCH / "bench_apps.py")]),
        ("Fault-mask sampling (sparse vs dense)",
         [py, str(BENCH / "bench_faults.py")]),
    ]


def _banner(title: str) -> str:
    return "\n" + "=" * 72 + "\n" + title + "\n" + "=" * 72 + "\n"


def _run_steps(steps, cwd: pathlib.Path, env: dict) -> list:
    """Run each step from ``cwd``, teeing its output into the report;
    returns the titles of the failed steps."""
    failures = []
    for title, cmd in steps:
        block = _banner(title)
        print(block, end="", flush=True)
        t0 = time.perf_counter()
        # Stream line by line: full-scale steps run for minutes, and a
        # silent terminal would be indistinguishable from a hang (the
        # report also keeps whatever a Ctrl-C'd step printed so far).
        with REPORT.open("a") as fh:
            fh.write(block)
            proc = subprocess.Popen(cmd, cwd=cwd, env=env, text=True,
                                    stdout=subprocess.PIPE,
                                    stderr=subprocess.STDOUT)
            for line in proc.stdout:
                print(line, end="", flush=True)
                fh.write(line)
            rc = proc.wait()
            elapsed = time.perf_counter() - t0
            tail = f"\n[{'ok' if rc == 0 else 'FAIL'}"\
                   f" rc={rc} in {elapsed:.1f}s]\n"
            print(tail, end="")
            fh.write(tail)
        if rc != 0:
            failures.append(title)
    return failures


def _check_records(cwd: pathlib.Path) -> list:
    """Validate every ``BENCH_*.json`` in ``cwd``; returns the failures.

    Machine-readable trajectory: every record must be schema-valid — a
    malformed record poisons every future re-anchor that reads the
    trajectory, so it fails the whole run.  Two records reporting
    different resolved run configs under the same benchmark name would
    make speedups incomparable across the trajectory, so that fails the
    run too.
    """
    failures = []
    records = sorted(cwd.glob("BENCH_*.json"))
    configs_by_bench = {}
    for path in records:
        try:
            record = load_bench_record(path)
        except ValueError as exc:
            print(f"MALFORMED bench record {path.name}: {exc}")
            failures.append(f"bench record {path.name}")
            continue
        print(f"bench record ok: {path.name} "
              f"(bench={record['bench']}, utc={record['utc']})")
        run_config = record.get("run_config")
        if run_config is None:
            continue
        seen = configs_by_bench.setdefault(record["bench"],
                                           (path.name, run_config))
        if seen[1] != run_config:
            print(f"CONFLICTING bench records for "
                  f"bench={record['bench']!r}: {seen[0]} and "
                  f"{path.name} report different resolved run "
                  f"configs:\n  {seen[0]}: {seen[1]}\n"
                  f"  {path.name}: {run_config}")
            failures.append(f"bench record {path.name} (run_config "
                            f"conflicts with {seen[0]})")
    if not records:
        print("MALFORMED bench trajectory: no BENCH_*.json written")
        failures.append("bench records missing")
    return failures


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="smoke-size workloads (seconds, relaxed "
                             "guards) instead of acceptance scale")
    parser.add_argument("--fresh", action="store_true",
                        help="truncate reproduction_report.txt first "
                             "(default: append)")
    args = parser.parse_args()

    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (src + os.pathsep + env["PYTHONPATH"]
                         if env.get("PYTHONPATH") else src)

    if args.fresh:
        REPORT.write_text("")
    # Smoke-scale records go to a scratch directory; only a full run
    # refreshes the committed records at the root.
    workdir = (tempfile.TemporaryDirectory() if args.quick
               else contextlib.nullcontext(ROOT))
    with workdir as cwd:
        cwd = pathlib.Path(cwd)
        failures = _run_steps(_steps(args.quick), cwd, env)
        failures += _check_records(cwd)

    if failures:
        print(f"\n{len(failures)} step(s) failed: {', '.join(failures)}")
        return 1
    print(f"\nreport written to {REPORT}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
