"""Machine-readable benchmark records (``BENCH_*.json``).

Every ``bench_*.py`` ratio guard writes one small JSON record per run
into the current working directory (``make bench`` runs them from the
repo root, where the committed records live), all sharing schema
version 1::

    {
      "schema": 1,                      # BENCH_SCHEMA_VERSION
      "bench": "backend",               # short [a-z0-9_]+ name
      "utc": "2026-08-07T12:34:56Z",    # write time, UTC
      "config": {...},                  # workload parameters (JSON scalars)
      "run_config": {...},              # resolved RunConfig.to_dict()
      "results": {...}                  # speedups / percentiles / seconds
    }

``config`` and ``results`` are free-form JSON objects, but the whole
record must survive ``json.dumps(..., allow_nan=False)`` — a NaN speedup
must fail the writing benchmark, not poison the trajectory file.
``run_config`` is the resolved :class:`repro.config.RunConfig` the guard
measured under (its headline configuration), so a trajectory reader can
tell an oracle run from a fast-preset run; when present it must
round-trip through :meth:`RunConfig.from_dict`.
:func:`validate_bench_record` enforces all of this; ``run_report.py``
validates every ``BENCH_*.json`` its steps wrote (and refuses two
records that report different resolved configs for the same benchmark
name), and a tier-1 test pins the validator itself.

The bench scripts import this module by name (``from records import
...``): a script's own directory is first on ``sys.path``.  It must not
match ``bench_*.py``, the collection pattern of ``benchmarks/pytest.ini``.
"""

from __future__ import annotations

import json
import pathlib
import re
import time
from typing import Any, Dict, Union

import numpy as np

from repro.config import RunConfig

__all__ = ["BENCH_SCHEMA_VERSION", "bench_record", "validate_bench_record",
           "write_bench_record", "load_bench_record"]

BENCH_SCHEMA_VERSION = 1

_BENCH_NAME = re.compile(r"^[a-z0-9_]+$")
_UTC_STAMP = re.compile(r"^\d{4}-\d{2}-\d{2}T\d{2}:\d{2}:\d{2}Z$")


def _pyify(value: Any) -> Any:
    """Recursively coerce numpy scalars/arrays to JSON-native types.

    Benchmark result dicts routinely hold ``np.float64`` speedups or mean
    arrays; those must not make an otherwise-valid record fail strict
    serialization.
    """
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, dict):
        return {str(k): _pyify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_pyify(v) for v in value]
    return value


def bench_record(bench: str, config: Dict[str, Any],
                 results: Dict[str, Any],
                 run_config: Any = None) -> Dict[str, Any]:
    """Assemble (and validate) one schema-1 record ready to write.

    ``run_config`` is the resolved run configuration the benchmark
    measured under — a :class:`repro.config.RunConfig` or its
    ``to_dict()`` form; every in-tree guard supplies one.
    """
    record = {
        "schema": BENCH_SCHEMA_VERSION,
        "bench": bench,
        # benchmark-record timestamp: metadata only, never feeds results
        "utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "config": _pyify(config),
        "results": _pyify(results),
    }
    if run_config is not None:
        if hasattr(run_config, "to_dict"):
            run_config = run_config.to_dict()
        record["run_config"] = _pyify(run_config)
    return validate_bench_record(record)


def validate_bench_record(record: Any) -> Dict[str, Any]:
    """Check one parsed record against schema 1; returns it unchanged.

    Raises :class:`ValueError` naming the offending field — the caller
    (benchmark guard, ``run_report.py``, or the tier-1 schema test)
    decides whether that is fatal.
    """
    if not isinstance(record, dict):
        raise ValueError(f"bench record must be a JSON object, "
                         f"got {type(record).__name__}")
    missing = {"schema", "bench", "utc", "config", "results"} - set(record)
    if missing:
        raise ValueError(
            f"bench record is missing key(s): {', '.join(sorted(missing))}")
    if record["schema"] != BENCH_SCHEMA_VERSION:
        raise ValueError(f"unsupported bench schema {record['schema']!r} "
                         f"(expected {BENCH_SCHEMA_VERSION})")
    if (not isinstance(record["bench"], str)
            or not _BENCH_NAME.match(record["bench"])):
        raise ValueError(f"bench name must match [a-z0-9_]+, "
                         f"got {record['bench']!r}")
    if (not isinstance(record["utc"], str)
            or not _UTC_STAMP.match(record["utc"])):
        raise ValueError(f"utc must be an ISO-8601 Z timestamp, "
                         f"got {record['utc']!r}")
    for key in ("config", "results"):
        if not isinstance(record[key], dict):
            raise ValueError(f"{key} must be a JSON object, "
                             f"got {type(record[key]).__name__}")
    if "run_config" in record:
        if not isinstance(record["run_config"], dict):
            raise ValueError(f"run_config must be a JSON object, "
                             f"got {type(record['run_config']).__name__}")
        try:
            RunConfig.from_dict(record["run_config"])
        except (TypeError, ValueError) as exc:
            raise ValueError(f"run_config is not a valid resolved "
                             f"RunConfig: {exc}") from exc
    try:
        json.dumps(record, allow_nan=False)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bench record is not strict JSON: {exc}") from exc
    return record


def write_bench_record(path: Union[str, pathlib.Path], bench: str,
                       config: Dict[str, Any],
                       results: Dict[str, Any],
                       run_config: Any = None) -> Dict[str, Any]:
    """Validate and write one record to ``path``; returns the record.

    The write is replace-based (temp file + rename) so a reader never
    sees a half-written trajectory file.
    """
    record = bench_record(bench, config, results, run_config=run_config)
    path = pathlib.Path(path)
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(record, indent=2, allow_nan=False,
                              sort_keys=True) + "\n")
    tmp.replace(path)
    return record


def load_bench_record(path: Union[str, pathlib.Path]) -> Dict[str, Any]:
    """Read and validate one ``BENCH_*.json``; raises ValueError if bad."""
    try:
        record = json.loads(pathlib.Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: not parseable JSON: {exc}") from exc
    return validate_bench_record(record)
