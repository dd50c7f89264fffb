"""Measurement helpers shared by the workloads.

Everything here is independent of what is being served: percentile rules,
the host fingerprint, peak memory of a process tree, the paced in-memory
stdin/stdout pair that drives ``serve_stdio`` open-loop, and the bit-exact
output check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import platform
import subprocess
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Candidate percentiles in per-mille, lowest first.
_PERMILLE = (500, 900, 990, 999)


# ----------------------------------------------------------------------
# percentiles
# ----------------------------------------------------------------------
def supports_percentile(n: int, permille: int) -> bool:
    """True when ``n`` samples leave at least ten beyond the percentile.

    A percentile read from fewer than ten samples beyond it is one or two
    outliers, not a tail: p90 needs 100 samples, p99 needs 1000.
    """
    return n * (1000 - permille) >= 10 * 1000


def tail_permille(n: int) -> Optional[int]:
    """The highest percentile (per-mille) that ``n`` samples support."""
    best = None
    for q in _PERMILLE:
        if supports_percentile(n, q):
            best = q
    return best


def percentile(values: Sequence[float], permille: int) -> float:
    return float(np.percentile(np.asarray(values, dtype=np.float64),
                               permille / 10.0))


def latency_summary(values_s: Sequence[float]) -> Dict[str, object]:
    """Median, p90, p99 and the supported tail of latencies, in ms."""
    n = len(values_s)
    tail = tail_permille(n)
    out: Dict[str, object] = {"n": n, "tail_permille": tail}
    for name, q in (("p50", 500), ("p90", 900), ("p99", 990)):
        out[f"{name}_ms"] = percentile(values_s, q) * 1e3 if n else None
        out[f"{name}_supported"] = supports_percentile(n, q)
    out["tail_ms"] = percentile(values_s, tail) * 1e3 if tail else None
    return out


def chunk_rates(t0: float, done_s: Sequence[float], chunk: int) -> List[float]:
    """Completion rate of each run of ``chunk`` consecutive completions,
    counted from ``t0``; the overall rate when there are fewer.

    A host stall of a few seconds slows one chunk, so their median is
    recorded next to the overall rate.
    """
    done = np.sort(np.asarray(done_s, dtype=np.float64))
    if len(done) < chunk:
        return [len(done) / (done[-1] - t0)]
    edges = np.concatenate(([t0], done[chunk - 1::chunk]))
    return (chunk / np.diff(edges)).tolist()


def fastest_chunks(t0: float, done_s: Sequence[float], chunk: int,
                   share: float) -> Tuple[float, np.ndarray]:
    """The fastest ``share`` of the runs of ``chunk`` consecutive
    completions counted from ``t0``: their combined completion rate, and
    the indices into ``done_s`` of the responses completed in them.

    Interference from other tenants only ever slows a run down, so the
    runs it missed measure the program; with fewer than ``chunk``
    completions the whole phase is one run.
    """
    done_s = np.asarray(done_s, dtype=np.float64)
    order = np.argsort(done_s, kind="stable")
    runs = len(done_s) // chunk
    if runs == 0:
        return len(done_s) / (done_s.max() - t0), order
    edges = np.concatenate(([t0], done_s[order][chunk - 1::chunk][:runs]))
    durations = np.diff(edges)
    fastest = np.argsort(durations, kind="stable")[
        :max(1, int(np.ceil(share * runs)))]
    picked = np.concatenate([order[k * chunk:(k + 1) * chunk]
                             for k in sorted(fastest)])
    return len(picked) / durations[fastest].sum(), picked


def median(values: Sequence[float]) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


# ----------------------------------------------------------------------
# host fingerprint and memory
# ----------------------------------------------------------------------
def cpu_count() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:   # not on Linux
        return os.cpu_count() or 1


def _git(root: pathlib.Path, *args: str) -> Optional[str]:
    try:
        out = subprocess.run(["git", *args], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest(src: pathlib.Path) -> str:
    """SHA-256 over the package sources: names the code without git."""
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_fingerprint(root: pathlib.Path, *, jobs: int,
                     start_method: Optional[str]) -> Dict[str, object]:
    """Where and on what code a result was measured."""
    # A checkout without its own .git must not report an enclosing repo.
    sha = _git(root, "rev-parse", "HEAD") if (root / ".git").exists() \
        else None
    status = _git(root, "status", "--porcelain") if sha else None
    nproc = cpu_count()
    return {
        "nproc": nproc,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": sha,
        "git_dirty": bool(status) if sha else None,
        "source_sha256": source_digest(root / "src" / "repro"),
        "start_method": start_method,
        "jobs": jobs,
        "oversubscribed": jobs > nproc,
    }


def cpu_steal_ticks() -> Tuple[int, int]:
    """(stolen, total) CPU ticks since boot: the hypervisor's share of a
    VM's time is noise no benchmark design removes, so runs record it."""
    with open("/proc/stat") as fh:
        ticks = [int(v) for v in fh.readline().split()[1:]]
    return ticks[7], sum(ticks)


_SPIN = ("import os\n"
         "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
         "while True:\n    pass\n")
_spinners: set = set()


@contextlib.contextmanager
def vcpus_kept_awake(n: int):
    """Run ``n`` busy loops at ``SCHED_IDLE`` priority inside the block.

    They take CPU only when nothing else wants it, so an idle vCPU keeps
    running instead of halting.  On a VM, waking a halted vCPU waits for
    the hypervisor to schedule it; a serving loop whose workers block on
    every tile round trip pays that wait many times a second, and when
    neighbouring VMs are busy the wait, not the program, sets its speed.
    """
    procs = [subprocess.Popen([sys.executable, "-c", _SPIN])
             for _ in range(n)]
    _spinners.update(p.pid for p in procs)
    try:
        yield
    finally:
        for p in procs:
            p.kill()
        for p in procs:
            p.wait()
        _spinners.difference_update(p.pid for p in procs)


def _status_kb(pid: int, field: str) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith(field + ":"):
                    return int(line.split()[1])
    except OSError:   # the process ended meanwhile
        pass
    return 0


def _descendants(root: int) -> List[int]:
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as fh:
                stat = fh.read()
        except OSError:
            continue
        ppid = int(stat[stat.rindex(")") + 2:].split()[1])
        children.setdefault(ppid, []).append(int(entry))
    found, todo = [], [root]
    while todo:
        for child in children.get(todo.pop(), ()):
            found.append(child)
            todo.append(child)
    return found


def peak_rss_mb() -> float:
    """Peak RSS of this process plus every live descendant (workers),
    not counting the busy loops of :func:`vcpus_kept_awake`."""
    pids = [os.getpid()] + [pid for pid in _descendants(os.getpid())
                            if pid not in _spinners]
    return sum(_status_kb(pid, "VmHWM") for pid in pids) / 1024.0


def stop_helper_processes(timeout: float = 10.0) -> None:
    """Stop multiprocessing's forkserver and resource tracker, then wait
    until no child of this process is left.

    Both helpers otherwise outlive the benchmark by a moment: they exit
    only when they notice their parent has gone.
    """
    from multiprocessing import forkserver, resource_tracker
    for helper in (forkserver._forkserver, resource_tracker._resource_tracker):
        helper._stop()
    deadline = time.monotonic() + timeout
    while _descendants(os.getpid()) and time.monotonic() < deadline:
        time.sleep(0.05)


# ----------------------------------------------------------------------
# paced stdio streams for serve_stdio
# ----------------------------------------------------------------------
class ResponseWriter(io.TextIOBase):
    """In-memory stdout recording each response line with its arrival time.

    ``serve_stdio`` writes one whole line per ``write`` call; lines are
    kept raw and parsed after the timed window, so the measurement pays
    no JSON decoding.
    """

    def __init__(self) -> None:
        self.lines: List[tuple] = []
        self._cond = threading.Condition()

    def write(self, s: str) -> int:
        if s.strip():
            t = time.perf_counter()
            with self._cond:
                self.lines.append((t, s))
                self._cond.notify_all()
        return len(s)

    def flush(self) -> None:
        pass

    def wait_for(self, count: int, timeout: float = 120.0) -> None:
        with self._cond:
            if not self._cond.wait_for(lambda: len(self.lines) >= count,
                                       timeout):
                raise TimeoutError(f"{len(self.lines)} of {count} responses "
                                   f"after {timeout} s")

    def responses(self) -> Dict[object, tuple]:
        """``{id: (arrival time, parsed response)}``."""
        out = {}
        for t, line in self.lines:
            resp = json.loads(line)
            out[resp.get("id")] = (t, resp)
        return out


class PacedReader(io.TextIOBase):
    """In-memory stdin that drives one ``serve_stdio`` boot.

    The session runs in steps, each answered in full before the next:

    1. ``warm`` lines, handed over at once (caches fill, lazy set-up
       finishes), then the ``before_timed`` lines;
    2. the timed phase: ``line_for(i)`` for i = 0, 1, ... — open-loop at
       ``rate`` requests/s (request *i* is due at ``t0 + i / rate``) for
       ``count`` requests, or with ``rate == 0`` a closed loop that keeps
       ``depth`` requests unanswered until ``duration`` s pass (a request
       is due when a slot frees); ``on_drained`` runs once they are all
       answered;
    3. ``tail`` lines, then EOF.

    Every timed request keeps its *due* time and the time it was actually
    handed over.  Latency is measured from the due time, so a server that
    stops reading (``max_pending`` backpressure, a stall) makes every
    later request late instead of hiding the wait; the hand-over minus
    the due time is the generator's lateness.
    """

    def __init__(self, line_for: Callable[[int], str], writer: ResponseWriter,
                 *, rate: float = 0.0, count: Optional[int] = None,
                 depth: int = 0, duration: Optional[float] = None,
                 warm: Sequence[str] = (), before_timed: Sequence[str] = (),
                 tail: Sequence[str] = (),
                 on_drained: Optional[Callable[[], None]] = None):
        if rate > 0 and count is None:
            raise ValueError("an open-loop phase needs a request count")
        if rate <= 0 and (depth < 1 or duration is None):
            raise ValueError("a closed-loop phase needs a depth and a "
                             "duration")
        self._line_for = line_for
        self._writer = writer
        self._rate = rate
        self._count = count
        self._depth = depth
        self._duration = duration
        self._on_drained = on_drained
        self._handed_total = 0
        self._steps = self._script(list(warm), list(before_timed), list(tail))
        self.t_first_read: Optional[float] = None
        self.t0: Optional[float] = None
        self.due: List[float] = []
        self.handed: List[float] = []

    def readline(self) -> str:   # called from serve_stdio's reader thread
        if self.t_first_read is None:
            self.t_first_read = time.perf_counter()
        line = next(self._steps, "")   # "" is EOF: serve_stdio drains
        if line:
            self._handed_total += 1
        return line

    def _drain(self) -> None:
        self._writer.wait_for(self._handed_total)

    def _script(self, warm: List[str], before_timed: List[str],
                tail: List[str]):
        for group in (warm, before_timed):
            yield from group
            self._drain()
        self.t0 = time.perf_counter()
        i = 0
        while True:
            if self._rate > 0:
                if i >= self._count:
                    break
                due = self.t0 + i / self._rate
                wait = due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
            else:
                self._writer.wait_for(self._handed_total - self._depth + 1)
                due = time.perf_counter()
                if due - self.t0 >= self._duration:
                    break
            self.due.append(due)
            self.handed.append(time.perf_counter())
            yield self._line_for(i)
            i += 1
        self._drain()
        if self._on_drained is not None:
            self._on_drained()
        yield from tail
        self._drain()


def due_latencies(due: Sequence[float], done: Sequence[float]) -> List[float]:
    """Per-request latency measured from when each request was due."""
    return [d1 - d0 for d0, d1 in zip(due, done)]


# ----------------------------------------------------------------------
# correctness
# ----------------------------------------------------------------------
def same_result(output: np.ndarray, energy_j: float, latency_s: float,
                ref_output: np.ndarray, ref_ledger) -> bool:
    """Bit-exact equality of an image and its modelled ledger totals."""
    output = np.asarray(output, dtype=np.float64)
    return (output.shape == ref_output.shape
            and output.tobytes() == np.asarray(
                ref_output, dtype=np.float64).tobytes()
            and energy_j == ref_ledger.energy_j
            and latency_s == ref_ledger.latency_s)


def log(*parts: object) -> None:
    """Progress to stderr: stdout's last line is reserved for the result."""
    print(*parts, file=sys.stderr, flush=True)
