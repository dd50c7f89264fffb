"""Tests for the benchmark harness itself (no worker pools are started)."""

import json
import queue
import threading
import time
from types import SimpleNamespace

import numpy as np
import pytest

from repro.apps.executor import run_tiled
from repro.serve.service import encode_response
from yardstick import harness, run, tracing, workloads


# ----------------------------------------------------------------------
# percentiles: ten samples beyond
# ----------------------------------------------------------------------
@pytest.mark.parametrize("n, permille, supported", [
    (19, 500, False), (20, 500, True),
    (99, 900, False), (100, 900, True),
    (999, 990, False), (1000, 990, True),
])
def test_percentile_needs_ten_samples_beyond(n, permille, supported):
    assert harness.supports_percentile(n, permille) is supported


@pytest.mark.parametrize("n, tail", [
    (5, None), (20, 500), (99, 500), (100, 900), (1000, 990), (10000, 999),
])
def test_tail_is_highest_supported_percentile(n, tail):
    assert harness.tail_permille(n) == tail


def test_latency_summary_flags_unsupported_tails():
    summary = harness.latency_summary([0.001 * i for i in range(1, 151)])
    assert summary["n"] == 150
    assert summary["tail_permille"] == 900
    assert summary["p90_supported"] and not summary["p99_supported"]
    assert summary["p50_ms"] == pytest.approx(75.5)


# ----------------------------------------------------------------------
# open-loop accounting: latency from the due time
# ----------------------------------------------------------------------
def _echo_server(reader, writer, stall_after, stall_s):
    """Answer each line at once, but stop reading for ``stall_s`` once,
    as a server under backpressure does."""
    i = 0
    while True:
        line = reader.readline()
        if not line:
            return
        writer.write(line)
        if i == stall_after:
            time.sleep(stall_s)
        i += 1


def test_generator_stall_shows_as_latency_from_due_time():
    writer = harness.ResponseWriter()
    reader = harness.PacedReader(
        lambda i: json.dumps({"id": i}) + "\n", writer, rate=200.0,
        count=30)
    _echo_server(reader, writer, stall_after=5, stall_s=0.2)
    done = [writer.responses()[i][0] for i in range(30)]
    from_due = harness.due_latencies(reader.due, done)
    from_handover = harness.due_latencies(reader.handed, done)
    # Request 6 was due 5 ms after request 5 but read 200 ms later: the
    # stall is charged to it and to those queued behind it...
    assert from_due[6] > 0.15
    assert sum(1 for lat in from_due if lat > 0.1) >= 10
    # ...while timing from the hand-over would hide it entirely.
    assert max(from_handover) < 0.1
    lateness = [h - d for h, d in zip(reader.handed, reader.due)]
    assert max(lateness) > 0.15


def test_reader_drains_each_step_before_the_next():
    writer = harness.ResponseWriter()
    reader = harness.PacedReader(
        lambda i: json.dumps({"id": i}) + "\n", writer, depth=1,
        duration=0.02, warm=['{"id": "w"}\n'],
        before_timed=['{"id": "s"}\n'], tail=['{"id": "t"}\n'])
    _echo_server(reader, writer, stall_after=-1, stall_s=0)
    ids = [json.loads(line)["id"] for _, line in writer.lines]
    assert ids[:2] == ["w", "s"] and ids[-1] == "t"
    assert ids[2:-1] == list(range(len(reader.due)))


def test_closed_loop_keeps_depth_requests_unanswered():
    """A server that reads ahead and answers each line 2 ms later never
    holds more than ``depth`` timed requests."""
    writer = harness.ResponseWriter()
    reader = harness.PacedReader(
        lambda i: json.dumps({"id": i}) + "\n", writer, depth=3,
        duration=0.2)
    lines = queue.Queue()

    def answer():
        while True:
            line = lines.get()
            if not line:
                return
            time.sleep(0.002)
            writer.write(line)

    responder = threading.Thread(target=answer)
    responder.start()
    while True:
        line = reader.readline()
        lines.put(line)
        if not line:
            break
    responder.join()
    answered = sorted(t for t, _ in writer.lines)
    unanswered = [i + 1 - sum(1 for t in answered if t <= handed)
                  for i, handed in enumerate(reader.handed)]
    assert len(reader.due) > 20
    assert max(unanswered) == 3
    # a closed-loop request is due when a slot frees, which is when it
    # is handed over: the generator is never late
    assert all(h - d < 0.01 for h, d in zip(reader.handed, reader.due))


def test_median_chunk_rate_ignores_one_stalled_chunk():
    done = [0.01 * k for k in range(1, 501)]
    done = done[:250] + [t + 2.0 for t in done[250:]]   # a 2 s stall
    rates = harness.chunk_rates(0.0, done, 100)
    assert len(rates) == 5 and min(rates) < 40
    assert harness.median(rates) == pytest.approx(100.0)
    assert 500 / done[-1] < 75   # the overall rate would read the stall
    assert harness.chunk_rates(0.0, [0.5, 1.0], 10) == pytest.approx([2.0])


def test_fastest_chunks_skip_slow_spells():
    # 100 completions/s, except 200/s over responses 300-399 and a
    # 2 s stall before response 600; given out of order
    gaps = [0.005 if 300 <= k < 400 else 0.01 for k in range(1000)]
    gaps[600] += 2.0
    done = np.cumsum(gaps)
    shuffled = np.random.default_rng(0).permutation(1000)
    rate, picked = harness.fastest_chunks(0.0, done[shuffled], 100, 0.1)
    assert rate == pytest.approx(200.0)
    assert sorted(shuffled[picked]) == list(range(300, 400))
    rate, picked = harness.fastest_chunks(0.0, done, 100, 0.5)
    assert rate == pytest.approx(100 * 500 / 450)   # 200/s + four 100/s
    assert 600 not in picked and len(picked) == 500
    rate, picked = harness.fastest_chunks(1.0, [1.5, 2.0], 10, 0.1)
    assert rate == pytest.approx(2.0) and sorted(picked) == [0, 1]


# ----------------------------------------------------------------------
# traced breakdown
# ----------------------------------------------------------------------
def _span(tracer, name, start, end, parent=None):
    span = tracing.Span(name, start, parent)
    span.end = end
    if parent is not None:
        parent.child_s += span.duration
    tracer.spans.append(span)
    return span


def test_self_times_add_up_to_the_root():
    tracer = tracing.Tracer()
    root = _span(tracer, "root", 0.0, 10.0)
    build = _span(tracer, "build", 0.0, 2.0, root)
    _span(tracer, "publish", 0.5, 1.5, build)
    _span(tracer, "kernel", 2.0, 9.5, root)
    own = tracer.self_times("root")
    assert own == pytest.approx({"root": 0.5, "build": 1.0, "publish": 1.0,
                                 "kernel": 7.5})
    assert sum(own.values()) == pytest.approx(10.0)
    error = tracing.breakdown_error(own, "root")
    assert error == pytest.approx(0.05)
    assert error <= tracing.BREAKDOWN_TOLERANCE


def test_breakdown_check_fails_when_layers_miss_time():
    tracer = tracing.Tracer()
    root = _span(tracer, "root", 0.0, 10.0)
    _span(tracer, "kernel", 0.0, 8.0, root)
    own = tracer.self_times("root")
    error = tracing.breakdown_error(own, "root")
    assert error == pytest.approx(0.2)
    assert error > tracing.BREAKDOWN_TOLERANCE


def test_patched_spans_restore_the_original():
    class Owner:
        @staticmethod
        def work(x):
            return 2 * x

    tracer = tracing.Tracer()
    original = Owner.__dict__["work"]
    with tracing.contextlib.ExitStack() as stack:
        tracing.patch_span(stack, tracer, Owner, "work", "layer")
        with tracer.span("root"):
            assert Owner.work(3) == 6
    assert Owner.__dict__["work"] is original
    assert [s.name for s in tracer.spans] == ["layer", "root"]
    assert tracer.spans[0].parent is tracer.spans[1]


# ----------------------------------------------------------------------
# correctness: a corrupted output fails the run
# ----------------------------------------------------------------------
def test_one_ulp_or_ledger_change_is_incorrect():
    image, ledger = run_tiled("gamma_correct",
                              {"image": np.full((4, 4), 0.3)}, 32, tile=2,
                              jobs=1, seed=1, kernel_kwargs={"gamma": 0.5})
    assert harness.same_result(image.tolist(), ledger.energy_j,
                               ledger.latency_s, image, ledger)
    bumped = image.copy()
    bumped[1, 2] = np.nextafter(bumped[1, 2], 2.0)
    assert not harness.same_result(bumped, ledger.energy_j,
                                   ledger.latency_s, image, ledger)
    assert not harness.same_result(image, ledger.energy_j * (1 + 1e-15),
                                   ledger.latency_s, image, ledger)


def _corrupting_server(corrupt_id):
    """A stand-in for ``serve_stdio`` that answers correctly except for
    one response, whose output it nudges by one ulp."""
    def serve(reader, writer, **_):
        while True:
            line = reader.readline()
            if not line:
                return 0
            raw = json.loads(line)
            if raw.get("type") == "stats":
                writer.write(json.dumps({"id": raw["id"], "ok": True,
                                         "stats": {}}) + "\n")
                continue
            image, ledger = run_tiled(
                raw["kernel"], {"image": np.asarray(raw["inputs"]["image"])},
                raw["length"], tile=raw["tile"], jobs=1, seed=raw["seed"],
                kernel_kwargs=raw["kernel_kwargs"],
                config=workloads.CONFIG)
            if raw["id"] == corrupt_id:
                image = image.copy()
                image[0, 0] = np.nextafter(image[0, 0], 2.0)
            writer.write(encode_response(raw["id"], image, ledger) + "\n")
    return serve


def test_corrupted_served_output_is_counted_incorrect(monkeypatch):
    monkeypatch.setattr(workloads, "serve_stdio", _corrupting_server(3))
    monkeypatch.setattr(workloads, "SMALL_WARM", 2)
    bench = workloads.SmallStdio(seed=7)
    out = workloads.Outcome()
    bench.session(out, rate=500.0, count=6)
    assert (out.attempted, out.failed, out.incorrect) == (8, 0, 1)


def test_faulty_batch_checks_every_call(monkeypatch):
    """A repeat that differs from its key's first call, and a first call
    that differs from the reference, are both counted incorrect."""
    image = np.zeros((2, 2))
    ledger = SimpleNamespace(energy_j=1.0, latency_s=2.0)
    bench = workloads.FaultyBatch(seed=3, run_py="")
    bad_repeat = len(bench.keys) + 1   # the second call of the second key
    calls = []

    def call(app, seed):
        calls.append((app, seed))
        out = image.copy()
        if len(calls) == bad_repeat:
            out[0, 0] = np.nextafter(0.0, 1.0)
        return SimpleNamespace(output=out, ledger=ledger)

    def reference(app, seed):
        wrong = (app, seed) == bench.keys[-1]
        return image + wrong, ledger

    monkeypatch.setattr(workloads, "faulty_reference", reference)
    run = bench.batch(0.05, call, min_samples=2 * len(bench.keys))
    out = workloads.Outcome()
    bench._verify(out, run)
    last_key_calls = sum(1 for key in calls if key == bench.keys[-1])
    assert out.attempted == len(calls) >= 2 * len(bench.keys)
    assert out.failed == 0
    assert out.incorrect == 1 + last_key_calls


def test_incorrect_output_exits_nonzero(monkeypatch, capsys):
    def fake(name, seed, seconds, trace):
        return {"workload": name, "seed": seed, "trace": 0, "attempted": 5,
                "failed": 0, "incorrect": 1,
                "metrics": {"ok_pct": {"value": 100.0, "unit": "%"}}}

    monkeypatch.setattr(run, "run_workload", fake)
    assert run.main(["--workload", "small_stdio"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert result == {"correct": False, "attempted": 5, "failed": 0,
                      "metrics": {"ok_pct": {"value": 100.0, "unit": "%"}}}
