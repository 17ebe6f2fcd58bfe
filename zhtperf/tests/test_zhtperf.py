"""Self-tests of the benchmark itself.

Run from the repository root::

    python3 -m pytest zhtperf/tests -q

The end-to-end tests start the benchmark as a subprocess at a tiny
length, exactly as it is run for real.
"""

from __future__ import annotations

import itertools
import json
import os
import re
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from zhtperf import layers  # noqa: E402
from zhtperf.model import Model  # noqa: E402
from zhtperf.workloads import WORKLOADS, make_inputs, op_stream  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as _f:
    BENCHMARK = json.load(_f)
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]
UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]}
COUNTS = (
    "client.hash_calls_per_key",
    "tcp.roundtrips_per_call",
    "tcp.connects",
    "wal.fsyncs_per_write",
    "wal.bytes_per_user_byte",
    "server.replica_updates_per_write",
    "novoht.checkpoints",
)


def bench(*args: str) -> tuple[int, str, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "zhtperf", "run.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    return proc.returncode, proc.stdout, result


def test_benchmark_json_names_every_workload():
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(WORKLOADS)
    for w in BENCHMARK["workloads"]:
        assert w["why"] == WORKLOADS[w["name"]].why


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_each_workload_runs_and_checks_every_reply(workload):
    code, out, result = bench("--workload", workload, "--seed", "3", "--seconds", "1.5")
    assert code == 0, out
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == END_TO_END
    for name, metric in result["metrics"].items():
        assert metric["value"] > 0, name
        assert metric["unit"] == UNITS[name], name
    assert "host: nproc=" in out and "steal_ticks_in_window=" in out
    if WORKLOADS[workload].kill_and_read_back:
        assert re.search(r"read-back after SIGKILL .*: [1-9]\d* keys, 0 wrong", out)


def test_corrupted_reply_fails_the_run():
    code, out, result = bench(
        "--workload", "micro-132b", "--seed", "3", "--seconds", "1", "--corrupt-every", "50"
    )
    assert code == 1, out
    assert result["correct"] is False
    assert result["failed"] > 0
    assert "first: key" in out


def test_model_semantics():
    model = Model({b"k": b"v"})
    model.append(b"k", b"+a")
    model.append(b"new", b"x")
    assert model.check(b"k", b"v+a")
    assert model.check(b"new", b"x")
    assert model.check(b"absent", None)
    assert not model.check(b"absent", b"v")
    assert not model.check(b"k", None)
    assert not model.check(b"k", b"w+a")
    assert model.wrong == 3
    model.forget(b"k")
    assert model.check(b"k", b"anything")
    assert b"k" not in model.known()


def _ops(workload, seed, n=400):
    inputs = make_inputs(workload, seed)
    return [list(itertools.islice(op_stream(workload, inputs, seed, t, 2), n)) for t in range(2)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_alone_determines_the_op_stream(workload):
    w = WORKLOADS[workload]
    assert make_inputs(w, 11) == make_inputs(w, 11)
    assert _ops(w, 11) == _ops(w, 11)
    assert _ops(w, 11) != _ops(w, 12)
    # Threads own disjoint keys: one writer per key.
    keys = [
        {k for op in stream for k in (op[1] if isinstance(op[1], tuple) else (op[1],))}
        for stream in _ops(w, 11)
    ]
    live = set(make_inputs(w, 11).keys)
    assert not (keys[0] & keys[1] & live)


def test_budget_telescopes_across_threads_and_processes():
    # One replicated insert: api > exec > route + mux roundtrip (encode
    # child; reply decoded on the reader thread).  The primary decodes,
    # handles (store, WAL), waits in the pool, runs the peer roundtrip
    # (the secondary's spans nest in it) and encodes the reply.
    client = {
        "|api": [1, 10, 965],
        "|exec": [1, 5, 955],
        "|route": [3, 30, 30],
        "|tcp.mux": [1, 900, 920],
        "|encode": [1, 20, 20],
        "|decode.reader": [1, 15, 15],
    }
    server = {
        "client|decode": [1, 12, 12],
        "client|handle": [1, 40, 300],
        "client|novoht.op": [1, 60, 260],
        "client|wal": [1, 200, 200],
        "client|pool_wait:_finish": [1, 50, 50],
        "client|tcp.peer": [1, 280, 300],
        "client|encode": [2, 20, 20],
        "replica|decode": [1, 10, 10],
        "replica|handle": [1, 20, 250],
        "replica|novoht.op": [1, 30, 230],
        "replica|wal": [1, 200, 200],
        "replica|encode": [1, 10, 10],
        "other|handle": [1, 999, 999],
        "client|pool_wait:_drain_maintenance": [1, 777, 777],
    }
    out = layers.budget(client, server, key_ops=1)
    rows = out["rows"]
    assert out["mean_call_us"] == pytest.approx(0.965)
    assert sum(rows.values()) + out["remainder_us"] == pytest.approx(out["mean_call_us"])
    # What no row covers is exactly execute_op's own self time.
    assert out["remainder_us"] == pytest.approx(0.005)
    assert rows["server.replica_us"] == pytest.approx((280 - 270) / 1e3)
    assert rows["server.pool_wait_us"] == pytest.approx(0.05)
    assert rows["tcp.roundtrip_self_us"] == pytest.approx((900 - 15 - 662) / 1e3)


def _trace(workload: str) -> tuple[str, dict]:
    code, out, result = bench("--workload", workload, "--seed", "5", "--seconds", "1", "--trace", "1")
    assert code == 0, out
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == PER_LAYER
    for name, metric in result["metrics"].items():
        assert metric["unit"] == UNITS[name], name
    return out, result["metrics"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_traced_run_budget_closes_and_counts_repeat(workload):
    first_out, first = _trace(workload)
    second_out, second = _trace(workload)
    for out, metrics in ((first_out, first), (second_out, second)):
        mean = float(re.search(r"mean call ([\d.]+) us", out).group(1))
        rows = sum(metrics[name]["value"] for name in layers.ROWS)
        remainder = metrics["budget.remainder_us"]["value"]
        assert rows + remainder == pytest.approx(mean, rel=1e-3)
        assert abs(remainder) <= layers.BUDGET_TOLERANCE * mean, out
        assert "budget closes" in out
        assert "trace.overhead_pct" in out
    for name in COUNTS:
        assert first[name] == second[name], name
    assert first["client.hash_calls_per_key"]["value"] > 0
    assert first["tcp.roundtrips_per_call"]["value"] >= 1
