"""The two kinds of run, and what each prints.

A timed run (``--trace 0``) gives the end-to-end metrics; a traced run
(``--trace 1``) gives the per-layer budget, CPU cost per op, tracing
overhead and the exact counts.  Both print a host record and a
human-readable account before the JSON result line.
"""

from __future__ import annotations

import statistics

from . import harness, layers
from .harness import SETUPS, THREADS, build, drive, make_threads
from .workloads import Workload, make_inputs

UNITS = {
    "ops_per_s": "1/s",
    "p50_ms": "ms",
    "setup_s": "s",
    "server_rss_mb": "MB",
    **{row: "us" for row in layers.ROWS},
    "budget.remainder_us": "us",
    "novoht.checkpoint_ms": "ms",
    "client.cpu_us_per_op": "us",
    "server.cpu_us_per_op": "us",
    "trace.overhead_pct": "%",
    "client.hash_calls_per_key": "count/key",
    "tcp.roundtrips_per_call": "count/call",
    "tcp.connects": "count",
    "wal.fsyncs_per_write": "count/write",
    "wal.bytes_per_user_byte": "B/B",
    "server.replica_updates_per_write": "count/write",
    "novoht.checkpoints": "count",
}


def _metric(value: float, name: str) -> dict:
    return {"value": value, "unit": UNITS[name]}


def _host(seg_steal: int | None = None) -> None:
    host = harness.host_record()
    line = " ".join(f"{k}={v}" for k, v in host.items())
    if seg_steal is not None:
        line += f" steal_ticks_in_window={seg_steal}"
    print(f"host: {line}")


def _segment_lines(seg: harness.Segment, label: str) -> None:
    print(
        f"{label} window: {seg.window_s:.3f} s, {seg.key_ops} key ops in {seg.calls} calls, "
        f"{THREADS} threads, steal ticks {seg.steal}; {seg.ops_per_s:.1f} key ops/s"
    )
    print(
        f"{label} replies: attempted {seg.attempted} key ops, failed {seg.failed}, "
        f"wrong {seg.wrong}" + (f" (first: {seg.first_wrong})" if seg.first_wrong else "")
    )


def timed_run(
    workload: Workload, seed: int, seconds: float, workdir: str, corrupt_every: int = 0
) -> dict:
    """End-to-end metrics of *workload*, tracing off."""
    print(f"zhtperf {workload.name} seed={seed} seconds={seconds} trace=0")
    inputs = make_inputs(workload, seed)
    setups: list[float] = []
    cluster = None
    for i in range(SETUPS):
        if cluster is not None:
            cluster.close()
        cluster = build(workload, inputs, seed, workdir, f"setup-{i}")
        setups.append(cluster.setup_s)
    try:
        workers = make_threads(workload, inputs, seed, cluster, THREADS, corrupt_every)
        seg = drive(workload, cluster, workers, seconds)
        rss = sum(harness.peak_rss_mb(pid) for pid in cluster.pids)
        checked = read_wrong = 0
        if workload.kill_and_read_back:
            checked, read_wrong = harness.kill_and_read_back(
                cluster, seg.models, inputs.ghosts, seed
            )
    finally:
        cluster.close()
    _host(seg.steal)
    _segment_lines(seg, "timed")
    if workload.kill_and_read_back:
        print(
            f"read-back after SIGKILL and respawn of every server: {checked} keys, "
            f"{read_wrong} wrong"
        )
    metrics = {
        "ops_per_s": _metric(seg.ops_per_s, "ops_per_s"),
    }
    n = len(seg.latencies_ns)
    p50 = seg.percentile_ms(50)
    print(f"p50_ms {p50[0]:.4f} ms (n={n} calls)")
    metrics["p50_ms"] = _metric(p50[0], "p50_ms")
    # p99 is printed, not gated: on a host with VM steal its run-to-run
    # spread is several times the largest bound a metric may have.
    tail = seg.percentile_ms(99)
    if tail is None:
        print(f"p99 not supported: fewer than {harness.TAIL_SAMPLES} of {n} calls beyond it")
    else:
        print(f"p99 {tail[0]:.4f} ms (n={n} calls, {tail[1]} beyond)")
    setup_s = statistics.median(setups)
    print("setup_s runs: " + ", ".join(f"{s:.4f}" for s in setups) + f" -> median {setup_s:.4f} s")
    metrics["setup_s"] = _metric(setup_s, "setup_s")
    metrics["server_rss_mb"] = _metric(rss, "server_rss_mb")
    print(f"server_rss_mb {rss:.2f} MB (sum of peak RSS of {harness.NODES} server processes)")
    wrong = seg.wrong + read_wrong
    return {
        "correct": wrong == 0,
        "attempted": seg.attempted + checked,
        "failed": seg.failed + wrong,
        "metrics": metrics,
    }


def traced_run(workload: Workload, seed: int, seconds: float, workdir: str) -> dict:
    """Per-layer metrics: untraced window, traced window, count pass."""
    print(f"zhtperf {workload.name} seed={seed} seconds={seconds} trace=1")
    inputs = make_inputs(workload, seed)
    half = seconds / 2

    cluster = build(workload, inputs, seed, workdir, "untraced")
    try:
        plain = drive(workload, cluster, make_threads(workload, inputs, seed, cluster, THREADS), half)
    finally:
        cluster.close()

    tracer = layers.Tracer()
    layers.install(tracer)
    cluster = build(workload, inputs, seed, workdir, "traced")
    edges: dict[str, dict] = {}

    def on_start() -> None:
        # STATS travels through wrapped code in this process too: read
        # the servers first at the start and last at the stop.
        edges["server0"] = cluster.server_totals()
        edges["client0"] = tracer.totals()

    def on_stop() -> None:
        edges["client1"] = tracer.totals()
        edges["server1"] = cluster.server_totals()

    try:
        traced = drive(
            workload,
            cluster,
            make_threads(workload, inputs, seed, cluster, THREADS),
            half,
            on_start,
            on_stop,
        )
    finally:
        cluster.close()
    budget = layers.budget(
        layers.delta(edges["client1"], edges["client0"]),
        layers.delta(edges["server1"], edges["server0"]),
        traced.key_ops,
    )
    counted = harness.count_pass(workload, inputs, seed, workdir, tracer)

    _host(plain.steal + traced.steal)
    _segment_lines(plain, "untraced")
    _segment_lines(traced, "traced")
    overhead = 100.0 * (plain.ops_per_s - traced.ops_per_s) / plain.ops_per_s
    print_budget(budget, traced.key_ops)
    print(
        f"trace.overhead_pct {overhead:.2f} (untraced {plain.ops_per_s:.1f} key ops/s, "
        f"traced {traced.ops_per_s:.1f} key ops/s)"
    )
    client_cpu = plain.client_cpu_s / plain.key_ops * 1e6
    server_cpu = plain.server_cpu_s / plain.key_ops * 1e6
    print(
        f"cpu per key op (untraced window): client {client_cpu:.2f} us, "
        f"servers {server_cpu:.2f} us"
    )
    print(
        f"exact counts (1 thread, seed {seed}, {workload.count_calls} calls, "
        f"{counted['attempted']} key ops, {counted['failed']} failed):"
    )
    for name, value in counted["counts"].items():
        print(f"  {name:34s} {value:.6g} {UNITS[name]}")

    metrics = {name: _metric(value, name) for name, value in budget["rows"].items()}
    metrics["budget.remainder_us"] = _metric(budget["remainder_us"], "budget.remainder_us")
    metrics["novoht.checkpoint_ms"] = _metric(budget["checkpoint_ms"], "novoht.checkpoint_ms")
    metrics["client.cpu_us_per_op"] = _metric(client_cpu, "client.cpu_us_per_op")
    metrics["server.cpu_us_per_op"] = _metric(server_cpu, "server.cpu_us_per_op")
    metrics["trace.overhead_pct"] = _metric(overhead, "trace.overhead_pct")
    for name, value in counted["counts"].items():
        metrics[name] = _metric(value, name)
    wrong = plain.wrong + traced.wrong
    return {
        "correct": wrong == 0 and counted["failed"] == 0,
        "attempted": plain.attempted + traced.attempted + counted["attempted"],
        "failed": plain.failed + traced.failed + wrong + counted["failed"],
        "metrics": metrics,
    }


def print_budget(budget: dict, key_ops: int) -> None:
    mean = budget["mean_call_us"]
    print(
        f"layer budget, traced window (self time, us per key op; {key_ops} key ops; "
        f"mean call {mean:.3f} us per key op):"
    )
    for name, value in budget["rows"].items():
        print(f"  {name:26s} {value:10.3f} {100 * value / mean:6.1f}%")
    total = sum(budget["rows"].values())
    print(f"  {'sum of rows':26s} {total:10.3f} {100 * total / mean:6.1f}%")
    verdict = "closes" if budget["closes"] else "DOES NOT close"
    print(
        f"  {'budget.remainder_us':26s} {budget['remainder_us']:10.3f} "
        f"{100 * budget['remainder_us'] / mean:6.1f}%  -> budget {verdict} "
        f"(tolerance +-{100 * layers.BUDGET_TOLERANCE:.0f}% of the mean call)"
    )
    print(
        f"  novoht.checkpoint_ms {budget['checkpoint_ms']:.3f} ms per checkpoint "
        f"({budget['checkpoints']} in the window, off the reply path)"
    )
