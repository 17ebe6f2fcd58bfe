"""Cluster lifecycle, closed-loop load, and the measurements of one run.

The cluster is two ZHT nodes built with ``build_sharded_tcp_cluster``,
one shard each, so each node's server is its own forked process.  Load
comes from this process: ``THREADS`` closed-loop threads sharing one
client handle (one multiplexed connection per node).
"""

from __future__ import annotations

import os
import platform
import shutil
import threading
import time
from dataclasses import dataclass, field
from time import perf_counter, perf_counter_ns

from repro.core.config import ZHTConfig
from repro.core.errors import KeyNotFound, ZHTError
from repro.net.cluster import build_sharded_tcp_cluster
from repro.obs import REGISTRY

from . import layers
from .model import Model
from .workloads import (
    APPEND,
    BATCH_KEYS,
    INSERT,
    INSERT_MANY,
    LOOKUP,
    LOOKUP_MANY,
    Inputs,
    Workload,
    op_stream,
)

NODES = 2
THREADS = 2
#: Cluster set-ups per run; ``setup_s`` is their median.
SETUPS = 3
#: A percentile is reported only with at least this many samples beyond it.
TAIL_SAMPLES = 10


# -- host and process readings --------------------------------------------------


def host_record() -> dict:
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model,
        "python": platform.python_version(),
        "kernel": platform.release(),
    }


def steal_ticks() -> int:
    """Machine-wide steal time in clock ticks (0 where not reported)."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else 0
    except (OSError, ValueError):
        return 0


def process_cpu_s(pid: int) -> float:
    """User + system CPU seconds of *pid* (from /proc/<pid>/stat)."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def self_cpu_s() -> float:
    t = os.times()
    return t.user + t.system


# -- cluster ------------------------------------------------------------------------


class Cluster:
    """A running two-node cluster with the workload's key set preloaded.

    ``setup_s`` runs from the call that binds and forks the servers to
    the first acknowledged lookup after the preload.
    """

    def __init__(self, workload: Workload, inputs: Inputs, seed: int, workdir: str) -> None:
        overrides = dict(workload.config)
        if workload.persistent:
            os.makedirs(workdir, exist_ok=True)
            overrides["persistence_dir"] = workdir
        config = ZHTConfig(transport="tcp", num_shards=1, **overrides)
        self.workdir = workdir
        self.initial = {
            key: inputs.values[i % len(inputs.values)] for i, key in enumerate(inputs.keys)
        }
        t0 = perf_counter()
        self.sockets = build_sharded_tcp_cluster(NODES, config, seed=seed)
        try:
            self.client = self.sockets.client(seed=seed)
            items = list(self.initial.items())
            for i in range(0, len(items), BATCH_KEYS):
                self.client.insert_many(items[i : i + BATCH_KEYS])
            first = inputs.keys[0]
            if self.client.lookup(first) != self.initial[first]:
                raise RuntimeError("first lookup after preload returned a wrong value")
        except BaseException:
            self.close()
            raise
        self.setup_s = perf_counter() - t0

    @property
    def pids(self) -> list[int]:
        return [node.shard_pid(0) for node in self.sockets.servers]

    def _stats(self) -> list[dict]:
        snaps = [s for node in self.sockets.servers for s in node.shard_stats()]
        if len(snaps) != NODES:
            raise RuntimeError(f"STATS answered by {len(snaps)} of {NODES} servers")
        return snaps

    def server_totals(self) -> dict[str, list[int]]:
        """Merged per-layer totals of every server process, via STATS."""
        return layers.merge([snap.get("zhtperf", {}) for snap in self._stats()])

    def server_counters(self) -> dict[str, int]:
        """The program's own counters, summed over the server processes."""
        out: dict[str, int] = {}
        for snap in self._stats():
            for name, value in snap.get("counters", {}).items():
                out[name] = out.get(name, 0) + int(value)
        return out

    def close(self) -> None:
        self.sockets.close()
        shutil.rmtree(self.workdir, ignore_errors=True)


def build(workload: Workload, inputs: Inputs, seed: int, workdir: str, tag: str) -> Cluster:
    return Cluster(workload, inputs, seed, os.path.join(workdir, tag))


# -- load ---------------------------------------------------------------------------


@dataclass
class Segment:
    """What the load threads did in one timed window."""

    key_ops: int = 0
    calls: int = 0
    window_s: float = 0.0
    latencies_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    first_wrong: str | None = None
    client_cpu_s: float = 0.0
    server_cpu_s: float = 0.0
    steal: int = 0
    models: list[Model] = field(default_factory=list)

    @property
    def ops_per_s(self) -> float:
        return self.key_ops / self.window_s

    def percentile_ms(self, p: float) -> tuple[float, int] | None:
        """``(value, samples beyond it)`` over every call of the window;
        ``None`` when fewer than ``TAIL_SAMPLES`` samples lie beyond it."""
        ordered = sorted(self.latencies_ns)
        if not ordered:
            return None
        rank = max(1, -(-len(ordered) * p // 100))
        beyond = len(ordered) - int(rank)
        if p > 50 and beyond < TAIL_SAMPLES:
            return None
        return ordered[int(rank) - 1] / 1e6, beyond


class _Thread:
    """State of one load thread."""

    def __init__(self, stream, model: Model, corrupt_every: int) -> None:
        self.stream = stream
        self.model = model
        self.corrupt_every = corrupt_every
        self.lookups = 0
        self.latencies: list[int] = []
        self.key_ops = 0
        self.calls = 0
        self.attempted = 0
        self.failed = 0
        self.last_done = 0
        self.error: BaseException | None = None

    def reply(self, value: bytes | None) -> bytes | None:
        """Hand a lookup reply to the check, corrupting one in
        ``corrupt_every`` when the self-test asks for it."""
        self.lookups += 1
        if self.corrupt_every and value and self.lookups % self.corrupt_every == 0:
            return bytes([value[0] ^ 0xFF]) + value[1:]
        return value

    def one(self, zht, op) -> None:
        """Issue one call, time it, then check its reply."""
        kind, key, payload = op
        if kind == INSERT_MANY:
            payload = list(zip(key, payload))
        value = None
        t0 = perf_counter_ns()
        try:
            if kind == LOOKUP:
                try:
                    value = zht.lookup(key)
                except KeyNotFound:
                    pass
            elif kind == INSERT:
                zht.insert(key, payload)
            elif kind == APPEND:
                zht.append(key, payload)
            elif kind == LOOKUP_MANY:
                value = zht.lookup_many(key)
            else:
                zht.insert_many(payload)
        except ZHTError:
            error = True
        else:
            error = False
        t1 = perf_counter_ns()
        self.latencies.append(t1 - t0)
        self.last_done = t1
        keys = key if isinstance(key, tuple) else (key,)
        self.calls += 1
        self.key_ops += len(keys)
        self.attempted += len(keys)
        model = self.model
        if error:
            self.failed += len(keys)
            if kind != LOOKUP and kind != LOOKUP_MANY:
                for k in keys:
                    model.forget(k)
        elif kind == LOOKUP:
            model.check(key, self.reply(value))
        elif kind == INSERT:
            model.insert(key, payload)
        elif kind == APPEND:
            model.append(key, payload)
        elif kind == LOOKUP_MANY:
            for k in key:
                model.check(k, self.reply(value.get(k)))
        else:
            for k, v in payload:
                model.insert(k, v)

    def run(self, zht, calls: int = 0, until_ns: int = 0) -> None:
        """Issue *calls* calls, or calls until *until_ns* passes."""
        try:
            stream = self.stream
            while True:
                if calls:
                    if self.calls >= calls:
                        break
                elif perf_counter_ns() >= until_ns:
                    break
                self.one(zht, next(stream))
        except BaseException as exc:  # surfaced by the caller after join
            self.error = exc


def make_threads(
    workload: Workload,
    inputs: Inputs,
    seed: int,
    cluster: Cluster,
    threads: int,
    corrupt_every: int = 0,
) -> list[_Thread]:
    out = []
    for t in range(threads):
        own = {k: cluster.initial[k] for k in inputs.keys[t::threads]}
        out.append(
            _Thread(op_stream(workload, inputs, seed, t, threads), Model(own), corrupt_every)
        )
    return out


def drive(
    workload: Workload,
    cluster: Cluster,
    workers: list[_Thread],
    seconds: float,
    on_start=None,
    on_stop=None,
) -> Segment:
    """Warm up, then run every worker closed-loop for *seconds*.

    *on_start* / *on_stop* run at the window's edges while the workers
    are parked (the traced run reads its span totals there).  Every call
    started inside the window is counted, and the window lasts until the
    last of them completes.
    """
    zht = cluster.client
    for w in workers:
        w.run(zht, calls=workload.warmup_calls)
        if w.error is not None:
            raise w.error
    for w in workers:
        w.latencies.clear()
        w.calls = w.key_ops = 0
    if on_start is not None:
        on_start()
    pids = cluster.pids
    server0 = sum(process_cpu_s(pid) for pid in pids)
    client0 = self_cpu_s()
    steal0 = steal_ticks()
    start = perf_counter_ns()
    until = start + int(seconds * 1e9)
    runners = [
        threading.Thread(target=w.run, args=(zht,), kwargs={"until_ns": until}, daemon=True)
        for w in workers
    ]
    for r in runners:
        r.start()
    for r in runners:
        r.join()
    end = max(w.last_done for w in workers)
    seg = Segment(
        steal=steal_ticks() - steal0,
        client_cpu_s=self_cpu_s() - client0,
        server_cpu_s=sum(process_cpu_s(pid) for pid in pids) - server0,
    )
    if on_stop is not None:
        on_stop()
    for w in workers:
        if w.error is not None:
            raise w.error
    seg.window_s = (end - start) / 1e9
    seg.key_ops = sum(w.key_ops for w in workers)
    seg.calls = sum(w.calls for w in workers)
    seg.latencies_ns = [x for w in workers for x in w.latencies]
    seg.attempted = sum(w.attempted for w in workers)
    seg.failed = sum(w.failed for w in workers)
    seg.models = [w.model for w in workers]
    seg.wrong = sum(m.wrong for m in seg.models)
    seg.first_wrong = next((m.first_wrong for m in seg.models if m.first_wrong), None)
    return seg


def kill_and_read_back(
    cluster: Cluster, models: list[Model], absent: list[bytes], seed: int
) -> tuple[int, int]:
    """SIGKILL every shard, wait for its respawn, and read back every
    acknowledged write (and the *absent* keys, which must stay
    not-found) through a fresh client.  Returns ``(checked, wrong)``."""
    old = cluster.pids
    for node in cluster.sockets.servers:
        node.kill_shard(0)
    for node, pid in zip(cluster.sockets.servers, old):
        if not node.wait_for_respawn(0, pid, timeout=30.0):
            raise RuntimeError("a killed shard was not respawned")
    reader = cluster.sockets.client(seed=seed + 1)
    expected: dict[bytes, bytes] = {}
    for model in models:
        expected.update(model.known())
    check = Model(expected)
    keys = list(expected) + [key for key in absent if key not in expected]
    for i in range(0, len(keys), BATCH_KEYS):
        chunk = keys[i : i + BATCH_KEYS]
        found = reader.lookup_many(chunk)
        for key in chunk:
            check.check(key, found.get(key))
    return len(keys), check.wrong


# -- the exact-count pass ---------------------------------------------------------


def count_pass(workload: Workload, inputs: Inputs, seed: int, workdir: str, tracer) -> dict:
    """Single thread, fixed seed, fixed number of calls: per-layer
    counts that repeat exactly.  Wrappers must be installed."""
    # Server counters start from zero at fork, so their final readings
    # cover set-up and pass alike (``tcp.connects`` wants both).
    REGISTRY.reset()
    # The servers fork with WAL byte counting on; this process has no WAL.
    tracer.count_wal_bytes = True
    try:
        cluster = build(workload, inputs, seed, workdir, "count")
    finally:
        tracer.count_wal_bytes = False
    try:
        (worker,) = make_threads(workload, inputs, seed, cluster, 1)
        counting = _Counting(worker.stream)
        worker.stream = counting
        server_before = cluster.server_totals()
        counters_before = cluster.server_counters()
        client_before = tracer.totals()
        worker.run(cluster.client, calls=workload.count_calls)
        if worker.error is not None:
            raise worker.error
        client = layers.delta(tracer.totals(), client_before)
        server, counters = _settled(cluster, server_before)
        client_connects = cluster.client.transport.connects
    finally:
        cluster.close()
    writes = max(counting.writes, 1)

    def grew(name: str) -> int:
        return counters.get(name, 0) - counters_before.get(name, 0)

    return {
        "attempted": worker.attempted,
        "failed": worker.failed + worker.model.wrong,
        "counts": {
            "client.hash_calls_per_key": layers.calls(client, "hash") / worker.key_ops,
            "tcp.roundtrips_per_call": layers.calls(client, "tcp.mux") / worker.calls,
            "tcp.connects": client_connects + counters.get("tcp.client.connects", 0),
            "wal.fsyncs_per_write": grew("wal.fsyncs") / writes,
            "wal.bytes_per_user_byte": layers.total(server, "wal_bytes")
            / max(counting.user_bytes, 1),
            "server.replica_updates_per_write": layers.calls(server, "handle", ("replica",))
            / writes,
            "novoht.checkpoints": grew("novoht.checkpoints") + grew("novoht.gc_runs"),
        },
    }


class _Counting:
    """Pass-through op stream that tallies the writes it hands out."""

    def __init__(self, stream) -> None:
        self.stream = stream
        self.writes = 0
        self.user_bytes = 0

    def __iter__(self):
        return self

    def __next__(self):
        op = next(self.stream)
        kind, key, payload = op
        if kind in (INSERT, APPEND):
            self.writes += 1
            self.user_bytes += len(key) + len(payload)
        elif kind == INSERT_MANY:
            self.writes += len(key)
            self.user_bytes += sum(len(k) + len(v) for k, v in zip(key, payload))
        return op


def _settled(cluster: Cluster, server_before, attempts: int = 20):
    """Server span totals (since *server_before*) and raw counters, read
    once background checkpoints have finished (two equal readings)."""
    last = None
    for _ in range(attempts):
        counters = cluster.server_counters()
        reading = (counters.get("novoht.checkpoints", 0), counters.get("novoht.gc_runs", 0))
        if reading == last:
            break
        last = reading
        time.sleep(0.1)
    return layers.delta(cluster.server_totals(), server_before), counters
