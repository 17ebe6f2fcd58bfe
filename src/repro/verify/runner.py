"""End-to-end consistency verification (``python -m repro verify``).

One run drives the full record → crash → recover → check loop:

1. **record** — a seeded schedule (:func:`~repro.verify.workload.generate_schedule`)
   is executed by concurrent logical clients, each recording every
   operation's invocation/response interval into a shared
   :class:`~repro.verify.history.HistoryRecorder`;
2. **crash/recover** — with chaos enabled, one physical node is
   hard-killed mid-workload and later repaired by a manager, exactly as
   the chaos harness (:mod:`repro.faults.chaos`) does;
3. **read-back** — after quiesce every touched key gets a final strong
   read-back (this pins each append key's post-run value for the
   multiset check), and with ≥3 copies the async tail replicas are
   probed directly via :meth:`~repro.api.ZHT.lookup_at_replica`;
4. **check** — the history goes through the Wing&Gong linearizability /
   bounded-staleness checker (:mod:`repro.verify.checker`) and the
   verdict — including the first violating minimal sub-history — is
   reported.

The same runner executes over the in-process local network, TCP/UDP
loopback sockets, and the discrete-event simulator (timestamps are then
simulated seconds).

``mutation`` selects a deliberately broken replication mode — the
verification subsystem's self-test, proving the checker detects real
consistency bugs rather than vacuously passing:

* ``ack-unreplicated`` — the owner acks mutations without writing the
  strongly-consistent secondary; a primary kill then loses acked data,
  which the register checker flags as a linearizability violation.
* ``stale-tail`` — replicas at chain position ≥2 drop updates, so tail
  reads lag unboundedly; flagged by the bounded-staleness checker.

Both are injected into the run's server cores by
:mod:`repro.faults.mutation`.
"""

from __future__ import annotations

import random
import threading
import time
from dataclasses import dataclass

from ..core.config import ReplicationMode, ZHTConfig
from ..core.errors import KeyNotFound, ZHTError
from ..core.protocol import OpCode
from ..faults.mutation import MUTATIONS, install_mutation
from ..faults.plan import FaultPlan
from ..faults.transport import FaultyClientTransport
from .checker import CheckReport, check_history
from .history import (
    STATUS_FAIL,
    STATUS_NOTFOUND,
    STATUS_OK,
    HistoryRecorder,
)
from .workload import generate_schedule

BACKENDS = ("local", "tcp", "udp", "sharded", "sim")

_OPCODES = {
    "insert": OpCode.INSERT,
    "lookup": OpCode.LOOKUP,
    "remove": OpCode.REMOVE,
    "append": OpCode.APPEND,
}


@dataclass
class VerifyReport:
    """Everything one verify run executed, recorded, and concluded."""

    backend: str
    nodes: int
    replicas: int
    seed: int
    mutation: str = "none"
    chaos: bool = False
    victim: str = ""
    ops_attempted: int = 0
    ops_acked: int = 0
    ops_failed: int = 0
    events_recorded: int = 0
    stale_probes: int = 0
    hot_cache: bool = False
    cache_hits: int = 0
    history_path: str | None = None
    elapsed_s: float = 0.0
    check: CheckReport | None = None

    @property
    def ok(self) -> bool:
        return self.check is not None and self.check.ok

    def summary_lines(self) -> list[str]:
        head = (
            f"backend={self.backend} nodes={self.nodes} "
            f"replicas={self.replicas} seed={self.seed} "
            f"chaos={'on' if self.chaos else 'off'}"
        )
        if self.mutation != "none":
            head += f" mutation={self.mutation}"
        if self.hot_cache:
            head += f" hot-cache=on ({self.cache_hits} hits)"
        lines = [
            head,
            f"workload: {self.ops_acked}/{self.ops_attempted} acked, "
            f"{self.ops_failed} failed, {self.events_recorded} events "
            f"recorded in {self.elapsed_s:.2f}s"
            + (
                f", {self.stale_probes} tail-replica probes"
                if self.stale_probes
                else ""
            ),
        ]
        if self.victim:
            lines.append(f"victim: {self.victim} (killed and repaired mid-run)")
        if self.history_path:
            lines.append(f"history artifact: {self.history_path}")
        if self.check is not None:
            lines.extend(self.check.summary_lines())
        return lines


def run_verify(
    backend: str = "local",
    *,
    ops: int = 400,
    seed: int = 0,
    clients: int = 4,
    nodes: int = 4,
    replicas: int = 1,
    chaos: bool = True,
    mutation: str = "none",
    history_path: str | None = None,
    staleness_bound: float = 0.25,
    hot_cache: bool = False,
    plan: FaultPlan | None = None,
    shards: int | None = None,
) -> VerifyReport:
    """Run one end-to-end verification scenario; returns the report.

    The workload for a given ``(seed, ops, clients)`` is deterministic;
    the interleaving is whatever the backend produces, which is exactly
    what the checker validates.  ``plan`` may layer message-level chaos
    (drops/delays/duplicates) on top of the node kill.

    ``hot_cache=True`` turns on the client-side hot-key value cache with
    an aggressively low heat threshold, so the run proves cache hits
    satisfy the bounded-staleness contract: hits are recorded as reads at
    chain position >= 2, the cache TTL is capped at half the staleness
    bound, and ``replicas`` is raised to 2 so the checker applies the
    bounded-staleness model.  (The sim backend drives client cores
    directly and has no value cache; hot-read spreading still applies.)
    """
    if backend not in BACKENDS:
        raise ValueError(f"backend must be one of {BACKENDS}")
    if mutation not in MUTATIONS:
        raise ValueError(f"mutation must be one of {MUTATIONS}")
    overrides = {}
    if shards is not None:
        # Shard count per node — only meaningful for the sharded
        # backend, where it overrides the chaos default.
        overrides["num_shards"] = shards
    if hot_cache:
        overrides.update(
            hot_key_cache_size=256,
            # TTL well inside the bound: a served value is at most
            # TTL + replication-lag old, and the checker's window is
            # staleness_bound.
            hot_key_cache_ttl_s=min(0.1, staleness_bound / 2),
            hot_key_threshold=4,
            hot_read_spread=True,
        )
        replicas = max(replicas, 2)
    if mutation == "ack-unreplicated":
        # The bug only surfaces once the secondary serves reads, so the
        # scenario needs a replica chain and the mid-run kill.
        replicas = max(replicas, 1)
        chaos = True
    elif mutation == "stale-tail":
        # Needs an async tail (chain position 2); repair would
        # re-replicate and mask the frozen tail, so chaos stays off.
        replicas = max(replicas, 2)
        chaos = False
    nodes = max(nodes, 3 if chaos else 1, replicas + 1)

    if backend == "sim":
        return _run_verify_sim(
            ops=ops,
            seed=seed,
            clients=clients,
            nodes=nodes,
            replicas=replicas,
            chaos=chaos,
            mutation=mutation,
            history_path=history_path,
            staleness_bound=staleness_bound,
            plan=plan,
            overrides=overrides,
            hot_cache=hot_cache,
        )
    return _run_verify_live(
        backend,
        ops=ops,
        seed=seed,
        clients=clients,
        nodes=nodes,
        replicas=replicas,
        chaos=chaos,
        mutation=mutation,
        history_path=history_path,
        staleness_bound=staleness_bound,
        plan=plan,
        overrides=overrides,
        hot_cache=hot_cache,
    )


# ---------------------------------------------------------------------------
# Live backends (local / tcp / udp)
# ---------------------------------------------------------------------------


def _run_verify_live(
    backend: str,
    *,
    ops: int,
    seed: int,
    clients: int,
    nodes: int,
    replicas: int,
    chaos: bool,
    mutation: str,
    history_path: str | None,
    staleness_bound: float,
    plan: FaultPlan | None,
    overrides: dict,
    hot_cache: bool = False,
) -> VerifyReport:
    from ..scenario.cluster import (
        build_cluster as _build_cluster,
        default_config as _default_config,
        kill_node as _kill,
        repair_node as _repair,
    )

    plan = plan or FaultPlan(seed)
    config = _default_config(backend, replicas).replace(**overrides)
    if backend == "udp":
        # Concurrent clients can overflow loopback UDP socket buffers;
        # with the chaos default of 2 strikes a burst of drops falsely
        # suspects a healthy owner and fails reads over to a replica
        # that never saw the writes — real (and detected!) weak
        # behavior, but not the scenario under test.  More strikes make
        # false suspicion rare while dead-node failover still works
        # (under the phi detector each timeout can accrue up to
        # ``suspicion_event_cap`` units, so the threshold is doubled
        # again to preserve the original two-real-timeouts intent).
        config = config.replace(failures_before_dead=8)
    schedule = generate_schedule(seed, ops, clients=clients)
    recorder = HistoryRecorder(history_path, fresh=True)
    report = VerifyReport(
        backend,
        nodes,
        replicas,
        seed,
        mutation=mutation,
        chaos=chaos,
        hot_cache=hot_cache,
        history_path=history_path,
    )
    t_start = time.perf_counter()
    lock = threading.Lock()
    progress = {"done": 0}
    results: list[tuple[int, int, int]] = [(0, 0, 0)] * clients

    with _build_cluster(
        backend,
        nodes,
        config,
        seed,
        core_hook=lambda core: install_mutation(core, mutation),
    ) as cluster:
        victim = sorted(cluster.membership.nodes)[1] if chaos else ""
        report.victim = victim

        def worker(ci: int, ops_list) -> None:
            zht = cluster.client(
                seed=(seed << 8) + ci,
                recorder=recorder,
                client_id=f"c{ci:02d}",
            )
            zht.transport = FaultyClientTransport(zht.transport, plan)
            acked = failed = 0
            for op in ops_list:
                try:
                    if op.op == "insert":
                        zht.insert(op.key, op.value)
                    elif op.op == "append":
                        zht.append(op.key, op.value)
                    elif op.op == "remove":
                        try:
                            zht.remove(op.key)
                        except KeyNotFound:
                            pass
                    else:
                        try:
                            zht.lookup(op.key)
                        except KeyNotFound:
                            pass
                    acked += 1
                except ZHTError:
                    failed += 1
                with lock:
                    progress["done"] += 1
            results[ci] = (acked, failed, zht.stats.hot_cache_hits)

        threads = [
            threading.Thread(
                target=worker, args=(ci, ops_list), name=f"verify-c{ci}"
            )
            for ci, ops_list in enumerate(schedule.clients)
        ]
        for t in threads:
            t.start()

        # The main thread injects the kill and runs the repair at the
        # scheduled global-progress points, like the chaos harness but
        # with the workload concurrent to the fault.
        killed = repaired = False
        if chaos:
            while any(t.is_alive() for t in threads):
                with lock:
                    done = progress["done"]
                if not killed and done >= schedule.kill_at:
                    _kill(cluster, backend, victim, plan)
                    killed = True
                if killed and not repaired and done >= schedule.repair_at:
                    _repair(cluster, victim, config, seed)
                    repaired = True
                    break
                time.sleep(0.0005)
        for t in threads:
            t.join()
        if chaos and not killed:
            _kill(cluster, backend, victim, plan)
        if chaos and not repaired:
            _repair(cluster, victim, config, seed)

        for acked, failed, hits in results:
            report.ops_acked += acked
            report.ops_failed += failed
            report.cache_hits += hits
        report.ops_attempted = schedule.total_ops

        if backend in ("tcp", "udp", "sharded"):
            time.sleep(0.2)  # drain in-flight async replica updates

        # -- hot-key cache probes ----------------------------------------
        # The scheduled workload spreads accesses too thin to heat any
        # key, so this phase manufactures heat: hammer a few keys past
        # the (lowered) threshold so the cache fills and serves hits —
        # each recorded as a bounded-stale read the checker must accept —
        # then overwrite each key and read it again, proving mutations
        # invalidate (the post-insert lookup must observe the new value,
        # which the checker rejects if served from a stale cache entry).
        if hot_cache:
            hot = cluster.client(
                seed=(seed << 8) + 0xF3,
                recorder=recorder,
                client_id="hot-prober",
            )
            hot.transport = FaultyClientTransport(hot.transport, plan)
            for key in schedule.keys[:4]:
                try:
                    for _ in range(config.hot_key_threshold * 3):
                        try:
                            hot.lookup(key)
                        except KeyNotFound:
                            break
                    hot.insert(key, b"hot-rewrite")
                    hot.lookup(key)
                except ZHTError:
                    continue
            report.cache_hits += hot.stats.hot_cache_hits

        # -- final strong read-back (pins append-key final values) -------
        reader = cluster.client(
            seed=(seed << 8) + 0xF1, recorder=recorder, client_id="reader"
        )
        reader.transport = FaultyClientTransport(reader.transport, plan)
        final_values: dict[bytes, bytes | None] = {}
        for key in schedule.keys:
            for _attempt in range(3):
                try:
                    final_values[key] = reader.lookup(key)
                    break
                except KeyNotFound:
                    final_values[key] = None
                    break
                except ZHTError:
                    continue

        # -- async tail-replica probes (bounded staleness) ---------------
        stale_phase = replicas >= 2
        if stale_phase:
            # Let more than the bound elapse so a frozen tail is
            # unambiguously out of its staleness window; a converged
            # tail passes no matter how long we wait.
            time.sleep(staleness_bound + 0.05)
            prober = cluster.client(
                seed=(seed << 8) + 0xF2,
                recorder=recorder,
                client_id="tail-prober",
            )
            prober.transport = FaultyClientTransport(prober.transport, plan)
            append_keys = set(schedule.append_keys)
            for key in schedule.keys:
                if key in append_keys:
                    continue
                try:
                    prober.lookup_at_replica(key, 2)
                except (KeyNotFound, ZHTError):
                    pass
                report.stale_probes += 1

    events = recorder.events()
    recorder.close()
    report.events_recorded = len(events)
    report.check = check_history(
        events,
        final_values=final_values,
        staleness_bound=staleness_bound if stale_phase else None,
        strict_append_once=not chaos,
    )
    report.elapsed_s = time.perf_counter() - t_start
    return report


# ---------------------------------------------------------------------------
# DES backend
# ---------------------------------------------------------------------------


def _run_verify_sim(
    *,
    ops: int,
    seed: int,
    clients: int,
    nodes: int,
    replicas: int,
    chaos: bool,
    mutation: str,
    history_path: str | None,
    staleness_bound: float,
    plan: FaultPlan | None,
    overrides: dict,
    hot_cache: bool = False,
    partitions_per_instance: int = 16,
) -> VerifyReport:
    """The same scenario inside the DES (simulated-seconds timestamps)."""
    from ..core.client import ZHTClientCore
    from ..faults.simchaos import _sim_execute, _sim_repair
    from ..sim.cluster import SimSpec, SimulatedCluster

    plan = plan or FaultPlan(seed)
    config = ZHTConfig(
        transport="local",
        num_partitions=nodes * partitions_per_instance,
        num_replicas=replicas,
        replication_mode=(
            ReplicationMode.ASYNC if replicas > 0 else ReplicationMode.NONE
        ),
        request_timeout=0.005,
        failures_before_dead=2,
        backoff_factor=1.5,
        max_retries=10,
        **overrides,
    )
    spec = SimSpec(
        num_nodes=nodes,
        num_replicas=replicas,
        replication_mode=config.replication_mode,
        partitions_per_instance=partitions_per_instance,
        real_core=True,
        seed=seed,
        faults=plan,
        config=config,
    )
    cluster = SimulatedCluster(spec)
    for core in cluster.handlers:
        install_mutation(core, mutation)
    env = cluster.env
    membership = cluster.membership
    recorder = HistoryRecorder(
        history_path, clock=lambda: env.now, fresh=True
    )
    schedule = generate_schedule(seed, ops, clients=clients)
    report = VerifyReport(
        "sim",
        nodes,
        replicas,
        seed,
        mutation=mutation,
        chaos=chaos,
        hot_cache=hot_cache,
        history_path=history_path,
    )
    victim = sorted(membership.nodes)[1] if chaos else ""
    report.victim = victim
    t_start = time.perf_counter()

    state = {"done": 0, "acked": 0, "failed": 0, "killed": False, "repaired": False}
    final_values: dict[bytes, bytes | None] = {}
    stale_phase = replicas >= 2

    def run_op(core, cid, op_name, key, value=b"", replica_index=0):
        """DES sub-generator: one recorded operation."""
        driver = core.driver(_OPCODES[op_name], key, value)
        if replica_index:
            driver._replica_index = replica_index
        t0 = env.now
        status, result = STATUS_FAIL, b""
        try:
            response = yield from _sim_execute(cluster, core, driver)
            status = STATUS_OK
            if op_name == "lookup":
                result = response.value
        except KeyNotFound:
            # Same at-least-once caveat as ZHT._execute: a retried REMOVE
            # observing NOT_FOUND may have applied on a lost attempt.
            if op_name == "remove" and driver._attempts_used > 1:
                status = STATUS_FAIL
            else:
                status = STATUS_NOTFOUND
        except ZHTError:
            pass
        recorder.record(
            cid,
            op_name,
            key,
            value,
            t0,
            env.now,
            status,
            result=result,
            replica_index=driver.served_replica_index,
        )
        return status, result

    def kill_victim():
        cluster.kill_node(victim)
        plan.crash_target(
            victim,
            *[
                str(inst.address)
                for inst in membership.instances_on_node(victim)
            ],
        )
        state["killed"] = True

    def client_proc(ci: int, ops_list):
        core = ZHTClientCore(
            membership.copy(),
            config,
            rng=random.Random((seed << 16) ^ (0xC1 + ci)),
        )
        for op in ops_list:
            # Cooperative fault injection: whichever client crosses the
            # scheduled global-progress point performs it (deterministic
            # under the DES's total event order).
            if chaos and not state["killed"] and state["done"] >= schedule.kill_at:
                kill_victim()
            if (
                chaos
                and state["killed"]
                and not state["repaired"]
                and state["done"] >= schedule.repair_at
            ):
                state["repaired"] = True
                yield from _sim_repair(cluster, victim, config, seed)
            status, _ = yield from run_op(
                core, f"c{ci:02d}", op.op, op.key, op.value
            )
            state["done"] += 1
            if status == STATUS_FAIL:
                state["failed"] += 1
            else:
                state["acked"] += 1

    def main_proc():
        procs = [
            env.process(client_proc(ci, ops_list), name=f"verify-c{ci}")
            for ci, ops_list in enumerate(schedule.clients)
        ]
        for proc in procs:
            yield proc
        if chaos and not state["killed"]:
            kill_victim()
        if chaos and not state["repaired"]:
            yield from _sim_repair(cluster, victim, config, seed)

        reader = ZHTClientCore(
            membership.copy(), config, rng=random.Random((seed << 16) ^ 0xF1)
        )
        for key in schedule.keys:
            for _attempt in range(3):
                status, result = yield from run_op(reader, "reader", "lookup", key)
                if status == STATUS_OK:
                    final_values[key] = result
                    break
                if status == STATUS_NOTFOUND:
                    final_values[key] = None
                    break

        if stale_phase:
            yield env.timeout(staleness_bound + 0.01)
            prober = ZHTClientCore(
                membership.copy(),
                config,
                rng=random.Random((seed << 16) ^ 0xF2),
            )
            append_keys = set(schedule.append_keys)
            for key in schedule.keys:
                if key in append_keys:
                    continue
                yield from run_op(
                    prober, "tail-prober", "lookup", key, replica_index=2
                )
                report.stale_probes += 1

    proc = env.process(main_proc(), name="verify-main")
    env.run()
    if not proc.done:
        raise RuntimeError("sim verify workload deadlocked")

    report.ops_attempted = schedule.total_ops
    report.ops_acked = state["acked"]
    report.ops_failed = state["failed"]
    events = recorder.events()
    recorder.close()
    report.events_recorded = len(events)
    report.check = check_history(
        events,
        final_values=final_values,
        staleness_bound=staleness_bound if stale_phase else None,
        strict_append_once=not chaos,
    )
    report.elapsed_s = time.perf_counter() - t_start
    return report
