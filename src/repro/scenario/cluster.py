"""Shared cluster plumbing for every adverse-conditions harness.

One place builds, kills, and repairs clusters for the chaos harness
(:mod:`repro.faults.chaos`), the consistency verifier
(:mod:`repro.verify.runner`), and the scenario runner
(:mod:`repro.scenario.runner`) — previously each hand-wired its own
copy.  The functions are backend-polymorphic over the same five names
the CLIs accept: ``local`` / ``tcp`` / ``udp`` / ``sim`` / ``sharded``
(``sim`` is handled by the callers' DES paths; the builders here cover
the live backends).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable

from ..api import build_local_cluster
from ..core.config import ZHTConfig
from ..core.manager import ManagerCore

if TYPE_CHECKING:
    from ..core.server import ZHTServerCore
    from ..faults.plan import FaultPlan

#: Backends the live builders cover (``sim`` runs are driven by the
#: callers through :mod:`repro.sim` instead of a socket deployment).
LIVE_BACKENDS = ("local", "tcp", "udp", "sharded")


def default_config(backend: str, replicas: int) -> ZHTConfig:
    """The harness-standard config: fast timeouts, quick failure
    detection, a breaker scaled to the timeouts so flapping nodes are
    re-probed within a few op latencies."""
    timeout = 0.02 if backend == "local" else 0.15
    return ZHTConfig(
        transport="local" if backend == "local" else
        ("tcp" if backend == "sharded" else backend),
        # Two worker processes per node keeps the sharded-backend process
        # count manageable (verify runs >= 3 nodes).
        num_shards=2 if backend == "sharded" else 1,
        num_partitions=64,
        num_replicas=replicas,
        request_timeout=timeout,
        failures_before_dead=2,
        backoff_factor=1.5,
        max_retries=10,
        breaker_cooldown_s=timeout * 4,
        breaker_cooldown_max_s=timeout * 40,
    )


def build_cluster(
    backend: str,
    nodes: int,
    config: ZHTConfig,
    seed: int,
    *,
    core_hook: Callable[[ZHTServerCore], None] | None = None,
) -> Any:
    """Build a running cluster for any live backend (context manager).

    *core_hook* runs on every server core before it serves traffic —
    in the shard workers for ``sharded``, where it is handed over
    before the fork (fault injectors use it)."""
    from ..net.cluster import (
        build_sharded_tcp_cluster,
        build_tcp_cluster,
        build_udp_cluster,
    )

    if backend == "sharded":
        return build_sharded_tcp_cluster(nodes, config, seed=seed, core_hook=core_hook)
    cluster: Any
    if backend == "local":
        cluster = build_local_cluster(nodes, config, seed=seed)
    elif backend == "udp":
        cluster = build_udp_cluster(nodes, config, seed=seed)
    else:
        cluster = build_tcp_cluster(nodes, config, seed=seed)
    if core_hook is not None:
        for core in server_cores(cluster, backend):
            core_hook(core)
    return cluster


def kill_node(cluster: Any, backend: str, victim: str, plan: FaultPlan) -> None:
    """Hard-kill every instance of node *victim* on any backend and
    record the crash in *plan* so transports refuse to reach it."""
    addresses = [
        str(inst.address) for inst in cluster.membership.instances_on_node(victim)
    ]
    if backend == "local":
        cluster.kill_node(victim)
    else:
        targets = {
            str(inst.address)
            for inst in cluster.membership.instances_on_node(victim)
        }
        for server in cluster.servers:
            # A sharded node advertises its shards' private addresses in
            # the membership table, not the shared bootstrap port.
            owned = {str(a) for a in getattr(server, "shard_addresses", [])}
            owned.add(str(server.address))
            if owned & targets:
                server.stop()
    plan.crash_target(victim, *addresses)


def server_cores(cluster: Any, backend: str) -> list[ZHTServerCore]:
    """The in-process :class:`~repro.core.server.ZHTServerCore` list, for
    the store-level invariant checkers.  Sharded workers live in child
    processes, so their cores are not introspectable from here."""
    if backend == "local":
        return list(cluster.servers.values())
    return [
        core
        for core in (getattr(s, "core", None) for s in cluster.servers)
        if core is not None
    ]


def repair_node(cluster: Any, victim: str, config: ZHTConfig, seed: int) -> float:
    """Run the manager repair script; returns its wall-clock duration."""
    import random
    import time

    manager_node = next(
        n
        for n, info in cluster.membership.nodes.items()
        if info.alive and n != victim
    )
    manager = ManagerCore(
        manager_node, cluster.membership, config, rng=random.Random(seed ^ 0xC0DE)
    )
    t0 = time.perf_counter()
    cluster.run(manager.repair_after_failure(victim))
    return time.perf_counter() - t0
