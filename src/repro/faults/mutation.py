"""Deliberately broken replication modes: the verifier's self-test.

``repro verify --mutation`` proves the consistency checker fails when
replication really is broken, instead of passing vacuously.  Each mode
breaks one :class:`~repro.core.server.ZHTServerCore` in place, the way
:class:`~repro.faults.transport.FaultyClientTransport` breaks a client
transport, so the server code carries no test-only branch:

* ``ack-unreplicated`` — the owner acknowledges mutations without the
  synchronous write to the strongly-consistent secondary; a primary kill
  then loses acked data, a linearizability violation.
* ``stale-tail`` — replicas at chain position >= 2 acknowledge replica
  updates (single or batched) without applying them, so tail reads go
  unboundedly stale, a bounded-staleness violation.

Install a mode on every core a run builds; forked shard workers build
their cores after the fork, so they take it as a core hook passed in
before the fork (``build_cluster(..., core_hook=...)``).
"""

from __future__ import annotations

import dataclasses

from ..core.errors import Status, ZHTError
from ..core.protocol import (
    OpCode,
    Request,
    decode_batch_requests,
    decode_batch_responses,
    encode_batch_requests,
    encode_batch_responses,
)
from ..core.server import HandleResult, ZHTServerCore

MUTATIONS = ("none", "ack-unreplicated", "stale-tail")


def install_mutation(core: ZHTServerCore, mutation: str) -> None:
    """Break *core* the way *mutation* names (``"none"`` leaves it)."""
    if mutation == "ack-unreplicated":
        _skip_secondary_sync(core)
    elif mutation == "stale-tail":
        _freeze_tail_replicas(core)
    elif mutation != "none":
        raise ValueError(f"mutation must be one of {MUTATIONS}")


def _skip_secondary_sync(core: ZHTServerCore) -> None:
    plan = core._replication_plan

    def unreplicated(request: Request, pid: int) -> list:
        return [step for step in plan(request, pid) if not step[2]]

    core._replication_plan = unreplicated  # type: ignore[method-assign]


def _frozen(request: Request) -> bool:
    return request.op == OpCode.REPLICA_UPDATE and request.replica_index >= 2


def _freeze_tail_replicas(core: ZHTServerCore) -> None:
    apply_update = core._handle_replica_update
    apply_batch = core._handle_batch_inner

    def replica_update(request: Request) -> HandleResult:
        if not _frozen(request):
            return apply_update(request)
        core.stats.inc("replica_updates")
        return HandleResult(core._respond(request, Status.OK))

    def batch(request: Request) -> HandleResult:
        try:
            subs = decode_batch_requests(request.payload)
        except ZHTError:
            return apply_batch(request)
        live = [sub for sub in subs if not _frozen(sub)]
        if len(live) == len(subs):
            return apply_batch(request)
        core.stats.inc("replica_updates", len(subs) - len(live))
        result = apply_batch(
            dataclasses.replace(request, payload=encode_batch_requests(live))
        )
        if result.response is not None:
            # Splice an OK ack for every frozen entry back into its slot.
            answered = iter(decode_batch_responses(result.response.value))
            result.response.value = encode_batch_responses(
                [
                    core._sub_respond(sub, Status.OK) if _frozen(sub) else next(answered)
                    for sub in subs
                ]
            )
        return result

    core._handle_replica_update = replica_update  # type: ignore[method-assign]
    core._handle_batch_inner = batch  # type: ignore[method-assign]
