"""Per-layer timing from outside the program.

:func:`install` replaces public functions of each ZHT layer with thin
wrappers that record call counts and **self time** (a span's duration
minus the part its child spans on the same thread cover).  Wrappers are
installed in the load process before the server processes fork, so the
servers inherit them; the server side reports its totals through the
program's STATS op (the wrapper on ``metrics_snapshot`` adds them to the
snapshot).

Server-side spans are tagged with the class of the request being served:
``client`` (the load's own ops), ``replica`` (REPLICA_UPDATE from a
primary) or ``other`` (STATS and the like, never on a reply path).  The
class is set by the request decoder and follows a request into the
effect pool.

:func:`budget` turns the recorded totals into the per-layer rows, all in
microseconds per key operation.  Every server-side span of a client
request happens while some load thread waits inside
``MultiplexedTCPClient.roundtrip`` (and every span of a replica request
while the primary waits inside its peer ``TCPClient.roundtrip``); so the
transport row is that wait minus the reply decode and the primary's
spans, the replica row is the peer wait minus the secondary's spans, and
the rows add up to the mean call time except for what no wrapper covers
(``budget.remainder_us``).  Times are wall clock: a span includes any
wait for the interpreter lock or for a CPU.
"""

from __future__ import annotations

import concurrent.futures
import sys
import threading
from time import perf_counter_ns
from typing import Callable

#: The rows of the budget, in reply-path order.
ROWS = (
    "api.self_us",
    "client.route_us",
    "client.plan_batches_us",
    "codec.encode_us",
    "codec.decode_us",
    "tcp.roundtrip_self_us",
    "server.handle_us",
    "server.pool_wait_us",
    "server.replica_us",
    "novoht.op_us",
    "novoht.apply_batch_us",
    "wal.append_us",
)

#: ``|budget.remainder_us|`` must stay within this share of the mean
#: call time for the budget to close.
BUDGET_TOLERANCE = 0.10

#: Server span names that lie on a reply path (checkpoints do not).
_SERVER_SPANS = ("decode", "encode", "handle", "novoht.op", "novoht.batch", "wal", "tcp.peer")
_ON_PATH = ("client", "replica")
#: Pool tasks that are off every reply path.
_OFF_PATH_TASKS = ("_drain_maintenance",)


class _ThreadState:
    __slots__ = ("stack", "cls", "table")

    def __init__(self) -> None:
        self.stack: list[int] = []
        self.cls = ""
        #: ``(cls, name) -> [calls, self_ns, inclusive_ns]``
        self.table: dict[tuple[str, str], list[int]] = {}


class Tracer:
    """Per-thread span accounting for one process (and, after fork,
    for each server process separately)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables: list[dict[tuple[str, str], list[int]]] = []
        #: Count WAL record bytes (exact-count pass only: costs a varint
        #: encode per record).
        self.count_wal_bytes = False

    def state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = self._local.st = _ThreadState()
            with self._lock:
                self._tables.append(st.table)
        return st

    def totals(self) -> dict[str, list[int]]:
        """Sum over every thread of this process, keyed ``"cls|name"``
        (JSON-ready: the servers send it through STATS)."""
        out: dict[str, list[int]] = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for (cls, name), entry in list(table.items()):
                acc = out.setdefault(f"{cls}|{name}", [0, 0, 0])
                for i in range(3):
                    acc[i] += entry[i]
        return out

    # -- wrappers ----------------------------------------------------------

    def timed(self, name: str, fn: Callable) -> Callable:
        local, state = self._local, self.state

        def wrapper(*args, **kwargs):
            try:
                st = local.st
            except AttributeError:
                st = state()
            stack = st.stack
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                key = (st.cls, name)
                entry = st.table.get(key)
                if entry is None:
                    entry = st.table[key] = [0, 0, 0]
                entry[0] += 1
                entry[1] += dt - child
                entry[2] += dt

        wrapper.__wrapped__ = fn
        return wrapper

    def classifying(self, fn: Callable) -> Callable:
        """Wrap the server's request decoder: time it, and tag the
        thread with the decoded request's class."""
        tracer = self
        from repro.core.protocol import OpCode

        classes = {
            OpCode.INSERT: "client",
            OpCode.LOOKUP: "client",
            OpCode.APPEND: "client",
            OpCode.REMOVE: "client",
            OpCode.BATCH: "client",
            OpCode.REPLICA_UPDATE: "replica",
        }

        def wrapper(*args, **kwargs):
            st = tracer.state()
            stack = st.stack
            stack.append(0)
            t0 = perf_counter_ns()
            request = None
            try:
                request = fn(*args, **kwargs)
                return request
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                op = getattr(request, "op", None)
                st.cls = classes.get(op, "other")
                _add(st.table, (st.cls, "decode"), dt - child, dt)

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def wrapper(*args, **kwargs):
            _add(tracer.state().table, ("", name), 0, 0)
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def pool_submit(self, submit: Callable) -> Callable:
        """Wrap ``ThreadPoolExecutor.submit``: record the wait from
        submit to task start, and carry the request class along."""
        tracer = self

        def wrapper(executor, fn, /, *args, **kwargs):
            cls = tracer.state().cls
            queued = perf_counter_ns()
            name = "pool_wait:" + getattr(fn, "__name__", "task")

            def task():
                st = tracer.state()
                wait = perf_counter_ns() - queued
                _add(st.table, (cls, name), wait, wait)
                previous, st.cls = st.cls, cls
                try:
                    return fn(*args, **kwargs)
                finally:
                    st.cls = previous

            return submit(executor, task)

        wrapper.__wrapped__ = submit
        return wrapper

    def wal_bytes(self, fn: Callable, many: bool) -> Callable:
        tracer = self
        from repro.novoht.wal import encode_varint

        def size(key: bytes, value: bytes) -> int:
            # Record layout: magic, op, varint lengths, key, value, CRC32.
            return (
                2 + len(encode_varint(len(key))) + len(encode_varint(len(value)))
                + len(key) + len(value) + 4
            )

        def wrapper(wal, *args, **kwargs):
            if tracer.count_wal_bytes:
                if many:
                    n = sum(size(k, v) for _op, k, v in args[0])
                else:
                    n = size(args[1], args[2] if len(args) > 2 else b"")
                _add(tracer.state().table, ("", "wal_bytes"), n, n)
            return fn(wal, *args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def _add(table: dict, key: tuple[str, str], self_ns: int, incl_ns: int) -> None:
    entry = table.get(key)
    if entry is None:
        entry = table[key] = [0, 0, 0]
    entry[0] += 1
    entry[1] += self_ns
    entry[2] += incl_ns


def _patch_function(original: Callable, replacement: Callable) -> None:
    """Rebind *original* to *replacement* in every loaded ``repro``
    module that imported it by name."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")) or module is None:
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap every measured layer function (idempotence is the caller's
    job: install once per process)."""
    import repro.api as api
    import repro.core.protocol as protocol
    import repro.core.server as server
    import repro.net.tcp as tcp
    from repro.core.client import OpDriver, ZHTClientCore
    from repro.core.hashing import HASH_FUNCTIONS
    from repro.novoht.novoht import NoVoHT
    from repro.novoht.wal import WriteAheadLog

    def method(cls: type, attr: str, name: str) -> None:
        setattr(cls, attr, tracer.timed(name, getattr(cls, attr)))

    # repro.api: the user-facing entry points.
    for attr in ("insert", "lookup", "append", "insert_many", "lookup_many", "append_many"):
        method(api.ZHT, attr, "api")
    _patch_function(api.execute_op, tracer.timed("exec", api.execute_op))
    _patch_function(api.execute_batch, tracer.timed("exec", api.execute_batch))
    # repro.core.client: routing and batch planning (hashing included).
    method(ZHTClientCore, "driver", "route")
    for attr in ("next_attempt", "on_response", "on_timeout"):
        method(OpDriver, attr, "route")
    method(ZHTClientCore, "plan_batches", "plan")
    for hash_name, fn in list(HASH_FUNCTIONS.items()):
        HASH_FUNCTIONS[hash_name] = tracer.counted("hash", fn)
    # repro.core.protocol: the codec, both directions, both sides.
    for fname in (
        "encode_framed_request",
        "encode_framed_response",
        "encode_batch_requests",
        "encode_batch_responses",
    ):
        _patch_function(getattr(protocol, fname), tracer.timed("encode", getattr(protocol, fname)))
    for fname in ("decode_batch_requests", "decode_batch_responses"):
        _patch_function(getattr(protocol, fname), tracer.timed("decode", getattr(protocol, fname)))
    # The mux client decodes replies on its reader thread, outside the
    # caller's roundtrip span: kept apart so the transport row can
    # subtract it.
    _patch_function(
        protocol.decode_response_span,
        tracer.timed("decode.reader", protocol.decode_response_span),
    )
    _patch_function(protocol.decode_request_span, tracer.classifying(protocol.decode_request_span))
    # The server's peer client decodes replica acks with Response.decode.
    protocol.Response.decode = staticmethod(tracer.timed("decode", protocol.Response.decode))
    # repro.net.tcp: the client transport and the server's peer client.
    method(tcp.MultiplexedTCPClient, "roundtrip", "tcp.mux")
    method(tcp.TCPClient, "roundtrip", "tcp.peer")
    pool = concurrent.futures.ThreadPoolExecutor
    pool.submit = tracer.pool_submit(pool.submit)
    # repro.core.server: request handling, and the STATS export.
    method(server.ZHTServerCore, "handle", "handle")
    snapshot = server.metrics_snapshot

    def metrics_snapshot() -> dict:
        snap = snapshot()
        snap["zhtperf"] = tracer.totals()
        return snap

    server.metrics_snapshot = metrics_snapshot
    # repro.novoht: the store, its WAL and its checkpoints.
    for attr in ("put", "get", "append", "remove"):
        method(NoVoHT, attr, "novoht.op")
    method(NoVoHT, "apply_batch", "novoht.batch")
    method(NoVoHT, "checkpoint", "checkpoint")
    method(NoVoHT, "gc", "checkpoint")
    WriteAheadLog.append = tracer.wal_bytes(tracer.timed("wal", WriteAheadLog.append), False)
    WriteAheadLog.append_many = tracer.wal_bytes(
        tracer.timed("wal", WriteAheadLog.append_many), True
    )


# -- reading the totals --------------------------------------------------------


def delta(after: dict[str, list[int]], before: dict[str, list[int]]) -> dict[str, list[int]]:
    out = {}
    for key, entry in after.items():
        base = before.get(key, (0, 0, 0))
        out[key] = [entry[i] - base[i] for i in range(3)]
    return out


def merge(tables: list[dict[str, list[int]]]) -> dict[str, list[int]]:
    out: dict[str, list[int]] = {}
    for table in tables:
        for key, entry in table.items():
            acc = out.setdefault(key, [0, 0, 0])
            for i in range(3):
                acc[i] += entry[i]
    return out


def total(table: dict[str, list[int]], name: str, classes=None, field: int = 1) -> int:
    total = 0
    for key, entry in table.items():
        cls, _, span = key.partition("|")
        if span == name and (classes is None or cls in classes):
            total += entry[field]
    return total


def calls(table: dict[str, list[int]], name: str, classes=None) -> int:
    return total(table, name, classes, field=0)


def _pool_wait(server: dict[str, list[int]]) -> int:
    total = 0
    for key, entry in server.items():
        cls, _, span = key.partition("|")
        if (
            cls in _ON_PATH
            and span.startswith("pool_wait:")
            and span.split(":", 1)[1] not in _OFF_PATH_TASKS
        ):
            total += entry[1]
    return total


def budget(client: dict[str, list[int]], server: dict[str, list[int]], key_ops: int) -> dict:
    """Per-layer rows in µs per key op, from window deltas of the load
    process (*client*) and the merged server processes (*server*)."""
    def c(name: str) -> int:
        return total(client, name)

    def s(name: str, classes=_ON_PATH) -> int:
        return total(server, name, classes)

    pool_wait = _pool_wait(server)
    # Replica-side spans run inside the primary's peer roundtrip (a
    # client-class span), so only client-class spans nest directly in
    # the load's roundtrip wait.
    primary_side = sum(s(name, ("client",)) for name in _SERVER_SPANS) + pool_wait
    replica_side = sum(s(name, ("replica",)) for name in _SERVER_SPANS if name != "tcp.peer")
    ns = {
        "api.self_us": c("api"),
        "client.route_us": c("route"),
        "client.plan_batches_us": c("plan"),
        "codec.encode_us": c("encode") + s("encode"),
        "codec.decode_us": c("decode") + c("decode.reader") + s("decode"),
        "tcp.roundtrip_self_us": c("tcp.mux") - c("decode.reader") - primary_side,
        "server.handle_us": s("handle"),
        "server.pool_wait_us": pool_wait,
        "server.replica_us": s("tcp.peer") - replica_side,
        "novoht.op_us": s("novoht.op"),
        "novoht.apply_batch_us": s("novoht.batch"),
        "wal.append_us": s("wal"),
    }
    per_key = 1e3 * max(key_ops, 1)
    rows = {name: ns[name] / per_key for name in ROWS}
    mean_call = total(client, "api", field=2) / per_key
    remainder = mean_call - sum(rows.values())
    checkpoints = calls(server, "checkpoint", None)
    return {
        "rows": rows,
        "mean_call_us": mean_call,
        "remainder_us": remainder,
        "closes": abs(remainder) <= BUDGET_TOLERANCE * mean_call,
        "checkpoint_ms": (
            total(server, "checkpoint", None, field=2) / checkpoints / 1e6
            if checkpoints
            else 0.0
        ),
        "checkpoints": checkpoints,
    }
