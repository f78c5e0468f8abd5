"""Spans around each layer's public methods, from outside the program.

:class:`Tracer` replaces methods on the *instances* of a deployment's
layer objects with wrappers that record a span ``[id, name, start, end,
parent, op, site]``.  Start and end come from the deployment's own clock
(simulated ms for the DES, wall ms for live), and the current span is
kept in the running process's ``context`` dict, so a wrapper schedules
no event and a traced DES run keeps the untraced run's timings.

:func:`layer_metrics` turns the spans and the program's own counters
(``NetworkStats``, ``SimProfiler.snapshot()``, the WAL byte counters)
into the per-layer metrics, every one normalised per op or as a
percentile over spans.
"""

from __future__ import annotations

import inspect
import json
import time
from typing import Any, Callable, Dict, Iterable, List, Optional

from repro.analysis import CostModel
from repro.analysis.stats import percentile
from repro.store import Consistency

from workloads import OP_KEY

SPAN_KEY = "perfbench.span"
ID, NAME, START, END, PARENT, OP, SITE = range(7)

CLIENT_OPS = ("create_lock_ref", "acquire_lock", "acquire_lock_blocking",
              "critical_get", "critical_put", "release_lock")
REPLICA_OPS = ("create_lock_ref", "acquire_lock", "critical_get", "critical_put",
               "release_lock")
LOCKSTORE_OPS = ("generate_and_enqueue", "peek", "peek_with_epoch",
                 "peek_with_lease", "peek_quorum", "dequeue")
STORE_OPS = ("get", "put", "cas")
SUBSYSTEMS = ("client", "music", "net", "store", "timer", "other")

# Appendix X-B4: a quorum op costs about one round trip to the nearest
# majority, an LWT (Paxos prepare/propose/commit plus its read) about four.
ROUND_TRIPS = CostModel(consensus=4.0, quorum=1.0)
# Measured ÷ modelled round trips must stay in this window.  The jitter
# model inflates each one-way delay by 12.5% on average; one extra
# protocol round trip adds at least 25% (on an LWT) and leaves it.
RTT_TOLERANCE = (0.9, 1.3)


def _local_reads_apart(name: str, args: tuple, kwargs: dict) -> str:
    """Name single-replica reads ``store.get_local``: they never leave the
    site, so they are not the quorum reads the cost model prices."""
    if name == "store.get":
        consistency = kwargs.get("consistency", args[3] if len(args) > 3 else None)
        if consistency in (Consistency.ONE, Consistency.LOCAL_ONE):
            return "store.get_local"
    return name


class Tracer:
    """Records spans for one traced sub-run."""

    def __init__(self, clock: Any) -> None:
        self.clock = clock
        self.spans: List[list] = []
        self.rpc_events: List[Any] = []
        self._rpc_open: Dict[tuple, list] = {}
        self.taps = {"wan": 0, "bytes": 0}
        self.codec = {"frames": 0, "bytes": 0, "wall_s": 0.0}

    # -- spans ------------------------------------------------------------

    def _open(self, name: str, site: Optional[str]) -> Optional[list]:
        process = self.clock.active_process
        if process is None:
            return None
        context = process.context
        parent = context.get(SPAN_KEY)
        span = [len(self.spans), name, self.clock.now, None, parent,
                context.get(OP_KEY), site]
        self.spans.append(span)
        return span

    def _traced(self, name: str, site: Optional[str], inner: Any):
        span = self._open(name, site)
        if span is None:
            result = yield from inner
            return result
        context = self.clock.active_process.context
        context[SPAN_KEY] = span[ID]
        try:
            result = yield from inner
            return result
        finally:
            span[END] = self.clock.now
            context[SPAN_KEY] = span[PARENT]

    def wrap(self, obj: Any, methods: Iterable[str], prefix: str,
             site: Optional[str] = None, rename: Any = None) -> None:
        """Shadow ``obj.<method>`` for each method with a span recorder.

        ``rename(name, args, kwargs)``, if given, may refine the span name
        from the call's arguments.
        """
        for method in methods:
            original = getattr(obj, method, None)
            if original is None:
                continue
            name = f"{prefix}.{method}"

            def wrapper(*args, _original=original, _name=name, **kwargs):
                inner = _original(*args, **kwargs)
                if not inspect.isgenerator(inner):
                    return inner
                if rename is not None:
                    _name = rename(_name, args, kwargs)
                return self._traced(_name, site, inner)

            setattr(obj, method, wrapper)

    def wrap_node(self, node: Any) -> None:
        """RPC spans: opened by ``call_async``, closed when the reply lands."""
        call_async = node.call_async
        complete = node._complete_reply
        node_id = node.node_id

        def traced_call(*args, **kwargs):
            request_id = node._next_request_id
            event = call_async(*args, **kwargs)
            span = self._open("net.rpc", node.site)
            if span is not None:
                self._rpc_open[(node_id, request_id)] = span
            self.rpc_events.append(event)
            return event

        def traced_complete(message):
            span = self._rpc_open.pop((node_id, message.body["request_id"]), None)
            if span is not None:
                span[END] = self.clock.now
            return complete(message)

        node.call_async = traced_call
        node._complete_reply = traced_complete

    def tap(self, network: Any) -> None:
        site_of = network.site_of
        counts = self.taps

        def on_send(message) -> None:
            counts["bytes"] += message.size_bytes
            if site_of(message.src) != site_of(message.dst):
                counts["wan"] += 1

        network.add_tap(on_send)

    def wrap_codec(self) -> Callable[[], None]:
        """Time the live framing functions; returns the undo callback."""
        from repro.live import codec, transport

        encode_frame, loads = transport.encode_frame, codec.loads
        stats = self.codec

        def timed_encode(obj):
            began = time.perf_counter()
            data = encode_frame(obj)
            stats["wall_s"] += time.perf_counter() - began
            stats["frames"] += 1
            stats["bytes"] += len(data)
            return data

        def timed_loads(data):
            began = time.perf_counter()
            obj = loads(data)
            stats["wall_s"] += time.perf_counter() - began
            stats["frames"] += 1
            return obj

        transport.encode_frame, codec.loads = timed_encode, timed_loads

        def undo() -> None:
            transport.encode_frame, codec.loads = encode_frame, loads

        return undo

    # -- attaching to a deployment ------------------------------------------

    def attach_replicas(self, replicas: Iterable[Any], store_replicas: Iterable[Any]) -> None:
        for replica in replicas:
            self.wrap(replica, REPLICA_OPS, "replica")
            self.wrap(replica.lock_store, LOCKSTORE_OPS, "lockstore")
            self.wrap(replica.coordinator, STORE_OPS, "store", site=replica.site,
                      rename=_local_reads_apart)
            self.wrap_node(replica)
        for store_replica in store_replicas:
            self.wrap(store_replica.engine, ("commit",), "storage")
            self.wrap_node(store_replica)

    def attach_client(self, client: Any) -> Any:
        self.wrap(client, CLIENT_OPS, "client")
        host = getattr(client, "host", None)
        if host is not None:
            self.wrap_node(host)
        return client

    def attach_des(self, deployment: Any) -> None:
        self.attach_replicas(deployment.replicas, deployment.store.replicas)
        self.tap(deployment.network)
        make_client = deployment.client
        deployment.client = lambda *a, **k: self.attach_client(make_client(*a, **k))

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    "id": span[ID], "name": span[NAME], "start_ms": span[START],
                    "end_ms": span[END], "parent": span[PARENT], "op": span[OP],
                }) + "\n")


# -- per-layer metrics -----------------------------------------------------


def _p(values: List[float], fraction: float) -> float:
    return percentile(sorted(values), fraction) if values else 0.0


def _self_time(span: list, children: List[list]) -> float:
    """Duration minus the union of the children's intervals."""
    covered = 0.0
    reach = span[START]
    for child in sorted(children, key=lambda c: c[START]):
        start = max(child[START], reach)
        end = min(child[END], span[END])
        if end > start:
            covered += end - start
            reach = end
    return span[END] - span[START] - covered


def nearest_majority_rtt(profile: Any, site: str, replication: int) -> float:
    """RTT from ``site`` to the farthest member of its nearest majority."""
    rtts = sorted(profile.rtt(site, other) for other in profile.site_names)
    return rtts[replication // 2]


def layer_metrics(tracer: Tracer, ops: int, *, profiler: Any = None,
                  plain_wall: float, traced_wall: float,
                  net_stats: Iterable[Any] = (), wal_bytes: int = 0,
                  rtt_profile: Any = None, replication: int = 3,
                  lease_hits: int = 0, live: bool = False, cpu_s: float = 0.0) -> Dict[str, float]:
    """Every per-layer metric of one traced run of ``ops`` ops.

    ``plain_wall`` and ``traced_wall`` are the wall cost of the same work
    untraced and traced: seconds for one DES sub-run (then also the
    divisor of ``sim.events_per_wall_s``), seconds per op on live.
    """
    spans = [s for s in tracer.spans if s[END] is not None]
    by_name: Dict[str, List[list]] = {}
    children: Dict[int, List[list]] = {}
    for span in spans:
        by_name.setdefault(span[NAME], []).append(span)
        if span[PARENT] is not None:
            children.setdefault(span[PARENT], []).append(span)

    def durations(name: str) -> List[float]:
        return [s[END] - s[START] for s in by_name.get(name, ())]

    def count(*names: str) -> int:
        return sum(len(by_name.get(name, ())) for name in names)

    per_op = 1.0 / ops
    m: Dict[str, float] = {}

    # sim: the kernel (0 on live, where the asyncio loop stands in for it).
    snap = profiler.snapshot() if profiler is not None else None
    m["sim.events_per_op"] = snap["events"] * per_op if snap else 0.0
    m["sim.heap_pushes_per_op"] = snap["heap_pushes"] * per_op if snap else 0.0
    m["sim.events_per_wall_s"] = snap["events"] / plain_wall if snap else 0.0
    shares = snap["subsystem_shares"] if snap else {}
    for subsystem in SUBSYSTEMS:
        m[f"sim.wall_share.{subsystem}"] = shares.get(subsystem, 0.0)

    # net: messages, RPC round trips, timeouts.
    sent = sum(stats.sent for stats in net_stats)
    m["net.msgs_per_op"] = sent * per_op
    m["net.wan_msgs_per_op"] = tracer.taps["wan"] * per_op
    m["net.bytes_per_op"] = tracer.taps["bytes"] * per_op
    m["net.rpc.per_op"] = count("net.rpc") * per_op
    m["net.rpc.p50_ms"] = _p(durations("net.rpc"), 0.5)
    timeouts = sum(1 for event in tracer.rpc_events if event.triggered and not event.ok)
    m["net.rpc.timeouts_per_op"] = timeouts * per_op

    # storage: group commits and journaled bytes.
    m["storage.commits_per_op"] = count("storage.commit") * per_op
    m["storage.bytes_per_op"] = wal_bytes * per_op

    # store: quorum reads/writes and LWTs.
    for op in STORE_OPS:
        m[f"store.{op}.per_op"] = count(f"store.{op}") * per_op
        m[f"store.{op}.p50_ms"] = _p(durations(f"store.{op}"), 0.5)
    m["store.cas.p99_ms"] = _p(durations("store.cas"), 0.99)
    cas_calls = count("store.cas")
    prepares = sum(stats.per_kind.get("paxos_prepare", 0) for stats in net_stats)
    m["store.cas.prepares_per_call"] = (
        prepares / replication / cas_calls if cas_calls else 0.0
    )
    for op in ("get", "cas"):
        ratios = []
        if rtt_profile is not None:
            for span in by_name.get(f"store.{op}", ()):
                rtt = nearest_majority_rtt(rtt_profile, span[SITE], replication)
                ratios.append((span[END] - span[START]) / rtt)
        m[f"store.{op}.rtts"] = _p(ratios, 0.5)

    # lockstore: lockRef minting, local peeks, dequeues.
    m["lockstore.mint.p50_ms"] = _p(durations("lockstore.generate_and_enqueue"), 0.5)
    m["lockstore.peek.per_op"] = count(
        "lockstore.peek", "lockstore.peek_with_epoch", "lockstore.peek_with_lease",
        "lockstore.peek_quorum") * per_op
    m["lockstore.dequeue.p50_ms"] = _p(durations("lockstore.dequeue"), 0.5)

    # core: the MUSIC operations as the client sees them.
    blocking = by_name.get("client.acquire_lock_blocking", [])
    m["core.acquire.p50_ms"] = _p(durations("client.acquire_lock_blocking"), 0.5)
    m["core.acquire.p99_ms"] = _p(durations("client.acquire_lock_blocking"), 0.99)
    m["core.acquire.polls_per_grant"] = (
        count("client.acquire_lock") / len(blocking) if blocking else 0.0
    )
    m["core.queue_wait.p50_ms"] = _p(
        [_self_time(s, children.get(s[ID], [])) for s in blocking], 0.5
    )
    m["core.critical_get.p50_ms"] = _p(durations("client.critical_get"), 0.5)
    m["core.critical_put.p50_ms"] = _p(durations("client.critical_put"), 0.5)
    m["core.release.p50_ms"] = _p(durations("client.release_lock"), 0.5)
    # Each client op makes one attempt per replica call (library) or
    # per RPC (service mode); anything beyond the first is a failover.
    attempt = "net.rpc" if live else None
    retries = 0
    for name in ("client.create_lock_ref", "client.acquire_lock",
                 "client.critical_get", "client.critical_put", "client.release_lock"):
        for span in by_name.get(name, ()):
            tries = sum(
                1 for child in children.get(span[ID], ())
                if (child[NAME] == attempt if attempt else child[NAME].startswith("replica."))
            )
            retries += max(0, tries - 1)
    m["core.failover_retries_per_op"] = retries * per_op

    # leases: criticalGets the leaseholder served from its local mirror.
    gets = count("client.critical_get")
    m["leases.local_read_frac"] = lease_hits / gets if gets else 0.0

    # live: the socket transport and its codec (0 on the DES).
    codec = tracer.codec
    m["live.msgs_per_op"] = sent * per_op if live else 0.0
    m["live.bytes_per_op"] = codec["bytes"] * per_op if live else 0.0
    m["live.codec.us_per_msg"] = (
        codec["wall_s"] * 1e6 / codec["frames"] if live and codec["frames"] else 0.0
    )
    m["live.codec.cpu_share"] = codec["wall_s"] / cpu_s if live and cpu_s else 0.0
    m["live.rpc.p50_ms"] = m["net.rpc.p50_ms"] if live else 0.0

    m["trace.overhead_frac"] = traced_wall / plain_wall - 1.0
    return m


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read off its name."""
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("bytes_per_op"):
        return "B/op"
    if name.endswith("per_op"):
        return "1/op"
    if name.endswith(".rtts"):
        return "RTT"
    if name.endswith("us_per_msg"):
        return "us"
    if name.endswith("per_wall_s"):
        return "1/s"
    if name.endswith(("_per_call", "_per_grant")):
        return "count"
    return "ratio"


def check_round_trips(metrics: Dict[str, float]) -> List[str]:
    """Appendix X-B4 cost model vs the measured store round trips."""
    problems = []
    low, high = RTT_TOLERANCE
    for op, expected in (("get", ROUND_TRIPS.quorum), ("cas", ROUND_TRIPS.consensus)):
        measured = metrics[f"store.{op}.rtts"]
        if not low <= measured / expected <= high:
            problems.append(
                f"store.{op}.rtts = {measured:.3f}, cost model says {expected:g} RTT"
            )
    return problems
