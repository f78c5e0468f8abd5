"""Live clients: the unmodified service-mode client over real sockets.

A live client process builds a plain :class:`~repro.net.Node` host on
its own :class:`~repro.live.transport.TcpTransport` and hands it to the
**existing** :class:`repro.core.RemoteMusicClient` — the service
deployment of Fig. 1, already written purely against the RPC surface
that :func:`repro.core.install_service` exposes on every replica.  The
only live-specific piece is :class:`ReplicaHandle`: the remote client
sorts and health-checks its replica list through four attributes
(``node_id``/``site``/``failed``/``config``), and across process
boundaries those come from the cluster spec instead of live objects.

``cs_workload`` is the shared critical-section workload used by the
conformance suite, the smoke runner and the live bench: ``rounds``
read-modify-write increments per key, a fixed number of logical
clients, every CS timed.  Its *effect* is timing-independent (each key
ends at exactly ``rounds * clients_per_key`` increments), which is what
lets the sim-vs-live conformance test demand identical final state
from both modes.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional

from ..analysis.stats import percentile
from ..core import RemoteMusicClient
from ..net import Node
from ..sim import RandomStreams
from .config import ClusterSpec

__all__ = ["ReplicaHandle", "build_remote_client", "cs_workload", "WorkloadResult"]

_client_seq = itertools.count()


class ReplicaHandle:
    """What RemoteMusicClient needs to know about a remote replica."""

    __slots__ = ("node_id", "site", "config", "failed")

    def __init__(self, node_id: str, site: str, config: Any) -> None:
        self.node_id = node_id
        self.site = site
        self.config = config
        self.failed = False


def build_remote_client(
    spec: ClusterSpec,
    clock: Any,
    transport: Any,
    site: Optional[str] = None,
    client_id: Optional[str] = None,
    seed_salt: int = 0,
) -> RemoteMusicClient:
    """A service-mode MUSIC client on this process's transport."""
    music_config = spec.music_config()
    handles = [
        ReplicaHandle(music_id, spec.site_of(music_id), music_config)
        for music_id in spec.music_ids
    ]
    site = site or handles[0].site
    if client_id is None:
        client_id = f"client-{os.getpid()}-{next(_client_seq)}"
    host = Node(clock, transport, client_id, site)
    host.start()
    return RemoteMusicClient(
        host, handles, config=music_config,
        streams=RandomStreams(spec.seed + seed_salt),
    )


@dataclass
class WorkloadResult:
    """Outcome of one ``cs_workload`` run."""

    completed_cs: int = 0
    failed_cs: int = 0
    # Wall-clock (clock.now) duration of each full critical section and
    # of each blocking acquire, in milliseconds.
    cs_latencies_ms: List[float] = field(default_factory=list)
    acquire_latencies_ms: List[float] = field(default_factory=list)
    started_ms: float = 0.0
    finished_ms: float = 0.0
    final_values: Dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ms(self) -> float:
        return self.finished_ms - self.started_ms

    def cs_per_sec(self) -> float:
        if self.duration_ms <= 0:
            return 0.0
        return self.completed_cs / (self.duration_ms / 1000.0)


def workload_metrics(result: WorkloadResult) -> Dict[str, float]:
    """The BENCH_live metric set for one workload run (an empty latency
    sample reports 0.0)."""
    cs = sorted(result.cs_latencies_ms)
    acquire = sorted(result.acquire_latencies_ms)
    return {
        "completed_cs": float(result.completed_cs),
        "failed_cs": float(result.failed_cs),
        "duration_ms": result.duration_ms,
        "cs_per_sec": result.cs_per_sec(),
        "cs_p50_ms": percentile(cs, 0.50) if cs else 0.0,
        "cs_p99_ms": percentile(cs, 0.99) if cs else 0.0,
        "acquire_p50_ms": percentile(acquire, 0.50) if acquire else 0.0,
        "acquire_p99_ms": percentile(acquire, 0.99) if acquire else 0.0,
    }


def cs_workload(
    clock: Any,
    clients: List[RemoteMusicClient],
    keys: List[str],
    rounds: int,
    acquire_timeout_ms: float = 60_000.0,
) -> Generator[Any, Any, WorkloadResult]:
    """Counter-increment critical sections: the shared two-mode workload.

    Client ``i`` works key ``keys[i % len(keys)]``; each client performs
    ``rounds`` critical sections of read → increment → write.  Returns
    the aggregate result including the final value of every key (read
    under one last critical section per key by the first client).
    """
    result = WorkloadResult(started_ms=clock.now)

    def one_client(client: RemoteMusicClient, key: str) -> Generator[Any, Any, None]:
        for _ in range(rounds):
            entered = clock.now
            lock_ref = yield from client.create_lock_ref(key)
            granted = yield from client.acquire_lock_blocking(
                key, lock_ref, timeout_ms=acquire_timeout_ms
            )
            if not granted:
                yield from client.release_lock(key, lock_ref)
                result.failed_cs += 1
                continue
            result.acquire_latencies_ms.append(clock.now - entered)
            value = yield from client.critical_get(key, lock_ref)
            value = (value or 0) + 1
            yield from client.critical_put(key, lock_ref, value)
            yield from client.release_lock(key, lock_ref)
            result.cs_latencies_ms.append(clock.now - entered)
            result.completed_cs += 1

    def run_all() -> Generator[Any, Any, WorkloadResult]:
        workers = [
            clock.process(
                one_client(client, keys[index % len(keys)]),
                name=f"cs-worker-{index}",
            )
            for index, client in enumerate(clients)
        ]
        yield clock.all_of(workers)
        # Final audited read of every key, under a lock so it is a
        # linearized observation.
        reader = clients[0]
        for key in keys:
            lock_ref = yield from reader.create_lock_ref(key)
            granted = yield from reader.acquire_lock_blocking(
                key, lock_ref, timeout_ms=acquire_timeout_ms
            )
            if granted:
                value = yield from reader.critical_get(key, lock_ref)
                result.final_values[key] = value
            yield from reader.release_lock(key, lock_ref)
        result.finished_ms = clock.now
        return result

    outcome = yield from run_all()
    return outcome
