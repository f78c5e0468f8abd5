"""The four benchmark workloads, each a closed loop of blocking callers.

A DES workload is a *shape* (store width, feature flags) plus a driver
generator; one *sub-run* builds a fresh deployment from a sub-seed, runs
its workers through a warm-up and a measurement window of simulated time
and returns an :class:`OpLog`.  ``live_cs`` drives a
:class:`repro.live.LocalCluster` through a window of wall time instead.  Inputs (keys, op mixes) come from the benchmark's own
``random.Random``; the same seed is handed to ``build_music``.

Every workload checks its own outputs: no two of its callers hold one
key's lock at once, a read inside a critical section must return the
count this benchmark knows was last written, and the final state of
every key must equal the number of completed increments.
"""

from __future__ import annotations

import asyncio
import math
import random
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Generator, List, Optional, Set

from repro.core import build_music
from repro.errors import ReproError
from repro.net import PAPER_PROFILES, Network
from repro.sim import RandomStreams, Simulator

from reference import time_reference

# A stuck acquire counts as a failed op instead of hanging the run.
ACQUIRE_TIMEOUT_MS = 120_000.0
OP_KEY = "perfbench.op"
PROFILE = "lUs"
# The NetEm-style uniform inflation of each one-way delay that Fig. 8
# uses.  Without it an uncontended CS costs the same on every seed.
WAN_JITTER = 0.25


@dataclass
class OpLog:
    """What one sub-run did inside its measurement window.

    Workers loop until the window closes.  Ops started during the warm-up
    are run but not recorded, ops started inside the window are recorded
    to completion, and ``window_ops`` counts those that also completed
    inside it (the throughput numerator).
    """

    window_start_ms: float = 0.0
    window_end_ms: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    window_ops: int = 0
    # Every op that completed, warm-up included: the wall-cost denominator.
    executed: int = 0
    failed: int = 0
    # Wrong outputs (a stale read, a lost increment): the run is incorrect.
    mismatches: int = 0
    # The first few of each, for the report.
    failure_notes: List[str] = field(default_factory=list)
    mismatch_notes: List[str] = field(default_factory=list)
    # Keys whose lock one of the workers holds right now.
    holding: Set[str] = field(default_factory=set)
    # Set by the tracer: every op gets an id that its spans share.
    tag_ops: bool = False
    _next_op: int = 0

    @property
    def attempted(self) -> int:
        return len(self.latencies_ms)

    @property
    def window_ms(self) -> float:
        return self.window_end_ms - self.window_start_ms

    def open(self, clock: Any) -> bool:
        """Whether a worker may start another op."""
        return clock.now < self.window_end_ms

    def begin(self, clock: Any) -> Optional[float]:
        """Start an op; None if it falls in the warm-up (not recorded)."""
        if self.tag_ops:
            self._next_op += 1
            clock.active_process.context[OP_KEY] = self._next_op
        now = clock.now
        return now if now >= self.window_start_ms else None

    def done(self, clock: Any, began: Optional[float]) -> None:
        self.executed += 1
        if began is not None:
            self.latencies_ms.append(clock.now - began)
            if clock.now < self.window_end_ms:
                self.window_ops += 1

    def fail(self, why: str) -> None:
        # A failed op counts as infinite latency: it misses every limit.
        # One in the warm-up is still a failure.
        self.failed += 1
        self.latencies_ms.append(math.inf)
        if len(self.failure_notes) < 3:
            self.failure_notes.append(why)

    def check(self, ok: bool, why: str) -> None:
        if not ok:
            self.mismatches += 1
            if len(self.mismatch_notes) < 3:
                self.mismatch_notes.append(why)


def _counter_cs(client: Any, clock: Any, key: str, log: OpLog,
                counts: Dict[str, int]) -> Generator[Any, Any, None]:
    """One full CS: createLockRef, acquire, criticalGet, criticalPut(+1),
    release.  ``counts`` holds every key's last written value.

    The key counts as held from the grant until just before
    releaseLock is called; a successor can only be granted after that
    call, so a grant while the key is held means two lockholders."""
    began = log.begin(clock)
    held = False
    try:
        lock_ref = yield from client.create_lock_ref(key)
        granted = yield from client.acquire_lock_blocking(
            key, lock_ref, timeout_ms=ACQUIRE_TIMEOUT_MS
        )
        if not granted:
            yield from client.release_lock(key, lock_ref)
            log.fail(f"acquire timed out on {key}")
            return
        log.check(key not in log.holding, f"{key}: granted while another caller holds it")
        log.holding.add(key)
        held = True
        expect = counts.get(key, 0)
        value = yield from client.critical_get(key, lock_ref)
        value = value or 0
        log.check(value == expect, f"{key}: criticalGet read {value}, last write was {expect}")
        yield from client.critical_put(key, lock_ref, expect + 1)
        counts[key] = expect + 1
        log.holding.discard(key)
        held = False
        yield from client.release_lock(key, lock_ref)
    except ReproError as error:
        if held:
            log.holding.discard(key)
        log.fail(f"{key}: {error!r}")
        return
    log.done(clock, began)


def _check_final(deployment: Any, expected: Dict[str, int], log: OpLog) -> Generator:
    """Quorum-read every key after the run; each must equal its count."""
    replica = deployment.replicas[0]
    sim = deployment.sim

    def read(key: str) -> Generator[Any, Any, None]:
        value, _stamp = yield from replica.quorum_get(key)
        log.check((value or 0) == expected[key],
                  f"{key}: final value {value}, expected {expected[key]}")

    yield sim.all_of([sim.process(read(key)) for key in expected])


def _run_workers(sim: Any, log: OpLog, warmup_ms: float, window_ms: float,
                 workers: List[Generator]) -> Generator:
    log.window_start_ms = sim.now + warmup_ms
    log.window_end_ms = log.window_start_ms + window_ms
    yield sim.all_of([sim.process(w, name=f"bench-{i}") for i, w in enumerate(workers)])


# -- DES drivers ----------------------------------------------------------------


PAPER_CLIENTS = 64
PAPER_KEYS_PER_CLIENT = 16
PAPER_WARMUP_MS = 1_000.0
PAPER_WINDOW_MS = 8_000.0


def drive_paper_cs(deployment: Any, rng: random.Random, log: OpLog) -> Generator:
    """Fig. 4/5 shape: every client cycles through its own keys."""
    sim = deployment.sim
    sites = deployment.profile.site_names
    counts: Dict[str, int] = {}

    def worker(index: int) -> Generator[Any, Any, None]:
        client = deployment.client(sites[index % len(sites)], f"pc-{index}")
        keys = [f"pc-{index}-{k}" for k in range(PAPER_KEYS_PER_CLIENT)]
        step = rng.randrange(PAPER_KEYS_PER_CLIENT)
        while log.open(sim):
            key = keys[step % PAPER_KEYS_PER_CLIENT]
            step += 1
            yield from _counter_cs(client, sim, key, log, counts)

    yield from _run_workers(sim, log, PAPER_WARMUP_MS, PAPER_WINDOW_MS,
                            [worker(i) for i in range(PAPER_CLIENTS)])
    yield from _check_final(deployment, counts, log)


HOT_KEYS = 4
HOT_CLIENTS_PER_KEY = 8
HOT_WARMUP_MS = 5_000.0
HOT_WINDOW_MS = 50_000.0


def drive_hotlock(deployment: Any, rng: random.Random, log: OpLog) -> Generator:
    """Eight blocking callers queue on each of a few hot keys."""
    sim = deployment.sim
    sites = deployment.profile.site_names
    hot = [f"hot-{rng.randrange(10**6)}-{k}" for k in range(HOT_KEYS)]
    counts = {key: 0 for key in hot}

    def worker(index: int) -> Generator[Any, Any, None]:
        client = deployment.client(sites[index % len(sites)], f"hl-{index}")
        key = hot[index % HOT_KEYS]
        while log.open(sim):
            yield from _counter_cs(client, sim, key, log, counts)

    yield from _run_workers(sim, log, HOT_WARMUP_MS, HOT_WINDOW_MS,
                            [worker(i) for i in range(HOT_KEYS * HOT_CLIENTS_PER_KEY)])
    yield from _check_final(deployment, counts, log)


OWN_WORKERS = 9
OWN_READ_FRACTION = 0.95
OWN_THINK_MS = 2.0
OWN_WARMUP_MS = 1_000.0
OWN_WINDOW_MS = 7_000.0


def drive_ownership_reads(deployment: Any, rng: random.Random, log: OpLog) -> Generator:
    """YCSB-B inside long-lived critical sections, one owner per key."""
    sim = deployment.sim
    sites = deployment.profile.site_names
    mixes = [random.Random(rng.random()) for _ in range(OWN_WORKERS)]

    def worker(index: int) -> Generator[Any, Any, None]:
        client = deployment.client(sites[index % len(sites)], f"own-{index}")
        key = f"owner-{index}"
        mix = mixes[index]
        try:
            cs = yield from client.critical_section(key, timeout_ms=ACQUIRE_TIMEOUT_MS)
            seq = 0
            yield from cs.put(seq)
        except ReproError as error:
            log.fail(f"{key}: entering: {error!r}")
            return
        while log.open(sim):
            began = log.begin(sim)
            try:
                if mix.random() < OWN_READ_FRACTION:
                    value = yield from cs.get()
                    log.check(value == seq, f"{key}: criticalGet read {value}, last write was {seq}")
                else:
                    yield from cs.put(seq + 1)
                    seq += 1
            except ReproError as error:
                log.fail(f"{key}: {error!r}")
                continue
            log.done(sim, began)
            yield sim.timeout(OWN_THINK_MS)
        try:
            final = yield from cs.get()
            log.check(final == seq, f"{key}: final criticalGet read {final}, last write was {seq}")
            yield from cs.exit()
        except ReproError as error:
            log.check(False, f"{key}: final read/release failed: {error!r}")

    yield from _run_workers(sim, log, OWN_WARMUP_MS, OWN_WINDOW_MS,
                            [worker(i) for i in range(OWN_WORKERS)])


@dataclass(frozen=True)
class DesShape:
    """A DES workload: deployment shape plus its driver."""

    drive: Callable[..., Generator]
    nodes_per_site: int
    fast_locks: bool = False
    read_leases: bool = False

    def deploy(self, seed: int, traced: bool) -> Any:
        sim = Simulator()
        network = Network(sim, PAPER_PROFILES[PROFILE],
                          streams=RandomStreams(seed), jitter_fraction=WAN_JITTER)
        return build_music(
            profile_name=PROFILE, nodes_per_site=self.nodes_per_site,
            seed=seed, fast_locks=self.fast_locks, read_leases=self.read_leases,
            audit=traced, profile=traced, sim=sim, network=network,
        )


# The measurement window is cut into this many equal slices of
# simulated time, each timed on the host (see ``SubRun.slices``).
WINDOW_SLICES = 200


@dataclass
class SubRun:
    """One DES sub-run: its op log plus the wall cost of running it.

    ``slices`` holds, for each slice of the window, the wall seconds,
    CPU seconds and kernel heap pushes it took, then the wall and CPU
    seconds of the reference loop run right after it.
    """

    log: OpLog
    deployment: Any
    wall_s: float
    heap_pushes: int
    slices: List[tuple]


def _time_slices(sim: Any, log: OpLog, slices: List[tuple]) -> Generator:
    """Time every slice of the window, and the reference loop after it.

    It only waits on timeouts and reads clocks, so it changes no
    simulated timing of the workload; the reference loop runs outside
    the timed slices."""
    yield sim.timeout(log.window_start_ms - sim.now)
    step = log.window_ms / WINDOW_SLICES
    last = time.perf_counter(), time.process_time(), sim._seq
    for index in range(1, WINDOW_SLICES + 1):
        yield sim.timeout(log.window_start_ms + index * step - sim.now)
        now = time.perf_counter(), time.process_time(), sim._seq
        slices.append((now[0] - last[0], now[1] - last[1], now[2] - last[2])
                      + time_reference())
        last = time.perf_counter(), time.process_time(), sim._seq


def run_des(shape: DesShape, seed: int, traced: bool = False,
            prepare: Optional[Callable[[Any, OpLog], None]] = None) -> SubRun:
    """Build a fresh deployment from ``seed`` and run the shape's window.

    ``prepare`` (the tracer) may wrap the deployment's layer objects
    before the first op is issued.
    """
    deployment = shape.deploy(seed, traced)
    log = OpLog()
    rng = random.Random(seed)
    sim = deployment.sim
    driver = sim.process(shape.drive(deployment, rng, log), name="bench-driver")
    slices: List[tuple] = []
    # Started after the driver, which sets the window on its first step.
    sim.process(_time_slices(sim, log, slices), name="bench-slices")
    if prepare is not None:
        prepare(deployment, log)
    wall0, pushes0 = time.perf_counter(), sim._seq
    sim.run_until_complete(driver, limit=1e12)
    return SubRun(log, deployment, time.perf_counter() - wall0, sim._seq - pushes0, slices)


DES_SHAPES: Dict[str, DesShape] = {
    "paper_cs": DesShape(drive_paper_cs, nodes_per_site=3),
    "hotlock": DesShape(drive_hotlock, nodes_per_site=1, fast_locks=True),
    "ownership_reads": DesShape(drive_ownership_reads, nodes_per_site=3, read_leases=True),
}


# -- live -------------------------------------------------------------------


@dataclass
class LiveRun:
    log: OpLog
    cluster: Any
    setup_s: float
    wall_s: float
    cpu_s: float


LIVE_CLIENTS = 2


async def run_live(spec: Any, seed: int, seconds: float,
                   prepare: Optional[Callable[[Any, List[Any], OpLog], None]] = None,
                   ) -> LiveRun:
    """Blocking clients on disjoint counter keys for ``seconds`` wall."""
    from repro.live import LocalCluster

    rng = random.Random(seed)
    keys = [f"live-{rng.randrange(10**6)}-{i}" for i in range(LIVE_CLIENTS)]
    built = time.perf_counter()
    cluster = await LocalCluster(spec).start()
    try:
        clock = cluster.clock
        handles = [cluster.build_client(site=spec.site_names[i % len(spec.site_names)])
                   for i in range(LIVE_CLIENTS)]
        setup_s = time.perf_counter() - built
        log = OpLog()
        if prepare is not None:
            prepare(cluster, handles, log)
        counts = {key: 0 for key in keys}

        def worker(client: Any, key: str) -> Generator[Any, Any, None]:
            while log.open(clock):
                yield from _counter_cs(client, clock, key, log, counts)

        cost = []

        def driver() -> Generator[Any, Any, None]:
            began = time.perf_counter(), time.process_time()
            yield from _run_workers(clock, log, 0.0, seconds * 1000.0,
                                    [worker(c, k) for c, k in zip(handles, keys)])
            cost.extend((time.perf_counter() - began[0], time.process_time() - began[1]))
            # Final state: one more CS per key reads the counter.
            reader = handles[0]
            for key in keys:
                lock_ref = yield from reader.create_lock_ref(key)
                granted = yield from reader.acquire_lock_blocking(
                    key, lock_ref, timeout_ms=ACQUIRE_TIMEOUT_MS)
                value = (yield from reader.critical_get(key, lock_ref)) if granted else None
                yield from reader.release_lock(key, lock_ref)
                log.check((value or 0) == counts[key],
                          f"{key}: final value {value}, expected {counts[key]}")

        await asyncio.wait_for(clock.run_process(driver(), name="bench-driver"),
                               timeout=seconds + 120.0)
        for failure in cluster.drain_failures():
            log.check(False, f"unhandled failure in the cluster: {failure[:200]}")
        return LiveRun(log, cluster, setup_s, *cost)
    finally:
        await cluster.stop()
