"""One experiment per table/figure of the paper's evaluation (Section
VIII and Appendix X-B).

Each ``fig*``/``table*`` function builds fresh deployments on a fresh
simulator, drives the paper's workload, and returns an
:class:`ExperimentResult` holding the measured series, a rendered text
table, and pass/fail *shape checks* — the qualitative claims the paper
makes (who wins, by roughly what factor, where crossovers fall).
Absolute numbers differ from the paper's testbed; EXPERIMENTS.md records
paper-vs-measured side by side.

Scale: parameters default to the "quick" preset (minutes for the whole
suite); set ``REPRO_BENCH_SCALE=full`` for paper-sized sweeps.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Tuple

from ..analysis import CostModel, cdf_points, render_cdf, render_series, render_table, summarize
from ..baselines.cockroach import build_cockroach
from ..baselines.mscp import build_mscp
from ..baselines.zookeeper import build_zookeeper
from ..core import build_music
from ..errors import NotLockHolder, ReproError
from ..net import PAPER_PROFILES, Network
from ..sim import RandomStreams, Simulator
from ..workloads import PAPER_DATA_SIZES, PAPER_YCSB_WORKLOADS, SizedValue, ZipfianGenerator
from . import results
from .harness import measure_latency, measure_throughput
from .results import write_bench_json
from .workers import (
    cassa_ev_operation,
    cassa_ev_worker,
    cockroach_cs_operation,
    music_cs_operation,
    music_worker,
    zookeeper_worker,
)

__all__ = ["ExperimentResult", "EXPERIMENTS", "run_experiment", "scale_name"]

# When set (python -m repro.bench --audit), every MUSIC deployment an
# experiment builds gets the runtime ECF auditor attached and each
# experiment gains an "ECF audit clean" shape check.
AUDIT = False


@dataclass
class ExperimentResult:
    """The outcome of regenerating one table/figure."""

    exp_id: str
    title: str
    text: str
    data: Dict[str, Any] = field(default_factory=dict)
    checks: List[Tuple[str, bool]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(passed for _desc, passed in self.checks)

    def check_report(self) -> str:
        lines = []
        for desc, passed in self.checks:
            lines.append(f"  [{'PASS' if passed else 'FAIL'}] {desc}")
        return "\n".join(lines)

    def write_report(self) -> None:
        """Write the rendered table and its checks to ``<exp_id>.txt``
        beside the BENCH files (skipped on a read-only checkout)."""
        target = results.results_dir() / f"{self.exp_id}.txt"
        try:
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(self.text + "\n" + self.check_report() + "\n")
        except OSError:
            pass


def scale_name() -> str:
    return os.environ.get("REPRO_BENCH_SCALE", "quick")


def _params() -> Dict[str, Any]:
    quick = {
        "latency_samples": 12,
        "cdf_samples": 60,
        "thr_threads": 240,
        "thr_warmup_ms": 1_500.0,
        "thr_window_ms": 3_000.0,
        "cassa_threads": 24,
        "cassa_warmup_ms": 200.0,
        "cassa_window_ms": 500.0,
        # Fig 4b needs a CPU-saturated regime to show scaling; with the
        # quick preset we shrink the per-node core count instead of
        # inflating the thread count (same capacity mechanism).
        "fig4b_threads": 400,
        "fig4b_cores": 4,
        "fig4b_sizes": [3, 9],
        # The elastic axis reuses Fig 4b's saturation regime (~33
        # threads per core at size 3) but runs one continuous growing
        # cluster, so the quick preset trims the fleet and shrinks the
        # per-node core count instead (migration and event-loop work
        # both scale with keys x threads).
        "elastic_threads": 100,
        "elastic_cores": 1,
        "elastic_keys": 2,
        "fig6_threads": 600,
        "fig6_batches": [10, 100],
        "fig6_sizes": ["10B", "16KB", "256KB"],
        "fig7_batches": [10, 100],
        "fig7_sizes": ["10B", "16KB", "64KB"],
        "fig7_samples": 3,
        # Chosen to land near the paper's ~5.5% lock-collision regime:
        # more threads per key pile onto the Zipfian head and queueing
        # (identical in both systems) swamps the put-cost difference.
        "ycsb_threads": 8,
        "ycsb_keys": 1000,
        "ycsb_warmup_ms": 3_000.0,
        "ycsb_window_ms": 15_000.0,
        "ycsb_seeds": [51, 151],
        # Contention axis: the ISSUE's acceptance shape — 16 clients on
        # one hot key — at both scales; full just runs more rounds.
        "contention_clients": 16,
        "contention_rounds": 3,
        # Read scale-out axis: one long-lived owner per key (portal
        # style), read-heavy mix, 9 store nodes (3 sites x 3).
        "leases_workers": 9,
        "leases_think_ms": 2.0,
        "leases_warmup_ms": 1_000.0,
        "leases_window_ms": 4_000.0,
        # Live axis: wall-clock run over real sockets.  4 x 50 = 200
        # critical sections — the acceptance floor — at both scales;
        # full doubles the client count.
        "live_clients": 4,
        "live_rounds": 50,
        "live_keys": 2,
        # Transaction-regime axis: three engines x three Zipfian
        # contention levels over a small key population (2-4 keys/txn).
        "txn_clients": 8,
        "txn_per_client": 6,
        "txn_keys": 24,
        "txn_thetas": [0.1, 0.7, 0.99],
    }
    if scale_name() != "full":
        return quick
    full = dict(quick)
    full.update(
        {
            "latency_samples": 40,
            "cdf_samples": 200,
            "thr_threads": 600,
            "thr_warmup_ms": 2_000.0,
            "thr_window_ms": 6_000.0,
            "cassa_threads": 64,
            "cassa_window_ms": 2_000.0,
            "fig4b_threads": 900,
            "fig4b_cores": 8,
            "fig4b_sizes": [3, 6, 9],
            "elastic_threads": 400,
            "elastic_cores": 4,
            "elastic_keys": 4,
            "fig6_batches": [1, 10, 100, 1000],
            "fig6_sizes": list(PAPER_DATA_SIZES),
            "fig7_batches": [10, 100, 1000],
            "fig7_sizes": ["10B", "1KB", "16KB", "64KB"],
            "fig7_samples": 5,
            "ycsb_threads": 12,
            "ycsb_keys": 1000,
            "ycsb_window_ms": 25_000.0,
            "ycsb_seeds": [51, 151, 251],
            "contention_rounds": 8,
            "leases_workers": 12,
            "leases_window_ms": 10_000.0,
            "live_clients": 8,
            "live_keys": 4,
            "txn_clients": 16,
            "txn_per_client": 10,
        }
    )
    return full


# ---------------------------------------------------------------------------
# Table II — latency profiles
# ---------------------------------------------------------------------------


def table2() -> ExperimentResult:
    """Table II: verify the modelled RTTs against the paper's numbers."""
    from ..net import Node

    rows = []
    checks = []
    for name, profile in PAPER_PROFILES.items():
        sim = Simulator()
        network = Network(sim, profile, streams=RandomStreams(1))
        nodes = {}
        for index, site in enumerate(profile.site_names):
            node = Node(sim, network, f"probe-{index}", site)
            node.on("ping", lambda msg, n=node: n.reply(msg, "pong"))
            node.start()
            nodes[site] = node

        measured = {}

        def prober():
            sites = list(profile.site_names)
            for a_index in range(len(sites)):
                for b_index in range(a_index + 1, len(sites)):
                    src, dst = nodes[sites[a_index]], nodes[sites[b_index]]
                    start = sim.now
                    yield from src.call(dst.node_id, "ping", None)
                    measured[(sites[a_index], sites[b_index])] = sim.now - start

        sim.run_until_complete(sim.process(prober()))
        for (site_a, site_b), rtt in measured.items():
            configured = profile.rtt(site_a, site_b)
            rows.append([name, f"{site_a}-{site_b}", configured, round(rtt, 2)])
            checks.append(
                (f"{name} {site_a}-{site_b} measured ≈ Table II RTT",
                 abs(rtt - configured) < max(1.0, configured * 0.05))
            )
    text = render_table(
        "Table II — WAN latency profiles (configured vs measured ping RTT)",
        ["profile", "pair", "Table II RTT (ms)", "measured (ms)"],
        rows,
    )
    return ExperimentResult("table2", "Latency profiles", text, {"rows": rows}, checks)


# ---------------------------------------------------------------------------
# Fig. 4 — throughput microbenchmarks
# ---------------------------------------------------------------------------


def _saturation_threads(profile_name: str, base_threads: int) -> int:
    """Threads needed to saturate: proportional to the CS latency.

    Offered load is threads / CS-latency; the CPU capacity cap is the
    same for every profile, so the low-latency l1 profile saturates with
    ~20x fewer threads than lUs (and flooding it with the lUs thread
    count only provokes a retry storm, not more throughput).
    """
    if profile_name == "l1":
        return max(16, base_threads // 10)
    return base_threads


def fig4a() -> ExperimentResult:
    """Fig 4(a): CassaEV / MUSIC / MSCP write throughput per profile."""
    p = _params()
    series: Dict[str, List[float]] = {"CassaEV": [], "MUSIC": [], "MSCP": []}
    profiles = list(PAPER_PROFILES)
    for profile_name in profiles:
        cassa = build_music(profile_name=profile_name, seed=41)
        result = measure_throughput(
            cassa.sim,
            lambda i, rec, err: cassa_ev_worker(cassa, i, rec, err),
            threads=p["cassa_threads"],
            warmup_ms=p["cassa_warmup_ms"],
            window_ms=p["cassa_window_ms"],
        )
        series["CassaEV"].append(result.per_second)
        for label, builder in (("MUSIC", build_music), ("MSCP", build_mscp)):
            deployment = builder(profile_name=profile_name, seed=42)
            result = measure_throughput(
                deployment.sim,
                lambda i, rec, err, d=deployment: music_worker(d, i, rec, err, batch=1),
                threads=_saturation_threads(profile_name, p["thr_threads"]),
                warmup_ms=p["thr_warmup_ms"],
                window_ms=p["thr_window_ms"],
            )
            series[label].append(result.per_second)

    checks = []
    for index, profile_name in enumerate(profiles):
        cassa_tp = series["CassaEV"][index]
        music_tp = series["MUSIC"][index]
        mscp_tp = series["MSCP"][index]
        checks.append((f"{profile_name}: CassaEV >> MUSIC", cassa_tp > 4 * music_tp))
        checks.append(
            (f"{profile_name}: MUSIC outperforms MSCP (paper ~30%)",
             music_tp > 1.10 * mscp_tp)
        )
    text = render_series(
        "Fig 4(a) — peak write throughput (op/s), batch size 1, 10 B values",
        "profile", series, profiles,
    )
    return ExperimentResult("fig4a", "Throughput across profiles", text,
                            {"series": series, "profiles": profiles}, checks)


def fig4b() -> ExperimentResult:
    """Fig 4(b): scaling a sharded lUs cluster from 3 to 9 nodes."""
    p = _params()
    sizes = p["fig4b_sizes"]
    series: Dict[str, List[float]] = {"MUSIC": [], "MSCP": []}
    for node_count in sizes:
        for label, builder in (("MUSIC", build_music), ("MSCP", build_mscp)):
            deployment = builder(
                profile_name="lUs", nodes_per_site=node_count // 3, seed=43,
                cores=p["fig4b_cores"],
            )
            result = measure_throughput(
                deployment.sim,
                lambda i, rec, err, d=deployment: music_worker(d, i, rec, err, batch=1),
                threads=p["fig4b_threads"],
                warmup_ms=p["thr_warmup_ms"],
                window_ms=p["thr_window_ms"],
            )
            series[label].append(result.per_second)
    checks = [
        ("MUSIC throughput grows 3 -> max nodes",
         series["MUSIC"][-1] > 1.3 * series["MUSIC"][0]),
        ("MSCP throughput grows 3 -> max nodes",
         series["MSCP"][-1] > 1.3 * series["MSCP"][0]),
    ]
    for index, node_count in enumerate(sizes):
        checks.append(
            (f"{node_count} nodes: MUSIC outperforms MSCP",
             series["MUSIC"][index] > 1.10 * series["MSCP"][index])
        )
    text = render_series(
        "Fig 4(b) — throughput scaling, lUs, RF=3 sharded (op/s)",
        "nodes", series, sizes,
    )
    return ExperimentResult("fig4b", "Throughput scaling 3->9 nodes", text,
                            {"series": series, "sizes": sizes}, checks)


# ---------------------------------------------------------------------------
# Fig. 5 — latency microbenchmarks
# ---------------------------------------------------------------------------


def fig5a() -> ExperimentResult:
    """Fig 5(a): single-thread mean write latency per profile."""
    p = _params()
    profiles = list(PAPER_PROFILES)
    series: Dict[str, List[float]] = {"CassaEV": [], "MUSIC": [], "MSCP": []}
    for profile_name in profiles:
        deployment = build_music(profile_name=profile_name, seed=44)
        result = measure_latency(
            deployment.sim, cassa_ev_operation(deployment), samples=p["latency_samples"]
        )
        series["CassaEV"].append(result.mean)
        for label, builder in (("MUSIC", build_music), ("MSCP", build_mscp)):
            deployment = builder(profile_name=profile_name, seed=44)
            result = measure_latency(
                deployment.sim,
                music_cs_operation(deployment, batch=1),
                samples=p["latency_samples"],
            )
            series[label].append(result.mean)
    checks = []
    for index, profile_name in enumerate(profiles):
        if profile_name == "l1":
            continue
        ratio = series["MUSIC"][index] / series["MSCP"][index]
        checks.append(
            (f"{profile_name}: MUSIC ~30% lower latency than MSCP "
             f"(ratio {ratio:.2f}, paper ~0.70)", 0.55 < ratio < 0.85)
        )
    checks.append(("CassaEV latency flat across profiles (local write)",
                   max(series["CassaEV"]) < 3.0))
    text = render_series(
        "Fig 5(a) — mean critical-section latency (ms), batch 1",
        "profile", series, profiles,
    )
    return ExperimentResult("fig5a", "Latency across profiles", text,
                            {"series": series, "profiles": profiles}, checks)


def fig5b() -> ExperimentResult:
    """Fig 5(b): per-operation latency breakdown on lUs."""
    p = _params()
    # Keyed by (site, op): LWT cost depends on the coordinator's vantage
    # (Oregon's nearest quorum peer is 24.2 ms away vs Ohio's 53.79), and
    # the paper reports the Ohio vantage.
    timings: Dict[Tuple[str, str], List[float]] = {}

    def recorder_for(site: str):
        def record(op: str, ms: float) -> None:
            timings.setdefault((site, op), []).append(ms)

        return record

    music = build_music(profile_name="lUs", seed=45)
    for replica in music.replicas:
        replica.op_recorder = recorder_for(replica.site)
    client_a = music.client("Ohio")
    client_b = music.client("Oregon")

    def workload():
        for index in range(p["latency_samples"]):
            key = f"bk-{index}"
            lock_ref = yield from client_a.create_lock_ref(key)
            yield from client_a.acquire_lock_blocking(key, lock_ref)
            # A queued second client: its polling exercises the local
            # peek path (the 'L' bar of Fig 5b).
            ref_b = yield from client_b.create_lock_ref(key)
            yield music.sim.timeout(200.0)
            granted = yield from client_b.acquire_lock(key, ref_b)
            assert granted is False
            yield from client_a.critical_put(key, lock_ref, SizedValue(10))
            yield from client_a.release_lock(key, lock_ref)
            try:
                yield from client_b.release_lock(key, ref_b)
            except NotLockHolder:
                pass

    music.sim.run_until_complete(music.sim.process(workload()), limit=1e9)

    mscp = build_mscp(profile_name="lUs", seed=45)
    mscp_timings: Dict[str, List[float]] = {}
    mscp.replica_at("Ohio").op_recorder = (
        lambda op, ms: mscp_timings.setdefault(op, []).append(ms)
    )
    mscp_client = mscp.client("Ohio")

    def mscp_workload():
        for index in range(p["latency_samples"]):
            key = f"bk-{index}"
            lock_ref = yield from mscp_client.create_lock_ref(key)
            yield from mscp_client.acquire_lock_blocking(key, lock_ref)
            yield from mscp_client.critical_put(key, lock_ref, SizedValue(10))
            yield from mscp_client.release_lock(key, lock_ref)

    mscp.sim.run_until_complete(mscp.sim.process(mscp_workload()), limit=1e9)

    def mean(values: List[float]) -> float:
        return sum(values) / len(values)

    rows = [
        ["createLockRef (consensus)", mean(timings[("Ohio", "createLockRef")]), "219-230"],
        ["acquireLock peek (L, local)",
         mean(timings[("Oregon", "acquireLock.peek")]), "~0.67"],
        ["acquireLock grant (Q)", mean(timings[("Ohio", "acquireLock.grant")]), "~55"],
        ["criticalPut (Q, MUSIC)", mean(timings[("Ohio", "criticalPut")]), "~93"],
        ["criticalPut (P, MSCP)", mean(mscp_timings["criticalPut"]), "~270"],
        ["releaseLock (consensus)", mean(timings[("Ohio", "releaseLock")]), "219-230"],
    ]
    checks = [
        ("createLockRef ≈ 4 quorum RTTs (LWT)", 200 < rows[0][1] < 240),
        ("peek is local (<2ms)", rows[1][1] < 2.0),
        ("grant ≈ one quorum RTT", 45 < rows[2][1] < 70),
        ("MUSIC criticalPut ≈ one quorum RTT", 45 < rows[3][1] < 70),
        ("MSCP criticalPut ≈ 4 quorum RTTs", 200 < rows[4][1] < 300),
        ("releaseLock ≈ 4 quorum RTTs (LWT)", 200 < rows[5][1] < 240),
    ]
    text = render_table(
        "Fig 5(b) — MUSIC operation latency breakdown, lUs (ms)",
        ["operation", "measured (ms)", "paper (ms)"],
        rows,
    )
    return ExperimentResult("fig5b", "Operation breakdown", text,
                            {"rows": rows}, checks)


# ---------------------------------------------------------------------------
# Fig. 6 — Zookeeper comparison
# ---------------------------------------------------------------------------


def _zookeeper_throughput(batch: int, value_bytes: int, threads: int,
                          warmup_ms: float, window_ms: float, seed: int) -> float:
    sim = Simulator()
    network = Network(sim, PAPER_PROFILES["lUs"], streams=RandomStreams(seed))
    servers = build_zookeeper(sim, network, list(PAPER_PROFILES["lUs"].site_names))
    result = measure_throughput(
        sim,
        lambda i, rec, err: zookeeper_worker(servers, i, rec, err,
                                             batch=batch, value_bytes=value_bytes),
        threads=threads, warmup_ms=warmup_ms, window_ms=window_ms,
    )
    return result.per_second


def _music_like_throughput(builder, batch: int, value_bytes: int, threads: int,
                           warmup_ms: float, window_ms: float, seed: int) -> float:
    deployment = builder(profile_name="lUs", seed=seed)
    result = measure_throughput(
        deployment.sim,
        lambda i, rec, err: music_worker(deployment, i, rec, err,
                                         batch=batch, value_bytes=value_bytes),
        threads=threads, warmup_ms=warmup_ms, window_ms=window_ms,
    )
    return result.per_second


def fig6a() -> ExperimentResult:
    """Fig 6(a): write throughput vs critical-section batch size."""
    p = _params()
    batches = p["fig6_batches"]
    series: Dict[str, List[float]] = {"MUSIC": [], "MSCP": [], "Zookeeper": []}
    for batch in batches:
        warmup = max(p["thr_warmup_ms"], batch * 60.0 * 0.3 + 1_500.0)
        series["MUSIC"].append(_music_like_throughput(
            build_music, batch, 10, p["fig6_threads"], warmup, p["thr_window_ms"], 46))
        series["MSCP"].append(_music_like_throughput(
            build_mscp, batch, 10, p["fig6_threads"], warmup, p["thr_window_ms"], 46))
        series["Zookeeper"].append(_zookeeper_throughput(
            batch, 10, p["fig6_threads"], p["thr_warmup_ms"], p["thr_window_ms"], 46))
    checks = [
        ("MUSIC throughput grows with batch size (amortization)",
         series["MUSIC"][-1] > 1.3 * series["MUSIC"][0]),
        ("MUSIC ahead of Zookeeper at batch >= 10 (paper 1.4-2.3x)",
         all(m > z for m, z in zip(series["MUSIC"], series["Zookeeper"]))),
        ("the MUSIC/Zookeeper gap at batch >= 100 exceeds 1.2x",
         series["MUSIC"][-1] > 1.2 * series["Zookeeper"][-1]),
        ("MUSIC outperforms MSCP ~2-3.5x at large batches",
         series["MUSIC"][-1] > 1.7 * series["MSCP"][-1]),
    ]
    if 1 in batches:
        index = batches.index(1)
        checks.append(
            ("Zookeeper beats MUSIC at batch 1 (paper: ~3k vs 885)",
             series["Zookeeper"][index] > series["MUSIC"][index])
        )
    text = render_series(
        "Fig 6(a) — write throughput vs batch size, lUs, 10 B (writes/s)",
        "batch", series, batches,
    )
    return ExperimentResult("fig6a", "Throughput vs batch size", text,
                            {"series": series, "batches": batches}, checks)


def fig6b() -> ExperimentResult:
    """Fig 6(b): write throughput vs data size at batch 100."""
    p = _params()
    sizes = p["fig6_sizes"]
    series: Dict[str, List[float]] = {"MUSIC": [], "MSCP": [], "Zookeeper": []}
    for size_label in sizes:
        value_bytes = PAPER_DATA_SIZES[size_label]
        warmup = 4_000.0
        series["MUSIC"].append(_music_like_throughput(
            build_music, 100, value_bytes, p["fig6_threads"], warmup,
            p["thr_window_ms"], 47))
        series["MSCP"].append(_music_like_throughput(
            build_mscp, 100, value_bytes, p["fig6_threads"], warmup,
            p["thr_window_ms"], 47))
        series["Zookeeper"].append(_zookeeper_throughput(
            100, value_bytes, p["fig6_threads"], p["thr_warmup_ms"],
            p["thr_window_ms"], 47))
    first_ratio = series["MUSIC"][0] / series["Zookeeper"][0]
    last_ratio = series["MUSIC"][-1] / series["Zookeeper"][-1]
    checks = [
        ("MUSIC beats Zookeeper at batch 100 for all sizes (paper 2.45-17x)",
         all(m > z for m, z in zip(series["MUSIC"], series["Zookeeper"]))),
        ("the gap widens with data size (leader queueing)",
         last_ratio > 2.0 * first_ratio),
        ("at 256KB the gap is large (paper ~17x; shape: >5x)",
         last_ratio > 5.0),
    ]
    text = render_series(
        "Fig 6(b) — write throughput vs data size, lUs, batch 100 (writes/s)",
        "data size", series, sizes,
    )
    return ExperimentResult("fig6b", "Throughput vs data size", text,
                            {"series": series, "sizes": sizes}, checks)


# ---------------------------------------------------------------------------
# Fig. 7 — CockroachDB comparison
# ---------------------------------------------------------------------------


def _cockroach_cs_latency(batch: int, value_bytes: int, samples: int, seed: int) -> float:
    sim = Simulator()
    network = Network(sim, PAPER_PROFILES["lUs"], streams=RandomStreams(seed))
    nodes = build_cockroach(sim, network, list(PAPER_PROFILES["lUs"].site_names))
    result = measure_latency(
        sim, cockroach_cs_operation(nodes, batch=batch, value_bytes=value_bytes),
        samples=samples,
    )
    return result.mean


def _music_cs_latency(batch: int, value_bytes: int, samples: int, seed: int) -> float:
    deployment = build_music(profile_name="lUs", seed=seed)
    result = measure_latency(
        deployment.sim,
        music_cs_operation(deployment, batch=batch, value_bytes=value_bytes),
        samples=samples,
    )
    return result.mean


def fig7a() -> ExperimentResult:
    """Fig 7(a): critical-section latency vs batch size, MUSIC vs Cdb."""
    p = _params()
    batches = p["fig7_batches"]
    series: Dict[str, List[float]] = {"MUSIC": [], "CockroachDB": []}
    for batch in batches:
        series["MUSIC"].append(_music_cs_latency(batch, 10, p["fig7_samples"], 48))
        series["CockroachDB"].append(
            _cockroach_cs_latency(batch, 10, p["fig7_samples"], 48))
    checks = []
    for index, batch in enumerate(batches):
        ratio = series["CockroachDB"][index] / series["MUSIC"][index]
        checks.append(
            (f"batch {batch}: Cdb/MUSIC latency ratio {ratio:.1f} in ~2-5x "
             "(paper 2-4x)", 1.6 < ratio < 5.5)
        )
    text = render_series(
        "Fig 7(a) — mean critical-section latency vs batch size, lUs (ms)",
        "batch", series, batches,
    )
    return ExperimentResult("fig7a", "CS latency vs batch (Cdb)", text,
                            {"series": series, "batches": batches}, checks)


def fig7b() -> ExperimentResult:
    """Fig 7(b): critical-section latency vs data size at batch 100."""
    p = _params()
    sizes = p["fig7_sizes"]
    batch = 100
    series: Dict[str, List[float]] = {"MUSIC": [], "CockroachDB": []}
    for size_label in sizes:
        value_bytes = PAPER_DATA_SIZES[size_label]
        series["MUSIC"].append(_music_cs_latency(batch, value_bytes, 2, 49))
        series["CockroachDB"].append(
            _cockroach_cs_latency(batch, value_bytes, 2, 49))
    checks = []
    for index, size_label in enumerate(sizes):
        ratio = series["CockroachDB"][index] / series["MUSIC"][index]
        checks.append(
            (f"{size_label}: Cdb/MUSIC ratio {ratio:.1f} in ~2-5x (paper 2-4x)",
             1.6 < ratio < 5.5)
        )
    text = render_series(
        "Fig 7(b) — mean CS latency vs data size, batch 100, lUs (ms)",
        "data size", series, sizes,
    )
    return ExperimentResult("fig7b", "CS latency vs data size (Cdb)", text,
                            {"series": series, "sizes": sizes}, checks)


# ---------------------------------------------------------------------------
# Fig. 8 — latency CDFs
# ---------------------------------------------------------------------------


def fig8() -> ExperimentResult:
    """Fig 8: latency CDFs of MUSIC vs MSCP on l1 and lUs.

    Unlike the mean-latency runs, CDFs need per-operation variation, so
    these deployments enable the network's jitter model (a NetEm-style
    uniform inflation of each one-way delay).
    """
    p = _params()
    cdfs: Dict[str, List] = {}
    medians: Dict[str, float] = {}
    for profile_name in ("l1", "lUs"):
        for label, builder in (("MUSIC", build_music), ("MSCP", build_mscp)):
            sim = Simulator()
            network = Network(
                sim, PAPER_PROFILES[profile_name],
                streams=RandomStreams(50), jitter_fraction=0.25,
            )
            deployment = builder(profile_name=profile_name, seed=50,
                                 sim=sim, network=network)
            result = measure_latency(
                deployment.sim, music_cs_operation(deployment, batch=1),
                samples=p["cdf_samples"],
            )
            name = f"{label}-{profile_name}"
            cdfs[name] = cdf_points(result.latencies_ms)
            medians[name] = summarize(result.latencies_ms).p50
    lus_ratio = medians["MUSIC-lUs"] / medians["MSCP-lUs"]
    checks = [
        ("lUs: MUSIC ~30% below MSCP at the median "
         f"(ratio {lus_ratio:.2f}, paper ~0.70)", 0.55 < lus_ratio < 0.85),
        ("l1: both well under one WAN RTT of the lUs profile",
         max(medians["MUSIC-l1"], medians["MSCP-l1"]) < 53.0),
        ("MUSIC never slower than MSCP at the median",
         medians["MUSIC-lUs"] <= medians["MSCP-lUs"]
         and medians["MUSIC-l1"] <= medians["MSCP-l1"]),
    ]
    text = render_cdf("Fig 8 — critical-section latency CDFs (ms)", cdfs)
    return ExperimentResult("fig8", "Latency CDFs", text,
                            {"medians": medians}, checks)


# ---------------------------------------------------------------------------
# Fig. 9 — YCSB
# ---------------------------------------------------------------------------


def _ycsb_run(builder, workload, p, seed: int) -> Dict[str, float]:
    deployment = builder(profile_name="lUs", seed=seed)
    sim = deployment.sim
    streams = RandomStreams(seed)
    stats = {"ops": 0, "collisions": 0, "latency_sum": 0.0}
    warmup_end = p["ycsb_warmup_ms"]
    window_end = warmup_end + p["ycsb_window_ms"]
    sites = list(deployment.profile.site_names)

    def worker(thread_index: int):
        client = deployment.client(sites[thread_index % len(sites)],
                                   f"ycsb-{thread_index}")
        # A per-worker stream: both systems' workers then draw identical
        # key/op sequences, so runs differ only in system behaviour, not
        # in which worker happened to hit the hot key.
        rng = streams.stream(f"ycsb:{workload.name}:{thread_index}")
        zipf = ZipfianGenerator(p["ycsb_keys"], rng)
        while True:
            key = f"ycsb-{zipf.next()}"
            is_read = rng.random() < workload.read_fraction
            start = sim.now
            contended = False
            try:
                lock_ref = yield from client.create_lock_ref(key)
                granted = yield from client.acquire_lock(key, lock_ref)
                if not granted:
                    contended = True
                    granted = yield from client.acquire_lock_blocking(key, lock_ref)
                if is_read:
                    yield from client.critical_get(key, lock_ref)
                else:
                    yield from client.critical_put(key, lock_ref, SizedValue(10))
                yield from client.release_lock(key, lock_ref)
            except ReproError:
                continue
            if warmup_end <= sim.now < window_end:
                stats["ops"] += 1
                stats["latency_sum"] += sim.now - start
                if contended:
                    stats["collisions"] += 1

    for index in range(p["ycsb_threads"]):
        sim.process(worker(index), name=f"ycsb-{index}")
    sim.run(until=window_end, strict=False)
    ops = max(stats["ops"], 1)
    return {
        "throughput": stats["ops"] / (p["ycsb_window_ms"] / 1000.0),
        "mean_latency": stats["latency_sum"] / ops,
        "collision_pct": 100.0 * stats["collisions"] / ops,
    }


def _ycsb_mean(builder, workload, p) -> Dict[str, float]:
    """Average a mix over several seeds: contended-lock queueing on hot
    Zipfian keys makes single runs noisy."""
    runs = [_ycsb_run(builder, workload, p, seed=seed) for seed in p["ycsb_seeds"]]
    return {
        metric: sum(run[metric] for run in runs) / len(runs)
        for metric in runs[0]
    }


def fig9() -> ExperimentResult:
    """Fig 9: YCSB R / UR / U mixes, MUSIC vs MSCP."""
    p = _params()
    rows = []
    checks = []
    collision_pcts = []
    for workload in PAPER_YCSB_WORKLOADS:
        music = _ycsb_mean(build_music, workload, p)
        mscp = _ycsb_mean(build_mscp, workload, p)
        rows.append([
            workload.name,
            music["throughput"], mscp["throughput"],
            music["mean_latency"], mscp["mean_latency"],
            music["collision_pct"],
        ])
        collision_pcts.append(music["collision_pct"])
        if workload.read_fraction < 1.0:
            # Throughput at quick scale carries hot-key queueing noise
            # (EXPERIMENTS.md deviation D3); the sturdier per-op signal
            # is the latency check below.
            checks.append(
                (f"{workload.name}: MUSIC throughput not below MSCP "
                 "(paper +6-20%; quick-scale tolerance 10%)",
                 music["throughput"] >= 0.90 * mscp["throughput"])
            )
            checks.append(
                (f"{workload.name}: MUSIC latency not above MSCP "
                 "(paper -0-20%; quick-scale queueing noise tolerance 15%)",
                 music["mean_latency"] <= 1.15 * mscp["mean_latency"])
            )
        else:
            checks.append(
                (f"{workload.name}: read-only mix comparable across systems",
                 abs(music["throughput"] - mscp["throughput"])
                 < 0.25 * max(music["throughput"], mscp["throughput"]))
            )
    checks.append(
        ("lock collisions occur but stay modest (paper ~5.5%)",
         0.0 < max(collision_pcts) < 35.0)
    )
    text = render_table(
        "Fig 9 — YCSB on lUs (Zipfian keys)",
        ["mix", "MUSIC op/s", "MSCP op/s", "MUSIC ms", "MSCP ms", "collisions %"],
        rows,
    )
    return ExperimentResult("fig9", "YCSB workloads", text, {"rows": rows}, checks)


# ---------------------------------------------------------------------------
# X-B4 — the analytic cost model
# ---------------------------------------------------------------------------


def cost_model_xb4() -> ExperimentResult:
    """X-B4: 2xC vs 2C+(x+1)Q, plus our measured per-op costs."""
    generous = CostModel.generous()
    measured = CostModel(consensus=219.0, quorum=54.5)  # our Fig 5b numbers
    rows = []
    for updates in (1, 3, 10, 100, 1000):
        rows.append([
            updates,
            generous.music_critical_section(updates),
            generous.per_update_transactions(updates),
            round(generous.speedup(updates), 2),
            round(measured.speedup(updates), 2),
        ])
    checks = [
        ("speedup approaches ~2x for large x (generous C=Q)",
         1.8 < generous.speedup(1000) < 2.0),
        ("with measured C/Q, speedup is >2x (Fig 7's 2-4x regime)",
         measured.speedup(100) > 2.0),
        ("single-update critical sections favour per-txn designs",
         generous.speedup(1) < 1.0),
    ]
    text = render_table(
        "X-B4 — cost model: per-update txns (2xC) vs MUSIC (2C+(x+1)Q)",
        ["updates x", "MUSIC cost (C=Q=1)", "txn cost", "speedup (C=Q)",
         "speedup (measured C,Q)"],
        rows,
    )
    return ExperimentResult("xb4", "Cost model", text, {"rows": rows}, checks)


# ---------------------------------------------------------------------------
# Ablations (DESIGN.md §5)
# ---------------------------------------------------------------------------


def ablation_peek() -> ExperimentResult:
    """Local vs quorum polling in acquireLock under contention."""
    from ..core import MusicConfig

    results = {}
    hold_ms = 3_000.0
    for label, peek_quorum in (("local peek", False), ("quorum peek", True)):
        config = MusicConfig(peek_quorum=peek_quorum)
        deployment = build_music(profile_name="lUs", music_config=config, seed=52)
        sim = deployment.sim
        network = deployment.network
        # Count reads that cross the WAN during a *pure polling window*:
        # one client holds the lock while five wait, so the only store
        # traffic in the window is the waiters' acquireLock polling.
        counting = {"on": False, "wan": 0, "polls": 0}

        def tap(msg, state=counting, net=network):
            if not state["on"] or msg.kind != "store_read":
                return
            state["polls"] += 1
            if net.site_of(msg.src) != net.site_of(msg.dst):
                state["wan"] += 1

        network.add_tap(tap)
        holder = deployment.client("Ohio")
        waiters = [deployment.client(site)
                   for site in deployment.profile.site_names for _ in range(2)]

        def scenario():
            cs = yield from holder.critical_section("hot")
            refs = []
            for waiter in waiters:
                ref = yield from waiter.create_lock_ref("hot")
                refs.append(ref)
            counting["on"] = True
            polls = [sim.process(w.acquire_lock_blocking("hot", r, timeout_ms=hold_ms))
                     for w, r in zip(waiters, refs)]
            yield sim.timeout(hold_ms)
            counting["on"] = False
            yield from cs.exit()
            for proc, waiter, ref in zip(polls, waiters, refs):
                yield proc
                yield from waiter.release_lock("hot", ref)

        sim.run_until_complete(sim.process(scenario()), limit=1e8)
        results[label] = {"wan_reads": counting["wan"], "polls": counting["polls"]}

    local_wan = results["local peek"]["wan_reads"]
    quorum_wan = results["quorum peek"]["wan_reads"]
    checks = [
        ("local polling never crosses the WAN", local_wan == 0),
        ("quorum polling pays 2 WAN reads per poll", quorum_wan > 10),
    ]
    rows = [[label, r["polls"], r["wan_reads"]] for label, r in results.items()]
    text = render_table(
        "Ablation — acquireLock polling for one held lock, 6 waiters, "
        f"{hold_ms:.0f} ms window",
        ["variant", "poll store_reads", "of which WAN-crossing"],
        rows,
    )
    return ExperimentResult("ablation_peek", "Peek ablation", text,
                            {"results": results}, checks)


def ablation_sync() -> ExperimentResult:
    """Lazy (synchFlag-gated) vs always-sync on lock acquisition."""
    from ..core import MusicConfig

    latencies = {}
    for label, always in (("lazy sync (MUSIC)", False), ("always sync", True)):
        config = MusicConfig(always_sync=always)
        deployment = build_music(profile_name="lUs", music_config=config, seed=53)
        result = measure_latency(
            deployment.sim, music_cs_operation(deployment, batch=1), samples=10
        )
        latencies[label] = result.mean
    overhead = latencies["always sync"] / latencies["lazy sync (MUSIC)"]
    checks = [
        ("always-sync adds measurable cost to every CS entry", overhead > 1.1),
    ]
    text = render_table(
        "Ablation — synchFlag laziness (batch-1 CS latency, lUs)",
        ["variant", "mean CS latency (ms)"],
        [[label, value] for label, value in latencies.items()],
    )
    return ExperimentResult("ablation_sync", "Sync ablation", text,
                            {"latencies": latencies}, checks)


def ext_hierarchical() -> ExperimentResult:
    """Extension: hierarchical MUSIC (the paper's future work) vs flat
    MUSIC under site-local bursts of contention on one hot key."""
    from ..core.hierarchical import HierarchicalClient

    burst = 12  # colocated critical sections per site

    def measure(hierarchical: bool) -> Dict[str, float]:
        deployment = build_music(profile_name="lUs", seed=54)
        sim = deployment.sim
        lwt_count = {"n": 0}
        deployment.network.add_tap(
            lambda msg: lwt_count.__setitem__(
                "n", lwt_count["n"] + (1 if msg.kind == "paxos_prepare" else 0))
        )
        hclients = {
            site: HierarchicalClient(deployment.replica_at(site), idle_release_ms=100.0)
            for site in deployment.profile.site_names
        }

        def worker(site, index):
            if hierarchical:
                client = hclients[site]
                section = yield from client.critical_section("hot")
                value = yield from section.get()
                yield from section.put((value or 0) + 1)
                yield from section.exit()
            else:
                client = deployment.client(site, f"flat-{site}-{index}")
                cs = yield from client.critical_section("hot", timeout_ms=1e8)
                value = yield from cs.get()
                yield from cs.put((value or 0) + 1)
                yield from cs.exit()

        start = sim.now
        procs = [sim.process(worker(site, index))
                 for site in deployment.profile.site_names
                 for index in range(burst)]
        for proc in procs:
            sim.run_until_complete(proc, limit=1e9)
        makespan = sim.now - start

        def check():
            client = deployment.client("Ohio")
            cs = yield from client.critical_section("hot", timeout_ms=1e8)
            value = yield from cs.get()
            yield from cs.exit()
            return value

        final = sim.run_until_complete(sim.process(check()), limit=1e9)
        return {"makespan_ms": makespan, "lwt_prepares": lwt_count["n"],
                "final": final}

    flat = measure(hierarchical=False)
    tiered = measure(hierarchical=True)
    total = burst * 3
    checks = [
        ("both variants apply every increment (no lost updates)",
         flat["final"] == total and tiered["final"] == total),
        ("hierarchical completes the bursts faster",
         tiered["makespan_ms"] < 0.7 * flat["makespan_ms"]),
        ("hierarchical issues far fewer WAN consensus operations",
         tiered["lwt_prepares"] < 0.5 * flat["lwt_prepares"]),
    ]
    rows = [
        ["flat MUSIC", flat["makespan_ms"], flat["lwt_prepares"], flat["final"]],
        ["hierarchical", tiered["makespan_ms"], tiered["lwt_prepares"], tiered["final"]],
    ]
    text = render_table(
        f"Extension — hierarchical MUSIC: {burst} colocated CSs per site on one key",
        ["variant", "makespan (ms)", "paxos prepares", "final counter"],
        rows,
    )
    return ExperimentResult("ext_hierarchical", "Hierarchical MUSIC", text,
                            {"flat": flat, "hierarchical": tiered}, checks)


# ---------------------------------------------------------------------------
# Storage durability axis
# ---------------------------------------------------------------------------


def storage_durability() -> ExperimentResult:
    """Durability axis: what each commit-log sync policy costs on the
    criticalPut path, and what crash recovery costs in replay time.

    A 1 ms simulated fsync makes the policy differences visible:
    ``always`` pays it inside every journaled replica step, ``periodic``
    moves it off the write path (a 50 ms group sync), ``off`` never
    syncs — and correspondingly has nothing to replay after a crash.
    Writes a machine-readable baseline to
    ``benchmarks/results/BENCH_storage.json``.
    """
    from ..storage import StorageEngineConfig
    from ..store import StoreConfig

    p = _params()
    fsync_ms = 1.0
    modes = [
        ("fsync-always", dict(wal_sync="always", fsync_latency_ms=fsync_ms)),
        ("periodic-50ms", dict(wal_sync="periodic", wal_sync_interval_ms=50.0,
                               fsync_latency_ms=fsync_ms)),
        ("volatile", dict(wal_sync="off")),
    ]
    rows = []
    for mode_name, storage_kw in modes:
        store_config = StoreConfig(storage=StorageEngineConfig(**storage_kw))
        deployment = build_music(seed=404, store_config=store_config)
        sim = deployment.sim
        latencies: List[float] = []

        def workload():
            client = deployment.client("Ohio")
            cs = yield from client.critical_section("bench", timeout_ms=60_000.0)
            for index in range(p["latency_samples"]):
                start = sim.now
                yield from cs.put(f"value-{index}" + "x" * 256)
                latencies.append(sim.now - start)
            yield from cs.exit()

        sim.run_until_complete(sim.process(workload()), limit=1e9)
        sim.run(until=sim.now + 200.0)  # let background syncs catch up
        victim = deployment.store.by_id["store-0-0"]
        victim.crash()
        victim.recover()
        sim.run(until=sim.now + 1_000.0)
        stats = victim.engine.stats
        summary = summarize(latencies)
        rows.append({
            "mode": mode_name,
            "criticalPut_mean_ms": round(summary.mean, 4),
            "criticalPut_p95_ms": round(summary.p95, 4),
            "replay_ms": round(stats["last_replay_ms"], 4),
            "replay_bytes": stats["last_replay_bytes"],
            "lost_records": stats["lost_records"],
        })

    by_mode = {row["mode"]: row for row in rows}
    for row in rows:
        row["delta_vs_volatile_ms"] = round(
            row["criticalPut_mean_ms"] - by_mode["volatile"]["criticalPut_mean_ms"], 4
        )
    always, periodic, volatile = (
        by_mode["fsync-always"], by_mode["periodic-50ms"], by_mode["volatile"]
    )
    checks = [
        ("fsync-always charges the fsync on the criticalPut path "
         f"(delta {always['delta_vs_volatile_ms']:.2f} ms >= {fsync_ms:.0f} ms)",
         always["delta_vs_volatile_ms"] >= fsync_ms),
        ("periodic sync keeps the write path nearly free "
         f"(delta {periodic['delta_vs_volatile_ms']:.2f} ms < {fsync_ms:.0f} ms)",
         abs(periodic["delta_vs_volatile_ms"]) < fsync_ms),
        ("durable modes replay a non-empty log after the crash",
         always["replay_ms"] > 0 and always["replay_bytes"] > 0
         and periodic["replay_bytes"] > 0),
        ("the volatile mode has nothing to replay (all records lost)",
         volatile["replay_bytes"] == 0 and volatile["lost_records"] > 0),
    ]
    text = render_table(
        f"Storage durability — criticalPut latency and crash recovery "
        f"(lUs, {fsync_ms:.0f} ms fsync)",
        ["mode", "criticalPut mean (ms)", "p95 (ms)", "delta vs volatile (ms)",
         "replay (ms)", "replay bytes", "lost records"],
        [[row["mode"], row["criticalPut_mean_ms"], row["criticalPut_p95_ms"],
          row["delta_vs_volatile_ms"], row["replay_ms"], row["replay_bytes"],
          row["lost_records"]] for row in rows],
    )
    baseline = {"scale": scale_name(), "fsync_latency_ms": fsync_ms, "modes": rows}
    write_bench_json(
        "storage",
        config={"scale": scale_name(), "fsync_latency_ms": fsync_ms},
        seed=404,
        metrics={"modes": rows},
    )
    return ExperimentResult("storage_durability", "Durability modes", text,
                            {"baseline": baseline}, checks)


# ---------------------------------------------------------------------------
# Elastic-scaling axis
# ---------------------------------------------------------------------------


def elastic_scaling() -> ExperimentResult:
    """Elastic axis: Fig 4(b)'s 3->9 scaling as *one continuous run*.

    Fig 4(b) measures three separately-built static clusters; this
    experiment grows a single live lUs deployment from 3 to 9 store
    nodes with the topology plane — gossip, range streaming, dual
    writes, lock-row handover — while critical-section traffic runs the
    whole time, and crashes an original node (real state loss, commit-
    log replay) in the middle of a partition stream.  Claims: the
    migrated cluster reaches static-cluster-like scaling, no
    acknowledged write is lost, and the crash really fired.  Writes a
    machine-readable baseline to ``benchmarks/results/BENCH_elastic.json``.
    """
    from ..core.replica import VALUE_ROW
    from ..store import Consistency

    p = _params()
    sizes = p["fig4b_sizes"]
    threads = p["elastic_threads"]
    keys_per_worker = p["elastic_keys"]
    deployment = build_music(
        profile_name="lUs", seed=431, elastic=True, cores=p["elastic_cores"],
    )
    sim = deployment.sim
    faults = deployment.fault_schedule()
    faults.crash_mid_bootstrap("store-1-0", after_streams=3, down_ms=1_000.0)
    faults.arm()

    sites = list(deployment.profile.site_names)
    acked: Dict[str, int] = {}
    window = {"on": False, "count": 0}
    stop = {"flag": False}

    def worker(thread_index: int):
        client = deployment.client(
            sites[thread_index % len(sites)], f"es-{thread_index}"
        )
        index = 0
        while not stop["flag"]:
            key = f"es-{thread_index}-{index % keys_per_worker}"
            index += 1
            try:
                cs = yield from client.critical_section(key, timeout_ms=30_000.0)
                value = (yield from cs.get()) or 0
                yield from cs.put(value + 1)
                acked[key] = max(acked.get(key, 0), value + 1)
                yield from cs.exit()
                if window["on"]:
                    window["count"] += 1
            except ReproError:
                yield sim.timeout(200.0)

    throughput: Dict[int, float] = {}

    def measure_window():
        yield sim.timeout(p["thr_warmup_ms"])
        window["count"] = 0
        window["on"] = True
        yield sim.timeout(p["thr_window_ms"])
        window["on"] = False
        size = len(deployment.store.ring.nodes)
        throughput[size] = window["count"] / (p["thr_window_ms"] / 1000.0)

    def driver():
        yield from measure_window()  # the static 3-node baseline
        current = sizes[0]
        for target in sizes[1:]:
            for slot in range(current // 3, target // 3):
                for site_index, site in enumerate(sites):
                    yield deployment.topology.bootstrap(
                        f"store-{site_index}-{slot}", site
                    )
            current = target
            yield from measure_window()
        stop["flag"] = True

    workers = [sim.process(worker(i), name=f"es-{i}") for i in range(threads)]
    done = sim.process(driver())
    sim.run_until_complete(done, limit=1e9)
    for proc in workers:
        sim.run_until_complete(proc, limit=1e9)

    # Every write a worker saw acknowledged must read back at QUORUM
    # (or have been superseded by a later locked increment — values
    # only grow, so >= is the lossless condition).
    coord = deployment.store.coordinator_for(deployment.topology.node)
    lost: List[Tuple[str, int, Any]] = []

    def verify():
        for key, high in sorted(acked.items()):
            rows = yield from coord.get(
                deployment.config.data_table, key, consistency=Consistency.QUORUM
            )
            value = rows[VALUE_ROW].visible_values().get("value") if rows else None
            if value is None or value < high:
                lost.append((key, high, value))

    sim.run_until_complete(sim.process(verify()), limit=1e9)

    crash_labels = [label for _when, label in faults.log]
    crashed = any(label.startswith("crash mid-bootstrap") for label in crash_labels)
    recovered = "recover store-1-0" in crash_labels
    growth = throughput[sizes[-1]] / max(throughput[sizes[0]], 1e-9)
    checks = [
        (f"throughput grows {sizes[0]} -> {sizes[-1]} nodes under live "
         f"migration (x{growth:.2f} > 1.3)", growth > 1.3),
        (f"zero acknowledged writes lost across the joins + crash "
         f"({len(acked)} keys checked)", not lost),
        ("the mid-stream crash fired and the node replayed its log",
         crashed and recovered
         and deployment.store.by_id["store-1-0"].engine.stats["replays"] == 1),
        ("ring converged: 9 nodes, no transition left open",
         len(deployment.store.ring.nodes) == sizes[-1]
         and not deployment.store.ring.in_transition),
    ]
    baseline = {
        "scale": scale_name(),
        "sizes": sizes,
        "threads": threads,
        "throughput_per_size": {str(k): round(v, 2) for k, v in throughput.items()},
        "growth_ratio": round(growth, 3),
        "fault_log": crash_labels,
        "acked_keys": len(acked),
        "lost_acked_writes": len(lost),
    }
    write_bench_json(
        "elastic",
        config={"scale": scale_name(), "sizes": sizes, "threads": threads},
        seed=431,
        metrics={
            "throughput_per_size": baseline["throughput_per_size"],
            "growth_ratio": baseline["growth_ratio"],
            "fault_log": crash_labels,
            "acked_keys": len(acked),
            "lost_acked_writes": len(lost),
        },
    )
    text = render_series(
        "Elastic scaling — one live 3->9 growth under CS traffic (op/s)",
        "nodes", {"MUSIC (live growth)": [throughput[s] for s in sizes]}, sizes,
    )
    return ExperimentResult("elastic_scaling", "Live elastic scaling", text,
                            {"baseline": baseline}, checks)


# ---------------------------------------------------------------------------
# Lock-contention axis (the hot path of DESIGN.md §9)
# ---------------------------------------------------------------------------


def lock_contention() -> ExperimentResult:
    """Contention axis: many clients hammering one hot key, with the
    contention hot path (LWT group commit + synchFlag fast path + push
    grants) off vs on.

    Measures end-to-end critical sections per second and per-CS latency
    (createLockRef through releaseLock).  Both runs must agree on the
    final counter value — every critical section increments the hot key
    exactly once — so the speedup cannot come from dropped exclusivity.
    Writes a machine-readable baseline to
    ``benchmarks/results/BENCH_contention.json``.
    """
    p = _params()
    n_clients = p["contention_clients"]
    rounds = p["contention_rounds"]

    def measure(fast: bool) -> Dict[str, Any]:
        deployment = build_music(seed=606, fast_locks=fast)
        sim = deployment.sim
        sites = deployment.profile.site_names
        clients = [
            deployment.client(sites[index % len(sites)])
            for index in range(n_clients)
        ]
        latencies: List[float] = []

        def worker(client):
            for _ in range(rounds):
                started = sim.now
                cs = yield from client.critical_section("hot", timeout_ms=1e9)
                value = yield from cs.get()
                yield from cs.put((value or 0) + 1)
                yield from cs.exit()
                latencies.append(sim.now - started)

        procs = [sim.process(worker(client)) for client in clients]
        for proc in procs:
            sim.run_until_complete(proc, limit=1e10)
        makespan_ms = sim.now

        final: Dict[str, Any] = {}

        def read_back():
            cs = yield from clients[0].critical_section("hot", timeout_ms=1e9)
            final["value"] = yield from cs.get()
            yield from cs.exit()

        sim.run_until_complete(sim.process(read_back()), limit=1e10)
        summary = summarize(latencies)
        return {
            "mode": "hot-path-on" if fast else "hot-path-off",
            "critical_sections": n_clients * rounds,
            "final_value": final["value"],
            "makespan_ms": round(makespan_ms, 3),
            "cs_per_sec": round(n_clients * rounds / makespan_ms * 1000.0, 4),
            "cs_latency_mean_ms": round(summary.mean, 3),
            "cs_latency_p50_ms": round(summary.p50, 3),
            "cs_latency_p99_ms": round(summary.p99, 3),
        }

    off = measure(False)
    on = measure(True)
    speedup = on["cs_per_sec"] / off["cs_per_sec"]
    expected = n_clients * rounds
    checks = [
        (
            "both modes serialized every increment "
            f"(final value {off['final_value']}/{on['final_value']} == {expected})",
            off["final_value"] == expected and on["final_value"] == expected,
        ),
        (
            f"hot path sustains >= 2x critical sections/sec ({speedup:.2f}x)",
            speedup >= 2.0,
        ),
        (
            "hot path lowers p99 CS latency "
            f"({on['cs_latency_p99_ms']:.0f} < {off['cs_latency_p99_ms']:.0f} ms)",
            on["cs_latency_p99_ms"] < off["cs_latency_p99_ms"],
        ),
    ]
    baseline = {
        "scale": scale_name(),
        "clients": n_clients,
        "rounds_per_client": rounds,
        "hot_keys": 1,
        "speedup_cs_per_sec": round(speedup, 3),
        "modes": [off, on],
    }
    write_bench_json(
        "contention",
        config={
            "scale": scale_name(), "clients": n_clients,
            "rounds_per_client": rounds, "hot_keys": 1,
        },
        seed=606,
        metrics={"speedup_cs_per_sec": round(speedup, 3), "modes": [off, on]},
    )
    text = render_table(
        f"Lock contention — {n_clients} clients, 1 hot key (lUs)",
        ["mode", "CS/sec", "mean (ms)", "p50 (ms)", "p99 (ms)", "makespan (ms)"],
        [[row["mode"], row["cs_per_sec"], row["cs_latency_mean_ms"],
          row["cs_latency_p50_ms"], row["cs_latency_p99_ms"], row["makespan_ms"]]
         for row in (off, on)],
    )
    return ExperimentResult("lock_contention", "Contention hot path", text,
                            {"baseline": baseline}, checks)


# ---------------------------------------------------------------------------
def read_scaleout() -> ExperimentResult:
    """Read scale-out axis (DESIGN.md §10): leaseholder local reads off
    vs on, ownership-style workload on 9 store nodes.

    One long-lived lockholder per key (the portal ownership pattern)
    runs a YCSB-B read-heavy mix inside its critical section; reads go
    through ``critical_get`` so the baseline pays a WAN quorum round per
    read while the lease tier serves from the local mirror inside the
    audited ECF window.  Both modes run with the runtime auditor
    attached.  Writes ``benchmarks/results/BENCH_leases.json``.
    """
    from ..workloads import READ_HEAVY_YCSB_WORKLOADS

    p = _params()
    n_workers = p["leases_workers"]
    think_ms = p["leases_think_ms"]
    warmup_ms = p["leases_warmup_ms"]
    window_ms = p["leases_window_ms"]
    end_ms = warmup_ms + window_ms
    mix = next(w for w in READ_HEAVY_YCSB_WORKLOADS if w.name == "B")

    def measure(leases: bool) -> Dict[str, Any]:
        deployment = build_music(
            profile_name="lUs", nodes_per_site=3, seed=808,
            read_leases=leases, audit=True,
        )
        sim = deployment.sim
        sites = deployment.profile.site_names
        read_lat: List[float] = []
        counts = {"reads": 0, "writes": 0}

        def worker(index: int):
            client = deployment.client(sites[index % len(sites)])
            key = f"owner-{index}"
            rng = deployment.streams.stream(f"leases-worker-{index}")
            cs = yield from client.critical_section(key, timeout_ms=1e9)
            seq = 0
            yield from cs.put({"seq": seq})
            while sim.now < end_ms:
                if rng.random() < mix.read_fraction:
                    started = sim.now
                    yield from cs.get()
                    if started >= warmup_ms and sim.now <= end_ms:
                        read_lat.append(sim.now - started)
                        counts["reads"] += 1
                else:
                    seq += 1
                    started = sim.now
                    yield from cs.put({"seq": seq})
                    if started >= warmup_ms and sim.now <= end_ms:
                        counts["writes"] += 1
                yield sim.timeout(think_ms)
            yield from cs.exit()

        procs = [sim.process(worker(index)) for index in range(n_workers)]
        for proc in procs:
            sim.run_until_complete(proc, limit=1e10)
        summary = summarize(read_lat)
        hits = sum(r.counters["lease_hits"] for r in deployment.replicas)
        misses = sum(r.counters["lease_misses"] for r in deployment.replicas)
        local = hits / (hits + misses) if hits + misses else 0.0
        auditor = deployment.auditor
        return {
            "mode": "read-leases-on" if leases else "quorum-baseline",
            "store_nodes": 3 * len(sites),
            "reads": counts["reads"],
            "writes": counts["writes"],
            "reads_per_sec": round(counts["reads"] / window_ms * 1000.0, 2),
            "read_p50_ms": round(summary.p50, 4),
            "read_p99_ms": round(summary.p99, 4),
            "local_read_hit_rate": round(local, 4),
            "audit_clean": auditor.clean,
            "audit_events": len(auditor.events),
        }

    off = measure(False)
    on = measure(True)
    thr_ratio = on["reads_per_sec"] / off["reads_per_sec"] if off["reads_per_sec"] else 0.0
    checks = [
        (
            f"leaseholder reads sustain >= 3x read throughput ({thr_ratio:.2f}x)",
            thr_ratio >= 3.0,
        ),
        (
            "leaseholder reads cut read p99 by >= 2x "
            f"({on['read_p99_ms']:.2f} vs {off['read_p99_ms']:.2f} ms)",
            on["read_p99_ms"] * 2.0 <= off["read_p99_ms"],
        ),
        (
            f"local-read hit rate >= 80% ({on['local_read_hit_rate']:.1%})",
            on["local_read_hit_rate"] >= 0.80,
        ),
        (
            "ECF audit clean in both modes (incl. LeaseSafety/MonotonicReads)",
            off["audit_clean"] and on["audit_clean"],
        ),
    ]
    baseline = {
        "scale": scale_name(),
        "workers": n_workers,
        "mix": {"name": mix.name, "read_fraction": mix.read_fraction},
        "think_ms": think_ms,
        "window_ms": window_ms,
        "read_throughput_ratio": round(thr_ratio, 3),
        "modes": [off, on],
    }
    write_bench_json(
        "leases",
        config={
            "scale": scale_name(), "workers": n_workers,
            "mix": {"name": mix.name, "read_fraction": mix.read_fraction},
            "think_ms": think_ms, "window_ms": window_ms,
        },
        seed=808,
        metrics={"read_throughput_ratio": round(thr_ratio, 3), "modes": [off, on]},
    )
    text = render_table(
        f"Read scale-out — {n_workers} owners, YCSB-{mix.name} "
        f"({mix.read_fraction:.0%} reads), 9 store nodes (lUs)",
        ["mode", "reads/sec", "p50 (ms)", "p99 (ms)", "local hits", "audit"],
        [[row["mode"], row["reads_per_sec"], row["read_p50_ms"],
          row["read_p99_ms"], f"{row['local_read_hit_rate']:.1%}",
          "clean" if row["audit_clean"] else "VIOLATIONS"]
         for row in (off, on)],
    )
    return ExperimentResult("read_scaleout", "Read scale-out leases", text,
                            {"baseline": baseline}, checks)


# ---------------------------------------------------------------------------
# Live localhost-cluster axis
# ---------------------------------------------------------------------------


def live_localcluster() -> ExperimentResult:
    """Live-mode axis: the MUSIC protocol over real asyncio sockets.

    Boots a 3-node localhost cluster (one OS process per node via
    ``python -m repro.live node``), drives the counter CS workload from
    this process over real TCP, SIGTERMs the nodes, then merges every
    node's audit slice and replays the full ECF checkers offline.

    Unlike the DES axes this measures *wall-clock* throughput and
    latency — numbers that move with the host machine — so the shape
    checks pin correctness (>= 200 critical sections, zero violations,
    exact final counters, clean exits), not speed.  Writes
    ``benchmarks/results/BENCH_live.json``.
    """
    from ..live.harness import run_localcluster

    p = _params()
    n_clients = p["live_clients"]
    rounds = p["live_rounds"]
    keys = [f"live-key-{i}" for i in range(p["live_keys"])]
    seed = 909
    summary = run_localcluster(
        n_nodes=3, n_clients=n_clients, keys=keys, rounds=rounds,
        seed=seed, run_dir="live-runs/bench", timeout_s=300.0,
    )
    metrics = summary["metrics"]
    completed = int(metrics["completed_cs"])
    target_cs = n_clients * rounds
    checks = [
        (
            f"live cluster completed >= 200 critical sections ({completed})",
            completed >= 200 and completed == target_cs,
        ),
        (
            "merged audit replay is clean "
            f"({summary['audited_events']} events, "
            f"{len(summary['violations'])} violations)",
            summary["audited_events"] > 0 and not summary["violations"],
        ),
        (
            "every increment serialized (final counters exact)",
            summary["final_values"] == summary["expected_values"],
        ),
        (
            f"all nodes drained and exited 0 on SIGTERM ({summary['exit_codes']})",
            all(code == 0 for code in summary["exit_codes"]),
        ),
        (
            f"no client-visible failures ({int(metrics['failed_cs'])})",
            metrics["failed_cs"] == 0,
        ),
    ]
    baseline = {
        "scale": scale_name(),
        "nodes": 3,
        "clients": n_clients,
        "rounds_per_client": rounds,
        "keys": len(keys),
        "metrics": metrics,
    }
    write_bench_json(
        "live",
        config={
            "scale": scale_name(), "nodes": 3, "clients": n_clients,
            "rounds_per_client": rounds, "keys": len(keys),
            "transport": "asyncio-tcp", "clock": "wall",
        },
        seed=seed,
        metrics=metrics,
    )
    text = render_table(
        f"Live localhost cluster — 3 nodes, {n_clients} clients, "
        f"{len(keys)} keys (asyncio TCP, wall clock)",
        ["CS done", "CS/sec", "CS p50 (ms)", "CS p99 (ms)",
         "acq p50 (ms)", "acq p99 (ms)", "audit"],
        [[completed, round(metrics["cs_per_sec"], 1),
          round(metrics["cs_p50_ms"], 2), round(metrics["cs_p99_ms"], 2),
          round(metrics["acquire_p50_ms"], 2), round(metrics["acquire_p99_ms"], 2),
          "clean" if not summary["violations"] else "VIOLATIONS"]],
    )
    return ExperimentResult("live_localcluster", "Live localhost cluster", text,
                            {"baseline": baseline}, checks)


# ---------------------------------------------------------------------------
def txn_regimes() -> ExperimentResult:
    """Transaction-regime axis (DESIGN.md §13): MUSIC locks vs epoch OCC
    vs SSI under Zipfian contention.

    Each engine x contention cell runs the *same* seeded ``txn_mix``
    workload (2-4 keys per transaction, half read-only keys, integer
    read-modify-write on the rest) on a fresh deployment, through the
    retrying :class:`~repro.txn.TransactionExecutor`.  Every cell's
    committed history must pass the
    :class:`~repro.obs.SerializabilityChecker` — regimes are compared on
    checked histories — and the store's final cell (value, stamp) must
    match the last committed write of each key's version chain.  Writes
    ``benchmarks/results/BENCH_txn.json``; the headline is the
    commits/sec crossover table.
    """
    from ..obs import SerializabilityChecker
    from ..workloads import txn_mix

    p = _params()
    n_clients = p["txn_clients"]
    per_client = p["txn_per_client"]
    key_count = p["txn_keys"]
    thetas = p["txn_thetas"]
    seed = 909

    def measure(engine_name: str, theta: float) -> Dict[str, Any]:
        deployment = build_music(seed=seed, txn=True)
        sim = deployment.sim
        sites = deployment.profile.site_names
        engine = deployment.txn.engine(engine_name)
        mix = txn_mix((2, 4), read_fraction=0.5, zipf_theta=theta)
        spec_rng = deployment.streams.stream("txn-bench-specs")
        results: List[Any] = []

        def worker(client, specs):
            executor = deployment.txn.executor(engine, client=client)
            for spec in specs:
                result = yield from executor.run(spec)
                results.append(result)

        procs = []
        for index in range(n_clients):
            client = deployment.client(sites[index % len(sites)])
            specs = list(mix.transactions(per_client, key_count, spec_rng))
            procs.append(sim.process(worker(client, specs)))
        for proc in procs:
            sim.run_until_complete(proc, limit=1e10)
        makespan_ms = sim.now
        engine.stop()

        committed = [r for r in results if r.committed]
        attempts = sum(r.attempts for r in results)
        aborts = sum(r.aborts for r in results)
        latencies = [r.latency_ms for r in committed]

        checker = SerializabilityChecker()
        violations = checker.check(engine.committed)

        # Store consistency: the final stored (value, stamp) of every
        # key must equal the last committed write of its version chain.
        last_writes: Dict[str, Tuple[Any, Any]] = {}
        for record in sorted(engine.committed, key=lambda r: r.commit_seq):
            for key, stamp in record.writes.items():
                last_writes[key] = (key, stamp)
        mismatches: List[str] = []

        def read_back():
            client = deployment.client(sites[0])
            for key, stamp in last_writes.values():
                _value, stored = yield from client.txn_read(key)
                if stored != stamp:
                    mismatches.append(key)

        sim.run_until_complete(sim.process(read_back()), limit=1e10)
        summary = summarize(latencies) if latencies else None
        return {
            "engine": engine_name,
            "zipf_theta": theta,
            "transactions": len(results),
            "committed": len(committed),
            "failed": len(results) - len(committed),
            "attempts": attempts,
            "aborts": aborts,
            "abort_rate": round(aborts / attempts, 4) if attempts else 0.0,
            "makespan_ms": round(makespan_ms, 3),
            "commits_per_sec": round(
                len(committed) / makespan_ms * 1000.0, 4
            ) if makespan_ms else 0.0,
            "commit_latency_p50_ms": round(summary.p50, 3) if summary else None,
            "commit_latency_p99_ms": round(summary.p99, 3) if summary else None,
            "serializability_violations": len(violations),
            "store_mismatches": len(mismatches),
        }

    engines = ["locking", "occ", "ssi"]
    cells = [measure(engine, theta) for engine in engines for theta in thetas]
    by_theta: Dict[float, List[Dict[str, Any]]] = {}
    for cell in cells:
        by_theta.setdefault(cell["zipf_theta"], []).append(cell)
    winners = {
        theta: max(rows, key=lambda row: row["commits_per_sec"])["engine"]
        for theta, rows in by_theta.items()
    }

    checks = [
        (
            "every engine x contention cell passes the serializability "
            "checker",
            all(cell["serializability_violations"] == 0 for cell in cells),
        ),
        (
            "every transaction eventually committed (bounded retry "
            "sufficed)",
            all(cell["failed"] == 0 for cell in cells),
        ),
        (
            "store final state matches each key's last committed write",
            all(cell["store_mismatches"] == 0 for cell in cells),
        ),
        (
            "contention costs throughput: every engine is slower at "
            f"theta={thetas[-1]} than at theta={thetas[0]}",
            all(
                next(c for c in cells if c["engine"] == e
                     and c["zipf_theta"] == thetas[-1])["commits_per_sec"]
                < next(c for c in cells if c["engine"] == e
                       and c["zipf_theta"] == thetas[0])["commits_per_sec"]
                for e in engines
            ),
        ),
    ]
    write_bench_json(
        "txn",
        config={
            "scale": scale_name(), "clients": n_clients,
            "txns_per_client": per_client, "keys": key_count,
            "keys_per_txn": [2, 4], "read_fraction": 0.5,
            "zipf_thetas": thetas, "engines": engines,
        },
        seed=seed,
        metrics={"cells": cells, "winners_by_theta": {
            str(theta): engine for theta, engine in winners.items()
        }},
    )
    text = render_table(
        f"Transaction regimes — {n_clients} clients, {key_count} keys, "
        "2-4 keys/txn (lUs)",
        ["engine", "theta", "commits/sec", "abort rate", "p50 (ms)",
         "p99 (ms)", "serializable"],
        [[cell["engine"], cell["zipf_theta"], cell["commits_per_sec"],
          cell["abort_rate"], cell["commit_latency_p50_ms"],
          cell["commit_latency_p99_ms"],
          "yes" if cell["serializability_violations"] == 0 else "NO"]
         for cell in cells],
    )
    text += "\nwinner by contention level: " + ", ".join(
        f"theta={theta}: {winners[theta]}" for theta in thetas
    )
    return ExperimentResult("txn_regimes", "Concurrency-control regimes", text,
                            {"cells": cells, "winners": winners}, checks)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

EXPERIMENTS: Dict[str, Callable[[], ExperimentResult]] = {
    "table2": table2,
    "fig4a": fig4a,
    "fig4b": fig4b,
    "fig5a": fig5a,
    "fig5b": fig5b,
    "fig6a": fig6a,
    "fig6b": fig6b,
    "fig7a": fig7a,
    "fig7b": fig7b,
    "fig8": fig8,
    "fig9": fig9,
    "xb4": cost_model_xb4,
    "ablation_peek": ablation_peek,
    "ablation_sync": ablation_sync,
    "ext_hierarchical": ext_hierarchical,
    "storage_durability": storage_durability,
    "elastic_scaling": elastic_scaling,
    "lock_contention": lock_contention,
    "read_scaleout": read_scaleout,
    "live_localcluster": live_localcluster,
    "txn_regimes": txn_regimes,
}


def run_experiment(exp_id: str) -> ExperimentResult:
    if exp_id not in EXPERIMENTS:
        raise KeyError(f"unknown experiment {exp_id!r}; have {sorted(EXPERIMENTS)}")
    if not AUDIT:
        return EXPERIMENTS[exp_id]()

    # Swap the module-level build_music for an auditing wrapper so every
    # MUSIC deployment the experiment builds (including the builder
    # tuples like ("MUSIC", build_music)) is checked online.  Audit
    # emission never yields or consumes randomness, so the measured
    # numbers are the same as an un-audited run.
    auditors: List[Any] = []
    original = build_music

    def audited_build_music(*args: Any, **kwargs: Any):
        kwargs.setdefault("audit", True)
        deployment = original(*args, **kwargs)
        if deployment.auditor is not None:
            auditors.append(deployment.auditor)
        return deployment

    globals()["build_music"] = audited_build_music
    try:
        result = EXPERIMENTS[exp_id]()
    finally:
        globals()["build_music"] = original

    violations = sum(sum(a.violation_counts.values()) for a in auditors)
    result.checks.append(
        (
            f"ECF audit clean ({len(auditors)} audited deployment(s))",
            violations == 0,
        )
    )
    if violations:
        reports = [a.render_report() for a in auditors if not a.clean]
        result.text += "\n\n" + "\n\n".join(reports)
    return result
