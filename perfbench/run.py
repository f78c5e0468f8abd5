"""The repository benchmark: four closed-loop MUSIC workloads, one command.

Run from the repository root:

    python3 perfbench/run.py --workload paper_cs --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
workload once untraced and once traced, checks that tracing left the
simulated timings untouched, and prints the per-layer metrics.  Every run
checks the workload's outputs and exits 1 if any is wrong.  The last line
of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
Metrics and span dumps go to ``--out`` (default ``.bench_out/`` in the
repository root); nothing committed is rewritten.  See README.md here.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import json
import math
import os
import re
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_cs", "hotlock", "ownership_reads", "live_cs")
# DES sub-runs pooled for the simulated-clock metrics; extra sub-runs
# that fit in the window repeat them and only feed the wall metrics.
FIXED_SUBRUNS = {"paper_cs": 2, "hotlock": 2, "ownership_reads": 4}
# Deployments built and timed before each DES sub-run, so the set-up
# samples spread over the whole run.
SETUP_REPEATS = 8
# live_cs splits its window into sub-runs of about this length, each on a
# fresh cluster, and pools their ops.
LIVE_SUBRUN_S = 3.0

END_TO_END_UNITS = {
    "ops_per_s": "ops/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "completed_frac": "ratio",
    "wall_ops_per_s": "ops/s",
    "cpu_ms_per_op": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def sub_seed(seed: int, index: int) -> int:
    return seed * 1_000 + index


def rss_mb() -> float:
    """The process's resident memory now.

    Sampled after each sub-run, with its deployment and every span it
    recorded still alive; the high-water mark of the whole process would
    also catch short spikes of garbage awaiting collection."""
    with open("/proc/self/statm") as statm:
        pages = int(statm.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Result:
    """What one benchmark invocation prints."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.metrics: Dict[str, float] = {}
        self.units: Dict[str, str] = {}
        self.notes: List[str] = []

    def absorb(self, log: Any) -> None:
        self.attempted += log.attempted
        self.failed += log.failed
        if log.mismatches:
            self.problems.append(f"{log.mismatches} wrong output(s), e.g. {log.mismatch_notes}")
        if log.failed:
            self.notes.append(f"{log.failed} failed op(s), e.g. {log.failure_notes}")

    def require(self, ok: bool, why: str) -> None:
        if not ok:
            self.problems.append(why)

    def as_json(self) -> Dict[str, Any]:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            # A latency percentile is +inf when failed ops reach it; JSON
            # has no infinity, so such a value is written as null.
            "metrics": {
                name: {"value": value if math.isfinite(value) else None,
                       "unit": self.units[name]}
                for name, value in self.metrics.items()
            },
        }


def reference_scaled(seconds: float, reference_s: float) -> float:
    """A host timing scaled to a host where the reference loop takes
    ``REFERENCE_MS`` (see reference.py)."""
    from reference import REFERENCE_MS

    return seconds * REFERENCE_MS / 1000.0 / reference_s


def median(values: List[float]) -> float:
    from repro.analysis.stats import percentile

    return percentile(sorted(values), 0.5)


def latency_metrics(result: Result, latencies: List[float], window_ops: int,
                    window_s: float) -> None:
    from repro.analysis.stats import percentile

    ordered = sorted(latencies)
    result.metrics["ops_per_s"] = window_ops / window_s
    result.metrics["p50_ms"] = percentile(ordered, 0.50)
    result.metrics["p99_ms"] = percentile(ordered, 0.99)
    beyond = sum(1 for value in ordered if value > result.metrics["p99_ms"])
    result.notes.append(f"p99 over {len(ordered)} ops, {beyond} beyond it")


# The auditor's grant checks, as worded in repro.obs.audit.
_GRANT_REPORT = re.compile(r"lockRef (\d+) granted while lockRef (\d+) ")


def _late_release(auditor: Any, violation: Any) -> bool:
    """Whether a grant-order report only shows a late release event.

    releaseLock emits its audit event from the dequeue LWT's decide
    hook.  When a rival coordinator's Paxos recovery decides that LWT,
    the hook never fires and the event is emitted when the releaser's
    call returns, after the successor may have been granted; the
    auditor then reports two lockholders.  The report is explained when
    the flagged predecessor's release was recorded and it made no
    critical read or write after the successor's grant.
    """
    match = _GRANT_REPORT.match(violation.detail)
    if match is None or auditor.dropped:
        return False
    granted, held = int(match[1]), int(match[2])
    after_grant = False
    for event in auditor.events:
        if event.key != violation.key:
            continue
        if event.kind == "grant" and event.lock_ref == granted:
            after_grant = True
        elif after_grant and event.lock_ref == held:
            if event.kind == "release":
                return True
            if event.kind in ("critical_get", "critical_put"):
                return False
    return False


def require_clean_audit(result: Result, auditor: Any) -> None:
    reported = sum(auditor.violation_counts.values())
    unexplained = [v for v in auditor.violations if not _late_release(auditor, v)]
    late = len(auditor.violations) - len(unexplained)
    result.require(not unexplained and reported == len(auditor.violations),
                   f"ECF audit found {reported - late} violation(s), e.g. "
                   + "; ".join(f"{v.invariant}: {v.detail}" for v in unexplained[:2]))
    if late:
        result.notes.append(f"{late} ECF grant-order report(s) from a release event "
                            "emitted after its successor's grant, with no critical op between")


# -- DES workloads ------------------------------------------------------------


def _sim_summary(log: Any) -> tuple:
    return (log.window_ops, log.failed, tuple(log.latencies_ms))


def des_end_to_end(name: str, seed: int, seconds: float, result: Result) -> None:
    from reference import time_reference
    from workloads import DES_SHAPES, run_des

    shape = DES_SHAPES[name]
    setups: List[float] = []
    fixed = FIXED_SUBRUNS[name]
    pooled: List[float] = []
    window_ops = 0
    window_ms = 0.0
    summaries: Dict[int, tuple] = {}
    slice_walls: List[float] = []
    slice_cpus: List[float] = []
    pushes = executed = 0
    rss: List[float] = []
    began = time.perf_counter()
    index = 0
    while True:
        elapsed = time.perf_counter() - began
        if index >= fixed and elapsed + elapsed / index > seconds:
            break
        for repeat in range(SETUP_REPEATS):
            built = time.perf_counter()
            shape.deploy(sub_seed(seed, index * SETUP_REPEATS + repeat), traced=False)
            setups.append(reference_scaled(time.perf_counter() - built, time_reference()[0]))
        gc.collect()
        which = index % fixed
        sub = run_des(shape, sub_seed(seed, which))
        log = sub.log
        rss.append(rss_mb())
        result.absorb(log)
        pushes += sub.heap_pushes
        executed += log.executed
        for wall_s, cpu_s, slice_pushes, ref_wall, ref_cpu in sub.slices:
            slice_walls.append(reference_scaled(wall_s / slice_pushes, ref_wall))
            slice_cpus.append(reference_scaled(cpu_s / slice_pushes, ref_cpu))
        summary = _sim_summary(log)
        if which in summaries:
            result.require(summary == summaries[which],
                           f"sub-seed {sub_seed(seed, which)} did not repeat its simulated timings")
        else:
            summaries[which] = summary
            pooled.extend(log.latencies_ms)
            window_ops += log.window_ops
            window_ms += log.window_ms
        del sub, log
        gc.collect()
        index += 1

    latency_metrics(result, pooled, window_ops, window_ms / 1000.0)
    result.metrics["completed_frac"] = 1.0 - result.failed / result.attempted
    # The median slice's host cost per kernel heap push, times the heap
    # pushes an op takes (a property of the sub-seed, not of the host).
    pushes_per_op = pushes / executed
    result.metrics["wall_ops_per_s"] = 1.0 / (median(slice_walls) * pushes_per_op)
    result.metrics["cpu_ms_per_op"] = median(slice_cpus) * pushes_per_op * 1000.0
    result.metrics["setup_s"] = median(setups)
    result.metrics["peak_rss_mb"] = max(rss)
    result.notes.append(f"{index} sub-runs ({fixed} pooled for the simulated clock), "
                        f"{len(slice_walls)} timed slices")


def des_per_layer(name: str, seed: int, out: Path, result: Result) -> None:
    from layers import Tracer, check_round_trips, layer_metrics
    from workloads import DES_SHAPES, run_des

    shape = DES_SHAPES[name]
    sub_seed0 = sub_seed(seed, 0)
    plain = run_des(shape, sub_seed0)
    result.absorb(plain.log)
    plain_summary, plain_wall = _sim_summary(plain.log), plain.wall_s
    del plain
    gc.collect()

    tracer = None

    def prepare(deployment: Any, log: Any) -> None:
        nonlocal tracer
        tracer = Tracer(deployment.sim)
        tracer.attach_des(deployment)
        log.tag_ops = True

    traced = run_des(shape, sub_seed0, traced=True, prepare=prepare)
    log = traced.log
    result.absorb(log)
    result.require(_sim_summary(log) == plain_summary,
                   "tracing changed the simulated timings (ops_per_s, p50_ms, p99_ms)")
    deployment = traced.deployment
    require_clean_audit(result, deployment.auditor)
    replication = deployment.store.config.replication_factor
    metrics = layer_metrics(
        tracer, log.executed, profiler=deployment.profiler,
        plain_wall=plain_wall, traced_wall=traced.wall_s,
        net_stats=[deployment.network.stats],
        wal_bytes=sum(r.engine.wal.appended_bytes for r in deployment.store.replicas),
        rtt_profile=deployment.profile, replication=replication,
        lease_hits=sum(r.counters.get("lease_hits", 0) for r in deployment.replicas),
    )
    if name == "paper_cs":
        result.problems.extend(check_round_trips(metrics))
    tracer.write_jsonl(str(out / f"spans-{name}-seed{seed}.jsonl"))
    result.metrics.update(metrics)


# -- live ---------------------------------------------------------------------


def _live_spec(seed: int, out: Path) -> Any:
    from repro.live import localhost_spec
    from repro.live.harness import free_port_block

    return localhost_spec(n_nodes=3, base_port=free_port_block(3), seed=seed,
                          run_dir=str(out / "live-run"))


def live_end_to_end(seed: int, seconds: float, out: Path, result: Result) -> None:
    from workloads import run_live

    count = max(1, round(seconds / LIVE_SUBRUN_S))
    pooled: List[float] = []
    window_ops = executed = leaked = 0
    window_ms = cpu_s = 0.0
    setups: List[float] = []
    rss: List[float] = []

    async def sub_run(seed_i: int) -> int:
        nonlocal window_ops, window_ms, executed, cpu_s
        run = await run_live(_live_spec(seed_i, out), seed_i, seconds / count)
        rss.append(rss_mb())
        log = run.log
        result.absorb(log)
        pooled.extend(log.latencies_ms)
        window_ops += log.window_ops
        window_ms += log.window_ms
        executed += log.executed
        cpu_s += run.cpu_s
        setups.append(run.setup_s)
        return len(asyncio.all_tasks()) - 1

    # One event loop per sub-run: closing it cancels and awaits the
    # tasks that LocalCluster.stop() leaves pending (an outbound link's
    # reader), which would otherwise keep a stopped cluster in memory.
    for index in range(count):
        leaked += asyncio.run(sub_run(sub_seed(seed, index)))
        gc.collect()
    latency_metrics(result, pooled, window_ops, window_ms / 1000.0)
    result.metrics["completed_frac"] = 1.0 - result.failed / result.attempted
    result.metrics["wall_ops_per_s"] = result.metrics["ops_per_s"]
    result.metrics["cpu_ms_per_op"] = cpu_s * 1000.0 / executed
    result.metrics["setup_s"] = median(setups)
    result.metrics["peak_rss_mb"] = max(rss)
    result.notes.append(f"{count} sub-runs on fresh clusters; {leaked} task(s) left "
                        "pending by LocalCluster.stop() were cancelled")


def live_per_layer(seed: int, seconds: float, out: Path, result: Result) -> None:
    from layers import Tracer, layer_metrics
    from workloads import run_live

    async def main() -> None:
        half = seconds / 2.0
        plain = await run_live(_live_spec(seed, out), seed, half)
        result.absorb(plain.log)
        gc.collect()
        tracer: Optional[Tracer] = None
        undo = []

        def prepare(cluster: Any, clients: List[Any], log: Any) -> None:
            nonlocal tracer
            tracer = Tracer(cluster.clock)
            for process in cluster.processes:
                tracer.attach_replicas(process.replicas, process.store.replicas)
                tracer.tap(process.transport)
            tracer.tap(cluster.client_transport)
            for client in clients:
                tracer.attach_client(client)
            undo.append(tracer.wrap_codec())
            log.tag_ops = True

        try:
            run = await run_live(_live_spec(seed, out), seed, half, prepare=prepare)
        finally:
            for callback in undo:
                callback()
        log = run.log
        result.absorb(log)
        auditor = run.cluster.audit()
        require_clean_audit(result, auditor)
        result.require(len(auditor.events) > 0, "the live audit recorded no events")
        cluster = run.cluster
        stats = [p.transport.stats for p in cluster.processes]
        stats.append(cluster.client_transport.stats)
        wal_bytes = sum(r.engine.wal.appended_bytes
                        for p in cluster.processes for r in p.store.replicas)
        per_op_plain = plain.wall_s / plain.log.executed
        per_op_traced = run.wall_s / log.executed
        result.metrics.update(layer_metrics(
            tracer, log.executed, plain_wall=per_op_plain,
            traced_wall=per_op_traced, net_stats=stats, wal_bytes=wal_bytes,
            live=True, cpu_s=run.cpu_s,
        ))
        tracer.write_jsonl(str(out / f"spans-live_cs-seed{seed}.jsonl"))

    asyncio.run(main())


# -- entry point --------------------------------------------------------------


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for the metrics JSON and span JSONL")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    args.out.mkdir(parents=True, exist_ok=True)

    result = Result()
    if args.workload == "live_cs":
        runner = live_per_layer if args.trace else live_end_to_end
        runner(args.seed, args.seconds, args.out, result)
    elif args.trace:
        des_per_layer(args.workload, args.seed, args.out, result)
    else:
        des_end_to_end(args.workload, args.seed, args.seconds, result)
    if args.trace:
        from layers import unit_of
        result.units.update({name: unit_of(name) for name in result.metrics})
    else:
        result.units.update(END_TO_END_UNITS)

    payload = result.as_json()
    dump = args.out / f"metrics-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    dump.write_text(json.dumps({**payload, "notes": result.notes,
                                "problems": result.problems}, indent=1) + "\n")
    for name, value in result.metrics.items():
        print(f"{args.workload:16} {name:30} {value:14.6g} {result.units[name]}")
    for line in result.notes + [f"WRONG: {p}" for p in result.problems]:
        print(f"{args.workload:16} {line}")
    print(json.dumps(payload))
    return 0 if payload["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
