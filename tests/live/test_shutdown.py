"""Graceful shutdown: drain, flush, close — no leaks, no orphans.

SIGTERM/ctrl-C on a node (or ``LiveProcess.shutdown``) must stop
accepting connections, let in-flight RPCs drain, flush the obs/audit
JSONL, and tear down every socket and timer.  Afterwards the asyncio
loop must hold no orphan tasks and the process no leaked FDs.
"""

import asyncio
import os

from repro.live import LocalCluster

from .conftest import make_spec


def open_fd_count() -> int:
    return len(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else -1


def test_local_cluster_shutdown_leaves_no_orphans(tmp_path):
    fds_before = open_fd_count()

    async def main():
        spec = make_spec(n_nodes=3, tmp_path=tmp_path)
        cluster = LocalCluster(spec)
        await cluster.start()
        await cluster.run_workload(keys=["sd-key"], rounds=2, n_clients=2, timeout_s=60.0)
        await cluster.stop()

        # Every listening server gone, every pooled link torn down.
        for process in cluster.processes:
            assert process.transport._server is None
            assert not process.transport._outbound
            assert not process.transport._inbound
        assert cluster.client_transport._server is None
        assert not cluster.client_transport._outbound
        # The shared clock holds no live timers.
        assert not cluster.clock._handles

        # No asyncio task other than the current one survives shutdown.
        await asyncio.sleep(0.05)
        leftovers = [
            task for task in asyncio.all_tasks()
            if task is not asyncio.current_task() and not task.done()
        ]
        assert leftovers == []
        return cluster

    cluster = asyncio.run(main())

    # Audit and span slices were flushed for every node before teardown.
    run_dir = cluster.processes[0].run_dir
    for node in cluster.spec.nodes:
        assert (run_dir / f"audit-{node.name}.jsonl").exists()
        assert (run_dir / f"spans-{node.name}.jsonl").exists()

    if fds_before >= 0:
        fds_after = open_fd_count()
        assert fds_after <= fds_before + 1  # allow test-runner noise


def test_shutdown_is_idempotent(tmp_path):
    async def main():
        spec = make_spec(n_nodes=2, tmp_path=tmp_path)
        cluster = LocalCluster(spec)
        await cluster.start()
        await cluster.stop()
        await cluster.stop()  # second stop is a no-op, not an error
        for process in cluster.processes:
            await process.shutdown()  # already shut down: no-op

    asyncio.run(main())


def _pending_tasks():
    current = asyncio.current_task()
    return [task for task in asyncio.all_tasks() if task is not current and not task.done()]


def test_local_cluster_stop_leaves_no_pending_task(tmp_path):
    """Right after ``await cluster.stop()`` (no grace sleep), the loop
    holds no task but the caller — even when a node whose process has
    already shut down sends late (here a release push to its sibling
    replicas while the rest of the cluster is still stopping)."""

    async def main():
        spec = make_spec(n_nodes=3, tmp_path=tmp_path)
        cluster = LocalCluster(spec)
        await cluster.start()
        await cluster.run_workload(
            keys=["sd-a", "sd-b"], rounds=3, n_clients=2, timeout_s=60.0
        )
        first = cluster.processes[0]
        await first.shutdown(drain_s=0.0)
        replica = first.replicas[0]
        for peer in replica.peer_ids:
            replica.send(peer, "music.grantPush", {"key": "sd-a", "next": None})
        await cluster.stop()
        assert _pending_tasks() == []
        for process in cluster.processes:
            assert not process.transport._outbound
            assert not process.transport._tasks
        assert not cluster.client_transport._tasks

    asyncio.run(main())


def test_send_after_close_reopens_no_link(tmp_path):
    """A late send from a node whose transport already closed (a timer
    on the shared clock firing during a sibling's shutdown) is dropped;
    it must not dial a fresh outbound link whose reconnect loop would
    outlive the cluster."""
    from repro.live import LiveClock, TcpTransport

    async def main():
        clock = LiveClock()
        spec = make_spec(n_nodes=2, tmp_path=tmp_path)
        transport = TcpTransport(clock, spec, listen=None)
        await transport.close()
        replica_id = next(iter(spec.addresses()))
        transport.send("late-client", replica_id, "ping", {"n": 1})
        assert not transport._outbound
        assert transport.stats.dropped_loss == 1
        assert _pending_tasks() == []
        clock.close()

    asyncio.run(main())
