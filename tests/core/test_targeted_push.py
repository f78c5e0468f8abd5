"""Targeted grant pushes (DESIGN.md §9): a release wakes only the
waiters it may have made queue head.

The releasing replica reads the successor from the peek it already
makes; ``music.grantPush`` carries it as ``next``, and every replica
wakes only subscriptions whose lockRef is at most that hint — everyone
when it is unknown.  Waiters queued behind another lockRef leave their
poll timer at ``acquire_poll_max_ms``, so a lost push costs one fallback
interval, never liveness.  Lease/cache invalidation and release
listeners are unfiltered: they run on every push.
"""

from repro import MusicConfig, build_music
from tests.helpers import run

SITES = ("Ohio", "N.California", "Oregon")


def _queue(music, key, count, site="Ohio"):
    """Mint ``count`` lockRefs on ``key`` from one client; grant the first."""
    client = music.client(site)
    refs = []

    def proc():
        for _ in range(count):
            refs.append((yield from client.create_lock_ref(key)))
        granted = yield from client.acquire_lock_blocking(key, refs[0])
        assert granted
        # Let every replica's local queue catch up with the mints.
        yield music.sim.timeout(1_000.0)

    run(music.sim, proc())
    return client, refs


def _subscribe_everywhere(music, key, lock_ref):
    return [replica.subscribe_release(key, lock_ref) for replica in music.replicas]


def _pushes(music):
    return sum(
        music.obs.metrics.counter("music.push.notifies", node=r.node_id).value
        for r in music.replicas
    )


def test_hot_key_waiters_poll_a_few_times_per_grant():
    """8 waiters over 3 sites on one hot key: polling is a fallback, so a
    grant costs a handful of polls, and every increment is serialized."""
    music = build_music(seed=5, fast_locks=True, audit=True)
    sim = music.sim
    rounds = 3
    polls = []
    grants = []

    def worker(index):
        client = music.client(SITES[index % len(SITES)], f"hot-{index}")
        poll = client.acquire_lock

        def counted(key, lock_ref):
            polls.append(index)
            granted = yield from poll(key, lock_ref)
            return granted

        client.acquire_lock = counted
        for _ in range(rounds):
            cs = yield from client.critical_section("hot", timeout_ms=1e8)
            grants.append(index)
            value = yield from cs.get()
            yield from cs.put((value or 0) + 1)
            yield from cs.exit()

    procs = [sim.process(worker(i)) for i in range(8)]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)

    final = run(sim, music.client("Ohio").replica.quorum_get("hot"))[0]
    assert final == 8 * rounds
    assert len(grants) == 8 * rounds
    assert len(polls) / len(grants) <= 8.0, len(polls) / len(grants)
    assert music.auditor.clean, music.auditor.render_report()


def test_release_leaves_non_successor_subscriptions_parked():
    music = build_music(music_config=MusicConfig(push_grants=True), obs=True)
    holder, refs = _queue(music, "k", 3)
    successor = _subscribe_everywhere(music, "k", refs[1])
    behind = _subscribe_everywhere(music, "k", refs[2])

    run(music.sim, holder.release_lock("k", refs[0]))
    music.sim.run(until=music.sim.now + 1_000.0)

    assert _pushes(music) == 1
    assert all(event.triggered for event in successor)
    assert not any(event.triggered for event in behind)
    for replica, event in zip(music.replicas, behind):
        assert replica._release_waiters["k"] == [(refs[2], event)]


def test_unknown_successor_wakes_every_waiter():
    # A release whose local queue shows nobody behind the holder.
    music = build_music(music_config=MusicConfig(push_grants=True), obs=True)
    holder, refs = _queue(music, "k", 1)
    woken = _subscribe_everywhere(music, "k", refs[0] + 5)
    run(music.sim, holder.release_lock("k", refs[0]))
    music.sim.run(until=music.sim.now + 1_000.0)
    assert all(event.triggered for event in woken)

    # A forced release never names a successor.
    music = build_music(music_config=MusicConfig(push_grants=True), obs=True)
    _, refs = _queue(music, "k", 3)
    woken = _subscribe_everywhere(music, "k", refs[2])
    run(music.sim, music.replicas[1].forced_release("k", refs[0]))
    music.sim.run(until=music.sim.now + 1_000.0)
    assert all(event.triggered for event in woken)
    assert not any(replica._release_waiters for replica in music.replicas)


def test_invalidation_and_listeners_fire_on_every_push():
    """Only waiter wake-ups are filtered: every replica still drops its
    lease/cached reads and runs its release listeners (the portal's
    owner-cache hook) for a push that wakes nobody there."""
    music = build_music(read_leases=True, obs=True)
    holder, refs = _queue(music, "k", 3)
    parked = _subscribe_everywhere(music, "k", refs[2])
    heard = {replica.node_id: [] for replica in music.replicas}
    invalidated = {replica.node_id: 0 for replica in music.replicas}
    for replica in music.replicas:
        replica.add_release_listener(heard[replica.node_id].append)
        drop = replica._drop_cached_reads

        def counted(key, _drop=drop, _node=replica.node_id):
            invalidated[_node] += 1
            _drop(key)

        replica._drop_cached_reads = counted

    run(music.sim, holder.release_lock("k", refs[0]))
    music.sim.run(until=music.sim.now + 1_000.0)

    assert not any(event.triggered for event in parked)
    assert all(keys == ["k"] for keys in heard.values()), heard
    assert all(count == 1 for count in invalidated.values()), invalidated


def _handover(music, release_hook=None):
    """``(grant delay, polls)`` of an Oregon waiter queued behind an Ohio
    holder: the delay is from the holder's release call returning to the
    waiter's grant, the polls count every acquireLock it made."""
    sim = music.sim
    holder = music.client("Ohio")
    waiter = music.client("Oregon")
    poll = waiter.acquire_lock
    polls = []

    def counted(key, lock_ref):
        polls.append(sim.now)
        granted = yield from poll(key, lock_ref)
        return granted

    waiter.acquire_lock = counted
    held = sim.event()
    released_at = []
    granted_at = []

    def hold_then_release():
        cs = yield from holder.critical_section("k")
        held.succeed()
        yield sim.timeout(2_000.0)
        if release_hook is not None:
            release_hook(holder.replica)
        yield from cs.exit()
        released_at.append(sim.now)

    def wait():
        yield held
        cs = yield from waiter.critical_section("k", timeout_ms=60_000.0)
        granted_at.append(sim.now)
        yield from cs.exit()

    procs = [sim.process(hold_then_release()), sim.process(wait())]
    for proc in procs:
        sim.run_until_complete(proc, limit=1e9)
    return granted_at[0] - released_at[0], len(polls)


def test_dropped_push_still_grants_through_the_fallback_poll():
    config = MusicConfig(push_grants=True)
    music = build_music(music_config=config)
    send = music.network.send

    def lossy(src, dst, kind, body, size_bytes=64):
        if kind != "music.grantPush":
            send(src, dst, kind, body, size_bytes)

    music.network.send = lossy
    delay, polls = _handover(music)
    # Queued behind the holder, the waiter polled on its fallback timer
    # (every acquire_poll_max_ms, jittered up to 1.2x) through the 2 s
    # hold, and the first such poll after the release granted it.
    assert polls <= 2_000.0 / config.acquire_poll_max_ms + 2, polls
    assert delay <= 1.2 * config.acquire_poll_max_ms + 50.0, delay


def test_recovery_decided_release_still_pushes():
    """A dequeue decided by another coordinator's recovery returns
    without firing its decided-hook; the release must push anyway, or
    the successor sleeps out its poll timer."""
    config = MusicConfig(
        push_grants=True,
        acquire_poll_interval_ms=30_000.0,
        acquire_poll_max_ms=30_000.0,
    )
    music = build_music(music_config=config)

    def drop_decided_hook(replica):
        dequeue = replica.lock_store.dequeue

        def recovered(key, lock_ref, forced=False, on_committing=None):
            done = yield from dequeue(key, lock_ref, forced=forced)
            return done

        replica.lock_store.dequeue = recovered

    delay, _ = _handover(music, release_hook=drop_decided_hook)
    assert delay < 1_000.0, delay
