"""The MUSIC replica: ECF critical sections over the back-end stores.

This is a direct implementation of the algorithms of Section IV:

- ``create_lock_ref``  — one consensus write (LWT batch) to mint and
  enqueue a per-key unique increasing lockRef;
- ``acquire_lock``     — a *local* peek (cheap, called repeatedly while
  polling) plus, on grant, a quorum read of the key's synchFlag; if a
  previous lockholder was preempted mid-put, the data store is
  synchronized (quorum read + quorum re-write + flag reset) before the
  new lockholder enters;
- ``critical_put`` / ``critical_get`` — guarded quorum writes/reads of
  the data store, stamped with v2s(lockRef, time) vector timestamps and
  bounded by the lease T;
- ``release_lock``     — consensus dequeue;
- ``forced_release``   — preemption of a (presumed) failed lockholder:
  sets the synchFlag with a (lockRef + δ) stamp *before* dequeuing, so
  the flag write can never race with the next holder's flag read;
- ``put`` / ``get``    — the unlocked eventual-consistency convenience
  operations of Section VI (no ECF guarantees).

Guards follow the paper exactly: a request whose lockRef is later than
the local queue head returns False ("not first yet, or local store not
yet updated" — retry); one whose lockRef is earlier raises
:class:`NotLockHolder` ("youAreNoLongerLockHolder").  A preempted but
still-live client *can* slip a quorum put past a stale local peek; its
write carries an old lockRef in its stamp and therefore cannot override
the synchronized value — that is how the Exclusivity property survives
false failure detection (Section IV-B).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, Optional, Tuple

from ..errors import LeaseExpired, NotLockHolder
from ..leases import CachedRead, LeaseManager, ReadCache
from ..lockstore import LockStore
from ..net import Network, Node
from ..sim import NodeClock, Simulator
from ..store import Consistency, StoreCluster, StoreCoordinator
from .config import MusicConfig
from .timestamps import UNLOCKED_LOCK_REF, VectorTimestamp, check_overflow, v2s

__all__ = ["MusicReplica", "VALUE_ROW", "SYNCH_ROW"]

# Sentinel distinguishing "no cached flag epoch" from a cached epoch of
# None (no forcedRelease ever applied to the key).
_NO_EPOCH = object()

# Clustering keys inside a key's data-table partition: the value row and
# the synchFlag row are separate rows so the flag's quorum read stays
# small regardless of the value size (the paper stores them as separate
# columns; separate rows give the same cost split in our store model).
VALUE_ROW = None
SYNCH_ROW = "__synch__"

# Tiny time offset (well under any realistic T) used to order the two
# writes of a synchronization within one acquire.
_TICK = 1e-6


class MusicReplica(Node):
    """One MUSIC replica, serving ECF operations for colocated clients."""

    def __init__(
        self,
        sim: Simulator,
        network: Network,
        node_id: str,
        site: str,
        store: StoreCluster,
        config: Optional[MusicConfig] = None,
        cores: int = 8,
        clock: Optional[NodeClock] = None,
    ) -> None:
        super().__init__(sim, network, node_id, site, cores=cores, clock=clock)
        self.config = config or MusicConfig()
        self.store = store
        self.coordinator: StoreCoordinator = store.coordinator_for(self)
        self.lock_store = LockStore(
            self.coordinator,
            self.clock,
            batch_window_ms=(
                self.config.lwt_batch_window_ms
                if self.config.lwt_batch_enabled
                else None
            ),
            batch_max_ops=self.config.lwt_batch_max_ops,
            lease_rows=self.config.read_leases,
        )
        # Lease starts cached per (key, lockRef) once granted here.
        self._leases: Dict[Tuple[str, int], float] = {}
        # Read scale-out leases (DESIGN.md §10): both tiers are built
        # only when the feature is on, so the default path never holds
        # (or checks) lease state beyond a None test.
        if self.config.read_leases:
            self.lease_manager: Optional[LeaseManager] = LeaseManager(
                read_lease_ms=self.config.read_lease_ms,
                skew_bound_ms=self.config.lease_clock_skew_bound_ms,
                period_ms=self.config.period_ms,
                delta=self.config.delta,
            )
            self.read_cache: Optional[ReadCache] = ReadCache(
                self.config.read_cache_capacity
            )
        else:
            self.lease_manager = None
            self.read_cache = None
        # Stamp of the last acknowledged critical write through this
        # replica (the client-side session watermark for lease serves).
        self.last_put_stamp: Optional[Tuple[float, str]] = None
        # Stamp of the value served by the last critical/quorum read
        # through this replica (the version token the transaction layer
        # records in its read sets; None = never-written key).
        self.last_get_stamp: Optional[Tuple[float, str]] = None
        # Queue head seen by the last not-granted acquireLock poll
        # through this replica (None = the local queue looked empty):
        # tells a push-grant waiter whether it is queued behind another
        # lockRef, and so may wait for a targeted push.
        self.last_peek_head: Optional[int] = None
        # Service-layer cache invalidation hooks, called with the key on
        # every observed release push (see PortalFrontend).
        self._release_listeners: list = []
        # synchFlag fast path (DESIGN.md §9): per-key forced-release
        # epoch under which this replica last established flag=False at
        # quorum.  Key absent = no fast-path evidence.
        self._flag_epoch: Dict[str, Any] = {}
        # Push grants: local waiters parked as (lockRef, event) pairs
        # until a dequeue that may make them queue head, plus the sibling
        # MUSIC replicas to notify (wired by deployment).
        self._release_waiters: Dict[str, list] = {}
        self.peer_ids: list = []
        self.on("music.grantPush", self._on_grant_push)
        # Optional instrumentation: called as recorder(op_name, elapsed_ms).
        self.op_recorder: Optional[Callable[[str, float], None]] = None
        self.counters = {
            "forced_releases": 0,
            "syncs": 0,
            "lease_hits": 0,
            "lease_misses": 0,
            "cache_hits": 0,
            "cache_misses": 0,
            "cache_invalidations": 0,
        }
        self._op_histograms: Dict[str, Any] = {}

    # -- helpers ------------------------------------------------------------

    def _record(self, op: str, started: float) -> None:
        if self.op_recorder is not None:
            self.op_recorder(op, self.sim.now - started)
        if self.obs.enabled:
            histogram = self._op_histograms.get(op)
            if histogram is None:
                histogram = self._op_histograms[op] = self.obs.metrics.histogram(
                    "music.op_ms", op=op, node=self.node_id, site=self.site
                )
            histogram.observe(self.sim.now - started)

    def _stamp(self, lock_ref: float, offset: float) -> Tuple[float, str]:
        """A store stamp carrying v2s((lockRef, offset))."""
        scalar = lock_ref * self.config.period_ms + offset
        return (scalar, self.node_id)

    @property
    def data_table(self) -> str:
        return self.config.data_table

    # -- createLockRef (cost: lockRef consensus write) -----------------------------

    def create_lock_ref(self, key: str) -> Generator[Any, Any, int]:
        """Mint and enqueue a lockRef, good for one critical section."""
        started = self.sim.now
        with self.obs.tracer.span(
            "music.createLockRef", node=self.node_id, site=self.site, key=key
        ):
            lock_ref = yield from self.lock_store.generate_and_enqueue(key)
        check_overflow(lock_ref, self.config.period_ms)
        self._record("createLockRef", started)
        return lock_ref

    # -- acquireLock (cost: synchFlag quorum read; local peek while polling) --------

    def acquire_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """True once ``lock_ref`` is first in the queue and the data store
        is synchronized; False to poll again; NotLockHolder if preempted."""
        started = self.sim.now
        with self.obs.tracer.span(
            "music.acquireLock", node=self.node_id, site=self.site, key=key
        ) as span:
            # The synchFlag fast path needs the forced-release epoch from
            # the same local read the peek performs; the quorum-peek
            # ablation bypasses it (its peek has no single local source).
            fast_capable = self.config.synch_fast_path and not self.config.peek_quorum
            if fast_capable:
                entry, epoch = yield from self.lock_store.peek_with_epoch(key)
            else:
                entry = yield from self._peek(key)
                epoch = None
            if entry is None or lock_ref > entry.lock_ref:
                # Not first yet, or the local lock-store replica lags: retry.
                self.last_peek_head = None if entry is None else entry.lock_ref
                span.set(granted=False)
                self._record("acquireLock.peek", started)
                return False
            if lock_ref < entry.lock_ref:
                self._record("acquireLock.peek", started)
                raise NotLockHolder(f"lockRef {lock_ref} on {key!r} was forcibly released")

            grant_started = self.sim.now
            fast = fast_capable and self._fast_path_valid(key, epoch)
            flag = False
            anchor_clock = None
            flag_stamp = None
            with self.obs.tracer.span(
                "music.grant", node=self.node_id, site=self.site, key=key
            ) as grant_span:
                if fast:
                    # The cached epoch matches the marker seen by the
                    # peek that proved us queue head: no forcedRelease
                    # applied since this replica last saw flag=False at
                    # quorum, so the flag cannot have been set (only
                    # forcedRelease sets it) and the store is defined.
                    grant_span.set(fast=True)
                    self.obs.metrics.counter(
                        "music.fastpath.hits", node=self.node_id
                    ).inc()
                else:
                    if self.config.read_leases:
                        # A read lease anchors at the local-clock time
                        # this quorum flag read *started* (DESIGN.md §10).
                        anchor_clock = self.clock.now()
                    flag_rows = yield from self.coordinator.get(
                        self.data_table, key, clustering=SYNCH_ROW,
                        consistency=Consistency.QUORUM,
                    )
                    if SYNCH_ROW in flag_rows:
                        flag = bool(
                            flag_rows[SYNCH_ROW].visible_values().get("flag", False)
                        )
                        if self.config.read_leases:
                            flag_stamp = flag_rows[SYNCH_ROW].cell_stamp("flag")
                    audit = self.obs.audit
                    if audit.enabled:
                        audit.emit(
                            "flag_read", key=key, node=self.node_id,
                            lock_ref=lock_ref, flag=flag, started_ms=grant_started,
                        )
                    if flag or self.config.always_sync:
                        yield from self._synchronize(key, lock_ref)
                    if fast_capable:
                        # flag=False now holds at quorum (read clean or
                        # just re-established by the sync); remember the
                        # peek-time epoch as the evidence horizon.
                        self._flag_epoch[key] = epoch
                        self.obs.metrics.counter(
                            "music.fastpath.misses", node=self.node_id
                        ).inc()

                start_time = self.clock.now()
                yield from self.lock_store.set_start_time(key, lock_ref, start_time)
            self._leases[(key, lock_ref)] = start_time
            if (
                self.config.read_leases
                and anchor_clock is not None
                and self.lease_manager.anchor_allowed(lock_ref, flag_stamp)
            ):
                self.lease_manager.anchor(key, lock_ref, anchor_clock)
            span.set(granted=True)
            audit = self.obs.audit
            if audit.enabled:
                audit.emit(
                    "grant", key=key, node=self.node_id,
                    lock_ref=lock_ref, flag=flag, fast=fast,
                )
            self._record("acquireLock.grant", grant_started)
            return True

    def _fast_path_valid(self, key: str, epoch: Any) -> bool:
        """True when the cached flag epoch proves the grant-time quorum
        flag read can be skipped (see DESIGN.md §9 for the argument)."""
        cached = self._flag_epoch.get(key, _NO_EPOCH)
        return cached is not _NO_EPOCH and cached == epoch

    def _synchronize(self, key: str, lock_ref: int) -> Generator[Any, Any, None]:
        """Re-establish 'the data store is defined as the true value'.

        A previous lockholder died mid-criticalPut, so the store may
        hold the old or the new value at fewer than a quorum of
        replicas.  A quorum read may or may not catch the in-flight
        write; either way its result is re-written under the *new*
        lockRef's stamp, resolving the non-determinism in the definition
        of the true value (Section III-A) and overriding any still-
        propagating writes from the preempted lockholder.
        """
        self.counters["syncs"] += 1
        self.obs.metrics.counter("music.syncs", node=self.node_id).inc()
        with self.obs.tracer.span(
            "music.synchronize", node=self.node_id, site=self.site, key=key
        ):
            yield from self._synchronize_body(key, lock_ref)

    def _synchronize_body(self, key: str, lock_ref: int) -> Generator[Any, Any, None]:
        value_rows = yield from self.coordinator.get(
            self.data_table, key, clustering=VALUE_ROW, consistency=Consistency.QUORUM
        )
        current = None
        if VALUE_ROW in value_rows:
            current = value_rows[VALUE_ROW].visible_values().get("value")
        yield from self.coordinator.put(
            self.data_table, key, VALUE_ROW, {"value": current},
            self._stamp(lock_ref, 0.0), consistency=Consistency.QUORUM,
        )
        audit = self.obs.audit
        if audit.enabled:
            audit.emit(
                "sync", key=key, node=self.node_id, lock_ref=lock_ref,
                stamp=self._stamp(lock_ref, 0.0), value=current,
            )
        yield from self.coordinator.put(
            self.data_table, key, SYNCH_ROW, {"flag": False},
            self._stamp(lock_ref, _TICK), consistency=Consistency.QUORUM,
        )
        if audit.enabled:
            audit.emit(
                "flag_write", key=key, node=self.node_id, lock_ref=lock_ref,
                stamp=self._stamp(lock_ref, _TICK), flag=False, reason="sync",
            )

    # -- criticalPut (cost: value quorum write) ----------------------------------

    def critical_put(self, key: str, lock_ref: int, value: Any) -> Generator[Any, Any, bool]:
        """Write the latest value of ``key`` as the current lockholder."""
        started = self.sim.now
        with self.obs.tracer.span(
            "music.criticalPut", node=self.node_id, site=self.site, key=key
        ) as span:
            proceed = yield from self._guard(key, lock_ref)
            if not proceed:
                span.set(guarded=True)
                return False
            offset = yield from self._lease_offset(key, lock_ref)
            yield from self.coordinator.put(
                self.data_table, key, VALUE_ROW, {"value": value},
                self._stamp(lock_ref, offset), consistency=Consistency.QUORUM,
            )
            self.last_put_stamp = self._stamp(lock_ref, offset)
            audit = self.obs.audit
            if audit.enabled:
                audit.emit(
                    "critical_put", key=key, node=self.node_id,
                    lock_ref=lock_ref, stamp=self._stamp(lock_ref, offset),
                    value=value,
                )
            if self.config.read_leases:
                self._write_through(key, lock_ref, value,
                                    self._stamp(lock_ref, offset))
        self._record("criticalPut", started)
        return True

    def critical_delete(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """Delete the value of ``key`` as the lockholder (Section VI's
        criticalPut-companion delete; same guards and stamping)."""
        started = self.sim.now
        with self.obs.tracer.span(
            "music.criticalDelete", node=self.node_id, site=self.site, key=key
        ) as span:
            proceed = yield from self._guard(key, lock_ref)
            if not proceed:
                span.set(guarded=True)
                return False
            offset = yield from self._lease_offset(key, lock_ref)
            yield from self.coordinator.put(
                self.data_table, key, VALUE_ROW, {"value": None},
                self._stamp(lock_ref, offset), consistency=Consistency.QUORUM,
            )
            audit = self.obs.audit
            if audit.enabled:
                audit.emit(
                    "critical_put", key=key, node=self.node_id,
                    lock_ref=lock_ref, stamp=self._stamp(lock_ref, offset),
                    value=None,
                )
            if self.config.read_leases:
                self._write_through(key, lock_ref, None,
                                    self._stamp(lock_ref, offset))
        self._record("criticalDelete", started)
        return True

    def _write_through(self, key: str, lock_ref: int, value: Any,
                       stamp: Tuple[float, str]) -> None:
        """Mirror an acknowledged critical write into the lease view and
        the bounded-staleness cache, and expose its stamp as the
        client-side session watermark."""
        self.lease_manager.fill(key, lock_ref, value, stamp)
        self.read_cache.fill(key, value, stamp, self.sim.now)
        self.last_put_stamp = stamp

    # -- criticalGet (cost: value quorum read) -----------------------------------

    def critical_get(
        self, key: str, lock_ref: int,
        min_stamp: Optional[Tuple[float, str]] = None,
    ) -> Generator[Any, Any, Tuple[bool, Any]]:
        """Read the latest (true) value of ``key`` as the lockholder.

        Returns ``(True, value)`` on success, ``(False, None)`` when the
        caller should retry (local queue not caught up yet).

        With ``read_leases`` on, the read is served from the local lease
        mirror while the holder's lease window is provably inside the
        ECF window; ``min_stamp`` is the client's session watermark (the
        stamp of its last acknowledged critical write to this key) — a
        lease serve must be at least that fresh, so a failover to a
        replica with a stale mirror falls through to the quorum.
        """
        started = self.sim.now
        with self.obs.tracer.span(
            "music.criticalGet", node=self.node_id, site=self.site, key=key
        ) as span:
            if self.config.read_leases:
                result = yield from self._leased_critical_get(
                    key, lock_ref, min_stamp, span
                )
                self._record("criticalGet", started)
                return result
            proceed = yield from self._guard(key, lock_ref)
            if not proceed:
                span.set(guarded=True)
                return (False, None)
            rows = yield from self.coordinator.get(
                self.data_table, key, clustering=VALUE_ROW, consistency=Consistency.QUORUM
            )
            value = None
            stamp = None
            if VALUE_ROW in rows:
                value = rows[VALUE_ROW].visible_values().get("value")
                stamp = rows[VALUE_ROW].cell_stamp("value")
            self.last_get_stamp = stamp
            audit = self.obs.audit
            if audit.enabled:
                audit.emit(
                    "critical_get", key=key, node=self.node_id,
                    lock_ref=lock_ref, value=value,
                )
        self._record("criticalGet", started)
        return (True, value)

    def _leased_critical_get(
        self, key: str, lock_ref: int,
        min_stamp: Optional[Tuple[float, str]], span: Any,
    ) -> Generator[Any, Any, Tuple[bool, Any]]:
        """criticalGet with the leaseholder local-read tier in front.

        The guard peek doubles as the revocation check: it reads the
        key's lock partition (same local RPC as ``_peek``) and also
        returns the lease-revocation marker the forcedRelease LWT wrote,
        so a revoked lease can never satisfy the serve below.
        """
        entry, revoked = yield from self.lock_store.peek_with_lease(key)
        if revoked is not None:
            self.lease_manager.revoke_up_to(key, revoked)
        if entry is None or lock_ref > entry.lock_ref:
            span.set(guarded=True)
            return (False, None)
        if lock_ref < entry.lock_ref:
            raise NotLockHolder(
                f"lockRef {lock_ref} on {key!r} was forcibly released"
            )
        view = self.lease_manager.view(key, lock_ref)
        if self._lease_serviceable(view, min_stamp):
            self.last_get_stamp = view.value_stamp
            self.counters["lease_hits"] += 1
            self.obs.metrics.counter("music.lease.hits", node=self.node_id).inc()
            audit = self.obs.audit
            if audit.enabled:
                audit.emit(
                    "lease_read", key=key, node=self.node_id,
                    lock_ref=lock_ref, stamp=view.value_stamp, value=view.value,
                )
            span.set(lease=True)
            return (True, view.value)
        self.counters["lease_misses"] += 1
        self.obs.metrics.counter("music.lease.misses", node=self.node_id).inc()
        # Quorum read-through of the whole partition: the value row
        # serves the read and the synchFlag row is the revocation
        # evidence that lets the same round re-anchor the lease.
        anchor_clock = self.clock.now()
        rows = yield from self.coordinator.get(
            self.data_table, key, consistency=Consistency.QUORUM
        )
        value = None
        value_stamp = None
        if VALUE_ROW in rows:
            value = rows[VALUE_ROW].visible_values().get("value")
            value_stamp = rows[VALUE_ROW].cell_stamp("value")
        self.last_get_stamp = value_stamp
        flag_stamp = None
        if SYNCH_ROW in rows:
            flag_stamp = rows[SYNCH_ROW].cell_stamp("flag")
        audit = self.obs.audit
        if audit.enabled:
            audit.emit(
                "critical_get", key=key, node=self.node_id,
                lock_ref=lock_ref, value=value,
            )
        if self.lease_manager.anchor_allowed(lock_ref, flag_stamp):
            self.lease_manager.anchor(key, lock_ref, anchor_clock)
            self.lease_manager.fill(key, lock_ref, value, value_stamp)
        return (True, value)

    def _lease_serviceable(
        self, view: Any, min_stamp: Optional[Tuple[float, str]]
    ) -> bool:
        """Whether a lease view may answer criticalGet locally: it must
        hold a mirrored value at least as fresh as the caller's session
        watermark, inside a window that outlasts now plus clock skew."""
        if view is None or not view.has_value:
            return False
        if min_stamp is not None and (
            view.value_stamp is None or view.value_stamp < min_stamp
        ):
            return False
        return self.lease_manager.window_open(view, self.clock.now())

    def _peek(self, key: str) -> Generator[Any, Any, Any]:
        """lsPeek — local by default; quorum under the ablation knob."""
        if self.config.peek_quorum:
            entry = yield from self.lock_store.peek_quorum(key)
        else:
            entry = yield from self.lock_store.peek(key)
        return entry

    def _guard(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """The shared lockRef-vs-queue-head guard of the critical ops."""
        entry = yield from self._peek(key)
        if entry is None or lock_ref > entry.lock_ref:
            return False
        if lock_ref < entry.lock_ref:
            raise NotLockHolder(f"lockRef {lock_ref} on {key!r} was forcibly released")
        return True

    def _lease_offset(self, key: str, lock_ref: int) -> Generator[Any, Any, float]:
        """Time since this lockRef's grant; raises once the lease T expires."""
        start_time = self._leases.get((key, lock_ref))
        if start_time is None:
            entry = yield from self.lock_store.get_entry(key, lock_ref)
            if entry is None or entry.start_time is None:
                entry = yield from self.lock_store.get_entry(
                    key, lock_ref, consistency=Consistency.QUORUM
                )
            if entry is not None and entry.start_time is not None:
                start_time = entry.start_time
            else:
                # No recorded grant reachable (e.g. the startTime write
                # lost a stamp race under heavy clock skew, a hazard the
                # production system shares by mixing LWT and non-LWT
                # writes in the lock table).  Lease enforcement is
                # advisory: start the lease now rather than failing the
                # lockholder; the queue-head guard still gates access.
                start_time = self.clock.now()
            self._leases[(key, lock_ref)] = start_time
        offset = self.clock.now() - start_time
        if offset >= self.config.period_ms:
            raise LeaseExpired(
                f"critical section for lockRef {lock_ref} on {key!r} exceeded "
                f"T={self.config.period_ms}ms"
            )
        return max(offset, _TICK)

    # -- releaseLock (cost: lockRef consensus write) --------------------------------

    def release_lock(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        started = self.sim.now
        with self.obs.tracer.span(
            "music.releaseLock", node=self.node_id, site=self.site, key=key
        ):
            entry = yield from self.lock_store.peek(key)
            if entry is not None and lock_ref < entry.lock_ref:
                return True  # lock was already forcibly released
            # With push grants on, waiters are notified the moment the
            # dequeue is *decided* (proposal accepted), overlapping the
            # wake-up with the commit round's WAN acks — the push is
            # advisory, so a waiter that polls too early just polls again.
            # The audit event must fire at the same decide point: a
            # push-woken successor can be granted during the commit
            # round, and the auditor linearizes by event order.
            # The same peek names the successor (None when this replica
            # does not see us at the head with someone queued behind).
            successor = None
            if entry is not None and entry.lock_ref == lock_ref:
                successor = entry.next_ref
            push = self._push_hook(key, successor)
            audit = self.obs.audit
            decided_seen = []

            def decided() -> None:
                decided_seen.append(True)
                if audit.enabled:
                    audit.emit(
                        "release", key=key, node=self.node_id, lock_ref=lock_ref
                    )
                if push is not None:
                    push()

            yield from self.lock_store.dequeue(
                key, lock_ref, on_committing=decided
            )
            if not decided_seen:
                # Another coordinator's recovery decided the dequeue (or
                # the row was already gone): the successor still needs
                # its push, or it would sit out its fallback poll timer.
                if audit.enabled:
                    audit.emit(
                        "release", key=key, node=self.node_id, lock_ref=lock_ref
                    )
                if push is not None:
                    push()
        if self.config.read_leases:
            self.lease_manager.revoke(key)
        self._leases.pop((key, lock_ref), None)
        self._record("releaseLock", started)
        return True

    # -- forcedRelease (internal; cost: flag quorum write + consensus write) ---------

    def forced_release(self, key: str, lock_ref: int) -> Generator[Any, Any, bool]:
        """Preempt a (presumed failed) lockholder.

        The synchFlag is set under a ``lockRef + δ`` stamp and the
        quorum write *completes before* the dequeue, so the next
        lockholder's flag read is guaranteed to see it; δ < 1 ensures
        the next lockholder's own flag reset still wins (Section IV-B).
        """
        entry = yield from self.lock_store.peek(key)
        if entry is not None and lock_ref < entry.lock_ref:
            return True  # previously released
        self.counters["forced_releases"] += 1
        self.obs.metrics.counter("music.forced_releases", node=self.node_id).inc()
        with self.obs.tracer.span(
            "music.forcedRelease", node=self.node_id, site=self.site, key=key
        ):
            forced_stamp = self._stamp(lock_ref + self.config.delta, 0.0)
            yield from self.coordinator.put(
                self.data_table, key, SYNCH_ROW, {"flag": True},
                forced_stamp, consistency=Consistency.QUORUM,
            )
            audit = self.obs.audit
            if audit.enabled:
                audit.emit(
                    "flag_write", key=key, node=self.node_id,
                    lock_ref=lock_ref, stamp=forced_stamp, flag=True,
                    reason="forced",
                )
            # Under the fast path the dequeue also bumps the key's
            # forced-release epoch marker (atomically, same LWT) so
            # cached flag epochs elsewhere go stale.  Our own cache is
            # dropped regardless: this replica just wrote flag=True.
            self._flag_epoch.pop(key, None)
            if self.config.read_leases:
                # ECF-window wait-out (DESIGN.md §10): the flag write
                # above has acknowledged at quorum, so from here on no
                # read can anchor a fresh lease for the preempted era
                # (quorum intersection shows it the revocation stamp).
                # Sleeping the full window plus the drift margin before
                # the dequeue guarantees every lease anchored *before*
                # the ack has expired by the time a successor can be
                # granted — local lease reads never outlive the ECF
                # window even under false failure detection.
                self.lease_manager.revoke(key)
                yield self.sim.timeout(
                    self.config.read_lease_ms
                    + 2.0 * self.config.lease_clock_skew_bound_ms
                )
            push = self._push_hook(key, None)
            decided_seen = []

            def decided() -> None:
                decided_seen.append(True)
                if audit.enabled:
                    audit.emit(
                        "forced_release", key=key, node=self.node_id,
                        lock_ref=lock_ref, stamp=forced_stamp,
                    )
                if push is not None:
                    push()

            yield from self.lock_store.dequeue(
                key, lock_ref,
                forced=self.config.synch_fast_path or self.config.read_leases,
                on_committing=decided,
            )
            if not decided_seen:
                if audit.enabled:
                    audit.emit(
                        "forced_release", key=key, node=self.node_id,
                        lock_ref=lock_ref, stamp=forced_stamp,
                    )
                if push is not None:
                    push()
        return True

    # -- push-based grant notification (DESIGN.md §9) -----------------------------

    def _push_hook(self, key: str, successor: Optional[int]):
        """The dequeue's decided-hook when push grants are on, else None
        (None keeps the default path free of even closure allocation).
        ``successor`` is the release's next-holder hint (None: unknown)."""
        if not self.config.push_grants:
            return None
        return lambda: self._push_release(key, successor)

    def subscribe_release(self, key: str, lock_ref: int):
        """An Event succeeding at the first observed dequeue of ``key``
        that may make ``lock_ref`` queue head."""
        event = self.sim.event(name=f"grantPush:{key}")
        self._release_waiters.setdefault(key, []).append((lock_ref, event))
        return event

    def unsubscribe_release(self, key: str, event) -> None:
        waiters = self._release_waiters.get(key)
        if not waiters:
            return
        for index, (_, waiting) in enumerate(waiters):
            if waiting is event:
                del waiters[index]
                if not waiters:
                    del self._release_waiters[key]
                return

    def add_release_listener(self, callback: Callable[[str], None]) -> None:
        """Register a service-layer hook called with the key on every
        release push this replica observes (e.g. portal owner-cache
        invalidation)."""
        self._release_listeners.append(callback)

    def _notify_release(self, key: str, successor: Optional[int]) -> None:
        """Run the release listeners, then wake the waiters the release
        may have made queue head: those whose lockRef is at most the
        ``successor`` hint (everyone when it is None).  The hint comes
        from the releaser's local view: a view that lags on mints only
        makes it too large, so the true head is at or below it, and refs
        below the head were preempted and wake to learn so.  A waiter a
        stale hint misses still has its poll timer (DESIGN.md §9)."""
        for listener in self._release_listeners:
            listener(key)
        waiters = self._release_waiters.pop(key, None)
        if not waiters:
            return
        parked = []
        for lock_ref, event in waiters:
            if successor is None or lock_ref <= successor:
                if not event.triggered:
                    event.succeed(True)
            else:
                parked.append((lock_ref, event))
        if parked:
            self._release_waiters[key] = parked

    def _on_grant_push(self, msg) -> None:
        key = msg.body["key"]
        if self.config.read_leases:
            self._lease_invalidate(key)
        self._notify_release(key, msg.body.get("next"))

    def _push_release(self, key: str, successor: Optional[int]) -> None:
        """Wake local waiters and nudge sibling replicas (best-effort
        one-way sends: a lost push only means the waiter falls back to
        its poll timer)."""
        self.obs.metrics.counter("music.push.notifies", node=self.node_id).inc()
        if self.config.read_leases:
            self._lease_invalidate(key)
        self._notify_release(key, successor)
        for peer in self.peer_ids:
            self.send(peer, "music.grantPush", {"key": key, "next": successor})

    def _lease_invalidate(self, key: str) -> None:
        """Invalidate lease + cached reads for a key whose critical
        section just ended (push grant observed).  The audit receipt is
        emitted *before* the drop, so an implementation that loses the
        drop still leaves the evidence MonotonicReads checks against."""
        audit = self.obs.audit
        if audit.enabled:
            audit.emit("lease_invalidate", key=key, node=self.node_id)
        self.lease_manager.revoke(key)
        self._drop_cached_reads(key)

    def _drop_cached_reads(self, key: str) -> None:
        # Kept separate from the audit receipt above so mutation tests
        # can no-op exactly the cache drop.
        if self.read_cache.invalidate(key):
            self.counters["cache_invalidations"] += 1
            self.obs.metrics.counter(
                "music.cache.invalidations", node=self.node_id
            ).inc()

    # -- unlocked convenience ops (Section VI, "Additional Functions") ---------------

    def put(self, key: str, value: Any) -> Generator[Any, Any, None]:
        """Eventual write with no ECF guarantees (stamped below any CS write)."""
        now = self.clock.now()
        if now >= self.config.period_ms:
            raise OverflowError(
                "unlocked put past T would break v2s ordering; raise period_ms"
            )
        stamp = (v2s(VectorTimestamp(UNLOCKED_LOCK_REF, now), self.config.period_ms),
                 self.node_id)
        yield from self.coordinator.put(
            self.data_table, key, VALUE_ROW, {"value": value}, stamp,
            consistency=Consistency.ONE,
        )

    def get(self, key: str) -> Generator[Any, Any, Any]:
        """Eventual read (possibly stale) with no ECF guarantees."""
        rows = yield from self.coordinator.get(
            self.data_table, key, clustering=VALUE_ROW, consistency=Consistency.ONE
        )
        if VALUE_ROW not in rows:
            return None
        return rows[VALUE_ROW].visible_values().get("value")

    def quorum_get(
        self, key: str
    ) -> Generator[Any, Any, Tuple[Any, Optional[Tuple[float, str]]]]:
        """Quorum read of ``(value, stamp)`` with no lock guard.

        The optimistic transaction engines (``repro.txn``) use this for
        snapshot/read-set reads: they need the version *stamp* of what
        they saw (to validate against at commit) but hold no lock, so
        the criticalGet guard does not apply.
        """
        rows = yield from self.coordinator.get(
            self.data_table, key, clustering=VALUE_ROW, consistency=Consistency.QUORUM
        )
        value = None
        stamp = None
        if VALUE_ROW in rows:
            value = rows[VALUE_ROW].visible_values().get("value")
            stamp = rows[VALUE_ROW].cell_stamp("value")
        self.last_get_stamp = stamp
        return (value, stamp)

    def quorum_put(
        self, key: str, value: Any, stamp: Tuple[float, str]
    ) -> Generator[Any, Any, None]:
        """Quorum write under a caller-supplied stamp, no lock guard.

        The transaction engines mint their own monotonic stamps (from a
        commit sequence, or from the epoch sealer's CS lockRef space)
        and install validated writes through this path — same store
        machinery as criticalPut, different fencing discipline.
        """
        yield from self.coordinator.put(
            self.data_table, key, VALUE_ROW, {"value": value}, stamp,
            consistency=Consistency.QUORUM,
        )
        self.last_put_stamp = stamp

    def get_bounded(
        self, key: str, staleness_ms: float
    ) -> Generator[Any, Any, CachedRead]:
        """Bounded-staleness read (``read_leases`` tier, Section VI++).

        A cache hit within the caller's staleness bound is served
        instantly from this replica's read cache (no store RPC at all);
        a miss does a nearest-replica read-through and fills the cache.
        Invalidation piggybacks on push grants (:meth:`_lease_invalidate`),
        so cached values survive at most the push latency past the
        critical section that overwrote them — and never the bound.
        """
        entry = self.read_cache.lookup(key, self.sim.now, staleness_ms)
        if entry is not None:
            self.counters["cache_hits"] += 1
            self.obs.metrics.counter("music.cache.hits", node=self.node_id).inc()
            return CachedRead(entry.value, entry.stamp, entry.fetched_ms,
                              hit=True, node=self.node_id)
        self.counters["cache_misses"] += 1
        self.obs.metrics.counter("music.cache.misses", node=self.node_id).inc()
        rows = yield from self.coordinator.get(
            self.data_table, key, clustering=VALUE_ROW, consistency=Consistency.ONE
        )
        value = None
        stamp = None
        if VALUE_ROW in rows:
            value = rows[VALUE_ROW].visible_values().get("value")
            stamp = rows[VALUE_ROW].cell_stamp("value")
        fetched = self.sim.now
        self.read_cache.fill(key, value, stamp, fetched)
        return CachedRead(value, stamp, fetched, hit=False, node=self.node_id)

    def get_all_keys(self, table: Optional[str] = None) -> Generator[Any, Any, list]:
        """All keys of the data table (eventual; used by job schedulers)."""
        keys = yield from self.coordinator.scan_keys(table or self.data_table)
        return keys
