"""Property: every driver of the kernel's dispatch loop sees one order.

``run()``, chunked ``run(until=...)``, ``run_until_complete`` and a run
with the self-profiler installed all go through the same loop, so a
random mix of scheduled work must dispatch in the same sequence, end at
the same ``now`` and make the same number of heap pushes under each.

A program is a forest of actions.  Each action is scheduled one of four
ways — a ``_push_call`` delay (zero or future), a ``call_at`` (past,
present or future), a callback on an event that is succeeded at once,
or a callback on a ``timeout`` — and, when it runs, logs ``(id, now)``
and schedules its children the same way.
"""

import itertools
import math

from hypothesis import given, settings, strategies as st

from repro.obs.prof import SimProfiler
from repro.sim import Simulator

CHUNK_MS = 0.75
DELAYS = [0.0, 0.0, 0.5, 1.0, 1.0, 2.5]

schedules = st.one_of(
    st.tuples(st.just("push"), st.sampled_from(DELAYS)),
    # Offsets from the scheduling instant; negatives lie in the past.
    st.tuples(st.just("call_at"), st.sampled_from([-3.0, -0.5, 0.0, 1.0, 2.5])),
    st.tuples(st.just("event"), st.just(0.0)),
    st.tuples(st.just("timeout"), st.sampled_from(DELAYS)),
)

forests = st.lists(
    st.recursive(
        st.tuples(schedules, st.just([])),
        lambda children: st.tuples(schedules, st.lists(children, max_size=3)),
        max_leaves=12,
    ),
    min_size=1,
    max_size=6,
)


def _number(forest, counter):
    """``[(id, how, offset, children)]`` in preorder."""
    return [
        (next(counter), how, offset, _number(children, counter))
        for (how, offset), children in forest
    ]


def _walk(nodes):
    for node in nodes:
        yield node
        yield from _walk(node[3])


def _run_program(nodes, driver):
    sim = Simulator()
    profiler = SimProfiler().install(sim) if driver == "profiled" else None
    log = []
    total = sum(1 for _ in _walk(nodes))
    done = sim.event("done")

    def fire(node):
        log.append((node[0], sim.now))
        schedule(node[3])
        if len(log) == total:
            done.succeed()

    def schedule(children):
        for node in children:
            how, offset = node[1], node[2]
            if how == "push":
                sim._push_call(offset, fire, node)
            elif how == "call_at":
                sim.call_at(sim.now + offset, lambda node=node: fire(node))
            elif how == "event":
                event = sim.event()
                event.add_callback(lambda _event, node=node: fire(node))
                event.succeed()
            else:
                sim.timeout(offset).add_callback(lambda _event, node=node: fire(node))

    schedule(nodes)
    if driver == "chunked":
        while sim._ready or sim._heap:
            sim.run(until=sim.now + CHUNK_MS)
    elif driver == "until_complete":
        sim.run_until_complete(done)
    else:
        sim.run()
    if profiler is not None:
        # One dispatch per action, plus the fire of each timeout.
        timeouts = sum(1 for node in _walk(nodes) if node[1] == "timeout")
        assert profiler.events == total + timeouts
    return log, sim.now, sim._seq


@settings(max_examples=150, deadline=None)
@given(forest=forests)
def test_every_driver_dispatches_in_the_same_order(forest):
    nodes = _number(forest, itertools.count())
    reference_log, reference_now, reference_seq = _run_program(nodes, "run")
    assert sorted(ident for ident, _now in reference_log) == list(range(len(reference_log)))
    assert [now for _ident, now in reference_log] == sorted(now for _ident, now in reference_log)
    assert reference_now == reference_log[-1][1]
    for driver in ("chunked", "until_complete", "profiled"):
        log, now, seq = _run_program(nodes, driver)
        assert log == reference_log, driver
        assert seq == reference_seq, driver
        if driver == "chunked":
            # run(until) pads `now` to the end of its last chunk.  Every
            # time here is a multiple of 0.5, so the sums stay exact.
            assert now == max(1, math.ceil(reference_now / CHUNK_MS)) * CHUNK_MS
        else:
            assert now == reference_now, driver
