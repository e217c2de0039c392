"""Message fabric: scheduling, fault injection, determinism.

Processes in these tests are tiny hand-written generators; the replay
oracle for delivery timing recomputes expected (time, payload) pairs
from first principles instead of trusting the scheduler.
"""

import copy
import dataclasses
import gc
import heapq
import random
import weakref
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from votingfarm import fabric, wire
from votingfarm.core import VotingFarmError
from votingfarm.scenario import resolve_scenario, run_scenario
from votingfarm.fabric import (
    _BLOCK,
    _FULL_TAIL,
    Endpoint,
    Exit,
    FaultSpec,
    Recv,
    Send,
    Simulator,
    Sleep,
    TIMEOUT,
    TimeInPast,
    TraceEvent,
    TraceLog,
)

A = Endpoint(1, "user")
B = Endpoint(2, "user")


def make_pair(seed=0, delivery_delay=0, jitter=0):
    sim = Simulator(seed=seed, delivery_delay=delivery_delay, jitter=jitter)
    sim.add_endpoint(A)
    sim.add_endpoint(B)
    sim.add_link(A, B)
    return sim


# A test message traced as an input: a tag to tell messages apart, and a payload.
Tagged = wire._message("Input", "tag", payload=b"")


def msg(tag, payload=b""):
    return Tagged(tag, payload)


def sender_of(messages, to=B, gap=0):
    def run(proc):
        for m in messages:
            yield Send(to, m)
            if gap:
                yield Sleep(gap)
    return run


@contextmanager
def queue_log():
    """Note every entry the fabric queues and pops, as (t, seq, tag, data)."""
    log = {"queued": [], "popped": []}

    class Queue:
        @staticmethod
        def heappush(heap, entry):
            log["queued"].append(entry)
            heapq.heappush(heap, entry)

        @staticmethod
        def heappop(heap):
            entry = heapq.heappop(heap)
            log["popped"].append(entry)
            return entry

    with mock.patch.object(fabric, "heapq", Queue):
        yield log


def sink(received, n):
    def run(proc):
        for _ in range(n):
            _, frame = yield Recv(None)
            received.append((proc.now, frame.tag))
    return run


# -- basics -------------------------------------------------------------------

def test_send_receive_and_quiescence():
    sim = make_pair()
    received = []
    sim.spawn(sender_of([msg("a"), msg("b")]), A)
    sim.spawn(sink(received, 2), B)
    sim.run_until_quiescent()
    assert sim.quiescent
    assert [tag for _, tag in received] == ["a", "b"]


def test_empty_system_is_quiescent_with_empty_trace():
    sim = Simulator()
    trace = sim.run_until_quiescent()
    assert sim.quiescent and len(trace) == 0 and trace.text() == ""


def test_recv_timeout_returns_sentinel():
    sim = make_pair()
    seen = []

    def waiter(proc):
        got = yield Recv(5)
        seen.append((proc.now, got))

    sim.spawn(waiter, B)
    sim.run_until_quiescent()
    assert seen == [(5, TIMEOUT)]
    assert sim.trace.count("timeout") == 1


def test_sleep():
    sim = make_pair()
    woke = []

    def napper(proc):
        yield Sleep(7)
        woke.append(proc.now)

    sim.spawn(napper, A)
    sim.run_until_quiescent()
    assert woke == [7]


def test_exit_retires_endpoint():
    sim = make_pair()

    def quitter(proc):
        yield Exit()

    sim.spawn(quitter, A)
    sim.run_until_quiescent()
    assert not sim.endpoint_alive(A)
    assert sim.trace.count("exit", contains="closed") == 1


def test_second_spawn_on_a_running_endpoint_is_rejected():
    sim = make_pair()

    def forever(proc):
        yield Recv(None)

    sim.spawn(forever, A)
    with pytest.raises(VotingFarmError, match="already runs"):
        sim.spawn(forever, A)
    sim.run_until_quiescent()
    with pytest.raises(VotingFarmError, match="already runs"):
        sim.spawn(forever, A)  # still blocked in Recv, still running


def test_spawn_again_after_the_process_finished():
    sim = make_pair()
    received = []

    def one_shot(proc):
        yield Sleep(1)

    first = sim.spawn(one_shot, B)
    sim.run_until_quiescent()
    assert first.finished
    second = sim.spawn(sink(received, 1), B)
    sim.spawn(sender_of([msg("after")]), A)
    sim.run_until_quiescent()
    assert second is not first and second.finished
    assert [tag for _, tag in received] == ["after"]


def test_spawn_again_after_crash_and_revive():
    sim = make_pair()
    received = []

    def forever(proc):
        yield Recv(None)

    crashed = sim.spawn(forever, B)
    sim.run_until_quiescent()
    sim.crash_endpoint(B)
    sim.revive_endpoint(B)
    revived = sim.spawn(sink(received, 1), B)
    sim.spawn(sender_of([msg("revived")]), A)
    sim.run_until_quiescent()
    assert not crashed.finished and revived.finished
    assert [tag for _, tag in received] == ["revived"]


def test_proc_finished_tracks_normal_completion():
    sim = make_pair()

    def one_shot(proc):
        yield Sleep(1)

    def forever(proc):
        yield Recv(None)

    done = sim.spawn(one_shot, A)
    stuck = sim.spawn(forever, B)
    assert not done.finished
    sim.run_until_quiescent()
    assert done.finished
    assert not stuck.finished


def test_finished_and_crashed_processes_are_forgotten():
    sim = make_pair()
    refs = []

    def tracked(body):
        def start(proc):
            gen = body(proc)
            refs.append(weakref.ref(gen))
            return gen
        return start

    def one_shot(proc):
        yield Sleep(1)

    def forever(proc):
        yield Recv(None)

    sim.spawn(tracked(one_shot), A)
    sim.spawn(tracked(forever), B)
    sim.run_until_quiescent()
    sim.crash_endpoint(B)
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_max_time_stops_the_run():
    sim = make_pair()

    def pingpong(proc):
        while True:
            yield Sleep(10)

    sim.spawn(pingpong, A)
    sim.run_until_quiescent(max_time=35)
    assert not sim.quiescent
    assert sim.trace.max_time_exceeded


@pytest.mark.parametrize("waits", [[100], [100, None]], ids=["finished", "untimed_rewait"])
def test_a_timer_of_a_wait_that_ended_does_not_hold_the_run_open(waits):
    # The timed wait ends at t=1, then the process finishes or waits
    # with no deadline; its timer at t=100 stays queued but cannot fire.
    sim = make_pair(delivery_delay=1)
    seen = []
    sim.spawn(waiter_log(waits, seen), B)
    sim.spawn(sender_of([msg("m")]), A)
    sim.run_until_quiescent(max_time=50)
    assert seen == [(1, "m")]
    assert sim.quiescent
    assert not sim.trace.max_time_exceeded


def test_an_unwoken_wait_beyond_max_time_exceeds_it():
    sim = make_pair()
    seen = []
    sim.spawn(waiter_log([100], seen), B)
    sim.run_until_quiescent(max_time=50)
    assert seen == []
    assert not sim.quiescent
    assert sim.trace.max_time_exceeded
    sim.run_until_quiescent()
    assert seen == [(100, TIMEOUT)] and sim.quiescent


# -- timers -------------------------------------------------------------------

def waiter_log(timeouts, seen):
    """A process that waits once per given timeout and logs what it got."""
    def run(proc):
        for timeout in timeouts:
            got = yield Recv(timeout)
            seen.append((proc.now, got if got is TIMEOUT else got[1].tag))
    return run


@pytest.mark.parametrize("timer_first", [True, False])
def test_a_timeout_and_a_delivery_at_the_same_tick_resolve_by_creation_order(timer_first):
    # The message leaves at t=0 and lands at t=5, exactly when the wait
    # expires; whichever of the two was created first wins the tick.
    sim = make_pair(delivery_delay=5)
    seen = []
    procs = [(waiter_log([5, 5], seen), B), (sender_of([msg("m")]), A)]
    for fn, ep in procs if timer_first else procs[::-1]:
        sim.spawn(fn, ep)
    sim.run_until_quiescent()
    if timer_first:
        assert seen == [(5, TIMEOUT), (5, "m")]
    else:
        assert seen == [(5, "m"), (10, TIMEOUT)]


def test_a_shorter_rewait_fires_at_its_own_deadline():
    sim = make_pair()
    seen = []

    def late_sender(proc):
        yield Sleep(1)
        yield Send(B, msg("m"))
        yield Sleep(20)
        yield Send(B, msg("late"))

    queued = []

    def log_queue(proc):
        # What is queued while the third wait runs, before "late" lands.
        yield Sleep(15)
        queued.extend(entry[:3] for entry in sorted(proc.sim._heap))

    sim.spawn(waiter_log([10, 3, 30], seen), B)
    sim.spawn(late_sender, A)
    sim.spawn(log_queue, sim.add_endpoint(Endpoint(3, "user")))
    sim.run_until_quiescent()
    # The first wait's timer (t=10) is still queued when the second wait
    # asks for t=4.  When it pops, the third wait runs under its own
    # timer (t=34), so it is dropped and arms nothing.
    assert seen == [(1, "m"), (4, TIMEOUT), (21, "late")]
    assert sim.trace.count("timeout") == 1
    assert [(t, tag) for t, _, tag in queued] == [(21, "step"), (34, "timeout")]


def test_a_timed_wait_followed_by_an_untimed_one_never_times_out():
    sim = make_pair()
    seen = []
    sim.spawn(waiter_log([5, None], seen), B)
    sim.spawn(sender_of([msg("early"), msg("late")], gap=20), A)
    sim.run_until_quiescent()
    assert seen == [(0, "early"), (20, "late")]
    assert sim.trace.count("timeout") == 0


def test_a_process_crashed_while_waiting_leaves_no_timeout_to_its_successor():
    sim = make_pair()
    seen = []
    sim.spawn(waiter_log([5], seen), B)
    sim.inject(FaultSpec("crash", B, 2))
    sim.run_until_quiescent(max_time=2)
    sim.revive_endpoint(B)
    sim.spawn(waiter_log([10], seen), B)
    sim.run_until_quiescent()
    assert seen == [(12, TIMEOUT)]
    assert sim.trace.count("timeout") == 1


@pytest.mark.parametrize("timeout", [0, -2])
def test_a_negative_timeout_counts_as_zero(timeout):
    # The message was scheduled for t=3 before the wait started at t=3,
    # so a zero timeout expires after it lands; a negative one must not
    # expire in the past and jump ahead of it.
    sim = make_pair(delivery_delay=3)
    seen = []

    def late_waiter(proc):
        yield Sleep(3)
        got = yield Recv(timeout)
        seen.append((proc.now, got if got is TIMEOUT else got[1].tag))

    sim.spawn(late_waiter, B)
    sim.spawn(sender_of([msg("m")]), A)
    sim.run_until_quiescent()
    assert seen == [(3, "m")]


def test_recv_clamps_a_negative_timeout_when_it_is_built():
    assert [Recv(t).timeout for t in (None, -5, 0, 7)] == [None, 0, 0, 7]


def test_a_syscall_is_served_by_its_exact_class():
    # The scheduler dispatches on type(item): a subclass of a syscall is
    # an unknown item, so no isinstance chain runs per step.
    class LongSleep(Sleep):
        __slots__ = ()

    def sleeper(proc):
        yield LongSleep(3)

    sim = make_pair()
    p = sim.spawn(sleeper, A)
    sim.run_until_quiescent()
    assert not p.finished and sim.trace.count("proc-error", "unknown item") == 1


def run_watching_handlers(name):
    """Run a bundled scenario, recording what each call of the fabric's
    send and timer handlers did, and the trace of every simulator it
    ran (a latency assertion runs a second, fault-free simulation)."""
    traces, sent, expired = [], [], []
    run, handle_send, expire = Simulator.run_until_quiescent, Simulator._handle_send, Simulator._expire

    def watched_run(sim, *args):
        traces.append(sim.trace)
        return run(sim, *args)

    def watched_send(sim, p, item, i):
        before = sim.trace.count("send")
        done = handle_send(sim, p, item, i)
        sent.append(sim.trace.count("send") - before)
        return done

    def watched_expire(sim, p, timer):
        timeouts, queued = sim.trace.count("timeout"), len(sim._heap)
        expire(sim, p, timer)
        expired.append("fire" if sim.trace.count("timeout") > timeouts
                       else "re-arm" if len(sim._heap) > queued else "drop")

    with mock.patch.object(Simulator, "run_until_quiescent", autospec=True, side_effect=watched_run), \
            mock.patch.object(Simulator, "_handle_send", autospec=True, side_effect=watched_send), \
            mock.patch.object(Simulator, "_expire", autospec=True, side_effect=watched_expire):
        result = run_scenario(*resolve_scenario(name))
    assert result.passed
    return traces, sent, expired


@pytest.mark.parametrize("name", ["tmr_happy", "tmr_one_crash"])
def test_a_finished_send_and_a_stale_timer_are_handled_in_the_event_loop(name):
    # A popped send with no target left resumes its sender without a
    # _handle_send call, and a timer that can no longer fire is dropped
    # without an _expire call: every call of either does something.
    traces, sent, expired = run_watching_handlers(name)
    assert sent and min(sent) >= 1
    assert sum(sent) == sum(trace.count("send") for trace in traces)
    assert set(expired) <= {"fire", "re-arm"}
    assert expired.count("fire") == sum(trace.count("timeout") for trace in traces)
    if name == "tmr_happy":  # no send meets a dead peer, so each call issues one send
        assert len(sent) == traces[0].count("send") == 21 and expired == []
    else:
        assert expired.count("re-arm") == 2 and expired.count("fire") == 3


def test_a_waiting_process_keeps_one_timer():
    sim = make_pair()
    sizes = []

    def rewaiter(proc):
        for _ in range(1000):
            got = yield Recv(100)
            assert got is not TIMEOUT
            sizes.append(len(proc.sim._heap))

    def ticker(proc):
        for i in range(1000):
            yield Sleep(1)
            yield Send(B, msg(f"m{i}"))

    sim.spawn(rewaiter, B)
    sim.spawn(ticker, A)
    sim.run_until_quiescent()
    assert len(sizes) == 1000
    assert max(sizes) <= 3


# -- topology validation -------------------------------------------------------

def test_duplicate_endpoint_rejected():
    sim = make_pair()
    with pytest.raises(VotingFarmError):
        sim.add_endpoint(A)


def test_self_link_rejected():
    sim = make_pair()
    with pytest.raises(VotingFarmError):
        sim.add_link(A, A)


@pytest.mark.parametrize("call", [
    lambda sim, ep: sim.spawn(lambda proc: iter(()), ep),
    lambda sim, ep: sim.crash_endpoint(ep),
    lambda sim, ep: sim.revive_endpoint(ep),
    lambda sim, ep: sim.add_link(ep, A),
    lambda sim, ep: sim.add_link(A, ep),
    lambda sim, ep: sim.add_link(ep, Endpoint(8, "user")),  # both unknown: the first is named
], ids=["spawn", "crash", "revive", "link-from", "link-to", "link-both"])
def test_an_endpoint_never_added_is_named_by_no_such_endpoint(call):
    sim = make_pair()
    unknown = Endpoint(9, "voter", 9)
    with pytest.raises(fabric.NoSuchEndpoint) as exc:
        call(sim, unknown)
    assert str(exc.value) == str(unknown)
    assert sim.trace.text() == "" and not sim.has_endpoint(unknown) and sim.link_count("virtual") == 1


def test_send_without_link_ends_the_sender():
    sim = Simulator()
    sim.add_endpoint(A)
    sim.add_endpoint(B)

    def lonely(proc):
        yield Send(B, msg("x"))

    p = sim.spawn(lonely, A)
    sim.run_until_quiescent()
    assert sim.quiescent and not p.finished
    assert not sim.endpoint_alive(A) and sim.endpoint_alive(B)
    assert sim.trace.lines() == ["t=0 proc-error user@1 - NoSuchLink: no link user@1 -- user@2"]


def test_send_to_crashed_peer_without_link_is_dropped():
    sim = Simulator()
    sim.add_endpoint(A)
    sim.add_endpoint(B)
    sim.inject(FaultSpec("crash", B, 0))
    after = []

    def lonely(proc):
        yield Sleep(1)
        yield Send(B, msg("x"))
        after.append(proc.now)

    p = sim.spawn(lonely, A)
    sim.run_until_quiescent()
    assert after == [1]
    assert p.finished
    assert sim.trace.count("send") == 1
    assert sim.trace.count("drop", contains="dead endpoint") == 1


def test_send_to_an_endpoint_never_added_is_dropped():
    sim = Simulator()
    sim.add_endpoint(A)
    after = []

    def lonely(proc):
        yield Send(B, msg("x"))
        after.append(proc.now)

    p = sim.spawn(lonely, A)
    sim.run_until_quiescent()
    assert after == [0] and p.finished
    assert sim.trace.count("send") == 1
    assert sim.trace.count("drop", contains="dead endpoint") == 1


def test_endpoint_and_link_counts():
    sim = make_pair()
    assert sim.endpoint_count("user") == 2
    assert sim.link_count("virtual") == 1 and sim.link_count("local") == 0
    assert set(sim.all_endpoints(node=1)) == {A}


def test_a_link_holds_both_ways_and_its_kind_follows_the_nodes():
    sim = make_pair()  # A -- B, on nodes 1 and 2
    sim.add_link(B, A)  # re-adding does nothing
    assert sim.has_link(A, B) and sim.has_link(B, A)
    assert sim.link_count("virtual") == 1 and sim.link_count("local") == 0
    C = Endpoint(1, "voter", 1)
    sim.add_endpoint(C)
    assert not sim.has_link(A, C) and not sim.has_link(C, A)
    sim.add_link(C, A)  # same node
    assert sim.has_link(A, C)
    assert sim.link_count("virtual") == 1 and sim.link_count("local") == 1


def test_link_and_fifo_order_survive_crash_and_revive():
    sim = make_pair(delivery_delay=1)
    sim.inject(FaultSpec("delay", A, 0, delay=10))
    received = []
    sim.spawn(sender_of([msg("m0")]), A)  # lands at 11
    sim.spawn(sink(received, 2), B)
    sim.run_until_quiescent(max_time=2)
    sim.crash_endpoint(A)
    sim.revive_endpoint(A)
    assert sim.has_link(A, B)
    sim.spawn(sender_of([msg("m1")]), A)  # would land at 1 without the floor
    sim.run_until_quiescent()
    assert received == [(11, "m0"), (11, "m1")]


def test_equal_endpoints_resolve_to_the_registered_object():
    sim = make_pair()
    assert Endpoint(1, "user") is A
    assert Endpoint(1, "voter", 1) is not Endpoint(1, "voter", 2)
    assert copy.deepcopy(A) is A
    assert repr(A) == "Endpoint(node=1, role='user', member=None)"
    with pytest.raises(AttributeError):
        A.node = 2
    assert (A.node, A.name) == (1, "user@1")
    assert sim.has_endpoint(A) and not sim.has_endpoint(Endpoint(9, "user"))
    seen = []

    def whoami(proc):
        seen.append(proc.endpoint)
        yield Sleep(1)

    sim.spawn(whoami, Endpoint(1, "user"))
    sim.run_until_quiescent()
    assert seen[0] is A


def test_farm_user_endpoint_is_the_registered_object():
    from votingfarm.farm import FarmRuntime

    sim = Simulator()
    runtime = FarmRuntime(sim, delta_t=10)
    assert runtime.user_endpoint(1) is None
    registered = runtime.ensure_user_endpoint(1)
    assert runtime.user_endpoint(1) is registered
    assert runtime.ensure_user_endpoint(1) is registered


# -- fault injection ------------------------------------------------------------

def test_fault_spec_validation():
    with pytest.raises(VotingFarmError):
        FaultSpec("gremlin", A, 0)
    with pytest.raises(VotingFarmError):
        FaultSpec("delay", A, 0, delay=0)
    with pytest.raises(VotingFarmError):
        FaultSpec("value-corruption", A, 0, mask=b"")


def test_inject_in_the_past_rejected():
    sim = make_pair()

    def napper(proc):
        yield Sleep(20)

    sim.spawn(napper, A)
    sim.run_until_quiescent()
    assert sim.now == 20
    with pytest.raises(TimeInPast):
        sim.inject(FaultSpec("crash", A, 5))


def test_inject_against_missing_endpoint_is_traced_and_skipped():
    sim = make_pair()
    ghost = Endpoint(9, "voter", 9)
    sim.inject(FaultSpec("crash", ghost, 3))
    sim.run_until_quiescent()
    assert sim.trace.count("fault", contains="no such endpoint") == 1
    assert sim.quiescent


def test_crash_silences_endpoint_and_receiver_side_drops():
    sim = make_pair()
    received = []
    sim.inject(FaultSpec("crash", B, 0))
    sim.spawn(sender_of([msg("a")], gap=0), A)
    sim.spawn(sink(received, 1), B)
    sim.run_until_quiescent()
    assert received == []
    assert sim.trace.count("drop", contains="dead endpoint") == 1
    assert sim.quiescent  # the sender was not blocked by the dead peer


def test_send_to_dead_peer_does_not_consume_one_shot_faults():
    sim = make_pair()
    C = sim.add_endpoint(Endpoint(3, "user"))
    sim.add_link(A, C)
    sim.inject(FaultSpec("crash", B, 0))
    sim.inject(FaultSpec("omission", A, 0))
    received = []

    def fanout(proc):
        yield Sleep(1)
        yield Send(B, msg("to-dead"))  # discarded, keeps the omission pending
        yield Send(C, msg("first-live"))  # the omission eats this one
        yield Send(C, msg("second-live"))

    sim.spawn(fanout, A)
    sim.spawn(sink(received, 1), C)
    sim.run_until_quiescent()
    assert [tag for _, tag in received] == ["second-live"]
    assert sim.trace.count("drop", contains="omission") == 1


def test_value_corruption_is_persistent():
    sim = make_pair()
    sim.inject(FaultSpec("value-corruption", A, 0, mask=b"\xff"))
    got = []

    def collector(proc):
        for _ in range(2):
            _, frame = yield Recv(None)
            got.append(frame.payload)

    def source(proc):
        yield Sleep(1)
        yield Send(B, msg("m1", b"\x00\x01"))
        yield Send(B, msg("m2", b"\x00\x02"))

    sim.spawn(source, A)
    sim.spawn(collector, B)
    sim.run_until_quiescent()
    assert got == [b"\xff\xfe", b"\xff\xfd"]


def test_corruption_spares_frames_without_payload():
    sim = make_pair()
    sim.inject(FaultSpec("value-corruption", A, 0))
    seen = []

    def source(proc):
        yield Sleep(1)
        yield Send(B, wire.Control("close"))

    def collector(proc):
        _, frame = yield Recv(None)
        seen.append(frame.req)

    sim.spawn(source, A)
    sim.spawn(collector, B)
    sim.run_until_quiescent()
    assert seen == ["close"]


def test_crash_listener_fires_only_for_real_crashes():
    sim = make_pair()
    hits = []
    sim.crash_listeners.append(lambda ep, t: hits.append((str(ep), t)))
    sim.crash_endpoint(A, reason="kill")
    sim.crash_endpoint(B, reason="crash")
    assert hits == [("user@2", 0)]


def test_process_error_ends_only_its_own_endpoint():
    sim = make_pair()
    hits = []
    sim.crash_listeners.append(lambda ep, t: hits.append((str(ep), t)))
    received = []

    def faulty(proc):
        yield Send(B, msg("a"))
        raise RuntimeError("boom")

    bad = sim.spawn(faulty, A)
    good = sim.spawn(sink(received, 1), B)
    sim.run_until_quiescent()
    assert sim.quiescent
    assert sim.trace.count("proc-error") == 1
    assert "t=0 proc-error user@1 - RuntimeError: boom" in sim.trace.lines()
    assert not sim.endpoint_alive(A) and not bad.finished
    assert hits == [("user@1", 0)]
    assert good.finished and [tag for _, tag in received] == ["a"]


def test_unknown_yielded_item_is_a_process_error():
    sim = make_pair()

    def confused(proc):
        yield "nonsense"

    p = sim.spawn(confused, A)
    sim.run_until_quiescent()
    assert not p.finished and not sim.endpoint_alive(A)
    assert sim.trace.lines() == [
        "t=0 proc-error user@1 - VotingFarmError: process yielded unknown item 'nonsense'"
    ]


def test_exit_closes_its_generator():
    sim = make_pair()
    seen = []

    def quitter(proc):
        try:
            yield Exit()
        finally:
            seen.append(proc.now)

    sim.spawn(quitter, A)
    sim.run_until_quiescent()
    assert seen == [0]


def test_a_process_that_ends_its_own_endpoint_is_closed_once_it_yields():
    sim = make_pair()
    seen = []

    def self_stopper(proc):
        try:
            yield Sleep(2)
            proc.sim.crash_endpoint(proc.endpoint, reason="shutdown")
            seen.append("ran on")
            yield Sleep(1)
            seen.append("resumed")
        finally:
            seen.append(("closed", proc.now))

    p = sim.spawn(self_stopper, A)
    sim.run_until_quiescent()
    assert sim.quiescent and not p.finished
    assert seen == ["ran on", ("closed", 2)]
    assert sim.trace.lines() == ["t=2 fault user@1 - shutdown"]


def test_revive_resets_fault_state():
    sim = make_pair()
    sim.inject(FaultSpec("value-corruption", A, 0, mask=b"\x0f"))
    sim.run_until_quiescent()
    sim.crash_endpoint(A, reason="restart")
    sim.revive_endpoint(A)
    assert sim.endpoint_alive(A)
    received = []
    sim.spawn(sender_of([msg("clean", b"\x00")]), A)
    sim.spawn(sink(received, 1), B)
    sim.run_until_quiescent()
    assert [tag for _, tag in received] == ["clean"]


# -- one Send to many targets ---------------------------------------------------

C = Endpoint(3, "user")
D = Endpoint(4, "user")
E = Endpoint(5, "user")
FANOUT = (B, C, D)


def broadcaster(frames, batched, targets=FANOUT):
    """Sends each frame to every target, as one Send or one Send per target."""

    def run(proc):
        for frame in frames:
            if batched:
                yield Send(targets, frame)
            else:
                for to in targets:
                    yield Send(to, frame)
            yield Sleep(1)

    return run


def drain(proc):
    while True:
        yield Recv(None)


def fanout_run(batched, senders=(A,), unlinked=(), dead=(), faults=(), delivery_delay=1, jitter=0):
    """Run broadcasters from senders to FANOUT.  Returns the trace text
    and the (t, seq, tag) key of every event queued."""
    sim = Simulator(seed=5, delivery_delay=delivery_delay, jitter=jitter)
    for ep in (*senders, *FANOUT):
        sim.add_endpoint(ep)
    for sender in senders:
        for to in FANOUT:
            if (sender, to) not in unlinked:
                sim.add_link(sender, to)
    for ep in FANOUT:
        sim.spawn(drain, ep)
    for ep in dead:
        sim.crash_endpoint(ep)
    for spec in faults:
        sim.inject(spec)
    for i, sender in enumerate(senders):
        frames = [msg(f"{sender.node}.{k}", bytes([i, k])) for k in range(3)]
        sim.spawn(broadcaster(frames, batched), sender)
    with queue_log() as log:
        sim.run_until_quiescent()
    return sim.trace.text(), [entry[:3] for entry in log["queued"]]


FANOUT_CASES = {
    "jitter": dict(senders=(A, E), jitter=3),
    "dead target": dict(dead=(C,), faults=[FaultSpec("crash", D, 3)]),
    "sender faults": dict(delivery_delay=2, faults=[
        FaultSpec("omission", A, 1), FaultSpec("delay", A, 3, delay=4),
        FaultSpec("value-corruption", A, 12, mask=b"\x0f")]),
    "no link to the second target": dict(unlinked=[(A, C)]),
    "sender crashed in flight": dict(delivery_delay=5, faults=[FaultSpec("crash", A, 2)]),
}


@pytest.mark.parametrize("case", FANOUT_CASES)
def test_a_multi_target_send_is_its_sends_yielded_one_by_one(case):
    text, keys = fanout_run(True, **FANOUT_CASES[case])
    assert (text, keys) == fanout_run(False, **FANOUT_CASES[case])
    assert "deliver user@1 user@2" in text


def test_each_send_of_a_send_meets_its_own_faults_and_targets():
    # A dead target is skipped at once; a fault that fires while a send
    # is in flight hits the next sends of the same list.
    text, _ = fanout_run(True, **FANOUT_CASES["dead target"])
    assert "t=1 send user@1 user@3 input payload=0000\nt=1 drop user@1 user@3 dead endpoint\n" \
        "t=1 send user@1 user@4 input payload=0000\nt=2 deliver user@1 user@4" in text
    assert "t=4 send user@1 user@4 input payload=0001\nt=4 drop user@1 user@4 dead endpoint" in text
    text, _ = fanout_run(True, **FANOUT_CASES["sender faults"])
    assert text.count("omission") == 2 and "t=2 drop user@1 user@3 omission" in text
    assert "t=4 send user@1 user@4 input payload=0000\nt=10 deliver user@1 user@4" in text  # 2 + 4 ticks
    assert "t=13 deliver user@1 user@2 input payload=0001" in text
    assert "t=15 deliver user@1 user@3 input payload=0f0e" in text  # corrupted from t=12 on


def test_no_link_to_a_later_target_ends_the_sender_after_the_earlier_ones():
    text, _ = fanout_run(True, **FANOUT_CASES["no link to the second target"])
    assert text.splitlines()[-3:] == [
        "t=0 send user@1 user@2 input payload=0000",
        "t=1 deliver user@1 user@2 input payload=0000",
        "t=1 proc-error user@1 - NoSuchLink: no link user@1 -- user@3",
    ]


def test_a_sender_crashed_in_flight_sends_nothing_more():
    text, _ = fanout_run(True, **FANOUT_CASES["sender crashed in flight"])
    assert text.splitlines()[-3:] == [
        "t=0 send user@1 user@2 input payload=0000",
        "t=2 fault user@1 - crash",
        "t=5 deliver user@1 user@2 input payload=0000",
    ]


def test_a_broadcasting_sender_holds_at_most_one_queue_entry():
    sim = Simulator(seed=3, delivery_delay=1, jitter=2)
    for ep in (A, *FANOUT):
        sim.add_endpoint(ep)
        if ep is not A:
            sim.add_link(A, ep)
            sim.spawn(drain, ep)
    p = sim.spawn(broadcaster([msg("a"), msg("b")], True), A)
    held = []
    for t in range(20):
        sim.run_until_quiescent(max_time=t)
        held.append(sum(1 for _, _, tag, data in sim._heap if data is p or (tag == "send" and data[0] is p)))
    assert p.finished and max(held) == 1
    assert sim.trace.count("deliver") == 6


# -- delivery timing against a replay oracle ------------------------------------

def replay_oracle(send_times, base_delay, extra_first):
    """Expected delivery times: each send leaves when scheduled, takes
    base_delay per hop, the first one suffers the injected extra; FIFO
    means a later message never overtakes an earlier one."""
    out = []
    floor = None
    for i, t in enumerate(send_times):
        t_del = t + base_delay + (extra_first if i == 0 else 0)
        if floor is not None and t_del < floor:
            t_del = floor
        floor = t_del
        out.append(t_del)
    return out


@pytest.mark.parametrize("base_delay", [0, 1, 3])
def test_delay_fault_matches_replay_oracle(base_delay):
    extra = 4
    sim = make_pair(delivery_delay=base_delay)
    sim.inject(FaultSpec("delay", A, 0, delay=extra))
    received = []
    sim.spawn(sender_of([msg("m1"), msg("m2"), msg("m3")]), A)
    sim.spawn(sink(received, 3), B)
    sim.run_until_quiescent()

    deliver_ts = [t for t, _ in received]
    # the sender resumes when its delayed message lands, so later send
    # times shift with the fault; reconstruct them from the trace
    send_ts = [ev.t for ev in sim.trace if ev.kind == "send"]
    assert deliver_ts == replay_oracle(send_ts, base_delay, extra)
    assert [tag for _, tag in received] == ["m1", "m2", "m3"]


def test_fifo_order_holds_under_jitter():
    sim = make_pair(seed=42, delivery_delay=1, jitter=5)
    received = []
    sim.spawn(sender_of([msg(f"m{i}") for i in range(8)]), A)
    sim.spawn(sink(received, 8), B)
    sim.run_until_quiescent()
    assert [tag for _, tag in received] == [f"m{i}" for i in range(8)]
    times = [t for t, _ in received]
    assert times == sorted(times)


class EveryFloorSimulator(Simulator):
    """The reference for the FIFO floor: a sender records the floor
    towards a peer on every send, not only for a held-back delivery."""

    def _handle_send(self, p, item, i):
        frm, sender_st, targets = p.endpoint, p.st, item.targets
        while i < len(targets):
            to = targets[i]
            i += 1
            target_st = self._endpoints.get(to)
            if target_st is not None and not target_st.dead and to not in sender_st.links:
                self._proc_error(p, sender_st, fabric.NoSuchLink(f"no link {frm} -- {to}"))
                return False
            self.trace.add((self.now, "send", frm.name, to.name, item.data.trace_detail))
            if target_st is None or target_st.dead:
                self.trace.add((self.now, "drop", frm.name, to.name, "dead endpoint"))
                continue
            data = item.data
            if sender_st.corruption is not None:
                data = wire.corrupt_value(data, sender_st.corruption)
            delay = self.delivery_delay
            if self.jitter > 0:
                delay += self._rng.randrange(self.jitter + 1)
            if sender_st.pending_delay:
                delay += sender_st.pending_delay
                sender_st.pending_delay = 0
            t_del = sender_st.fifo_floor[to] = max(self.now + delay, sender_st.fifo_floor.get(to, 0))
            if sender_st.pending_omission:
                sender_st.pending_omission = False
                self.trace.add((self.now, "drop", frm.name, to.name, "omission"))
                data = None
            self._schedule(t_del, "send", (p, frm, to, data, item, i))
            return False
        return True


CTL = Endpoint(9, "ctl")  # unlinked: it only crashes and revives an endpoint
LINKED = (A, B, C, D)


def chatter(me, life, ops):
    """Runs ops: ("send", targets), ("sleep", dt) or ("recv", timeout);
    each message is tagged with its sender, the sender's life and its
    number."""

    def run(proc):
        for k, (op, arg) in enumerate(ops):
            if op == "send":
                yield Send(arg, msg(f"{me.node}.{life}.{k}", bytes([me.node, life, k])))
            elif op == "sleep":
                yield Sleep(arg)
            else:
                yield Recv(arg)

    return run


def floor_run(sim_class, seed, delivery_delay, jitter, programs, faults, crash, crash_at, yields, revive_after, reborn):
    """Run the chatter programs on four linked endpoints under the
    faults.  At crash_at, after yielding the tick `yields` times, crash
    the endpoint `crash`, and revive_after ticks later revive it with
    the program reborn.  Returns the trace text and the queue log."""
    sim = sim_class(seed=seed, delivery_delay=delivery_delay, jitter=jitter)
    for ep in (*LINKED, CTL):
        sim.add_endpoint(ep)
    for i, a in enumerate(LINKED):
        for b in LINKED[i + 1:]:
            sim.add_link(a, b)
    for spec in faults:
        sim.inject(spec)
    for ep, ops in zip(LINKED, programs):
        sim.spawn(chatter(ep, 0, ops), ep)

    def controller(proc):
        yield Sleep(crash_at)
        for _ in range(yields):  # let the tick's other events go first
            yield Sleep(0)
        proc.sim.crash_endpoint(crash)
        yield Sleep(revive_after)
        proc.sim.revive_endpoint(crash)
        proc.sim.spawn(chatter(crash, 1, reborn), crash)

    sim.spawn(controller, CTL)
    with queue_log() as log:
        sim.run_until_quiescent()
    return sim.trace.text(), log


def ops_for(me):
    targets = st.lists(st.sampled_from([ep for ep in LINKED if ep is not me]), min_size=1, max_size=3)
    return st.lists(st.one_of(
        st.tuples(st.just("send"), targets.map(tuple)),
        st.tuples(st.just("sleep"), st.integers(0, 3)),
        st.tuples(st.just("recv"), st.integers(0, 3)),
    ), max_size=6)


FAULTS = st.lists(st.builds(
    FaultSpec, st.sampled_from(["delay", "delay", "omission"]), st.sampled_from(LINKED), st.integers(0, 6),
    delay=st.integers(1, 12)), max_size=5)


@given(
    seed=st.integers(0, 2**16), delivery_delay=st.integers(0, 2), jitter=st.integers(0, 5),
    programs=st.tuples(*map(ops_for, LINKED)), faults=FAULTS, crash=st.sampled_from(LINKED),
    crash_at=st.integers(0, 6), yields=st.integers(0, 3), revive_after=st.integers(0, 2), data=st.data(),
)
@example(  # the reborn A's message would land at 1, before its first life's at 11, without the floor
    seed=0, delivery_delay=1, jitter=0, programs=((("send", (B,)),), (), (), ()),
    faults=[FaultSpec("delay", A, 0, delay=10)], crash=A, crash_at=1, yields=0, revive_after=1, data=None,
).via("the crash-and-revive floor")
@example(  # held back by one tick, then crashed and revived in the same tick as the send
    seed=0, delivery_delay=0, jitter=0, programs=((("send", (B,)),), (), (), ()),
    faults=[FaultSpec("delay", A, 0, delay=1)], crash=A, crash_at=0, yields=0, revive_after=0, data=None,
).via("a floor one tick above the due time")
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_a_floor_kept_only_for_held_back_sends_matches_a_floor_on_every_send(
        seed, delivery_delay, jitter, programs, faults, crash, crash_at, yields, revive_after, data):
    # The crashed endpoint is revived soon after, possibly at the same
    # tick, and first sends to every peer, so it often sends on a link
    # that its first life still has a held-back delivery in flight on.
    peers = tuple(ep for ep in LINKED if ep is not crash)
    reborn = [("send", peers), *(() if data is None else data.draw(ops_for(crash)))]
    args = (seed, delivery_delay, jitter, programs, faults, crash, crash_at, yields, revive_after, reborn)
    text, log = floor_run(Simulator, *args)
    reference_text, reference_log = floor_run(EveryFloorSimulator, *args)
    assert text == reference_text
    deliveries = [(t, seq, d[1], d[2]) for t, seq, tag, d in log["popped"] if tag == "send"]
    assert deliveries == [(t, seq, d[1], d[2]) for t, seq, tag, d in reference_log["popped"] if tag == "send"]
    assert [entry[:3] for entry in log["queued"]] == [entry[:3] for entry in reference_log["queued"]]
    sent: dict = {}
    for _, seq, frm, to in deliveries:  # each pair's deliveries come in the order they were sent
        assert seq > sent.get((frm, to), -1)
        sent[frm, to] = seq


# -- determinism -----------------------------------------------------------------

def run_jittered_exchange(seed):
    sim = make_pair(seed=seed, delivery_delay=1, jitter=4)
    rng = random.Random(seed)
    received = []

    def chatty(proc):
        for i in range(5):
            yield Send(B, msg(f"m{i}", bytes([i])))
            yield Sleep(rng.randrange(3))

    sim.spawn(chatty, A)
    sim.spawn(sink(received, 5), B)
    sim.run_until_quiescent()
    return sim.trace.text()


def test_fixed_seed_reproduces_identical_traces():
    assert run_jittered_exchange(7) == run_jittered_exchange(7)


def test_post_bypasses_links():
    sim = Simulator()
    sim.add_endpoint(A)
    sim.add_endpoint(B)  # note: no link
    received = []
    sim.spawn(sink(received, 1), B)
    sim.run_until_quiescent()
    sim.post(A, B, msg("side-channel"))
    sim.run_until_quiescent()
    assert [tag for _, tag in received] == ["side-channel"]


# -- trace records and syscalls ------------------------------------------------

def test_trace_log_renders_and_counts_its_records():
    log = TraceLog()
    assert log.text() == "" and log.lines() == [] and list(log) == []
    log.add((0, "send", "user@1", "user@2", "input tag=a"))
    log.add((3, "drop", "user@1", "user@2", "omission"))
    log.add((3, "revive", "user@2", "-", ""))
    records = list(log.records())
    assert records[0] == (0, "send", "user@1", "user@2", "input tag=a")
    assert all(type(record) is tuple for record in records)
    assert list(log.records(1, 2)) == records[1:2] and list(log.records(2)) == records[2:]
    events = list(log)
    assert all(type(ev) is TraceEvent for ev in events)
    assert [(ev.t, ev.kind, ev.frm, ev.to, ev.detail) for ev in events] == records
    assert events[2] == TraceEvent(3, "revive", "user@2", "-", "")
    assert log.lines() == [ev.line for ev in events] == [
        "t=0 send user@1 user@2 input tag=a",
        "t=3 drop user@1 user@2 omission",
        "t=3 revive user@2 - ",
    ]
    assert log.text() == "\n".join(log.lines()) + "\n"
    assert log.lines(1, 2) == log.lines()[1:2] and log.lines(2) == log.lines()[2:] and log.lines(3, 9) == []
    assert len(log) == 3
    assert log.count() == 3
    assert log.count("drop") == 1
    assert log.count(contains="tag=a") == 1
    assert log.count("send", contains="omission") == 0
    assert log.count("revive", contains="") == 1


def test_trace_log_counts_from_its_detail_columns_alone():
    # Two packed blocks and a tail; "revive" is only in the tail, so its
    # name is not yet in the table, and "absent" is nowhere.
    log = TraceLog()
    kinds = ["send", "deliver", "drop"]
    for i in range(2 * _BLOCK + 40):
        kind = "revive" if i > 2 * _BLOCK + 30 else kinds[i % 3]
        add_event(log, (i, kind, f"voter:{i % 5}@1", "user@2", f"input tag={i % 7}"))
    assert len(log._detail) == 2 * _BLOCK and log._tail and "revive" not in log._codes
    records = list(log.records())
    with mock.patch.object(TraceLog, "_named", side_effect=AssertionError("decodes endpoint names")):
        for kind in (None, "send", "drop", "revive", "absent"):
            for contains in ("", "tag=3", "absent"):
                naive = sum(1 for _, k, _, _, detail in records if kind in (None, k) and contains in detail)
                assert log.count(kind, contains) == naive, (kind, contains)


def add_event(log, *records):
    """Add records as one event of the simulator does: each detail
    through share, then the event loop's pack of a full tail."""
    for *head, detail in records:
        log.add((*head, log.share(detail, detail)))
    if len(log._tail) >= _FULL_TAIL:
        log._pack()


def test_trace_log_stores_an_equal_detail_once_in_a_bounded_table():
    # Each voter builds its own phase line; the log keeps one string.
    session = 4
    details = [f"VFP_VOTE session={session} epoch=0" for _ in range(3)]
    assert details[0] is not details[1]
    log = TraceLog()
    add_event(log, *((7, "phase", f"voter:{member}@{member}", "-", detail) for member, detail in enumerate(details, 1)))
    kept = [detail for *_, detail in log.records()]
    assert kept == details and kept[1] is kept[0] and kept[2] is kept[0]
    for k in range(3 * _BLOCK):
        add_event(log, (8, "send", "user@1", "user@2", f"input tag={k}"))
        assert len(log._shared) <= len(log._tail) // 5  # the details of the unpacked records at most
    assert log.lines(3, 5) == ["t=8 send user@1 user@2 input tag=0", "t=8 send user@1 user@2 input tag=1"]


def test_a_pack_keeps_a_blocks_equal_details_as_one_string_and_empties_the_table():
    log = TraceLog()
    for session in range(2):
        for i in range(_BLOCK):
            assert len(log._shared) == (i > 0)
            add_event(log, (i, "phase", f"voter:{i % 3}@1", "-", f"VFP_VOTE session={session} epoch=0"))
        assert log._tail == [] and log._shared == {}
    details = [detail for *_, detail in log.records()]
    assert details == [f"VFP_VOTE session={session} epoch=0" for session in range(2) for _ in range(_BLOCK)]
    assert len(set(map(id, details[:_BLOCK]))) == len(set(map(id, details[_BLOCK:]))) == 1


def test_trace_log_keeps_a_time_past_64_bits():
    # A scenario's input times and max_time are counts with no upper bound.
    log = TraceLog()
    for t in range(3):
        add_event(log, (t, "send", "-", "-", ""))
    add_event(log, (2**64, "fault", "user@1", "-", ""))
    add_event(log, (2, "revive", "user@1", "-", ""))
    assert [t for t, *_ in log.records()] == [0, 1, 2, 2**64, 2]
    assert log.lines(3) == [f"t={2**64} fault user@1 - ", "t=2 revive user@1 - "]


KINDS = ["send", "deliver", "drop", "phase", "timeout", "fault", "revive", "post"]
# Lengths around the edges of the first blocks the log packs.
LENGTHS = st.one_of(
    st.sampled_from([0, 1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK, 2 * _BLOCK + 1]),
    st.integers(0, 3 * _BLOCK),
)
BOUNDS = st.one_of(st.none(), st.integers(-3 * _BLOCK - 2, 3 * _BLOCK + 2), st.sampled_from([_BLOCK - 1, _BLOCK, -_BLOCK]))


def reference_records(length: int, names: int, seed: int, huge_at: int | None) -> list[tuple]:
    """length (t, kind, frm, to, detail) records over `names` endpoint
    names, with a time past 2**63 - 1 at index huge_at."""
    rng = random.Random(seed)
    endpoints = ["-"] + [f"voter:{k}@{k % 7}" for k in range(names)]
    records = []
    for i in range(length):
        t = 2**63 + i if i == huge_at else i // 3
        detail = rng.choice(["", "dead endpoint", f"input tag={rng.randrange(400)}"])
        records.append((t, rng.choice(KINDS), rng.choice(endpoints), rng.choice(endpoints), detail))
    return records


@given(
    length=LENGTHS,
    names=st.sampled_from([1, 30, 300]),  # 300: past 256 names the codes widen
    seed=st.integers(0, 2**16),
    huge_at=st.one_of(st.none(), st.integers(0, 3 * _BLOCK)),
    event=st.sampled_from([1, 2, 5, 64]),  # records added between two checks of the tail
    reads=st.lists(st.integers(1, 3 * _BLOCK), max_size=3),  # records after which both logs are read
    start=BOUNDS,
    stop=BOUNDS,
    kind=st.one_of(st.none(), st.sampled_from(KINDS + ["absent"])),
    contains=st.sampled_from(["", "tag=1", "dead", "absent"]),
)
@example(length=0, names=1, seed=0, huge_at=None, event=1, reads=[], start=None, stop=None, kind=None, contains="")
# A trace of one record, read from its tail alone.
@example(length=1, names=1, seed=0, huge_at=None, event=1, reads=[1], start=None, stop=None, kind="send", contains="")
@example(length=_BLOCK, names=30, seed=1, huge_at=None, event=2, reads=[], start=_BLOCK - 2, stop=_BLOCK + 2,
         kind="send", contains="")
# Exactly one block, packed with a time past 64 bits in it, then a tail of one record.
@example(length=_BLOCK + 1, names=30, seed=1, huge_at=_BLOCK - 7, event=1, reads=[_BLOCK - 1, _BLOCK],
         start=_BLOCK - 8, stop=None, kind=None, contains="tag")
# A time past 64 bits in the tail, behind one packed block of four-byte codes.
@example(length=_BLOCK + 3, names=300, seed=2, huge_at=_BLOCK + 1, event=2, reads=[_BLOCK + 2],
         start=-3, stop=None, kind="drop", contains="")
# Packs of more than a block, the second meeting a time past 64 bits.
@example(length=2 * _BLOCK + 5, names=300, seed=3, huge_at=_BLOCK + 30, event=64, reads=[_BLOCK, _BLOCK + 64],
         start=_BLOCK - 1, stop=-_BLOCK, kind="deliver", contains="dead")
@settings(max_examples=150, derandomize=True, deadline=None, database=None)
def test_packed_trace_log_reads_back_like_a_list_of_tuples(
        length, names, seed, huge_at, event, reads, start, stop, kind, contains):
    # The log takes the records `event` at a time, as the simulator's
    # event loop records and packs them, and reads back like the list.
    records = reference_records(length, names, seed, huge_at)
    log = TraceLog()
    for done in range(0, length, event):
        add_event(log, *records[done:done + event])
        assert len(log._tail) < _FULL_TAIL and len(log._shared) <= len(log._tail) // 5
        if any(done < read <= done + event for read in reads):
            assert_reads_back(log, records[:done + event], start, stop, kind, contains)
    assert_reads_back(log, records, start, stop, kind, contains)


def assert_reads_back(log, records, start, stop, kind, contains):
    """Every reader of log gives what records, a list of (t, kind, frm,
    to, detail) tuples, holds."""
    assert len(log) == len(records)
    assert list(log.records()) == records
    assert list(log.records(start, stop)) == records[start:stop]
    assert list(log) == [TraceEvent(*record) for record in records]
    picked = kind or "send"
    assert list(log.records_of(picked)) == [(t, frm, to, detail) for t, k, frm, to, detail in records if k == picked]
    lines = [f"t={t} {k} {frm} {to} {detail}" for t, k, frm, to, detail in records]
    assert log.lines() == lines
    assert log.lines(start, stop) == lines[start:stop]
    assert log.text() == "".join(line + "\n" for line in lines)
    assert [ev.line for ev in log] == lines
    assert log.count(kind, contains) == sum(
        1 for _, k, _, _, detail in records if (kind is None or k == kind) and contains in detail
    )


def test_trace_log_packs_full_blocks_into_one_byte_codes_then_wider_ones():
    log = TraceLog()
    for i in range(_BLOCK - 1):
        add_event(log, (i, "send", "user@1", "user@2", ""))
    # A short trace keeps its records unpacked, five items each in the tail.
    assert len(log._tail) == 5 * (_BLOCK - 1) and len(log._packed[0]) == len(log._detail) == 0
    add_event(log, (_BLOCK, "send", "user@1", "user@2", ""))
    assert log._tail == [] and [len(column) for column in log._packed] == [_BLOCK] * 3
    assert [column.typecode for column in log._packed] == ["B", "B", "B"]
    assert sorted(log._codes) == ["send", "user@1", "user@2"]
    for i in range(_BLOCK):
        add_event(log, (i, "send", f"voter:{i}@1", "user@2", ""))
    assert [column.typecode for column in log._packed] == ["I", "I", "I"]
    assert log.lines(_BLOCK - 1, _BLOCK + 1) == [f"t={_BLOCK} send user@1 user@2 ", "t=0 send voter:0@1 user@2 "]


@pytest.mark.parametrize("cls", [Send, Recv, Sleep, Exit])
def test_syscalls_are_slotted_plain_classes(cls):
    # One syscall is built per send or receive: no dataclass __init__
    # and no per-instance __dict__.
    assert "__slots__" in vars(cls)
    assert not dataclasses.is_dataclass(cls)
    args = {Send: (A, msg("x")), Recv: (5,), Sleep: (1,), Exit: ()}[cls]
    assert not hasattr(cls(*args), "__dict__")
