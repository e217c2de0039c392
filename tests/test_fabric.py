"""Message fabric: scheduling, fault injection, determinism.

Processes in these tests are tiny hand-written generators; the replay
oracle for delivery timing recomputes expected (time, payload) pairs
from first principles instead of trusting the scheduler.
"""

import gc
import random
import weakref

import pytest

from votingfarm import wire
from votingfarm.core import VotingFarmError
from votingfarm.fabric import (
    Emit,
    Endpoint,
    Exit,
    FaultSpec,
    NoSuchLink,
    Recv,
    Send,
    Simulator,
    Sleep,
    TIMEOUT,
    TimeInPast,
)

A = Endpoint(1, "user")
B = Endpoint(2, "user")


def make_pair(seed=0, delivery_delay=0, jitter=0):
    sim = Simulator(seed=seed, delivery_delay=delivery_delay, jitter=jitter)
    sim.add_endpoint(A)
    sim.add_endpoint(B)
    sim.add_link(A, B, "virtual")
    return sim


def msg(tag, payload=b""):
    return wire.Frame(wire.K_INPUT, {"tag": tag}, payload)


def sender_of(messages, to=B, gap=0):
    def run(proc):
        for m in messages:
            yield Send(to, m)
            if gap:
                yield Sleep(gap)
    return run


def sink(received, n):
    def run(proc):
        for _ in range(n):
            _, frame = yield Recv(None)
            received.append((proc.now, frame.get("tag")))
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


def test_sleep_and_emit():
    sim = make_pair()

    def napper(proc):
        yield Sleep(7)
        yield Emit("note", f"woke at {proc.now}")

    sim.spawn(napper, A)
    sim.run_until_quiescent()
    assert sim.trace.count("note", contains="woke at 7") == 1


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


# -- topology validation -------------------------------------------------------

def test_duplicate_endpoint_rejected():
    sim = make_pair()
    with pytest.raises(VotingFarmError):
        sim.add_endpoint(A)


def test_self_link_rejected():
    sim = make_pair()
    with pytest.raises(VotingFarmError):
        sim.add_link(A, A, "local")


def test_unknown_link_kind_rejected():
    sim = Simulator()
    sim.add_endpoint(A)
    sim.add_endpoint(B)
    with pytest.raises(VotingFarmError, match="unknown link kind"):
        sim.add_link(A, B, "quantum")
    assert not sim.has_link(A, B)


def test_send_without_link_throws_into_sender():
    sim = Simulator()
    sim.add_endpoint(A)
    sim.add_endpoint(B)
    caught = []

    def lonely(proc):
        try:
            yield Send(B, msg("x"))
        except NoSuchLink as exc:
            caught.append(str(exc))

    sim.spawn(lonely, A)
    sim.run_until_quiescent()
    assert caught and "no link" in caught[0]


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


def test_endpoint_and_link_counts():
    sim = make_pair()
    assert sim.endpoint_count("user") == 2
    assert sim.link_count("virtual") == 1 and sim.link_count("local") == 0
    assert set(sim.all_endpoints(node=1)) == {A}


def test_a_link_keeps_its_first_kind_and_holds_both_ways():
    sim = make_pair()  # A -- B virtual
    sim.add_link(B, A, "local")
    assert sim.has_link(A, B) and sim.has_link(B, A)
    assert sim.link_count("virtual") == 1 and sim.link_count("local") == 0
    C = Endpoint(3, "user")
    sim.add_endpoint(C)
    assert not sim.has_link(A, C) and not sim.has_link(C, A)
    sim.add_link(C, A, "local")
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
    fresh = Endpoint(1, "user")
    assert fresh == A and fresh is not A
    assert sim.registered_endpoint(fresh) is A
    assert sim.registered_endpoint(Endpoint(9, "user")) is None
    seen = []

    def whoami(proc):
        seen.append(proc.endpoint)
        yield Sleep(1)

    sim.spawn(whoami, fresh)
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
    sim.add_link(A, C, "virtual")
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
        yield Send(B, wire.Frame(wire.K_CONTROL, {"req": "close"}))

    def collector(proc):
        _, frame = yield Recv(None)
        seen.append(frame.get("req"))

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
