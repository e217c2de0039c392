"""Handle lifecycle: the open/add/run/control/get/close protocol."""

import pytest

from farm_harness import DT, build_farm, drive, opened_farm
from votingfarm.algorithms import encode_scalar
from votingfarm.client import (
    AlreadyRunning,
    InvalidatedHandle,
    NotRunning,
    SpmdIncoherence,
    ValidationFailed,
    vf_add,
    vf_close,
    vf_control,
    vf_get,
    vf_open,
    vf_run,
)
from votingfarm.core import VfStatusCode, VotingFarmError
from votingfarm.fabric import Endpoint, Sleep


# -- open and add -----------------------------------------------------------

def test_open_gives_empty_descriptor_bound_to_metric():
    _, runtime, _ = build_farm(1)
    handle = vf_open(runtime, "scalar")
    assert handle.descriptor == []
    assert handle.metric_name == "scalar"
    assert not handle.running


def test_two_opens_are_independent():
    _, runtime, _ = build_farm(1)
    a, b = vf_open(runtime), vf_open(runtime)
    vf_add(a, 1, 1)
    assert a.descriptor == [(1, 1)] and b.descriptor == []


def test_add_after_run_raises():
    sim, runtime, rows = build_farm(1)
    failures = []

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        try:
            vf_add(handle, 9, 9)
        except AlreadyRunning:
            failures.append("add")
        try:
            yield from vf_run(handle, proc)
        except AlreadyRunning:
            failures.append("run")

    drive(sim, {1: prog})
    assert failures == ["add", "run"]


def test_invalid_descriptor_fails_validation():
    sim, runtime, rows = build_farm(1)
    caught = []

    def prog(proc):
        handle = vf_open(runtime)
        vf_add(handle, 1, 1)
        vf_add(handle, 2, 1)  # duplicate ident
        try:
            yield from vf_run(handle, proc)
        except ValidationFailed as exc:
            caught.append(str(exc))

    drive(sim, {1: prog})
    assert caught and "ident 1" in caught[0]


def test_the_runtime_keeps_its_own_copy_of_the_first_descriptor():
    sim, runtime, rows = build_farm(1)
    handles = []

    def prog(proc):
        handles.append((yield from opened_farm(runtime, rows, proc)))

    drive(sim, {1: prog})
    handles[0].descriptor.append((2, 2))
    assert runtime.canonical == [(1, 1)]


def test_divergent_descriptors_flag_spmd_incoherence():
    sim, runtime, _ = build_farm(2)
    caught = []

    def first(proc):
        handle = vf_open(runtime)
        vf_add(handle, 1, 1)
        vf_add(handle, 2, 2)
        yield from vf_run(handle, proc)

    def second(proc):
        yield Sleep(1)
        handle = vf_open(runtime)
        vf_add(handle, 2, 2)  # same members, different order
        vf_add(handle, 1, 1)
        try:
            yield from vf_run(handle, proc)
        except SpmdIncoherence as exc:
            caught.append(str(exc))

    drive(sim, {1: first, 2: second})
    assert caught and runtime.spmd_incoherent
    assert sim.trace.count("spmd", contains="descriptor mismatch") == 1


def test_a_node_opened_with_another_metric_is_spmd_incoherent():
    sim, runtime, rows = build_farm(2)
    caught = []

    def opener(metric):
        def run(proc):
            yield Sleep(proc.endpoint.node)
            handle = vf_open(runtime, metric)
            for nd, ident in rows:
                vf_add(handle, nd, ident)
            try:
                yield from vf_run(handle, proc)
            except SpmdIncoherence as exc:
                caught.append(str(exc))
        return run

    drive(sim, {1: opener("scalar"), 2: opener("default")})
    assert caught == ["node 2 disagrees with the active metric"]
    assert runtime.spmd_incoherent and runtime.metric_name == "scalar"
    assert sim.trace.count("spmd", contains="metric mismatch") == 1


def test_the_farm_votes_with_the_metric_given_to_vf_open():
    sim, runtime, rows = build_farm(3)
    values = {1: 1.0, 2: 2.0, 3: 90.0}
    outputs = {}

    def voter_of(value):
        def run(proc):
            handle = vf_open(runtime, "scalar")
            for nd, ident in rows:
                vf_add(handle, nd, ident)
            yield from vf_run(handle, proc)
            yield from vf_control(handle, proc, algorithm="median", input=encode_scalar(value))
            yield from vf_get(handle, proc, timeout=8 * DT)
            outputs[proc.endpoint.node] = [o["payload"] for o in handle.outputs]
        return run

    drive(sim, {node: voter_of(value) for node, value in values.items()})
    # the scalar median; the default metric cannot rank values and gives 90.0
    assert outputs == {node: [encode_scalar(2.0)] for node in values}


# -- control and get ----------------------------------------------------------

def test_control_before_run_raises():
    sim, runtime, rows = build_farm(1)

    def prog(proc):
        handle = vf_open(runtime)
        vf_add(handle, 1, 1)
        with pytest.raises(NotRunning):
            yield from vf_control(handle, proc, input=b"\x01")
        with pytest.raises(NotRunning):
            yield from vf_close(handle, proc, timeout=DT)

    drive(sim, {1: prog})


def test_single_member_farm_session():
    sim, runtime, rows = build_farm(1)
    got = {}

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        yield from vf_control(handle, proc, input=encode_scalar(11.0))
        got["status"] = yield from vf_get(handle, proc, timeout=4 * DT)
        got["outputs"] = list(handle.outputs)

    drive(sim, {1: prog})
    assert got["status"].code is VfStatusCode.VF_DONE
    assert got["status"].detail == "ok"
    assert got["outputs"][0]["payload"] == encode_scalar(11.0)


def test_get_times_out_quietly_when_nothing_happens():
    sim, runtime, rows = build_farm(1)
    got = {}

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        before = proc.now
        got["status"] = yield from vf_get(handle, proc, timeout=15)
        got["waited"] = proc.now - before
        yield from vf_close(handle, proc, timeout=DT)

    drive(sim, {1: prog})
    assert got["status"].code is VfStatusCode.VF_NONE
    assert got["status"].detail == "timeout"
    assert got["waited"] == 15


def test_a_negative_timeout_returns_none_without_waiting():
    sim, runtime, rows = build_farm(1)
    got = {}

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        before = proc.now
        got["get"] = yield from vf_get(handle, proc, timeout=-1)
        got["close"] = yield from vf_close(handle, proc, timeout=-1)
        got["waited"] = proc.now - before

    drive(sim, {1: prog})
    for op in ("get", "close"):
        assert (got[op].code, got[op].detail) == (VfStatusCode.VF_NONE, "timeout")
    assert got["waited"] == 0


def test_a_close_served_after_vf_close_timed_out_ends_the_handle_at_the_next_get():
    # vf_close gives up at once, yet the voter serves the close in the
    # same tick: the reply the next vf_get reads invalidates the handle,
    # so the input after it raises instead of going to a dead voter.
    sim, runtime, rows = build_farm(1)
    got = {}

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        got["close"] = yield from vf_close(handle, proc, timeout=-1)
        got["get"] = yield from vf_get(handle, proc, timeout=DT)
        got["running"] = handle.running
        try:
            yield from vf_control(handle, proc, input=encode_scalar(1.0))
        except InvalidatedHandle as exc:
            got["control"] = str(exc)

    drive(sim, {1: prog})
    assert (got["close"].code, got["close"].detail) == (VfStatusCode.VF_NONE, "timeout")
    assert (got["get"].code, got["get"].detail) == (VfStatusCode.VF_DONE, "closed")
    assert not got["running"]
    assert got["control"] == "handle was closed"


def test_algorithm_only_control_starts_no_session():
    sim, runtime, rows = build_farm(1)

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        yield from vf_control(handle, proc, algorithm="median", epsilon=0.5)
        yield Sleep(5)
        yield from vf_close(handle, proc, timeout=DT)

    drive(sim, {1: prog})
    select = runtime.voter_states[1].select
    assert select.kind == "median" and select.epsilon == 0.5
    assert sim.trace.count("phase", contains="VFP_BROADCAST") == 0


def test_output_redirection():
    sim, runtime, rows = build_farm(2)
    caught = []

    def observer(proc):
        got = yield from recv_one(proc)
        caught.append(got)

    def recv_one(proc):
        from votingfarm.fabric import Recv
        _, frame = yield Recv(None)
        return frame

    def prog(proc):
        handle = vf_open(runtime)
        vf_add(handle, 1, 1)
        yield from vf_run(handle, proc)
        yield from vf_control(handle, proc, output_node=2, input=encode_scalar(8.0))
        yield from vf_get(handle, proc, timeout=4 * DT)
        yield from vf_close(handle, proc, timeout=DT)

    drive(sim, {1: prog, 2: observer})
    assert len(caught) == 1
    assert caught[0].payload == encode_scalar(8.0)
    assert sim.has_link(Endpoint(1, "voter", 1), Endpoint(2, "user"))
    assert sim.link_count("virtual") == 1


@pytest.mark.parametrize("pause", [0, 1])
def test_output_redirection_survives_a_restart(pause):
    # pause 0 restarts right after session 0's last reply: the restarted
    # voter must still go on with session 1
    sim, runtime, rows = build_farm(2)
    caught = []
    done = {}

    def observer(proc):
        from votingfarm.fabric import Recv
        for _ in range(2):
            _, frame = yield Recv(None)
            caught.append((frame.session, frame.payload))

    def prog(proc):
        handle = vf_open(runtime)
        vf_add(handle, 1, 1)
        yield from vf_run(handle, proc)
        yield from vf_control(handle, proc, output_node=2, input=encode_scalar(8.0))
        yield from vf_get(handle, proc, timeout=4 * DT)
        if pause:
            yield Sleep(pause)  # let the voter go idle after session 0
        assert runtime.restart_entity(1) is None
        yield from vf_control(handle, proc, input=encode_scalar(9.0))
        done["status"] = yield from vf_get(handle, proc, timeout=4 * DT)
        done["outputs"] = list(handle.outputs)

    drive(sim, {1: prog, 2: observer})
    assert caught == [(0, encode_scalar(8.0)), (1, encode_scalar(9.0))]
    assert done["status"].code is VfStatusCode.VF_DONE
    assert done["outputs"] == []  # nothing came back to user@1


def test_output_redirection_to_the_voters_own_node_keeps_the_local_link():
    sim, runtime, rows = build_farm(1)
    done = {}

    def prog(proc):
        handle = vf_open(runtime)
        vf_add(handle, 1, 1)
        yield from vf_run(handle, proc)
        yield from vf_control(handle, proc, output_node=1, input=encode_scalar(3.0))
        done["status"] = yield from vf_get(handle, proc, timeout=4 * DT)
        done["outputs"] = [o["payload"] for o in handle.outputs]

    drive(sim, {1: prog})
    assert (done["status"].code, done["status"].detail) == (VfStatusCode.VF_DONE, "ok")
    assert done["outputs"] == [encode_scalar(3.0)]
    assert (sim.link_count("local"), sim.link_count("virtual")) == (1, 0)


def test_output_redirection_to_a_node_without_user_raises_in_the_caller():
    sim, runtime, rows = build_farm(1)
    caught = []

    def prog(proc):
        handle = vf_open(runtime)
        vf_add(handle, 1, 1)
        yield from vf_run(handle, proc)
        try:
            yield from vf_control(handle, proc, output_node=5, input=encode_scalar(1.0))
        except VotingFarmError as exc:
            caught.append(str(exc))

    drive(sim, {1: prog})
    assert caught and "node 5" in caught[0]
    assert sim.trace.count("send") == 0  # nothing reached the voter


@pytest.mark.parametrize(
    "params,message",
    [
        ({"algorithm": "borda"}, "unknown voting technique"),
        ({"epsilon": -1.0}, "epsilon"),
        ({"epsilon": "wide"}, "bad algorithm parameter"),
        ({"scaling_factor": 0.0}, "scaling factor"),
        ({"algorithm": "plurality", "tie_break": "coin"}, "tie break"),
    ],
)
def test_bad_algorithm_parameters_raise_in_the_caller(params, message):
    sim, runtime, rows = build_farm(1)
    caught = []

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        try:
            yield from vf_control(handle, proc, input=encode_scalar(1.0), **params)
        except VotingFarmError as exc:
            caught.append(str(exc))

    drive(sim, {1: prog})
    assert caught and message in caught[0]
    assert sim.trace.count("send") == 0  # nothing reached the voter
    assert sim.trace.count("proc-error") == 0
    assert runtime.voter_states[1].select.kind == "majority"


def test_user_talks_only_to_its_local_voter():
    sim, runtime, rows = build_farm(3)
    done = {}

    def prog(node):
        def run(proc):
            handle = yield from opened_farm(runtime, rows, proc)
            yield Sleep(10 - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(1.0))
            while True:
                status = yield from vf_get(handle, proc, timeout=8 * DT)
                if status.code is not VfStatusCode.VF_REFUSED:
                    break
            done[node] = status
        return run

    drive(sim, {n: prog(n) for n in (1, 2, 3)})
    for node in (1, 2, 3):
        assert done[node].detail == "ok"
        sends = [ev for ev in sim.trace if ev.kind == "send" and ev.frm == f"user@{node}"]
        assert sends and all(ev.to == f"voter:{node}@{node}" for ev in sends)


# -- close ----------------------------------------------------------------------

def test_close_mid_session_is_refused_and_farm_survives():
    sim, runtime, rows = build_farm(3)
    got = {}

    def closer(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        yield Sleep(10 - proc.now)
        yield from vf_control(handle, proc, input=encode_scalar(2.0))
        got["early"] = yield from vf_close(handle, proc, timeout=2 * DT)
        while True:
            status = yield from vf_get(handle, proc, timeout=8 * DT)
            if status.code is not VfStatusCode.VF_REFUSED:
                break
        got["session"] = status
        got["late"] = yield from vf_close(handle, proc, timeout=2 * DT)
        got["invalidated"] = handle.invalidated

    def peer(node):
        def run(proc):
            handle = yield from opened_farm(runtime, rows, proc)
            yield Sleep(10 - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(2.0))
            while True:
                status = yield from vf_get(handle, proc, timeout=8 * DT)
                if status.code is not VfStatusCode.VF_REFUSED:
                    break
        return run

    drive(sim, {1: closer, 2: peer(2), 3: peer(3)})
    assert got["early"].code is VfStatusCode.VF_REFUSED
    assert got["early"].detail == "busy"
    assert got["session"].detail == "ok"  # the refused close did not hurt the vote
    assert got["late"].detail == "closed"
    assert got["invalidated"]


def test_a_refused_close_replays_an_unread_completion():
    # Session 0's VF_DONE is still unread when the close races session
    # 1: vf_close reads past it to the refusal, and the next vf_get
    # returns it.
    sim, runtime, rows = build_farm(3)
    got = {}

    def user(node):
        def run(proc):
            handle = yield from opened_farm(runtime, rows, proc)
            yield Sleep(10 - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(2.0))
            if node != 1:
                yield from vf_get(handle, proc, timeout=8 * DT)
                return
            yield Sleep(40 - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(3.0))
            got["close"] = yield from vf_close(handle, proc, timeout=2 * DT)
            got["next"] = yield from vf_get(handle, proc, timeout=8 * DT)
            got["open"] = not handle.invalidated
        return run

    drive(sim, {n: user(n) for n in (1, 2, 3)})
    close, replayed = got["close"], got["next"]
    assert (close.code, close.detail, close.session) == (VfStatusCode.VF_REFUSED, "busy", 1)
    assert (replayed.code, replayed.detail, replayed.session) == (VfStatusCode.VF_DONE, "ok", 0)
    assert got["open"]


def test_operations_on_closed_handle_raise():
    sim, runtime, rows = build_farm(1)
    errors = []

    def prog(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        yield from vf_close(handle, proc, timeout=2 * DT)
        for op in ("close", "control", "get", "add"):
            try:
                if op == "close":
                    yield from vf_close(handle, proc, timeout=DT)
                elif op == "control":
                    yield from vf_control(handle, proc, input=b"\x01")
                elif op == "get":
                    yield from vf_get(handle, proc, timeout=DT)
                else:
                    vf_add(handle, 5, 5)
            except InvalidatedHandle:
                errors.append(op)

    drive(sim, {1: prog})
    assert errors == ["close", "control", "get", "add"]
