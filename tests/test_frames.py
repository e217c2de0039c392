"""Messages as frame objects: corruption and sharing.

Inside the simulator a message stays a wire.Frame from sender to
receiver.  These tests pin what that must not change: a value fault
hits only the payload, and a broadcast frame shared by several
receivers cannot be altered through one of them.
"""

import pytest

from votingfarm import wire
from votingfarm.fabric import Endpoint, FaultSpec, Recv, Send, Simulator, Sleep

A = Endpoint(1, "user")
B = Endpoint(2, "user")
C = Endpoint(3, "user")


def fan_out_sim():
    sim = Simulator()
    for ep in (A, B, C):
        sim.add_endpoint(ep)
    sim.add_link(A, B)
    sim.add_link(A, C)
    return sim


# -- corruption ----------------------------------------------------------------

def test_corrupting_a_frame_xors_only_its_payload():
    fields, payload, mask = {"member": 2, "session": 0}, bytes(range(6)), b"\x0f\xf0"
    frame = wire.Frame(wire.K_BROADCAST, fields, payload)
    hit = wire.corrupt_value(frame, mask)
    assert hit.kind == frame.kind and hit.fields == frame.fields
    assert hit.payload == bytes(b ^ m for b, m in zip(payload, mask * 3))
    assert frame.payload == payload  # the sender's frame is untouched


def test_frame_without_payload_passes_unchanged():
    frame = wire.Frame(wire.K_CONTROL, {"req": "close"})
    assert wire.corrupt_value(frame, b"\xff") is frame
    assert wire.corrupt_value(wire.Frame(wire.K_INPUT, {}, b"\x42"), b"").payload == b"\x42"


def test_value_fault_corrupts_frames_in_flight():
    sim = fan_out_sim()
    sim.inject(FaultSpec("value-corruption", A, 0, mask=b"\xff"))
    sent = wire.Frame(wire.K_INPUT, {"tag": "m"}, b"\x00\x01")
    got = []

    def source(proc):
        yield Sleep(1)
        yield Send(B, sent)

    def sink(proc):
        _, message = yield Recv(None)
        got.append(message)

    sim.spawn(source, A)
    sim.spawn(sink, B)
    sim.run_until_quiescent()
    assert [m.payload for m in got] == [b"\xff\xfe"]
    assert got[0].get("tag") == "m"
    assert sent.payload == b"\x00\x01"
    assert sim.trace.count("send", contains="payload=0001") == 1
    assert sim.trace.count("deliver", contains="payload=fffe") == 1


# -- sharing -------------------------------------------------------------------

def test_frame_fields_and_payload_are_read_only():
    fields = {"member": 1, "session": 0}
    frame = wire.Frame(wire.K_BROADCAST, fields, bytearray(b"\x01"))
    with pytest.raises(TypeError):
        frame.fields["member"] = 9
    with pytest.raises(AttributeError):
        frame.payload = b"\x02"
    assert isinstance(frame.payload, bytes)
    fields["member"] = 9  # the caller's dict is copied, not shared
    assert frame.get("member") == 1


def test_shared_broadcast_frame_cannot_be_changed_through_one_receiver():
    sim = fan_out_sim()
    frame = wire.Frame(wire.K_BROADCAST, {"member": 1, "session": 0, "valid": True}, b"\x07")
    seen = {}

    def source(proc):
        yield Send(B, frame)
        yield Send(C, frame)

    def meddler(proc):
        _, message = yield Recv(None)
        try:
            message.fields["member"] = 99
        except TypeError:
            seen["meddler"] = "refused"

    def reader(proc):
        yield Sleep(5)
        _, message = yield Recv(None)
        seen["reader"] = (message is frame, dict(message.fields), message.payload)

    sim.spawn(source, A)
    sim.spawn(meddler, B)
    sim.spawn(reader, C)
    sim.run_until_quiescent()
    assert seen["meddler"] == "refused"
    assert seen["reader"] == (True, {"member": 1, "session": 0, "valid": True}, b"\x07")
