"""Messages as frame objects: corruption and sharing.

Inside the simulator a message stays a typed wire frame (Input,
Broadcast, ...) from sender to receiver.  These tests pin what that
must not change: a value fault hits only the payload, a frame of any
kind is read-only and equal only to itself, its trace detail is the one
the kind's rules give, and a broadcast frame shared by several
receivers cannot be altered through one of them and is rendered for the
trace once.
"""

import copy

import pytest
from hypothesis import given, settings, strategies as st

from votingfarm import wire
from votingfarm.core import VfStatusCode, VoterPhase
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
    payload, mask = bytes(range(6)), b"\x0f\xf0"
    for frame in (wire.Input(payload), wire.Broadcast(2, 0, 1, True, payload), wire.Output(0, 2, payload)):
        hit = wire.corrupt_value(frame, mask)
        assert type(hit) is type(frame)
        fields = [name for name in frame.fields if name != "payload"]
        assert [getattr(hit, f) for f in fields] == [getattr(frame, f) for f in fields]
        assert hit.payload == bytes(b ^ m for b, m in zip(payload, mask * 3))
        assert frame.payload == payload  # the sender's frame is untouched
        assert hit.trace_detail == frame.trace_detail.replace(payload.hex(), hit.payload.hex())


def test_frame_without_payload_passes_unchanged():
    for frame in (wire.Control("close"), wire.Status("VF_DONE", "ok", 0), wire.Phase(1, VoterPhase.VFP_INIT),
                  wire.Fault(1, "crash"), wire.Warn(None, 1), wire.Input(b"")):
        assert wire.corrupt_value(frame, b"\xff") is frame
    frame = wire.Input(b"\x42")
    assert wire.corrupt_value(frame, b"") is frame


def test_value_fault_corrupts_frames_in_flight():
    sim = fan_out_sim()
    sim.inject(FaultSpec("value-corruption", A, 0, mask=b"\xff"))
    sent = wire.Broadcast(1, 0, 0, True, b"\x00\x01")
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
    assert (type(got[0]), got[0].member, got[0].session) == (wire.Broadcast, 1, 0)
    assert sent.payload == b"\x00\x01"
    assert sim.trace.count("send", contains="payload=0001") == 1
    assert sim.trace.count("deliver", contains="payload=fffe") == 1


# -- sharing -------------------------------------------------------------------

EVERY_KIND = [
    wire.Input(b"\x01"),
    wire.Broadcast(1, 0, 0, True, b"\x01"),
    wire.Output(0, 1, b"\x01"),
    wire.Status("VF_DONE", "ok", 0),
    wire.Control("trigger", member=1),
    wire.Phase(1, VoterPhase.VFP_INIT),
    wire.Fault(1, "crash"),
    wire.Warn(None, 1),
]


def test_frame_fields_and_payload_are_read_only():
    for frame in EVERY_KIND:
        for name in [*frame.fields, "trace_detail", "extra"]:  # extra: no field beyond the declared ones
            refused = f"^a {frame.name} frame is read-only, cannot set {name}$"
            with pytest.raises(AttributeError, match=refused):
                setattr(frame, name, 9)
            with pytest.raises(AttributeError, match=refused):
                delattr(frame, name)
        assert not hasattr(frame, "__dict__")
    assert isinstance(wire.Input(b"\x01").payload, bytes)


def test_frames_are_equal_and_hash_only_by_identity():
    for frame in EVERY_KIND:
        twin = type(frame)(*(getattr(frame, name) for name in frame.fields))
        assert tuple(twin) == tuple(frame)  # the same fields and detail
        assert frame == frame and not frame != frame
        assert twin != frame and not twin == frame
        assert hash(frame) == object.__hash__(frame) and hash(twin) == object.__hash__(twin)
        assert len({frame, twin, frame}) == 2
        with pytest.raises(TypeError):
            frame < twin  # noqa: B015 - no order, as before
        copied = copy.copy(frame)
        assert copied is not frame and type(copied) is type(frame) and tuple(copied) == tuple(frame)


def test_fields_list_each_kinds_constructor_order():
    declared = {
        wire.Input: ("payload", "valid"),
        wire.Broadcast: ("member", "session", "epoch", "valid", "payload"),
        wire.Output: ("session", "member", "payload"),
        wire.Status: ("status", "detail", "session"),
        wire.Control: ("req", "arg", "member"),
        wire.Phase: ("member", "phase"),
        wire.Fault: ("member", "fault"),
        wire.Warn: ("farm", "epoch"),
    }
    assert set(declared) == set(KINDS)
    for cls, fields in declared.items():
        assert cls.fields == fields
        values = [bytes([i]) if name == "payload" else f"v{i}" for i, name in enumerate(fields)]
        by_position, by_name = cls(*values), cls(**dict(zip(fields, values)))
        assert [getattr(by_position, name) for name in fields] == values
        assert tuple(by_name) == tuple(by_position) == (*values, by_position.trace_detail)
    assert wire.Input(b"\x01").valid is True
    assert (wire.Control("close").arg, wire.Control("close").member) == (None, None)


def test_each_kind_has_its_own_code_and_name():
    assert len({type(frame) for frame in EVERY_KIND}) == len(EVERY_KIND) == 8
    assert [frame.trace_detail.split()[0] for frame in EVERY_KIND] == [frame.name for frame in EVERY_KIND]


def test_a_phase_frame_carries_the_phase_and_traces_its_name():
    frame = wire.Phase(1, VoterPhase.VFP_FAILURE)
    assert frame.fields == ("member", "phase")
    assert frame.phase.value == 4
    assert frame.trace_detail == "phase phase=VFP_FAILURE member=1"


def reference_detail(frame) -> str:
    """A frame's trace detail by the rules, read field by field: the
    kind's name, key=value for each traced field that is not None (an
    enum as its member's name), then the payload's hex if non-empty."""
    bits = [frame.name]
    for key in frame.traced:
        value = getattr(frame, key)
        if value is not None:
            bits.append(f"{key}={value._name_}" if type(value) in (VfStatusCode, VoterPhase) else f"{key}={value}")
    payload = getattr(frame, "payload", b"")
    if payload:
        bits.append(f"payload={payload.hex()}")
    return " ".join(bits)


KINDS = [wire.Input, wire.Broadcast, wire.Output, wire.Status, wire.Control, wire.Phase, wire.Fault, wire.Warn]
FIELD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 2**70), st.text(max_size=6), st.binary(max_size=4),
    st.sampled_from(list(VfStatusCode) + list(VoterPhase)), st.floats(allow_nan=False),
)


def old_renderer_detail(frame) -> str:
    """A frame's trace detail as the renderer that frames compiled before
    they were tuples gave it: the same generated lines, run on the frame."""
    lines = ["def render(self):"]
    for i, key in enumerate(frame.traced):
        lines.append(f"    v = self.{key}")
        lines.append(f"    f{i} = '' if v is None else f' {key}={{v._name_}}' if type(v) in _NAMED else f' {key}={{v}}'")
    parts = "".join(f"{{f{i}}}" for i in range(len(frame.traced)))
    if "payload" in frame.fields:
        lines.append("    payload = f' payload={self.payload.hex()}' if self.payload else ''")
        parts += "{payload}"
    lines.append(f"    return f'{frame.name}{parts}'")
    namespace = {"_NAMED": frozenset({VfStatusCode, VoterPhase})}
    exec("\n".join(lines), namespace)
    return namespace["render"](frame)


def draw_fields(cls, data) -> dict:
    return {name: data.draw(st.binary(max_size=4) if name == "payload" else FIELD_VALUES, label=name)
            for name in cls.fields}


@given(st.sampled_from(KINDS), st.data())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_each_kinds_compiled_renderer_follows_the_rules(cls, data):
    frame = cls(**draw_fields(cls, data))
    assert frame.trace_detail == reference_detail(frame)
    assert frame.trace_detail == old_renderer_detail(frame)
    assert frame[-1] is frame.trace_detail and isinstance(frame, tuple)


@given(st.sampled_from([wire.Input, wire.Broadcast, wire.Output]), st.data(), st.binary(min_size=1, max_size=3))
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_a_corrupted_frame_is_the_frame_built_with_the_xored_payload(cls, data, mask):
    fields = draw_fields(cls, data)
    hit = wire.corrupt_value(cls(**fields), mask)
    payload = fields["payload"]
    built = cls(**{**fields, "payload": bytes(b ^ mask[i % len(mask)] for i, b in enumerate(payload))})
    assert type(hit) is cls
    assert tuple(hit) == tuple(built)  # every field and the trace detail

def test_enum_fields_trace_as_their_str():
    # Frames read an enum member's name directly; it must be the member's str.
    for code in VfStatusCode:
        assert wire.Status(code, "ok", 0).trace_detail == f"status status={code} detail=ok session=0"
    for phase in VoterPhase:
        assert wire.Phase(1, phase).trace_detail == f"phase phase={phase} member=1"


def test_shared_broadcast_frame_cannot_be_changed_through_one_receiver():
    sim = fan_out_sim()
    frame = wire.Broadcast(1, 0, 0, True, b"\x07")
    seen = {}

    def source(proc):
        yield Send(B, frame)
        yield Send(C, frame)

    def meddler(proc):
        _, message = yield Recv(None)
        try:
            message.member = 99
        except AttributeError:
            seen["meddler"] = "refused"

    def reader(proc):
        yield Sleep(5)
        _, message = yield Recv(None)
        seen["reader"] = (message is frame, message.member, message.session, message.payload)

    sim.spawn(source, A)
    sim.spawn(meddler, B)
    sim.spawn(reader, C)
    sim.run_until_quiescent()
    assert seen["meddler"] == "refused"
    assert seen["reader"] == (True, 1, 0, b"\x07")


def test_a_shared_broadcast_frame_is_rendered_once():
    sim = fan_out_sim()
    frame = wire.Broadcast(1, 0, 0, True, b"\x07")

    def source(proc):
        yield Send(B, frame)
        yield Send(C, frame)

    def sink(proc):
        yield Recv(None)

    sim.spawn(source, A)
    sim.spawn(sink, B)
    sim.spawn(sink, C)
    sim.run_until_quiescent()
    details = [detail for _, kind, _, _, detail in sim.trace.records() if kind in ("send", "deliver")]
    assert len(details) == 4
    assert all(detail is frame.trace_detail for detail in details)  # one string, not one per line
    assert frame.trace_detail == "broadcast session=0 member=1 valid=True payload=07"
