"""Frame bytes layout and the value-corruption helper."""

import pytest
from hypothesis import given, settings, strategies as st

from votingfarm import wire


def test_round_trip_fields_and_payload():
    raw = wire.encode(wire.K_INPUT, {"valid": True, "session": 4}, b"\x01\x02")
    assert wire.decode(raw) == (wire.K_INPUT, {"valid": True, "session": 4}, b"\x01\x02")


def test_empty_fields_and_payload():
    assert wire.decode(wire.encode(wire.K_CONTROL)) == (wire.K_CONTROL, {}, b"")


@given(
    kind=st.integers(wire.K_INPUT, wire.K_WARN),
    fields=st.dictionaries(
        st.text(st.characters(codec="ascii"), min_size=1, max_size=8),
        st.one_of(st.integers(-1000, 1000), st.booleans(), st.text(max_size=8)),
        max_size=4,
    ),
    payload=st.binary(max_size=64),
)
@settings(deadline=None)
def test_round_trip_any_header(kind, fields, payload):
    assert wire.decode(wire.encode(kind, fields, payload)) == (kind, fields, payload)


def test_short_frame_rejected():
    with pytest.raises(wire.FrameError):
        wire.decode(b"\x01\x00")


def test_truncated_header_rejected():
    raw = wire.encode(wire.K_STATUS, {"status": "VF_DONE"})
    with pytest.raises(wire.FrameError):
        wire.decode(raw[: len(raw) - 3])


def test_garbage_header_rejected():
    raw = bytearray(wire.encode(wire.K_INPUT, {"a": 1}))
    raw[5] = 0xFF  # stomp on the JSON
    with pytest.raises(wire.FrameError):
        wire.decode(bytes(raw))


def test_non_object_header_rejected():
    header = b"[1, 2]"
    with pytest.raises(wire.FrameError):
        wire.decode(bytes([wire.K_INPUT]) + len(header).to_bytes(4, "big") + header)


class TestCorruptValue:
    def test_only_payload_region_changes(self):
        frame = wire.Broadcast(2, 0, 0, True, b"\x00" * 8)
        hit = wire.corrupt_value(frame, b"\xff")
        assert hit is not frame
        assert (hit.member, hit.session, hit.epoch, hit.valid) == (2, 0, 0, True)  # fields survive the hit
        assert hit.payload == b"\xff" * 8

    def test_mask_repeats_over_payload(self):
        frame = wire.corrupt_value(wire.Input(bytes(range(6))), b"\x0f\xf0")
        assert frame.payload == bytes(b ^ m for b, m in zip(range(6), b"\x0f\xf0" * 3))

    def test_header_only_frame_passes_through(self):
        frame = wire.Control("close")
        assert wire.corrupt_value(frame, b"\xff") is frame

    def test_empty_mask_is_identity(self):
        frame = wire.Input(b"\x42")
        assert wire.corrupt_value(frame, b"") is frame

    def test_double_corruption_cancels(self):
        frame = wire.Input(b"\x10\x20\x30")
        twice = wire.corrupt_value(wire.corrupt_value(frame, b"\xa5"), b"\xa5")
        assert twice.payload == frame.payload and twice.trace_detail == frame.trace_detail
