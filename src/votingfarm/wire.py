"""Messages crossing the simulated fabric.

A message is a ``Frame``: a kind, read-only structured control fields,
and the opaque voted data as the value payload.  Senders build frames,
the fabric carries them as they are and receivers read them directly,
so no message is serialised on its way.

``encode``/``decode`` define a frame's bytes layout, for use outside
the fabric:

    kind:u8 | header_len:u32be | header (JSON, utf-8) | value payload

The value payload is a field of its own, so the fault injector
corrupts voted values without touching the control fields, which
matches the fault model: value failures corrupt data, they do not turn
messages into garbage.
"""

from __future__ import annotations

import json
import struct
from types import MappingProxyType
from typing import Any, Mapping

# Frame kinds
K_INPUT = 1       # user module -> voter: new input value
K_BROADCAST = 2   # voter -> fellow voter: relayed input
K_OUTPUT = 3      # voter -> output endpoint: voted value
K_STATUS = 4      # voter -> user module: VfStatus reply
K_CONTROL = 5     # user module -> voter: algorithm/output/close/reset
K_PHASE = 6       # voter -> recovery database: phase report
K_FAULT = 7       # fabric watchdog -> recovery database: fault record
K_WARN = 8        # recovery interpreter -> voter: rebuilt descriptor

KIND_NAMES = {
    K_INPUT: "input",
    K_BROADCAST: "broadcast",
    K_OUTPUT: "output",
    K_STATUS: "status",
    K_CONTROL: "control",
    K_PHASE: "phase",
    K_FAULT: "fault",
    K_WARN: "warn",
}

_HDR = struct.Struct(">BI")

_TRACED_FIELDS = ("status", "detail", "req", "phase", "fault", "session", "member", "valid")


class FrameError(Exception):
    pass


class Frame:
    """One message: kind, structured control fields, value payload.

    A frame is read-only: ``fields`` is a read-only copy of the given
    mapping and ``payload`` is bytes, so a broadcast frame shared by
    several receivers cannot be changed through any one of them.
    """

    __slots__ = ("kind", "fields", "payload", "_trace_detail")

    def __init__(self, kind: int, fields: Mapping[str, Any], payload: bytes = b"") -> None:
        init = object.__setattr__
        init(self, "kind", kind)
        init(self, "fields", MappingProxyType(dict(fields)))
        init(self, "payload", bytes(payload))
        init(self, "_trace_detail", None)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError(f"Frame is read-only, cannot set {name}")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Frame):
            return NotImplemented
        return (self.kind, self.fields, self.payload) == (other.kind, other.fields, other.payload)

    def __repr__(self) -> str:
        return f"Frame(kind={self.kind}, fields={dict(self.fields)}, payload={self.payload!r})"

    def get(self, key: str, default: Any = None) -> Any:
        return self.fields.get(key, default)

    @property
    def kind_name(self) -> str:
        return KIND_NAMES.get(self.kind, f"kind{self.kind}")

    @property
    def trace_detail(self) -> str:
        """The frame as a trace line shows it: kind, notable fields,
        payload hex.  Rendered once per frame, not once per receiver."""
        if self._trace_detail is None:
            bits = [self.kind_name]
            for key in _TRACED_FIELDS:
                if key in self.fields:
                    bits.append(f"{key}={self.fields[key]}")
            if self.payload:
                bits.append(f"payload={self.payload.hex()}")
            object.__setattr__(self, "_trace_detail", " ".join(bits))
        return self._trace_detail


def encode(kind: int, fields: Mapping[str, Any] | None = None, payload: bytes = b"") -> bytes:
    header = json.dumps(dict(fields or {}), sort_keys=True, separators=(",", ":")).encode()
    return _HDR.pack(kind, len(header)) + header + payload


def decode(data: bytes) -> Frame:
    if len(data) < _HDR.size:
        raise FrameError("short frame")
    kind, hlen = _HDR.unpack_from(data)
    if len(data) < _HDR.size + hlen:
        raise FrameError("truncated header")
    try:
        fields = json.loads(data[_HDR.size:_HDR.size + hlen].decode())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise FrameError(f"bad header: {exc}") from exc
    if not isinstance(fields, dict):
        raise FrameError("bad header: not a JSON object")
    return Frame(kind, fields, bytes(data[_HDR.size + hlen:]))


def _xor(value: bytes, mask: bytes) -> bytes:
    return bytes(b ^ mask[i % len(mask)] for i, b in enumerate(value))


def corrupt_value(frame: Frame, mask: bytes) -> Frame:
    """XOR the value payload of a frame with a repeating mask.

    Frames without a value payload pass through unchanged: a value
    fault corrupts data being voted on, not protocol bookkeeping.
    """
    if not mask or not frame.payload:
        return frame
    return Frame(frame.kind, frame.fields, _xor(frame.payload, mask))
