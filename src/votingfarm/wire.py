"""Messages crossing the simulated fabric.

Each of the eight message kinds is a read-only tuple subclass that
declares the fields it carries in one line, as a namedtuple does, and
lists them, in constructor order, in its class attribute ``fields``.
A frame's class is its kind, and receivers dispatch on ``type(frame)``:
a frame of another class, whatever its name, is none of the eight.
The voted data travels as the ``payload`` of an input, a broadcast or
an output; the other kinds carry control fields only.  Senders build
frames, the fabric carries them as they are and receivers read their
attributes, so no message is serialised on its way: a phase report
carries the voter's VoterPhase itself, whose value is the code recovery
strategies compare.  Frames compare and hash by identity: two frames
with equal fields are still two messages.

A frame renders its trace detail when it is built, in the same call
that builds it, and keeps it as its last item: every frame is sent or
posted, so it is traced at least once, and a broadcast shared by
several receivers is rendered only once.

``encode``/``decode`` define a bytes layout of a kind, fields and
payload, where the kind is whatever integer the caller passes: frames
carry no code.  Nothing in the package or its demos calls them; they
remain because the benchmark's tracer (perfbench/tracing.py) patches
them by name, and go once its wire metrics are retired:

    kind:u8 | header_len:u32be | header (JSON, utf-8) | value payload

The value payload is a field of its own, so the fault injector
corrupts voted values without touching the control fields, which
matches the fault model: value failures corrupt data, they do not turn
messages into garbage.
"""

from __future__ import annotations

import json
import struct
from collections import _tuplegetter  # the field accessor namedtuples use
from typing import Any, Mapping

from .core import VfStatusCode, VoterPhase

_HDR = struct.Struct(">BI")

_TRACED_FIELDS = ("status", "detail", "req", "phase", "fault", "session", "member", "valid")
# Enum fields are traced as their member's name, which is also their str,
# read directly: formatting goes through Enum.__format__, Python code
# that costs about three times as much.
_NAMED = frozenset({VfStatusCode, VoterPhase})


class FrameError(Exception):
    pass


class Frame(tuple):
    """Base of the message kinds: a read-only tuple of the kind's fields,
    then its trace detail.  A frame's kind is its class, whose name,
    fields in constructor order and traced fields are class
    attributes.  Frames compare and hash by identity, as distinct
    messages do, and have no order."""

    __slots__ = ()
    name: str
    fields: tuple[str, ...]
    traced: tuple[str, ...]

    def __setattr__(self, name: str, value: Any = None) -> None:  # also __delattr__
        raise AttributeError(f"a {self.name} frame is read-only, cannot set {name}")

    __delattr__ = __setattr__
    __eq__, __ne__, __hash__, __repr__ = object.__eq__, object.__ne__, object.__hash__, object.__repr__
    __lt__, __le__, __gt__, __ge__ = object.__lt__, object.__le__, object.__gt__, object.__ge__

    def __getnewargs__(self) -> tuple:
        return self[:-1]


def _message(name: str, fields: str, **defaults: Any) -> type:
    """A frame class with the given space-separated fields, then the
    keyword ones with their defaults.  Its __new__ is compiled from the
    kind's own fields, as a namedtuple's is, and renders the trace detail
    in the same call: the kind's name, then key=value for each traced
    field that is not None (an enum as its member's name), then
    payload=<hex> if the frame has a non-empty payload."""
    names = tuple(fields.split()) + tuple(defaults)
    traced = tuple(k for k in _TRACED_FIELDS if k in names)
    parts = [f"{{'' if {k} is None else f' {k}={{{k}._name_}}' if type({k}) in _NAMED else f' {k}={{{k}}}'}}"
             for k in traced]
    if "payload" in names:
        parts.append("{f' payload={payload.hex()}' if payload else ''}")
    args = ", ".join(names)
    source = (f"def __new__(_cls, {args}):\n"
              f"    return _new(_cls, ({args}, f\"{name.lower()}{''.join(parts)}\"))")
    namespace = {"_new": tuple.__new__, "_NAMED": _NAMED}
    exec(source, namespace)
    new = namespace["__new__"]
    new.__defaults__ = tuple(defaults.values()) or None
    accessors = {key: _tuplegetter(i, None) for i, key in enumerate(names + ("trace_detail",))}
    return type(name, (Frame,), {
        "__slots__": (), "__new__": new, "name": name.lower(),
        "fields": names, "traced": traced, **accessors})


Input = _message("Input", "payload", valid=True)  # user -> voter: a new input value
Broadcast = _message("Broadcast", "member session epoch valid payload")  # voter -> fellow: relayed input
Output = _message("Output", "session member payload")  # voter -> output endpoint: voted value
Status = _message("Status", "status detail session")  # voter -> user: VfStatus reply
Control = _message("Control", "req", arg=None, member=None)  # user -> voter; arg: algorithm fields or node
Phase = _message("Phase", "member phase")  # voter -> recovery database: phase report
Fault = _message("Fault", "member fault")  # watchdog -> recovery database: fault record
Warn = _message("Warn", "farm epoch")  # recovery interpreter -> voter: rebuilt descriptor


def encode(kind: int, fields: Mapping[str, Any] | None = None, payload: bytes = b"") -> bytes:
    header = json.dumps(dict(fields or {}), sort_keys=True, separators=(",", ":")).encode()
    return _HDR.pack(kind, len(header)) + header + payload


def decode(data: bytes) -> tuple[int, dict[str, Any], bytes]:
    """The (kind, fields, payload) that encode laid out."""
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
    return kind, fields, bytes(data[_HDR.size + hlen:])


def _xor(value: bytes, mask: bytes) -> bytes:
    return bytes(b ^ mask[i % len(mask)] for i, b in enumerate(value))


def corrupt_value(frame: Frame, mask: bytes) -> Frame:
    """The same kind of frame with the same fields and its value payload
    XORed with a repeating mask.

    Frames without a value payload pass through unchanged: a value
    fault corrupts data being voted on, not protocol bookkeeping.
    """
    payload = getattr(frame, "payload", b"")
    if not mask or not payload:
        return frame
    return type(frame)(**{**dict(zip(frame.fields, frame)), "payload": _xor(payload, mask)})
