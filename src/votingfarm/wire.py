"""Messages crossing the simulated fabric.

Each of the eight message kinds is a read-only slotted class that
declares the fields it carries, declared in one line as a namedtuple
is.  The voted data travels as the ``payload`` of an input, a
broadcast or an output; the other kinds carry control fields only.
Senders build frames, the fabric carries them as they are and
receivers read their attributes, so no message is serialised on its
way: a phase report carries the voter's VoterPhase itself, whose value
is the code recovery strategies compare.

A frame renders its trace detail once, when it is built: every frame
is sent or posted, so it is traced at least once, and a broadcast
shared by several receivers is rendered only once.

``encode``/``decode`` define a bytes layout of a kind, fields and
payload.  Nothing in the package or its demos calls them; they remain
because the benchmark's tracer (perfbench/tracing.py) patches them by
name, and go once its wire metrics are retired:

    kind:u8 | header_len:u32be | header (JSON, utf-8) | value payload

The value payload is a field of its own, so the fault injector
corrupts voted values without touching the control fields, which
matches the fault model: value failures corrupt data, they do not turn
messages into garbage.
"""

from __future__ import annotations

import dataclasses
import json
import struct
from typing import Any, Callable, Mapping

from .core import VfStatusCode, VoterPhase

# Frame kinds
K_INPUT = 1       # user module -> voter: new input value
K_BROADCAST = 2   # voter -> fellow voter: relayed input
K_OUTPUT = 3      # voter -> output endpoint: voted value
K_STATUS = 4      # voter -> user module: VfStatus reply
K_CONTROL = 5     # user module -> voter: algorithm/output/close/reset
K_PHASE = 6       # voter -> recovery database: phase report
K_FAULT = 7       # fabric watchdog -> recovery database: fault record
K_WARN = 8        # recovery interpreter -> voter: rebuilt descriptor

_HDR = struct.Struct(">BI")

_TRACED_FIELDS = ("status", "detail", "req", "phase", "fault", "session", "member", "valid")
# Enum fields are traced as their member's name, which is also their str,
# read directly: formatting goes through Enum.__format__, Python code
# that costs about three times as much.
_NAMED = frozenset({VfStatusCode, VoterPhase})


class FrameError(Exception):
    pass


class Frame:
    """Base of the message kinds: a frame's kind, its name and the
    fields its trace line shows are class attributes."""

    __slots__ = ("trace_detail",)
    kind: int
    name: str
    traced: tuple[str, ...]

    def __post_init__(self) -> None:
        """Render the trace detail.  The first frame of a kind compiles
        that kind's renderer and installs it as its __post_init__."""
        cls = type(self)
        cls.__post_init__ = _renderer(cls)
        self.__post_init__()

    def __setattr__(self, name: str, value: Any = None) -> None:  # also __delattr__
        raise AttributeError(f"a {self.name} frame is read-only, cannot set {name}")

    __delattr__ = __setattr__


def _renderer(cls: type) -> Callable[[Frame], None]:
    """A __post_init__ for the frame class: it sets trace_detail to the
    kind's name, then key=value for each traced field that is not None
    (an enum as its member's name), then payload=<hex> if the frame has
    a non-empty payload.  It is compiled from the kind's own fields, as
    dataclass methods are, and costs about half as much as a loop over
    them."""
    lines = ["def __post_init__(self):"]
    for i, key in enumerate(cls.traced):
        lines.append(f"    v = self.{key}")
        lines.append(f"    f{i} = '' if v is None else f' {key}={{v._name_}}' if type(v) in _NAMED else f' {key}={{v}}'")
    parts = "".join(f"{{f{i}}}" for i in range(len(cls.traced)))
    if any(f.name == "payload" for f in dataclasses.fields(cls)):
        lines.append("    payload = f' payload={self.payload.hex()}' if self.payload else ''")
        parts += "{payload}"
    lines.append(f"    set_detail(self, f'{cls.name}{parts}')")
    namespace = {"_NAMED": _NAMED, "set_detail": Frame.trace_detail.__set__}  # the slot's own setter
    exec("\n".join(lines), namespace)
    return namespace["__post_init__"]


def _message(name: str, kind: int, fields: str, **defaults: Any) -> type:
    """A read-only frame class with the given space-separated fields,
    then the keyword ones with their defaults."""
    names = fields.split() + list(defaults)
    namespace = {"kind": kind, "name": name.lower(), "traced": tuple(k for k in _TRACED_FIELDS if k in names)}
    cls = dataclasses.make_dataclass(
        name, [(n, Any, defaults[n]) if n in defaults else (n, Any) for n in names], bases=(Frame,),
        namespace=namespace, frozen=True, slots=True, eq=False, repr=False)
    # frozen=True gives an __init__ that writes through object.__setattr__;
    # Frame's own guard refuses every name, where the dataclass one fails
    # with a TypeError on a name that is not a field (slots=True, 3.11).
    del cls.__setattr__, cls.__delattr__
    return cls


Input = _message("Input", K_INPUT, "payload", valid=True)
Broadcast = _message("Broadcast", K_BROADCAST, "member session epoch valid payload")
Output = _message("Output", K_OUTPUT, "session member payload")
Status = _message("Status", K_STATUS, "status detail session")
Control = _message("Control", K_CONTROL, "req", arg=None, member=None)  # arg: algorithm fields or node
Phase = _message("Phase", K_PHASE, "member phase")
Fault = _message("Fault", K_FAULT, "member fault")
Warn = _message("Warn", K_WARN, "farm epoch")


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
    return dataclasses.replace(frame, payload=_xor(payload, mask))
