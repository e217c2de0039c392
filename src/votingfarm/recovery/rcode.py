"""Binary form of recovery strategies.

Layout:

    magic "EFRC" | version u8 | include pool | rules | default block

    include pool: varint count, then per include: varint length + UTF-8
        holding no '"' and no newline, as an INCLUDE string
    rules: varint count, then per rule:
        condition as a postfix opcode stream terminated by END
        varint action count, then actions
    default block: u8 present flag, then varint action count + actions

    condition opcodes: FAULTY entity | PHASE entity value | NOT | AND | OR,
        at most lang.MAX_DEPTH operators deep
    action: verb opcode, varint target count, targets
    entity/target: varint tag (thread, group, fulfilled, complement,
    node) + varint id

All integers are unsigned LEB128 varints.  An ident, node or phase
value lies in 0..lang.MAX_VALUE (2^63 - 1), which nine varint bytes
carry: the parser refuses any other, and the encoder refuses a
negative in a program built some other way.  Decoding rebuilds the same
rule tree the parser produced, so compile/decode round-trips
structurally.  The parser is the one definition of a well-formed
strategy: decoding parses its own disassembly and rejects a program
the parser would refuse or read differently, so the disassembly of
any r-code that decodes compiles back to the same rules.
"""

from __future__ import annotations

from typing import Iterator

from ..core import VotingFarmError
from .lang import (
    Action,
    And,
    COMPLEMENT,
    Cond,
    EntityRef,
    Faulty,
    FULFILLED,
    GROUP,
    GuardedRule,
    MAX_DEPTH,
    NODE,
    Not,
    Or,
    PhaseEq,
    RlProgram,
    RlSyntaxError,
    THREAD,
    VERBS,
    format_program,
    parse_rl,
)

MAGIC = b"EFRC"
VERSION = 1

_OP_END = 0x00
_OP_FAULTY = 0x10
_OP_PHASE = 0x11
_OP_NOT = 0x01
_OP_AND = 0x02
_OP_OR = 0x03

_VERB_BASE = 0x20
_VERB_CODE = {verb: _VERB_BASE + i for i, verb in enumerate(VERBS)}
_VERB_NAME = {code: verb for verb, code in _VERB_CODE.items()}

_TAG_BY_KIND = {THREAD: 0, GROUP: 1, FULFILLED: 2, COMPLEMENT: 3, NODE: 4}
_KIND_BY_TAG = {v: k for k, v in _TAG_BY_KIND.items()}


class DecodeError(VotingFarmError):
    pass


def _varint(n: int) -> bytes:
    if n < 0:
        raise VotingFarmError("varints are unsigned")
    out = bytearray()
    while True:
        b = n & 0x7F
        n >>= 7
        if n:
            out.append(b | 0x80)
        else:
            out.append(b)
            return bytes(out)


class _Reader:
    def __init__(self, data: bytes):
        self.data = data
        self.pos = 0

    def u8(self) -> int:
        if self.pos >= len(self.data):
            raise DecodeError("truncated r-code")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def varint(self) -> int:
        shift = 0
        value = 0
        while True:
            b = self.u8()
            value |= (b & 0x7F) << shift
            if not b & 0x80:
                return value
            shift += 7
            if shift > 63:
                raise DecodeError("varint too long")

    def raw(self, n: int) -> bytes:
        if self.pos + n > len(self.data):
            raise DecodeError("truncated r-code")
        chunk = self.data[self.pos:self.pos + n]
        self.pos += n
        return chunk


# -- encoding -----------------------------------------------------------

def _encode_entity(ref: EntityRef) -> bytes:
    return _varint(_TAG_BY_KIND[ref.kind]) + _varint(ref.ident)


def _postfix(cond: Cond) -> Iterator[bytes]:
    if isinstance(cond, Faulty):
        yield bytes([_OP_FAULTY]) + _encode_entity(cond.subject)
    elif isinstance(cond, PhaseEq):
        yield bytes([_OP_PHASE]) + _encode_entity(cond.subject) + _varint(cond.value)
    elif isinstance(cond, Not):
        yield from _postfix(cond.operand)
        yield bytes([_OP_NOT])
    elif isinstance(cond, (And, Or)):
        yield from _postfix(cond.left)
        yield from _postfix(cond.right)
        yield bytes([_OP_AND if isinstance(cond, And) else _OP_OR])
    else:
        raise VotingFarmError(f"unencodable condition node {cond!r}")


def _encode_actions(actions: tuple[Action, ...]) -> bytes:
    out = bytearray(_varint(len(actions)))
    for action in actions:
        out.append(_VERB_CODE[action.verb])
        out += _varint(len(action.targets))
        for t in action.targets:
            out += _encode_entity(t)
    return bytes(out)


def compile_program(program: RlProgram) -> bytes:
    out = bytearray(MAGIC)
    out.append(VERSION)
    out += _varint(len(program.includes))
    for name in program.includes:
        raw = name.encode("utf-8")
        out += _varint(len(raw)) + raw
    out += _varint(len(program.rules))
    for rule in program.rules:
        for chunk in _postfix(rule.condition):
            out += chunk
        out.append(_OP_END)
        out += _encode_actions(rule.actions)
    if program.default is None:
        out.append(0)
    else:
        out.append(1)
        out += _encode_actions(program.default)
    return bytes(out)


# -- decoding -----------------------------------------------------------

def _decode_entity(r: _Reader) -> EntityRef:
    tag = r.varint()
    if tag not in _KIND_BY_TAG:
        raise DecodeError(f"unknown entity tag {tag}")
    return EntityRef(_KIND_BY_TAG[tag], r.varint())


def _decode_condition(r: _Reader) -> Cond:
    stack: list[tuple[Cond, int]] = []  # each node with its height in levels
    while True:
        op = r.u8()
        if op == _OP_END:
            break
        if op == _OP_FAULTY:
            stack.append((Faulty(_decode_entity(r)), 0))
            continue
        if op == _OP_PHASE:
            subject = _decode_entity(r)
            stack.append((PhaseEq(subject, r.varint()), 0))
            continue
        if op == _OP_NOT:
            if not stack:
                raise DecodeError("NOT with empty stack")
            operand, height = stack.pop()
            node = Not(operand)
        elif op in (_OP_AND, _OP_OR):
            if len(stack) < 2:
                raise DecodeError("binary operator with short stack")
            (right, right_height), (left, height) = stack.pop(), stack.pop()
            node = And(left, right) if op == _OP_AND else Or(left, right)
            height = max(height, right_height)
        else:
            raise DecodeError(f"unknown condition opcode {op:#x}")
        if height >= MAX_DEPTH:
            raise DecodeError(f"condition nests deeper than {MAX_DEPTH} levels")
        stack.append((node, height + 1))
    if len(stack) != 1:
        raise DecodeError("condition stream is not a single expression")
    return stack[0][0]


def _decode_actions(r: _Reader) -> tuple[Action, ...]:
    count = r.varint()
    actions = []
    for _ in range(count):
        code = r.u8()
        verb = _VERB_NAME.get(code)
        if verb is None:
            raise DecodeError(f"unknown action opcode {code:#x}")
        n_targets = r.varint()
        targets = tuple(_decode_entity(r) for _ in range(n_targets))
        actions.append(Action(verb, targets))
    return tuple(actions)


def decode_program(data: bytes) -> RlProgram:
    r = _Reader(data)
    if r.raw(4) != MAGIC:
        raise DecodeError("bad magic; not an r-code file")
    version = r.u8()
    if version != VERSION:
        raise DecodeError(f"unsupported r-code version {version}")
    try:
        includes = tuple(r.raw(r.varint()).decode("utf-8") for _ in range(r.varint()))
    except UnicodeDecodeError as exc:
        raise DecodeError(f"include name is not UTF-8: {exc}") from None
    for name in includes:  # the lexer's string token holds neither, so no INCLUDE names one
        if '"' in name or "\n" in name:
            raise DecodeError(f"include name {name!r} holds a quote or a newline")
    rules = []
    for _ in range(r.varint()):
        cond = _decode_condition(r)
        rules.append(GuardedRule(cond, _decode_actions(r)))
    default = _decode_actions(r) if r.u8() else None
    if r.pos != len(r.data):
        raise DecodeError(f"{len(r.data) - r.pos} trailing bytes")
    program = RlProgram(includes, tuple(rules), default)
    try:
        again = parse_rl(format_program(program))
    except RlSyntaxError as exc:
        raise DecodeError(f"not a well-formed strategy: {exc}") from None
    if (again.rules, again.default) != (program.rules, program.default):
        raise DecodeError("not a well-formed strategy: its source reads back differently")
    return program


def disassemble(data: bytes) -> str:
    return format_program(decode_program(data))
