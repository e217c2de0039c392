"""Binary strategy form: compile/decode round-trips and error detection."""

import dataclasses
import random
from pathlib import Path

import pytest

from votingfarm.core import VotingFarmError
from votingfarm.recovery.lang import (
    Action,
    And,
    COMPLEMENT,
    EntityRef,
    Faulty,
    FULFILLED,
    GROUP,
    GuardedRule,
    MAX_DEPTH,
    MAX_VALUE,
    NODE,
    Not,
    Or,
    PhaseEq,
    RlProgram,
    THREAD,
    format_program,
    parse_rl,
)
from votingfarm.recovery.rcode import (
    MAGIC,
    VERSION,
    DecodeError,
    compile_program,
    decode_program,
    disassemble,
)

SCEN = Path(__file__).resolve().parents[1] / "src" / "votingfarm" / "scenarios"


def bundled(name):
    return parse_rl((SCEN / name).read_text(), include_dirs=(str(SCEN),))


def random_condition(rng, depth, subjects):
    if depth == 0 or rng.random() < 0.4:
        subject = rng.choice(subjects)
        if rng.random() < 0.5:
            return Faulty(subject)
        return PhaseEq(subject, rng.randrange(0, 5))
    shape = rng.randrange(3)
    if shape == 0:
        return Not(random_condition(rng, depth - 1, subjects))
    cls = And if shape == 1 else Or
    return cls(
        random_condition(rng, depth - 1, subjects),
        random_condition(rng, depth - 1, subjects),
    )


def random_actions(rng, *, selectors):
    verbs = ["KILL", "START", "RESTART", "WARN"]
    actions = []
    for _ in range(rng.randrange(1, 4)):
        roll = rng.random()
        if roll < 0.1:
            actions.append(Action("PURGE"))
        elif roll < 0.25:
            verb = rng.choice(["REBOOT", "SHUTDOWN"])
            actions.append(Action(verb, (EntityRef(NODE, rng.randrange(1, 9)),)))
        else:
            pool = [EntityRef(THREAD, rng.randrange(1, 9)) for _ in range(3)]
            pool.append(EntityRef(GROUP, rng.randrange(1, 4)))
            if selectors:
                pool += [EntityRef(FULFILLED), EntityRef(COMPLEMENT)]
            count = rng.randrange(1, 3)
            actions.append(Action(rng.choice(verbs), tuple(rng.sample(pool, count))))
    return tuple(actions)


def random_program(rng):
    if rng.random() < 0.3:
        # single-group condition, selector targets allowed
        gid = rng.randrange(1, 4)
        cond = random_condition(rng, 2, [EntityRef(GROUP, gid)])
        rules = (GuardedRule(cond, random_actions(rng, selectors=True)),)
    else:
        subjects = [EntityRef(THREAD, i) for i in range(1, 5)]
        rules = tuple(
            GuardedRule(
                random_condition(rng, 3, subjects),
                random_actions(rng, selectors=False),
            )
            for _ in range(rng.randrange(1, 4))
        )
    default = random_actions(rng, selectors=False) if rng.random() < 0.4 else None
    return RlProgram((), rules, default)


CORPUS = [bundled("table4.rl"), bundled("table5.rl")]
_rng = random.Random(20260814)
CORPUS += [random_program(_rng) for _ in range(34)]


def test_corpus_is_large_enough():
    assert len(CORPUS) >= 30


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_compile_decode_round_trip(idx):
    program = CORPUS[idx]
    data = compile_program(program)
    assert data.startswith(MAGIC)
    assert decode_program(data) == program


@pytest.mark.parametrize("idx", range(len(CORPUS)))
def test_text_layer_round_trip(idx):
    program = CORPUS[idx]
    again = parse_rl(format_program(program))  # INCLUDE lines come back as comments
    assert again == dataclasses.replace(program, includes=())


def test_header_is_magic_then_version():
    data = compile_program(CORPUS[0])
    assert data[:4] == MAGIC
    assert data[4] == VERSION


def test_replace_with_spare_strategy_compiles_compactly():
    data = compile_program(bundled("table4.rl"))
    assert len(data) < 100  # one rule, three actions: tens of bytes


def test_all_entity_tags_survive():
    program = RlProgram(
        (),
        (
            GuardedRule(
                Faulty(EntityRef(GROUP, 1)),
                (
                    Action("KILL", (EntityRef(FULFILLED),)),
                    Action("WARN", (EntityRef(COMPLEMENT), EntityRef(THREAD, 7))),
                    Action("REBOOT", (EntityRef(NODE, 2),)),
                    Action("PURGE"),
                ),
            ),
        ),
        None,
    )
    assert decode_program(compile_program(program)) == program


def test_rules_may_be_empty_when_default_exists():
    program = RlProgram((), (), (Action("PURGE"),))
    assert decode_program(compile_program(program)) == program


def test_includes_are_preserved():
    program = RlProgram(("a.h", "b.h"), (), (Action("PURGE"),))
    assert decode_program(compile_program(program)).includes == ("a.h", "b.h")


def test_bad_magic_rejected():
    data = bytearray(compile_program(CORPUS[0]))
    data[0] ^= 0xFF
    with pytest.raises(DecodeError, match="magic"):
        decode_program(bytes(data))


def test_bad_version_rejected():
    data = bytearray(compile_program(CORPUS[0]))
    data[4] = 99
    with pytest.raises(DecodeError, match="version"):
        decode_program(bytes(data))


def test_truncation_rejected():
    data = compile_program(bundled("table4.rl"))
    for cut in (5, len(data) // 2, len(data) - 1):
        with pytest.raises(DecodeError):
            decode_program(data[:cut])


def test_trailing_bytes_rejected():
    data = compile_program(CORPUS[0])
    with pytest.raises(DecodeError, match="trailing"):
        decode_program(data + b"\x00")


def test_disassembly_reparses_to_same_rules():
    program = bundled("table4.rl")
    text = disassemble(compile_program(program))
    again = parse_rl(text)  # INCLUDE lines come back as comments
    assert again.rules == program.rules
    assert again.default == program.default


T1 = EntityRef(THREAD, 1)
KILL_T1 = (Action("KILL", (T1,)),)


def rule(cond, actions=KILL_T1):
    return RlProgram((), (GuardedRule(cond, actions),), None)


def with_include_name(raw):
    """An r-code file whose one include name is the given bytes."""
    data = compile_program(RlProgram(("a",), (), (Action("PURGE"),)))
    return data.replace(b"\x01a", bytes([len(raw)]) + raw, 1)


def alternating(n):
    """n levels of AND and OR, each the right operand of the one above,
    so the disassembly parenthesises every OR below an AND."""
    cond = Faulty(T1)
    for level in range(n):
        cond = And(Faulty(T1), cond) if level % 2 else Or(Faulty(T1), cond)
    return cond


# Each of these decodes structurally, but the parser refuses its
# disassembly (or reads it as another program), or it names an include
# no INCLUDE string can hold, so decoding must refuse it too.
ILL_FORMED = {
    "no-rules-no-default": compile_program(RlProgram((), (), None)),
    "empty-rule-block": compile_program(rule(Faulty(T1), ())),
    "empty-default-block": compile_program(RlProgram((), (), ())),
    "node-subject": compile_program(rule(Faulty(EntityRef(NODE, 2)))),
    "fulfilled-subject": compile_program(rule(Faulty(EntityRef(FULFILLED)))),
    "complement-subject": compile_program(rule(PhaseEq(EntityRef(COMPLEMENT), 4))),
    "kill-a-node": compile_program(rule(Faulty(T1), (Action("KILL", (EntityRef(NODE, 2),)),))),
    "kill-nothing": compile_program(rule(Faulty(T1), (Action("KILL"),))),
    "reboot-a-thread": compile_program(rule(Faulty(T1), (Action("REBOOT", (T1,)),))),
    "purge-a-target": compile_program(rule(Faulty(T1), (Action("PURGE", (T1,)),))),
    "selector-in-default": compile_program(RlProgram((), (), (Action("KILL", (EntityRef(FULFILLED),)),))),
    "selector-over-two-groups": compile_program(
        rule(Or(Faulty(EntityRef(GROUP, 1)), Faulty(EntityRef(GROUP, 2))), (Action("KILL", (EntityRef(FULFILLED),)),))),
    "include-injects-a-rule": with_include_name(b'x\nIF [ -FAULTY THREAD1 ] THEN PURGE FI\n#'),
    "include-not-utf8": with_include_name(b"\xff"),
    "include-holds-a-newline": compile_program(RlProgram(("x\n# more",), (), (Action("PURGE"),))),
    "include-holds-a-quote": compile_program(RlProgram(('a"b',), (), (Action("PURGE"),))),
    "too-deep-once-parenthesised": compile_program(rule(alternating(MAX_DEPTH * 4 // 5))),
}


def deep_r_code(n, op):
    """The r-code of IF [ -FAULTY THREAD1 ] THEN KILL THREAD1 FI with its
    condition wrapped in n NOTs, or chained n times with AND."""
    faulty = bytes([0x10, 0x00, 0x01])  # FAULTY, THREAD tag, ident 1
    postfix = faulty + (b"\x01" * n if op == "not" else (faulty + b"\x02") * n)
    data = compile_program(rule(Faulty(T1)))
    return data.replace(faulty + b"\x00", postfix + b"\x00", 1)


@pytest.mark.parametrize("op", ["not", "and"])
def test_decoding_bounds_condition_depth(op):
    program = decode_program(deep_r_code(MAX_DEPTH, op))
    assert parse_rl(disassemble(deep_r_code(MAX_DEPTH, op))) == program
    for n in (MAX_DEPTH + 1, MAX_DEPTH * 100):
        with pytest.raises(DecodeError, match=f"nests deeper than {MAX_DEPTH} levels"):
            disassemble(deep_r_code(n, op))


@pytest.mark.parametrize("shape", ILL_FORMED)
def test_decoding_rejects_what_the_parser_rejects(shape):
    with pytest.raises(DecodeError):
        decode_program(ILL_FORMED[shape])


def test_idents_and_values_past_one_varint_byte_round_trip():
    program = parse_rl("IF [ -PHASE THREAD200 == 300 ] THEN KILL THREAD200 FI")
    data = compile_program(program)
    # PHASE, THREAD tag, 200 and 300 as two-byte varints, END
    assert bytes([0x11, 0x00, 0xC8, 0x01, 0xAC, 0x02, 0x00]) in data
    assert decode_program(data) == program
    assert disassemble(data) == "IF [ -PHASE THREAD200 == 300 ]\nTHEN\n    KILL THREAD200\nFI\n"
    top = MAX_VALUE  # 2**63 - 1, the largest value the parser takes
    program = parse_rl(f"IF [ -PHASE THREAD{top} == {top} ] THEN REBOOT {top} FI")
    data = compile_program(program)
    nine = b"\xff" * 8 + b"\x7f"  # 63 one-bits as nine varint bytes
    assert bytes([0x11, 0x00]) + nine + nine + bytes([0x00]) in data
    assert decode_program(data) == program
    assert disassemble(data) == f"IF [ -PHASE THREAD{top} == {top} ]\nTHEN\n    REBOOT {top}\nFI\n"


def test_a_negative_in_a_program_built_in_code_does_not_compile():
    program = RlProgram(rules=(GuardedRule(Faulty(EntityRef(THREAD, -1)), KILL_T1),))
    with pytest.raises(VotingFarmError, match="varints are unsigned"):
        compile_program(program)


HEAD = MAGIC + bytes([VERSION, 0x00])  # no includes
FAULTY_T1 = bytes([0x10, 0x00, 0x01])
KILL_T1_CODE = bytes([0x01, 0x20, 0x01, 0x00, 0x01])  # one action: KILL, one target, THREAD 1


def one_rule(condition, actions=KILL_T1_CODE):
    """The r-code of one rule with the given condition stream (END
    included) and actions, and no DEFAULT block."""
    return HEAD + b"\x01" + condition + actions + b"\x00"


# One r-code file per message decoding can raise, with that message.
DECODE_ERRORS = {
    "magic": (b"EFRX\x01", "bad magic; not an r-code file"),
    "shorter-than-magic": (b"EFR", "truncated r-code"),
    "no-version": (MAGIC, "truncated r-code"),
    "version": (MAGIC + b"\x63", "unsupported r-code version 99"),
    "varint-past-63-bits": (MAGIC + bytes([VERSION]) + b"\x80" * 10 + b"\x00", "varint too long"),
    "include-past-the-end": (MAGIC + bytes([VERSION, 0x01, 0x05]) + b"ab", "truncated r-code"),
    "include-not-utf8": (MAGIC + bytes([VERSION, 0x01, 0x01, 0xFF, 0x00, 0x01, 0x01, 0x26]),
                         "include name is not UTF-8: 'utf-8' codec can't decode byte 0xff "
                         "in position 0: invalid start byte"),
    "include-quote": (MAGIC + bytes([VERSION, 0x01, 0x03]) + b'a"b\x00\x01\x01\x26',
                      "include name 'a\"b' holds a quote or a newline"),
    "entity-tag": (one_rule(bytes([0x10, 0x09, 0x01, 0x00])), "unknown entity tag 9"),
    "not-on-empty-stack": (one_rule(b"\x01\x00"), "NOT with empty stack"),
    "and-on-short-stack": (one_rule(FAULTY_T1 + b"\x02\x00"), "binary operator with short stack"),
    "or-on-empty-stack": (one_rule(b"\x03\x00"), "binary operator with short stack"),
    "condition-opcode": (one_rule(FAULTY_T1 + b"\x07\x00"), "unknown condition opcode 0x7"),
    "too-deep": (one_rule(FAULTY_T1 + b"\x01" * (MAX_DEPTH + 1) + b"\x00"),
                 f"condition nests deeper than {MAX_DEPTH} levels"),
    "two-expressions": (one_rule(FAULTY_T1 + FAULTY_T1 + b"\x00"), "condition stream is not a single expression"),
    "no-expression": (one_rule(b"\x00"), "condition stream is not a single expression"),
    "action-opcode": (one_rule(FAULTY_T1 + b"\x00", b"\x01\x7f\x00"), "unknown action opcode 0x7f"),
    "trailing": (one_rule(FAULTY_T1 + b"\x00") + b"\x00", "1 trailing bytes"),
    "parser-refuses": (HEAD + b"\x00\x00",
                       "not a well-formed strategy: strategy has no rules and no DEFAULT block"),
    # THREAD@ with ident 5: its disassembly reads back as THREAD@ with ident 0
    "reads-back-differently": (
        one_rule(bytes([0x10, 0x01, 0x01, 0x00]), bytes([0x01, 0x20, 0x01, 0x02, 0x05])),
        "not a well-formed strategy: its source reads back differently"),
}


@pytest.mark.parametrize("case", DECODE_ERRORS)
def test_each_decode_error_names_its_fault(case):
    data, message = DECODE_ERRORS[case]
    with pytest.raises(DecodeError) as exc:
        decode_program(data)
    assert str(exc.value) == message
