"""Binary strategy form: compile/decode round-trips and error detection."""

import random
from pathlib import Path

import pytest

from votingfarm.recovery.lang import (
    Action,
    And,
    COMPLEMENT,
    EntityRef,
    Faulty,
    FULFILLED,
    GROUP,
    GuardedRule,
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
    if program.includes:
        return  # formatting re-emits INCLUDE; covered by the language tests
    assert parse_rl(format_program(program)) == program


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
}


@pytest.mark.parametrize("shape", ILL_FORMED)
def test_decoding_rejects_what_the_parser_rejects(shape):
    with pytest.raises(DecodeError):
        decode_program(ILL_FORMED[shape])
