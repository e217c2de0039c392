"""Strategy language: grammar, includes, selector rules, formatting."""

import dataclasses
from pathlib import Path

import pytest

from votingfarm import scenario
from votingfarm.recovery import lang
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
    RlSyntaxError,
    THREAD,
    UndefinedName,
    UnknownEntity,
    format_program,
    load_definitions,
    parse_rl,
    tokenize,
)

SCEN = Path(__file__).resolve().parents[1] / "src" / "votingfarm" / "scenarios"

T1 = EntityRef(THREAD, 1)
T2 = EntityRef(THREAD, 2)
T3 = EntityRef(THREAD, 3)
T4 = EntityRef(THREAD, 4)
G1 = EntityRef(GROUP, 1)
AT = EntityRef(FULFILLED)
TILDE = EntityRef(COMPLEMENT)


def parse(text, **kw):
    return parse_rl(text, **kw)


def test_replace_with_spare_strategy_parses_to_expected_tree():
    program = parse((SCEN / "table4.rl").read_text(), include_dirs=(str(SCEN),))
    assert program.includes == ("vf_phases.h",)
    assert program.default is None
    (rule,) = program.rules
    assert rule.condition == Or(Faulty(T1), PhaseEq(T1, 4))
    assert rule.actions == (
        Action("KILL", (T1,)),
        Action("START", (T4,)),
        Action("WARN", (T2, T3)),
    )


def test_degradation_strategy_uses_group_selectors():
    program = parse((SCEN / "table5.rl").read_text(), include_dirs=(str(SCEN),))
    (rule,) = program.rules
    assert rule.condition == Or(Faulty(G1), PhaseEq(G1, 4))
    assert rule.actions == (Action("KILL", (AT,)), Action("WARN", (TILDE,)))


def test_and_binds_tighter_than_or():
    program = parse(
        "IF [ -FAULTY THREAD1 OR -FAULTY THREAD2 AND -FAULTY THREAD3 ]\n"
        "THEN KILL THREAD1 FI"
    )
    assert program.rules[0].condition == Or(Faulty(T1), And(Faulty(T2), Faulty(T3)))


def test_not_binds_tighter_than_and():
    program = parse(
        "IF [ NOT -FAULTY THREAD1 AND -FAULTY THREAD2 ] THEN KILL THREAD1 FI"
    )
    assert program.rules[0].condition == And(Not(Faulty(T1)), Faulty(T2))


def test_parentheses_override_precedence():
    program = parse(
        "IF [ ( -FAULTY THREAD1 OR -FAULTY THREAD2 ) AND -FAULTY THREAD3 ]\n"
        "THEN KILL THREAD1 FI"
    )
    assert program.rules[0].condition == And(Or(Faulty(T1), Faulty(T2)), Faulty(T3))


def test_newlines_inside_condition_brackets_are_insignificant():
    program = parse(
        "IF [ -FAULTY THREAD1\n     OR\n     -FAULTY THREAD2 ]\nTHEN KILL THREAD1 FI"
    )
    assert program.rules[0].condition == Or(Faulty(T1), Faulty(T2))


def test_actions_split_by_newline_and_by_and_are_equivalent():
    by_nl = parse("IF [ -FAULTY THREAD1 ] THEN\nKILL THREAD1\nWARN THREAD2\nFI")
    by_and = parse("IF [ -FAULTY THREAD1 ] THEN KILL THREAD1 AND WARN THREAD2 FI")
    assert by_nl.rules[0].actions == by_and.rules[0].actions


def test_warn_target_list_stays_one_action():
    program = parse("IF [ -FAULTY THREAD1 ] THEN WARN THREAD2, THREAD3, THREAD4 FI")
    assert program.rules[0].actions == (Action("WARN", (T2, T3, T4)),)


def test_a_comma_continues_a_target_list_only_on_the_line_of_the_target_before_it():
    program = parse("IF [ -FAULTY THREAD1 ] THEN\nWARN THREAD2,\n    THREAD3\nFI")
    assert program.rules[0].actions == (Action("WARN", (T2, T3)),)
    with pytest.raises(RlSyntaxError, match="line 3:1: expected kw, got ','"):
        parse("IF [ -FAULTY THREAD1 ] THEN\nWARN THREAD2\n, THREAD3\nFI")


def test_node_verbs_take_node_numbers():
    program = parse(
        "IF [ -FAULTY THREAD1 ] THEN REBOOT 3 AND SHUTDOWN 1 AND PURGE FI"
    )
    assert program.rules[0].actions == (
        Action("REBOOT", (EntityRef(NODE, 3),)),
        Action("SHUTDOWN", (EntityRef(NODE, 1),)),
        Action("PURGE"),
    )


def test_default_block_and_duplicate_default():
    program = parse("DEFAULT\nWARN THREAD1\nFI")
    assert program.rules == ()
    assert program.default == (Action("WARN", (T1,)),)
    with pytest.raises(RlSyntaxError, match="more than one DEFAULT"):
        parse("DEFAULT\nPURGE\nFI\nDEFAULT\nPURGE\nFI")


def test_empty_source_is_rejected():
    with pytest.raises(RlSyntaxError, match="no rules and no DEFAULT"):
        parse("   \n# only a comment\n")


def test_empty_action_block_is_rejected():
    with pytest.raises(RlSyntaxError, match="empty action block"):
        parse("IF [ -FAULTY THREAD1 ] THEN FI")


def test_undefined_deref_carries_position():
    src = "IF [ -PHASE THREAD1 == {UNDEF} ] THEN KILL THREAD1 FI"
    with pytest.raises(UndefinedName) as exc:
        parse(src)
    assert exc.value.line == 1
    assert exc.value.col == src.index("{UNDEF}") + 1
    assert "UNDEF" in str(exc.value)


# Conditions n levels deep, each kind of nesting on its own and mixed.
# Each parenthesised chain of the last is four levels, one for its
# parenthesis and one for each AND, so its tree is four times as deep
# as its parentheses.
NESTINGS = {
    "and-chain": lambda n: " AND ".join(["-FAULTY THREAD1"] * (n + 1)),
    "or-chain": lambda n: " OR ".join(["-FAULTY THREAD1"] * (n + 1)),
    "nots": lambda n: "NOT " * n + "-FAULTY THREAD1",
    "parentheses": lambda n: "( " * n + "-FAULTY THREAD1" + " )" * n,
    "chains-in-parentheses": lambda n: "NOT " * (n % 4) + "( " * (n // 4) + "-FAULTY THREAD1"
    + (" AND -FAULTY THREAD2" * 3 + " )") * (n // 4),
}


@pytest.mark.parametrize("nesting", NESTINGS)
def test_a_condition_nests_at_most_max_depth_levels(nesting):
    program = parse(f"IF [ {NESTINGS[nesting](lang.MAX_DEPTH)} ] THEN KILL THREAD1 FI")
    assert parse(format_program(program)) == program
    for depth in (lang.MAX_DEPTH + 1, lang.MAX_DEPTH * 100):
        text = f"IF [ {NESTINGS[nesting](depth)} ] THEN KILL THREAD1 FI"
        with pytest.raises(RlSyntaxError, match=f"nests deeper than {lang.MAX_DEPTH} levels") as exc:
            parse(text)
        assert exc.value.line == 1 and exc.value.col > len("IF [ ")


def test_malformed_entity_token():
    with pytest.raises(UnknownEntity, match="THREADX"):
        tokenize("IF [ -FAULTY THREADX ]")
    with pytest.raises(UnknownEntity, match="GROUPA"):
        tokenize("KILL GROUPA")


def test_selectors_forbidden_in_conditions():
    with pytest.raises(RlSyntaxError, match="cannot appear in a condition"):
        parse("IF [ -FAULTY THREAD@ ] THEN KILL THREAD1 FI")


def test_selector_requires_exactly_one_group():
    with pytest.raises(RlSyntaxError, match="exactly one group"):
        parse("IF [ -FAULTY THREAD1 ] THEN KILL THREAD@ FI")
    with pytest.raises(RlSyntaxError, match="exactly one group"):
        parse("IF [ -FAULTY GROUP1 OR -FAULTY GROUP2 ] THEN KILL THREAD@ FI")
    # one group among thread predicates is fine
    program = parse("IF [ -FAULTY GROUP2 AND -FAULTY THREAD1 ] THEN KILL THREAD~ FI")
    assert program.rules[0].actions == (Action("KILL", (TILDE,)),)


def test_selector_forbidden_in_default():
    with pytest.raises(RlSyntaxError, match="DEFAULT block cannot use"):
        parse("IF [ -FAULTY GROUP1 ] THEN KILL THREAD1 FI\nDEFAULT\nWARN THREAD@\nFI")


def test_include_resolution_and_missing_include(tmp_path):
    hdr = tmp_path / "limits.h"
    hdr.write_text("// thresholds\n#define LIMIT 7  /* inline */\nnot a define\n")
    program = parse(
        'INCLUDE "limits.h"\nIF [ -PHASE THREAD1 == {LIMIT} ] THEN KILL THREAD1 FI',
        include_dirs=(str(tmp_path),),
    )
    assert program.includes == ("limits.h",)
    assert program.rules[0].condition == PhaseEq(T1, 7)

    with pytest.raises(RlSyntaxError, match="not found") as exc:
        parse('INCLUDE "no_such.h"\nDEFAULT\nPURGE\nFI')
    assert exc.value.line == 1


def test_load_definitions_parses_only_define_lines(tmp_path):
    hdr = tmp_path / "mixed.h"
    hdr.write_text(
        "#define A 1\n"
        "# define B -2\n"
        "// #define C 3\n"
        "#define D 4 trailing junk\n"
        "int x = 5;\n"
    )
    assert load_definitions(str(hdr)) == {"A": 1, "B": -2}


def test_a_define_inside_a_comment_over_several_lines_is_not_read(tmp_path):
    (tmp_path / "old.h").write_text("/* old codes:\n#define VFP_FAILURE 9\n*/\n#define VFP_INIT 0\n")
    assert load_definitions(str(tmp_path / "old.h")) == {"VFP_INIT": 0}
    with pytest.raises(UndefinedName, match=r"line 2:24: \{VFP_FAILURE\} is not defined"):
        parse('INCLUDE "old.h"\nIF [ -PHASE THREAD1 == {VFP_FAILURE} ] THEN KILL THREAD1 FI',
              include_dirs=(str(tmp_path),))


def test_a_parse_reads_each_header_once(tmp_path, monkeypatch):
    # The definitions and the bytes the kept program is checked against
    # must come from one read, or an edit between two reads goes unseen.
    rl = _strategy(tmp_path)
    opened = []
    monkeypatch.setattr(lang, "open", lambda path, *a, **k: opened.append(path) or open(path, *a, **k),
                        raising=False)
    assert _parse_file(rl).rules[0].condition == PhaseEq(T1, 4)
    assert opened == [str(rl), str(tmp_path / "codes.h")]


def test_syntax_errors_carry_line_and_column():
    with pytest.raises(RlSyntaxError) as exc:
        parse("IF [ -FAULTY THREAD1 ]\nTHEN\n    FROB THREAD1\nFI")
    assert exc.value.line == 3
    with pytest.raises(RlSyntaxError, match="unexpected character"):
        parse("IF [ -FAULTY THREAD1 ] THEN KILL THREAD1 FI $")


def too_deep_chain(word):
    """A chain of MAX_DEPTH + 1 `word` operators, and the 1-based column
    of the last one, where the depth check must point."""
    atom = "-FAULTY THREAD1"
    head = "IF [ " + f" {word} ".join([atom] * (lang.MAX_DEPTH + 1)) + " "
    return f"{head}{word} {atom} ] THEN PURGE FI", len(head) + 1


# Each message the parser can raise, with the line:col it reports.
SYNTAX_ERRORS = {
    "unexpected-character": ("DEFAULT\n  PURGE $\nFI", "line 2:9: unexpected character '$'"),
    "malformed-entity": ("DEFAULT\nKILL THREADX\nFI", "line 2:6: malformed entity 'THREADX'"),
    "unknown-word": ("DEFAULT\nFROB THREAD1\nFI", "line 2:1: unknown word 'FROB'"),
    "expected-token": ("IF -FAULTY THREAD1 ] THEN PURGE FI", "line 1:4: expected [, got 'FAULTY'"),
    "second-default": ("DEFAULT\nPURGE\nFI\nDEFAULT\nPURGE\nFI", "line 4:1: more than one DEFAULT block"),
    "expected-if-default-or-end": ("DEFAULT\nPURGE\nFI\n  THEN", "line 4:3: expected IF, DEFAULT or end, got 'THEN'"),
    "nothing": ("# only a comment\n", "strategy has no rules and no DEFAULT block"),
    "include-not-found": ('\nINCLUDE "no_such.h"\nDEFAULT\nPURGE\nFI', "line 2:9: include file 'no_such.h' not found"),
    "too-deep-or": (too_deep_chain("OR")[0],
                    f"line 1:{too_deep_chain('OR')[1]}: condition nests deeper than {lang.MAX_DEPTH} levels"),
    "too-deep-and": (too_deep_chain("AND")[0],
                     f"line 1:{too_deep_chain('AND')[1]}: condition nests deeper than {lang.MAX_DEPTH} levels"),
    "expected-predicate": ("IF [ -FAULTY THREAD1 OR\n  KILL ] THEN PURGE FI", "line 2:3: expected a predicate, got 'KILL'"),
    "selector-in-condition": ("IF [ -FAULTY THREAD@ ] THEN PURGE FI",
                              "line 1:14: THREAD@/THREAD~ cannot appear in a condition"),
    "undefined-name": ("IF [ -PHASE THREAD1 == {NOPE} ] THEN PURGE FI", "line 1:24: {NOPE} is not defined"),
    "expected-integer": ("IF [ -PHASE THREAD1 == ] THEN PURGE FI",
                         "line 1:24: expected an integer or {NAME}, got ']'"),
    "empty-action-block": ("IF [ -FAULTY THREAD1 ] THEN FI", "empty action block"),
    "expected-action": ("IF [ -FAULTY THREAD1 ] THEN\n  IF\nFI", "line 2:3: expected an action, got 'IF'"),
    "selector-needs-one-group": ("IF [ -FAULTY THREAD1 ] THEN KILL THREAD@ FI",
                                 "rule 1: THREAD@/THREAD~ require a condition over exactly one group"),
    "selector-in-default": ("DEFAULT\nWARN THREAD~\nFI", "DEFAULT block cannot use THREAD@/THREAD~"),
    # every value must fit the nine varint bytes of an r-code, so that what compiles decodes
    "value-above-max": ("IF [ -PHASE THREAD1 == 99999999999999999999999 ] THEN KILL THREAD1 FI",
                        "line 1:24: 99999999999999999999999 is above 9223372036854775807,"
                        " the largest value an r-code holds"),
    "ident-above-max": ("IF [ -FAULTY THREAD9223372036854775808 ] THEN PURGE FI",
                        "line 1:14: THREAD9223372036854775808 is above 9223372036854775807,"
                        " the largest value an r-code holds"),
    "negative-name": ('INCLUDE "values.h"\nIF [ -PHASE THREAD1 == {NEG} ] THEN KILL THREAD1 FI',
                      "line 2:24: {NEG} is -1, not in 0..9223372036854775807"),
    "negative-node": ('INCLUDE "values.h"\nIF [ -FAULTY THREAD1 ] THEN REBOOT {NEG} FI',
                      "line 2:36: {NEG} is -1, not in 0..9223372036854775807"),
    "name-above-max": ('INCLUDE "values.h"\nIF [ -PHASE THREAD1 == {BIG} ] THEN KILL THREAD1 FI',
                       "line 2:24: {BIG} is 9223372036854775808, not in 0..9223372036854775807"),
}


@pytest.mark.parametrize("case", SYNTAX_ERRORS)
def test_each_syntax_error_names_its_place(case, tmp_path):
    source, message = SYNTAX_ERRORS[case]
    (tmp_path / "values.h").write_text("#define NEG -1\n#define BIG 9223372036854775808\n")
    with pytest.raises(RlSyntaxError) as exc:
        parse(source, include_dirs=(str(tmp_path),))
    assert str(exc.value) == message


def test_format_round_trip_preserves_structure():
    for name in ("table4.rl", "table5.rl"):
        first = parse((SCEN / name).read_text(), include_dirs=(str(SCEN),))
        text = format_program(first)
        assert text.startswith('# INCLUDE "vf_phases.h"\n')
        second = parse(text)  # the values are written out, so no header is needed
        assert (second.includes, second.rules, second.default) == ((), first.rules, first.default)


def test_format_parenthesizes_only_where_needed():
    program = parse(
        "IF [ ( -FAULTY THREAD1 OR -FAULTY THREAD2 ) AND NOT -FAULTY THREAD3 ]\n"
        "THEN KILL THREAD1 FI"
    )
    text = format_program(program)
    assert "( -FAULTY THREAD1 OR -FAULTY THREAD2 )" in text
    assert parse(text) == program


# -- one parse per content ------------------------------------------------

STRATEGY = 'INCLUDE "codes.h"\nIF [ -PHASE THREAD1 == {BAD} ] THEN KILL THREAD1 FI\n'


def _strategy(tmp_path, text=STRATEGY, bad=4):
    (tmp_path / "codes.h").write_text(f"#define BAD {bad}\n")
    rl = tmp_path / "strategy.rl"
    rl.write_text(text)
    return rl


def _parse_file(rl):
    # as run_scenario reads a strategy: the file's text, its directory first
    return parse_rl(lang.read_text(str(rl)), include_dirs=(str(rl.parent),))


def test_equal_bytes_give_the_same_program(tmp_path):
    rl = _strategy(tmp_path)
    first = _parse_file(rl)
    assert _parse_file(rl) is first
    _strategy(tmp_path)  # rewritten with the same bytes
    assert _parse_file(rl) is first
    with pytest.raises(dataclasses.FrozenInstanceError):
        first.rules = ()


def test_editing_the_strategy_or_its_header_changes_the_program(tmp_path):
    rl = _strategy(tmp_path)
    assert _parse_file(rl).rules[0].condition == PhaseEq(T1, 4)
    _strategy(tmp_path, bad=3)
    assert _parse_file(rl).rules[0].condition == PhaseEq(T1, 3)
    _strategy(tmp_path, STRATEGY.replace("THREAD1 ==", "THREAD2 =="), bad=3)
    assert _parse_file(rl).rules[0].condition == PhaseEq(T2, 3)


def test_a_header_found_elsewhere_changes_the_program(tmp_path):
    first, second = tmp_path / "first", tmp_path / "second"
    first.mkdir()
    second.mkdir()
    _strategy(first)
    (second / "codes.h").write_text("#define BAD 2\n")
    dirs = (str(second), str(first))
    assert parse_rl(STRATEGY, include_dirs=dirs).rules[0].condition == PhaseEq(T1, 2)
    (second / "codes.h").unlink()  # now the header in the other directory is found
    assert parse_rl(STRATEGY, include_dirs=dirs).rules[0].condition == PhaseEq(T1, 4)


def test_a_deleted_header_is_not_found_again(tmp_path):
    rl = _strategy(tmp_path)
    _parse_file(rl)
    (tmp_path / "codes.h").unlink()
    with pytest.raises(RlSyntaxError, match="line 1:9: include file 'codes.h' not found"):
        _parse_file(rl)


def test_a_parse_that_raises_is_not_kept(tmp_path, monkeypatch):
    monkeypatch.setattr(lang, "_PARSED", {})
    rl = tmp_path / "strategy.rl"
    rl.write_text(STRATEGY)
    with pytest.raises(RlSyntaxError, match="not found"):
        _parse_file(rl)
    assert lang._PARSED == {}
    (tmp_path / "codes.h").write_text("#define BAD 1\n")
    assert _parse_file(rl).rules[0].condition == PhaseEq(T1, 1)


def test_the_parsed_programs_kept_are_bounded(monkeypatch):
    monkeypatch.setattr(lang, "_PARSED", {})
    for i in range(lang._PARSED_MAX + 5):
        parse_rl(f"IF [ -FAULTY THREAD{i + 1} ] THEN KILL THREAD1 FI")
    assert len(lang._PARSED) == lang._PARSED_MAX


def test_a_scenario_run_twice_tokenizes_its_strategy_once(monkeypatch):
    monkeypatch.setattr(lang, "_PARSED", {})
    calls = []
    tokenize_once = lang.tokenize
    monkeypatch.setattr(lang, "tokenize", lambda source: calls.append(source) or tokenize_once(source))
    spec, dirs = scenario.resolve_scenario("three_and_one_spare")
    first = scenario.run_scenario(spec, dirs)
    second = scenario.run_scenario(spec, dirs)
    assert len(calls) == 1
    assert first.passed and second.passed
    assert first.trace.text() == second.trace.text()
