"""Recovery strategy toolchain: RL parsing, r-codes and the interpreter."""

from .lang import (
    Action,
    And,
    EntityRef,
    Faulty,
    GuardedRule,
    Not,
    Or,
    PhaseEq,
    RlProgram,
    RlSyntaxError,
    UndefinedName,
    UnknownEntity,
    format_program,
    load_definitions,
    parse_rl,
)
from .rcode import DecodeError, compile_program, decode_program, disassemble
from .rint import (
    ActionInstance,
    DirDatabase,
    attach_recovery,
    evaluate_rule,
    execute_actions,
    rint_step,
)
