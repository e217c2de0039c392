"""Recovery strategy toolchain: RL parsing, r-codes and the interpreter.
Re-exports what callers import through the package; the rest lives in lang, rcode and rint."""

from .lang import RlSyntaxError, parse_rl
from .rcode import compile_program, decode_program, disassemble
from .rint import DirDatabase, attach_recovery, rint_step
