"""Recovery-strategy language: lexer, parser and AST.

A strategy is a list of guarded rules plus an optional default block:

    INCLUDE "vf_phases.h"
    IF [ -FAULTY THREAD1
         OR -PHASE THREAD1 == {VFP_FAILURE} ]
    THEN
        KILL THREAD1
        START THREAD4 AND
            WARN THREAD2, THREAD3
    FI

Keywords are upper-case.  Predicates are prefixed with `-`.  `{NAME}`
de-references a definition imported from an included file, which may
only contain C-style `#define NAME integer` lines and comments; a
#define inside a /* */ comment, on one line or over several, is not
read.  Inside the square brackets of a condition, line breaks are
insignificant; inside a THEN block, a line break (or AND) separates
actions, and a comma continues an action's target list only on the
line of the target before it.  THREAD@ names the
group members that made the rule's condition true and THREAD~ the rest
of the group; both require the condition to test exactly one group.
A condition nests at most MAX_DEPTH levels, and every ident, node and
phase value, written or defined, lies in 0..MAX_VALUE.

A strategy is translated once and then run many times, so parse_rl
parses each text once per content (see its docstring).
"""

from __future__ import annotations

import io
import os
import re
from dataclasses import dataclass
from typing import Optional, Union

from ..core import VotingFarmError


class RlSyntaxError(VotingFarmError):
    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"line {line}:{col}: {message}" if line else message)
        self.line = line
        self.col = col


class UndefinedName(RlSyntaxError):
    """A {NAME} reference has no imported definition."""


class UnknownEntity(RlSyntaxError):
    """An entity token is malformed (e.g. bare THREAD, GROUP without id)."""


# -- AST ----------------------------------------------------------------

THREAD = "thread"
GROUP = "group"
FULFILLED = "fulfilled"   # THREAD@
COMPLEMENT = "complement"  # THREAD~
NODE = "node"


@dataclass(frozen=True)
class EntityRef:
    kind: str
    ident: int = 0

    def __str__(self) -> str:
        if self.kind == THREAD:
            return f"THREAD{self.ident}"
        if self.kind == GROUP:
            return f"GROUP{self.ident}"
        if self.kind == FULFILLED:
            return "THREAD@"
        if self.kind == COMPLEMENT:
            return "THREAD~"
        return str(self.ident)  # node number


@dataclass(frozen=True)
class Faulty:
    subject: EntityRef


@dataclass(frozen=True)
class PhaseEq:
    subject: EntityRef
    value: int


@dataclass(frozen=True)
class Not:
    operand: "Cond"


@dataclass(frozen=True)
class And:
    left: "Cond"
    right: "Cond"


@dataclass(frozen=True)
class Or:
    left: "Cond"
    right: "Cond"


Cond = Union[Faulty, PhaseEq, Not, And, Or]

# How deep a condition may nest: each NOT, parenthesis and AND/OR
# operator on a path from the top is one level.  Compiling, formatting,
# evaluating and comparing conditions recurse once per level, so this
# bound keeps every strategy that parses or decodes far from Python's
# recursion limit; the bundled strategies nest one level deep.
MAX_DEPTH = 100

# The largest ident, node or phase value: the 63 bits that nine r-code
# varint bytes carry, so every strategy that parses also decodes.
MAX_VALUE = 2**63 - 1

VERBS = ("KILL", "START", "RESTART", "WARN", "REBOOT", "SHUTDOWN", "PURGE")
_NODE_VERBS = ("REBOOT", "SHUTDOWN")


@dataclass(frozen=True)
class Action:
    verb: str
    targets: tuple[EntityRef, ...] = ()


@dataclass(frozen=True)
class GuardedRule:
    condition: Cond
    actions: tuple[Action, ...]


@dataclass(frozen=True)
class RlProgram:
    includes: tuple[str, ...] = ()
    rules: tuple[GuardedRule, ...] = ()
    default: Optional[tuple[Action, ...]] = None


# -- lexer --------------------------------------------------------------

_KEYWORDS = {
    "INCLUDE", "IF", "THEN", "FI", "OR", "AND", "NOT", "DEFAULT",
    *VERBS,
}

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>\#[^\n]*)
      | (?P<string>"[^"\n]*")
      | (?P<deref>\{[A-Za-z_][A-Za-z0-9_]*\})
      | (?P<pred>-(?:FAULTY|PHASE)\b)
      | (?P<entity>THREAD(?:[0-9]+|@|~)|GROUP[0-9]+)
      | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<int>[0-9]+)
      | (?P<eqeq>==)
      | (?P<punct>[\[\](),])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str
    value: object
    line: int
    col: int


def _entity_ref(text: str) -> EntityRef:
    if text == "THREAD@":
        return EntityRef(FULFILLED)
    if text == "THREAD~":
        return EntityRef(COMPLEMENT)
    if text.startswith("THREAD"):
        return EntityRef(THREAD, int(text[6:]))
    return EntityRef(GROUP, int(text[5:]))


# A token's value from its text, by kind; any other kind keeps its text.
_VALUE = {"string": lambda t: t[1:-1], "deref": lambda t: t[1:-1], "pred": lambda t: t[1:],
          "int": int, "entity": _entity_ref}


def tokenize(source: str) -> list[Token]:
    tokens: list[Token] = []
    for lineno, text in enumerate(source.split("\n"), start=1):
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if m is None:
                raise RlSyntaxError(f"unexpected character {text[pos]!r}", lineno, pos + 1)
            pos = m.end()
            kind, val, col = m.lastgroup, m.group(), m.start() + 1
            if kind in ("ws", "comment"):
                continue
            if kind == "word":
                if val not in _KEYWORDS:
                    if val.startswith(("THREAD", "GROUP")):
                        raise UnknownEntity(f"malformed entity {val!r}", lineno, col)
                    raise RlSyntaxError(f"unknown word {val!r}", lineno, col)
                kind = "kw"
            elif kind == "punct":
                kind = val
            value = _VALUE.get(kind, str)(val)
            if (value if kind == "int" else value.ident if kind == "entity" else 0) > MAX_VALUE:
                raise RlSyntaxError(f"{val} is above {MAX_VALUE}, the largest value an r-code holds", lineno, col)
            tokens.append(Token(kind, value, lineno, col))
    tokens.append(Token("eof", None, lineno + 1, 1))
    return tokens


# -- include files ------------------------------------------------------

_DEFINE_RE = re.compile(r"^\s*#\s*define\s+([A-Za-z_][A-Za-z0-9_]*)\s+(-?[0-9]+)\s*$")


def read_text(path: str) -> str:
    """A strategy source or header file's text; VotingFarmError if it is not UTF-8."""
    return _decoded(path, _file_bytes(path))


def _file_bytes(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _decoded(path: str, data: bytes) -> str:
    """The file's bytes as text, read as open(path, encoding="utf-8") reads them."""
    try:
        return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8").read()
    except UnicodeDecodeError as exc:
        raise VotingFarmError(f"{path}: not UTF-8 text: {exc}") from exc


def load_definitions(path: str) -> dict[str, int]:
    """Read `#define NAME integer` lines from a C-style header."""
    return _definitions(read_text(path))


def _definitions(text: str) -> dict[str, int]:
    # /* */ comments go first, over the whole text, keeping their line
    # breaks: a #define inside one that spans lines is not read.
    text = re.sub(r"/\*.*?\*/", lambda m: "\n" * m.group().count("\n"), text, flags=re.S)
    defs: dict[str, int] = {}
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("//"):
            continue
        m = _DEFINE_RE.match(line)
        if m:
            defs[m.group(1)] = int(m.group(2))
    return defs


def resolve_include(name: str, include_dirs: tuple[str, ...]) -> Optional[str]:
    """The first of include_dirs holding name, else name itself, else None."""
    for d in include_dirs:
        candidate = os.path.join(d, name)
        if os.path.isfile(candidate):
            return candidate
    return os.path.abspath(name) if os.path.isfile(name) else None


# -- parser -------------------------------------------------------------

class _Parser:
    def __init__(self, tokens: list[Token], include_dirs: tuple[str, ...]):
        self.tokens = tokens
        self.pos = 0
        self.defs: dict[str, int] = {}  # {NAME} values the INCLUDEs define
        self.include_dirs = include_dirs
        self.headers: list[tuple[str, str, bytes]] = []  # (name, path, bytes) of each INCLUDE

    # token plumbing

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, value=None) -> Token:
        tok = self.next()
        if tok.kind != kind or (value is not None and tok.value != value):
            want = value if value is not None else kind
            raise RlSyntaxError(f"expected {want}, got {tok.value!r}", tok.line, tok.col)
        return tok

    def at_kw(self, word: str) -> bool:
        tok = self.peek()
        return tok.kind == "kw" and tok.value == word

    # grammar

    def program(self) -> RlProgram:
        while self.at_kw("INCLUDE"):
            self.next()
            name_tok = self.expect("string")
            self._load_include(name_tok)
        rules: list[GuardedRule] = []
        default: Optional[tuple[Action, ...]] = None
        while True:
            if self.at_kw("IF"):
                rules.append(self.rule())
            elif self.at_kw("DEFAULT"):
                if default is not None:
                    tok = self.peek()
                    raise RlSyntaxError("more than one DEFAULT block", tok.line, tok.col)
                self.next()
                default = self.action_block()
            elif self.peek().kind == "eof":
                break
            else:
                tok = self.peek()
                raise RlSyntaxError(f"expected IF, DEFAULT or end, got {tok.value!r}",
                                    tok.line, tok.col)
        if not rules and default is None:
            raise RlSyntaxError("strategy has no rules and no DEFAULT block")
        program = RlProgram(tuple(name for name, _, _ in self.headers), tuple(rules), default)
        _check_selectors(program)
        return program

    def _load_include(self, tok: Token) -> None:
        name = tok.value
        path = resolve_include(name, self.include_dirs)
        if path is None:
            raise RlSyntaxError(f"include file {name!r} not found", tok.line, tok.col)
        data = _file_bytes(path)  # read once: the definitions and the cache key come from the same bytes
        self.defs.update(_definitions(_decoded(path, data)))
        self.headers.append((name, path, data))

    def rule(self) -> GuardedRule:
        self.expect("kw", "IF")
        self.expect("[")
        cond, _ = self.or_expr(0)
        self.expect("]")
        self.expect("kw", "THEN")
        actions = self.action_block()
        return GuardedRule(cond, actions)

    # Each condition rule takes the levels known to lie above it and
    # returns its node with the node's own height in levels, checking
    # both against MAX_DEPTH before it descends and as a chain grows.

    def _levels(self, tok: Token, above: int, height: int) -> int:
        if above + height > MAX_DEPTH:
            raise RlSyntaxError(f"condition nests deeper than {MAX_DEPTH} levels", tok.line, tok.col)
        return height

    def or_expr(self, above: int) -> tuple[Cond, int]:
        return self.chain(above, "OR", Or, self.and_expr)

    def and_expr(self, above: int) -> tuple[Cond, int]:
        return self.chain(above, "AND", And, self.not_expr)

    def chain(self, above: int, word: str, node: type, operand) -> tuple[Cond, int]:
        """operand (word operand)*, grouped from the left into node(left, right)."""
        left, height = operand(above)
        while self.at_kw(word):
            tok = self.next()
            right, right_height = operand(above)
            left, height = node(left, right), self._levels(tok, above, max(height, right_height) + 1)
        return left, height

    def not_expr(self, above: int) -> tuple[Cond, int]:
        if self.at_kw("NOT"):
            self._levels(self.next(), above, 1)
            operand, height = self.not_expr(above + 1)
            return Not(operand), height + 1
        return self.atom(above)

    def atom(self, above: int) -> tuple[Cond, int]:
        tok = self.peek()
        if tok.kind == "(":
            self._levels(self.next(), above, 1)
            cond, height = self.or_expr(above + 1)
            self.expect(")")
            return cond, height + 1
        if tok.kind == "pred":
            self.next()
            subject = self.subject_ref()
            if tok.value == "FAULTY":
                return Faulty(subject), 0
            self.expect("eqeq")
            return PhaseEq(subject, self.int_value()), 0
        raise RlSyntaxError(f"expected a predicate, got {tok.value!r}", tok.line, tok.col)

    def subject_ref(self) -> EntityRef:
        tok = self.expect("entity")
        ref = tok.value
        if ref.kind in (FULFILLED, COMPLEMENT):
            raise RlSyntaxError("THREAD@/THREAD~ cannot appear in a condition",
                                tok.line, tok.col)
        return ref

    def int_value(self) -> int:
        tok = self.next()
        if tok.kind == "int":
            return tok.value
        if tok.kind == "deref":
            if tok.value not in self.defs:
                raise UndefinedName(f"{{{tok.value}}} is not defined", tok.line, tok.col)
            value = self.defs[tok.value]
            if not 0 <= value <= MAX_VALUE:
                raise RlSyntaxError(f"{{{tok.value}}} is {value}, not in 0..{MAX_VALUE}", tok.line, tok.col)
            return value
        raise RlSyntaxError(f"expected an integer or {{NAME}}, got {tok.value!r}",
                            tok.line, tok.col)

    def action_block(self) -> tuple[Action, ...]:
        actions: list[Action] = []
        while not self.at_kw("FI"):
            actions.append(self.action())
            # separator: AND, or simply the line break already consumed
            if self.at_kw("AND"):
                self.next()
        self.next()  # FI
        if not actions:
            raise RlSyntaxError("empty action block")
        return tuple(actions)

    def action(self) -> Action:
        tok = self.expect("kw")
        verb = tok.value
        if verb not in VERBS:
            raise RlSyntaxError(f"expected an action, got {verb!r}", tok.line, tok.col)
        if verb == "PURGE":
            return Action(verb)
        if verb in _NODE_VERBS:
            return Action(verb, (EntityRef(NODE, self.int_value()),))
        # A comma continues the list only on the line of the target before it.
        targets = [self.expect("entity")]
        while self.peek().kind == "," and self.peek().line == targets[-1].line:
            self.next()
            targets.append(self.expect("entity"))
        return Action(verb, tuple(tok.value for tok in targets))


def _condition_groups(cond: Cond) -> list[int]:
    """Distinct group ids tested by a condition, in first-use order."""
    found: list[int] = []

    def walk(c: Cond) -> None:
        if isinstance(c, (Faulty, PhaseEq)):
            if c.subject.kind == GROUP and c.subject.ident not in found:
                found.append(c.subject.ident)
        elif isinstance(c, Not):
            walk(c.operand)
        else:
            walk(c.left)
            walk(c.right)

    walk(cond)
    return found


def _check_selectors(program: RlProgram) -> None:
    def uses_selector(actions: tuple[Action, ...]) -> bool:
        return any(
            t.kind in (FULFILLED, COMPLEMENT) for a in actions for t in a.targets
        )

    for i, rule in enumerate(program.rules, start=1):
        if uses_selector(rule.actions) and len(_condition_groups(rule.condition)) != 1:
            raise RlSyntaxError(
                f"rule {i}: THREAD@/THREAD~ require a condition over exactly one group"
            )
    if program.default is not None and uses_selector(program.default):
        raise RlSyntaxError("DEFAULT block cannot use THREAD@/THREAD~")


# Programs parsed so far, least recently used first, keyed on (source,
# include_dirs): each with the (name, path, bytes) of the headers it
# included.
_PARSED: dict[tuple, tuple[RlProgram, tuple[tuple[str, str, bytes], ...]]] = {}
_PARSED_MAX = 64


def parse_rl(source: str, include_dirs: tuple[str, ...] = ()) -> RlProgram:
    """Parse strategy text into its rule tree.

    INCLUDE statements fill the {NAME} table from files looked up in
    `include_dirs` (then the working directory).

    The same text and directories give the same read-only program again
    while every INCLUDE still resolves to the same file with the same
    bytes; an edited header, or one now found in another directory, is
    parsed afresh.  The _PARSED_MAX programs used last are kept; a parse
    that raises is not.
    """
    include_dirs = tuple(include_dirs)
    key = (source, include_dirs)
    known = _PARSED.pop(key, None)
    if known is None or not all(resolve_include(name, include_dirs) == path and _file_bytes(path) == data
                                for name, path, data in known[1]):
        parser = _Parser(tokenize(source), include_dirs)
        known = parser.program(), tuple(parser.headers)
    if len(_PARSED) >= _PARSED_MAX:
        del _PARSED[next(iter(_PARSED))]
    _PARSED[key] = known  # now the newest
    return known[0]


def format_program(program: RlProgram) -> str:
    """Render a program back to RL text (used by the disassembler).

    INCLUDE lines come out as comments: the program holds the values
    its headers defined, so the text parses without them."""
    def block(head: str, actions: tuple[Action, ...]) -> list[str]:
        return [head, *(f"    {format_action(a)}" for a in actions), "FI"]

    out = [f'# INCLUDE "{inc}"' for inc in program.includes]
    for rule in program.rules:
        out.append(f"IF [ {format_condition(rule.condition)} ]")
        out += block("THEN", rule.actions)
    if program.default is not None:
        out += block("DEFAULT", program.default)
    return "\n".join(out) + "\n"


def format_condition(cond: Cond, parent: int = 0) -> str:
    # precedence ranks: OR=1, AND=2, NOT=3
    if isinstance(cond, Faulty):
        return f"-FAULTY {cond.subject}"
    if isinstance(cond, PhaseEq):
        return f"-PHASE {cond.subject} == {cond.value}"
    if isinstance(cond, Not):
        return f"NOT {format_condition(cond.operand, 3)}"
    rank = 2 if isinstance(cond, And) else 1
    word = "AND" if isinstance(cond, And) else "OR"
    text = f"{format_condition(cond.left, rank)} {word} {format_condition(cond.right, rank + 1)}"
    return f"( {text} )" if rank < parent else text


def format_action(action: Action) -> str:
    if not action.targets:
        return action.verb
    return f"{action.verb} {', '.join(str(t) for t in action.targets)}"
