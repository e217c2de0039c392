"""Core types shared by the voting-farm runtime.

A voting farm is a set of voter processes, one per member, that jointly mask
value and timing faults of replicated application modules.  This module
holds the vocabulary everything else builds on: identifiers, the check
of a farm descriptor (its (node, ident) rows), vote objects, the status
codes exchanged with client code and the voter phase automaton, stated
once: the phases, whose values are the codes recovery strategies
compare, and PHASE_STEPS, its edges.
"""

from __future__ import annotations

import enum
from typing import NamedTuple


class VotingFarmError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(VotingFarmError):
    """A descriptor or configuration value failed validation."""


class DuplicateIdent(ValidationError):
    pass


class EmptyFarm(ValidationError):
    pass


class NonContiguousIdents(ValidationError):
    pass


class IllegalTransition(VotingFarmError):
    """A phase change that is not an edge of the phase automaton."""


# Node and member identifiers are small positive integers.  They are kept
# as plain ints; the validation lives in the containers that use them.
NodeId = int
MemberId = int


class VoterPhase(enum.Enum):
    """Externally observable execution phase of one voter.  Its value is
    the code strategies compare (``vf_phases.h``); its str is its name."""

    VFP_INIT = 0
    VFP_BROADCAST = 1
    VFP_VOTING = 2
    VFP_SUCCESS = 3
    VFP_FAILURE = 4

    # Members are singletons and == is identity, so an identity hash agrees
    # with equality; it runs in C, where Enum.__hash__ hashes the name in
    # Python on every edge lookup.
    __hash__ = object.__hash__

    def __str__(self) -> str:  # keeps trace lines compact
        return self.name


#: The phase automaton's edges, (from, to): a strict cycle INIT ->
#: BROADCAST -> VOTING -> SUCCESS or FAILURE -> (reset) -> INIT.
PHASE_STEPS = frozenset({
    (VoterPhase.VFP_INIT, VoterPhase.VFP_BROADCAST),
    (VoterPhase.VFP_BROADCAST, VoterPhase.VFP_VOTING),
    (VoterPhase.VFP_VOTING, VoterPhase.VFP_SUCCESS),
    (VoterPhase.VFP_VOTING, VoterPhase.VFP_FAILURE),
    (VoterPhase.VFP_SUCCESS, VoterPhase.VFP_INIT),
    (VoterPhase.VFP_FAILURE, VoterPhase.VFP_INIT),
})


def phase_transition(phase: VoterPhase, to: VoterPhase) -> VoterPhase:
    """Return to if phase -> to is an edge of PHASE_STEPS, or raise
    IllegalTransition: anything else is a programming error in the
    caller, e.g. feeding a new input to a voter that has not been reset.
    """
    if (phase, to) not in PHASE_STEPS:
        raise IllegalTransition(f"{to} not legal in {phase}")
    return to


class VfStatusCode(enum.Enum):
    """Reply codes a voter sends to its local application module."""

    VF_DONE = "VF_DONE"
    VF_REFUSED = "VF_REFUSED"
    VF_NONE = "VF_NONE"

    def __str__(self) -> str:
        return self.value


class VfStatus(NamedTuple):
    """A status reply plus an error detail code.

    detail is one of "ok", "no-decision", "closed", "busy", "timeout",
    "spmd-incoherence".  VF_DONE/ok means a session concluded with a
    voted value; VF_DONE/no-decision means the session concluded but the
    vote did not reach a decision.  One is built per reply, so it is a
    read-only tuple of its three fields, as a wire frame is.
    """

    code: VfStatusCode
    detail: str = "ok"
    session: int = -1

    def __str__(self) -> str:
        return f"{self.code}({self.detail})"


class _VoteFields(NamedTuple):
    payload: bytes = b""
    valid: bool = True
    source: MemberId = 0


class VoteObject(_VoteFields):
    """One opaque vote item: a payload plus bookkeeping.

    source is the member ident the value came from (0 marks a value
    synthesized by the voter itself, e.g. a weighted average).  Items
    marked invalid take part in vote bookkeeping but never win.  One is
    built per ballot item, so it is a read-only tuple of its three
    fields, as a wire frame is; a payload that is not bytes raises
    ValidationError.
    """

    __slots__ = ()

    def __new__(cls, payload: bytes = b"", valid: bool = True, source: MemberId = 0) -> "VoteObject":
        if not isinstance(payload, bytes):
            raise ValidationError("payload must be bytes")
        return tuple.__new__(cls, (payload, valid, source))


def validate_descriptor(rows: list) -> None:
    """Check a farm descriptor, its ordered (node, ident) rows, before
    activation.  Members may share a node.

    Raises EmptyFarm, DuplicateIdent or NonContiguousIdents.  A valid
    descriptor has at least one member and idents exactly {1..N}.
    """
    if not rows:
        raise EmptyFarm("farm has no members")
    seen = set()
    for _, ident in rows:
        if ident in seen:
            raise DuplicateIdent(f"ident {ident} added twice")
        seen.add(ident)
    if seen != set(range(1, len(rows) + 1)):
        raise NonContiguousIdents(f"idents {sorted(seen)} are not 1..{len(rows)}")
