"""Core types shared by the voting-farm runtime.

A voting farm is a set of voter processes, one per node, that jointly mask
value and timing faults of replicated application modules.  This module
holds the vocabulary everything else builds on: identifiers, the farm
descriptor, vote objects, the voter phase automaton and the status codes
exchanged with client code.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


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
    """A phase-transition event is not legal in the current phase."""


# Node and member identifiers are small positive integers.  They are kept
# as plain ints; the validation lives in the containers that use them.
NodeId = int
MemberId = int


class VoterPhase(enum.Enum):
    """Externally observable execution phase of one voter."""

    VFP_INIT = "VFP_INIT"
    VFP_BROADCAST = "VFP_BROADCAST"
    VFP_VOTING = "VFP_VOTING"
    VFP_SUCCESS = "VFP_SUCCESS"
    VFP_FAILURE = "VFP_FAILURE"

    def __str__(self) -> str:  # keeps trace lines compact
        return self.value


#: Integer encoding of the phases, used by recovery strategy files that
#: reference phases through C-style defines.
PHASE_CODES = {
    VoterPhase.VFP_INIT: 0,
    VoterPhase.VFP_BROADCAST: 1,
    VoterPhase.VFP_VOTING: 2,
    VoterPhase.VFP_SUCCESS: 3,
    VoterPhase.VFP_FAILURE: 4,
}


class VoterEvent(enum.Enum):
    """Events driving the phase automaton."""

    INPUT_ARRIVED = "input-arrived"
    BROADCAST_COMPLETE = "broadcast-complete"
    VOTE_OK = "vote-ok"
    VOTE_FAIL = "vote-fail"
    RESET = "reset"


PHASE_TRANSITIONS = {
    (VoterPhase.VFP_INIT, VoterEvent.INPUT_ARRIVED): VoterPhase.VFP_BROADCAST,
    (VoterPhase.VFP_BROADCAST, VoterEvent.BROADCAST_COMPLETE): VoterPhase.VFP_VOTING,
    (VoterPhase.VFP_VOTING, VoterEvent.VOTE_OK): VoterPhase.VFP_SUCCESS,
    (VoterPhase.VFP_VOTING, VoterEvent.VOTE_FAIL): VoterPhase.VFP_FAILURE,
    (VoterPhase.VFP_SUCCESS, VoterEvent.RESET): VoterPhase.VFP_INIT,
    (VoterPhase.VFP_FAILURE, VoterEvent.RESET): VoterPhase.VFP_INIT,
}


def phase_transition(phase: VoterPhase, event: VoterEvent) -> VoterPhase:
    """Return the successor phase, or raise IllegalTransition.

    The automaton is a strict cycle: INIT -> BROADCAST -> VOTING ->
    SUCCESS or FAILURE -> (reset) -> INIT.  Anything else is a
    programming error in the caller, e.g. feeding a new input to a voter
    that has not been reset.
    """
    try:
        return PHASE_TRANSITIONS[(phase, event)]
    except KeyError:
        raise IllegalTransition(f"{event.value} not legal in {phase.value}") from None


class VfStatusCode(enum.Enum):
    """Reply codes a voter sends to its local application module."""

    VF_DONE = "VF_DONE"
    VF_REFUSED = "VF_REFUSED"
    VF_NONE = "VF_NONE"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class VfStatus:
    """A status reply plus an error detail code.

    detail is one of "ok", "no-decision", "closed", "busy", "timeout",
    "spmd-incoherence".  VF_DONE/ok means a session concluded with a
    voted value; VF_DONE/no-decision means the session concluded but the
    vote did not reach a decision.
    """

    code: VfStatusCode
    detail: str = "ok"
    session: int = -1

    def __str__(self) -> str:
        return f"{self.code}({self.detail})"


@dataclass(frozen=True)
class VoteObject:
    """One opaque vote item: a payload plus bookkeeping.

    source is the member ident the value came from (0 marks a value
    synthesized by the voter itself, e.g. a weighted average).  Items
    marked invalid take part in vote bookkeeping but never win.
    """

    payload: bytes = b""
    valid: bool = True
    source: MemberId = 0

    def __post_init__(self) -> None:
        if not isinstance(self.payload, bytes):
            raise ValidationError("payload must be bytes")


@dataclass(frozen=True)
class FarmMember:
    node: NodeId
    ident: MemberId


@dataclass
class FarmDescriptor:
    """Ordered list of (node, ident) pairs making up one farm.

    Idents must be exactly 1..N with no gaps; every member sits on its
    own node.  The descriptor is built incrementally through the client
    interface and validated before the farm is activated.
    """

    members: list[FarmMember] = field(default_factory=list)

    def add(self, node: NodeId, ident: MemberId) -> None:
        self.members.append(FarmMember(node, ident))

    @property
    def size(self) -> int:
        return len(self.members)

    def idents(self) -> list[MemberId]:
        return [m.ident for m in self.members]

    def copy(self) -> "FarmDescriptor":
        return FarmDescriptor(list(self.members))


def validate_descriptor(desc: FarmDescriptor) -> None:
    """Check a descriptor before activation.

    Raises EmptyFarm, DuplicateIdent or NonContiguousIdents.  A valid
    descriptor has at least one member and idents exactly {1..N}.
    """
    if desc.size == 0:
        raise EmptyFarm("farm has no members")
    idents = desc.idents()
    seen = set()
    for ident in idents:
        if ident in seen:
            raise DuplicateIdent(f"ident {ident} added twice")
        seen.add(ident)
    expected = set(range(1, desc.size + 1))
    if seen != expected:
        raise NonContiguousIdents(f"idents {sorted(seen)} are not 1..{desc.size}")
