"""The voter process: collect, broadcast, vote, report.

Each farm member runs one voter.  A session collects exactly N inputs,
one per member: the local user module's value plus the fellows'
broadcasts.  Waits are bounded by the farm timeout delta_t; a wait that
expires records an invalid slot so the session always terminates, at
the cost of one delta_t per silent member.

Broadcast order is regulated by a turn rule: a voter relays its user's
value right after its collected-message count equals its own member
ident.  This serializes broadcasts without extra coordination traffic.
A voter whose user supplied nothing by its turn relays an invalid
marker so fellows never stall on it.

A voter reads one inbox: the frames it held, then its mailbox.  A
session keeps the frames it cannot use yet (a later session's
broadcast, a recovery WARN) and hands them back to the inbox when it
ends, so a WARN that arrives mid-session takes effect once the session
is over.  Held frames arrived before anything still in the mailbox, so
reading them first keeps arrival order.  Inputs and control requests
that arrive mid-session are refused as busy; broadcasts of an older
session or another epoch are dropped.

The externally visible life of a voter is the phase automaton from
core: INIT, BROADCAST, VOTING, then SUCCESS (auto-resets to INIT) or
FAILURE (sticky until an explicit reset or a recovery WARN).  Each step
names the phase it enters and is checked against core.PHASE_STEPS.
Phase changes are traced, each with one trace call, and, when a
recovery backbone is attached, posted to its database as a wire.Phase
frame carrying the phase.  A session yields the same Recv(delta_t) for
every wait, built once when the session starts.

A voter relays its value with one Send to all its fellows, in ident
order.  A ballot slot is a plain (source, valid, payload) item; a wait
that expired gives (0, False, b"").  The voters of a run share one
VerdictMemo, which their runtime owns.  Every technique reads a ballot
in one canonical order, so the voters of a session whose ballots hold
the same items reach the same verdict, and only the first of them
votes, on VoteObjects built in arrival order: the rest reuse its
winner, its NoDecision message or its error, looked up by the ballot's
sorted items.  The memo keeps the entries of one (epoch, session,
metric, select) tag and empties itself for another.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Generator, Optional

from . import wire
from .algorithms import AlgorithmSelect, NoDecision, vote
from .core import (
    MemberId,
    NodeId,
    VfStatusCode,
    VoteObject,
    VoterPhase,
    VotingFarmError,
    phase_transition,
)
from .fabric import Endpoint, Exit, Proc, Recv, Send, TIMEOUT


@dataclass(frozen=True, slots=True)
class FarmSlot:
    ident: MemberId
    entity: int
    node: NodeId


class FarmView:
    """A farm membership in ident order, each member's interned voter
    endpoint built once.  Read-only tuples: the runtime replaces its view
    when the membership changes, so the voters and WARNs of one membership
    share one view, and a voter reads its own ident from the one it holds."""

    __slots__ = ("slots", "voter_endpoints")

    def __init__(self, slots: list[FarmSlot]):
        ordered = tuple(sorted(slots, key=lambda s: s.ident))
        object.__setattr__(self, "slots", ordered)
        object.__setattr__(self, "voter_endpoints", tuple(Endpoint(s.node, "voter", s.entity) for s in ordered))

    def __setattr__(self, attr: str, *_: object) -> None:
        raise AttributeError(f"a farm view is read-only, cannot set {attr}")

    __delattr__ = __setattr__

    @property
    def size(self) -> int:
        return len(self.slots)

    def fellows(self, entity: int) -> list[Endpoint]:
        """The voter endpoints of every member but entity, in ident order."""
        return [ep for ep in self.voter_endpoints if ep.member != entity]

    def slot_of_entity(self, entity: int) -> Optional[FarmSlot]:
        for s in self.slots:
            if s.entity == entity:
                return s
        return None

    def to_fields(self) -> list[list[int]]:
        """[ident, entity, node] rows, as the warn trace line shows them."""
        return [[s.ident, s.entity, s.node] for s in self.slots]


Verdict = tuple[Optional[VoteObject], Optional[str]]  # the winner, or the error to trace
Slot = tuple[MemberId, bool, bytes]  # (source, valid, payload)


class VerdictMemo:
    """The verdicts of one session's distinct ballots, keyed by their
    sorted items, under the tag they were voted with."""

    __slots__ = ("tag", "verdicts")

    def __init__(self) -> None:
        self.tag: object = None
        self.verdicts: dict[tuple, Verdict] = {}


@dataclass
class VoterState:
    entity: int
    view: FarmView
    delta_t: int
    select: AlgorithmSelect
    metric_name: str
    user_ep: Optional[Endpoint]
    output_ep: Optional[Endpoint]
    memo: VerdictMemo
    dirnet_ep: Optional[Endpoint] = None
    phase: VoterPhase = VoterPhase.VFP_INIT
    epoch: int = 0
    next_session: int = 0


def _trace(proc: Proc, kind: str, detail: str) -> None:
    sim = proc.sim
    sim.trace.append(sim.now, kind, proc.endpoint.name, "-", detail)


def _report(proc: Proc, state: VoterState, to: VoterPhase) -> None:
    """Enter phase to, trace its phase line and post it to the recovery
    backbone."""
    phase = state.phase = phase_transition(state.phase, to)
    sim = proc.sim
    # The member's name read directly: f"{phase}" would go through Enum.__format__.
    sim.trace.append(sim.now, "phase", proc.endpoint.name, "-",
                     f"{phase._name_} session={state.next_session} epoch={state.epoch}")
    if state.dirnet_ep is not None:
        sim.post(proc.endpoint, state.dirnet_ep, wire.Phase(state.entity, phase))


def voter_process(state: VoterState):
    """Build the generator for one voter's whole life."""

    def run(proc: Proc) -> Generator:
        _trace(proc, "phase", f"{state.phase._name_} session={state.next_session} epoch={state.epoch}")
        inbox: list[tuple[Endpoint, wire.Frame]] = []  # oldest first
        while True:
            sender, frame = inbox.pop(0) if inbox else (yield Recv(None))

            if type(frame) is wire.Control:
                if frame.req == "close":
                    yield Send(sender, wire.Status(VfStatusCode.VF_DONE, "closed", -1))
                    yield Exit()
                    return
                if frame.req == "reset":
                    if state.phase is VoterPhase.VFP_FAILURE:
                        _report(proc, state, VoterPhase.VFP_INIT)
                    continue
                _apply_params(state, frame)
                continue

            if type(frame) is wire.Warn:
                if not _apply_warn(proc, state, frame):
                    yield Exit()
                    return
                continue

            if type(frame) is wire.Input:
                if state.phase is VoterPhase.VFP_FAILURE:
                    yield Send(sender, wire.Status(VfStatusCode.VF_REFUSED, "failed", state.next_session))
                    continue
                yield from _session(proc, state, inbox, sender, frame)
                continue

            if type(frame) is wire.Broadcast:
                if state.phase is VoterPhase.VFP_FAILURE:
                    _trace(proc, "drop", f"broadcast while failed session={frame.session}")
                    continue
                if frame.epoch != state.epoch or frame.session < state.next_session:
                    _trace(proc, "drop", f"stale broadcast session={frame.session} epoch={frame.epoch}")
                    continue
                state.next_session = frame.session
                yield from _session(proc, state, inbox, sender, frame)
                continue

            _trace(proc, "drop", f"unexpected {frame.name} while idle")

    return run


def _apply_params(state: VoterState, frame: wire.Frame) -> None:
    if frame.req == "algorithm":
        state.select = replace(state.select, **frame.arg)
    elif frame.req == "output":
        state.output_ep = Endpoint(frame.arg, "user")


def _apply_warn(proc: Proc, state: VoterState, frame: wire.Frame) -> bool:
    """Adopt the farm view a WARN carries.  False means: not a member anymore."""
    view: FarmView = frame.farm
    epoch = frame.epoch
    slot = view.slot_of_entity(state.entity)
    _trace(proc, "warn", f"epoch={epoch} farm={view.to_fields()}")
    if slot is None:
        return False
    state.view = view
    state.epoch = epoch
    state.next_session = 0
    if state.phase is VoterPhase.VFP_FAILURE:
        _report(proc, state, VoterPhase.VFP_INIT)
    return True


def _session(
    proc: Proc,
    state: VoterState,
    inbox: list[tuple[Endpoint, wire.Frame]],
    sender: Endpoint,
    frame: wire.Frame,
):
    """Run one collect-broadcast-vote session, starting with frame.

    Frames the session cannot use yet (a later session's broadcast, a
    WARN) are held and go back to the inbox when it ends.
    """
    n = state.view.size
    session = state.next_session
    me = state.view.slot_of_entity(state.entity).ident
    slots: list[Slot] = []
    own: Optional[bytes] = None
    held: list[tuple[Endpoint, wire.Frame]] = []
    got = (sender, frame)
    wait = Recv(state.delta_t)  # one wait, yielded again each time

    _report(proc, state, VoterPhase.VFP_BROADCAST)

    while True:
        slot: Optional[Slot] = None
        if got is TIMEOUT:
            slot = (0, False, b"")
        else:
            sender, frame = got
            if type(frame) is wire.Input and own is None and sender == state.user_ep:
                own = frame.payload
                slot = (me, True, own)
            elif type(frame) is wire.Broadcast and frame.epoch == state.epoch:
                if frame.session == session:
                    slot = (frame.member, frame.valid, frame.payload)
                elif frame.session > session:
                    held.append(got)
            elif type(frame) in (wire.Input, wire.Control):
                yield Send(sender, wire.Status(VfStatusCode.VF_REFUSED, "busy", session))
            elif type(frame) is wire.Warn:
                held.append(got)
        if slot is not None:
            slots.append(slot)
            # Turn rule: relay the user's value (or an invalid marker)
            # once the collected count equals our ident, before any
            # local reply, so each member's wire order per session is
            # broadcasts first.
            if len(slots) == me:
                relay = wire.Broadcast(me, session, state.epoch, own is not None, own or b"")
                yield Send(tuple(state.view.fellows(state.entity)), relay)
            if len(slots) == n:
                break
        got = inbox.pop(0) if inbox else (yield wait)
    inbox.extend(held)

    _report(proc, state, VoterPhase.VFP_VOTING)
    winner, error = _verdict(state, session, slots)

    # The session is closed once the verdict is reported: a RESTART from
    # here on must not reuse its number.
    if winner is not None:
        _report(proc, state, VoterPhase.VFP_SUCCESS)
        state.next_session = session + 1
        if state.output_ep is not None:
            yield Send(state.output_ep, wire.Output(session, winner.source, winner.payload))
        if state.user_ep is not None:
            yield Send(state.user_ep, wire.Status(VfStatusCode.VF_DONE, "ok", session))
        _report(proc, state, VoterPhase.VFP_INIT)
    else:
        _report(proc, state, VoterPhase.VFP_FAILURE)
        state.next_session = session + 1
        _trace(proc, "vote-fail", error or "")
        if state.user_ep is not None:
            yield Send(state.user_ep, wire.Status(VfStatusCode.VF_DONE, "no-decision", session))


def _verdict(state: VoterState, session: int, slots: list[Slot]) -> Verdict:
    """The verdict on a closed ballot of (source, valid, payload) slots,
    from the run's memo if a ballot of the same items was voted.  The
    VoteObjects are built, in ballot order, only when the ballot is voted."""
    key = tuple(sorted(slots))
    memo = state.memo
    tag = (state.epoch, session, state.metric_name, state.select)
    if memo.tag != tag:
        memo.tag = tag
        memo.verdicts.clear()
    known = memo.verdicts.get(key)
    if known is not None:
        return known
    ballot = [VoteObject(payload, valid, source) for source, valid, payload in slots]
    try:
        verdict: Verdict = (vote(ballot, state.metric_name, state.select), None)
    except NoDecision as exc:
        verdict = (None, f"no-decision: {exc}")
    except VotingFarmError as exc:
        verdict = (None, f"internal: {exc}")
    memo.verdicts[key] = verdict
    return verdict
