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

The externally visible life of a voter is the phase automaton from
core: INIT, BROADCAST, VOTING, then SUCCESS (auto-resets to INIT) or
FAILURE (sticky until an explicit reset or a recovery WARN).  Phase
changes are traced and, when a recovery backbone is attached, posted to
its database.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Generator, Optional

from . import wire
from .algorithms import AlgorithmSelect, NoDecision, vote
from .core import (
    MemberId,
    NodeId,
    PHASE_CODES,
    VfStatusCode,
    VoteObject,
    VoterEvent,
    VoterPhase,
    VotingFarmError,
    phase_transition,
)
from .fabric import Endpoint, Emit, Exit, Proc, Recv, Send, TIMEOUT


@dataclass(frozen=True)
class FarmSlot:
    ident: MemberId
    entity: int
    node: NodeId

    @cached_property
    def voter_endpoint(self) -> Endpoint:
        return Endpoint(self.node, "voter", self.entity)


class FarmView:
    """A voter's current picture of the farm membership."""

    def __init__(self, slots: list[FarmSlot]):
        self.slots = sorted(slots, key=lambda s: s.ident)

    @property
    def size(self) -> int:
        return len(self.slots)

    def fellows(self, entity: int) -> list[FarmSlot]:
        return [s for s in self.slots if s.entity != entity]

    def slot_of_entity(self, entity: int) -> Optional[FarmSlot]:
        for s in self.slots:
            if s.entity == entity:
                return s
        return None

    def to_fields(self) -> list[list[int]]:
        return [[s.ident, s.entity, s.node] for s in self.slots]

    @classmethod
    def from_fields(cls, rows: list[list[int]]) -> "FarmView":
        return cls([FarmSlot(ident=r[0], entity=r[1], node=r[2]) for r in rows])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FarmView):
            return NotImplemented
        return self.slots == other.slots


@dataclass
class VoterState:
    entity: int
    ident: MemberId
    view: FarmView
    delta_t: int
    select: AlgorithmSelect
    metric_name: str
    user_ep: Optional[Endpoint]
    output_ep: Optional[Endpoint]
    dirnet_ep: Optional[Endpoint] = None
    phase: VoterPhase = VoterPhase.VFP_INIT
    epoch: int = 0
    next_session: int = 0


def _trace_phase(proc: Proc, state: VoterState) -> None:
    proc.sim.trace.append(
        proc.now, "phase", str(proc.endpoint), "-",
        f"{state.phase} session={state.next_session} epoch={state.epoch}",
    )


def _report(proc: Proc, state: VoterState, event: VoterEvent) -> None:
    state.phase = phase_transition(state.phase, event)
    _trace_phase(proc, state)
    if state.dirnet_ep is not None:
        proc.sim.post(
            proc.endpoint,
            state.dirnet_ep,
            wire.Frame(
                wire.K_PHASE,
                {
                    "member": state.entity,
                    "phase": str(state.phase),
                    "code": PHASE_CODES[state.phase],
                },
            ),
        )


def _status_frame(code: VfStatusCode, detail: str, session: int) -> wire.Frame:
    return wire.Frame(wire.K_STATUS, {"status": str(code), "detail": detail, "session": session})


def voter_process(state: VoterState):
    """Build the generator for one voter's whole life."""

    def run(proc: Proc) -> Generator:
        _trace_phase(proc, state)
        pending: list[tuple[Endpoint, wire.Frame]] = []
        while True:
            if pending:
                sender, frame = pending.pop(0)
            else:
                sender, frame = yield Recv(None)

            if frame.kind == wire.K_CONTROL:
                req = frame.get("req")
                if req == "close":
                    yield Send(sender, _status_frame(VfStatusCode.VF_DONE, "closed", -1))
                    yield Exit()
                    return
                if req == "reset":
                    if state.phase is VoterPhase.VFP_FAILURE:
                        _report(proc, state, VoterEvent.RESET)
                    continue
                _apply_params(state, frame)
                continue

            if frame.kind == wire.K_WARN:
                if not _apply_warn(proc, state, frame):
                    yield Exit()
                    return
                continue

            if frame.kind == wire.K_INPUT:
                if state.phase is VoterPhase.VFP_FAILURE:
                    yield Send(sender, _status_frame(VfStatusCode.VF_REFUSED, "failed", state.next_session))
                    continue
                pending = yield from _session(proc, state, sender, frame)
                continue

            if frame.kind == wire.K_BROADCAST:
                if state.phase is VoterPhase.VFP_FAILURE:
                    yield Emit("drop", f"broadcast while failed session={frame.get('session')}")
                    continue
                if frame.get("epoch") != state.epoch or frame.get("session", -1) < state.next_session:
                    yield Emit("drop", f"stale broadcast session={frame.get('session')} epoch={frame.get('epoch')}")
                    continue
                state.next_session = frame.get("session")
                pending = yield from _session(proc, state, sender, frame)
                continue

            yield Emit("drop", f"unexpected {frame.kind_name} while idle")

    return run


def _apply_params(state: VoterState, frame: wire.Frame) -> None:
    req = frame.get("req")
    if req == "algorithm":
        cur = state.select
        state.select = AlgorithmSelect(
            kind=frame.get("kind", cur.kind),
            epsilon=frame.get("epsilon", cur.epsilon),
            scaling_factor=frame.get("scaling_factor", cur.scaling_factor),
            tie_break=frame.get("tie_break", cur.tie_break),
        )
    elif req == "output":
        state.output_ep = Endpoint(frame.get("node"), frame.get("role", "user"))


def _apply_warn(proc: Proc, state: VoterState, frame: wire.Frame) -> bool:
    """Adopt a rebuilt farm descriptor.  False means: not a member anymore."""
    view = FarmView.from_fields(frame.get("farm", []))
    slot = view.slot_of_entity(state.entity)
    proc.sim.trace.append(
        proc.now, "warn", str(proc.endpoint), "-",
        f"epoch={frame.get('epoch')} farm={frame.get('farm')}",
    )
    if slot is None:
        return False
    state.view = view
    state.ident = slot.ident
    state.epoch = frame.get("epoch", state.epoch + 1)
    state.next_session = 0
    if state.phase is VoterPhase.VFP_FAILURE:
        _report(proc, state, VoterEvent.RESET)
    return True


def _session(proc: Proc, state: VoterState, first_sender: Endpoint, first_frame: wire.Frame):
    """Run one collect-broadcast-vote session.  Returns held-over frames."""
    n = state.view.size
    session = state.next_session
    me = state.ident
    slots: list[VoteObject] = []
    u: Optional[int] = None
    broadcast_done = False
    holdover: list[tuple[Endpoint, wire.Frame]] = []

    _report(proc, state, VoterEvent.INPUT_ARRIVED)

    def consume(sender: Endpoint, frame: wire.Frame):
        """Returns (slot_filled, refused_reply_target)."""
        nonlocal u
        if frame.kind == wire.K_INPUT:
            if u is None and state.user_ep is not None and sender == state.user_ep:
                u = len(slots)
                slots.append(VoteObject(frame.payload, True, me))
                return True, None
            return False, sender
        if frame.kind == wire.K_BROADCAST:
            if frame.get("epoch") != state.epoch:
                return False, None
            s = frame.get("session", -1)
            if s < session:
                return False, None
            if s > session:
                holdover.append((sender, frame))
                return False, None
            slots.append(VoteObject(frame.payload, bool(frame.get("valid", True)), frame.get("member", 0)))
            return True, None
        if frame.kind == wire.K_CONTROL:
            return False, sender
        return False, None

    def turn_sends():
        """The fellow sends due now, or None if it is not our turn yet.

        The relay must happen from the voter's own context, before it
        says anything else on the fabric, so a session's wire order per
        member is always: broadcasts first, then the local replies.
        """
        nonlocal broadcast_done
        if broadcast_done or me != len(slots):
            return None
        broadcast_done = True
        valid = u is not None
        frame = wire.Frame(
            wire.K_BROADCAST,
            {"member": me, "session": session, "epoch": state.epoch, "valid": valid},
            slots[u].payload if valid else b"",
        )
        return [(s.voter_endpoint, frame) for s in state.view.fellows(state.entity)]

    filled, refuse = consume(first_sender, first_frame)
    if refuse is not None:
        yield Send(refuse, _status_frame(VfStatusCode.VF_REFUSED, "busy", session))
    if filled:
        for target, relay in turn_sends() or ():
            yield Send(target, relay)

    while len(slots) < n:
        got = yield Recv(state.delta_t)
        if got is TIMEOUT:
            slots.append(VoteObject(b"", False, 0))
        else:
            sender, frame = got
            filled, refuse = consume(sender, frame)
            if refuse is not None:
                yield Send(refuse, _status_frame(VfStatusCode.VF_REFUSED, "busy", session))
            if not filled:
                continue
        for target, relay in turn_sends() or ():
            yield Send(target, relay)

    _report(proc, state, VoterEvent.BROADCAST_COMPLETE)
    try:
        winner = vote(slots, state.metric_name, state.select)
        error: Optional[str] = None
    except NoDecision as exc:
        winner, error = None, f"no-decision: {exc}"
    except VotingFarmError as exc:
        winner, error = None, f"internal: {exc}"

    if winner is not None:
        _report(proc, state, VoterEvent.VOTE_OK)
        if state.output_ep is not None:
            yield Send(
                state.output_ep,
                wire.Frame(wire.K_OUTPUT, {"session": session, "member": winner.source}, winner.payload),
            )
        if state.user_ep is not None:
            yield Send(state.user_ep, _status_frame(VfStatusCode.VF_DONE, "ok", session))
        state.next_session = session + 1
        _report(proc, state, VoterEvent.RESET)
    else:
        _report(proc, state, VoterEvent.VOTE_FAIL)
        yield Emit("vote-fail", error or "")
        if state.user_ep is not None:
            yield Send(state.user_ep, _status_frame(VfStatusCode.VF_DONE, "no-decision", session))
        state.next_session = session + 1

    return holdover
