"""Strategy interpreter and the phase/fault database feeding it.

Two backbone processes cooperate: a director process collects phase
reports and watchdog fault records into a shared database and raises a
trigger whenever an error event arrives (a fault record, or a voter
reporting VFP_FAILURE).  The database keeps what rules read: each
voter's last phase as its code, the VoterPhase value that `-PHASE`
rules compare, and the entities with a fault record since the last
PURGE, which `-FAULTY` tests.  The interpreter process answers each
trigger by evaluating every rule of the installed strategy against the
database, in order, and executing the actions of all rules whose
condition holds; if none holds, the DEFAULT block runs instead.

Rule evaluation is pure.  Only execute_actions touches the farm, via
the runtime's recovery primitives, and every action lands in the
database's action log whether it succeeded or not.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Optional

from .. import wire
from ..core import VoterPhase
from ..fabric import Endpoint, Proc, Recv, Simulator
from ..farm import DIRECTOR_NODE, FarmRuntime
from .lang import (
    And,
    Cond,
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
    _condition_groups,
)


@dataclass
class DirDatabase:
    """What the recovery backbone knows about the farm."""

    groups: dict[int, tuple[int, ...]] = field(default_factory=dict)
    phases: dict[int, int] = field(default_factory=dict)  # entity -> last phase code
    faulty: set[int] = field(default_factory=set)  # entities with a fault since the last PURGE
    action_log: list[dict] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def verbs(self) -> list[str]:
        return [entry["verb"] for entry in self.action_log]


@dataclass(frozen=True)
class ActionInstance:
    """One action bound to a concrete entity or node."""

    verb: str
    kind: str  # "entity" | "node" | "none"
    target: int = 0

    def __str__(self) -> str:
        if self.kind == "none":
            return self.verb
        return f"{self.verb} {self.kind} {self.target}"


def _eval(cond: Cond, db: DirDatabase, bind: Optional[dict[int, int]]) -> bool:
    """Evaluate a condition; bind maps a group id to one of its members."""
    if isinstance(cond, Faulty):
        return _subject_test(cond.subject, db, bind, db.faulty.__contains__)
    if isinstance(cond, PhaseEq):
        return _subject_test(cond.subject, db, bind, lambda e: db.phases.get(e) == cond.value)
    if isinstance(cond, Not):
        return not _eval(cond.operand, db, bind)
    if isinstance(cond, And):
        return _eval(cond.left, db, bind) and _eval(cond.right, db, bind)
    if isinstance(cond, Or):
        return _eval(cond.left, db, bind) or _eval(cond.right, db, bind)
    raise TypeError(f"not a condition node: {cond!r}")


def _subject_test(subject, db: DirDatabase, bind, test) -> bool:
    if subject.kind == THREAD:
        return test(subject.ident)
    if subject.kind == GROUP:
        if bind is not None and subject.ident in bind:
            return test(bind[subject.ident])
        return any(test(m) for m in db.groups.get(subject.ident, ()))
    raise TypeError(f"condition subject cannot be {subject.kind}")


def evaluate_rule(rule: GuardedRule, db: DirDatabase):
    """Returns (fired, fulfilling_members, group_id).

    A rule over a single group holds iff the per-member substitution
    holds for at least one member; those members form the fulfilling
    set that THREAD@ binds to.
    """
    groups = _condition_groups(rule.condition)
    if len(groups) == 1:
        g = groups[0]
        members = db.groups.get(g, ())
        fulfilling = {m for m in members if _eval(rule.condition, db, {g: m})}
        return bool(fulfilling), fulfilling, g
    return _eval(rule.condition, db, None), set(), None


def _expand(actions, db: DirDatabase, fulfilling: set[int], group_id: Optional[int]):
    """Bind each action to a node, to no target, or to each entity its
    targets name, in target order: THREAD, GROUP, sorted THREAD@, sorted THREAD~."""
    members = db.groups.get(group_id, ()) if group_id is not None else ()
    out: list[ActionInstance] = []
    for action in actions:
        if not action.targets:
            out.append(ActionInstance(action.verb, "none"))
            continue
        for t in action.targets:
            if t.kind == NODE:
                out.append(ActionInstance(action.verb, "node", t.ident))
                continue
            if t.kind == THREAD:
                entities = (t.ident,)
            elif t.kind == GROUP:
                entities = db.groups.get(t.ident, ())
            elif t.kind == FULFILLED:
                entities = sorted(fulfilling)
            else:  # COMPLEMENT
                entities = sorted(set(members) - fulfilling)
            out.extend(ActionInstance(action.verb, "entity", m) for m in entities)
    return out


def rint_step(program: RlProgram, db: DirDatabase) -> list[ActionInstance]:
    """One interpreter pass: all true rules fire, in order, else DEFAULT."""
    out: list[ActionInstance] = []
    fired_any = False
    for rule in program.rules:
        fired, fulfilling, group_id = evaluate_rule(rule, db)
        if not fired:
            continue
        fired_any = True
        out.extend(_expand(rule.actions, db, fulfilling, group_id))
    if not fired_any and program.default is not None:
        out.extend(_expand(program.default, db, set(), None))
    return out


def execute_actions(
    instances: list[ActionInstance],
    runtime: FarmRuntime,
    db: DirDatabase,
) -> None:
    """Apply one batch of bound actions to the farm.

    Failures (for example a WARN aimed at an entity that is already
    dead) are recorded and the remaining actions still run.
    """
    sim = runtime.sim
    # Looked up per call, so a patched runtime method is the one called.
    primitives = {
        "PURGE": lambda _: db.faulty.clear(),
        "KILL": runtime.kill_entity,
        "START": runtime.start_entity,
        "RESTART": runtime.restart_entity,
        "WARN": runtime.warn_entity,
        "REBOOT": runtime.reboot_node,
        "SHUTDOWN": runtime.shutdown_node,
    }
    runtime.begin_action_batch()
    for inst in instances:
        sim.trace.append(sim.now, "action", "rint", "-", str(inst))
        primitive = primitives.get(inst.verb)
        err = primitive(inst.target) if primitive else f"unsupported action {inst.verb}"
        db.action_log.append(
            {
                "verb": inst.verb,
                "kind": inst.kind,
                "target": inst.target,
                "ok": err is None,
                "t": sim.now,
            }
        )
        if err is not None:
            db.errors.append(err)
            sim.trace.append(sim.now, "action-error", "rint", "-", err)


# -- backbone processes -------------------------------------------------

def director_process(db: DirDatabase, rint_ep: Endpoint):
    def run(proc: Proc) -> Generator:
        while True:
            _, frame = yield Recv(None)
            if type(frame) is wire.Phase:
                db.phases[frame.member] = frame.phase.value
                if frame.phase is not VoterPhase.VFP_FAILURE:
                    continue
            elif type(frame) is wire.Fault:
                db.faulty.add(frame.member)
            else:
                continue
            # An error event: a fault record or a voter reporting failure.
            proc.sim.post(proc.endpoint, rint_ep, wire.Control("trigger", member=frame.member))
    return run


def interpreter_process(program: RlProgram, db: DirDatabase, runtime: FarmRuntime):
    def run(proc: Proc) -> Generator:
        while True:
            _, frame = yield Recv(None)
            if type(frame) is wire.Control and frame.req == "trigger":
                instances = rint_step(program, db)
                execute_actions(instances, runtime, db)
    return run


def attach_recovery(
    runtime: FarmRuntime,
    program: RlProgram,
    groups: Optional[dict[int, tuple[int, ...]]] = None,
) -> DirDatabase:
    """Install the recovery backbone on the director node, DIRECTOR_NODE.

    The runtime is told only the director's endpoint; it posts WARNs
    from the interpreter's, Endpoint(DIRECTOR_NODE, "rint").  Must run
    before the farm is activated so voters report their phase
    transitions from the start.  Watchdog behaviour comes from the
    fabric's crash knowledge: endpoint crashes turn into fault records.
    """
    sim: Simulator = runtime.sim
    db = DirDatabase(groups=dict(groups or {}))
    dirnet_ep = sim.add_endpoint(Endpoint(DIRECTOR_NODE, "dirnet"))
    rint_ep = sim.add_endpoint(Endpoint(DIRECTOR_NODE, "rint"))
    runtime.dirnet_ep = dirnet_ep
    sim.spawn(director_process(db, rint_ep), dirnet_ep)
    sim.spawn(interpreter_process(program, db, runtime), rint_ep)

    def watchdog(endpoint: Endpoint, t: int) -> None:
        if endpoint.role == "voter" and endpoint.member is not None:
            sim.post(Endpoint(endpoint.node, "watchdog"), dirnet_ep, wire.Fault(endpoint.member, "crash"))

    sim.crash_listeners.append(watchdog)
    return db
