"""Farm runtime: wiring, membership bookkeeping and recovery actions.

The runtime sits between the client calls (which run inside user-module
processes) and the fabric.  It owns the membership: `view`, the
read-only FarmView the voters vote under.  A KILL, START, SHUTDOWN or
ident compaction that changes its rows replaces it with a new view, so
every voter spawned under one membership, and every WARN that
publishes it, holds the same object.  Voters learn about changes
exclusively through WARN messages.

Terminology used throughout: an *entity* is the stable identity of one
voter process for its whole life (spares get fresh entities), while an
*ident* is the 1..N position a voter currently occupies in the farm.
Kills free idents, started spares take the lowest freed ident, and a
WARN that would publish a non-contiguous table first compacts the
survivors' idents in order.

An entity is started once it has a VoterState; its voter endpoint is
always Endpoint(entity_node[entity], "voter", entity), the same
interned object the fabric registered.  entity_node is the only record
of a killed entity's node: it has left the view, but its endpoint is
still looked up.  The first node to run vf_run fixes the farm's
descriptor and metric; a node that disagrees on either is rejected as
SPMD-incoherent.
"""

from __future__ import annotations

from typing import Optional

from . import wire
from .algorithms import AlgorithmSelect
from .client import SpmdIncoherence
from .core import VotingFarmError
from .fabric import Endpoint, Simulator
from .voter import FarmSlot, FarmView, VerdictMemo, VoterState, voter_process

DIRECTOR_NODE = 0  # the node the recovery director and interpreter run on


class FarmRuntime:
    def __init__(
        self,
        sim: Simulator,
        delta_t: int = 10,
        select: Optional[AlgorithmSelect] = None,
    ):
        self.sim = sim
        self.delta_t = delta_t
        self.select = select if select is not None else AlgorithmSelect()

        self.canonical = None  # first registered descriptor wins
        self.metric_name = "default"  # and its handle's metric with it
        self.spmd_incoherent = False

        self.view = FarmView([])
        self.memo = VerdictMemo()  # the verdicts every voter of the run shares
        self.entity_node: dict[int, int] = {}
        self.voter_states: dict[int, VoterState] = {}  # started entities
        self.epoch = 0
        self._batch_bumped = False

        self.spares: dict[int, int] = {}  # entity -> node, declared but idle
        self.dirnet_ep: Optional[Endpoint] = None

    # -- topology helpers ----------------------------------------------

    def ensure_user_endpoint(self, node: int) -> Endpoint:
        return self.user_endpoint(node) or self.sim.add_endpoint(Endpoint(node, "user"))

    def user_endpoint(self, node: int) -> Optional[Endpoint]:
        ep = Endpoint(node, "user")
        return ep if self.sim.has_endpoint(ep) else None

    def voter_endpoint(self, entity: int) -> Optional[Endpoint]:
        """The voter endpoint of a started entity, or None."""
        if entity not in self.voter_states:
            return None
        return Endpoint(self.entity_node[entity], "voter", entity)

    def local_voter_endpoint(self, node: int) -> Optional[Endpoint]:
        """The live member voter on a node, lowest ident first."""
        for ep in self.view.voter_endpoints:
            if ep.node == node and self.sim.endpoint_alive(ep):
                return ep
        return None

    def route_output(self, voter_ep: Endpoint, node: int) -> None:
        """Wire the link a voter needs to send its outputs to node's user."""
        user_ep = self.user_endpoint(node)
        if user_ep is None:
            raise VotingFarmError(f"cannot redirect output to node {node}: no user module there")
        self.sim.add_link(voter_ep, user_ep)

    def live_entities(self) -> list[int]:
        """The live members, in ident order."""
        return [ep.member for ep in self.view.voter_endpoints if self.sim.endpoint_alive(ep)]

    def declare_spare(self, entity: int, node: int) -> None:
        if entity in self.voter_states or entity in self.spares:
            raise VotingFarmError(f"entity {entity} already declared")
        self.spares[entity] = node

    # -- activation (called from vf_run inside a user process) ----------

    def activate(self, handle, proc) -> None:
        node = proc.endpoint.node
        desc = handle.descriptor
        if self.canonical is None:
            self.canonical = list(desc)
            self.metric_name = handle.metric_name
            self.view = FarmView([FarmSlot(ident, ident, n) for n, ident in desc])  # initial entity == ident
            self.entity_node.update((ident, n) for n, ident in desc)
        elif self.canonical != desc or self.metric_name != handle.metric_name:
            what = "descriptor" if self.canonical != desc else "metric"
            self.spmd_incoherent = True
            self.sim.trace.append(
                self.sim.now, "spmd", str(proc.endpoint), "-", f"{what} mismatch"
            )
            raise SpmdIncoherence(f"node {node} disagrees with the active {what}")
        for member_node, ident in self.canonical:
            if member_node == node and ident not in self.voter_states:
                self._spawn_voter(ident)

    def _spawn_voter(self, entity: int, epoch: Optional[int] = None, next_session: int = 0) -> None:
        """Start the entity's voter on its node; a respawn reuses its endpoint."""
        node = self.entity_node[entity]
        ep = Endpoint(node, "voter", entity)
        prev = self.voter_states.get(entity)
        if prev is None:
            self.sim.add_endpoint(ep)
        user_ep = self.user_endpoint(node)
        if user_ep is not None:
            self.sim.add_link(user_ep, ep)
        for other in self.voter_states:
            other_ep = self.voter_endpoint(other)
            if other != entity and self.sim.endpoint_alive(other_ep):
                self.sim.add_link(ep, other_ep)
        # A respawned entity keeps any output redirect of its previous life.
        state = VoterState(
            entity=entity,
            view=self.view,
            delta_t=self.delta_t,
            select=self.select,
            metric_name=self.metric_name,
            user_ep=user_ep,
            output_ep=user_ep if prev is None else prev.output_ep,
            memo=self.memo,
            dirnet_ep=self.dirnet_ep,
            epoch=self.epoch if epoch is None else epoch,
            next_session=next_session,
        )
        self.voter_states[entity] = state
        self.sim.spawn(voter_process(state), ep)

    # -- recovery actions ------------------------------------------------
    #
    # Each returns None on success or an error string; callers record the
    # error and carry on, per the strategy interpreter's contract.  All
    # membership mutations within one action batch share a single epoch
    # bump so every WARN in the batch publishes the same table version.

    def begin_action_batch(self) -> None:
        self._batch_bumped = False

    def _ensure_bump(self) -> None:
        if not self._batch_bumped:
            self.epoch += 1
            self._batch_bumped = True

    def _drop_members(self, gone) -> bool:
        """Replace the view without the slots gone(slot) picks; False if none is."""
        kept = [s for s in self.view.slots if not gone(s)]
        if len(kept) == self.view.size:
            return False
        self.view = FarmView(kept)
        return True

    def kill_entity(self, entity: int) -> Optional[str]:
        ep = self.voter_endpoint(entity)
        if ep is None:
            return f"UnknownEntityAtRuntime: KILL of unstarted entity {entity}"
        self._ensure_bump()
        if self.sim.endpoint_alive(ep):
            self.sim.crash_endpoint(ep, reason="kill")
        self._drop_members(lambda s: s.entity == entity)
        return None

    def start_entity(self, entity: int) -> Optional[str]:
        if entity in self.voter_states:
            return f"START of already started entity {entity}"
        node = self.spares.get(entity)
        if node is None:
            return f"UnknownEntityAtRuntime: START of undeclared entity {entity}"
        self._ensure_bump()
        taken = {s.ident for s in self.view.slots}
        ident = min(set(range(1, len(taken) + 2)) - taken)
        self.view = FarmView([*self.view.slots, FarmSlot(ident, entity, node)])
        self.entity_node[entity] = node
        del self.spares[entity]
        # The WARNs that follow a START reset every survivor to session 0
        # under the new epoch, so the newcomer starts there as well.
        self._spawn_voter(entity)
        return None

    def warn_entity(self, entity: int) -> Optional[str]:
        ep = self.voter_endpoint(entity)
        if ep is None or not self.sim.endpoint_alive(ep):
            return f"UnknownEntityAtRuntime: WARN to dead entity {entity}"
        self._compact_idents()
        # Frames never leave the process: the WARN carries the view itself.
        self.sim.post(Endpoint(DIRECTOR_NODE, "rint"), ep, wire.Warn(self.view, self.epoch))
        return None

    def restart_entity(self, entity: int) -> Optional[str]:
        ep = self.voter_endpoint(entity)
        if ep is None:
            return f"UnknownEntityAtRuntime: RESTART of unstarted entity {entity}"
        if self.view.slot_of_entity(entity) is None:
            return f"RESTART of entity {entity} which holds no ident"
        if self.sim.endpoint_alive(ep):
            self.sim.crash_endpoint(ep, reason="restart")
        self.sim.revive_endpoint(ep)
        # Join at the live members' epoch and session: below their
        # counter the newcomer would run phantom sessions that every
        # peer drops as stale.
        live = [self.voter_states[e] for e in self.live_entities()]
        self._spawn_voter(
            entity,
            epoch=max((st.epoch for st in live), default=self.epoch),
            next_session=max((st.next_session for st in live), default=0),
        )
        return None

    def reboot_node(self, node: int) -> Optional[str]:
        rebooted = [s.entity for s in self.view.slots if s.node == node]
        if not rebooted:
            return f"REBOOT of node {node} which hosts no member"
        for entity in rebooted:
            err = self.restart_entity(entity)
            if err is not None:
                return err
        return None

    def shutdown_node(self, node: int) -> Optional[str]:
        endpoints = self.sim.all_endpoints(node)
        for ep in endpoints:
            if self.sim.endpoint_alive(ep):
                self.sim.crash_endpoint(ep, reason="shutdown")
        if self._drop_members(lambda s: s.node == node):
            self._ensure_bump()
        if not endpoints:
            return f"SHUTDOWN of unknown node {node}"
        return None

    # -- internals -------------------------------------------------------

    def _compact_idents(self) -> None:
        """Renumber survivors 1..K in ident order before publishing."""
        slots = self.view.slots
        if all(s.ident == new for new, s in enumerate(slots, start=1)):
            return
        self._ensure_bump()
        self.view = FarmView([FarmSlot(new, s.entity, s.node) for new, s in enumerate(slots, start=1)])
