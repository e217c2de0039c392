"""Farm runtime: wiring, membership bookkeeping and recovery actions.

The runtime sits between the client calls (which run inside user-module
processes) and the fabric.  It owns the canonical membership table and
is the only component allowed to mutate it: voters learn about changes
exclusively through WARN messages.

Terminology used throughout: an *entity* is the stable identity of one
voter process for its whole life (spares get fresh entities), while an
*ident* is the 1..N position a voter currently occupies in the farm.
Kills free idents, started spares take the lowest freed ident, and a
WARN that would publish a non-contiguous table first compacts the
survivors' idents in order.
"""

from __future__ import annotations

from typing import Optional

from . import wire
from .algorithms import AlgorithmSelect
from .core import VotingFarmError
from .fabric import Endpoint, Simulator
from .voter import FarmSlot, FarmView, VoterState, voter_process


class UnknownEntityAtRuntime(VotingFarmError):
    """A recovery action named an entity that is dead or was never started."""


class FarmRuntime:
    def __init__(
        self,
        sim: Simulator,
        delta_t: int = 10,
        select: Optional[AlgorithmSelect] = None,
        metric_name: str = "default",
    ):
        self.sim = sim
        self.delta_t = delta_t
        self.select = select if select is not None else AlgorithmSelect()
        self.metric_name = metric_name

        self.canonical = None  # first registered descriptor wins
        self.spmd_incoherent = False

        self.view: dict[int, int] = {}  # ident -> entity
        self.entity_node: dict[int, int] = {}
        self.entity_ep: dict[int, Endpoint] = {}
        self.voter_states: dict[int, VoterState] = {}
        self.epoch = 0
        self._batch_bumped = False

        self.spares: dict[int, int] = {}  # entity -> node, declared but idle
        self.dirnet_ep: Optional[Endpoint] = None
        self.rint_ep: Optional[Endpoint] = None

    # -- topology helpers ----------------------------------------------

    def ensure_user_endpoint(self, node: int) -> Endpoint:
        return self.user_endpoint(node) or self.sim.add_endpoint(Endpoint(node, "user"))

    def user_endpoint(self, node: int) -> Optional[Endpoint]:
        return self.sim.registered_endpoint(Endpoint(node, "user"))

    def local_voter_endpoint(self, node: int) -> Optional[Endpoint]:
        """The live member voter on a node, lowest ident first."""
        for ident in sorted(self.view):
            entity = self.view[ident]
            if self.entity_node.get(entity) != node:
                continue
            ep = self.entity_ep.get(entity)
            if ep is not None and self.sim.endpoint_alive(ep):
                return ep
        return None

    def route_output(self, voter_ep: Endpoint, node: int) -> None:
        """Wire the link a voter needs to send its outputs to node's user."""
        user_ep = self.user_endpoint(node)
        if user_ep is None:
            raise VotingFarmError(f"cannot redirect output to node {node}: no user module there")
        if not self.sim.has_link(voter_ep, user_ep):
            kind = "local" if user_ep.node == voter_ep.node else "virtual"
            self.sim.add_link(voter_ep, user_ep, kind)

    def current_view(self) -> FarmView:
        return FarmView(
            [
                FarmSlot(ident, entity, self.entity_node[entity])
                for ident, entity in self.view.items()
            ]
        )

    def live_entities(self) -> list[int]:
        return [
            e
            for e in self.view.values()
            if e in self.entity_ep and self.sim.endpoint_alive(self.entity_ep[e])
        ]

    def declare_spare(self, entity: int, node: int) -> None:
        if entity in self.entity_ep or entity in self.spares:
            raise VotingFarmError(f"entity {entity} already declared")
        self.spares[entity] = node

    # -- activation (called from vf_run inside a user process) ----------

    def activate(self, handle, proc) -> None:
        from .client import SpmdIncoherence  # local import, avoids a cycle

        node = proc.endpoint.node
        desc = handle.descriptor
        if self.canonical is None:
            self.canonical = desc.copy()
            for m in self.canonical.members:
                self.view[m.ident] = m.ident  # initial entity == ident
                self.entity_node[m.ident] = m.node
        elif self.canonical != desc:
            self.spmd_incoherent = True
            self.sim.trace.append(
                self.sim.now, "spmd", str(proc.endpoint), "-", "descriptor mismatch"
            )
            raise SpmdIncoherence(f"node {node} disagrees with the active descriptor")
        for m in self.canonical.members:
            if m.node == node and m.ident not in self.entity_ep:
                self._spawn_voter(entity=m.ident, ident=m.ident, node=node)

    def _spawn_voter(
        self,
        entity: int,
        ident: int,
        node: int,
        epoch: Optional[int] = None,
        next_session: int = 0,
        reuse_endpoint: bool = False,
    ) -> Endpoint:
        ep = Endpoint(node, "voter", entity)
        if not reuse_endpoint:
            self.sim.add_endpoint(ep)
        user_ep = self.user_endpoint(node)
        if user_ep is not None and not self.sim.has_link(user_ep, ep):
            self.sim.add_link(user_ep, ep, "local")
        for other, other_ep in self.entity_ep.items():
            if other == entity or not self.sim.endpoint_alive(other_ep):
                continue
            if not self.sim.has_link(ep, other_ep):
                kind = "local" if other_ep.node == node else "virtual"
                self.sim.add_link(ep, other_ep, kind)
        # A respawned entity keeps any output redirect of its previous life.
        prev = self.voter_states.get(entity)
        state = VoterState(
            entity=entity,
            ident=ident,
            view=self.current_view(),
            delta_t=self.delta_t,
            select=self.select,
            metric_name=self.metric_name,
            user_ep=user_ep,
            output_ep=user_ep if prev is None else prev.output_ep,
            dirnet_ep=self.dirnet_ep,
            epoch=self.epoch if epoch is None else epoch,
            next_session=next_session,
        )
        self.entity_ep[entity] = ep
        self.entity_node[entity] = node
        self.voter_states[entity] = state
        self.sim.spawn(voter_process(state), ep)
        return ep

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

    def _ident_of(self, entity: int) -> Optional[int]:
        for ident, e in self.view.items():
            if e == entity:
                return ident
        return None

    def kill_entity(self, entity: int) -> Optional[str]:
        ep = self.entity_ep.get(entity)
        if ep is None:
            return f"{UnknownEntityAtRuntime.__name__}: KILL of unstarted entity {entity}"
        self._ensure_bump()
        if self.sim.endpoint_alive(ep):
            self.sim.crash_endpoint(ep, reason="kill")
        ident = self._ident_of(entity)
        if ident is not None:
            del self.view[ident]
        return None

    def start_entity(self, entity: int) -> Optional[str]:
        if entity in self.entity_ep:
            return f"START of already started entity {entity}"
        node = self.spares.get(entity)
        if node is None:
            return f"{UnknownEntityAtRuntime.__name__}: START of undeclared entity {entity}"
        self._ensure_bump()
        ident = 1
        while ident in self.view:
            ident += 1
        self.view[ident] = entity
        self.entity_node[entity] = node
        del self.spares[entity]
        # The WARNs that follow a START reset every survivor to session 0
        # under the new epoch, so the newcomer starts there as well.
        self._spawn_voter(
            entity=entity,
            ident=ident,
            node=node,
            epoch=self.epoch,
            next_session=0,
        )
        return None

    def warn_entity(self, entity: int) -> Optional[str]:
        ep = self.entity_ep.get(entity)
        if ep is None or not self.sim.endpoint_alive(ep):
            return f"{UnknownEntityAtRuntime.__name__}: WARN to dead entity {entity}"
        self._compact_idents()
        frm = self.rint_ep if self.rint_ep is not None else Endpoint(0, "rint")
        self.sim.post(
            frm,
            ep,
            wire.Frame(
                wire.K_WARN,
                {"farm": self.current_view().to_fields(), "epoch": self.epoch},
            ),
        )
        return None

    def restart_entity(self, entity: int) -> Optional[str]:
        ep = self.entity_ep.get(entity)
        if ep is None:
            return f"{UnknownEntityAtRuntime.__name__}: RESTART of unstarted entity {entity}"
        ident = self._ident_of(entity)
        if ident is None:
            return f"RESTART of entity {entity} which holds no ident"
        if self.sim.endpoint_alive(ep):
            self.sim.crash_endpoint(ep, reason="restart")
        self.sim.revive_endpoint(ep)
        self._spawn_voter(
            entity=entity,
            ident=ident,
            node=self.entity_node[entity],
            epoch=self._epoch_floor(),
            next_session=self._session_floor(),
            reuse_endpoint=True,
        )
        return None

    def reboot_node(self, node: int) -> Optional[str]:
        rebooted = [
            e for e in self.view.values() if self.entity_node.get(e) == node
        ]
        if not rebooted:
            return f"REBOOT of node {node} which hosts no member"
        for entity in rebooted:
            err = self.restart_entity(entity)
            if err is not None:
                return err
        return None

    def shutdown_node(self, node: int) -> Optional[str]:
        found = False
        for ep in self.sim.all_endpoints(node):
            found = True
            if self.sim.endpoint_alive(ep):
                self.sim.crash_endpoint(ep, reason="shutdown")
        for ident, entity in list(self.view.items()):
            if self.entity_node.get(entity) == node:
                self._ensure_bump()
                del self.view[ident]
        if not found:
            return f"SHUTDOWN of unknown node {node}"
        return None

    # -- internals -------------------------------------------------------

    def _compact_idents(self) -> None:
        """Renumber survivors 1..K in ident order before publishing."""
        idents = sorted(self.view)
        if idents == list(range(1, len(idents) + 1)):
            return
        self._ensure_bump()
        self.view = {new: self.view[old] for new, old in enumerate(idents, start=1)}

    def _session_floor(self) -> int:
        """Next session a freshly (re)started voter should expect.

        Joining below the survivors' counter would make the newcomer run
        phantom sessions that every peer drops as stale.
        """
        floors = [
            st.next_session
            for e, st in self.voter_states.items()
            if e in self.view.values()
            and self.sim.endpoint_alive(self.entity_ep[e])
        ]
        return max(floors, default=0)

    def _epoch_floor(self) -> int:
        epochs = [
            st.epoch
            for e, st in self.voter_states.items()
            if e in self.view.values()
            and self.sim.endpoint_alive(self.entity_ep[e])
        ]
        return max(epochs, default=self.epoch)
