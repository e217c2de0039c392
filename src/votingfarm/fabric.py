"""Deterministic message-passing fabric.

Processes are Python generators multiplexed by a discrete-event
scheduler over integer simulated time.  Each endpoint runs at most one
process at a time, as each voter or user module of a farm is one task
on its node.  A Proc is the one record of a process: spawn returns it,
its generator gets it as the handle, and the scheduler steps it.  The
fabric forgets a process once it finishes, exits or crashes.  Each
endpoint's state also holds its links (peer -> kind, on both ends) and,
on the sender, the FIFO floor towards each peer.  A process talks to
the fabric by yielding syscall objects:

    Send(to, frame)      blocking send of a wire.Frame; returns once
                         delivery completed (or the message was
                         discarded for a dead peer)
    Recv(timeout)        oldest pending message as (sender, frame), or
                         the TIMEOUT sentinel after exactly `timeout`
                         units; timeout None waits forever
    Sleep(dt)            advance local time
    Emit(kind, detail)   append a custom trace record
    Exit()               end the process and retire its endpoint

Messages are wire.Frame objects from sender to receiver; the fabric
never serialises them.

Scheduling is fully deterministic: events are ordered by (time, seq)
where seq increases monotonically as events are created, so two runs of
the same scenario with the same seed produce byte-identical traces.
Delivery order per (sender, receiver) pair is FIFO even under
injected delays and jitter.

Fault injection covers the fail/stop and value-failure models: crash
(endpoint falls silent forever), value-corruption (the value payload of
every subsequent send is XORed with a mask), omission (next send is
dropped in transit) and delay (next send held back extra units).

Delivery to dead peers follows one rule: a send to a dead endpoint is
traced as a send plus a ``dead endpoint`` drop, whether or not a link to
it exists, and the sender carries on.  Only a send to an endpoint that
was never added, or to a live one without a link, raises NoSuchLink.
"""

from __future__ import annotations

import heapq
import random
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterator, Optional

from . import wire
from .core import MemberId, NodeId, VotingFarmError


class NoSuchLink(VotingFarmError):
    pass


class NoSuchEndpoint(VotingFarmError):
    pass


class TimeInPast(VotingFarmError):
    pass


class _Timeout:
    """Sentinel returned by Recv when the wait expired."""

    def __repr__(self) -> str:
        return "TIMEOUT"


TIMEOUT = _Timeout()


@dataclass(frozen=True, slots=True)
class Endpoint:
    """Addressable attachment point: a role instance on a node.

    member is the stable entity ident for voters (None for roles that
    have no farm identity).  The printable name doubles as the trace
    identifier, e.g. ``voter:2@4`` or ``user@1``.  The name and the hash
    are computed once, at construction: endpoints key every mailbox,
    link and FIFO lookup on the hot path.
    """

    node: NodeId
    role: str  # user | voter | dirnet | rint
    member: Optional[MemberId] = None
    name: str = field(init=False, repr=False, compare=False)
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        member = "" if self.member is None else f":{self.member}"
        object.__setattr__(self, "name", f"{self.role}{member}@{self.node}")
        object.__setattr__(self, "_hash", hash((self.node, self.role, self.member)))

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return self.name


LINK_KINDS = ("local", "virtual")

FAULT_KINDS = ("crash", "value-corruption", "omission", "delay")


@dataclass(frozen=True)
class FaultSpec:
    """One fault to inject.

    crash is permanent (fail/stop).  value-corruption is persistent and
    applies `mask` to the value region of each later send from the
    target.  omission and delay are one-shot and hit the target's next
    send after at_time.
    """

    kind: str
    target: Endpoint
    at_time: int
    mask: bytes = b"\xff"
    delay: int = 0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise VotingFarmError(f"unknown fault kind {self.kind!r}")
        if self.kind == "delay" and self.delay <= 0:
            raise VotingFarmError("delay fault needs delay > 0")
        if self.kind == "value-corruption" and not self.mask:
            raise VotingFarmError("corruption fault needs a non-empty mask")


@dataclass(frozen=True)
class TraceEvent:
    t: int
    kind: str
    frm: str
    to: str
    detail: str

    @property
    def line(self) -> str:
        return f"t={self.t} {self.kind} {self.frm} {self.to} {self.detail}"


class TraceLog:
    """Ordered record of everything observable that happened."""

    def __init__(self) -> None:
        self.events: list[TraceEvent] = []
        self.max_time_exceeded = False

    def append(self, t: int, kind: str, frm: str = "-", to: str = "-", detail: str = "") -> None:
        self.events.append(TraceEvent(t, kind, frm, to, detail))

    def lines(self) -> list[str]:
        return [e.line for e in self.events]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if self.events else "")

    def count(self, kind: str | None = None, contains: str = "") -> int:
        return sum(
            1
            for e in self.events
            if (kind is None or e.kind == kind) and (contains in e.detail)
        )

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self.events)

    def __len__(self) -> int:
        return len(self.events)


# --------------------------------------------------------------------
# Syscalls
# --------------------------------------------------------------------

@dataclass(frozen=True)
class Send:
    to: Endpoint
    data: wire.Frame


@dataclass(frozen=True)
class Recv:
    timeout: Optional[int] = None


@dataclass(frozen=True)
class Sleep:
    dt: int


@dataclass(frozen=True)
class Emit:
    kind: str
    detail: str
    to: str = "-"


@dataclass(frozen=True)
class Exit:
    """Terminate the calling process and retire its endpoint gracefully."""


class Proc:
    """One process: the handle its generator gets and the record the
    scheduler steps.  It runs exactly while its endpoint's slot holds it."""

    def __init__(self, sim: "Simulator", endpoint: Endpoint):
        self.sim = sim
        self.endpoint = endpoint
        self.gen: Optional[Generator] = None
        self.finished = False
        self.waiting = False
        self.wait_epoch = 0

    @property
    def now(self) -> int:
        return self.sim.now


class _EndpointState:
    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self.mailbox: deque[tuple[Endpoint, wire.Frame]] = deque()
        self.dead = False
        self.corruption: Optional[bytes] = None
        self.pending_omission = False
        self.pending_delay = 0
        self.proc: Optional[Proc] = None  # the running process, if any
        self.links: dict[Endpoint, str] = {}  # peer -> link kind, kept on both ends
        self.fifo_floor: dict[Endpoint, int] = {}  # peer -> last delivery time sent to it


class Simulator:
    """Single-threaded cooperative simulation of nodes and messages.

    delivery_delay is the per-hop cost in time units (0 means messages
    arrive within the same unit, strictly after the send).  jitter adds
    a seeded random 0..jitter extra units per message when > 0.
    """

    def __init__(self, seed: int = 0, delivery_delay: int = 0, jitter: int = 0):
        self.seed = seed
        self.delivery_delay = delivery_delay
        self.jitter = jitter
        self.now = 0
        self.trace = TraceLog()
        self.quiescent = False
        self._rng = random.Random(seed)
        self._heap: list[tuple[int, int, str, tuple]] = []
        self._seq = 0
        self._endpoints: dict[Endpoint, _EndpointState] = {}
        self.crash_listeners: list[Callable[[Endpoint, int], None]] = []

    # -- topology -----------------------------------------------------

    def add_endpoint(self, endpoint: Endpoint) -> Endpoint:
        if endpoint in self._endpoints:
            raise VotingFarmError(f"endpoint {endpoint} already exists")
        self._endpoints[endpoint] = _EndpointState(endpoint)
        return endpoint

    def registered_endpoint(self, endpoint: Endpoint) -> Optional[Endpoint]:
        """The registered object equal to endpoint, or None.

        Sending with the registered object lets every later mailbox and
        link lookup succeed on identity, without a field-wise compare.
        """
        st = self._endpoints.get(endpoint)
        return st.endpoint if st is not None else None

    def endpoint_alive(self, endpoint: Endpoint) -> bool:
        st = self._endpoints.get(endpoint)
        return st is not None and not st.dead

    def add_link(self, a: Endpoint, b: Endpoint, kind: str) -> None:
        """Join a and b both ways; re-adding a link keeps its first kind."""
        sa, sb = self._endpoints.get(a), self._endpoints.get(b)
        if sa is None or sb is None:
            raise NoSuchEndpoint(str(a if sa is None else b))
        if a == b:
            raise VotingFarmError("link endpoints must differ")
        if kind not in LINK_KINDS:
            raise VotingFarmError(f"unknown link kind {kind!r}")
        if sb.endpoint not in sa.links:
            sa.links[sb.endpoint] = sb.links[sa.endpoint] = kind

    def has_link(self, a: Endpoint, b: Endpoint) -> bool:
        st = self._endpoints.get(a)
        return st is not None and b in st.links

    def link_count(self, kind: str) -> int:
        """Links of that kind, each two-way link counted once."""
        return sum(k == kind for st in self._endpoints.values() for k in st.links.values()) // 2

    def all_endpoints(self, node: Optional[int] = None) -> list[Endpoint]:
        eps = list(self._endpoints)
        if node is not None:
            eps = [e for e in eps if e.node == node]
        return eps

    def endpoint_count(self, role: str, live_only: bool = False) -> int:
        return sum(
            1
            for st in self._endpoints.values()
            if st.endpoint.role == role and not (live_only and st.dead)
        )

    # -- processes ----------------------------------------------------

    def spawn(self, fn: Callable[[Proc], Generator], endpoint: Endpoint) -> Proc:
        """Start the endpoint's process and return it; its `finished`
        turns True once the generator ran to normal completion.

        An endpoint runs one process at a time: spawning again is
        allowed once the previous one finished, exited or crashed.
        """
        st = self._endpoints.get(endpoint)
        if st is None:
            raise NoSuchEndpoint(str(endpoint))
        if st.proc is not None:
            raise VotingFarmError(f"endpoint {endpoint} already runs a process")
        p = Proc(self, st.endpoint)  # the registered object: lookups hit on identity
        p.gen = fn(p)
        st.proc = p
        self._schedule(self.now, "step", (p, None, None))
        return p

    # -- fault injection ----------------------------------------------

    def inject(self, spec: FaultSpec) -> None:
        """Schedule a fault.  The target need not exist yet: scenarios
        inject against voters that are only spawned once the user
        modules activate the farm.  A target still missing when the
        fault fires is traced and skipped."""
        if spec.at_time < self.now:
            raise TimeInPast(f"cannot inject at t={spec.at_time}, now is {self.now}")
        self._schedule(spec.at_time, "fault", (spec,))

    def crash_endpoint(self, endpoint: Endpoint, reason: str = "crash") -> None:
        """Immediately silence an endpoint (fault activation or KILL)."""
        st = self._endpoints.get(endpoint)
        if st is None:
            raise NoSuchEndpoint(str(endpoint))
        if st.dead:
            return
        st.dead = True
        st.mailbox.clear()
        p = st.proc
        if p is not None:
            st.proc = None
            p.gen.close()
        self.trace.append(self.now, "fault", str(endpoint), "-", reason)
        if reason == "crash":
            for listener in self.crash_listeners:
                listener(endpoint, self.now)

    def revive_endpoint(self, endpoint: Endpoint) -> None:
        """Bring a dead endpoint back, clean, for a RESTART or REBOOT."""
        st = self._endpoints.get(endpoint)
        if st is None:
            raise NoSuchEndpoint(str(endpoint))
        st.dead = False
        st.mailbox.clear()
        st.corruption = None
        st.pending_omission = False
        st.pending_delay = 0
        self.trace.append(self.now, "revive", str(endpoint), "-", "")

    # -- control plane -------------------------------------------------

    def post(self, frm: Endpoint, to: Endpoint, data: wire.Frame) -> None:
        """Fire-and-forget delivery outside the farm's link topology.

        Used by the recovery backbone (phase reports, fault records,
        WARN pushes): these travel on a dedicated channel that is not
        part of the farm's accounted resources and never blocks the
        sender.  Delivery happens at the current time, after everything
        already scheduled.
        """
        self.trace.append(self.now, "post", frm.name, to.name, data.trace_detail)
        self._schedule(self.now, "deliver", (frm, to, data))

    # -- scheduler ----------------------------------------------------

    def _schedule(self, t: int, tag: str, data: tuple) -> None:
        heapq.heappush(self._heap, (t, self._seq, tag, data))
        self._seq += 1

    def run_until_quiescent(self, max_time: int = 1_000_000) -> TraceLog:
        """Drain the event queue, stopping after max_time.

        Returns the trace either way; if events remained beyond
        max_time the trace is marked max_time_exceeded and the
        simulator is left non-quiescent.
        """
        while self._heap:
            t, _, tag, data = self._heap[0]
            if t > max_time:
                self.trace.max_time_exceeded = True
                self.quiescent = False
                return self.trace
            heapq.heappop(self._heap)
            self.now = max(self.now, t)
            if tag == "step":
                p, value, exc = data
                self._step(p, value, exc)
            elif tag == "deliver":
                frm, to, payload = data
                self._deliver(frm, to, payload)
            elif tag == "timeout":
                p, epoch = data
                if p.waiting and p.wait_epoch == epoch and self._endpoints[p.endpoint].proc is p:
                    p.waiting = False
                    self.trace.append(self.now, "timeout", str(p.endpoint), "-", "")
                    self._step(p, TIMEOUT, None)
            elif tag == "fault":
                (spec,) = data
                self._activate_fault(spec)
        self.quiescent = True
        return self.trace

    def _activate_fault(self, spec: FaultSpec) -> None:
        st = self._endpoints.get(spec.target)
        if st is None:
            self.trace.append(self.now, "fault", str(spec.target), "-", "no such endpoint")
            return
        if spec.kind == "crash":
            self.crash_endpoint(spec.target, "crash")
            return
        if st.dead:
            return
        if spec.kind == "value-corruption":
            st.corruption = spec.mask
        elif spec.kind == "omission":
            st.pending_omission = True
        elif spec.kind == "delay":
            st.pending_delay += spec.delay
        self.trace.append(self.now, "fault", str(spec.target), "-", spec.kind)

    def _deliver(self, frm: Endpoint, to: Endpoint, data: wire.Frame) -> None:
        st = self._endpoints.get(to)
        if st is None or st.dead:
            self.trace.append(self.now, "drop", frm.name, to.name, "dead endpoint")
            return
        self.trace.append(self.now, "deliver", frm.name, to.name, data.trace_detail)
        st.mailbox.append((frm, data))
        p = st.proc
        if p is not None and p.waiting:
            p.waiting = False
            self._step(p, st.mailbox.popleft(), None)

    def _step(self, p: Proc, value: Any, exc: Optional[BaseException]) -> None:
        st = self._endpoints[p.endpoint]
        if st.proc is not p:
            return
        while True:
            try:
                if exc is not None:
                    item = p.gen.throw(exc)
                    exc = None
                else:
                    item = p.gen.send(value)
            except StopIteration:
                p.finished = True
                st.proc = None
                return
            value = None

            if isinstance(item, Send):
                try:
                    done_now = self._handle_send(p, st, item)
                except VotingFarmError as err:
                    exc = err
                    continue
                if done_now:
                    continue
                return
            if isinstance(item, Recv):
                if st.mailbox:
                    value = st.mailbox.popleft()
                    continue
                p.waiting = True
                p.wait_epoch += 1
                if item.timeout is not None:
                    self._schedule(self.now + item.timeout, "timeout", (p, p.wait_epoch))
                return
            if isinstance(item, Sleep):
                self._schedule(self.now + max(0, item.dt), "step", (p, None, None))
                return
            if isinstance(item, Emit):
                self.trace.append(self.now, item.kind, str(p.endpoint), item.to, item.detail)
                continue
            if isinstance(item, Exit):
                st.proc = None
                st.dead = True
                st.mailbox.clear()
                self.trace.append(self.now, "exit", str(p.endpoint), "-", "closed")
                return
            exc = VotingFarmError(f"process yielded unknown item {item!r}")

    def _handle_send(self, p: Proc, sender_st: _EndpointState, item: Send) -> bool:
        """Returns True if the sender continues immediately."""
        frm = p.endpoint
        to = item.to
        target_st = self._endpoints.get(to)
        if target_st is None:
            raise NoSuchLink(f"no endpoint {to}")
        if not target_st.dead and to not in sender_st.links:
            raise NoSuchLink(f"no link {frm} -- {to}")

        self.trace.append(self.now, "send", frm.name, to.name, item.data.trace_detail)
        if target_st.dead:
            # Fail/stop: a send to a dead peer is discarded, whether or
            # not a link to it was ever wired, and costs the sender
            # nothing. The caller sees success.
            self.trace.append(self.now, "drop", frm.name, to.name, "dead endpoint")
            return True

        data = item.data
        if sender_st.corruption is not None:
            data = wire.corrupt_value(data, sender_st.corruption)

        delay = self.delivery_delay
        if self.jitter > 0:
            delay += self._rng.randrange(self.jitter + 1)
        if sender_st.pending_delay:
            delay += sender_st.pending_delay
            sender_st.pending_delay = 0
        t_del = sender_st.fifo_floor[to] = max(self.now + delay, sender_st.fifo_floor.get(to, 0))

        if sender_st.pending_omission:
            sender_st.pending_omission = False
            self.trace.append(self.now, "drop", frm.name, to.name, "omission")
        else:
            self._schedule(t_del, "deliver", (frm, to, data))
        self._schedule(t_del, "step", (p, None, None))
        return False

