"""Deterministic message-passing fabric.

Processes are Python generators multiplexed by a discrete-event
scheduler over integer simulated time.  A process talks to the fabric
by yielding syscall objects:

    Send(to, data)       blocking send of a wire.Frame (or of raw frame
                         bytes); returns once delivery completed (or the
                         message was discarded for a dead peer)
    Recv(timeout)        oldest pending message as (sender, data), or
                         the TIMEOUT sentinel after exactly `timeout`
                         units; timeout None waits forever
    Spawn(fn, endpoint)  start a child process; returns its pid
    Sleep(dt)            advance local time
    Emit(kind, detail)   append a custom trace record

Messages stay wire.Frame objects from sender to receiver; the fabric
never serialises them.  Raw frame bytes are the edge format: they are
carried as sent and decoded where traced or received, and bytes that do
not decode are traced as ``raw NB``.

Scheduling is fully deterministic: events are ordered by (time, seq)
where seq increases monotonically as events are created, so two runs of
the same scenario with the same seed produce byte-identical traces.
Message ordering per (sender, receiver) pair is FIFO even under
injected delays and jitter.

Fault injection covers the fail/stop and value-failure models: crash
(endpoint falls silent forever), value-corruption (the value payload of
every subsequent send is XORed with a mask), omission (next send is
dropped in transit) and delay (next send held back extra units).
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


@dataclass(frozen=True)
class Link:
    a: Endpoint
    b: Endpoint
    kind: str

    def __post_init__(self) -> None:
        if self.kind not in LINK_KINDS:
            raise VotingFarmError(f"unknown link kind {self.kind!r}")


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
    data: wire.Message


@dataclass(frozen=True)
class Recv:
    timeout: Optional[int] = None


@dataclass(frozen=True)
class Spawn:
    fn: Callable[["Proc"], Generator]
    endpoint: Endpoint
    primary: bool = False


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
    """Handle given to each process generator."""

    def __init__(self, sim: "Simulator", pid: int, endpoint: Endpoint):
        self.sim = sim
        self.pid = pid
        self.endpoint = endpoint
        self.rng = random.Random((sim.seed << 16) ^ pid)

    @property
    def now(self) -> int:
        return self.sim.now


class _EndpointState:
    def __init__(self, endpoint: Endpoint):
        self.endpoint = endpoint
        self.mailbox: deque[tuple[Endpoint, wire.Message]] = deque()
        self.crashed = False
        self.terminated = False
        self.corruption: Optional[bytes] = None
        self.pending_omission = False
        self.pending_delay = 0
        self.primary_pid: Optional[int] = None
        self.pids: set[int] = set()

    @property
    def dead(self) -> bool:
        return self.crashed or self.terminated


class _ProcState:
    def __init__(self, pid: int, endpoint: Endpoint, gen: Generator):
        self.pid = pid
        self.endpoint = endpoint
        self.gen = gen
        self.alive = True
        self.finished = False
        self.waiting = False
        self.wait_epoch = 0


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
        self._links: dict[frozenset, Link] = {}
        self._procs: dict[int, _ProcState] = {}
        self._next_pid = 1
        self._fifo_floor: dict[tuple[Endpoint, Endpoint], int] = {}
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

    def add_link(self, a: Endpoint, b: Endpoint, kind: str) -> Link:
        for ep in (a, b):
            if ep not in self._endpoints:
                raise NoSuchEndpoint(str(ep))
        if a == b:
            raise VotingFarmError("link endpoints must differ")
        key = frozenset((a, b))
        if key in self._links:
            return self._links[key]
        link = Link(a, b, kind)
        self._links[key] = link
        return link

    def has_link(self, a: Endpoint, b: Endpoint) -> bool:
        return frozenset((a, b)) in self._links

    def link_count(self, kind: str) -> int:
        return sum(1 for l in self._links.values() if l.kind == kind)

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

    def spawn(
        self,
        fn: Callable[[Proc], Generator],
        endpoint: Endpoint,
        primary: bool = False,
    ) -> int:
        st = self._endpoints.get(endpoint)
        if st is None:
            raise NoSuchEndpoint(str(endpoint))
        endpoint = st.endpoint  # the registered object: lookups hit on identity
        pid = self._next_pid
        self._next_pid += 1
        proc = Proc(self, pid, endpoint)
        self._procs[pid] = _ProcState(pid, endpoint, fn(proc))
        st.pids.add(pid)
        if primary or st.primary_pid is None:
            st.primary_pid = pid
        self._schedule(self.now, "step", (pid, None, None))
        return pid

    def proc_finished(self, pid: int) -> bool:
        """True once a process generator ran to normal completion."""
        p = self._procs.get(pid)
        return p is not None and p.finished

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
        st.crashed = True
        st.mailbox.clear()
        for pid in st.pids:
            p = self._procs.get(pid)
            if p:
                p.alive = False
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
        st.crashed = False
        st.terminated = False
        st.mailbox.clear()
        st.corruption = None
        st.pending_omission = False
        st.pending_delay = 0
        st.primary_pid = None
        st.pids = set()
        self.trace.append(self.now, "revive", str(endpoint), "-", "")

    def terminate_endpoint(self, endpoint: Endpoint) -> None:
        """Graceful exit: endpoint stops participating, no fault raised."""
        st = self._endpoints.get(endpoint)
        if st is None or st.dead:
            return
        st.terminated = True
        st.mailbox.clear()
        for pid in st.pids:
            p = self._procs.get(pid)
            if p:
                p.alive = False
                p.gen.close()
        self.trace.append(self.now, "exit", str(endpoint), "-", "terminated")

    # -- control plane -------------------------------------------------

    def post(self, frm: Endpoint, to: Endpoint, data: wire.Message) -> None:
        """Fire-and-forget delivery outside the farm's link topology.

        Used by the recovery backbone (phase reports, fault records,
        WARN pushes): these travel on a dedicated channel that is not
        part of the farm's accounted resources and never blocks the
        sender.  Delivery happens at the current time, after everything
        already scheduled.
        """
        self.trace.append(self.now, "post", frm.name, to.name, _describe(data))
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
                pid, value, exc = data
                self._step(pid, value, exc)
            elif tag == "deliver":
                frm, to, payload = data
                self._deliver(frm, to, payload)
            elif tag == "timeout":
                pid, epoch = data
                p = self._procs.get(pid)
                if p and p.alive and p.waiting and p.wait_epoch == epoch:
                    p.waiting = False
                    self.trace.append(self.now, "timeout", str(p.endpoint), "-", "")
                    self._step(pid, TIMEOUT, None)
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

    def _deliver(self, frm: Endpoint, to: Endpoint, data: wire.Message) -> None:
        st = self._endpoints.get(to)
        if st is None or st.dead:
            self.trace.append(self.now, "drop", frm.name, to.name, "dead endpoint")
            return
        self.trace.append(self.now, "deliver", frm.name, to.name, _describe(data))
        st.mailbox.append((frm, data))
        pid = st.primary_pid
        if pid is not None:
            p = self._procs.get(pid)
            if p and p.alive and p.waiting:
                p.waiting = False
                msg = st.mailbox.popleft()
                self._step(pid, msg, None)

    def _step(self, pid: int, value: Any, exc: Optional[BaseException]) -> None:
        p = self._procs.get(pid)
        if p is None or not p.alive:
            return
        while True:
            try:
                if exc is not None:
                    item = p.gen.throw(exc)
                    exc = None
                else:
                    item = p.gen.send(value)
            except StopIteration:
                p.alive = False
                p.finished = True
                st = self._endpoints[p.endpoint]
                st.pids.discard(pid)
                if st.primary_pid == pid:
                    st.primary_pid = None
                return
            value = None

            if isinstance(item, Send):
                try:
                    done_now = self._handle_send(p, item)
                except VotingFarmError as err:
                    exc = err
                    continue
                if done_now:
                    continue
                return
            if isinstance(item, Recv):
                st = self._endpoints[p.endpoint]
                if st.mailbox:
                    value = st.mailbox.popleft()
                    continue
                p.waiting = True
                p.wait_epoch += 1
                if item.timeout is not None:
                    self._schedule(self.now + item.timeout, "timeout", (pid, p.wait_epoch))
                return
            if isinstance(item, Spawn):
                value = self.spawn(item.fn, item.endpoint, item.primary)
                continue
            if isinstance(item, Sleep):
                self._schedule(self.now + max(0, item.dt), "step", (pid, None, None))
                return
            if isinstance(item, Emit):
                self.trace.append(self.now, item.kind, str(p.endpoint), item.to, item.detail)
                continue
            if isinstance(item, Exit):
                p.alive = False
                st = self._endpoints[p.endpoint]
                st.pids.discard(pid)
                if st.primary_pid == pid:
                    st.primary_pid = None
                    st.terminated = True
                    st.mailbox.clear()
                self.trace.append(self.now, "exit", str(p.endpoint), "-", "closed")
                return
            exc = VotingFarmError(f"process yielded unknown item {item!r}")

    def _handle_send(self, p: _ProcState, item: Send) -> bool:
        """Returns True if the sender continues immediately."""
        frm = p.endpoint
        to = item.to
        if to not in self._endpoints:
            raise NoSuchLink(f"no endpoint {to}")
        if frozenset((frm, to)) not in self._links:
            raise NoSuchLink(f"no link {frm} -- {to}")
        sender_st = self._endpoints[frm]
        target_st = self._endpoints[to]

        self.trace.append(self.now, "send", frm.name, to.name, _describe(item.data))
        if target_st.dead:
            # Fail/stop: delivery to a dead peer is silently discarded
            # and costs the sender nothing. The caller sees success.
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
        t_del = self.now + delay
        floor = self._fifo_floor.get((frm, to))
        if floor is not None and t_del < floor:
            t_del = floor
        self._fifo_floor[(frm, to)] = t_del

        if sender_st.pending_omission:
            sender_st.pending_omission = False
            self.trace.append(self.now, "drop", frm.name, to.name, "omission")
        else:
            self._schedule(t_del, "deliver", (frm, to, data))
        self._schedule(t_del, "step", (p.pid, None, None))
        return False


def _describe(data: wire.Message) -> str:
    try:
        return wire.as_frame(data).trace_detail
    except wire.FrameError:
        return f"raw {len(data)}B"
