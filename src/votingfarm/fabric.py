"""Deterministic message-passing fabric.

Processes are Python generators multiplexed by a discrete-event
scheduler over integer simulated time.  Endpoints are interned: building
one from equal (node, role, member) fields returns the same read-only
object, so every module that names an endpoint holds the registered
one and lookups hash by identity.  Each endpoint runs at most one
process at a time, as each voter or user module of a farm is one task
on its node.  A Proc is the one record of a process: spawn returns it,
its generator gets it as the handle, and the scheduler steps it.  The
fabric forgets a process once it finishes, exits or crashes.  A Proc
holds its endpoint's state, so stepping it looks nothing up.  Each
endpoint's state also holds its links (the set of peers, on both ends)
and, on the sender, the FIFO floors of its held-back deliveries.  A
link between endpoints on one node is local, any other is virtual.  A
process talks to the fabric by yielding syscall objects:

    Send(targets, frame) blocking send of a wire frame to each of a
                         tuple of endpoints (or one endpoint) in turn:
                         each send waits until its delivery completed
                         (or the message was discarded for a dead peer)
                         before the next is issued
    Recv(timeout)        oldest pending message as (sender, frame), or
                         the TIMEOUT sentinel after exactly `timeout`
                         units (a negative timeout counts as 0);
                         timeout None waits forever
    Sleep(dt)            advance local time
    Exit()               end the process and retire its endpoint

Messages are typed, read-only wire frames (wire.Input, wire.Broadcast,
...) carried as they are from sender to receiver; the fabric never
serialises them.

Scheduling is fully deterministic: events are ordered by (time, seq)
where seq increases monotonically as events are created, so two runs of
the same scenario with the same seed produce byte-identical traces.
No event is scheduled before the current time.

Delivery order per (sender, receiver) pair is FIFO even under
injected delays and jitter, across the sender's deaths and revivals.
A send is due at now + delivery_delay.  The FIFO floor rule: a
delivery held back past its due time (by jitter or a delay fault) is
recorded as the sender's floor towards that peer, and a later send on
the link is delivered no earlier than the floor, ties going by seq.
The rule is exact, the same as a floor recorded on every send: a
delivery that was not held back lands at its due time, and every later
send on the link is due no earlier than that.  So without jitter or
delay faults a run keeps no floor at all.

A blocking send is one event at its delivery time.  The event loop
delivers the frame itself (unless an omission dropped it) and then
issues the Send's next send, or resumes the sender after the last, so
nothing can run between the two.  Each send is traced, delayed,
faulted and checked as if it were yielded alone; a sender that dies
while a frame is in flight sends nothing more.  A post is the same
event with no sender to resume.  A timed Recv takes its seq when the
wait starts; that (time, seq) deadline is where its timeout fires.
Each process has at most one live timer in the queue, since most waits
end by a delivery long before they expire: a wait arms a timer only
when the process has none, or only a later one.  When a timer pops, it
times out the wait it belongs to, re-arms the later deadline of the
wait now running, or is dropped; a timer superseded by an earlier one
is dropped too.

The trace stores its records as columns, never the Frame or Endpoint
objects, so records keep no frame alive: the times in one array of
64-bit ints, the details in a list of strings, and the kinds and
endpoint names as small-int codes into a name table the log owns.  New
records wait in one flat tail, which the hot paths fill with
trace.add((t, kind, frm, to, detail)), the tail's bound extend, so a
record costs no Python call.  Equal details, such as the phase line each
voter builds, are stored once through trace.share, the bound setdefault
of a small table the log owns.  Once per popped event the event loop
packs a tail that holds a full block into the columns, by C-level calls
alone, and empties a table past its bound.  Readers chain the packed
columns with views of the tail and neither pack nor copy it.  TraceEvent
views are built only when the trace is iterated, and text only in
lines() and text().

Fault injection covers the fail/stop and value-failure models: crash
(endpoint falls silent forever), value-corruption (the value payload of
every subsequent send is XORed with a mask), omission (next send is
dropped in transit) and delay (next send held back extra units).

Delivery to dead peers follows one rule: a send to an endpoint that is
dead, or was never added, is traced as a send plus a ``dead endpoint``
drop, whether or not a link to it exists, and the sender carries on; a
post to one is traced as a post plus the same drop.

An endpoint dies one way: a crash fault, KILL, RESTART or SHUTDOWN
(crash_endpoint), Exit, or a process error.  A process error is any
Exception the process raises, or a syscall the fabric cannot serve
(NoSuchLink for a live target without a link, or an unknown item); it
ends that process's own endpoint only, traced as ``proc-error
<endpoint> - <Type>: <message>``.  Death clears the mailbox and the
per-life fault state, closes the process and writes one trace line;
the crash listeners (the watchdog) hear of crash faults and process
errors.
"""

from __future__ import annotations

import heapq
import random
from array import array
from dataclasses import dataclass
from functools import partial
from itertools import chain, compress, islice
from operator import itemgetter
from typing import Any, Callable, Generator, Iterator, NamedTuple, Optional

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


class Endpoint:
    """Addressable attachment point: a role instance on a node.

    member is the stable entity ident for voters (None for roles that
    have no farm identity).  The printable name doubles as the trace
    identifier, e.g. ``voter:2@4`` or ``user@1``.  Endpoints are
    interned and read-only: equal fields give the same object, so
    equality is identity and every mailbox, link and FIFO lookup hashes
    by identity.  The table holds one object per (node, role, member)
    ever built.
    """

    __slots__ = ("node", "role", "member", "name")
    _interned: dict[tuple, "Endpoint"] = {}

    def __new__(cls, node: NodeId, role: str, member: Optional[MemberId] = None) -> "Endpoint":
        key = (node, role, member)
        ep = cls._interned.get(key)
        if ep is None:
            ep = cls._interned[key] = object.__new__(cls)
            object.__setattr__(ep, "node", node)
            object.__setattr__(ep, "role", role)
            object.__setattr__(ep, "member", member)
            suffix = "" if member is None else f":{member}"
            object.__setattr__(ep, "name", f"{role}{suffix}@{node}")
        return ep

    def __setattr__(self, attr: str, *_: Any) -> None:
        raise AttributeError(f"endpoint {self.name} is read-only")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return Endpoint, (self.node, self.role, self.member)

    def __repr__(self) -> str:
        return f"Endpoint(node={self.node!r}, role={self.role!r}, member={self.member!r})"

    def __str__(self) -> str:
        return self.name


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


# Distinct details the trace's shared table holds before it is emptied.
_SHARED_DETAILS = 256
# Records the trace's tail holds before it is packed into the columns.
_BLOCK = 512
_FULL_TAIL = 5 * _BLOCK  # a record is five items of the flat tail


class TraceEvent(NamedTuple):
    """Read-only view of one trace record, built only when the trace is
    iterated."""

    t: int
    kind: str
    frm: str
    to: str
    detail: str

    @property
    def line(self) -> str:
        return f"t={self.t} {self.kind} {self.frm} {self.to} {self.detail}"


# TraceEvent._make without its Python-level length check, which a record
# of five columns always passes.
_as_event = partial(tuple.__new__, TraceEvent)


class TraceLog:
    """Ordered record of everything observable that happened.

    Records are kept as columns: times in an array('q') (a list once a
    time passes 2**63 - 1), details in a list of strings, and kinds and
    endpoint names as codes into the log's own name table, one byte each
    while the table holds at most 256 names and four bytes after.  New
    records wait in a flat tail, five items (t, kind, frm, to, detail)
    each.  add((t, kind, frm, to, detail)) extends the tail, and
    share(detail, detail) gives the shared table's string equal to
    detail.  A caller of the two also packs, at least once per event, a
    tail of _FULL_TAIL items with _pack and empties a table of more than
    _SHARED_DETAILS strings, as the event loop does; append does all
    three for one record.  Readers never pack.  records() yields plain
    tuples, iteration TraceEvent views, and lines() and text() render
    them."""

    def __init__(self) -> None:
        self._t = array("q")
        self._detail: list[str] = []
        self._codes: dict[str, int] = {}  # name -> code
        self._packed = (array("B"), array("B"), array("B"))  # kind, frm, to codes
        self._tail: list = []  # unpacked records, five items each
        self._shared: dict[str, str] = {}
        self.add = self._tail.extend
        self.share = self._shared.setdefault
        self.max_time_exceeded = False

    def append(self, t: int, kind: str, frm: str = "-", to: str = "-", detail: str = "") -> None:
        shared = self._shared
        self.add((t, kind, frm, to, shared.setdefault(detail, detail)))
        if len(shared) > _SHARED_DETAILS:
            shared.clear()
        if len(self._tail) >= _FULL_TAIL:
            self._pack()

    def _pack(self) -> None:
        """Move the tail's records into the columns.  The tail holds a
        full block, so each itemgetter takes many names and gives a tuple
        (given one name, it would give the code alone)."""
        tail, codes, times = self._tail, self._codes, self._t
        if type(times) is list:
            times += tail[::5]
        else:
            try:
                times.fromlist(tail[::5])  # all or nothing
            except OverflowError:  # a scenario's times have no upper bound
                self._t = [*times, *tail[::5]]
        # The plain columns go first, so their slices are freed before
        # the code blocks are built.
        self._detail += tail[4::5]
        named = (1, 2, 3)  # a record's kind, frm and to items
        try:
            blocks = [itemgetter(*tail[i::5])(codes) for i in named]
        except KeyError:  # a name new to the table takes the next code
            for name in dict.fromkeys(chain.from_iterable(tail[i::5] for i in named)):
                codes.setdefault(name, len(codes))
            blocks = [itemgetter(*tail[i::5])(codes) for i in named]
        if len(codes) > 256 and self._packed[0].itemsize == 1:
            self._packed = tuple(array("I", column) for column in self._packed)
        for column, block in zip(self._packed, blocks):
            if column.itemsize == 1:
                column.frombytes(bytes(block))
            else:
                column.extend(array("I", block))
        tail.clear()

    def _named(self, t, kinds, frm, to, detail) -> tuple:
        """Columns of packed records, their names decoded as read."""
        name = list(self._codes).__getitem__  # the codes count up in insertion order
        return t, map(name, kinds), map(name, frm), map(name, to), detail

    def records(self, start: int | None = 0, stop: int | None = None) -> Iterator[tuple[int, str, str, str, str]]:
        """Records start to stop (a slice's bounds) as plain (t, kind,
        frm, to, detail) tuples: the packed ones zipped from their
        columns, then the tail's, five items at a time.  The whole trace
        is read in place; a part is first sliced from each packed column."""
        columns, tail = (self._t, *self._packed, self._detail), iter(self._tail)
        if (start, stop) != (0, None):
            start, stop, _ = slice(start, stop).indices(len(self))
            n = len(self._detail)  # records already packed
            columns = [column[start:stop] for column in columns]
            tail = islice(tail, 5 * max(start - n, 0), 5 * max(stop - n, 0))
        return chain(zip(*self._named(*columns)), zip(*[tail] * 5))

    def records_of(self, kind: str) -> Iterator[tuple[int, str, str, str]]:
        """The (t, frm, to, detail) of every record of one kind, picked
        from the packed records by scanning the kind column."""
        t, kinds, frm, to, detail = self._named(self._t, *self._packed, self._detail)
        packed = compress(zip(t, frm, to, detail), map(kind.__eq__, kinds))
        tail = zip(*[iter(self._tail)] * 5)
        return chain(packed, ((t, frm, to, detail) for t, k, frm, to, detail in tail if k == kind))

    def lines(self, start: int | None = 0, stop: int | None = None) -> list[str]:
        """The rendered lines of records start to stop (a slice's bounds)."""
        return [f"t={t} {kind} {frm} {to} {detail}" for t, kind, frm, to, detail in self.records(start, stop)]

    def text(self) -> str:
        return "\n".join(self.lines()) + ("\n" if len(self) else "")

    def count(self, kind: str | None = None, contains: str = "") -> int:
        """How many records of one kind (of any kind for None) hold
        contains in their detail."""
        _, kinds, _, _, details = self._named(self._t, *self._packed, self._detail)
        tail = self._tail
        details = chain(details, islice(tail, 4, None, 5))
        if kind is not None:  # of the lazy name columns only the kinds are read
            details = compress(details, map(kind.__eq__, chain(kinds, islice(tail, 1, None, 5))))
        return sum(contains in detail for detail in details)

    def __iter__(self) -> Iterator[TraceEvent]:
        return map(_as_event, self.records())

    def __len__(self) -> int:
        return len(self._detail) + len(self._tail) // 5


# --------------------------------------------------------------------
# Syscalls
# --------------------------------------------------------------------

class Send:
    """targets are sent to in tuple order; one endpoint is a tuple of one."""

    __slots__ = ("targets", "data")

    def __init__(self, targets: Endpoint | tuple[Endpoint, ...], data: wire.Frame) -> None:
        self.targets = (targets,) if isinstance(targets, Endpoint) else targets
        self.data = data


class Recv:
    __slots__ = ("timeout",)

    def __init__(self, timeout: Optional[int] = None) -> None:
        self.timeout = timeout


class Sleep:
    __slots__ = ("dt",)

    def __init__(self, dt: int) -> None:
        self.dt = dt


class Exit:
    """Terminate the calling process and retire its endpoint gracefully."""

    __slots__ = ()


class Proc:
    """One process: the handle its generator gets and the record the
    scheduler steps.  It runs exactly while its endpoint's slot (in st,
    its endpoint's state) holds it.  deadline is the timer entry of its
    wait (None if untimed) and timer the one entry it has in the queue,
    if any."""

    __slots__ = ("sim", "endpoint", "st", "gen", "finished", "waiting", "deadline", "timer")

    def __init__(self, sim: "Simulator", endpoint: Endpoint, st: "_EndpointState"):
        self.sim = sim
        self.endpoint = endpoint
        self.st = st
        self.gen: Optional[Generator] = None
        self.finished = False
        self.waiting = False
        self.deadline: Optional[tuple] = None
        self.timer: Optional[tuple] = None

    @property
    def now(self) -> int:
        return self.sim.now


class _EndpointState:
    __slots__ = ("mailbox", "dead", "corruption", "pending_omission", "pending_delay", "proc", "links", "fifo_floor")

    def __init__(self) -> None:
        self.mailbox: list[tuple[Endpoint, wire.Frame]] = []  # oldest first; costs no block while empty
        self.dead = False
        self.corruption: Optional[bytes] = None
        self.pending_omission = False
        self.pending_delay = 0
        self.proc: Optional[Proc] = None  # the running process, if any
        self.links: set[Endpoint] = set()  # peers, kept on both ends
        self.fifo_floor: dict[Endpoint, int] = {}  # peer -> last held-back delivery time sent to it


def _is_work(entry: tuple) -> bool:
    """Whether a queued entry can still change anything: every entry
    but a timer that was superseded or whose process no longer waits
    with a deadline."""
    _, _, tag, p = entry
    return tag != "timeout" or (p.timer is entry and p.waiting and p.deadline is not None)


class Simulator:
    """Single-threaded cooperative simulation of nodes and messages.

    delivery_delay is the per-hop cost in time units (0 means messages
    arrive within the same unit, strictly after the send).  jitter adds
    a seeded random 0..jitter extra units per message when > 0.
    """

    def __init__(self, seed: int = 0, delivery_delay: int = 0, jitter: int = 0):
        self.delivery_delay = delivery_delay
        self.jitter = jitter
        self.now = 0
        self.trace = TraceLog()
        self.quiescent = False
        self._rng = random.Random(seed)
        self._heap: list[tuple[int, int, str, Any]] = []
        self._seq = 0
        self._endpoints: dict[Endpoint, _EndpointState] = {}
        self.crash_listeners: list[Callable[[Endpoint, int], None]] = []
        self._running: Optional[Proc] = None  # the process being resumed

    # -- topology -----------------------------------------------------

    def add_endpoint(self, endpoint: Endpoint) -> Endpoint:
        if endpoint in self._endpoints:
            raise VotingFarmError(f"endpoint {endpoint} already exists")
        self._endpoints[endpoint] = _EndpointState()
        return endpoint

    def _state(self, endpoint: Endpoint) -> _EndpointState:
        """The endpoint's state; NoSuchEndpoint if it was never added."""
        st = self._endpoints.get(endpoint)
        if st is None:
            raise NoSuchEndpoint(str(endpoint))
        return st

    def has_endpoint(self, endpoint: Endpoint) -> bool:
        return endpoint in self._endpoints

    def endpoint_alive(self, endpoint: Endpoint) -> bool:
        st = self._endpoints.get(endpoint)
        return st is not None and not st.dead

    def add_link(self, a: Endpoint, b: Endpoint) -> None:
        """Join a and b both ways; re-adding a link does nothing."""
        sa, sb = self._state(a), self._state(b)
        if a == b:
            raise VotingFarmError("link endpoints must differ")
        sa.links.add(b)
        sb.links.add(a)

    def has_link(self, a: Endpoint, b: Endpoint) -> bool:
        st = self._endpoints.get(a)
        return st is not None and b in st.links

    def link_count(self, kind: str) -> int:
        """Links of that kind ("local" or "virtual"), each two-way link
        counted once."""
        local = kind == "local"
        return sum(
            (peer.node == ep.node) == local for ep, st in self._endpoints.items() for peer in st.links
        ) // 2

    def all_endpoints(self, node: int) -> list[Endpoint]:
        """The node's endpoints, dead or alive."""
        return [e for e in self._endpoints if e.node == node]

    def endpoint_count(self, role: str) -> int:
        """The live endpoints of that role."""
        return sum(1 for ep, st in self._endpoints.items() if ep.role == role and not st.dead)

    # -- processes ----------------------------------------------------

    def spawn(self, fn: Callable[[Proc], Generator], endpoint: Endpoint) -> Proc:
        """Start the endpoint's process and return it; its `finished`
        turns True once the generator ran to normal completion.

        An endpoint runs one process at a time: spawning again is
        allowed once the previous one finished, exited or crashed.
        """
        st = self._state(endpoint)
        if st.proc is not None:
            raise VotingFarmError(f"endpoint {endpoint} already runs a process")
        p = Proc(self, endpoint, st)
        p.gen = fn(p)
        st.proc = p
        self._schedule(self.now, "step", p)
        return p

    # -- fault injection ----------------------------------------------

    def inject(self, spec: FaultSpec) -> None:
        """Schedule a fault.  The target need not exist yet: scenarios
        inject against voters that are only spawned once the user
        modules activate the farm.  A target still missing when the
        fault fires is traced and skipped."""
        if spec.at_time < self.now:
            raise TimeInPast(f"cannot inject at t={spec.at_time}, now is {self.now}")
        self._schedule(spec.at_time, "fault", spec)

    def crash_endpoint(self, endpoint: Endpoint, reason: str = "crash") -> None:
        """Immediately silence a live endpoint (crash fault, KILL, RESTART, SHUTDOWN)."""
        st = self._state(endpoint)
        if not st.dead:
            self._end(endpoint, st, "fault", reason, notify=reason == "crash")

    def revive_endpoint(self, endpoint: Endpoint) -> None:
        """Bring a dead endpoint back (its death left it clean) for a RESTART."""
        self._state(endpoint).dead = False
        self.trace.append(self.now, "revive", str(endpoint), "-", "")

    def _end(self, endpoint: Endpoint, st: _EndpointState, kind: str, detail: str, notify: bool) -> None:
        """The one way an endpoint dies.  A process that ends its own
        endpoint is closed by _step once it yields, not while it runs."""
        st.dead = True
        st.mailbox.clear()
        st.corruption = None
        st.pending_omission = False
        st.pending_delay = 0
        p, st.proc = st.proc, None
        if p is not None:
            p.waiting = False
            if p is not self._running:
                p.gen.close()
        self.trace.append(self.now, kind, endpoint.name, "-", detail)
        if notify:
            for listener in self.crash_listeners:
                listener(endpoint, self.now)

    def _proc_error(self, p: Proc, st: _EndpointState, err: Exception) -> None:
        self._end(p.endpoint, st, "proc-error", f"{type(err).__name__}: {err}", notify=True)

    # -- control plane -------------------------------------------------

    def post(self, frm: Endpoint, to: Endpoint, data: wire.Frame) -> None:
        """Fire-and-forget delivery outside the farm's link topology.

        Used by the recovery backbone (phase reports, fault records,
        WARN pushes): these travel on a dedicated channel that is not
        part of the farm's accounted resources and never blocks the
        sender.  Delivery is a send event at the current time, after
        everything already scheduled, with no sender to resume.
        """
        trace, detail = self.trace, data.trace_detail
        trace.add((self.now, "post", frm.name, to.name, trace.share(detail, detail)))
        self._schedule(self.now, "send", (None, frm, to, data, None, 0))

    # -- scheduler ----------------------------------------------------

    def _schedule(self, t: int, tag: str, data: Any) -> None:
        heapq.heappush(self._heap, (t, self._seq, tag, data))
        self._seq += 1

    def run_until_quiescent(self, max_time: int = 1_000_000) -> TraceLog:
        """Drain the event queue, stopping after max_time.

        Returns the trace either way; if work remained beyond max_time
        the trace is marked max_time_exceeded and the simulator is left
        non-quiescent.  Timers that can no longer fire are not work.
        """
        heap, endpoints, pop, trace = self._heap, self._endpoints, heapq.heappop, self.trace
        add, share, tail, shared = trace.add, trace.share, trace._tail, trace._shared
        while heap:
            if len(tail) >= _FULL_TAIL:
                trace._pack()
            if len(shared) > _SHARED_DETAILS:
                shared.clear()
            if heap[0][0] > max_time:
                if any(map(_is_work, heap)):
                    trace.max_time_exceeded = True
                    self.quiescent = False
                    return trace
                break
            t, _, tag, data = entry = pop(heap)
            self.now = t  # never earlier: nothing is queued before the current time
            if tag == "send":
                p, frm, to, frame, item, i = data
                if frame is not None:  # deliver it, unless an omission dropped it
                    st = endpoints.get(to)
                    if st is None or st.dead:
                        add((t, "drop", frm.name, to.name, "dead endpoint"))
                    else:
                        detail = frame.trace_detail
                        add((t, "deliver", frm.name, to.name, share(detail, detail)))
                        q = st.proc
                        if q is not None and q.waiting:  # a process waits only on an empty mailbox
                            q.waiting = False
                            self._step(q, (frm, frame))
                        else:
                            st.mailbox.append((frm, frame))
                if p is not None and p.st.proc is p and self._handle_send(p, item, i):
                    self._step(p, None)
            elif tag == "timeout":
                self._expire(data, entry)
            elif tag == "step":
                self._step(data, None)
            elif tag == "fault":
                self._activate_fault(data)
        self.quiescent = True
        return trace

    def _expire(self, p: Proc, timer: tuple) -> None:
        """A timer of p popped: time out its wait, re-arm, or drop it."""
        if timer is not p.timer:
            return  # superseded by an earlier timer of the same process
        p.timer = None
        if not p.waiting:
            return
        if p.deadline is timer:
            p.waiting = False
            self.trace.add((self.now, "timeout", p.endpoint.name, "-", ""))
            self._step(p, TIMEOUT)
        elif p.deadline is not None:
            # The wait now running started after this timer was armed and
            # expires later: arm its own deadline in its place.
            p.timer = p.deadline
            heapq.heappush(self._heap, p.deadline)

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

    def _step(self, p: Proc, value: Any) -> None:
        st = p.st
        if st.proc is not p:
            return
        while True:
            self._running = p
            try:
                item = p.gen.send(value)
            except StopIteration:
                p.finished = True
                st.proc = None
                return
            except Exception as err:
                if st.proc is p:
                    self._proc_error(p, st, err)
                return
            finally:
                self._running = None
            if st.proc is not p:  # the process ended its own endpoint
                p.gen.close()
                return
            value = None

            if isinstance(item, Send):
                if self._handle_send(p, item, 0):
                    continue
                return
            if isinstance(item, Recv):
                if st.mailbox:
                    value = st.mailbox.pop(0)
                    continue
                p.waiting = True
                if item.timeout is None:
                    p.deadline = None
                    return
                deadline = p.deadline = (self.now + max(0, item.timeout), self._seq, "timeout", p)
                self._seq += 1
                if p.timer is None or p.timer > deadline:
                    p.timer = deadline
                    heapq.heappush(self._heap, deadline)
                return
            if isinstance(item, Sleep):
                self._schedule(self.now + max(0, item.dt), "step", p)
                return
            if isinstance(item, Exit):
                self._end(p.endpoint, st, "exit", "closed", notify=False)
                return
            self._proc_error(p, st, VotingFarmError(f"process yielded unknown item {item!r}"))
            return

    def _handle_send(self, p: Proc, item: Send, i: int) -> bool:
        """Issue item's sends from target i on, up to the first that is
        in flight.  Returns True if none is, so the sender continues
        immediately."""
        frm, sender_st, targets, frame = p.endpoint, p.st, item.targets, item.data
        now, trace, endpoints = self.now, self.trace, self._endpoints
        detail = frame.trace_detail
        detail = trace.share(detail, detail)
        while i < len(targets):
            to = targets[i]
            i += 1
            target_st = endpoints.get(to)
            if target_st is not None and not target_st.dead and to not in sender_st.links:
                self._proc_error(p, sender_st, NoSuchLink(f"no link {frm} -- {to}"))
                return False

            trace.add((now, "send", frm.name, to.name, detail))
            if target_st is None or target_st.dead:
                # Fail/stop: a send to a dead or never-added peer is
                # discarded, whether or not a link to it was ever wired,
                # and costs the sender nothing. The caller sees success.
                trace.add((now, "drop", frm.name, to.name, "dead endpoint"))
                continue

            data = frame if sender_st.corruption is None else wire.corrupt_value(frame, sender_st.corruption)

            t_due = t_del = now + self.delivery_delay
            if self.jitter > 0:
                t_del += self._rng.randrange(self.jitter + 1)
            if sender_st.pending_delay:
                t_del += sender_st.pending_delay
                sender_st.pending_delay = 0
            floors = sender_st.fifo_floor
            if floors and floors.get(to, 0) > t_del:
                t_del = floors[to]
            if t_del > t_due:  # held back: later sends on this link must not pass it
                floors[to] = t_del

            if sender_st.pending_omission:
                sender_st.pending_omission = False
                trace.add((now, "drop", frm.name, to.name, "omission"))
                data = None
            heapq.heappush(self._heap, (t_del, self._seq, "send", (p, frm, to, data, item, i)))
            self._seq += 1
            return False
        return True
