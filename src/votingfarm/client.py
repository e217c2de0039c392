"""FILE-like client interface to a voting farm.

User-module code follows the same shape on every node (the farm is
configured SPMD-style): open a handle, add every member, run, then
exchange control requests and poll for status.

    vf = vf_open(runtime, "default")
    vf_add(vf, node=1, ident=1)
    vf_add(vf, node=2, ident=2)
    vf_add(vf, node=3, ident=3)
    yield from vf_run(vf, proc)
    yield from vf_control(vf, proc, input=encode_scalar(5.0))
    while True:
        status = yield from vf_get(vf, proc, timeout=2 * dt)
        if status.code is not VfStatusCode.VF_REFUSED:
            break
    yield from vf_close(vf, proc, timeout=2 * dt)

All blocking calls are generators meant to be delegated to with
``yield from`` inside a fabric process.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from . import wire
from .algorithms import AlgorithmSelect
from .core import (
    ValidationError,
    VfStatus,
    VfStatusCode,
    VotingFarmError,
    validate_descriptor,
)
from .fabric import Proc, Recv, Send, TIMEOUT


class AlreadyRunning(VotingFarmError):
    pass


class NotRunning(VotingFarmError):
    pass


class InvalidatedHandle(VotingFarmError):
    pass


class SpmdIncoherence(VotingFarmError):
    """Nodes disagreed on the farm descriptor during activation."""


class ValidationFailed(ValidationError):
    pass


@dataclass(slots=True)  # a handle per user per run: no per-instance dict
class FarmHandle:
    """Client-side state for one farm, private to one user module."""

    runtime: Any  # FarmRuntime; typed loosely to keep import edges one-way
    metric_name: str
    descriptor: list[tuple[int, int]] = field(default_factory=list)  # (node, ident) rows
    running: bool = False
    invalidated: bool = False
    outputs: list[dict] = field(default_factory=list)
    statuses: list[VfStatus] = field(default_factory=list)
    closing: bool = field(default=False, init=False)  # vf_close has sent its request

    def _check_open(self) -> None:
        if self.invalidated:
            raise InvalidatedHandle("handle was closed")


def vf_open(runtime: Any, metric_name: str = "default") -> FarmHandle:
    """Create an empty farm handle bound to a metric."""
    return FarmHandle(runtime=runtime, metric_name=metric_name)


def vf_add(handle: FarmHandle, node: int, ident: int) -> None:
    """Append one (node, ident) member to the descriptor."""
    handle._check_open()
    if handle.running:
        raise AlreadyRunning("cannot add members after vf_run")
    handle.descriptor.append((node, ident))


def vf_run(handle: FarmHandle, proc: Proc) -> Generator:
    """Validate and activate the farm.

    Every node calls this with an identical descriptor; the runtime
    cross-checks the copies and spawns the member voter local to this
    node, wiring its links.  Nodes that host no member still take part
    in the check.
    """
    handle._check_open()
    if handle.running:
        raise AlreadyRunning("vf_run called twice")
    try:
        validate_descriptor(handle.descriptor)
    except ValidationError as exc:
        raise ValidationFailed(str(exc)) from exc
    handle.runtime.activate(handle, proc)
    handle.running = True
    return
    yield  # pragma: no cover - keeps this a generator for uniform call style


def vf_control(
    handle: FarmHandle,
    proc: Proc,
    *,
    input: Optional[bytes] = None,
    algorithm: Optional[str] = None,
    epsilon: Optional[float] = None,
    scaling_factor: Optional[float] = None,
    tie_break: Optional[str] = None,
    output_node: Optional[int] = None,
    close: bool = False,
    reset: bool = False,
) -> Generator:
    """Send control requests to the local voter.

    Requests are delivered in a fixed order: parameter updates first,
    then output redirection, then an input value (which starts a
    session), then close/reset.  Parameter updates are acknowledged
    only when refused, matching the polling loop's tolerance for
    interleaved VF_REFUSED replies.  Parameters that AlgorithmSelect
    rejects, and redirecting the output to a node without a user
    module, raise before any request is sent.
    """
    handle._check_open()
    if not handle.running:
        raise NotRunning("farm is not running")
    given = (("kind", algorithm), ("epsilon", epsilon),
             ("scaling_factor", scaling_factor), ("tie_break", tie_break))
    params = {k: v for k, v in given if v is not None}
    if params:
        try:
            AlgorithmSelect(**params)  # checks each given field on its own
        except TypeError as exc:
            raise ValidationError(f"bad algorithm parameter: {exc}") from exc
    voter = handle.runtime.local_voter_endpoint(proc.endpoint.node)
    if voter is None:
        return
    if output_node is not None:
        handle.runtime.route_output(voter, output_node)
    if params:
        yield Send(voter, wire.Control("algorithm", params))
    if output_node is not None:
        yield Send(voter, wire.Control("output", output_node))
    if input is not None:
        yield Send(voter, wire.Input(bytes(input)))
    if reset:
        yield Send(voter, wire.Control("reset"))
    if close:
        yield Send(voter, wire.Control("close"))


def vf_get(handle: FarmHandle, proc: Proc, timeout: int) -> Generator:
    """Return the next status reply, or VF_NONE "timeout" once the wait
    ends with none: at the deadline, or at once for a negative timeout.

    Voted-output messages arriving in between are buffered on the
    handle (handle.outputs) without consuming the wait budget beyond
    the time they took to arrive.  Statuses that vf_close set aside come
    first; none of them is a close reply, since vf_close marks the
    handle closing before it reads one.  This is the one place that
    acts on a close reply: VF_DONE "closed" on a closing handle
    invalidates it, also when it comes after vf_close timed out.
    """
    handle._check_open()
    if handle.statuses:
        return handle.statuses.pop(0)
    sim = proc.sim
    deadline = sim.now + timeout
    while sim.now <= deadline:
        got = yield Recv(deadline - sim.now)
        if got is TIMEOUT:
            break
        _, frame = got
        if frame.kind == wire.K_OUTPUT:
            handle.outputs.append({"session": frame.session, "source": frame.member, "payload": frame.payload})
        elif frame.kind == wire.K_STATUS:
            if handle.closing and frame.status is VfStatusCode.VF_DONE and frame.detail == "closed":
                handle.invalidated = True
                handle.running = False
            return VfStatus(frame.status, frame.detail, frame.session)
    return VfStatus(VfStatusCode.VF_NONE, "timeout")


def vf_close(handle: FarmHandle, proc: Proc, timeout: int) -> Generator:
    """Tear the local voter down.

    Succeeds only between sessions: a close during an active session is
    answered VF_REFUSED and leaves the handle usable.  The reply is
    awaited through vf_get, which invalidates the handle on VF_DONE
    "closed", so further calls raise; a reply that comes after the
    timeout does the same at a later vf_get.  vf_control raises for a
    closed or not running handle.
    """
    yield from vf_control(handle, proc, close=True)
    handle.closing = True
    sim = proc.sim
    deadline = sim.now + timeout
    unrelated: list[VfStatus] = []
    while True:
        status = yield from vf_get(handle, proc, deadline - sim.now)
        if handle.invalidated or status.code in (VfStatusCode.VF_REFUSED, VfStatusCode.VF_NONE):
            break
        unrelated.append(status)  # e.g. a session completion racing the close
    handle.statuses[:0] = unrelated
    return status
