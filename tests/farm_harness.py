"""One N-node farm and one scripted user for the tests that run real sessions.

build_farm wires N members, member i on node i, with a user endpoint on
every node.  A scripted user opens a handle, adds every row and runs
the farm (opened_farm); standard_user then feeds one input at INPUT_AT
and polls until a status other than VF_REFUSED.  run_farm runs one
such user per node to quiescence.  delivery_delay stays 0, so a
session's only waits are the delta_t timeouts for silent members.
"""

from votingfarm.algorithms import encode_scalar
from votingfarm.client import vf_add, vf_control, vf_get, vf_open, vf_run
from votingfarm.core import VfStatusCode
from votingfarm.fabric import Endpoint, FaultSpec, Simulator, Sleep
from votingfarm.farm import FarmRuntime

DT = 10
INPUT_AT = 10


def build_farm(n, select=None, delta_t=DT, seed=0):
    sim = Simulator(seed=seed)
    runtime = FarmRuntime(sim, delta_t=delta_t, select=select)
    rows = [(node, node) for node in range(1, n + 1)]
    for node, _ in rows:
        runtime.ensure_user_endpoint(node)
    return sim, runtime, rows


def opened_farm(runtime, rows, proc):
    """vf_open, vf_add of every row and vf_run; returns the handle."""
    handle = vf_open(runtime)
    for nd, ident in rows:
        vf_add(handle, nd, ident)
    yield from vf_run(handle, proc)
    return handle


def drive(sim, programs):
    """Spawn one scripted generator per node and run to quiescence."""
    for node, fn in programs.items():
        sim.spawn(fn, Endpoint(node, "user"))
    sim.run_until_quiescent()
    assert sim.quiescent, "farm run did not settle"


def standard_user(runtime, rows, node, value, reports, extra=None):
    """Open/add/run, feed one input (None = stay silent), poll to completion."""

    def run(proc):
        handle = yield from opened_farm(runtime, rows, proc)
        yield Sleep(INPUT_AT - proc.now)
        if value is not None:
            yield from vf_control(handle, proc, input=encode_scalar(value))
        statuses = []
        while True:
            status = yield from vf_get(handle, proc, timeout=8 * DT)
            statuses.append(status)
            if status.code is not VfStatusCode.VF_REFUSED:
                break
        reports[node] = {"statuses": statuses, "outputs": handle.outputs, "handle": handle}
        if extra is not None:
            yield from extra(handle, proc, reports[node])

    return run


def run_farm(n, values, crash_idents=(), select=None, extra=None, seed=0):
    """One session: the user on each node inputs values[node] at INPUT_AT.

    Each voter in crash_idents crashes at t=5.  Returns (sim, runtime,
    reports), reports[node] holding the user's statuses, outputs and
    handle."""
    sim, runtime, rows = build_farm(n, select=select, seed=seed)
    for ident in crash_idents:
        sim.inject(FaultSpec("crash", Endpoint(ident, "voter", ident), 5))
    reports = {}
    drive(sim, {
        node: standard_user(runtime, rows, node, values.get(node), reports,
                            extra=extra.get(node) if extra else None)
        for node, _ in rows
    })
    return sim, runtime, reports


def final_status(reports, node):
    return reports[node]["statuses"][-1]


def completion_time(sim):
    """Simulated time of the last session-completion notice to any user."""
    times = [
        ev.t
        for ev in sim.trace
        if ev.kind == "deliver"
        and ev.to.startswith("user")
        and "status=VF_DONE" in ev.detail
        and "detail=closed" not in ev.detail
    ]
    assert times, "no completion notice in trace"
    return max(times)
