"""A triple-redundant voting farm masking bad readings and a crash.

Three users on three nodes each feed one reading into a farm of three
replicated voters.  The farm votes, and every user receives the same
decision, even when one member reads garbage or dies mid-session.

Run with:  python3 demos/demo_voting.py
"""

from votingfarm import (
    Endpoint,
    FarmRuntime,
    FaultSpec,
    Simulator,
    VfStatusCode,
    vf_add,
    vf_control,
    vf_get,
    vf_open,
    vf_run,
)
from votingfarm.algorithms import decode_scalar, encode_scalar
from votingfarm.fabric import Sleep

DELTA_T = 10
INPUT_AT = 10


def voted_session(values, crash_idents=(), title=""):
    """One farm, one session; returns per-node decisions and the end time."""
    n = len(values)
    sim = Simulator(seed=0)
    runtime = FarmRuntime(sim, delta_t=DELTA_T)
    rows = [(node, node) for node in range(1, n + 1)]
    for node, _ in rows:
        runtime.ensure_user_endpoint(node)
    for ident in crash_idents:
        sim.inject(FaultSpec(kind="crash", target=Endpoint(ident, "voter", ident), at_time=5))

    decisions = {}

    def user(node, value):
        def run(proc):
            handle = vf_open(runtime)
            for nd, ident in rows:
                vf_add(handle, nd, ident)
            yield from vf_run(handle, proc)
            yield Sleep(INPUT_AT - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(value))
            while True:
                status = yield from vf_get(handle, proc, timeout=8 * DELTA_T)
                if status.code is not VfStatusCode.VF_REFUSED:
                    break
            payloads = [o["payload"] for o in handle.outputs if o["session"] == 0]
            decisions[node] = (status, [decode_scalar(p) for p in payloads])
        return run

    for (node, _), value in zip(rows, values):
        sim.spawn(user(node, value), Endpoint(node, "user"))
    sim.run_until_quiescent()

    done_at = max(
        ev.t
        for ev in sim.trace
        if ev.kind == "deliver"
        and ev.to.startswith("user")
        and "status=VF_DONE" in ev.detail
    )
    print(f"--- {title}")
    for node in sorted(decisions):
        status, outputs = decisions[node]
        print(f"  node {node}: {status.code.name} {status.detail!r}  outputs={outputs}")
    print(f"  session finished at t={done_at}")
    return done_at


# A clean run first: everyone agrees, everyone hears 42.0.
t_clean = voted_session([42.0, 42.0, 42.0], title="all three members read 42.0")

# Member 2's sensor is off by a factor of ten.  Majority voting does not
# need to know which reading is wrong; two matching values outvote one.
voted_session([42.0, 420.0, 42.0], title="member 2 reads 420.0 (masked by majority)")

# Member 1 dies before the session starts.  The survivors wait one
# timeout for its broadcast, mark the slot invalid, and vote on what
# arrived.  The decision is the same; it just lands delta_t later.
# Node 1's own user hears nothing (its local voter is the dead one)
# and gives up with a timeout.  Recovery of dead members is shown in
# demo_recovery.py.
t_crash = voted_session([42.0, 42.0, 42.0], crash_idents=(1,),
                        title="member 1 crashes at t=5")
print(f"\ncrash penalty: {t_crash - t_clean} ticks, one delta_t of {DELTA_T}")
