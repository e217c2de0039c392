"""Voter engine driven through real farm sessions.

Each test wires an N-member farm on a fresh simulator, runs scripted
user modules against it and asserts on the statuses, outputs and the
fabric trace.  delivery_delay stays 0 so the turn-based timing is
exact: a session's only waits are the delta_t timeouts for silent
members, which makes latency arithmetic integer-precise.
"""

import itertools

import pytest

from farm_harness import DT, INPUT_AT, build_farm, completion_time, final_status, opened_farm, run_farm, standard_user
from test_artifacts import tmr_stream
from test_golden_artifacts import MEMBERSHIP_RUNS, SCENARIOS
from votingfarm import voter, wire
from votingfarm.algorithms import AlgorithmSelect, encode_scalar, vote
from votingfarm.client import vf_add, vf_control, vf_get, vf_open, vf_run
from votingfarm.core import VfStatusCode, VoteObject, VotingFarmError
from votingfarm.fabric import Endpoint, Simulator, Sleep
from votingfarm.scenario import bundled_dir, resolve_scenario, run_scenario
from votingfarm.voter import FarmSlot, FarmView, VerdictMemo, VoterState


# -- plain sessions -----------------------------------------------------------

def test_unanimous_tmr_session():
    sim, _, reports = run_farm(3, {1: 42.0, 2: 42.0, 3: 42.0})
    for node in (1, 2, 3):
        st = final_status(reports, node)
        assert st.code is VfStatusCode.VF_DONE and st.detail == "ok"
        assert st.session == 0
        out = reports[node]["outputs"]
        assert len(out) == 1 and out[0]["payload"] == encode_scalar(42.0)
    # every voter reached success and completed in the same tick as the input
    for k in (1, 2, 3):
        assert sim.trace.count("phase", contains="VFP_SUCCESS") >= 3
    assert completion_time(sim) == INPUT_AT


def test_each_voter_broadcasts_once_per_fellow():
    sim, _, _ = run_farm(3, {1: 7.0, 2: 7.0, 3: 7.0})
    for k in (1, 2, 3):
        frm = f"voter:{k}@{k}"
        sent = [
            ev for ev in sim.trace
            if ev.kind == "send" and ev.frm == frm and ev.detail.startswith("broadcast")
        ]
        assert len(sent) == 2, f"voter {k} sent {len(sent)} broadcasts"
        assert {ev.to for ev in sent} == {f"voter:{j}@{j}" for j in (1, 2, 3) if j != k}


def test_fellows_are_the_other_members_voter_endpoints_in_ident_order():
    # The voter endpoints are interned, so the broadcast targets are the
    # objects the farm registers.
    view = FarmView([FarmSlot(3, 7, 2), FarmSlot(1, 5, 4), FarmSlot(2, 6, 6)])
    assert view.fellows(5) == [Endpoint(6, "voter", 6), Endpoint(2, "voter", 7)]
    assert view.fellows(7)[0] is Endpoint(4, "voter", 5)


def test_the_voters_of_one_membership_share_one_view():
    # Each voter of an N-member farm used to build its own N slots.
    n = 32
    _, runtime, reports = run_farm(n, {node: 5.0 for node in range(1, n + 1)})
    assert all(final_status(reports, node).detail == "ok" for node in range(1, n + 1))
    views = {id(state.view) for state in runtime.voter_states.values()}
    assert len(runtime.voter_states) == n and len(views) == 1
    assert runtime.view is runtime.voter_states[1].view
    assert runtime.view.to_fields() == [[k, k, k] for k in range(1, n + 1)]


def test_warns_after_a_membership_change_carry_a_new_shared_view(monkeypatch):
    warns = []
    post = Simulator.post

    def recording_post(sim, frm, to, data):
        if isinstance(data, wire.Warn):
            warns.append(data)
        post(sim, frm, to, data)

    monkeypatch.setattr(Simulator, "post", recording_post)
    spec, dirs = resolve_scenario("three_and_one_spare")
    result = run_scenario(spec, dirs)
    assert result.passed  # KILL 1, START 4, then a WARN to each survivor
    states = result.runtime.voter_states
    before = states[1].view
    assert before.to_fields() == [[1, 1, 1], [2, 2, 2], [3, 3, 3]]
    assert len(warns) == 2 and warns[0].farm is warns[1].farm
    after = warns[0].farm
    assert after is not before and after.to_fields() == [[1, 4, 4], [2, 2, 2], [3, 3, 3]]
    assert all(states[entity].view is after for entity in (2, 3, 4))


def idle_farm_trace(*frames):
    """Post each (frm, frame) to voter 1 of an idle two-member farm;
    returns the trace lines they caused and whether voter 1 lives."""
    sim, runtime, rows = build_farm(2)

    def user(proc):
        yield from opened_farm(runtime, rows, proc)

    for node, _ in rows:
        sim.spawn(user, Endpoint(node, "user"))
    sim.run_until_quiescent()
    start, voter_1 = len(sim.trace), Endpoint(1, "voter", 1)
    for frm, frame in frames:
        sim.post(frm, voter_1, frame)
    sim.run_until_quiescent()
    return [line.split(" ", 1)[1] for line in sim.trace.lines(start)], sim.endpoint_alive(voter_1)


def test_an_idle_voter_drops_an_unexpected_frame():
    lines, alive = idle_farm_trace((Endpoint(1, "user"), wire.Output(0, 1, b"")))
    assert lines[-1] == "drop voter:1@1 - unexpected output while idle"
    assert alive


def test_an_idle_voter_dispatches_frames_by_class():
    # Named as the input kind, with its fields, but not wire.Input itself.
    lookalike = wire._message("Input", "payload", valid=True)
    lines, alive = idle_farm_trace((Endpoint(1, "user"), lookalike(b"\x01")))
    assert lines[-1] == "drop voter:1@1 - unexpected input while idle"
    assert not any(line.startswith("phase ") for line in lines)
    assert alive


def test_a_warn_whose_view_leaves_the_voter_out_ends_it():
    view = FarmView([FarmSlot(2, 2, 2)])
    lines, alive = idle_farm_trace((Endpoint(0, "rint"), wire.Warn(view, 1)))
    assert lines[-2:] == ["warn voter:1@1 - epoch=1 farm=[[2, 2, 2]]", "exit voter:1@1 - closed"]
    assert not alive


def test_farm_slots_and_views_are_read_only():
    slot = FarmSlot(1, 1, 1)
    view = FarmView([slot])
    assert not hasattr(slot, "__dict__") and not hasattr(view, "__dict__")
    assert type(view.slots) is tuple and type(view.voter_endpoints) is tuple
    with pytest.raises(AttributeError):
        slot.node = 2
    with pytest.raises(AttributeError):
        view.slots = ()
    with pytest.raises(AttributeError):
        view.extra = 1
    with pytest.raises(AttributeError):
        del view.voter_endpoints
    assert view.to_fields() == [[1, 1, 1]]


def test_broadcasts_precede_local_replies():
    """Within a session each member relays to its fellows before it
    answers its own node; one-shot send faults therefore always target
    the relay, which keeps fault scenarios well defined."""
    sim, _, _ = run_farm(3, {1: 1.5, 2: 1.5, 3: 1.5})
    for k in (1, 2, 3):
        frm = f"voter:{k}@{k}"
        kinds = [
            ev.detail.split()[0]
            for ev in sim.trace
            if ev.kind == "send" and ev.frm == frm
        ]
        relay_part = [x for x in kinds if x == "broadcast"]
        reply_part = [x for x in kinds if x in ("output", "status")]
        assert kinds == relay_part + reply_part


def test_value_fault_is_masked_by_majority():
    sim, _, reports = run_farm(3, {1: 5.0, 2: 5.0, 3: 5.0})
    del sim  # baseline sanity only
    sim, _, reports = run_farm(3, {1: 5.0, 2: 5.0, 3: 9.0})
    for node in (1, 2, 3):
        assert final_status(reports, node).detail == "ok"
        assert reports[node]["outputs"][0]["payload"] == encode_scalar(5.0)


def test_silent_user_turns_into_invalid_marker():
    sim, _, reports = run_farm(3, {1: 4.0, 2: 4.0, 3: None})
    for node in (1, 2, 3):
        st = final_status(reports, node)
        assert st.code is VfStatusCode.VF_DONE and st.detail == "ok"
        assert reports[node]["outputs"][0]["payload"] == encode_scalar(4.0)
    marker = [
        ev for ev in sim.trace
        if ev.kind == "send" and ev.frm == "voter:3@3"
        and ev.detail.startswith("broadcast") and "valid=False" in ev.detail
    ]
    assert len(marker) == 2
    # the silent member's slot cost every voter one delta_t
    assert completion_time(sim) == INPUT_AT + DT


def test_all_distinct_inputs_reach_no_decision():
    sim, _, reports = run_farm(3, {1: 1.0, 2: 2.0, 3: 3.0})
    for node in (1, 2, 3):
        st = final_status(reports, node)
        assert st.code is VfStatusCode.VF_DONE and st.detail == "no-decision"
        assert reports[node]["outputs"] == []
    assert sim.trace.count("phase", contains="VFP_FAILURE") == 3


def test_fault_free_even_median_farm_agrees():
    # The two survivors' distance sums are equal in exact arithmetic, so
    # summing them in arrival order let rounding pick a different winner
    # for user 5 than for the other five.
    values = [0.2849574619862052, 0.06346057714522935, 0.8539424884226802,
              0.9898060149215813, 0.08851809310972836, 0.8005953212575019]
    spec = {
        "farm": [[k, k] for k in range(1, 7)], "metric": "scalar", "algorithm": {"kind": "median"},
        "delivery_delay": 1, "delta_t": 10,
        "inputs": {str(k): [{"at": 10, "scalar": v}] for k, v in enumerate(values, start=1)},
    }
    result = run_scenario(spec)
    outputs = {(o["source"], o["value"]) for rep in result.users.values() for o in rep["outputs"]}
    assert outputs == {(1, encode_scalar(values[0]).hex())}
    assert all(rep["statuses"][-1]["detail"] == "ok" for rep in result.users.values())


# -- crashed members and the latency penalty -----------------------------------

@pytest.mark.parametrize("m", [1, 2, 3])
def test_latency_penalty_is_m_delta_t(m):
    base_sim, _, base_reports = run_farm(4, {n: 2.0 for n in range(1, 5)})
    for node in range(1, 5):
        assert final_status(base_reports, node).detail == "ok"
    t0 = completion_time(base_sim)
    assert t0 == INPUT_AT  # fault-free turns cost no waiting at all

    crashed = tuple(range(2, 2 + m))
    sim, _, reports = run_farm(4, {n: 2.0 for n in range(1, 5)}, crash_idents=crashed)
    assert completion_time(sim) - t0 == m * DT
    # survivors still reach a verdict while a majority of slots is valid
    expected = "ok" if 4 - m > 4 / 2 else "no-decision"
    for node in set(range(1, 5)) - set(crashed):
        assert final_status(reports, node).detail == expected


def test_two_crashes_in_five_stay_masked():
    sim, _, reports = run_farm(5, {n: 3.25 for n in range(1, 6)}, crash_idents=(2, 4))
    for node in (1, 3, 5):
        assert final_status(reports, node).detail == "ok"
        assert reports[node]["outputs"][0]["payload"] == encode_scalar(3.25)


# -- protocol refusals ----------------------------------------------------------

def test_second_input_mid_session_is_refused_busy():
    def impatient(runtime, rows, reports):
        def run(proc):
            handle = yield from opened_farm(runtime, rows, proc)
            yield Sleep(INPUT_AT - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(6.0))
            yield from vf_control(handle, proc, input=encode_scalar(6.5))
            statuses = []
            while True:
                status = yield from vf_get(handle, proc, timeout=8 * DT)
                statuses.append(status)
                if status.code is not VfStatusCode.VF_REFUSED:
                    break
            reports[1] = {"statuses": statuses, "outputs": handle.outputs}
        return run

    sim, runtime, rows = build_farm(3)
    reports = {}
    sim.spawn(impatient(runtime, rows, reports), Endpoint(1, "user"))
    for node in (2, 3):
        sim.spawn(
            standard_user(runtime, rows, node, 6.0, reports),
            Endpoint(node, "user"),
        )
    sim.run_until_quiescent()
    codes = [(s.code, s.detail) for s in reports[1]["statuses"]]
    assert codes[0] == (VfStatusCode.VF_REFUSED, "busy")
    assert codes[-1] == (VfStatusCode.VF_DONE, "ok")
    assert reports[1]["outputs"][0]["payload"] == encode_scalar(6.0)


def test_input_while_failed_is_refused_until_reset():
    sim, runtime, rows = build_farm(3)
    reports = {}
    log = []

    def user(node):
        def run(proc):
            handle = yield from opened_farm(runtime, rows, proc)
            yield Sleep(INPUT_AT - proc.now)
            # disagreeing inputs: the vote cannot reach a decision
            yield from vf_control(handle, proc, input=encode_scalar(float(node)))
            first = yield from vf_get(handle, proc, timeout=8 * DT)
            log.append((node, "first", first.code, first.detail))
            if node == 1:
                yield Sleep(60 - proc.now)
                yield from vf_control(handle, proc, input=encode_scalar(9.0))
                refused = yield from vf_get(handle, proc, timeout=2 * DT)
                log.append((node, "refused", refused.code, refused.detail))
            yield Sleep(80 - proc.now)
            yield from vf_control(handle, proc, reset=True)
            yield Sleep(90 - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(9.0))
            while True:
                status = yield from vf_get(handle, proc, timeout=8 * DT)
                if status.code is not VfStatusCode.VF_REFUSED:
                    break
            reports[node] = {"second": status, "outputs": handle.outputs}
        return run

    for node in (1, 2, 3):
        sim.spawn(user(node), Endpoint(node, "user"))
    sim.run_until_quiescent()
    assert sim.quiescent

    firsts = {e for e in log if e[1] == "first"}
    assert firsts == {(n, "first", VfStatusCode.VF_DONE, "no-decision") for n in (1, 2, 3)}
    assert (1, "refused", VfStatusCode.VF_REFUSED, "failed") in log
    for node in (1, 2, 3):
        assert reports[node]["second"].detail == "ok"
        assert reports[node]["second"].session == 1
        assert reports[node]["outputs"][-1]["payload"] == encode_scalar(9.0)


def test_algorithm_update_applies_to_next_session():
    # session 0: distinct values, majority fails; after a reset and an
    # algorithm switch the same spread resolves to the scalar median
    select_probe = {}

    def switcher(runtime, rows, reports, node, first, second):
        def run(proc):
            # median needs an ordering metric; byte equality cannot rank values
            handle = vf_open(runtime, "scalar")
            for nd, ident in rows:
                vf_add(handle, nd, ident)
            yield from vf_run(handle, proc)
            yield Sleep(INPUT_AT - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(first))
            status = yield from vf_get(handle, proc, timeout=8 * DT)
            select_probe[(node, 0)] = (status.code, status.detail)
            yield Sleep(60 - proc.now)
            yield from vf_control(handle, proc, reset=True)
            yield from vf_control(handle, proc, algorithm="median")
            yield Sleep(70 - proc.now)
            yield from vf_control(handle, proc, input=encode_scalar(second))
            while True:
                status = yield from vf_get(handle, proc, timeout=8 * DT)
                if status.code is not VfStatusCode.VF_REFUSED:
                    break
            reports[node] = {"status": status, "outputs": handle.outputs}
        return run

    sim, runtime, rows = build_farm(3)
    reports = {}
    firsts = {1: 1.0, 2: 2.0, 3: 3.0}
    seconds = {1: 10.0, 2: 20.0, 3: 90.0}
    for node in (1, 2, 3):
        sim.spawn(
            switcher(runtime, rows, reports, node, firsts[node], seconds[node]),
            Endpoint(node, "user"),
        )
    sim.run_until_quiescent()
    for node in (1, 2, 3):
        assert select_probe[(node, 0)] == (VfStatusCode.VF_DONE, "no-decision")
        assert reports[node]["status"].detail == "ok"
        assert reports[node]["outputs"][-1]["payload"] == encode_scalar(20.0)


# -- one vote per distinct ballot ------------------------------------------------

def farm_spec(n, values_at, **extra):
    """An n-member farm, one member per node; values_at maps a time to each node's value."""
    inputs = {str(k): [{"at": t, "scalar": value(k)} for t, value in values_at.items()] for k in range(1, n + 1)}
    return {
        "farm": [[k, k] for k in range(1, n + 1)], "metric": "scalar", "delivery_delay": 1, "delta_t": 60,
        "get_timeout": 1000, "inputs": inputs, **extra,
    }


def count_votes(monkeypatch):
    """The ballots voter.vote is called with, in call order."""
    ballots = []
    real = voter.vote

    def counted(ballot, metric, select):
        ballots.append(list(ballot))
        return real(ballot, metric, select)

    monkeypatch.setattr(voter, "vote", counted)
    return ballots


@pytest.mark.parametrize("n", [3, 32])
def test_a_fault_free_session_is_voted_once(monkeypatch, n):
    ballots = count_votes(monkeypatch)
    built = []  # the VoteObjects of the ballots voted, and of no other

    def counted(*fields):
        built.append(fields)
        return VoteObject(*fields)

    monkeypatch.setattr(voter, "VoteObject", counted)
    result = run_scenario(farm_spec(n, {10: lambda k: 1.5, 300: lambda k: float(k % 2)},
                                    algorithm={"kind": "plurality", "tie_break": "lowest-member"}))
    assert len(ballots) == 2 and len(built) == 2 * n
    outputs = [[o["value"] for o in rep["outputs"]] for rep in result.users.values()]
    assert outputs == [[encode_scalar(1.5).hex(), encode_scalar(1.0).hex()]] * n
    assert result.sim.trace.count("phase", contains="VFP_SUCCESS") == 2 * n


def test_shared_verdicts_are_what_each_voter_would_vote(monkeypatch):
    # Every verdict a voter takes from the memo equals the one it would
    # reach on its own ballot, in the order that ballot arrived.
    ballots = count_votes(monkeypatch)
    checked = []
    real = voter._verdict

    def checked_verdict(state, session, slots):
        got = real(state, session, slots)
        ballot = [VoteObject(payload, valid, source) for source, valid, payload in slots]
        try:
            alone = vote(ballot, state.metric_name, state.select)
        except VotingFarmError:
            alone = None
        assert outcome(got[0]) == outcome(alone)
        checked.append(got)
        return got

    def outcome(won):
        return None if won is None else (won.payload, won.source)

    monkeypatch.setattr(voter, "_verdict", checked_verdict)
    for kind in ("median", "weighted-average", "majority"):
        run_scenario(farm_spec(6, {10: lambda k: 0.1 * k * k, 200: lambda k: 7.0 if k == 2 else 1.0},
                               algorithm={"kind": kind}, jitter=3))
    for name in MEMBERSHIP_RUNS:
        run_scenario(MEMBERSHIP_RUNS[name], (str(SCENARIOS), bundled_dir()))
    assert len(checked) > 2 * len(ballots) > 0


def test_a_ballot_holding_one_members_slot_twice_is_voted_as_it_came(monkeypatch):
    # In the pinned kill_two_start_spare run three voters time out on
    # ident 2 and then append its late invalid broadcast as well.  Their
    # ballots differ from each other (each holds its own voter's value),
    # so each is voted on, and the verdicts are the pinned no-decisions.
    ballots = count_votes(monkeypatch)
    result = run_scenario(MEMBERSHIP_RUNS["kill_two_start_spare"], (str(SCENARIOS), bundled_dir()))
    twice = [b for b in ballots if {(o.source, o.valid) for o in b} >= {(0, False), (2, False)}]
    assert len(twice) == 3
    assert result.sim.trace.count("vote-fail", contains="no-decision") == 4
    assert (len(ballots), result.sim.trace.count("phase", contains="VFP_VOTING")) == (7, 11)


def test_every_order_of_one_members_two_values_gives_one_verdict(monkeypatch):
    # Canonical order, not the slot, breaks the tie between one member's
    # two values, so every order of the ballot has one verdict, stored once.
    ballots = count_votes(monkeypatch)
    view = FarmView([FarmSlot(k, k, k) for k in (1, 2, 3)])
    state = VoterState(1, view, 10, AlgorithmSelect("plurality", tie_break="lowest-member"), "scalar",
                       None, None, VerdictMemo())
    ballot = [(src, True, encode_scalar(x)) for x, src in ((1.0, 1), (2.0, 1), (3.0, 2))]
    orders = [list(order) for order in itertools.permutations(ballot)]
    shared = [voter._verdict(state, 0, order) for order in orders]
    alone = [vote([VoteObject(p, ok, src) for src, ok, p in order], "scalar", state.select) for order in orders]
    assert shared == [(won, None) for won in alone] == [shared[0]] * len(orders)
    assert len(ballots) == 1 and len(state.memo.verdicts) == 1


def test_an_internal_vote_failure_is_voted_once(monkeypatch):
    # A 1-byte raw payload cannot decode as a vector.  The error names
    # the first bad payload in canonical order, so the voters share it.
    ballots = count_votes(monkeypatch)
    spec = farm_spec(3, {}, metric="default", algorithm={"kind": "weighted-average"},
                     inputs={str(k): [{"at": 10, "value": "10"}] for k in (1, 2, 3)})
    result = run_scenario(spec)
    assert len(ballots) == 1
    assert result.sim.trace.count("vote-fail", contains="internal: vector payload") == 3
    assert len(result.runtime.memo.verdicts) == 1


def test_voters_on_other_techniques_do_not_share_a_verdict():
    # Only user 1 switches its voter to the median: the three ballots
    # hold the same items, but voters 2 and 3 still vote by majority.
    spec = farm_spec(3, {10: float}, delta_t=10)
    spec["inputs"]["1"].insert(0, {"at": 5, "algorithm": {"kind": "median"}})
    result = run_scenario(spec)
    details = [rep["statuses"][-1]["detail"] for _, rep in sorted(result.users.items())]
    assert details == ["ok", "no-decision", "no-decision"]
    assert result.users[1]["outputs"][0]["value"] == encode_scalar(2.0).hex()


def test_the_memo_keeps_one_sessions_verdicts():
    result = run_scenario(tmr_stream(200))
    memo = result.runtime.memo
    assert memo.tag[:2] == (0, 199)
    assert len(memo.verdicts) == 1
