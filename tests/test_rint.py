"""Strategy interpreter: rule evaluation, selector binding, farm actions."""

import random

import pytest

import farm_harness
from farm_harness import opened_farm
from votingfarm import wire
from votingfarm.core import VoterPhase, VotingFarmError
from votingfarm.fabric import Endpoint, Recv, Simulator
from votingfarm.recovery.lang import parse_rl
from votingfarm.recovery.rint import (
    ActionInstance,
    DirDatabase,
    director_process,
    execute_actions,
    rint_step,
)
from votingfarm.scenario import bundled_dir

PHASES = (bundled_dir(),)  # where INCLUDE "vf_phases.h" resolves

REPLACE_WITH_SPARE = parse_rl(
    'INCLUDE "vf_phases.h"\n'
    "IF [ -FAULTY THREAD1 OR -PHASE THREAD1 == {VFP_FAILURE} ]\n"
    "THEN\n"
    "    KILL THREAD1\n"
    "    START THREAD4 AND WARN THREAD2, THREAD3\n"
    "FI",
    include_dirs=PHASES,
)

DEGRADE_GROUP = parse_rl(
    'INCLUDE "vf_phases.h"\n'
    "IF [ -FAULTY GROUP1 OR -PHASE GROUP1 == {VFP_FAILURE} ]\n"
    "THEN KILL THREAD@ AND WARN THREAD~ FI",
    include_dirs=PHASES,
)


def pairs(instances):
    return [(i.verb, i.target) for i in instances]


# -- pure evaluation ----------------------------------------------------

def test_phase_failure_triggers_spare_replacement():
    db = DirDatabase()
    db.phases[1] = 4
    got = rint_step(REPLACE_WITH_SPARE, db)
    assert pairs(got) == [("KILL", 1), ("START", 4), ("WARN", 2), ("WARN", 3)]


def test_watchdog_fault_triggers_the_same_rule():
    db = DirDatabase()
    db.faulty.add(1)
    assert pairs(rint_step(REPLACE_WITH_SPARE, db)) == [
        ("KILL", 1),
        ("START", 4),
        ("WARN", 2),
        ("WARN", 3),
    ]


def test_healthy_database_fires_nothing():
    db = DirDatabase()
    db.phases[1] = 3  # success is not failure
    assert rint_step(REPLACE_WITH_SPARE, db) == []


def test_default_runs_only_when_no_rule_fires():
    program = parse_rl(
        "IF [ -FAULTY THREAD1 ] THEN KILL THREAD1 FI\nDEFAULT\nPURGE\nFI"
    )
    clean = DirDatabase()
    assert [i.verb for i in rint_step(program, clean)] == ["PURGE"]
    dirty = DirDatabase()
    dirty.faulty.add(1)
    assert [i.verb for i in rint_step(program, dirty)] == ["KILL"]


def test_group_selector_kills_faulty_and_warns_rest():
    db = DirDatabase(groups={1: (1, 2, 3)})
    db.faulty.add(2)
    assert pairs(rint_step(DEGRADE_GROUP, db)) == [("KILL", 2), ("WARN", 1), ("WARN", 3)]


def test_selector_bindings_partition_the_group():
    rng = random.Random(7)
    members = tuple(range(1, 8))
    for _ in range(100):
        db = DirDatabase(groups={1: members})
        bad = {m for m in members if rng.random() < 0.4}
        for m in bad:
            db.faulty.add(m)
        got = rint_step(DEGRADE_GROUP, db)
        kills = {i.target for i in got if i.verb == "KILL"}
        warns = {i.target for i in got if i.verb == "WARN"}
        if not bad:
            assert got == []
            continue
        assert kills == bad
        assert kills.isdisjoint(warns)
        assert kills | warns == set(members)


def test_group_phase_predicate_matches_any_member():
    db = DirDatabase(groups={1: (1, 2, 3)})
    db.phases[3] = 4
    assert pairs(rint_step(DEGRADE_GROUP, db)) == [("KILL", 3), ("WARN", 1), ("WARN", 2)]


def test_all_true_rules_fire_in_order():
    program = parse_rl(
        "IF [ -FAULTY THREAD1 ] THEN KILL THREAD1 FI\n"
        "IF [ -FAULTY THREAD2 ] THEN KILL THREAD2 FI\n"
        "IF [ -FAULTY THREAD9 ] THEN KILL THREAD9 FI"
    )
    db = DirDatabase()
    db.faulty.add(2)
    db.faulty.add(1)
    assert pairs(rint_step(program, db)) == [("KILL", 1), ("KILL", 2)]


def test_group_target_expands_to_members():
    program = parse_rl("IF [ -FAULTY THREAD1 ] THEN WARN GROUP2 FI")
    db = DirDatabase(groups={2: (4, 5)})
    db.faulty.add(1)
    assert pairs(rint_step(program, db)) == [("WARN", 4), ("WARN", 5)]


def test_and_rule_needs_both_operands():
    program = parse_rl("IF [ -FAULTY THREAD1 AND -FAULTY THREAD2 ] THEN KILL THREAD3 FI")
    db = DirDatabase()
    db.faulty.add(1)
    assert rint_step(program, db) == []
    db.faulty.add(2)
    assert pairs(rint_step(program, db)) == [("KILL", 3)]


def test_rule_over_two_groups_tests_each_whole_group():
    # No selector binds a member here, so each group predicate holds
    # when any member of its group satisfies it.
    program = parse_rl("IF [ -FAULTY GROUP1 AND -FAULTY GROUP2 ] THEN WARN GROUP1 FI")
    db = DirDatabase(groups={1: (1, 2), 2: (3, 4)})
    db.faulty.add(2)
    assert rint_step(program, db) == []
    db.faulty.add(4)
    assert pairs(rint_step(program, db)) == [("WARN", 1), ("WARN", 2)]


def test_negated_condition():
    program = parse_rl("IF [ NOT -FAULTY THREAD1 ] THEN WARN THREAD1 FI")
    assert pairs(rint_step(program, DirDatabase())) == [("WARN", 1)]
    db = DirDatabase()
    db.faulty.add(1)
    assert rint_step(program, db) == []


# -- the director ---------------------------------------------------------

@pytest.mark.parametrize("phase,code,triggers", [
    (VoterPhase.VFP_FAILURE, 4, True),
    (VoterPhase.VFP_SUCCESS, 3, False),
])
def test_director_records_the_phase_code_and_triggers_only_on_failure(phase, code, triggers):
    db, got = run_director(wire.Phase(2, phase))
    assert db.phases == {2: code}
    assert got == ([("trigger", 2)] if triggers else [])


def test_director_ignores_a_frame_that_is_neither_a_phase_report_nor_a_fault_record():
    db, got = run_director(wire.Control("reset", member=2))
    assert (db.phases, db.faulty, got) == ({}, set(), [])


def run_director(frame):
    """Post one frame from voter 2 to the director; returns its database
    and the (req, member) of each frame it passed to the interpreter."""
    sim = Simulator(seed=1)
    dirnet = sim.add_endpoint(Endpoint(0, "dirnet"))
    rint = sim.add_endpoint(Endpoint(0, "rint"))
    db = DirDatabase()
    got = []

    def interpreter(proc):
        while True:
            _, frame = yield Recv(None)
            got.append((frame.req, frame.member))

    sim.spawn(director_process(db, rint), dirnet)
    sim.spawn(interpreter, rint)
    sim.post(voter_ep(2, 2), dirnet, frame)
    sim.run_until_quiescent()
    return db, got


# -- actions against a live farm -----------------------------------------

def build_farm(n=3, spare=None, active=None):
    """An n-member farm; only the nodes in active (default all) ran vf_run."""
    sim, runtime, rows = farm_harness.build_farm(n, seed=1)

    def user(proc):
        yield from opened_farm(runtime, rows, proc)

    for node, _ in rows:
        if active is None or node in active:
            sim.spawn(user, Endpoint(node, "user"))
    sim.run_until_quiescent()
    if spare is not None:
        runtime.declare_spare(*spare)
    return sim, runtime


def voter_ep(entity, node):
    return Endpoint(node, "voter", entity)


def test_spare_replacement_updates_the_farm():
    sim, runtime = build_farm(spare=(4, 1))
    db = DirDatabase()
    db.phases[1] = 4
    execute_actions(rint_step(REPLACE_WITH_SPARE, db), runtime, db)
    sim.run_until_quiescent()

    assert not sim.endpoint_alive(voter_ep(1, 1))
    assert sim.endpoint_alive(voter_ep(4, 1))
    assert runtime.view.to_fields() == [[1, 4, 1], [2, 2, 2], [3, 3, 3]]
    assert runtime.epoch == 1  # one bump for the whole batch
    assert db.verbs() == ["KILL", "START", "WARN", "WARN"]
    assert all(entry["ok"] for entry in db.action_log)
    assert db.errors == []
    assert sim.trace.count("action") == 4
    assert sim.trace.count("warn") == 2  # both survivors adopted the table


def test_started_spare_takes_the_lowest_freed_ident():
    sim, runtime = build_farm(spare=(4, 4))
    db = DirDatabase()
    execute_actions([ActionInstance("KILL", "entity", 2), ActionInstance("START", "entity", 4)], runtime, db)
    sim.run_until_quiescent()
    assert db.errors == []
    assert runtime.view.to_fields() == [[1, 1, 1], [2, 4, 4], [3, 3, 3]]
    assert runtime.voter_states[4].view is runtime.view


def test_failed_action_is_recorded_and_batch_continues():
    sim, runtime = build_farm()
    db = DirDatabase()
    db.faulty.add(2)
    execute_actions(
        [
            ActionInstance("KILL", "entity", 2),
            ActionInstance("WARN", "entity", 2),
            ActionInstance("PURGE", "none"),
        ],
        runtime,
        db,
    )
    sim.run_until_quiescent()
    assert [e["ok"] for e in db.action_log] == [True, False, True]
    assert len(db.errors) == 1 and "WARN to dead entity 2" in db.errors[0]
    assert db.faulty == set()  # the purge still ran
    assert sim.trace.count("action-error") == 1


def test_start_of_undeclared_entity_fails_cleanly():
    sim, runtime = build_farm()
    db = DirDatabase()
    execute_actions([ActionInstance("START", "entity", 9)], runtime, db)
    assert db.action_log[0]["ok"] is False
    assert "undeclared entity 9" in db.errors[0]


def declare_twice(runtime):
    runtime.declare_spare(4, 1)
    runtime.declare_spare(4, 2)


@pytest.mark.parametrize(
    "act, refusal",
    [
        (lambda rt: rt.kill_entity(3), "UnknownEntityAtRuntime: KILL of unstarted entity 3"),
        (lambda rt: rt.restart_entity(3), "UnknownEntityAtRuntime: RESTART of unstarted entity 3"),
        (lambda rt: rt.start_entity(1), "START of already started entity 1"),
        (lambda rt: rt.start_entity(3), "UnknownEntityAtRuntime: START of undeclared entity 3"),
        (lambda rt: rt.kill_entity(2) or rt.restart_entity(2), "RESTART of entity 2 which holds no ident"),
        (lambda rt: rt.reboot_node(9), "REBOOT of node 9 which hosts no member"),
        (lambda rt: rt.reboot_node(3), "UnknownEntityAtRuntime: RESTART of unstarted entity 3"),
        (declare_twice, "entity 4 already declared"),
    ],
    ids=["kill-unstarted", "restart-unstarted", "start-started", "start-canonical",
         "restart-killed", "reboot-empty-node", "reboot-unstarted", "spare-twice"],
)
def test_runtime_refusals(act, refusal):
    sim, runtime = build_farm(active=(1, 2))  # member 3 never started
    try:
        got = act(runtime)
    except VotingFarmError as exc:
        got = str(exc)
    assert got == refusal


def test_restart_keeps_ident_and_revives_endpoint():
    sim, runtime = build_farm()
    sim.crash_endpoint(voter_ep(3, 3), reason="crash")
    db = DirDatabase()
    execute_actions([ActionInstance("RESTART", "entity", 3)], runtime, db)
    sim.run_until_quiescent()
    assert sim.endpoint_alive(voter_ep(3, 3))
    assert runtime.view.slot_of_entity(3).ident == 3
    assert db.action_log[0]["ok"]


def test_reboot_restarts_every_member_on_the_node():
    sim, runtime = build_farm()
    db = DirDatabase()
    execute_actions([ActionInstance("REBOOT", "node", 2)], runtime, db)
    sim.run_until_quiescent()
    assert sim.endpoint_alive(voter_ep(2, 2))
    assert db.action_log[0]["ok"]
    execute_actions([ActionInstance("REBOOT", "node", 9)], runtime, db)
    assert db.action_log[-1]["ok"] is False


def test_shutdown_silences_a_node_and_drops_its_member():
    sim, runtime = build_farm()
    db = DirDatabase()
    execute_actions([ActionInstance("SHUTDOWN", "node", 3)], runtime, db)
    sim.run_until_quiescent()
    assert not sim.endpoint_alive(voter_ep(3, 3))
    assert not sim.endpoint_alive(Endpoint(3, "user"))
    assert runtime.view.slot_of_entity(3) is None
    execute_actions([ActionInstance("SHUTDOWN", "node", 9)], runtime, db)
    assert "unknown node 9" in db.errors[-1]


def test_unsupported_verb_is_an_error_entry():
    sim, runtime = build_farm()
    db = DirDatabase()
    execute_actions([ActionInstance("FROB", "entity", 1)], runtime, db)
    assert db.action_log[0]["ok"] is False
    assert "unsupported action FROB" in db.errors[0]
