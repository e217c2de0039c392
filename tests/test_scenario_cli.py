"""Scenario engine and the vf command line."""

import copy
import json
import shutil
import sys
from pathlib import Path

import pytest

from votingfarm import cli, farm, perf, scenario
from votingfarm.fabric import Recv
from votingfarm.recovery import compile_program, parse_rl
from votingfarm.scenario import (
    ScenarioError,
    bundled_dir,
    check_phase_grammar,
    resolve_scenario,
    run_scenario,
    validate_scenario,
    write_artifacts,
)

HERE = Path(__file__).parent

BUNDLED = [
    "tmr_happy",
    "tmr_one_crash",
    "n5_two_faults",
    "three_and_one_spare",
    "graceful_degradation",
]


def load(name):
    return resolve_scenario(name)


# -- scenario engine ------------------------------------------------------

def test_resolve_by_name_and_by_path():
    by_name, dirs = load("tmr_happy")
    assert by_name["name"] == "tmr_happy"
    assert bundled_dir() in dirs
    path = Path(bundled_dir()) / "tmr_happy.json"
    by_path, _ = resolve_scenario(str(path))
    assert by_path == by_name


def test_resolve_missing_and_malformed(tmp_path):
    with pytest.raises(ScenarioError, match="no scenario named"):
        resolve_scenario("does_not_exist")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        resolve_scenario(str(bad))


def test_a_missing_strategy_file_is_named(tmp_path):
    spec, _ = load("tmr_happy")
    spec = {**spec, "recovery": {"rl": "no_such.rl"}}
    with pytest.raises(ScenarioError, match=r"^referenced file 'no_such\.rl' not found$"):
        run_scenario(spec, (str(tmp_path),))


def test_session_latency_needs_a_scheduled_input():
    result = run_scenario(*load("tmr_happy"))
    assert scenario.session_latency(result, 0) == 0  # no delivery delay, no silent member
    with pytest.raises(ScenarioError, match=r"^no scheduled input for session 1$"):
        scenario.session_latency(result, 1)


def test_session_latency_counts_each_nodes_inputs_as_its_sessions():
    # Each node feeds session k with its k-th value input; the nodes are
    # staggered by 2 ticks, and the farm finishes each session at the
    # third input, 4 ticks after the first.
    spec, dirs = load("tmr_happy")
    inputs = {str(node): [{"at": at + 2 * (node - 1), "scalar": 1.0} for at in (10, 60)] for node in (1, 2, 3)}
    result = run_scenario({**spec, "inputs": inputs, "assertions": []}, dirs)
    done = {(ev.t, ev.detail.split()[3]) for ev in result.trace
            if ev.kind == "deliver" and ev.to.startswith("user") and "status=VF_DONE detail=ok" in ev.detail}
    assert done == {(14, "session=0"), (64, "session=1")}
    assert [scenario.session_latency(result, k) for k in (0, 1)] == [4, 4]
    with pytest.raises(ScenarioError, match=r"^no scheduled input for session 2$"):
        scenario.session_latency(result, 2)


DEEP = 10_000  # nesting far past Python's recursion limit


def test_cli_run_of_too_deeply_nested_json_exits_2(tmp_path, capsys):
    deep = tmp_path / "deep.json"
    deep.write_text('{"farm": ' + "[" * (DEEP * 10) + "]" * (DEEP * 10) + "}")
    assert cli.main(["run", str(deep)]) == 2
    assert capsys.readouterr().err == f"vf: {deep}: JSON nested too deeply to read\n"


@pytest.mark.parametrize(
    "mutation,message",
    [
        ({"farm": []}, "non-empty farm"),
        ({"farm": [[1, 1], [2, 1]]}, "bad farm layout"),
        ({"delta_t": 1, "delivery_delay": 3}, "delta_t must exceed"),
        ({"metric": "hamming"}, "unknown metric"),
        ({"faults": [{"kind": "gamma-ray"}]}, "unknown fault kind"),
        ({"faults": [{"kind": "crash", "role": "dirnet"}]}, "fault role"),
        ({"spares": [{"entity": 9}]}, "each spare needs"),
        ({"algorithm": {"kind": "borda"}}, "bad algorithm selection"),
        ({"seed": 1.5}, "seed must be an integer"),
        ({"max_time": None}, "max_time must be an integer"),
        ({"jitter": True}, "jitter must be an integer"),
        ({"get_polls": "8"}, "get_polls must be an integer"),
        ({"delivery_delay": -5}, "delivery_delay must be >= 0"),
        ({"get_timeout": -3}, "get_timeout must be >= 0"),
        ({"faults": [{"kind": "crash", "entity": 1, "at": -1}]}, "fault at must be >= 0"),
        ({"faults": [{"kind": "crash", "entity": 1, "at": "5"}]}, "fault at must be an integer"),
        ({"faults": [{"kind": "value-corruption", "entity": 1, "at": 5, "mask": ""}]}, "fault mask"),
        ({"faults": [{"kind": "delay", "entity": 1, "at": 5, "delay": 2.5}]}, "fault delay"),
        ({"inputs": {"1": [{"value": "01"}]}}, "input at must be an integer"),
        ({"inputs": [1]}, "inputs must map node numbers"),
        ({"inputs": {"one": []}}, "inputs must map node numbers"),
        ({"inputs": {"1": [5]}}, "inputs of node 1 must be a list of objects"),
        ({"faults": ["x"]}, "faults must be a list of objects"),
        ({"spares": [3]}, "spares must be a list of objects"),
        ({"inputs": {"\u00b2": []}}, "inputs must map node numbers"),
        ({"inputs": {"1": [{"at": 5, "value": "01"}], "01": []}}, "inputs names one of its node numbers twice"),
        ({"recovery": {"rl": "table4.rl", "groups": {"1": [1, 2], "01": [3]}}},
         "recovery groups names one of its group numbers twice"),
        ({"spares": [{"entity": 1, "node": 4}]}, "spare entity 1 is already a farm ident"),
    ],
)
def test_validate_rejects(mutation, message):
    spec, _ = load("tmr_happy")
    spec = {**spec, **mutation}
    with pytest.raises(ScenarioError, match=message):
        validate_scenario(spec)


def test_validate_fills_defaults_and_leaves_the_spec_alone():
    spec, _ = load("three_and_one_spare")
    before = copy.deepcopy(spec)
    checked = validate_scenario(spec)
    assert spec == before
    assert checked["probes"] == {"double_input": False, "premature_close": False}
    assert checked["faults"][0] == spec["faults"][0]  # an omission fault has no mask and no delay
    corrupt = {"kind": "value-corruption", "entity": 1, "at": 5}
    assert validate_scenario({**spec, "faults": [corrupt]})["faults"] == [{**corrupt, "role": "voter", "mask": "ff"}]
    assert checked["inputs"][1] == spec["inputs"]["1"]
    assert validate_scenario(checked) == checked


def test_validate_accepts_json_infinity_and_nan():
    # Only an integer can overflow a float64; the non-finite floats JSON allows pass as before.
    spec = json.loads('{"farm": [[1, 1]], "inputs": {"1": [{"at": 10, "scalar": Infinity},'
                      ' {"at": 20, "vector": [NaN, -Infinity, 1e308]}, {"at": 30, "algorithm": {"epsilon": Infinity}}]}}')
    assert validate_scenario(spec)["inputs"][1] == spec["inputs"]["1"]


def _table_keys(schema: dict) -> set:
    keys = set()
    for key, (field, _) in schema.get("properties", {}).items():
        keys |= {key} | _table_keys(field)
    for tag, case in schema.get("cases", {}).items():
        keys |= {tag} | _table_keys(case)
    for part in ("items", "values"):
        keys |= _table_keys(schema[part]) if part in schema else set()
    return keys


def test_readme_names_every_key_of_the_scenario_table():
    readme = (HERE.parent / "README.md").read_text()
    section = readme.split("## Scenario files")[1].split("\n## ")[0]
    keys = _table_keys(scenario._SCENARIO)
    assert {"rl", "double_input", "vector", "mask", "tol", "phase-grammar"} <= keys
    assert sorted(key for key in keys if f"`{key}`" not in section) == []


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_pass(name):
    spec, dirs = load(name)
    result = run_scenario(spec, dirs)
    failed = [a for a in result.assertions if not a["ok"]]
    assert result.passed, failed


@pytest.mark.parametrize("name", BUNDLED)
def test_trace_records_are_plain_tuples(name):
    # Records hold one int and four strings: no Frame or Endpoint that
    # would keep a message alive for the whole run.
    spec, dirs = load(name)
    trace = run_scenario(spec, dirs).trace
    assert len(trace)
    for record in trace.records():
        assert type(record) is tuple
        assert [type(field) for field in record] == [int, str, str, str, str], record


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("jitter", range(4))
def test_spare_start_after_early_crash_keeps_invariants(seed, jitter):
    # A voter crashed before the spare starts stays in the view without
    # a link to the spare; the spare's broadcast to it is a traced drop.
    spec, dirs = load(str(HERE / "scenarios" / "three_and_one_spare_early_crash.json"))
    result = run_scenario({**spec, "seed": seed, "jitter": jitter}, dirs)
    assert result.sim.quiescent and not result.trace.max_time_exceeded
    assert result.all_users_finished()
    assert check_phase_grammar(result) == []
    values = {}
    for rep in result.users.values():
        for out in rep["outputs"]:
            values.setdefault(out["session"], set()).add(out["value"])
    assert values and all(len(v) == 1 for v in values.values()), values


@pytest.mark.parametrize(
    "path", sorted((HERE / "scenarios").glob("*.json")), ids=lambda p: p.stem
)
def test_regression_scenarios_pass(path):
    # Session outputs are not compared across users: a WARN restarts the
    # session numbers, so one session number can carry two values.
    spec, dirs = load(str(path))
    result = run_scenario(spec, dirs)
    assert result.passed, [a for a in result.assertions if not a["ok"]]
    assert result.sim.quiescent and not result.trace.max_time_exceeded
    assert result.all_users_finished()
    assert check_phase_grammar(result) == []


def test_broadcast_to_a_member_never_spawned_is_a_traced_drop():
    # Node 2 is SPMD-incoherent, so voter 2 never starts; voter 1's
    # relay to it is dropped like a send to a dead peer.
    spec = {
        "name": "spmd_peer_never_spawned",
        "farm": [[1, 1], [2, 2]],
        "spmd_mismatch": {"node": 2, "farm": [[2, 1], [1, 2]]},
        "inputs": {"1": [{"at": 10, "scalar": 1.0}]},
    }
    result = run_scenario(spec)
    assert result.runtime.spmd_incoherent and result.users[2]["error"] == "SpmdIncoherence"
    assert result.trace.count("drop", contains="dead endpoint") == 1
    assert [(s["code"], s["detail"], s["t"]) for s in result.users[1]["statuses"]] == [
        ("VF_DONE", "no-decision", 20)
    ]
    assert result.sim.quiescent and result.all_users_finished()


@pytest.mark.parametrize("seed", range(3))
def test_fault_can_name_a_spare(seed):
    # The spare is started by recovery and then crashes.  The shipped
    # assertions expect the spare to stay up, so only the invariants
    # are checked here.
    spec, dirs = load("three_and_one_spare")
    crash = {"kind": "crash", "role": "voter", "entity": 4, "at": 60}
    spec = {**spec, "seed": seed, "jitter": seed, "faults": spec["faults"] + [crash]}
    result = run_scenario(spec, dirs)
    assert any(
        ev.kind == "fault" and ev.frm == "voter:4@4" and ev.detail == "crash"
        for ev in result.trace
    )
    assert result.sim.quiescent and not result.trace.max_time_exceeded
    assert result.all_users_finished()
    assert check_phase_grammar(result) == []
    values = {}
    for rep in result.users.values():
        for out in rep["outputs"]:
            values.setdefault(out["session"], set()).add(out["value"])
    assert values and all(len(v) == 1 for v in values.values()), values


def test_a_raising_voter_falls_silent_and_is_replaced(monkeypatch):
    # A voter whose body raises ends only its own endpoint: the watchdog
    # reports it and Table 4's strategy swaps in the spare.
    real = farm.voter_process

    def voter_process(state):
        if state.entity != 1:
            return real(state)

        def body(proc):
            yield Recv(None)
            raise RuntimeError("boom")

        return body

    monkeypatch.setattr(farm, "voter_process", voter_process)
    spec, dirs = load("three_and_one_spare")
    result = run_scenario({**spec, "faults": [], "assertions": []}, dirs)
    assert [ev.line for ev in result.trace if ev.kind == "proc-error"] == [
        "t=10 proc-error voter:1@1 - RuntimeError: boom"
    ]
    assert result.db.verbs() == ["KILL", "START", "WARN", "WARN"]
    done = {
        node: [(s["code"], s["detail"], s["t"]) for s in rep["statuses"]]
        for node, rep in result.users.items()
    }
    assert done[2] == done[3] == [("VF_DONE", "ok", 20), ("VF_DONE", "ok", 60)]
    assert done[4] == [("VF_DONE", "ok", 60)]
    for node in (2, 3, 4):
        assert {o["value"] for o in result.users[node]["outputs"]} == {"0000000000004540"}
    assert result.sim.quiescent and result.all_users_finished()


def test_an_assertion_detail_does_not_hide_the_explanation():
    spec, dirs = load("tmr_happy")
    expect = {"type": "session-status", "session": 0, "status": "VF_DONE", "detail": "no-decision"}
    result = run_scenario({**spec, "assertions": [expect]}, dirs)
    (got,) = result.assertions
    assert not got["ok"] and got["status"] == "VF_DONE" and got["session"] == 0
    assert got["detail"] == "nodes without VF_DONE/no-decision for session 0: [1, 2, 3]"


PROBES = str(HERE / "scenarios" / "probes_refused.json")
EARLY_CRASH = str(HERE / "scenarios" / "three_and_one_spare_early_crash.json")
SPMD_MISMATCH = {"spmd_mismatch": {"node": 3, "farm": [[1, 1], [2, 2]]}}


@pytest.mark.parametrize(
    "name,extra,assertion,ok",
    [
        (PROBES, {}, {"type": "refused-min", "count": 6}, True),
        (PROBES, {}, {"type": "refused-min", "count": 7}, False),
        ("tmr_happy", {}, {"type": "refused-min"}, False),
        (EARLY_CRASH, {}, {"type": "recovery-errors", "contains": "WARN to dead entity 3"}, True),
        ("graceful_degradation", {}, {"type": "recovery-errors", "contains": "WARN"}, False),
        ("tmr_happy", {}, {"type": "recovery-errors"}, False),
        ("tmr_happy", SPMD_MISMATCH, {"type": "spmd-flag"}, True),
        ("tmr_happy", {}, {"type": "spmd-flag"}, False),
        ("tmr_happy", {}, {"type": "spmd-flag", "value": False}, True),
        ("graceful_degradation", {}, {"type": "action-log", "contains": ["WARN", "KILL"]}, True),
        ("graceful_degradation", {}, {"type": "action-log", "contains": ["START"]}, False),
        ("tmr_happy", {}, {"type": "action-log", "contains": ["KILL"]}, False),
    ],
)
def test_evaluator_verdicts(name, extra, assertion, ok):
    spec, dirs = load(name)
    result = run_scenario({**spec, **extra, "assertions": [assertion]}, dirs)
    assert [a["ok"] for a in result.assertions] == [ok], result.assertions


def test_phase_grammar_names_each_voter_that_leaves_the_cycle():
    spec, dirs = load("tmr_happy")
    result = run_scenario({**spec, "assertions": []}, dirs)
    assert check_phase_grammar(result) == []
    walks = {
        "voter:7@7": ["VFP_VOTING", "VFP_SUCCESS"],  # starts past VFP_INIT
        "voter:8@8": ["VFP_INIT", "VFP_VOTING"],  # skips VFP_BROADCAST
        "voter:9@9": ["VFP_INIT", "VFP_BROADCAST", "VFP_INIT", "VFP_BROADCAST"],  # restarted
    }
    for ep, phases in walks.items():
        for phase in phases:
            result.trace.append(result.sim.now, "phase", ep, "-", f"{phase} session=0 epoch=0")
    bad = ["voter:7@7 starts in VFP_VOTING", "voter:8@8: VFP_INIT -> VFP_VOTING"]
    assert check_phase_grammar(result) == bad
    assert scenario._EVALUATORS["phase-grammar"][0](result, {"type": "phase-grammar"}) == (False, "; ".join(bad))


def test_happy_run_delivers_exactly_three_completions():
    spec, dirs = load("tmr_happy")
    result = run_scenario(spec, dirs)
    done = [
        ev
        for ev in result.trace
        if ev.kind == "deliver"
        and ev.to.startswith("user")
        and "status=VF_DONE" in ev.detail
        and "detail=ok" in ev.detail
    ]
    assert len(done) == 3


def test_artifacts_are_reproducible(tmp_path):
    spec, dirs = load("tmr_one_crash")
    paths = []
    for sub in ("a", "b"):
        result = run_scenario(spec, dirs)
        paths.append(write_artifacts(result, str(tmp_path / sub)))
    for first, second in zip(*paths):
        assert Path(first).name == Path(second).name
        assert Path(first).read_bytes() == Path(second).read_bytes()
    names = {Path(p).name for p in paths[0]}
    assert names == {"trace.txt", "results.json", "actions.log"}


# -- vf run ------------------------------------------------------------------

@pytest.mark.parametrize("name", BUNDLED)
def test_cli_run_bundled(name, capsys):
    assert cli.main(["run", name]) == 0
    out = capsys.readouterr().out
    assert f"PASS {name}" in out
    assert "FAIL" not in out


def test_cli_run_writes_artifacts(tmp_path, capsys):
    outdir = tmp_path / "artifacts"
    assert cli.main(["run", "tmr_happy", "--output-dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert (outdir / "trace.txt").is_file()
    assert (outdir / "results.json").is_file()
    assert out.count("wrote ") == 3
    summary = json.loads((outdir / "results.json").read_text())
    assert summary["name"] == "tmr_happy"


def test_cli_run_unknown_scenario(capsys):
    assert cli.main(["run", "no_such_thing"]) == 2
    assert "vf:" in capsys.readouterr().err


def test_cli_run_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("[1, 2")
    assert cli.main(["run", str(bad)]) == 2


@pytest.mark.parametrize(
    "mutation,field",
    [
        ({"delta_t": "10"}, "delta_t"),
        ({"faults": [{"kind": "crash", "entity": 1}]}, "fault at"),
        ({"faults": [{"kind": "value-corruption", "entity": 1, "at": 5, "mask": "zz"}]}, "fault mask"),
        ({"inputs": {"1": [{"at": 10, "value": "zz"}]}}, "input value"),
        ({"inputs": {"1": [{"at": 10, "value": ""}]}}, "input value"),
        ({"inputs": {"1": [{"at": 10, "scalar": "abc"}]}}, "input scalar"),
        ({"inputs": {"1": [{"at": 10, "scalar": True}]}}, "input scalar"),
        ({"inputs": {"1": [{"at": 10, "vector": []}]}}, "input vector"),
        ({"inputs": {"1": [{"at": 10, "vector": [1.0, "x"]}]}}, "input vector"),
        ({"inputs": {"1": [{"at": 10, "algorithm": {"kind": "bogus"}}]}}, "input algorithm"),
        ({"inputs": {"1": [{"at": 10, "algorithm": {"kind": "median", "sigma": 1}}]}}, "input algorithm"),
        ({"inputs": {"1": [{"at": 10, "algorithm": "median"}]}}, "input algorithm"),
        ({"inputs": {"1": [{"at": 10}]}}, "input needs exactly one"),
        ({"inputs": {"1": [{"at": 10, "value": "01", "scalar": 1.0}]}}, "input needs exactly one"),
        ({"recovery": {"groups": {}}}, "recovery rl"),
        ({"recovery": {"rl": "table4.rl", "groups": {"x": [1, 2, 3]}}}, "recovery groups must map"),
        ({"recovery": {"rl": "table4.rl", "groups": {"1": [1, "two"]}}}, "members of group 1"),
        ({"spmd_mismatch": {"node": 2}}, "spmd_mismatch farm"),
        ({"assertions": [{"type": "output-equals"}]}, "output-equals assertion value"),
        ({"assertions": [{"type": "latency-delta"}]}, "latency-delta assertion expected"),
        ({"spares": [{"entity": "x", "node": 4}]}, "spare entity"),
        ({"faults": [{"kind": "crash", "at": 5}]}, "voter crash fault at 5 must name its entity and no node"),
        ({"assertions": [{"type": "session-status", "nodes": ["a"]}]}, "session-status assertion nodes"),
        ({"assertions": [{"type": "live-voters"}]}, "live-voters assertion count"),
        ({"assertions": [{"type": "trace-count", "equals": "3"}]}, "trace-count assertion equals"),
        ({"probes": [1]}, "probes must be an object"),
        ({"close_farm": "no"}, "close_farm must be true or false"),
        ({"delt_t": 10}, "unknown scenario key 'delt_t'"),
        ({"assertions": [{"type": "eventually-ok"}]}, "unknown assertion type"),
        ({"farm": [[1.5, 1], [2, 2], [3, 3]]}, "farm row"),
        ({"inputs": {"1": [{"at": 10, "value": "01"}], "01": []}}, "inputs names one of its node numbers twice"),
        ({"faults": [{"kind": "crash", "entity": 9, "at": 5}]}, "fault names unknown entity 9"),
        ({"spmd_mismatch": {"node": 9, "farm": [[1, 1]]}}, "spmd_mismatch node 9 runs no user program"),
        ({"recovery": {"rl": "table5.rl", "groups": {"1": [7, 8]}}}, "group 1 names unknown entity 7"),
        ({"spares": [{"entity": 4, "node": 4}, {"entity": 4, "node": 5}]}, "spare entity 4 is already a spare"),
        ({"inputs": {"1": [{"at": 10, "scalar": 10**400}]}}, "input scalar must fit in a float64"),
        ({"inputs": {"1": [{"at": 10, "vector": [1.0, -10**400]}]}}, "input vector must fit in a float64"),
        ({"inputs": {"1": [{"at": 10, "algorithm": {"epsilon": 10**400}}]}}, "epsilon must fit in a float64"),
        ({"metric": "scalar", "algorithm": {"epsilon": 10**400}}, "epsilon must fit in a float64"),
        ({"algorithm": {"scaling_factor": 10**400}}, "scaling_factor must fit in a float64"),
        ({"assertions": [{"type": "trace-count", "equals": 2, "min": 1}]}, "takes equals or min/max, not both"),
        ({"assertions": [{"type": "trace-count", "equals": 2, "max": 3}]}, "takes equals or min/max, not both"),
        ({"assertions": [{"type": "action-log", "verbs": [], "contains": ["KILL"]}]},
         "takes verbs or contains, not both"),
        ({"faults": [{"kind": "crash", "node": 2, "at": 5}]}, "voter crash fault at 5 must name its entity and no node"),
        ({"faults": [{"kind": "crash", "entity": 2, "node": 2, "at": 5}]}, "must name its entity and no node"),
        ({"faults": [{"kind": "crash", "entity": 2, "member": 2, "at": 5}]}, "unknown crash fault key 'member'"),
        ({"faults": [{"kind": "crash", "role": "user", "node": 2, "entity": 9, "at": 5}]},
         "user crash fault at 5 must name its node and no entity"),
        ({"faults": [{"kind": "crash", "role": "user", "entity": 2, "at": 5}]}, "must name its node and no entity"),
        ({"faults": [{"kind": "crash", "role": "user", "node": 9, "at": 5}]}, "fault node 9 runs no user program"),
        ({"faults": [{"kind": "crash", "entity": 2, "at": 5, "mask": "ff"}]}, "unknown crash fault key 'mask'"),
        ({"faults": [{"kind": "omission", "entity": 2, "at": 5, "delay": 3}]}, "unknown omission fault key 'delay'"),
        ({"faults": [{"kind": "delay", "entity": 2, "at": 5}]}, "each delay fault needs delay"),
        ({"faults": [{"kind": "delay", "entity": 2, "at": 5, "delay": 0}]}, "delay fault delay must be >= 1"),
    ],
    ids=[
        "string_delta_t",
        "fault_without_at",
        "non_hex_mask",
        "non_hex_value",
        "empty_value",
        "string_scalar",
        "boolean_scalar",
        "empty_vector",
        "non_numeric_vector",
        "unknown_algorithm_kind",
        "unknown_algorithm_field",
        "algorithm_not_an_object",
        "input_without_a_form",
        "input_with_two_forms",
        "recovery_without_rl",
        "group_id_not_a_number",
        "group_member_not_an_integer",
        "spmd_mismatch_without_farm",
        "output_equals_without_value",
        "latency_delta_without_expected",
        "spare_entity_not_an_integer",
        "fault_without_a_target",
        "session_status_node_not_an_integer",
        "live_voters_without_count",
        "trace_count_equals_a_string",
        "probes_not_an_object",
        "close_farm_a_string",
        "misspelt_key",
        "unknown_assertion_type",
        "fractional_farm_node",
        "inputs_keys_1_and_01",
        "fault_on_an_unknown_entity",
        "spmd_mismatch_on_a_node_without_a_user",
        "group_of_unknown_entities",
        "duplicate_spare_entity",
        "scalar_past_float64",
        "vector_item_past_float64",
        "input_epsilon_past_float64",
        "scalar_metric_epsilon_past_float64",
        "scaling_factor_past_float64",
        "trace_count_equals_and_min",
        "trace_count_equals_and_max",
        "action_log_verbs_and_contains",
        "voter_fault_by_node",
        "voter_fault_by_entity_and_node",
        "voter_fault_with_member",
        "user_fault_with_entity",
        "user_fault_by_entity",
        "user_fault_on_a_node_without_a_user",
        "crash_fault_with_mask",
        "omission_fault_with_delay",
        "delay_fault_without_delay",
        "delay_fault_of_0",
    ],
)
def test_cli_run_unusable_field_exits_2(tmp_path, capsys, mutation, field):
    spec = {
        "name": "bad_field",
        "farm": [[1, 1], [2, 2], [3, 3]],
        "inputs": {"1": [{"at": 10, "value": "01"}]},
        **mutation,
    }
    path = tmp_path / "bad_field.json"
    path.write_text(json.dumps(spec))
    assert cli.main(["run", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vf: ") and field in err
    # Checking alone finds it: what validate_scenario accepts, run_scenario runs.
    with pytest.raises(ScenarioError, match=field):
        validate_scenario(spec)


def test_cli_run_missing_path_is_not_a_bundled_name(capsys):
    # Only a bare name falls back to the bundled corpus.
    assert cli.main(["run", "nodir/tmr_happy"]) == 2
    assert capsys.readouterr().err.startswith("vf: no scenario named 'nodir/tmr_happy'")
    with pytest.raises(ScenarioError, match="no scenario named"):
        resolve_scenario(str(HERE / "scenarios" / "tmr_happy.json"))


NOT_TEXT = b"\x7fELF\x02\x01\x01\x00\xff\xfe\xd0\x00"


def test_cli_run_with_a_binary_strategy_file_exits_2(tmp_path, capsys):
    (tmp_path / "strategy.rl").write_bytes(NOT_TEXT)
    spec = {"farm": [[1, 1], [2, 2], [3, 3]], "recovery": {"rl": "strategy.rl"}}
    (tmp_path / "binary_rl.json").write_text(json.dumps(spec))
    assert cli.main(["run", str(tmp_path / "binary_rl.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vf: ") and "strategy.rl: not UTF-8 text" in err


def test_cli_run_failing_assertion(tmp_path, capsys):
    spec, _ = load("tmr_happy")
    spec["assertions"] = [
        {"type": "output-equals", "session": 0, "value": "00" * 8}
    ]
    target = tmp_path / "wrong.json"
    target.write_text(json.dumps(spec))
    assert cli.main(["run", str(target)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


# -- vf rl ----------------------------------------------------------------------

def test_cli_rl_compile_and_disasm(tmp_path, capsys):
    src = tmp_path / "strategy.rl"
    shutil.copy(Path(bundled_dir()) / "table4.rl", src)
    assert cli.main(["rl", "compile", str(src), "-I", bundled_dir()]) == 0
    out = capsys.readouterr().out
    assert "compiled 1 rule(s)" in out
    rc = tmp_path / "strategy.rc"
    assert rc.is_file()

    assert cli.main(["rl", "disasm", str(rc)]) == 0
    text = capsys.readouterr().out
    assert "KILL THREAD1" in text
    assert "START THREAD4" in text
    assert "WARN THREAD2, THREAD3" in text
    assert text.splitlines()[0].startswith("# INCLUDE")


@pytest.mark.parametrize("blob,why", [
    (b"EFRC\x01\x00\x00\x01\x00", "empty action block"),  # DEFAULT with no action
    (b"EFRC\x01\x01\x01\xff\x00\x01\x01\x26", "not UTF-8"),  # include name 0xff; DEFAULT PURGE
    (b'EFRC\x01\x01\x03a"b\x00\x01\x01\x26\x00', "holds a quote or a newline"),  # include name a"b
    (b"EFRC\x01\x01\x08x\n# more\x00\x01\x01\x26\x00", "holds a quote or a newline"),  # include name x<LF># more
])
def test_cli_rl_disasm_rejects_r_code_the_parser_would_refuse(tmp_path, capsys, blob, why):
    rc = tmp_path / "bad.rc"
    rc.write_bytes(blob)
    assert cli.main(["rl", "disasm", str(rc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vf: ") and why in captured.err


def test_cli_rl_compile_to_chosen_path(tmp_path, capsys):
    out = tmp_path / "a.bin"
    assert (
        cli.main(
            [
                "rl",
                "compile",
                str(Path(bundled_dir()) / "table5.rl"),
                "-o",
                str(out),
            ]
        )
        == 0
    )
    assert out.read_bytes().startswith(b"EFRC")


def test_cli_rl_compile_to_stdout(capsysbinary):
    source = Path(bundled_dir()) / "table5.rl"
    assert cli.main(["rl", "compile", str(source), "-o", "-"]) == 0
    captured = capsysbinary.readouterr()
    want = compile_program(parse_rl(source.read_text(), include_dirs=(bundled_dir(),)))
    assert captured.out == want and captured.err == b""


def test_cli_rl_compile_syntax_error(tmp_path, capsys):
    src = tmp_path / "bad.rl"
    src.write_text("IF [ -FAULTY THREAD1 ] THEN\nFI")
    assert cli.main(["rl", "compile", str(src)]) == 2
    assert "vf:" in capsys.readouterr().err


@pytest.mark.parametrize("binary", ["bad.rl", "bad.h"])
def test_cli_rl_compile_rejects_a_file_that_is_not_text(tmp_path, capsys, binary):
    src = tmp_path / "bad.rl"
    src.write_text('INCLUDE "bad.h"\nIF [ -FAULTY THREAD1 ] THEN KILL THREAD1 FI\n')
    (tmp_path / "bad.h").write_text("#define VFP_FAILURE 4\n")
    (tmp_path / binary).write_bytes(NOT_TEXT)
    assert cli.main(["rl", "compile", str(src), "-o", str(tmp_path / "bad.rc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vf: ") and f"{binary}: not UTF-8 text" in err


DEEP_CONDITIONS = {
    "and-chain": " AND ".join(["-FAULTY THREAD1"] * DEEP),
    "nots": "NOT " * DEEP + "-FAULTY THREAD1",
}


@pytest.mark.parametrize("nesting", DEEP_CONDITIONS)
def test_cli_on_a_too_deep_strategy_exits_2(tmp_path, capsys, nesting):
    (tmp_path / "deep.rl").write_text(f"IF [ {DEEP_CONDITIONS[nesting]} ] THEN KILL THREAD1 FI\n")
    (tmp_path / "deep.json").write_text(json.dumps({"farm": [[1, 1]], "recovery": {"rl": "deep.rl"}}))
    assert cli.main(["rl", "compile", str(tmp_path / "deep.rl")]) == 2
    assert cli.main(["run", str(tmp_path / "deep.json")]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 2 and all(line.startswith("vf: ") and "nests deeper than" in line for line in err)


def test_cli_rl_disasm_of_too_deep_r_code_exits_2(tmp_path, capsys):
    # FAULTY THREAD1, then DEEP NOTs, then END; the rule kills THREAD1.
    rc = tmp_path / "deep.rc"
    rc.write_bytes(b"EFRC\x01\x00\x01\x10\x00\x01" + b"\x01" * DEEP + b"\x00\x01\x20\x01\x00\x01\x00")
    assert cli.main(["rl", "disasm", str(rc)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "nests deeper than" in captured.err


def test_cli_rl_disasm_rejects_garbage(tmp_path, capsys):
    blob = tmp_path / "junk.rc"
    blob.write_bytes(b"\x00" * 16)
    assert cli.main(["rl", "disasm", str(blob)]) == 2


# -- vf reliability -----------------------------------------------------------

def test_cli_reliability_crosspoints(capsys):
    assert cli.main(["reliability", "--crosspoints", "--C", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "triple-vs-simplex R=0.500000"
    assert lines[1] == "spare-vs-simplex C=1 R=0.232408"


def test_cli_reliability_verify_markov(capsys):
    assert cli.main(["reliability", "--verify-markov", "--C", "0,0.5,1"]) == 0
    out = capsys.readouterr().out
    assert out.count("max|numeric-analytic|") == 3
    assert "OK" in out.strip().split("\n")[-1]


@pytest.mark.parametrize(
    "args",
    [["--C", "nan"], ["--C", "0.5,nan"]],
    ids=["nan-coverage", "nan-in-the-list"],
)
def test_cli_reliability_rejects_non_finite_inputs(capsys, args):
    assert cli.main(["reliability", "--verify-markov", *args]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("vf: ")
    assert "OK" not in captured.out


@pytest.mark.parametrize("mode", [[], ["--crosspoints"], ["--verify-markov"]])
@pytest.mark.parametrize("c_list", [",", " , "])
def test_cli_reliability_rejects_an_empty_coverage_list(capsys, mode, c_list):
    assert cli.main(["reliability", *mode, "--C", c_list]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("vf: bad --C list")


def test_cli_reliability_rejects_a_coverage_value_that_is_not_a_number(capsys):
    assert cli.main(["reliability", "--C", "0,x"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "vf: bad --C list '0,x': could not convert string to float: 'x'\n"


def test_cli_reliability_runs_one_mode_per_call(capsys):
    # Each mode runs instead of the curve export, so asking for both
    # would silently skip one: the pair is an unusable request.
    with pytest.raises(SystemExit) as exc:
        cli.main(["reliability", "--crosspoints", "--verify-markov", "--C", "1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --verify-markov: not allowed with argument --crosspoints" in captured.err


def test_cli_reliability_curves_with_zero_coverage(capsys):
    assert cli.main(["reliability", "--C", "0"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.strip().split("\n") if ln[0].isdigit()]
    assert len(rows) == 101
    for row in rows:
        _, base, spare, delta = row.split(",")
        assert base == spare
        assert float(delta) == 0.0


def test_cli_reliability_curve_file(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    assert cli.main(["reliability", "--C", "0.5", "--out", str(target)]) == 0
    assert target.read_text().startswith("# C=0.5")


@pytest.mark.parametrize("mode", ["--crosspoints", "--verify-markov"])
def test_cli_reliability_writes_a_file_only_for_the_curve_export(tmp_path, capsys, mode):
    # Only the curve export writes --out: with another mode the file
    # would silently not appear.
    target = tmp_path / "x.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["reliability", mode, "--C", "1", "--out", str(target)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err
    assert not target.exists()


# -- vf perf ----------------------------------------------------------------

def test_cli_perf_steps(capsys):
    assert cli.main(["perf", "--steps", "--N", "4..64"]) == 0
    out = capsys.readouterr().out
    assert "# identity, half duplex" in out
    assert "# onecycle, half duplex" in out
    assert "4,9,0.6667" in out
    assert "64,189,0.6667" in out
    fits = [ln for ln in out.split("\n") if ln.startswith("fit ")]
    assert any("identity" in ln and "quadratic" in ln for ln in fits)
    assert any("onecycle" in ln and "linear" in ln for ln in fits)
    for ln in fits:
        assert float(ln.rsplit("=", 1)[1]) >= 0.999


@pytest.mark.parametrize(
    "sizes, skipped",
    [("4", ["identity", "onecycle"]), ("4,8", ["identity", "onecycle"]), ("4,8,16", ["identity"])],
)
def test_cli_perf_steps_skips_a_fit_without_spare_points(capsys, sizes, skipped):
    assert cli.main(["perf", "--steps", "--N", sizes]) == 0
    captured = capsys.readouterr()
    fits = [ln for ln in captured.out.split("\n") if ln.startswith("fit ")]
    needs = {"identity": 4, "onecycle": 3}
    assert [ln for ln in fits if "skipped" in ln] == [
        f"fit {name}: skipped (needs at least {needs[name]} sizes)" for name in skipped
    ]
    assert len(fits) == 2
    assert captured.err == ""


def test_cli_perf_best(capsys, monkeypatch):
    # test_perf pins the search up to N=7; N=8 is the largest size searched.
    # In full duplex the winners at N = 3 and 4 are not one-cycled.
    cases = [
        (["--N", "3,4,16", "--mode", "full"], "full", [
            "3,1 2 3,false,5,6",
            "4,1 2 4 3,true,8,9",
            "16,1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16,true,45,45",
        ]),
        (["--N", "8"], "half", ["8,1 2 3 4 5 6 7 8,true,21,21"]),
    ]
    simulated = []
    simulate = perf.schedule_steps

    def counted(perm, mode="half"):
        simulated.append(perm.size)
        return simulate(perm, mode)

    monkeypatch.setattr(perf, "schedule_steps", counted)
    monkeypatch.setattr(cli, "schedule_steps", counted)
    for args, mode, rows in cases:
        assert cli.main(["perf", "--best", *args]) == 0
        assert capsys.readouterr().out == "\n".join([
            f"# best schedule, {mode} duplex (searched up to N=8, one-cycled above)",
            "N,order,relative,steps,one_cycled_steps",
            *rows,
            "",
        ])
    # A one-cycled winner's result also fills the last column.
    assert simulated.count(16) == simulated.count(8) == 1


def test_cli_perf_resources(capsys):
    sizes = ",".join(str(n) for n in range(1, 9))
    assert cli.main(["perf", "--resources", "--N", sizes]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [f"{n},{n},{n * (n - 1) // 2}" for n in range(1, 9)]


def test_cli_perf_takes_sizes_up_to_the_bound(capsys):
    # --resources only evaluates a formula, so the largest size costs nothing.
    assert cli.main(["perf", "--resources", "--N", str(cli.MAX_PERF_N)]) == 0
    assert capsys.readouterr().out == "1024,1024,523776\n"


def test_cli_perf_latency_table(capsys):
    assert cli.main(["perf", "--table6"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,average,standard deviation"
    assert lines[1:] == ["1,3,0", "2,5,0", "3,8,0", "4,12,0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--steps", "--N", "0..8"], "bad --N"),
        (["--steps", "--N", "8..4"], "bad --N"),
        (["--resources", "--N", "4,x"], "bad --N"),
        (["--steps", "--N", "2048"], "bad --N '2048': need one or more farm sizes, each in [1, 1024]"),
        (["--best", "--N", "1..100000"], "each in [1, 1024]"),
        (["--N", "0"], "bad --N '0'"),  # the sizes are checked before the mode flags
    ],
    ids=["range-from-zero", "empty-range", "not-a-number", "above-the-bound", "range-past-the-bound",
         "bad-size-and-no-mode"],
)
def test_cli_perf_rejects_unusable_sizes_and_repeats(capsys, argv, message):
    assert cli.main(["perf", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vf: ") and message in err


def test_cli_perf_needs_a_request(capsys):
    assert cli.main(["perf"]) == 2
    assert "pick at least one" in capsys.readouterr().err
