"""Golden artifacts: scenarios write byte-for-byte known files.

The hashes pin the rendered trace, the results summary and the action
log of every bundled scenario and of wide_jittered_farm from
tests/scenarios.  That one is the only farm wider than five: sixteen
members under jitter, with majority and median sessions, corrupted
users, an omission, a delay and a voter crash that makes the farm
timeout fire, so it pins the scheduler's order of deliveries, resumes
and timeouts at scale.  A change meant to leave simulated behaviour
alone (a faster message path, a leaner trace) must leave all eighteen
untouched; a change that alters behaviour on purpose updates them
together with the reason.

MEMBERSHIP_RUNS pin the recovery actions that rewrite the farm table
where the bundled scenarios do not reach: a RESTART and a REBOOT on a
node that hosts two members, a SHUTDOWN of such a node, and two KILLs
with a START whose spare lands at a freed, lower ident.  Their specs
live here rather than under tests/scenarios, whose JSON files feed the
validator oracle's pinned corpus; their strategies do live there.
"""

import hashlib
from pathlib import Path

import pytest

from votingfarm.scenario import bundled_dir, resolve_scenario, run_scenario, write_artifacts

SCENARIOS = Path(__file__).resolve().parent / "scenarios"

GOLDEN = {
    "tmr_happy": {
        "trace.txt": "0754a8f98acdf997cbc761b824bcc2ce36372f4cbf99222a97973c95b1828a58",
        "results.json": "5f9ed6747567a088088a043c82421f7716800f97a515844e0ee9791c4264fe76",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "tmr_one_crash": {
        "trace.txt": "4b2f9e96a714a79caf62545147ee49d1e80cef17a2cf7c799dd9fe60254b2718",
        "results.json": "49bb90aef6e96d6835805653268265f8c26f4a7110035df3f4a3295acb87d811",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "n5_two_faults": {
        "trace.txt": "e980d44048eaa890a134cb093382a8be8ff9d72c808aabfff76c663a50ff5bae",
        "results.json": "5c0bdef01c6ca0f3c916c7acf7f5f92d8696a0e1ecf3465f193a0e8b119f33ef",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
    "three_and_one_spare": {
        "trace.txt": "9eb9549fb9eab4971931419ad8c134fcfc9c6c95f9bbb0055040debf38c8a359",
        "results.json": "85f5de25b871250e3f40aa14eb6e5045b235f46e2e73f2d927a62345968c50ff",
        "actions.log": "eeed95f3143e8ebb8a9c4820693ad32e1a071d18e9f66a9afc426d5448d96e10",
    },
    "graceful_degradation": {
        "trace.txt": "8cc5e10e8d56fd9860291d33a82c3cd2a96d069869c8715857063b85becfb8ec",
        "results.json": "23ec0d2056a44716185bbac9269c5bcd711883d72fabbb7d41499a96fc641b98",
        "actions.log": "bf7f44210f4953ddb8565a0cee781e3f7e7d43826c2922fe842d7099a54ab1e3",
    },
    "wide_jittered_farm": {
        "trace.txt": "709a49b74d33f0d508714d19dae32a362e75adb2cc63d77ba4bd7e4efc081cd6",
        "results.json": "f433d7867dfc6d29431840382a0aebe40aa2d384ee4c17b448e192779067def0",
        "actions.log": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    },
}


def _stream(nodes):
    return {str(node): [{"at": t, "scalar": 42.0} for t in (10, 60, 110)] for node in nodes}


def _membership_run(name, farm, nodes, crash, verbs, *assertions, spares=()):
    return {
        "name": name,
        "farm": farm,
        "spares": [{"entity": entity, "node": node} for entity, node in spares],
        "recovery": {"rl": f"{name}.rl"},
        "delta_t": 10,
        "delivery_delay": 1,
        "inputs": _stream(nodes),
        "faults": [{"kind": "crash", "role": "voter", "entity": crash, "at": 55}],
        "assertions": [
            {"type": "phase-grammar"}, {"type": "action-log", "verbs": verbs}, *assertions
        ],
    }


QUIESCENT = {"type": "quiescent"}
MEMBERSHIP_RUNS = {
    # Voter 3 shares node 2 with voter 2 and is restarted mid-stream.
    "restart_shared_node": _membership_run(
        "restart_shared_node", [[1, 1], [2, 2], [2, 3]], (1, 2), 3, ["RESTART", "PURGE"], QUIESCENT
    ),
    # Node 2 hosts voters 2 and 3; the shutdown also ends its user program.
    "shutdown_shared_node": _membership_run(
        "shutdown_shared_node", [[1, 1], [2, 2], [2, 3], [3, 4], [4, 5]], (1, 2, 3, 4), 2,
        ["SHUTDOWN", "PURGE", "WARN", "WARN", "WARN"],
        {"type": "trace-count", "kind": "fault", "contains": "shutdown", "equals": 2},
        {"type": "live-voters", "count": 3},
    ),
    # Spare 6 starts on node 2 at freed ident 1; the WARNs compact 2, 4, 5 to 2, 3, 4.
    "kill_two_start_spare": _membership_run(
        "kill_two_start_spare", [[1, 1], [2, 2], [3, 3], [4, 4], [5, 5]], (1, 2, 3, 4, 5), 1,
        ["KILL", "KILL", "START", "PURGE", "WARN", "WARN", "WARN", "WARN"],
        QUIESCENT, {"type": "live-voters", "count": 4}, spares=[(6, 2)],
    ),
    # Node 1's members are listed out of ident order; the reboot restarts
    # them lowest ident first.
    "reboot_shared_node": _membership_run(
        "reboot_shared_node", [[1, 2], [1, 1], [2, 3]], (1, 2), 1, ["REBOOT", "PURGE"], QUIESCENT
    ),
}

MEMBERSHIP_GOLDEN = {
    "restart_shared_node": {
        "trace.txt": "102326c0f57f2458e3d1b997854a47301b631e9c79b98e88b7a39097e08a626c",
        "results.json": "25f87f5ec5fbeca6d91fe9306d8ea3bc99591975571d64cefde9c82f6c9010bd",
        "actions.log": "3c5fcb77d103c598b67886c193f16796d2a099732166290fad053a5f050a5262",
    },
    "shutdown_shared_node": {
        "trace.txt": "6660de5c5fdb38d3746366a1a41c731642a1e8574af9a0a2d633ff5e526430a1",
        "results.json": "3d9385aabf7e5cd21d3536129a0182295113f2eb3a74d76023da5259d0597da7",
        "actions.log": "5d7bf3d1de6395986babfec7216d590f583941d1c0998fee215086d656d01797",
    },
    "kill_two_start_spare": {
        "trace.txt": "6da4a4b85d784778c077fec1325bf418000130ee44756be59f0a363ff27a6f7f",
        "results.json": "b86959ad891990cc211d6b1a36c2ff539bc00eeccb0517a602c441ebc737c54d",
        "actions.log": "e9277477f8c6ca4f14b79cdcd3707a2cac58e309d69e35c483efe6b8d721b988",
    },
    "reboot_shared_node": {
        "trace.txt": "d79e5f4f56bffaece09123d9c5f49d174a033f85ea77a094ba371b3820d7d5d5",
        "results.json": "bcadfb384fb2d96c8d06c116acdbe7f597af15b7bf80679e0235bc59723b3d24",
        "actions.log": "29ef3b0a5aab4ab383e26f5531ec0d5de05d8297d2e4d5fa819f2be060be0c85",
    },
}


def _digests(result, outdir):
    written = write_artifacts(result, str(outdir))
    return {Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in written}


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_artifacts_match_golden_hashes(name, tmp_path):
    # A name not under tests/scenarios is a bundled one, loaded by name:
    # only a bare name falls back to the bundled corpus.
    path = SCENARIOS / f"{name}.json"
    spec, dirs = resolve_scenario(str(path) if path.is_file() else name)
    assert _digests(run_scenario(spec, dirs), tmp_path) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(MEMBERSHIP_RUNS))
def test_membership_change_artifacts_match_golden_hashes(name, tmp_path):
    result = run_scenario(MEMBERSHIP_RUNS[name], (str(SCENARIOS), bundled_dir()))
    assert result.passed, [a for a in result.assertions if not a["ok"]]
    assert _digests(result, tmp_path) == MEMBERSHIP_GOLDEN[name]
