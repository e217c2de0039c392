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
"""

import hashlib
from pathlib import Path

import pytest

from votingfarm.scenario import resolve_scenario, run_scenario, write_artifacts

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


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_bundled_scenario_artifacts_match_golden_hashes(name, tmp_path):
    # A name not under tests/scenarios is a bundled one, loaded by name:
    # only a bare name falls back to the bundled corpus.
    path = SCENARIOS / f"{name}.json"
    spec, dirs = resolve_scenario(str(path) if path.is_file() else name)
    written = write_artifacts(run_scenario(spec, dirs), str(tmp_path))
    digests = {
        Path(p).name: hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in written
    }
    assert digests == GOLDEN[name]
