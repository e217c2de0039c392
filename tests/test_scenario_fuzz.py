"""`vf run` runs exactly what `validate_scenario` accepts.

Each example takes a bundled or regression scenario and mutates one
place in it: it drops a key, gives a key a value of another type or a
negative one, adds an unknown key, sets a count to 0, or appends a copy
of a list item.  Then the gate must hold:

- `vf run` ends in 0 (pass), 1 (an assertion failed) or 2 (a `vf: `
  message), never in a traceback;
- if `validate_scenario` rejects the spec, `vf run` exits 2;
- if it accepts the spec, the run can fail only on the strategy file
  the spec names: not found, not UTF-8 or not valid strategy source.

Values are never made large, so no example runs long.
"""

import contextlib
import copy
import io
import json
import re
import shutil

import pytest
from hypothesis import given, settings, strategies as st

from test_validator_oracle import OTHER_TYPES, SCENARIOS, SOURCES, containers
from votingfarm import cli
from votingfarm.core import VotingFarmError
from votingfarm.recovery import RlSyntaxError
from votingfarm.scenario import ScenarioError, resolve_scenario, run_scenario, validate_scenario

STRATEGY_FILE = re.compile(r"referenced file .* not found|: not UTF-8 text")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # Strategy files a regression scenario names sit next to it.
    work = tmp_path_factory.mktemp("fuzz")
    for path in SCENARIOS.iterdir():
        if path.suffix != ".json":
            shutil.copy(path, work / path.name)
    return work


def mutate(spec: dict, data) -> None:
    """Change one place in spec, as the module docstring lists."""
    found = containers(spec)
    objects = [c for c in found if isinstance(c, dict)]
    counts = [(c, key) for c in objects for key, v in c.items() if type(v) is int]
    lists = [c for c in found if isinstance(c, list) and c]
    op = data.draw(st.sampled_from(["drop", "retype", "negative", "unknown", "zero", "repeat"]), label="op")
    if op == "zero" and counts:
        target, key = data.draw(st.sampled_from(counts), label="count")
        target[key] = 0
        return
    if op == "repeat" and lists:
        target = data.draw(st.sampled_from(lists), label="list")
        target.append(copy.deepcopy(data.draw(st.sampled_from(target), label="item")))
        return
    target = data.draw(st.sampled_from(objects), label="object")
    if op not in ("drop", "retype", "negative") or not target:
        target["zz_unknown"] = copy.deepcopy(data.draw(st.sampled_from(OTHER_TYPES)))
        return
    key = data.draw(st.sampled_from(sorted(target)), label="key")
    if op == "drop":
        del target[key]
    elif op == "negative":
        target[key] = -1
    else:
        target[key] = copy.deepcopy(data.draw(st.sampled_from(
            [v for v in OTHER_TYPES if type(v) is not type(target[key])]
        )))


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_vf_run_on_a_mutated_scenario_exits_0_1_or_2(workdir, data):
    source = data.draw(st.sampled_from(SOURCES), label="source")
    spec = json.loads(source.read_text())
    mutate(spec, data)
    path = workdir / source.name
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path)])
    assert code in (0, 1, 2), (code, spec)
    if code == 2:
        assert err.getvalue().startswith("vf: "), (err.getvalue(), spec)
    try:
        validate_scenario(spec)
    except ScenarioError:
        assert code == 2, (out.getvalue(), spec)
        return
    if code == 2:  # accepted, so only the strategy file may be at fault
        with pytest.raises(VotingFarmError) as failed:
            run_scenario(*resolve_scenario(str(path)))
        assert isinstance(failed.value, RlSyntaxError) or STRATEGY_FILE.search(str(failed.value)), (
            err.getvalue(), spec)
