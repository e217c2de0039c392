"""`vf run` never crashes, whatever a scenario file says.

Each example takes a bundled or regression scenario and mutates one of
its objects, the spec itself or one nested in it: it drops a key, gives
a key a value of another type or a negative one, or adds an unknown
key.  `vf run` must then pass (0), fail an assertion (1) or reject the
file with a `vf: ` message (2), and never end in a traceback.  Values
are never made large, so no example runs long.
"""

import contextlib
import copy
import io
import json
import shutil
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from votingfarm import cli
from votingfarm.scenario import bundled_dir

SCENARIOS = Path(__file__).parent / "scenarios"
SOURCES = sorted(Path(bundled_dir()).glob("*.json")) + sorted(SCENARIOS.glob("*.json"))
OTHER_TYPES = ["x", 1.5, True, None, [], {}, [1], {"x": 1}]


def objects(value) -> list:
    """Every JSON object in value, the outermost first."""
    found = [value] if isinstance(value, dict) else []
    children = value.values() if isinstance(value, dict) else value if isinstance(value, list) else []
    for child in children:
        found += objects(child)
    return found


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    # Strategy files a regression scenario names sit next to it.
    work = tmp_path_factory.mktemp("fuzz")
    for path in SCENARIOS.iterdir():
        if path.suffix != ".json":
            shutil.copy(path, work / path.name)
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(cli.OUTPUT_DIR_ENV, raising=False)
        yield work


@settings(max_examples=250, derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_vf_run_on_a_mutated_scenario_exits_0_1_or_2(workdir, data):
    source = data.draw(st.sampled_from(SOURCES), label="source")
    spec = json.loads(source.read_text())
    target = data.draw(st.sampled_from(objects(spec)), label="object")
    op = data.draw(st.sampled_from(["drop", "retype", "negative", "unknown"] if target else ["unknown"]))
    if op == "unknown":
        target["zz_unknown"] = copy.deepcopy(data.draw(st.sampled_from(OTHER_TYPES)))
    else:
        key = data.draw(st.sampled_from(sorted(target)), label="key")
        if op == "drop":
            del target[key]
        elif op == "negative":
            target[key] = -1
        else:
            target[key] = copy.deepcopy(data.draw(st.sampled_from(
                [v for v in OTHER_TYPES if type(v) is not type(target[key])]
            )))
    path = workdir / source.name
    path.write_text(json.dumps(spec))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["run", str(path)])
    assert code in (0, 1, 2), (code, spec)
    if code == 2:
        assert err.getvalue().startswith("vf: "), (err.getvalue(), spec)
