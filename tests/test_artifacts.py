"""Run artifacts: byte-identical files written in a bounded working set,
and the memory a run keeps while its result lives and after it is gone."""

import gc
import io
import json
import math
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from votingfarm import scenario
from votingfarm.scenario import run_scenario, write_artifacts


def dumps(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


def written(value) -> str:
    fh = io.StringIO()
    scenario._write_json(fh, value)
    return fh.getvalue()


SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(),
    st.sampled_from([
        0, -1, 2**64, -(3**50), 0.0, -0.0, 1e300, 5e-324, math.nan, math.inf, -math.inf,
        "", "é中\U0001f600", "\x00\x1f\x7f\n\t\"\\", "\ud800",
    ]),
)
VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=24,
)


@given(VALUES)
@example({})
@example([])
@example(())
@example({"a": [], "b": {}, "c": ()})
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_json_writer_matches_json_dumps(value):
    assert written(value) == dumps(value)


@pytest.mark.parametrize("value", [{1: "a"}, {"k": [{True: 0}]}, {"a": 1, 2: "b"}, [{"x"}]],
                         ids=["int-key", "nested-bool-key", "mixed-keys", "a-set"])
def test_json_writer_refuses_what_a_run_summary_never_holds(value):
    with pytest.raises(TypeError):
        written(value)


def test_json_writer_flushes_a_large_value_in_pieces():
    value = {"rows": [{"n": k, "tags": ["a", k % 3 == 0, None], "x": k / 7} for k in range(3000)]}

    class Recorder(io.StringIO):
        writes = 0

        def write(self, text):
            self.writes += 1
            return super().write(text)

    fh = Recorder()
    scenario._write_json(fh, value)
    assert fh.getvalue() == dumps(value)
    assert fh.writes > 10  # several hundred pieces at a time, not one string


def tmr_stream(sessions: int) -> dict:
    """An open-loop voted triple: one input per node every 50 ticks, and a
    value fault on user 3's link."""
    values = [f"{k * 2654435761 % 2**64:016x}" for k in range(sessions)]
    return {
        "name": "tmr_stream",
        "seed": 7,
        "farm": [[1, 1], [2, 2], [3, 3]],
        "delta_t": 10,
        "delivery_delay": 1,
        "max_time": 10 + 50 * (sessions + 4),
        "inputs": {
            str(node): [{"at": 10 + 50 * k, "value": v} for k, v in enumerate(values)] for node in (1, 2, 3)
        },
        "faults": [{"kind": "value-corruption", "role": "user", "node": 3, "at": 5, "mask": "5a"}],
    }


def test_writing_artifacts_takes_a_fraction_of_the_trace_in_memory(tmp_path):
    result = run_scenario(tmr_stream(200))
    gc.collect()
    tracemalloc.start()
    try:
        write_artifacts(result, str(tmp_path))
        extra_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    trace_text = result.trace.text()
    assert (tmp_path / "trace.txt").read_text() == trace_text + "\n"
    assert (tmp_path / "results.json").read_text() == dumps(result.summary()) + "\n"
    assert extra_peak < len(trace_text) / 2, (extra_peak, len(trace_text))


def test_a_finished_run_keeps_its_trace_in_bounded_memory():
    # The bound sits between the 900 KB this result keeps with the
    # trace's kinds and endpoint names as lists of strings (1,560 KB
    # with one tuple per record) and the 710 KB it keeps with them
    # packed into one-byte codes, so a return to string lists fails.
    spec = tmr_stream(200)
    run_scenario(tmr_stream(2))
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(spec)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(result.trace) > 8000
    assert live < 800_000, live


def test_a_finished_wide_run_keeps_no_block_in_its_empty_queues():
    # Every endpoint's mailbox and every voter's inbox is empty once the
    # run is quiescent.  A finished 32-member run keeps 315 KB with them
    # as lists; with deques, each of which holds a 64-slot block even
    # when empty, it kept 383 KB, so a return to deques fails the bound.
    n = 32
    spec = {
        "farm": [[k, k] for k in range(1, n + 1)], "metric": "scalar", "delivery_delay": 1, "delta_t": 60,
        "get_timeout": 1000, "inputs": {str(k): [{"at": 10, "scalar": 1.5}] for k in range(1, n + 1)},
    }
    run_scenario(spec)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = run_scenario(spec)
        gc.collect()
        live = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert result.passed and result.sim.quiescent
    assert all(rep["outputs"] for rep in result.users.values())
    assert live < 350_000, live


def test_runs_leave_nothing_behind_once_dropped():
    # Nothing a run stores outlives its result: not its trace's shared
    # details, which a table kept across runs, or strings made immortal
    # by sys.intern, would leave behind.
    spec = tmr_stream(50)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        for _ in range(3):
            result = run_scenario(spec)
            del result
            gc.collect()
        left = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert left <= 16_000, left
