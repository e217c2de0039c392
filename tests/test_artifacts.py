"""Run artifacts: byte-identical files written in a bounded working set,
and the memory a run keeps while its result lives and after it is gone."""

import gc
import heapq
import io
import json
import math
import tracemalloc
import types
import weakref
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from votingfarm import fabric, scenario
from votingfarm.fabric import _BLOCK, TraceLog
from votingfarm.scenario import resolve_scenario, run_scenario, write_artifacts


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


# Record tables: every item an exact dict, one and the same non-empty set
# of str keys, one exact scalar type per key.  Keys may hold %, " or
# non-ASCII text, which the row template must escape.
KEYS = st.text(alphabet='ab%"\\é中\n', max_size=3)
COLUMNS = st.sampled_from([st.none(), st.booleans(), st.integers(), st.text(max_size=4),
                           st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0])])
NEAR_MISSES = ["none", "missing-key", "extra-key", "other-key", "int-bool", "a-none", "a-nan", "an-inf",
               "empty-dicts", "a-list"]


@st.composite
def record_tables(draw):
    """A record table, or one near miss of one, nested at some depth."""
    keys = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    columns = {key: draw(COLUMNS) for key in keys}
    rows = [{key: draw(columns[key]) for key in keys} for _ in range(draw(st.integers(1, 7)))]
    miss, row, key = draw(st.sampled_from(NEAR_MISSES)), draw(st.sampled_from(rows)), draw(st.sampled_from(keys))
    if miss == "missing-key":
        del row[key]
    elif miss in ("extra-key", "other-key"):  # other-key: as many keys, one of them another
        row[draw(KEYS.filter(lambda k: k not in keys))] = row.pop(key) if miss == "other-key" else 1
    elif miss == "int-bool":
        for other in rows:
            other[key] = 1
        row[key] = True
    elif miss in ("a-none", "a-nan", "an-inf"):
        row[key] = {"a-none": None, "a-nan": math.nan, "an-inf": -math.inf}[miss]
    elif miss == "empty-dicts":
        rows = [{} for _ in rows]
    elif miss == "a-list":
        row[key] = [row[key]]
    table = draw(st.sampled_from([list, tuple]))(rows)
    return draw(st.sampled_from([table, {"statuses": table, "n": 0}, [[table]], {"u": {"1": table}}]))


def is_table(items) -> bool:
    """The table rule, stated plainly: what _table must find."""
    return (bool(items) and all(type(item) is dict for item in items) and bool(items[0])
            and all(item.keys() == items[0].keys() for item in items)
            and all(type(key) is str for key in items[0])
            and all(len(kinds) == 1 and kinds <= {type(None), bool, int, float, str}
                    for kinds in ({type(item[key]) for item in items} for key in items[0])))


def lists_in(value):
    """Every list and tuple in value, at any depth."""
    if type(value) in (list, tuple):
        yield value
    for item in value.values() if type(value) is dict else value if type(value) in (list, tuple) else ():
        yield from lists_in(item)


@given(record_tables())
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
def test_json_writer_writes_record_tables_and_near_misses_as_json_dumps(value):
    assert written(value) == dumps(value)
    for items in lists_in(value):
        assert (scenario._table(items) is not None) == is_table(items), items


def test_json_writer_writes_a_long_record_table_a_chunk_of_rows_at_a_time():
    rows = [{"code": "VF_DONE", "session": k, "t": 7 * k, "ok": k % 2 == 0} for k in range(3 * scenario._JSON_FLUSH + 1)]
    assert scenario._table(rows) is not None
    writes = []
    scenario._write_json(types.SimpleNamespace(write=writes.append), {"statuses": rows})
    text = "".join(writes)
    assert text == dumps({"statuses": rows})
    # One write per chunk of _JSON_FLUSH rows, and the rest: none holds
    # much more than a third of the text.
    assert len(writes) >= 4 and max(map(len, writes)) < len(text) * 0.4


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


def trace_bytes_per_record(spec: dict, search_dirs: tuple[str, ...] = ()) -> float:
    """What a finished run's trace alone keeps alive, per record: the
    traced memory freed when the trace is dropped."""
    run_scenario(spec, search_dirs)
    gc.collect()
    tracemalloc.start()
    try:
        result = run_scenario(spec, search_dirs)
        gc.collect()
        live, records = tracemalloc.get_traced_memory()[0], len(result.trace)
        trace = weakref.ref(result.sim.trace)
        result.sim.trace = None
        gc.collect()
        assert trace() is None
        return (live - tracemalloc.get_traced_memory()[0]) / records
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("name, bound", [("tmr_stream_200", 49.0), ("three_and_one_spare", 88.0)])
def test_a_finished_runs_trace_keeps_few_bytes_per_record(name, bound):
    # Each bound is within 5% above what the trace kept with its records
    # appended one call at a time: 46.8 bytes a record on the 8,404
    # records of the 200-session stream, most of them packed, and 83.9
    # on the 150 of the spare scenario, all in the unpacked tail.
    spec, dirs = (tmr_stream(200), ()) if name == "tmr_stream_200" else resolve_scenario(name)
    kept = trace_bytes_per_record(spec, dirs)
    assert kept <= bound, kept


def test_the_trace_tail_holds_at_most_a_block_and_one_events_records():
    # The event loop packs a full tail once per event, so the records
    # the hot paths add never wait unpacked for long.
    logs, tails, sizes = [], [], []

    class Watched(TraceLog):
        def __init__(self):
            super().__init__()
            logs.append(self)

        def _pack(self):
            tails.append(len(self._tail))
            super()._pack()

    pop = heapq.heappop

    def popped(heap):
        sizes.append(len(logs[-1]))
        return pop(heap)

    with mock.patch.object(fabric, "TraceLog", Watched), mock.patch.object(fabric.heapq, "heappop", popped):
        result = run_scenario(tmr_stream(200))
    sizes.append(len(result.trace))
    tails.append(len(result.trace._tail))
    most = max(b - a for a, b in zip(sizes, sizes[1:]))  # records one event added
    assert len(tails) > 10 and most < _BLOCK
    assert max(tails) <= 5 * (_BLOCK + most), (max(tails), most)


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
