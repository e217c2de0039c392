"""Self-tests of the benchmark.  Run with: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, HERE)

import run  # noqa: E402
import workloads  # noqa: E402
from votingfarm import scenario as scn  # noqa: E402

ROADMAP_ITEM_1 = [
    {"kind": "crash", "role": "voter", "entity": 3, "at": 1},
    {"kind": "omission", "role": "voter", "entity": 2, "at": 5},
]


def _short_campaign(seed: int, runs: int = 25) -> workloads.Campaign:
    return workloads.Campaign(seed, runs=runs)


def _sim_view(p: run.Pass):
    return (
        [o.digest for o in p.outcomes],
        [o.latencies for o in p.outcomes],
        [o.gaps for o in p.outcomes],
        [(o.sessions, o.attempted, o.failed, sorted(o.events.items())) for o in p.outcomes],
    )


def test_same_seed_same_behaviour():
    for make in (lambda: _short_campaign(11), lambda: workloads.build("tmr_stream", 11)):
        a = run.Pass(make()).run()
        b = run.Pass(make()).run()
        assert _sim_view(a) == _sim_view(b)
        assert run.workload_digest(a) == run.workload_digest(b)


def test_same_seed_same_layer_counts():
    from layers import layer_metrics
    from tracing import LayerTotals, Tracer

    counted = (
        "fabric.events_per_session",
        "fabric.sends_per_session",
        "wire.decode_calls_per_send",
        "algorithms.metric_calls_per_vote",
        "farm.control_calls",
        "recovery.rint_steps_per_run",
    )
    views = []
    for _ in range(2):
        wl = _short_campaign(5)
        tracer, totals = Tracer(), LayerTotals()
        tracer.install()
        try:
            plain = run.Pass(wl).run()
            traced = run.Pass(wl).run(tracer)
            tracer.drain(totals)
        finally:
            tracer.uninstall()
        metrics = layer_metrics(totals, tracer.counts, [plain], [traced])
        views.append({name: metrics[name][0] for name in counted})
    assert views[0] == views[1]
    assert views[0]["wire.decode_calls_per_send"] > 0


def test_tracer_restores_the_program():
    from tracing import Tracer
    import votingfarm.voter as voter
    import votingfarm.wire as wire

    before = (wire.decode, voter.vote, scn.run_scenario)
    tracer = Tracer()
    tracer.install()
    assert wire.decode is not before[0]
    tracer.uninstall()
    assert (wire.decode, voter.vote, scn.run_scenario) == before


def test_other_seed_other_draws():
    a, b = _short_campaign(1).ops, _short_campaign(2).ops
    assert a[: len(workloads.BUNDLED)] == b[: len(workloads.BUNDLED)]
    assert a[len(workloads.BUNDLED):] != b[len(workloads.BUNDLED):]


def test_bundled_scenarios_run_as_shipped():
    wl = _short_campaign(3, runs=len(workloads.BUNDLED))
    for name, op in zip(workloads.BUNDLED, wl.ops):
        assert op == scn.resolve_scenario(name)[0]
    p = run.Pass(wl).run()
    assert [o.failed for o in p.outcomes] == [0] * len(workloads.BUNDLED)


def test_known_nosuchlink_input_is_a_failed_run():
    wl = _short_campaign(3, runs=len(workloads.BUNDLED))
    bad = scn.resolve_scenario("three_and_one_spare")[0]
    bad["faults"] = bad["faults"] + ROADMAP_ITEM_1
    bad["assertions"] = []
    wl.ops = [bad, wl.ops[0]]
    p = run.Pass(wl).run()
    first, after = p.outcomes
    assert first.failed == 1 and "NoSuchLink" in first.failures[0]
    assert not first.wrong
    assert after.failed == 0
    assert run.tally([p])[:2] == (2, 1)
    # Repeats of a pass add no attempts or failures of their own.
    assert run.tally([p, p])[:2] == (2, 1)


def test_stream_checks_catch_a_wrong_value():
    wl = workloads.build("tmr_stream", 4)
    wl.expected = list(wl.expected)
    wl.expected[5] = "00" * 8
    p = run.Pass(wl).run()
    (outcome,) = p.outcomes
    assert outcome.failed == 1
    assert outcome.wrong and "session 5" in outcome.wrong[0]


def test_command_prints_the_declared_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tmr_stream",
         "--seed", "3", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == {m["name"] for m in declared["end_to_end"]}
    for m in declared["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
    assert result["correct"] is True and result["failed"] == 0


def test_layer_names_match_the_declaration():
    from layers import LAYER_METRICS

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == LAYER_METRICS
    assert [w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_program_sources():
    bare = os.path.join(HERE, "out", "bare_checkout")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        out = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "tmr_stream",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=170,
        )
        assert out.returncode != 0
        assert '"correct"' not in out.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)
