"""Per-layer metrics, reduced from the spans and counts of traced passes.

Every name is reported on every workload; a layer a workload never
calls reads 0.  Counts are totals over the traced passes divided by the
number of passes, sessions or runs, so they repeat exactly for a seed.
"""

from __future__ import annotations

import statistics
from collections import Counter

from tracing import median_or_zero
from workloads import SCHEDULE_N, WIDE_N, WIDE_TECHNIQUES

VOTE_KEYS = (("majority", 3),) + tuple((alg["kind"], WIDE_N) for alg in WIDE_TECHNIQUES)
SCHEDULE_KEYS = tuple(
    (perm, n) for perm in ("identity", "one_cycled") for n in SCHEDULE_N
)

LAYER_METRICS: dict[str, str] = {
    "fabric.self_us_per_event": "us",
    "fabric.events_per_session": "count",
    "fabric.sends_per_session": "count",
    "fabric.drops_per_session": "count",
    "fabric.timeouts_per_session": "count",
    "fabric.render_us_per_event": "us",
    "wire.decode_calls_per_send": "ratio",
    "wire.encode_us_per_session": "us",
    "wire.decode_us_per_session": "us",
    "voter.self_us_per_session": "us",
    **{f"algorithms.vote_us.{k.replace('-', '_')}.n{n}": "us" for k, n in VOTE_KEYS},
    "algorithms.metric_calls_per_vote": "count",
    "client.self_us_per_session": "us",
    "client.refused_per_session": "count",
    "farm.activate_us": "us",
    "farm.control_calls": "count",
    "farm.control_us": "us",
    "farm.control_failed_share": "ratio",
    "recovery.parse_rl_calls_per_run": "count",
    "recovery.parse_rl_us": "us",
    "recovery.rint_step_us": "us",
    "recovery.execute_actions_us": "us",
    "recovery.rint_steps_per_run": "count",
    "recovery.sim_gap_p50": "tick",
    "scenario.validate_us": "us",
    "scenario.check_us": "us",
    "scenario.write_artifacts_ms_per_1k_sessions": "ms",
    "scenario.artifact_bytes_per_session": "B",
    "reliability.markov_solve_ms": "ms",
    "reliability.crosspoint_us": "us",
    "reliability.curve_export_ms": "ms",
    **{f"perf.schedule_steps_ms.{perm}.n{n}": "ms" for perm, n in SCHEDULE_KEYS},
    "perf.best_permutation_ms.n7": "ms",
    "perf.timing_harness_ms": "ms",
    "trace.overhead_share": "ratio",
    "trace.unattributed_share": "ratio",
}


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(totals, counts, plain, traced) -> dict[str, tuple[float, str]]:
    passes = len(traced)
    outcomes = [o for p in traced for o in p.outcomes]
    runs = len(outcomes)
    sessions = sum(o.sessions for o in outcomes)
    events = sum((o.events for o in outcomes), Counter())
    n_events = sum(events.values())
    inclusive, own, calls, durations = totals.inclusive, totals.own, totals.calls, totals.durations

    def med(name, key=None, scale=1e6):
        return scale * median_or_zero(durations.get((name, key), []))

    op_time = sum(p.seconds for p in traced)
    gaps = [g for o in traced[0].outcomes for g in o.gaps]

    m = {
        "fabric.self_us_per_event": 1e6 * _div(own["fabric.run"], n_events),
        "fabric.events_per_session": _div(n_events, sessions),
        "fabric.sends_per_session": _div(events["send"], sessions),
        "fabric.drops_per_session": _div(events["drop"], sessions),
        "fabric.timeouts_per_session": _div(events["timeout"], sessions),
        "fabric.render_us_per_event": 1e6 * _div(inclusive["fabric.render"], n_events),
        "wire.decode_calls_per_send": _div(calls["wire.decode"], events["send"] + events["post"]),
        "wire.encode_us_per_session": 1e6 * _div(inclusive["wire.encode"], sessions),
        "wire.decode_us_per_session": 1e6 * _div(inclusive["wire.decode"], sessions),
        "voter.self_us_per_session": 1e6 * _div(own["voter.step"], sessions),
        "algorithms.metric_calls_per_vote": _div(counts["algorithms.metric"], calls["algorithms.vote"]),
        "client.self_us_per_session": 1e6 * _div(
            own["client.vf_control"] + own["client.vf_get"], sessions),
        "client.refused_per_session": _div(counts["client.refused"], sessions),
        "farm.activate_us": med("farm.activate"),
        "farm.control_calls": _div(counts["farm.control"], passes),
        "farm.control_us": med("farm.control"),
        "farm.control_failed_share": _div(counts["farm.control_failed"], counts["farm.control"]),
        "recovery.parse_rl_calls_per_run": _div(calls["recovery.parse_rl"], runs),
        "recovery.parse_rl_us": med("recovery.parse_rl"),
        "recovery.rint_step_us": med("recovery.rint_step"),
        "recovery.execute_actions_us": med("recovery.execute_actions"),
        "recovery.rint_steps_per_run": _div(calls["recovery.rint_step"], runs),
        "recovery.sim_gap_p50": statistics.median(gaps) if gaps else 0.0,
        "scenario.validate_us": med("scenario.validate"),
        "scenario.check_us": med("scenario.check"),
        "scenario.write_artifacts_ms_per_1k_sessions": 1e6 * _div(
            inclusive["scenario.write_artifacts"], sessions),
        "scenario.artifact_bytes_per_session": _div(
            sum(o.artifact_bytes for o in outcomes), sessions),
        "reliability.markov_solve_ms": med("reliability.markov_solve", scale=1e3),
        "reliability.crosspoint_us": med("reliability.crosspoint"),
        "reliability.curve_export_ms": med("reliability.curve_export", scale=1e3),
        "perf.best_permutation_ms.n7": med("perf.best_permutation", 7, scale=1e3),
        "perf.timing_harness_ms": med("perf.timing_harness", scale=1e3),
        "trace.overhead_share": _div(
            statistics.median(p.seconds for p in traced),
            statistics.median(p.seconds for p in plain)) - 1.0,
        "trace.unattributed_share": _div(op_time - totals.top_level, op_time),
    }
    for kind, n in VOTE_KEYS:
        m[f"algorithms.vote_us.{kind.replace('-', '_')}.n{n}"] = med("algorithms.vote", (kind, n))
    for perm, n in SCHEDULE_KEYS:
        m[f"perf.schedule_steps_ms.{perm}.n{n}"] = med("perf.schedule_steps", (perm, n), scale=1e3)
    return {name: (m[name], unit) for name, unit in LAYER_METRICS.items()}
