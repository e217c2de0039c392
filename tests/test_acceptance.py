"""Acceptance suite: one test per headline claim, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines as they print.  Each test is self-contained and states its own
tolerance; nothing here relaxes what the module suites already pin.
"""

import random
import time

import numpy as np

from farm_harness import DT, INPUT_AT, build_farm, completion_time, final_status, opened_farm, run_farm
from test_rcode import CORPUS
from votingfarm.algorithms import encode_scalar
from votingfarm.client import vf_close, vf_control, vf_get
from votingfarm.core import VfStatusCode
from votingfarm.fabric import Endpoint, FaultSpec, Sleep
from votingfarm.perf import (
    fit_polynomial,
    identity_permutation,
    live_resource_counts,
    one_cycled_permutation,
    schedule_steps,
    table_text,
    timing_harness,
)
from votingfarm.recovery import compile_program, decode_program
from votingfarm.reliability import (
    MarkovModel,
    closed_forms,
    crosspoint,
    live_probability,
    markov_solve,
    r_tmr,
    r_tmr_1spare,
    simplex,
)
from votingfarm.scenario import resolve_scenario, run_scenario


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"{'PASS' if ok else 'FAIL'} {name}"
    if detail:
        line += f"  [{detail}]"
    print(line)
    return ok


# -- criteria ----------------------------------------------------------------

def test_reliability_equations():
    t0 = time.perf_counter()
    exact = r_tmr(0.5) == 0.5
    x = crosspoint(lambda R: r_tmr_1spare(1.0, R), simplex, (1e-6, 0.5))
    elapsed = time.perf_counter() - t0
    ok = exact and abs(x - 0.2324) <= 5e-4 and elapsed < 1.0
    assert report(
        "reliability-equations",
        ok,
        f"r_tmr(0.5)={r_tmr(0.5)} crosspoint={x:.6f} elapsed={elapsed:.3f}s",
    )


def test_markov_oracle_equivalence():
    t0 = time.perf_counter()
    lam = 1e-3
    t_grid = np.linspace(0.0, 4000.0, 50)  # lambda*t up to 4
    worst = 0.0
    drift = 0.0
    for C in np.linspace(0.0, 1.0, 25):
        p = markov_solve(MarkovModel(lam, float(C)), t_grid)
        drift = max(drift, float(np.max(np.abs(p.sum(axis=1) - 1.0))))
        gap = np.abs(live_probability(p) - r_tmr_1spare(float(C), np.exp(-lam * t_grid)))
        worst = max(worst, float(np.max(gap)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and drift <= 1e-12 and elapsed < 30.0
    assert report(
        "markov-oracle",
        ok,
        f"25x50 grid max|diff|={worst:.2e} conservation={drift:.2e} elapsed={elapsed:.1f}s",
    )


def test_closed_form_states():
    worst = 0.0
    for lam, C in ((2e-3, 0.35), (1e-3, 0.0), (5e-4, 1.0)):
        t = np.linspace(0.0, 4.0 / lam, 20)
        numeric = markov_solve(MarkovModel(lam, C), t)
        from votingfarm.reliability import STATES

        for name, values in closed_forms(lam, C, t).items():
            gap = np.max(np.abs(numeric[:, STATES.index(name)] - values))
            worst = max(worst, float(gap))
    ok = worst <= 1e-9
    assert report("closed-forms", ok, f"7 states x 20 times, max|diff|={worst:.2e}")


def test_dominance_grid():
    C = np.linspace(0.0, 1.0, 101)[:, None]
    R = np.linspace(0.0, 1.0, 101)[None, :]
    delta = r_tmr_1spare(C, R) - r_tmr(R)
    interior = delta[1:, 1:-1]  # C > 0 and 0 < R < 1
    ok = bool(delta.min() >= -1e-15 and interior.min() > 0.0)
    assert report(
        "dominance",
        ok,
        f"101x101 grid min={delta.min():.2e} strict interior min={interior.min():.2e}",
    )


def test_fault_masking():
    rng = random.Random(424242)

    def masked(n, fault_count, seed):
        correct = round(rng.uniform(-100.0, 100.0), 3)
        values = [correct] * n
        for ident in rng.sample(range(n), fault_count):
            values[ident] = correct + rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 9.0)
        _, _, reports = run_farm(n, dict(enumerate(values, 1)), seed=seed)
        want = encode_scalar(correct)
        for node in range(1, n + 1):
            if final_status(reports, node).detail != "ok":
                return False
            mine = [o for o in reports[node]["outputs"] if o["session"] == 0]
            if len(mine) != 1 or mine[0]["payload"] != want:
                return False
        return True

    tmr_ok = sum(masked(3, 1, seed) for seed in range(500))
    five_ok = sum(masked(5, 2, 10_000 + seed) for seed in range(300))
    ok = tmr_ok == 500 and five_ok == 300
    assert report(
        "fault-masking", ok, f"TMR {tmr_ok}/500, five-member {five_ok}/300"
    )


def test_timeout_arithmetic():
    def latency(m):
        sim, _, _ = run_farm(4, {1: 7.0, 2: 7.0, 3: 7.0, 4: 7.0}, crash_idents=tuple(range(1, m + 1)))
        return completion_time(sim)

    base = latency(0)
    deltas = {m: latency(m) - base for m in (1, 2, 3)}
    ok = all(abs(deltas[m] - m * DT) <= 1 for m in deltas)
    assert report(
        "timeout-arithmetic",
        ok,
        f"base={base} deltas={deltas} (delta_t={DT}, quantum=1)",
    )


def test_protocol_safety_fuzz():
    def fuzz(seed):
        rng = random.Random(seed)
        n = rng.choice([2, 3, 4, 5])
        prober = rng.randrange(1, n + 1)
        sim, runtime, rows = build_farm(n, seed=seed)
        victims = [i for i in range(1, n + 1) if i != prober]
        # one member's input arrives half a timeout late, so the session
        # provably spans the probes: a same-tick close or second input
        # is guaranteed to land mid-session
        laggard = rng.choice(victims)
        rng.shuffle(victims)
        for victim in victims[: rng.randrange(0, min(2, len(victims)) + 1)]:
            kind = rng.choice(["crash", "omission", "value-corruption", "delay"])
            fields = dict(
                kind=kind,
                target=Endpoint(victim, "voter", victim),
                at_time=rng.randrange(1, 26),
            )
            if kind == "delay":
                fields["delay"] = rng.randrange(1, 30)
            if kind == "value-corruption":
                fields["mask"] = bytes([rng.randrange(1, 256)])
            sim.inject(FaultSpec(**fields))

        replies = []

        def user(node):
            def run(proc):
                handle = yield from opened_farm(runtime, rows, proc)
                wake = INPUT_AT + (DT // 2 if node == laggard else 0)
                yield Sleep(wake - proc.now)
                yield from vf_control(handle, proc, input=encode_scalar(1.0))
                if node == prober:
                    # double input and premature close, mid-session
                    yield from vf_control(handle, proc, input=encode_scalar(2.0))
                    replies.append((yield from vf_close(handle, proc, timeout=8 * DT)))
                while True:
                    status = yield from vf_get(handle, proc, timeout=8 * DT)
                    if node == prober:
                        replies.append(status)
                    if status.code is not VfStatusCode.VF_REFUSED:
                        return
            return run

        procs = [
            sim.spawn(user(node), Endpoint(node, "user"))
            for node, _ in rows
        ]
        sim.run_until_quiescent(max_time=5000)
        if sim.trace.max_time_exceeded or not sim.quiescent:
            return "deadlock"
        if not all(p.finished for p in procs):
            return "stuck user"
        codes = [s.code for s in replies]
        if codes[:2] != [VfStatusCode.VF_REFUSED, VfStatusCode.VF_REFUSED]:
            return f"probe answered {codes}"
        if codes[-1] is not VfStatusCode.VF_DONE:
            return f"no session verdict, got {codes}"
        return None

    failures = [(seed, why) for seed in range(1000) if (why := fuzz(seed))]
    ok = not failures
    assert report(
        "protocol-safety",
        ok,
        f"1000 seeds, failures={failures[:3]}{'...' if len(failures) > 3 else ''}",
    )


def test_rl_end_to_end():
    spec4, dirs4 = resolve_scenario("three_and_one_spare")
    spare = run_scenario(spec4, dirs4)
    spare_ok = (
        spare.passed
        and spare.db.verbs() == ["KILL", "START", "WARN", "WARN"]
        and spare.all_users_finished()
    )

    spec5, dirs5 = resolve_scenario("graceful_degradation")
    degrade = run_scenario(spec5, dirs5)
    degrade_ok = degrade.passed and len(degrade.runtime.live_entities()) == 2

    round_trips = sum(
        decode_program(compile_program(p)) == p for p in CORPUS
    )
    corpus_ok = len(CORPUS) >= 30 and round_trips == len(CORPUS)

    ok = spare_ok and degrade_ok and corpus_ok
    assert report(
        "rl-end-to-end",
        ok,
        f"spare verbs={spare.db.verbs()} degrade live={len(degrade.runtime.live_entities())} "
        f"round-trips {round_trips}/{len(CORPUS)}",
    )


def test_permutation_fits():
    sizes = [4, 8, 16, 32, 64]
    identity = [schedule_steps(identity_permutation(n)).steps for n in sizes]
    onecycle = [schedule_steps(one_cycled_permutation(n)) for n in sizes]
    _, r2_quad = fit_polynomial(sizes, identity, 2)
    _, r2_lin = fit_polynomial(sizes, [r.steps for r in onecycle], 1)
    target = 2.0 / 3.0
    util_ok = all(
        abs(r.utilization - target) <= 0.1 * target
        for n, r in zip(sizes, onecycle)
        if n >= 16
    )
    ok = r2_quad >= 0.999 and r2_lin >= 0.999 and util_ok
    assert report(
        "permutation-fits",
        ok,
        f"identity quadratic R2={r2_quad:.6f} one-cycled linear R2={r2_lin:.6f} "
        f"utilization within 10% of 2/3 for N>=16: {util_ok}",
    )


def test_resource_counts():
    got = {n: live_resource_counts(n) for n in range(1, 9)}
    want = {n: (n, n, n * (n - 1) // 2) for n in range(1, 9)}
    ok = got == want
    assert report("resource-counts", ok, f"N=1..8 live counts {'match' if ok else got}")


def test_latency_table():
    rows = timing_harness()
    means = [r["mean"] for r in rows]
    ok = all(b > a for a, b in zip(means, means[1:]))
    text = table_text(rows)
    print(text, end="")
    assert text.startswith("N,average,standard deviation\n")
    assert report("latency-table", ok, f"means {means} strictly increase over N=1..4")
