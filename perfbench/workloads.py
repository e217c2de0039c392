"""The four benchmark workloads.

Each workload turns a seed into a fixed list of operations ("ops"),
runs one op at a time, and checks every op's outputs.  An op is the
unit that host time is measured on:

    tmr_stream, wide_farm   one voted session (timed as a whole stream,
                            divided by the stream's sessions)
    fault_campaign          one scenario run
    models                  one sweep of the analytic modules

The program only ever sees the generated inputs: scenario specs handed
to ``run_scenario`` and argument lists handed to the model functions.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from votingfarm import perf, reliability
from votingfarm import scenario as scn
from votingfarm.algorithms import encode_scalar

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")

BUNDLED = (
    "tmr_happy",
    "tmr_one_crash",
    "n5_two_faults",
    "three_and_one_spare",
    "graceful_degradation",
)

TMR_SESSIONS = 200
TMR_PERIOD = 50
WIDE_N = 32
WIDE_TECHNIQUES = (
    {"kind": "majority"},
    {"kind": "plurality", "tie_break": "lowest-member"},
    {"kind": "median"},
    {"kind": "weighted-average"},
)
WIDE_PERIOD = 1500
WIDE_DELTA_T = 60
CAMPAIGN_RUNS = 800
CAMPAIGN_FAULT_KINDS = ("crash", "omission", "delay", "value-corruption")


@dataclass
class Outcome:
    """What one op produced, reduced to what the benchmark reports."""

    sessions: int = 0
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    wrong: list[str] = field(default_factory=list)
    events: Counter = field(default_factory=Counter)
    latencies: list[int] = field(default_factory=list)
    gaps: list[int] = field(default_factory=list)
    digest: str = ""
    artifact_bytes: int = 0


def _sha(*parts: str | bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode() if isinstance(part, str) else part)
        h.update(b"\0")
    return h.hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def run_digest(result: scn.RunResult) -> str:
    """SHA-256 of everything a scenario run produced in simulated time."""
    users = {
        str(node): {k: v for k, v in rep.items() if k != "handle"}
        for node, rep in sorted(result.users.items())
    }
    actions = result.db.action_log if result.db else []
    return _sha(result.trace.text(), _canonical(users), _canonical(actions))


def input_results(spec: dict, report: dict, node: int):
    """Pair each scheduled value input of a user with the status it got.

    Mirrors the scenario user program: after each value input the user
    polls until a reply other than VF_REFUSED arrives, at most
    ``get_polls`` times.  Yields (scheduled time, final status or None).
    """
    statuses = iter(report["statuses"])
    polls = spec.get("get_polls", scn._DEFAULTS["get_polls"])
    items = sorted(spec["inputs"].get(str(node), []), key=lambda item: item["at"])
    for item in items:
        if "algorithm" in item:
            continue
        final = None
        for _ in range(polls):
            status = next(statuses, None)
            if status is None:
                break
            final = status
            if status["code"] != "VF_REFUSED":
                break
        yield item["at"], final


def _ok(status) -> bool:
    return (
        status is not None
        and status["code"] == "VF_DONE"
        and status["detail"] == "ok"
    )


# -- voted streams ------------------------------------------------------------

class Stream:
    """A long open-loop stream of voted sessions as one scenario run.

    Every node schedules one input per period whether or not the
    previous session finished.  ``expected`` holds, per session, the
    value every user must receive, or None where only agreement among
    users can be checked (weighted average synthesizes a value).
    """

    unit = "session"

    def __init__(self, name: str, spec: dict, expected: list, artifacts: bool):
        self.name = name
        self.expected = expected
        self.artifacts = artifacts
        self.ops = [spec]

    def run(self, op) -> scn.RunResult:
        result = scn.run_scenario(op)
        if self.artifacts:
            scn.write_artifacts(result, self.artifact_dir())
        return result

    def artifact_dir(self) -> str:
        return os.path.join(OUT_DIR, "artifacts", self.name)

    def check(self, op, result: scn.RunResult) -> Outcome:
        out = Outcome(sessions=len(self.expected), attempted=len(self.expected))
        bad: set[int] = set()
        for node, rep in sorted(result.users.items()):
            for k, (at, status) in enumerate(input_results(op, rep, node)):
                if not _ok(status) or status["session"] != k:
                    bad.add(k)
                    out.failures.append(f"user {node} session {k}: {status}")
                else:
                    out.latencies.append(status["t"] - at)
        outputs: dict[int, list[str]] = {}
        for node, rep in sorted(result.users.items()):
            for o in rep["outputs"]:
                outputs.setdefault(o["session"], []).append(o["value"])
        for k, want in enumerate(self.expected):
            got = outputs.get(k, [])
            if len(got) != len(result.users):
                bad.add(k)
                out.failures.append(f"session {k}: {len(got)} outputs for {len(result.users)} users")
            elif want is not None and any(v != want for v in got):
                bad.add(k)
                out.wrong.append(f"session {k}: voted {sorted(set(got))}, input {want}")
            elif want is None and len(set(got)) != 1:
                bad.add(k)
                out.failures.append(f"session {k}: users disagree {sorted(set(got))}")
        if not (result.sim.quiescent and not result.trace.max_time_exceeded and result.all_users_finished()):
            bad.update(range(len(self.expected)))
            out.failures.append("stream did not settle")
        out.failed = len(bad)
        out.failures.extend(out.wrong)
        out.events = Counter(ev.kind for ev in result.trace)
        if self.artifacts:
            parts = []
            for fname in ("trace.txt", "results.json", "actions.log"):
                with open(os.path.join(self.artifact_dir(), fname), "rb") as fh:
                    parts.append(fh.read())
            out.artifact_bytes = sum(len(p) for p in parts)
            out.digest = _sha(*parts)
        else:
            out.digest = run_digest(result)
        return out

    def cleanup(self) -> None:
        if self.artifacts:
            shutil.rmtree(self.artifact_dir(), ignore_errors=True)


def tmr_stream(seed: int) -> Stream:
    rng = random.Random(seed)
    values = [rng.randbytes(8).hex() for _ in range(TMR_SESSIONS)]
    mask = b"\0"
    while not any(mask):
        mask = rng.randbytes(rng.randint(1, 8))
    spec = {
        "name": "tmr_stream",
        "seed": seed,
        "farm": [[1, 1], [2, 2], [3, 3]],
        "delta_t": 10,
        "delivery_delay": 1,
        "metric": "default",
        "max_time": 10 + TMR_PERIOD * (TMR_SESSIONS + 4),
        "inputs": {
            str(node): [{"at": 10 + TMR_PERIOD * k, "value": v} for k, v in enumerate(values)]
            for node in (1, 2, 3)
        },
        "faults": [
            {"kind": "value-corruption", "role": "user", "node": 3, "at": 5, "mask": mask.hex()}
        ],
    }
    return Stream("tmr_stream", spec, values, artifacts=True)


def wide_farm(seed: int) -> Stream:
    rng = random.Random(seed)
    n = WIDE_N
    corrupted = sorted(rng.sample(range(1, n + 1), n // 6))
    values = [rng.uniform(1.0, 1000.0) for _ in WIDE_TECHNIQUES]
    inputs: dict[str, list] = {}
    for node in range(1, n + 1):
        items = []
        for k, (alg, v) in enumerate(zip(WIDE_TECHNIQUES, values)):
            at = WIDE_PERIOD * (k + 1)
            items.append({"at": at - WIDE_PERIOD // 5, "algorithm": alg})
            items.append({"at": at, "scalar": v})
        inputs[str(node)] = items
    faults = []
    for node in corrupted:
        # Mantissa bytes only (little-endian float64), so every corrupted
        # scalar stays finite and within a factor of two of the input.
        mask = rng.randbytes(6) + b"\0\0"
        mask = mask if any(mask) else b"\x01" + mask[1:]
        faults.append(
            {"kind": "value-corruption", "role": "user", "node": node, "at": 1, "mask": mask.hex()}
        )
    spec = {
        "name": "wide_farm",
        "seed": seed,
        "farm": [[node, node] for node in range(1, n + 1)],
        # The turn rule serializes relays, so a voter can wait about
        # N units for its next broadcast; a shorter farm timeout would
        # replace late broadcasts with invalid slots.
        "delta_t": WIDE_DELTA_T,
        "delivery_delay": 1,
        "metric": "scalar",
        "get_timeout": WIDE_PERIOD - WIDE_PERIOD // 5,
        "max_time": WIDE_PERIOD * (len(WIDE_TECHNIQUES) + 2),
        "inputs": inputs,
        "faults": faults,
    }
    expected = [
        None if alg["kind"] == "weighted-average" else encode_scalar(v).hex()
        for alg, v in zip(WIDE_TECHNIQUES, values)
    ]
    return Stream("wide_farm", spec, expected, artifacts=False)


# -- fault campaign -----------------------------------------------------------

class Campaign:
    """The bundled scenarios as shipped, then seeded fault draws over them."""

    unit = "run"

    def __init__(self, seed: int, runs: int = CAMPAIGN_RUNS):
        rng = random.Random(seed)
        self.search_dirs = (scn.bundled_dir(),)
        base = {name: scn.resolve_scenario(name)[0] for name in BUNDLED}
        self.ops = [copy.deepcopy(base[name]) for name in BUNDLED]
        for i in range(runs - len(BUNDLED)):
            # Draws cycle through the five scenarios so every seed runs
            # the same mix; only the faults, jitter and seeds are random.
            spec = copy.deepcopy(base[BUNDLED[i % len(BUNDLED)]])
            entities = [row[1] for row in spec["farm"]]
            for _ in range(rng.randint(0, 2)):
                fault = {
                    "kind": rng.choice(CAMPAIGN_FAULT_KINDS),
                    "role": "voter",
                    "entity": rng.choice(entities),
                    "at": rng.randint(1, 69),
                }
                if fault["kind"] == "delay":
                    fault["delay"] = rng.randint(1, 20)
                if fault["kind"] == "value-corruption":
                    fault["mask"] = rng.randbytes(rng.randint(1, 8)).hex()
                spec.setdefault("faults", []).append(fault)
            spec["name"] = f"{spec['name']}#draw{i}"
            spec["jitter"] = rng.randint(0, 3)
            spec["seed"] = rng.randrange(2**31)
            spec["assertions"] = []
            self.ops.append(spec)

    def run(self, op):
        """Run one scenario and check it; an exception is a failed run."""
        try:
            result = scn.run_scenario(op, self.search_dirs)
        except Exception as exc:  # noqa: BLE001 - any crash is a failed run
            return exc, [f"{op['name']}: {type(exc).__name__}: {exc}"]
        return result, campaign_invariants(op, result)

    def check(self, op, ran) -> Outcome:
        result, problems = ran
        out = Outcome(attempted=1, failed=int(bool(problems)), failures=list(problems))
        if isinstance(result, Exception):
            out.digest = _sha(type(result).__name__, str(result))
            return out
        out.digest = run_digest(result)
        out.events = Counter(ev.kind for ev in result.trace)
        done = [
            (at, status)
            for node, rep in sorted(result.users.items())
            for at, status in input_results(op, rep, node)
        ]
        out.latencies = [status["t"] - at for at, status in done if _ok(status)]
        # Every user of a voted session gets one VF_DONE ok for it.
        out.sessions = max(
            (sum(_ok(s) for s in rep["statuses"]) for rep in result.users.values()), default=0
        )
        last_input = max((at for at, _ in done), default=0)
        fault_times = [
            int(f["at"]) for f in op.get("faults", [])
            if f["kind"] in ("crash", "omission") and int(f["at"]) < last_input
        ]
        if fault_times:
            t_fault = min(fault_times)
            after = [
                s["t"] for rep in result.users.values() for s in rep["statuses"]
                if _ok(s) and s["t"] >= t_fault
            ]
            if after:
                out.gaps.append(min(after) - t_fault)
        return out

    def cleanup(self) -> None:
        pass


def _value_faulty_voters(op: dict) -> set[str]:
    names = set()
    rows = [tuple(r) for r in op["farm"]] + [(s["node"], s["entity"]) for s in op.get("spares", [])]
    for f in op.get("faults", []):
        if f["kind"] == "value-corruption" and f.get("role", "voter") == "voter":
            for node, entity in rows:
                if entity == f["entity"]:
                    names.add(f"voter:{entity}@{node}")
    return names


def campaign_invariants(op: dict, result: scn.RunResult) -> list[str]:
    """The four protocol invariants, as a list of violations."""
    problems = []
    name = op["name"]
    if not result.passed:
        problems.append(f"{name}: shipped assertions failed")
    bad_grammar = scn.check_phase_grammar(result)
    if bad_grammar:
        problems.append(f"{name}: phase grammar: {bad_grammar[:3]}")
    if not result.sim.quiescent or result.trace.max_time_exceeded:
        problems.append(f"{name}: not quiescent")
    if not result.all_users_finished():
        problems.append(f"{name}: a user program did not finish")
    problems.extend(f"{name}: {p}" for p in agreement_violations(op, result))
    return problems


def agreement_violations(op: dict, result: scn.RunResult) -> list[str]:
    """All OUTPUT frames of one (epoch, session) carry the same value.

    Walks the trace once.  A voter's epoch is the last one it reported
    in a phase or warn record; an OUTPUT send is tagged with it and
    matched FIFO to the delivery on the same (voter, user) pair, since
    the fabric keeps per-pair order.  A drop right after a send removes
    that send; a later drop removes the oldest one in flight.  Outputs
    from voters with an injected value fault are left out.
    """
    skip = _value_faulty_voters(op)
    epoch: dict[str, int] = {}
    in_flight: dict[tuple[str, str], list[tuple[int, int]]] = {}
    values: dict[tuple[int, int], set[str]] = {}
    problems: list[str] = []
    prev = None
    for ev in result.trace:
        if ev.kind in ("phase", "warn") and "epoch=" in ev.detail:
            epoch[ev.frm] = int(ev.detail.split("epoch=")[1].split()[0])
        elif ev.frm.startswith("voter") and ev.to.startswith("user"):
            pair = (ev.frm, ev.to)
            if ev.kind == "send" and ev.detail.startswith("output"):
                session = int(ev.detail.split("session=")[1].split()[0])
                in_flight.setdefault(pair, []).append((epoch.get(ev.frm, 0), session))
            elif ev.kind == "drop" and in_flight.get(pair):
                just_sent = prev is not None and prev.kind == "send" and (prev.frm, prev.to) == pair
                if just_sent and prev.detail.startswith("output"):
                    in_flight[pair].pop()
                elif not just_sent:
                    in_flight[pair].pop(0)
            elif ev.kind == "deliver" and ev.detail.startswith("output"):
                if not in_flight.get(pair):
                    problems.append(f"{ev.line}: no matching send")
                elif ev.frm in skip:
                    in_flight[pair].pop(0)
                else:
                    payload = ev.detail.split("payload=")[1] if "payload=" in ev.detail else ""
                    values.setdefault(in_flight[pair].pop(0), set()).add(payload)
        prev = ev
    return problems + [
        f"epoch {e} session {s}: outputs disagree {sorted(v)}"
        for (e, s), v in sorted(values.items())
        if len(v) > 1
    ]


# -- analytic models ----------------------------------------------------------

MODEL_LAMBDA = 1e-3
MODEL_C = tuple(float(c) for c in np.linspace(0.0, 1.0, 25))
MODEL_T = tuple(float(t) for t in np.linspace(0.0, 4000.0, 50))
CROSS_C = (0.25, 0.5, 0.75, 1.0)
SCHEDULE_N = (4, 8, 16, 32, 64, 128)


class Models:
    """One sweep of reliability and perf.

    The sweep's inputs are fixed, so every seed runs the same sweep;
    Table 6 uses the harness's default seed with jitter 2.
    """

    unit = "sweep"

    def __init__(self, seed: int):
        self.ops = [
            {
                "markov": (MODEL_LAMBDA, MODEL_C, MODEL_T),
                "cross": CROSS_C,
                "schedule_n": SCHEDULE_N,
                "best_n": 7,
                "harness": {"n_values": (1, 2, 3, 4), "jitter": 2, "repeats": 3},
            }
        ]

    def run(self, op) -> dict:
        lam, cs, ts = op["markov"]
        t = np.asarray(ts)
        markov = {c: reliability.markov_solve(reliability.MarkovModel(lam, c), t) for c in cs}
        cross = {
            c: reliability.crosspoint(
                lambda r, c=c: reliability.r_tmr_1spare(c, r), reliability.simplex, (1e-6, 0.8)
            )
            for c in op["cross"]
        }
        curves = reliability.curve_export(op["cross"])
        steps = {}
        for n in op["schedule_n"]:
            steps[("identity", n)] = perf.schedule_steps(perf.identity_permutation(n)).steps
            steps[("one_cycled", n)] = perf.schedule_steps(perf.one_cycled_permutation(n)).steps
        best_perm, best = perf.best_permutation(op["best_n"])
        table6 = perf.timing_harness(**op["harness"])
        return {
            "markov": markov,
            "cross": cross,
            "curves": curves,
            "steps": steps,
            "best": (best_perm.order, best_perm.relative, best.steps),
            "table6": table6,
        }

    def check(self, op, res: dict) -> Outcome:
        lam, cs, ts = op["markov"]
        t = np.asarray(ts)
        out = Outcome(attempted=1)
        worst = 0.0
        for c, p in res["markov"].items():
            for state, values in reliability.closed_forms(lam, c, t).items():
                worst = max(worst, float(np.max(np.abs(p[:, reliability.STATES.index(state)] - values))))
        if not worst <= 1e-9:
            out.wrong.append(f"markov differs from closed forms by {worst:.3e}")
        for n in op["schedule_n"]:
            if res["steps"][("one_cycled", n)] != 3 * (n - 1):
                out.wrong.append(f"one-cycled n={n}: {res['steps'][('one_cycled', n)]} steps")
        best_steps, n = res["best"][2], op["best_n"]
        if best_steps > 3 * (n - 1):
            out.wrong.append(f"best_permutation({n}) uses {best_steps} steps, one-cycled {3 * (n - 1)}")
        out.failures = list(out.wrong)
        out.failed = int(bool(out.wrong))
        out.sessions = len(res["table6"]) * op["harness"]["repeats"]
        out.latencies = [row["mean"] for row in res["table6"]]
        out.digest = _sha(
            _canonical({str(c): p.tolist() for c, p in res["markov"].items()}),
            _canonical({str(c): x for c, x in res["cross"].items()}),
            res["curves"],
            _canonical(sorted([k[0], k[1], v] for k, v in res["steps"].items())),
            _canonical(list(res["best"])),
            perf.table_text(res["table6"]),
        )
        return out

    def cleanup(self) -> None:
        pass


BY_NAME = {
    "tmr_stream": tmr_stream,
    "wide_farm": wide_farm,
    "fault_campaign": Campaign,
    "models": Models,
}
WORKLOADS = tuple(BY_NAME)


def build(name: str, seed: int):
    return BY_NAME[name](seed)
