"""Scenario runner: whole-farm simulations described as JSON.

A scenario file names a farm layout, per-node input schedules, faults
to inject, an optional recovery strategy, and a list of assertions to
check after the run.  The same user-module script runs on every node:
open a handle, describe the farm, activate it, feed inputs, poll for
results, optionally close.  Scenarios are the integration corpus: the
bundled ones exercise every major feature end to end and are also what
`vf run` executes.

Everything a run produces (trace, per-user results, recovery action
log) is collected in a RunResult so assertions and artifact files can
be derived deterministically: same scenario + same seed = same bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources
from typing import Optional

from .algorithms import METRICS, AlgorithmSelect, encode_scalar, encode_vector
from .client import vf_add, vf_close, vf_control, vf_get, vf_open, vf_run
from .core import (
    PHASE_TRANSITIONS,
    FarmDescriptor,
    VfStatusCode,
    VotingFarmError,
    validate_descriptor,
)
from .fabric import Endpoint, FAULT_KINDS, FaultSpec, Proc, Simulator, Sleep
from .farm import FarmRuntime
from .recovery import DirDatabase, attach_recovery, parse_rl
from .recovery.lang import resolve_include

_PHASE_STEPS = {(src.value, dst.value) for (src, _), dst in PHASE_TRANSITIONS.items()}


class ScenarioError(VotingFarmError):
    """The scenario file itself is unusable (schema, files, ranges)."""


_DEFAULTS = {
    "name": "unnamed",
    "seed": 0,
    "max_time": 100_000,
    "delta_t": 10,
    "delivery_delay": 0,
    "jitter": 0,
    "metric": "default",
    "algorithm": {},
    "spares": [],
    "inputs": {},
    "faults": [],
    "probes": {},
    "get_polls": 8,
    "get_timeout": 40,
    "close_farm": False,
    "assertions": [],
}


def bundled_dir() -> str:
    return str(resources.files("votingfarm").joinpath("scenarios"))


def resolve_scenario(name_or_path: str) -> tuple[dict, tuple[str, ...]]:
    """Load a scenario by file path or bundled name.

    Returns the raw dict plus the directories later file references
    (strategy sources, include files) should be resolved against.
    """
    names = [name_or_path]
    if not name_or_path.endswith(".json"):
        names.append(name_or_path + ".json")
    bundled = [os.path.join(bundled_dir(), os.path.basename(name)) for name in names]
    for candidate in names + bundled:
        if os.path.isfile(candidate):
            try:
                with open(candidate, "r", encoding="utf-8") as fh:
                    spec = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ScenarioError(f"{candidate}: not valid JSON: {exc}") from exc
            return spec, (os.path.dirname(os.path.abspath(candidate)), bundled_dir())
    raise ScenarioError(f"no scenario named {name_or_path!r}")


_COUNT_FIELDS = ("max_time", "delta_t", "delivery_delay", "jitter", "get_polls", "get_timeout")


def _need_int(value, name: str) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")


def _need_count(value, name: str) -> None:
    _need_int(value, name)
    if value < 0:
        raise ScenarioError(f"{name} must be >= 0, got {value}")


def _need_records(value, name: str) -> None:
    if not isinstance(value, list) or not all(isinstance(item, dict) for item in value):
        raise ScenarioError(f"{name} must be a list of objects, got {value!r}")


def _hex_bytes(text) -> bytes:
    """The bytes a hex string spells, or b"" if it is not one."""
    try:
        return bytes.fromhex(text)
    except (ValueError, TypeError):
        return b""


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _need_algorithm(value, name: str) -> None:
    try:
        AlgorithmSelect(**value)
    except (VotingFarmError, TypeError) as exc:
        raise ScenarioError(f"bad {name}: {exc}") from exc


_INPUT_FORMS = ("value", "scalar", "vector", "algorithm")


def _need_input(item: dict) -> None:
    """An input item is exactly one of: non-empty hex value, numeric
    scalar, non-empty numeric vector, algorithm selection."""
    forms = [form for form in _INPUT_FORMS if form in item]
    if len(forms) != 1:
        raise ScenarioError(f"input needs exactly one of {', '.join(_INPUT_FORMS)}, got {item!r}")
    form = forms[0]
    value = item[form]
    if form == "value" and not _hex_bytes(value):
        raise ScenarioError(f"input value must be non-empty hex, got {value!r}")
    if form == "scalar" and not _is_number(value):
        raise ScenarioError(f"input scalar must be a number, got {value!r}")
    if form == "vector" and not (isinstance(value, list) and value and all(map(_is_number, value))):
        raise ScenarioError(f"input vector must be a non-empty list of numbers, got {value!r}")
    if form == "algorithm":
        _need_algorithm(value, "input algorithm")


def validate_scenario(spec: dict) -> dict:
    merged = {**_DEFAULTS, **spec}
    farm = merged.get("farm")
    if not isinstance(farm, list) or not farm:
        raise ScenarioError("scenario needs a non-empty farm list of [node, ident]")
    desc = FarmDescriptor()
    try:
        for row in farm:
            desc.add(int(row[0]), int(row[1]))
        validate_descriptor(desc)
    except (VotingFarmError, ValueError, TypeError, IndexError) as exc:
        raise ScenarioError(f"bad farm layout: {exc}") from exc
    _need_int(merged["seed"], "seed")
    for key in _COUNT_FIELDS:
        _need_count(merged[key], key)
    if merged["delta_t"] <= merged["delivery_delay"] + merged["jitter"]:
        raise ScenarioError("delta_t must exceed the worst-case delivery delay")
    _need_algorithm(merged["algorithm"], "algorithm selection")
    if merged["metric"] not in METRICS:
        raise ScenarioError(f"unknown metric {merged['metric']!r}")
    _need_records(merged["faults"], "faults")
    for f in merged["faults"]:
        if f.get("kind") not in FAULT_KINDS:
            raise ScenarioError(f"unknown fault kind {f.get('kind')!r}")
        if f.get("role", "voter") not in ("voter", "user"):
            raise ScenarioError(f"fault role must be voter or user, got {f.get('role')!r}")
        _need_count(f.get("at"), "fault at")
        if "mask" in f and not _hex_bytes(f["mask"]):
            raise ScenarioError(f"fault mask must be non-empty hex, got {f['mask']!r}")
        if "delay" in f:
            _need_int(f["delay"], "fault delay")
    inputs = merged["inputs"]
    if not isinstance(inputs, dict) or not all(node.isdigit() for node in inputs):
        raise ScenarioError(f"inputs must map node numbers to lists, got {inputs!r}")
    for node, items in inputs.items():
        _need_records(items, f"inputs of node {node}")
        for item in items:
            _need_int(item.get("at"), "input at")
            _need_input(item)
    _need_records(merged["spares"], "spares")
    for spare in merged["spares"]:
        if "entity" not in spare or "node" not in spare:
            raise ScenarioError("each spare needs an entity and a node")
    return merged


def _payload(item: dict) -> bytes:
    if "value" in item:
        return bytes.fromhex(item["value"])
    if "scalar" in item:
        return encode_scalar(item["scalar"])
    return encode_vector(item["vector"])


@dataclass
class RunResult:
    spec: dict
    sim: Simulator
    runtime: FarmRuntime
    db: Optional[DirDatabase]
    users: dict[int, dict]
    user_procs: dict[int, Proc]
    search_dirs: tuple[str, ...] = ()
    assertions: list[dict] = field(default_factory=list)

    @property
    def trace(self):
        return self.sim.trace

    @property
    def passed(self) -> bool:
        return all(a["ok"] for a in self.assertions)

    def all_users_finished(self) -> bool:
        return all(p.finished for p in self.user_procs.values())

    def summary(self) -> dict:
        return {
            "name": self.spec["name"],
            "passed": self.passed,
            "assertions": self.assertions,
            "users": {str(node): rep for node, rep in self.users.items()},
            "actions": self.db.action_log if self.db else [],
            "recovery_errors": self.db.errors if self.db else [],
            "spmd_incoherent": self.runtime.spmd_incoherent,
            "quiescent": self.sim.quiescent,
        }


def _user_program(runtime, spec, node, rows, report, inputs):
    probes = spec["probes"]
    polls = spec["get_polls"]
    get_timeout = spec["get_timeout"]

    def run(proc):
        def record(status):
            report["statuses"].append(
                {"code": str(status.code), "detail": status.detail, "session": status.session, "t": proc.now}
            )

        handle = vf_open(runtime, spec["metric"])
        report["handle"] = handle
        for nd, ident in rows:
            vf_add(handle, nd, ident)
        try:
            yield from vf_run(handle, proc)
        except VotingFarmError as exc:
            report["error"] = type(exc).__name__
            return
        for item in inputs:
            if item["at"] > proc.now:
                yield Sleep(item["at"] - proc.now)
            if "algorithm" in item:
                alg = item["algorithm"]
                yield from vf_control(
                    handle,
                    proc,
                    algorithm=alg.get("kind"),
                    epsilon=alg.get("epsilon"),
                    scaling_factor=alg.get("scaling_factor"),
                    tie_break=alg.get("tie_break"),
                )
                continue
            payload = _payload(item)
            yield from vf_control(handle, proc, input=payload)
            if probes.get("double_input"):
                yield from vf_control(handle, proc, input=payload)
            if probes.get("premature_close"):
                yield from vf_control(handle, proc, close=True)
            for _ in range(polls):
                status = yield from vf_get(handle, proc, get_timeout)
                record(status)
                if status.code is VfStatusCode.VF_REFUSED:
                    report["refused"] += 1
                    continue
                break
        if spec["close_farm"]:
            record((yield from vf_close(handle, proc, get_timeout)))
        report["done"] = True

    return run


def run_scenario(spec: dict, search_dirs: tuple[str, ...] = ()) -> RunResult:
    spec = validate_scenario(spec)
    sim = Simulator(
        seed=spec["seed"],
        delivery_delay=spec["delivery_delay"],
        jitter=spec["jitter"],
    )
    select = AlgorithmSelect(**spec["algorithm"])
    runtime = FarmRuntime(sim, delta_t=spec["delta_t"], select=select)

    db = None
    recovery = spec.get("recovery")
    if recovery:
        rl_path = resolve_include(recovery["rl"], search_dirs)
        if rl_path is None:
            raise ScenarioError(f"referenced file {recovery['rl']!r} not found")
        with open(rl_path, "r", encoding="utf-8") as fh:
            source = fh.read()
        include_dirs = (os.path.dirname(rl_path),) + search_dirs
        program = parse_rl(source, include_dirs=include_dirs)
        groups = {
            int(gid): tuple(members)
            for gid, members in recovery.get("groups", {}).items()
        }
        db = attach_recovery(runtime, program, groups)

    for spare in spec["spares"]:
        runtime.declare_spare(int(spare["entity"]), int(spare["node"]))

    farm_rows = [(int(r[0]), int(r[1])) for r in spec["farm"]]
    input_nodes = {int(n) for n in spec["inputs"]}
    user_nodes = sorted(
        {node for node, _ in farm_rows}
        | {int(s["node"]) for s in spec["spares"]}
        | input_nodes
    )
    for node in user_nodes:
        runtime.ensure_user_endpoint(node)

    mismatch = spec.get("spmd_mismatch")
    users: dict[int, dict] = {}
    procs: dict[int, Proc] = {}
    for node in user_nodes:
        rows = farm_rows
        if mismatch and int(mismatch["node"]) == node:
            rows = [(int(r[0]), int(r[1])) for r in mismatch["farm"]]
        inputs = sorted(
            spec["inputs"].get(str(node), []), key=lambda item: item["at"]
        )
        report = {
            "statuses": [],
            "outputs": [],
            "refused": 0,
            "error": None,
            "done": False,
        }
        users[node] = report
        procs[node] = sim.spawn(
            _user_program(runtime, spec, node, rows, report, inputs),
            Endpoint(node, "user"),
        )

    for f in spec["faults"]:
        target = _fault_target(f, runtime, farm_rows)
        sim.inject(
            FaultSpec(
                kind=f["kind"],
                target=target,
                at_time=f["at"],
                mask=bytes.fromhex(f.get("mask", "ff")),
                delay=f.get("delay", 0),
            )
        )

    sim.run_until_quiescent(spec["max_time"])

    for report in users.values():
        handle = report.pop("handle", None)
        if handle is not None:
            report["outputs"] = [
                {
                    "session": o["session"],
                    "source": o["source"],
                    "value": o["payload"].hex(),
                }
                for o in handle.outputs
            ]

    result = RunResult(spec, sim, runtime, db, users, procs, search_dirs)
    for a in spec["assertions"]:
        result.assertions.append(_evaluate(result, a))
    return result


def _fault_target(f: dict, runtime: FarmRuntime, farm_rows) -> Endpoint:
    role = f.get("role", "voter")
    if role == "user":
        return Endpoint(int(f["node"]), "user")
    if "entity" in f:
        entity = int(f["entity"])
        for node, ident in farm_rows:
            if ident == entity:
                return Endpoint(node, "voter", entity)
        if entity in runtime.spares:
            return Endpoint(runtime.spares[entity], "voter", entity)
        raise ScenarioError(f"fault names unknown entity {entity}")
    return Endpoint(int(f["node"]), "voter", int(f.get("member", f["node"])))


# -- assertions -----------------------------------------------------------

def _detail_tokens(detail: str) -> set[str]:
    return set(detail.split())


def session_latency(result: RunResult, session: int) -> int:
    """Simulated time from a session's scheduled input to its last VF_DONE."""
    times = sorted(
        {
            int(item["at"])
            for items in result.spec["inputs"].values()
            for item in items
            if "algorithm" not in item
        }
    )
    if session >= len(times):
        raise ScenarioError(f"no scheduled input for session {session}")
    t_in = times[session]
    done = [
        t
        for t, kind, _, to, detail in result.trace.events
        if kind == "deliver"
        and to.startswith("user")
        and {"status=VF_DONE", "detail=ok", f"session={session}"}
        <= _detail_tokens(detail)
    ]
    if not done:
        raise ScenarioError(f"session {session} never completed")
    return max(done) - t_in


def _evaluate(result: RunResult, a: dict) -> dict:
    kind = a.get("type")
    fn = _EVALUATORS.get(kind)
    if fn is None:
        return {"type": kind, "ok": False, "detail": f"unknown assertion type {kind!r}"}
    try:
        ok, detail = fn(result, a)
    except VotingFarmError as exc:
        ok, detail = False, str(exc)
    # The explanation wins over an assertion's own "detail" (the status
    # detail a session-status assertion expects).
    return {**a, "ok": bool(ok), "detail": detail}


def _a_quiescent(result: RunResult, a: dict):
    ok = result.sim.quiescent and not result.trace.max_time_exceeded
    ok = ok and result.all_users_finished()
    return ok, "all processes drained" if ok else "simulation did not settle"


def _a_trace_count(result: RunResult, a: dict):
    count = result.trace.count(a.get("kind"), a.get("contains", ""))
    if "equals" in a:
        return count == a["equals"], f"count={count}"
    ok = count >= a.get("min", 0) and count <= a.get("max", count)
    return ok, f"count={count}"


def _a_output_equals(result: RunResult, a: dict):
    session = a.get("session", 0)
    want = a["value"]
    nodes = a.get("nodes") or sorted(result.users)
    missing, wrong = [], []
    for node in nodes:
        rep = result.users.get(int(node))
        got = [o["value"] for o in rep["outputs"] if o["session"] == session] if rep else []
        if not got:
            missing.append(node)
        elif any(v != want for v in got):
            wrong.append((node, got))
    ok = not missing and not wrong
    return ok, f"missing={missing} wrong={wrong}" if not ok else f"{len(nodes)} nodes agree"


def _a_session_status(result: RunResult, a: dict):
    session = a.get("session", 0)
    code = a.get("status", "VF_DONE")
    detail = a.get("detail")
    nodes = a.get("nodes") or sorted(result.users)
    bad = []
    for node in nodes:
        rep = result.users.get(int(node), {})
        hits = [
            s
            for s in rep.get("statuses", [])
            if s["session"] == session
            and s["code"] == code
            and (detail is None or s["detail"] == detail)
        ]
        if not hits:
            bad.append(node)
    return not bad, f"nodes without {code}/{detail} for session {session}: {bad}" if bad else "ok"


def _a_refused_min(result: RunResult, a: dict):
    total = sum(rep["refused"] for rep in result.users.values())
    return total >= a.get("count", 1), f"refused={total}"


def _a_latency_delta(result: RunResult, a: dict):
    session = a.get("session", 0)
    baseline_spec = {**result.spec, "faults": [], "assertions": [], "probes": {}}
    baseline = run_scenario(baseline_spec, result.search_dirs)
    delta = session_latency(result, session) - session_latency(baseline, session)
    ok = abs(delta - a["expected"]) <= a.get("tol", 1)
    return ok, f"delta={delta} expected={a['expected']}"


def _a_action_log(result: RunResult, a: dict):
    verbs = result.db.verbs() if result.db else []
    if "verbs" in a:
        return verbs == a["verbs"], f"log={verbs}"
    needle = a.get("contains", [])
    ok = all(v in verbs for v in needle)
    return ok, f"log={verbs}"


def _a_recovery_errors(result: RunResult, a: dict):
    errors = result.db.errors if result.db else []
    needle = a.get("contains", "")
    ok = any(needle in e for e in errors)
    return ok, f"errors={errors}"


def _a_live_voters(result: RunResult, a: dict):
    count = result.sim.endpoint_count("voter", live_only=True)
    return count == a["count"], f"live voters={count}"


def _a_spmd_flag(result: RunResult, a: dict):
    return result.runtime.spmd_incoherent == a.get("value", True), (
        f"spmd_incoherent={result.runtime.spmd_incoherent}"
    )


def check_phase_grammar(result: RunResult) -> list[str]:
    """Per-voter phase reports must walk the automaton's cycle."""
    sequences: dict[str, list[str]] = {}
    for _, kind, frm, _, detail in result.trace.events:
        if kind == "phase":
            sequences.setdefault(frm, []).append(detail.split()[0])
    bad = []
    for ep, seq in sequences.items():
        if seq[0] != "VFP_INIT":
            bad.append(f"{ep} starts in {seq[0]}")
        for prev, cur in zip(seq, seq[1:]):
            # A restarted voter keeps its endpoint and reports VFP_INIT
            # afresh, whatever phase its predecessor was in.
            if cur != "VFP_INIT" and (prev, cur) not in _PHASE_STEPS:
                bad.append(f"{ep}: {prev} -> {cur}")
    return bad


def _a_phase_grammar(result: RunResult, a: dict):
    bad = check_phase_grammar(result)
    return not bad, "; ".join(bad) if bad else "all voters follow the cycle"


_EVALUATORS = {
    "quiescent": _a_quiescent,
    "trace-count": _a_trace_count,
    "output-equals": _a_output_equals,
    "session-status": _a_session_status,
    "refused-min": _a_refused_min,
    "latency-delta": _a_latency_delta,
    "action-log": _a_action_log,
    "recovery-errors": _a_recovery_errors,
    "live-voters": _a_live_voters,
    "spmd-flag": _a_spmd_flag,
    "phase-grammar": _a_phase_grammar,
}


# -- artifacts -------------------------------------------------------------

def write_artifacts(result: RunResult, outdir: str) -> list[str]:
    """Write trace, results and action log; bytes depend only on the run."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    trace_path = os.path.join(outdir, "trace.txt")
    with open(trace_path, "w", encoding="utf-8") as fh:
        fh.write(result.trace.text())
        fh.write("\n" if result.trace.events else "")
    written.append(trace_path)

    results_path = os.path.join(outdir, "results.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        # One write: json.dump would write each of thousands of chunks.
        fh.write(json.dumps(result.summary(), indent=2, sort_keys=True) + "\n")
    written.append(results_path)

    actions_path = os.path.join(outdir, "actions.log")
    with open(actions_path, "w", encoding="utf-8") as fh:
        for entry in result.db.action_log if result.db else []:
            status = "ok" if entry["ok"] else "failed"
            fh.write(
                f"t={entry['t']} {entry['verb']} {entry['kind']} {entry['target']} {status}\n"
            )
    written.append(actions_path)
    return written
