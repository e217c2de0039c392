"""Scenario runner: whole-farm simulations described as JSON.

A scenario file names a farm layout, per-node input schedules, faults
to inject, an optional recovery strategy, and a list of assertions to
check after the run.  The same user-module script runs on every node:
open a handle, describe the farm, activate it, feed inputs, poll for
results, optionally close.  Scenarios are the integration corpus: the
bundled ones exercise every major feature end to end and are also what
`vf run` executes.

A run first checks the file against one table, compiled once at import
into walkers specialised per part of the table; the checks across keys
also derive the nodes that run the user program and each fault's
target.  The strategy file is parsed once per content (see
recovery.lang.parse_rl).

Everything a run produces (trace, per-user results, recovery action
log) is collected in a RunResult so assertions and artifact files can
be derived deterministically: same scenario + same seed = same bytes.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from importlib import resources
from json.encoder import INFINITY, encode_basestring_ascii
from operator import itemgetter
from typing import Optional

from .algorithms import METRICS, AlgorithmSelect, encode_scalar, encode_vector
from .client import FarmHandle, vf_add, vf_close, vf_control, vf_get, vf_open, vf_run
from .core import PHASE_STEPS, VfStatusCode, VoterPhase, VotingFarmError, validate_descriptor
from .fabric import Endpoint, FaultSpec, Simulator, Sleep
from .farm import FarmRuntime
from .recovery import DirDatabase, attach_recovery, parse_rl
from .recovery.lang import read_text, resolve_include


class ScenarioError(VotingFarmError):
    """The scenario file itself is unusable (schema, files, ranges)."""


def bundled_dir() -> str:
    return str(resources.files("votingfarm").joinpath("scenarios"))


def resolve_scenario(name_or_path: str) -> tuple[dict, tuple[str, ...]]:
    """Load a scenario by file path or, for a bare name, from the bundled corpus.

    Returns the raw dict plus the directories later file references
    (strategy sources, include files) should be resolved against.
    """
    names = [name_or_path]
    if not name_or_path.endswith(".json"):
        names.append(name_or_path + ".json")
    if not os.path.dirname(name_or_path):
        names += [os.path.join(bundled_dir(), name) for name in names]
    for candidate in names:
        if os.path.isfile(candidate):
            try:
                with open(candidate, "r", encoding="utf-8") as fh:
                    spec = json.load(fh)
            except ValueError as exc:  # bad JSON or bad UTF-8
                raise ScenarioError(f"{candidate}: not valid JSON: {exc}") from exc
            except RecursionError:
                raise ScenarioError(f"{candidate}: JSON nested too deeply to read") from None
            return spec, (os.path.dirname(os.path.abspath(candidate)), bundled_dir())
    raise ScenarioError(f"no scenario named {name_or_path!r}")


# -- what a scenario may say ----------------------------------------------
#
# One table, modelled on JSON Schema 2020-12, decides what a scenario may
# say: each key has a type, a range, choices or a rule where it needs
# one, and is REQUIRED, OPTIONAL or has a default.  The table compiles,
# once at import, into walkers that each hold only the checks their part
# of the table has.  They reject unknown keys at every level, name a bad
# value path-style ("fault at must be >= 0") and fill in every default.

REQUIRED, OPTIONAL = object(), object()
_TYPES = {  # JSON type: the Python types it admits, and its name in errors
    "integer": ({int}, "an integer"), "number": ({int, float}, "a number"), "string": ({str}, "a string"),
    "boolean": ({bool}, "true or false"), "array": ({list}, "a list"), "object": ({dict}, "an object"),
}


def _must(s: dict) -> str:
    """What a value has to be to pass schema s's type and size checks."""
    if "values" in s:
        return f"map {s['keys']} to lists"
    if "items" not in s:
        return "be " + _TYPES[s["type"]][1]
    noun, size = _TYPES[s["items"]["type"]][1].split()[-1] + "s", s.get("minItems", 0)
    if size == s.get("maxItems"):
        return f"be a list of {size} {noun}"
    return f"be a {'non-empty ' if size else ''}list of {noun}"


def _compile(s: dict, at: str):
    """The walker (value, key) -> checked value that schema s stands for.

    Errors name the value by the label at.  Under a map, at holds a {}
    that the map's key fills in, only when an error is raised; key is
    None elsewhere.  A container walker checks its own type, and a leaf
    runs its check in the same call: a check applies to a leaf only."""
    check, must = s.get("check"), _must(s)
    build = next((build for part, build in _CONTAINERS if part in s), None)
    if build is not None:
        return build(s, at, must)
    types, lo, choices = _TYPES[s["type"]][0], s.get("minimum"), s.get("enum")

    def leaf(value, key):
        if type(value) not in types:
            raise ScenarioError(f"{at.format(key)} must {must}, got {value!r}")
        if lo is not None and value < lo:
            raise ScenarioError(f"{at.format(key)} must be >= {lo}, got {value}")
        if choices and value not in choices:
            raise ScenarioError(f"unknown {at.format(key)} {value!r}, expected one of {', '.join(choices)}")
        if check is not None:
            check(value, at if key is None else at.format(key))
        return value

    return leaf


def _object_walker(s: dict, at: str, must: str):
    """A dict is returned as it is unless a default or a field changed."""
    props, title, one_of, apart = s["properties"], s["title"], s.get("oneOf", ()), s.get("apart")
    prefix, fields, needs, defaults = s.get("prefix", title + " "), {}, {}, {}
    for key, (f, d) in props.items():
        walk_field = fields[key] = _compile(f, prefix + key)
        if d is REQUIRED:
            needs[key] = f"each {title} needs {key}: {prefix}{key} must {_must(f)}"
        elif d is not OPTIONAL:
            defaults[key] = walk_field(d, None)
    known, required, defaulted = fields.keys(), needs.keys(), defaults.keys()

    def walk(value, key):
        if type(value) is not dict:
            raise ScenarioError(f"{at.format(key)} must {must}, got {value!r}")
        keys, changed = value.keys(), {}
        if not known >= keys:
            raise ScenarioError(f"unknown {title} key {min(keys - known)!r}")
        for k, v in value.items():
            checked = fields[k](v, None)
            if checked is not v:
                changed[k] = checked
        if not keys >= required:
            raise ScenarioError(next(needs[k] for k in needs if k not in value))
        if one_of and sum(map(keys.__contains__, one_of)) != 1:
            raise ScenarioError(f"{title} needs exactly one of {', '.join(one_of)}, got {value!r}")
        if apart and not keys.isdisjoint(apart[0]) and not keys.isdisjoint(apart[1]):
            raise ScenarioError(f"{title} takes {' or '.join(map('/'.join, apart))}, not both, got {value!r}")
        return {**defaults, **value, **changed} if changed or not keys >= defaulted else value

    return walk


def _array_walker(s: dict, at: str, must: str):
    """A list of plain items in range is returned as it is, any other as a new list."""
    items, least, most = s["items"], s.get("minItems", 0), s.get("maxItems", float("inf"))
    types, lo, plain = _TYPES[items["type"]][0], items.get("minimum"), items.keys() <= {"type", "minimum"}
    walk_item = _compile(items, items.get("title") or at)

    def walk(value, key):
        if type(value) is not list or not least <= len(value) <= most or not types.issuperset(map(type, value)):
            raise ScenarioError(f"{at.format(key)} must {must}, got {value!r}")
        if plain and (lo is None or min(value, default=lo) >= lo):
            return value
        return [walk_item(item, key) for item in value]

    return walk


def _map_walker(s: dict, at: str, must: str):
    """A map whose keys are decimal strings, or ints once checked."""
    walk_value, keys = _compile(s["values"], s["each"]), s["keys"]

    def walk(value, key):
        if type(value) is not dict or not all(map(str.isdecimal, map(str, value))):
            raise ScenarioError(f"{at.format(key)} must {must}, got {value!r}")
        checked = {int(k): walk_value(v, k) for k, v in value.items()}
        if len(checked) < len(value):
            raise ScenarioError(f"{at.format(key)} names one of its {keys} twice, got keys {list(value)!r}")
        return checked

    return walk


def _cases_walker(s: dict, at: str, must: str):
    """One object schema per value of the key named "tag".  Cases are
    list items only, which _array_walker has checked are objects."""
    tag, cases = s["tag"], {name: _object_walker(case, at, must) for name, case in s["cases"].items()}
    expected = ", ".join(cases)

    def walk(value, key):
        name = value.get(tag)
        if type(name) is not str or name not in cases:
            raise ScenarioError(f"unknown {at.format(key)} {tag} {name!r}, expected one of {expected}")
        return cases[name](value, key)

    return walk


_CONTAINERS = (("properties", _object_walker), ("items", _array_walker),
               ("values", _map_walker), ("cases", _cases_walker))


def _object(title: str, fields: dict, **rules) -> dict:
    """An object schema from {key: (schema, REQUIRED, OPTIONAL or default)}."""
    return {"type": "object", "title": title, "properties": fields, **rules}


def _hex(text: str, label: str) -> None:
    try:
        if bytes.fromhex(text):
            return
    except ValueError:
        pass
    raise ScenarioError(f"{label} must be non-empty hex, got {text!r}")


def _algorithm(value: dict, label: str) -> None:
    try:
        AlgorithmSelect(**value)
    except (VotingFarmError, TypeError) as exc:
        raise ScenarioError(f"bad {label} selection: {exc}") from exc


def _farm_layout(rows: list) -> None:
    if not rows:
        raise ScenarioError("scenario needs a non-empty farm list of [node, ident]")
    try:
        validate_descriptor(rows)
    except VotingFarmError as exc:
        raise ScenarioError(f"bad farm layout: {exc}") from exc


def _float64(value, label: str) -> None:
    try:
        float(value)
    except OverflowError:
        raise ScenarioError(f"{label} must fit in a float64, got an integer of {value.bit_length()} bits") from None


def _scenario_rules(spec: dict) -> tuple[list[int], list[Endpoint]]:
    """Check what the table cannot see alone; return the nodes that run
    the user program (the farm's, the spares' and the inputs') and each
    fault's target."""
    if spec["delta_t"] <= spec["delivery_delay"] + spec["jitter"]:
        raise ScenarioError("delta_t must exceed the worst-case delivery delay")
    node_of = {ident: node for node, ident in spec["farm"]}  # entity -> node
    for spare in spec["spares"]:
        entity = spare["entity"]
        if entity in node_of:
            kind = "a farm ident" if any(ident == entity for _, ident in spec["farm"]) else "a spare"
            raise ScenarioError(f"spare entity {entity} is already {kind}")
        node_of[entity] = spare["node"]
    user_nodes = sorted({*node_of.values(), *spec["inputs"]})
    targets = [_fault_target(f, node_of, user_nodes) for f in spec["faults"]]
    for group, members in spec.get("recovery", {}).get("groups", {}).items():
        for entity in members:
            if entity not in node_of:
                raise ScenarioError(f"group {group} names unknown entity {entity}")
    mismatch = spec.get("spmd_mismatch")
    if mismatch and mismatch["node"] not in user_nodes:
        raise ScenarioError(f"spmd_mismatch node {mismatch['node']} runs no user program")
    return user_nodes, targets


def _fault_target(f: dict, node_of: dict[int, int], user_nodes: list[int]) -> Endpoint:
    """The endpoint a checked fault hits: a voter fault names an entity,
    a farm ident or a spare; a user fault names a node that runs the
    user program.  Raises ScenarioError for any other target."""
    role = f["role"]
    key, other = ("node", "entity") if role == "user" else ("entity", "node")
    if key not in f or other in f:
        raise ScenarioError(f"the {role} {f['kind']} fault at {f['at']} must name its {key} and no {other}")
    if role == "user":
        if f["node"] not in user_nodes:
            raise ScenarioError(f"fault node {f['node']} runs no user program")
        return Endpoint(f["node"], "user")
    node = node_of.get(f["entity"])
    if node is None:
        raise ScenarioError(f"fault names unknown entity {f['entity']}")
    return Endpoint(node, "voter", f["entity"])


_INT, _COUNT = {"type": "integer"}, {"type": "integer", "minimum": 0}
_FLOAT, _BOOL, _STRING = {"type": "number", "check": _float64}, {"type": "boolean"}, {"type": "string"}
_HEX, _ALGORITHM = {"type": "string", "check": _hex}, {"type": "object", "check": _algorithm}
_STRINGS, _NODES = {"type": "array", "items": _STRING}, {"type": "array", "items": _COUNT}
_ROW = {"type": "array", "items": _COUNT, "minItems": 2, "maxItems": 2, "title": "farm row"}
_ROWS = {"type": "array", "items": _ROW}
_PAYLOADS = {"value": bytes.fromhex, "scalar": encode_scalar, "vector": encode_vector}  # input forms


@dataclass
class RunResult:
    spec: dict
    sim: Simulator
    runtime: FarmRuntime
    db: Optional[DirDatabase]
    users: dict[int, dict]
    search_dirs: tuple[str, ...] = ()
    assertions: list[dict] = field(default_factory=list)

    @property
    def trace(self):
        return self.sim.trace

    @property
    def passed(self) -> bool:
        return all(a["ok"] for a in self.assertions)

    def all_users_finished(self) -> bool:
        """Whether every user program ended: it set done at its end, or
        error when vf_run was refused.  A crashed or raising user did neither."""
        return all(rep["done"] or rep["error"] is not None for rep in self.users.values())

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


def _user_program(spec, handle, rows, report, inputs):
    probes, polls, get_timeout = spec["probes"], spec["get_polls"], spec["get_timeout"]

    def run(proc):
        sim = proc.sim

        def record(status):
            report["statuses"].append(
                {"code": str(status.code), "detail": status.detail, "session": status.session, "t": sim.now}
            )

        for nd, ident in rows:
            vf_add(handle, nd, ident)
        try:
            yield from vf_run(handle, proc)
        except VotingFarmError as exc:
            report["error"] = type(exc).__name__
            return
        for item in inputs:
            if item["at"] > sim.now:
                yield Sleep(item["at"] - sim.now)
            if "algorithm" in item:
                alg = item["algorithm"]
                yield from vf_control(
                    handle, proc, algorithm=alg.get("kind"), epsilon=alg.get("epsilon"),
                    scaling_factor=alg.get("scaling_factor"), tie_break=alg.get("tie_break"),
                )
                continue
            payload = next(encode(item[form]) for form, encode in _PAYLOADS.items() if form in item)
            yield from vf_control(handle, proc, input=payload)
            if probes["double_input"]:
                yield from vf_control(handle, proc, input=payload)
            if probes["premature_close"]:
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
    written, spec = spec, validate_scenario(spec)
    user_nodes, targets = _scenario_rules(spec)
    sim = Simulator(seed=spec["seed"], delivery_delay=spec["delivery_delay"], jitter=spec["jitter"])
    select = AlgorithmSelect(**spec["algorithm"])
    runtime = FarmRuntime(sim, delta_t=spec["delta_t"], select=select)

    db = None
    recovery = spec.get("recovery")
    if recovery is not None:
        rl_path = resolve_include(recovery["rl"], search_dirs)
        if rl_path is None:
            raise ScenarioError(f"referenced file {recovery['rl']!r} not found")
        program = parse_rl(read_text(rl_path), include_dirs=(os.path.dirname(rl_path),) + search_dirs)
        db = attach_recovery(runtime, program, recovery["groups"])

    for spare in spec["spares"]:
        runtime.declare_spare(spare["entity"], spare["node"])

    mismatch = spec.get("spmd_mismatch")
    users: dict[int, dict] = {}
    handles: dict[int, FarmHandle] = {}
    for node in user_nodes:
        rows = mismatch["farm"] if mismatch and mismatch["node"] == node else spec["farm"]
        inputs = sorted(spec["inputs"].get(node, []), key=lambda item: item["at"])
        report = users[node] = {"statuses": [], "outputs": [], "refused": 0, "error": None, "done": False}
        handle = handles[node] = vf_open(runtime, spec["metric"])
        sim.spawn(_user_program(spec, handle, rows, report, inputs), runtime.ensure_user_endpoint(node))

    for f, target in zip(spec["faults"], targets):
        own = {}  # the fields only this fault's kind has
        if "mask" in f:
            own["mask"] = bytes.fromhex(f["mask"])
        if "delay" in f:
            own["delay"] = f["delay"]
        sim.inject(FaultSpec(kind=f["kind"], target=target, at_time=f["at"], **own))

    sim.run_until_quiescent(spec["max_time"])

    for node, handle in handles.items():
        users[node]["outputs"] = [
            {"session": o["session"], "source": o["source"], "value": o["payload"].hex()}
            for o in handle.outputs
        ]

    result = RunResult(spec, sim, runtime, db, users, search_dirs)
    # A verdict echoes its assertion as written, without defaults, and its explanation
    # wins over the assertion's own "detail" (the one a session-status check expects).
    for as_written, a in zip(written.get("assertions", ()), spec["assertions"]):
        try:
            ok, detail = _EVALUATORS[a["type"]][0](result, a)
        except VotingFarmError as exc:
            ok, detail = False, str(exc)
        result.assertions.append({**as_written, "ok": bool(ok), "detail": detail})
    return result


# -- assertions -----------------------------------------------------------

def session_latency(result: RunResult, session: int) -> int:
    """Simulated time from a session's scheduled input to its last VF_DONE.

    Each node's k-th value input in time order (algorithm switches
    skipped) belongs to session k, scheduled at the earliest of them."""
    per_node = [sorted(item["at"] for item in items if "algorithm" not in item)
                for items in result.spec["inputs"].values()]
    times = [ts[session] for ts in per_node if session < len(ts)]
    if not times:
        raise ScenarioError(f"no scheduled input for session {session}")
    want = {"status=VF_DONE", "detail=ok", f"session={session}"}
    done = [
        t for t, _, to, detail in result.trace.records_of("deliver")
        if to.startswith("user") and want <= set(detail.split())
    ]
    if not done:
        raise ScenarioError(f"session {session} never completed")
    return max(done) - min(times)


def _a_quiescent(result: RunResult, a: dict):
    ok = result.sim.quiescent and not result.trace.max_time_exceeded and result.all_users_finished()
    return ok, "all processes drained" if ok else "simulation did not settle"


def _a_trace_count(result: RunResult, a: dict):
    count = result.trace.count(a.get("kind"), a["contains"])
    ok = count == a["equals"] if "equals" in a else a.get("min", 0) <= count <= a.get("max", count)
    return ok, f"count={count}"


def _a_output_equals(result: RunResult, a: dict):
    nodes = a.get("nodes") or sorted(result.users)
    missing, wrong = [], []
    for node in nodes:
        rep = result.users.get(node)
        got = [o["value"] for o in rep["outputs"] if o["session"] == a["session"]] if rep else []
        if not got:
            missing.append(node)
        elif any(v != a["value"] for v in got):
            wrong.append((node, got))
    ok = not missing and not wrong
    return ok, f"missing={missing} wrong={wrong}" if not ok else f"{len(nodes)} nodes agree"


def _a_session_status(result: RunResult, a: dict):
    session, code, detail = a["session"], a["status"], a.get("detail")
    bad = []
    for node in a.get("nodes") or sorted(result.users):
        statuses = result.users[node]["statuses"] if node in result.users else []
        if not any(
            s["session"] == session and s["code"] == code and (detail is None or s["detail"] == detail)
            for s in statuses
        ):
            bad.append(node)
    return not bad, f"nodes without {code}/{detail} for session {session}: {bad}" if bad else "ok"


def _a_refused_min(result: RunResult, a: dict):
    total = sum(rep["refused"] for rep in result.users.values())
    return total >= a["count"], f"refused={total}"


def _a_latency_delta(result: RunResult, a: dict):
    session, dirs = a["session"], result.search_dirs
    baseline = run_scenario({**result.spec, "faults": [], "assertions": [], "probes": {}}, dirs)
    delta = session_latency(result, session) - session_latency(baseline, session)
    return abs(delta - a["expected"]) <= a["tol"], f"delta={delta} expected={a['expected']}"


def _a_action_log(result: RunResult, a: dict):
    verbs = result.db.verbs() if result.db else []
    ok = verbs == a["verbs"] if "verbs" in a else all(v in verbs for v in a.get("contains", ()))
    return ok, f"log={verbs}"


def _a_recovery_errors(result: RunResult, a: dict):
    errors = result.db.errors if result.db else []
    return any(a["contains"] in e for e in errors), f"errors={errors}"


def _a_live_voters(result: RunResult, a: dict):
    count = result.sim.endpoint_count("voter")
    return count == a["count"], f"live voters={count}"


def _a_spmd_flag(result: RunResult, a: dict):
    return result.runtime.spmd_incoherent == a["value"], f"spmd_incoherent={result.runtime.spmd_incoherent}"


_PHASES = {phase.name: phase for phase in VoterPhase}


def check_phase_grammar(result: RunResult) -> list[str]:
    """Per-voter phase reports must walk the automaton's cycle."""
    sequences: dict[str, list[VoterPhase]] = {}
    for _, frm, _, detail in result.trace.records_of("phase"):
        sequences.setdefault(frm, []).append(_PHASES[detail.split(None, 1)[0]])
    bad = []
    for ep, seq in sequences.items():
        if seq[0] is not VoterPhase.VFP_INIT:
            bad.append(f"{ep} starts in {seq[0]}")
        for prev, cur in zip(seq, seq[1:]):
            # A restarted voter keeps its endpoint and reports VFP_INIT
            # afresh, whatever phase its predecessor was in.
            if cur is not VoterPhase.VFP_INIT and (prev, cur) not in PHASE_STEPS:
                bad.append(f"{ep}: {prev} -> {cur}")
    return bad


def _a_phase_grammar(result: RunResult, a: dict):
    bad = check_phase_grammar(result)
    return not bad, "; ".join(bad) if bad else "all voters follow the cycle"


# Each assertion type: its evaluator, the fields it may hold and, for
# some, a rule on the whole object, in the form of the scenario table
# below, which adds "type" to each.
_EVALUATORS = {
    "quiescent": (_a_quiescent, {}),
    "trace-count": (_a_trace_count, {
        "kind": (_STRING, OPTIONAL), "contains": (_STRING, ""), "equals": (_COUNT, OPTIONAL),
        "min": (_COUNT, OPTIONAL), "max": (_COUNT, OPTIONAL)}, {"apart": (("equals",), ("min", "max"))}),
    "output-equals": (_a_output_equals, {"session": (_COUNT, 0), "value": (_HEX, REQUIRED),
                                         "nodes": (_NODES, OPTIONAL)}),
    "session-status": (_a_session_status, {
        "session": (_COUNT, 0), "detail": (_STRING, OPTIONAL), "nodes": (_NODES, OPTIONAL),
        "status": ({**_STRING, "enum": tuple(code.value for code in VfStatusCode)}, "VF_DONE")}),
    "refused-min": (_a_refused_min, {"count": (_COUNT, 1)}),
    "latency-delta": (_a_latency_delta, {"session": (_COUNT, 0), "expected": (_INT, REQUIRED),
                                         "tol": (_COUNT, 1)}),
    "action-log": (_a_action_log, {"verbs": (_STRINGS, OPTIONAL), "contains": (_STRINGS, OPTIONAL)},
                   {"apart": (("verbs",), ("contains",))}),
    "recovery-errors": (_a_recovery_errors, {"contains": (_STRING, "")}),
    "live-voters": (_a_live_voters, {"count": (_COUNT, REQUIRED)}),
    "spmd-flag": (_a_spmd_flag, {"value": (_BOOL, True)}),
    "phase-grammar": (_a_phase_grammar, {}),
}


# -- the scenario table ----------------------------------------------------

# Each fault kind: the fields it holds besides kind, at, role and the
# target that _fault_target reads.
_FAULT_FIELDS = {
    "crash": {}, "value-corruption": {"mask": (_HEX, "ff")}, "omission": {},
    "delay": {"delay": ({"type": "integer", "minimum": 1}, REQUIRED)},
}

_FAULT = {"type": "object", "title": "fault", "tag": "kind", "cases": {
    kind: _object(f"{kind} fault", {
        "kind": (_STRING, REQUIRED), "at": (_COUNT, REQUIRED),
        "role": ({**_STRING, "enum": ("voter", "user")}, "voter"),
        "entity": (_COUNT, OPTIONAL), "node": (_COUNT, OPTIONAL), **fields})
    for kind, fields in _FAULT_FIELDS.items()
}}

_INPUT = _object("input", {
    "at": (_COUNT, REQUIRED), "value": (_HEX, OPTIONAL), "scalar": (_FLOAT, OPTIONAL),
    "vector": ({"type": "array", "items": _FLOAT, "minItems": 1}, OPTIONAL),
    "algorithm": (_ALGORITHM, OPTIONAL),
}, oneOf=(*_PAYLOADS, "algorithm"))

_ASSERTION = {"type": "object", "title": "assertion", "tag": "type", "cases": {
    kind: _object(f"{kind} assertion", {"type": (_STRING, REQUIRED), **fields}, **dict(*rules))
    for kind, (_, fields, *rules) in _EVALUATORS.items()
}}

_SCENARIO = _object("scenario", {
    "name": (_STRING, "unnamed"), "seed": (_INT, 0),
    "farm": (_ROWS, REQUIRED),
    "max_time": (_COUNT, 100_000), "delta_t": (_COUNT, 10),
    "delivery_delay": (_COUNT, 0), "jitter": (_COUNT, 0),
    "metric": ({**_STRING, "enum": tuple(METRICS)}, "default"),
    "algorithm": (_ALGORITHM, {}),
    "spares": ({"type": "array", "items": _object("spare", {
        "entity": (_COUNT, REQUIRED), "node": (_COUNT, REQUIRED),
    })}, []),
    "inputs": ({"type": "object", "keys": "node numbers", "each": "inputs of node {}",
                "values": {"type": "array", "items": _INPUT}}, {}),
    "faults": ({"type": "array", "items": _FAULT}, []),
    "recovery": (_object("recovery", {
        "rl": (_STRING, REQUIRED),
        "groups": ({"type": "object", "keys": "group numbers", "each": "members of group {}",
                    "values": _NODES}, {}),
    }), OPTIONAL),
    "spmd_mismatch": (_object("spmd_mismatch", {"node": (_COUNT, REQUIRED), "farm": (_ROWS, REQUIRED)}),
                      OPTIONAL),
    "probes": (_object("probes", {"double_input": (_BOOL, False), "premature_close": (_BOOL, False)}),
               {}),
    "get_polls": (_COUNT, 8), "get_timeout": (_COUNT, 40), "close_farm": (_BOOL, False),
    "assertions": ({"type": "array", "items": _ASSERTION}, []),
}, prefix="")

_DEFAULTS = {key: d for key, (_, d) in _SCENARIO["properties"].items() if d not in (REQUIRED, OPTIONAL)}
_check_scenario = _compile(_SCENARIO, "scenario")


def validate_scenario(spec: dict) -> dict:
    """The spec checked against the table, with every default filled in;
    raises ScenarioError naming the first bad value.  The farm rows'
    layout is checked once the walk has passed, so with several bad
    values a bad layout is named after any value the walk rejects."""
    checked = _check_scenario(spec, None)
    _farm_layout(checked["farm"])
    _scenario_rules(checked)
    return checked


# -- artifacts -------------------------------------------------------------

_TRACE_BLOCK = 512  # trace records rendered and written at a time
_JSON_FLUSH = 512  # results.json pieces, or a table's rows, buffered between writes


def _float_text(v: float) -> str:
    if v != v:
        return "NaN"
    return "Infinity" if v == INFINITY else "-Infinity" if v == -INFINITY else float.__repr__(v)


_SCALARS = {  # JSON text of a scalar, as json.dumps renders it, by exact type
    str: encode_basestring_ascii, int: int.__repr__, float: _float_text,
    bool: lambda v: "true" if v else "false", type(None): lambda v: "null",
}


def _table(items) -> Optional[list]:
    """The columns of a record table in key order, as (field, getter,
    render) with field the key's part of a % row template, or None.  A
    list or tuple is a table when every item is an exact dict, all have
    one and the same non-empty set of str keys, and the values under
    each key have one exact scalar type (bool apart from int); C-level
    passes over every item check it before any is written."""
    if set(map(type, items)) != {dict} or len(set(map(len, items))) != 1 or set(map(type, items[0])) != {str}:
        return None
    columns = []
    for key in sorted(items[0]):
        getter = itemgetter(key)
        try:
            kinds = set(map(type, map(getter, items)))
        except KeyError:
            return None
        render = _SCALARS.get(kinds.pop()) if len(kinds) == 1 else None
        if render is None:
            return None
        columns.append((encode_basestring_ascii(key).replace("%", "%%") + ": %s", getter, render))
    return columns


def _write_json(fh, value) -> None:
    """Write json.dumps(value, indent=2, sort_keys=True) to fh, byte for
    byte, a few hundred pieces at a time.

    value holds, by exact type, only None, bools, ints, floats, strs,
    lists, tuples (written as lists) and dicts with str keys, as
    RunResult.summary() does; a dict with another key type raises
    TypeError, and so does any other type.  A table (see _table), such
    as a user's statuses, is written through one % template built from
    its sorted keys, its columns rendered through map, so no Python code
    runs per record, and _JSON_FLUSH rows at a time, so the working set
    stays one chunk of rows however long the list."""
    pieces: list[str] = []

    def emit(value, nl: str) -> None:
        kind = type(value)
        render = _SCALARS.get(kind)
        if render is not None:
            pieces.append(render(value))
            return
        if kind is dict:
            pairs = [(f"{encode_basestring_ascii(key)}: ", value[key]) for key in sorted(value)]
            open_, close = "{", "}"
        elif kind is list or kind is tuple:
            columns = _table(value)
            if columns is not None:
                inner, row = nl + "  ", nl + "    "
                fields = ("," + row).join(field for field, _, _ in columns)
                template, lead, sep = "{" + row + fields + inner + "}", "[" + inner, "," + inner
                for start in range(0, len(value), _JSON_FLUSH):
                    chunk = value[start:start + _JSON_FLUSH]
                    rows = zip(*[map(render, map(getter, chunk)) for _, getter, render in columns])
                    pieces.append(lead + sep.join(map(template.__mod__, rows)))
                    fh.write("".join(pieces))
                    pieces.clear()
                    lead = sep
                pieces.append(nl + "]")
                return
            pairs = [("", item) for item in value]
            open_, close = "[", "]"
        else:
            raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
        if not pairs:
            pieces.append(open_ + close)
            return
        inner = nl + "  "
        sep = "," + inner
        renders = [_SCALARS.get(type(item)) for _, item in pairs]
        if None not in renders:  # all scalars: the whole container in one join
            texts = [head + render(item) for (head, item), render in zip(pairs, renders)]
            pieces.append(open_ + inner + sep.join(texts) + nl + close)
            return
        lead = open_ + inner
        for (head, item), render in zip(pairs, renders):
            if render is None:
                pieces.append(lead + head)
                emit(item, inner)
            else:
                pieces.append(lead + head + render(item))
            lead = sep
            if len(pieces) >= _JSON_FLUSH:
                fh.write("".join(pieces))
                pieces.clear()
        pieces.append(nl + close)

    emit(value, "\n")
    fh.write("".join(pieces))


def write_artifacts(result: RunResult, outdir: str) -> list[str]:
    """Write trace, results and action log; bytes depend only on the run.

    The working set is bounded: the trace is rendered and written
    _TRACE_BLOCK records at a time and results.json streamed through
    _write_json, so neither file's text is ever held whole, and a table
    of records (see _table), such as a user's statuses, goes out a chunk
    of _JSON_FLUSH rows at a time, each rendered a column at a time.  The
    bytes are those of trace.text() (plus one blank line) and of
    json.dumps(summary, indent=2, sort_keys=True) plus a newline."""
    os.makedirs(outdir, exist_ok=True)
    written = []

    trace_path = os.path.join(outdir, "trace.txt")
    trace = result.trace
    with open(trace_path, "w", encoding="utf-8") as fh:
        for start in range(0, len(trace), _TRACE_BLOCK):
            fh.write("\n".join(trace.lines(start, start + _TRACE_BLOCK)))
            fh.write("\n")
        fh.write("\n" if len(trace) else "")
    written.append(trace_path)

    results_path = os.path.join(outdir, "results.json")
    with open(results_path, "w", encoding="utf-8") as fh:
        _write_json(fh, result.summary())
        fh.write("\n")
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
