"""What `validate_scenario` says about a fixed corpus, pinned by hash.

The corpus is every bundled and regression scenario, plus each single
mutation of the kinds `test_scenario_fuzz.py` draws, enumerated in
order instead of drawn and applied to list items as well as keys: drop
a key or an item, give it a value of each other type, make it -1, add
an unknown key of each type, set a count to 0, append a copy of a list
item, empty an object, or set a string to "zz".  Each entry maps to
the canonical JSON of the checked spec (dict keys tagged with their
Python type, so an int key and a str key differ) or to its
ScenarioError message.  The SHA-256 of that map was recorded before
the validator was compiled into per-table walkers, so any rewrite of
the validator has to give every entry the same answer.
"""

import copy
import hashlib
import json
from pathlib import Path

from votingfarm.scenario import ScenarioError, bundled_dir, validate_scenario

SCENARIOS = Path(__file__).parent / "scenarios"
SOURCES = sorted(Path(bundled_dir()).glob("*.json")) + sorted(SCENARIOS.glob("*.json"))
OTHER_TYPES = ["x", 1.5, True, None, [], {}, [1], {"x": 1}]

ORACLE_ENTRIES = 16_213
ORACLE_SHA256 = "d166fbeb4ef93ea6c612308e8ad03c852bc73dddaa055c8b209a77748dab4101"


def containers(value) -> list:
    """Every JSON object and list in value, the outermost first."""
    if not isinstance(value, (dict, list)):
        return []
    found = [value]
    for child in value.values() if isinstance(value, dict) else value:
        found += containers(child)
    return found


def mutations(spec: dict):
    """(name, mutate) for every single mutation of spec.  mutate() changes
    spec in place and returns the function that undoes it."""
    def assign(t, key, value):
        def mutate():
            old = t[key]
            t[key] = copy.deepcopy(value)
            return lambda: t.__setitem__(key, old)
        return mutate

    def drop(t, key):
        def mutate():
            items = list(t.items())
            del t[key]
            return lambda: (t.clear(), t.update(items))
        return mutate

    def clear(t):
        def mutate():
            items = list(t.items())
            t.clear()
            return lambda: t.update(items)
        return mutate

    def add(t, value):
        def mutate():
            t["zz_unknown"] = copy.deepcopy(value)
            return lambda: t.pop("zz_unknown")
        return mutate

    def repeat(t, j):
        def mutate():
            t.append(copy.deepcopy(t[j]))
            return t.pop
        return mutate

    def remove(t, j):
        def mutate():
            item = t.pop(j)
            return lambda: t.insert(j, item)
        return mutate

    for i, c in enumerate(containers(spec)):
        if isinstance(c, list):
            for j, v in enumerate(c):
                yield f"{i}:repeat:{j}", repeat(c, j)
                yield f"{i}:remove:{j}", remove(c, j)
                yield f"{i}:negative:{j}", assign(c, j, -1)
                for other in OTHER_TYPES:
                    if type(other) is not type(v):
                        yield f"{i}:retype:{j}:{other!r}", assign(c, j, other)
            continue
        for key, v in c.items():
            yield f"{i}:drop:{key}", drop(c, key)
            yield f"{i}:negative:{key}", assign(c, key, -1)
            for other in OTHER_TYPES:
                if type(other) is not type(v):
                    yield f"{i}:retype:{key}:{other!r}", assign(c, key, other)
            if type(v) is int:
                yield f"{i}:zero:{key}", assign(c, key, 0)
            if type(v) is str:
                yield f"{i}:rename:{key}", assign(c, key, "zz")
        yield f"{i}:clear", clear(c)
        for other in OTHER_TYPES:
            yield f"{i}:unknown:{other!r}", add(c, other)


def tagged(value):
    """value with every dict key written as its repr, so key types show in JSON."""
    if isinstance(value, dict):
        return {repr(key): tagged(v) for key, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [tagged(v) for v in value]
    return value


def verdict(spec: dict) -> str:
    try:
        checked = validate_scenario(spec)
    except ScenarioError as exc:
        return "error: " + str(exc)
    return json.dumps(tagged(checked), sort_keys=True, separators=(",", ":"))


def oracle() -> dict[str, str]:
    answers = {}
    for source in SOURCES:
        spec = json.loads(source.read_text())
        answers[source.name] = verdict(spec)
        for name, mutate in list(mutations(spec)):
            undo = mutate()
            answers[f"{source.name}:{name}"] = verdict(spec)
            undo()
        assert spec == json.loads(source.read_text())
    return answers


def test_validator_answers_the_pinned_oracle():
    answers = oracle()
    errors = sum(v.startswith("error: ") for v in answers.values())
    assert 0 < errors < len(answers)  # the corpus both rejects and accepts
    digest = hashlib.sha256(json.dumps(answers, sort_keys=True).encode()).hexdigest()
    assert (len(answers), digest) == (ORACLE_ENTRIES, ORACLE_SHA256)
