"""What whole runs do over a fixed corpus of 1,904 scenarios, pinned by hash.

The corpus is enumerated in order, never drawn.  Its outer product is
every farm layout (N = 1..8 with one member per node, and for N = 2..6
and N = 3..6 the layouts where node 1, or node 2, hosts two members) x
every strategy (none, the bundled ones and those under tests/scenarios)
x every fault (none, each fault kind on a voter, on a user and on the
spare, and a delay then a crash of the voter a strategy watches, so a
restarted voter can send on a link where its predecessor's delayed
frame is still in flight).  Each run's index then picks, in mixed
radix, the technique, the metric, the users' inputs (equal or
differing), the delivery delay, jitter and delta_t, the fault's time,
whether the second session switches technique first, and the probes.
Every run declares one spare, entity N + 1, on a node of its own or on
a member's node.

Each run maps to the SHA-256 of its trace.txt, results.json and
actions.log bytes, or of the exception's type and message when the run
raises.  The runs fall in 64 buckets of consecutive indexes, and each
bucket's digest over its runs' hashes is pinned.  A change meant to
leave simulated behaviour alone must leave every bucket as it is; a
change that alters behaviour on purpose regenerates them and says why.
The pins hold today's known defects too: the duplicate statuses of a
user whose node hosts two members, and a ballot closed by slot count
rather than by member.

The specs are built here rather than under tests/scenarios, whose JSON
files feed the validator oracle's pinned corpus.
"""

import hashlib
import io
from pathlib import Path

from votingfarm import scenario as scenario_module
from votingfarm.scenario import bundled_dir, run_scenario, write_artifacts

SCENARIOS = Path(__file__).resolve().parent / "scenarios"
DIRS = (str(SCENARIOS), bundled_dir())

LAYOUTS = [
    rows
    for n in range(1, 9)
    for rows in (
        [[i, i] for i in range(1, n + 1)],
        [[1, 1], [1, 2], *([i - 1, i] for i in range(3, n + 1))] if 2 <= n <= 6 else None,
        [[1, 1], [2, 2], [2, 3], *([i - 1, i] for i in range(4, n + 1))] if 3 <= n <= 6 else None,
    )
    if rows is not None
]
STRATEGIES = {  # each strategy, and the entity whose fault its rule tests
    None: 1, "table4.rl": 1, "table5.rl": 2, "restart_shared_node.rl": 3, "reboot_shared_node.rl": 1,
    "shutdown_shared_node.rl": 2, "kill_two_start_spare.rl": 1, "shutdown_director_node.rl": 1,
}
FAULTS = [None] + [
    (kind, role) for kind in ("crash", "value-corruption", "omission", "delay")
    for role in ("voter", "user", "spare")
] + [("delay", "crashing voter")]  # then a crash, while the delayed frame is in flight
TECHNIQUES = [
    {"kind": "majority"}, {"kind": "median"}, {"kind": "plurality"},
    {"kind": "plurality", "epsilon": 0.01, "tie_break": "lowest-member"},
    {"kind": "weighted-average"}, {"kind": "weighted-average", "scaling_factor": 2.5},
    {"kind": "consensus", "epsilon": 0.01},
]
METRICS = ["default", "scalar", "euclidean"]
INPUTS = [  # the value user k (1-based, in node order) inputs
    lambda k: 42.0,
    lambda k: 7.0 if k == 1 else 42.0,
    lambda k: float(k),
    lambda k: 42.0 + 0.001 * k,
    lambda k: 1.0 if k % 2 else 2.0,
]
TIMINGS = [  # (delivery_delay, jitter, delta_t)
    (0, 0, 10), (1, 0, 10), (1, 2, 10), (0, 1, 2), (1, 0, 2),
    (2, 1, 25), (0, 0, 4), (1, 1, 30), (0, 3, 6),
]
FAULT_TIMES = [0, 5, 12, 15, 58, 65]
SESSIONS = (10, 60)

RUNS = len(LAYOUTS) * len(STRATEGIES) * len(FAULTS)
BUCKETS = 64


def payload(metric: str, value: float, i: int) -> dict:
    if metric == "scalar":
        return {"scalar": value}
    if metric == "euclidean":
        return {"vector": [value, -value]}
    return {"scalar": value} if i % 2 else {"value": bytes([int(value * 1000) % 256]).hex()}


def scenario(i: int) -> dict:
    """The i-th spec of the corpus."""
    fault = FAULTS[i % len(FAULTS)]
    strategy, watched = list(STRATEGIES.items())[i // len(FAULTS) % len(STRATEGIES)]
    farm = LAYOUTS[i // (len(FAULTS) * len(STRATEGIES))]
    technique = TECHNIQUES[i % len(TECHNIQUES)]
    metric = METRICS[i // 7 % len(METRICS)]
    value_of = INPUTS[i // 21 % len(INPUTS)]
    delivery_delay, jitter, delta_t = TIMINGS[i // 105 % len(TIMINGS)]
    at = FAULT_TIMES[i // 3 % len(FAULT_TIMES)]
    spare = len(farm) + 1
    spare_node = spare if i // 2 % 2 else farm[-1][0]
    farm_nodes = sorted({node for node, _ in farm})
    inputs = {}
    for k, node in enumerate(farm_nodes, start=1):
        items = [{"at": t, **payload(metric, value_of(k), i)} for t in SESSIONS]
        if i % 3 == 2 and len(SESSIONS) > 1:  # the second session votes with another technique
            items.insert(1, {"at": SESSIONS[1] - 5, "algorithm": TECHNIQUES[(i + 3) % len(TECHNIQUES)]})
        inputs[str(node)] = items
    if spare_node not in farm_nodes:
        inputs[str(spare_node)] = [{"at": SESSIONS[-1], **payload(metric, value_of(spare), i)}]
    spec = {
        "name": f"run{i}",
        "seed": i,
        "farm": farm,
        "spares": [{"entity": spare, "node": spare_node}],
        "algorithm": technique,
        "metric": metric,
        "delta_t": delta_t,
        "delivery_delay": delivery_delay,
        "jitter": jitter,
        "inputs": inputs,
        "close_farm": i % 4 == 3,
        "probes": {"double_input": i % 17 == 5, "premature_close": i % 19 == 7},
        "assertions": [{"type": "quiescent"}],
    }
    if strategy is not None:
        spec["recovery"] = {"rl": strategy, "groups": {"1": [ident for _, ident in farm]}}
    if fault is not None:
        kind, role = fault
        f = {"kind": kind, "role": "user" if role == "user" else "voter", "at": at}
        if role == "user":
            f["node"] = farm_nodes[i % len(farm_nodes)]
        elif role == "spare":
            f["entity"] = spare
        else:
            f["entity"] = watched if watched <= len(farm) and i // 5 % 2 else farm[i % len(farm)][1]
        if kind == "delay":
            f["delay"] = 3 if i % 2 else 15
        if kind == "value-corruption":
            f["mask"] = "ff" if i % 2 else "0f00000000000000"
        spec["faults"] = [f]
        if role == "crashing voter":
            # The watched voter's frame sent after t=12 lands after the next
            # input, and the voter crashes at 20: a successor the strategy
            # restarts may send on the same link while that frame is in flight.
            f.update(entity=watched if watched <= len(farm) else 1, at=12, delay=50)
            spec["faults"].append({"kind": "crash", "role": "voter", "entity": f["entity"], "at": 20})
    return spec


class MemoryFile(io.StringIO):
    """A file write_artifacts opens, kept in files under its path once
    closed: the same text, without the disk's cost."""

    def __init__(self, files: dict, path: str, mode: str, encoding: str):
        assert (mode, encoding) == ("w", "utf-8")
        super().__init__()
        self.files, self.path = files, path

    def close(self) -> None:
        self.files[self.path] = self.getvalue()
        super().close()


def run_digest(spec: dict, outdir: Path, files: dict) -> str:
    """SHA-256 over the run's three artifact files, or over the error it raised."""
    h = hashlib.sha256()
    try:
        written = write_artifacts(run_scenario(spec, DIRS), str(outdir))
    except Exception as exc:
        h.update(f"{type(exc).__name__}: {exc}".encode())
        return h.hexdigest()
    for path in written:
        h.update(files.pop(path).encode())
        h.update(b"\0")
    return h.hexdigest()


def bucket_digests(outdir: Path, files: dict) -> list[str]:
    """The first 16 hex digits of each bucket's digest over its runs' digests."""
    buckets = [hashlib.sha256() for _ in range(BUCKETS)]
    for i in range(RUNS):
        buckets[i * BUCKETS // RUNS].update(run_digest(scenario(i), outdir, files).encode())
    return [b.hexdigest()[:16] for b in buckets]


ORACLE_RUNS = 1_904
ORACLE_BUCKETS = [
    "628ae6fc57ea068a", "fa126d9aff42a578", "701910f6e89fbb53", "fe59bdb7f70484ba",
    "4eabb3a631fd2318", "722453e0b5ae4fa8", "bf5a1f5664bdbcd5", "acb1bc13a551d701",
    "d3b1ba8f917762de", "bb0b8575531aea4f", "b07bbb0b70cd4f9f", "1d147616830620e0",
    "d41931cea6a63c74", "c2b7411673fb25fd", "78aef67183d91fca", "bca09d1d14ced1d5",
    "d70d6974914fe76b", "b18edfae139cd0ab", "959da0ec3fd20ad8", "abe23f6dec1f9805",
    "2c3a54da13572209", "e91c4c27ceadcee8", "e4242a0d442b8b7c", "d4899b4b0c5085e4",
    "a7e0ff2450f98c5a", "b0062449ebbb8740", "22e73f277ab4d2c4", "3e8eaef21f3de0e0",
    "71852efc683e7b83", "6b8397a4717fbc7c", "2d083f5785bc2ce6", "df0fa9e8e6b2ffbc",
    "c81c7e72f0cb3277", "acc7065ef80d06d4", "62777a1cd6d2b1dc", "8e3e8efa2a45dd4c",
    "ff455a4e259bdd18", "e035616d2dc91726", "413788cb50ea821a", "d557ebf03627d610",
    "3cc7babdeb4c9032", "4b55e08e97cc58e4", "b6eafb5f689f5361", "26cbd0bd196f75b7",
    "60c8fbb6fbff9106", "2d7159eeb377888e", "17b5d3610e36b658", "b9d91f21931c8b2b",
    "58ab120419201efd", "0a3b4ce66114334f", "c5c1c749d82266f4", "fbaabf31e92a42d4",
    "311a12545b9a02cd", "d8722b1e931cb497", "798d7e4f1653b426", "1b8c7ed1544e7d3c",
    "20f3fce5176b8bf7", "e49c4e386d4eeda1", "e5fc443d600a579e", "922df616689c4ef5",
    "53923d306e1b996f", "6e50d66d909ce131", "4eec3f9383380748", "1d888b06931e0625",
]


def test_runs_answer_the_pinned_oracle(tmp_path, monkeypatch):
    files = {}
    monkeypatch.setattr(scenario_module, "open", lambda *args, **kw: MemoryFile(files, *args, **kw),
                        raising=False)
    assert RUNS == ORACLE_RUNS
    got = bucket_digests(tmp_path, files)
    moved = [
        f"bucket {b} (runs {-(-b * RUNS // BUCKETS)}..{-(-(b + 1) * RUNS // BUCKETS) - 1})"
        for b, (mine, pinned) in enumerate(zip(got, ORACLE_BUCKETS)) if mine != pinned
    ]
    assert not moved and len(got) == len(ORACLE_BUCKETS), moved or got
