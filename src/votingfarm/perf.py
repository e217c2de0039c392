"""Performance analysis of the broadcast stage.

The N voters of a farm all broadcast their input to the N-1 fellows.
On a synchronous crossbar, how long that takes depends on the order in
which each voter visits its targets.  The model here is deliberately
simple and fully declared:

  - time advances in steps; a transfer occupies both its endpoints for
    one whole step (a node takes part in at most one transfer per
    step), so a step moves at most floor(N/2) messages;
  - each sender works through its own target list strictly in order; a
    blocked head-of-line transfer retries next step;
  - contention resolves lowest sender ident first;
  - sender k starts only once it holds k messages (its own input plus
    k-1 received broadcasts), mirroring the farm's turn rule; receipt
    counts update at the end of the step.

Under this model the "everyone counts 1, 2, 3, ..." schedule (identity)
needs a quadratic number of steps, while the one-cycled schedule (k
sends to k+1, k+2, ... cyclically) finishes in exactly 3(N-1) steps and
keeps 2/3 of the crossbar capacity busy.  Those two claims are what the
regression tests pin down; the constants are properties of this model,
not universal truths.
"""

from __future__ import annotations

import itertools
import statistics
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .core import ValidationError, VotingFarmError
from .scenario import run_scenario, session_latency


@dataclass(frozen=True)
class SchedulePermutation:
    """A broadcast target order, shared by all members.

    With relative=False the order lists absolute member idents and each
    sender skips itself.  With relative=True the order is rotated by
    the sender's own ident, so order (1, 2, ..., N) means "my next
    neighbour first, then the one after" - the one-cycled schedule.
    """

    order: tuple[int, ...]
    relative: bool = False

    def __post_init__(self) -> None:
        n = len(self.order)
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValidationError(f"order must permute 1..{n}, got {self.order}")

    @property
    def size(self) -> int:
        return len(self.order)

    def targets(self, k: int) -> list[int]:
        n = len(self.order)
        if self.relative:
            seq = [((x - 1 + (k - 1)) % n) + 1 for x in self.order]
        else:
            seq = list(self.order)
        return [t for t in seq if t != k]


def identity_permutation(n: int) -> SchedulePermutation:
    return SchedulePermutation(tuple(range(1, n + 1)), relative=False)


def one_cycled_permutation(n: int) -> SchedulePermutation:
    return SchedulePermutation(tuple(range(1, n + 1)), relative=True)


@dataclass(frozen=True)
class ScheduleResult:
    steps: int
    messages: int
    utilization: float


def schedule_steps(perm: SchedulePermutation, mode: str = "half") -> ScheduleResult:
    """Simulate the broadcast stage and count crossbar steps.

    mode "half" is the documented model (a node does one transfer per
    step, sending or receiving).  mode "full" lets a node send and
    receive in the same step; it exists for comparison runs only.
    """
    if mode not in ("half", "full"):
        raise ValidationError(f"unknown crossbar mode {mode!r}")
    n = perm.size
    fifos = {k: deque(perm.targets(k)) for k in range(1, n + 1)}
    counts = {k: 1 for k in range(1, n + 1)}  # everyone holds its own input
    steps = 0
    messages = 0
    while any(fifos.values()):
        steps += 1
        busy: set[int] = set()
        # In half duplex a receiving node is busy for sending too.
        receiving = busy if mode == "half" else set()
        transfers: list[tuple[int, int]] = []
        for k in range(1, n + 1):
            if not fifos[k] or counts[k] < k:
                continue
            target = fifos[k][0]
            if k in busy or target in receiving:
                continue
            busy.add(k)
            receiving.add(target)
            fifos[k].popleft()
            transfers.append((k, target))
        if not transfers:
            raise VotingFarmError("schedule stalled; eligibility rule violated")
        for _, target in transfers:
            counts[target] += 1
        messages += len(transfers)
    if steps == 0:
        return ScheduleResult(0, 0, 0.0)
    capacity = steps * n / 2 if mode == "half" else steps * n
    return ScheduleResult(steps, messages, messages / capacity)


def best_permutation(
    n: int, mode: str = "half", exhaustive_limit: int = 8
) -> tuple[SchedulePermutation, ScheduleResult]:
    """Lowest-step schedule.

    Exhaustive over both families up to the limit (2 * n! candidates);
    beyond that the one-cycled schedule is returned as the heuristic
    answer - it is provably within the searched optimum for every n we
    can check.
    """
    one_cycled = one_cycled_permutation(n)
    if n > exhaustive_limit:
        return one_cycled, schedule_steps(one_cycled, mode)
    best: Optional[tuple[SchedulePermutation, ScheduleResult]] = None
    for relative in (True, False):
        for order in itertools.permutations(range(1, n + 1)):
            perm = SchedulePermutation(order, relative)
            result = schedule_steps(perm, mode)
            if best is None or result.steps < best[1].steps:
                best = (perm, result)
    assert best is not None
    return best


def fit_polynomial(ns: Sequence[int], values: Sequence[float], degree: int):
    """Least-squares polynomial fit; returns (coefficients, r_squared)."""
    x = np.asarray(ns, dtype=float)
    y = np.asarray(values, dtype=float)
    coeffs = np.polyfit(x, y, degree)
    predicted = np.polyval(coeffs, x)
    ss_res = float(np.sum((y - predicted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - ss_res / ss_tot
    return coeffs, r2


# -- farm resource accounting ---------------------------------------------

def resource_report(n: int) -> tuple[int, int, int]:
    """(voters, local links, virtual links) for an n-member farm."""
    if n < 1:
        raise ValidationError("farm size must be at least 1")
    return n, n, n * (n - 1) // 2


def live_resource_counts(n: int) -> tuple[int, int, int]:
    """Build an n-member farm for real and count its fabric objects."""
    sim = run_scenario({"farm": [[k, k] for k in range(1, n + 1)]}).sim
    return (
        sim.endpoint_count("voter", live_only=True),
        sim.link_count("local"),
        sim.link_count("virtual"),
    )


# -- one-session timing harness ---------------------------------------------

def timing_harness(
    n_values: Iterable[int] = (1, 2, 3, 4),
    delta_t: int = 10,
    delivery_delay: int = 1,
    jitter: int = 0,
    repeats: int = 1,
    seed: int = 0,
    input_time: int = 10,
) -> list[dict]:
    """Mean and spread of one voting session's latency per farm size.

    Each run is a generated scenario: an n-member farm, one node per
    member, every node feeding one input at input_time.  Latency is
    simulated time from the user inputs to the last completion notice.
    With jitter 0 the simulation is deterministic and the spread is
    exactly zero; a positive jitter draws seeded per-message delays,
    and repeats vary the seed.
    """
    if repeats < 1:
        raise ValidationError("repeats must be at least 1")
    out = []
    for n in n_values:
        nodes = range(1, n + 1)
        spec = {
            "farm": [[k, k] for k in nodes],
            "delta_t": delta_t,
            "delivery_delay": delivery_delay,
            "jitter": jitter,
            "get_timeout": 4 * delta_t * n + 8,
            "inputs": {str(k): [{"at": input_time, "value": "2a"}] for k in nodes},
        }
        latencies = [
            session_latency(run_scenario({**spec, "seed": seed + rep}), 0)
            for rep in range(repeats)
        ]
        out.append(
            {
                "n": n,
                "mean": statistics.fmean(latencies),
                "std": statistics.pstdev(latencies),
            }
        )
    return out


def table_text(rows: list[dict]) -> str:
    """Render harness output in the documented comma-separated layout."""
    lines = ["N,average,standard deviation"]
    lines.extend(f"{r['n']},{r['mean']:g},{r['std']:g}" for r in rows)
    return "\n".join(lines) + "\n"
