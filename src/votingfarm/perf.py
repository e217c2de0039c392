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

An exhaustive search over both schedule families (best_permutation),
simulating each distinct schedule once, checks how good one-cycled is.
In half duplex it finds exactly 3(N-1) steps for every 3 <= N <= 8,
against a lower bound of 2(N-1): every node sends N-1 times and
receives N-1 times.  In full duplex it beats
one-cycled at N = 3 (5 steps against 6) and N = 4 (8 against 9).
"""

from __future__ import annotations

import itertools
import math
import statistics
from array import array
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .core import ValidationError, VotingFarmError
from .scenario import run_scenario, session_latency

# Largest farm best_permutation searches: 7! + 8! candidates.
EXHAUSTIVE_LIMIT = 8


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
        if n < 1:
            raise ValidationError("farm size must be at least 1")
        if sorted(self.order) != list(range(1, n + 1)):
            raise ValidationError(f"order must permute 1..{n}, got {self.order}")

    @property
    def size(self) -> int:
        return len(self.order)

    def targets(self, k: int) -> list[int]:
        if not self.relative:
            return [x for x in self.order if x != k]
        # Element 1 is the sender itself; the rest shift by k - 1, and
        # those above n - (k - 1) wrap around to the start.
        shift = k - 1
        wrap = len(self.order) - shift
        return [x + shift if x <= wrap else x - wrap for x in self.order if x != 1]


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

    A step builds no buffers.  Each node has a sending and a receiving
    stamp, made once per call: a node is busy in step s when its stamp
    equals s.  In half duplex the two stamps are one list, so a node
    busy receiving cannot send in the same step.  A receipt is counted
    at its transfer.  The node it makes ready joins the senders at once
    but is stamped busy sending, so it first sends in the next step, as
    counting receipts at the end of the step would have it.
    """
    if mode not in ("half", "full"):
        raise ValidationError(f"unknown crossbar mode {mode!r}")
    n = perm.size
    # One compact row per sender: a list would box each ident above 256.
    code = "H" if n < 1 << 16 else "L"
    targets = [array(code)] + [array(code, perm.targets(k)) for k in range(1, n + 1)]
    sent = [0] * (n + 1)
    counts = [1] * (n + 1)  # everyone holds its own input
    sending = [0] * (n + 1)
    receiving = sending if mode == "half" else [0] * (n + 1)
    # Senders with targets left that hold k messages, lowest ident first:
    # sender 1 from the start, receiver t once its count reaches t.  While
    # only senders 1..m have been ready, a node j > m + 1 holds at most m
    # of the j - 1 receipts it needs, so only m + 1 can join next and
    # appending keeps the list sorted.  The first ready sender always
    # transfers, so the run ends when no sender is ready.
    ready = [1] if n > 1 else []
    last = n - 1
    steps = 0
    while ready:
        steps += 1
        finished = False
        for k in ready:
            if sending[k] == steps:
                continue
            target = targets[k][sent[k]]
            if receiving[target] == steps:
                continue
            sending[k] = receiving[target] = steps
            sent[k] += 1
            if sent[k] == last:
                finished = True
            counts[target] += 1
            if counts[target] == target:
                ready.append(target)
                sending[target] = steps
        if finished:
            ready = [k for k in ready if sent[k] < last]
    if sum(sent) != n * last:
        raise VotingFarmError("schedule stalled; eligibility rule violated")
    if steps == 0:
        return ScheduleResult(0, 0, 0.0)
    messages = n * (n - 1)
    capacity = steps * n / 2 if mode == "half" else steps * n
    return ScheduleResult(steps, messages, messages / capacity)


def _batch_steps(targets: np.ndarray, mode: str, limit: int) -> np.ndarray:
    """Step counts of many schedules, simulated side by side.

    targets[p, k] is sender k's target list in candidate p (row 0 is
    unused).  Each step visits the senders that can act in ident order,
    vectorized over the candidates, so contention resolves lowest sender
    first exactly as in schedule_steps.  A candidate that cannot finish
    within `limit` steps gets limit + 1.

    Before each step, a candidate whose lower bound on the steps it
    still needs exceeds the steps left is dropped and its rows are
    compacted away.  The bound never drops a candidate that could finish
    in time, so every count equals running all candidates to the limit:

      - half duplex: a node takes part in one transfer per step, so it
        needs at least its sends left plus its receipts left;
      - full duplex: a node receives at most once per step, and sender k
        sends at most once per step and only once it holds k messages,
        counting a receipt at the end of its step, so it needs at least
        max(receipts left, sends left + receipts still missing before
        its first send);
      - the whole farm: a step moves at most N//2 messages in half
        duplex and N in full, and each message left is a receipt left.

    State is int8, which holds these bounds for N <= 64.
    """
    size, n1, width = targets.shape
    n = n1 - 1
    table = targets.reshape(-1)
    idents = np.arange(1, n1, dtype=np.int8)[:, None]
    per_step = n // 2 if mode == "half" else n
    steps = np.full(size, limit + 1)
    index = np.arange(size)  # the candidate in each live row
    sent = np.zeros((n1, size), np.int8)
    counts = np.ones((n1, size), np.int8)
    remaining = np.full(size, n * width)
    role = None
    for done in range(limit + 1):
        left = limit - done
        if mode == "half":
            need = (width - sent[1:]) + (n - counts[1:])
        else:
            wait = np.maximum(idents - counts[1:], 0)
            need = np.maximum(n - counts[1:], (width - sent[1:]) + wait)
        lower = need.max(axis=0)
        live = (lower > 0) & (lower <= left) & (remaining <= per_step * left)
        if not live.all():
            steps[index[lower == 0]] = done
            if not live.any():
                break
            index, remaining = index[live], remaining[live]
            sent, counts = sent[:, live], counts[:, live]
            role = None
        if role is None:
            size = index.size
            list_base = index * (n1 * width)
            rows = np.arange(size)
            # What each node does this step: 0 idle, bit 0 sending, bit 1
            # receiving; node t of row p sits at flat slot t * size + p.
            role = np.zeros((n1, size), np.int8)
            flat_role = role.reshape(-1)
        else:
            role[:] = 0
        ready = (counts[1:] >= idents) & (sent[1:] < width)
        for k, can_act in enumerate(ready.any(axis=1).tolist(), 1):
            if not can_act:
                continue
            # A finished sender reads past its list (clipped at the end of
            # the table); it is not ready, so what it reads is never used.
            target = table.take(list_base + (k * width) + sent[k], mode="clip")
            slot = np.multiply(target, size, dtype=np.intp)
            slot += rows
            at_target = flat_role.take(slot)
            # Half duplex needs both ends idle; full duplex only a target
            # that is not receiving yet.
            if mode == "half":
                ok = ready[k - 1] & (role[k] == 0) & (at_target == 0)
            else:
                ok = ready[k - 1] & (at_target < 2)
            flat_role[slot[ok]] = 2
            role[k] |= ok
            sent[k] += ok
        received = role[1:] >> 1
        # Summed in int8: widening would allocate an (N, P) int64 copy.
        moved = received.sum(axis=0, dtype=np.int8)
        if (moved == 0).any():
            raise VotingFarmError("schedule stalled; eligibility rule violated")
        counts[1:] += received
        remaining -= moved
    return steps


def _candidate_blocks(n: int):
    """Every distinct candidate order, in blocks that share a leading
    element.

    A relative order's targets skip element 1 wherever it stands, so the
    relative block led by 1 holds every distinct relative schedule, and
    the other relative blocks only later copies of it, which cannot win.
    That block comes first, then the n absolute blocks, and rows within
    a block follow itertools.permutations order, so the concatenation is
    the order the search tie-breaks by.
    """
    rows = math.factorial(n - 1)
    tails = np.fromiter(
        itertools.chain.from_iterable(itertools.permutations(range(n - 1))),
        np.int8,
        count=rows * (n - 1),
    ).reshape(rows, n - 1)
    for relative, leads in ((True, [1]), (False, range(1, n + 1))):
        for lead in leads:
            orders = np.empty((rows, n), np.int8)
            orders[:, 0] = lead
            tail = orders[:, 1:]
            np.add(tails, 1, out=tail)
            tail += tail >= lead  # skip the leading element
            yield relative, orders


def _block_targets(orders: np.ndarray, relative: bool) -> np.ndarray:
    """The (P, N+1, N-1) target table of SchedulePermutation.targets.

    A relative order maps element 1 to the sender itself, whoever sends,
    so one compress of each row serves every sender, shifted by k - 1.
    """
    size, n = orders.shape
    table = np.zeros((size, n + 1, n - 1), np.int8)
    if relative:
        rest = orders[orders != 1].reshape(size, n - 1)
        for k in range(1, n + 1):
            table[:, k] = (rest + (k - 2)) % n + 1
    else:
        for k in range(1, n + 1):
            table[:, k] = orders[orders != k].reshape(size, n - 1)
    return table


def best_permutation(n: int, mode: str = "half") -> tuple[SchedulePermutation, ScheduleResult]:
    """Lowest-step schedule.

    Exhaustive over both families up to EXHAUSTIVE_LIMIT ((n-1)! + n!
    distinct candidates, relative orders first, each family in
    itertools.permutations order; the first candidate with the fewest
    steps wins).  Beyond it the one-cycled schedule is returned
    unsearched.  A candidate is dropped as soon as a lower bound on its
    steps shows it cannot beat the best so far (branch and bound), so
    most stop after a few steps.

    What the search finds: in half duplex one-cycled is optimal, at
    exactly 3(n-1) steps, for every 3 <= n <= 8; the lower bound is
    2(n-1), since every node sends n-1 times and receives n-1 times.
    In full duplex one-cycled is not always optimal: n = 3 takes 5 steps
    with absolute order (1, 2, 3) against its 6, and n = 4 takes 8 with
    relative order (1, 2, 4, 3) against its 9.
    """
    best_perm = one_cycled_permutation(n)
    best = schedule_steps(best_perm, mode)
    if n > EXHAUSTIVE_LIMIT:
        return best_perm, best
    # One-cycled is the first candidate, so a later one wins only with
    # strictly fewer steps, and one that cannot finish within best - 1
    # steps cannot win.
    best_steps, winner = best.steps, None
    for relative, orders in _candidate_blocks(n):
        steps = _batch_steps(_block_targets(orders, relative), mode, best_steps - 1)
        i = int(np.argmin(steps))
        if steps[i] < best_steps:
            best_steps, winner = int(steps[i]), (orders[i], relative)
    if winner is None:
        return best_perm, best
    order, relative = winner
    best_perm = SchedulePermutation(tuple(int(x) for x in order), relative)
    return best_perm, schedule_steps(best_perm, mode)


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
        sim.endpoint_count("voter"),
        sim.link_count("local"),
        sim.link_count("virtual"),
    )


# -- one-session timing harness ---------------------------------------------

_HARNESS_DELTA_T = 10  # the farm timeout of every timing_harness run


def timing_harness(
    n_values: Iterable[int] = (1, 2, 3, 4),
    jitter: int = 0,
    repeats: int = 1,
    seed: int = 0,
) -> list[dict]:
    """Mean and spread of one voting session's latency per farm size.

    Each run is a generated scenario: an n-member farm, one node per
    member, delta_t 10, a delivery delay of one tick, and every node
    feeding one input at t=10.  Latency is simulated time from the user
    inputs to the last completion notice.  With jitter 0 the simulation
    is deterministic and the spread is exactly zero; a positive jitter
    draws seeded per-message delays, and repeats vary the seed.
    """
    if repeats < 1:
        raise ValidationError("repeats must be at least 1")
    out = []
    for n in n_values:
        nodes = range(1, n + 1)
        spec = {
            "farm": [[k, k] for k in nodes],
            "delta_t": _HARNESS_DELTA_T,
            "delivery_delay": 1,
            "jitter": jitter,
            "get_timeout": 4 * _HARNESS_DELTA_T * n + 8,
            "inputs": {str(k): [{"at": 10, "value": "2a"}] for k in nodes},
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
