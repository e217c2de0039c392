"""Voting techniques over an opaque metric space.

A ballot is the list of vote objects one voter collected in a session,
in arrival order.  All techniques see the same inputs: the ballot and a
distance function on payloads.  Items marked invalid (timeouts, missing
inputs) count toward the ballot size N but can never win.

Five techniques are provided:

* formalized majority: an equivalence class must exceed N/2,
* generalized median: repeatedly discard the two mutually farthest
  items until one survives,
* formalized plurality: the largest equivalence class wins,
* weighted average: distance-weighted mean of numeric payloads,
* consensus: unanimity over the whole ballot.

Equivalence classes use epsilon linkage: two valid items are related if
their distance is <= epsilon, and classes are the transitive closure of
that relation.  With epsilon = 0 and the default discrete metric the
classes are groups of byte-identical payloads.

A metric is passed as a function or as its name in METRICS.  The
techniques work on one N x N distance matrix per ballot.  For the
scalar metric passed by name it is computed in numpy as |x_a - x_b|
over the decoded values, the same IEEE operation scalar_metric
performs; any other metric, and any metric passed as a function, fills
it with pairwise calls.  Where equality of a key is the linkage
relation, classes are grouped by that key in O(N) and no matrix is
built: payload bytes for the default metric with epsilon < 1, the
decoded value for the scalar metric at epsilon = 0, both by name.  A
non-finite scalar stays a singleton there, because inf - inf is NaN and
NaN is never <= epsilon.  The median ranks a NaN distance as farther
than any number, so a non-finite item is discarded first, and it ranks
an even count's last two survivors by math.fsum of their distances,
which is correctly rounded on every Python version.

Every technique reads the valid items in one canonical order, by
(member ident, payload, slot), so what it returns or raises depends on
the ballot's items and never on the order they arrived in.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from .core import VoteObject, VotingFarmError

MetricFn = Callable[[bytes, bytes], float]


class NoDecision(VotingFarmError):
    """The ballot does not determine a winner under the chosen rule."""


class LengthMismatch(VotingFarmError):
    """The default metric refuses to compare payloads of unequal size."""


def default_metric(a: bytes, b: bytes) -> float:
    """Discrete metric: 0 for byte-identical payloads, 1 otherwise."""
    if len(a) != len(b):
        raise LengthMismatch(f"{len(a)} vs {len(b)} bytes")
    return 0.0 if a == b else 1.0


def scalar_metric(a: bytes, b: bytes) -> float:
    """Absolute difference of two encoded scalars."""
    return abs(decode_scalar(a) - decode_scalar(b))


def euclidean_metric(a: bytes, b: bytes) -> float:
    """Euclidean distance between two encoded vectors."""
    return float(np.linalg.norm(decode_vector(a) - decode_vector(b)))


METRICS: dict[str, MetricFn] = {
    "default": default_metric,
    "scalar": scalar_metric,
    "euclidean": euclidean_metric,
}


def encode_scalar(x: float) -> bytes:
    return struct.pack("<d", x)


def decode_scalar(data: bytes) -> float:
    if len(data) != 8:
        raise LengthMismatch(f"scalar payload must be 8 bytes, got {len(data)}")
    return struct.unpack("<d", data)[0]


def encode_vector(v: Sequence[float]) -> bytes:
    return np.asarray(v, dtype="<f8").tobytes()


def decode_vector(data: bytes) -> np.ndarray:
    if len(data) == 0 or len(data) % 8:
        raise LengthMismatch(f"vector payload must be a multiple of 8 bytes, got {len(data)}")
    return np.frombuffer(data, dtype="<f8")


@dataclass(frozen=True)
class AlgorithmSelect:
    """Which technique to run and with what knobs.

    epsilon is the linkage radius for class-based techniques and the
    agreement radius for consensus.  scaling_factor is the weighted
    average's s parameter.  tie_break applies to plurality only:
    "none" turns ties into NoDecision, "lowest-member" picks the tied
    class containing the smallest member ident.
    """

    kind: str = "majority"
    epsilon: float = 0.0
    scaling_factor: float = 1.0
    tie_break: str = "none"

    KINDS = ("majority", "median", "plurality", "weighted-average", "consensus")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise VotingFarmError(f"unknown voting technique {self.kind!r}")
        if self.epsilon < 0:
            raise VotingFarmError("epsilon must be >= 0")
        if self.scaling_factor <= 0:
            raise VotingFarmError("scaling factor must be > 0")
        for name in ("epsilon", "scaling_factor"):
            try:
                float(getattr(self, name))
            except OverflowError:
                raise VotingFarmError(f"{name} must fit in a float64") from None
        if self.tie_break not in ("none", "lowest-member"):
            raise VotingFarmError(f"unknown tie break {self.tie_break!r}")


Ballot = Sequence[VoteObject]
Metric = Union[MetricFn, str]

def _resolve(metric: Metric) -> tuple[Optional[str], MetricFn]:
    """The METRICS name (None for a function) and the function of a metric."""
    if isinstance(metric, str):
        return metric, METRICS[metric]
    return None, metric


def _valid_items(ballot: Ballot) -> list[tuple[int, VoteObject]]:
    """The valid (slot, item) pairs in canonical order: by member ident,
    then payload, then slot, which only orders identical items."""
    valid = [(obj.source, obj.payload, i, obj) for i, obj in enumerate(ballot) if obj.valid]
    valid.sort()
    return [(i, obj) for _, _, i, obj in valid]


def _payload_ids(payloads: list[bytes]) -> list[int]:
    """Number equal payloads alike, refusing unequal sizes as default_metric does."""
    width = len(payloads[0])
    for p in payloads:
        if len(p) != width:
            raise LengthMismatch(f"{width} vs {len(p)} bytes")
    ids: dict[bytes, int] = {}
    return [ids.setdefault(p, len(ids)) for p in payloads]


def _decode_scalars(payloads: list[bytes]) -> np.ndarray:
    for p in payloads:
        if len(p) != 8:
            decode_scalar(p)  # raises LengthMismatch for the first bad payload
    return np.frombuffer(b"".join(payloads), dtype="<f8")


def _distance_matrix(items: list[tuple[int, VoteObject]], metric: Metric) -> np.ndarray:
    """Distances between the valid items: symmetric, with a zero diagonal.

    Built from the payloads only when there are two items or more, so a
    lone item is never decoded.  The first bad payload in canonical
    order raises, as the pairwise calls in (a, b) order would.
    """
    n = len(items)
    d = np.zeros((n, n))
    if n < 2:
        return d
    name, fn = _resolve(metric)
    payloads = [obj.payload for _, obj in items]
    if name == "scalar":
        x = _decode_scalars(payloads)
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in scalar_metric
            d = np.abs(x[:, None] - x[None, :])
    else:
        for a in range(n):
            for b in range(a + 1, n):
                d[a, b] = d[b, a] = fn(payloads[a], payloads[b])
    np.fill_diagonal(d, 0.0)
    return d


def _linkage_keys(items: list[tuple[int, VoteObject]], metric: Metric, epsilon: float) -> Optional[list]:
    """Keys whose equality is epsilon linkage, where such keys exist.

    Needs two items or more.  None means only the distance matrix can
    decide linkage.
    """
    name, _ = _resolve(metric)
    payloads = [obj.payload for _, obj in items]
    if name == "default" and 0 <= epsilon < 1:
        return _payload_ids(payloads)
    if name == "scalar" and epsilon == 0:
        values = _decode_scalars(payloads).tolist()
        return [x if math.isfinite(x) else object() for x in values]
    return None


def equivalence_classes(ballot: Ballot, metric: Metric, epsilon: float) -> list[list[int]]:
    """Partition the valid ballot slots into epsilon-linkage classes.

    Returns lists of ballot indices, each class and the classes in
    canonical order: the class holding the lowest member ident first.
    """
    items = _valid_items(ballot)
    if len(items) < 2:
        return [[i] for i, _ in items]
    keys = _linkage_keys(items, metric, epsilon)
    if keys is not None:
        groups: dict = {}
        for (slot, _), key in zip(items, keys):
            groups.setdefault(key, []).append(slot)
        return list(groups.values())

    linked = _distance_matrix(items, metric) <= epsilon
    unclassed = np.ones(len(items), dtype=bool)
    classes = []
    for start in range(len(items)):
        if not unclassed[start]:
            continue
        members = np.zeros(len(items), dtype=bool)
        members[start] = True
        frontier = members
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        unclassed &= ~members
        classes.append([items[k][0] for k in np.flatnonzero(members)])
    return classes


def majority(ballot: Ballot, metric: Metric, epsilon: float = 0.0) -> VoteObject:
    """Formalized majority: a class must exceed half the ballot size.

    The threshold counts invalid items: 2 equal values out of N=3 where
    the third timed out still win (2 > 1.5), but 2 out of N=4 do not.
    """
    n = len(ballot)
    if n == 0:
        raise NoDecision("empty ballot")
    for cls in equivalence_classes(ballot, metric, epsilon):
        if len(cls) > n / 2:
            return ballot[cls[0]]
    raise NoDecision("no class exceeds half the ballot")


def plurality(
    ballot: Ballot,
    metric: Metric,
    epsilon: float = 0.0,
    tie_break: str = "none",
) -> VoteObject:
    """Formalized plurality: largest class wins, ties per tie_break."""
    classes = equivalence_classes(ballot, metric, epsilon)
    if not classes:
        raise NoDecision("no valid items")
    top = max(len(c) for c in classes)
    tied = [c for c in classes if len(c) == top]
    if len(tied) > 1 and tie_break != "lowest-member":
        raise NoDecision(f"{len(tied)} classes tied at size {top}")
    return ballot[tied[0][0]]


def median(ballot: Ballot, metric: Metric) -> VoteObject:
    """Generalized median: discard farthest pairs until one item is left.

    With an even number of valid items the final two are ranked by total
    distance to every valid item, summed by math.fsum; the smaller sum
    survives, and canonical order breaks exact ties.  On scalars with an
    odd count this reproduces the ordinary median.  A NaN distance, or a
    NaN total, counts as the farthest, so non-finite scalars are
    discarded first.
    """
    items = _valid_items(ballot)
    if not items:
        raise NoDecision("no valid items")
    n = len(items)
    d = _distance_matrix(items, metric)
    # Each round drops the farthest pair of live items (NaN first), ties
    # going to the pair that comes first in canonical order.  So one sort
    # of all pairs, by distance and then by index, lists every round's
    # pair in turn: each round takes the first pair whose items are both
    # still alive.
    idx = np.arange(n)
    ra, rb = np.nonzero(idx[:, None] < idx)  # row-major pairs ra < rb
    dist = d[ra, rb]
    nan = np.isnan(dist)
    by_distance = np.lexsort((np.where(nan, 0.0, -dist), ~nan))
    alive = [True] * n
    left = n
    for a, b in zip(ra[by_distance].tolist(), rb[by_distance].tolist()):
        if left <= 2:
            break
        if alive[a] and alive[b]:
            alive[a] = alive[b] = False
            left -= 2
    survivors = [k for k in range(n) if alive[k]]
    if len(survivors) == 1:
        return items[survivors[0]][1]

    def spread(k: int) -> tuple:
        # A NaN in the row must decide before fsum can raise on an overflow.
        row = d[k].tolist()
        try:
            total = math.nan if any(x != x for x in row) else math.fsum(row)
        except OverflowError:  # distances are >= 0: the exact total passes the float range
            total = math.inf
        except ValueError:  # inf + -inf, from a metric function that is no metric
            total = math.nan
        nan = math.isnan(total)
        return (nan, 0.0 if nan else total, k)

    return items[min(survivors, key=spread)][1]


def weighted_average(
    ballot: Ballot,
    metric: Metric,
    scaling_factor: float = 1.0,
) -> VoteObject:
    """Distance-weighted mean of the valid numeric payloads.

    Item i gets weight 1 / (1 + (D_i/s)^2) where D_i is the mean
    distance from item i to the other valid items and s is the scaling
    factor.  Invalid items weigh zero.  Payloads must decode as
    fixed-width float64 vectors; the result is synthesized (source 0).
    The sums run in canonical order, so the result's bits depend only
    on the items.
    """
    items = _valid_items(ballot)
    if not items:
        raise NoDecision("no valid items")
    vectors = [decode_vector(obj.payload) for _, obj in items]
    width = len(vectors[0])
    for v in vectors[1:]:
        if len(v) != width:
            raise LengthMismatch("mixed vector widths in ballot")
    d = _distance_matrix(items, metric)
    with np.errstate(invalid="ignore"):  # a ballot holding ±inf averages to NaN
        mean_d = d.sum(axis=1) / max(len(items) - 1, 1)
        weights = 1.0 / (1.0 + (mean_d / scaling_factor) ** 2)
        mixed = (weights[:, None] * np.array(vectors)).sum(axis=0) / weights.sum()
    return VoteObject(payload=encode_vector(mixed), valid=True, source=0)


def consensus(ballot: Ballot, metric: Metric, epsilon: float = 0.0) -> VoteObject:
    """Unanimity: every item agrees within epsilon.

    The rule is strict over the whole ballot: any invalid item defeats
    consensus, because a missing input is not an agreeing input.
    """
    n = len(ballot)
    if n == 0:
        raise NoDecision("empty ballot")
    items = _valid_items(ballot)
    if not items:
        raise NoDecision("no valid items")
    if len(items) != n:
        raise NoDecision("invalid items present, unanimity impossible")
    disagree = _distance_matrix(items, metric) > epsilon
    np.fill_diagonal(disagree, False)
    if disagree.any():
        raise NoDecision("items disagree beyond epsilon")
    return items[0][1]


def vote(ballot: Ballot, metric: Metric, select: AlgorithmSelect) -> VoteObject:
    """Run the selected technique on a ballot.

    Pass the metric by its METRICS name where one exists: only a name
    selects the numpy matrix and the grouping by key, even where the
    METRICS entry is wrapped (a call counter, say).  A function is
    called pairwise.
    """
    if select.kind == "majority":
        return majority(ballot, metric, select.epsilon)
    if select.kind == "plurality":
        return plurality(ballot, metric, select.epsilon, select.tie_break)
    if select.kind == "median":
        return median(ballot, metric)
    if select.kind == "weighted-average":
        return weighted_average(ballot, metric, select.scaling_factor)
    return consensus(ballot, metric, select.epsilon)
