"""Voting techniques against independent oracles.

The oracles here deliberately share no code with the implementation:
the median oracle sorts decoded scalars, the weighted-average oracle
runs exact rational arithmetic, and the class oracle builds components
by breadth-first search instead of union-find.
"""

import itertools
import math
import random
import warnings
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from votingfarm.algorithms import (
    METRICS,
    AlgorithmSelect,
    LengthMismatch,
    NoDecision,
    consensus,
    decode_scalar,
    decode_vector,
    default_metric,
    encode_scalar,
    encode_vector,
    equivalence_classes,
    euclidean_metric,
    majority,
    median,
    plurality,
    scalar_metric,
    vote,
    weighted_average,
)
from votingfarm.core import VoteObject, VotingFarmError

# -- independent oracles ---------------------------------------------------

def sort_median_oracle(values):
    """Ordinary scalar median for an odd number of values."""
    assert len(values) % 2 == 1
    return sorted(values)[len(values) // 2]


def weighted_average_oracle(values, s):
    """Exact rational evaluation of the distance-weighted mean."""
    xs = [Fraction(v) for v in values]
    weights = []
    for i, x in enumerate(xs):
        others = [abs(x - y) for j, y in enumerate(xs) if j != i]
        mean_d = sum(others) / len(others) if others else Fraction(0)
        weights.append(Fraction(1) / (1 + (mean_d / Fraction(s)) ** 2))
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def bfs_classes_oracle(values, eps):
    """Epsilon-linkage components by breadth-first search."""
    n = len(values)
    seen, comps = set(), []
    for i in range(n):
        if i in seen:
            continue
        comp, queue = [], [i]
        seen.add(i)
        while queue:
            k = queue.pop(0)
            comp.append(k)
            for j in range(n):
                if j not in seen and abs(values[k] - values[j]) <= eps:
                    seen.add(j)
                    queue.append(j)
        comps.append(sorted(comp))
    return sorted(comps)


# Frozen oracle outputs.  255/247 is weighted_average_oracle((0,0,9), 1)
# evaluated exactly; 0.972 is 3(0.9)^2 - 2(0.9)^3 and was cross-checked
# by a 10^6-trial Monte Carlo during test design.
WEIGHTED_009 = Fraction(255, 247)
ENC_42 = "0000000000004540"


# -- encoding ----------------------------------------------------------------

def test_scalar_encoding_is_little_endian_float64():
    assert encode_scalar(42.0).hex() == ENC_42
    assert decode_scalar(bytes.fromhex(ENC_42)) == 42.0


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_scalar_round_trip(x):
    assert decode_scalar(encode_scalar(x)) == x


def test_vector_round_trip():
    v = [1.0, -2.5, 3e9]
    assert list(decode_vector(encode_vector(v))) == v


def test_bad_scalar_length():
    with pytest.raises(LengthMismatch):
        decode_scalar(b"\x00" * 7)


@pytest.mark.parametrize("data", [b"", b"\x00" * 12])
def test_bad_vector_length(data):
    with pytest.raises(LengthMismatch):
        decode_vector(data)


def test_metrics_table():
    assert default_metric(b"ab", b"ab") == 0.0
    assert default_metric(b"ab", b"ac") == 1.0
    with pytest.raises(LengthMismatch):
        default_metric(b"a", b"ab")
    assert scalar_metric(encode_scalar(3.0), encode_scalar(7.5)) == 4.5
    assert euclidean_metric(encode_vector([0, 3]), encode_vector([4, 0])) == 5.0
    assert set(METRICS) == {"default", "scalar", "euclidean"}


# -- equivalence classes ------------------------------------------------------

def test_classes_match_bfs_oracle(scalar_ballot):
    rng = random.Random(11)
    for _ in range(300):
        values = [rng.randint(0, 5) for _ in range(rng.randint(1, 8))]
        eps = rng.choice([0.0, 0.5, 1.0])
        ballot = scalar_ballot(values)
        got = sorted(sorted(c) for c in equivalence_classes(ballot, scalar_metric, eps))
        assert got == bfs_classes_oracle(values, eps)


def test_classes_skip_invalid_items(scalar_ballot):
    ballot = scalar_ballot([1.0, 1.0, 2.0], invalid={1})
    assert equivalence_classes(ballot, scalar_metric, 0.0) == [[0], [2]]


def test_classes_ordered_by_first_slot(scalar_ballot):
    ballot = scalar_ballot([7.0, 3.0, 7.0, 3.0])
    assert equivalence_classes(ballot, scalar_metric, 0.0) == [[0, 2], [1, 3]]


# -- majority -----------------------------------------------------------------

def test_majority_two_of_three(scalar_ballot):
    winner = majority(scalar_ballot([5.0, 5.0, 9.0]), scalar_metric)
    assert decode_scalar(winner.payload) == 5.0
    assert winner.source == 1


def test_majority_counts_invalid_toward_threshold(scalar_ballot):
    # 2 equal values out of N=3 with one timeout still win (2 > 1.5) ...
    ballot = scalar_ballot([5.0, 5.0, 0.0], invalid={2})
    assert decode_scalar(majority(ballot, scalar_metric).payload) == 5.0
    # ... but 2 out of N=4 do not (2 is not > 2)
    ballot = scalar_ballot([5.0, 5.0, 0.0, 0.0], invalid={2, 3})
    with pytest.raises(NoDecision):
        majority(ballot, scalar_metric)


def test_majority_all_distinct_fails(scalar_ballot):
    with pytest.raises(NoDecision):
        majority(scalar_ballot([1.0, 2.0, 3.0]), scalar_metric)


def test_majority_empty_ballot():
    with pytest.raises(NoDecision):
        majority([], scalar_metric)


def test_majority_with_epsilon_linkage(scalar_ballot):
    ballot = scalar_ballot([5.0, 5.4, 9.0])
    assert decode_scalar(majority(ballot, scalar_metric, epsilon=0.5).payload) == 5.0


@given(
    n=st.integers(3, 9),
    correct=st.integers(0, 100),
    data=st.data(),
)
@settings(max_examples=60)
def test_majority_masks_up_to_the_bound(n, correct, data):
    """ceil(N/2) - 1 arbitrary value faults can never outvote the rest."""
    f = (n + 1) // 2 - 1
    wrong = data.draw(
        st.lists(
            st.integers(0, 100).filter(lambda w: w != correct),
            min_size=f,
            max_size=f,
        )
    )
    positions = data.draw(st.permutations(range(n)))
    values = [float(correct)] * (n - f) + [float(w) for w in wrong]
    ballot = [
        VoteObject(encode_scalar(values[k]), True, positions[k] + 1)
        for k in range(n)
    ]
    winner = majority(ballot, scalar_metric)
    assert decode_scalar(winner.payload) == float(correct)


# -- plurality ----------------------------------------------------------------

def test_plurality_largest_class(scalar_ballot):
    ballot = scalar_ballot([1.0, 2.0, 2.0])
    assert decode_scalar(plurality(ballot, scalar_metric).payload) == 2.0


def test_plurality_tie_is_no_decision_by_default(scalar_ballot):
    with pytest.raises(NoDecision):
        plurality(scalar_ballot([1.0, 1.0, 2.0, 2.0]), scalar_metric)


def test_plurality_tie_break_lowest_member(scalar_ballot):
    ballot = scalar_ballot([1.0, 1.0, 2.0, 2.0])
    winner = plurality(ballot, scalar_metric, tie_break="lowest-member")
    assert decode_scalar(winner.payload) == 1.0
    assert winner.source == 1


def test_plurality_tie_break_follows_member_not_slot(scalar_ballot):
    # the class containing the lowest ident wins even if it arrived last
    ballot = [
        VoteObject(encode_scalar(2.0), True, 3),
        VoteObject(encode_scalar(2.0), True, 4),
        VoteObject(encode_scalar(1.0), True, 1),
        VoteObject(encode_scalar(1.0), True, 2),
    ]
    winner = plurality(ballot, scalar_metric, tie_break="lowest-member")
    assert decode_scalar(winner.payload) == 1.0


def test_plurality_no_valid_items(scalar_ballot):
    with pytest.raises(NoDecision):
        plurality(scalar_ballot([1.0], invalid={0}), scalar_metric)


# -- median -------------------------------------------------------------------

def test_median_matches_sort_oracle(scalar_ballot):
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.choice([3, 5, 7, 9])
        values = [round(rng.uniform(-50, 50), 3) for _ in range(n)]
        got = median(scalar_ballot(values), scalar_metric)
        assert decode_scalar(got.payload) == sort_median_oracle(values)


def test_median_ignores_invalid_items(scalar_ballot):
    ballot = scalar_ballot([1.0, 100.0, 2.0, 3.0], invalid={1})
    assert decode_scalar(median(ballot, scalar_metric).payload) == 2.0


def test_median_even_count_breaks_total_distance_tie_by_member(scalar_ballot):
    # With 4 scalars the farthest pair (1, 100) goes first, and the two
    # survivors always tie on total distance (a point between the middle
    # pair sees a constant distance sum), so the lower ident wins.
    ballot = scalar_ballot([1.0, 2.0, 8.0, 100.0])
    winner = median(ballot, scalar_metric)
    assert decode_scalar(winner.payload) == 2.0
    assert winner.source == 2


@pytest.mark.parametrize("values", [[-1e308, 0.0, 0.0, 1e308], [0.0, 0.0, 1e308, math.nan]])
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # 1e308 - -1e308 overflows to inf
def test_median_even_count_totals_past_the_float_range(scalar_ballot, values):
    # Both survivors' distances sum past the float range, or hold a NaN:
    # fsum would raise, or answer by the order it meets them in.
    ballot = scalar_ballot(values)
    winner = median(ballot, "scalar")
    assert winner.payload == encode_scalar(0.0)
    for shuffled in itertools.permutations(ballot):
        assert median(list(shuffled), "scalar") == winner


def test_median_no_valid_items(scalar_ballot):
    with pytest.raises(NoDecision):
        median(scalar_ballot([], invalid=()), scalar_metric)


@pytest.mark.parametrize("values", [[math.nan, 1.0, 2.0], [math.inf, math.inf, 2.0]])
def test_median_discards_non_finite_items_first(scalar_ballot, values):
    # |nan - x| and |inf - inf| are NaN; a NaN distance ranks farthest,
    # so the pair holding the non-finite item goes first.
    ballot = scalar_ballot(values)
    for metric in (scalar_metric, "scalar"):
        winner = median(ballot, metric)
        assert decode_scalar(winner.payload) == 2.0
        for shuffled in itertools.permutations(ballot):
            assert median(list(shuffled), metric) == winner


# -- weighted average ---------------------------------------------------------

def test_weighted_average_frozen_example(scalar_ballot):
    got = weighted_average(scalar_ballot([0.0, 0.0, 9.0]), scalar_metric, 1.0)
    assert got.source == 0  # synthesized, not one of the inputs
    assert decode_scalar(got.payload) == pytest.approx(float(WEIGHTED_009), abs=1e-13)


@pytest.mark.parametrize("metric", ["scalar", scalar_metric])
def test_weighted_average_of_infinities_is_nan_without_warnings(scalar_ballot, metric):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = weighted_average(scalar_ballot([math.inf, -math.inf, 1.0]), metric, 1.0)
    assert math.isnan(decode_scalar(got.payload))


def test_weighted_average_symmetric_pair_with_fault(scalar_ballot):
    ballot = scalar_ballot([10.0, 20.0, 999.0], invalid={2})
    got = weighted_average(ballot, scalar_metric, 1.0)
    assert decode_scalar(got.payload) == pytest.approx(15.0, abs=1e-12)


def test_weighted_average_matches_rational_oracle(scalar_ballot):
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randint(1, 7)
        values = [rng.uniform(-5, 5) for _ in range(n)]
        s = rng.choice([0.5, 1.0, 2.0])
        got = weighted_average(scalar_ballot(values), scalar_metric, s)
        want = weighted_average_oracle(values, Fraction(s))
        assert decode_scalar(got.payload) == pytest.approx(float(want), rel=1e-9)


def test_weighted_average_zero_weight_rule(scalar_ballot):
    """Mutating an invalid item's payload cannot move the output."""
    base = scalar_ballot([10.0, 20.0, 30.0], invalid={1})
    mutated = [
        VoteObject(encode_scalar(1e9), False, 2) if i == 1 else obj
        for i, obj in enumerate(base)
    ]
    a = decode_scalar(weighted_average(base, scalar_metric, 1.0).payload)
    b = decode_scalar(weighted_average(mutated, scalar_metric, 1.0).payload)
    assert a == b


def test_weighted_average_imprecision_grows_with_faults(scalar_ballot):
    """Worst-case drift from the fault-free output never shrinks as
    more ballot slots are invalidated (fixed seeded corpus)."""
    rng = random.Random(20260814)
    corpus = [[rng.uniform(0, 10) for _ in range(7)] for _ in range(200)]
    drift = []
    for f in range(4):
        worst = 0.0
        for values in corpus:
            base = weighted_average(scalar_ballot(values), scalar_metric, 1.0)
            hit = weighted_average(
                scalar_ballot(values, invalid=set(range(7 - f, 7))),
                scalar_metric,
                1.0,
            )
            worst = max(worst, abs(decode_scalar(hit.payload) - decode_scalar(base.payload)))
        drift.append(worst)
    assert drift[0] == 0.0
    assert all(a <= b for a, b in zip(drift, drift[1:]))
    assert drift[-1] > 1.0  # the corpus actually exercises the rule


def test_weighted_average_vectors():
    ballot = [
        VoteObject(encode_vector([0.0, 4.0]), True, 1),
        VoteObject(encode_vector([0.0, 4.0]), True, 2),
    ]
    got = weighted_average(ballot, euclidean_metric, 1.0)
    assert list(decode_vector(got.payload)) == [0.0, 4.0]


def test_weighted_average_mixed_widths():
    ballot = [
        VoteObject(encode_vector([1.0]), True, 1),
        VoteObject(encode_vector([1.0, 2.0]), True, 2),
    ]
    with pytest.raises(LengthMismatch):
        weighted_average(ballot, euclidean_metric, 1.0)


def test_weighted_average_no_valid_items(scalar_ballot):
    with pytest.raises(NoDecision):
        weighted_average(scalar_ballot([5.0], invalid={0}), scalar_metric, 1.0)


# -- consensus ----------------------------------------------------------------

def test_consensus_unanimous(scalar_ballot):
    got = consensus(scalar_ballot([4.0, 4.0, 4.0]), scalar_metric)
    assert decode_scalar(got.payload) == 4.0


def test_consensus_rejects_missing_input(scalar_ballot):
    # {4, 4} agree but the third slot is invalid: strict unanimity fails
    ballot = scalar_ballot([4.0, 4.0, 0.0], invalid={2})
    with pytest.raises(NoDecision, match="invalid items present"):
        consensus(ballot, scalar_metric)


def test_consensus_disagreement(scalar_ballot):
    with pytest.raises(NoDecision):
        consensus(scalar_ballot([4.0, 4.0, 5.0]), scalar_metric)


def test_consensus_within_epsilon(scalar_ballot):
    got = consensus(scalar_ballot([4.0, 4.2]), scalar_metric, epsilon=0.25)
    assert got.source == 1


# -- permutation invariance ----------------------------------------------------

PERMUTED_SELECTS = [
    AlgorithmSelect("majority"), AlgorithmSelect("majority", epsilon=0.5),
    AlgorithmSelect("plurality"), AlgorithmSelect("plurality", epsilon=0.5, tie_break="lowest-member"),
    AlgorithmSelect("median"), AlgorithmSelect("weighted-average", scaling_factor=1.5),
    AlgorithmSelect("consensus"), AlgorithmSelect("consensus", epsilon=0.5),
]
EVEN_MEDIAN_TIE = [0.2849574619862052, 0.06346057714522935, 0.8539424884226802,
                   0.9898060149215813, 0.08851809310972836, 0.8005953212575019]


def verdict(ballot, metric, select):
    """What vote returns, as (payload, source), or the type and message it raised."""
    try:
        won = vote(ballot, metric, select)
    except VotingFarmError as exc:
        return type(exc), str(exc)
    return won.payload, won.source


@given(
    values=st.lists(st.one_of(st.integers(0, 4).map(float), st.floats(-4, 4),
                              st.sampled_from([math.inf, -math.inf, math.nan, 1e308, -1e308])), min_size=1, max_size=8),
    invalid=st.sets(st.integers(0, 7)),
    metric=st.sampled_from(["default", "scalar", "euclidean"]),
    seed=st.integers(0, 2**16),
)
@example(values=EVEN_MEDIAN_TIE, invalid=set(), metric="scalar", seed=9)
@settings(max_examples=200, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in weighted averages
def test_class_techniques_are_permutation_invariant(values, invalid, metric, seed):
    # Every voter of a session may receive the same items in another
    # order, and they must reach one verdict: the same winner (payload
    # and member), or the same NoDecision message.
    encode = (lambda v: encode_vector([v, -v])) if metric == "euclidean" else encode_scalar
    ballot = [VoteObject(encode(v), i not in invalid, i + 1) for i, v in enumerate(values)]
    shuffled = ballot[:]
    random.Random(seed).shuffle(shuffled)
    for select in PERMUTED_SELECTS:
        assert verdict(shuffled, metric, select) == verdict(ballot, metric, select), select


# -- kernels against pairwise calls ------------------------------------------------

def run_every_technique(ballot, metric, epsilon):
    """Each technique's result, or the type and message of what it raised."""
    runs = {
        "classes": lambda: equivalence_classes(ballot, metric, epsilon),
        "majority": lambda: majority(ballot, metric, epsilon),
        "plurality": lambda: plurality(ballot, metric, epsilon),
        "plurality-lowest": lambda: plurality(ballot, metric, epsilon, "lowest-member"),
        "median": lambda: median(ballot, metric),
        "weighted-average": lambda: weighted_average(ballot, metric, 1.5),
        "consensus": lambda: consensus(ballot, metric, epsilon),
    }
    out = {}
    for name, run in runs.items():
        try:
            out[name] = run()
        except VotingFarmError as exc:
            out[name] = (type(exc), str(exc))
    return out


SCALARS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, math.inf, -math.inf, math.nan]),
    st.integers(0, 3).map(float),
    st.floats(-4, 4),
)
WRONG_LENGTH = st.sampled_from([b"", b"\x01" * 4, b"\x00" * 16])


@given(
    values=st.lists(SCALARS, max_size=9),
    wrong=st.lists(st.tuples(st.integers(0, 8), WRONG_LENGTH), max_size=2),
    invalid=st.sets(st.integers(0, 8)),
    sources=st.lists(st.integers(1, 12), min_size=9, max_size=9),
    epsilon=st.sampled_from([0.0, 0.0, 0.5, 1.0, 2.5]),
)
@settings(max_examples=300, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf * 0 in weighted averages
def test_kernels_match_pairwise_calls(values, wrong, invalid, sources, epsilon):
    """The numpy matrix and the grouping by key give what pairwise calls give.

    A metric passed by name selects them; the same metric passed as a
    function is called pairwise.  Results, tie-breaks, exception types
    and messages must all agree.
    """
    payloads = [encode_scalar(v) for v in values]
    for slot, payload in wrong:
        if slot < len(payloads):
            payloads[slot] = payload
    ballot = [
        VoteObject(p, i not in invalid, sources[i]) for i, p in enumerate(payloads)
    ]
    for fn, name in ((scalar_metric, "scalar"), (default_metric, "default")):
        by_name = run_every_technique(ballot, name, epsilon)
        assert by_name == run_every_technique(ballot, fn, epsilon)


# -- selection record and dispatcher -------------------------------------------

def test_algorithm_select_validation():
    AlgorithmSelect(kind="median")
    with pytest.raises(VotingFarmError):
        AlgorithmSelect(kind="best-effort")
    with pytest.raises(VotingFarmError):
        AlgorithmSelect(epsilon=-1.0)
    with pytest.raises(VotingFarmError):
        AlgorithmSelect(scaling_factor=0.0)
    with pytest.raises(VotingFarmError):
        AlgorithmSelect(tie_break="coin-flip")
    # An integer no float64 holds would end each voter in OverflowError; infinity is a float64.
    for field in ("epsilon", "scaling_factor"):
        with pytest.raises(VotingFarmError, match=f"{field} must fit in a float64"):
            AlgorithmSelect(**{field: 10**400})
    AlgorithmSelect(epsilon=2**1023, scaling_factor=math.inf)
    AlgorithmSelect(epsilon=math.nan)


def test_vote_dispatch_covers_every_kind(scalar_ballot):
    ballot = scalar_ballot([2.0, 2.0, 2.0])
    for kind in AlgorithmSelect.KINDS:
        got = vote(ballot, scalar_metric, AlgorithmSelect(kind=kind))
        assert decode_scalar(got.payload) == pytest.approx(2.0)
