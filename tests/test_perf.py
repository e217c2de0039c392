"""Broadcast-stage scheduling and farm resource accounting."""

import itertools
import random
import tracemalloc
from collections import deque

import numpy as np
import pytest

from votingfarm.core import ValidationError
from votingfarm.perf import (
    SchedulePermutation,
    ScheduleResult,
    _batch_steps,
    _block_targets,
    _candidate_blocks,
    best_permutation,
    fit_polynomial,
    identity_permutation,
    live_resource_counts,
    one_cycled_permutation,
    resource_report,
    schedule_steps,
    table_text,
    timing_harness,
)

# Step counts frozen from the schedule model; the one-cycled family is
# linear (3(N-1)) and the identity family quadratic in N.
ONE_CYCLED_STEPS = {4: 9, 8: 21, 16: 45, 32: 93, 64: 189}
IDENTITY_STEPS = {4: 11, 8: 47, 16: 191, 32: 767, 64: 3071}

# Closed forms that match every size 4..128 of the schedule model; the
# messages are always n(n-1), so these pin each ScheduleResult field.
CLOSED_FORM_STEPS = {
    ("half", "identity"): lambda n: (3 * n * n + 3) // 4 - 1,
    ("full", "identity"): lambda n: n * (n + 1) // 2 - 1,
    ("half", "one_cycled"): lambda n: 3 * (n - 1),
    ("full", "one_cycled"): lambda n: 3 * (n - 1),
}
FAMILIES = {"identity": identity_permutation, "one_cycled": one_cycled_permutation}

# best_permutation winners as (order, relative, steps, messages,
# utilization).  In full duplex at n = 3 and 4 the winner is not
# one-cycled, so those rows pin the first-minimum tie-break.
BEST = {
    ("half", 1): ((1,), True, 0, 0, 0.0),
    ("half", 2): ((1, 2), True, 2, 2, 1.0),
    ("half", 3): ((1, 2, 3), True, 6, 6, 2 / 3),
    ("half", 4): ((1, 2, 3, 4), True, 9, 12, 2 / 3),
    ("half", 5): ((1, 2, 3, 4, 5), True, 12, 20, 2 / 3),
    ("half", 6): ((1, 2, 3, 4, 5, 6), True, 15, 30, 2 / 3),
    ("half", 7): ((1, 2, 3, 4, 5, 6, 7), True, 18, 42, 2 / 3),
    ("full", 1): ((1,), True, 0, 0, 0.0),
    ("full", 2): ((1, 2), True, 2, 2, 0.5),
    ("full", 3): ((1, 2, 3), False, 5, 6, 0.4),
    ("full", 4): ((1, 2, 4, 3), True, 8, 12, 0.375),
    ("full", 5): ((1, 2, 3, 4, 5), True, 12, 20, 1 / 3),
    ("full", 6): ((1, 2, 3, 4, 5, 6), True, 15, 30, 1 / 3),
    ("full", 7): ((1, 2, 3, 4, 5, 6, 7), True, 18, 42, 1 / 3),
}


def reference_steps(perm, mode):
    """Reference for schedule_steps: every step visits all N senders in
    ident order and skips those not ready."""
    n = perm.size
    fifos = {k: deque(perm.targets(k)) for k in range(1, n + 1)}
    counts = {k: 1 for k in range(1, n + 1)}
    steps = messages = 0
    while any(fifos.values()):
        steps += 1
        busy = set()
        receiving = busy if mode == "half" else set()
        transfers = []
        for k in range(1, n + 1):
            if not fifos[k] or counts[k] < k:
                continue
            target = fifos[k][0]
            if k in busy or target in receiving:
                continue
            busy.add(k)
            receiving.add(target)
            fifos[k].popleft()
            transfers.append(target)
        assert transfers, "schedule stalled"
        for target in transfers:
            counts[target] += 1
        messages += len(transfers)
    if steps == 0:
        return ScheduleResult(0, 0, 0.0)
    capacity = steps * n / 2 if mode == "half" else steps * n
    return ScheduleResult(steps, messages, messages / capacity)


class TestPermutations:
    def test_order_must_be_a_permutation(self):
        with pytest.raises(ValidationError):
            SchedulePermutation((1, 2, 2))
        with pytest.raises(ValidationError):
            SchedulePermutation((0, 1, 2))

    @pytest.mark.parametrize("n", [0, -1])
    @pytest.mark.parametrize(
        "build", [identity_permutation, one_cycled_permutation, best_permutation]
    )
    def test_farm_size_below_one_rejected(self, build, n):
        with pytest.raises(ValidationError):
            build(n)

    def test_absolute_targets_skip_self(self):
        perm = identity_permutation(4)
        assert perm.targets(1) == [2, 3, 4]
        assert perm.targets(3) == [1, 2, 4]

    def test_relative_targets_rotate_with_sender(self):
        perm = one_cycled_permutation(4)
        assert perm.targets(1) == [2, 3, 4]
        assert perm.targets(2) == [3, 4, 1]
        assert perm.targets(4) == [1, 2, 3]

    def test_relative_targets_rotate_by_the_sender_modulo_n(self):
        rng = random.Random(64)
        for n in range(1, 65):
            for order in (tuple(range(1, n + 1)), tuple(rng.sample(range(1, n + 1), n))):
                perm = SchedulePermutation(order, relative=True)
                for k in range(1, n + 1):
                    rotated = [((x - 1 + (k - 1)) % n) + 1 for x in order]
                    assert perm.targets(k) == [t for t in rotated if t != k], (order, k)


class TestSchedules:
    @pytest.mark.parametrize("n,steps", sorted(ONE_CYCLED_STEPS.items()))
    def test_one_cycled_is_linear(self, n, steps):
        result = schedule_steps(one_cycled_permutation(n))
        assert result.steps == steps == 3 * (n - 1)
        assert result.messages == n * (n - 1)
        assert result.utilization == pytest.approx(2 / 3, abs=1e-12)

    @pytest.mark.parametrize("n,steps", sorted(IDENTITY_STEPS.items()))
    def test_identity_is_quadratic(self, n, steps):
        assert schedule_steps(identity_permutation(n)).steps == steps

    def test_fits_recover_the_growth_orders(self):
        ns = sorted(ONE_CYCLED_STEPS)
        _, r2_lin = fit_polynomial(ns, [ONE_CYCLED_STEPS[n] for n in ns], 1)
        _, r2_quad = fit_polynomial(ns, [IDENTITY_STEPS[n] for n in ns], 2)
        assert r2_lin >= 0.999
        assert r2_quad >= 0.999
        # and the wrong shapes fit visibly worse
        _, r2_lin_on_quad = fit_polynomial(ns, [IDENTITY_STEPS[n] for n in ns], 1)
        assert r2_lin_on_quad < 0.999

    @pytest.mark.parametrize("mode,family", sorted(CLOSED_FORM_STEPS))
    def test_closed_forms_for_every_size(self, mode, family):
        for n in range(4, 129):
            result = schedule_steps(FAMILIES[family](n), mode)
            steps = CLOSED_FORM_STEPS[mode, family](n)
            capacity = steps * n / 2 if mode == "half" else steps * n
            assert result == ScheduleResult(steps, n * (n - 1), n * (n - 1) / capacity), n

    @pytest.mark.parametrize("mode", ["half", "full"])
    def test_random_orders_match_the_reference(self, mode):
        # The exhaustive comparison stops at N = 6 and the closed forms
        # cover two families; these are seeded orders of larger farms.
        rng = random.Random(40)
        for _ in range(40):
            n = rng.randint(7, 40)
            order = tuple(rng.sample(range(1, n + 1), n))
            for relative in (True, False):
                perm = SchedulePermutation(order, relative)
                assert schedule_steps(perm, mode) == reference_steps(perm, mode), perm

    def test_target_rows_stay_compact(self):
        # Lists of targets box every ident above 256: at N = 512 they
        # peaked at 6.1 MB, where rows of two bytes per target peak at
        # 0.6 MB.
        perm = one_cycled_permutation(512)
        tracemalloc.start()
        try:
            result = schedule_steps(perm)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.steps == 3 * 511
        assert peak < 1 << 20

    def test_degenerate_sizes(self):
        assert schedule_steps(one_cycled_permutation(1)).steps == 0
        assert schedule_steps(one_cycled_permutation(2)).steps == 2

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValidationError):
            schedule_steps(identity_permutation(3), mode="duplex")

    def test_full_duplex_never_needs_more_steps(self):
        for n in (3, 4, 8):
            for family in (identity_permutation, one_cycled_permutation):
                half = schedule_steps(family(n), mode="half")
                full = schedule_steps(family(n), mode="full")
                assert full.steps <= half.steps
                assert full.messages == half.messages == n * (n - 1)


class TestBestPermutation:
    @pytest.mark.parametrize("n", [3, 4])
    def test_exhaustive_search_matches_one_cycled(self, n):
        _, result = best_permutation(n)
        assert result.steps == schedule_steps(one_cycled_permutation(n)).steps

    def test_exhaustive_never_beats_reported_best(self):
        _, best = best_permutation(4)
        for relative in (True, False):
            for order in itertools.permutations(range(1, 5)):
                result = schedule_steps(SchedulePermutation(order, relative))
                assert result.steps >= best.steps

    @pytest.mark.parametrize("mode,n", sorted(BEST))
    def test_pinned_winners(self, mode, n):
        perm, result = best_permutation(n, mode)
        order, relative, steps, messages, utilization = BEST[mode, n]
        assert (perm.order, perm.relative) == (order, relative)
        assert result == ScheduleResult(steps, messages, utilization)

    @pytest.mark.parametrize("mode", ["half", "full"])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_batched_engine_matches_schedule_steps(self, mode, n):
        perms = [
            SchedulePermutation(order, relative)
            for relative in (True, False)
            for order in itertools.permutations(range(1, n + 1))
        ]
        table = np.zeros((len(perms), n + 1, n - 1), np.int8)
        for row, perm in zip(table, perms):
            for k in range(1, n + 1):
                row[k] = perm.targets(k)
        # The search's blocks list each distinct candidate in search order:
        # the relative orders led by 1, then every absolute order.  Each
        # relative order they skip has the table of its earlier twin, the
        # same order with 1 moved to the front.
        distinct = [i for i, perm in enumerate(perms) if not perm.relative or perm.order[0] == 1]
        blocks = [_block_targets(orders, rel) for rel, orders in _candidate_blocks(n)]
        assert np.array_equal(np.concatenate(blocks), table[distinct])
        row = {(perm.order, perm.relative): i for i, perm in enumerate(perms)}
        for i, perm in enumerate(perms):
            if perm.relative and perm.order[0] != 1:
                twin = row[((1, *(x for x in perm.order if x != 1)), True)]
                assert twin < i and np.array_equal(table[i], table[twin])
        results = [schedule_steps(perm, mode) for perm in perms]
        assert results == [reference_steps(perm, mode) for perm in perms]
        # Every step moves a message, so n(n-1) + 1 steps is never reached
        # and nothing is dropped.  Below one-cycled some candidates are
        # dropped; at 2(n-1) - 1, under the per-node lower bound, all are.
        cycled = schedule_steps(one_cycled_permutation(n), mode).steps
        optimum = best_permutation(n, mode)[1].steps
        for limit in (n * (n - 1) + 1, cycled - 1, optimum, 2 * (n - 1) - 1):
            steps = _batch_steps(table, mode, limit)
            assert steps.tolist() == [min(r.steps, limit + 1) for r in results]

    def test_large_sizes_fall_back_to_one_cycled(self):
        perm, result = best_permutation(64)
        assert perm.relative
        assert result.steps == 3 * 63


class TestResources:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_formula(self, n):
        assert resource_report(n) == (n, n, n * (n - 1) // 2)

    def test_zero_members_rejected(self):
        with pytest.raises(ValidationError):
            resource_report(0)

    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_live_farm_matches_formula(self, n):
        assert live_resource_counts(n) == resource_report(n)


class TestTimingHarness:
    def test_deterministic_latencies(self):
        rows = timing_harness()
        assert [r["n"] for r in rows] == [1, 2, 3, 4]
        assert [r["mean"] for r in rows] == [3, 5, 8, 12]
        assert all(r["std"] == 0.0 for r in rows)

    def test_latency_grows_with_farm_size(self):
        means = [r["mean"] for r in timing_harness()]
        assert all(b > a for a, b in zip(means, means[1:]))

    def test_jitter_spreads_the_repeats(self):
        rows = timing_harness(n_values=(3,), jitter=2, repeats=5, seed=3)
        assert rows[0]["std"] > 0.0

    def test_table_layout(self):
        text = table_text(timing_harness(n_values=(1, 2)))
        lines = text.strip().split("\n")
        assert lines[0] == "N,average,standard deviation"
        assert lines[1] == "1,3,0"
        assert lines[2] == "2,5,0"
