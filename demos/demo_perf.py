"""What the all-to-all broadcast costs, and how scheduling changes it.

Every voting session starts with each member broadcasting its value to
all the others.  On a crossbar where a node moves one message per step,
the order in which members pick their targets decides whether the
exchange finishes in linear or quadratic time.

Run with:  python3 demos/demo_perf.py
"""

from votingfarm import (
    best_permutation,
    fit_polynomial,
    identity_permutation,
    live_resource_counts,
    one_cycled_permutation,
    resource_report,
    schedule_steps,
    timing_harness,
)
from votingfarm.perf import table_text

NS = (4, 8, 16, 32, 64)

# The naive schedule sends to targets in ident order, so everyone dumps
# on node 1 first and the crossbar serializes.  The one-cycled schedule
# staggers targets (member k starts at k+1) and keeps every port busy.
print("N     naive steps   one-cycled steps")
naive, cycled = [], []
for n in NS:
    a = schedule_steps(identity_permutation(n)).steps
    b = schedule_steps(one_cycled_permutation(n)).steps
    naive.append(a)
    cycled.append(b)
    print(f"{n:<6}{a:<14}{b}")

_, r2_q = fit_polynomial(NS, naive, 2)
_, r2_l = fit_polynomial(NS, cycled, 1)
print(f"\nnaive fits a quadratic (R^2={r2_q:.6f}); "
      f"one-cycled is linear, 3(N-1) exactly (R^2={r2_l:.6f})")

res = schedule_steps(one_cycled_permutation(64))
print(f"one-cycled channel utilization at N=64: {res.utilization:.4f} "
      f"(two of every three port-slots are moving data)")

# Exhaustive search over all schedules is feasible for small farms, and
# it confirms one-cycled is already optimal there.
perm, best = best_permutation(4)
print(f"\nbest schedule for N=4 by exhaustive search: {best.steps} steps "
      f"(one-cycled gives {schedule_steps(one_cycled_permutation(4)).steps})")

# Fabric footprint: a farm of N members needs N voters, N local links
# (each voter to the user endpoint on its node) and a full mesh of
# N(N-1)/2 virtual links between voters.  The live counts after wiring
# match the formula.
print("\nN  voters  local  virtual (formula vs live objects)")
for n in (1, 2, 4, 8):
    formula = resource_report(n)
    live = live_resource_counts(n)
    print(f"{n:<3}{formula[0]:<8}{formula[1]:<7}{formula[2]:<8}live={live}")

# End-to-end latency: one voting session per farm size on the simulated
# fabric, with a one-tick delivery cost per hop.  Bigger farms pay for
# the longer broadcast stage.
rows = timing_harness(n_values=(1, 2, 3, 4))
print("\nsession latency by farm size:")
print(table_text(rows))
