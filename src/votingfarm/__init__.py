"""Distributed software voting farms over a simulated message fabric.

The package provides:

* a deterministic discrete-event fabric (``fabric``) carrying framed
  messages between per-node endpoints, with pluggable fault injection;
* replicated voter processes (``voter``) that collect one value per
  farm member, regulate their broadcasts turn-by-turn, and vote;
* the voting techniques themselves (``algorithms``): formalized
  majority and plurality, generalized median, weighted average and
  consensus over an arbitrary metric;
* the SPMD client interface (``client``): vf_open / vf_add / vf_run /
  vf_control / vf_get / vf_close;
* a recovery-strategy language (``recovery``): parser, binary r-code
  codec and the interpreter that turns fault records into KILL / START
  / WARN style reconfigurations;
* analytic and numeric reliability models (``reliability``) for triple
  redundancy with and without a spare, including the full Markov chain;
* crossbar scheduling and resource models (``perf``) plus a latency
  harness, both running generated scenarios;
* a JSON scenario runner (``scenario``) and the ``vf`` command line.

The top level re-exports only what a user program, the demos and the
README reach for: starting a farm and talking to it, running
scenarios, the recovery language, and the reliability and perf models.
Everything else is imported from its module.
"""

from .client import vf_add, vf_control, vf_get, vf_open, vf_run
from .core import VfStatusCode
from .fabric import Endpoint, FaultSpec, Simulator
from .farm import FarmRuntime
from .perf import (
    best_permutation,
    fit_polynomial,
    identity_permutation,
    live_resource_counts,
    one_cycled_permutation,
    resource_report,
    schedule_steps,
    timing_harness,
)
from .recovery import compile_program, disassemble, parse_rl, rint_step
from .reliability import (
    MarkovModel,
    closed_forms,
    crosspoint,
    live_probability,
    markov_reliability,
    markov_solve,
    r_tmr,
    r_tmr_1spare,
    simplex,
)
from .scenario import resolve_scenario, run_scenario
