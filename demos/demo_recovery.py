"""Recovery strategies: text in, bytes over the wire, actions on the farm.

A strategy is written in a small rule language (IF [condition] THEN
actions FI), compiled to a compact binary form for distribution, and
interpreted against the director's fault database whenever something
breaks.  This walks the whole path and then lets two bundled scenarios
show the strategies actually repairing a farm.

Run with:  python3 demos/demo_recovery.py
"""

import importlib.resources

from votingfarm import (
    compile_program,
    disassemble,
    parse_rl,
    resolve_scenario,
    rint_step,
    run_scenario,
)
from votingfarm.recovery import DirDatabase

SCEN = importlib.resources.files("votingfarm") / "scenarios"

# -- parse and compile -------------------------------------------------------
#
# table4.rl replaces a broken member with a spare: kill the failed
# thread, start thread 4 in its place, warn the survivors so they learn
# the new farm layout.

source = (SCEN / "table4.rl").read_text()
print("strategy source:")
for line in source.strip().splitlines():
    print(f"  {line}")

program = parse_rl(source, include_dirs=(str(SCEN),))
code = compile_program(program)
print(f"\ncompiles to {len(code)} bytes, header {code[:5]!r}")
print("disassembles back to:")
for line in disassemble(code).strip().splitlines():
    print(f"  {line}")

# -- dry run against a fault database ----------------------------------------
#
# The interpreter needs nothing but the database: who is in which
# group, which phase everyone reported last, which faults arrived.
# Here thread 1 has tripped the failure phase (code 4).

db = DirDatabase(groups={1: (1, 2, 3)}, phases={1: 4, 2: 2, 3: 2})
actions = rint_step(program, db)
print("\nfiring against a database where thread 1 is in phase 4:")
for act in actions:
    print(f"  {act}")

# -- the same strategy live --------------------------------------------------
#
# three_and_one_spare runs a 3-member farm with a declared spare, kills
# member 1 mid-run, and asserts the farm still answers afterwards.  The
# recovery backbone picks up the watchdog report and plays the strategy.

spec, dirs = resolve_scenario("three_and_one_spare")
result = run_scenario(spec, dirs)
print(f"\nscenario three_and_one_spare: passed={result.passed}")
print(f"  actions taken: {result.db.verbs()}")
print(f"  farm view now: {result.runtime.live_entities()}")

# graceful_degradation has no spare to offer; its strategy shrinks the
# farm instead, and the two survivors still complete a session.
spec, dirs = resolve_scenario("graceful_degradation")
result = run_scenario(spec, dirs)
print(f"\nscenario graceful_degradation: passed={result.passed}")
print(f"  actions taken: {result.db.verbs()}")
print(f"  live members after degrade: {result.runtime.live_entities()}")
