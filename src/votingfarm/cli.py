"""The vf command line.

Four subcommands:

* ``vf run SCENARIO``      execute a scenario (bundled name or file),
                           print its assertion results, write artifact
                           files when an output directory is given;
* ``vf rl``                compile a recovery strategy to r-code or
                           disassemble r-code back to source;
* ``vf reliability``       reliability curves, crosspoints against the
                           non-redundant module, or a numeric check of
                           the analytic chain solutions at lambda 1e-3
                           (one mode per call: any two of --crosspoints,
                           --verify-markov and --out exit 2, since only
                           the curve export writes a file);
* ``vf perf``              crossbar schedule lengths and fits for the
                           identity and one-cycled schedules, the
                           exhaustive best schedule, resource counts,
                           and the simulated latency table.

Exit status: 0 success, 1 a check or assertion failed, 2 the request
itself was unusable (bad arguments, unreadable file, bad scenario).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .core import VotingFarmError
from .perf import (
    EXHAUSTIVE_LIMIT,
    best_permutation,
    fit_polynomial,
    identity_permutation,
    one_cycled_permutation,
    resource_report,
    schedule_steps,
    table_text,
    timing_harness,
)
from .recovery import compile_program, disassemble, parse_rl
from .recovery.lang import read_text
from .reliability import (
    crosspoint,
    curve_export,
    markov_reliability,
    markov_solve,
    live_probability,
    MarkovModel,
    r_tmr,
    r_tmr_1spare,
    simplex,
)
from .scenario import (
    bundled_dir,
    resolve_scenario,
    run_scenario,
    write_artifacts,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vf", description="voting farm scenarios, strategies and models"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario and check its assertions")
    p_run.add_argument("scenario", help="bundled scenario name or path to a JSON file")
    p_run.add_argument(
        "--output-dir",
        default=None,
        help="write trace/results/actions files here (default: write none)",
    )

    p_rl = sub.add_parser("rl", help="recovery strategy tooling")
    rl_sub = p_rl.add_subparsers(dest="rl_command", required=True)
    p_compile = rl_sub.add_parser("compile", help="compile a strategy to r-code")
    p_compile.add_argument("source", help="strategy source file")
    p_compile.add_argument("-o", "--output", default=None, help="output file, - for stdout")
    p_compile.add_argument(
        "-I",
        dest="include_dirs",
        action="append",
        default=[],
        help="extra directory to resolve INCLUDE files (repeatable)",
    )
    p_disasm = rl_sub.add_parser("disasm", help="print r-code as strategy source")
    p_disasm.add_argument("rcode", help="compiled r-code file")

    p_rel = sub.add_parser("reliability", help="redundancy reliability models")
    p_rel.add_argument("--C", default="0,0.25,0.5,0.75,1",
                       help="comma list of recovery coverage values")
    mode = p_rel.add_mutually_exclusive_group()  # one run per call; only the export writes a file
    mode.add_argument("--crosspoints", action="store_true",
                      help="solve R where each redundant curve meets the plain module")
    mode.add_argument("--verify-markov", action="store_true",
                      help="compare the numeric chain solution with the closed forms at lambda 1e-3")
    mode.add_argument("--out", default=None, help="write curve export to a file")

    p_perf = sub.add_parser("perf", help="crossbar schedules, resources, latency")
    p_perf.add_argument("--N", default="4..64",
                        help=f"farm sizes, each in [1, {MAX_PERF_N}]: single value, comma list, "
                             "or a..b doubling range")
    p_perf.add_argument("--mode", default="half", choices=("half", "full"),
                        help="crossbar port discipline")
    p_perf.add_argument("--steps", action="store_true",
                        help="print schedule lengths and polynomial fits")
    p_perf.add_argument("--best", action="store_true",
                        help="print the exhaustive search's best schedule for each N")
    p_perf.add_argument("--resources", action="store_true",
                        help="print voters,local links,virtual links for each N")
    p_perf.add_argument("--table6", action="store_true",
                        help="print the simulated latency table for N=1..4")

    return parser


def _cmd_run(args) -> int:
    spec, search_dirs = resolve_scenario(args.scenario)
    result = run_scenario(spec, search_dirs)
    for a in result.assertions:
        mark = "ok  " if a["ok"] else "FAIL"
        print(f"{mark} {a['type']}: {a['detail']}")
    if args.output_dir:
        for path in write_artifacts(result, args.output_dir):
            print(f"wrote {path}")
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{verdict} {result.spec['name']}")
    return 0 if result.passed else 1


def _cmd_rl(args) -> int:
    if args.rl_command == "compile":
        source = read_text(args.source)
        include_dirs = tuple(args.include_dirs) + (
            os.path.dirname(os.path.abspath(args.source)),
            bundled_dir(),
        )
        program = parse_rl(source, include_dirs=include_dirs)
        blob = compile_program(program)
        out = args.output
        if out == "-":
            sys.stdout.buffer.write(blob)
            return 0
        if out is None:
            base, _ = os.path.splitext(args.source)
            out = base + ".rc"
        with open(out, "wb") as fh:
            fh.write(blob)
        print(f"compiled {len(program.rules)} rule(s), {len(blob)} bytes -> {out}")
        return 0
    with open(args.rcode, "rb") as fh:
        blob = fh.read()
    sys.stdout.write(disassemble(blob))
    return 0


def _parse_c_list(text: str) -> list[float]:
    try:
        values = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise VotingFarmError(f"bad --C list {text!r}: {exc}") from exc
    if not values:
        raise VotingFarmError(f"bad --C list {text!r}: need one or more coverage values")
    return values


def _cmd_reliability(args) -> int:
    c_values = _parse_c_list(args.C)
    if args.crosspoints:
        r0 = crosspoint(r_tmr, simplex, (1e-6, 1 - 1e-9))
        print(f"triple-vs-simplex R={r0:.6f}")
        for c in c_values:
            rc = crosspoint(
                lambda R: r_tmr_1spare(c, R), simplex, (1e-6, 0.5)
            )
            print(f"spare-vs-simplex C={c:g} R={rc:.6f}")
        return 0
    if args.verify_markov:
        lam = 1e-3  # module failure rate per time unit
        t_grid = np.linspace(0.0, 2000.0, 25)
        diffs = []
        for c in c_values:
            p = markov_solve(MarkovModel(lam, c), t_grid)
            numeric = live_probability(p)
            analytic = markov_reliability(lam, c, t_grid)
            diffs.append(float(np.max(np.abs(numeric - analytic))))
            print(f"C={c:g} max|numeric-analytic|={diffs[-1]:.3e}")
        worst = float(np.max(diffs))  # a NaN difference is the worst, and fails
        ok = worst <= 1e-9
        print(f"overall max diff {worst:.3e} {'OK' if ok else 'TOO LARGE'}")
        return 0 if ok else 1
    text = curve_export(c_values)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


# The largest farm size vf perf takes: --steps and --best build N(N-1)
# targets per size, and an identity schedule at N = 1024 takes about
# 0.3 s (Python 3.11 on a shared 2-core x86 host), growing about as N
# squared.
MAX_PERF_N = 1024


def _parse_sizes(text: str) -> list[int]:
    try:
        if ".." in text:
            n, hi = (int(v) for v in text.split("..", 1))
            sizes = []
            while 1 <= n <= hi:
                sizes.append(n)
                n *= 2
        else:
            sizes = [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError as exc:
        raise VotingFarmError(f"bad --N {text!r}: {exc}") from exc
    if not sizes or not 1 <= min(sizes) <= max(sizes) <= MAX_PERF_N:
        raise VotingFarmError(f"bad --N {text!r}: need one or more farm sizes, each in [1, {MAX_PERF_N}]")
    return sizes


def _cmd_perf(args) -> int:
    sizes = _parse_sizes(args.N)
    if not (args.steps or args.best or args.resources or args.table6):
        raise VotingFarmError("pick at least one of --steps, --best, --resources, --table6")
    if args.steps:
        for name, maker in (("identity", identity_permutation), ("onecycle", one_cycled_permutation)):
            steps = []
            print(f"# {name}, {args.mode} duplex")
            print("N,steps,utilization")
            for n in sizes:
                res = schedule_steps(maker(n), mode=args.mode)
                steps.append(res.steps)
                print(f"{n},{res.steps},{res.utilization:.4f}")
            degree = 2 if name == "identity" else 1
            if len(sizes) < degree + 2:
                # R^2 of a fit with no spare points is 1 and says nothing.
                print(f"fit {name}: skipped (needs at least {degree + 2} sizes)")
                continue
            shape = "quadratic" if degree == 2 else "linear"
            _, r2 = fit_polynomial(sizes, steps, degree)
            print(f"fit {name}: {shape} R^2={r2:.6f}")
    if args.best:
        print(f"# best schedule, {args.mode} duplex "
              f"(searched up to N={EXHAUSTIVE_LIMIT}, one-cycled above)")
        print("N,order,relative,steps,one_cycled_steps")
        for n in sizes:
            perm, res = best_permutation(n, mode=args.mode)
            cycled = one_cycled_permutation(n)
            # When one-cycled wins, best_permutation has simulated it already.
            cycled_res = res if perm == cycled else schedule_steps(cycled, mode=args.mode)
            order = " ".join(str(x) for x in perm.order)
            print(f"{n},{order},{str(perm.relative).lower()},{res.steps},{cycled_res.steps}")
    if args.resources:
        for n in sizes:
            voters, endpoints, links = resource_report(n)
            print(f"{voters},{endpoints},{links}")
    if args.table6:
        rows = timing_harness()
        sys.stdout.write(table_text(rows))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "rl":
            return _cmd_rl(args)
        if args.command == "reliability":
            return _cmd_reliability(args)
        return _cmd_perf(args)
    except (OSError, VotingFarmError) as exc:
        print(f"vf: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
