#!/usr/bin/env python3
"""votingfarm benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/``
of the same checkout.  Workloads: tmr_stream, wide_farm, fault_campaign,
models (see perfbench/README.md).

--trace 0 prints the end-to-end metrics, measured with no wrappers
installed.  --trace 1 prints the per-layer metrics from a separate run
that alternates untraced and traced passes.  Either way the last line
of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
A record of the run (metrics, behaviour digest, counts, failures) is
written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import heapq
import json
import os
import platform
import statistics
import subprocess
import sys
import tracemalloc
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_SAMPLES = 5
MEM_CAMPAIGN_RUNS = 40

END_TO_END_UNITS = {
    "setup_s": "s",
    "host_us_per_op_norm": "us",
    "peak_mem_kb_per_op": "KB",
    "sim_latency_mean": "tick",
    "sim_latency_tail_mean": "tick",
}


def load_program():
    """Import votingfarm from this checkout's src/, or exit non-zero."""
    if not os.path.isfile(os.path.join(SRC, "votingfarm", "__init__.py")):
        sys.stderr.write(f"perfbench: no votingfarm sources under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import votingfarm

    if not os.path.abspath(votingfarm.__file__).startswith(SRC + os.sep):
        sys.stderr.write(f"perfbench: imported votingfarm from {votingfarm.__file__}\n")
        sys.exit(2)


def setup_child(workload: str, seed: int) -> None:
    """What a fresh `vf` process pays before it can run the workload."""
    load_program()
    import votingfarm  # noqa: F401
    import votingfarm.cli  # noqa: F401
    import workloads

    workloads.build(workload, seed)


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-child",
           "--workload", workload, "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=60)
        samples.append(perf_counter() - t0)
    return samples


def quantile(values, q: int) -> float:
    """The q-th percentile (q in 10..90 by tens) of at least one value."""
    if len(values) == 1:
        return float(values[0])
    return statistics.quantiles(values, n=10, method="inclusive")[q // 10 - 1]


def tail_mean(values) -> float:
    """Mean of the slowest tenth (at least one value).

    Unlike a percentile of integer latencies it does not jump between
    neighbouring integers when a few samples move.
    """
    ordered = sorted(values)
    return statistics.fmean(ordered[-max(1, len(ordered) // 10):])


# The reference loop's time on an unloaded host, in µs.  host_us_per_op_norm
# reports host time as if every pass had run on such a host.
REFERENCE_US = 28000.0
# Op time between two reference loops.  Host load here changes within
# seconds, faster than one campaign pass.
CHUNK_SECONDS = 0.25


def reference_loop() -> int:
    """Fixed interpreter work: calls, generators, dicts, a heap and JSON.

    It runs between chunks of ops and measures how fast the host is at that
    moment, independent of the program.
    """

    def count(n):
        yield from range(n)

    heap, table = [], {}
    for i in range(20000):
        heapq.heappush(heap, (i * 7919 % 1000, i))
        table[(i, i & 7)] = str(i)
    while heap:
        heapq.heappop(heap)
    total = sum(count(30000))
    for i in range(300):
        total += len(json.loads(json.dumps({"a": i, "b": [1, 2, 3], "c": "x" * 10}, sort_keys=True)))
    return total


def timed_reference() -> float:
    # The ops before leave garbage behind; collecting it here keeps a
    # full collection out of the reference time and out of the next ops.
    gc.collect()
    t0 = perf_counter()
    reference_loop()
    return perf_counter() - t0


class HostClock:
    """Op time scaled to an unloaded host, chunk by chunk.

    The reference loop runs after every CHUNK_SECONDS of op time and at
    the end of each pass.  Each chunk's op time is scaled by the mean of
    the reference times right before and after it, so host load that
    comes and goes within a pass cancels too.
    """

    def __init__(self):
        self.references = [timed_reference()]
        self.chunk = 0.0
        self.scaled = 0.0

    def add(self, seconds: float, last: bool) -> None:
        self.chunk += seconds
        if self.chunk >= CHUNK_SECONDS or last:
            self.references.append(timed_reference())
            before, after = self.references[-2:]
            self.scaled += self.chunk * REFERENCE_US / (1e6 * (before + after) / 2)
            self.chunk = 0.0

    def take(self) -> float:
        """Scaled seconds since the last take."""
        scaled, self.scaled = self.scaled, 0.0
        return scaled


class Pass:
    """One pass over every op of a workload, timing each op."""

    def __init__(self, wl):
        self.wl = wl
        self.outcomes = []
        self.op_seconds = []
        self.scaled_seconds = 0.0

    def run(self, tracer=None, clock=None):
        wl = self.wl
        for i, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op = i
                tracer.active = True
            t0 = perf_counter()
            ran = wl.run(op)
            elapsed = perf_counter() - t0
            if tracer is not None:
                tracer.active = False
            self.op_seconds.append(elapsed)
            self.outcomes.append(wl.check(op, ran))
            if clock is not None:
                clock.add(elapsed, last=i == len(wl.ops) - 1)
        if clock is not None:
            self.scaled_seconds = clock.take()
        wl.cleanup()
        return self

    @property
    def seconds(self) -> float:
        return sum(self.op_seconds)

    def per_op_us(self) -> list[float]:
        """Host µs per op of each timed call."""
        return [1e6 * s / u for s, u in zip(self.op_seconds, self.units())]

    def mean_op_us(self) -> float:
        """Host µs per op over the whole pass."""
        return 1e6 * self.seconds / sum(self.units())

    def units(self) -> list[int]:
        """How many ops each timed call covered (a stream covers its sessions)."""
        if self.wl.unit == "session":
            return [o.sessions for o in self.outcomes]
        return [1] * len(self.outcomes)


def compare(first: Pass, other: Pass) -> list[str]:
    return [
        f"op {i}: digest changed on a repeat"
        for i, (a, b) in enumerate(zip(first.outcomes, other.outcomes))
        if a.digest != b.digest
    ]


def workload_digest(p: Pass) -> str:
    h = hashlib.sha256()
    for o in p.outcomes:
        h.update(o.digest.encode())
    return h.hexdigest()


def tally(passes: list[Pass]):
    """Counts of the first pass, wrong outputs of every pass.

    A later pass must repeat the first pass's digests exactly (see
    compare), so it can only repeat the first pass's failures.  Counting
    the first pass alone keeps attempted and failed a function of the
    seed, not of how many passes fitted in the run.
    """
    first = passes[0].outcomes
    attempted = sum(o.attempted for o in first)
    failed = sum(o.failed for o in first)
    wrong = [w for p in passes for o in p.outcomes for w in o.wrong]
    failures = [f for o in first for f in o.failures]
    return attempted, failed, wrong, failures


def peak_kb_per_op(wl) -> float:
    """Peak traced allocation per op, in its own tracemalloc pass.

    A stream's peak is spread over its sessions; for the campaign it is
    the largest peak among its first runs (the bundled five included).
    """
    ops = wl.ops[:MEM_CAMPAIGN_RUNS] if wl.unit == "run" else wl.ops[:1]
    per_op = len(wl.expected) if wl.unit == "session" else 1
    peaks = []
    tracemalloc.start()
    try:
        for op in ops:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            ran = wl.run(op)
            peak = tracemalloc.get_traced_memory()[1] - base
            peaks.append(peak / 1000 / per_op)
            del ran
    finally:
        tracemalloc.stop()
        wl.cleanup()
    return max(peaks)


def end_to_end(args, wl, report):
    setup = measure_setup(args.workload, args.seed)
    deadline = perf_counter() + args.seconds
    clock = HostClock()
    passes = []
    while not passes or perf_counter() < deadline:
        passes.append(Pass(wl).run(clock=clock))
    reference = clock.references
    pass_us = [p.mean_op_us() for p in passes]
    scaled = [1e6 * p.scaled_seconds / sum(p.units()) for p in passes]
    first = passes[0]
    wrong = [w for p in passes[1:] for w in compare(first, p)]
    samples = [us for p in passes for us in p.per_op_us()]
    latencies = [x for o in first.outcomes for x in o.latencies]
    gaps = [x for o in first.outcomes for x in o.gaps]
    mem = peak_kb_per_op(wl)

    metrics = {
        "setup_s": statistics.median(setup),
        "host_us_per_op_norm": statistics.median(scaled),
        "peak_mem_kb_per_op": mem,
        "sim_latency_mean": statistics.fmean(latencies),
        "sim_latency_tail_mean": tail_mean(latencies),
    }
    counts = {
        "setup_s": len(setup),
        "host_us_per_op_norm": len(passes),
        "peak_mem_kb_per_op": 1,
        "sim_latency_mean": len(latencies),
        "sim_latency_tail_mean": len(latencies),
    }
    extra = {
        "host_us_per_op": (statistics.median(pass_us), "us", len(passes)),
        "reference_loop_us": (1e6 * statistics.median(reference), "us", len(reference)),
        "host_us_per_op_p50": (statistics.median(samples), "us", len(samples)),
        "host_us_per_op_p90": (quantile(samples, 90), "us", len(samples)),
        "sim_latency_p50": (quantile(latencies, 50), "tick", len(latencies)),
        "sim_latency_p90": (quantile(latencies, 90), "tick", len(latencies)),
    }
    if gaps:
        extra["sim_recovery_gap_p50"] = (quantile(gaps, 50), "tick", len(gaps))
    report["setup_samples_s"] = setup
    report["pass_us_per_op"] = pass_us
    report["reference_loop_s"] = reference
    return passes, wrong, metrics, counts, extra


def per_layer(args, wl, report):
    from layers import layer_metrics
    from tracing import LayerTotals, Tracer

    tracer = Tracer()
    totals = LayerTotals()
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    spans_path = os.path.join(HERE, "out", f"spans_{args.workload}_seed{args.seed}.jsonl")
    report["spans_file"] = os.path.relpath(spans_path, ROOT)
    deadline = perf_counter() + args.seconds
    plain, traced = [], []
    tracer.install()
    try:
        while not traced or perf_counter() < deadline:
            plain.append(Pass(wl).run())
            traced.append(Pass(wl).run(tracer))
            tracer.drain(totals, spans_path if len(traced) == 1 else None)
    finally:
        tracer.uninstall()
    metrics = layer_metrics(totals, tracer.counts, plain, traced)
    wrong = [w for p in plain[1:] + traced for w in compare(plain[0], p)]
    return plain + traced, wrong, metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.setup_child:
        setup_child(args.workload, args.seed)
        return 0

    load_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    wl = workloads.build(args.workload, args.seed)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "op": wl.unit,
        "ops_per_pass": len(wl.ops),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }
    t_start = perf_counter()
    if args.trace:
        passes, wrong, layer = per_layer(args, wl, report)
        units = {name: unit for name, (_, unit) in layer.items()}
        metrics = {name: value for name, (value, _) in layer.items()}
        counts = {}
        extra = {}
    else:
        passes, wrong, metrics, counts, extra = end_to_end(args, wl, report)
        units = END_TO_END_UNITS
    attempted, failed, wrong_outputs, failures = tally(passes)
    wrong = wrong_outputs + wrong
    digest = workload_digest(passes[0])

    lines = [f"workload {args.workload} seed {args.seed}: op = one {wl.unit}, "
             f"{len(wl.ops)} op(s) per pass, {len(passes)} passes"]
    for name, value in metrics.items():
        n = f" (n={counts[name]})" if name in counts else ""
        lines.append(f"  {name} = {value:.6g} {units[name]}{n}")
    for name, (value, unit, n) in extra.items():
        lines.append(f"  {name} = {value:.6g} {unit} (n={n})")
    share = failed / attempted if attempted else 0.0
    lines.append(f"  failed_share = {share:.6g} ({failed} failed of {attempted} attempted)")
    lines.append(f"  digest = {digest}")
    for f in failures[:10]:
        lines.append(f"  failure: {f}")
    lines.append(f"  wall = {perf_counter() - t_start:.2f} s")
    print("\n".join(lines))

    report.update(
        digest=digest,
        op_digests=[o.digest for o in passes[0].outcomes],
        metrics={k: {"value": v, "unit": units[k], "n": counts.get(k)} for k, v in metrics.items()},
        extra={k: {"value": v, "unit": u, "n": n} for k, (v, u, n) in extra.items()},
        attempted=attempted,
        failed=failed,
        failed_share=share,
        wrong=wrong[:50],
        failures=failures[:200],
    )
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    record = os.path.join(HERE, "out", f"result_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    with open(record, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
