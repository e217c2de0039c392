"""Per-layer spans, recorded from outside the program.

``Tracer.install`` replaces public callables at each module boundary
with timing wrappers, under the name the caller looks up (for example
``votingfarm.voter.vote`` or ``votingfarm.farm.voter_process``), and
``Tracer.uninstall`` puts the originals back.  Generator processes are
wrapped in a proxy that times every resumption and passes ``send``,
``throw`` and ``close`` through.

A span is [name, start, end, parent index, op index, key].  Spans stay
in memory until ``drain`` folds them into totals after a traced pass;
the first traced pass is also written out as JSON lines.  Self
time is a span's duration minus the time its direct children cover.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from time import perf_counter

import votingfarm.client as client
import votingfarm.fabric as fabric
import votingfarm.farm as farm
import votingfarm.perf as perf
import votingfarm.recovery.rint as rint
import votingfarm.reliability as reliability
import votingfarm.scenario as scenario
import votingfarm.voter as voter
import votingfarm.wire as wire
from votingfarm.algorithms import METRICS
from votingfarm.core import VfStatusCode

import workloads

CONTROL_METHODS = (
    "kill_entity",
    "start_entity",
    "warn_entity",
    "restart_entity",
    "reboot_node",
    "shutdown_node",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.op = -1
        self.active = False
        self._saved: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def enter(self, name: str, key=None) -> int:
        # Building the span list can run the garbage collector, which may
        # close abandoned process generators and so record spans of its
        # own; the index is therefore taken only after the append.
        span = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, self.op, key]
        self.spans.append(span)
        idx = len(self.spans) - 1
        self.stack.append(idx)
        span[1] = perf_counter()
        return idx

    def leave(self, idx: int) -> None:
        self.spans[idx][2] = perf_counter()
        self.stack.pop()

    def span(self, name: str, fn, key_of=None, on_result=None):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = tracer.enter(name, key_of(*args, **kwargs) if key_of else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.leave(idx)
            if on_result is not None:
                on_result(result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def process(self, name: str, factory, on_return=None):
        """Wrap a function that returns a process body (a generator function)."""
        tracer = self

        def wrapped_factory(*args, **kwargs):
            body = factory(*args, **kwargs)
            return lambda *a, **k: _GenProxy(tracer, name, body(*a, **k), on_return)

        return wrapped_factory

    def generator(self, name: str, fn, on_return=None):
        """Wrap a generator function called with ``yield from``."""
        tracer = self

        def wrapper(*args, **kwargs):
            return _GenProxy(tracer, name, fn(*args, **kwargs), on_return)

        return wrapper

    def counter(self, name: str, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer.active:
                tracer.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching -------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr) if not isinstance(owner, dict) else owner[attr]))
        if isinstance(owner, dict):
            owner[attr] = replacement
        else:
            setattr(owner, attr, replacement)

    def install(self) -> None:
        p = self._patch
        p(fabric.Simulator, "run_until_quiescent",
          self.span("fabric.run", fabric.Simulator.run_until_quiescent))
        p(fabric.TraceLog, "lines", self.span("fabric.render", fabric.TraceLog.lines))
        p(fabric.TraceLog, "text", self.span("fabric.render", fabric.TraceLog.text))
        p(wire, "encode", self.span("wire.encode", wire.encode))
        p(wire, "decode", self.span("wire.decode", wire.decode))
        p(farm, "voter_process", self.process("voter.step", farm.voter_process))
        p(voter, "vote", self.span(
            "algorithms.vote", voter.vote,
            key_of=lambda ballot, metric, select: (select.kind, len(ballot))))
        for name, fn in list(METRICS.items()):
            p(METRICS, name, self.counter("algorithms.metric", fn))

        def refused(status) -> None:
            if status.code is VfStatusCode.VF_REFUSED:
                self.counts["client.refused"] += 1

        for module in (scenario, client):
            p(module, "vf_control", self.generator("client.vf_control", module.vf_control))
            p(module, "vf_get", self.generator("client.vf_get", module.vf_get, refused))
        p(scenario, "_user_program", self.process("scenario.user", scenario._user_program))
        p(farm.FarmRuntime, "activate", self.span("farm.activate", farm.FarmRuntime.activate))

        def control_result(err) -> None:
            self.counts["farm.control"] += 1
            if err is not None:
                self.counts["farm.control_failed"] += 1

        for method in CONTROL_METHODS:
            p(farm.FarmRuntime, method, self.span(
                "farm.control", getattr(farm.FarmRuntime, method), on_result=control_result))
        p(scenario, "parse_rl", self.span("recovery.parse_rl", scenario.parse_rl))
        p(rint, "rint_step", self.span("recovery.rint_step", rint.rint_step))
        p(rint, "execute_actions", self.span("recovery.execute_actions", rint.execute_actions))
        p(rint, "director_process", self.process("recovery.director", rint.director_process))
        p(rint, "interpreter_process", self.process("recovery.interpreter", rint.interpreter_process))
        p(scenario, "run_scenario", self.span("scenario.run", scenario.run_scenario))
        p(scenario, "validate_scenario", self.span("scenario.validate", scenario.validate_scenario))
        p(scenario, "write_artifacts", self.span("scenario.write_artifacts", scenario.write_artifacts))
        p(workloads, "campaign_invariants", self.span("scenario.check", workloads.campaign_invariants))
        p(reliability, "markov_solve", self.span("reliability.markov_solve", reliability.markov_solve))
        p(reliability, "crosspoint", self.span("reliability.crosspoint", reliability.crosspoint))
        p(reliability, "curve_export", self.span("reliability.curve_export", reliability.curve_export))
        p(perf, "schedule_steps", self.span(
            "perf.schedule_steps", perf.schedule_steps, key_of=_permutation_key))
        p(perf, "best_permutation", self.span(
            "perf.best_permutation", perf.best_permutation, key_of=lambda n, *a, **k: n))
        p(perf, "timing_harness", self.span("perf.timing_harness", perf.timing_harness))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def drain(self, totals: "LayerTotals", path: str | None = None) -> None:
        """Fold the recorded spans into totals, optionally writing them first."""
        if path is not None:
            with open(path, "w", encoding="utf-8") as fh:
                for span in self.spans:
                    fh.write(json.dumps(span) + "\n")
        totals.add(self.spans)
        self.spans = []


def _permutation_key(perm, *args, **kwargs):
    n = perm.size
    if perm == perf.identity_permutation(n):
        return ("identity", n)
    if perm == perf.one_cycled_permutation(n):
        return ("one_cycled", n)
    return ("other", n)


class _GenProxy:
    """A generator stand-in that times each resumption of the real one."""

    def __init__(self, tracer: Tracer, name: str, gen, on_return=None):
        self._tracer = tracer
        self._name = name
        self._gen = gen
        self._on_return = on_return

    def __iter__(self):
        return self

    def __next__(self):
        return self.send(None)

    def _resume(self, method, *args):
        tracer = self._tracer
        if not tracer.active:
            return method(*args)
        idx = tracer.enter(self._name)
        try:
            return method(*args)
        except StopIteration as stop:
            if self._on_return is not None:
                self._on_return(stop.value)
            raise
        finally:
            tracer.leave(idx)

    def send(self, value):
        return self._resume(self._gen.send, value)

    def throw(self, *args):
        return self._resume(self._gen.throw, *args)

    def close(self):
        return self._resume(self._gen.close)


# -- reduction ----------------------------------------------------------------

class LayerTotals:
    """Per-name totals over any number of span lists.

    inclusive: seconds in spans of the name that are not directly
    inside another span of that name (so ``text`` calling ``lines`` is
    counted once); own: self seconds; calls: span count; durations:
    those same span lengths per (name, key); top_level: seconds covered
    by spans that have no parent.
    """

    def __init__(self) -> None:
        self.inclusive: dict[str, float] = defaultdict(float)
        self.own: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.durations: dict[tuple, list[float]] = defaultdict(list)
        self.top_level = 0.0

    def add(self, spans: list[list]) -> None:
        child_time = [0.0] * len(spans)
        for name, start, end, parent, _, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
            else:
                self.top_level += end - start
        for i, (name, start, end, parent, _, key) in enumerate(spans):
            self.calls[name] += 1
            self.own[name] += end - start - child_time[i]
            if parent < 0 or spans[parent][0] != name:
                self.inclusive[name] += end - start
                self.durations[(name, key)].append(end - start)


def median_or_zero(values) -> float:
    return statistics.median(values) if values else 0.0
