"""The paired-run tool's summary, on result files written here: no benchmark runs."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "benchpair.py"
spec = importlib.util.spec_from_file_location("benchpair", TOOL)
benchpair = importlib.util.module_from_spec(spec)
spec.loader.exec_module(benchpair)


def write_result(path, digest, host_us, peak_kb, wrong=()):
    """A perfbench result file, with the fields the tool reads and one it does not."""
    report = {
        "workload": "tmr_stream", "seed": 7, "python": "3.11.7", "nproc": 2, "digest": digest,
        "attempted": 200, "failed": 0, "wrong": list(wrong), "op_digests": [digest],
        "metrics": {
            "host_us_per_op_norm": {"value": host_us, "unit": "us", "n": 40},
            "peak_mem_kb_per_op": {"value": peak_kb, "unit": "KB", "n": 1},
        },
    }
    path.write_text(json.dumps(report))
    return str(path)


def test_summary_of_two_result_files(tmp_path):
    base = benchpair.read_result(write_result(tmp_path / "base.json", "aa", 220.0, 4.0))
    head = benchpair.read_result(write_result(tmp_path / "head.json", "aa", 210.0, 4.0))
    assert base == {
        "seed": 7, "digest": "aa", "correct": True, "attempted": 200, "failed": 0,
        "python": "3.11.7", "nproc": 2, "metrics": {"host_us_per_op_norm": 220.0, "peak_mem_kb_per_op": 4.0},
    }
    pairs = [{"seed": 7, "first": "base", "base": base, "head": head},
             {"seed": 7, "first": "head", "base": head, "head": base}]
    summary = benchpair.summarize(pairs, {"host_us_per_op_norm": "lower", "peak_mem_kb_per_op": "lower"})
    host = summary["metrics"]["host_us_per_op_norm"]
    assert host["base"] == host["head"] == {"q1": 212.5, "median": 215.0, "q3": 217.5}
    assert host["wins"] == {"base": 1, "head": 1, "tie": 0}
    assert summary["metrics"]["peak_mem_kb_per_op"]["wins"] == {"base": 0, "head": 0, "tie": 2}
    assert summary["digests_equal"] and summary["correct"] == {"base": True, "head": True}
    assert summary["failed"] == {"base": 0, "head": 0}


def test_summary_flags_split_digests_and_wrong_runs(tmp_path):
    base = benchpair.read_result(write_result(tmp_path / "base.json", "aa", 220.0, 4.0))
    head = benchpair.read_result(write_result(tmp_path / "head.json", "bb", 230.0, 4.0, wrong=["op 0: digest"]))
    summary = benchpair.summarize([{"seed": 7, "first": "base", "base": base, "head": head}],
                                  {"host_us_per_op_norm": "higher"})
    assert not summary["digests_equal"]
    assert summary["correct"] == {"base": True, "head": False}
    host = summary["metrics"]["host_us_per_op_norm"]
    assert host["head"] == {"q1": 230.0, "median": 230.0, "q3": 230.0}
    assert host["wins"] == {"base": 0, "head": 1, "tie": 0}


def test_verdict_flags_a_regression_past_its_bound_and_the_gain_rule():
    def run(host_us, peak_kb):
        return {"digest": "aa", "correct": True, "failed": 0,
                "metrics": {"host_us_per_op_norm": host_us, "peak_mem_kb_per_op": peak_kb}}

    # HEAD is 6 us faster on each seed, past BASE's interquartile range
    # of 4.5 us, and 25% larger.
    pairs = [{"seed": k, "first": "base", "base": run(100.0 + k, 4.0), "head": run(94.0 + k, 5.0)} for k in range(10)]
    summary = benchpair.summarize(pairs, {"host_us_per_op_norm": "lower", "peak_mem_kb_per_op": "lower"})
    host, peak = summary["metrics"]["host_us_per_op_norm"], summary["metrics"]["peak_mem_kb_per_op"]
    assert benchpair.verdict("tmr_stream host_us_per_op_norm", host, 0.25) == (
        "tmr_stream host_us_per_op_norm: base 104.5 (102.25-106.75), head 98.5 (96.25-100.75), "
        "head won 10/10, worse by more than 25%: no, gain rule: yes, unresolved: no")
    assert benchpair.verdict("tmr_stream peak_mem_kb_per_op", peak, 0.15).endswith(
        "head won 0/10, worse by more than 15%: yes, gain rule: no, unresolved: no")
    assert benchpair.verdict("p", peak, 0.30).endswith("worse by more than 30%: no, gain rule: no, unresolved: no")
    # Winning every pair is not enough when the medians sit within BASE's spread.
    close = [{"seed": k, "first": "base", "base": run(100.0 + k, 4.0), "head": run(99.0 + k, 4.0)} for k in range(10)]
    assert benchpair.verdict("c", benchpair.summarize(close, {"host_us_per_op_norm": "lower"})[
        "metrics"]["host_us_per_op_norm"], 0.25).endswith("head won 10/10, worse by more than 25%: no, gain rule: no, unresolved: no")

    pairs[9]["head"] = run(110.0, 4.0)  # 9 of 10 pairs still meet the rule
    assert benchpair.verdict("h", benchpair.summarize(pairs, {"host_us_per_op_norm": "lower"})[
        "metrics"]["host_us_per_op_norm"], 0.25).endswith("head won 9/10, worse by more than 25%: no, gain rule: yes, unresolved: no")
    pairs[8]["head"] = run(110.0, 4.0)  # 8 of 10 do not
    assert benchpair.verdict("h", benchpair.summarize(pairs, {"host_us_per_op_norm": "lower"})[
        "metrics"]["host_us_per_op_norm"], 0.25).endswith("head won 8/10, worse by more than 25%: no, gain rule: no, unresolved: no")
    # A higher-is-better metric reads the same rule the other way round;
    # BASE's interquartile range, 4.5, is past 1% of its median.
    flipped = benchpair.summarize(pairs, {"host_us_per_op_norm": "higher"})["metrics"]["host_us_per_op_norm"]
    assert benchpair.verdict("h", flipped, 0.01).endswith("head won 2/10, worse by more than 1%: yes, gain rule: no, unresolved: yes")


def test_verdict_calls_a_metric_unresolved_when_bases_own_runs_spread_past_its_bound():
    def run(setup_s):
        return {"digest": "aa", "correct": True, "failed": 0, "metrics": {"setup_s": setup_s}}

    def line(base, head):
        pairs = [{"seed": k, "first": "base", "base": run(b), "head": run(h)} for k, (b, h) in enumerate(zip(base, head))]
        return benchpair.verdict("wide_farm setup_s", benchpair.summarize(pairs, {"setup_s": "lower"})["metrics"]["setup_s"], 0.25)

    # setup_s reads in 50 ms steps: BASE's interquartile range, 0.1 s, is
    # wider than 25% of its 0.25 s median.
    base = [0.2, 0.2, 0.2, 0.3, 0.3, 0.3]
    assert line(base, [0.3, 0.3, 0.3, 0.35, 0.35, 0.35]) == (
        "wide_farm setup_s: base 0.25 (0.2-0.3), head 0.325 (0.3-0.35), head won 0/6, "
        "worse by more than 25%: yes, gain rule: no, unresolved: yes")
    assert line(base, [0.2, 0.2, 0.25, 0.25, 0.3, 0.3]).endswith("worse by more than 25%: no, gain rule: no, unresolved: yes")
    # Every HEAD run better than every BASE run resolves it.
    assert line(base, [0.15] * 6).endswith("head won 6/6, worse by more than 25%: no, gain rule: yes, unresolved: no")
    # A spread within the bound does not make it unresolved.
    assert line([0.25, 0.26, 0.27, 0.28, 0.29, 0.3], [0.3] * 6).endswith("unresolved: no")
