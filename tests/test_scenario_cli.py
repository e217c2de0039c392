"""Scenario engine and the vf command line."""

import json
import shutil
from pathlib import Path

import pytest

from votingfarm import cli
from votingfarm.scenario import (
    ScenarioError,
    bundled_dir,
    check_phase_grammar,
    resolve_scenario,
    run_scenario,
    validate_scenario,
    write_artifacts,
)

HERE = Path(__file__).parent

BUNDLED = [
    "tmr_happy",
    "tmr_one_crash",
    "n5_two_faults",
    "three_and_one_spare",
    "graceful_degradation",
]


def load(name):
    return resolve_scenario(name)


# -- scenario engine ------------------------------------------------------

def test_resolve_by_name_and_by_path():
    by_name, dirs = load("tmr_happy")
    assert by_name["name"] == "tmr_happy"
    assert bundled_dir() in dirs
    path = Path(bundled_dir()) / "tmr_happy.json"
    by_path, _ = resolve_scenario(str(path))
    assert by_path == by_name


def test_resolve_missing_and_malformed(tmp_path):
    with pytest.raises(ScenarioError, match="no scenario named"):
        resolve_scenario("does_not_exist")
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ScenarioError, match="not valid JSON"):
        resolve_scenario(str(bad))


@pytest.mark.parametrize(
    "mutation,message",
    [
        ({"farm": []}, "non-empty farm"),
        ({"farm": [[1, 1], [2, 1]]}, "bad farm layout"),
        ({"delta_t": 1, "delivery_delay": 3}, "delta_t must exceed"),
        ({"metric": "hamming"}, "unknown metric"),
        ({"faults": [{"kind": "gamma-ray"}]}, "unknown fault kind"),
        ({"faults": [{"kind": "crash", "role": "dirnet"}]}, "fault role"),
        ({"spares": [{"entity": 9}]}, "each spare needs"),
        ({"algorithm": {"kind": "borda"}}, "bad algorithm selection"),
    ],
)
def test_validate_rejects(mutation, message):
    spec, _ = load("tmr_happy")
    spec = {**spec, **mutation}
    with pytest.raises(ScenarioError, match=message):
        validate_scenario(spec)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_scenarios_pass(name):
    spec, dirs = load(name)
    result = run_scenario(spec, dirs)
    failed = [a for a in result.assertions if not a["ok"]]
    assert result.passed, failed


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("jitter", range(4))
def test_spare_start_after_early_crash_keeps_invariants(seed, jitter):
    # A voter crashed before the spare starts stays in the view without
    # a link to the spare; the spare's broadcast to it is a traced drop.
    spec, dirs = load(str(HERE / "scenarios" / "three_and_one_spare_early_crash.json"))
    result = run_scenario({**spec, "seed": seed, "jitter": jitter}, dirs)
    assert result.sim.quiescent and not result.trace.max_time_exceeded
    assert result.all_users_finished()
    assert check_phase_grammar(result) == []
    values = {}
    for rep in result.users.values():
        for out in rep["outputs"]:
            values.setdefault(out["session"], set()).add(out["value"])
    assert values and all(len(v) == 1 for v in values.values()), values


@pytest.mark.parametrize("seed", range(3))
def test_fault_can_name_a_spare(seed):
    # The spare is started by recovery and then crashes.  The shipped
    # assertions expect the spare to stay up, so only the invariants
    # are checked here.
    spec, dirs = load("three_and_one_spare")
    crash = {"kind": "crash", "role": "voter", "entity": 4, "at": 60}
    spec = {**spec, "seed": seed, "jitter": seed, "faults": spec["faults"] + [crash]}
    result = run_scenario(spec, dirs)
    assert any(
        ev.kind == "fault" and ev.frm == "voter:4@4" and ev.detail == "crash"
        for ev in result.trace
    )
    assert result.sim.quiescent and not result.trace.max_time_exceeded
    assert result.all_users_finished()
    assert check_phase_grammar(result) == []
    values = {}
    for rep in result.users.values():
        for out in rep["outputs"]:
            values.setdefault(out["session"], set()).add(out["value"])
    assert values and all(len(v) == 1 for v in values.values()), values


def test_happy_run_delivers_exactly_three_completions():
    spec, dirs = load("tmr_happy")
    result = run_scenario(spec, dirs)
    done = [
        ev
        for ev in result.trace
        if ev.kind == "deliver"
        and ev.to.startswith("user")
        and "status=VF_DONE" in ev.detail
        and "detail=ok" in ev.detail
    ]
    assert len(done) == 3


def test_artifacts_are_reproducible(tmp_path):
    spec, dirs = load("tmr_one_crash")
    paths = []
    for sub in ("a", "b"):
        result = run_scenario(spec, dirs)
        paths.append(write_artifacts(result, str(tmp_path / sub)))
    for first, second in zip(*paths):
        assert Path(first).name == Path(second).name
        assert Path(first).read_bytes() == Path(second).read_bytes()
    names = {Path(p).name for p in paths[0]}
    assert names == {"trace.txt", "results.json", "actions.log"}


# -- vf run ------------------------------------------------------------------

@pytest.mark.parametrize("name", BUNDLED)
def test_cli_run_bundled(name, capsys):
    assert cli.main(["run", name]) == 0
    out = capsys.readouterr().out
    assert f"PASS {name}" in out
    assert "FAIL" not in out


def test_cli_run_writes_artifacts(tmp_path, capsys):
    outdir = tmp_path / "artifacts"
    assert cli.main(["run", "tmr_happy", "--output-dir", str(outdir)]) == 0
    out = capsys.readouterr().out
    assert (outdir / "trace.txt").is_file()
    assert (outdir / "results.json").is_file()
    assert out.count("wrote ") == 3
    summary = json.loads((outdir / "results.json").read_text())
    assert summary["name"] == "tmr_happy"


def test_cli_run_honours_output_dir_env(tmp_path, capsys, monkeypatch):
    outdir = tmp_path / "from_env"
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(outdir))
    assert cli.main(["run", "tmr_happy"]) == 0
    assert (outdir / "results.json").is_file()


def test_cli_run_unknown_scenario(capsys):
    assert cli.main(["run", "no_such_thing"]) == 2
    assert "vf:" in capsys.readouterr().err


def test_cli_run_malformed_scenario(tmp_path, capsys):
    bad = tmp_path / "broken.json"
    bad.write_text("[1, 2")
    assert cli.main(["run", str(bad)]) == 2


def test_cli_run_failing_assertion(tmp_path, capsys):
    spec, _ = load("tmr_happy")
    spec["assertions"] = [
        {"type": "output-equals", "session": 0, "value": "00" * 8}
    ]
    target = tmp_path / "wrong.json"
    target.write_text(json.dumps(spec))
    assert cli.main(["run", str(target)]) == 1
    out = capsys.readouterr().out
    assert "FAIL" in out


# -- vf rl ----------------------------------------------------------------------

def test_cli_rl_compile_and_disasm(tmp_path, capsys):
    src = tmp_path / "strategy.rl"
    shutil.copy(Path(bundled_dir()) / "table4.rl", src)
    assert cli.main(["rl", "compile", str(src), "-I", bundled_dir()]) == 0
    out = capsys.readouterr().out
    assert "compiled 1 rule(s)" in out
    rc = tmp_path / "strategy.rc"
    assert rc.is_file()

    assert cli.main(["rl", "disasm", str(rc)]) == 0
    text = capsys.readouterr().out
    assert "KILL THREAD1" in text
    assert "START THREAD4" in text
    assert "WARN THREAD2, THREAD3" in text
    assert text.splitlines()[0].startswith("# INCLUDE")


def test_cli_rl_compile_to_chosen_path(tmp_path, capsys):
    out = tmp_path / "a.bin"
    assert (
        cli.main(
            [
                "rl",
                "compile",
                str(Path(bundled_dir()) / "table5.rl"),
                "-o",
                str(out),
            ]
        )
        == 0
    )
    assert out.read_bytes().startswith(b"EFRC")


def test_cli_rl_compile_syntax_error(tmp_path, capsys):
    src = tmp_path / "bad.rl"
    src.write_text("IF [ -FAULTY THREAD1 ] THEN\nFI")
    assert cli.main(["rl", "compile", str(src)]) == 2
    assert "vf:" in capsys.readouterr().err


def test_cli_rl_disasm_rejects_garbage(tmp_path, capsys):
    blob = tmp_path / "junk.rc"
    blob.write_bytes(b"\x00" * 16)
    assert cli.main(["rl", "disasm", str(blob)]) == 2


# -- vf reliability -----------------------------------------------------------

def test_cli_reliability_crosspoints(capsys):
    assert cli.main(["reliability", "--crosspoints", "--C", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "triple-vs-simplex R=0.500000"
    assert lines[1] == "spare-vs-simplex C=1 R=0.232408"


def test_cli_reliability_verify_markov(capsys):
    assert (
        cli.main(
            ["reliability", "--verify-markov", "--lambda", "0.001", "--C", "0,0.5,1"]
        )
        == 0
    )
    out = capsys.readouterr().out
    assert out.count("max|numeric-analytic|") == 3
    assert "OK" in out.strip().split("\n")[-1]


def test_cli_reliability_curves_with_zero_coverage(capsys):
    assert cli.main(["reliability", "--C", "0", "--grid", "0.1"]) == 0
    out = capsys.readouterr().out
    rows = [ln for ln in out.strip().split("\n") if ln[0].isdigit()]
    assert len(rows) == 11
    for row in rows:
        _, base, spare, delta = row.split(",")
        assert base == spare
        assert float(delta) == 0.0


def test_cli_reliability_curve_file(tmp_path, capsys):
    target = tmp_path / "curves.csv"
    assert cli.main(["reliability", "--C", "0.5", "--out", str(target)]) == 0
    assert target.read_text().startswith("# C=0.5")


# -- vf perf ----------------------------------------------------------------

def test_cli_perf_steps(capsys):
    assert cli.main(["perf", "--steps", "--N", "4..64"]) == 0
    out = capsys.readouterr().out
    assert "# identity, half duplex" in out
    assert "# onecycle, half duplex" in out
    assert "4,9,0.6667" in out
    assert "64,189,0.6667" in out
    fits = [ln for ln in out.split("\n") if ln.startswith("fit ")]
    assert any("identity" in ln and "quadratic" in ln for ln in fits)
    assert any("onecycle" in ln and "linear" in ln for ln in fits)
    for ln in fits:
        assert float(ln.rsplit("=", 1)[1]) >= 0.999


@pytest.mark.parametrize(
    "sizes, skipped",
    [("4", ["identity", "onecycle"]), ("4,8", ["identity", "onecycle"]), ("4,8,16", ["identity"])],
)
def test_cli_perf_steps_skips_a_fit_without_spare_points(capsys, sizes, skipped):
    assert cli.main(["perf", "--steps", "--N", sizes]) == 0
    captured = capsys.readouterr()
    fits = [ln for ln in captured.out.split("\n") if ln.startswith("fit ")]
    needs = {"identity": 4, "onecycle": 3}
    assert [ln for ln in fits if "skipped" in ln] == [
        f"fit {name}: skipped (needs at least {needs[name]} sizes)" for name in skipped
    ]
    assert len(fits) == 2
    assert captured.err == ""


def test_cli_perf_unknown_permutation(capsys):
    assert cli.main(["perf", "--steps", "--perm", "zigzag"]) == 2


def test_cli_perf_resources(capsys):
    sizes = ",".join(str(n) for n in range(1, 9))
    assert cli.main(["perf", "--resources", "--N", sizes]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines == [f"{n},{n},{n * (n - 1) // 2}" for n in range(1, 9)]


def test_cli_perf_latency_table(capsys):
    assert cli.main(["perf", "--table6", "--repeats", "1"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == "N,average,standard deviation"
    assert lines[1:] == ["1,3,0", "2,5,0", "3,8,0", "4,12,0"]


@pytest.mark.parametrize(
    "argv, message",
    [
        (["--steps", "--N", "0..8"], "bad --N"),
        (["--steps", "--N", "8..4"], "bad --N"),
        (["--resources", "--N", "4,x"], "bad --N"),
        (["--table6", "--repeats", "0"], "repeats must be at least 1"),
    ],
    ids=["range-from-zero", "empty-range", "not-a-number", "zero-repeats"],
)
def test_cli_perf_rejects_unusable_sizes_and_repeats(capsys, argv, message):
    assert cli.main(["perf", *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("vf: ") and message in err


def test_cli_perf_needs_a_request(capsys):
    assert cli.main(["perf"]) == 2
    assert "pick at least one" in capsys.readouterr().err
