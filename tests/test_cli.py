import csv
import json
import math

import numpy as np
import pytest

from walkforge import io
from walkforge.cli import main
from walkforge.lattice import CoinSchedule, JumpSchedule, ProbabilitySequence
from walkforge.targets import binomial_target


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_feasible(capsys):
    code, out, _ = run(capsys, "validate", "--target", "uniform", "-T", "10")
    assert code == 0
    doc = json.loads(out)
    assert doc["feasible"] is True
    assert doc["violations"] == []


def test_validate_infeasible_reports_sites(capsys, tmp_path):
    rho = ProbabilitySequence([[1.0], [0.5, 0.5], [0.05, 0.05, 0.9]])
    path = tmp_path / "bad.json"
    io.write_field_json(rho, path)
    code, out, _ = run(capsys, "validate", "--target", f"file:{path}")
    assert code == 1
    doc = json.loads(out)
    assert doc["feasible"] is False
    assert doc["violations"][0]["n"] == 1
    assert doc["violations"][0]["t"] == 1


def test_roundtrip_uniform_qw(capsys):
    code, out, _ = run(capsys, "roundtrip", "--target", "uniform",
                       "-T", "20", "--walk", "qw")
    assert code == 0
    doc = json.loads(out)
    assert doc["pass"] is True
    assert doc["max_error"] < 1e-10


def test_roundtrip_rw(capsys):
    code, out, _ = run(capsys, "roundtrip", "--target", "binomial:0.3",
                       "-T", "20", "--walk", "rw")
    assert code == 0
    assert json.loads(out)["pass"] is True


def test_roundtrip_infeasible_target_is_input_error(capsys, tmp_path):
    rho = ProbabilitySequence([[1.0], [0.5, 0.5], [0.05, 0.05, 0.9]])
    path = tmp_path / "bad.json"
    io.write_field_json(rho, path)
    code, out, err = run(capsys, "roundtrip", "--target", f"file:{path}",
                         "--walk", "qw")
    assert code == 2
    assert out == ""
    assert "infeasible" in json.loads(err)["error"]


def test_synth_then_evolve_files(capsys, tmp_path):
    sched_path = tmp_path / "coins.json"
    code, _, _ = run(capsys, "synth", "--target", "uniform", "-T", "15",
                     "--walk", "qw", "--out", str(sched_path))
    assert code == 0
    assert isinstance(io.read_schedule_json(sched_path), CoinSchedule)

    rho_path = tmp_path / "rho.json"
    code, _, _ = run(capsys, "evolve", "--schedule", str(sched_path),
                     "--out", str(rho_path), "--format", "json")
    assert code == 0
    back = io.read_probability_json(rho_path)
    assert np.allclose(back.slices[15], np.full(16, 1 / 16), atol=1e-12)


def test_synth_rw_then_mc_csv(capsys, tmp_path):
    sched_path = tmp_path / "jumps.json"
    code, _, _ = run(capsys, "synth", "--target", "binomial:0.5", "-T", "8",
                     "--walk", "rw", "--out", str(sched_path))
    assert code == 0
    assert isinstance(io.read_schedule_json(sched_path), JumpSchedule)

    mc_path = tmp_path / "mc.csv"
    code, _, _ = run(capsys, "mc", "--schedule", str(sched_path),
                     "-N", "2000", "--seed", "11", "--out", str(mc_path))
    assert code == 0
    with open(mc_path) as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"t", "n", "rho", "stderr"}
    total = sum(float(r["rho"]) for r in rows if r["t"] == "8")
    assert total == pytest.approx(1.0, abs=1e-12)


def test_evolve_stdout_json(capsys, tmp_path):
    sched_path = tmp_path / "jumps.json"
    run(capsys, "synth", "--target", "binomial:0.4", "-T", "6",
        "--walk", "rw", "--out", str(sched_path))
    code, out, _ = run(capsys, "evolve", "--schedule", str(sched_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["horizon"] == 6
    ref = binomial_target(0.4, 6)
    assert np.allclose(doc["slices"][6], ref.slices[6], atol=1e-12)


def test_evolve_rejects_bad_init(capsys, tmp_path):
    sched_path = tmp_path / "coins.json"
    run(capsys, "synth", "--target", "uniform", "-T", "4",
        "--walk", "qw", "--out", str(sched_path))
    code, _, err = run(capsys, "evolve", "--schedule", str(sched_path),
                       "--init", "1,1")
    assert code == 2
    assert "norm" in json.loads(err)["error"]


def test_hadamard_routes_agree(capsys):
    args = ["hadamard", "--theta", repr(math.pi / 4), "--eta",
            repr(3 * math.pi / 8), "-T", "12"]
    code, out_a, _ = run(capsys, *args, "--recursion")
    code_b, out_b, _ = run(capsys, *args, "--closed-form")
    assert code == 0 and code_b == 0
    a = json.loads(out_a)["slices"]
    b = json.loads(out_b)["slices"]
    for sa, sb in zip(a, b):
        assert np.allclose(sa, sb, atol=1e-12)


@pytest.mark.parametrize("route", ["--recursion", "--closed-form",
                                   "--asymptotic"])
def test_hadamard_requires_horizon(capsys, route):
    code, out, err = run(capsys, "hadamard", "--theta", "0.7", route)
    assert code == 2
    assert out == ""
    assert "--horizon" in json.loads(err)["error"]


def test_evolve_walk_must_match_schedule(capsys, tmp_path):
    sched_path = tmp_path / "coins.json"
    run(capsys, "synth", "--target", "uniform", "-T", "4",
        "--walk", "qw", "--out", str(sched_path))
    code, out, err = run(capsys, "evolve", "--walk", "rw",
                         "--schedule", str(sched_path))
    assert code == 2
    assert out == ""
    assert "does not match" in json.loads(err)["error"]
    code, out, _ = run(capsys, "evolve", "--walk", "qw",
                       "--schedule", str(sched_path))
    assert code == 0
    assert json.loads(out)["horizon"] == 4


def test_hadamard_asymptotic_route(capsys):
    code, out, _ = run(capsys, "hadamard", "--theta", repr(math.pi / 4),
                       "--eta", repr(3 * math.pi / 8), "-T", "50",
                       "--asymptotic")
    assert code == 0
    doc = json.loads(out)
    assert doc["t"] == 50
    ns = [e["n"] for e in doc["entries"]]
    assert all(abs(n) < 50 * math.cos(math.pi / 4) for n in ns)
    assert all(e["value"] > 0 for e in doc["entries"])


@pytest.mark.parametrize("which", ["fig1", "fig2"])
def test_figure_outputs(capsys, tmp_path, which):
    code, _, _ = run(capsys, "figure", "--which", which, "-T", "12",
                     "-N", "3000", "--seed", "1", "--out", str(tmp_path))
    assert code == 0
    with open(tmp_path / f"{which}.csv") as fh:
        rows = list(csv.DictReader(fh))
    assert set(rows[0]) == {"n", "exact", "mc", "stderr"}
    assert len(rows) == 13
    assert sum(float(r["exact"]) for r in rows) == pytest.approx(1.0,
                                                                 abs=1e-12)


def test_config_file_defaults_and_override(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# defaults\ntarget = uniform\nhorizon = 9\n")
    code, out, _ = run(capsys, "validate", "--config", str(cfg))
    assert code == 0

    # An explicit flag beats the file value.
    code, out, _ = run(capsys, "roundtrip", "--config", str(cfg),
                       "--walk", "qw", "--target", "binomial:0.5")
    assert code == 0
    assert json.loads(out)["target"] == "binomial:0.5"


def test_config_file_rejects_unknown_keys(capsys, tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("bogus = 1\n")
    code, _, err = run(capsys, "validate", "--config", str(cfg),
                       "--target", "uniform", "-T", "3")
    assert code == 2
    assert "bogus" in json.loads(err)["error"]


def test_bad_target_spec_is_input_error(capsys):
    code, _, err = run(capsys, "validate", "--target", "gaussian", "-T", "3")
    assert code == 2
    assert "error" in json.loads(err)


@pytest.mark.parametrize("flag", [["-T3"], ["-T", "3"], ["--horizon=3"],
                                  ["--horizon", "3"]],
                         ids=["-T3", "-T 3", "--horizon=3", "--horizon 3"])
def test_explicit_flag_beats_config_in_every_spelling(capsys, tmp_path, flag):
    sched_path = tmp_path / "jumps.json"
    run(capsys, "synth", "--target", "uniform", "-T", "5", "--walk", "rw",
        "--out", str(sched_path))
    cfg = tmp_path / "cfg"
    cfg.write_text(f"schedule = {sched_path}\nhorizon = 5\n")
    code, out, _ = run(capsys, "evolve", "--config", str(cfg), *flag)
    assert code == 0
    assert json.loads(out)["horizon"] == 3
    code, out, _ = run(capsys, "evolve", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["horizon"] == 5


# Each subcommand with malformed input: (argv, text the error must contain).
# "{tmp}" holds coins.json (a qw schedule), jumps.json (an rw schedule),
# v1.json (a schema 1 schedule), a plain file, bogus.cfg, badint.cfg,
# route.cfg, overflow.csv (a slice whose sum overflows) and, for each bad
# slice-table horizon h in HORIZONS, field-h.json and jump-h.json, holding
# the slices int(h) would call for; missing* names nothing.
CONTRACT = [
    (["validate"], "--target"),
    (["validate", "--target", "gaussian", "-T", "3"], "gaussian"),
    (["validate", "--target", "file:{tmp}/missing.csv"], "No such file"),
    (["validate", "--target", "file:{tmp}/plain"], "no data rows"),
    (["validate", "--config", "{tmp}/missing.cfg"], "No such file"),
    (["validate", "--config", "{tmp}/bogus.cfg"], "bogus"),
    (["synth", "--target", "uniform", "-T", "3"], "--walk"),
    (["synth", "--target", "uniform", "-T", "3", "--walk", "qw",
      "--out", "{tmp}/missing/coins.json"], "No such file"),
    (["evolve"], "--schedule"),
    (["evolve", "--schedule", "{tmp}/missing.json"], "No such file"),
    (["evolve", "--schedule", "{tmp}/plain"], "invalid JSON"),
    (["evolve", "--schedule", "{tmp}/v1.json"], "v1 schedule"),
    (["evolve", "--schedule", "{tmp}/coins.json", "--init", "a,b"], "--init"),
    (["evolve", "--schedule", "{tmp}/coins.json", "--init", "1"], "--init"),
    (["evolve", "--schedule", "{tmp}/coins.json", "--walk", "rw"],
     "does not match"),
    (["evolve", "--schedule", "{tmp}/coins.json", "-T", "9"], "covers 3"),
    (["mc"], "--schedule"),
    (["mc", "--schedule", "{tmp}/missing.json"], "No such file"),
    (["mc", "--schedule", "{tmp}/v1.json"], "v1 schedule"),
    (["mc", "--schedule", "{tmp}/coins.json"], "qw schedule"),
    (["hadamard", "--theta", "0.7"], "--horizon"),
    (["hadamard", "-T", "3"], "--theta"),
    (["roundtrip", "--target", "uniform", "-T", "3"], "--walk"),
    (["roundtrip", "--target", "file:{tmp}/missing.json", "--walk", "rw"],
     "No such file"),
    (["figure"], "--which"),
    (["figure", "--which", "fig1", "-T", "4", "-N", "10",
      "--out", "{tmp}/plain"], "File exists"),
    (["evolve", "--schedule", "{tmp}/coins.json", "-T", "-2"],
     "horizon must be >= 0"),
    (["hadamard", "--theta", "0.7", "-T", "-1"], "horizon must be >= 0"),
    (["hadamard", "--closed-form", "--theta", "0.7", "-T", "-1"],
     "horizon must be >= 0"),
    (["hadamard", "--asymptotic", "--theta", "0.7", "-T", "-1"],
     "negative time"),
    (["evolve", "-T", "x"], "invalid int value: 'x'"),
    (["evolve", "--bogus"], "unrecognized arguments: --bogus"),
    (["synth", "--walk", "xx"], "invalid choice: 'xx'"),
    ([], "required: command"),
    (["mc", "--schedule", "{tmp}/jumps.json", "--seed", "-1"],
     "seed must be in [0, 2**63)"),
    (["mc", "--schedule", "{tmp}/jumps.json", "--seed", str(2 ** 63)],
     "seed must be in [0, 2**63)"),
    (["figure", "--which", "fig1", "-T", "4", "-N", "10", "--seed", "-1",
      "--out", "{tmp}"], "seed must be in [0, 2**63)"),
    (["validate", "--target", "uniform", "-T", "3", "--tol", "nan"],
     "tol must be >= 0"),
    (["evolve", "--schedule", "{tmp}/coins.json", "--init", "nan,0"],
     "initial state norm nan"),
    (["validate", "--target", "uniform", "--config", "{tmp}/badint.cfg"],
     "invalid int value: 'x'"),
    (["validate", "--target", "file:{tmp}/overflow.csv"], "sums to inf"),
    (["hadamard", "--theta", "0.7", "-T", "3", "--config", "{tmp}/route.cfg"],
     "config value route='closedform' not in "
     "('closed-form', 'recursion', 'asymptotic')"),
    (["validate", "--target", "file:{tmp}/field-1e400.json"],
     "horizon must be a JSON integer >= 0, got Infinity"),
    (["evolve", "--schedule", "{tmp}/jump-1e400.json"],
     "horizon must be a JSON integer >= 0, got Infinity"),
    (["mc", "--schedule", "{tmp}/jump-1e400.json"],
     "horizon must be a JSON integer >= 0, got Infinity"),
    (["validate", "--target", "file:{tmp}/field--1.json"],
     "horizon must be a JSON integer >= 0, got -1"),
    (["synth", "--target", "file:{tmp}/field--1.json", "--walk", "rw",
      "--out", "{tmp}/jumps-out.json"],
     "horizon must be a JSON integer >= 0, got -1"),
    (["validate", "--target", "file:{tmp}/field-2.7.json"],
     "horizon must be a JSON integer >= 0, got 2.7"),
    (["evolve", "--schedule", "{tmp}/jump-2.7.json"],
     "horizon must be a JSON integer >= 0, got 2.7"),
    (["validate", "--target", "file:{tmp}/field-true.json"],
     "horizon must be a JSON integer >= 0, got true"),
    (["mc", "--schedule", "{tmp}/jump-true.json"],
     "horizon must be a JSON integer >= 0, got true"),
]

# Slice-table horizons that are not JSON integers >= 0, as JSON text, with
# the horizon int() made of each (1e400 overflows, so any will do).
HORIZONS = {"1e400": 2, "-1": -1, "2.7": 2, "true": 1}


@pytest.mark.parametrize("argv, expected", CONTRACT,
                         ids=[" ".join(a) or "(no subcommand)"
                              for a, _ in CONTRACT])
def test_input_errors_exit_2_with_one_json_object(capsys, tmp_path, argv,
                                                  expected):
    run(capsys, "synth", "--target", "uniform", "-T", "3", "--walk", "qw",
        "--out", str(tmp_path / "coins.json"))
    (tmp_path / "v1.json").write_text(json.dumps({
        "schema_version": 1, "horizon": 1, "kind": "jump",
        "entries": [{"t": 0, "n": 0, "value": 0.5}]}))
    io.write_schedule_json(JumpSchedule([[0.5], [0.5, 0.5]]),
                           tmp_path / "jumps.json")
    (tmp_path / "plain").write_text("not json\n")
    (tmp_path / "bogus.cfg").write_text("bogus = 1\n")
    (tmp_path / "badint.cfg").write_text("horizon = x\n")
    (tmp_path / "route.cfg").write_text("route = closedform\n")
    for text, steps in HORIZONS.items():
        field = [[1.0 / (t + 1)] * (t + 1) for t in range(steps + 1)]
        head = f'{{"schema_version": 2, "horizon": {text}, '
        (tmp_path / f"field-{text}.json").write_text(
            head + f'"slices": {json.dumps(field)}}}')
        (tmp_path / f"jump-{text}.json").write_text(
            head + f'"kind": "jump", "slices": {json.dumps(field[:steps])}}}')
    (tmp_path / "overflow.csv").write_text(
        "t,n,value\n0,0,1\n1,-1,1e308\n1,1,1e308\n")
    # main returning at all, rather than raising, means no traceback.
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    doc = json.loads(err)
    assert list(doc) == ["error"]
    assert expected in doc["error"]


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: walkforge evolve")
    assert captured.err == ""
