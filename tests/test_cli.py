import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import walkforge
from oracles import peak_buffers, random_jump_target
from walkforge import cli, evolve, io
from walkforge.cli import main
from walkforge.evolve import evolve_rw_exact
from walkforge.feasibility import validate_sequence
from walkforge.lattice import (CoinSchedule, JumpSchedule,
                               ProbabilitySequence, slice_offset)
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


def test_roundtrip_qw_binomial_at_T1000(capsys):
    # From t = 604 the edge of rho is subnormal.
    code, out, _ = run(capsys, "roundtrip", "--target", "binomial:0.3",
                       "-T", "1000", "--walk", "qw")
    assert code == 0
    assert json.loads(out)["max_error"] < 1e-10


def test_roundtrip_with_empty_interior_sites(capsys, tmp_path):
    rho = random_jump_target(np.random.default_rng(1), 12, p_edge=0.3)
    path = tmp_path / "target.csv"
    io.write_field_csv(rho, path)
    target = f"file:{path}"
    code, out, _ = run(capsys, "validate", "--target", target)
    assert code == 0 and json.loads(out)["feasible"] is True
    for walk in ("rw", "qw"):
        code, out, _ = run(capsys, "roundtrip", "--target", target,
                           "--walk", walk)
        assert code == 0
        assert json.loads(out)["max_error"] < 1e-10


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


@pytest.mark.parametrize("command", ["synth", "roundtrip"])
@pytest.mark.parametrize("walk", ["qw", "rw"])
def test_synthesis_splits_the_target_once(capsys, tmp_path, monkeypatch,
                                          command, walk):
    from walkforge import feasibility
    calls = []
    split = feasibility._split

    def counted(rho):
        calls.append(rho)
        return split(rho)

    monkeypatch.setattr(feasibility, "_split", counted)
    argv = [command, "--target", "binomial:0.3", "-T", "9", "--walk", walk]
    if command == "synth":
        argv += ["--out", str(tmp_path / "s.json")]
    code, _, _ = run(capsys, *argv)
    assert code == 0
    assert len(calls) == 1


@pytest.mark.parametrize("command", ["synth", "roundtrip"])
@pytest.mark.parametrize("walk", ["qw", "rw"])
def test_synthesis_builds_no_feasibility_report(capsys, tmp_path, monkeypatch,
                                                command, walk):
    # The report's site lists cost a tuple per boundary or undefined site;
    # synthesis needs only the flux-bound test and its split.
    argv = [command, "--target", "binomial:0.3", "-T", "40", "--walk", walk]
    if command == "synth":
        argv += ["--out", str(tmp_path / "s.json")]
    outputs = []
    for _ in range(2):
        code, out, err = run(capsys, *argv)
        assert code == 0 and err == ""
        outputs.append((tmp_path / "s.json").read_bytes()
                       if command == "synth" else out)
        monkeypatch.setattr(cli, "validate_sequence", None)  # calls raise
    assert outputs[0] == outputs[1]


def test_infeasible_synthesis_names_five_sites_without_a_report(
        capsys, tmp_path, monkeypatch):
    # The mass jumps from one cone edge to the other at every step.
    slices = [[1.0]] + [[1.0] + [0.0] * t if t % 2 else [0.0] * t + [1.0]
                        for t in range(1, 9)]
    path = tmp_path / "zigzag.json"
    io.write_field_json(ProbabilitySequence(slices), path)
    code, out, _ = run(capsys, "validate", "--target", f"file:{path}")
    assert code == 1
    violations = json.loads(out)["violations"]
    assert len(violations) > 5
    sites = ", ".join(f"(n={v['n']}, t={v['t']})" for v in violations[:5])
    monkeypatch.setattr(cli, "validate_sequence", None)
    code, out, err = run(capsys, "synth", "--target", f"file:{path}",
                         "--walk", "rw", "--out", str(tmp_path / "s.json"))
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": f"target is infeasible; flux bound violated at {sites}"}


# Targets inside the additive flux tolerance, as (t, n, value) rows: one
# with a = -4e-11 at (-1, 1), one with rho(1, 1) = 1e-20 passing 1e-15 right,
# one whose clamped split at (1, 1) would pass 4e-11 left into the empty
# site (0, 2), and one whose site (-1, 1) holds 4e-11 while both of its
# destinations are empty, which fails the bound.
WITHIN_TOLERANCE = {
    "negative-split": [(0, 0, 1.0), (1, -1, 0.5), (1, 1, 0.5),
                       (2, -2, 0.5 + 4e-11), (2, 0, 0.25 - 4e-11),
                       (2, 2, 0.25)],
    "tiny-site": [(0, 0, 1.0), (1, -1, 1.0), (1, 1, 1e-20), (2, -2, 0.5),
                  (2, 0, 0.5 - 1e-15), (2, 2, 1e-20 + 1e-15)],
    "empty-destination": [(0, 0, 1.0), (1, -1, 0.5), (1, 1, 0.5),
                          (2, -2, 0.5 + 4e-11), (2, 0, 0.0),
                          (2, 2, 0.5 - 4e-11), (3, -3, 0.25 + 2e-11),
                          (3, -1, 0.25 + 2e-11), (3, 1, 0.25 - 2e-11),
                          (3, 3, 0.25 - 2e-11)],
    "stranded": [(0, 0, 1.0), (1, -1, 4e-11), (1, 1, 0.99999999996),
                 (2, -2, 0.0), (2, 0, 0.0), (2, 2, 1.0), (3, -3, 0.0),
                 (3, -1, 0.0), (3, 1, 0.5), (3, 3, 0.5)],
}
STRANDED = [{"n": -1, "t": 1, "J": 4e-11, "rho": 4e-11}]


@pytest.mark.parametrize("walk", ["qw", "rw"])
@pytest.mark.parametrize("name", WITHIN_TOLERANCE)
def test_targets_validate_accepts_synthesize(capsys, tmp_path, name, walk):
    # validate and synthesis make the same flux-bound test: synthesis reads
    # the split clipped within its tolerance, or names validate's violation.
    path = tmp_path / "target.csv"
    path.write_text("t,n,value\n" + "".join(
        f"{t},{n},{value!r}\n" for t, n, value in WITHIN_TOLERANCE[name]))
    code, out, _ = run(capsys, "validate", "--target", f"file:{path}")
    violations = json.loads(out)["violations"]
    assert (code, violations) == ((1, STRANDED) if name == "stranded"
                                  else (0, []))
    code, out, err = run(capsys, "roundtrip", "--target", f"file:{path}",
                         "--walk", walk)
    if violations:
        assert (code, out) == (2, "")
        assert json.loads(err) == {"error": "target is infeasible; flux "
                                   "bound violated at (n=-1, t=1)"}
    else:
        assert (code, err) == (0, "")
        assert json.loads(out)["pass"] is True


# 5e7 sites: rw peaks at about 1560 MiB on binomial:0.3 and 2040 MiB on the
# Hadamard target, qw at about 2040 MiB.  binomial:0.3 holds millions of empty
# sites, whose split the gate keeps off them.  The last two cases are the
# paper's claims: a quantum walk that spreads diffusively, and a random walk
# that spreads ballistically like the Hadamard walk.
@pytest.mark.parametrize("target, walk", [
    ("binomial:0.3", "rw"),
    ("uniform", "qw"),
    ("binomial:0.5", "qw"),
    ("hadamard:0.7853981633974483,0.7853981633974483,1.5707963267948966",
     "rw"),
])
def test_roundtrip_at_horizon_ten_thousand(capsys, target, walk):
    code, out, err = run(capsys, "roundtrip", "--target", target,
                         "-T", "10000", "--walk", walk)
    assert (code, err) == (0, "")
    assert json.loads(out)["pass"] is True


@pytest.mark.parametrize("target, schedule, report", [
    ("uniform", "80d6d97ea2067ae7", "af043128e252ae58"),
    ("binomial:0.3", "b6f19290c2130122", "ca55656a623ae1e2"),
])
def test_rw_outputs_at_T2000_keep_their_bytes(capsys, tmp_path, target,
                                              schedule, report):
    # SHA-256 prefixes of `synth --walk rw` and `validate`.  Both use only
    # correctly rounded operations (cumsum, +, -, *, / and repr), so their
    # bytes hold on any CPU; qw's arctan2, sin and cos may move a last bit.
    path = tmp_path / "rw.json"
    code, _, _ = run(capsys, "synth", "--target", target, "-T", "2000",
                     "--walk", "rw", "--out", str(path))
    assert code == 0
    code, out, _ = run(capsys, "validate", "--target", target, "-T", "2000")
    assert code == 0
    assert [hashlib.sha256(b).hexdigest()[:16]
            for b in (path.read_bytes(), out.encode())] == [schedule, report]


def test_roundtrip_frees_the_coins_before_the_mass(capsys):
    # The qw round trip's coins go once evolved: 5.33 buffers before, 5.11.
    argv = ["roundtrip", "--target", "uniform", "-T", "2000", "--walk", "qw"]
    assert peak_buffers(main, argv, entries=slice_offset(2001)) < 5.2


def test_exception_without_text_is_named(capsys, monkeypatch):
    def out_of_memory(*_):
        raise MemoryError

    monkeypatch.setattr(cli, "evolve_rw_exact", out_of_memory)
    code, out, err = run(capsys, "roundtrip", "--target", "uniform", "-T", "4",
                         "--walk", "rw")
    assert code == 2 and out == ""
    assert json.loads(err) == {"error": "MemoryError"}


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
    # A directory gets mc.csv, with the same bytes.
    out_dir = tmp_path / "out"
    out_dir.mkdir()
    code, _, _ = run(capsys, "mc", "--schedule", str(sched_path),
                     "-N", "2000", "--seed", "11", "--out", str(out_dir))
    assert code == 0
    assert (out_dir / "mc.csv").read_bytes() == mc_path.read_bytes()
    # So does stdout: mc has one output format.
    code, out, _ = run(capsys, "mc", "--schedule", str(sched_path),
                       "-N", "2000", "--seed", "11")
    assert code == 0
    assert out.encode() == mc_path.read_bytes()


def test_mc_worker_failure_exits_2(capsys, tmp_path, monkeypatch):
    def out_of_memory(*_):
        raise MemoryError

    sched_path = tmp_path / "jumps.json"
    io.write_schedule_json(JumpSchedule([np.full(t + 1, 0.5)
                                         for t in range(5)]), sched_path)
    monkeypatch.setattr(evolve, "_MC_BLOCK", 7)
    monkeypatch.setattr(evolve, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(evolve, "_mc_blocks", out_of_memory)
    code, out, err = run(capsys, "mc", "--schedule", str(sched_path),
                         "-N", "20")
    assert code == 2 and out == ""
    assert json.loads(err) == {
        "error": "Monte Carlo worker exited with status 1: MemoryError"}
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_roundtrip_names_its_worst_site(capsys, monkeypatch):
    # binomial:0.5 round-trips exactly: every error is 0, and the first
    # site, (0, 0), is the worst.  Then errors of 2^-12 at t = 2 and 2^-10
    # at t = 3 and 4, each slice still summing to one: the worst is the
    # leftmost site at t = 3.
    argv = ["roundtrip", "--target", "binomial:0.5", "-T", "4",
            "--walk", "rw"]
    code, out, _ = run(capsys, *argv)
    doc = json.loads(out)
    assert code == 0 and doc["max_error"] == 0.0
    assert doc["max_error_site"] == {"n": 0, "t": 0}

    def perturbed(schedule, steps=None):
        buf = evolve_rw_exact(schedule, steps).buf.copy()
        for n, t, err in [(-2, 2, 2 ** -12), (0, 2, -2 ** -12),
                          (-1, 3, 2 ** -10), (1, 3, -2 ** -10),
                          (0, 4, 2 ** -10), (2, 4, -2 ** -10)]:
            buf[slice_offset(t) + (n + t) // 2] += err
        return ProbabilitySequence(buf)

    monkeypatch.setattr(cli, "evolve_rw_exact", perturbed)
    code, out, _ = run(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {
        "schema_version": io.SCHEMA_VERSION, "walk": "rw",
        "target": "binomial:0.5", "max_error": 2 ** -10,
        "max_error_site": {"n": -1, "t": 3}, "tolerance": 1e-10,
        "pass": False}


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


def _closed_form_matches_recursion(capsys, *args):
    args = ["hadamard", *args, "--eta", "0.4", "-T", "360"]
    code, out_a, _ = run(capsys, *args, "--recursion")
    code_b, out_b, err = run(capsys, *args, "--closed-form")
    assert code == 0 and code_b == 0, err
    for sa, sb in zip(json.loads(out_a)["slices"], json.loads(out_b)["slices"]):
        assert np.max(np.abs(np.subtract(sa, sb))) < 1e-10


@pytest.mark.parametrize("theta", [0.02, 1e-3, 1e-5])
def test_hadamard_closed_form_near_ballistic_coin(capsys, theta):
    # 0.02 runs the kernel; 1e-3 and 1e-5 fall back to the recursion.
    _closed_form_matches_recursion(capsys, "--theta", repr(theta))


@pytest.mark.parametrize("angles", [["--alpha", "1e6"], ["--beta", "1e6"],
                                    ["--chi", "1e300", "--alpha", "1e300"]])
def test_hadamard_closed_form_large_angles(capsys, angles):
    _closed_form_matches_recursion(capsys, "--theta", "0.7", "--gamma", "1.1",
                                   *angles)


@pytest.mark.parametrize("route", ["--recursion", "--closed-form",
                                   "--asymptotic"])
def test_hadamard_requires_horizon(capsys, route):
    code, out, err = run(capsys, "hadamard", "--theta", "0.7", route)
    assert code == 2
    assert out == ""
    assert "--horizon" in json.loads(err)["error"]


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_format_is_honoured_on_stdout_file_and_directory(capsys, tmp_path,
                                                        fmt):
    sched_path = tmp_path / "jumps.json"
    run(capsys, "synth", "--target", "binomial:0.4", "-T", "5",
        "--walk", "rw", "--out", str(sched_path))
    (tmp_path / "dir").mkdir()
    for argv in (["evolve", "--schedule", str(sched_path)],
                 ["hadamard", "--theta", "0.7", "-T", "3"],
                 ["hadamard", "--theta", "0.7", "-T", "30", "--asymptotic"]):
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0
        assert out.startswith("t,n,value" if fmt == "csv" else "{")
        for dest, written in ((tmp_path / f"out.{fmt}", None),
                              (tmp_path / "dir", f"rho.{fmt}")):
            code, _, _ = run(capsys, *argv, "--format", fmt,
                             "--out", str(dest))
            assert code == 0
            path = dest / written if written else dest
            assert path.read_bytes() == out.encode()


def test_asymptotic_rows_keep_their_csv_and_json_forms(capsys, tmp_path):
    argv = ["hadamard", "--theta", "0.7", "-T", "30", "--asymptotic"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    doc = json.loads(out)
    assert list(doc) == ["schema_version", "t", "entries"]
    # An --out file is JSON unless --format csv is given.
    code, _, _ = run(capsys, *argv, "--out", str(tmp_path / "a.txt"))
    assert code == 0
    assert (tmp_path / "a.txt").read_text() == out
    code, _, _ = run(capsys, *argv, "--format", "csv",
                     "--out", str(tmp_path / "a.csv"))
    assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == ("t,n,value\n" + "".join(
        f"30,{e['n']},{e['value']!r}\n" for e in doc["entries"])).encode()


def test_flags_that_apply_are_accepted(capsys, tmp_path):
    target = tmp_path / "field.json"
    io.write_field_json(binomial_target(0.5, 3), target)
    code, out, _ = run(capsys, "validate", "--target", f"file:{target}",
                       "-T", "3")
    assert code == 0 and json.loads(out)["feasible"] is True
    sched_path = tmp_path / "coins.json"
    run(capsys, "synth", "--target", "uniform", "-T", "4",
        "--walk", "qw", "--out", str(sched_path))
    code, out, _ = run(capsys, "evolve", "--schedule", str(sched_path),
                       "--init", "0,1")
    assert code == 0 and json.loads(out)["horizon"] == 4


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
    # At T = 0 the walker sits at the origin: one row, no step evolved.
    code, _, _ = run(capsys, "figure", "--which", which, "-T", "0",
                     "-N", "3000", "--seed", "1", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / f"{which}.csv").read_text() == \
        "n,exact,mc,stderr\n0,1.0,1.0,0.0\n"


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


@pytest.mark.parametrize("flag", cli.ROUTES)
@pytest.mark.parametrize("route", cli.ROUTES)
def test_explicit_route_flag_beats_config_route(capsys, tmp_path, route,
                                                flag):
    cfg = tmp_path / "cfg"
    cfg.write_text(f"route = {route}\n")
    argv = ["hadamard", "--theta", "0.7", "-T", "30"]
    _, by_flag, _ = run(capsys, *argv, f"--{route}")
    assert run(capsys, *argv, "--config", str(cfg)) == (0, by_flag, "")
    _, explicit, _ = run(capsys, *argv, f"--{flag}")
    assert run(capsys, *argv, "--config", str(cfg), f"--{flag}") == \
        (0, explicit, "")


@pytest.mark.parametrize("argv, key, value", [
    (["evolve", "--schedule", "{tmp}/coins.json"], "init", "-0.6,0.8"),
    (["hadamard", "--theta", "0.7", "-T", "5"], "eta", "-0.5"),
])
def test_config_values_that_look_like_flags_are_values(capsys, tmp_path,
                                                       argv, key, value):
    run(capsys, "synth", "--target", "uniform", "-T", "4", "--walk", "qw",
        "--out", str(tmp_path / "coins.json"))
    argv = [a.format(tmp=tmp_path) for a in argv]
    cfg = tmp_path / "cfg"
    cfg.write_text(f"{key} = {value}\n")
    _, expected, _ = run(capsys, *argv, f"--{key}={value}")
    assert expected != run(capsys, *argv)[1]
    assert run(capsys, *argv, "--config", str(cfg)) == (0, expected, "")


def test_validate_prints_the_report_as_indented_json(capsys, tmp_path):
    rho = ProbabilitySequence([[1.0], [1.0, 0.0], [0.5, 0.5, 0.0],
                               [0.05, 0.05, 0.9, 0.0]])
    doc = {**validate_sequence(rho).to_dict(),
           "schema_version": io.SCHEMA_VERSION}
    assert all(doc[k] for k in ("violations", "boundary_sites",
                                "undefined_sites"))
    path = tmp_path / "rho.json"
    io.write_field_json(rho, path)
    code, out, _ = run(capsys, "validate", "--target", f"file:{path}")
    assert code == 1
    assert out == json.dumps(doc, indent=2) + "\n"


class _CountingStream:
    """A text stream that keeps each write."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)
        return len(text)


def test_print_json_writes_many_chunks_at_a_time():
    # On an unbuffered stdout, every write is a system call.
    doc = {"feasible": False,
           "violations": [{"n": k, "t": k, "J": 0.5, "rho": 0.25}
                          for k in range(4000)]}
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(doc))
    assert chunks > 30_000
    want = _CountingStream()
    json.dump(doc, want, indent=2)
    stream = _CountingStream()
    cli._print_json(doc, stream)
    assert "".join(stream.writes) == "".join(want.writes) + "\n"
    assert len(stream.writes) <= chunks // 1000


def test_main_builds_the_parser_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run(capsys, "validate", "--target", "uniform", "-T", "3")[0] == 0
    assert cli.build_parser.cache_info().misses == 1


# Each subcommand with malformed input: (argv, text the error must contain).
# "{tmp}" holds coins.json (a qw schedule), jumps.json (an rw schedule),
# field.json (a target with T = 3), v1.json (a schema 1 schedule), a plain
# file, bogus.cfg, badint.cfg, route.cfg, horizon.cfg (T = 2), init.cfg,
# walk.cfg, help.cfg, hor.cfg (a prefix of horizon), noeq.cfg (a line
# without "="), spin.json (a schedule of unknown kind),
# overflow.csv (a slice whose sum overflows) and, for each bad
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
    # The schedule's kind picks the walk; evolve takes no --walk.
    (["evolve", "--schedule", "{tmp}/coins.json", "--walk", "rw"],
     "walkforge: unrecognized arguments: --walk rw"),
    (["evolve", "--schedule", "{tmp}/coins.json", "--config",
      "{tmp}/walk.cfg"], "unknown config keys: ['walk']"),
    (["evolve", "--schedule", "{tmp}/coins.json", "-T", "9"], "covers 3"),
    (["mc"], "--schedule"),
    (["mc", "--schedule", "{tmp}/missing.json"], "No such file"),
    (["mc", "--schedule", "{tmp}/v1.json"], "v1 schedule"),
    (["mc", "--schedule", "{tmp}/coins.json"], "qw schedule"),
    (["hadamard", "--theta", "0.7"], "--horizon"),
    (["hadamard", "--theta", "0.7", "--eta", "nan", "-T", "3"],
     "coin parameter eta=nan is not finite"),
    (["validate", "--target", "uniform", "--config", "{tmp}/noeq.cfg"],
     "noeq.cfg:1: expected key=value"),
    (["evolve", "--schedule", "{tmp}/spin.json"],
     "spin.json: unknown schedule kind 'spin'"),
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
     "horizon must be >= 0"),
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
    # One tolerance judges every verdict; validate takes none.
    (["validate", "--target", "uniform", "-T", "3", "--tol", "nan"],
     "walkforge: unrecognized arguments: --tol nan"),
    (["evolve", "--schedule", "{tmp}/coins.json", "--init", "nan,0"],
     "initial state norm nan"),
    # The field's own tolerance, 1e-12, not a looser one of the CLI.
    (["evolve", "--schedule", "{tmp}/coins.json", "--init", "1,0.00002"],
     "initial state norm 1.0000000004 != 1"),
    (["validate", "--target", "uniform", "--config", "{tmp}/badint.cfg"],
     "invalid int value: 'x'"),
    (["validate", "--target", "file:{tmp}/overflow.csv"], "sums to inf"),
    (["hadamard", "--theta", "0.7", "-T", "3", "--config", "{tmp}/route.cfg"],
     "config value route='closedform' not in "
     "('closed-form', 'recursion', 'asymptotic')"),
    # Config values are read and checked as flags are, explicit flags or not.
    (["roundtrip", "--target", "uniform", "-T", "3", "--config",
      "{tmp}/walk.cfg"], "walk.cfg: walkforge roundtrip: argument --walk: "
     "invalid choice: 'x' (choose from 'qw', 'rw')"),
    (["validate", "--target", "uniform", "-T", "3", "--config",
      "{tmp}/badint.cfg"], "badint.cfg: walkforge validate: "
     "argument -T/--horizon: invalid int value: 'x'"),
    (["hadamard", "--theta", "0.7", "-T", "3", "--recursion", "--config",
      "{tmp}/route.cfg"], "config value route='closedform' not in "),
    (["validate", "--target", "uniform", "-T", "3", "--config",
      "{tmp}/help.cfg"], "unknown config keys: ['help']"),
    (["validate", "--target", "uniform", "--config", "{tmp}/hor.cfg"],
     "unknown config keys: ['hor']"),
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
    # Horizons of 10**7 ask for a buffer larger than the address space, so
    # its allocation fails at once and nothing that size is touched.
    (["validate", "--target", "uniform", "-T", "10000000"],
     "Unable to allocate"),
    (["hadamard", "--theta", "0.7", "-T", "10000000"], "Unable to allocate"),
    (["validate", "--target", "file:{tmp}/sparse.csv"],
     "sparse.csv: slice t=1 has no rows"),
    # -n overflows for n = -2**63, so the light cone is tested without it.
    (["validate", "--target", "file:{tmp}/far-left.csv"],
     "far-left.csv: row 3: site (n=-9223372036854775808, t=0) outside the "
     "light cone |n| <= t"),
    # Flags that do not apply are refused, from argv or from --config.
    (["validate", "--target", "file:{tmp}/field.json", "-T", "2"],
     "horizon 2 does not match"),
    (["roundtrip", "--target", "file:{tmp}/field.json", "-T", "99",
      "--walk", "qw"], "which holds T = 3"),
    (["synth", "--target", "file:{tmp}/field.json", "--walk", "rw",
      "--config", "{tmp}/horizon.cfg", "--out", "{tmp}/jumps-out.json"],
     "horizon 2 does not match"),
    (["evolve", "--schedule", "{tmp}/jumps.json", "--init", "0,1"],
     "--init applies to qw schedules only"),
    (["evolve", "--schedule", "{tmp}/jumps.json", "--config",
      "{tmp}/init.cfg"], "--init applies to qw schedules only"),
    # Input files are read as UTF-8, and a read error names the file.
    (["validate", "--target", "file:{tmp}/latin1.csv"],
     "latin1.csv: 'utf-8' codec can't decode byte 0xff"),
    (["validate", "--target", "file:{tmp}/latin1.json"],
     "latin1.json: 'utf-8' codec can't decode byte 0xff"),
    (["evolve", "--schedule", "{tmp}/latin1.json"],
     "latin1.json: 'utf-8' codec can't decode byte 0xff"),
    (["hadamard", "--theta", "0.7", "-T", "3", "--config", "{tmp}/latin1.cfg"],
     "latin1.cfg: 'utf-8' codec can't decode byte 0xff"),
    (["evolve", "--schedule", "{tmp}/deep.json"],
     "deep.json: invalid JSON: maximum recursion depth exceeded"),
    (["validate", "--target", "file:{tmp}/deep.json"],
     "deep.json: invalid JSON: maximum recursion depth exceeded"),
    (["validate", "--target", "file:{tmp}/wide.csv"],
     "wide.csv: field larger than field limit"),
    # Values past what the engines can hold, rather than run out of memory on.
    (["hadamard", "--theta", "0.7", "-T", "10000000000"],
     "horizon 10000000000 is too large to address"),
    (["hadamard", "--closed-form", "--theta", "0.7", "-T", "10000000000"],
     "horizon 10000000000 is too large to address"),
    (["hadamard", "--asymptotic", "--theta", "0.7", "-T", "10000000000"],
     "horizon 10000000000 is too large to address"),
    (["hadamard", "--asymptotic", "--theta", "0.7", "-T",
      "10000000000000000000"],
     "horizon 10000000000000000000 is too large to address"),
    (["figure", "--which", "fig1", "-T", "10000000000", "--out", "{tmp}"],
     "horizon 10000000000 is too large to address"),
    (["validate", "--target", "binomial:0.5", "-T", "10000000000"],
     "horizon 10000000000 is too large to address"),
    (["mc", "--schedule", "{tmp}/jumps.json", "-N", str(2 ** 63)],
     "trajectories must be in [1, 2**63)"),
    (["evolve", "--schedule", "{tmp}/coins.json", "--init", "1e200,0"],
     "initial state norm inf != 1"),
    (["hadamard", "--theta", "0.7", "-T", "3", "--asymptotic", "--eta",
      "1e308"], "coin angle 2 eta = inf is not finite"),
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
    (tmp_path / "horizon.cfg").write_text("horizon = 2\n")
    (tmp_path / "init.cfg").write_text("init = 1,0\n")
    (tmp_path / "walk.cfg").write_text("walk = x\n")
    (tmp_path / "help.cfg").write_text("help = 1\n")
    (tmp_path / "hor.cfg").write_text("hor = 3\n")
    (tmp_path / "noeq.cfg").write_text("horizon 3\n")
    (tmp_path / "spin.json").write_text(json.dumps({
        "schema_version": 2, "horizon": 1, "kind": "spin",
        "slices": [[0.5]]}))
    io.write_field_json(binomial_target(0.5, 3), tmp_path / "field.json")
    for text, steps in HORIZONS.items():
        field = [[1.0 / (t + 1)] * (t + 1) for t in range(steps + 1)]
        head = f'{{"schema_version": 2, "horizon": {text}, '
        (tmp_path / f"field-{text}.json").write_text(
            head + f'"slices": {json.dumps(field)}}}')
        (tmp_path / f"jump-{text}.json").write_text(
            head + f'"kind": "jump", "slices": {json.dumps(field[:steps])}}}')
    (tmp_path / "overflow.csv").write_text(
        "t,n,value\n0,0,1\n1,-1,1e308\n1,1,1e308\n")
    (tmp_path / "sparse.csv").write_text("t,n,value\n0,0,1\n10000000,0,1\n")
    (tmp_path / "far-left.csv").write_text(
        f"t,n,value\n0,0,1.0\n0,{-2 ** 63},0.0\n")
    (tmp_path / "latin1.csv").write_bytes(b"t,n,value\n0,0,1.0\xff\n")
    (tmp_path / "latin1.json").write_bytes(b'{"horizon": 0, "slices": []}\xff')
    (tmp_path / "latin1.cfg").write_bytes(b"\xff\xfe=1")
    (tmp_path / "deep.json").write_text("[" * 10 ** 5 + "]" * 10 ** 5)
    (tmp_path / "wide.csv").write_text(
        '"t",n,value\n0,0,' + "1" * 2 ** 18 + "\n")  # quoted: read by rows
    # main returning at all, rather than raising, means no traceback.
    code, out, err = run(capsys, *(a.format(tmp=tmp_path) for a in argv))
    assert code == 2
    assert out == ""
    assert err.endswith("\n") and err.count("\n") == 1
    doc = json.loads(err)
    assert list(doc) == ["error"]
    assert expected in doc["error"]


def test_cli_import_loads_no_scipy():
    # A fresh interpreter: this one holds whatever other tests imported.
    # Nor is the JSON kernel loaded before the first JSON write.
    src = Path(walkforge.__file__).parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, walkforge.cli; print(sorted("
         "m for m in sys.modules if m.partition('.')[0] == 'scipy'"
         " or m == 'walkforge._json_kernel'))"],
        env=env, capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


def test_help_still_prints_usage_and_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["evolve", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert captured.out.startswith("usage: walkforge evolve")
    assert captured.err == ""
