"""Smoke test of the benchmark at tiny sizes (T = 20, N = 1000).

    python3 -m pytest perfbench/test_smoke.py

It checks that every metric BENCHMARK.json lists is emitted with its unit,
and that each output check rejects a deliberately corrupted output, so no
check can pass vacuously.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from walkforge import cli, io  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def tmp_path(request):
    """A scratch directory inside the checkout, like the benchmark's own."""
    path = ROOT / ".perfbench_work" / f"smoke-{request.node.name}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_listed_metric_is_emitted_with_its_unit(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace),
         "--scale", "smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        emitted = result["metrics"][m["name"]]
        assert emitted["unit"] == m["unit"]
        assert isinstance(emitted["value"], (int, float))
        assert m["name"] in proc.stdout.split("\n{")[0]


def produce(name, tmp_path):
    """A seed-0 workload at smoke size with one sample's outputs written.

    Seed 0 has a pinned Monte Carlo digest, so the clean ``mc`` check also
    compares against it."""
    workload = workloads.make(name, 0, tmp_path, "smoke")
    out = tmp_path / "out"
    out.mkdir()
    for argv in workload.ops(out):
        assert cli.main(argv) == 0
    assert workload.check(out, {}) == [None] * len(workload.ops(out))
    return workload, out


def bump_field(path, t, k, delta):
    doc = json.loads(path.read_text())
    doc["slices"][t][k] += delta
    path.write_text(json.dumps(doc))


def edit_schedule(path, t, k, delta):
    schedule = io.read_schedule_json(path)
    values = [v.copy() for v in schedule.value_slices]
    values[t][k] += delta
    io.write_schedule_json(type(schedule)(values), path)


def test_design_checks_reject_corrupted_outputs(tmp_path):
    workload, out = produce("design", tmp_path)
    edit_schedule(out / "rw-schedule.json", 9, 4, 1e-6)
    bump_field(out / "rw-rho.json", 12, 5, 1e-9)
    edit_schedule(out / "qw-schedule.json", 9, 4, 1e-6)
    bump_field(out / "qw-rho.json", 20, 0, 1e-9)
    failures = workload.check(out, {})
    assert all(failures), failures


def test_homogeneous_checks_reject_corrupted_outputs(tmp_path):
    workload, out = produce("homogeneous", tmp_path)
    # Moved mass keeps the slice sum, so only the agreement check fails.
    bump_field(out / "closed-form.json", 15, 3, 1e-8)
    bump_field(out / "closed-form.json", 15, 4, -1e-8)
    failures = workload.check(out, {})
    assert failures[0] is None and "recursion" in failures[1], failures

    bump_field(out / "recursion.json", 7, 2, 1e-6)
    failures = workload.check(out, {})
    assert "sums to" in failures[0], failures


def rewrite_mc(path, edit):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    path.write_text("\n".join([lines[0]] + [",".join(r) for r in edit(rows)])
                    + "\n")


def test_mc_checks_reject_corrupted_outputs(tmp_path):
    workload, out = produce("mc", tmp_path)
    n = workload.trajectories
    clean = (out / "mc.csv").read_text()

    rewrite_mc(out / "mc.csv", lambda rows: rows[:-5])
    [failure] = workload.check(out, {})
    assert "missing rows" in failure

    def one_more(rows):
        rho = float(rows[-1][2]) + 1 / n
        rows[-1][2:] = [repr(rho), repr(math.sqrt(rho * (1 - rho) / n))]
        return rows

    (out / "mc.csv").write_text(clean)
    rewrite_mc(out / "mc.csv", one_more)
    [failure] = workload.check(out, {})
    assert "counts sum to" in failure

    # Every walker of one slice at its left edge: counts still sum to N and
    # agree with stderr, but sites with enough variance are many sigma off.
    t0 = next(t for t, p in enumerate(workload.exact)
              if (n * p * (1 - p) >= workloads.MC_MIN_VAR).any())

    def pile_left(rows):
        for r in rows:
            if int(r[0]) == t0:
                rho = 1.0 if int(r[1]) == -t0 else 0.0
                r[2:] = [repr(rho), repr(math.sqrt(rho * (1 - rho) / n))]
        return rows

    (out / "mc.csv").write_text(clean)
    rewrite_mc(out / "mc.csv", pile_left)
    [failure] = workload.check(out, {})
    assert "max |z|" in failure

    (out / "mc.csv").write_text(clean)
    workload.expected_digest = "0" * 64
    [failure] = workload.check(out, {})
    assert "digest" in failure

