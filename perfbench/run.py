"""The walkforge benchmark.

    python3 perfbench/run.py --workload {design,homogeneous,mc} \\
        --seed N --seconds S --trace {0,1}

Run it from the root of a checkout; walkforge is imported from that
checkout's ``src/``.  Each workload is a closed loop with one client: one
sample is a fresh interpreter (``child.py``) that makes the workload's CLI
calls one at a time, each waiting for the last, and samples repeat until
``--seconds`` of them have run.  An operation is one CLI call plus the
check of what it wrote; a non-zero exit code or a failed check is a failed
operation.  Inputs are made from ``--seed`` before the first sample, and
checks run after each sample, outside its timed interval.

End-to-end metrics, medians over the untraced samples:
  wall_s       first CLI call of a sample to its last output file written
  peak_rss_mb  the sample's peak resident memory (ru_maxrss)
  setup_s      sample process start until walkforge.cli is imported

With ``--trace 1`` traced samples alternate with untraced ones.  A traced
sample makes the same ``cli.main`` calls with a span around each public
function they reach (see child.py); the per-layer metrics are medians over
the traced samples, and ``trace.overhead_s`` is the traced wall time less
the untraced ``wall_s``.  ``--seconds`` defaults to BENCHMARK.json's
``run_seconds``.

Human-readable tables go to standard output first; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  Spans,
counts and every sample are written to
``.perfbench_work/<workload>-<scale>-seed<N>-trace<0|1>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench_work"

# Every process that runs walkforge, this one included, sees the same
# thread settings: one per CPU this process may run on.
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("WALKFORGE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(NPROC)

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())[
    "run_seconds"]
MIN_SAMPLES = 3
# A run must end within 180 s; no sample may start or run past this.
DEADLINE_S = 170.0

END_TO_END = {"wall_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}

SPANS = (
    "cli.main",
    "targets.load_target",
    "feasibility.validate_sequence",
    "synthesis.reconstruct_wavefield",
    "synthesis.synthesize_coins",
    "synthesis.synthesize_jumps",
    "evolve.evolve_qw",
    "evolve.evolve_rw_exact",
    "evolve.evolve_qw_complex",
    "evolve.closed_form_wavefield",
    "evolve.simulate_rw",
    "lattice.probability_from_wavefield",
    "io.write_schedule_json",
    "io.read_schedule_json",
    "io.write_field_json",
    "io.write_mc_csv",
)
PER_LAYER = {
    **{f"{name}.{field}": unit for name in SPANS
       for field, unit in (("s", "s"), ("cpu_s", "s"), ("calls", "count"))},
    "cli.main.self_s": "s",
    "evolve.simulate_rw.rss_mb": "MB",
    "lattice.sites": "count",
    "feasibility.undefined_sites": "count",
    "feasibility.boundary_sites": "count",
    "synthesis.defined_frac": "fraction",
    "evolve.mc_trajectory_steps": "count",
    "evolve.mc_threads": "count",
    "io.target_bytes": "bytes",
    "io.schedule_bytes": "bytes",
    "io.field_bytes": "bytes",
    "io.mc_csv_bytes": "bytes",
    "check.max_abs_err": "prob",
    "check.mc_max_z": "sigma",
    "check.mc_digest": "hash48",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment(walkforge_path: str) -> dict:
    import numpy
    import scipy
    return {"nproc": NPROC, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform(), "walkforge": walkforge_path,
            **{var: os.environ[var] for var in THREAD_VARS}}


def io_bytes(ops) -> dict:
    """Bytes each CLI call read or wrote, by kind of file."""
    out = dict.fromkeys(("io.target_bytes", "io.schedule_bytes",
                         "io.field_bytes", "io.mc_csv_bytes"), 0)

    def size(path):
        return os.path.getsize(path) if os.path.exists(path) else 0

    for argv in ops:
        flags = dict(zip(argv[1:], argv[2:]))
        if "--target" in flags and flags["--target"].startswith("file:"):
            out["io.target_bytes"] += size(flags["--target"][5:])
        if "--schedule" in flags:
            out["io.schedule_bytes"] += size(flags["--schedule"])
        kind = {"synth": "io.schedule_bytes", "mc": "io.mc_csv_bytes"}.get(
            argv[0], "io.field_bytes")
        if "--out" in flags:
            out[kind] += size(flags["--out"])
    return out


def run_sample(workload, index: int, traced: bool, workdir: Path,
               deadline: float) -> dict:
    """Start one child, wait for it, check its outputs."""
    out = workdir / f"sample{index}"
    out.mkdir()
    ops = workload.ops(out)
    spec = out / "spec.json"
    sample = {"traced": traced, "result": None}
    with open(out / "stderr.txt", "w") as err:
        spawned = time.monotonic()
        spec.write_text(json.dumps({"ops": ops, "trace": traced,
                                    "spawned": spawned}))
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"),
                                 str(spec)], cwd=out, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        try:
            proc.wait(timeout=max(1.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            pass
        finally:  # also on SIGTERM, so no sample outlives the run
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if proc.returncode == 0 and (out / "result.json").exists():
        sample["result"] = json.loads((out / "result.json").read_text())
    values = {}
    failures = workload.check(out, values)
    if sample["result"] is None:
        failures = ["sample process failed"] * len(ops)
    else:
        for i, code in enumerate(sample["result"]["codes"]):
            if code != 0:
                failures[i] = (f"exit code {code}: "
                               f"{sample['result']['errors'][i]}")
    sample["failures"] = failures
    sample["checks"] = values
    sample["io"] = io_bytes(ops)
    stderr = (out / "stderr.txt").read_text()
    if any(failures):
        print(f"perfbench: sample {index} failed: "
              f"{[f for f in failures if f]}\n{stderr[-2000:]}",
              file=sys.stderr)
    shutil.rmtree(out)
    return sample


def layer_metrics(sample: dict) -> dict:
    """Per-layer metrics of one traced sample; calls to one function sum."""
    result = sample["result"]
    m = dict.fromkeys(PER_LAYER, 0.0)
    spans = result["spans"]
    for sp in spans:
        m[f"{sp['name']}.s"] += sp["wall_s"]
        m[f"{sp['name']}.cpu_s"] += sp["cpu_s"]
        m[f"{sp['name']}.calls"] += 1
    m["cli.main.self_s"] = m["cli.main.s"] - sum(
        sp["wall_s"] for sp in spans
        if sp["parent"] is not None and spans[sp["parent"]]["name"] == "cli.main")
    m.update(result["counts"])
    m.update(sample["io"])
    m.update({k: v for k, v in sample["checks"].items() if k in PER_LAYER})
    m["trace.wall_s"] = result["wall_s"]
    return m


def median(values):
    return statistics.median(values) if values else float("nan")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def print_tables(samples, attempted, failed, e2e, layers):
    plain = [s for s in samples if not s["traced"] and s["result"]]
    print(f"end-to-end, median of {len(plain)} untraced samples "
          f"[q1, q3]:")
    for name, unit in END_TO_END.items():
        vals = [s["result"][name] for s in plain]
        q1, q3 = quartiles(vals) if vals else (float("nan"),) * 2
        print(f"  {name:<14} {e2e[name]:12.6g} {unit:<6} "
              f"[{q1:.6g}, {q3:.6g}]")
    print(f"  {'failed_frac':<14} {failed / attempted:12.6g} {'1':<6} "
          f"({failed} of {attempted} operations)")
    if layers is None:
        return
    traced = [s for s in samples if s["traced"] and s["result"]]
    print(f"per-layer, median of {len(traced)} traced samples:")
    for name, unit in PER_LAYER.items():
        print(f"  {name:<40} {layers[name]:14.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[1])
    parser.add_argument("--workload", required=True,
                        choices=("design", "homogeneous", "mc"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full",
                        help="input sizes; smoke is for the benchmark's "
                             "own test")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if args.seed < 0:
        return fail("--seed must be >= 0")
    if not (ROOT / "src" / "walkforge" / "cli.py").is_file():
        return fail(f"no walkforge sources under {ROOT / 'src'}")
    sys.path.insert(0, str(ROOT / "src"))
    import walkforge
    where = Path(walkforge.__file__).resolve()
    if not where.is_relative_to(ROOT):
        return fail(f"walkforge imported from {where}, outside {ROOT}")
    import workloads

    deadline = time.monotonic() + DEADLINE_S
    env = environment(str(where.parent))
    workdir = WORK / f"run-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        workload = workloads.make(args.workload, args.seed, workdir,
                                  args.scale)
        samples = []
        measured = last = 0.0
        # Start a sample only if one as long as the last still fits.
        while (measured + last <= args.seconds
               or len(samples) < MIN_SAMPLES) \
                and time.monotonic() < deadline:
            traced = bool(args.trace) and len(samples) % 2 == 1
            t0 = time.monotonic()
            samples.append(run_sample(workload, len(samples), traced,
                                      workdir, deadline))
            last = time.monotonic() - t0
            measured += last
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [s["result"] for s in samples
             if not s["traced"] and s["result"]]
    traced = [s for s in samples if s["traced"] and s["result"]]
    if not plain or (args.trace and not traced):
        return fail("no sample completed")
    attempted = sum(len(s["failures"]) for s in samples)
    failed = sum(1 for s in samples for f in s["failures"] if f)
    e2e = {name: median([r[name] for r in plain]) for name in END_TO_END}
    layers = None
    if args.trace:
        per_sample = [layer_metrics(s) for s in traced]
        layers = {name: median([m[name] for m in per_sample])
                  for name in PER_LAYER}
        layers["trace.overhead_s"] = layers["trace.wall_s"] - e2e["wall_s"]

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} scale={args.scale}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    digests = {s["checks"].get("mc_digest_hex") for s in samples} - {None}
    if digests:
        print("mc digest: " + " ".join(sorted(digests)))
    print_tables(samples, attempted, failed, e2e, layers)

    metrics, units = (layers, PER_LAYER) if args.trace else (e2e, END_TO_END)
    record = {"args": vars(args), "env": env, "samples": samples,
              "metrics": metrics}
    (WORK / f"{args.workload}-{args.scale}-seed{args.seed}"
            f"-trace{args.trace}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
