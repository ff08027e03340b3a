"""Workloads of the walkforge benchmark: seeded inputs, the CLI calls one
sample makes, and the checks on what those calls write.

Inputs come from numpy alone and are made before any timed region, so the
reference each check compares against never comes from the code under
test.  Random jump fields p(n, t) in [0.05, 0.95] are pushed through the
master equation below; that gives the ``design`` target and the exact
distribution the ``mc`` samples are tested against.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

import numpy as np

from walkforge import io as wf_io
from walkforge.lattice import CoinSchedule, JumpSchedule

# The README round-trip bound; also the recursion/closed-form agreement.
ROUNDTRIP_TOL = 1e-10
# Largest |sum - 1| allowed for one slice of a written distribution.
SLICE_SUM_TOL = 1e-12
# Monte Carlo z-scores are taken only where N rho (1 - rho) >= MC_MIN_VAR,
# so the normal approximation holds, and must stay below MC_Z_BOUND.  A
# correct sampler tests ~1.3e4 sites per run at the full size; even with
# the binomial skew at the smallest variances it exceeds 7 sigma somewhere
# with probability below 1e-5.
MC_MIN_VAR = 100.0
MC_Z_BOUND = 7.0

JUMP_RANGE = (0.05, 0.95)
# Away from theta = 0, where the closed form falls back to the recursion.
THETA_RANGE = (0.3, 1.2)

SIZES = {
    "full": {
        "design": {"horizon": 300},
        "homogeneous": {"horizon": 360},
        "mc": {"horizon": 400, "trajectories": 50_000},
    },
    "smoke": {
        "design": {"horizon": 20},
        "homogeneous": {"horizon": 20},
        "mc": {"horizon": 20, "trajectories": 1_000},
    },
}

# mc_digest of the seed-0 Monte Carlo output at each size, recorded on the
# code the benchmark was written against.  Monte Carlo output is a
# documented bit-for-bit contract, so a different digest is a failed check.
PINNED_MC_DIGESTS = {
    (50_000, 400, 0):
        "5c87799abde368b2fd1ef00e31b072e5a33c50649bbf341811a0ce71b964c525",
    (1_000, 20, 0):
        "8bb37332c45a6b24dca5e7cd5786e0231c12fff4d76f99ee3c30a8bae5848273",
}


class CheckFailed(Exception):
    """An output did not pass its check."""


def random_jump_field(rng: np.random.Generator, steps: int) -> list[np.ndarray]:
    lo, hi = JUMP_RANGE
    return [rng.uniform(lo, hi, t + 1) for t in range(steps)]


def master_equation(jumps) -> list[np.ndarray]:
    """rho(n, t+1) = p(n-1, t) rho(n-1, t) + [1 - p(n+1, t)] rho(n+1, t)."""
    slices = [np.array([1.0])]
    for t, p in enumerate(jumps):
        cur = slices[t]
        nxt = np.zeros(t + 2)
        nxt[1:] += p * cur
        nxt[:-1] += (1.0 - p) * cur
        slices.append(nxt)
    return slices


def coin_walk(thetas) -> list[np.ndarray]:
    """Position distribution of the real walk under coin angles theta(n, t),
    started in chirality (1, 0)."""
    plus, minus = np.array([1.0]), np.array([0.0])
    slices = [plus**2 + minus**2]
    for t, th in enumerate(thetas):
        c, s = np.cos(th), np.sin(th)
        new_p, new_m = np.zeros(t + 2), np.zeros(t + 2)
        new_p[1:] = c * plus + s * minus
        new_m[:-1] = s * plus - c * minus
        plus, minus = new_p, new_m
        slices.append(plus**2 + minus**2)
    return slices


def write_target_csv(slices, path: Path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "n", "value"])
        for t, s in enumerate(slices):
            for k, v in enumerate(s):
                writer.writerow([t, 2 * k - t, repr(float(v))])


def read_field(path: Path, horizon: int) -> list[np.ndarray]:
    """Slices of a field JSON document, checked for shape."""
    with open(path) as fh:
        doc = json.load(fh)
    slices = [np.asarray(s, dtype=float) for s in doc["slices"]]
    if doc["horizon"] != horizon or len(slices) != horizon + 1:
        raise CheckFailed(f"{path.name}: horizon {doc['horizon']}, "
                          f"{len(slices)} slices, expected {horizon}")
    for t, s in enumerate(slices):
        if s.shape != (t + 1,):
            raise CheckFailed(f"{path.name}: slice t={t} has shape {s.shape}")
    return slices


def check_close(name: str, got, want, tol: float = ROUNDTRIP_TOL) -> float:
    err = max(float(np.max(np.abs(x - y))) for x, y in zip(got, want))
    if not err <= tol:
        raise CheckFailed(f"{name}: max |difference| {err:.3e} > {tol:g}")
    return err


def check_distribution(name: str, slices) -> None:
    for t, s in enumerate(slices):
        total = math.fsum(s)
        if not (np.all(s >= 0.0) and abs(total - 1.0) <= SLICE_SUM_TOL):
            raise CheckFailed(f"{name}: slice t={t} sums to {total!r} "
                              f"or has a negative entry")


def read_schedule(path: Path, cls, steps: int) -> list[np.ndarray]:
    """Values of a schedule file, read with the program's documented reader;
    every site must be defined because every target site has rho > 0."""
    schedule = wf_io.read_schedule_json(path)
    if not isinstance(schedule, cls) or schedule.steps != steps:
        raise CheckFailed(f"{path.name}: {type(schedule).__name__} with "
                          f"{schedule.steps} steps, expected {cls.__name__} "
                          f"with {steps}")
    if not all(d.all() for d in schedule.defined_slices):
        raise CheckFailed(f"{path.name}: undefined site on a positive target")
    return list(schedule.value_slices)


def read_mc_counts(path: Path, trajectories: int, horizon: int):
    """Per-site trajectory counts from an ``mc`` CSV, checked row by row:
    every on-support site once, rho * N integral, each slice summing to N,
    and stderr = sqrt(rho (1 - rho) / N)."""
    counts = [np.full(t + 1, -1, dtype=np.int64) for t in range(horizon + 1)]
    worst_stderr = 0.0
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != ["t", "n", "rho", "stderr"]:
            raise CheckFailed(f"{path.name}: bad header")
        for row in rows:
            t, n = int(row[0]), int(row[1])
            rho, err = float(row[2]), float(row[3])
            k = (n + t) // 2
            if not (0 <= t <= horizon and 0 <= k <= t and (n + t) % 2 == 0):
                raise CheckFailed(f"{path.name}: off-support row {row}")
            if counts[t][k] >= 0:
                raise CheckFailed(f"{path.name}: duplicate row {row}")
            c = round(rho * trajectories)
            if abs(rho * trajectories - c) > 1e-6:
                raise CheckFailed(f"{path.name}: rho {rho!r} is not a count / N")
            counts[t][k] = c
            expected_err = math.sqrt(rho * (1.0 - rho) / trajectories)
            worst_stderr = max(worst_stderr, abs(err - expected_err))
    for t, c in enumerate(counts):
        if (c < 0).any():
            raise CheckFailed(f"{path.name}: slice t={t} has missing rows")
        if int(c.sum()) != trajectories:
            raise CheckFailed(f"{path.name}: slice t={t} counts sum to "
                              f"{int(c.sum())}, expected {trajectories}")
    if worst_stderr > 1e-12:
        raise CheckFailed(f"{path.name}: stderr off by {worst_stderr:.3e}")
    return counts


def mc_max_z(counts, exact, trajectories: int) -> float:
    worst = 0.0
    for c, p in zip(counts, exact):
        var = trajectories * p * (1.0 - p)
        m = var >= MC_MIN_VAR
        if m.any():
            z = np.abs(c[m] - trajectories * p[m]) / np.sqrt(var[m])
            worst = max(worst, float(z.max()))
    return worst


def mc_digest(counts) -> str:
    """SHA-256 of the little-endian int64 counts in (t, n) order."""
    return hashlib.sha256(
        np.concatenate(counts).astype("<i8").tobytes()).hexdigest()


def digest_number(digest: str) -> int:
    """The first 48 bits of a hex digest, exact as a JSON number."""
    return int(digest[:12], 16)


class Workload:
    """Inputs made in ``__init__``; ``ops(out)`` gives one sample's CLI calls
    writing into ``out``, and ``checks(out, values)`` one check per call,
    which stores the figures it measures in ``values``."""

    def check(self, out: Path, values: dict) -> list[str | None]:
        """Run each op's check; None for a pass, else why it failed."""
        failures = []
        for check in self.checks(out, values):
            try:
                check()
                failures.append(None)
            except Exception as exc:  # any unreadable output is a failed op
                failures.append(f"{type(exc).__name__}: {exc}")
        return failures


class Design(Workload):
    """Inverse design through files: synth rw -> evolve, synth qw -> evolve,
    all from a seeded random feasible target written as a t,n,value CSV."""

    name = "design"

    def __init__(self, seed: int, workdir: Path, horizon: int):
        self.horizon = horizon
        self.target = master_equation(
            random_jump_field(np.random.default_rng(seed), horizon))
        self.target_path = workdir / "target.csv"
        write_target_csv(self.target, self.target_path)

    def ops(self, out: Path) -> list[list[str]]:
        argv = []
        for walk in ("rw", "qw"):
            schedule = str(out / f"{walk}-schedule.json")
            argv.append(["synth", "--target", f"file:{self.target_path}",
                         "--walk", walk, "--out", schedule])
            argv.append(["evolve", "--schedule", schedule,
                         "--out", str(out / f"{walk}-rho.json")])
        return argv

    def checks(self, out: Path, values: dict):
        def schedule(walk):
            def check():
                path = out / f"{walk}-schedule.json"
                if walk == "rw":
                    forward = master_equation(
                        read_schedule(path, JumpSchedule, self.horizon))
                else:
                    forward = coin_walk(
                        read_schedule(path, CoinSchedule, self.horizon))
                check_close(path.name + " forward", forward, self.target)
            return check

        def evolved(walk):
            def check():
                path = out / f"{walk}-rho.json"
                err = check_close(path.name, read_field(path, self.horizon),
                                  self.target)
                values["check.max_abs_err"] = max(
                    values.get("check.max_abs_err", 0.0), err)
            return check

        return [schedule("rw"), evolved("rw"), schedule("qw"), evolved("qw")]


class Homogeneous(Workload):
    """The general homogeneous complex walk by step recursion and by the
    O(T^3) closed-form kernel, each written to a file."""

    name = "homogeneous"

    def __init__(self, seed: int, workdir: Path, horizon: int):
        rng = np.random.default_rng(seed)
        theta = float(rng.uniform(*THETA_RANGE))
        eta, gamma, alpha, beta, chi = (float(x) for x in
                                        rng.uniform(0.0, 2 * math.pi, 5))
        self.horizon = horizon
        self.flags = ["-T", str(horizon), "--theta", repr(theta),
                      "--eta", repr(eta), "--gamma", repr(gamma),
                      "--alpha", repr(alpha), "--beta", repr(beta),
                      "--chi", repr(chi)]

    def ops(self, out: Path) -> list[list[str]]:
        return [["hadamard", "--recursion", *self.flags,
                 "--out", str(out / "recursion.json")],
                ["hadamard", "--closed-form", *self.flags,
                 "--out", str(out / "closed-form.json")]]

    def checks(self, out: Path, values: dict):
        def recursion():
            path = out / "recursion.json"
            check_distribution(path.name, read_field(path, self.horizon))

        def closed_form():
            path = out / "closed-form.json"
            slices = read_field(path, self.horizon)
            check_distribution(path.name, slices)
            reference = read_field(out / "recursion.json", self.horizon)
            values["check.max_abs_err"] = check_close(
                "closed form vs recursion", slices, reference)

        return [recursion, closed_form]


class MonteCarlo(Workload):
    """Seeded Monte Carlo of a random jump schedule read from a file."""

    name = "mc"

    def __init__(self, seed: int, workdir: Path, horizon: int,
                 trajectories: int):
        jumps = random_jump_field(np.random.default_rng(seed), horizon)
        self.seed = seed
        self.horizon = horizon
        self.trajectories = trajectories
        self.exact = master_equation(jumps)
        self.schedule_path = workdir / "jumps.json"
        wf_io.write_schedule_json(JumpSchedule(jumps), self.schedule_path)
        # Every sample of one run uses one seed, so all must agree with the
        # first digest, and with the pinned one where there is one.
        self.expected_digest = PINNED_MC_DIGESTS.get(
            (trajectories, horizon, seed))

    def ops(self, out: Path) -> list[list[str]]:
        return [["mc", "--schedule", str(self.schedule_path),
                 "-N", str(self.trajectories), "-T", str(self.horizon),
                 "--seed", str(self.seed), "--out", str(out / "mc.csv")]]

    def checks(self, out: Path, values: dict):
        def sampled():
            counts = read_mc_counts(out / "mc.csv", self.trajectories,
                                    self.horizon)
            z = mc_max_z(counts, self.exact, self.trajectories)
            digest = mc_digest(counts)
            values["check.mc_max_z"] = z
            values["check.mc_digest"] = digest_number(digest)
            values["mc_digest_hex"] = digest
            if not z < MC_Z_BOUND:
                raise CheckFailed(f"mc.csv: max |z| {z:.2f} against the exact "
                                  f"distribution >= {MC_Z_BOUND}")
            if self.expected_digest is None:
                self.expected_digest = digest
            elif digest != self.expected_digest:
                raise CheckFailed(f"mc.csv: digest {digest} != "
                                  f"{self.expected_digest} for seed {self.seed}")

        return [sampled]


WORKLOADS = {w.name: w for w in (Design, Homogeneous, MonteCarlo)}


def make(name: str, seed: int, workdir: Path, scale: str = "full"):
    return WORKLOADS[name](seed, workdir, **SIZES[scale][name])

