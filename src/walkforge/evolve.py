"""Forward engines: real and complex quantum walks, exact and sampled
random walks.

Four routes are kept side by side because they serve as one another's
oracles: the real inhomogeneous recursion, the complex homogeneous
recursion, the closed-form solution built from the trigonometric kernel
``lambda_kernel``, and the exact classical master equation.  Monte Carlo
trajectories use per-trajectory counter-based substreams keyed by
(master seed, trajectory index), so the sampled set is bit-identical for
any execution order or thread count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .lattice import (
    CoinSchedule,
    ComplexWaveField,
    CoverageError,
    JumpSchedule,
    ProbabilitySequence,
    ScalarField,
    WaveField,
    WalkError,
    from_storage_index,
    site_positions,
)

# Amplitude (or mass) below this is allowed to touch undefined schedule
# sites: such sites carry zero measure by construction.
DEAD_AMPLITUDE = 1e-12

# The closed-form kernel degenerates for ballistic coins; below this
# |sin theta| the recursion engine is used instead.
MIN_SIN_THETA = 1e-9


def thread_cap() -> int:
    """Parallelism cap from WALKFORGE_THREADS (0 or unset = auto)."""
    raw = os.environ.get("WALKFORGE_THREADS", "0")
    try:
        cap = int(raw)
    except ValueError:
        raise WalkError(f"WALKFORGE_THREADS={raw!r} is not an integer") from None
    if cap < 0:
        raise WalkError(f"WALKFORGE_THREADS={cap} must be >= 0")
    if cap == 0:
        return os.cpu_count() or 1
    return cap


@dataclass(frozen=True)
class HomogeneousCoinParams:
    """Angles of the most general homogeneous complex coin and initial state.

    The coin matrix is e^{i chi} [[e^{i alpha} cos th, e^{-i beta} sin th],
    [e^{i beta} sin th, -e^{-i alpha} cos th]]; the walker starts in
    (cos eta, e^{i gamma} sin eta) at the origin.  The position distribution
    depends on alpha, beta, gamma only through varphi = alpha + beta - gamma,
    and not on chi at all.
    """

    theta: float
    eta: float
    gamma: float
    alpha: float = 0.0
    beta: float = 0.0
    chi: float = 0.0

    def __post_init__(self):
        for name in ("theta", "eta", "gamma", "alpha", "beta", "chi"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise WalkError(f"coin parameter {name}={v!r} is not finite")

    @property
    def varphi(self) -> float:
        return self.alpha + self.beta - self.gamma

    def initial_state(self) -> tuple[complex, complex]:
        return (
            complex(math.cos(self.eta)),
            np.exp(1j * self.gamma) * math.sin(self.eta),
        )


def _check_horizon(horizon: int) -> int:
    """``horizon``, which must be >= 0."""
    if horizon < 0:
        raise WalkError(f"horizon must be >= 0, got {horizon}")
    return horizon


@dataclass(frozen=True)
class McConfig:
    trajectories: int
    seed: int
    horizon: int

    def __post_init__(self):
        if self.trajectories < 1:
            raise WalkError("trajectories must be >= 1")
        _check_horizon(self.horizon)


def _schedule_steps(schedule, steps: int | None) -> int:
    """``steps``, by default all the schedule covers, and never more."""
    steps = schedule.steps if steps is None else _check_horizon(steps)
    if steps > schedule.steps:
        raise CoverageError(
            f"schedule covers {schedule.steps} steps, {steps} requested")
    return steps


def evolve_qw(schedule: CoinSchedule, init=(1.0, 0.0),
              steps: int | None = None) -> WaveField:
    """Evolve the real inhomogeneous walk under a coin schedule.

    psi+(n+1, t+1) = cos th psi+(n, t) + sin th psi-(n, t),
    psi-(n-1, t+1) = sin th psi+(n, t) - cos th psi-(n, t).

    Undefined schedule sites may only be touched by dead amplitude
    (<= 1e-12), in which case they emit zeros; live amplitude raises
    :class:`CoverageError`.
    """
    steps = _schedule_steps(schedule, steps)
    a, b = float(init[0]), float(init[1])
    plus = [np.array([a])]
    minus = [np.array([b])]
    for t in range(steps):
        wp = plus[t]
        wm = minus[t]
        defined = schedule.defined_slices[t]
        live = np.maximum(np.abs(wp), np.abs(wm)) > DEAD_AMPLITUDE
        bad = live & ~defined
        if bad.any():
            k = int(np.argmax(bad))
            raise CoverageError(
                f"coin undefined at live site (n={from_storage_index(k, t)}, "
                f"t={t})")
        th = schedule.value_slices[t]
        c = np.where(defined, np.cos(th), 0.0)
        s = np.where(defined, np.sin(th), 0.0)
        new_p = np.zeros(t + 2)
        new_m = np.zeros(t + 2)
        new_p[1:] = c * wp + s * wm
        new_m[:-1] = s * wp - c * wm
        plus.append(new_p)
        minus.append(new_m)
    return WaveField(plus, minus)


def evolve_qw_complex(params: HomogeneousCoinParams, horizon: int) -> ComplexWaveField:
    """Step-by-step evolution of the general homogeneous complex walk."""
    _check_horizon(horizon)
    a, b = params.initial_state()
    plus = [np.array([a], dtype=complex)]
    minus = [np.array([b], dtype=complex)]
    c = math.cos(params.theta)
    s = math.sin(params.theta)
    ph_chi = np.exp(1j * params.chi)
    pp = ph_chi * np.exp(1j * params.alpha) * c
    pm = ph_chi * np.exp(-1j * params.beta) * s
    mp = ph_chi * np.exp(1j * params.beta) * s
    mm = ph_chi * np.exp(-1j * params.alpha) * c
    for t in range(horizon):
        wp = plus[t]
        wm = minus[t]
        new_p = np.zeros(t + 2, dtype=complex)
        new_m = np.zeros(t + 2, dtype=complex)
        new_p[1:] = pp * wp + pm * wm
        new_m[:-1] = mp * wp - mm * wm
        plus.append(new_p)
        minus.append(new_m)
    return ComplexWaveField(plus, minus)


def lambda_slice(theta: float, t: int, ns: np.ndarray) -> np.ndarray:
    """Vectorised kernel values Lambda(n, t) for an array of positions."""
    ns = np.asarray(ns, dtype=float)
    even_term = 0.5 * (1.0 + (-1.0) ** t)
    if t == 0:
        return np.full(ns.shape, even_term)
    r = np.arange(1, t + 1, dtype=float)
    omega = np.arcsin(math.cos(theta) * np.sin(math.pi * r / (t + 1)))
    sec = 1.0 / np.cos(omega)
    phases = (t - 1) * omega[:, None] - math.pi * np.outer(r, ns) / (t + 1)
    return (even_term + (sec[:, None] * np.cos(phases)).sum(axis=0)) / (t + 1)


def lambda_kernel(n: int, t: int, theta: float) -> float:
    """Scalar kernel Lambda(n, t) of the closed-form homogeneous solution."""
    if abs(n) > t:
        raise WalkError(f"lambda_kernel requires |n| <= t, got n={n}, t={t}")
    return float(lambda_slice(theta, t, np.array([n]))[0])


def closed_form_wavefield(params: HomogeneousCoinParams,
                          horizon: int) -> ComplexWaveField:
    """Assemble the complex wave field from the Lambda kernel.

    Falls back to the recursion engine when |sin theta| < 1e-9, where the
    kernel's secants blow up while the walk itself is merely ballistic.
    """
    _check_horizon(horizon)
    if abs(math.sin(params.theta)) < MIN_SIN_THETA:
        return evolve_qw_complex(params, horizon)
    p00, m00 = params.initial_state()
    chi, alpha = params.chi, params.alpha
    c = math.cos(params.theta)
    s = math.sin(params.theta)
    p11 = np.exp(1j * chi) * (
        np.exp(1j * alpha) * math.cos(params.eta) * c
        + np.exp(1j * (params.gamma - params.beta)) * math.sin(params.eta) * s)
    m11 = np.exp(1j * chi) * (
        np.exp(1j * params.beta) * math.cos(params.eta) * s
        - np.exp(1j * (params.gamma - alpha)) * math.sin(params.eta) * c)
    plus = []
    minus = []
    lam = lambda_slice(params.theta, 0, site_positions(0))
    for t in range(horizon + 1):
        ns = site_positions(t)
        # Lambda(n -+ 1, t + 1) at the sites n of slice t are the first and
        # the last t + 1 values of slice t + 1, which is the next lam.
        nxt = lambda_slice(params.theta, t + 1, site_positions(t + 1))
        wp = np.exp(1j * (chi * t + alpha * ns)) * (
            p00 * lam + np.exp(-1j * (chi + alpha)) * p11 * nxt[:-1])
        # The minus component carries e^{i alpha n}, not e^{-i alpha n}: only
        # this convention reproduces the defining recursion (checked against
        # the step-by-step engine for random parameters).
        wm = np.exp(1j * (chi * t + alpha * ns)) * (
            m00 * lam + np.exp(-1j * (chi - alpha)) * m11 * nxt[1:])
        plus.append(wp)
        minus.append(wm)
        lam = nxt
    return ComplexWaveField(plus, minus)


def symmetry_conditions(params: HomogeneousCoinParams) -> tuple[float, float]:
    """The two scalars whose simultaneous vanishing gives an exactly
    symmetric position distribution; the first alone gives quasi-symmetry
    (symmetric leading asymptotics)."""
    phi = params.varphi
    a = (math.cos(2 * params.eta) * math.cos(params.theta)
         + math.sin(2 * params.eta) * math.sin(params.theta) * math.cos(phi))
    b = (math.cos(2 * params.eta) * math.cos(2 * params.theta)
         + math.sin(2 * params.eta) * math.sin(2 * params.theta) * math.cos(phi))
    return a, b


def asymptotic_density(params: HomogeneousCoinParams, n: int, t: int) -> float:
    """Large-t envelope of rho(n, t) in the bulk |n| < t cos theta.

    The envelope tracks the on-support probabilities directly (no extra
    factor for the bipartite lattice), but the exact values oscillate
    around it, so pointwise comparisons should average over a window of
    adjacent support sites.
    """
    c = math.cos(params.theta)
    if abs(n) >= t * abs(c):
        raise WalkError(
            f"asymptotic density only valid for |n| < t cos theta "
            f"(n={n}, t={t}, theta={params.theta})")
    phi = params.varphi
    bracket = t + n * (math.cos(2 * params.eta)
                       + math.sin(2 * params.eta) * math.tan(params.theta)
                       * math.cos(phi))
    return (2.0 / math.pi) * t / (t * t - n * n) \
        * math.sin(params.theta) / math.sqrt(t * t * c * c - n * n) * bracket


def evolve_rw_exact(schedule: JumpSchedule,
                    steps: int | None = None) -> ProbabilitySequence:
    """Exact master equation of the inhomogeneous random walk.

    rho(n, t) = p(n-1, t-1) rho(n-1, t-1) + [1 - p(n+1, t-1)] rho(n+1, t-1).
    Mass above 1e-12 at an undefined schedule site raises
    :class:`CoverageError`; dead mass below it is split evenly so each slice
    keeps summing to one.
    """
    steps = _schedule_steps(schedule, steps)
    slices = [np.array([1.0])]
    for t in range(steps):
        cur = slices[t]
        defined = schedule.defined_slices[t]
        live = cur > DEAD_AMPLITUDE
        bad = live & ~defined
        if bad.any():
            k = int(np.argmax(bad))
            raise CoverageError(
                f"jump probability undefined at occupied site "
                f"(n={from_storage_index(k, t)}, t={t})")
        p = np.where(defined, schedule.value_slices[t], 0.5)
        nxt = np.zeros(t + 2)
        nxt[1:] += p * cur
        nxt[:-1] += (1.0 - p) * cur
        slices.append(nxt)
    return ProbabilitySequence(slices)


def _trajectory_uniforms(seed: int, start: int, stop: int,
                         steps: int) -> np.ndarray:
    """Uniform draws for trajectories [start, stop), one row each.

    Every trajectory owns a Philox substream keyed by (seed, index), so the
    draws do not depend on chunking or execution order.
    """
    out = np.empty((stop - start, steps))
    for i in range(start, stop):
        gen = np.random.Generator(np.random.Philox(key=[seed, i]))
        out[i - start] = gen.random(steps)
    return out


def simulate_rw(schedule: JumpSchedule,
                cfg: McConfig) -> tuple[ProbabilitySequence, ScalarField]:
    """Monte Carlo estimate of the walk distribution with standard errors.

    Returns the empirical frequencies over ``cfg.trajectories`` independent
    walkers and the per-site standard error sqrt(rho_hat (1 - rho_hat) / N).
    Fully reproducible given (seed, N, horizon).
    """
    steps = _schedule_steps(schedule, cfg.horizon)
    n_traj = cfg.trajectories
    workers = min(thread_cap(), max(1, n_traj // 1024))
    if workers > 1:
        bounds = np.linspace(0, n_traj, workers + 1, dtype=int)
        with ThreadPoolExecutor(max_workers=workers) as pool:
            chunks = list(pool.map(
                lambda ab: _trajectory_uniforms(cfg.seed, ab[0], ab[1], steps),
                zip(bounds[:-1], bounds[1:])))
        uniforms = np.concatenate(chunks) if chunks else \
            np.empty((0, steps))
    else:
        uniforms = _trajectory_uniforms(cfg.seed, 0, n_traj, steps)

    positions = np.zeros(n_traj, dtype=np.int64)
    counts = [np.zeros(t + 1, dtype=np.int64) for t in range(steps + 1)]
    counts[0][0] = n_traj
    for t in range(steps):
        k = (positions + t) >> 1
        defined = schedule.defined_slices[t]
        if not defined[k].all():
            bad_k = int(k[np.argmin(defined[k])])
            raise CoverageError(
                f"jump probability undefined at visited site "
                f"(n={from_storage_index(bad_k, t)}, t={t})")
        p = schedule.value_slices[t][k]
        positions = positions + np.where(uniforms[:, t] < p, 1, -1)
        counts[t + 1] = np.bincount((positions + t + 1) >> 1,
                                    minlength=t + 2).astype(np.int64)
    rho_hat = ProbabilitySequence([c / n_traj for c in counts])
    stderr = ScalarField([
        np.sqrt(np.clip(s * (1.0 - s), 0.0, None) / n_traj)
        for s in rho_hat.slices])
    return rho_hat, stderr
