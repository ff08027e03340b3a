"""Forward engines: real and complex quantum walks, exact and sampled
random walks.

Four routes are kept side by side because they serve as one another's
oracles: the real inhomogeneous recursion, the complex homogeneous
recursion, the closed-form solution built from the trigonometric kernel
``lambda_kernel``, and the exact classical master equation.  Monte Carlo
trajectories use per-trajectory counter-based substreams keyed by
(master seed, trajectory index) and advance in blocks that add integer
counts, so the sample is bit-identical for any block size.
"""

from __future__ import annotations

import math
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
    _check_horizon,
    _first_fault,
    site_positions,
    slice_offset,
    split_slices,
)

# Amplitude (or mass) below this is allowed to touch undefined schedule
# sites: such sites carry zero measure by construction.
DEAD_AMPLITUDE = 1e-12

# Trajectories per Monte Carlo block: it bounds memory, not the sample.
_MC_BLOCK = 2048

# The closed-form kernel degenerates for ballistic coins; below this
# |sin theta| the recursion engine is used instead.
MIN_SIN_THETA = 1e-9


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


@dataclass(frozen=True)
class McConfig:
    trajectories: int
    seed: int
    horizon: int

    def __post_init__(self):
        if self.trajectories < 1:
            raise WalkError("trajectories must be >= 1")
        # Philox casts a key past int64 to float64; nearby seeds then collide.
        if not 0 <= self.seed < 2 ** 63:
            raise WalkError(f"seed must be in [0, 2**63), got {self.seed}")
        _check_horizon(self.horizon)


def _schedule_steps(schedule, steps: int | None) -> int:
    """``steps``, by default all the schedule covers, and never more."""
    steps = schedule.steps if steps is None else _check_horizon(steps)
    if steps > schedule.steps:
        raise CoverageError(
            f"schedule covers {schedule.steps} steps, {steps} requested")
    return steps


def _check_coverage(schedule, live: np.ndarray, what: str) -> None:
    """Raise :class:`CoverageError` naming the earliest, then leftmost,
    site of a slice-order mask ``live`` at which ``schedule`` is undefined."""
    bad = live & np.isnan(schedule.buf[:len(live)])
    if bad.any():
        _, n, t = _first_fault(bad)
        raise CoverageError(f"{what} (n={n}, t={t})")


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
    th = schedule.buf[:slice_offset(steps)]
    c, s = (split_slices(np.nan_to_num(f(th), copy=False))  # NaN steps as 0
            for f in (np.cos, np.sin))
    plus = np.zeros(slice_offset(steps + 1))
    minus = np.zeros_like(plus)
    plus[0], minus[0] = float(init[0]), float(init[1])
    wp, wm = split_slices(plus), split_slices(minus)
    for t in range(steps):
        wp[t + 1][1:] = c[t] * wp[t] + s[t] * wm[t]
        wm[t + 1][:-1] = s[t] * wp[t] - c[t] * wm[t]
    del c, s  # free both buffers before the live check allocates
    live = (np.abs(plus[:len(th)]) > DEAD_AMPLITUDE) | \
        (np.abs(minus[:len(th)]) > DEAD_AMPLITUDE)
    _check_coverage(schedule, live, "coin undefined at live site")
    return WaveField(plus, minus)


def evolve_qw_complex(params: HomogeneousCoinParams, horizon: int) -> ComplexWaveField:
    """Step-by-step evolution of the general homogeneous complex walk."""
    _check_horizon(horizon)
    plus = np.zeros(slice_offset(horizon + 1), dtype=complex)
    minus = np.zeros_like(plus)
    plus[0], minus[0] = params.initial_state()
    c = math.cos(params.theta)
    s = math.sin(params.theta)
    ph_chi = np.exp(1j * params.chi)
    pp = ph_chi * np.exp(1j * params.alpha) * c
    pm = ph_chi * np.exp(-1j * params.beta) * s
    mp = ph_chi * np.exp(1j * params.beta) * s
    mm = ph_chi * np.exp(-1j * params.alpha) * c
    wp, wm = split_slices(plus), split_slices(minus)
    for t in range(horizon):
        wp[t + 1][1:] = pp * wp[t] + pm * wm[t]
        wm[t + 1][:-1] = mp * wp[t] - mm * wm[t]
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
    plus = np.empty(slice_offset(horizon + 1), dtype=complex)
    minus = np.empty_like(plus)
    lam = lambda_slice(params.theta, 0, site_positions(0))
    for t, (wp, wm) in enumerate(zip(split_slices(plus),
                                     split_slices(minus))):
        # Lambda(n -+ 1, t + 1) at the sites n of slice t are the first and
        # the last t + 1 values of slice t + 1, which is the next lam.
        nxt = lambda_slice(params.theta, t + 1, site_positions(t + 1))
        # The minus component carries e^{i alpha n}, not e^{-i alpha n}: only
        # this convention reproduces the defining recursion (checked against
        # the step-by-step engine for random parameters).
        phase = np.exp(1j * (chi * t + alpha * site_positions(t)))
        wp[:] = phase * (
            p00 * lam + np.exp(-1j * (chi + alpha)) * p11 * nxt[:-1])
        wm[:] = phase * (
            m00 * lam + np.exp(-1j * (chi - alpha)) * m11 * nxt[1:])
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
    p = schedule.buf[:slice_offset(steps)]
    rho = np.zeros(slice_offset(steps + 1))
    rho[0] = 1.0
    r = split_slices(rho)
    for t, pt in enumerate(split_slices(np.where(np.isnan(p), 0.5, p))):
        r[t + 1][1:] += pt * r[t]
        r[t + 1][:-1] += (1.0 - pt) * r[t]
    _check_coverage(schedule, rho[:len(p)] > DEAD_AMPLITUDE,
                    "jump probability undefined at occupied site")
    return ProbabilitySequence(rho)


def simulate_rw(schedule: JumpSchedule,
                cfg: McConfig) -> tuple[ProbabilitySequence, ScalarField]:
    """Monte Carlo estimate of the walk distribution with standard errors.

    Returns the empirical frequencies over ``cfg.trajectories`` independent
    walkers and the per-site standard error sqrt(rho_hat (1 - rho_hat) / N).
    Fully reproducible given (seed, N, horizon).  Trajectories advance in
    blocks and add integer counts, so memory is O(block * T + T^2),
    independent of N.
    """
    steps = _schedule_steps(schedule, cfg.horizon)
    n_traj = cfg.trajectories
    gen = np.random.Generator(np.random.Philox(key=[cfg.seed, 0]))
    fresh = gen.bit_generator.state  # counter zero, buffer empty
    counts = np.zeros(slice_offset(steps + 1), dtype=np.int64)
    counts[0] = n_traj
    draws = np.empty((min(_MC_BLOCK, n_traj), steps))
    for start in range(0, n_traj, _MC_BLOCK):
        block = draws[:n_traj - start]
        for i, row in enumerate(block, start):
            fresh["state"]["key"][1] = i  # the state of Philox(key=[seed, i])
            gen.bit_generator.state = fresh
            gen.random(out=row)
        # k = (n + t) / 2 stays put on a left step and grows on a right one.
        k = np.zeros(len(block), dtype=np.int64)
        for t in range(steps):
            k += block[:, t] < schedule.value_slices[t][k]
            hist = np.bincount(k)
            counts[slice_offset(t + 1):][:len(hist)] += hist
    del draws, block, row  # free the draws before the estimates allocate
    # A walker at an undefined site (p = NaN) steps left, so the counts up
    # to the first visit of one, and the error it raises, are exact.
    _check_coverage(schedule, counts[:slice_offset(steps)] > 0,
                    "jump probability undefined at visited site")
    rho_hat = ProbabilitySequence(counts / n_traj)
    s = rho_hat.buf
    return rho_hat, ScalarField(np.sqrt(s * (1.0 - s) / n_traj))
