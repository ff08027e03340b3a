"""Forward engines: real and complex quantum walks, exact and sampled
random walks.

Both quantum recursions, real inhomogeneous and complex homogeneous, step
through one loop, :func:`_walk`; the real walk's cos and sin come a slice
block at a time (:func:`lattice._blocks`).  The closed form built from the
trigonometric kernel Lambda (one FFT per slice, O(T^2 log T)) and the tests'
dense-matrix oracle of the real walk stay independent checks of it; the
classical walk has the exact master equation.  Monte Carlo trajectories use
per-trajectory counter-based substreams keyed by (master seed, trajectory
index) and advance in blocks that add integer counts.  The blocks are shared
among forked workers, one per CPU the process may run on, so the sample is
bit-identical for any block size and any CPU count.

The schedule engines step an undefined (NaN) parameter as theta = 0 or
p = 0, which keeps the mass; :func:`_check_coverage` alone judges it dead.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass

import numpy as np

from .lattice import (
    CoinSchedule,
    ComplexWaveField,
    CoverageError,
    JumpSchedule,
    NORM_TOL,
    ProbabilitySequence,
    ScalarField,
    WaveField,
    WalkError,
    _blocks,
    _check_horizon,
    _first_fault,
    site_positions,
    slice_offset,
    split_slices,
)

# Trajectories per Monte Carlo block: it bounds memory, not the sample.
_MC_BLOCK = 2048

# Bytes in which a failing Monte Carlo worker names its exception.
_MC_ERROR_BYTES = 256

# The kernel's terms, and their rounding, grow like 1 / |sin theta| toward
# ballistic coins; below this |sin theta| the closed form uses the recursion.
MIN_SIN_THETA = 1e-2


def _finite_angle(name: str, value: float) -> float:
    if not math.isfinite(value):  # an overflow: no sine or cosine
        raise WalkError(f"coin angle {name} = {value!r} is not finite")
    return value


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
        return _finite_angle("alpha + beta - gamma",
                             self.alpha + self.beta - self.gamma)

    def initial_state(self) -> tuple[complex, complex]:
        return (
            complex(math.cos(self.eta)),
            np.exp(1j * self.gamma) * math.sin(self.eta),
        )

    def coin(self) -> tuple[complex, complex, complex, complex]:
        """The coin entries pp, pm, mp, mm of one step:
        psi+ <- pp psi+ + pm psi-, psi- <- mp psi+ - mm psi-."""
        c, s = math.cos(self.theta), math.sin(self.theta)
        ph_chi = np.exp(1j * self.chi)
        return (ph_chi * np.exp(1j * self.alpha) * c,
                ph_chi * np.exp(-1j * self.beta) * s,
                ph_chi * np.exp(1j * self.beta) * s,
                ph_chi * np.exp(-1j * self.alpha) * c)


@dataclass(frozen=True)
class McConfig:
    trajectories: int
    seed: int
    horizon: int

    def __post_init__(self):
        # The counts are int64.
        if not 1 <= self.trajectories < 2 ** 63:
            raise WalkError(f"trajectories must be in [1, 2**63), "
                            f"got {self.trajectories}")
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


def _check_coverage(schedule, mass: np.ndarray, what: str) -> None:
    """Raise :class:`CoverageError` at the earliest, then leftmost, site
    where ``schedule`` is undefined and ``mass`` exceeds NORM_TOL."""
    bad = (mass > NORM_TOL) & np.isnan(schedule.buf[:len(mass)])
    if bad.any():
        _, n, t = _first_fault(bad)
        raise CoverageError(f"{what} (n={n}, t={t})")


def _walk(init, coins, steps: int, dtype) -> tuple[np.ndarray, np.ndarray]:
    """psi+ and psi- of slices 0..steps, started from ``init`` at the origin;
    step t applies the t-th coin (pp, pm, mp, mm) of ``coins``:
    psi+(n+1, t+1) = pp psi+(n, t) + pm psi-(n, t),
    psi-(n-1, t+1) = mp psi+(n, t) - mm psi-(n, t)."""
    plus = np.zeros(slice_offset(steps + 1), dtype=dtype)
    minus = np.zeros_like(plus)
    plus[0], minus[0] = init
    wp, wm = split_slices(plus), split_slices(minus)
    for t, (pp, pm, mp, mm) in zip(range(steps), coins):
        wp[t + 1][1:] = pp * wp[t] + pm * wm[t]
        wm[t + 1][:-1] = mp * wp[t] - mm * wm[t]
    return plus, minus


def evolve_qw(schedule: CoinSchedule, init=(1.0, 0.0),
              steps: int | None = None) -> WaveField:
    """Evolve the real inhomogeneous walk of a schedule by :func:`_walk`.

    psi+(n+1, t+1) = cos th psi+(n, t) + sin th psi-(n, t),
    psi-(n-1, t+1) = sin th psi+(n, t) - cos th psi-(n, t).

    ``init`` must have norm 1 within NORM_TOL, else :class:`WalkError`.  An
    undefined coin steps as theta = 0, which keeps the mass; after the
    field's own checks, a mass above NORM_TOL there is a CoverageError, so
    the mass is formed for that only if some coin is undefined.
    """
    steps = _schedule_steps(schedule, steps)
    a, b = float(init[0]), float(init[1])
    norm = a * a + b * b  # inf, not OverflowError, if it overflows
    if not abs(norm - 1.0) <= NORM_TOL:  # NaN fails every comparison
        raise WalkError(f"initial state norm {norm!r} != 1")

    def coins():  # (cos, sin, sin, cos) of each step, a slice block at a time
        for t0, th in _blocks(schedule.value_slices[:steps]):
            th[np.isnan(th)] = 0.0  # NaN steps as 0; angles are finite
            s, c = np.sin(th), np.cos(th, out=th)
            for t, c_t, s_t in zip(itertools.count(t0), c, s):
                yield c_t[:t + 1], s_t[:t + 1], s_t[:t + 1], c_t[:t + 1]

    field = WaveField(*_walk((a, b), coins(), steps, float))
    n = slice_offset(steps)
    if np.isnan(schedule.buf[:n]).any():  # else no site can be dead
        _check_coverage(schedule, field.mass()[:n],
                        "coin undefined at live site")
    return field


def evolve_qw_complex(params: HomogeneousCoinParams, horizon: int) -> ComplexWaveField:
    """Step-by-step evolution of the general homogeneous complex walk."""
    _check_horizon(horizon)
    return ComplexWaveField(*_walk(params.initial_state(),
                                   itertools.repeat(params.coin()),
                                   horizon, complex))


def _kernel_terms(theta: float, t: int):
    """x_r = pi r / (t + 1), omega_r and sec omega_r for r = 1..t, where
    sin omega_r = cos theta sin x_r.  cos omega_r is a hypot, not the cosine
    of an arcsin, so it keeps its digits as theta nears 0 or pi."""
    x = np.pi * np.arange(1, t + 1) / (t + 1)
    cos_omega = np.hypot(math.sin(theta), math.cos(theta) * np.cos(x))
    omega = np.arctan2(math.cos(theta) * np.sin(x), cos_omega)
    return x, omega, 1.0 / cos_omega


def lambda_slice(theta: float, t: int) -> np.ndarray:
    """Lambda(n, t) at the support sites n = 2k - t, k = 0..t, by one FFT.

    With n = 2k - t the sum over r is a length-(t + 1) DFT in k:
    Lambda = [(1 + (-1)^t) / 2 + Re FFT(a)] / (t + 1), where a_0 = 0 and
    a_r = sec omega_r e^{i((t - 1) omega_r + t x_r)}.
    """
    x, omega, sec = _kernel_terms(theta, t)
    a = np.zeros(t + 1, dtype=complex)
    a[1:] = sec * np.exp(1j * ((t - 1) * omega + t * x))
    return (0.5 * (1 + (-1) ** t) + np.fft.fft(a).real) / (t + 1)


def lambda_kernel(n: int, t: int, theta: float) -> float:
    """Scalar kernel Lambda(n, t) of the closed-form homogeneous solution,
    summed directly over r; n may lie off the support."""
    if abs(n) > t:
        raise WalkError(f"lambda_kernel requires |n| <= t, got n={n}, t={t}")
    x, omega, sec = _kernel_terms(theta, t)
    return float((0.5 * (1 + (-1) ** t)
                  + np.sum(sec * np.cos((t - 1) * omega - n * x))) / (t + 1))


def closed_form_wavefield(params: HomogeneousCoinParams,
                          horizon: int) -> ComplexWaveField:
    """Assemble the complex wave field from the Lambda kernel.

    Falls back to the recursion engine when |sin theta| < MIN_SIN_THETA,
    where the kernel's secants blow up while the walk is merely ballistic.
    """
    _check_horizon(horizon)
    if abs(math.sin(params.theta)) < MIN_SIN_THETA:
        return evolve_qw_complex(params, horizon)
    p00, m00 = params.initial_state()
    pp, pm, mp, mm = params.coin()
    p11, m11 = pp * p00 + pm * m00, mp * p00 - mm * m00
    # chi and alpha multiply t and n below: reduced to (-pi, pi] through
    # their own phasors, which a float 2 pi modulus would not keep exact.
    chi, alpha = np.angle(np.exp(1j * np.array([params.chi, params.alpha])))
    plus = np.empty(slice_offset(horizon + 1), dtype=complex)
    minus = np.empty_like(plus)
    lam = lambda_slice(params.theta, 0)
    for t, (wp, wm) in enumerate(zip(split_slices(plus),
                                     split_slices(minus))):
        # Lambda(n -+ 1, t + 1) at the sites n of slice t are the first and
        # the last t + 1 values of slice t + 1, which is the next lam.
        nxt = lambda_slice(params.theta, t + 1)
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
    eta2 = _finite_angle("2 eta", 2 * params.eta)
    theta2 = _finite_angle("2 theta", 2 * params.theta)
    a = (math.cos(eta2) * math.cos(params.theta)
         + math.sin(eta2) * math.sin(params.theta) * math.cos(phi))
    b = (math.cos(eta2) * math.cos(theta2)
         + math.sin(eta2) * math.sin(theta2) * math.cos(phi))
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
    eta2 = _finite_angle("2 eta", 2 * params.eta)
    bracket = t + n * (math.cos(eta2) + math.sin(eta2)
                       * math.tan(params.theta) * math.cos(phi))
    return (2.0 / math.pi) * t / (t * t - n * n) \
        * math.sin(params.theta) / math.sqrt(t * t * c * c - n * n) * bracket


def evolve_rw_exact(schedule: JumpSchedule,
                    steps: int | None = None) -> ProbabilitySequence:
    """Exact master equation of the inhomogeneous random walk.

    rho(n, t) = p(n-1, t-1) rho(n-1, t-1) + [1 - p(n+1, t-1)] rho(n+1, t-1).
    An undefined jump probability steps as p = 0, so dead mass there moves
    to (n - 1, t + 1) and each slice keeps summing to one; a mass above
    NORM_TOL there raises :class:`CoverageError`.
    """
    steps = _schedule_steps(schedule, steps)
    rho = np.zeros(slice_offset(steps + 1))
    rho[0] = 1.0
    r = split_slices(rho)
    for t, pt in enumerate(schedule.value_slices[:steps]):
        pt = np.where(np.isnan(pt), 0.0, pt)  # per slice: no buffer copy
        r[t + 1][1:] += pt * r[t]
        r[t + 1][:-1] += (1.0 - pt) * r[t]
    _check_coverage(schedule, rho[:slice_offset(steps)],
                    "jump probability undefined at occupied site")
    return ProbabilitySequence(rho)


def _usable_cpus() -> int:
    """CPUs this process may run on and fork workers for: 1 where the OS
    reports no affinity mask or has no fork."""
    if hasattr(os, "sched_getaffinity") and hasattr(os, "fork"):
        return len(os.sched_getaffinity(0))
    return 1


def _mc_blocks(schedule: JumpSchedule, cfg: McConfig, steps: int,
               starts, counts: np.ndarray) -> None:
    """Add to ``counts`` the visits after t = 0 of the trajectories in the
    blocks that begin at ``starts``; trajectory i draws its uniforms from
    Philox(key=[seed, i])."""
    n_traj = cfg.trajectories
    gen = np.random.Generator(np.random.Philox(key=[cfg.seed, 0]))
    fresh = gen.bit_generator.state  # counter zero, buffer empty
    draws = np.empty((min(_MC_BLOCK, n_traj), steps))
    for start in starts:
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


def _mc_forked(schedule: JumpSchedule, cfg: McConfig, steps: int,
               starts, workers: int) -> np.ndarray:
    """The counts of :func:`_mc_blocks` over ``starts``, summed from
    ``workers`` forked processes; worker w runs ``starts[w::workers]``
    into its own row of an anonymous shared mapping, and a worker that
    fails writes the name and message of its exception after the rows."""
    import mmap
    import signal

    size = slice_offset(steps + 1)
    buf = mmap.mmap(-1, (8 * size + _MC_ERROR_BYTES) * workers)
    shared = np.ndarray((workers, size), np.int64, buf)
    errors = np.ndarray(workers, f"S{_MC_ERROR_BYTES}", buf, shared.nbytes)
    pids = []  # started and not yet reaped
    try:
        for w in range(workers):
            pid = os.fork()
            if pid == 0:  # the worker never returns into the caller
                try:
                    _mc_blocks(schedule, cfg, steps, starts[w::workers],
                               shared[w])
                    os._exit(0)
                except BaseException as exc:  # cut to fit, NUL-padded
                    errors[w] = ": ".join(filter(None, (
                        type(exc).__name__, str(exc)))).encode()
                finally:
                    os._exit(1)
            pids.append(pid)
        for w in range(workers):
            code = os.waitstatus_to_exitcode(os.waitpid(pids[0], 0)[1])
            pids.pop(0)
            if code < 0:
                raise WalkError(f"Monte Carlo worker killed by signal {-code}")
            if code:
                raise WalkError(": ".join(filter(None, (
                    f"Monte Carlo worker exited with status {code}",
                    errors[w].decode(errors="replace")))))
    finally:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    counts = shared[0]
    for row in shared[1:]:
        counts += row
    return counts


def simulate_rw(schedule: JumpSchedule,
                cfg: McConfig) -> tuple[ProbabilitySequence, ScalarField]:
    """Monte Carlo estimate of the walk distribution with standard errors.

    Returns the empirical frequencies over ``cfg.trajectories`` independent
    walkers and the per-site standard error sqrt(rho_hat (1 - rho_hat) / N).
    Fully reproducible given (seed, N, horizon).  Trajectories advance in
    blocks and add integer counts.  With W = min(CPUs the process may run
    on, blocks) >= 2 the blocks are shared among W forked workers, and the
    caller sums their counts; the sample is bit-identical for any W.
    Memory is O(W * (block * T + T^2)) across the workers, independent of N.
    The workers hold the draws and do the sampling, so the caller's peak
    RSS and ``time.process_time`` leave both out.
    """
    steps = _schedule_steps(schedule, cfg.horizon)
    n_traj = cfg.trajectories
    starts = range(0, n_traj, _MC_BLOCK)
    workers = min(_usable_cpus(), len(starts))
    if workers == 1:
        counts = np.zeros(slice_offset(steps + 1), dtype=np.int64)
        _mc_blocks(schedule, cfg, steps, starts, counts)
    else:
        counts = _mc_forked(schedule, cfg, steps, starts, workers)
    counts[0] = n_traj
    # A walker at an undefined site steps left (u < NaN is False), as p = 0
    # does; the counts up to its first visit, and the error, are exact.
    _check_coverage(schedule, counts[:slice_offset(steps)],
                    "jump probability undefined at visited site")
    rho_hat = ProbabilitySequence(counts / n_traj)
    s = rho_hat.buf
    return rho_hat, ScalarField(np.sqrt(s * (1.0 - s) / n_traj))
