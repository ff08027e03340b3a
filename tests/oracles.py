"""Per-site reference implementations of the inverse-design path.

These are the scalar loops the library replaced with whole-slice numpy
expressions.  They are kept only as test oracles: the property tests
compare the library against them, so every change in rounding or in which
site an error names shows up as a test failure.  ``random_jump_target``
builds the seeded targets several test modules share.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from walkforge.feasibility import DEFAULT_TOL, FeasibilityReport, Violation
from walkforge.lattice import (
    CoinSchedule,
    FluxField,
    InfeasibleTargetError,
    IntegrityError,
    JumpSchedule,
    ProbabilitySequence,
    WaveField,
    from_storage_index,
)
from walkforge.synthesis import COIN_NORM_TOL, EDGE_CLAMP


def random_jump_target(rng, horizon, lo=0.05, hi=0.95, p_edge=0.0):
    """Master-equation target of random jump probabilities; with p_edge > 0
    some probabilities are exactly 0 or 1, which empties sites and
    saturates the flux bound."""
    slices = [np.array([1.0])]
    for t in range(horizon):
        p = rng.uniform(lo, hi, t + 1)
        edge = rng.random(t + 1) < p_edge
        p[edge] = rng.integers(0, 2, int(edge.sum()))
        nxt = np.zeros(t + 2)
        nxt[1:] += p * slices[-1]
        nxt[:-1] += (1.0 - p) * slices[-1]
        slices.append(nxt)
    return ProbabilitySequence(slices)


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Neumaier running prefix sums; out[k] = sum(values[:k + 1])."""
    out = np.empty(len(values))
    s = 0.0
    c = 0.0
    for i, x in enumerate(values):
        x = float(x)
        tmp = s + x
        if abs(s) >= abs(x):
            c += (s - tmp) + x
        else:
            c += (x - tmp) + s
        s = tmp
        out[i] = s + c
    return out


def suffix_sums(values: np.ndarray) -> np.ndarray:
    """Neumaier running suffix sums with sentinel: out[k] = sum(values[k:]),
    out[len(values)] = 0."""
    m = len(values)
    out = np.empty(m + 1)
    out[m] = 0.0
    s = 0.0
    c = 0.0
    for i in range(m - 1, -1, -1):
        x = float(values[i])
        tmp = s + x
        if abs(s) >= abs(x):
            c += (s - tmp) + x
        else:
            c += (x - tmp) + s
        s = tmp
        out[i] = s + c
    return out



# Maximum allowed disagreement between the two recursion directions.
PASS_AGREEMENT = 1e-10


def flux_recursion(rho: ProbabilitySequence) -> FluxField:
    """Reconstruct J(n, t) for t = 0..T-1 from the conservation recursion,
    an independent check of the partial-sum split.

    Left-to-right: J(-t, t) = rho(-t, t) - 2 rho(-t-1, t+1), then
    J(n+2, t) = J(n, t) + rho(n, t) + rho(n+2, t) - 2 rho(n+1, t+1).

    Raises
    ------
    IntegrityError
        If the redundant right-to-left pass disagrees beyond 1e-10, which
        signals a non-conserving input.
    """
    slices = []
    for t in range(rho.horizon):
        cur = rho.slices[t]
        nxt = rho.slices[t + 1]
        ltr = np.empty(t + 1)
        ltr[0] = cur[0] - 2.0 * nxt[0]
        for k in range(t):
            ltr[k + 1] = ltr[k] + cur[k] + cur[k + 1] - 2.0 * nxt[k + 1]
        rtl = np.empty(t + 1)
        rtl[t] = 2.0 * nxt[t + 1] - cur[t]
        for k in range(t - 1, -1, -1):
            rtl[k] = rtl[k + 1] - cur[k] - cur[k + 1] + 2.0 * nxt[k + 1]
        gap = float(np.max(np.abs(ltr - rtl))) if t else abs(ltr[0] - rtl[0])
        if gap > PASS_AGREEMENT:
            raise IntegrityError(
                f"flux recursions disagree by {gap:.3e} at t={t}; "
                "input sequence does not conserve probability")
        # Each pass accumulates rounding noise proportional to the mass it
        # has swept over, so take every value from the pass anchored at the
        # nearer cone edge; this preserves the relative accuracy of fluxes
        # through low-probability tails.
        mass = np.cumsum(cur)
        slices.append(np.where(mass <= 0.5, ltr, rtl))
    return FluxField(slices)


def fixed_point(x) -> int:
    """A double as the exact integer multiple of 2**-1074 it is."""
    num, den = float(x).as_integer_ratio()
    return num << (1075 - den.bit_length())


def exact_flux(rho: ProbabilitySequence) -> list[list[int]]:
    """J(n, t) = a - b for t = 0..T-1, exact, in units of 2**-1074 (see
    :func:`fixed_point`), with a and b each taken from the partial sums
    anchored at the nearer cone edge, as the library's split takes them:
    slice totals may differ from 1 and from each other by rounding, so the
    anchoring matters at the last ulp."""
    half = fixed_point(0.5)
    slices = []
    for t in range(rho.horizon):
        cur, nxt = ([fixed_point(x) for x in rho.slices[s]]
                    for s in (t, t + 1))
        # pre[k] sums x[:k] and suf[k] sums x[k:] of a slice x.
        pre_c, pre_n = ([0, *accumulate(x)] for x in (cur, nxt))
        suf_c, suf_n = ([*accumulate(reversed(x))][::-1] + [0]
                        for x in (cur, nxt))
        flux = []
        for k in range(t + 1):
            above, upto = suf_n[k + 1], pre_n[k + 1]
            a = (above - suf_c[k + 1] if above <= half
                 else pre_c[k + 1] - upto)
            b = upto - pre_c[k] if upto <= half else suf_c[k] - above
            flux.append(a - b)
        slices.append(flux)
    return slices


def squared_amplitudes(rho: ProbabilitySequence):
    """psi+^2 and psi-^2 of slices t = 1..T, unclamped: slice t + 1 of psi+^2
    is [0, a(., t)] and of psi-^2 [b(., t), 0], a and b the mass that site
    (n, t) passes right and left."""
    plus, minus = [], []
    for t in range(1, rho.horizon + 1):
        cur = rho.slices[t]
        prev = rho.slices[t - 1]
        suf_c = suffix_sums(cur)       # suf_c[k] = sum_{j >= k} cur[j]
        suf_p = suffix_sums(prev)
        pre_c = prefix_sums(cur)       # pre_c[k] = sum_{j <= k} cur[j]
        pre_p = prefix_sums(prev)
        wp2 = np.empty(t + 1)
        wm2 = np.empty(t + 1)
        for k in range(t + 1):
            # psi+^2(n,t) = sum_{m>=n} rho(m,t) - sum_{m>=n+1} rho(m,t-1)
            if suf_c[k] <= 0.5:
                wp2[k] = suf_c[k] - suf_p[k]
            else:
                left_p = pre_p[k - 1] if k >= 1 else 0.0
                left_c = pre_c[k - 1] if k >= 1 else 0.0
                wp2[k] = left_p - left_c
            # psi-^2(n,t) = sum_{m>=n+1} rho(m,t-1) - sum_{m>=n+2} rho(m,t)
            if pre_c[k] <= 0.5:
                left_p = pre_p[k - 1] if k >= 1 else 0.0
                wm2[k] = pre_c[k] - left_p
            else:
                wm2[k] = suf_p[k] - suf_c[k + 1]
        plus.append(wp2)
        minus.append(wm2)
    return plus, minus


def split(rho: ProbabilitySequence):
    """Slices t = 0..T-1 of a(n, t) = psi+^2(n+1, t+1) and
    b(n, t) = psi-^2(n-1, t+1)."""
    plus, minus = squared_amplitudes(rho)
    return [wp2[1:] for wp2 in plus], [wm2[:-1] for wm2 in minus]


def flux_from_rho(rho: ProbabilitySequence) -> FluxField:
    """J(n, t) = a(n, t) - b(n, t) for t = 0..T-1."""
    return FluxField([a - b for a, b in zip(*split(rho))])


def clamped_split(rho: ProbabilitySequence):
    """The flux bound |J| <= rho + DEFAULT_TOL judged site by site on the
    split: the violations, and a and b made feasible wherever the bound
    holds.  There a split outside the interval the site's destinations
    allow takes a clipped into it and b = rho - a.  The interval is
    [0, rho], narrowed to {0} where (n + 1, t + 1) holds no mass and to
    {rho} where (n - 1, t + 1) holds none; a site with rho > 0 and both
    destinations empty has none, and is a violation.  The tolerance is
    additive because rho can be exactly zero at interior sites."""
    rights, lefts = split(rho)
    violations = []
    for t, (right, left) in enumerate(zip(rights, lefts)):
        rs, nxt = rho.slices[t], rho.slices[t + 1]
        for k in range(t + 1):
            a, b, r = float(right[k]), float(left[k]), float(rs[k])
            lo = r if nxt[k] == 0.0 else 0.0
            hi = 0.0 if nxt[k + 1] == 0.0 else r
            if abs(a - b) > r + DEFAULT_TOL or lo > hi:
                violations.append(Violation(from_storage_index(k, t), t,
                                            a - b, r))
                continue
            if not (lo <= a <= hi and r - hi <= b <= r - lo):
                a = min(max(a, lo), hi)
                b = r - a
            right[k], left[k] = a, b
    return rights, lefts, violations


def feasible_split(rho: ProbabilitySequence):
    """The clamped split of a target that passes the flux bound at
    DEFAULT_TOL; otherwise the error names the first five violated sites."""
    rights, lefts, violations = clamped_split(rho)
    if violations:
        sites = ", ".join(f"(n={v.n}, t={v.t})" for v in violations[:5])
        raise InfeasibleTargetError(
            f"target is infeasible; flux bound violated at {sites}",
            n=violations[0].n, t=violations[0].t)
    return rights, lefts


def validate_sequence(rho: ProbabilitySequence) -> FeasibilityReport:
    """Check the flux bound at every on-support site; infeasibility is a
    report outcome, not an error.  A feasible site with rho = 0 is
    undefined, and one with 2 min(a, b) <= DEFAULT_TOL rho on the clamped
    split is a boundary site."""
    rights, lefts, violations = clamped_split(rho)
    violated = {(v.n, v.t) for v in violations}
    boundary = []
    undefined = []
    for t, (right, left) in enumerate(zip(rights, lefts)):
        rs = rho.slices[t]
        for k in range(t + 1):
            n = from_storage_index(k, t)
            r = float(rs[k])
            if (n, t) in violated:
                continue
            if r == 0.0:
                undefined.append((n, t))
            elif 2.0 * min(float(right[k]), float(left[k])) <= DEFAULT_TOL * r:
                boundary.append((n, t))
    return FeasibilityReport(
        feasible=not violations,
        violations=tuple(violations),
        boundary_sites=tuple(boundary),
        undefined_sites=tuple(undefined),
    )



def reconstruct_wavefield(rho: ProbabilitySequence) -> WaveField:
    """Recover the non-negative real components psi+-(n, t) realising rho.

    At t = 0 the components are fixed to psi+(0,0) = 1, psi-(0,0) = 0; the
    coin angle theta(0,0) produced by :func:`synthesize_coins` absorbs this
    convention.  Slice t of psi+^2 is [0, a(., t - 1)] and of psi-^2
    [b(., t - 1), 0], from the clamped split of a feasible target; both
    components are zero wherever rho is.
    """
    plus = [np.array([1.0])]
    minus = [np.array([0.0])]
    for t, (right, left) in enumerate(zip(*feasible_split(rho)), 1):
        cur = rho.slices[t]
        wp2 = np.concatenate(([0.0], right))
        wm2 = np.concatenate((left, [0.0]))
        for arr in (wp2, wm2):
            arr[cur == 0.0] = 0.0
        plus.append(np.sqrt(wp2))
        minus.append(np.sqrt(wm2))
    return WaveField(plus, minus)



def synthesize_coins(w: WaveField) -> CoinSchedule:
    """Coin angles theta(n, t) that evolve w from slice t to t + 1.

    rho cos theta = psi+(n,t) psi+(n+1,t+1) - psi-(n,t) psi-(n-1,t+1),
    rho sin theta = psi-(n,t) psi+(n+1,t+1) + psi+(n,t) psi-(n-1,t+1),
    with rho = psi+^2 + psi-^2 at (n, t); theta is the two-argument
    arctangent of the undivided products, clamped to [0, pi].  Sites where
    psi+ and psi- both vanish are undefined, and must pass on no mass.
    Once every site keeps its mass, the first defined site whose
    rho sin theta lies below -EDGE_CLAMP rho, which no angle in [0, pi]
    can give, is an error; above that a negative one is taken as 0.
    """
    tiny = np.finfo(float).tiny
    angles = []
    fault = None
    for t in range(w.horizon):
        wp = w.plus_slices[t]
        wm = w.minus_slices[t]
        wp_next = w.plus_slices[t + 1]
        wm_next = w.minus_slices[t + 1]
        theta = np.full(t + 1, math.nan)
        for k in range(t + 1):
            mass = wp[k] * wp[k] + wm[k] * wm[k]
            after = wp_next[k + 1] * wp_next[k + 1] + wm_next[k] * wm_next[k]
            drift = abs(after - mass)
            scale = max(mass, tiny)
            if drift > COIN_NORM_TOL * scale:
                raise IntegrityError(
                    f"coin at (n={from_storage_index(k, t)}, t={t}) changes "
                    f"the local mass by {float(drift)!r}; wave field "
                    "inconsistent")
            if wp[k] == 0.0 and wm[k] == 0.0:
                continue
            c = wp[k] * wp_next[k + 1] - wm[k] * wm_next[k]
            s = wm[k] * wp_next[k + 1] + wp[k] * wm_next[k]
            if s < -EDGE_CLAMP * scale and fault is None:
                fault = IntegrityError(
                    f"coin at (n={from_storage_index(k, t)}, t={t}) has "
                    f"rho sin theta = {float(s)!r} < 0; wave field "
                    "inconsistent")
            if s < 0.0:
                s = 0.0
            th = math.atan2(s, c)
            theta[k] = min(max(th, 0.0), math.pi)
        angles.append(theta)
    if fault is not None:
        raise fault
    return CoinSchedule(angles)



def _jump_from_ratio(num: float, rho: float, n: int, t: int) -> float:
    p = num / rho
    if p < -EDGE_CLAMP or p > 1.0 + EDGE_CLAMP:
        raise InfeasibleTargetError(
            f"jump probability {float(p)!r} at (n={n}, t={t}) outside [0, 1]",
            n=n, t=t)
    return min(max(p, 0.0), 1.0)


def synthesize_jumps(rho: ProbabilitySequence) -> JumpSchedule:
    """Jump probabilities p(n, t) = a(n, t) / rho(n, t) wherever rho > 0, a
    from the clamped split of a feasible target."""
    probs = []
    for t, right in enumerate(feasible_split(rho)[0]):
        rs = rho.slices[t]
        p = np.full(t + 1, math.nan)
        mask = rs > 0.0
        for k in np.flatnonzero(mask):
            n = from_storage_index(k, t)
            p[k] = _jump_from_ratio(right[k], rs[k], n, t)
        probs.append(p)
    return JumpSchedule(probs)



def mimic_quantum_walk(qw_field) -> JumpSchedule:
    """Jump schedule reproducing the position statistics of a quantum walk.

    p(n, t) = |psi+(n+1, t+1)|^2 / rho(n, t) wherever rho(n, t) > 0; for a
    real Hadamard field this reduces to [psi+ + psi-]^2 / (2 rho).  Works on
    both real and complex wave fields.
    """
    probs = []
    for t in range(qw_field.horizon):
        wp = np.abs(qw_field.plus_slices[t]) ** 2
        wm = np.abs(qw_field.minus_slices[t]) ** 2
        rs = wp + wm
        wp_next = np.abs(qw_field.plus_slices[t + 1]) ** 2
        p = np.full(t + 1, math.nan)
        mask = rs > 0.0
        for k in np.flatnonzero(mask):
            n = from_storage_index(k, t)
            p[k] = _jump_from_ratio(wp_next[k + 1], rs[k], n, t)
        probs.append(p)
    return JumpSchedule(probs)


def probability_from_wavefield(w) -> ProbabilitySequence:
    """rho = |psi+|^2 + |psi-|^2, each slice divided by its math.fsum total
    where that lies more than 1e-15 from 1."""
    slices = []
    for plus, minus in zip(w.plus_slices, w.minus_slices):
        rho = np.abs(plus) ** 2 + np.abs(minus) ** 2
        total = math.fsum(rho)
        slices.append(rho / total if abs(total - 1.0) > 1e-15 else rho)
    return ProbabilitySequence(slices)
