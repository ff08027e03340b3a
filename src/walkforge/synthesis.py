"""Inverse construction of walk schedules from a target distribution.

Given a feasible sequence rho(n, t), the squared wave-function components of
the realising real quantum walk are fixed by telescoping partial sums of rho
over two consecutive slices.  The coin angles then follow from one evolution
step, and the classical jump probabilities from the flux field.  Both
constructions are verified end to end by forward evolution in the test
suite; only rho is claimed to be reproduced, not uniqueness of the
schedules.
"""

from __future__ import annotations

import math

import numpy as np

from .feasibility import flux_from_rho
from .lattice import (
    CoinSchedule,
    FluxField,
    InfeasibleTargetError,
    IntegrityError,
    JumpSchedule,
    NEG_CLAMP,
    ProbabilitySequence,
    WaveField,
    _first_fault,
    neighbours,
    prefix_sums,
    probability_from_wavefield,
    slice_offset,
    split_slices,
    suffix_sums,
)

# cos^2 + sin^2 may drift from 1 by this much before the synthesized pair is
# considered inconsistent with its inputs.
COIN_NORM_TOL = 1e-8

# Jump probabilities within this distance of [0, 1] are clamped onto it.
EDGE_CLAMP = 1e-10


def reconstruct_wavefield(rho: ProbabilitySequence) -> WaveField:
    """Recover the non-negative real components psi+-(n, t) realising rho.

    At t = 0 the components are fixed to psi+(0,0) = 1, psi-(0,0) = 0; the
    coin angle theta(0,0) produced by :func:`synthesize_coins` absorbs this
    convention.  Squared amplitudes below -1e-12 raise
    :class:`InfeasibleTargetError` (the validator should pre-empt this).
    """
    plus = np.zeros(slice_offset(rho.horizon + 1))  # squared until the end
    minus = np.zeros_like(plus)
    plus[0] = 1.0
    wp2, wm2 = split_slices(plus), split_slices(minus)
    for t, (prev, cur) in enumerate(zip(rho.slices, rho.slices[1:]), 1):
        suf_c = suffix_sums(cur)       # suf_c[k] = sum_{j >= k} cur[j]
        suf_p = suffix_sums(prev)
        pre_c = prefix_sums(cur)       # pre_c[k] = sum_{j <= k} cur[j]
        left_p = np.concatenate(([0.0], prefix_sums(prev)))  # sum_{j < k}
        left_c = np.concatenate(([0.0], pre_c[:-1]))
        # Each value comes from the partial sums anchored at the nearer cone
        # edge, which keeps low-probability tails relatively accurate.
        # psi+^2(n,t) = sum_{m>=n} rho(m,t) - sum_{m>=n+1} rho(m,t-1)
        wp2[t][:] = np.where(suf_c[:-1] <= 0.5, suf_c[:-1] - suf_p,
                             left_p - left_c)
        # psi-^2(n,t) = sum_{m>=n+1} rho(m,t-1) - sum_{m>=n+2} rho(m,t)
        wm2[t][:] = np.where(pre_c <= 0.5, pre_c - left_p, suf_p - suf_c[1:])
    # The earliest slice's fault, psi+ first: min keeps the first of ties.
    faults = [(_first_fault(bad), buf) for buf in (plus, minus)
              if (bad := buf < -NEG_CLAMP).any()]
    if faults:
        (i, n, t), buf = min(faults, key=lambda fault: fault[0][2])
        raise InfeasibleTargetError(
            f"squared amplitude {buf[i]:.3e} at (n={n}, t={t}); target is not "
            "realisable by a nearest-neighbor walk", n=n, t=t)
    for buf in (plus, minus):
        np.sqrt(np.clip(buf, 0.0, None, out=buf), out=buf)
    return WaveField(plus, minus)


def synthesize_coins(rho: ProbabilitySequence, w: WaveField) -> CoinSchedule:
    """Coin angles theta(n, t) that evolve w from slice t to t + 1.

    cos theta = [psi+(n,t) psi+(n+1,t+1) - psi-(n,t) psi-(n-1,t+1)] / rho,
    sin theta = [psi-(n,t) psi+(n+1,t+1) + psi+(n,t) psi-(n-1,t+1)] / rho,
    wherever rho(n, t) > 0; theta is recovered with the two-argument
    arctangent and clamped to [0, pi].  Sites with rho = 0 are undefined.
    """
    if w.horizon != rho.horizon:
        raise IntegrityError("wave field and target have different horizons")
    m = slice_offset(rho.horizon)
    wp, wm = w.plus_buf[:m], w.minus_buf[:m]
    wp_next, wm_next = neighbours(w.plus_buf, 1), neighbours(w.minus_buf, -1)
    c = wp * wp_next - wm * wm_next
    s = wm * wp_next + wp * wm_next
    del wp_next, wm_next  # free both buffers before the next temporaries
    defined = rho.buf[:m] > 0.0
    np.divide(c, rho.buf[:m], out=c, where=defined)
    np.divide(s, rho.buf[:m], out=s, where=defined)
    norm = c * c + s * s
    bad = defined & (np.abs(norm - 1.0) > COIN_NORM_TOL)
    if bad.any():
        i, n, t = _first_fault(bad)
        raise IntegrityError(
            f"coin at (n={n}, t={t}) has cos^2 + sin^2 = {norm[i]!r}; wave "
            "field inconsistent with target")
    s[(s >= -EDGE_CLAMP) & (s < 0.0)] = 0.0
    theta = np.clip(np.arctan2(s, c), 0.0, math.pi)
    theta[~defined] = math.nan
    return CoinSchedule(theta)


def _jump_schedule(num: np.ndarray, rho: np.ndarray) -> JumpSchedule:
    """p(n, t) = num / rho wherever rho > 0, undefined where rho = 0.

    Values within EDGE_CLAMP of [0, 1] are clamped onto it; anything further
    out raises :class:`InfeasibleTargetError` naming the first such site.
    """
    mask = rho > 0.0
    p = np.full(len(rho), math.nan)
    p[mask] = num[mask] / rho[mask]
    bad = (p < -EDGE_CLAMP) | (p > 1.0 + EDGE_CLAMP)
    if bad.any():
        i, n, t = _first_fault(bad)
        raise InfeasibleTargetError(
            f"jump probability {p[i]!r} at (n={n}, t={t}) outside [0, 1]",
            n=n, t=t)
    return JumpSchedule(np.clip(p, 0.0, 1.0))


def synthesize_jumps(rho: ProbabilitySequence,
                     flux: FluxField | None = None) -> JumpSchedule:
    """Jump probabilities p(n, t) = (rho + J) / (2 rho) wherever rho > 0."""
    if flux is None:
        flux = flux_from_rho(rho)
    if flux.steps != rho.horizon:
        raise IntegrityError("flux field and target have different horizons")
    rs = rho.buf[:len(flux.buf)]
    return _jump_schedule(0.5 * (rs + flux.buf), rs)


def mimic_quantum_walk(qw_field) -> JumpSchedule:
    """Jump schedule reproducing the position statistics of a quantum walk.

    p(n, t) = |psi+(n+1, t+1)|^2 / rho(n, t) wherever rho(n, t) > 0; for a
    real Hadamard field this reduces to [psi+ + psi-]^2 / (2 rho).  Works on
    both real and complex wave fields.
    """
    m = slice_offset(qw_field.horizon)
    plus, minus = qw_field.plus_buf, qw_field.minus_buf
    rho = np.abs(plus[:m]) ** 2 + np.abs(minus[:m]) ** 2
    return _jump_schedule(np.abs(neighbours(plus, 1)) ** 2, rho)


def realify_quantum_walk(qw_field) -> tuple[WaveField, CoinSchedule]:
    """Real inhomogeneous walk with the statistics of a complex homogeneous one.

    The real components are the moduli |psi+-(n, t)|; the coin angles follow
    from the general synthesis formulas applied to that field.  The
    Cauchy-Schwarz inequality keeps |cos theta| <= 1 and |sin theta| <= 1.
    """
    real_field = WaveField(np.abs(qw_field.plus_buf),
                           np.abs(qw_field.minus_buf))
    rho = probability_from_wavefield(real_field)
    coins = synthesize_coins(rho, real_field)
    return real_field, coins
