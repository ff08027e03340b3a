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
    from_storage_index,
    prefix_sums,
    probability_from_wavefield,
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
    plus = [np.array([1.0])]
    minus = [np.array([0.0])]
    for t in range(1, rho.horizon + 1):
        cur = rho.slices[t]
        prev = rho.slices[t - 1]
        suf_c = suffix_sums(cur)       # suf_c[k] = sum_{j >= k} cur[j]
        suf_p = suffix_sums(prev)
        pre_c = prefix_sums(cur)       # pre_c[k] = sum_{j <= k} cur[j]
        left_p = np.concatenate(([0.0], prefix_sums(prev)))  # sum_{j < k}
        left_c = np.concatenate(([0.0], pre_c[:-1]))
        # Each value comes from the partial sums anchored at the nearer cone
        # edge, which keeps low-probability tails relatively accurate.
        # psi+^2(n,t) = sum_{m>=n} rho(m,t) - sum_{m>=n+1} rho(m,t-1)
        wp2 = np.where(suf_c[:-1] <= 0.5, suf_c[:-1] - suf_p, left_p - left_c)
        # psi-^2(n,t) = sum_{m>=n+1} rho(m,t-1) - sum_{m>=n+2} rho(m,t)
        wm2 = np.where(pre_c <= 0.5, pre_c - left_p, suf_p - suf_c[1:])
        for arr in (wp2, wm2):
            bad = arr < -NEG_CLAMP
            if bad.any():
                k = int(np.argmax(bad))
                raise InfeasibleTargetError(
                    f"squared amplitude {arr[k]:.3e} at "
                    f"(n={from_storage_index(k, t)}, t={t}); target is not "
                    "realisable by a nearest-neighbor walk",
                    n=from_storage_index(k, t), t=t)
            np.clip(arr, 0.0, None, out=arr)
        plus.append(np.sqrt(wp2))
        minus.append(np.sqrt(wm2))
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
    angles = []
    defined = []
    for t in range(rho.horizon):
        mask = rho.slices[t] > 0.0
        r = rho.slices[t][mask]
        wp = w.plus_slices[t][mask]
        wm = w.minus_slices[t][mask]
        wp_next = w.plus_slices[t + 1][1:][mask]
        wm_next = w.minus_slices[t + 1][:-1][mask]
        c = (wp * wp_next - wm * wm_next) / r
        s = (wm * wp_next + wp * wm_next) / r
        norm = c * c + s * s
        bad = np.abs(norm - 1.0) > COIN_NORM_TOL
        if bad.any():
            i = int(np.argmax(bad))
            k = int(np.flatnonzero(mask)[i])
            raise IntegrityError(
                f"coin at (n={from_storage_index(k, t)}, t={t}) has "
                f"cos^2 + sin^2 = {norm[i]!r}; wave field inconsistent with "
                "target")
        s[(s >= -EDGE_CLAMP) & (s < 0.0)] = 0.0
        theta = np.full(t + 1, math.nan)
        theta[mask] = np.clip(np.arctan2(s, c), 0.0, math.pi)
        angles.append(theta)
        defined.append(mask)
    return CoinSchedule(angles, defined)


def _jump_schedule(nums, rhos) -> JumpSchedule:
    """p(n, t) = num / rho wherever rho > 0, undefined where rho = 0.

    Values within EDGE_CLAMP of [0, 1] are clamped onto it; anything further
    out raises :class:`InfeasibleTargetError` naming the first such site.
    """
    probs = []
    defined = []
    for t, (num, rs) in enumerate(zip(nums, rhos)):
        mask = rs > 0.0
        p = np.full(t + 1, math.nan)
        p[mask] = num[mask] / rs[mask]
        bad = (p < -EDGE_CLAMP) | (p > 1.0 + EDGE_CLAMP)
        if bad.any():
            k = int(np.argmax(bad))
            n = from_storage_index(k, t)
            raise InfeasibleTargetError(
                f"jump probability {p[k]!r} at (n={n}, t={t}) outside [0, 1]",
                n=n, t=t)
        probs.append(np.clip(p, 0.0, 1.0))
        defined.append(mask)
    return JumpSchedule(probs, defined)


def synthesize_jumps(rho: ProbabilitySequence,
                     flux: FluxField | None = None) -> JumpSchedule:
    """Jump probabilities p(n, t) = (rho + J) / (2 rho) wherever rho > 0."""
    if flux is None:
        flux = flux_from_rho(rho)
    if flux.steps != rho.horizon:
        raise IntegrityError("flux field and target have different horizons")
    return _jump_schedule(
        (0.5 * (rs + js) for rs, js in zip(rho.slices, flux.slices)),
        rho.slices)


def mimic_quantum_walk(qw_field) -> JumpSchedule:
    """Jump schedule reproducing the position statistics of a quantum walk.

    p(n, t) = |psi+(n+1, t+1)|^2 / rho(n, t) wherever rho(n, t) > 0; for a
    real Hadamard field this reduces to [psi+ + psi-]^2 / (2 rho).  Works on
    both real and complex wave fields.
    """
    plus = qw_field.plus_slices
    minus = qw_field.minus_slices
    rhos = (np.abs(wp) ** 2 + np.abs(wm) ** 2
            for wp, wm in zip(plus[:-1], minus[:-1]))
    return _jump_schedule((np.abs(wp[1:]) ** 2 for wp in plus[1:]), rhos)


def realify_quantum_walk(qw_field) -> tuple[WaveField, CoinSchedule]:
    """Real inhomogeneous walk with the statistics of a complex homogeneous one.

    The real components are the moduli |psi+-(n, t)|; the coin angles follow
    from the general synthesis formulas applied to that field.  The
    Cauchy-Schwarz inequality keeps |cos theta| <= 1 and |sin theta| <= 1.
    """
    plus = [np.abs(s).astype(float) for s in qw_field.plus_slices]
    minus = [np.abs(s).astype(float) for s in qw_field.minus_slices]
    real_field = WaveField(plus, minus)
    rho = probability_from_wavefield(real_field)
    coins = synthesize_coins(rho, real_field)
    return real_field, coins
