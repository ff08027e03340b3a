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
    _blocks,
    _first_fault,
    flat_sites,
    neighbours,
    prefix_sums,
    slice_offset,
    suffix_sums,
)

# Largest relative change of the local mass over one step of a wave field.
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
    plus = np.empty(slice_offset(rho.horizon + 1))  # squared until the end
    minus = np.empty_like(plus)
    plus[0], minus[0] = 1.0, 0.0
    for a, x in _blocks(rho.slices, extra=1):
        # Rows of x are slices a, a + 1, ..., zero-padded: row i + 1 is cur,
        # slice t = a + i + 1, and row i is prev, slice t - 1.
        pre = prefix_sums(x)            # pre[i, k] = sum_{j <= k} x[i, j]
        suf = suffix_sums(x)            # suf[i, k] = sum_{j >= k} x[i, j]
        left = np.zeros_like(pre)       # sum_{j < k}
        left[:, 1:] = pre[:, :-1]
        suf_p, suf_c = suf[:-1, :-1], suf[1:, :-1]
        # Each value comes from the partial sums anchored at the nearer cone
        # edge, which keeps low-probability tails relatively accurate.
        # psi+^2(n,t) = sum_{m>=n} rho(m,t) - sum_{m>=n+1} rho(m,t-1)
        wp2 = np.where(suf_c <= 0.5, suf_c - suf_p, left[:-1] - left[1:])
        # psi-^2(n,t) = sum_{m>=n+1} rho(m,t-1) - sum_{m>=n+2} rho(m,t)
        wm2 = np.where(pre[1:] <= 0.5, pre[1:] - left[:-1],
                       suf_p - suf[1:, 1:])
        sites = np.arange(x.shape[1]) <= np.arange(a + 1, a + len(x))[:, None]
        rows = slice(slice_offset(a + 1), slice_offset(a + len(x)))
        plus[rows], minus[rows] = wp2[sites], wm2[sites]
    # The earliest slice's fault, psi+ first: min keeps the first of ties.
    faults = [(_first_fault(bad), buf) for buf in (plus, minus)
              if (bad := buf < -NEG_CLAMP).any()]
    if faults:
        (i, n, t), buf = min(faults, key=lambda fault: fault[0][2])
        raise InfeasibleTargetError(
            f"squared amplitude {buf[i]:.3e} at (n={n}, t={t}); target is not "
            "realisable by a nearest-neighbor walk", n=n, t=t)
    # rho(n, t) = psi+^2 + psi-^2 = psi+^2(n+1, t+1) + psi-^2(n-1, t+1), all
    # terms >= 0: where rho vanishes so do they, not a partial-sum residue.
    # In slice order (n + 1, t + 1) and (n - 1, t + 1) come t + 2 and t + 1
    # entries after (n, t).
    empty = rho.buf == 0.0
    i = np.flatnonzero(empty[:slice_offset(rho.horizon)])
    t = flat_sites(i)[1]
    plus[i + t + 2] = minus[i + t + 1] = 0.0
    for buf in (plus, minus):
        np.sqrt(np.clip(buf, 0.0, None, out=buf), out=buf)[empty] = 0.0
    return WaveField(plus, minus)


def synthesize_coins(w: WaveField) -> CoinSchedule:
    """Coin angles theta(n, t) in [0, pi] that evolve w from slice t to t + 1:
    atan2 of the undivided products psi- psi+' + psi+ psi-' = rho sin theta
    and psi+ psi+' - psi- psi-' = rho cos theta, where psi+' = psi+(n+1, t+1)
    and psi-' = psi-(n-1, t+1); undefined where psi+ = psi- = 0.  A step must
    keep the local mass rho = psi+^2 + psi-^2 within COIN_NORM_TOL, relative
    (absolute below the smallest normal), or IntegrityError names the site.
    """
    wp_next, wm_next = neighbours(w.plus_buf, 1), neighbours(w.minus_buf, -1)
    wp, wm = w.plus_buf[:len(wp_next)], w.minus_buf[:len(wm_next)]
    c = wp * wp_next - wm * wm_next
    s = wm * wp_next + wp * wm_next
    drift = np.square(wp_next, out=wp_next)  # in place: at most five
    drift += np.square(wm_next, out=wm_next)  # buffers are alive at once
    del wm_next
    mass = wp * wp + wm * wm
    np.abs(np.subtract(drift, mass, out=drift), out=drift)
    scale = np.maximum(mass, np.finfo(float).tiny, out=mass)
    defined = (wp != 0.0) | (wm != 0.0)
    bad = defined & (drift > COIN_NORM_TOL * scale)
    if bad.any():
        i, n, t = _first_fault(bad)
        raise IntegrityError(
            f"coin at (n={n}, t={t}) changes the local mass by "
            f"{float(drift[i])!r}; wave field inconsistent")
    s[(s >= -EDGE_CLAMP * scale) & (s < 0.0)] = 0.0
    theta = np.clip(np.arctan2(s, c, out=c), 0.0, math.pi, out=c)
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
            f"jump probability {float(p[i])!r} at (n={n}, t={t}) outside "
            "[0, 1]", n=n, t=t)
    return JumpSchedule(np.clip(p, 0.0, 1.0))


def synthesize_jumps(rho: ProbabilitySequence, *,
                     _flux: FluxField | None = None) -> JumpSchedule:
    """Jump probabilities p(n, t) = (rho + J) / (2 rho) wherever rho > 0;
    ``_flux``, if given, is flux_from_rho(rho) computed before."""
    flux = flux_from_rho(rho) if _flux is None else _flux
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

    The real components are the moduli |psi+-(n, t)|, which keep the mass of
    every site and step; the coins are :func:`synthesize_coins` of them.
    """
    real_field = WaveField(np.abs(qw_field.plus_buf),
                           np.abs(qw_field.minus_buf))
    return real_field, synthesize_coins(real_field)
