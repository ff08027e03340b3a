"""Inverse construction of walk schedules from a target distribution.

Given a feasible sequence rho(n, t), the split of :mod:`feasibility` gives
the mass a(n, t) that each site passes right and b(n, t) that it passes
left.  They are the squared wave-function components of the realising real
quantum walk one step later, whose coin angles then follow from one
evolution step; the classical jump probabilities are a / rho.  Both
constructions are verified end to end by forward evolution in the test
suite; only rho is claimed to be reproduced, not uniqueness of the
schedules.
"""

from __future__ import annotations

import math

import numpy as np

from . import feasibility
from .lattice import (
    CoinSchedule,
    InfeasibleTargetError,
    IntegrityError,
    JumpSchedule,
    ProbabilitySequence,
    ROUNDTRIP_TOL,
    WaveField,
    _blocks,
    _first_fault,
    neighbours,
    slice_offset,
)


def reconstruct_wavefield(rho: ProbabilitySequence) -> WaveField:
    """Recover the non-negative real components psi+-(n, t) realising rho.

    At t = 0 the components are fixed to psi+(0,0) = 1, psi-(0,0) = 0; the
    coin angle theta(0,0) produced by :func:`synthesize_coins` absorbs this
    convention.  Slice t + 1 of psi+^2 is [0, a(., t)] and of psi-^2
    [b(., t), 0], a and b clipped by the flux-bound gate
    (:func:`feasibility._feasible_split`), which feeds no empty site.
    """
    # Squared until the end.  Each slice of a gains a zero in front and each
    # of b one behind; they start at ``first``, which ends with their length.
    first = slice_offset(np.arange(rho.horizon + 1))
    a, b = feasibility._feasible_split(rho)
    plus = np.insert(a, np.r_[0, first[:-1]], 0.0)
    del a  # each half goes as soon as its copy exists
    minus = np.insert(b, first, 0.0)
    del b
    plus[0] = 1.0
    return WaveField(np.sqrt(plus, out=plus), np.sqrt(minus, out=minus))


def synthesize_coins(w: WaveField) -> CoinSchedule:
    """Coin angles theta(n, t) in [0, pi] that evolve w from slice t to t + 1:
    atan2 of the undivided products psi- psi+' + psi+ psi-' = rho sin theta,
    as +0.0 where not positive (-0.0 too: a zero's sign never moves a coin),
    and psi+ psi+' - psi- psi-' = rho cos theta, where psi+' = psi+(n+1, t+1)
    and psi-' = psi-(n-1, t+1); undefined where psi+ = psi- = 0.  A step may
    move at most tol sqrt(max(rho, tiny)) of the local mass rho = psi+^2 +
    psi-^2 (an undefined site none; tol = ROUNDTRIP_TOL, tiny the smallest
    normal) and needs rho sin theta >= -tol rho; IntegrityError names the
    first step that moves mass, else the first to fail the sine test.  It
    steps w, forming rho, in the split's blocks (:func:`lattice._blocks`)."""
    theta, fault = np.empty(slice_offset(w.horizon)), None
    for (a, p), (_, m) in zip(_blocks(w.plus_slices, extra=1),
                              _blocks(w.minus_slices, extra=1)):
        # Row i is slice t = a + i, zero-padded; psi+-' are in row i + 1.
        wp, wm = p[:-1, :-1], m[:-1, :-1]
        wp_next, wm_next = p[1:, 1:], m[1:, :-1]
        rho = np.square(wp) + np.square(wm)
        c = wp * wp_next - wm * wm_next
        s = wm * wp_next + wp * wm_next
        drift = np.abs(np.square(wp_next) + np.square(wm_next) - rho)
        scale = np.maximum(rho, np.finfo(float).tiny)
        defined = (wp != 0.0) | (wm != 0.0)
        end = a + len(p) - 1
        sites = np.arange(p.shape[1] - 1) <= np.arange(a, end)[:, None]
        # A mass defect delta is an amplitude error of about delta / (2 sqrt
        # rho), which interference (amplitudes <= 1) makes <= delta / sqrt rho.
        bad = sites & (drift > ROUNDTRIP_TOL * np.sqrt(scale))
        if bad.any():
            i, k = np.unravel_index(np.argmax(bad), bad.shape)
            raise IntegrityError(
                f"coin at (n={2 * k - a - i}, t={a + i}) changes the local "
                f"mass by {float(drift[i, k])!r}; wave field inconsistent")
        bad = defined & (s < -ROUNDTRIP_TOL * scale)
        if fault is None and bad.any():
            i, k = np.unravel_index(np.argmax(bad), bad.shape)
            fault = IntegrityError(
                f"coin at (n={2 * k - a - i}, t={a + i}) has rho sin theta = "
                f"{float(s[i, k])!r} < 0; wave field inconsistent")
        s[s <= 0.0] = 0.0  # -0.0 too: atan2 then lies in [0, pi]
        th = np.arctan2(s, c, out=c)
        th[~defined] = math.nan
        theta[slice_offset(a):slice_offset(end)] = th[sites]
    if fault is not None:
        raise fault
    return CoinSchedule(theta)


def _jump_schedule(num: np.ndarray, rho: np.ndarray) -> JumpSchedule:
    """p(n, t) = num / rho wherever rho > 0, undefined where rho = 0.

    Values within ROUNDTRIP_TOL of [0, 1] are clamped onto it; anything further
    out, which only mimicry can produce, raises :class:`InfeasibleTargetError`
    naming the first such site.
    """
    p = np.full(len(rho), math.nan)
    np.divide(num, rho, out=p, where=rho > 0.0)
    bad = (p < -ROUNDTRIP_TOL) | (p > 1.0 + ROUNDTRIP_TOL)
    if bad.any():
        i, n, t = _first_fault(bad)
        raise InfeasibleTargetError(
            f"jump probability {float(p[i])!r} at (n={n}, t={t}) outside "
            "[0, 1]", n=n, t=t)
    return JumpSchedule(np.clip(p, 0.0, 1.0, out=p))


def synthesize_jumps(rho: ProbabilitySequence) -> JumpSchedule:
    """Jump probabilities p(n, t) = (rho + J) / (2 rho) = a / rho wherever
    rho > 0, a clipped by :func:`feasibility._feasible_split`."""
    right = feasibility._feasible_split(rho)[0]
    return _jump_schedule(right, rho.buf[:len(right)])


def mimic_quantum_walk(qw_field) -> JumpSchedule:
    """Jump schedule reproducing the position statistics of a quantum walk.

    p(n, t) = |psi+(n+1, t+1)|^2 / rho(n, t) wherever rho(n, t) > 0; for a
    real Hadamard field this reduces to [psi+ + psi-]^2 / (2 rho).  Works on
    both real and complex wave fields.
    """
    right = np.abs(neighbours(qw_field.plus_buf, 1)) ** 2
    return _jump_schedule(right, qw_field.mass()[:len(right)])


def realify_quantum_walk(qw_field) -> tuple[WaveField, CoinSchedule]:
    """Real inhomogeneous walk with the statistics of a complex homogeneous one.

    The real components are the moduli |psi+-(n, t)|, which keep the mass of
    every site and step; the coins are :func:`synthesize_coins` of them.
    """
    real_field = WaveField(np.abs(qw_field.plus_buf),
                           np.abs(qw_field.minus_buf))
    return real_field, synthesize_coins(real_field)
