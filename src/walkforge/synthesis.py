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
    WaveField,
    _first_fault,
    neighbours,
    slice_offset,
)

# Largest relative change of the local mass over one step of a wave field.
COIN_NORM_TOL = 1e-8

# Jump probabilities within this distance of [0, 1] are clamped onto it, and
# a coin's rho sin theta within this much of rho below 0 is rounded to 0.
EDGE_CLAMP = 1e-10


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
    zeros = (np.r_[0, first[:-1]], first)
    plus, minus = (np.insert(x, at, 0.0) for x, at in
                   zip(feasibility._feasible_split(rho), zeros))
    plus[0] = 1.0
    return WaveField(np.sqrt(plus, out=plus), np.sqrt(minus, out=minus))


def synthesize_coins(w: WaveField) -> CoinSchedule:
    """Coin angles theta(n, t) in [0, pi] that evolve w from slice t to t + 1:
    atan2 of the undivided products psi- psi+' + psi+ psi-' = rho sin theta
    and psi+ psi+' - psi- psi-' = rho cos theta, where psi+' = psi+(n+1, t+1)
    and psi-' = psi-(n-1, t+1); undefined where psi+ = psi- = 0.  A step must
    keep the local mass rho = psi+^2 + psi-^2 within COIN_NORM_TOL, relative
    (absolute below the smallest normal; an undefined site passes on none),
    and rho sin theta >= -EDGE_CLAMP rho, or IntegrityError names the site.
    """
    wp_next, wm_next = neighbours(w.plus_buf, 1), neighbours(w.minus_buf, -1)
    wp, wm = w.plus_buf[:len(wp_next)], w.minus_buf[:len(wm_next)]
    c = wp * wp_next - wm * wm_next
    s = wm * wp_next + wp * wm_next
    drift = np.square(wp_next, out=wp_next)  # in place: at most five
    drift += np.square(wm_next, out=wm_next)  # buffers are alive at once
    del wm_next
    mass = w.mass()[:len(wp)]
    np.abs(np.subtract(drift, mass, out=drift), out=drift)
    scale = np.maximum(mass, np.finfo(float).tiny, out=mass)
    defined = (wp != 0.0) | (wm != 0.0)
    bad = drift > COIN_NORM_TOL * scale
    if bad.any():
        i, n, t = _first_fault(bad)
        raise IntegrityError(
            f"coin at (n={n}, t={t}) changes the local mass by "
            f"{float(drift[i])!r}; wave field inconsistent")
    bad = defined & (s < -EDGE_CLAMP * scale)
    if bad.any():
        i, n, t = _first_fault(bad)
        raise IntegrityError(f"coin at (n={n}, t={t}) has rho sin theta = "
                             f"{float(s[i])!r} < 0; wave field inconsistent")
    s[s < 0.0] = 0.0
    theta = np.clip(np.arctan2(s, c, out=c), 0.0, math.pi, out=c)
    theta[~defined] = math.nan
    return CoinSchedule(theta)


def _jump_schedule(num: np.ndarray, rho: np.ndarray) -> JumpSchedule:
    """p(n, t) = num / rho wherever rho > 0, undefined where rho = 0.

    Values within EDGE_CLAMP of [0, 1] are clamped onto it; anything further
    out, which only mimicry can produce, raises :class:`InfeasibleTargetError`
    naming the first such site.
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
