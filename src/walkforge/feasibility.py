"""Feasibility of a target distribution under nearest-neighbor dynamics.

Conservation splits the mass of each site in two: a(n, t) = (rho + J) / 2
passes right and b(n, t) = (rho - J) / 2 left, J = a - b the flux.  Partial
sums of two consecutive slices fix both, so a sequence is realisable by
some walk (quantum or classical) exactly when a, b >= 0, i.e. |J| <= rho.
One gate, :func:`_flux_bound`, judges the split at DEFAULT_TOL for the
feasibility report, the wave field and the jump probabilities alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import (FluxField, InfeasibleTargetError, ProbabilitySequence,
                      _blocks, flat_sites, neighbours, prefix_sums,
                      slice_offset, suffix_sums)

DEFAULT_TOL = 1e-10


def _split(rho: ProbabilitySequence) -> tuple[np.ndarray, np.ndarray]:
    """a(n, t) = psi+^2(n+1, t+1), the mass right of n at t + 1 less that
    right of n at t, and b(n, t) = psi-^2(n-1, t+1), likewise on the left,
    for t = 0..T-1 in slice order, unclamped.  Each value comes from the
    compensated partial sums anchored at the nearer cone edge, which keeps
    low-probability tails relatively accurate."""
    right = np.empty(slice_offset(rho.horizon))
    left = np.empty_like(right)
    for a, x in _blocks(rho.slices, extra=1):
        # Rows of x are slices a, a + 1, ..., zero-padded: row i is slice
        # t = a + i and row i + 1 slice t + 1; column k is site k of t.
        pre = prefix_sums(x)            # pre[i, k] = sum_{j <= k} x[i, j]
        suf = suffix_sums(x)            # suf[i, k] = sum_{j >= k} x[i, j]
        pre_p, pre_c = pre[:-1, :-1], pre[1:, :-1]
        below = np.zeros_like(pre_p)    # sum_{j < k} of slice t
        below[:, 1:] = pre_p[:, :-1]
        above = suf[1:, 1:-1]           # sum_{j > k} of slice t + 1
        ab = np.where(above <= 0.5, above - suf[:-1, 1:-1], pre_p - pre_c)
        bb = np.where(pre_c <= 0.5, pre_c - below, suf[:-1, :-2] - above)
        end = a + len(x) - 1
        sites = np.arange(x.shape[1] - 1) <= np.arange(a, end)[:, None]
        rows = slice(slice_offset(a), slice_offset(end))
        right[rows], left[rows] = ab[sites], bb[sites]
    return right, left


def flux_from_rho(rho: ProbabilitySequence) -> FluxField:
    """The flux J(n, t) = a - b for t = 0..T-1 (see :func:`_split`)."""
    return FluxField(np.subtract(*_split(rho)))


@dataclass(frozen=True)
class Violation:
    n: int
    t: int
    flux: float
    rho: float

    def to_dict(self) -> dict:
        return {"n": self.n, "t": self.t, "J": self.flux, "rho": self.rho}


@dataclass(frozen=True)
class FeasibilityReport:
    feasible: bool
    # The sites that fail :func:`_flux_bound`, with their unclamped J and rho.
    violations: tuple[Violation, ...]
    # Feasible sites with rho > 0 and 2 min(a, b) <= tol rho on the clipped
    # split (||J| - rho| <= tol, made relative): the walker moves one way.
    boundary_sites: tuple[tuple[int, int], ...] = ()
    # Sites with rho = 0 and |J| <= tol: feasible, local dynamics undefined.
    undefined_sites: tuple[tuple[int, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [v.to_dict() for v in self.violations],
            "boundary_sites": [{"n": n, "t": t} for n, t in self.boundary_sites],
            "undefined_sites": [{"n": n, "t": t} for n, t in self.undefined_sites],
        }


def _sites(mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    """(n, t) of each site where ``mask`` is set, in slice order."""
    ns, ts = flat_sites(np.flatnonzero(mask))
    return tuple(zip(ns.tolist(), ts.tolist()))


def _flux_bound(rho: ProbabilitySequence):
    """The one test of the flux bound |J| <= rho + DEFAULT_TOL, additive
    because rho can be exactly zero inside the cone: the split (a, b) and
    the mask of the sites that fail it.  Where the bound holds, in place, a
    split outside its interval gets a clipped into it and b = rho - a.  The
    interval [0, rho] narrows to {0} where (n + 1, t + 1) is empty and to
    {rho} where (n - 1, t + 1) is; a site with mass and both empty fails."""
    right, left = split = _split(rho)
    rs = rho.buf[:len(right)]
    aj = abs(right - left)  # numpy takes |.| in the temporary's buffer
    # Where rho = 0, rho + tol is exactly tol.
    violated = aj > rs + DEFAULT_TOL
    to_right, to_left = (neighbours(rho.buf != 0.0, dn) for dn in (1, -1))
    narrowed = (rs != 0.0) & ~(to_right & to_left)
    violated |= narrowed & ~(to_right | to_left)
    at = np.flatnonzero(~violated & (
        narrowed | (np.minimum(right, left, out=aj) < 0.0)
        | (np.maximum(right, left, out=aj) > rs)))
    r = rs[at]
    right[at] = a = np.clip(right[at], r * ~to_left[at], r * to_right[at])
    left[at] = r - a
    return split, violated


def _feasible_split(rho: ProbabilitySequence):
    """The clipped split of a target within the flux bound, for synthesis;
    otherwise InfeasibleTargetError names the first five violated sites."""
    split, violated = _flux_bound(rho)
    if violated.any():
        ns, ts = (x.tolist() for x in flat_sites(np.flatnonzero(violated)[:5]))
        raise InfeasibleTargetError(
            "target is infeasible; flux bound violated at "
            + ", ".join(map("(n={}, t={})".format, ns, ts)), n=ns[0], t=ts[0])
    return split


def validate_sequence(rho: ProbabilitySequence) -> FeasibilityReport:
    """Check the bound of :func:`_flux_bound` at every on-support site and
    list the boundary and undefined sites of the split that synthesis reads;
    infeasibility is a report outcome, not an error."""
    (right, left), violated = _flux_bound(rho)
    rs = rho.buf[:len(right)]
    zero = rs == 0.0
    undefined = zero & ~violated
    js = right[violated] - left[violated]
    twice_min = 2.0 * np.minimum(right, left, out=right)
    boundary = ~zero & ~violated & (twice_min <= DEFAULT_TOL * rs)
    violations = tuple(
        Violation(n, t, j, r) for (n, t), j, r in
        zip(_sites(violated), js.tolist(), rs[violated].tolist()))
    return FeasibilityReport(
        feasible=not violations,
        violations=violations,
        boundary_sites=_sites(boundary),
        undefined_sites=_sites(undefined),
    )


def flux_from_wavefield(w) -> FluxField:
    """J(n, t) = |psi+(n+1, t+1)|^2 - |psi-(n-1, t+1)|^2 for any wave field."""
    return FluxField(np.abs(neighbours(w.plus_buf, 1)) ** 2
                     - np.abs(neighbours(w.minus_buf, -1)) ** 2)
