"""Feasibility of a target distribution under nearest-neighbor dynamics.

The probability-conservation recursion determines the flux field J(n, t)
uniquely from rho; a sequence is realisable by some walk (quantum or
classical) exactly when |J(n, t)| <= rho(n, t) everywhere.  The flux is
reconstructed in real space by a left-to-right recursion anchored at the
left cone edge; a redundant right-to-left pass anchored at the right edge
must agree with it, which catches non-conserving (malformed) inputs before
any synthesis is attempted.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .lattice import (FluxField, IntegrityError, ProbabilitySequence,
                      WalkError, _blocks, flat_sites, neighbours,
                      slice_offset)

DEFAULT_TOL = 1e-10

# Maximum allowed disagreement between the two recursion directions.
PASS_AGREEMENT = 1e-10


def flux_from_rho(rho: ProbabilitySequence) -> FluxField:
    """Reconstruct J(n, t) for t = 0..T-1 from the conservation recursion.

    Left-to-right: J(-t, t) = rho(-t, t) - 2 rho(-t-1, t+1), then
    J(n+2, t) = J(n, t) + rho(n, t) + rho(n+2, t) - 2 rho(n+1, t+1).

    Raises
    ------
    IntegrityError
        If the redundant right-to-left pass disagrees beyond 1e-10, which
        signals a non-conserving input.
    """
    flux = np.empty(slice_offset(rho.horizon))
    for a, x in _blocks(rho.slices, extra=1):
        # Row i: cur = slice t = a + i, nxt = slice t + 1, zero-padded to m.
        # Triple k of a row of ltr holds the terms the recursion adds, in
        # order, from site k to k + 1; a cumsum along the row read at every
        # third entry repeats the scalar recursion's roundings exactly.  The
        # right-to-left pass adds the triples negated in reverse order; the
        # first padding triple, (cur[t], 0, -2 nxt[t + 1]), negated after
        # the zeros before it, starts it with 2 nxt[t + 1] - cur[t].  rtl
        # keeps its own fills: a negated, reversed view of ltr gives the
        # same bits but made this function 15 % slower at T = 2000 (2-core VM).
        cur, nxt = x[:-1], x[1:]
        steps, m = cur.shape
        ltr, rtl = np.empty((2, steps, 3 * m - 2))
        ltr[:, 0], rtl[:, 0] = cur[:, 0] - 2.0 * nxt[:, 0], 0.0
        terms = ltr[:, 1:].reshape(steps, m - 1, 3)
        terms[..., 0], terms[..., 1] = cur[:, :-1], cur[:, 1:]
        np.multiply(nxt[:, 1:], -2.0, out=terms[..., 2])
        terms = rtl[:, 1:].reshape(steps, m - 1, 3)
        np.negative(cur[:, -2::-1], out=terms[..., 0])
        np.negative(cur[:, :0:-1], out=terms[..., 1])
        np.multiply(nxt[:, :0:-1], 2.0, out=terms[..., 2])
        ltr = np.cumsum(ltr, axis=1, out=ltr)[:, ::3]
        rtl = np.cumsum(rtl, axis=1, out=rtl)[:, ::-3]
        sites = np.arange(m) <= np.arange(a, a + steps)[:, None]
        gap = np.max(np.abs(ltr - rtl), axis=1, where=sites, initial=0.0)
        if (gap > PASS_AGREEMENT).any():
            i = int(np.argmax(gap > PASS_AGREEMENT))
            raise IntegrityError(
                f"flux recursions disagree by {gap[i]:.3e} at t={a + i}; "
                "input sequence does not conserve probability")
        # Each pass accumulates rounding noise proportional to the mass it
        # has swept over, so take every value from the pass anchored at the
        # nearer cone edge; this preserves the relative accuracy of fluxes
        # through low-probability tails.
        flux[slice_offset(a):slice_offset(a + steps)] = np.where(
            np.cumsum(cur, axis=1) <= 0.5, ltr, rtl)[sites]
    return FluxField(flux)


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
    violations: tuple[Violation, ...]
    # Sites where |J| equals rho up to the tolerance: the walker is pushed
    # deterministically.  Feasible, but flagged.
    boundary_sites: tuple[tuple[int, int], ...] = field(default=())
    # Sites with rho = 0 (and |J| <= tol): feasible with undefined local
    # dynamics.
    undefined_sites: tuple[tuple[int, int], ...] = field(default=())
    # The flux the check was made on, for jump synthesis to reuse.
    _flux: FluxField | None = field(default=None, repr=False, compare=False)

    def to_dict(self) -> dict:
        return {
            "feasible": self.feasible,
            "violations": [v.to_dict() for v in self.violations],
            "boundary_sites": [{"n": n, "t": t} for n, t in self.boundary_sites],
            "undefined_sites": [{"n": n, "t": t} for n, t in self.undefined_sites],
        }


def validate_sequence(rho: ProbabilitySequence,
                      tol: float = DEFAULT_TOL) -> FeasibilityReport:
    """Check the flux bound |J| <= rho + tol at every on-support site.

    Infeasibility is a report outcome, not an error.  The tolerance is
    additive because rho can be exactly zero at interior sites.
    """
    if not tol >= 0:  # NaN fails every comparison
        raise WalkError(f"tol must be >= 0, got {tol!r}")
    flux = flux_from_rho(rho)
    js = flux.buf
    rs = rho.buf[:len(js)]
    aj = np.abs(js)
    zero = rs == 0.0
    violated = aj > rs + tol  # where rho = 0, rs + tol is exactly tol
    undefined = zero & ~violated
    boundary = ~zero & ~violated & (np.abs(aj - rs) <= tol)

    def sites(mask):
        ns, ts = flat_sites(np.flatnonzero(mask))
        return tuple(zip(ns.tolist(), ts.tolist()))

    violations = tuple(
        Violation(n, t, j, r) for (n, t), j, r in
        zip(sites(violated), js[violated].tolist(), rs[violated].tolist()))
    return FeasibilityReport(
        feasible=not violations,
        violations=violations,
        boundary_sites=sites(boundary),
        undefined_sites=sites(undefined),
        _flux=flux,
    )


def flux_from_wavefield(w) -> FluxField:
    """J(n, t) = |psi+(n+1, t+1)|^2 - |psi-(n-1, t+1)|^2 for any wave field."""
    return FluxField(np.abs(neighbours(w.plus_buf, 1)) ** 2
                     - np.abs(neighbours(w.minus_buf, -1)) ** 2)
