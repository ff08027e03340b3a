"""Parity-respecting lattice containers for walks on the integer line.

A walker launched from the origin can only occupy sites with ``|n| <= t`` and
``n + t`` even.  Every container in this module stores one dense array per
time slice, indexed by ``k = (n + t) / 2`` with ``0 <= k <= t``, so
off-support values are never materialised and parity bugs cannot arise from
indexing arithmetic.

All containers are immutable after construction (the backing arrays are
marked read-only) and therefore safe to share across threads.

Accumulations over a time slice use compensated summation (``math.fsum`` for
one-shot totals, a vectorized cascaded TwoSum ``cumsum`` for prefix/suffix
tables) so that normalisation drift stays below test tolerances for horizons
up to 10^4.
"""

from __future__ import annotations

import math

import numpy as np

# Negative values in [-NEG_CLAMP, 0) are treated as floating-point
# cancellation noise and clamped to zero; anything below is an error.
NEG_CLAMP = 1e-12

# Default per-slice normalisation tolerance.
NORM_TOL = 1e-12


class WalkError(Exception):
    """Base class for all errors raised by walkforge."""


class SupportError(WalkError, ValueError):
    """A site (n, t) violates the light cone or the parity constraint."""


class IntegrityError(WalkError):
    """An internal consistency check failed (inconsistent inputs or a bug)."""


class InfeasibleTargetError(WalkError, ValueError):
    """A target sequence cannot be realised by a nearest-neighbor walk."""

    def __init__(self, message, n=None, t=None):
        super().__init__(message)
        self.n = n
        self.t = t


class CoverageError(WalkError):
    """Evolution reached a site where the schedule is undefined."""


class FormatError(WalkError, ValueError):
    """A serialized field or schedule could not be parsed or validated."""


def on_support(n: int, t: int) -> bool:
    """True when (n, t) lies inside the light cone on the correct sublattice."""
    return t >= 0 and abs(n) <= t and (n + t) % 2 == 0


def to_storage_index(n: int, t: int) -> int:
    """Map an on-support site (n, t) to its slice index k = (n + t) / 2.

    Raises
    ------
    SupportError
        If (n, t) is off-support, naming the violated invariant.
    """
    if t < 0:
        raise SupportError(f"negative time t={t}")
    if abs(n) > t:
        raise SupportError(f"site (n={n}, t={t}) outside the light cone |n| <= t")
    if (n + t) % 2 != 0:
        raise SupportError(f"site (n={n}, t={t}) violates parity: n + t must be even")
    return (n + t) // 2


def from_storage_index(k: int, t: int) -> int:
    """Inverse of :func:`to_storage_index`: n = 2k - t."""
    if not 0 <= k <= t:
        raise SupportError(f"storage index k={k} outside 0..t for t={t}")
    return 2 * k - t


def site_positions(t: int) -> np.ndarray:
    """The on-support positions at time t: -t, -t+2, ..., t."""
    return np.arange(-t, t + 1, 2)


def fsum_slice(values) -> float:
    """Exactly-rounded sum of one time slice."""
    return math.fsum(np.asarray(values, dtype=float))


def prefix_sums(values: np.ndarray) -> np.ndarray:
    """Compensated prefix sums; out[k] = sum(values[:k + 1]).

    The plain ``cumsum`` is corrected by the running sum of the exact
    rounding error of each step (TwoSum): the cascaded summation of Ogita,
    Rump and Oishi, "Accurate Sum and Dot Product", SIAM J. Sci. Comput.
    26(6), 2005.  Both ``cumsum`` calls accumulate strictly left to right,
    so the result equals a scalar Neumaier scan bit for bit.
    """
    x = np.asarray(values, dtype=float)
    s = np.cumsum(x)
    prev = np.empty_like(s)
    prev[:1] = 0.0
    prev[1:] = s[:-1]
    b = s - prev
    err = (prev - (s - b)) + (x - b)
    return s + np.cumsum(err)


def suffix_sums(values: np.ndarray) -> np.ndarray:
    """Compensated suffix sums with sentinel: out[k] = sum(values[k:]),
    out[len(values)] = 0."""
    rev = prefix_sums(np.asarray(values, dtype=float)[::-1])
    return np.concatenate((rev[::-1], [0.0]))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


def _check_slices(slices, what: str, finite: bool = True) -> None:
    """Slice t must hold t + 1 entries and, when ``finite``, no NaN or
    infinity: those slip past every tolerance test downstream."""
    for t, s in enumerate(slices):
        if len(s) != t + 1:
            raise FormatError(
                f"{what}: slice t={t} has {len(s)} entries, expected {t + 1}"
            )
    if finite and slices and not np.isfinite(np.concatenate(slices)).all():
        t = next(t for t, s in enumerate(slices) if not np.isfinite(s).all())
        k = int(np.argmin(np.isfinite(slices[t])))
        raise FormatError(f"{what}: non-finite value {slices[t][k]} at "
                          f"(n={2 * k - t}, t={t})")


class _SliceData:
    """Shared machinery for single-valued per-slice fields."""

    _dtype = float

    def __init__(self, slices):
        slices = [np.array(s, dtype=self._dtype) for s in slices]
        _check_slices(slices, type(self).__name__)
        self._slices = tuple(_freeze(s) for s in slices)

    @property
    def slices(self):
        return self._slices

    def slice(self, t: int) -> np.ndarray:
        return self._slices[t]

    def value(self, n: int, t: int):
        return self._slices[t][to_storage_index(n, t)]

    def __len__(self) -> int:
        return len(self._slices)


class ProbabilitySequence(_SliceData):
    """The target and/or simulated position distribution rho(n, t), t = 0..T.

    Each slice is non-negative and sums to one; values at parity-violating or
    out-of-cone sites are implicitly zero and never stored.
    """

    def __init__(self, slices, *, accept_tol: float = NORM_TOL,
                 renormalize: bool = False):
        cleaned = []
        for t, s in enumerate(slices):
            s = np.array(s, dtype=float)
            bad = s < -NEG_CLAMP
            if bad.any():
                k = int(np.argmax(bad))
                raise InfeasibleTargetError(
                    f"negative probability {s[k]:.3e} at "
                    f"(n={from_storage_index(k, t)}, t={t})",
                    n=from_storage_index(k, t), t=t)
            np.clip(s, 0.0, None, out=s)
            total = math.fsum(s)
            if abs(total - 1.0) > accept_tol:
                raise FormatError(
                    f"slice t={t} sums to {total!r}, deviates from 1 by more "
                    f"than {accept_tol:g}")
            if renormalize and abs(total - 1.0) > 1e-15:
                s /= total
            cleaned.append(s)
        super().__init__(cleaned)

    @property
    def horizon(self) -> int:
        return len(self._slices) - 1

    def mean_position(self, t: int) -> float:
        return math.fsum(site_positions(t) * self._slices[t])


class _WaveBase:
    _dtype: type

    def __init__(self, plus, minus):
        plus = [np.array(s, dtype=self._dtype) for s in plus]
        minus = [np.array(s, dtype=self._dtype) for s in minus]
        _check_slices(plus, type(self).__name__ + ".plus")
        _check_slices(minus, type(self).__name__ + ".minus")
        if len(plus) != len(minus):
            raise FormatError("plus and minus components differ in horizon")
        for t in range(len(plus)):
            norm = math.fsum(np.abs(plus[t]) ** 2) + math.fsum(np.abs(minus[t]) ** 2)
            if abs(norm - 1.0) > NORM_TOL:
                raise IntegrityError(
                    f"wave field norm at t={t} is {norm!r}, deviates from 1 "
                    f"beyond {NORM_TOL:g}")
        self._plus = tuple(_freeze(s) for s in plus)
        self._minus = tuple(_freeze(s) for s in minus)

    @property
    def horizon(self) -> int:
        return len(self._plus) - 1

    @property
    def plus_slices(self):
        return self._plus

    @property
    def minus_slices(self):
        return self._minus

    def plus(self, n: int, t: int):
        return self._plus[t][to_storage_index(n, t)]

    def minus(self, n: int, t: int):
        return self._minus[t][to_storage_index(n, t)]


class WaveField(_WaveBase):
    """Real chiral components psi+-(n, t) of the walker state.

    For t >= 1 the cone edges carry a single chirality: psi-(t, t) = 0 and
    psi+(-t, t) = 0.
    """

    _dtype = float

    def __init__(self, plus, minus):
        super().__init__(plus, minus)
        for t in range(1, len(self._plus)):
            if abs(self._minus[t][t]) > NORM_TOL:
                raise IntegrityError(
                    f"psi-({t},{t}) = {self._minus[t][t]!r}, must vanish on "
                    "the right cone edge")
            if abs(self._plus[t][0]) > NORM_TOL:
                raise IntegrityError(
                    f"psi+({-t},{t}) = {self._plus[t][0]!r}, must vanish on "
                    "the left cone edge")


class ComplexWaveField(_WaveBase):
    """Complex chiral components of a homogeneous walk (normalised per slice)."""

    _dtype = complex


class FluxField(_SliceData):
    """Net rightward probability flux J(n, t), one slice per step t = 0..T-1."""

    @property
    def steps(self) -> int:
        return len(self._slices)


class ScalarField(_SliceData):
    """Unconstrained per-slice real values (e.g. Monte Carlo standard errors)."""


class _Schedule:
    """Per-step table of local walk parameters with a defined/undefined mask.

    Slice t (t = 0..steps-1) drives the transition from time t to t + 1.
    Undefined entries mark sites of zero measure; they are stored as NaN and
    serialized as explicit nulls, never as a silent default.
    """

    def __init__(self, values, defined=None):
        values = [np.array(s, dtype=float) for s in values]
        _check_slices(values, type(self).__name__, finite=False)
        if defined is None:
            defined = [~np.isnan(s) for s in values]
        else:
            defined = [np.array(s, dtype=bool) for s in defined]
            _check_slices(defined, type(self).__name__ + ".defined")
        for t, (v, d) in enumerate(zip(values, defined)):
            v[~d] = np.nan
            self._check_range(v[d], t)
        self._values = tuple(_freeze(v) for v in values)
        self._defined = tuple(_freeze(d) for d in defined)

    def _check_range(self, vals, t):
        raise NotImplementedError

    @property
    def steps(self) -> int:
        return len(self._values)

    @property
    def value_slices(self):
        return self._values

    @property
    def defined_slices(self):
        return self._defined

    def value(self, n: int, t: int):
        return self._values[t][to_storage_index(n, t)]

    def is_defined(self, n: int, t: int) -> bool:
        return bool(self._defined[t][to_storage_index(n, t)])


class CoinSchedule(_Schedule):
    """Coin angles theta(n, t) in [0, pi]; cos/sin are derived, never stored."""

    def _check_range(self, vals, t):
        if not ((vals >= 0.0) & (vals <= math.pi)).all():  # NaN fails too
            raise FormatError(f"coin angle outside [0, pi] in slice t={t}")

    def cos_slice(self, t: int) -> np.ndarray:
        th = np.where(self._defined[t], self._values[t], 0.0)
        return np.cos(th)

    def sin_slice(self, t: int) -> np.ndarray:
        th = np.where(self._defined[t], self._values[t], 0.0)
        return np.sin(th)


class JumpSchedule(_Schedule):
    """Rightward-jump probabilities p(n, t) in [0, 1]."""

    def _check_range(self, vals, t):
        if not ((vals >= 0.0) & (vals <= 1.0)).all():  # NaN fails too
            raise FormatError(f"jump probability outside [0, 1] in slice t={t}")


def probability_from_wavefield(w) -> ProbabilitySequence:
    """rho(n, t) = |psi+|^2 + |psi-|^2, slice by slice.

    Accepts both real and complex wave fields.  Normalisation violations
    beyond 1e-9 raise :class:`IntegrityError`; smaller drift is renormalised
    away so the result satisfies the ProbabilitySequence invariants.
    """
    slices = []
    for t in range(w.horizon + 1):
        s = np.abs(w.plus_slices[t]) ** 2 + np.abs(w.minus_slices[t]) ** 2
        total = math.fsum(s)
        if abs(total - 1.0) > 1e-9:
            raise IntegrityError(
                f"wave field probability at t={t} sums to {total!r}")
        slices.append(s)
    return ProbabilitySequence(slices, accept_tol=1e-9, renormalize=True)
