"""Parity-respecting lattice containers for walks on the integer line.

A walker launched from the origin can only occupy sites with ``|n| <= t`` and
``n + t`` even.  Every container in this module holds each component as
one slice-order buffer, slice t at offset t(t+1)/2 and indexed within by
``k = (n + t) / 2``, and exposes its slices as views of it, so off-support
values are never materialised and parity bugs cannot arise from indexing
arithmetic.  A container takes a 1-D slice-order array as its buffer
without copying it, or copies a list of slices into a new one; both go
through the same checks; a wave field's ``mass()`` forms |psi+|^2 +
|psi-|^2 in one new buffer.  Producers size a buffer with
:func:`slice_offset` and fill it through :func:`split_slices`,
:func:`neighbours` and :func:`flat_sites`, except that the CSV reader puts
(n, t) at ``slice_offset(t) + (n + t) / 2`` and ``reconstruct_wavefield``
inserts a zero into every slice of a buffer.

All containers are immutable after construction (the buffers and their
views are read-only) and therefore safe to share across threads.

Sums over time slices run batched: blocks of slices are copied into a
zero-padded 2-D array and summed by one ``cumsum`` along its rows, which still
adds each slice strictly left to right.  The split's partial sums come from
one compensated scan (cascaded TwoSum) of each block and its mirror, and the
flux gate runs on the same block, whose extra row holds slice t + 1; coin
synthesis steps the wave field in the same blocks.  Slice totals are exactly
rounded: the cascaded total, certified against its error bound, or
``math.fsum`` where that cannot decide.  Normalisation drift thus stays below
test tolerances for horizons up to 10^4.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np

# The noise floor: slice totals are held to 1 within it, so less mass is
# rounding, whether a negative entry (clamped to zero) or dead mass at an
# undefined schedule site (evolve._check_coverage).
NORM_TOL = 1e-12

# The accuracy ``roundtrip`` promises: the flux gate clips at most tol, the
# boundary rule (2 min(a, b) <= tol rho) and synthesis's edge windows judge
# "within tol of an edge, relative to rho"; a coin step moves <= tol sqrt rho.
ROUNDTRIP_TOL = 1e-10


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
    if t < 0:
        raise SupportError(f"negative time t={t}")
    return np.arange(-t, t + 1, 2)


def _check_horizon(horizon: int) -> int:
    """``horizon``, which must be >= 0 and small enough that a complex
    buffer of slices 0..horizon can be addressed."""
    if horizon < 0:
        raise WalkError(f"horizon must be >= 0, got {horizon}")
    if slice_offset(horizon + 1) > np.iinfo(np.intp).max // 16:
        raise WalkError(f"horizon {horizon} is too large to address")
    return horizon


def slice_offset(t):
    """Offset t(t+1)/2 of slice t in a slice-order buffer, elementwise on
    arrays; ``slice_offset(S)`` is the size of slices 0..S-1."""
    return t * (t + 1) // 2


def _slice_at(i):
    """The slice t holding flat index i, elementwise; at i = slice_offset(S),
    S.  The float square root is exact here while 8i + 1 < 2**51."""
    return ((np.sqrt(8 * np.asarray(i) + 1) - 1) // 2).astype(np.int64)


def flat_sites(i):
    """Sites (n, t) of flat indices i of a slice-order buffer, elementwise."""
    t = _slice_at(i)
    return 2 * (i - slice_offset(t)) - t, t


def split_slices(buf: np.ndarray) -> tuple[np.ndarray, ...]:
    """The slices of a slice-order buffer, as views of it."""
    off = slice_offset(np.arange(_slice_at(len(buf)) + 1)).tolist()
    return tuple(buf[a:b] for a, b in zip(off, off[1:]))


def neighbours(buf: np.ndarray, dn: int) -> np.ndarray:
    """Values of a slice-order buffer of S slices at (n + dn, t + 1),
    dn = +1 or -1, for every site (n, t) of slices 0..S-2, in slice order:
    all but the first (dn = +1) or the last (dn = -1) entry of each slice."""
    first = slice_offset(np.arange(_slice_at(len(buf))))
    return np.delete(buf, first if dn > 0 else first + np.arange(len(first)))


# A batched scan copies up to _BLOCK slices at a time, fewer where wide: a
# block holds about _BLOCK_SIZE entries at most.  At T = 10^4 whole 16-slice
# blocks made _totals take 0.71-1.16 s, 0.54-0.81 s with the budget (2-core
# VM); at T = 300 the budget alone made the split peak at 3.5 MB, not 1.1.
_BLOCK = 16
_BLOCK_SIZE = 1 << 15


def _blocks(slices, extra: int = 0):
    """``slices`` t = 0, 1, ..., of t + 1 entries each, copied a block at a
    time into a 2-D array, one per row, left-aligned and zero-padded: pairs
    (a, x), x holding slices a, a + 1, ... and after them ``extra`` more,
    where there are.  Adding zero is exact, so a ``cumsum`` along a row adds
    its slice left to right as a 1-D one would."""
    a = 0
    while a < len(slices) - extra:
        step = max(1, min(_BLOCK, _BLOCK_SIZE // (a + 1)))
        rows = min(step + extra, len(slices) - a)
        x = np.zeros((rows, a + rows))
        for t, row in enumerate(x, a):
            row[:t + 1] = slices[t]
        yield a, x
        a += step


def _cascade(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """s = cumsum(x) along the last axis, and the exact rounding error
    err[..., k] of each step s[..., k] = s[..., k - 1] + x[..., k] (TwoSum;
    err[..., 0] = 0), so that sum(x[..., :k + 1]) = s[..., k] +
    sum(err[..., :k + 1]) exactly: the cascaded summation of Ogita, Rump and
    Oishi, "Accurate Sum and Dot Product", SIAM J. Sci. Comput. 26(6), 2005.
    x, C-contiguous, is overwritten.
    """
    s = np.cumsum(x, axis=-1)
    err = np.empty_like(s)
    # On the flattened arrays, one step per entry: TwoSum of prev + x is
    # (prev - (s - b)) + (x - b), b = s - prev, in place.  Each row's first
    # entry pairs with the end of the row before, so it is reset after.
    s1, x1, e = s.reshape(-1), x.reshape(-1)[1:], err.reshape(-1)[1:]
    x1 -= np.subtract(s1[1:], s1[:-1], out=e)
    np.subtract(s1[:-1], np.subtract(s1[1:], e, out=e), out=e)
    e += x1
    err[..., :1] = 0.0
    return s, err


def _scan(x: np.ndarray) -> np.ndarray:
    """Compensated prefix sums along the last axis of x, C-contiguous, which
    is overwritten: out[..., k] = sum(x[..., :k + 1]).  The plain ``cumsum``
    is corrected by the running sum of the exact rounding error of each
    step (:func:`_cascade`); both accumulate strictly left to right, so each
    row equals a scalar Neumaier scan bit for bit."""
    s, err = _cascade(x)
    s += np.cumsum(err, axis=-1, out=err)
    return s


def _totals(buf: np.ndarray) -> np.ndarray:
    """``math.fsum`` of each slice of a slice-order buffer, inf where that
    overflows.

    The cascaded sum of a slice is hi + lo, with lo the sum of its step
    errors, off the exact total by at most ``bound``, the error of summing
    those.  The rounded hi + lo is then the exactly rounded total unless the
    exact total may lie beyond a rounding boundary: near a tie, or where
    hi + lo is not finite.  Only such slices are summed again by fsum.
    """
    slices = split_slices(buf)
    hi, lo, bound = np.empty((3, len(slices)))
    with np.errstate(over="ignore", invalid="ignore"):
        for a, x in _blocks(slices):
            s, err = _cascade(x)
            rows = slice(a, a + len(x))
            hi[rows], lo[rows] = s[:, -1], err.sum(axis=1)
            bound[rows] = np.abs(err, out=err).sum(axis=1)
            del x, s, err  # before _blocks builds the next block
        # Summing the t step errors of slice t errs by at most about
        # (t - 1) 2**-53 times their summed magnitude; (t + 1) 2**-52 also
        # covers the rounding of the bound itself.
        bound *= 2.0 ** -52 * np.arange(1, len(bound) + 1)
        s, err = _cascade(np.stack((hi, lo), axis=1))
        total, r = s[:, 1], err[:, 1]  # total + r = hi + lo exactly
        up = np.nextafter(total, math.inf) - total
        down = total - np.nextafter(total, -math.inf)
        certain = ((2.0 * (r + bound) < up) & (2.0 * (bound - r) < down)
                   & (up + down < math.inf))
    for t in np.flatnonzero(~certain):
        total[t] = _total(slices[t])
    return total


def _first_fault(mask: np.ndarray) -> tuple[int, int, int]:
    """Flat index and site (n, t) of the first True of a slice-order mask."""
    i = int(np.argmax(mask))
    n, t = flat_sites(i)
    return i, int(n), int(t)


def _pack(slices, what: str, dtype=float) -> np.ndarray:
    """Slices t = 0, 1, ... copied into one new slice-order buffer; slice t
    must hold t + 1 entries."""
    try:
        slices = [np.asarray(s, dtype) for s in slices]
    except OverflowError as exc:  # an integer too large for a float
        raise FormatError(f"{what}: {exc}") from None
    for t, s in enumerate(slices):
        if len(s) != t + 1:
            raise FormatError(
                f"{what}: slice t={t} has {len(s)} entries, expected {t + 1}")
    return np.concatenate([np.empty(0, dtype), *slices])


def _buffer(data, what: str, dtype=float, min_slices: int = 0) -> np.ndarray:
    """The slice-order buffer of ``data``: a 1-D array is taken over without
    a copy (unless its dtype differs), a list of slices is copied by
    :func:`_pack`.  It must hold whole slices 0..S-1, S >= ``min_slices``."""
    if isinstance(data, np.ndarray) and data.ndim == 1:
        buf = np.asarray(data, dtype)
    else:
        buf = _pack(data, what, dtype)
    slices = int(_slice_at(len(buf)))
    if len(buf) != slice_offset(slices):
        raise FormatError(f"{what}: {len(buf)} values do not fill whole slices")
    if slices < min_slices:
        raise FormatError(f"{what}: no slices")
    return buf


def _freeze(buf: np.ndarray) -> tuple[np.ndarray, ...]:
    """Mark a slice-order buffer read-only, then return its slices as views
    (taken after, so that they are read-only too)."""
    buf.setflags(write=False)
    return split_slices(buf)


def _check_finite(buf: np.ndarray, what: str) -> None:
    """NaN and infinity slip past every tolerance test downstream."""
    bad = ~np.isfinite(buf)
    if bad.any():
        i, n, t = _first_fault(bad)
        raise FormatError(
            f"{what}: non-finite value {buf[i]} at (n={n}, t={t})")


def _total(values) -> float:
    """Exactly rounded sum of ``values``; infinite if it overflows."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


class _SliceData:
    """Shared machinery for single-valued fields: one read-only slice-order
    buffer, exposed slice by slice."""

    def __init__(self, slices):
        self._buf = _buffer(slices, type(self).__name__)
        _check_finite(self._buf, type(self).__name__)
        self._slices = _freeze(self._buf)

    buf = property(lambda self: self._buf, doc="The slice-order buffer.")

    @property
    def slices(self):
        return self._slices

    def value(self, n: int, t: int):
        return self._slices[t][to_storage_index(n, t)]


class ProbabilitySequence(_SliceData):
    """The target and/or simulated position distribution rho(n, t), t = 0..T.

    Each slice is non-negative and sums to one (within NORM_TOL, or within
    1e-9 and then divided by its total with ``renormalize``); values at
    parity-violating or out-of-cone sites are implicitly zero, never stored.
    A writable 1-D float array is clamped and divided in place, not copied.
    """

    def __init__(self, slices, *, renormalize: bool = False, _norm=None):
        buf = _buffer(slices, "ProbabilitySequence", min_slices=1)
        if (negative := buf < -NORM_TOL).any():
            i, n, t = _first_fault(negative)
            raise InfeasibleTargetError(
                f"negative probability {buf[i]:.3e} at (n={n}, t={t})",
                n=n, t=t)
        buf = np.clip(buf, 0.0, None, out=buf if buf.flags.writeable else None)
        # Each slice's exactly rounded total, or a wave field's ``_norm``, is
        # its divisor too, fixing the result's bits; slices within 1e-15 stay.
        totals = _totals(buf) if _norm is None else _norm
        accept_tol = 1e-9 if renormalize else NORM_TOL
        drift = np.abs(totals - 1.0)  # NaN, from a NaN entry, passes here
        if (drift > accept_tol).any():
            t = int(np.argmax(drift > accept_tol))
            raise FormatError(
                f"slice t={t} sums to {float(totals[t])!r}, deviates from 1 "
                f"by more than {accept_tol:g}")
        if renormalize:
            for t in np.flatnonzero(drift > 1e-15):
                buf[slice_offset(t):slice_offset(t + 1)] /= totals[t]
        _check_finite(buf, "ProbabilitySequence")
        self._buf = buf
        self._slices = _freeze(buf)

    @property
    def horizon(self) -> int:
        return len(self._slices) - 1

    def mean_position(self, t: int) -> float:
        return math.fsum(site_positions(t) * self._slices[t])


class _WaveBase:
    """Wave fields: psi+ and psi- as read-only slice-order buffers whose
    :meth:`mass` sums to 1 within NORM_TOL in each slice (totals ``_norm``)."""

    _dtype: type

    def __init__(self, plus, minus):
        name = type(self).__name__
        self._plus_buf = _buffer(plus, name + ".plus", self._dtype, 1)
        _check_finite(self._plus_buf, name + ".plus")
        self._minus_buf = _buffer(minus, name + ".minus", self._dtype, 1)
        _check_finite(self._minus_buf, name + ".minus")
        if len(self._plus_buf) != len(self._minus_buf):
            raise FormatError("plus and minus components differ in horizon")
        norm = self._norm = _totals(self.mass())
        bad = np.abs(norm - 1.0) > NORM_TOL
        if bad.any():
            t = int(np.argmax(bad))
            raise IntegrityError(
                f"wave field norm at t={t} is {float(norm[t])!r}, deviates "
                f"from 1 beyond {NORM_TOL:g}")
        self._plus = _freeze(self._plus_buf)
        self._minus = _freeze(self._minus_buf)

    horizon = property(lambda self: len(self._plus) - 1, doc="The last t.")

    def mass(self) -> np.ndarray:
        """rho(n, t) = |psi+|^2 + |psi-|^2 at every site, in one new writable
        slice-order buffer (|psi-|^2 added in _BLOCK_SIZE chunks) to slice."""
        rho = np.abs(self._plus_buf)
        np.square(rho, out=rho)
        for i in range(0, len(rho), _BLOCK_SIZE):
            rho[i:i + _BLOCK_SIZE] += np.abs(
                self._minus_buf[i:i + _BLOCK_SIZE]) ** 2
        return rho

    plus_buf = property(lambda self: self._plus_buf, doc="psi+ buffer.")
    minus_buf = property(lambda self: self._minus_buf, doc="psi- buffer.")
    plus_slices = property(lambda self: self._plus, doc="psi+ slices.")
    minus_slices = property(lambda self: self._minus, doc="psi- slices.")

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
        t = np.arange(1, len(self._plus))
        right = np.abs(self._minus_buf[slice_offset(t + 1) - 1]) > NORM_TOL
        left = np.abs(self._plus_buf[slice_offset(t)]) > NORM_TOL
        if (right | left).any():
            t = int(np.argmax(right | left)) + 1
            if right[t - 1]:
                raise IntegrityError(
                    f"psi-({t},{t}) = {float(self._minus[t][t])!r}, must "
                    "vanish on the right cone edge")
            raise IntegrityError(
                f"psi+({-t},{t}) = {float(self._plus[t][0])!r}, must vanish "
                "on the left cone edge")


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


class _Schedule(_SliceData):
    """Per-step table of local walk parameters, NaN where undefined.

    Slice t (t = 0..steps-1) drives the transition from time t to t + 1.
    Undefined entries mark sites of zero measure; they are stored as NaN and
    serialized as explicit nulls, never as a silent default.
    """

    _upper: float
    _range_error: str

    def __init__(self, values):
        self._buf = _buffer(values, type(self).__name__)
        bad = (self._buf < 0.0) | (self._buf > self._upper)  # NaN is neither
        if bad.any():
            raise FormatError(
                f"{self._range_error} in slice t={_first_fault(bad)[2]}")
        self._slices = _freeze(self._buf)

    steps = FluxField.steps
    value_slices = _SliceData.slices

    @cached_property
    def defined_slices(self):
        return _freeze(~np.isnan(self._buf))

    def is_defined(self, n: int, t: int) -> bool:
        return not math.isnan(self.value(n, t))


class CoinSchedule(_Schedule):
    """Coin angles theta(n, t) in [0, pi]; cos/sin are derived, never stored."""

    _upper = math.pi
    _range_error = "coin angle outside [0, pi]"


class JumpSchedule(_Schedule):
    """Rightward-jump probabilities p(n, t) in [0, 1]."""

    _upper = 1.0
    _range_error = "jump probability outside [0, 1]"


def probability_from_wavefield(w) -> ProbabilitySequence:
    """rho(n, t) = ``w.mass()``, renormalised by the field's own slice totals.

    Accepts both real and complex wave fields.  Their constructors hold each
    slice's norm within NORM_TOL; the remaining drift is renormalised away so
    the result satisfies the ProbabilitySequence invariants.
    """
    return ProbabilitySequence(w.mass(), renormalize=True, _norm=w._norm)
