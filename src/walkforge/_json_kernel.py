"""float.__repr__'s digits for a block of float64 at once, in the rows that
walkforge.io writes as JSON; a process that writes none does not compile it.

Giulietti's Schubfach ("The Schubfach way to render doubles", 2020) finds
the same shortest, nearest round-trip decimal f 10^k with integer arithmetic
alone, here in wrapping uint64 arrays (numpy scalars warn on overflow) by
arithmetic, shifts, min, np.where and gathers only: numpy's integer
comparisons, bitwise operators and sorts would fault in 0.6 MB of its code
that stays resident.  So x > y is _gt(x, y), a mod 2^32 is a << 32 >> 32,
and np.where reads a nonzero uint64 as true."""

import functools

import numpy as np


@functools.cache
def _pow10_table():
    """Column k + 324 holds g = floor(10^-k 2^r) + 1, 2^125 <= g < 2^126,
    k = -324..292, as the 32-bit limbs of its 63-bit halves g0 and g1, then
    g1 whole; the second array holds floor(log2 10^-k) = 125 - r."""
    table, log2 = np.empty((5, 617), np.uint64), np.empty(617, np.int64)
    limbs = (0, 32), (32, 31), (63, 32), (95, 31), (63, 63)  # (shift, bits)
    for j, k in enumerate(range(-324, 293)):
        p = 10 ** abs(k)
        e = p.bit_length() - 1 if k <= 0 else -p.bit_length()
        g = (p << 125 >> e if k <= 0 else (1 << 125 - e) // p) + 1
        table[:, j] = [g >> a & (1 << b) - 1 for a, b in limbs]
        log2[j] = e
    return table, log2


def _gt(x, y):  # 1 where x > y, else 0, for uint64 x and y below 2^63
    return y - x >> 63


def _mulhi(a, b):
    """High 64 bits of a b, for 64-bit a and b as (low, high) 32-bit limbs."""
    m, n = a[0] * b[1], a[1] * b[0]
    x = (a[0] * b[0] >> 32) + (m << 32 >> 32) + (n << 32 >> 32)
    return a[1] * b[1] + (m >> 32) + (n >> 32) + (x >> 32)


def _rop(g, cp):
    """Schubfach's rop: g cp / 2^127, rounded to odd."""
    c = cp << 32 >> 32, cp >> 32
    z = (g[4] * cp >> 1) + _mulhi(g[:2], c)
    hi = _mulhi(g[2:4], c) + (z >> 63)
    return hi + _gt(z << 1 >> 1, 0) * (1 - hi % 2)  # hi | (z mod 2^63 > 0)


def _shortest(x):
    """The shortest decimal f 10^k that rounds to each finite x > 0 and,
    of those, the nearest, ties to even f, as float.__repr__ finds it."""
    pow10, log2 = _pow10_table()
    bq, frac = x.view(np.uint64) >> 52, x.view(np.uint64) << 12 >> 12
    c = frac + (np.minimum(bq, 1) << 52)
    q = np.maximum(bq, 1).astype(np.int64) - 1075
    irregular = np.where(frac, 0, _gt(bq, 1))  # a power of two: 1/4 ulp below
    # floor(log10 2^q), or of 3/4 2^q: 10^k is at most the rounding interval
    k = (q * 661971961083 - irregular.astype(np.int64) * 274743187321) >> 41
    g = pow10[:, k + 324]
    h = (q + log2[k + 324] + 2).astype(np.uint64)
    odd, cb = c % 2, c << 2
    vb = _rop(g, cb << h)
    vbl = _rop(g, cb - 2 + irregular << h) + odd
    vbr = _rop(g, cb + 2 << h) - odd
    s = vb >> 2
    sp = s // 10 * 10  # s or s + 1 unless a shorter sp or sp + 10 rounds
    # 1 where a candidate falls out of the rounding interval
    up_out, wp_out = _gt(vbl, sp << 2), _gt(sp + 10 << 2, vbr)
    u_out, w_out = _gt(vbl, s << 2), _gt(s + 1 << 2, vbr)
    w = np.where(u_out - w_out, u_out, _gt(vb + s % 2, (s << 2) + 2))
    return np.where(up_out - wp_out, sp + 10 * up_out, s + w), k


# A row holds one value's bytes, NUL padded: sign, integer digits, point,
# fraction digits, exponent (or null) and separator.  Both digit runs are
# windows of 7 zeros and the 17 digits of f 10^(17 - len(f)), so masks by
# (decpt, digits), by digits in exponent notation or for NaN, pick bytes.
_WHOLE, _FRAC = slice(6, 23), slice(4, 24)  # of 7 zeros + 17 digits


@functools.cache
def _row_tables():
    """The "dddd" digits of 0..9999 as uint32, 10^0..10^18, by decpt + 323
    the first mask's index and the exponent, then the masks (NaN's last)."""
    def run(lo, hi, at):  # 0xFF over positions lo..hi-1 of the slice at
        return bytes(lo - at.start) + b"\xff" * (hi - lo) + bytes(at.stop - hi)
    def mask(whole, frac, dot=True, exponent=False):
        return (run(*whole, _WHOLE) + bytes([0xFF * dot]) + run(*frac, _FRAC)
                + bytes([0xFF * exponent] * 5))
    fixed = [mask((6, 7), (7 + p, 7 + nd)) if p <= 0 else
             mask((7, 7 + p), (7 + p, 7 + max(nd, p + 1)))
             for p in range(-3, 17) for nd in range(1, 18)]
    exp = [mask((7, 8), (8, 7 + nd), nd > 1, True) for nd in range(1, 18)]
    nan = mask((7, 7), (7, 7), False, True)
    digits2 = np.frombuffer("".join(map("{:02d}".format, range(100)))
                            .encode(), np.uint8).reshape(100, 2)
    digits4 = np.empty((100, 100, 4), np.uint8)
    digits4[:, :, :2], digits4[:, :, 2:] = digits2[:, None], digits2
    decpts = range(-323, 310)
    return (digits4.view(np.uint32).ravel(),
            np.array([10 ** i for i in range(19)], np.uint64),
            np.array([17 * p + 51 if -3 <= p <= 16 else 340 for p in decpts]),
            np.frombuffer(b"".join(f"e{p - 1:+03d}".encode().ljust(5, b"\0")
                                   for p in decpts) + b"null\0", np.uint8)
            .reshape(-1, 5),
            np.frombuffer(b"".join([*fixed, *exp, nan]), np.uint8)
            .reshape(-1, 43))


def json_rows(x) -> np.ndarray:
    """48-byte rows, NUL padded: repr of each finite x or null, then ", "."""
    digits4, pow10, first_code, exponent, layout = _row_tables()
    nan, zero = np.isnan(x), x == 0
    f, k = _shortest(np.where(nan | zero, 1.0, np.abs(x)))
    # From f's binary exponent, d0 is within 1 of floor(log10 f)
    d0 = ((f.astype(np.float64).view(np.uint64) >> 52) - 1023) * 1233 >> 12
    digits = d0 + 2 - _gt(pow10[d0], f) - _gt(pow10[d0 + 1], f)  # 18 if 10^17
    decpt = digits.astype(np.int64) + k  # 0.0 is laid out as 1.0
    f = (f // pow10[np.maximum(digits, 17) - 17]
         * pow10[17 - np.minimum(digits, 17)])
    nd, rest = np.full(len(x), 17), f  # significant digits of f
    for step in (16, 8, 4, 2, 1):
        div, mod = divmod(rest, pow10[step])
        rest = np.where(mod, rest, div)
        nd -= np.where(mod, 0, step)
    code = np.where(nan, len(layout) - 1, first_code[decpt + 323] + nd - 1)
    z = np.zeros((len(x), 6), np.uint32)  # "0000", then 17 digits by 4
    hi, lo = divmod(np.where(zero, 0, f), 10 ** 8)
    z[:, 1], (z[:, 2], z[:, 3]) = hi // 10 ** 8, divmod(hi % 10 ** 8, 10 ** 4)
    z[:, 4], z[:, 5] = divmod(lo, 10 ** 4)
    z = digits4[z].view(np.uint8)
    rows = np.zeros((len(x), 48), np.uint8)
    rows[:, 0] = np.where(np.signbit(x) & ~nan, ord("-"), 0)
    rows[:, 1:18], rows[:, 18] = z[:, _WHOLE], ord(".")
    rows[:, 19:39] = z[:, _FRAC]
    rows[:, 39:44] = exponent[np.where(nan, -1, decpt + 323)]
    np.minimum(rows[:, 1:44], layout[code], out=rows[:, 1:44])  # a mask
    rows[:, 44:46] = ord(","), ord(" ")
    return rows
