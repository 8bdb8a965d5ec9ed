"""Special functions for the decoherence closed forms and their checks.

Three primitives live here:

  * zeta_int(n)      -- Riemann zeta at integer n >= 2
  * trigamma_complex -- psi^(1)(z) for complex z off the non-positive integers
  * sinc(x)          -- sin(x)/x with a series branch near zero

The rates do not call trigamma_complex: they take -Im psi1(1 + iy) / y
from rates._trigamma_im_over_y in real arithmetic, and ``hawkdeco verify``
checks that routine (rows trigamma_small_y, trigamma_large_y and
trigamma_vs_series).  trigamma_complex is the tests' independent reference
for it.  It pairs the upward recurrence psi1(z) = psi1(z + 1) + 1/z^2 with
the asymptotic expansion

    psi1(z) ~ 1/z + 1/(2 z^2) + sum_k B_2k / z^(2k+1)

applied once |z| is past SHIFT_THRESHOLD = 10.  Bernoulli terms are kept
through B_12; at |z| = 10 the first dropped term is ~1e-16 of the value,
comfortably below the 1e-10 accuracy target.  The threshold is a fixed
constant; the tests check it against a deeper-shifted evaluation.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from .blackhole import _count

# Exact table for the small odd/even integers the closed forms consume.
# Values carry full double precision; anything else falls back to the
# series path below.
_ZETA_TABLE = {
    2: math.pi ** 2 / 6.0,
    3: 1.2020569031595942854,
    5: 1.0369277551433699263,
    7: 1.0083492773819228268,
    9: 1.0020083928260822144,
}

# Bernoulli numbers B_2 .. B_12 for the trigamma asymptotic tail.
BERNOULLI_2K = (
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
)

# |z| from which trigamma_complex uses the asymptotic series
SHIFT_THRESHOLD = 10.0

_SINC_SERIES_CUT = 1e-4
_ONE_MINUS_SINC_CUT = 0.125


def zeta_series(n: int, terms: int = 50) -> float:
    """zeta(n) by direct summation plus an Euler-Maclaurin tail.

    Serves as the independent check on the table values.  The tail after N
    terms is N^(1-n)/(n-1) + N^-n/2 + n N^-(n+1)/12 - ..., leaving a
    truncation error below 1e-13 already at N = 50 for n >= 2.
    """
    nf = float(_count("n", n, 2))
    terms = _count("terms", terms, 10)
    total = 0.0
    for k in range(terms, 0, -1):  # small terms first
        total += k ** -nf
    tail = (
        terms ** (1.0 - nf) / (nf - 1.0)
        - 0.5 * terms ** -nf
        + nf / 12.0 * terms ** -(nf + 1.0)
        - nf * (nf + 1.0) * (nf + 2.0) / 720.0 * terms ** -(nf + 3.0)
    )
    return total + tail


def zeta_int(n: int) -> float:
    """Riemann zeta at an integer argument n >= 2."""
    n = _count("n", n, 2)
    hit = _ZETA_TABLE.get(n)
    if hit is not None:
        return hit
    return zeta_series(n)


def _trigamma_domain(z: complex) -> complex:
    # complex(z), off the poles; finiteness first, as int() of inf overflows
    z = complex(z)
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        raise ValueError(f"z must be finite, got {z}")
    if z.imag == 0.0 and z.real <= 0.0 and z.real == int(z.real):
        raise ValueError(f"trigamma pole at non-positive integer z={z.real}")
    return z


def trigamma_complex(z: complex) -> complex:
    """psi^(1)(z) for complex z, excluding the poles at 0, -1, -2, ...

    Real axis sanity anchor: psi1(1) = pi^2/6.  Conjugation symmetry
    psi1(conj z) = conj(psi1(z)) holds exactly because every arithmetic
    step commutes with conjugation.
    """
    z = _trigamma_domain(z)
    acc = 0.0 + 0.0j
    while abs(z) < SHIFT_THRESHOLD or z.real < 0.5:
        acc += 1.0 / (z * z)
        z += 1.0
    # 1/z + 1/(2 z^2) + sum B_2k / z^(2k+1)
    inv = 1.0 / z
    inv2 = inv * inv
    total = inv + 0.5 * inv2
    power = inv * inv2
    for b in BERNOULLI_2K:
        total += b * power
        power *= inv2
    return acc + total


def _sin_over_x(x, cut: float, series, complement: bool):
    # sin(x)/x, or 1 - sin(x)/x, in one pass over the contiguous array (a
    # strided loop may round sin differently); |x| < cut takes series(x^2)
    # and x = +-inf the limit, by mask only when such elements exist.
    arr = np.asarray(x, dtype=float)
    flat = arr.ravel()
    small = np.abs(flat) < cut
    infinite = np.isinf(flat)
    rare = small.any() or infinite.any()
    with np.errstate(invalid="ignore") if rare else contextlib.nullcontext():  # 0/0, sin(inf)
        out = np.sin(flat)
        out /= flat
        if complement:
            np.subtract(1.0, out, out=out)
    if rare:
        out[small] = series(flat[small] ** 2)
        out[infinite] = float(complement)
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def sinc(x):
    """sin(x)/x with sinc(0) = 1 and sinc(+-inf) = 0.

    Below |x| = 1e-4 the two-term Taylor polynomial 1 - x^2/6 + x^4/120 is
    used; its truncation error x^6/5040 < 2e-28 there.  Accepts scalars or
    numpy arrays and mirrors the input kind.
    """
    return _sin_over_x(x, _SINC_SERIES_CUT,
                       lambda x2: 1.0 - x2 / 6.0 + x2 * x2 / 120.0, complement=False)


def one_minus_sinc(x):
    """1 - sinc(x) without cancellation for small arguments.

    Direct subtraction loses all significance as x -> 0 while the quantity
    itself is ~x^2/6, so below |x| = 0.125 the alternating series
    x^2/6 - x^4/120 + x^6/5040 - x^8/362880 is used (next term < 1e-14 of
    the leading one at the cut).  1 at x = +-inf.
    """
    return _sin_over_x(x, _ONE_MINUS_SINC_CUT, lambda x2: (
        x2 / 6.0 - x2 * x2 / 120.0 + x2 * x2 * x2 / 5040.0 - x2 * x2 * x2 * x2 / 362880.0),
        complement=True)
