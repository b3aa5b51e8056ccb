"""Special functions and test-function tail data.

Every function here sums one Bernoulli table, the classical scheme: the
recurrence psi(z+1) = psi(z) + 1/z (DLMF 5.5.2) moves the argument out to
|z| >= 16, where the asymptotic series of psi and its derivatives (DLMF
5.11.2) converge to double precision with six terms.  ``digamma`` shifts
every point by exactly 16, psi(z) = psi(z + 16) - sum_{k<16} 1/(z + k),
whatever its modulus, so each value depends on its own point alone and a
batch returns the values of its points one at a time; a point with Re z < 0
goes through the reflection psi(z) = psi(1 - z) - pi cot(pi z) (DLMF 5.5.4)
first, and the poles at the nonpositive integers raise a domain error.
``ell`` and ``ell_floor`` use it.  ``trigamma_real`` and the internal
``_tetragamma_real`` are the series' first and second derivatives, in real
arithmetic, on one near/far split: a point x < 16 is shifted by 16, its
sixteen reciprocal powers summed in one block over the near points alone,
and a point x >= 16 takes the series directly.  Which path a point takes
depends on that point alone, so their batches are elementwise too.  The
lattice evaluator ``explicit_formula.ell_grid`` takes two internal
functions that shift only the points inside the radius:
``_trigamma_complex`` gives the lattice edges' psi' by Horner's rule in
1/z^2, and ``_re_digamma(a, v)`` gives Re psi(a + iv) for a scalar a and a
real array v in real arithmetic: its series needs only log|z|, a/|z|^2 and
a three-term recurrence for Re z^-2k, so no point takes a complex log or a
complex division, and it reads v only through v^2, so it is even in v bit
for bit.  Its series sums only the terms that the smallest |z| of the call
needs, down to 1e-17: all six at |z| = 16, two on the lattice's smooth
tails (|z| >= 338).

``DecayEnvelope`` declares |f(t)| <= m/t^2 beyond t0, which bounds the mass
of unlisted zeros.  Its optional ``TailDecomposition``

    f(t) = P(t) + sum_i Q_i(t) * cos(omega_i t + phi_i)   for |t| >= t_valid

is set only by the Selberg minorant and feeds only the lattice evaluator
``explicit_formula.ell_grid``, which still integrates in the time domain and
finishes the tails analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import DomainError

__all__ = [
    "DecayEnvelope",
    "OscComponent",
    "TailDecomposition",
    "digamma",
    "trigamma_real",
]


# ---------------------------------------------------------------------------
# digamma / trigamma
# ---------------------------------------------------------------------------

# B_{2k} for k = 1..6, the one table of every Bernoulli series:
#   psi(z)   ~ log z - 1/(2z) - sum_k B_{2k}/(2k z^{2k})        (DLMF 5.11.2)
#   psi'(z)  ~ 1/z + 1/(2z^2) + sum_k B_{2k}/z^{2k+1}
#   psi''(z) ~ -1/z^2 - 1/z^3 - sum_k (2k+1) B_{2k}/z^{2k+2}
# For |z| >= _SERIES_RADIUS the first omitted terms are below 2e-17
# relative for psi and psi', 3e-16 for psi''.
_BERNOULLI = np.array([
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
])
_PSI_SERIES = _BERNOULLI / (2.0 * np.arange(1, len(_BERNOULLI) + 1))
_TETRAGAMMA_SERIES = _BERNOULLI * (2.0 * np.arange(1, len(_BERNOULLI) + 1) + 1.0)

_SERIES_RADIUS = 16.0
# _re_digamma_series drops the Bernoulli terms below this at the smallest
# |z| of its call: all 6 at |z| = 16, 2 at the lattice's smooth tails
# (|z| >= 338)
_TERM_FLOOR = 1e-17
# 0, 1, ..., 15: the shift of digamma and the real derivatives, one row of
# terms per shifted point
_SHIFT = np.arange(_SERIES_RADIUS)


def _horner(coefficients: np.ndarray, w):
    """sum_k coefficients[k] w^k at each point of w."""
    s = coefficients[-1] * w + coefficients[-2]
    for c in coefficients[-3::-1]:
        s *= w
        s += c
    return s


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z) for complex z away from the poles.

    Real input gives real output, a scalar gives a numpy scalar, and the
    poles at the nonpositive integers raise a domain error.  Each value
    depends on its own point alone: digamma(z)[i] is bit-identical to
    digamma(z[i]).
    """
    arr = np.asarray(z)
    if not np.iscomplexobj(arr):
        arr = arr.astype(float)
    flat = arr.reshape(-1)
    re = flat.real
    # fmin passes over nan, so a nan entry hides no negative one
    lowest = np.fmin.reduce(re, initial=math.inf)
    if lowest <= 0.0 and ((flat.imag == 0.0) & (re <= 0.0) & (re == np.floor(re))).any():
        raise DomainError("digamma pole: z is a nonpositive integer")
    left = re < 0.0 if lowest < 0.0 else None
    w = flat if left is None else np.where(left, 1.0 - flat, flat)
    acc = np.reciprocal(w[:, None] + _SHIFT).sum(axis=1)
    w = w + _SERIES_RADIUS
    iw = np.reciprocal(w)
    iw2 = iw * iw
    out = np.log(w) - 0.5 * iw - _horner(_PSI_SERIES, iw2) * iw2 - acc
    if left is not None:
        # cot has period pi, so the argument is reduced exactly by round(Re z)
        # first; only the reflected points reach the cotangent, whose poles
        # the others may sit on
        zl = flat[left]
        out[left] -= math.pi / np.tan(math.pi * (zl - np.round(zl.real)))
    return out.reshape(arr.shape)[()]


def _near_shift(x: np.ndarray, power: int):
    """The series argument of the real polygammas at each point of a 1-d x >
    0: x + 16 where x < 16 and x itself elsewhere, the mask of those near
    points, and sum_{k<16} 1/(x + k)^power at each near point, by rows of the
    near subset alone."""
    near = x < _SERIES_RADIUS
    terms = x[near][:, None] + _SHIFT
    p = terms * terms
    if power == 3:
        p *= terms
    return x + _SERIES_RADIUS * near, near, np.reciprocal(p, out=p).sum(axis=-1)


def trigamma_real(x):
    """psi'(x) for finite real x > 0: the series at x >= 16, and
    psi'(x + 16) + sum_{k<16} 1/(x + k)^2 below.

    A 0-d input gives a Python float; arrays keep their shape.
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) & (arr < math.inf)).all():
        raise DomainError("trigamma_real requires finite x > 0")
    w, near, acc = _near_shift(arr.reshape(-1), 2)
    iw = 1.0 / w
    iw2 = iw * iw
    out = iw + iw2 * (0.5 + iw * _horner(_BERNOULLI, iw2))
    out[near] += acc
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


def _tetragamma_real(x):
    # psi''(x) for real x > 0 (internal): the series at x >= 16, and
    # psi''(x + 16) - 2 sum_{k<16} 1/(x + k)^3 below
    arr = np.asarray(x, dtype=float)
    w, near, acc = _near_shift(arr.reshape(-1), 3)
    iw = 1.0 / w
    iw2 = iw * iw
    out = iw2 * (1.0 + iw + iw2 * _horner(_TETRAGAMMA_SERIES, iw2))
    out[near] += 2.0 * acc
    return -out.reshape(arr.shape)[()]


def _re_digamma(a: float, v) -> np.ndarray:
    # Re psi(a + iv) for a scalar a > 0 and a real array v (internal; the
    # lattice rows of ell_grid).  Points inside the series radius are shifted
    # up by n with Re psi(z) = Re psi(z + n) - sum_{k<n} (a + k)/((a + k)^2 + v^2)
    # (DLMF 5.5.2), the small terms summed first.
    v = np.asarray(v, dtype=float)
    v2 = v * v
    out = _re_digamma_series(float(a), v2)
    near = v2 < _SERIES_RADIUS**2 - a * a
    if near.any():
        n = math.ceil(_SERIES_RADIUS - a)
        v2_near = v2[near]
        acc = np.zeros(v2_near.shape)
        for k in range(n - 1, -1, -1):
            acc += (a + k) / ((a + k) ** 2 + v2_near)
        out[near] = _re_digamma_series(a + n, v2_near) - acc
    return out


def _re_digamma_series(a: float, v2: np.ndarray) -> np.ndarray:
    # the psi series at z = a + iv, |z| >= _SERIES_RADIUS, in real arithmetic:
    # Re log z = log|z|, Re 1/z = a/|z|^2 and Re z^-2k = Re w^k for
    # w = conj(z)^2/|z|^4.  Those powers obey
    # Re w^{k+1} = 2 Re w Re w^k - |w|^2 Re w^{k-1}, so the Bernoulli sum is
    # Clenshaw's recurrence b_k = c_k + 2 Re w b_{k+1} - |w|^2 b_{k+2}, equal
    # to Re w b_1 - |w|^2 b_2.  It takes the terms c_k |z|^-2k down to
    # _TERM_FLOOR at the smallest |z| of the call (they fall with k there),
    # and at least two, where the recurrence starts.  It runs in place: the
    # arrays are lattice tables, and allocating them would cost as much as
    # the arithmetic.
    inv = 1.0 / (a * a + np.min(v2, initial=math.inf))
    n = len(_PSI_SERIES)
    while n > 2 and abs(_PSI_SERIES[n - 1]) * inv**n < _TERM_FLOOR:
        n -= 1
    c = _PSI_SERIES[:n]
    r2 = v2 + a * a
    w2 = r2 * r2
    np.reciprocal(w2, out=w2)  # |w|^2
    wr = a * a - v2
    wr *= w2  # Re w
    p = 2.0 * wr
    b2 = np.full(v2.shape, c[-1])
    b1 = p * b2
    b1 += c[-2]
    b0 = np.empty(v2.shape)
    for ck in c[-3::-1]:
        np.multiply(p, b1, out=b0)
        b2 *= w2
        b0 -= b2
        b0 += ck
        b0, b1, b2 = b2, b0, b1
    b1 *= wr
    b2 *= w2
    b1 -= b2
    out = np.log(r2)
    out *= 0.5
    out -= np.divide(0.5 * a, r2, out=r2)
    out -= b1
    return out


def _trigamma_complex(z: np.ndarray) -> np.ndarray:
    # psi'(z) for Re z > 0 (internal; used for tail boundary terms).
    w = np.array(z, dtype=complex, copy=True)
    acc = np.zeros(w.shape, dtype=complex)
    for _ in range(int(_SERIES_RADIUS) + 1):
        mask = np.abs(w) < _SERIES_RADIUS
        if not mask.any():
            break
        acc[mask] += 1.0 / (w[mask] * w[mask])
        w[mask] += 1.0
    iw = 1.0 / w
    iw2 = iw * iw
    return acc + iw + 0.5 * iw2 + _horner(_BERNOULLI, iw2) * iw2 * iw


# ---------------------------------------------------------------------------
# Decay envelopes and structured tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OscComponent:
    """One oscillatory tail component  Q(t) * cos(omega t + phase).

    The amplitude callables must be valid for |t| >= the owning
    decomposition's t_valid, on both tails.  The bounds are a function of
    the cutoff: bounds(t), for t >= t_valid, returns (c_q, c_dq, c_ddq)
    with |Q(s)| <= c_q/s^2, |Q'(s)| <= c_dq/|s|^3 and |Q''(s)| <= c_ddq/s^4
    for every |s| >= t.
    """

    amplitude: Callable
    d_amplitude: Callable
    omega: float
    phase: float
    bounds: Callable


@dataclass(frozen=True)
class TailDecomposition:
    """Exact structure of a test function beyond |t| >= t_valid.

    g(t) = smooth(t) + sum_i amplitude_i(t) cos(omega_i t + phase_i),
    with |smooth| <= c_p/t^2.
    """

    t_valid: float
    smooth: Callable
    c_p: float
    components: tuple = ()


@dataclass(frozen=True)
class DecayEnvelope:
    """Quadratic-decay declaration |g(t)| <= m/t^2 for |t| >= t0.

    ``tail`` optionally supplies the structured decomposition that the
    lattice evaluator ``ell_grid`` finishes analytically; only the Selberg
    minorant sets it.
    """

    m: float
    t0: float
    tail: Optional[TailDecomposition] = None
