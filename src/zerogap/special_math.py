"""Special functions and the decay envelope of a test function.

Every polygamma here comes from one kernel, ``_polygamma(m, z)`` for
m = 0, 1, 2 and real or complex z with Re z > 0, on one Bernoulli table: the
asymptotic series of psi and its derivatives (DLMF 5.11.2), six terms of
which reach double precision at |z| >= 16.  A point with |z| < 16 is first
shifted by 16, psi(z) = psi(z + 16) - sum_{k<16} 1/(z + k) and its
derivatives (DLMF 5.15.5), its sixteen reciprocal powers summed in one block
over the near points alone; every other point takes the series directly.
So each value depends on its own point alone, whatever the batch.
``digamma`` adds the reflection psi(z) = psi(1 - z) - pi cot(pi z) (DLMF
5.5.4) for Re z < 0 and a domain error at the poles, the nonpositive
integers; ``trigamma_real`` adds the check x > 0.  The certification
search's private Re mu = 0 evaluator ``explicit_formula.ell_grid`` takes
``_re_digamma(a, v)``, Re psi(a + iv) for a scalar a and a real array v,
on the same shift rule but with the series in real arithmetic: it needs
only log|z|, a/|z|^2 and a three-term recurrence for Re z^-2k, so no point
takes a complex log or division, and it reads v only through v^2, so it is
even in v bit for bit.
Like ``_polygamma``, it sums all six terms at every point, so each Re psi
value, too, depends on its own point alone.

``DecayEnvelope`` declares |f(t)| <= m/t^2 beyond t0, which bounds the mass
of unlisted zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

__all__ = [
    "DecayEnvelope",
    "digamma",
    "trigamma_real",
]


# ---------------------------------------------------------------------------
# polygammas
# ---------------------------------------------------------------------------

# B_{2k} for k = 1..6, the one table of every Bernoulli series:
#   psi(z)   ~ log z - 1/(2z) - sum_k B_{2k}/(2k z^{2k})        (DLMF 5.11.2)
#   psi'(z)  ~ 1/z + 1/(2z^2) + sum_k B_{2k}/z^{2k+1}
#   psi''(z) ~ -1/z^2 - 1/z^3 - sum_k (2k+1) B_{2k}/z^{2k+2}
# For |z| >= _SERIES_RADIUS the first omitted terms are below 2e-17
# relative for psi and psi', 3e-16 for psi''.
_BERNOULLI = np.array([1.0 / 6.0, -1.0 / 30.0, 1.0 / 42.0, -1.0 / 30.0, 5.0 / 66.0,
                       -691.0 / 2730.0])
# row m: psi^(m)'s coefficients B_{2k} (2k + m - 1)!/(2k)!, kept as Python scalars
# of the input's kind, real or complex, which numpy takes faster than a cast one
_ROWS = (_BERNOULLI / np.arange(2.0, 13.0, 2.0), _BERNOULLI, _BERNOULLI * np.arange(3.0, 14.0, 2.0))
_SERIES = {"f": [r.tolist() for r in _ROWS], "c": [[complex(c) for c in r] for r in _ROWS]}

_SERIES_RADIUS = 16.0
# 0, 1, ..., 15: the shift, one row of reciprocal terms per near point, in
# each input kind (an add that casts costs more)
_SHIFT = {"f": np.arange(_SERIES_RADIUS), "c": np.arange(_SERIES_RADIUS) + 0j}


def _polygamma(m: int, z):
    """psi^(m)(z), m = 0, 1, 2, at each point of a real or complex z with
    Re z > 0, on the module docstring's shift rule (internal: no domain
    check; a 0-d z gives a numpy scalar)."""
    z = np.asarray(z)
    flat = z.reshape(-1)
    kind = flat.dtype.kind
    near = (np.abs(flat) if kind == "c" else flat) < _SERIES_RADIUS
    n_near = np.count_nonzero(near)
    if n_near == len(flat):  # all near: basic indexing, no masks
        w, near = flat + _SERIES_RADIUS, slice(None)
    else:
        w = flat + _SERIES_RADIUS * near
    iw = np.reciprocal(w)
    iw2 = iw * iw
    c = _SERIES[kind][m]
    s = c[-1] * iw2 + c[-2]  # Horner's rule in 1/z^2
    for ck in c[-3::-1]:
        s *= iw2
        s += ck
    if m == 0:
        out = np.log(w) - 0.5 * iw - s * iw2
    elif m == 1:
        out = iw + iw2 * (0.5 + iw * s)
    else:
        out = -(iw2 * (1.0 + iw + iw2 * s))
    if n_near:
        p = t = flat[near, None] + _SHIFT[kind]
        for _ in range(m):
            p = p * t
        acc = np.add.reduce(np.reciprocal(p, out=p), axis=1)
        # psi^(m)(z) = psi^(m)(z + 16) + (-1)^(m+1) m! sum_{k<16} (z + k)^-(m+1)
        if m == 1:
            out[near] += acc
        else:
            out[near] -= acc if m == 0 else 2.0 * acc
    return out.reshape(z.shape)[()]


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z) for complex z away from the poles.

    Real input gives real output, a scalar gives a numpy scalar, and the
    poles at the nonpositive integers raise a domain error.  Each value
    depends on its own point alone: digamma(z)[i] is bit-identical to
    digamma(z[i]).
    """
    arr = np.asarray(z)
    if arr.dtype.kind != "c":
        arr = arr.astype(float, copy=False)
    flat = arr.reshape(-1)
    re = flat.real
    nonpositive = re <= 0.0
    if not np.count_nonzero(nonpositive):
        return _polygamma(0, arr)
    if (nonpositive & (flat.imag == 0.0) & (re == np.floor(re))).any():
        raise DomainError("digamma pole: z is a nonpositive integer")
    left = re < 0.0
    out = _polygamma(0, np.where(left, 1.0 - flat, flat))
    # cot has period pi, so the argument is reduced exactly by round(Re z)
    # first; only the reflected points reach the cotangent, whose poles the
    # others may sit on
    zl = flat[left]
    out[left] -= math.pi / np.tan(math.pi * (zl - np.round(zl.real)))
    return out.reshape(arr.shape)[()]


def trigamma_real(x):
    """psi'(x) for finite real x > 0, from the shared kernel.

    A 0-d input gives a Python float; arrays keep their shape.
    """
    arr = np.asarray(x, dtype=float)
    if not ((arr > 0.0) & (arr < math.inf)).all():
        raise DomainError("trigamma_real requires finite x > 0")
    out = _polygamma(1, arr)
    return float(out) if arr.ndim == 0 else out


def _re_digamma(a: float, v) -> np.ndarray:
    # Re psi(a + iv) for a scalar a > 0 and a real array v (internal; for
    # ell_grid's Re mu = 0 row), on _polygamma's rule: the series, replaced
    # where |z| < 16 by Re psi(z + 16) - sum_{k<16} (a + k)/((a + k)^2 + v^2).
    # Masking the near points, about 5% of a lattice table, out of the first
    # series call measured slower than evaluating them twice
    v = np.asarray(v, dtype=float)
    v2 = v * v
    out = _re_digamma_series(float(a), v2)
    near = v2 < _SERIES_RADIUS**2 - a * a
    if near.any():
        v2_near = v2[near]
        ak = a + _SHIFT["f"]
        acc = (ak / (ak * ak + v2_near[:, None])).sum(axis=1)
        out[near] = _re_digamma_series(a + _SERIES_RADIUS, v2_near) - acc
    return out


def _re_digamma_series(a: float, v2: np.ndarray) -> np.ndarray:
    # the psi series at z = a + iv, |z| >= _SERIES_RADIUS, in real arithmetic:
    # Re log z = log|z|, Re 1/z = a/|z|^2 and Re z^-2k = Re w^k for
    # w = conj(z)^2/|z|^4.  Those powers obey
    # Re w^{k+1} = 2 Re w Re w^k - |w|^2 Re w^{k-1}, so the Bernoulli sum is
    # Clenshaw's recurrence b_k = c_k + 2 Re w b_{k+1} - |w|^2 b_{k+2}, equal
    # to Re w b_1 - |w|^2 b_2.  It runs in place: the arrays are lattice
    # tables, and allocating them would cost as much as the arithmetic.
    c = _SERIES["f"][0]
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


# ---------------------------------------------------------------------------
# Decay envelopes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DecayEnvelope:
    """Quadratic-decay declaration |g(t)| <= m/t^2 for |t| >= t0."""

    m: float
    t0: float
