"""Special functions and test-function tail data.

``digamma`` is scipy's, behind a check that turns its poles into a domain
error.  ``trigamma_real`` is scipy's Hurwitz zeta, psi'(x) = zeta(2, x),
behind a domain check, and the internal ``_tetragamma_real`` is
psi''(x) = -2 zeta(3, x).  Only ``_trigamma_complex``, for the lattice
tails, uses the classical scheme, because scipy has no complex trigamma: the
recurrence psi'(z+1) = psi'(z) - 1/z^2 pushes the argument into a region
where the Bernoulli asymptotic series converges to double precision, and
the series is then evaluated by Horner's rule in 1/z^2.

``DecayEnvelope`` declares |f(t)| <= m/t^2 beyond t0, which bounds the mass
of unlisted zeros.  Its optional ``TailDecomposition``

    f(t) = P(t) + sum_i Q_i(t) * cos(omega_i t + phi_i)   for |t| >= t_valid

is set only by the Selberg minorant and feeds only the lattice evaluator
``explicit_formula.ell_grid``, which still integrates in the time domain and
finishes the tails analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.special as _sp

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

# B_{2k} for k = 1..8; psi'(z) ~ 1/z + 1/(2z^2) + sum_k B_{2k}/z^{2k+1}
_TRI_SERIES = np.array([
    1.0 / 6.0,
    -1.0 / 30.0,
    1.0 / 42.0,
    -1.0 / 30.0,
    5.0 / 66.0,
    -691.0 / 2730.0,
    7.0 / 6.0,
    -3617.0 / 510.0,
])

_TRI_SHIFT = 12.0


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z) for complex z away from the poles.

    Backed by scipy's psi; real input gives real output, and the poles at
    the nonpositive integers raise a domain error.
    """
    arr = np.asarray(z)
    out = _sp.psi(arr)
    # scipy returns inf or nan at every pole, so only then is z inspected
    re = arr.real
    if not np.isfinite(out).all() and ((arr.imag == 0) & (re <= 0) & (re == np.floor(re))).any():
        raise DomainError("digamma pole: z is a nonpositive integer")
    return out


def trigamma_real(x):
    """psi'(x) for finite real x > 0, as scipy's Hurwitz zeta(2, x).

    A 0-d input gives a Python float; arrays keep their shape.
    """
    arr = np.asarray(x, dtype=float)
    if (arr <= 0.0).any() or not np.isfinite(arr).all():
        raise DomainError("trigamma_real requires finite x > 0")
    out = _sp.zeta(2.0, arr)
    return float(out) if arr.ndim == 0 else out


def _trigamma_complex(z: np.ndarray) -> np.ndarray:
    # psi'(z) for Re z > 0 (internal; used for tail boundary terms).
    w = np.array(z, dtype=complex, copy=True)
    acc = np.zeros(w.shape, dtype=complex)
    for _ in range(int(_TRI_SHIFT) + 1):
        mask = np.abs(w) < _TRI_SHIFT
        if not mask.any():
            break
        acc[mask] += 1.0 / (w[mask] * w[mask])
        w[mask] += 1.0
    iw = 1.0 / w
    iw2 = iw * iw
    s = np.full(w.shape, _TRI_SERIES[-1], dtype=complex)
    for c in _TRI_SERIES[-2::-1]:
        s = s * iw2 + c
    return acc + iw + 0.5 * iw2 + s * iw2 * iw


def _tetragamma_real(x):
    # psi''(x) = -2 zeta(3, x) for real x > 0 (internal)
    return -2.0 * _sp.zeta(3.0, x)


# ---------------------------------------------------------------------------
# Decay envelopes and structured tails
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class OscComponent:
    """One oscillatory tail component  Q(t) * cos(omega t + phase).

    The amplitude callables must be valid for |t| >= the owning
    decomposition's t_valid, on both tails, and the constants bound
    |Q| <= c_q/t^2, |Q'| <= c_dq/|t|^3, |Q''| <= c_ddq/t^4 there.
    """

    amplitude: Callable
    d_amplitude: Callable
    omega: float
    phase: float
    c_q: float
    c_dq: float
    c_ddq: float


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
