"""Special functions, interval quadrature, and test-function tail data.

``digamma`` and ``log_gamma`` are scipy's, behind a check that turns their
poles into a domain error.  scipy has no complex trigamma, so the trigamma
implementations use the classical scheme: the recurrence
psi'(z+1) = psi'(z) - 1/z^2 pushes the argument into a region where the
Bernoulli asymptotic series converges to double precision, and the series
is then evaluated by Horner's rule in 1/z^2.

``integrate_interval`` is adaptive Gauss-Kronrod quadrature on a finite
interval.  It is all the pointwise explicit-formula terms need: they are
computed on the frequency side, where every test function's transform is
supported in [-delta, delta], so no integral runs over the whole line.

``DecayEnvelope`` declares |f(t)| <= m/t^2 beyond t0, which bounds the mass
of unlisted zeros.  Its optional ``TailDecomposition``

    f(t) = P(t) + sum_i Q_i(t) * cos(omega_i t + phi_i)   for |t| >= t_valid

is set only by the Selberg minorant and feeds only the lattice evaluator
``explicit_formula.ell_grid``, which still integrates in the time domain and
finishes the tails analytically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.special as _sp

from .errors import AccuracyError, DomainError

__all__ = [
    "DecayEnvelope",
    "OscComponent",
    "QuadratureResult",
    "TailDecomposition",
    "digamma",
    "integrate_interval",
    "log_gamma",
    "trigamma_real",
]


# ---------------------------------------------------------------------------
# digamma / trigamma / log_gamma
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


def _is_nonpositive_integer(z: np.ndarray) -> np.ndarray:
    re = np.real(z)
    im = np.imag(z)
    return (im == 0.0) & (re <= 0.0) & (re == np.floor(re))


def digamma(z):
    """psi(z) = Gamma'(z)/Gamma(z) for complex z away from the poles.

    Backed by scipy's psi; real input gives real output, and the poles at
    the nonpositive integers raise a domain error.
    """
    arr = np.asarray(z)
    if _is_nonpositive_integer(arr).any():
        raise DomainError("digamma pole: z is a nonpositive integer")
    return _sp.psi(arr)


def trigamma_real(x):
    """psi'(x) for real x > 0, absolute accuracy better than 1e-12."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    w = np.atleast_1d(arr).astype(float).copy()
    if (w <= 0.0).any() or not np.isfinite(w).all():
        raise DomainError("trigamma_real requires x > 0")
    acc = np.zeros(w.shape)
    for _ in range(int(_TRI_SHIFT) + 1):
        mask = w < _TRI_SHIFT
        if not mask.any():
            break
        acc[mask] += 1.0 / (w[mask] * w[mask])
        w[mask] += 1.0
    iw = 1.0 / w
    iw2 = iw * iw
    s = np.full(w.shape, _TRI_SERIES[-1])
    for c in _TRI_SERIES[-2::-1]:
        s = s * iw2 + c
    res = acc + iw + 0.5 * iw2 + s * iw2 * iw
    return float(res[0]) if scalar else res.reshape(arr.shape)


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
    # psi''(x) for real x > 0 (internal).  d/dx of the trigamma series.
    w = np.atleast_1d(np.asarray(x, dtype=float)).copy()
    acc = np.zeros(w.shape)
    for _ in range(int(_TRI_SHIFT) + 1):
        mask = w < _TRI_SHIFT
        if not mask.any():
            break
        acc[mask] -= 2.0 / w[mask] ** 3
        w[mask] += 1.0
    iw = 1.0 / w
    iw2 = iw * iw
    s = np.zeros(w.shape)
    for k in range(len(_TRI_SERIES) - 1, -1, -1):
        s = s * iw2 + (2 * k + 3) * _TRI_SERIES[k]
    res = acc - iw2 - iw2 * iw - s * iw2 * iw2
    return res if np.asarray(x).ndim else float(res[0])


def log_gamma(z):
    """Principal branch of log Gamma(z); poles raise a domain error.

    Backed by scipy's loggamma, which implements the standard principal
    branch (real on the positive axis, continued through the cut plane).
    """
    arr = np.asarray(z)
    scalar = arr.ndim == 0
    zc = np.atleast_1d(arr).astype(complex)
    if _is_nonpositive_integer(zc).any():
        raise DomainError("log_gamma pole: z is a nonpositive integer")
    out = _sp.loggamma(zc)
    if np.isrealobj(arr) and (np.atleast_1d(arr) > 0).all():
        out = out.real
    return out[0] if scalar else out.reshape(arr.shape)


# ---------------------------------------------------------------------------
# Gauss-Kronrod 15-point panel rule
# ---------------------------------------------------------------------------

_XGK = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0, 0.207784955007898, 0.405845151377397,
    0.586087235467691, 0.741531185599394, 0.864864423359769,
    0.949107912342759, 0.991455371120813,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728, 0.204432940075298,
    0.190350578064785, 0.169004726639267, 0.140653259715525,
    0.104790010322250, 0.063092092629979, 0.022935322010529,
])
# 7-point Gauss weights spread onto the 15 Kronrod nodes (zeros elsewhere)
_WG7 = np.zeros(15)
_WG7[1::2] = [0.129484966168870, 0.279705391489277, 0.381830050505119,
              0.417959183673469, 0.381830050505119, 0.279705391489277,
              0.129484966168870]
_WERR = _WGK - _WG7


@dataclass(frozen=True)
class QuadratureResult:
    """Value of an integral together with its accounting.

    error_estimate combines panel error estimators with any analytic bounds
    on omitted tails; evaluations counts integrand calls.
    """

    value: float
    error_estimate: float
    evaluations: int

    def __post_init__(self):
        if not (self.error_estimate >= 0.0):
            raise DomainError("error_estimate must be nonnegative")
        if self.evaluations <= 0:
            raise DomainError("evaluations must be positive")


def _vectorized(g: Callable) -> Callable:
    """Return an ndarray-in / ndarray-out version of g."""
    probe = np.array([0.25, 0.75])
    try:
        out = np.asarray(g(probe), dtype=float)
        if out.shape == probe.shape:
            return g
    except Exception:
        pass
    gv = np.vectorize(g, otypes=[float])
    return lambda t: gv(t)


def _gk_batch(g: Callable, lo: np.ndarray, hi: np.ndarray):
    c = 0.5 * (lo + hi)
    h = 0.5 * (hi - lo)
    pts = c[:, None] + h[:, None] * _XGK[None, :]
    fv = np.asarray(g(pts.ravel()), dtype=float).reshape(pts.shape)
    if not np.isfinite(fv).all():
        bad = pts.ravel()[~np.isfinite(fv.ravel())][0]
        raise DomainError(f"integrand returned a non-finite value near t = {bad!r}")
    vals = h * (fv @ _WGK)
    errs = np.abs(h * (fv @ _WERR))
    return vals, errs, pts.size


def integrate_interval(
    g: Callable,
    a: float,
    b: float,
    tol: float,
    *,
    breakpoints: Optional[Sequence[float]] = None,
    max_evals: int = 4_000_000,
) -> QuadratureResult:
    """Adaptive Gauss-Kronrod integration of g over the finite interval [a, b].

    ``breakpoints`` seeds the initial panel mesh (endpoints are added); panels
    are bisected, worst first, until the summed error estimate meets tol.
    """
    if not (b > a):
        raise DomainError("integrate_interval requires b > a")
    gv = _vectorized(g)
    if breakpoints is None:
        breaks = np.linspace(a, b, 9)
    else:
        pts = [p for p in breakpoints if a < p < b]
        breaks = np.unique(np.concatenate([[a, b], pts]))
    lo = breaks[:-1].copy()
    hi = breaks[1:].copy()
    vals, errs, n = _gk_batch(gv, lo, hi)
    evals = n
    while errs.sum() > tol:
        if evals >= max_evals or lo.size > 400_000:
            best = QuadratureResult(float(vals.sum()), float(errs.sum()), evals)
            raise AccuracyError(
                f"quadrature stalled at error {errs.sum():.3e} > tol {tol:.3e}",
                best=best,
            )
        cutoff = max(errs.max() * 0.3, tol / (4.0 * lo.size))
        sel = errs >= cutoff
        if not sel.any():
            sel = errs == errs.max()
        # only the halves of bisected panels are new; the rest keep their sums
        mid = 0.5 * (lo[sel] + hi[sel])
        split_lo = np.concatenate([lo[sel], mid])
        split_hi = np.concatenate([mid, hi[sel]])
        split_vals, split_errs, n = _gk_batch(gv, split_lo, split_hi)
        evals += n
        lo = np.concatenate([lo[~sel], split_lo])
        order = np.argsort(lo, kind="stable")
        lo = lo[order]
        hi = np.concatenate([hi[~sel], split_hi])[order]
        vals = np.concatenate([vals[~sel], split_vals])[order]
        errs = np.concatenate([errs[~sel], split_errs])[order]
    return QuadratureResult(float(vals.sum()), float(errs.sum()), evals)


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
