"""Beurling-Selberg extremal functions and Fejer-type kernels.

Every constructor returns a TestFunction: a real-valued function on the
line with quadratic decay, compactly supported Fourier transform, a known
integral, a positivity window (the interval outside of which the function
is <= 0, or "everywhere" for nonnegative kernels) and a decay envelope,
both solved on first read and cached.  The Selberg minorant's window edges
are its outermost sign changes, bracketed by samples of the last lobe
inside each edge and solved together by Anderson-Bjorck false position (N.
Anderson and A. Bjorck, "A new high order method of regula falsi type for
computing a root of an equation", BIT 13, 1973): one vectorized evaluation
per step serves both edges, each solved to the tolerance given to the
tests' reference, scipy's brentq.

The Beurling function B is evaluated on two exact branches,

    B(x) = 1 + 2 (sin pi x / pi)^2 (1/x - psi'(1+x))      for x > -1/2
    B(x) = -1 + 2 (sin pi x / pi)^2 (psi'(-x) + 1/x)      for x <= -1/2

equal by the trigamma reflection formula, in one pass over the whole
array, in place, with one trigamma call at -x or 1 + x by branch: its
argument stays positive, and neither form's singular points (the negative
integers, x = 0) lie in its branch.  At integers sin(pi x) vanishes exactly
(x - round(x) is exact), so B(n) = sgn(n) for n != 0 needs no special case.

Every constructor also sets the exact Fourier transform, supported in
[-delta, delta]: Vaaler's closed form for the Selberg minorant (J. D.
Vaaler, "Some extremal functions in Fourier analysis", Bull. AMS 12, 1985),
a triangle for the Fejer kernel, and t0^2 g^ + g^''/(4 pi^2) for the windowed
kernel, where g^ is a scaled cubic B-spline.  Every function is even about
its ``centre``, 0 for the kernels and (alpha + beta)/2 for the Selberg
minorant, and the transform stored is that of its centred copy
f(. + centre): real, even, and for the minorant a function of beta - alpha
alone.  The pointwise explicit-formula term and ``fourier_at`` read only
this transform.  The Selberg minorant also records its window (alpha,
beta) as ``interval``, from which the certification search's private
Re mu = 0 evaluator ``explicit_formula.ell_grid`` builds its tail and the
column floor ``explicit_formula.ell_column_floor`` takes the transform
with its exact derivative on [0, delta] in one pass, `_selberg_jet`:
Vaaler's J^ and its derivative come from one v cot(pi v), folded at
|u| = 1/2, with the series of the derivative where its closed form
cancels, and the sinc's derivative likewise; the Fejer kernels record no
window.

Every decay envelope |f(t)| <= m/t^2 holds on both tails, |t| >= t0.  The
Fejer kernels' constants are closed forms.  The Selberg minorant's comes in
two parts.  Over the first lobes beyond t0, +-[t0, t1], t^2 |f| is sampled
64 times per period 1/delta and the sampled sup is inflated 5%: that part is
sampled, not proved.  Beyond t1 the sgn parts of the two Beurling terms
cancel, B(u) - sgn(u) = (1 - cos 2 pi u) w(u)/pi^2, and the trigamma bounds
1/x + 1/(2x^2) < psi'(x) < 1/x + 1/(2x^2) + 1/(6x^3) for x > 0 (H. Alzer,
"On some inequalities for the gamma and psi functions", Math. Comp. 66,
1997) give |w(u)| <= 1/(2u^2) + 1/(6|u|^3), hence a closed-form bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional, Tuple, Union

import numpy as np

from .errors import AccuracyError, DomainError
from .special_math import DecayEnvelope, _polygamma, trigamma_real

__all__ = [
    "TestFunction",
    "beurling",
    "fejer",
    "fourier_at",
    "selberg_minorant",
    "windowed_fejer",
]

EVERYWHERE = "everywhere"


@dataclass(frozen=True)
class TestFunction:
    """A test function admissible in the explicit formula.

    positivity_window is the open interval outside of which f <= 0, the
    string "everywhere" for nonnegative kernels, or None when no positive
    region could be confirmed.  It is solved on first read, by calling
    find_window, and cached; a function whose window is never read never
    solves for it.  So the Selberg minorant's AccuracyError for an edge
    that does not converge is raised by that first read, not by
    selberg_minorant.  envelope, solved on first read by find_envelope and
    cached the same way, declares |f(t)| <= M/t^2 for |t| >= T0, on both
    tails: in closed form for the Fejer kernels; for the Selberg minorant,
    M is the larger of a 5%-inflated sample of t^2 |f| over
    the first lobes beyond T0 and an analytic bound past them (see the
    module docstring).  f is even about centre, f(centre + t) =
    f(centre - t), and fourier_centred is the exact transform of its
    centred copy f(. + centre), xi -> f^(xi) e^{2 pi i xi centre}:
    vectorized, real, even, and zero for |xi| >= support_radius.  interval
    is the Selberg minorant's window (alpha, beta), None for the kernels;
    the lattice and the column floor take the minorant's closed forms from
    it, the floor its transform's derivative too (`_selberg_jet`).
    """

    value: Callable
    integral: float
    support_radius: float
    find_window: Callable[[], Union[Tuple[float, float], str, None]]
    find_envelope: Callable[[], DecayEnvelope]
    fourier_centred: Callable
    centre: float = 0.0
    label: str = ""
    interval: Optional[Tuple[float, float]] = None

    @cached_property
    def positivity_window(self) -> Union[Tuple[float, float], str, None]:
        return self.find_window()

    @cached_property
    def envelope(self) -> DecayEnvelope:
        return self.find_envelope()

    @property
    def even(self) -> bool:
        return self.centre == 0.0


def beurling(x):
    """Beurling's extremal majorant of sgn: entire of exponential type 2*pi,
    B(x) >= sgn(x) everywhere, with integral of B - sgn equal to 1."""
    arr = np.asarray(x, dtype=float)
    xv = arr.reshape(-1)
    # 0, nan and 0 < |x| < 1e-9, where 1/x overflows near subnormals, take
    # 1.0 in the pass and are patched after it to B = 1 + 2x + O(x^2)
    odd = ~(np.abs(xv) >= 1e-9)
    u = np.where(odd, 1.0, xv) if odd.any() else xv
    w = _beurling_w(u)
    # sgn + (2 s^2) w, s = sin(pi r)/pi with r = u - round(u) exact
    s = u - np.round(u)
    s *= np.pi
    np.sin(s, out=s)
    s /= np.pi
    s *= s
    s *= 2.0
    s *= w
    s += np.where(u <= -0.5, -1.0, 1.0)
    s[odd] = 1.0 + 2.0 * xv[odd]
    return float(s[0]) if arr.ndim == 0 else s.reshape(arr.shape)


def _beurling_w(u: np.ndarray) -> np.ndarray:
    # the module docstring's branches as B(u) = -+1 + 2 (sin pi u/pi)^2 w(u):
    # w(u) = psi'(-u) + 1/u for u <= -1/2, 1/u - psi'(1+u) above, from one
    # trigamma call, in place (u an array).  For |u| >= 1/2 that is
    # sgn(u) + (1 - cos 2 pi u)/pi^2 w(u)
    u = np.asarray(u, dtype=float)
    left = u <= -0.5
    w = u + 1.0
    np.negative(u, out=w, where=left)
    w = trigamma_real(w)
    np.negative(w, out=w, where=~left)
    w += 1.0 / u
    return w


def _beurling_w_deriv(u):
    # w'(u), its u^2 by C's pow, as a Python float's u**2, not numpy's square
    u = np.asarray(u, dtype=float)
    return -1.0 / np.float_power(u, 2.0) - _polygamma(2, np.where(u > 0, 1.0 + u, -u))


def _beurling_w_bounds(x: float) -> Tuple[float, float, float]:
    """Bounds on |w(u)|, |w'(u)| and |w''(u)| over |u| >= x >= 1/2 (this
    module's and `explicit_formula`'s docstrings): 1/(2x^2) + 1/(6x^3),
    2/x^3 and 6/x^4."""
    return 0.5 / x**2 + 1.0 / (6.0 * x**3), 2.0 / x**3, 6.0 / x**4


# edge tolerances: the tightest relative one scipy's brentq accepts, and an
# absolute one that only matters for an edge within about 1 of t = 0; an
# edge is done once its bracket is narrower than _XTOL + _RTOL |edge|
_RTOL = 4.0 * np.finfo(float).eps
_XTOL = 1e-15
# Anderson-Bjorck steps before an edge counts as unconverged (brentq's
# default cap); the minorant's edges took at most 6 on 2000 random windows
_MAX_STEPS = 100


def _bracketed_roots(value: Callable, a: np.ndarray, b: np.ndarray,
                     fa: np.ndarray, fb: np.ndarray) -> np.ndarray:
    """A sign change of value in each bracket [a[k], b[k]], all brackets at
    once: every step evaluates value once, on the unconverged brackets.

    fa and fb are value at a and b, of opposite signs or zero.  An endpoint
    whose value is exactly 0.0 is the root.  Otherwise each step takes the
    Anderson-Bjorck false-position point, moved at least half a tolerance
    inside the bracket so that every step shrinks it, and a bracket is done
    once narrower than _XTOL + _RTOL |x|, x its latest point, or when value
    vanishes there; x is returned.  AccuracyError if a bracket is not done
    after _MAX_STEPS steps.
    """
    a, b, fa, fb = (np.array(v, dtype=float) for v in (a, b, fa, fb))
    root = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    # b is always the latest point, a the other end of its bracket
    for _ in range(_MAX_STEPS):
        tol = _XTOL + _RTOL * np.abs(b)
        narrow = np.isnan(root) & (np.abs(b - a) < tol)
        root[narrow] = b[narrow]
        k = np.flatnonzero(np.isnan(root))
        if not k.size:
            return root
        lo, hi = np.minimum(a[k], b[k]) + 0.5 * tol[k], np.maximum(a[k], b[k]) - 0.5 * tol[k]
        c = np.minimum(np.maximum(b[k] - fb[k] * (b[k] - a[k]) / (fb[k] - fa[k]), lo), hi)
        fc = np.asarray(value(c), dtype=float)
        same = np.sign(fc) == np.sign(fb[k])
        # a kept twice in a row has its value scaled down, Anderson-Bjorck's
        # factor 1 - fc/fb, or Illinois' 1/2 when that is not positive
        m = 1.0 - fc / fb[k]
        fa[k] = np.where(same, fa[k] * np.where(m > 0.0, m, 0.5), fb[k])
        a[k] = np.where(same, a[k], b[k])
        b[k], fb[k] = c, fc
        root[k[fc == 0.0]] = c[fc == 0.0]
    raise AccuracyError(f"sign change not converged in {_MAX_STEPS} "
                        f"steps: bracket {a[k]} .. {b[k]}", best=b[k])


def _find_window(value: Callable, alpha: float, beta: float, delta: float):
    """Edges (lo, hi) of the positive part of S_-, or None if it has none.

    S_- <= 1_[alpha, beta] makes S_- <= 0 at and beyond both edges, and once
    delta L >= 2 (L = beta - alpha), S_-(alpha + 1/delta) = S_-(beta - 1/delta)
    = (1 - B(1 - delta L))/2 > 0.  So only the last lobe inside each edge,
    h = min(1/delta, L/2) wide, is sampled, and the sign changes before the
    first and after the last positive sample are bracketed and solved
    together by `_bracketed_roots`.  When delta L is an integer,
    S_-(alpha) = S_-(beta) = 0.0 exactly, and the edges are alpha and beta
    themselves."""
    h = min(1.0 / delta, 0.5 * (beta - alpha))
    # 256 steps per lobe: a positive run narrower than one step goes unseen
    grid = np.concatenate([np.linspace(alpha, alpha + h, 257),
                           np.linspace(beta - h, beta, 257)])
    vals = value(grid)
    pos = np.flatnonzero(vals > 0.0)
    if pos.size == 0:
        return None
    outside, inside = [pos[0] - 1, pos[-1] + 1], [pos[0], pos[-1]]
    lo, hi = _bracketed_roots(value, grid[outside], grid[inside],
                              vals[outside], vals[inside]).tolist()
    return (lo, hi)


def _vaaler_j(u: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    # J^(u) = (1 - |u|) pi u cot(pi u) + |u| on |u| < 1 and 0 beyond, and its
    # derivative in |u|, 0 at u = 0 from the right.  With phi(v) = v cot(pi v)
    # at v = |u| up to 1/2 and v = 1 - |u| beyond, where cot(pi |u|) =
    # -cot(pi v) turns the pole at |u| = 1 into phi's removable point 1/pi,
    # J^ = |u| + s pi m phi(v) and J^' = 1 - pi (phi(v) - m phi'(v)), with
    # m = 1 - |u| and s = 1 below 1/2, m = |u| and s = -1 above.  phi' =
    # cot w - w (1 + cot(w)^2) (w = pi v) cancels near 0, so below w = 0.06
    # it is the derivative of the series w cot w = 1 - w^2/3 - w^4/45 -
    # 2w^6/945 - w^8/4725 (DLMF 4.19.6), within 1e-13 relative there
    a = np.abs(u)
    v = np.maximum(np.minimum(a, 1.0 - a), 0.0)
    m = np.maximum(a, 1.0 - a)
    w = math.pi * v
    tan = np.tan(np.where(w == 0.0, 1.0, w))
    phi = np.where(w == 0.0, 1.0 / math.pi, v / tan)
    w2, cot = w * w, 1.0 / tan
    series = -w * (2.0 / 3.0 + w2 * (4.0 / 45.0 + w2 * (4.0 / 315.0 + w2 * (8.0 / 4725.0))))
    dphi = np.where(w < 0.06, series, cot - w * (1.0 + cot * cot))
    inside = a < 1.0
    return (np.where(inside, a + np.copysign(math.pi, 0.5 - a) * m * phi, 0.0),
            np.where(inside, 1.0 - math.pi * (phi - m * dphi), 0.0))


def _selberg_jet(length: float, delta: float, xi) -> Tuple[np.ndarray, np.ndarray]:
    """Vaaler's transform of the Selberg minorant of a centred window of
    this length, and its derivative, at each xi >= 0 of an array, in one
    pass: fhat is `TestFunction.fourier_centred`'s value bit for bit, and
    fhat' is d/dxi, 1/delta^2 at 0 (the right derivative) and zero from
    delta on.  With u = xi/delta and w = pi xi L, J^ contributes
    J^'(u)/delta, the sinc pi L d/dw (sin(w)/w), and -K^(u) cos(w)/delta,
    K^ = 1 - u, contributes cos(w)/delta^2 + pi L K^ sin(w)/delta."""
    xi = np.asarray(xi, dtype=float)
    u = xi / delta
    j, dj = _vaaler_j(u)
    k = np.maximum(1.0 - u, 0.0)
    sinc, w = np.sinc(xi * length), math.pi * xi * length
    cos = np.cos(w)
    fhat = j * length * sinc - k / delta * cos
    # d/dw sin(w)/w = (cos w - sin(w)/w)/w; below w = 0.1, where its terms
    # cancel, the derivative of the series of sin(w)/w, within 1e-14
    # relative there
    w2 = w * w
    series = -w * (1.0 / 3.0 - w2 * (1.0 / 30.0 - w2 * (1.0 / 840.0 - w2 / 45360.0)))
    d_sinc = np.where(w < 0.1, series, (cos - sinc) / np.where(w == 0.0, 1.0, w))
    d_fhat = (length * (dj * sinc + j * math.pi * length * delta * d_sinc)
              + cos / delta + math.pi * length * k * np.sin(w)) / delta
    return fhat, np.where(u < 1.0, d_fhat, 0.0)


# near-field sampling of t^2 |S(t)| on +-[t0, t1]: samples per lobe (one
# period 1/delta of the oscillation), and the first and last t1 - t0 in lobes
_LOBE_SAMPLES = 64
_NEAR_LOBES = (3, 7)


def _selberg_far_bound(alpha: float, beta: float, delta: float, t1: float) -> float:
    """Closed-form sup of t^2 |S(t)| over |t| >= t1, for t1 beyond both edges.

    There the sgn parts of the two Beurling terms cancel, and with
    |w(u)| <= 1/(2u^2) + 1/(6|u|^3) (module docstring)

        t^2 |S(t)| <= (t^2/pi^2) sum_edges [1/(2u^2) + 1/(6|u|^3)],

    u = delta (distance to the edge).  A term whose edge lies on the side of
    t decreases in |t| and is taken at t1; any other is at most
    1/(2 delta^2) + 1/(6 delta^3 t1)."""
    worst = 0.0
    for side in (1.0, -1.0):
        total = 0.0
        for edge in (side * alpha, side * beta):  # mirrored onto t > 0
            if edge >= 0.0:
                total += t1 * t1 * _beurling_w_bounds(delta * (t1 - edge))[0]
            else:
                total += 1.0 / (2.0 * delta**2) + 1.0 / (6.0 * delta**3 * t1)
        worst = max(worst, total)
    return worst / math.pi**2


def _selberg_envelope_m(value: Callable, alpha: float, beta: float, delta: float,
                        t0: float) -> float:
    """M with |S(t)| <= M/t^2 for |t| >= t0: the sampled sup of t^2 |S| on
    +-[t0, t1] inflated 5%, or the closed-form bound beyond t1 if larger.
    t1 grows a lobe at a time until the far bound is at most the sampled
    sup, or the last lobe of _NEAR_LOBES is reached."""
    step = 1.0 / (_LOBE_SAMPLES * delta)
    near, first = 0.0, 0
    for lobes in range(_NEAR_LOBES[0], _NEAR_LOBES[1] + 1):
        s = t0 + step * np.arange(first, lobes * _LOBE_SAMPLES + 1)
        ts = np.concatenate([s, -s])
        near = max(near, float(np.max(ts * ts * np.abs(value(ts)))))
        far = _selberg_far_bound(alpha, beta, delta, float(s[-1]))
        if far <= near:
            break
        first = lobes * _LOBE_SAMPLES + 1
    return max(1.05 * near, far)


def selberg_minorant(alpha: float, beta: float, delta: float) -> TestFunction:
    """Selberg's minorant of the indicator of [alpha, beta]:

        S_-(t) = -1/2 (B(delta (alpha - t)) + B(delta (t - beta)))

    S_- <= indicator everywhere, integral = beta - alpha - 1/delta exactly,
    Fourier transform supported in [-delta, delta].  The decay envelope
    holds on both tails: sampled over the first lobes, analytic beyond."""
    if not (-math.inf < alpha < beta < math.inf):
        raise DomainError("selberg_minorant requires finite alpha < beta")
    if not (0 < delta < math.inf):
        raise DomainError("selberg_minorant requires a finite delta > 0")
    if not math.isfinite(delta * (beta - alpha)):
        raise DomainError("selberg_minorant requires a finite delta (beta - alpha)")

    def value(t):
        tv = np.asarray(t, dtype=float)
        b = beurling(np.stack([delta * (alpha - tv), delta * (tv - beta)]))
        out = -0.5 * (b[0] + b[1])
        return float(out) if tv.ndim == 0 else out

    # Vaaler (1985), for the window centred at 0 (L = beta - alpha):
    # S^(xi) = J^(xi/delta) L sinc(xi L) - (1/delta) K^(xi/delta) cos(pi xi L),
    # K^(u) = (1 - |u|)_+; `_selberg_jet` adds the derivative
    length = beta - alpha

    def ft(x):
        xi = np.asarray(x, dtype=float)
        u = xi / delta
        return (_vaaler_j(u)[0] * length * np.sinc(xi * length)
                - np.maximum(1.0 - np.abs(u), 0.0) / delta * np.cos(math.pi * xi * length))

    t0_env = max(abs(alpha), abs(beta)) + 0.66 / delta
    return TestFunction(
        value=value,
        integral=beta - alpha - 1.0 / delta,
        support_radius=delta,
        find_window=lambda: _find_window(value, alpha, beta, delta),
        find_envelope=lambda: DecayEnvelope(
            m=_selberg_envelope_m(value, alpha, beta, delta, t0_env), t0=t0_env),
        centre=0.5 * (alpha + beta),
        interval=(alpha, beta),
        fourier_centred=ft,
        label=f"selberg[{alpha:g},{beta:g}]@{delta:g}",
    )


def fejer(delta: float) -> TestFunction:
    """Fejer kernel (sin(pi delta t)/(pi delta t))^2: nonnegative, integral
    1/delta, triangular Fourier transform supported in [-delta, delta]."""
    if not (0 < delta < math.inf):
        raise DomainError("fejer requires a finite delta > 0")

    def value(t):
        s = np.sinc(delta * np.asarray(t, dtype=float))
        return s * s

    def ft(x):
        xv = np.abs(np.asarray(x, dtype=float))
        return np.where(xv <= delta, (1.0 - xv / delta) / delta, 0.0)

    return TestFunction(
        value=value,
        integral=1.0 / delta,
        support_radius=delta,
        find_window=lambda: EVERYWHERE,
        find_envelope=lambda: DecayEnvelope(m=1.0 / (math.pi * delta) ** 2, t0=1.0 / delta),
        fourier_centred=ft,
        label=f"fejer@{delta:g}",
    )


def windowed_fejer(t0: float, delta: float) -> TestFunction:
    """Sign-controlled kernel (t0^2 - t^2) (sin(pi delta t/2)/(pi delta t/2))^4.

    Positive exactly on (-t0, t0), nonpositive outside, Fourier transform
    supported in [-delta, delta] (the fourth power halves the per-factor
    bandwidth, so two sinc^2 windows of radius delta/2 convolve to delta;
    the t^2 multiplier differentiates the transform without widening it).
    Unlike the bare Fejer kernel, the fourth power decays fast enough that
    the t0^2 - t^2 window leaves the function integrable with quadratic
    decay, as the explicit formula requires.
    """
    if not (0 < t0 < math.inf and 0 < delta < math.inf):
        raise DomainError("windowed_fejer requires finite t0 > 0 and delta > 0")

    def value(t):
        tv = np.asarray(t, dtype=float)
        s = np.sinc(0.5 * delta * tv)
        return (t0 * t0 - tv * tv) * s**4

    # closed form: int (t0^2 - t^2) sinc^4(delta t / 2) dt
    #            = (4 t0^2)/(3 delta) - 4/(pi^2 delta^3)
    integral = 4.0 * t0 * t0 / (3.0 * delta) - 4.0 / (math.pi**2 * delta**3)

    # sinc^4(a t) has transform g^(xi) = M4(xi/a)/a, a = delta/2, with the
    # centred cubic B-spline M4(s) = ((2 - |s|)_+^3 - 4 (1 - |s|)_+^3)/6;
    # multiplying by t^2 maps g^ to -g^''/(4 pi^2)
    a = 0.5 * delta

    def ft(x):
        s = np.abs(np.asarray(x, dtype=float)) / a
        p2, p1 = np.maximum(2.0 - s, 0.0), np.maximum(1.0 - s, 0.0)
        m4 = (p2**3 - 4.0 * p1**3) / 6.0
        m4_dd = p2 - 4.0 * p1
        return t0 * t0 * m4 / a + m4_dd / (4.0 * math.pi**2 * a**3)

    # beyond 2 t0: (t^2 - t0^2) sinc^4 <= t^2 (2/(pi delta t))^4
    m_env = 16.0 / (math.pi * delta) ** 4
    return TestFunction(
        value=value,
        integral=integral,
        support_radius=delta,
        find_window=lambda: (-t0, t0),
        find_envelope=lambda: DecayEnvelope(m=m_env, t0=2.0 * t0),
        fourier_centred=ft,
        label=f"windowed_fejer@{t0:g},{delta:g}",
    )


def fourier_at(f: TestFunction, x, tol: float = 1e-7):
    """Re f^(x), f^(x) = int f(u) e^{-2 pi i u x} du, at each point of x: a
    scalar x gives a Python float, an array an array.  f is its centred
    copy translated by centre, so Re f^(x) = fourier_centred(x)
    cos(2 pi x centre), exact to rounding.  tol does not affect it; it stays
    because perfbench/make_references.py passes one positionally.
    """
    xs = np.asarray(x, dtype=float)
    out = f.fourier_centred(xs) * np.cos(2.0 * math.pi * f.centre * xs)
    return float(out) if np.ndim(x) == 0 else out
