"""Beurling-Selberg extremal functions and Fejer-type kernels.

Every constructor returns a TestFunction: a real-valued function on the
line with quadratic decay, compactly supported Fourier transform, a known
integral, and a positivity window (the interval outside of which the
function is <= 0, or "everywhere" for nonnegative kernels).

The Beurling function B is evaluated on two exact branches,

    B(x) = 1 + 2 (sin pi x / pi)^2 (1/x - psi'(1+x))      for x > -1/2
    B(x) = -1 + 2 (sin pi x / pi)^2 (psi'(-x) + 1/x)      for x <= -1/2

which are equal by the trigamma reflection formula.  The split keeps the
trigamma argument positive and keeps each branch well conditioned on its
domain: the only singular points of the first form are the negative
integers and of the second form x = 0, and neither lies in the branch that
would evaluate it.  At integers sin(pi x) vanishes exactly (the reduction
x - round(x) is exact in floating point), so B(n) = sgn(n) for integer
n != 0 falls out with no special casing.

Every constructor also sets the exact Fourier transform, supported in
[-delta, delta]: Vaaler's closed form for the Selberg minorant (J. D.
Vaaler, "Some extremal functions in Fourier analysis", Bull. AMS 12, 1985),
a triangle for the Fejer kernel, and t0^2 g^ + g^''/(4 pi^2) for the windowed
kernel, where g^ is a scaled cubic B-spline.  The pointwise explicit-formula
term and ``fourier_at`` read only this transform.  The Selberg minorant is
also carried beyond its last sign change as an explicit tail decomposition
(smooth part plus amplitude-times-cosine components with derivative bounds)
for the lattice evaluator ``explicit_formula.ell_grid``, which certification
runs on it alone; the Fejer kernels carry only their decay envelope.

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
from typing import Callable, Tuple, Union

import numpy as np
from scipy.optimize import brentq

from .errors import DomainError
from .special_math import (
    DecayEnvelope,
    OscComponent,
    TailDecomposition,
    trigamma_real,
    _tetragamma_real,
)

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
    region could be confirmed.  envelope declares |f(t)| <= M/t^2 for
    |t| >= T0, on both tails: in closed form for the Fejer kernels; for the
    Selberg minorant, M is the larger of a 5%-inflated sample of t^2 |f| over
    the first lobes beyond T0 and an analytic bound past them (see the
    module docstring), and the envelope also carries the structured tail.
    fourier_closed is the exact transform xi -> f^(xi), vectorized, complex
    in general and zero for |xi| >= support_radius.
    """

    value: Callable
    integral: float
    support_radius: float
    positivity_window: Union[Tuple[float, float], str, None]
    envelope: DecayEnvelope
    fourier_closed: Callable
    even: bool = True
    label: str = ""


def _sinpi_over_pi_sq(x: np.ndarray) -> np.ndarray:
    # (sin(pi x)/pi)^2 with exact period-1 argument reduction
    r = x - np.round(x)
    s = np.sin(np.pi * r) / np.pi
    return s * s


def beurling(x):
    """Beurling's extremal majorant of sgn: entire of exponential type 2*pi,
    B(x) >= sgn(x) everywhere, with integral of B - sgn equal to 1."""
    arr = np.asarray(x, dtype=float)
    scalar = arr.ndim == 0
    xv = np.atleast_1d(arr).astype(float)
    out = np.empty(xv.shape)
    s2 = _sinpi_over_pi_sq(xv)

    zero = xv == 0.0
    tiny = ~zero & (np.abs(xv) < 1e-9)  # 1/x overflows near subnormals
    right = (xv > -0.5) & ~zero & ~tiny
    left = xv <= -0.5

    out[zero] = 1.0
    out[tiny] = 1.0 + 2.0 * xv[tiny]  # B = 1 + 2x + O(x^2)
    if right.any():
        xr = xv[right]
        out[right] = 1.0 + 2.0 * s2[right] * (1.0 / xr - trigamma_real(1.0 + xr))
    if left.any():
        xl = xv[left]
        out[left] = -1.0 + 2.0 * s2[left] * (trigamma_real(-xl) + 1.0 / xl)
    return float(out[0]) if scalar else out.reshape(arr.shape)


def _beurling_w(u: np.ndarray) -> np.ndarray:
    # B(u) = sgn(u) + (1 - cos 2 pi u)/pi^2 * w(u) for |u| >= 1/2;
    # w(u) = 1/u - psi'(1+u) on u > 0 and psi'(-u) + 1/u on u < 0.
    u = np.asarray(u, dtype=float)
    out = np.empty(u.shape)
    pos = u > 0
    if pos.any():
        out[pos] = 1.0 / u[pos] - trigamma_real(1.0 + u[pos])
    if (~pos).any():
        un = u[~pos]
        out[~pos] = trigamma_real(-un) + 1.0 / un
    return out


def _beurling_w_deriv(u: float) -> float:
    if u > 0:
        return -1.0 / u**2 - float(_tetragamma_real(1.0 + u))
    return -float(_tetragamma_real(-u)) - 1.0 / u**2


# envelope constants for w, valid for |u| >= 1 (endpoint values
# |w(-1)| = pi^2/6 - 1 ~ 0.645, |w'(-1)| ~ 1.404, |w''(-1)| ~ 4.49,
# decaying like 1/(2u^2), 1/u^3, 3/u^4)
_W_BOUND = 0.70
_DW_BOUND = 1.60
_DDW_BOUND = 5.00


# edge tolerances: the tightest relative one brentq accepts, and an
# absolute one that only matters for an edge within about 1 of t = 0
_RTOL = 4.0 * np.finfo(float).eps
_XTOL = 1e-15


def _find_window(value: Callable, alpha: float, beta: float, delta: float):
    """Edges (lo, hi) of the positive part of S_-, or None if it has none.

    S_- <= 1_[alpha, beta] makes S_- <= 0 at and beyond both edges, and once
    delta L >= 2 (L = beta - alpha), S_-(alpha + 1/delta) = S_-(beta - 1/delta)
    = (1 - B(1 - delta L))/2 > 0.  So only the last lobe inside each edge,
    h = min(1/delta, L/2) wide, is sampled, and brentq brackets the sign
    changes before the first and after the last positive sample.  When
    delta L is an integer, S_-(alpha) = S_-(beta) = 0.0 exactly, and brentq
    returns the edge itself."""
    h = min(1.0 / delta, 0.5 * (beta - alpha))
    # 256 steps per lobe: a positive run narrower than one step goes unseen
    grid = np.concatenate([np.linspace(alpha, alpha + h, 257),
                           np.linspace(beta - h, beta, 257)])
    pos = np.flatnonzero(value(grid) > 0.0)
    if pos.size == 0:
        return None
    i, j = pos[0], pos[-1]
    lo = brentq(value, grid[i - 1], grid[i], xtol=_XTOL, rtol=_RTOL)
    hi = brentq(value, grid[j], grid[j + 1], xtol=_XTOL, rtol=_RTOL)
    return (lo, hi)


def _u_cot_pi_u(u: np.ndarray) -> np.ndarray:
    # u cot(pi u) for |u| <= 1/2, with its removable value 1/pi at u = 0
    safe = np.where(u == 0.0, 1.0, u)
    return np.where(u == 0.0, 1.0 / math.pi, safe / np.tan(math.pi * safe))


def _vaaler_j(u: np.ndarray) -> np.ndarray:
    # J^(u) = (1 - |u|) pi u cot(pi u) + |u| on |u| < 1 and 0 beyond.  For
    # |u| > 1/2 the identity cot(pi |u|) = -cot(pi v), v = 1 - |u|, turns the
    # cotangent's pole at |u| = 1 into the removable point of v cot(pi v).
    a = np.abs(u)
    near = (1.0 - a) * math.pi * _u_cot_pi_u(np.minimum(a, 0.5)) + a
    far = a - math.pi * a * _u_cot_pi_u(np.clip(1.0 - a, 0.0, 0.5))
    return np.where(a <= 0.5, near, np.where(a < 1.0, far, 0.0))


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
                d = delta * (t1 - edge)
                total += t1 * t1 * (1.0 / (2.0 * d * d) + 1.0 / (6.0 * d**3))
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
    if not (alpha < beta):
        raise DomainError("selberg_minorant requires alpha < beta")
    if not (delta > 0):
        raise DomainError("selberg_minorant requires delta > 0")

    def value(t):
        tv = np.asarray(t, dtype=float)
        return -0.5 * (beurling(delta * (alpha - tv)) + beurling(delta * (tv - beta)))

    window = _find_window(value, alpha, beta, delta)

    # tail structure for |t| >= t_valid: both Beurling arguments have
    # modulus >= 1.5 there, so the w-form of B applies on both sides
    s_max = max(abs(alpha), abs(beta))
    t_valid = s_max + 1.5 / delta
    omega = 2.0 * math.pi * delta
    half = 1.0 / (2.0 * math.pi**2)

    def ua(t):
        return delta * (alpha - np.asarray(t, dtype=float))

    def ub(t):
        return delta * (np.asarray(t, dtype=float) - beta)

    def smooth(t):
        return -half * (_beurling_w(ua(t)) + _beurling_w(ub(t)))

    def q_a(t):
        return half * _beurling_w(ua(t))

    def dq_a(t):
        return -half * delta * _beurling_w_deriv(float(ua(t)))

    def q_b(t):
        return half * _beurling_w(ub(t))

    def dq_b(t):
        return half * delta * _beurling_w_deriv(float(ub(t)))

    # |u| >= kappa * delta * |t| for |t| >= t_valid converts u-space decay
    # bounds into t-space constants
    kappa = 1.5 / (delta * t_valid)
    c_q = half * _W_BOUND / (delta * kappa) ** 2
    c_dq = half * delta * _DW_BOUND / (delta * kappa) ** 3
    c_ddq = half * delta**2 * _DDW_BOUND / (delta * kappa) ** 4
    tail = TailDecomposition(
        t_valid=t_valid,
        smooth=smooth, c_p=2.0 * c_q,
        components=(
            OscComponent(q_a, dq_a, omega, -omega * alpha, c_q, c_dq, c_ddq),
            OscComponent(q_b, dq_b, omega, -omega * beta, c_q, c_dq, c_ddq),
        ),
    )

    # Vaaler (1985): S^(xi) = J^(xi/delta) chi^(xi)
    #   - (1/delta) K^(xi/delta) cos(pi xi L) e^{-pi i xi (alpha + beta)},
    # chi^(xi) = L sinc(xi L) e^{-pi i xi (alpha + beta)}, K^(u) = (1 - |u|)_+
    length, centre = beta - alpha, alpha + beta

    def ft(x):
        xi = np.asarray(x, dtype=float)
        u = xi / delta
        body = (_vaaler_j(u) * length * np.sinc(xi * length)
                - np.maximum(1.0 - np.abs(u), 0.0) / delta * np.cos(math.pi * xi * length))
        return body * np.exp(-1j * math.pi * centre * xi)

    t0_env = s_max + 0.66 / delta
    m_env = _selberg_envelope_m(value, alpha, beta, delta, t0_env)
    envelope = DecayEnvelope(m=m_env, t0=t0_env, tail=tail)

    return TestFunction(
        value=value,
        integral=beta - alpha - 1.0 / delta,
        support_radius=delta,
        positivity_window=window,
        envelope=envelope,
        even=(alpha == -beta),
        fourier_closed=ft,
        label=f"selberg[{alpha:g},{beta:g}]@{delta:g}",
    )


def fejer(delta: float) -> TestFunction:
    """Fejer kernel (sin(pi delta t)/(pi delta t))^2: nonnegative, integral
    1/delta, triangular Fourier transform supported in [-delta, delta]."""
    if not (delta > 0):
        raise DomainError("fejer requires delta > 0")

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
        positivity_window=EVERYWHERE,
        envelope=DecayEnvelope(m=1.0 / (math.pi * delta) ** 2, t0=1.0 / delta),
        even=True,
        fourier_closed=ft,
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
    if not (t0 > 0 and delta > 0):
        raise DomainError("windowed_fejer requires t0 > 0 and delta > 0")

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
        positivity_window=(-t0, t0),
        envelope=DecayEnvelope(m=m_env, t0=2.0 * t0),
        even=True,
        fourier_closed=ft,
        label=f"windowed_fejer@{t0:g},{delta:g}",
    )


def fourier_at(f: TestFunction, x: float, tol: float = 1e-7) -> float:
    """Re f^(x), f^(x) = int f(u) e^{-2 pi i u x} du, from the closed form.

    The value is exact to rounding; tol is accepted for the callers that
    pass a quadrature tolerance and does not affect the result.
    """
    return float(np.real(f.fourier_closed(x)))
