"""Weil-type explicit formula: archimedean integrals, conductor and prime
terms, zero-side sums, and end-to-end consistency reports.

The archimedean term for a spectral parameter mu and test function f is

    ell(mu, f) = Re int psi(z + it/2) f(t) dt - fhat(0) log pi,
    z = 1/4 + mu/2

(the `halved` convention, the one implied by Gamma_R(s + mu) =
pi^{-(s+mu)/2} Gamma((s+mu)/2)); the `literal` convention uses
z = 1/4 + mu instead, so ell_literal(mu) = ell_halved(2 mu) identically,
which is what makes the certification verdict insensitive to the
convention: mu -> 2 mu maps the closed right half-plane onto itself.
`convention_scale` is the one place that maps a convention name to that
factor (1 or 2); `ell_grid` takes halved parameters only, and the
certification search scales its row by that factor.

`ell` evaluates the integral on the frequency side.  Gauss's integral
psi(w) = int_0^inf [e^-x/x - e^-wx/(1 - e^-x)] dx (DLMF 5.9.13), integrated
against f and split at fhat(0), gives for Re z > 0 the frequency-side
explicit formula (Iwaniec-Kowalski, Analytic Number Theory, 5.5) in the form

    ell = fhat(0) (Re psi(z) - log pi) + Re I(z),
    I(z) = int_0^inf e^-zx g(x)/(1 - e^-x) dx,   g(x) = fhat(0) - fhat(x/4 pi):

every transform vanishes for |xi| >= delta, so past X = 4 pi delta, g is
fhat(0).  g vanishes at 0, so unlike the unsplit form's fhat(0) e^-x/x the
integrand stays finite there.  A test function even about centre != 0
goes through its centred copy, ell(mu, f) = ell(mu + i centre,
f(. + centre)) in halved units, whose real transform
`TestFunction.fourier_centred` is all that `ell` reads of it, or its
`fourier_pieces`.  `ell` takes I(z) on one route per kernel: the closed
form for a kernel with `fourier_pieces`, the panel rule for any other.

The panel rule, for the Selberg minorant.  With h = g/(1 - e^-x) and
Y = max(X, 1), I(z) = int_0^Y e^-zx h(x) dx + fhat(0) sum_{k>=0}
e^-(z+k)Y/(z+k), the series being the integral of fhat(0) e^-zx/(1 - e^-x)
from Y on.  h is real, so the integrand's real part is
e^{-Re z x} cos(Im z x) h(x), computed in real arithmetic.  The integral
takes fixed Gauss-Legendre panels with X/2 and X as edges, two per period
of e^{-i Im z x}, so that the cost is linear in |Im mu|, and graded toward
0 when e^{-Re z x} decays within the first one.  The 48-point rule gives
the value, the 24-point rule its error estimate.  Each mu keeps its own
panels, all panels of the batch share one evaluation of fhat and of
e^{-zx} h (in blocks of `_PANEL_BLOCK` panels), and each mu's value is
reduced from its own panel sums alone.

The closed form, for the Fejer kernels at any support.  Their g is a sum
of truncated powers c_jm (x - a_j)_+^m, m = 1, 2, 3, at the knots a_j = 0,
X/2, X (`TestFunction.fourier_pieces` in xi = x/4 pi), and

    int_0^inf e^-zx (x - a)_+^m/(1 - e^-x) dx = m! sum_{k>=0} e^-(z+k)a (z+k)^-(m+1),

which at a = 0 is m! zeta(m+1, z) = (-1)^(m+1) psi^(m)(z) (DLMF 25.11.25,
5.15.1), and for a > 0 a sum whose terms fall by e^-a each, so that its
first ceil(37/a) terms reach 1e-16.  So ell is fhat(0) Re psi(z) and nine
such terms, from one polygamma jet (`special_math._polygamma` at orders 0
to 3) and one geometric sum per knot, both shared by every kernel of the
call.  Where |z| is small the truncated powers cancel: at nu = 0 the
windowed kernel's terms reach 8e6 against ell ~ -2601.  So the n shifts k
with |z + k| X < 3 (`_NEAR_SHIFT`) are taken apart.  With G(s) =
int_0^inf g e^-sx dx, I(z) = sum_{k<n} G(z + k) + I(z + n), and with
psi(z) = psi(z + n) - sum_{k<n} 1/(z + k) (DLMF 5.5.2),

    fhat(0) psi(z) + I(z) = fhat(0) psi(z + n) + I(z + n)
                            - int_0^X fhat(x/4 pi) e^-zx sum_{k<n} e^-kx dx,

whose last integral the 24-point Gauss-Legendre rule on [0, X/2] and
[X/2, X] takes exactly up to rounding: fhat is a cubic on each, and
|z + k| X/2 < 3/2 there.  The cost does not grow with |Im mu|, and only
rounding is left, which `ell` estimates as an ulp of the sum of the
magnitudes of the terms.  The geometric sums take ceil(74/X) terms per
mu (589 at delta = 0.01), and `_MAX_SUM_TERMS` caps them per call.

`ell` takes one mu or a 1-d array of them, and on either route each mu's
value comes from its own terms alone, so that ell(mus)[i] is
bit-identical to ell(mus[i]).  A tuple of kernels with `fourier_pieces`,
one support radius and one centre, as the scan's two are, takes one
closed-form pass in one kernel's order of operations, so that each row
is bit-identical to its kernel's own call.

One integration by parts bounds ell below point by point.  With a = Re z
and y = Im z, h is absolutely continuous on [0, Y], so the integral is
(h(0+) - e^-zY h(Y-) + int_0^Y e^-zx h' dx)/z, and with the series
bounded alike,

    ell >= G(a, y) = fhat(0) (Re psi(z) - log pi) - C(a)/|z|,

C(a) being |h(0+)| + e^-aY |h(Y-)| plus a bound of int_0^Y e^-ax |h'| and
the series' bound.  C(a) falls as a grows, so `ell_column_floor` takes
C(1/4), a bound on the whole closed half-plane.  G rises with |y|, so on
the Re mu = 0 row, the only one the certification search evaluates
(`certification` module docstring), it evaluates only the leading Im-mu
columns whose G does not clear its incumbent: 66 of the headline grid's
801.  h' comes in closed form from the transform and its derivative,
taken together at the floor's nodes by the Selberg minorant's
`extremal._selberg_jet`, and the integral of e^-ax |h'| is bounded by
Cauchy-Schwarz on fixed equal panels, which integrate the smooth
e^-ax h'^2 and never look for the kinks of |h'|.

`ell_grid` is the certification search's private evaluator of the
Re mu = 0 row, on a time-domain lattice; its docstring holds the method.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from decimal import Decimal, localcontext
from functools import lru_cache
from typing import Callable, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AccuracyError, DomainError, IncompletenessError
from .extremal import (
    TestFunction,
    _beurling_w,
    _beurling_w_bounds,
    _beurling_w_deriv,
    _selberg_jet,
    fourier_at,
)
from .lfunctions import LFunctionData, FunctionalEquation, LogDerivativeCoefficients
from .special_math import _polygamma, _re_digamma, digamma

__all__ = [
    "CONVENTIONS",
    "ColumnFloor",
    "ExplicitFormulaReport",
    "convention_scale",
    "ell",
    "ell_column_floor",
    "rhs",
    "verify",
    "zero_sum",
]

LOG_PI = math.log(math.pi)
TWO_PI = 2.0 * math.pi
PRIME_FREE_RADIUS = math.log(2.0) / TWO_PI  # support below this kills the prime sum


def _check_prime_free(delta: float) -> None:
    """DomainError unless 0 < delta <= PRIME_FREE_RADIUS, the largest
    aperture whose transforms miss every prime power: the prime sum then
    vanishes whatever the coefficients."""
    if not 0.0 < delta <= PRIME_FREE_RADIUS + 1e-15:
        raise DomainError(
            f"delta must lie in (0, log2/(2 pi) ~ {PRIME_FREE_RADIUS:.10g}] so the "
            "prime sum vanishes"
        )


def _step_count(top: float, step: float) -> int:
    """The number of points of the grid 0, step, 2 step, ... through top
    (and a 1e-9 step beyond)."""
    return int(math.floor(top / step + 1e-9)) + 1


def _step_grid(top: float, step: float) -> np.ndarray:
    """The grid 0, step, 2 step, ... through top (and a 1e-9 step beyond)."""
    return step * np.arange(_step_count(top, step))


CONVENTIONS = ("halved", "literal")

# the certification lattice: Simpson spacing in t, and the error budget per
# grid value that fixes the oscillatory cutoff and the smooth-tail length
_LATTICE_H = 0.0625
_GRID_TOL = 2.5e-4
# the largest row the certification search takes, in values, and the
# largest lattice, in entries (Simpson nodes plus Im shifts), so that no
# array of the search passes 64 MiB
_MAX_GRID_VALUES = 1 << 20
_MAX_LATTICE = 1 << 23

# ell: points per panel of its error-estimating rule (the value's has twice
# as many), and panels per block of work, which bounds memory at large |Im mu|
_NODES = 24
_PANEL_BLOCK = 2048
# ell: the most panels one call may take, beyond which it raises DomainError.
# A panel of the Selberg minorant at delta0 costs 5-7 us (2 cores, numpy
# 2.4, |Im mu| = 2e5-4e5), so a call stays under about 1 s; it takes about
# 0.22 |Im mu| panels per mu, so a single mu may reach |Im mu| ~ 5e5
_MAX_PANELS = 120_000
# ell's closed form: the most geometric-sum terms one call may take,
# ceil(74/X) per mu, beyond which it raises DomainError (128 B a term under
# tracemalloc, so 64 MiB, the certification search's own limit); and the
# shifts k with |z + k| X < _NEAR_SHIFT go to the quadrature, where the
# truncated powers would cancel
_MAX_SUM_TERMS = 1 << 19
_NEAR_SHIFT = 3.0
# the closed form's unit per coefficient: 1 for fhat(0), then (4 pi)^-m for
# c_jm (TestFunction.fourier_pieces), xi = x/4 pi
_PIECE_UNITS = np.array([1.0] + [(4.0 * math.pi) ** -m for m in (1, 2, 3)] * 3)
# rhs: the largest n of the prime sum, past which n is no longer exact in a
# float
_MAX_PRIME_N = 2**53
# ell_column_floor: equal panels per span of ell's integral, and the
# rounding allowance of h' in ulps of the magnitudes that enter it
_FLOOR_PANELS = 16
_H_DERIV_ULPS = 2.0


def convention_scale(convention: str) -> int:
    """The factor k with ell(mu, f, convention) = ell(k mu, f, "halved"):
    1 for `halved`, 2 for `literal`.  Doubling a float is exact, so mapping
    a literal mu or grid through k loses nothing."""
    if convention not in CONVENTIONS:
        raise DomainError(f"unknown convention {convention!r}; use halved or literal")
    return 2 if convention == "literal" else 1


def ell(mu, f: Union[TestFunction, Tuple[TestFunction, ...]], convention: str = "halved",
        tol: float = 1e-8) -> Union[float, np.ndarray]:
    """Archimedean explicit-formula term for one Gamma factor, in the split
    form of the module docstring, at a scalar mu (a float is returned) or at
    each entry of a 1-d array of mu (an array is returned).  Every mu must be
    finite with Re mu >= 0, and tol finite and positive.  The values do not
    depend on tol, and ell(mus)[i] is bit-identical to ell(mus[i]) whatever
    else is in the batch.

    Each kernel takes one of the module docstring's routes.  A kernel with
    `TestFunction.fourier_pieces`, the Fejer and windowed Fejer kernels,
    takes the closed form at any support: its cost does not depend on mu,
    and only rounding is left, estimated as an ulp of the sum of the
    magnitudes of its terms, so AccuracyError there says only that tol is
    below that rounding (1e-14 at a value near 2.6e3, one ulp being
    4.5e-13); a call whose geometric sums would take more than
    `_MAX_SUM_TERMS` terms raises DomainError before building any array.
    Every other kernel, the Selberg minorant above all, takes the panel
    rule: tol bounds the error of each integral, estimated from the 24-
    against the 48-point rule plus the rounding of the sum, and the cost is
    linear in the total number of panels, about 2 + 4 delta |Im z| per mu
    for a transform supported in [-delta, delta]; a call that would need
    more than `_MAX_PANELS` raises DomainError before building any panel.
    AccuracyError carries the value or the array of values as `best`.

    f may also be a nonempty tuple of k kernels with fourier_pieces, one
    support_radius and one centre, which share the polygamma jet and the
    geometric sums: the result then has one row per kernel, shape (k,) for
    a scalar mu and (k, n) for a 1-d one, and row i is bit-identical to
    ell(mu, f[i]).  A single f is the case k = 1.  tol holds for each
    kernel at each mu; AccuracyError's `best` is then the (k,) or (k, n)
    array, and its message names the mu and the kernel's label.  Any other
    tuple raises DomainError before any work.
    """
    single = not isinstance(f, tuple)
    kernels = (f,) if single else f
    if not kernels:
        raise DomainError("ell needs a test function or a nonempty tuple of them")
    head, closed = kernels[0], all(g.fourier_pieces is not None for g in kernels)
    if not (single or (closed and all((g.support_radius, g.centre)
                                      == (head.support_radius, head.centre) for g in kernels))):
        raise DomainError("the test functions of a tuple must share support_radius and centre, "
                          "and each needs fourier_pieces for the closed form")
    scale, mus = convention_scale(convention), np.asarray(mu, dtype=complex)
    if mus.ndim > 1:
        raise DomainError(f"mu must be a scalar or a 1-d array, got shape {mus.shape}")
    points = mus.reshape(-1).tolist()
    if not all(map(cmath.isfinite, points)):
        raise DomainError("ell requires finite mu")
    if not 0 < tol < math.inf:
        raise DomainError(f"ell requires a finite tol > 0, got {tol!r}")
    # z of the centred copies, at mu + i centre in halved units
    z = []
    for m in points:
        if m.real < -1e-12:
            raise DomainError(f"ell requires Re(mu) >= 0, got {m!r}")
        z.append(complex(0.25 + 0.5 * (scale * max(m.real, 0.0)),
                         0.5 * (scale * m.imag + head.centre)))
        if not cmath.isfinite(z[-1]):
            raise DomainError(f"ell at mu = {m!r}: z = 1/4 + mu/2 in halved units overflows")
    z = np.array(z, dtype=complex)
    big_x = 4.0 * math.pi * head.support_radius

    value, err = (_ell_closed(z, kernels, big_x) if closed
                  else _ell_panels(z, points, head, big_x))
    best = value[:, 0] if mus.ndim == 0 else value
    if single:
        best = float(best[0]) if mus.ndim == 0 else best[0]
    if (err > tol).any():
        k, worst = np.unravel_index(np.argmax(err), err.shape)
        raise AccuracyError(f"ell quadrature error {err[k, worst]:.3e} > tol {tol:.3e} "
                            f"at mu = {points[worst]!r} for kernel {kernels[k].label!r}",
                            best=best)
    return best


def _ell_panels(z: np.ndarray, points: list, f: TestFunction,
                big_x: float) -> Tuple[np.ndarray, np.ndarray]:
    """ell and its error estimate, as one row, on the panel rule (module
    docstring); DomainError past `_MAX_PANELS` before any panel."""
    x_end = max(big_x, 1.0)  # Y
    spans = _ell_spans(big_x, x_end)
    # every mu's panels in one list, with the index of its first panel
    z_panel, lo, hi, starts = [], [], [], []
    n_panels = 0
    for m, zm in zip(points, z.tolist()):
        # counted before any list is built, so a huge |Im mu| fails at once
        n_panels += sum(_span_panels(spans, zm.imag))
        if n_panels > _MAX_PANELS:
            raise DomainError(f"ell at mu = {m!r} needs more than {_MAX_PANELS} panels in one "
                              "call: |Im mu| is too large for the panel rule")
        edges = _ell_edges(zm, spans, x_end)
        starts.append(len(lo))
        z_panel += [zm] * (len(edges) - 1)
        lo += edges[:-1]
        hi += edges[1:]
    if not starts:
        return np.empty((1, 0)), np.empty((1, 0))
    z_panel, lo = np.array(z_panel), np.array(lo)
    re_panel, im_panel = z_panel.real[:, None], z_panel.imag[:, None]
    width = np.array(hi) - lo
    x_unit, w_unit = _unit_gauss(_NODES, 2 * _NODES)
    # the coarse, value and |value| rules per panel
    sums = np.empty((3, len(lo)))
    for i in range(0, len(lo), _PANEL_BLOCK):
        block = slice(i, i + _PANEL_BLOCK)
        x = lo[block, None] + width[block, None] * x_unit
        # Re[e^-zx h(x)] with h real; fhat(0) comes from the same transform
        # call, so that fhat(0) - fhat vanishes at x = 0 in floating point
        # too and h stays bounded there
        fhat = f.fourier_centred(np.concatenate(([0.0], x.ravel())) / (4.0 * math.pi))
        f0 = float(fhat[0])
        weight = width[block, None] * w_unit
        damp = np.exp(-re_panel[block] * x) * np.cos(im_panel[block] * x)
        terms = weight * (damp * (f0 - fhat[1:].reshape(x.shape)) / -np.expm1(-x))
        sums[0, block] = terms[:, :_NODES].sum(axis=1)
        sums[1, block] = terms[:, _NODES:].sum(axis=1)
        sums[2, block] = np.abs(terms[:, _NODES:]).sum(axis=1)
    # each mu's totals come from its own panel sums alone, whatever the batch
    coarse, integral, mass = np.add.reduceat(sums, starts, axis=1)
    err = np.abs(integral - coarse) + math.ulp(1.0) * mass

    series = _series(z, x_end).real
    return (f0 * (_polygamma(0, z).real - LOG_PI + series) + integral)[None], err[None]


def _ell_closed(z: np.ndarray, kernels: Sequence[TestFunction],
                big_x: float) -> Tuple[np.ndarray, np.ndarray]:
    """ell and its rounding estimate, one row per kernel, in closed form
    from each kernel's fourier_pieces (module docstring); DomainError past
    `_MAX_SUM_TERMS` before any array."""
    n_terms = math.ceil(74.0 / big_x)
    if len(z) * n_terms > _MAX_SUM_TERMS:
        raise DomainError(f"ell's closed form at {len(z)} mu needs {n_terms} terms per mu, more "
                          f"than {_MAX_SUM_TERMS} in one call: the support is too narrow")
    # n: the shifts k with |z + k| X < _NEAR_SHIFT, which the quadrature takes
    reach = _NEAR_SHIFT / big_x
    y = np.minimum(np.abs(z.imag), reach)
    n = np.maximum(np.ceil(np.sqrt(reach * reach - y * y) - z.real), 0.0)
    w = z + n
    psi = _polygamma((0, 1, 2, 3), w).real
    # the basis, a column per coefficient: psi(w) - log pi for fhat(0), then
    # m! sum_{k>=0} e^-(w+k)a (w+k)^-(m+1) for m = 1, 2, 3 at each knot
    # a = 0, X/2, X, which at a = 0 is (-1)^(m+1) psi^(m)(w) (DLMF 25.11.25,
    # 5.15.1); beyond, the terms past K = ceil(37/(X/2)) are below e^-37 <
    # 1e-16 of the first, and e^-(w+k)X is the square of e^-(w+k)X/2
    basis = np.empty((len(z), 10))
    basis[:, :4] = psi.T
    basis[:, 0] -= LOG_PI
    basis[:, 2] *= -1.0
    wk = w[:, None] + np.arange(n_terms)
    r = 1.0 / wk
    half = np.exp(-0.5 * big_x * wk)
    p = np.stack((half, half * half), axis=1) * (r * r)[:, None]
    for m, fact in enumerate((1.0, 2.0, 6.0)):
        basis[:, 4 + m::3] = fact * p.sum(axis=2).real
        p = p * r[:, None]
    # each kernel's fhat(0) and coefficients in x = 4 pi xi against it; every
    # sum runs along a last axis of fixed length, so each value depends on
    # its own point and kernel alone
    coeffs = np.array([(g.integral, *sum(g.fourier_pieces, ())) for g in kernels]) * _PIECE_UNITS
    terms = coeffs[:, None] * basis
    value, mass = terms.sum(axis=2), np.abs(terms).sum(axis=2)
    if n.any():
        # sum_{k<n} Re int_0^X fhat(x/4 pi) e^-(z+k)x dx by the rule on [0, X/2]
        # and [X/2, X], 0 where n = 0.  fhat is a cubic on each, taken about 0
        # on the first, fhat(0) - sum_m c_0m x^m, and about X on the second,
        # sum_m c_2m (x - X)^m, where it falls to 0.  Every point takes the
        # rule: on the scan's 9 points that costs less than picking out the
        # near ones
        unit, weight, local = _unit_gauss_halves()
        # the local basis is in powers of the unit nodes, and x = X unit
        powers = (1.0, big_x, big_x * big_x, big_x**3)
        scaled = np.concatenate((coeffs[:, :4], coeffs[:, 7:]), axis=1) * (powers + powers[1:])
        fhat = (scaled[:, :, None] * local).sum(axis=1)
        x = big_x * unit
        damp = (np.exp(-z[:, None] * x).real * np.expm1(-n[:, None] * x)
                * (big_x * weight / np.expm1(-x)))
        terms = damp * fhat[:, None]
        value -= terms.sum(axis=2)
        mass += np.abs(terms).sum(axis=2)
    return value, math.ulp(1.0) * mass


class ColumnFloor(NamedTuple):
    """`ell_column_floor`'s return: the floor, and ell(0, f) with its error
    estimate, taken in the same pass."""

    floor: Callable[[np.ndarray], np.ndarray]
    incumbent: float
    incumbent_err: float


def ell_column_floor(f: TestFunction) -> ColumnFloor:
    """A lower bound of ell(mu, f) (halved) on the closed right half-plane,
    at each mu of a 1-d array, from one integration by parts of ell's
    frequency-side integral.  With z = a + iy that of the centred copy
    (a = 1/4 + Re mu/2, y = (Im mu + centre)/2) and h, Y as in the module
    docstring,

        G(mu) = fhat(0) (Re psi(z) - log pi) - C(1/4)/|z|,
        C(a) = |h(0+)| + e^-aY |h(Y-)| + sum_p sqrt(M_p(a) int_p e^-ax h'^2)
               + fhat(0) e^-aY/(1 - e^-Y),
        M_p(a) = int_p e^-ax dx = (e^-a x_p - e^-a x_{p+1})/a.

    h is absolutely continuous on [0, Y], so int_0^Y e^-zx h dx =
    (h(0+) - e^-zY h(Y-) + int_0^Y e^-zx h' dx)/z; on each panel p =
    [x_p, x_{p+1}], Cauchy-Schwarz on e^-ax/2 times e^-ax/2 |h'| bounds
    int_p e^-ax |h'| by the square root; and the series is at most
    e^-aY/(|z| (1 - e^-Y)) in modulus since |z + k| >= |z|: so
    ell >= fhat(0) (Re psi(z) - log pi) - C(a)/|z|.  C(a) is nonincreasing
    in a, every term being constant, an integral against e^-ax, or the
    square root of a product of two such integrals, so C(1/4) serves every
    a >= 1/4 and ell >= G on the whole half-plane.  On a line of fixed
    Re mu, G is nondecreasing in |y|: Re psi(a + iy) = -gamma + sum_k
    [1/(k + 1) - (a + k)/((a + k)^2 + y^2)] (DLMF 5.7.6) rises with y^2, and
    C(1/4)/|z| falls, so the columns of the Re mu = 0 row it clears beyond
    Im mu = -centre are a suffix of any grid there.  G is -inf unless
    fhat(0) > 0.

    C depends on f alone and is computed here, once; the return's floor
    takes a 1-d array of finite mu with Re mu >= 0 and gives G at each.
    Its incumbent u is ell(0, f), the certification search's incumbent,
    taken in the same pass on the panel rule's split form, fhat(0)
    (Re psi(z0) - log pi + the series) + Re int_0^Y e^-z0 x h dx at
    z0 = 1/4 + i centre/2, whose integral the floor's 48-point rule gives
    on its panels from the h that `_h_deriv` forms there; incumbent_err is
    its distance from the 24-point rule plus an ulp of the sum of its
    terms' magnitudes, as `ell` estimates its panel rule.  The panels are
    the floor's and do not follow the centre as `ell`'s do, so far off
    centre the estimate grows: at the headline aperture and length it
    stays below 1e-11 up to |centre| = 2,200 and passes 1e-8 near 2,600.
    h' = -(fhat'(x/4 pi)/4 pi + e^-x h(x))/(1 - e^-x) is closed-form, with
    fhat and fhat' from one `extremal._selberg_jet` call at 0 and the
    nodes, and h(0+) = -fhat'(0+)/4 pi; Y/4 pi >= delta, where fhat
    vanishes, so h(Y-) = fhat(0)/(1 - e^-Y).  The panels cut each of
    `ell`'s spans at Im z = 0 (edges 0, X/2, X, 2X, ..., Y) into
    `_FLOOR_PANELS` equal parts; e^-ax h'^2 is smooth on each, so each
    panel's integral takes the 48-point rule, with each |h'| raised by its
    rounding bound (`_h_deriv`), plus its distance from the 24-point one,
    and C is raised by 32 ulps of rounding.  The jet takes the Selberg
    minorant's window (`TestFunction.interval`), which the Fejer kernels
    do not have.
    """
    if f.interval is None:
        raise DomainError("ell_column_floor needs the Selberg minorant's window "
                          "(TestFunction.interval) for its transform's derivative")
    alpha, beta = f.interval
    big_x = 4.0 * math.pi * f.support_radius
    x_end = max(big_x, 1.0)
    edges = np.array([lo + width * j / _FLOOR_PANELS for lo, width in _ell_spans(big_x, x_end)
                      for j in range(_FLOOR_PANELS)] + [x_end])
    x, w = _gauss_panels(edges, _NODES, 2 * _NODES)
    jet, d_jet = _selberg_jet(beta - alpha, f.support_radius,
                              np.concatenate(([0.0], x.ravel() / (4.0 * math.pi))))
    f0 = float(jet[0])
    a = 0.25
    damped = np.exp(-a * x)
    h, h_deriv, h_err = _h_deriv(x, f0, jet[1:].reshape(x.shape), d_jet[1:].reshape(x.shape),
                                 beta - alpha, f.support_radius)

    if f0 > 0.0:
        # by panel, at a = 1/4: int_p e^-ax h'^2 by the 48-point rule with
        # each |h'| raised by its rounding, the 48-point rule's distance from
        # the 24-point one, and M_p(a)
        terms = damped * (w * h_deriv**2)
        coarse, fine = terms[:, :_NODES].sum(axis=1), terms[:, _NODES:].sum(axis=1)
        value = (damped * (w * (np.abs(h_deriv) + h_err)**2))[:, _NODES:].sum(axis=1)
        mass = np.exp(-a * edges[:-1]) * -np.expm1(-a * np.diff(edges)) / a
        integral = np.sqrt(mass * (value + np.abs(fine - coarse))).sum()
        c = (abs(float(d_jet[0])) / (4.0 * math.pi) + integral
             + math.exp(-a * x_end) * (2.0 * f0) / -math.expm1(-x_end))
        # every term is nonnegative, so the rounding is relative
        c *= 1.0 + 32.0 * math.ulp(1.0)

    def floor_at(mu) -> np.ndarray:
        mu = np.asarray(mu, dtype=complex)
        if mu.ndim != 1 or not np.isfinite(mu).all() or (mu.real < -1e-12).any():
            raise DomainError("the column floor needs a 1-d array of finite mu with Re(mu) >= 0")
        if not f0 > 0.0:
            return np.full(len(mu), -np.inf)
        z = 0.25 + 0.5 * np.maximum(mu.real, 0.0) + 0.5j * (mu.imag + f.centre)
        psi = np.real(digamma(z))
        slack = c / np.abs(z)
        rounding = 16.0 * math.ulp(1.0) * (f0 * (np.abs(psi) + LOG_PI) + slack)
        return f0 * (psi - LOG_PI) - slack - rounding

    # ell(0) at z0 = 1/4 + i centre/2, Re e^-z0 x h at the floor's nodes
    z0 = complex(a, 0.5 * f.centre)
    if z0.imag:
        damped = damped * np.cos(z0.imag * x)
    terms = w * (damped * h)
    coarse, fine = terms[:, :_NODES].sum(), terms[:, _NODES:].sum()
    err = abs(fine - coarse) + math.ulp(1.0) * np.abs(terms[:, _NODES:]).sum()
    series = _series(np.array([z0]), x_end)[0].real
    return ColumnFloor(floor_at, float(f0 * (_polygamma(0, z0).real - LOG_PI + series) + fine),
                       float(err))


def _h_deriv(x: np.ndarray, f0: float, fhat: np.ndarray, d_fhat: np.ndarray,
             length: float, delta: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """h(x) = (fhat(0) - fhat(x/4 pi))/(1 - e^-x) and h'(x) = -(fhat'(x/4
    pi)/4 pi + e^-x h(x))/(1 - e^-x) at nodes x > 0, from fhat(0) and fhat,
    fhat' at x/4 pi, and a bound of the rounding of h'.

    Vaaler's closed form of a window of length L sums terms of size at most
    s = L + 1/delta, its derivative terms of size at most pi L s/delta, and
    each value carries the rounding of those.  Near x = 0, fhat(0) - fhat
    and the two terms of h' cancel, which leaves that rounding standing
    against a small h', so h' is taken to lie within `_H_DERIV_ULPS` ulps of
    s (L/(4 delta) + 2 e^-x/(1 - e^-x))/(1 - e^-x) of the exact value.
    Against 30-digit values on the first two panels of 40 random windows
    the error stayed within 0.8 ulps of that scale."""
    tail, decay, drop = -np.expm1(-x), np.exp(-x), f0 - fhat
    h_deriv = -(d_fhat / (4.0 * math.pi) + decay * drop / tail) / tail
    scale = (length + 1.0 / delta) * (length / (4.0 * delta) + 2.0 * decay / tail) / tail
    return drop / tail, h_deriv, _H_DERIV_ULPS * math.ulp(1.0) * scale


@lru_cache(maxsize=None)
def _unit_gauss(*sizes: int) -> Tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre rules on [0, 1] with these numbers of points,
    concatenated and correctly rounded: numpy's leggauss weights are up to
    1e-12 off at 48 points, so its nodes only seed Newton steps in 40 digits."""
    rule = []
    with localcontext() as ctx:
        ctx.prec = 40
        for n in sizes:
            for x in map(Decimal, np.polynomial.legendre.leggauss(n)[0]):
                for _ in range(2):
                    p_prev, p = Decimal(1), x  # P_{n-1}(x), P_n(x)
                    for k in range(2, n + 1):
                        p_prev, p = p, ((2 * k - 1) * x * p - (k - 1) * p_prev) / k
                    dp = n * (p_prev - x * p) / (1 - x * x)
                    x -= p / dp
                rule.append(((1 + x) / 2, 1 / ((1 - x * x) * dp * dp)))
    return tuple(np.array(v, dtype=float) for v in zip(*rule))


@lru_cache(maxsize=None)
def _unit_gauss_halves() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """`_unit_gauss(_NODES)` on [0, 1/2] and on [1/2, 1] as one rule, and at
    its nodes u the local basis of a cubic on each half about its outer
    end: 1 and -u^m on the first, (u - 1)^m on the second, m = 1, 2, 3,
    by row, each 0 on the other half."""
    x, w = (v.ravel() for v in _gauss_panels(np.array([0.0, 0.5, 1.0]), _NODES))
    left, right = x < 0.5, x > 0.5
    local = [left * 1.0] + [-(left * x**m) for m in (1, 2, 3)] + [right * (x - 1.0)**m for m in (1, 2, 3)]
    return x, w, np.array(local)


def _gauss_panels(edges: np.ndarray, *sizes: int) -> Tuple[np.ndarray, np.ndarray]:
    """`_unit_gauss(*sizes)` on each panel between consecutive edges, by row."""
    x, w = _unit_gauss(*sizes)
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return lo + width * x, width * w


def _ell_spans(big_x: float, x_end: float) -> list:
    """(start, width) of each span between the fixed edges 0, X/2, X, 2X,
    ..., x_end of ell's integral; every mu, and the column floor, subdivide
    them alike."""
    breaks = sorted({0.0, 0.5 * big_x, *_geom_nodes(big_x, x_end)})
    return [(lo, hi - lo) for lo, hi in zip(breaks, breaks[1:])]


def _span_panels(spans: list, im: float) -> list:
    """Panels of each span at Im z = im: two per period of e^{-i im x}."""
    return [max(1, math.ceil(width * abs(im) / math.pi)) for _, width in spans]


def _ell_edges(z: complex, spans: list, x_end: float) -> list:
    """Panel edges of ell's integral over [0, x_end] (module docstring)."""
    edges = []
    for (lo, width), m in zip(spans, _span_panels(spans, z.imag)):
        edges += [lo + width * j / m for j in range(m)]
    edges.append(x_end)
    first = edges[1]
    if z.real * first > 1.0:
        grade = math.ceil(math.log2(z.real * first))
        edges[1:1] = [first * 2.0 ** -j for j in range(grade, 0, -1)]
    return edges


def _series(z: np.ndarray, x_end: float) -> np.ndarray:
    """sum_{k>=0} e^{-(z+k)Y}/(z+k) at each z of a 1-d array, Y = x_end."""
    zk = z[:, None] + np.arange(math.ceil(40.0 / x_end))  # e^{-k Y} < 4e-18 beyond
    return (np.exp(-zk * x_end) / zk).sum(axis=1)


# ---------------------------------------------------------------------------
# grid evaluation
# ---------------------------------------------------------------------------


def _geom_nodes(t_from: float, t_to: float) -> list:
    # t_from, then doubling, clipped to end at t_to
    pts = [t_from]
    while pts[-1] < t_to:
        pts.append(min(2.0 * pts[-1], t_to))
    return pts


def _cutoff_floor(y_max: float) -> float:
    """The least lattice half-width t3 the Re mu = 0 row up to Im mu = y_max
    takes, before the tail bounds (`ell_grid`)."""
    return max(2.0 * y_max + 20.0, 64.0)


def _check_grid_size(n_values: float, t3: float, y_span: float) -> None:
    """DomainError for a row of n_values values, or a lattice of
    half-width t3 whose shifts span y_span in Im mu, past the sizes the
    certification search evaluates (`_MAX_GRID_VALUES`, `_MAX_LATTICE`):
    the search checks at t3's floor before any work, `ell_grid` at t3."""
    lattice = (2.0 * t3 + y_span) / _LATTICE_H
    if n_values > _MAX_GRID_VALUES or lattice > _MAX_LATTICE:
        raise DomainError(
            f"a row of {n_values:.6g} values on a lattice of {lattice:.6g} entries is too "
            f"large: at most {_MAX_GRID_VALUES} values and {_MAX_LATTICE} lattice entries")


# a constant bound on |w(u)| for |u| >= 1 (|w(-1)| = pi^2/6 - 1 ~ 0.645):
# only the Selberg tail's smooth-part constant c_p takes it
_W_BOUND = 0.70


def _selberg_tail(alpha: float, beta: float, delta: float):
    """The Selberg minorant of [alpha, beta] at aperture delta for
    |t| >= t_valid, as `ell_grid`'s docstring splits it: returns t_valid,
    c_p with |P(t)| <= c_p/t^2 there, P, omega, bounds and, for the edges
    alpha and beta in that order, (Q, Q', phase).  bounds(t), for
    t >= t_valid, returns (c_q, c_dq, c_ddq) with |Q(s)| <= c_q/s^2,
    |Q'(s)| <= c_dq/|s|^3 and |Q''(s)| <= c_ddq/s^4 for every |s| >= t, for
    both edges."""
    s_max = max(abs(alpha), abs(beta))
    t_valid = s_max + 1.5 / delta
    omega = 2.0 * math.pi * delta
    half = 1.0 / (2.0 * math.pi**2)

    def smooth(t):
        return -half * (_beurling_w(delta * (alpha - t)) + _beurling_w(delta * (t - beta)))

    def edge(e: float, sign: float):
        # u = sign delta (t - e): delta (alpha - t) at alpha, delta (t - beta)
        # at beta
        def q(t):
            return half * _beurling_w(sign * delta * (t - e))

        def dq(t):
            return sign * half * delta * _beurling_w_deriv(sign * delta * (t - e))
        return q, dq, -omega * e

    def bounds(t):
        # both edges have |u| >= x = delta (|s| - s_max), and s^k/(|s| -
        # s_max)^j, j >= k, falls in |s|, so each sup is taken at |s| = t
        w, dw, ddw = _beurling_w_bounds(delta * (t - s_max))
        return half * t * t * w, half * delta * t**3 * dw, half * delta**2 * t**4 * ddw

    # |u| >= kappa delta |t| for |t| >= t_valid: loose on purpose (`ell_grid`)
    kappa = 1.5 / (delta * t_valid)
    c_p = 2.0 * (half * _W_BOUND / (delta * kappa) ** 2)
    return t_valid, c_p, smooth, omega, bounds, (edge(alpha, -1.0), edge(beta, 1.0))


def _check_lattice_step(step: float) -> None:
    """DomainError unless the Im step is a positive multiple of the lattice
    spacing; `ell_grid` reads the stride, step/spacing, as checked."""
    ratio = step / _LATTICE_H
    if not math.isfinite(ratio) or abs(ratio - round(ratio)) > 1e-9 or round(ratio) < 1:
        raise DomainError(f"im step must be a positive multiple of {_LATTICE_H}")


def _smooth_tail_nodes(n_cols: int, c_p: float, smooth: Callable, t3: float, eps: float,
                       y_stride: int):
    """idx, pts and the weights of int_{t3}^{inf} W(sign*t) P(t) dt, the
    a-independent part, alike for both signs because P is even.

    The integral is evaluated exactly on a coarse subgrid `idx` of the
    n_cols Im columns and linearly interpolated between (its y-curvature is
    O(t3^-3)); it is Re psi(a + iv) weighted and summed, with
    v = (sign*pts + y)/2 and y the Im mu of column idx.
    """
    c0, clog = 3.0, 1.0
    t2 = t3
    while c_p * (c0 + clog * (math.log(t2) + 1.0)) / t2 > eps:
        t2 *= 1.5
    pts, wts = (a.ravel() for a in _gauss_panels(np.array(_geom_nodes(t3, t2)), 15))
    idx = np.arange(0, n_cols, y_stride)
    if idx[-1] != n_cols - 1:
        idx = np.append(idx, n_cols - 1)
    return idx, pts, wts * np.asarray(smooth(pts), dtype=float)


def ell_grid(
    f: TestFunction,
    re_values: Sequence[float],
    im_values: Sequence[float],
    im_max: float,
) -> Tuple[np.ndarray, float]:
    """ell(i y, f), halved convention, on the Re mu = 0 lattice row: the
    certification search's private evaluator, whose one caller is
    `certification.min_ell_over_mu`.

    Returns (values of shape (1, len(im_values)), error bound per value).
    re_values must be [0.0], and anything else raises DomainError; it stays
    a positional argument only because the benchmark's tracer
    (`perfbench/tracer.py`) counts len(re_values) * len(im_values) values
    per call.  im_values = 0, step, 2 step, ... are the leading columns, at
    least 2, of the row that runs on in the same step to the grid point
    im_max, and the values are that row's first columns, bit for bit.  The
    caller checks all of that before any work, and also that the step is a
    multiple of the lattice spacing 1/16 and that the row fits
    `_check_grid_size` at t3 = `_cutoff_floor(im_max)`.  This function
    checks only what the caller does not: that f is an even Selberg
    minorant (its `interval` set), and the lattice's size once t3 is known,
    before any lattice array is allocated; both raise DomainError.

    The lattice.  ell(i y) = int W(t + y) f(t) dt - fhat(0) log pi with
    W(s) = Re psi(1/4 + i s/2), which depends on t and y only through t + y.
    So on a uniform Simpson lattice in t of spacing 1/16, which divides the
    Im step, every required psi value lies on one table, and column j is
    the sum of the Simpson-weighted f samples against the table's slice
    from j stride on, stride being the Im step over 1/16.  f is even, so it
    is sampled on the t >= 0 half of the lattice and mirrored.  All the
    row's sums are one product over a strided view of the table, which
    copies nothing and calls no BLAS, so each column's rounding depends
    neither on the other columns nor on the thread count.  The table takes
    `special_math._re_digamma`, Re psi(a + iv) from the asymptotic series in
    real arithmetic, within 1.5e-13 of a complex psi and so far inside the
    error budget of 2.5e-4.  Re psi(a + iv) is even in v, `_re_digamma` is
    even bit for bit, and v = 0 is a table point because the row starts at
    Im mu = 0 (t3 lies on the lattice), so the table is computed on its
    v >= 0 part alone and read back at |k - k0|, k0 the entry of v = 0:
    6,981 of the headline row's 13,701 entries.

    The tails.  Beyond t_valid = max(|alpha|, |beta|) + 1.5/delta both
    Beurling arguments, u = delta (alpha - t) and delta (t - beta), have
    |u| >= 1.5, where B(u) = sgn(u) + (1 - cos 2 pi u) w(u)/pi^2
    (`extremal`), so the sgn parts cancel and (`_selberg_tail`)

        f(t) = P(t) + sum_edges Q(t) cos(omega t - omega edge),

    P = -(w(u_alpha) + w(u_beta))/(2 pi^2), Q = w(u)/(2 pi^2) for each edge,
    omega = 2 pi delta.  H. Alzer's (k-1)!/x^k + k!/(2x^{k+1}) <
    (-1)^{k+1} psi^(k)(x) < (k-1)!/x^k + k!/x^{k+1} for x > 0 (Math. Comp. 66,
    1997), at k = 2 and 3, put w' in (1/x^3, 2/x^3) and w'' in
    (3/x^4, 6/x^4) on u = -x <= -1/2, and in (-1/u^3, 0) and (0, 3/u^4) for
    u > 0, so |w'| <= 2/|u|^3 and |w''| <= 6/u^4; taken at u = delta (t -
    max(|alpha|, |beta|)) they bound s^2 |Q|, |s|^3 |Q'| and s^4 |Q''| over
    |s| >= t for both edges at once.

    The lattice spans |t| <= t3.  t3 starts at max(t_valid,
    `_cutoff_floor(im_max)`) and grows by a fifth at a time until the
    remainder after two integrations by parts of each edge's component is
    within its share of the budget; on the headline grid the floor,
    t3 = 420, already meets it.  The boundary terms of those integrations
    take each edge's Q and Q' at +-t3 in one call, and psi' in one call per
    side on the row's boundary points.  The smooth part P is even, as f is,
    so both sides share its nodes and weights on `ell`'s Gauss-Legendre
    panels, from t3 out to t2, where c_p/t^2 bounds it, c_p being one
    constant fixed at t_valid and about ten times its sup beyond t3 on the
    headline grid.  c_p is left that loose on purpose: the smooth tail
    beyond t2 is one-signed and most of the lattice's bias at mu = 0
    (+4.1e-6), so sizing t2 from a cutoff-dependent c_p (t2 from 3.6e7 down
    to 3.1e6) moves the headline margin to 0.185908, off the pinned
    0.185885.  The lattice stays because that pinned margin is the
    lattice's value: the exact minimum, 0.1858822, rounds differently.

    Leading columns: t3 and the error budget are the full row's, so the
    call finishes the given columns alone, bit for bit the full row's: the
    table up to their last column, the smooth tail at the full row's
    interpolation nodes (every 16th column and the last) up to the first at
    or past the last given column, psi' at their boundary points, and each
    node's weighted sum a row sum, whose rounding does not depend on how
    many nodes the call keeps.
    """
    if f.interval is None or not f.even:
        raise DomainError("ell_grid requires an even Selberg minorant (TestFunction.interval)")
    if np.asarray(re_values, dtype=float).tolist() != [0.0]:
        raise DomainError("ell_grid evaluates the Re mu = 0 row alone: re_values must be [0.0]")
    h, a, y_max = _LATTICE_H, 0.25, float(im_max)
    step = float(im_values[1] - im_values[0])
    stride = round(step / h)
    # the full row's column count, and the columns given
    n_cols, n_out = 1 + round(y_max / step), len(im_values)

    t_valid, c_p, smooth_part, omega, bounds, edges = _selberg_tail(*f.interval, f.support_radius)
    # oscillatory cutoff: after two integrations by parts the remainder of
    # each edge's component on each side is rem2(T), with the bounds beyond
    # T that both edges share; pick T3 so the four stay within _GRID_TOL/4
    c0, clog, cd, cdd = 3.0, 1.0, 4.0, 8.0
    t3 = max(t_valid, _cutoff_floor(y_max))

    def rem2(t):
        c_q, c_dq, c_ddq = bounds(t)
        base = (cdd * c_q + 2.0 * cd * c_dq + c0 * c_ddq) / (3.0 * t**3)
        logp = clog * c_ddq * (3.0 * math.log(t) + 1.0) / (9.0 * t**3)
        return (base + logp) / omega**2

    while rem2(t3) > _GRID_TOL / 16.0 and t3 < 5e4:
        t3 *= 1.2
    # snap to the lattice
    n_half = int(math.ceil(t3 / h))
    if n_half % 2:
        n_half += 1
    t3 = n_half * h
    _check_grid_size(n_cols, t3, stride * (n_cols - 1) * h)

    # Simpson weights on [-t3, t3]; f is even, so f.value runs on the nodes
    # t = k h >= 0 alone, in one call, and is mirrored
    nt = 2 * n_half + 1
    sw = np.ones(nt)
    sw[1:-1:2] = 4.0
    sw[2:-1:2] = 2.0
    sw *= h / 3.0
    half = np.asarray(f.value(np.arange(n_half + 1) * h), dtype=float)
    fw = sw * np.concatenate((half[:0:-1], half))

    # the psi table: entry k holds Re psi(a + iv), v = (k - n_half) h/2, so
    # column j, y = j stride h, reads entries j stride .. j stride + nt - 1
    # for t = -t3 .. t3.  Re psi is even in v, so it is evaluated at v >= 0
    # alone and read back at |k - n_half|
    n_shift = stride * (n_out - 1)
    signed = np.arange(nt + n_shift) - n_half
    table = _re_digamma(a, 0.5 * h * np.arange(n_half + n_shift + 1))[np.abs(signed)]
    # every column's sum in one product over a strided view of the table:
    # einsum copies no matrix and calls no BLAS, so a column's sum depends
    # neither on the other columns nor on the thread count
    out = np.einsum("jt,t->j", sliding_window_view(table, nt)[::stride], fw)

    # per side, the boundary terms of the two integrations by parts,
    # amp_w W + amp_dw W' at t = sign t3 with psi' at the boundary points,
    # and the smooth tail, evaluated at the full row's interpolation nodes up
    # to the first at or past the last column given and interpolated
    eps_s = _GRID_TOL / 8.0
    idx, pts, p_wts = _smooth_tail_nodes(n_cols, c_p, smooth_part, t3, eps_s, 16)
    idx = idx[:np.searchsorted(idx, n_out - 1) + 1]
    ends = stride * np.arange(n_out)
    at_t3 = np.array([t3, -t3])
    amps = [(q_of(at_t3).tolist(), dq_of(at_t3).tolist(), phase) for q_of, dq_of, phase in edges]
    for i, (sign, rim) in enumerate(((+1, ends + nt - 1), (-1, ends))):
        amp_w = amp_dw = 0.0
        for q_at, dq_at, phase in amps:
            q, dq = q_at[i], dq_at[i] * sign
            theta = omega * t3 + (phase if sign > 0 else -phase)
            amp_w -= q * math.sin(theta) / omega + dq * math.cos(theta) / omega**2
            amp_dw -= q * math.cos(theta) / omega**2
        smooth = _re_digamma(a, 0.5 * (sign * pts[None, :] + (idx * step)[:, None]))
        tri = _polygamma(1, a + 1j * (0.5 * h * signed[rim]))
        out += amp_w * table[rim] + amp_dw * (-0.5 * sign * np.imag(tri))
        # a row sum, not a matrix product, whose rounding would depend on
        # how many nodes the call keeps
        out += np.interp(np.arange(n_out), idx, (smooth * p_wts).sum(axis=1))
    out -= f.integral * LOG_PI
    return out[None, :], 4.0 * rem2(t3) + 2.0 * eps_s


# ---------------------------------------------------------------------------
# explicit-formula sides
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExplicitFormulaReport:
    """Both sides of the explicit formula for one configuration.

    rhs_archimedean lists ell(mu_j, f)/(2 pi) in spectral order; rhs_total
    is their sum plus conductor and prime terms.  zero-side fields are None
    when only the right side was evaluated, and implied_log_Q also when f
    has integral 0.  tail_bound is the heuristic
    density-surrogate bound on the omitted |gamma| > T_max zero mass; the
    tolerance budget collects stated quadrature tolerances so reports can
    be compared against |residual| <= tail_bound + budget.
    """

    rhs_conductor: float
    rhs_archimedean: Tuple[float, ...]
    rhs_primes: float
    convention: str
    tolerance_budget: float
    zero_side: Optional[float] = None
    tail_bound: Optional[float] = None
    residual: Optional[float] = None
    implied_log_Q: Optional[float] = None

    @property
    def rhs_total(self) -> float:
        # fsum: exact, so reordering the archimedean terms cannot change it
        return math.fsum((self.rhs_conductor, *self.rhs_archimedean, self.rhs_primes))

    def to_dict(self) -> dict:
        return {
            "zero_side": self.zero_side,
            "tail_bound": self.tail_bound,
            "rhs_conductor": self.rhs_conductor,
            "rhs_archimedean": list(self.rhs_archimedean),
            "rhs_primes": self.rhs_primes,
            "rhs_total": self.rhs_total,
            "residual": self.residual,
            "implied_log_Q": self.implied_log_Q,
            "convention": self.convention,
            "tolerance_budget": self.tolerance_budget,
        }


def _prime_range(f: TestFunction) -> int:
    # largest n with log n / 2 pi in the transform support; 0 when the
    # support is prime-free and the prime sum vanishes identically.
    # DomainError past _MAX_PRIME_N, before anything of that size is built
    if f.support_radius <= PRIME_FREE_RADIUS + 1e-15:
        return 0
    log_n = TWO_PI * f.support_radius
    if log_n > math.log(_MAX_PRIME_N):
        raise DomainError(f"transform support radius {f.support_radius:.6g} reaches the "
                          f"prime powers up to n = e^{log_n:.6g}, past the 2^53 the prime "
                          "sum takes")
    return int(math.floor(math.exp(log_n) + 1e-9))


def rhs(
    fe: FunctionalEquation,
    f: TestFunction,
    primes: Optional[LogDerivativeCoefficients] = None,
    convention: str = "halved",
    tol: float = 1e-8,
) -> ExplicitFormulaReport:
    """Right side of the explicit formula: conductor, archimedean, primes.

    When f's transform is supported inside [-log2/2pi, log2/2pi] the prime
    sum vanishes identically and `primes` may be omitted; otherwise the
    coefficients must cover every n with log n <= 2 pi * support_radius.
    """
    conductor = f.integral * math.log(fe.conductor) / math.pi
    # the prime data is checked first, and its gaps are ranges, so that a
    # wide support fails at once
    n_max = _prime_range(f)
    if n_max:
        if primes is None:
            raise IncompletenessError(
                "prime-coefficient data required: transform support radius "
                f"{f.support_radius:.6g} exceeds log2/(2 pi)",
                gaps=range(2, n_max + 1),
            )
        if primes.bound < n_max:
            raise IncompletenessError(
                f"prime coefficients cover n <= {primes.bound} but the "
                f"transform support requires n <= {n_max}",
                gaps=range(primes.bound + 1, n_max + 1),
            )
        if not f.even:
            raise DomainError("the prime sum path requires an even test function")

    # one batched ell over the distinct keys, each at its first mu
    keys = [(mu.real, abs(mu.imag)) if f.even else (mu.real, mu.imag) for mu in fe.spectral]
    first = {}
    for key, mu in zip(keys, fe.spectral):
        first.setdefault(key, mu)
    values = ell(np.array(list(first.values())), f, convention, tol) / TWO_PI
    by_key = dict(zip(first, values.tolist()))
    arch = [by_key[key] for key in keys]

    budget = len(fe.spectral) * tol
    prime_term = 0.0
    if n_max:
        # f even: fhat(-x) = fhat(x), so c fhat(x) + conj(c) fhat(-x) = 2 Re(c) fhat(x);
        # one transform call over every n with c(n) != 0, and cumsum, not sum,
        # so that the terms are added in n order
        ns = sorted(n for n in primes.values if 2 <= n <= n_max and primes(n) != 0)
        x = np.array([math.log(n) for n in ns]) / TWO_PI
        c = np.array([primes(n).real for n in ns])
        terms = 2.0 * c * fourier_at(f, x) / np.sqrt(ns)
        prime_term = float(np.cumsum(terms)[-1]) / TWO_PI if ns else 0.0

    return ExplicitFormulaReport(
        rhs_conductor=conductor,
        rhs_archimedean=tuple(arch),
        rhs_primes=prime_term,
        convention=convention,
        tolerance_budget=budget,
    )


def zero_sum(data: LFunctionData, f: TestFunction) -> Tuple[float, float]:
    """Sum of f over the listed zeros (symmetrized when self-dual), plus a
    heuristic bound on the mass of unlisted zeros above the completeness
    height.

    The bound is M * integral over |t| > T_max of rho(t)/t^2 with the
    density surrogate rho(t) = (1/pi)(log Q + (d/2) log((|t|+10)/(2 pi)));
    it is a plausibility budget from standard zero-counting heuristics, not
    a proved estimate.
    """
    env = f.envelope
    t_max = data.t_max
    if not math.isinf(t_max) and t_max < env.t0:
        raise DomainError(
            f"zero list complete only to {t_max}, below the envelope onset {env.t0:.6g}"
        )
    zs = np.asarray(data.zeros, dtype=float)
    value = 0.0
    if len(zs):
        if data.self_dual:
            pos = zs[zs > 0]
            n = len(pos)
            at_zero = int((zs == 0.0).sum())
            # one call over both halves and 0, each half summed on its own
            vals = np.asarray(f.value(np.concatenate((pos, -pos, [0.0]))), dtype=float)
            value = float(np.sum(vals[:n]) + np.sum(vals[n:2 * n]))
            value += at_zero * float(vals[-1])
        else:
            value = float(np.sum(f.value(zs)))

    if math.isinf(t_max):
        return value, 0.0
    d = data.fe.degree
    q = data.fe.conductor
    T, c, b = t_max, 10.0, TWO_PI
    log_int = math.log((T + c) / b) / T + math.log((T + c) / T) / c
    tail = 2.0 * env.m * (math.log(q) / T + 0.5 * d * log_int) / math.pi
    return value, tail


def verify(
    data: LFunctionData,
    f: TestFunction,
    convention: str = "halved",
    tol: float = 1e-8,
) -> ExplicitFormulaReport:
    """Full consistency report: zero side vs right side, residual, and the
    conductor the residual would imply (a check on an assumed Q), None when
    f has integral 0 and so carries no conductor term."""
    primes = None
    n_max = _prime_range(f)
    if n_max:
        from .lfunctions import c_coefficients

        primes = c_coefficients(data, n_max)
    right = rhs(data.fe, f, primes, convention, tol)
    value, tail = zero_sum(data, f)
    residual = value - right.rhs_total
    implied = (math.pi * residual / f.integral + math.log(data.fe.conductor)
               if f.integral != 0.0 else None)
    return replace(right, zero_side=value, tail_bound=tail, residual=residual,
                   implied_log_Q=implied)
