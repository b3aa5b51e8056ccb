"""Grid-search certification of universal bounds on gaps between critical
zeros.

For a window [alpha, beta] of length L > 1/delta the Selberg minorant S of
its indicator has nonnegative transform mass only at frequency zero once
delta <= log2/(2 pi), so for any L-function of degree d whose zeros all
avoid the window the explicit formula forces

    0 >= sum_gamma S(gamma) = rhs_total >= d * min_mu ell(mu, S) / (2 pi)

(conductor and prime terms are nonnegative / vanish).  If the minimum of
ell over the closed right half-plane is positive, no such L-function exists
and every degree-d L-function must have a zero in every window of length L.
The half-plane minimum lies on its edge Re mu = 0.  In the split form of
`explicit_formula`, ell = Re Phi(z) with z = 1/4 + mu/2 (halved) and

    Phi(z) = fhat(0) (psi(z) - log pi + sum_{k>=0} e^-(z+k)Y/(z+k))
             + int_0^Y e^-zx h(x) dx,

h real, so Phi is analytic on Re z > 0 and ell is harmonic in mu there.
Integration by parts gives ell >= fhat(0) (Re psi(z) - log pi) -
C(a)/|z|, a = Re z, and C(a) is nonincreasing in a (each of its terms is
constant, an integral against e^-ax, or the square root of a product of
two such integrals), so on the closed half-plane
ell >= fhat(0) (Re psi(z) - log pi) - C(1/4)/|z|, the bound
`explicit_formula.ell_column_floor` evaluates.  When fhat(0) > 0 that
tends to +inf as |mu| grows, Re psi(z) growing like log|z| (DLMF 5.11.2),
so ell > ell(0) wherever |mu| >= R for some R.  By the minimum principle
for harmonic functions (S. Axler, P. Bourdon, W. Ramey, Harmonic Function
Theory, 2nd ed., 2001, ch. 1) the minimum over the half-disc Re mu >= 0,
|mu| <= R lies on its boundary, and not on the arc: the minimum over the
half-plane is that of ell(i nu) over real nu.  For an even f, ell(conj mu)
= ell(mu), since psi(conj z) = conj psi(z) and h is real, so nu >= 0
suffices.  The argument needs fhat(0) > 0: below it ell falls to -inf
along the real axis, at it the bound stops growing, and the search refuses
both.

The search therefore evaluates one Re-mu row of its grid, Re mu = 0.  The
column floor at mu = i nu rises with nu, and the columns whose floor lies
above the incumbent ell(0) by more than twice the grid's error budget are a
suffix of the row that cannot hold the minimum; the lattice finishes only
the columns before that suffix (66 of the headline grid's 801), on the
full row's lattice, so that every value it returns is the uncut row's.
The incumbent comes from the floor's own pass (`ell_column_floor`'s
incumbent), which already has the transform on 16 Gauss panels per
span of [0, Y], 72 nodes each (32 x 72 on the headline window): ell(0) is
fhat(0) (Re psi(z0) - log pi + the series) + Re int_0^Y e^-z0 x h dx,
z0 = 1/4 + i centre/2, on the 48-point rule, with the distance from the
24-point rule plus the rounding as its error estimate, so the search
takes no panel of `ell`.  A suffix that starts past im_max leaves the
axis beyond the rectangle unsearched, and `certify_gap` then certifies
nothing.  Between grid points the minimum is not bounded, so the result
is labeled numerical evidence, grid-based; it is not a proof.

The two Gamma-factor normalizations give pointwise-identical values under
mu -> k mu, k = `convention_scale(convention)`; `certify_gap` divides its
rectangle by k, so both conventions visit the same kernel parameters and
their verdicts and bisection paths agree exactly.
"""

from __future__ import annotations

import logging
import math
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Tuple

import numpy as np

from .errors import AccuracyError, DomainError
from .explicit_formula import (
    _GRID_TOL,
    PRIME_FREE_RADIUS,
    TWO_PI,
    _check_grid_size,
    _check_lattice_step,
    _check_prime_free,
    _cutoff_floor,
    _step_count,
    convention_scale,
    ell_column_floor,
    ell_grid,
)
from .extremal import TestFunction, selberg_minorant

__all__ = [
    "GapCertificate",
    "MinEllSearch",
    "SearchDomain",
    "certify_gap",
    "min_ell_over_mu",
    "minimal_certified_length",
]

EVIDENCE_KIND = "numerical evidence, grid-based"

# tolerance of the incumbent ell(0) in min_ell_over_mu, which the column
# floor's pass estimates
_INCUMBENT_TOL = 1e-8

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchDomain:
    """Rectangle [0, re_max] x [0, im_max] in (Re mu, Im mu), step-spaced.

    grid_shape is the whole rectangle's.  Only its Re mu = 0 row is
    searched (the minimum principle of the module docstring), and
    columns_evaluated counts that row's leading Im-mu columns that went on
    the lattice.  floor_clears_at is c0, the first Im mu of the row from
    which the column floor clears the pad, or None when it clears no
    column up to im_max.  error_bound is the quadrature budget per grid
    value.
    """

    re_max: float
    im_max: float
    step: float
    convention: str
    grid_shape: Tuple[int, int]
    columns_evaluated: int
    floor_clears_at: Optional[float]
    error_bound: float

    def to_dict(self) -> dict:
        return {**asdict(self), "grid_shape": list(self.grid_shape)}


@dataclass(frozen=True)
class MinEllSearch:
    value: float
    argmin: complex
    domain: SearchDomain


@dataclass(frozen=True)
class GapCertificate:
    """Outcome of a gap-certification run.  certified needs margin > 0, a
    positivity window, and the column floor cleared inside the searched
    rectangle (floor_clears_at not None): otherwise the Im-mu axis beyond
    im_max, where the floor does not yet bound ell above the minimum, was
    not searched."""

    interval: Tuple[float, float]
    delta: float
    degree: int
    margin: float
    certified: bool
    positivity_window: Optional[Tuple[float, float]]
    search: SearchDomain
    kind: str = EVIDENCE_KIND

    def __post_init__(self):
        if self.certified and not self.margin > 0.0:
            raise DomainError("certificate invariant violated: certified needs margin > 0")

    def to_dict(self) -> dict:
        return {
            "interval": list(self.interval),
            "window_length": self.interval[1] - self.interval[0],
            "delta": self.delta,
            "degree": self.degree,
            "margin": self.margin,
            "certified": self.certified,
            "positivity_window": None if self.positivity_window is None
            else list(self.positivity_window),
            "search_domain": self.search.to_dict(),
            "kind": self.kind,
        }


def _first_cleared(clears: Callable[[np.ndarray], np.ndarray], n: int) -> int:
    """One past the last column of 0..n-1 where clears (nondecreasing, false
    at 0) is false, from up to 31 evenly spaced probes a step."""
    lo, hi = 0, n
    while hi - lo > 1:
        ends = np.append(np.arange(lo, hi, -(-(hi - lo) // 32)), hi)
        below = np.flatnonzero(~clears(ends[1:-1]))
        j = below[-1] + 1 if below.size else 0
        lo, hi = int(ends[j]), int(ends[j + 1])
    return hi


def min_ell_over_mu(
    f: TestFunction,
    re_max: float = 50.0,
    im_max: float = 200.0,
    step: float = 0.25,
    convention: str = "halved",
) -> MinEllSearch:
    """Minimum of ell(mu, f) over the grid on [0, re_max] x [0, im_max].

    By the minimum principle (module docstring) the minimum over Re mu >= 0
    lies on Re mu = 0, and ell is invariant under mu -> conj(mu) for even f,
    so only the grid's Re mu = 0 row is evaluated, at Im mu >= 0; ties go to
    the smallest Im mu.  The argument needs fhat(0) > 0, and DomainError is
    raised otherwise: for fhat(0) < 0, ell falls to -inf and has no minimum.

    mu = 0 is a grid point, so the row's lattice minimum is at most
    u + error_bound, with u the pointwise ell(0), the incumbent, which
    `ell_column_floor`'s pass takes on its own nodes (module docstring);
    AccuracyError when its error estimate exceeds _INCUMBENT_TOL.  Those
    nodes do not follow f's centre, so a window centred far from 0 (past
    |centre| ~ 2,600 at the headline length) raises it.  A point
    whose column floor exceeds the pad u + 2 _GRID_TOL (twice ell_grid's
    budget of _GRID_TOL / 2, plus room for u's tolerance, checked after the
    call) lies above that minimum.  The floor is nondecreasing in Im mu, so
    the columns it clears are a suffix, from floor_clears_at on, found by
    `_first_cleared` on a few columns of the row, not all of it; ell_grid,
    the row's private lattice evaluator, finishes the columns before it,
    at least 2, counted in columns_evaluated, on the full row's lattice
    (its leading-columns call), so the values are the uncut row's, bit for
    bit, whatever re_max.  When the floor clears no column up to im_max (floor_clears_at
    is then None), the axis beyond im_max is not searched.  A row or row
    lattice past `explicit_formula._check_grid_size`'s limits raises
    DomainError before either is built, and so does a step off the
    lattice; of the Re grid only its count is taken, so re_max sizes
    nothing the search builds.  These checks come before any evaluation,
    and ell_grid repeats none of them: it gets the Re mu = 0 row's leading
    columns from Im mu = 0 in the checked step, and the row's last column.
    """
    k = convention_scale(convention)
    if not (0 < step <= re_max < math.inf and step <= im_max < math.inf):
        raise DomainError("need finite re_max and im_max, and 0 < step <= both")
    _check_grid_size(im_max / step + 1.0, _cutoff_floor(k * im_max), k * im_max)
    _check_lattice_step(k * step)
    if not float(f.fourier_centred(0.0)) > 0.0:
        raise DomainError("min_ell_over_mu needs fhat(0) > 0: otherwise ell has no "
                          "minimum over Re mu >= 0")
    n_re, n_im = _step_count(re_max, step), _step_count(im_max, step)

    column_floor, u, u_err = ell_column_floor(f)
    if u_err > _INCUMBENT_TOL:
        raise AccuracyError(f"incumbent ell(0) error estimate {u_err:.3e} > tol "
                            f"{_INCUMBENT_TOL:.3e}", best=u)
    pad = u + 2.0 * _GRID_TOL
    cols = _first_cleared(lambda j: column_floor(1j * (k * (step * j))) > pad, n_im)
    c0 = float(step * cols) if cols < n_im else None
    cols = min(max(cols, 2), n_im)
    im_values = step * np.arange(cols)
    vals, error_bound = ell_grid(f, [0.0], k * im_values, im_max=k * (step * (n_im - 1)))
    if 2.0 * error_bound + _INCUMBENT_TOL > 2.0 * _GRID_TOL:
        raise AccuracyError(f"ell_grid error bound {error_bound:.3e} leaves no room in "
                            f"the pruning pad 2 x {_GRID_TOL:.3e}", best=None)

    j = int(np.argmin(vals[0]))
    _log.debug("min_ell_over_mu: incumbent ell(0) = %r, estimated within %.1e, from "
               "the column floor's pass; the column floor clears the pad from Im mu = "
               "c0 = %r; %d of %d Im-mu columns on the lattice", u, u_err, c0, cols, n_im)
    domain = SearchDomain(
        re_max=float(step * (n_re - 1)),
        im_max=float(step * (n_im - 1)),
        step=step,
        convention=convention,
        grid_shape=(n_re, n_im),
        columns_evaluated=cols,
        floor_clears_at=c0,
        error_bound=float(error_bound),
    )
    return MinEllSearch(
        value=float(vals[0, j]),
        argmin=complex(0.0, im_values[j]),
        domain=domain,
    )


def certify_gap(
    degree: int,
    window_length: float,
    delta: float = PRIME_FREE_RADIUS,
    *,
    re_max: float = 50.0,
    im_max: float = 200.0,
    step: float = 0.25,
    convention: str = "halved",
) -> GapCertificate:
    """Certify that every degree-`degree` L-function (unit conductor or
    larger, transform-trivial prime side) has a zero in every window of the
    given length, by positivity of the minimized archimedean term."""
    if type(degree) is not int or not 1 <= degree <= sys.float_info.max:
        raise DomainError("degree must be a positive integer within the float range")
    _check_prime_free(delta)
    if not window_length > 1.0 / delta:
        raise DomainError(
            f"window_length must exceed 1/delta = {1.0 / delta:.10g}; the minorant "
            "carries no mass below that"
        )
    k = convention_scale(convention)
    half = window_length / 2.0
    s_minus = selberg_minorant(-half, half, delta)
    # read before the search, as when selberg_minorant solved it: an edge
    # that does not converge fails before the search runs, and after the
    # search the window took a median 0.75 ms against 0.63 ms before it
    # (certify workload lengths, 2-core VM)
    window = s_minus.positivity_window
    search = min_ell_over_mu(s_minus, re_max / k, im_max / k, step / k, convention)
    margin = degree * search.value / TWO_PI
    window_ok = isinstance(window, tuple)
    floor_cleared = search.domain.floor_clears_at is not None
    return GapCertificate(
        interval=(-half, half),
        delta=delta,
        degree=degree,
        margin=margin,
        certified=bool(margin > 0.0 and window_ok and floor_cleared),
        positivity_window=window if window_ok else None,
        search=search.domain,
    )


def minimal_certified_length(
    degree: int,
    delta: float = PRIME_FREE_RADIUS,
    precision: float = 1e-3,
    *,
    re_max: float = 50.0,
    im_max: float = 200.0,
    step: float = 1.0,
    convention: str = "halved",
) -> float:
    """Smallest window length the grid search certifies, by bisection to
    the given precision.  Uses a coarser default search step than
    certify_gap; the returned length is only meaningful together with the
    search parameters that produced it."""
    if not 0 < precision < math.inf:
        raise DomainError("precision must be positive and finite")

    def certified(length: float) -> bool:
        return certify_gap(
            degree, length, delta,
            re_max=re_max, im_max=im_max, step=step, convention=convention,
        ).certified

    lo = 1.0 / delta  # exclusive: no mass, uncertifiable by construction
    hi = 5.0 / delta
    tries = 0
    while not certified(hi):
        lo = hi
        hi *= 1.3
        tries += 1
        if tries > 12:
            raise AccuracyError(
                f"no certified window length found up to {hi:.6g}", best=None
            )
    while hi - lo > precision:
        mid = 0.5 * (lo + hi)
        if certified(mid):
            hi = mid
        else:
            lo = mid
    return hi
