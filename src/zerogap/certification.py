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
The half-plane minimum is searched on a finite grid: ell grows like
fhat(0) log|mu| for large |mu|, so a bounded rectangle plus a boundary-row
check suffices.  Within the rectangle, `explicit_formula.ell_floor` bounds
ell from below over a whole Re-mu row: it is ell's frequency-side integral
with the transform's phase e^{-i Im z x} fhat replaced by its modulus, so
it holds at every Im mu and rises with Re mu.  Rows whose floor lies above
the incumbent ell(0) by more than twice the grid's error budget cannot
hold the minimum and are not evaluated (8 of the headline grid's 201 rows
are), and when the Re mu = re_max row is one of them the floor, not its
grid values, clears the boundary.  Within the rows kept,
`explicit_formula.ell_column_floor` bounds ell from below point by point,
rising with Im mu: one integration by parts of the same integral.  The
columns whose floor lies above the same level in every kept row are a
suffix of the grid, and the lattice finishes only the columns before it
(66 of the headline grid's 801), on the full rectangle's lattice, so that
every value it returns is the full grid's.  The result is labeled
numerical evidence, grid-based; it is not a proof.

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
from typing import Optional, Tuple

import numpy as np

from .errors import AccuracyError, DomainError
from .explicit_formula import (
    _GRID_TOL,
    PRIME_FREE_RADIUS,
    TWO_PI,
    _check_grid_size,
    _check_prime_free,
    _cutoff_floor,
    _step_grid,
    convention_scale,
    ell,
    ell_column_floor,
    ell_floor,
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

# tolerance of the pointwise incumbent ell(0) in min_ell_over_mu
_INCUMBENT_TOL = 1e-8

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class SearchDomain:
    """Rectangle [0, re_max] x [0, im_max] in (Re mu, Im mu), step-spaced.

    boundary_clear records that the minimum over the Re mu = re_max edge
    exceeds the interior minimum, supporting the asymptotic-growth cutoff;
    it is read off that row's grid values, or established by `ell_floor`
    when the row was skipped.  grid_shape is the whole rectangle's, skipped
    rows and columns included; rows_evaluated and columns_evaluated count
    its leading Re-mu rows and Im-mu columns that went on the lattice.
    error_bound is the quadrature budget per grid value.
    """

    re_max: float
    im_max: float
    step: float
    convention: str
    grid_shape: Tuple[int, int]
    rows_evaluated: int
    columns_evaluated: int
    boundary_clear: bool
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
    """Outcome of a gap-certification run; certified implies margin > 0."""

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


def min_ell_over_mu(
    f: TestFunction,
    re_max: float = 50.0,
    im_max: float = 200.0,
    step: float = 0.25,
    convention: str = "halved",
) -> MinEllSearch:
    """Minimum of ell(mu, f) over the grid on [0, re_max] x [0, im_max].

    Only the closed upper-right quadrant is searched: ell is invariant
    under mu -> conj(mu) for even f.  Ties go to the smallest Re mu, then
    the smallest Im mu (row-major first hit).

    Only the leading Re-mu rows and Im-mu columns are evaluated on the
    lattice.  mu = 0 is a grid point, so the lattice minimum is at most
    u + error_bound, with u the pointwise ell(0); a point whose floor
    exceeds the pad u + 2 _GRID_TOL (twice ell_grid's budget of
    _GRID_TOL / 2, plus room for u's tolerance, checked after the call)
    lies above that minimum.  `ell_floor` bounds a whole row and is
    nondecreasing in Re mu (its derivative is an integral of |fhat|
    against a positive weight), so the skipped rows are a suffix of the
    grid, and the lattice takes the rows up to the last one the floor
    keeps, counted in the domain's rows_evaluated.  On those rows
    `ell_column_floor` bounds each point and is nondecreasing in Im mu, so
    the columns it clears in every kept row are a suffix too; ell_grid
    finishes the columns before it, at least 2, counted in
    columns_evaluated, on the full grid's lattice (its leading-columns
    call).  The result is the full grid's: bit for bit when
    2 re_max + 1 <= 2 im_max in halved parameters, within error_bound
    otherwise, where ell_grid sizes its lattice by the largest Re mu it is
    given.  A skipped Re mu = re_max row is boundary_clear by the floor;
    otherwise the skipped columns lie above u + error_bound >= the lattice
    value at mu = 0 in every row, so the kept columns decide it.  A
    rectangle whose grid or lattice is past
    `explicit_formula._check_grid_size`'s limits raises DomainError before
    either is built.
    """
    k = convention_scale(convention)
    if not (0 < step <= re_max < math.inf and 0 <= im_max < math.inf):
        raise DomainError("need finite step > 0, re_max >= step, im_max >= 0")
    _check_grid_size(re_max / step + 1.0, im_max / step + 1.0,
                     _cutoff_floor(k * im_max, 0.25 + 0.5 * k * re_max), k * im_max)
    re_values = _step_grid(re_max, step)
    im_values = _step_grid(im_max, step)

    u = ell(0.0, f, tol=_INCUMBENT_TOL)
    pad = u + 2.0 * _GRID_TOL
    floor = ell_floor(k * re_values, f)
    ruled_out = floor > pad  # a nan floor rules nothing out
    rows = int(max(np.flatnonzero(~ruled_out), default=0)) + 1
    # the column floor rises with Im mu in every row, so the columns whose
    # floor lies above the pad in every kept row are a suffix
    column_floor = ell_column_floor(k * re_values[:rows], f)(k * im_values).min(axis=0)
    cols = int(max(np.flatnonzero(~(column_floor > pad)), default=0)) + 1
    cols = min(max(cols, 2), len(im_values))
    vals, error_bound = ell_grid(f, k * re_values[:rows], k * im_values[:cols],
                                 im_max=k * im_values[-1])
    if 2.0 * error_bound + _INCUMBENT_TOL > 2.0 * _GRID_TOL:
        raise AccuracyError(f"ell_grid error bound {error_bound:.3e} leaves no room in "
                            f"the pruning pad 2 x {_GRID_TOL:.3e}", best=None)

    i, j = np.unravel_index(int(np.argmin(vals)), vals.shape)
    if rows < len(re_values):
        # its lattice values are >= floor - eb > u + eb >= the minimum found
        boundary_clear = True
    else:
        # the skipped columns lie above u + eb >= vals[0, 0] in every row
        boundary_clear = bool(vals[-1, :].min() > vals[:-1, :].min())
    _log.debug("min_ell_over_mu: %d of %d Re-mu rows on the lattice, incumbent "
               "ell(0) = %r, floor at the first skipped row = %s; %d of %d Im-mu "
               "columns on the lattice, column floor at the first skipped column = %s",
               rows, len(re_values), u,
               repr(float(floor[rows])) if rows < len(re_values) else "none skipped",
               cols, len(im_values),
               repr(float(column_floor[cols])) if cols < len(im_values) else "none skipped")
    domain = SearchDomain(
        re_max=float(re_values[-1]),
        im_max=float(im_values[-1]),
        step=step,
        convention=convention,
        grid_shape=(len(re_values), len(im_values)),
        rows_evaluated=rows,
        columns_evaluated=cols,
        boundary_clear=boundary_clear,
        error_bound=float(error_bound),
    )
    return MinEllSearch(
        value=float(vals[i, j]),
        argmin=complex(re_values[i], im_values[j]),
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
    return GapCertificate(
        interval=(-half, half),
        delta=delta,
        degree=degree,
        margin=margin,
        certified=bool(margin > 0.0 and window_ok),
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
