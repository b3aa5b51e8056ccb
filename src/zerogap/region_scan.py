"""Spectral-parameter feasibility scan for degree-4 functional equations.

A candidate functional equation with spectral parameters
(i nu1, -i nu1, i nu2, -i nu2), conductor Q and trivial prime side is fed
into the explicit formula with two nonnegative test functions:

  * the Fejer kernel, positive everywhere: a negative right side is a
    contradiction, so no such L-function exists ("Impossible");
  * a windowed variant, positive exactly on (-t0, t0) and <= 0 outside: a
    positive right side forces sum f(gamma) > 0, hence a zero with
    |gamma| < t0 ("ForcedLowZero").

Anything else is "Unconstrained" at this delta/t0.  Both kernels have
transform support inside [-delta, delta] with delta <= log2/(2 pi), so the
prime sum vanishes no matter the (unknown) coefficients, and both are even
about 0, so one `ell` call over the pair evaluates their archimedean terms
at every nu of a scan in one frequency-side pass.  One row builder
serves both entry points: `scan_region` is the scan over the step grid
0, step, ..., nu_max, and `classify_point(nu1, nu2)` is the (nu1, nu2) row
of the two-value scan over [nu1, nu2].
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from .errors import DomainError
from .explicit_formula import PRIME_FREE_RADIUS, TWO_PI, _check_prime_free, _step_grid, ell
from .extremal import fejer, windowed_fejer

__all__ = [
    "RegionClassification",
    "classify_point",
    "scan_region",
    "scan_to_csv",
]

VERDICTS = ("Impossible", "ForcedLowZero", "Unconstrained")

# the most rows one scan, or one `zerogap eval-extremal` listing, may build,
# refused before any grid is allocated: a scan row measured 145 B under
# tracemalloc (scan_region(16, 0.125)), and an eval-extremal sample 108 B
# at peak (--kind selberg --fourier --samples 20000 on [-0.2, 0.2]; 739 B
# before the listing was evaluated in blocks of cli._EVAL_BLOCK), so either
# call stays under about 40 MB.  The Figure-2 region [0, 16]^2 passes down
# to step 1/31
_MAX_ROWS = 1 << 18


@dataclass(frozen=True)
class RegionClassification:
    nu1: float
    nu2: float
    fejer_rhs: float
    windowed_rhs: float
    verdict: str

    def __post_init__(self):
        if self.verdict not in VERDICTS:
            raise DomainError(f"unknown verdict {self.verdict!r}")


def _verdict(fejer_rhs: float, windowed_rhs: float) -> str:
    if fejer_rhs < 0.0:
        return "Impossible"
    if windowed_rhs > 0.0:
        return "ForcedLowZero"
    return "Unconstrained"


def _scan(nus: List[float], t0: float, delta: float, conductor: float, convention: str,
          tol: float) -> List[RegionClassification]:
    """The rows over nus x nus, row-major in (nu1, nu2).  The archimedean
    integrals depend on one nu at a time, and both kernels share delta and
    centre 0, so one ell call over the kernel tuple and all nu gives both
    sides' terms (the kernels share its panels, digamma and series, and
    each row is bit-identical to that kernel's own call).  Each right side
    is rhs().rhs_total's fsum for the spectral order (i nu1, -i nu1, i nu2,
    -i nu2).  fsum is exact, so that sum is symmetric in (nu1, nu2): the
    rows (nu1, nu2) and (nu2, nu1) share one pair of fsum calls."""
    if not 0 < t0 < math.inf:
        raise DomainError("t0 must be positive and finite")
    _check_prime_free(delta)
    if not 1.0 <= conductor < math.inf:
        raise DomainError("conductor must be finite and >= 1")
    kernels = (fejer(delta), windowed_fejer(t0, delta))
    arch_f, arch_w = (ell(1j * np.asarray(nus, dtype=float), kernels, convention, tol)
                      / TWO_PI).tolist()
    cond_f, cond_w = (f.integral * math.log(conductor) / math.pi for f in kernels)

    n = len(nus)
    rows = [None] * (n * n)
    for i in range(n):
        n1, af1, aw1 = nus[i], arch_f[i], arch_w[i]
        for j in range(i, n):
            n2, af2, aw2 = nus[j], arch_f[j], arch_w[j]
            fr = math.fsum((cond_f, af1, af1, af2, af2, 0.0))
            wr = math.fsum((cond_w, aw1, aw1, aw2, aw2, 0.0))
            verdict = _verdict(fr, wr)
            rows[i * n + j] = RegionClassification(n1, n2, fr, wr, verdict)
            if j > i:
                rows[j * n + i] = RegionClassification(n2, n1, fr, wr, verdict)
    return rows


def classify_point(
    nu1: float,
    nu2: float,
    t0: float = 14.13,
    delta: float = PRIME_FREE_RADIUS,
    conductor: float = 1.0,
    convention: str = "halved",
    tol: float = 1e-8,
) -> RegionClassification:
    """Feasibility verdict for one (nu1, nu2) pair: the (nu1, nu2) row of
    the scan over [nu1, nu2]."""
    if not (0 <= nu1 < math.inf and 0 <= nu2 < math.inf):
        raise DomainError("spectral parameters must be nonnegative and finite")
    return _scan([float(nu1), float(nu2)], t0, delta, conductor, convention, tol)[1]


def scan_region(
    nu_max: float,
    step: float,
    t0: float = 14.13,
    delta: float = PRIME_FREE_RADIUS,
    conductor: float = 1.0,
    convention: str = "halved",
    tol: float = 1e-8,
    threads: int = 1,
) -> List[RegionClassification]:
    """Classify the full grid [0, nu_max]^2, row-major in (nu1, nu2); each
    row is bit-identical to classify_point's.  threads is accepted for the
    callers that pass it and does not affect the result; the scan runs on
    the calling thread.
    """
    if not (0 < step < math.inf and 0 <= nu_max < math.inf):
        raise DomainError("need finite step > 0 and nu_max >= 0")
    n_nu = math.floor(min(nu_max / step + 1e-9, _MAX_ROWS)) + 1
    if n_nu * n_nu > _MAX_ROWS:
        raise DomainError(f"scan grid has more than {_MAX_ROWS} points; take a larger step")
    return _scan(_step_grid(nu_max, step).tolist(), t0, delta, conductor, convention, tol)


def scan_to_csv(
    rows: Sequence[RegionClassification],
    *,
    t0: float,
    delta: float,
    conductor: float,
    step: float,
    convention: str,
) -> str:
    """Render a scan as CSV with '#' metadata lines; %.10g floats keep the
    output stable across runs."""
    lines = [
        f"# t0 = {t0:.10g}",
        f"# delta = {delta:.10g}",
        f"# Q = {conductor:.10g}",
        f"# step = {step:.10g}",
        f"# convention = {convention}",
        "nu1,nu2,fejer_rhs,windowed_rhs,verdict",
    ]
    for r in rows:
        lines.append(
            f"{r.nu1:.10g},{r.nu2:.10g},{r.fejer_rhs:.10g},"
            f"{r.windowed_rhs:.10g},{r.verdict}"
        )
    return "\n".join(lines) + "\n"
