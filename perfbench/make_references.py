"""Regenerate perfbench/references.json, the pinned values the benchmark's
fixed inputs are compared against.

Every number is computed with the package's pointwise routes at tighter
tolerances than the benchmarked calls use (`ell` at tol 1e-10, `fourier_at`
at tol 1e-10), so `result_err` measures how far the benchmarked, faster
routes land from them.  The Fejer-kernel values are cross-checked against
an independent mpmath evaluation of the archimedean term on the frequency
side (Gauss's integral for psi against the closed triangular transform);
the largest difference is stored with the references.

Run from the repository root (takes about two minutes):

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import mpmath  # noqa: E402

from zerogap import (  # noqa: E402
    bundled_example_path, c_coefficients, ell, fejer, fourier_at, load_lfunction,
    min_ell_over_mu, rhs, selberg_minorant, windowed_fejer,
)
from zerogap.explicit_formula import PRIME_FREE_RADIUS, TWO_PI  # noqa: E402

import workloads as wl  # noqa: E402

REF_TOL = 1e-10


def mpmath_ell_fejer(nu: float, delta: float) -> float:
    """ell(i nu, fejer(delta)), halved convention, from
    int psi(z + it/2) f(t) dt = int_0^inf [fhat(0) e^-x/x - e^-zx fhat(x/4pi)/(1-e^-x)] dx
    with z = 1/4 + i nu/2; fhat vanishes beyond x = 4 pi delta, which leaves
    fhat(0) E1(4 pi delta) for the rest of the first term."""
    with mpmath.workdps(50):
        d = mpmath.mpf(delta)
        z = mpmath.mpf(1) / 4 + 0.5j * mpmath.mpf(nu)
        f0 = 1 / d
        big_x = 4 * mpmath.pi * d

        def fhat(xi):
            return (1 - abs(xi) / d) / d

        def integrand(x):
            return f0 * mpmath.exp(-x) / x - mpmath.exp(-z * x) * fhat(x / (4 * mpmath.pi)) / (
                1 - mpmath.exp(-x))

        total = mpmath.quad(integrand, [0, big_x]) + f0 * mpmath.e1(big_x)
        return float(mpmath.re(total) - f0 * mpmath.log(mpmath.pi))


def certify_reference() -> dict:
    length = wl.CERTIFY_FIXED_LENGTH
    s = selberg_minorant(-length / 2, length / 2, PRIME_FREE_RADIUS)
    search = min_ell_over_mu(s)
    value = ell(search.argmin, s, tol=REF_TOL)
    return {
        "window_length": length,
        "argmin": [search.argmin.real, search.argmin.imag],
        "ell_at_argmin": value,
        "margin": 4 * value / TWO_PI,
    }


def scan_reference() -> dict:
    nus = wl.scan_nus()
    f = fejer(PRIME_FREE_RADIUS)
    w = windowed_fejer(wl.SCAN_FIXED_T0, PRIME_FREE_RADIUS)
    ell_f = [ell(1j * nu, f, tol=REF_TOL) for nu in nus]
    ell_w = [ell(1j * nu, w, tol=REF_TOL) for nu in nus]
    oracle = [mpmath_ell_fejer(nu, PRIME_FREE_RADIUS) for nu in nus]
    return {
        "t0": wl.SCAN_FIXED_T0,
        "nus": nus,
        "ell_fejer": ell_f,
        "ell_windowed_fejer": ell_w,
        "fejer_vs_mpmath_max_abs_diff": max(abs(a - b) for a, b in zip(ell_f, oracle)),
    }


def verify_reference() -> dict:
    data = load_lfunction(bundled_example_path())
    half = wl.VERIFY_HALF_LENGTH
    out = {"deltas": [], "rhs_archimedean": [], "rhs_primes": []}
    for delta in wl.VERIFY_FIXED_DELTAS:
        f = selberg_minorant(-half, half, delta)
        primes, acc = None, 0j
        if delta > PRIME_FREE_RADIUS:
            n_max = int(math.floor(math.exp(TWO_PI * f.support_radius) + 1e-9))
            primes = c_coefficients(data, n_max)
            # the prime sum of explicit_formula.rhs, with fourier_at at REF_TOL
            for n in range(2, n_max + 1):
                c = primes(n)
                if c == 0:
                    continue
                x = math.log(n) / TWO_PI
                acc += (c * fourier_at(f, x, REF_TOL)
                        + c.conjugate() * fourier_at(f, -x, REF_TOL)) / math.sqrt(n)
            acc /= TWO_PI
        arch = rhs(data.fe, f, primes, tol=REF_TOL).rhs_archimedean
        out["deltas"].append(delta)
        out["rhs_archimedean"].append(list(arch))
        out["rhs_primes"].append(acc.real)
    return out


def main() -> None:
    refs = {
        "about": "pointwise ell and fourier_at at tol 1e-10; see make_references.py",
        "certify": certify_reference(),
        "scan": scan_reference(),
        "verify": verify_reference(),
    }
    path = HERE / "references.json"
    path.write_text(json.dumps(refs, indent=1) + "\n")
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
