import math
import time
from collections import Counter

import mpmath
import pytest
from hypothesis import given, strategies as st

from zerogap import explicit_formula, region_scan
from zerogap.errors import DomainError
from zerogap.explicit_formula import PRIME_FREE_RADIUS, ell, rhs
from zerogap.extremal import fejer, windowed_fejer
from zerogap.lfunctions import FunctionalEquation
from zerogap.region_scan import (
    VERDICTS,
    RegionClassification,
    classify_point,
    scan_region,
    scan_to_csv,
    _verdict,
)

GOLDEN_CSV = (
    "# t0 = 14.13\n"
    "# delta = 0.1103178001\n"
    "# Q = 1\n"
    "# step = 1\n"
    "# convention = halved\n"
    "nu1,nu2,fejer_rhs,windowed_rhs,verdict\n"
    "0,0,-7.022135792,-1655.828789,Impossible\n"
    "0,1,-6.889422022,-1635.541227,Impossible\n"
    "1,0,-6.889422022,-1635.541227,Impossible\n"
    "1,1,-6.756708252,-1615.253665,Impossible\n"
)


def _mp_closed_ell(f, nu):
    """ell(i nu, f), halved, from the closed form at 30 digits: fhat(0)
    (Re psi(z) - log pi) plus, for each coefficient c_jm of f's
    fourier_pieces at knot k_j, c_jm (4 pi)^-m Re m! sum_k e^-(z+k)a
    (z+k)^-(m+1) with a = 4 pi k_j, which is (-1)^(m+1) psi^(m)(z) at a = 0."""
    with mpmath.workdps(30):
        z = mpmath.mpf(1) / 4 + mpmath.mpc(0, nu) / 2
        delta = mpmath.mpf(f.support_radius)
        total = mpmath.mpf(f.integral) * (mpmath.re(mpmath.digamma(z)) - mpmath.log(mpmath.pi))
        for knot, row in zip((0, delta / 2, delta), f.fourier_pieces):
            a = 4 * mpmath.pi * knot
            for m, c in enumerate(row, 1):
                if knot == 0:
                    s = (-1) ** (m + 1) * mpmath.polygamma(m, z)
                else:
                    s = mpmath.factorial(m) * mpmath.nsum(
                        lambda k: mpmath.exp(-(z + k) * a) / (z + k) ** (m + 1), [0, mpmath.inf])
                total += mpmath.mpf(c) / (4 * mpmath.pi) ** m * mpmath.re(s)
        return total


def test_classify_point_at_huge_nu_in_closed_form(cert_minorant):
    # the Fejer kernels take ell in closed form, whose cost does not grow
    # with |nu|; the Selberg minorant's panel rule still refuses at once
    start = time.perf_counter()
    with pytest.raises(DomainError, match="panels"):
        ell(1e9j, cert_minorant)
    assert time.perf_counter() - start < 1.0
    classify_point(1e9, 0.0)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        row = classify_point(1e9, 0.0)
        times.append(time.perf_counter() - start)
    assert sorted(times)[2] < 1e-3
    assert row.verdict == "ForcedLowZero"
    for got, f in ((row.fejer_rhs, fejer(PRIME_FREE_RADIUS)),
                   (row.windowed_rhs, windowed_fejer(14.13, PRIME_FREE_RADIUS))):
        want = (_mp_closed_ell(f, 1e9) + _mp_closed_ell(f, 0)) / mpmath.pi
        assert abs(got - float(want)) <= 1e-12 * abs(float(want))


def test_scan_takes_no_panel(monkeypatch):
    def build(*args):
        raise AssertionError("a panel was built")
    monkeypatch.setattr(explicit_formula, "_ell_edges", build)
    rows = scan_region(16.0, 0.5)
    assert len(rows) == 33 * 33


def test_classify_known_points():
    origin = classify_point(0.0, 0.0)
    assert origin.verdict == "Impossible"
    assert origin.fejer_rhs == pytest.approx(-7.022135793079552, abs=1e-6)
    assert origin.windowed_rhs == pytest.approx(-1655.82878945231, abs=1e-3)

    example = classify_point(4.72095103638565339773, 12.4687522615131728082)
    assert example.verdict == "Unconstrained"
    assert example.fejer_rhs == pytest.approx(0.7121190042667991, abs=1e-6)
    assert example.windowed_rhs == pytest.approx(-50.23250873021476, abs=1e-4)

    far = classify_point(50.0, 50.0)
    assert far.verdict == "ForcedLowZero"
    assert far.fejer_rhs == pytest.approx(11.961424472760486, abs=1e-6)
    assert far.windowed_rhs == pytest.approx(2780.088492960705, abs=1e-3)
    assert far.fejer_rhs > origin.fejer_rhs


def test_classify_symmetric_exactly():
    a = classify_point(3.0, 7.5)
    b = classify_point(7.5, 3.0)
    assert a.fejer_rhs == b.fejer_rhs
    assert a.windowed_rhs == b.windowed_rhs
    assert a.verdict == b.verdict


def test_classify_matches_rhs_assembly():
    # same Fejer kernel, same spectral data, assembled through the general
    # report path: the sums must agree bit for bit
    nu1, nu2 = 2.0, 5.0
    fk = fejer(PRIME_FREE_RADIUS)
    fe = FunctionalEquation(degree=4, conductor=1.0,
                            spectral=(1j * nu1, -1j * nu1, 1j * nu2, -1j * nu2),
                            root_number=1.0 + 0.0j)
    rep = rhs(fe, fk)
    assert classify_point(nu1, nu2).fejer_rhs == rep.rhs_total


def test_verdict_logic():
    assert _verdict(-1.0, -5.0) == "Impossible"
    assert _verdict(-1e-300, 5.0) == "Impossible"
    assert _verdict(0.0, 5.0) == "ForcedLowZero"
    assert _verdict(1.0, 5.0) == "ForcedLowZero"
    assert _verdict(1.0, 0.0) == "Unconstrained"
    assert _verdict(1.0, -5.0) == "Unconstrained"


@given(st.floats(allow_nan=False, allow_infinity=False),
       st.floats(allow_nan=False, allow_infinity=False))
def test_verdict_total(fr, wr):
    assert _verdict(fr, wr) in VERDICTS


def test_classification_validation():
    with pytest.raises(DomainError):
        RegionClassification(nu1=0.0, nu2=0.0, fejer_rhs=0.0,
                             windowed_rhs=0.0, verdict="Maybe")
    with pytest.raises(DomainError):
        classify_point(-1.0, 0.0)
    for nu in (math.nan, math.inf):
        with pytest.raises(DomainError):
            classify_point(nu, 0.0)
        with pytest.raises(DomainError):
            classify_point(0.0, nu)
        with pytest.raises(DomainError):
            classify_point(0.0, 0.0, t0=nu)
        with pytest.raises(DomainError):
            classify_point(0.0, 0.0, conductor=nu)
    with pytest.raises(DomainError):
        classify_point(0.0, 0.0, t0=0.0)
    with pytest.raises(DomainError):
        classify_point(0.0, 0.0, delta=0.2)
    with pytest.raises(DomainError):
        classify_point(0.0, 0.0, conductor=0.5)


def test_scan_matches_pointwise():
    rows = scan_region(1.0, 0.5)
    assert len(rows) == 9
    nus = [0.0, 0.5, 1.0]
    k = 0
    for n1 in nus:
        for n2 in nus:
            direct = classify_point(n1, n2)
            row = rows[k]
            k += 1
            assert (row.nu1, row.nu2) == (n1, n2)
            assert row.fejer_rhs == direct.fejer_rhs
            assert row.windowed_rhs == direct.windowed_rhs
            assert row.verdict == direct.verdict


def test_scan_csv_golden():
    rows = scan_region(1.0, 1.0)
    text = scan_to_csv(rows, t0=14.13, delta=PRIME_FREE_RADIUS, conductor=1.0,
                       step=1.0, convention="halved")
    assert text == GOLDEN_CSV


def _mpmath_fejer_rhs(nu):
    # 4 ell(i nu, fejer)/(2 pi) at conductor 1, from Gauss's integral for psi
    # against the triangular transform, at 30 digits
    with mpmath.workdps(30):
        d = mpmath.mpf(PRIME_FREE_RADIUS)
        z = mpmath.mpf(1) / 4 + 0.5j * mpmath.mpf(nu)
        big_x = 4 * mpmath.pi * d

        def integrand(x):
            fhat = (1 - x / (4 * mpmath.pi * d)) / d
            return mpmath.exp(-x) / (d * x) - mpmath.exp(-z * x) * fhat / (1 - mpmath.exp(-x))

        total = mpmath.quad(integrand, [0, big_x]) + mpmath.e1(big_x) / d
        ell = mpmath.re(total) - mpmath.log(mpmath.pi) / d
        return float(4 * ell / (2 * mpmath.pi))


def test_scan_csv_golden_fejer_column_against_mpmath():
    for nu, golden in ((0.0, "-7.022135792"), (1.0, "-6.756708252")):
        want = _mpmath_fejer_rhs(nu)
        assert f"{want:.10g}" == golden
        assert classify_point(nu, nu).fejer_rhs == pytest.approx(want, abs=1e-11)


def test_scan_figure2_verdict_counts():
    rows = scan_region(16.0, 0.5, t0=14.13)
    assert len(rows) == 33 * 33
    counts = Counter(r.verdict for r in rows)
    assert counts == {"Impossible": 528, "ForcedLowZero": 440, "Unconstrained": 121}


def test_scan_validation():
    with pytest.raises(DomainError):
        scan_region(1.0, 0.0)
    with pytest.raises(DomainError):
        scan_region(-1.0, 0.5)
    for nu_max, step in [(math.inf, 0.5), (math.nan, 0.5), (16.0, math.inf),
                         (16.0, math.nan)]:
        with pytest.raises(DomainError):
            scan_region(nu_max, step)


def test_oversized_scan_is_refused_before_any_work(monkeypatch):
    # 16,001 nu make 256,032,001 rows, which would not fit in memory: the
    # row count is refused before a grid is built
    def fail(*args, **kwargs):
        raise AssertionError("called")

    monkeypatch.setattr(region_scan, "ell", fail)
    monkeypatch.setattr(region_scan, "_step_grid", fail)
    start = time.perf_counter()
    with pytest.raises(DomainError, match="larger step"):
        scan_region(16.0, 1e-3)
    assert time.perf_counter() - start < 1.0
    for nu_max, step in [(1e300, 1e-300), (16.0, 5e-324)]:
        with pytest.raises(DomainError, match="larger step"):
            scan_region(nu_max, step)


def test_scan_row_limit_is_exact(monkeypatch):
    monkeypatch.setattr(region_scan, "_scan", lambda nus, *args: len(nus))
    side = math.isqrt(region_scan._MAX_ROWS)
    assert side * side == region_scan._MAX_ROWS
    assert scan_region(side - 1.0, 1.0) == side
    with pytest.raises(DomainError, match="larger step"):
        scan_region(float(side), 1.0)


def test_windowed_kernel_is_what_scan_uses():
    # ForcedLowZero reads a positive windowed total as mass that only
    # ordinates inside (-t0, t0) can supply
    w = windowed_fejer(14.13, PRIME_FREE_RADIUS)
    assert w.value(0.0) > 0.0
    assert w.value(20.0) <= 0.0
    assert w.positivity_window == (-14.13, 14.13)
