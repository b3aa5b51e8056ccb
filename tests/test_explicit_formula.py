import json
import math
import random
import time
import tracemalloc
from dataclasses import replace
from decimal import Decimal, localcontext
from functools import lru_cache
from pathlib import Path

import mpmath
import numpy as np
import pytest
import scipy.special
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad

import zerogap.explicit_formula as ef
from zerogap.errors import AccuracyError, DomainError, IncompletenessError
from zerogap.explicit_formula import (
    PRIME_FREE_RADIUS,
    ExplicitFormulaReport,
    ell,
    ell_column_floor,
    ell_grid,
    rhs,
    verify,
    zero_sum,
)
from zerogap.extremal import _selberg_jet, fejer, fourier_at, selberg_minorant, windowed_fejer
from zerogap.lfunctions import FunctionalEquation, LogDerivativeCoefficients, c_coefficients
from zerogap.special_math import digamma

NU2 = 12.4687522615131728082

# frozen from a tol=1e-10 run of the time-domain route (the test function's
# tail decomposition against psi, finished by integration by parts),
# cross-checked by a crude truncated-line quadrature and a 30-digit
# core-integral oracle; the frequency-side ell is independent of all three
ELL_AT_ZERO = 0.29198301495782886
ELL_AT_NU2 = 9.284729207160758
CORE_40 = 42.8583448007978153  # int_{-40}^{40} Re psi(1/4 + it/2) S(t) dt


def test_ell_regression_values(cert_minorant):
    assert ell(0.0, cert_minorant) == pytest.approx(ELL_AT_ZERO, abs=1e-10)
    assert ell(1j * NU2, cert_minorant) == pytest.approx(ELL_AT_NU2, abs=1e-10)


def test_core_integral_oracle(cert_minorant):
    s = cert_minorant
    value = quad(lambda t: np.real(digamma(0.25 + 0.5j * t)) * s.value(t), -40.0, 40.0,
                 epsabs=1e-12, epsrel=0.0, limit=200)[0]
    assert value == pytest.approx(CORE_40, abs=1e-10)


def test_ell_conjugation_symmetry(cert_minorant):
    a = ell(2.0 + 3.0j, cert_minorant)
    b = ell(2.0 - 3.0j, cert_minorant)
    assert a == pytest.approx(b, abs=2e-8)


def test_ell_convention_identity(cert_minorant):
    # literal at mu/2 is the same kernel as halved at mu, exactly
    for mu in (0.8, 1.4 + 7.3j, 12.0j):
        assert ell(mu / 2, cert_minorant, "literal") == ell(mu, cert_minorant)


def test_ell_large_re_asymptote(cert_minorant):
    # |mu| large: psi(1/4 + mu/2 + it/2) is nearly constant where f lives;
    # at 1e5 i, e^{-zx} runs through some 11000 periods on [0, 4 pi delta]
    for mu in (4000.0, 1e5j):
        got = ell(mu, cert_minorant)
        z = 0.25 + mu / 2.0
        want = cert_minorant.integral * (float(np.real(digamma(z + 0j))) - math.log(math.pi))
        assert got == pytest.approx(want, rel=1e-4)


def test_ell_panel_count_is_the_edges_count():
    f = fejer(PRIME_FREE_RADIUS)
    big_x = 4.0 * math.pi * f.support_radius
    x_end = max(big_x, 1.0)
    spans = ef._ell_spans(big_x, x_end)
    for im in (0.0, 3.7, 2e4):
        edges = ef._ell_edges(complex(0.25, im), spans, x_end)
        assert sum(ef._span_panels(spans, im)) == len(edges) - 1


def test_ell_refuses_huge_im_mu_at_once(cert_minorant):
    # the panel count is checked before any panel is built: without the cap
    # this call would take about half an hour.  The Selberg minorant is the
    # kernel that still takes the panel rule
    start = time.perf_counter()
    with pytest.raises(DomainError, match="panels"):
        ell(1e9j, cert_minorant)
    assert time.perf_counter() - start < 1.0


def test_ell_rejects_left_halfplane(cert_minorant):
    with pytest.raises(DomainError):
        ell(-0.5, cert_minorant)
    with pytest.raises(DomainError):
        ell(1.0, cert_minorant, "other")


@settings(max_examples=10)
@given(st.floats(min_value=0.0, max_value=5.0),
       st.floats(min_value=0.0, max_value=30.0))
def test_ell_conjugation_property(cert_minorant, x, y):
    mu = complex(x, y)
    assert ell(mu, cert_minorant, tol=1e-6) == pytest.approx(
        ell(mu.conjugate(), cert_minorant, tol=1e-6), abs=1e-5)


# the split form of ell (module docstring) at 30 digits: mpmath's own
# Gauss-Legendre quadrature of e^{-zx} h(x) on [0, X], split at X/2 and
# about twice per period of e^{-i Im z x}, graded toward 0 for large Re z,
# and the series summed from X
HALF = 5.0 * math.pi / math.log(2.0)
MP_KERNELS = {
    "headline": ("selberg", (-HALF, HALF, PRIME_FREE_RADIUS)),
    "asymmetric": ("selberg", (-7.3, 19.1, 0.09)),
    "fejer": ("fejer", (PRIME_FREE_RADIUS,)),
    "windowed": ("windowed", (14.13, PRIME_FREE_RADIUS)),
}
MAKERS = {"selberg": selberg_minorant, "fejer": fejer, "windowed": windowed_fejer}


def _mp_transform(kind, params):
    """(fhat on [0, delta), fhat(0), delta) from extremal's closed forms."""
    if kind == "selberg":
        alpha, beta, delta = map(mpmath.mpf, params)
        length, centre = beta - alpha, alpha + beta

        def fhat(xi):
            u = xi / delta
            j_hat = (1 - u) * mpmath.pi * u * mpmath.cot(mpmath.pi * u) + u
            body = (j_hat * mpmath.sin(mpmath.pi * xi * length) / (mpmath.pi * xi)
                    - (1 - u) / delta * mpmath.cos(mpmath.pi * xi * length))
            return body * mpmath.expj(-mpmath.pi * centre * xi)
        return fhat, length - 1 / delta, delta
    if kind == "fejer":
        delta = mpmath.mpf(params[0])
        return (lambda xi: (1 - xi / delta) / delta), 1 / delta, delta
    t0, delta = map(mpmath.mpf, params)
    a = delta / 2

    def fhat(xi):
        s = xi / a
        p2, p1 = 2 - s, max(1 - s, 0)
        return (t0**2 * (p2**3 - 4 * p1**3) / (6 * a)
                + (p2 - 4 * p1) / (4 * mpmath.pi**2 * a**3))
    return fhat, fhat(mpmath.mpf(0)), delta


def test_fourier_at_off_centre_matches_mpmath():
    # Re f^ of a translated window, against the phased 30-digit oracle; f is
    # real, so Re f^ is even and the oracle on [0, delta) covers both signs
    params = (-7.3, 19.1, 0.09)
    f = selberg_minorant(*params)
    xi = np.linspace(0.0, params[2], 41)[1:-1]
    with mpmath.workdps(30):
        fhat = _mp_transform("selberg", params)[0]
        want = np.array([float(mpmath.re(fhat(mpmath.mpf(x)))) for x in xi])
    for sign in (1.0, -1.0):
        assert np.abs(fourier_at(f, sign * xi) - want).max() < 1e-12


@lru_cache(maxsize=None)
def _mp_ell(kind, params, mu):
    with mpmath.workdps(30):
        fhat, f0, delta = _mp_transform(kind, params)
        z = mpmath.mpf(1) / 4 + mpmath.mpc(mu) / 2
        big_x = 4 * mpmath.pi * delta

        def g(x):
            h = (f0 - fhat(x / (4 * mpmath.pi))) / -mpmath.expm1(-x)
            return mpmath.re(mpmath.exp(-z * x) * h)
        pieces = max(1, math.ceil(float(mpmath.im(z) * big_x / (2 * mpmath.pi))))
        edges = [big_x * k / (2 * pieces) for k in range(2 * pieces + 1)]
        while mpmath.re(z) * edges[1] > 1:
            edges.insert(1, edges[1] / 2)
        integral, error = mpmath.quad(g, edges, method="gauss-legendre", error=True)
        assert error < 1e-20
        return float(f0 * (mpmath.re(mpmath.digamma(z)) - mpmath.log(mpmath.pi))
                     + integral + mpmath.re(f0 * _mp_series(z, big_x)))


def _mp_series(z, big_x):
    """sum_{k>=0} e^-(z+k)X/(z+k) to 30 digits, as e^-zX sum_k q^k conj(z + k)
    /|z + k|^2 with q = e^-X; a narrow support takes 80/X terms, 6,400 at
    delta = 1e-3, so the two real sums run in 40-digit decimals."""
    with localcontext() as ctx:
        ctx.prec = 40
        a, b, q = (Decimal(mpmath.nstr(v, 35)) for v in (z.real, z.imag, mpmath.exp(-big_x)))
        power, re, im = Decimal(1), Decimal(0), Decimal(0)
        for k in range(math.ceil(80 / float(big_x))):
            ak = a + k
            scaled = power / (ak * ak + b * b)
            re += scaled * ak
            im += scaled
            power *= q
        im *= -b
    return mpmath.exp(-z * big_x) * mpmath.mpc(str(re), str(im))


@pytest.mark.parametrize("name", list(MP_KERNELS))
def test_ell_matches_mpmath(name):
    kind, params = MP_KERNELS[name]
    f = MAKERS[kind](*params)
    bound = 1e-11 if kind == "windowed" else 1e-12  # values near 1e3 there
    for mu in (0.0, 3.0 + 7.0j, 16.0j, 50.0j):
        assert abs(ell(mu, f, tol=bound) - _mp_ell(kind, params, mu)) < bound, mu


def test_ell_small_support_and_large_re(cert_minorant):
    # X = 4 pi 1e-3: h is integrated on to x = 1, where the series starts
    f = fejer(1e-3)
    for mu in (0.0, 16.0j):
        assert abs(ell(mu, f, tol=1e-11) - _mp_ell("fejer", (1e-3,), mu)) < 1e-11
    # e^{-zx} falls by e^{-2000} over [0, 1]: the panels are graded toward 0
    want = _mp_ell(*MP_KERNELS["headline"], 4000.0)
    assert abs(ell(4000.0, cert_minorant, tol=1e-12) - want) < 1e-12


@pytest.mark.parametrize("name, tol", [("headline", 1e-13), ("windowed", 1e-11)])
def test_ell_reaches_tight_tolerances(name, tol):
    # below the cancellation floor of the unsplit integrand, whose
    # f^(0) e^{-x}/x overflows as x -> 0
    kind, params = MP_KERNELS[name]
    f = MAKERS[kind](*params)
    for mu in (0.0, 16.0j):
        assert abs(ell(mu, f, tol=tol) - _mp_ell(kind, params, mu)) < tol


def test_ell_accuracy_error_carries_best():
    # 1e-14 is below the rounding of a value near 2.6e3 (one ulp is 4.5e-13)
    kind, params = MP_KERNELS["windowed"]
    with pytest.raises(AccuracyError) as info:
        ell(0.0, windowed_fejer(*params), tol=1e-14)
    assert abs(info.value.best - _mp_ell(kind, params, 0.0)) < 1e-11


BATCH_KERNELS = {
    "selberg": selberg_minorant(-HALF, HALF, PRIME_FREE_RADIUS),
    "fejer": fejer(PRIME_FREE_RADIUS),
    "windowed": windowed_fejer(14.13, PRIME_FREE_RADIUS),
    "off_centre": selberg_minorant(-7.3, 19.1, 0.09),
}


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(sorted(BATCH_KERNELS)),
       st.lists(st.builds(complex, st.floats(0.0, 40.0), st.floats(-80.0, 80.0)),
                min_size=1, max_size=8),
       st.randoms(use_true_random=False))
# graded edges, shifted by the centre
@example("off_centre", [complex(40.0, -80.0), 0j], random.Random(0))
@example("selberg", [complex(1e-300, 0.0), complex(40.0, 80.0)], random.Random(0))
def test_ell_batch_bit_identical_to_pointwise(name, mus, rnd):
    f = BATCH_KERNELS[name]
    rnd.shuffle(mus)
    batch = ell(np.array(mus), f)
    assert isinstance(batch, np.ndarray) and batch.shape == (len(mus),)
    for mu, value in zip(mus, batch):
        single = ell(mu, f)
        assert type(single) is float
        assert value == single, mu


@pytest.mark.parametrize("name", sorted(BATCH_KERNELS))
def test_ell_batch_across_panel_blocks(name):
    # 2e4 i needs more than _PANEL_BLOCK panels, so its panels and those of
    # its neighbours straddle block boundaries in either order
    f = BATCH_KERNELS[name]
    mus = [3.0 + 1.0j, 2e4j, 0.5, 7.25j]
    big_x = 4.0 * math.pi * f.support_radius
    x_end = max(big_x, 1.0)
    assert len(ef._ell_edges(0.25 + 1e4j, ef._ell_spans(big_x, x_end), x_end)) > ef._PANEL_BLOCK + 1
    singles = [ell(mu, f, tol=1e-6) for mu in mus]
    assert ell(np.array(mus), f, tol=1e-6).tolist() == singles
    assert ell(np.array(mus[::-1]), f, tol=1e-6).tolist() == singles[::-1]


def test_ell_batch_accuracy_error_carries_array():
    f = BATCH_KERNELS["windowed"]
    mus = np.array([16.0j, 0.0])
    with pytest.raises(AccuracyError) as info:
        ell(mus, f, tol=1e-14)
    assert isinstance(info.value.best, np.ndarray)
    assert info.value.best.tolist() == [ell(mu, f, tol=1.0) for mu in mus]


def test_ell_batch_input_validation(cert_minorant):
    assert ell(np.array([], dtype=complex), cert_minorant).shape == (0,)
    with pytest.raises(DomainError):
        ell(np.zeros((2, 2)), cert_minorant)
    with pytest.raises(DomainError):
        ell(np.array([1.0, -0.5]), cert_minorant)
    for mu in (math.nan, 1j * math.inf, math.inf, np.array([0.0, complex(1.0, math.nan)])):
        with pytest.raises(DomainError):
            ell(mu, cert_minorant)
    # err > nan is always false: a nan tol would switch the check off
    for tol in (math.nan, math.inf, 0.0, -1e-8):
        with pytest.raises(DomainError):
            ell(0.0, cert_minorant, tol=tol)


# tuples of kernels with fourier_pieces, one support radius and one centre:
# the scan's pair, both ways round, and one kernel alone
SCAN_PAIR = (BATCH_KERNELS["fejer"], BATCH_KERNELS["windowed"])
KERNEL_TUPLES = {
    "scan": SCAN_PAIR,
    "scan_reversed": SCAN_PAIR[::-1],
    "one": (SCAN_PAIR[1],),
}
SCAN_NUS = 2.0 * np.arange(9)  # scan_region(16, 2)
FIG2_NUS = 0.5 * np.arange(33)  # the Figure-2 grid, scan_region(16, 0.5)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("convention", ef.CONVENTIONS)
@pytest.mark.parametrize("nus", [SCAN_NUS, FIG2_NUS, np.array([0.0, 1.5, 250.0, 3333.3, 1e4])],
                         ids=["scan", "figure2", "to_1e4"])
def test_ell_kernel_batch_rows_are_single_calls_bitwise(nus, convention):
    # at nu = 1e4 one mu's panels cross several _PANEL_BLOCK boundaries
    mus = 1j * nus
    rows = ell(mus, SCAN_PAIR, convention, tol=1e-6)
    assert rows.shape == (2, len(nus))
    for row, f in zip(rows, SCAN_PAIR):
        assert _bits(row) == _bits(ell(mus, f, convention, tol=1e-6))


@pytest.mark.parametrize("convention", ef.CONVENTIONS)
@pytest.mark.parametrize("name", sorted(KERNEL_TUPLES))
def test_ell_kernel_batch_scalar_mu(name, convention):
    kernels = KERNEL_TUPLES[name]
    for mu in (0.0, 3.0 + 7.0j, 16.0j):
        rows = ell(mu, kernels, convention)
        assert isinstance(rows, np.ndarray) and rows.shape == (len(kernels),)
        assert _bits(rows) == _bits([ell(mu, f, convention) for f in kernels])


def test_ell_kernel_batch_columns_do_not_depend_on_the_batch():
    full = ell(1j * FIG2_NUS, SCAN_PAIR)
    assert _bits(full[:, :9]) == _bits(ell(1j * FIG2_NUS[:9], SCAN_PAIR))
    assert _bits(full[:, ::4]) == _bits(ell(1j * SCAN_NUS, SCAN_PAIR))


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(KERNEL_TUPLES)),
       st.lists(st.builds(complex, st.floats(0.0, 40.0), st.floats(-80.0, 80.0)),
                min_size=1, max_size=8))
@example("scan", [0j])  # two near shifts go to the quadrature
@example("scan", [1j / PRIME_FREE_RADIUS, 2j / PRIME_FREE_RADIUS])  # none do
def test_ell_kernel_batch_property(name, mus):
    kernels = KERNEL_TUPLES[name]
    rows = ell(np.array(mus), kernels, tol=1e-6)
    assert rows.shape == (len(kernels), len(mus))
    for row, f in zip(rows, kernels):
        assert _bits(row) == _bits([ell(mu, f, tol=1e-6) for mu in mus])


def test_ell_kernel_batch_refusals(monkeypatch):
    def build(*args):
        raise AssertionError("a panel was built")
    monkeypatch.setattr(ef, "_ell_spans", build)
    monkeypatch.setattr(ef, "_ell_edges", build)
    # empty, two supports, two centres
    for kernels in ((), (fejer(0.1), fejer(0.11)),
                    (selberg_minorant(-7.3, 19.1, 0.09), selberg_minorant(-7.3, 18.1, 0.09))):
        with pytest.raises(DomainError):
            ell(np.array([0.0, 2.0j]), kernels)
        with pytest.raises(DomainError):
            ell(0.0, kernels)
    # one support and centre, but a kernel without fourier_pieces: a tuple
    # takes the closed form only
    selbergs = (BATCH_KERNELS["selberg"],
                selberg_minorant(-0.5 * HALF, 0.5 * HALF, PRIME_FREE_RADIUS))
    for kernels in ((SCAN_PAIR[0], selbergs[0], SCAN_PAIR[1]), selbergs):
        for mu in (np.array([0.0, 2.0j]), 0.0):
            with pytest.raises(DomainError, match="fourier_pieces"):
                ell(mu, kernels)


def test_ell_panel_cap_boundary(monkeypatch):
    # a mu whose panels just fit the cap passes, and one more mu is refused
    f = BATCH_KERNELS["selberg"]
    big_x = 4.0 * math.pi * f.support_radius
    mu = 400.0j
    cap = sum(ef._span_panels(ef._ell_spans(big_x, max(big_x, 1.0)), 0.5 * mu.imag))
    monkeypatch.setattr(ef, "_MAX_PANELS", cap)
    assert math.isfinite(ell(mu, f))
    with pytest.raises(DomainError, match="panels"):
        ell(np.array([mu, 0.0]), f)


def test_ell_kernel_batch_accuracy_error_carries_rows():
    # 1e-14 is below the windowed kernel's rounding; best keeps every row
    mus = np.array([16.0j, 0.0])
    with pytest.raises(AccuracyError, match=r"at mu = .* for kernel 'windowed_fejer@") as info:
        ell(mus, SCAN_PAIR, tol=1e-14)
    assert info.value.best.shape == (2, 2)
    assert _bits(info.value.best) == _bits([ell(mus, f, tol=1.0) for f in SCAN_PAIR])
    with pytest.raises(AccuracyError) as info:
        ell(0.0, SCAN_PAIR, tol=1e-14)
    assert info.value.best.shape == (2,)


# the Fejer kernels' closed form against the 30-digit quadrature of the
# split form: at nu = 0, 0.5, ..., 16 and a few far points, in both
# conventions (the literal one at mu is the halved one at 2 mu)
CLOSED_MUS = [1j * nu for nu in FIG2_NUS] + [3.0 + 7.0j, 50.0j, 200.0j, 4000.0]
# narrow supports, X/2 < 1/2, whose geometric sums run past 74 terms; the
# windowed values reach 2.6e9 there (at mu = 4000, delta = 1e-3), so their
# bound is on the error relative to max(1, |ell|), and so is their tol
NARROW_KERNELS = {f"{kind}_{delta:g}": (kind, (delta,) if kind == "fejer" else (14.13, delta))
                  for kind in ("fejer", "windowed") for delta in (0.05, 0.01, 1e-3)}


@pytest.mark.parametrize("convention", ef.CONVENTIONS)
@pytest.mark.parametrize("name, bound", [("windowed", 3e-12), ("fejer", 1e-13)]
                         + [(name, 1e-14) for name in NARROW_KERNELS])
def test_ell_closed_form_matches_mpmath(name, bound, convention):
    narrow = name in NARROW_KERNELS
    kind, params = NARROW_KERNELS[name] if narrow else MP_KERNELS[name]
    got = ell(np.array(CLOSED_MUS), MAKERS[kind](*params), convention, tol=1.0 if narrow else 1e-8)
    scale = ef.convention_scale(convention)
    for mu, value in zip(CLOSED_MUS, got):
        want = _mp_ell(kind, params, scale * mu)
        assert abs(value - want) <= bound * (max(1.0, abs(want)) if narrow else 1.0), mu


@pytest.mark.parametrize("f", [fejer(PRIME_FREE_RADIUS), windowed_fejer(14.13, PRIME_FREE_RADIUS),
                               fejer(0.3), windowed_fejer(3.0, 0.05)], ids=lambda f: f.label)
def test_fourier_pieces_reproduce_the_transform(f):
    # integral - sum_j sum_m c_jm (xi - k_j)_+^m at knots 0, delta/2, delta,
    # within 1e-13 of the transform's largest value, also beyond the support
    delta = f.support_radius
    xi = np.concatenate((np.random.default_rng(7).uniform(0.0, delta, 1000),
                         [0.0, 0.5 * delta, delta, 1.5 * delta, 3.0 * delta]))
    pieces = f.integral - sum(c * np.maximum(xi - knot, 0.0) ** m
                              for knot, row in zip((0.0, 0.5 * delta, delta), f.fourier_pieces)
                              for m, c in enumerate(row, 1))
    want = f.fourier_centred(xi)
    assert np.max(np.abs(pieces - want)) <= 1e-13 * np.max(np.abs(want))
    assert np.all(want[-2:] == 0.0)


def test_ell_closed_form_batch_bitwise():
    # the closed form, like the panel rule, gives each mu its own value, bit
    # for bit
    mus = np.array([0.0, 0.5j, 3.0 + 7.0j, 16.0j, 4000.0, 1e9j])
    for f in SCAN_PAIR:
        batch = ell(mus, f)
        assert _bits(batch) == _bits([ell(mu, f) for mu in mus])


def test_ell_refuses_a_mu_whose_z_overflows():
    # doubled in the literal convention, 1e308 leaves the floats
    for f in (fejer(PRIME_FREE_RADIUS), BATCH_KERNELS["selberg"]):
        for mu in (1.7e308, 1e308j):
            with pytest.raises(DomainError, match="overflows"):
                ell(mu, f, "literal")
    assert math.isfinite(ell(1e308j, fejer(PRIME_FREE_RADIUS)))


def test_ell_closed_form_takes_no_panel(monkeypatch):
    def build(*args):
        raise AssertionError("a panel was built")
    for name in ("_ell_spans", "_ell_edges", "_span_panels"):
        monkeypatch.setattr(ef, name, build)
    assert ell(1j * FIG2_NUS, SCAN_PAIR).shape == (2, len(FIG2_NUS))
    # narrow supports too, whose geometric sums run 589 and 118 terms
    for f in (fejer(0.01), windowed_fejer(3.0, 0.05)):
        assert math.isfinite(ell(0.0, f))


def test_ell_closed_form_refuses_long_sums_at_once():
    # fejer(1e-7) needs 58,887,329 terms, some 7 GiB: refused before any array
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DomainError, match="terms"):
            ell(0.0, fejer(1e-7))
        assert time.perf_counter() - start < 1.0
        assert tracemalloc.get_traced_memory()[1] < 1 << 16
    finally:
        tracemalloc.stop()


def test_ell_closed_form_sum_cap_boundary(monkeypatch):
    # 589 terms per mu at delta = 0.01: a batch at the cap passes, and one
    # more mu is refused
    f = fejer(0.01)
    n_terms = math.ceil(74.0 / (4.0 * math.pi * f.support_radius))
    assert n_terms == 589
    mus = 1j * np.arange(9.0)
    monkeypatch.setattr(ef, "_MAX_SUM_TERMS", len(mus) * n_terms)
    assert ell(mus, f).shape == (len(mus),)
    with pytest.raises(DomainError, match="terms"):
        ell(np.append(mus, 9.0j), f)


def test_gauss_panels_integrate_gaussian():
    x, w = ef._gauss_panels(np.linspace(-8.0, 8.0, 9), 24)
    assert abs(np.sum(w * np.exp(-x * x)) - math.sqrt(math.pi)) < 1e-12


def test_gauss_rules_match_mpmath():
    # numpy's own leggauss weights are up to 1e-12 off at 48 points
    with mpmath.workdps(30):
        for n in (15, 24, 48):
            nodes, weights = ef._unit_gauss(n)
            for x, w in zip(nodes, weights):
                t = 2 * mpmath.mpf(x) - 1
                for _ in range(3):
                    t -= mpmath.legendre(n, t) / mpmath.diff(lambda s: mpmath.legendre(n, s), t)
                dp = mpmath.diff(lambda s: mpmath.legendre(n, s), t)
                assert abs(x - (1 + t) / 2) <= 2e-16 * (1 + t) / 2
                assert abs(w - 1 / ((1 - t * t) * dp * dp)) <= 4e-16 * w


def test_ell_grid_matches_pointwise(cert_minorant):
    im_v = np.arange(0.0, 200.0 + 1e-9, 0.25)
    row, bound = ell_grid(cert_minorant, [0.0], im_v, im_max=200.0)
    for j in (0, 100, 399, 800):
        p = ell(1j * im_v[j], cert_minorant)
        assert abs(row[0, j] - p) < bound
        assert abs(row[0, j] - p) < 5e-5


def test_ell_grid_psi_kernel_matches_scipy_rows(cert_minorant, monkeypatch):
    # the headline row with the real-arithmetic Re psi kernel, against the
    # same call whose table and smooth tails take scipy's complex psi
    im_v = ef._step_grid(200.0, 0.25)
    row, bound = ell_grid(cert_minorant, [0.0], im_v, im_max=200.0)
    monkeypatch.setattr(ef, "_re_digamma",
                        lambda a, v: np.real(scipy.special.psi(a + 1j * v)))
    reference, reference_bound = ell_grid(cert_minorant, [0.0], im_v, im_max=200.0)
    assert bound == reference_bound
    assert np.max(np.abs(row - reference)) < 1e-12


@pytest.mark.parametrize("im_v", [
    np.arange(0.0, 30.0 + 1e-9, 0.5),
    np.array([0.0, 5.25, 10.5]),  # stride 84
    np.array([0.0, 7.0]),  # two columns, stride 112
])
def test_ell_grid_irregular_grids_match_pointwise(cert_minorant, im_v):
    row, bound = ell_grid(cert_minorant, [0.0], im_v, im_max=im_v[-1])
    for j in {0, len(im_v) // 3, len(im_v) - 1}:
        p = ell(1j * im_v[j], cert_minorant)
        assert abs(row[0, j] - p) < bound


def _grid_and_psi_tables(f, re_v, im_v, monkeypatch):
    # ell_grid's values, and the (a, v) of its psi table: the first of its
    # three Re psi calls, the smooth tails being the other two
    calls = []
    direct = ef._re_digamma

    def spy(a, v):
        calls.append((float(a), v.copy()))
        return direct(a, v)

    with monkeypatch.context() as mp:
        mp.setattr(ef, "_re_digamma", spy)
        return ell_grid(f, re_v, im_v, im_max=im_v[-1]), calls[::3]


def test_ell_grid_mirrors_its_psi_table(cert_minorant, monkeypatch):
    # from Im mu = 0 the table holds v = 0, and it is evaluated on its
    # v >= 0 half alone; read back at |k - c|, it equals the same row on the
    # full table
    im_v = ef._step_grid(20.0, 0.25)
    _, tables = _grid_and_psi_tables(cert_minorant, [0.0], im_v, monkeypatch)
    [(a, half)] = tables
    assert half[0] == 0.0 and (np.diff(half) > 0.0).all()
    c = len(half) - 1 - 4 * (len(im_v) - 1)  # the half is c + 1 + n_shift long
    full = np.concatenate((-half[c:0:-1], half))
    mirror = np.abs(np.arange(len(full)) - c)
    assert ef._re_digamma(a, half)[mirror].tobytes() == ef._re_digamma(a, full).tobytes()


# the Im grid of certify_gap(4, 10 pi/log 2), whose Re mu = 0 row it evaluates
HEADLINE_IM = ef._step_grid(200.0, 0.25)

FOLD_IM_MAX = 30.0


def _rows(f, im_v, y_stride=16):
    # the Re mu = 0 row and its bound; y_stride 1 evaluates the smooth
    # tails at every column instead of interpolating between every 16th,
    # which differ between Im steps (up to 3.5e-8 apart here)
    smooth_tail_nodes = ef._smooth_tail_nodes
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ef, "_smooth_tail_nodes", lambda ys, c_p, smooth, t3, eps, _:
                   smooth_tail_nodes(ys, c_p, smooth, t3, eps, y_stride))
        return ell_grid(f, [0.0], im_v, im_max=FOLD_IM_MAX)


@pytest.fixture(scope="module")
def stride_one_grid(cert_minorant):
    # Im step 1/16: every shift of the table
    return _rows(cert_minorant, ef._step_grid(FOLD_IM_MAX, 0.0625), y_stride=1)


@pytest.mark.parametrize("step, stride", [
    (0.25, 4),
    (0.1875, 3),  # odd: the columns fall on every third shift
    (0.5, 8),
])
def test_ell_grid_fold_matches_stride_one(cert_minorant, stride_one_grid, step, stride):
    # the same lattice (t3 follows im_max), read at every stride-th shift:
    # each column is the same sum over the same table entries, bit for bit
    grid, bound = _rows(cert_minorant, ef._step_grid(FOLD_IM_MAX, step), y_stride=1)
    reference, reference_bound = stride_one_grid
    assert bound == reference_bound
    assert grid.shape == (1, int(FOLD_IM_MAX / step) + 1)
    assert grid.tobytes() == np.ascontiguousarray(reference[:, ::stride]).tobytes()
    # with the default tails, the columns where both grids interpolate from
    # a node: every 16th of the coarse grid
    coarse, _ = _rows(cert_minorant, ef._step_grid(FOLD_IM_MAX, step))
    fine, _ = _rows(cert_minorant, ef._step_grid(FOLD_IM_MAX, 0.0625))
    assert coarse[:, ::16].tobytes() == np.ascontiguousarray(fine[:, ::16 * stride]).tobytes()


def test_ell_grid_columns_are_sums_of_their_simpson_products(cert_minorant, monkeypatch):
    # the headline row's correlation part alone (no tail components, no
    # smooth part, no log pi term) against math.fsum of its products, built
    # here on the whole lattice |t| <= t3 = 420 without the mirroring.  Any
    # order of summing n products is within (n - 1) u/(1 - (n - 1) u) of
    # the sum of their moduli (N. J. Higham, Accuracy and Stability of
    # Numerical Algorithms, 2nd ed., 2002, (4.4)), 1e-10 here; the row's 66
    # columns sit 0 to 40 ulps, at most 2.9e-13, from the exact sum
    selberg_tail = ef._selberg_tail

    def bare_tail(*window):
        # the tail's cutoff bounds kept, its values zeroed
        t_valid, c_p, _, omega, bounds, edges = selberg_tail(*window)
        zero = np.zeros_like
        return t_valid, c_p, zero, omega, bounds, tuple((zero, zero, p) for _, _, p in edges)

    monkeypatch.setattr(ef, "_selberg_tail", bare_tail)
    row, _ = ell_grid(replace(cert_minorant, integral=0.0), [0.0], HEADLINE_IM[:66],
                      im_max=200.0)
    h, n_half = ef._LATTICE_H, 6720
    n = 2 * n_half + 1
    k = np.arange(n) - n_half
    simpson = np.where(k % 2, 4.0, 2.0)
    simpson[[0, -1]] = 1.0
    fw = simpson * (h / 3.0) * cert_minorant.value(k * h)
    u = 2.0**-53
    for j in (0, 10, 65):
        terms = fw * ef._re_digamma(0.25, 0.5 * h * (k + 4 * j))
        bound = (n - 1) * u / (1 - (n - 1) * u) * math.fsum(np.abs(terms))
        assert abs(row[0, j] - math.fsum(terms)) <= bound


@pytest.mark.parametrize("length", [10.0 * math.pi / math.log(2.0), 45.5, 60.0])
def test_minorant_is_bitwise_even_on_the_lattice(length):
    # ell_grid samples f on the t >= 0 half of its Simpson lattice in one
    # call and mirrors it: that is exact only if f.value is bitwise even
    # there and each value depends on its own node alone
    f = selberg_minorant(-length / 2.0, length / 2.0, PRIME_FREE_RADIUS)
    n = 16384  # t up to 1024, past the headline grid's t3 = 420
    values = f.value(np.arange(n) * ef._LATTICE_H)
    assert f.value(-np.arange(n) * ef._LATTICE_H).tobytes() == values.tobytes()
    full = f.value(np.arange(1 - n, n) * ef._LATTICE_H)
    assert np.concatenate((values[:0:-1], values)).tobytes() == full.tobytes()


def test_ell_grid_headline_cutoff_is_the_column_floor(cert_minorant, monkeypatch):
    # beyond 2 im_max + 20 = 420 the tail components' bounds already keep the
    # integration-by-parts remainder inside its budget, so the lattice is no
    # wider than the Im grid needs; t3 is read off the one smooth-tail call,
    # whose nodes and weights both sides share
    cutoffs = []
    smooth_tail_nodes = ef._smooth_tail_nodes

    def spy(ys, c_p, smooth, t3, eps, y_stride):
        cutoffs.append(t3)
        return smooth_tail_nodes(ys, c_p, smooth, t3, eps, y_stride)

    monkeypatch.setattr(ef, "_smooth_tail_nodes", spy)
    ell_grid(cert_minorant, [0.0], HEADLINE_IM, im_max=200.0)
    assert cutoffs == [420.0]


@pytest.mark.parametrize("length", [2.0 * HALF, 45.5, 60.0])
def test_ell_grid_at_zero_within_bound_of_pointwise(length):
    # the lattice value at mu = 0 on the headline Im grid, against the
    # frequency-side ell and, for the headline window, the benchmark's pinned
    # ell(0), which test_ell_reaches_tight_tolerances holds within 1e-13 of
    # the 30-digit mpmath oracle
    f = selberg_minorant(-length / 2.0, length / 2.0, PRIME_FREE_RADIUS)
    grid, bound = ell_grid(f, [0.0], HEADLINE_IM, im_max=200.0)
    assert abs(grid[0, 0] - ell(0.0, f, tol=1e-10)) < bound
    if length == 2.0 * HALF:
        refs = json.loads((Path(__file__).resolve().parents[1] / "perfbench"
                           / "references.json").read_text(encoding="utf-8"))
        assert abs(grid[0, 0] - refs["certify"]["ell_at_argmin"]) < bound


def test_ell_grid_headline_memory_peak(cert_minorant):
    # the headline row, all 801 columns: their sums copy no 801 x 13,441
    # matrix of table windows (86 MB); Beurling's shift rows on the full
    # lattice alone once took 7.6 MiB
    ell_grid(cert_minorant, [0.0], HEADLINE_IM, im_max=200.0)
    tracemalloc.start()
    try:
        ell_grid(cert_minorant, [0.0], HEADLINE_IM, im_max=200.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 2**20


# the Im step 3/16 up to 20, stride 3 and 107 columns, on the Re mu = 0 row
# of the rectangle [0, 6] x [0, 20] of the certification tests
LEAD_IM = ef._step_grid(20.0, 0.1875)


@pytest.fixture(scope="module")
def lead_full_row(cert_minorant):
    return ell_grid(cert_minorant, [0.0], LEAD_IM, im_max=LEAD_IM[-1])


@pytest.mark.parametrize("n", [2, 17, 71, len(LEAD_IM)])
def test_ell_grid_leading_columns_are_the_full_grids(cert_minorant, lead_full_row, n):
    # the full row's t3 and budget, finished on the first n columns alone:
    # the full row's values, bit for bit
    full, bound = lead_full_row
    part, part_bound = ell_grid(cert_minorant, [0.0], LEAD_IM[:n], im_max=LEAD_IM[-1])
    assert part.shape == (1, n)
    assert part.tobytes() == full[:, :n].tobytes()
    assert part_bound == bound


def test_ell_grid_refuses_oversized_lattice_before_allocating(cert_minorant):
    # Im mu up to 1e7 needs a lattice of 8e8 entries, a 6 GB table: the
    # check at t3, the one the search's own check at t3's floor leaves
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="too large"):
            ell_grid(cert_minorant, [0.0], [0.0, 0.25], im_max=1e7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


# the Re-mu rows, step 0.25, on which the column floor is checked: more
# than the one row, Re mu = 0, that certify_gap evaluates.  Keyed by the
# length of a centred window at delta0, or by the name of a FLOOR_KERNELS
# minorant: the asymmetric one has centre 5.9 > 0, so its floor rises over
# all Im mu >= 0, and the narrow one has delta = 0.05, so Y = 1 > X
COLUMN_FLOOR_ROWS = {2.0 * HALF: 1.75, 60.0: 2.5, "asymmetric": 1.75, "narrow": 2.5}


def _floor_kernel(key):
    if isinstance(key, str):
        return FLOOR_KERNELS[key]
    return selberg_minorant(-key / 2.0, key / 2.0, PRIME_FREE_RADIUS)


@pytest.mark.parametrize("key", list(COLUMN_FLOOR_ROWS))
def test_column_floor_below_ell(key):
    # at 240 seeded points of the kept rows, Im mu anywhere in [0, 200]
    f = _floor_kernel(key)
    re = ef._step_grid(COLUMN_FLOOR_ROWS[key], 0.25)
    rng = np.random.default_rng(23)
    mu = re[rng.integers(0, len(re), 240)] + 1j * rng.uniform(0.0, 200.0, 240)
    floors = ell_column_floor(f).floor(mu)
    values = ell(mu, f, tol=1e-10)
    assert (floors <= values).all(), (floors - values).max()
    # and it clears the far columns: above ell(0) past Im mu = 25
    assert floors[mu.imag > 25.0].min() > values.min()


@pytest.mark.parametrize("key", list(COLUMN_FLOOR_ROWS))
def test_column_floor_nondecreasing_in_im(key):
    re = ef._step_grid(COLUMN_FLOOR_ROWS[key], 0.25)
    mu = re[:, None] + 1j * np.linspace(0.0, 200.0, 1601)
    floors = ell_column_floor(_floor_kernel(key)).floor(mu.ravel()).reshape(mu.shape)
    assert np.isfinite(floors).all()
    assert (np.diff(floors, axis=1) >= 0.0).all()


def test_column_floor_off_centre_is_centred_at_shifted_mu():
    # like ell, the floor reads the centred copy alone, at mu + i centre
    f = FLOOR_KERNELS["asymmetric"]
    half = 0.5 * (19.1 + 7.3)
    centred = selberg_minorant(-half, half, 0.09)
    mu = (np.array([0.0, 1.5])[:, None] + 1j * np.linspace(0.0, 60.0, 13)).ravel()
    got = ell_column_floor(f).floor(mu)
    want = ell_column_floor(centred).floor(mu + 1j * f.centre)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def _mp_h_and_deriv(params):
    """h, h' (for x < X), fhat(0) and delta of a centred Selberg minorant in
    the working precision, h' from the transform's derivative taken by hand."""
    assert params[0] == -params[1]
    fhat, f0, delta = _mp_transform("selberg", params)
    length = 2 * mpmath.mpf(params[1])

    def h(x):
        return (f0 - mpmath.re(fhat(x / (4 * mpmath.pi)))) / -mpmath.expm1(-x)

    @lru_cache(maxsize=None)
    def dh(x):
        # fhat = j(u) sin(pi xi L)/(pi xi) - (1 - u) cos(pi xi L)/delta,
        # j(u) = (1 - u) pi u cot(pi u) + u, u = xi/delta; each x once,
        # whatever a
        pi = mpmath.pi
        xi, em1 = x / (4 * pi), mpmath.expm1(-x)
        u, sin, cos = xi / delta, mpmath.sin(pi * xi * length), mpmath.cos(pi * xi * length)
        cot = mpmath.cot(pi * u)
        j = (1 - u) * pi * u * cot + u
        dj = (1 - 2 * u) * pi * cot - (1 - u) * u * pi**2 * (1 + cot**2) + 1
        dfhat = (dj / delta * sin / (pi * xi) + j * (length * cos / xi - sin / (pi * xi**2))
                 + cos / delta**2 + (1 - u) / delta * pi * length * sin)
        h_x = (f0 - j * sin / (pi * xi) + (1 - u) * cos / delta) / -em1
        return -(dfhat / (4 * pi) + (1 + em1) * h_x) / -em1
    return h, dh, f0, delta


def _mp_column_floors(params, points):
    """The column floor of a centred Selberg minorant at 30 digits at each
    (Re mu, Im mu) of points, twice: with C's integral of e^-ax |h'| exact,
    split at the sign changes of h', bracketed on 400 samples and solved by
    mpmath, and with the integral bounded as the code bounds it, by
    Cauchy-Schwarz on `_FLOOR_PANELS` equal panels of each span; C is
    taken at a = 1/4 and serves every Re mu, as in the code.  h' comes
    from the transform's derivative taken by hand, checked against
    mpmath.diff on every fourth sample.  X > 1, so Y = X and the spans are
    [0, X/2] and [X/2, X]."""
    with mpmath.workdps(30):
        h, dh, f0, delta = _mp_h_and_deriv(params)
        big_x = 4 * mpmath.pi * delta

        def quad(g, edges):
            value, error = mpmath.quad(g, edges, method="gauss-legendre", error=True)
            assert error < 1e-20
            return value

        xs = [big_x * k / 400 for k in range(1, 400)]
        assert max(abs(dh(x) - mpmath.diff(h, x)) for x in xs[::4]) < 1e-20
        vals = [dh(x) for x in xs]
        kinks = [mpmath.findroot(dh, (x0, x1), solver="anderson")
                 for x0, x1, v0, v1 in zip(xs, xs[1:], vals, vals[1:])
                 if (v0 >= 0) != (v1 >= 0)]
        n = 2 * ef._FLOOR_PANELS
        edges = [big_x * k / n for k in range(n + 1)]
        a = mpmath.mpf(1) / 4
        exact = quad(lambda x: mpmath.exp(-a * x) * abs(dh(x)),
                     sorted([mpmath.mpf(0), big_x / 2, big_x, *kinks]))
        bound = mpmath.fsum(
            mpmath.sqrt((mpmath.exp(-a * lo) - mpmath.exp(-a * hi)) / a
                        * quad(lambda x: mpmath.exp(-a * x) * dh(x)**2, [lo, hi]))
            for lo, hi in zip(edges, edges[1:]))
        damp = mpmath.exp(-a * big_x)
        # h(0+) to within |h'| 1e-12
        rest = (abs(h(mpmath.mpf(10) ** -12)) + damp * abs(h(big_x))
                + f0 * damp / -mpmath.expm1(-big_x))
        floors = []
        for re, im in points:
            z = mpmath.mpc(a + mpmath.mpf(re) / 2, mpmath.mpf(im) / 2)
            psi = f0 * (mpmath.re(mpmath.digamma(z)) - mpmath.log(mpmath.pi))
            floors.append(tuple(float(psi - (rest + c) / abs(z)) for c in (exact, bound)))
        return floors


def test_column_floor_matches_mpmath():
    # the closed-form h' and its per-panel Cauchy-Schwarz bound against
    # mpmath's numerical derivative: the floor sits below the same bound at
    # 30 digits by its error estimate, and so below the floor with the exact
    # integral of e^-ax |h'|, which Cauchy-Schwarz can only lower
    params = MP_KERNELS["headline"][1]
    f = selberg_minorant(*params)
    points = ((0.0, 16.5), (1.75, 40.0))
    for (re, im), (exact, want) in zip(points, _mp_column_floors(params, points)):
        got = float(ell_column_floor(f).floor(np.array([re + 1j * im]))[0])
        assert got <= want <= exact and want - got <= 1e-9, (re, im, want - got)


@pytest.mark.parametrize("name", ["headline", "narrow"])
def test_column_floor_h_deriv_rounding_is_bounded(name):
    # near x = 0 the closed-form h' cancels twice, which leaves its float
    # value about 2.6e-8 relative off at the first node (headline); at the
    # floor's first 48 Gauss nodes, those of the first panel's value rule,
    # it lies within the rounding bound the floor adds to |h'| of the
    # 30-digit h', and that bound stays below 1e-5 of |h'|
    f = FLOOR_KERNELS[name]
    alpha, beta = f.interval
    x = _floor_nodes(f)[0, ef._NODES:]
    fhat, d_fhat = _selberg_jet(beta - alpha, f.support_radius,
                                np.concatenate(([0.0], x / (4.0 * math.pi))))
    _, h_deriv, h_err = ef._h_deriv(x, float(fhat[0]), fhat[1:], d_fhat[1:], beta - alpha,
                                    f.support_radius)
    with mpmath.workdps(30):
        dh = _mp_h_and_deriv((alpha, beta, f.support_radius))[1]
        want = [dh(mpmath.mpf(float(v))) for v in x]
        err = np.array([float(abs(mpmath.mpf(float(g)) - w)) for g, w in zip(h_deriv, want)])
    assert (err <= h_err).all()
    assert (h_err <= 1e-5 * np.abs(np.array(want, dtype=float))).all()


def test_column_floor_domain():
    short = selberg_minorant(-3.0, 3.0, 0.1)  # fhat(0) < 0
    assert (ell_column_floor(short).floor(np.array([0.0, 100j, 5.0, 5.0 + 100j])) == -np.inf).all()
    # only the Selberg minorant records the window its transform's
    # derivative is built from
    for f in (fejer(PRIME_FREE_RADIUS), windowed_fejer(14.13, PRIME_FREE_RADIUS)):
        with pytest.raises(DomainError, match="derivative"):
            ell_column_floor(f)
    floor_at = ell_column_floor(selberg_minorant(-HALF, HALF, PRIME_FREE_RADIUS)).floor
    for bad in (np.array([-0.5]), np.array([-0.5 + 3j]), np.zeros((2, 2)), np.array([np.nan]),
                np.array([np.inf]), np.array([1j * np.inf])):
        with pytest.raises(DomainError):
            floor_at(bad)


def _floor_nodes(f):
    """The nodes of the column floor's 48- and 24-point rules, one row per
    panel, as `ell_column_floor` builds them."""
    big_x = 4.0 * math.pi * f.support_radius
    x_end = max(big_x, 1.0)
    edges = np.array([lo + width * j / ef._FLOOR_PANELS
                      for lo, width in ef._ell_spans(big_x, x_end)
                      for j in range(ef._FLOOR_PANELS)] + [x_end])
    return ef._gauss_panels(edges, ef._NODES, 2 * ef._NODES)[0]


def _ell_panel_xi(f, mus):
    """The transform's arguments in `_ell_panels` at each mu of `ell(mus, f)`:
    0 and every panel node, over 4 pi."""
    big_x = 4.0 * math.pi * f.support_radius
    x_end = max(big_x, 1.0)
    spans = ef._ell_spans(big_x, x_end)
    nodes = [ef._gauss_panels(np.array(ef._ell_edges(complex(0.25 + 0.5 * mu.real,
                                                             0.5 * (mu.imag + f.centre)),
                                                     spans, x_end)),
                              ef._NODES, 2 * ef._NODES)[0].ravel() for mu in mus]
    return np.concatenate([[0.0], *nodes]) / (4.0 * math.pi)


# verify-example's window at the benchmark's two prime-path apertures; at
# delta0 it is the headline window
VERIFY_HALF = 5.0 / (2.0 * PRIME_FREE_RADIUS)
JET_WINDOWS = {
    "n2-edge": selberg_minorant(-VERIFY_HALF, VERIFY_HALF, PRIME_FREE_RADIUS * (1.0 + 1e-2)),
    "log7.9": selberg_minorant(-VERIFY_HALF, VERIFY_HALF, math.log(7.9) / (2.0 * math.pi)),
}


@pytest.mark.parametrize("name", ["headline", "asymmetric", "narrow", "n2-edge", "log7.9"])
def test_selberg_jet_value_is_the_transform(name, bundled):
    # the floor's fhat and the transform every other path reads are one
    # value, bit for bit: at the floor's nodes, at ell's panel nodes for
    # verify's spectral mu, at u = 0, at the fold |u| = 1/2 and the edge
    # |u| = 1 with their neighbours, and at 200,001 random xi of either sign
    f = {**FLOOR_KERNELS, **JET_WINDOWS}[name]
    length, delta = f.interval[1] - f.interval[0], f.support_radius
    u = np.array([0.0, 0.5, 1.0])
    special = delta * np.concatenate([u, np.nextafter(u, 2.0), np.nextafter(u, -1.0)])
    floor = _floor_nodes(f).ravel() / (4.0 * math.pi)
    rng = np.random.default_rng(36)
    for xi in (floor, -floor, _ell_panel_xi(f, bundled.fe.spectral), special, -special,
               rng.uniform(-1.2 * delta, 1.2 * delta, 200_001)):
        fhat = _selberg_jet(length, delta, np.abs(xi))[0]
        assert fhat.tobytes() == f.fourier_centred(xi).tobytes()


@pytest.mark.parametrize("name", ["headline", "asymmetric", "fejer", "windowed"])
def test_fourier_at_is_the_centred_transform_and_its_phase(name):
    # a centred f's Re f^ is its centred transform, bit for bit; an
    # off-centre window's takes the factor cos(2 pi x centre)
    f = FLOOR_KERNELS[name]
    xs = np.random.default_rng(7).uniform(-1.2, 1.2, 1001) * f.support_radius
    phase = np.cos(2.0 * math.pi * f.centre * xs) if f.centre else 1.0
    assert fourier_at(f, xs).tobytes() == (f.fourier_centred(xs) * phase).tobytes()
    assert (f.centre != 0.0) == (name == "asymmetric")


FLOOR_KERNELS = {
    "headline": selberg_minorant(-HALF, HALF, PRIME_FREE_RADIUS),
    "asymmetric": selberg_minorant(-7.3, 19.1, 0.09),
    "narrow": selberg_minorant(-30.0, 30.0, 0.05),
    "fejer": fejer(PRIME_FREE_RADIUS),
    "windowed": windowed_fejer(14.13, PRIME_FREE_RADIUS),
}


EVEN_KERNELS = sorted(name for name, f in FLOOR_KERNELS.items() if f.even)


@lru_cache(maxsize=None)
def _ell_at_zero(name):
    return ell(0.0, FLOOR_KERNELS[name])


@settings(max_examples=60)
@given(st.sampled_from(EVEN_KERNELS), st.floats(0.0, 80.0), st.floats(-200.0, 200.0))
@example("windowed", 1e-16, 0.0)  # 4 ulps of ell(0) = -2601 below it
@example("headline", 1e-6, 0.0)
@example("fejer", 0.0, 1e-6)
@example("narrow", 80.0, -200.0)
@example("headline", 0.0, 200.0)
def test_ell_minimum_over_the_half_plane_is_at_zero(name, re, im):
    # the minimum principle puts the half-plane minimum on Re mu = 0, and
    # for these kernels ell(i nu) is least at nu = 0; the slack is 1e-12
    # plus 8 ulps of ell(0) for rounding
    floor = _ell_at_zero(name)
    slack = 1e-12 + 8.0 * math.ulp(floor)
    assert ell(complex(re, im), FLOOR_KERNELS[name], tol=1e-6) >= floor - slack


@pytest.mark.parametrize("name", ["headline", "asymmetric", "fejer", "windowed"])
def test_ell_is_harmonic_in_mu(name):
    # ell = Re Phi(z) with Phi analytic, so the 5-point Laplacian of ell is
    # the stencil's truncation alone, O(h^2): it falls by 4 each time h
    # halves, up to 10% and the rounding of the five values (32 ulps of the
    # largest, over h^2).  A Laplacian that did not vanish would stay put
    f = FLOOR_KERNELS[name]
    rng = np.random.default_rng(26)
    centres = rng.uniform(0.1, 10.0, 6) + 1j * rng.uniform(-30.0, 30.0, 6)
    stencil = np.array([1.0, -1.0, 1j, -1j])
    for mu in centres:
        laplacians = []
        for h in (0.04, 0.02, 0.01):
            values = ell(np.concatenate(([mu], mu + h * stencil)), f, tol=1e-6)
            noise = 32.0 * math.ulp(np.abs(values).max()) / h**2
            laplacians.append(((values[1:].sum() - 4.0 * values[0]) / h**2, noise))
        for (coarse, _), (fine, noise) in zip(laplacians, laplacians[1:]):
            assert abs(fine - coarse / 4.0) <= 0.1 * abs(coarse) / 4.0 + noise, (mu, coarse, fine)


OFF_CENTRE_WINDOWS = [(177.5, 222.5), (-322.75, -277.25), (950.0, 1050.0), (-3.0, 60.0)]


@pytest.mark.parametrize("alpha, beta", OFF_CENTRE_WINDOWS)
@pytest.mark.parametrize("convention, k", [("halved", 1), ("literal", 2)])
def test_ell_off_centre_is_centred_at_shifted_mu(alpha, beta, convention, k):
    # S(t) = S0(t - c), S0 the window centred at 0, so
    # ell(mu, S) = ell(mu + i c, S0) in halved units (mu + i c/2 literal)
    c, half = 0.5 * (alpha + beta), 0.5 * (beta - alpha)
    f = selberg_minorant(alpha, beta, PRIME_FREE_RADIUS)
    centred = selberg_minorant(-half, half, PRIME_FREE_RADIUS)
    mus = np.array([0.0, 2j, 3.0 + 5j, 10.0 - 40j, 0.5 - 1j])
    got = ell(mus, f, convention)
    want = ell(mus + 1j * c / k, centred, convention)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@settings(max_examples=40)
@given(st.floats(1e-3, 100.0), st.floats(-1e3, 1e3))
def test_re_digamma_above_real_digamma(a, y):
    # the column floor's G rises with |y| because Re psi(a + iy) rises with
    # y^2 (DLMF 5.7.6): in particular Re psi(a + iy) >= psi(a) for a > 0, up
    # to 30-digit rounding (the two agree to O(y^2) as y -> 0)
    with mpmath.workdps(30):
        psi_a = mpmath.digamma(a)
        slack = mpmath.mpf(10) ** -25 * (1 + abs(psi_a))
        assert mpmath.re(mpmath.digamma(mpmath.mpc(a, y))) >= psi_a - slack


def test_ell_grid_input_validation(cert_minorant):
    # the Re mu = 0 row alone; the Im columns are min_ell_over_mu's to check
    for re_v in ([-1.0], [0.5], [], [0.0, 1.5], [[0.0]], [[0.0, 1.0]], [np.inf], [np.nan]):
        with pytest.raises(DomainError, match="Re mu = 0 row alone"):
            ell_grid(cert_minorant, re_v, [0.0, 0.25], im_max=0.25)
    # the lattice builds its tail from an even Selberg minorant's window
    for f in (replace(cert_minorant, interval=None), fejer(PRIME_FREE_RADIUS),
              windowed_fejer(14.13, PRIME_FREE_RADIUS),
              selberg_minorant(0.0, 45.5, PRIME_FREE_RADIUS)):
        with pytest.raises(DomainError, match="even Selberg minorant"):
            ell_grid(f, [0.0], [0.0, 0.25], im_max=0.25)


def _fe(spectral, q=1.0):
    return FunctionalEquation(degree=len(spectral), conductor=q,
                              spectral=tuple(spectral), root_number=1.0 + 0.0j)


def test_rhs_conductor_linearity(cert_minorant, bundled):
    r1 = rhs(bundled.fe, cert_minorant)
    r2 = rhs(_fe(bundled.fe.spectral, q=2.0), cert_minorant)
    shift = math.log(2.0) / math.pi * cert_minorant.integral
    assert r2.rhs_total - r1.rhs_total == pytest.approx(shift, abs=1e-12)
    assert r1.rhs_conductor == 0.0
    assert r1.rhs_primes == 0.0


def test_rhs_archimedean_pairing(cert_minorant, bundled):
    r = rhs(bundled.fe, cert_minorant)
    arch = r.rhs_archimedean
    assert len(arch) == 4
    # conjugate spectral parameters share the integral exactly (cache hit)
    assert arch[0] == arch[1] and arch[2] == arch[3]


def test_rhs_total_permutation_invariant():
    rep = ExplicitFormulaReport(
        rhs_conductor=0.3, rhs_archimedean=(0.1, -0.7, 1.9, 0.05),
        rhs_primes=0.01, convention="halved", tolerance_budget=0.0,
    )
    rep2 = replace(rep, rhs_archimedean=(1.9, 0.05, 0.1, -0.7))
    assert rep.rhs_total == rep2.rhs_total


def test_rhs_prime_sum_gate():
    wide = selberg_minorant(-30.0, 30.0, 0.15)  # support radius beyond log2/2pi
    fe = _fe((0j, 0j))
    with pytest.raises(IncompletenessError):
        rhs(fe, wide)
    short = LogDerivativeCoefficients(values={2: 0j}, bound=1)
    with pytest.raises(IncompletenessError):
        rhs(fe, wide, short)


def test_rhs_wide_support_refused_at_once():
    # delta = 3 needs c(n) up to n = e^(6 pi) ~ 1.5e8: refused before any
    # work of that size, the gaps kept as ranges; past 2^53 the support is
    # out of the prime sum's domain
    wide = selberg_minorant(-30.0, 30.0, 3.0)
    fe = _fe((0j, 0j))
    n_max = int(math.exp(6.0 * math.pi))
    start = time.perf_counter()
    with pytest.raises(IncompletenessError) as info:
        rhs(fe, wide)
    assert info.value.gaps == range(2, n_max + 1)
    with pytest.raises(IncompletenessError) as info:
        rhs(fe, wide, LogDerivativeCoefficients(values={2: 0j}, bound=7))
    assert info.value.gaps == range(8, n_max + 1)
    assert time.perf_counter() - start < 0.5
    with pytest.raises(DomainError, match="2\\^53"):
        rhs(fe, selberg_minorant(-30.0, 30.0, 200.0))


def test_rhs_prime_sum_needs_even_f():
    # an off-centre window past the prime-free radius: archimedean terms go
    # through the centred copy, the prime sum has no such path
    off = selberg_minorant(0.0, 40.0, 0.2)
    primes = LogDerivativeCoefficients(values={2: 0j, 3: 0j}, bound=3)
    with pytest.raises(DomainError, match="even test function"):
        rhs(_fe((0j, 0j)), off, primes)


def test_rhs_prime_term_against_direct_quadrature():
    wide = selberg_minorant(-30.0, 30.0, 0.15)
    fe = _fe((0j, 0j))
    c2 = -0.9306216517822974 + 0.0j
    zero = rhs(fe, wide, LogDerivativeCoefficients(values={2: 0j}, bound=2))
    with_primes = rhs(fe, wide, LogDerivativeCoefficients(values={2: c2}, bound=2))
    got = with_primes.rhs_primes
    assert zero.rhs_primes == 0.0
    assert with_primes.rhs_total - zero.rhs_total == pytest.approx(got, abs=1e-14)
    # independent route: c real, f even -> (c/sqrt2) * 2 cos-transform / 2pi
    x2 = math.log(2.0) / (2.0 * math.pi)
    # int_{-4000}^{4000} as int_0^1 of the sum over unit shifts
    ts = np.arange(-4000.0, 4000.0)
    num = quad(lambda s: np.sum(wide.value(ts + s) * np.cos(2.0 * math.pi * x2 * (ts + s))),
               0.0, 1.0, epsabs=1e-9, epsrel=0.0)[0]
    want = c2.real * 2.0 * num / math.sqrt(2.0) / (2.0 * math.pi)
    assert got == pytest.approx(want, abs=1e-4)


def test_rhs_prime_sum_is_the_pointwise_sum_in_n_order(bundled):
    # one transform call over every n with c(n) != 0 gives, bit for bit, the
    # sum of the pointwise terms 2 Re c(n) fhat(log n/2 pi)/sqrt(n) in n order
    half = 5.0 / (2.0 * PRIME_FREE_RADIUS)
    f = selberg_minorant(-half, half, math.log(7.9) / (2.0 * math.pi))
    primes = c_coefficients(bundled, 7)
    acc = 0.0
    for n in range(2, 8):
        if primes(n) != 0:
            acc += 2.0 * primes(n).real * fourier_at(f, math.log(n) / (2.0 * math.pi)) / math.sqrt(n)
    assert rhs(bundled.fe, f, primes).rhs_primes == acc / (2.0 * math.pi)


def test_zero_sum_bundled(cert_minorant, bundled):
    value, tail = zero_sum(bundled, cert_minorant)
    assert value == pytest.approx(4.03665393538893, abs=1e-9)
    assert tail == pytest.approx(5.509495615671456, abs=1e-9)
    assert tail >= 0.0


def test_zero_sum_doubles_self_dual(cert_minorant, bundled):
    sym = sorted([-z for z in bundled.zeros] + list(bundled.zeros))
    direct = float(np.sum(np.asarray(cert_minorant.value(np.array(sym)))))
    value, _ = zero_sum(bundled, cert_minorant)
    assert value == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("delta", [PRIME_FREE_RADIUS, 1.01 * PRIME_FREE_RADIUS,
                                   math.log(7.9) / (2.0 * math.pi)])
@pytest.mark.parametrize("with_zero", [False, True])
def test_zero_sum_one_call_is_bitwise_the_three_sums(bundled, delta, with_zero):
    # one f.value call over (pos, -pos, 0), each half summed on its own, is
    # the sum of three separate calls bit for bit
    half = 5.0 / (2.0 * PRIME_FREE_RADIUS)
    f = selberg_minorant(-half, half, delta)
    data = replace(bundled, zeros=(0.0, *bundled.zeros)) if with_zero else bundled
    pos = np.asarray(bundled.zeros, dtype=float)
    want = float(np.sum(f.value(pos)) + np.sum(f.value(-pos)))
    want += int(with_zero) * float(f.value(np.array([0.0]))[0])
    assert zero_sum(data, f)[0] == want


def test_zero_sum_not_self_dual_sums_listed_zeros(cert_minorant, bundled):
    # the same zeros listed with both signs, not self-dual: same value
    both = tuple(sorted([-z for z in bundled.zeros] + list(bundled.zeros)))
    value, tail = zero_sum(replace(bundled, zeros=both, self_dual=False), cert_minorant)
    assert value == float(np.sum(cert_minorant.value(np.array(both))))
    assert (value, tail) == pytest.approx(zero_sum(bundled, cert_minorant), abs=1e-12)
    one_sided = replace(bundled, self_dual=False)
    assert zero_sum(one_sided, cert_minorant)[0] == pytest.approx(0.5 * value, abs=1e-12)


def test_zero_sum_tail_bound_matches_density_integral(cert_minorant, bundled):
    # closed form vs direct quadrature of the density surrogate
    _, tail = zero_sum(bundled, cert_minorant)
    d, q, T = bundled.fe.degree, bundled.fe.conductor, bundled.t_max
    m = cert_minorant.envelope.m
    rho = lambda t: (math.log(q) + 0.5 * d * np.log((np.abs(t) + 10.0) / (2.0 * math.pi))) / math.pi
    num = quad(lambda t: rho(t) / t**2, T, 1e10, points=np.geomspace(T, 1e10, 40)[1:-1],
               epsabs=1e-12, epsrel=1e-10, limit=200)[0]
    assert tail == pytest.approx(2.0 * m * num, rel=1e-6)


def test_zero_sum_incomplete_window_rejected(cert_minorant, bundled):
    too_short = replace(bundled, zeros=bundled.zeros[:3], t_max=20.0)
    with pytest.raises(DomainError):
        zero_sum(too_short, cert_minorant)


def test_zero_sum_empty_infinite(cert_minorant, bundled):
    empty = replace(bundled, zeros=(), t_max=math.inf)
    assert zero_sum(empty, cert_minorant) == (0.0, 0.0)


def test_verify_bundled_report(cert_minorant, bundled):
    rep = verify(bundled, cert_minorant)
    assert rep.zero_side == pytest.approx(4.03665393538893, abs=1e-8)
    assert rep.rhs_total == pytest.approx(3.400927782079258, abs=1e-7)
    assert rep.residual == pytest.approx(0.6357261533096721, abs=1e-7)
    assert abs(rep.residual) <= rep.tail_bound + rep.tolerance_budget
    assert math.isfinite(rep.implied_log_Q)
    assert rep.implied_log_Q == pytest.approx(0.055081473846852344, abs=1e-7)
    assert rep.convention == "halved"
    d = rep.to_dict()
    for key in ("zero_side", "tail_bound", "rhs_conductor", "rhs_archimedean",
                "rhs_primes", "rhs_total", "residual", "implied_log_Q",
                "convention", "tolerance_budget"):
        assert key in d
    assert d["rhs_total"] == pytest.approx(
        d["rhs_conductor"] + sum(d["rhs_archimedean"]) + d["rhs_primes"], abs=1e-14)


# verify-example reports at the three fixed apertures: delta0, just above
# the n = 2 edge, and the widest prime-path aperture
VERIFY_REPORTS = {
    PRIME_FREE_RADIUS: {
        "zero_side": 4.03665393538893, "tail_bound": 5.509495615671456,
        "rhs_conductor": 0.0,
        "rhs_archimedean": [0.2227533424278592, 0.2227533424278592,
                            1.477710548589216, 1.477710548589216],
        "rhs_primes": 0.0, "rhs_total": 3.40092778203415,
        "residual": 0.63572615335478, "implied_log_Q": 0.05508147385076065,
        "convention": "halved", "tolerance_budget": 4e-08,
    },
    PRIME_FREE_RADIUS * (1.0 + 1e-2): {
        "zero_side": 4.077002301624426, "tail_bound": 5.461132189486813,
        "rhs_conductor": 0.0,
        "rhs_archimedean": [0.23892246449212823, 0.23892246449212823,
                            1.4918761641957814, 1.4918761641957814],
        "rhs_primes": -0.018613152766202994, "rhs_total": 3.442984104609616,
        "residual": 0.63401819701481, "implied_log_Q": 0.054797852461896376,
        "convention": "halved", "tolerance_budget": 4e-08,
    },
    math.log(7.9) / (2.0 * math.pi): {
        "zero_side": 7.079449077999889, "tail_bound": 4.006414428883505,
        "rhs_conductor": 0.0,
        "rhs_archimedean": [1.3496544946085198, 1.3496544946085198,
                            2.4291763963766, 2.4291763963766],
        "rhs_primes": -0.5701761008840505, "rhs_total": 6.98748568108619,
        # these two from _mp_ell's archimedean terms
        "residual": 0.09196339691355071, "implied_log_Q": 0.006832702662755045,
        "convention": "halved", "tolerance_budget": 4e-08,
    },
}


@pytest.mark.parametrize("delta", list(VERIFY_REPORTS), ids=["delta0", "n2-edge", "log7.9"])
def test_verify_report_regression(bundled, delta):
    half = 5.0 / (2.0 * PRIME_FREE_RADIUS)
    got = verify(bundled, selberg_minorant(-half, half, delta)).to_dict()
    want = VERIFY_REPORTS[delta]
    assert got.keys() == want.keys()
    for key, value in want.items():
        if isinstance(value, str):
            assert got[key] == value
        else:
            assert got[key] == pytest.approx(value, rel=1e-12, abs=1e-15), key


def test_verify_at_zero_mass_implies_no_conductor(bundled):
    # at L = 1/delta0 the minorant's integral is exactly 0, so the residual
    # carries no conductor term to solve for: the report has no implied
    # log Q, and its residual is inside the tail bound
    length = 1.0 / PRIME_FREE_RADIUS
    f = selberg_minorant(-length / 2.0, length / 2.0, PRIME_FREE_RADIUS)
    assert f.integral == 0.0
    rep = verify(bundled, f)
    assert rep.implied_log_Q is None and rep.to_dict()["implied_log_Q"] is None
    assert rep.rhs_conductor == 0.0
    assert abs(rep.residual) <= rep.tail_bound + rep.tolerance_budget
    assert rep.residual == pytest.approx(0.4123, abs=1e-4)
    assert rep.tail_bound == pytest.approx(1.0737, abs=1e-4)


def test_verify_just_above_prime_edge(bundled):
    # the transform support just reaches n = 2; a time-domain transform of
    # the Selberg minorant grew without bound in cost as delta approached
    # log 2/(2 pi) from above (46 s and 1.7 GB at this delta)
    half = 5.0 / (2.0 * PRIME_FREE_RADIUS)
    f = selberg_minorant(-half, half, PRIME_FREE_RADIUS * (1.0 + 3e-5))
    rep = verify(bundled, f)
    assert rep.rhs_primes != 0.0
    assert abs(rep.residual) <= rep.tail_bound + rep.tolerance_budget
    # Vaaler's closed form at the prime edge, u = xi/delta just below 1,
    # where the cotangent in J^(u) is near its pole
    with mpmath.workdps(30):
        delta, xi = mpmath.mpf(f.support_radius), mpmath.mpf(PRIME_FREE_RADIUS)
        length = 2 * mpmath.mpf(half)
        u = xi / delta
        j_hat = (1 - u) * mpmath.pi * u * mpmath.cot(mpmath.pi * u) + u
        want = (j_hat * mpmath.sin(mpmath.pi * xi * length) / (mpmath.pi * xi)
                - (1 - u) / delta * mpmath.cos(mpmath.pi * xi * length))
    for x in (PRIME_FREE_RADIUS, -PRIME_FREE_RADIUS):
        assert fourier_at(f, x) == pytest.approx(float(want), abs=1e-12)


def test_verify_flags_convention_mismatch(cert_minorant, bundled):
    # the bundled zeros satisfy the halved normalization; reading the same
    # spectral parameters literally must flunk the consistency check
    rep_h = verify(bundled, cert_minorant, "halved")
    rep_l = verify(bundled, cert_minorant, "literal")
    assert abs(rep_h.residual) <= rep_h.tail_bound + rep_h.tolerance_budget
    assert abs(rep_l.residual) > rep_l.tail_bound + rep_l.tolerance_budget
    assert rep_h.zero_side == rep_l.zero_side
    assert rep_l.implied_log_Q < 0.0  # an impossible conductor: Q < 1
