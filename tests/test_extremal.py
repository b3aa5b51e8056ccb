import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from zerogap.errors import DomainError
from zerogap.explicit_formula import PRIME_FREE_RADIUS
from zerogap.extremal import (
    _NEAR_LOBES,
    _RTOL,
    _XTOL,
    _beurling_w,
    _selberg_far_bound,
    beurling,
    fejer,
    fourier_at,
    selberg_minorant,
    windowed_fejer,
)

CERT_LENGTH = 10.0 * math.pi / math.log(2.0)

# classical two-sided partial-fraction series, summed at high precision
BEURLING_ORACLE = {
    0.3: 1.291666498668716738,
    -0.7: -0.81358987082342728577,
    2.4: 1.0137698414839620825,
    -5.5: -0.99644885357927586136,
    0.5: 1.2158542037080532573,
    17.25: 1.0001669642498411864,
}


def test_beurling_oracle_values():
    for x, want in BEURLING_ORACLE.items():
        assert abs(float(beurling(x)) - want) < 1e-12


def test_beurling_branch_point_closed_form():
    assert abs(float(beurling(-0.5)) - (-4.0 / math.pi**2)) < 1e-13


def test_beurling_integers_exact():
    xs = np.array([-6.0, -1.0, 0.0, 1.0, 2.0, 9.0])
    assert np.array_equal(beurling(xs), np.array([-1.0, -1.0, 1.0, 1.0, 1.0, 1.0]))


def test_beurling_majorizes_sign_dense():
    rng = np.random.default_rng(11)
    xs = rng.uniform(-50.0, 50.0, 100_000)
    gap = beurling(xs) - np.sign(xs)
    assert gap.min() >= -1e-12


def test_beurling_branch_seam_continuous():
    eps = np.array([1e-9, 1e-10, 1e-11])
    left = beurling(-0.5 - eps)
    right = beurling(-0.5 + eps)
    assert np.max(np.abs(left - right)) < 1e-7


@given(st.floats(min_value=-80.0, max_value=80.0))
def test_beurling_majorizes_sign(x):
    sgn = 0.0 if x == 0 else math.copysign(1.0, x)
    assert float(beurling(x)) >= sgn - 1e-12


def test_beurling_far_field_decay():
    # B(u) - sgn(u) = (1 - cos 2 pi u) w(u)/pi^2 with |w| <= 0.7/u^2
    xs = np.array([-300.0, -37.2, 25.7, 400.1])
    excess = np.abs(beurling(xs) - np.sign(xs))
    assert np.all(excess <= 2.0 * 0.7 / (math.pi**2 * xs**2) + 1e-15)


def test_selberg_interval_validation():
    with pytest.raises(DomainError):
        selberg_minorant(1.0, 1.0, PRIME_FREE_RADIUS)
    with pytest.raises(DomainError):
        selberg_minorant(3.0, -3.0, PRIME_FREE_RADIUS)
    with pytest.raises(DomainError):
        selberg_minorant(-1.0, 1.0, 0.0)


def test_selberg_integral_closed_form(cert_minorant):
    s = cert_minorant
    want = CERT_LENGTH - 1.0 / PRIME_FREE_RADIUS
    assert s.integral == pytest.approx(want, abs=1e-12)
    # Vaaler's closed transform at 0
    num = fourier_at(s, 0.0)
    assert abs(num - want) < 1e-6


def test_selberg_center_value_regression(cert_minorant):
    v = float(np.asarray(cert_minorant.value(np.array([0.0])))[0])
    assert v == pytest.approx(0.981689690401317, abs=1e-12)


def test_selberg_minorizes_indicator(cert_minorant):
    rng = np.random.default_rng(23)
    half = CERT_LENGTH / 2.0
    xs = rng.uniform(-3.0 * half, 3.0 * half, 100_000)
    vals = np.asarray(cert_minorant.value(xs))
    indicator = ((xs > -half) & (xs < half)).astype(float)
    assert np.max(vals - indicator) <= 1e-12


# the headline minorant and asymmetric windows whose larger tail is the
# negative one (the first two) or the positive one
ENVELOPE_WINDOWS = [
    pytest.param(-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0, PRIME_FREE_RADIUS, id="headline"),
    pytest.param(-30.0, 10.0, PRIME_FREE_RADIUS, id="left-heavy"),
    pytest.param(-40.0, 5.0, 0.3, id="left-heavy-wide-aperture"),
    pytest.param(5.0, 40.0, PRIME_FREE_RADIUS, id="right-only"),
]


def test_selberg_positivity_window_regression(cert_minorant):
    # delta L = 5 is an integer, so the edges are the window's own ends
    assert cert_minorant.positivity_window == (-22.661800709135967, 22.661800709135967)
    assert cert_minorant.positivity_window[1] == CERT_LENGTH / 2.0


def _scan_window(value, alpha, beta, delta):
    # the former window search, kept as the oracle: scan the interval padded
    # by two lobes on each side at 8193 points, take the maximal positive run
    # through the largest sample, and bracket both of its ends
    pad = 2.0 / delta
    grid = np.linspace(alpha - pad, beta + pad, 8193)
    vals = value(grid)
    pos = vals > 0.0
    if not pos.any():
        return None
    k = int(np.argmax(vals))
    i = k
    while i > 0 and pos[i - 1]:
        i -= 1
    j = k
    while j < len(grid) - 1 and pos[j + 1]:
        j += 1
    if i == 0 or j == len(grid) - 1:
        return None

    def scalar(t):
        return float(value(np.array([t]))[0])

    return (brentq(scalar, grid[i - 1], grid[i], xtol=_XTOL, rtol=_RTOL),
            brentq(scalar, grid[j], grid[j + 1], xtol=_XTOL, rtol=_RTOL))


def _assert_window_matches_scan(alpha, beta, delta):
    f = selberg_minorant(alpha, beta, delta)
    want = _scan_window(f.value, alpha, beta, delta)
    got = f.positivity_window
    if want is None:
        assert got is None
    else:
        # brentq fixes an edge to xtol + rtol |edge|, so one at 0 only to xtol
        assert got == pytest.approx(want, rel=1e-13, abs=_XTOL)
    return got


@pytest.mark.parametrize("alpha,beta,delta", ENVELOPE_WINDOWS)
def test_selberg_window_matches_scan_pinned(alpha, beta, delta):
    assert _assert_window_matches_scan(alpha, beta, delta) is not None


def test_selberg_window_none_below_threshold():
    # delta L = 0.6 < 1: neither search finds a positive point
    assert _assert_window_matches_scan(-3.5943385512272243, -2.542049346218941,
                                       0.5702996851100295) is None


@settings(max_examples=100)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=0.5, max_value=80.0),
    st.floats(min_value=0.02, max_value=1.0),
)
def test_selberg_window_matches_scan(alpha, length, delta):
    _assert_window_matches_scan(alpha, alpha + length, delta)


def _both_tails(lo, hi, n):
    s = np.linspace(lo, hi, n)
    return np.concatenate([s, -s])


def test_selberg_envelope_truly_bounds():
    for param in ENVELOPE_WINDOWS:
        f = selberg_minorant(*param.values)
        env = f.envelope
        ts = _both_tails(env.t0, 40.0 * env.t0, 200_001)
        vals = np.abs(np.asarray(f.value(ts)))
        assert np.all(vals * ts**2 <= env.m * (1.0 + 1e-12)), param.id


@pytest.mark.parametrize("alpha,beta,delta", ENVELOPE_WINDOWS)
@pytest.mark.parametrize("lobes", _NEAR_LOBES)
def test_selberg_far_bound_dominates_beyond_t1(alpha, beta, delta, lobes):
    # the closed-form part of the envelope, at the first and last t1 the
    # constructor may pick
    f = selberg_minorant(alpha, beta, delta)
    t0 = f.envelope.t0
    t1 = t0 + lobes / delta
    far = _selberg_far_bound(alpha, beta, delta, t1)
    ts = _both_tails(t1, 40.0 * t0, 200_001)
    assert np.max(ts**2 * np.abs(np.asarray(f.value(ts)))) <= far


def test_beurling_w_far_field_bound_oracle():
    # |w(u)| <= 1/(2u^2) + 1/(6|u|^3), the one analytic input of the far
    # bound, against 30-digit trigamma; the float w must agree and obey it too
    rng = np.random.default_rng(31)
    mag = np.exp(rng.uniform(math.log(0.66), math.log(1e3), 200))
    us = np.concatenate([mag, -mag, [0.66, -0.66, 1e3, -1e3]])
    got = _beurling_w(us)
    with mpmath.workdps(30):
        for u, w in zip(us, got):
            x = mpmath.mpf(float(u))
            want = 1 / x - mpmath.psi(1, 1 + x) if x > 0 else mpmath.psi(1, -x) + 1 / x
            bound = 1 / (2 * x**2) + 1 / (6 * abs(x) ** 3)
            assert abs(want) < bound
            assert abs(w) <= float(bound)
            assert abs(w - float(want)) <= 1e-11 * float(abs(want))


@pytest.mark.parametrize("delta,m", [
    (PRIME_FREE_RADIUS, 47.83054802033401),
    (PRIME_FREE_RADIUS * (1.0 + 1e-2), 47.41068214876991),
    (math.log(7.9) / (2.0 * math.pi), 34.781586391500774),
])
def test_selberg_envelope_m_regression(delta, m):
    # the headline minorant and the verify apertures; the sup of these
    # symmetric windows sits at t0
    f = selberg_minorant(-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0, delta)
    assert f.envelope.m == pytest.approx(m, rel=1e-14, abs=0.0)


def test_selberg_tail_reconstructs_function(cert_minorant):
    tail = cert_minorant.envelope.tail
    ts = np.concatenate([np.linspace(tail.t_valid, tail.t_valid + 200.0, 4001),
                         -np.linspace(tail.t_valid, tail.t_valid + 200.0, 4001)])
    rec = np.asarray(tail.smooth(ts), dtype=float)
    for comp in tail.components:
        rec = rec + np.asarray(comp.amplitude(ts)) * np.cos(comp.omega * ts + comp.phase)
    direct = np.asarray(cert_minorant.value(ts))
    assert np.max(np.abs(rec - direct)) < 1e-10


def test_selberg_tail_component_bounds(cert_minorant):
    tail = cert_minorant.envelope.tail
    ts = np.linspace(tail.t_valid, tail.t_valid + 2000.0, 5001)
    for comp in tail.components:
        q = np.abs(np.asarray(comp.amplitude(ts)))
        assert np.all(q <= comp.c_q / ts**2 + 1e-15)
        dq = np.abs(np.array([comp.d_amplitude(float(t)) for t in ts[::250]]))
        assert np.all(dq <= comp.c_dq / np.abs(ts[::250]) ** 3 + 1e-15)


def test_selberg_transform_compactly_supported(cert_minorant):
    for x in (1.01 * PRIME_FREE_RADIUS, 1.5 * PRIME_FREE_RADIUS, -2.0 * PRIME_FREE_RADIUS, 3.0 * PRIME_FREE_RADIUS):
        assert abs(fourier_at(cert_minorant, x)) < 1e-6


def test_selberg_transform_interior_regression(cert_minorant):
    got = fourier_at(cert_minorant, 0.5 * PRIME_FREE_RADIUS)
    assert got == pytest.approx(2.8853900817778735, abs=1e-6)


@settings(max_examples=25)
@given(
    st.floats(min_value=-30.0, max_value=-10.0),
    st.floats(min_value=10.0, max_value=30.0),
    st.floats(min_value=0.05, max_value=PRIME_FREE_RADIUS),
    st.floats(min_value=-100.0, max_value=100.0),
)
def test_selberg_minorant_property(alpha, beta, delta, t):
    s = selberg_minorant(alpha, beta, delta)
    v = float(np.asarray(s.value(np.array([t])))[0])
    indicator = 1.0 if alpha < t < beta else 0.0
    assert v <= indicator + 1e-12


def test_fejer_basics():
    f = fejer(PRIME_FREE_RADIUS)
    assert f.integral == pytest.approx(1.0 / PRIME_FREE_RADIUS, abs=1e-12)
    xs = np.linspace(-40.0, 40.0, 2001)
    assert np.asarray(f.value(xs)).min() >= 0.0
    assert f.positivity_window == "everywhere"
    # triangle transform
    for x in (0.0, 0.3 * PRIME_FREE_RADIUS, -0.8 * PRIME_FREE_RADIUS):
        assert abs(fourier_at(f, x) - (1.0 - abs(x) / PRIME_FREE_RADIUS) / PRIME_FREE_RADIUS) < 1e-12
    for x in (1.2 * PRIME_FREE_RADIUS, 2.0 * PRIME_FREE_RADIUS):
        assert f.fourier_closed(x) == 0.0
        assert fourier_at(f, x) == 0.0


def test_fejer_delta_validation():
    with pytest.raises(DomainError):
        fejer(-0.1)


def test_windowed_fejer_sign_structure():
    w = windowed_fejer(14.13, PRIME_FREE_RADIUS)
    inside = np.linspace(-14.0, 14.0, 101)
    outside = np.array([-200.0, -50.0, -14.2, 14.2, 33.3, 1000.0])
    assert np.asarray(w.value(inside)).min() > 0.0
    assert np.asarray(w.value(outside)).max() <= 0.0
    assert w.positivity_window == (-14.13, 14.13)


def test_windowed_fejer_integral_against_quadrature():
    w = windowed_fejer(14.13, PRIME_FREE_RADIUS)
    closed = 4.0 * 14.13**2 / (3.0 * PRIME_FREE_RADIUS) - 4.0 / (math.pi**2 * PRIME_FREE_RADIUS**3)
    assert w.integral == pytest.approx(closed, abs=1e-9)
    # w = A(t) (6 - 8 cos(pi delta t) + 2 cos(2 pi delta t)) with
    # A = (t0^2 - t^2)/(pi delta t)^4: quadrature over whole periods of both
    # cosines, then the exact tail of 6 A; the cosine tails beyond T are
    # O(A'(T)/(pi delta)^2) ~ 1e-7
    period = 2.0 / PRIME_FREE_RADIUS
    T = 200.0 * period
    # int_0^T as int_0^period of the sum over the shifts by whole periods
    starts = np.arange(0.0, T, period)
    core = quad(lambda s: np.sum(w.value(starts + s)), 0.0, period,
                epsabs=1e-10, epsrel=0.0)[0]
    tail = 6.0 * (14.13**2 / (3.0 * T**3) - 1.0 / T) / (math.pi * PRIME_FREE_RADIUS) ** 4
    assert abs(2.0 * (core + tail) - closed) < 1e-5


def test_windowed_fejer_transform_support():
    w = windowed_fejer(14.13, PRIME_FREE_RADIUS)
    for x in (1.05 * PRIME_FREE_RADIUS, -1.5 * PRIME_FREE_RADIUS):
        assert abs(fourier_at(w, x)) < 2e-4 * w.integral


@pytest.mark.parametrize("make", [
    pytest.param(lambda: selberg_minorant(-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0,
                                          PRIME_FREE_RADIUS), id="selberg-symmetric"),
    pytest.param(lambda: selberg_minorant(-7.3, 19.1, 0.09), id="selberg-asymmetric"),
    pytest.param(lambda: fejer(PRIME_FREE_RADIUS), id="fejer"),
    pytest.param(lambda: windowed_fejer(14.13, PRIME_FREE_RADIUS), id="windowed-fejer"),
])
def test_closed_transform_inverts_to_value(make):
    # f(t) = int_{-delta}^{delta} f^(xi) e^{2 pi i xi t} dxi; the breakpoints
    # sit on the kinks of the windowed kernel's transform
    f = make()
    d = f.support_radius
    for t in (0.0, 1.7, -5.3, 31.4, -60.0):
        value = quad(lambda xi: np.real(f.fourier_closed(xi) * np.exp(2j * math.pi * xi * t)),
                     -d, d, points=[-0.5 * d, 0.0, 0.5 * d], epsabs=1e-11, epsrel=0.0)[0]
        assert value == pytest.approx(float(f.value(t)), abs=1e-10)


def test_windowed_fejer_validation():
    with pytest.raises(DomainError):
        windowed_fejer(0.0, PRIME_FREE_RADIUS)
    with pytest.raises(DomainError):
        windowed_fejer(14.13, 0.0)


def test_beurling_excess_integral_unit():
    # int (B - sgn) = 1: numeric core plus exact digamma tail corrections
    import scipy.special as sps

    T = 300.0
    # int_{-T}^{T} as int_0^1 of the sum over unit shifts, at whose ends sgn jumps
    ks = np.arange(-T, T)
    core = quad(lambda s: np.sum(beurling(ks + s) - np.sign(ks + s)), 0.0, 1.0,
                epsabs=1e-12, epsrel=0.0)[0]
    right = (sps.digamma(1.0 + T) - math.log(T)) / math.pi**2
    left = (math.log(T) - sps.digamma(T)) / math.pi**2
    assert core + right + left == pytest.approx(1.0, abs=1e-7)
