import math
import warnings

import mpmath
import numpy as np
import pytest
from conftest import CERT_LENGTH, GOLDENS, VERIFY_DELTAS
from hypothesis import example, given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq

from zerogap import certification, extremal
from zerogap.certification import certify_gap
from zerogap.errors import AccuracyError, DomainError
from zerogap.explicit_formula import PRIME_FREE_RADIUS, _selberg_tail, verify
from zerogap.extremal import (
    _NEAR_LOBES,
    _RTOL,
    _XTOL,
    _beurling_w,
    _beurling_w_bounds,
    _beurling_w_deriv,
    _bracketed_roots,
    _find_window,
    _selberg_envelope_m,
    _selberg_far_bound,
    _selberg_jet,
    beurling,
    fejer,
    fourier_at,
    selberg_minorant,
    windowed_fejer,
)
from zerogap.special_math import _polygamma

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


def test_beurling_nan_is_nan():
    # nan meets none of the branches; its entry must not be left unwritten
    assert np.isnan(beurling(math.nan))
    got = beurling(np.array([0.5, math.nan, -2.0] * 100))
    assert np.isnan(got[1::3]).all() and not np.isnan(got[0::3]).any()


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


def _masked_beurling(x):
    # the masked evaluator the one-pass kernel replaced, with the w of
    # _beurling_w as it was, kept as their reference: the branch points
    # gathered, computed and scattered back
    arr = np.asarray(x, dtype=float)
    xv = np.atleast_1d(arr).astype(float)
    out = np.full(xv.shape, np.nan)
    zero = xv == 0.0
    tiny = ~zero & (np.abs(xv) < 1e-9)
    branch = ~(zero | tiny | np.isnan(xv))
    out[zero] = 1.0
    out[tiny] = 1.0 + 2.0 * xv[tiny]
    if branch.any():
        xb = xv[branch]
        r = xb - np.round(xb)
        s = np.sin(np.pi * r) / np.pi
        left = xb <= -0.5
        tri = _polygamma(1, np.where(left, -xb, 1.0 + xb))
        w = np.where(left, tri, -tri) + 1.0 / xb
        out[branch] = np.where(left, -1.0, 1.0) + 2.0 * (s * s) * w
    return float(out[0]) if arr.ndim == 0 else out.reshape(arr.shape)


BEURLING_SPECIAL = np.array([0.0, -0.0, 1e-300, -1e-300, 1e-10, -1e-10, 1e-9, -1e-9,
                             0.5, -0.5, math.nan, *range(-20, 21)], dtype=float)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and a[~nan].tobytes() == b[~nan].tobytes())


def test_beurling_one_pass_matches_masked_reference():
    xs = np.concatenate([np.linspace(-80.0, 80.0, 400_001), BEURLING_SPECIAL])
    given = xs.copy()
    assert _same_bits(beurling(xs), _masked_beurling(xs))
    assert _same_bits(xs, given)  # the input is read, never written
    cols = xs[:, None]
    assert _same_bits(beurling(cols), _masked_beurling(cols))
    pairs = xs[:-1].reshape(2, -1)
    assert _same_bits(beurling(pairs), _masked_beurling(pairs))
    for x in [*BEURLING_SPECIAL, *xs[::4001]]:
        got = beurling(x)
        assert type(got) is float and _same_bits(got, _masked_beurling(x)), x


def test_beurling_batch_equals_pointwise():
    rng = np.random.default_rng(5)
    xs = np.concatenate([rng.uniform(-80.0, 80.0, 2000), BEURLING_SPECIAL])
    assert _same_bits(beurling(xs), [beurling(x) for x in xs])


@pytest.mark.parametrize("x", [math.inf, -math.inf, np.array([1.0, -math.inf, 0.0])])
def test_beurling_infinite_raises(x):
    with pytest.raises(DomainError):
        beurling(x)


@pytest.mark.parametrize("alpha, beta, delta", [
    (-3.0, 5.0, 1.0), (-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0, PRIME_FREE_RADIUS),
])
def test_selberg_at_window_edges_warns_nothing(alpha, beta, delta):
    # u = 0 in one Beurling term at each edge: no division by it
    f = selberg_minorant(alpha, beta, delta)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        vals = f.value(np.array([alpha, beta]))
        assert vals.tolist() == [f.value(alpha), f.value(beta)]
    assert np.isfinite(vals).all()


def test_beurling_w_deriv_array_equals_scalar_calls():
    def scalar(u):
        # the scalar form the array one replaced
        if u > 0:
            return -1.0 / u**2 - float(_polygamma(2, 1.0 + u))
        return -float(_polygamma(2, -u)) - 1.0 / u**2

    rng = np.random.default_rng(9)
    mag = np.exp(rng.uniform(math.log(0.5), math.log(1e4), 500))
    us = np.concatenate([mag, -mag, [0.5, -0.5, 1.5, -1.5, 16.0, -16.0, 15.0, -15.0]])
    got = _beurling_w_deriv(us)
    assert got.tolist() == [scalar(float(u)) for u in us]
    assert got.tolist() == [float(_beurling_w_deriv(float(u))) for u in us]


def test_selberg_interval_validation():
    with pytest.raises(DomainError):
        selberg_minorant(1.0, 1.0, PRIME_FREE_RADIUS)
    with pytest.raises(DomainError):
        selberg_minorant(3.0, -3.0, PRIME_FREE_RADIUS)
    with pytest.raises(DomainError):
        selberg_minorant(-1.0, 1.0, 0.0)
    # the last three overflow delta (beta - alpha) to inf with finite inputs
    for alpha, beta, delta in [(-math.inf, 1.0, 0.1), (-1.0, math.inf, 0.1),
                               (math.nan, 1.0, 0.1), (-1.0, 1.0, math.inf),
                               (-1e308, 1e308, 0.1), (-1e10, 0.0, 1e300),
                               (-1e308, 1e308, 1e-300)]:
        with pytest.raises(DomainError):
            selberg_minorant(alpha, beta, delta)


def test_selberg_integral_closed_form(cert_minorant):
    s = cert_minorant
    want = CERT_LENGTH - 1.0 / PRIME_FREE_RADIUS
    assert s.integral == pytest.approx(want, abs=1e-12)
    # Vaaler's closed transform at 0
    num = fourier_at(s, 0.0)
    assert abs(num - want) < 1e-6


def test_selberg_center_value_regression(cert_minorant):
    v = float(np.asarray(cert_minorant.value(np.array([0.0])))[0])
    assert v == pytest.approx(GOLDENS["headline_minorant"]["value_at_0"], abs=1e-12)


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
    assert list(cert_minorant.positivity_window) == GOLDENS["headline"]["positivity_window"]
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


def _zero_between(value, a, b):
    # value is exactly 0.0 at every float from a to b, checked float by
    # float: at most 2^16 of them, all of one sign
    lo, hi = sorted((a, b))
    sign = 1.0 if lo >= 0.0 else -1.0
    if sign * hi < 0.0:
        return False
    i0, i1 = np.sort(np.abs([lo, hi])).view(np.int64)
    if i1 - i0 >= 2**16:
        return False
    return bool((value(sign * np.arange(i0, i1 + 1).view(np.float64)) == 0.0).all())


def _assert_window_matches_scan(alpha, beta, delta):
    f = selberg_minorant(alpha, beta, delta)
    want = _scan_window(f.value, alpha, beta, delta)
    got = f.positivity_window
    if want is not None and float(delta * (beta - alpha)).is_integer():
        # delta L an integer: S_-(alpha) = S_-(beta) = 0.0 exactly and the
        # edges are alpha and beta, where brentq may stop short on a plateau
        # of exact zeros (S_- = -0.0 on [-1.9e-15, 0] for alpha = 0, L = 50,
        # delta = 0.02)
        want = (alpha, beta)
    if want is None:
        assert got is None
    else:
        # brentq fixes an edge to xtol + rtol |edge|, so one at 0 only to
        # xtol.  Where S_- rounds to exactly 0.0 on a run of consecutive
        # floats, each of them is an edge and the two searches may stop at
        # different ones: alpha = 0, L = 49.75, delta = 0.02 has such a run
        # of 21,613 floats, 2.3e-15 wide, at 8.2e-4
        for edge, oracle in zip(got, want):
            assert (edge == pytest.approx(oracle, rel=1e-13, abs=_XTOL)
                    or _zero_between(f.value, edge, oracle)), (edge, oracle)
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
# inputs Hypothesis once drew from float literals it harvests from src/,
# pinned so that deleting those literals cannot drop them
@example(0.0, 50.0, 0.02)
@example(0.0, 49.75, 0.02)
def test_selberg_window_matches_scan(alpha, length, delta):
    _assert_window_matches_scan(alpha, alpha + length, delta)


def _brentq_window(value, alpha, beta, delta):
    # the independent reference: the same lobe samples and brackets, each
    # edge by its own scalar brentq
    h = min(1.0 / delta, 0.5 * (beta - alpha))
    grid = np.concatenate([np.linspace(alpha, alpha + h, 257),
                           np.linspace(beta - h, beta, 257)])
    pos = np.flatnonzero(value(grid) > 0.0)
    if pos.size == 0:
        return None
    i, j = pos[0], pos[-1]
    return (brentq(value, grid[i - 1], grid[i], xtol=_XTOL, rtol=_RTOL),
            brentq(value, grid[j], grid[j + 1], xtol=_XTOL, rtol=_RTOL))


@settings(max_examples=40)
@given(
    st.floats(min_value=-50.0, max_value=50.0),
    st.floats(min_value=0.5, max_value=80.0),
    st.floats(min_value=0.02, max_value=1.0),
)
@example(0.0, 50.0, 0.02)
@example(0.0, 49.75, 0.02)
def test_selberg_window_matches_brentq(alpha, length, delta):
    beta = alpha + length
    f = selberg_minorant(alpha, beta, delta)
    want = _brentq_window(f.value, alpha, beta, delta)
    if want is None:
        assert f.positivity_window is None
    else:
        assert f.positivity_window == pytest.approx(want, rel=1e-13, abs=_XTOL)


def test_bracketed_roots_solve_together_and_keep_exact_zero_endpoints():
    sizes = []

    def value(t):
        sizes.append(len(t))
        return t * t - 4.0

    # the first bracket's endpoint 2 is an exact zero: it is returned as is
    # and never evaluated again
    roots = _bracketed_roots(value, [2.0, 0.0], [5.0, 3.0], [0.0, -4.0], [21.0, 5.0])
    assert roots[0] == 2.0
    assert roots[1] == pytest.approx(2.0, rel=0.0, abs=_XTOL + _RTOL * 2.0)
    assert set(sizes) == {1}

    sizes.clear()
    roots = _bracketed_roots(value, [1.0, -1.0], [3.0, -3.0], [-3.0, -3.0], [5.0, 5.0])
    assert roots == pytest.approx([2.0, -2.0], rel=0.0, abs=_XTOL + _RTOL * 2.0)
    assert sizes[0] == 2  # both brackets in one call


def test_find_window_raises_when_an_edge_does_not_converge():
    # a jump from -1 to 1e30 across each edge: every false-position step
    # lands next to the same end of its bracket and moves it by a hair
    def value(t):
        return np.where(np.abs(t) < 9.3, 1e30, -1.0)

    with pytest.raises(AccuracyError, match="not converged"):
        _find_window(value, -10.0, 10.0, 0.5)


@pytest.mark.parametrize("alpha, beta, delta", [
    (-5.0 * math.pi / math.log(2.0), 5.0 * math.pi / math.log(2.0), PRIME_FREE_RADIUS),
    (0.0, 50.0, 0.02), (-7.25, 4.75, 0.25), (-40.0, 0.0, 0.05),
])
def test_integer_delta_length_window_is_alpha_beta(alpha, beta, delta):
    # delta L an integer in floating point (5 for the headline and verify's
    # delta0 window): S_- is exactly 0.0 at alpha and beta, and the
    # bracketing of _find_window returns them as the edges
    assert float(delta * (beta - alpha)).is_integer()
    f = selberg_minorant(alpha, beta, delta)
    assert f.positivity_window == (alpha, beta)
    assert f.value(np.array([alpha, beta])).tolist() == [0.0, 0.0]
    assert (f.value(np.array([alpha + 1e-6, beta - 1e-6])) > 0.0).all()


def test_window_is_solved_only_when_read(monkeypatch, bundled):
    calls = []

    def spy(*args):
        calls.append(args)
        return _find_window(*args)

    monkeypatch.setattr(extremal, "_find_window", spy)
    f = selberg_minorant(-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0, PRIME_FREE_RADIUS)
    verify(bundled, f)
    assert calls == []
    assert f.positivity_window == f.positivity_window == (-CERT_LENGTH / 2.0,
                                                          CERT_LENGTH / 2.0)
    assert len(calls) == 1
    calls.clear()
    certify_gap(4, 45.5)
    assert len(calls) == 1


def test_unconverged_window_raises_on_first_read(monkeypatch, bundled):
    # delta L = 0.2 * 5/delta0 is not an integer, so the edges need steps
    # that one step cannot finish; only reading the window takes them
    monkeypatch.setattr(extremal, "_MAX_STEPS", 1)
    half = 2.5 / PRIME_FREE_RADIUS
    assert not float(0.2 * 2.0 * half).is_integer()
    f = selberg_minorant(-half, half, 0.2)
    verify(bundled, f)
    with pytest.raises(AccuracyError, match="not converged"):
        f.positivity_window
    # certify_gap reads the window before it searches (delta0 L = 5.02)
    monkeypatch.setattr(certification, "min_ell_over_mu", None)
    with pytest.raises(AccuracyError, match="not converged"):
        certify_gap(4, 45.5)


@pytest.mark.parametrize("alpha, beta, delta", [
    (-5.0 * math.pi / math.log(2.0), 5.0 * math.pi / math.log(2.0), PRIME_FREE_RADIUS),
    (-30.0, 30.0, PRIME_FREE_RADIUS), (-7.3, 19.1, 0.09), (2.0, 9.5, 0.5),
])
def test_selberg_transform_derivative_matches_differences(alpha, beta, delta):
    f = selberg_minorant(alpha, beta, delta)
    xi = np.linspace(0.0, delta, 801)[1:-1]
    step = 1e-6 * delta
    central = (f.fourier_centred(xi + step) - f.fourier_centred(xi - step)) / (2.0 * step)
    deriv = _selberg_jet(beta - alpha, delta, xi)[1]
    assert np.abs(deriv - central).max() <= 1e-9 * np.abs(deriv).max()
    # the right derivative 1/delta^2 at 0 (Vaaler's K^ = 1 - |u| has the
    # only kink there), and zero from delta on
    assert float(_selberg_jet(beta - alpha, delta, 0.0)[1]) == pytest.approx(
        1.0 / delta**2, rel=1e-15)
    assert (_selberg_jet(beta - alpha, delta, np.array([delta, 1.5 * delta]))[1] == 0.0).all()


def test_selberg_transform_derivative_matches_mpmath_near_the_ends():
    # where the closed form switches to its series: small u and small xi L
    # near 0, small 1 - u near delta
    alpha, beta, delta = -22.5, 22.8, PRIME_FREE_RADIUS
    length = beta - alpha
    with mpmath.workdps(40):
        def fhat(xi):
            u = xi / delta
            j_hat = (1 - u) * mpmath.pi * u * mpmath.cot(mpmath.pi * u) + u
            return (j_hat * mpmath.sin(mpmath.pi * xi * length) / (mpmath.pi * xi)
                    - (1 - u) / delta * mpmath.cos(mpmath.pi * xi * length))
        for xi in (1e-9, 1e-5, 5e-4, 2e-3, 0.02, 0.5 * delta, delta - 2e-3, delta - 1e-6):
            want = float(mpmath.diff(fhat, mpmath.mpf(xi)))
            got = float(_selberg_jet(length, delta, xi)[1])
            assert abs(got - want) <= 1e-13 * max(abs(want), 1.0 / delta**2), xi


@pytest.mark.parametrize("alpha, beta, delta", [
    (-5.0 * math.pi / math.log(2.0), 5.0 * math.pi / math.log(2.0), PRIME_FREE_RADIUS),
    (-30.0, 30.0, 0.05), (-7.3, 19.1, 0.09), (2.0, 9.5, 0.5),
])
def test_selberg_transform_matches_mpmath_across_the_support(alpha, beta, delta):
    # Vaaler's closed form in 40 digits at u = xi/delta across [0, 1), at
    # u = 1/2 +- 1e-12 either side of the fold of J^, and at v = min(u, 1 -
    # u) below 0.06/pi at both ends, where J^'s derivative takes its series,
    # for xi and -xi.  The tolerance is 4 ulps of L + 1/delta, the size of
    # the terms Vaaler's form sums; the worst error on these points is 1.26
    # of those ulps (the fourth window)
    f = selberg_minorant(alpha, beta, delta)
    v = np.array([1e-12, 1e-9, 1e-6, 1e-4, 2e-3, 0.01, 0.019])
    u = np.concatenate([np.linspace(0.0, 1.0, 201)[:-1], [0.5 - 1e-12, 0.5 + 1e-12], v,
                        1.0 - v])
    xi = u * delta
    with mpmath.workdps(40):
        length, d = mpmath.mpf(beta - alpha), mpmath.mpf(delta)

        def fhat(x):
            if x == 0:
                return length - 1 / d
            w, uu = mpmath.pi * x, x / d
            j_hat = (1 - uu) * mpmath.pi * uu * mpmath.cot(mpmath.pi * uu) + uu
            return j_hat * mpmath.sin(w * length) / w - (1 - uu) / d * mpmath.cos(w * length)
        want = np.array([float(fhat(mpmath.mpf(float(x)))) for x in xi])
    bound = 4.0 * math.ulp(1.0) * (beta - alpha + 1.0 / delta)
    for sign in (1.0, -1.0):
        err = np.abs(f.fourier_centred(sign * xi) - want)
        assert err.max() <= bound, (u[np.argmax(err)], err.max() / (bound / 4.0))


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
    # |w| <= 1/(2u^2) + 1/(6|u|^3), |w'| <= 2/|u|^3 and |w''| <= 6/u^4, the
    # analytic inputs of the far bound and of the tail components' bounds,
    # against 30-digit polygammas; the float w must agree and obey its bound
    rng = np.random.default_rng(31)
    mag = np.exp(rng.uniform(math.log(0.5), math.log(1e3), 200))
    us = np.concatenate([mag, -mag, [0.5, -0.5, 1e3, -1e3]])
    got = _beurling_w(us)
    with mpmath.workdps(30):
        for u, w in zip(us, got):
            x = mpmath.mpf(float(u))
            if x > 0:  # w = 1/u - psi'(1 + u)
                want = [1 / x - mpmath.psi(1, 1 + x), -1 / x**2 - mpmath.psi(2, 1 + x),
                        2 / x**3 - mpmath.psi(3, 1 + x)]
            else:  # w = psi'(-u) + 1/u
                want = [mpmath.psi(1, -x) + 1 / x, -mpmath.psi(2, -x) - 1 / x**2,
                        mpmath.psi(3, -x) + 2 / x**3]
            bounds = _beurling_w_bounds(abs(float(u)))
            assert all(abs(g) < b for g, b in zip(want, bounds)), u
            assert abs(w) <= bounds[0]
            assert abs(w - float(want[0])) <= 1e-11 * float(abs(want[0]))


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


def _two_tail_envelope_m(value, alpha, beta, delta, t0):
    # the envelope's sampled constant on both tails, +-[t0, t1], whatever
    # the window: the oracle of the one-tail sampling of a centred window
    step = 1.0 / (extremal._LOBE_SAMPLES * delta)
    near, first = 0.0, 0
    for lobes in range(_NEAR_LOBES[0], _NEAR_LOBES[1] + 1):
        s = t0 + step * np.arange(first, lobes * extremal._LOBE_SAMPLES + 1)
        ts = np.concatenate([s, -s])
        near = max(near, float(np.max(ts * ts * np.abs(value(ts)))))
        far = _selberg_far_bound(alpha, beta, delta, float(s[-1]))
        if far <= near:
            break
        first = lobes * extremal._LOBE_SAMPLES + 1
    return max(1.05 * near, far)


# verify-example's window, +-5/(2 delta0), at the benchmark's three verify
# apertures; ENVELOPE_WINDOWS, the headline window and three off-centre
# ones; and a centred window at the narrow aperture delta = 0.05
VERIFY_HALF = 5.0 / (2.0 * PRIME_FREE_RADIUS)
ENVELOPE_ORACLE_WINDOWS = [
    pytest.param(-VERIFY_HALF, VERIFY_HALF, delta, id=f"verify-{k}")
    for k, delta in enumerate(VERIFY_DELTAS.values())
] + ENVELOPE_WINDOWS + [pytest.param(-30.0, 30.0, 0.05, id="narrow")]


@pytest.mark.parametrize("alpha,beta,delta", ENVELOPE_ORACLE_WINDOWS)
def test_selberg_envelope_m_is_the_two_tail_sup(alpha, beta, delta):
    f = selberg_minorant(alpha, beta, delta)
    env = f.envelope
    assert env.m == _two_tail_envelope_m(f.value, alpha, beta, delta, env.t0)
    # a centred window samples its positive tail alone
    seen = []

    def spy(t):
        seen.append(np.asarray(t))
        return f.value(t)

    assert _selberg_envelope_m(spy, alpha, beta, delta, env.t0) == env.m
    every = np.concatenate(seen)
    if alpha == -beta:
        assert (every >= env.t0).all()
    else:
        assert (every <= -env.t0).any()


def test_envelope_solved_on_first_read_and_cached(monkeypatch, bundled):
    calls = []

    def spy(*args):
        calls.append(args)
        return _selberg_envelope_m(*args)

    monkeypatch.setattr(extremal, "_selberg_envelope_m", spy)
    f = selberg_minorant(-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0, PRIME_FREE_RADIUS)
    assert calls == []
    verify(bundled, f)
    assert len(calls) == 1
    verify(bundled, f)
    assert len(calls) == 1
    assert f.envelope is f.envelope
    assert all(g.envelope is g.envelope for g in (fejer(0.3), windowed_fejer(2.0, 0.3)))


def test_certify_never_samples_the_envelope(monkeypatch):
    def fail(*args):
        raise AssertionError("the envelope was sampled")

    monkeypatch.setattr(extremal, "_selberg_envelope_m", fail)
    cert = certify_gap(4, CERT_LENGTH)
    assert cert.certified and round(cert.margin, 6) == round(GOLDENS["headline"]["margin"], 6)


# the Selberg windows of test_explicit_formula's FLOOR_KERNELS
TAIL_WINDOWS = {
    "headline": (-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0, PRIME_FREE_RADIUS),
    "asymmetric": (-7.3, 19.1, 0.09),
    "narrow": (-30.0, 30.0, 0.05),
    "offset": (0.0, 45.5, PRIME_FREE_RADIUS),
}


def test_selberg_tail_reconstructs_function():
    # P + sum_edges Q cos(omega t + phase) is the minorant beyond t_valid
    for window in TAIL_WINDOWS.values():
        t_valid, _, smooth, omega, _, edges = _selberg_tail(*window)
        ts = np.concatenate([np.linspace(t_valid, t_valid + 200.0, 4001),
                             -np.linspace(t_valid, t_valid + 200.0, 4001)])
        rec = np.asarray(smooth(ts), dtype=float)
        for q, _, phase in edges:
            rec = rec + np.asarray(q(ts)) * np.cos(omega * ts + phase)
        direct = np.asarray(selberg_minorant(*window).value(ts))
        assert np.max(np.abs(rec - direct)) < 1e-10


def test_selberg_tail_component_bounds():
    # at each cutoff t, s^2 |Q|, |s|^3 |Q'| and s^4 |Q''| stay within the
    # shared bounds(t) at every sampled |s| >= t on both tails, for both
    # edges: 40 steps of 1/delta past t, then geometrically out to 1e4 t.
    # Q'' is a central difference of Q', with 1e-6 relative allowed for its
    # error
    h = 1e-2
    for window in TAIL_WINDOWS.values():
        t_valid, _, _, _, bounds, edges = _selberg_tail(*window)
        for t in (t_valid, 2.0 * t_valid, 420.0, 1000.0):
            s = np.concatenate([t + np.arange(40) / window[2],
                                t * np.geomspace(1.0, 1e4, 41)])
            s = np.concatenate([s, -s])
            c_q, c_dq, c_ddq = bounds(t)
            for q, d_q, _ in edges:
                assert np.all(s * s * np.abs(q(s)) <= c_q)
                dq = np.array([d_q(v) for v in s])
                assert np.all(np.abs(s) ** 3 * np.abs(dq) <= c_dq)
                ddq = np.array([d_q(v + h) - d_q(v - h) for v in s]) / (2.0 * h)
                assert np.all(s**4 * np.abs(ddq) <= c_ddq * (1.0 + 1e-6))


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
        assert f.fourier_centred(x) == 0.0
        assert fourier_at(f, x) == 0.0


@pytest.mark.parametrize("kernel", ["selberg", "fejer", "windowed_fejer"])
def test_fourier_at_takes_arrays(kernel):
    # an array of points gives the values of its points one at a time; a
    # scalar gives a Python float
    f = {"selberg": lambda: selberg_minorant(-3.0, 5.0, 0.4),
         "fejer": lambda: fejer(0.4),
         "windowed_fejer": lambda: windowed_fejer(2.0, 0.4)}[kernel]()
    xs = np.linspace(-0.5, 0.5, 12).reshape(3, 4)
    got = fourier_at(f, xs)
    assert isinstance(got, np.ndarray) and got.shape == xs.shape
    assert type(fourier_at(f, 0.1)) is float
    assert got.tolist() == [[fourier_at(f, x) for x in row] for row in xs.tolist()]


def test_fejer_delta_validation():
    for delta in (-0.1, math.nan, math.inf):
        with pytest.raises(DomainError):
            fejer(delta)


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


TRANSFORM_KERNELS = [
    pytest.param(lambda: selberg_minorant(-CERT_LENGTH / 2.0, CERT_LENGTH / 2.0,
                                          PRIME_FREE_RADIUS), id="selberg-symmetric"),
    pytest.param(lambda: selberg_minorant(-7.3, 19.1, 0.09), id="selberg-asymmetric"),
    pytest.param(lambda: fejer(PRIME_FREE_RADIUS), id="fejer"),
    pytest.param(lambda: windowed_fejer(14.13, PRIME_FREE_RADIUS), id="windowed-fejer"),
]


@pytest.mark.parametrize("make", TRANSFORM_KERNELS)
def test_closed_transform_inverts_to_value(make):
    # f(t) = int_{-delta}^{delta} fc^(xi) e^{2 pi i xi (t - centre)} dxi, fc^
    # the centred copy's real, even transform; the breakpoints sit on the
    # kinks of the windowed kernel's transform
    f = make()
    d = f.support_radius
    for t in (0.0, 1.7, -5.3, 31.4, -60.0):
        value = quad(lambda xi: f.fourier_centred(xi) * np.cos(2.0 * math.pi * xi * (t - f.centre)),
                     -d, d, points=[-0.5 * d, 0.0, 0.5 * d], epsabs=1e-11, epsrel=0.0)[0]
        assert value == pytest.approx(float(f.value(t)), abs=1e-10)


@pytest.mark.parametrize("make", [
    *TRANSFORM_KERNELS,
    pytest.param(lambda: selberg_minorant(950.0, 1050.0, PRIME_FREE_RADIUS), id="selberg-far"),
])
def test_centred_transform_is_a_real_float_array(make):
    f = make()
    xi = np.linspace(-1.2, 1.2, 97).reshape(1, 97) * f.support_radius
    got = f.fourier_centred(xi)
    assert isinstance(got, np.ndarray) and got.dtype == np.float64 and got.shape == xi.shape


@pytest.mark.parametrize("alpha, beta", [
    (-7.3, 19.1), (177.5, 222.5), (-322.75, -277.25),
    pytest.param(31.5 - CERT_LENGTH / 2.0, 31.5 + CERT_LENGTH / 2.0, id="headline-moved"),
])
def test_translated_window_transform_is_the_centred_one(alpha, beta):
    # the centred copy of S on [alpha, beta] is S on [-L/2, L/2], L = beta - alpha
    # (halving is exact, so both windows have the same L bit for bit)
    length = beta - alpha
    xi = np.linspace(-1.2, 1.2, 97) * PRIME_FREE_RADIUS
    moved = selberg_minorant(alpha, beta, PRIME_FREE_RADIUS)
    centred = selberg_minorant(-length / 2.0, length / 2.0, PRIME_FREE_RADIUS)
    assert moved.centre == 0.5 * (alpha + beta) and centred.centre == 0.0
    assert np.array_equal(moved.fourier_centred(xi), centred.fourier_centred(xi))


def test_windowed_fejer_validation():
    with pytest.raises(DomainError):
        windowed_fejer(0.0, PRIME_FREE_RADIUS)
    with pytest.raises(DomainError):
        windowed_fejer(14.13, 0.0)
    for t0, delta in [(math.inf, PRIME_FREE_RADIUS), (math.nan, PRIME_FREE_RADIUS),
                      (14.13, math.inf), (14.13, math.nan)]:
        with pytest.raises(DomainError):
            windowed_fejer(t0, delta)


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
