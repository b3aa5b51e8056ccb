
import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from zerogap.errors import DomainError
from zerogap.special_math import digamma, trigamma_real

# independently computed anchors (30-digit arbitrary-precision run)
GAMMA_E = 0.5772156649015328606065
PSI_ANCHORS = {
    1.0: -0.5772156649015328606065,
    2.0: 0.4227843350984671393935,
    0.5: -1.963510026021423479441,
}
TRIGAMMA_ANCHORS = {
    1.0: 1.644934066848226436472,
    2.0: 0.6449340668482264364724,
    0.5: 4.934802200544679309417,
}
PSI_1_2J = 0.7145915153739775266569 + 1.320807282642230228386j
PSI_Q3J = 1.097449149522477930457 + 1.654730547313617386821j


def test_digamma_real_anchors():
    for x, want in PSI_ANCHORS.items():
        assert abs(float(digamma(x)) - want) < 1e-13


def test_digamma_complex_anchors():
    assert abs(complex(digamma(1 + 2j)) - PSI_1_2J) < 1e-13
    assert abs(complex(digamma(0.25 + 3j)) - PSI_Q3J) < 1e-13


def test_trigamma_anchors():
    for x, want in TRIGAMMA_ANCHORS.items():
        assert abs(trigamma_real(x) - want) < 1e-13


def _mp_digamma(z):
    with mpmath.workdps(30):
        return complex(mpmath.digamma(mpmath.mpc(z.real, z.imag)))


def test_digamma_matches_mpmath_on_random_cloud():
    rng = np.random.default_rng(7)
    z = rng.uniform(-30, 30, 1000) + 1j * rng.uniform(-40, 40, 1000)
    z = z[np.abs(z.imag) > 1e-3]  # stay off the real axis and its poles
    got = digamma(z)
    ref = np.array([_mp_digamma(w) for w in z])
    assert np.max(np.abs(got - ref)) < 1e-13


def test_digamma_real_input_real_output():
    xs = [0.3, 1.7, 25.0, -2.5]
    out = digamma(np.array(xs))
    assert out.dtype == np.float64
    assert np.allclose(out, [_mp_digamma(complex(x)).real for x in xs], rtol=0, atol=1e-13)
    assert isinstance(digamma(0.5), np.floating)


def test_digamma_pole_rejected():
    with pytest.raises(DomainError):
        digamma(0.0)
    with pytest.raises(DomainError):
        digamma(-3.0)


def test_trigamma_matches_mpmath_log_uniform():
    rng = np.random.default_rng(17)
    xs = np.exp(rng.uniform(np.log(1e-6), np.log(1e6), 1000))
    got = trigamma_real(xs)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.psi(1, mpmath.mpf(float(x)))) for x in xs])
    assert np.max(np.abs(got / want - 1.0)) <= 2e-15


def test_trigamma_shapes():
    assert type(trigamma_real(1.0)) is float
    assert type(trigamma_real(np.float64(2.0))) is float
    xs = np.linspace(0.5, 9.0, 12).reshape(3, 4)
    out = trigamma_real(xs)
    assert out.shape == (3, 4)
    assert out[1, 2] == trigamma_real(xs[1, 2])


def test_trigamma_domain():
    for x in (0.0, -1.5, np.nan, np.inf, [1.0, -1.0]):
        with pytest.raises(DomainError):
            trigamma_real(x)


@given(st.complex_numbers(min_magnitude=1e-2, max_magnitude=40.0,
                          allow_nan=False, allow_infinity=False))
def test_digamma_recurrence(z):
    if abs(z.imag) < 1e-3 and z.real <= 0.5:
        z += 0.6j  # keep clear of poles on the negative real axis
    lhs = complex(digamma(z + 1.0))
    rhs = complex(digamma(z)) + 1.0 / z
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@given(st.complex_numbers(min_magnitude=1e-2, max_magnitude=40.0,
                          allow_nan=False, allow_infinity=False))
def test_digamma_conjugate_symmetry(z):
    if abs(z.imag) < 1e-3 and z.real <= 0.5:
        z += 0.6j
    assert abs(complex(digamma(np.conj(z))) - np.conj(complex(digamma(z)))) < 1e-12


@given(st.floats(min_value=0.05, max_value=60.0))
def test_trigamma_recurrence(x):
    lhs = trigamma_real(x + 1.0)
    rhs = trigamma_real(x) - 1.0 / x**2
    assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))
