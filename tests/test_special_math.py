
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from zerogap.errors import DomainError
from zerogap.special_math import (
    _NEAR_BLOCK,
    _SERIES_RADIUS,
    _polygamma,
    _re_digamma,
    _re_digamma_series,
    digamma,
    trigamma_real,
)

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
    z = rng.uniform(0, 30, 1000) + 1j * rng.uniform(-40, 40, 1000)
    z = z[np.abs(z.imag) > 1e-3]  # stay off the real axis and the pole at 0
    got = digamma(z)
    ref = np.array([_mp_digamma(w) for w in z])
    assert np.max(np.abs(got - ref)) < 1e-13


@pytest.mark.parametrize("a", [0.25, 0.375, 0.5, 0.875, 1.0, 1.125, 2.0, 3.3, 5.0])
def test_re_digamma_matches_mpmath(a):
    # v = 0, the shift branch |a + iv| < 16 and its edge, the lattice range
    # +-536 and the smooth-tail range out to 1.7e7
    rng = np.random.default_rng(int(8 * a))
    edge = np.sqrt(_SERIES_RADIUS**2 - a * a)
    v = np.concatenate([
        [0.0, 1e-3, -1e-3, edge, -edge, np.nextafter(edge, 0.0), 536.0, -1.7e7],
        rng.uniform(-16.0, 16.0, 30),
        rng.uniform(-536.0, 536.0, 30),
        np.exp(rng.uniform(np.log(536.0), np.log(1.7e7), 30)),
    ])
    got = _re_digamma(a, v)
    want = np.array([_mp_digamma(complex(a, x)).real for x in v])
    assert got.shape == v.shape
    assert np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= 6 * np.finfo(float).eps


def test_digamma_real_input_real_output():
    xs = [0.3, 1.7, 25.0, 2.5]
    out = digamma(np.array(xs))
    assert out.dtype == np.float64
    assert np.allclose(out, [_mp_digamma(complex(x)).real for x in xs], rtol=0, atol=1e-13)
    assert isinstance(digamma(0.5), np.floating)


def test_digamma_pole_rejected():
    # every point with Re z <= 0, on the poles or off them, alone or in a batch
    for z in (0.0, -3.0, -2.5 + 1j, 1j, np.array([1.0, -0.5])):
        with pytest.raises(DomainError):
            digamma(z)


def _polygamma_cloud(seed):
    # log-uniform on [1e-6, 1e6], plus both sides of the shift's edge x = 16
    rng = np.random.default_rng(seed)
    return np.concatenate([np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 1000)),
                           rng.uniform(15.5, 16.5, 200),
                           [_SERIES_RADIUS, np.nextafter(_SERIES_RADIUS, 0.0)]])


def test_trigamma_matches_mpmath_log_uniform():
    xs = _polygamma_cloud(17)
    got = trigamma_real(xs)
    with mpmath.workdps(40):
        want = np.array([float(mpmath.psi(1, mpmath.mpf(float(x)))) for x in xs])
    assert np.max(np.abs(got / want - 1.0)) <= 2e-15


def test_trigamma_complex_small_argument_against_mpmath():
    # |z| < 16 takes the shift psi'(z) = psi'(z + 16) + sum_{k<16} 1/(z + k)^2
    # before the asymptotic series; 16.5 + 1j goes straight to the series
    zs = np.array([0.25, 0.25 + 0.5j, 0.01 + 0.02j, 0.75 + 3j, 1.0, 2.5 - 7j,
                   5 + 10j, 11.5 + 0.5j, 0.1 + 15.9j, 16.5 + 1j])
    got = _polygamma(1, zs)
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.psi(1, mpmath.mpc(z.real, z.imag))) for z in zs])
    assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-15
    assert abs(got[4] - np.pi**2 / 6.0) <= 1e-15


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


# the right half-plane, Re z > 0, where digamma is defined
_RIGHT_HALF_PLANE = st.builds(complex, st.floats(min_value=1e-2, max_value=40.0),
                              st.floats(min_value=-40.0, max_value=40.0))


@given(_RIGHT_HALF_PLANE)
def test_digamma_recurrence(z):
    lhs = complex(digamma(z + 1.0))
    rhs = complex(digamma(z)) + 1.0 / z
    assert abs(lhs - rhs) <= 1e-10 * (1.0 + abs(lhs))


@given(_RIGHT_HALF_PLANE)
def test_digamma_conjugate_symmetry(z):
    assert abs(complex(digamma(np.conj(z))) - np.conj(complex(digamma(z)))) < 1e-12


@given(st.floats(min_value=0.05, max_value=60.0))
def test_trigamma_recurrence(x):
    lhs = trigamma_real(x + 1.0)
    rhs = trigamma_real(x) - 1.0 / x**2
    assert abs(lhs - rhs) <= 1e-11 * (1.0 + abs(rhs))


@given(st.lists(st.builds(complex, st.floats(min_value=1e-6, max_value=1e3),
                          st.floats(min_value=-1e3, max_value=1e3)),
                min_size=1, max_size=12),
       st.booleans())
def test_digamma_is_elementwise(zs, real):
    # each value depends on its own point alone, whatever else is in the
    # batch: points inside and outside the series radius, real or complex;
    # ell's batch contract rests on this
    z = np.array([w.real for w in zs] if real else zs)
    batch = digamma(z)
    assert batch.dtype == z.dtype and batch.shape == z.shape
    for i, w in enumerate(z):
        assert batch[i] == digamma(w)
        assert batch[i] == digamma(z[i:i + 1])[0]


def test_tetragamma_matches_mpmath_log_uniform():
    xs = _polygamma_cloud(19)
    got = _polygamma(2, xs)
    with mpmath.workdps(30):
        want = np.array([float(mpmath.psi(2, mpmath.mpf(float(x)))) for x in xs])
    assert np.max(np.abs(got / want - 1.0)) <= 4e-15
    assert _polygamma(2, xs[-1]) == got[-1]


def _shift_edge_points(kind, seed):
    # 48 points on both sides of |z| = 16, the shift's edge, with 16 itself
    # and its neighbours; complex ones at random arguments in (-1.5, 1.5)
    rng = np.random.default_rng(seed)
    edge = [_SERIES_RADIUS, np.nextafter(_SERIES_RADIUS, 0.0), np.nextafter(_SERIES_RADIUS, 20.0)]
    if kind == "real":
        return np.concatenate([edge, [1e-3, 0.5, 1.0, 1e6], rng.uniform(0.01, 32.0, 41)])
    modulus, arg = rng.uniform(0.05, 32.0, 41), rng.uniform(-1.5, 1.5, 41)
    return np.concatenate([np.array(edge, dtype=complex), modulus * np.exp(1j * arg),
                           [0.01 + 15.99j, 0.01 + 16.01j, 1e-3 + 1j, 5.0 + 1e5j]])


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_polygamma_matches_mpmath_across_the_shift(m, kind):
    # relative to max(1, |psi|) for psi, which has a zero at 1.4616...
    z = _shift_edge_points(kind, 29)
    got = _polygamma(m, z)
    assert got.dtype == z.dtype
    with mpmath.workdps(30):
        want = np.array([complex(mpmath.psi(m, mpmath.mpc(w.real, w.imag))) for w in z + 0j])
    scale = np.maximum(np.abs(want), 1.0) if m == 0 else np.abs(want)
    assert np.max(np.abs(got - want) / scale) <= 4 * np.finfo(float).eps


def _block_batches(kind, seed):
    # more than two shift blocks of near points (|z| < 16) shuffled among
    # far ones, and a batch of near points alone that ends inside its third
    # block; both hold the shift's edge points
    rng = np.random.default_rng(seed)
    edge = _shift_edge_points(kind, seed)
    n_near = 2 * _NEAR_BLOCK + 37
    modulus = np.concatenate([rng.uniform(1e-3, 16.0, n_near), rng.uniform(16.0, 80.0, 300)])
    if kind == "real":
        mixed = np.concatenate([edge, modulus])
    else:
        mixed = np.concatenate([edge, modulus * np.exp(1j * rng.uniform(-1.5, 1.5, len(modulus)))])
    rng.shuffle(mixed)
    near = mixed[np.abs(mixed) < _SERIES_RADIUS]
    mixed, near = mixed[:len(mixed) // 8 * 8], near[:len(near) // 8 * 8]
    assert np.count_nonzero(np.abs(mixed) < _SERIES_RADIUS) > 2 * _NEAR_BLOCK
    assert 2 * _NEAR_BLOCK < len(near) < 3 * _NEAR_BLOCK
    return mixed, near


@pytest.mark.parametrize("kind", ["real", "complex"])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_polygammas_are_elementwise_across_the_shift(m, kind):
    # only the points with |z| < 16 are shifted, so a batch mixes two
    # evaluation paths, and the shifted ones go _NEAR_BLOCK at a time; each
    # value still depends on its own point alone
    zs = _shift_edge_points(kind, 23)
    np.random.default_rng(31).shuffle(zs)
    for batch_zs in (zs, *_block_batches(kind, 23)):
        batch = _polygamma(m, batch_zs)
        assert batch.shape == batch_zs.shape
        for i, z in enumerate(batch_zs):
            assert batch[i] == _polygamma(m, z)
            assert batch[i] == _polygamma(m, batch_zs[i:i + 1])[0]
        assert _polygamma(m, batch_zs.reshape(8, -1)).tobytes() == batch.tobytes()
        if m == 1 and kind == "real":
            assert trigamma_real(batch_zs).tobytes() == batch.tobytes()


def test_polygamma_jet_matches_mpmath():
    # orders 0-3 from one call, at random complex z with Re z >= 1/4 on both
    # sides of the shift's edge; psi relative to max(1, |psi|), which has a
    # zero at 1.4616...
    rng = np.random.default_rng(41)
    z = rng.uniform(0.25, 24.0, 200) + 1j * rng.uniform(-24.0, 24.0, 200)
    jet = _polygamma((0, 1, 2, 3), z)
    assert jet.shape == (4, 200)
    with mpmath.workdps(30):
        for m in range(4):
            want = np.array([complex(mpmath.psi(m, mpmath.mpc(w.real, w.imag))) for w in z])
            scale = np.maximum(np.abs(want), 1.0) if m == 0 else np.abs(want)
            assert np.max(np.abs(jet[m] - want) / scale) <= 1e-14, m
            # each row is that order's own call, bit for bit
            assert jet[m].tobytes() == _polygamma(m, z).tobytes()
    assert _polygamma((1, 2), z[:3]).tobytes() == jet[1:3, :3].tobytes()
    # over more than two shift blocks, real and complex: each column is its
    # point's own jet, each row its order's own call, and a reshaped batch
    # the same
    for zs in (*_block_batches("real", 47), *_block_batches("complex", 47)):
        jet = _polygamma((0, 1, 2, 3), zs)
        assert jet.shape == (4, len(zs))
        for m in range(4):
            assert jet[m].tobytes() == _polygamma(m, zs).tobytes()
        for i, z in enumerate(zs):
            assert jet[:, i].tobytes() == _polygamma((0, 1, 2, 3), z).tobytes()
        assert _polygamma((0, 1, 2, 3), zs.reshape(8, -1)).reshape(4, -1).tobytes() == jet.tobytes()


@pytest.mark.parametrize("a", [0.25, 1.0])
def test_re_digamma_is_elementwise(a):
    # ell_grid's rows: v = 0, the shift branch, the lattice-table range and
    # the smooth-tail range in one batch; each Re psi value depends on its
    # own point alone, so a leading-columns call gets the full grid's bits
    rng = np.random.default_rng(int(8 * a))
    v = np.concatenate([[0.0], rng.uniform(-16.0, 16.0, 20), rng.uniform(20.0, 1000.0, 4000),
                        np.exp(rng.uniform(np.log(1000.0), np.log(1.7e7), 20))])
    batch = _re_digamma(a, v)
    for i in range(len(v)):
        assert batch[i] == _re_digamma(a, v[i:i + 1])[0]


@pytest.mark.parametrize("a", [0.25, 0.875, 1.25, 7.0])
def test_re_digamma_is_bitwise_even_in_v(a):
    # ell_grid evaluates its psi table on v >= 0 alone and mirrors it
    rng = np.random.default_rng(int(8 * a))
    v = np.concatenate([[0.0, 1e-3, 15.9, 16.0], rng.uniform(0.0, 16.0, 40),
                        np.exp(rng.uniform(math.log(16.0), math.log(1e7), 40))])
    assert _re_digamma(a, v).tobytes() == _re_digamma(a, -v).tobytes()


@pytest.mark.parametrize("modulus", [16.0, 64.0, 338.0, 1e4, 1e7])
def test_re_digamma_series_truncation_matches_mpmath(modulus):
    # the six-term series, from its radius |z| = 16 out to the smooth-tail
    # range; every point of a call has |z| = modulus
    for a in (0.25, 0.5 * modulus, modulus):
        v = np.array([1.0, -1.0]) * math.sqrt(modulus * modulus - a * a)
        got = _re_digamma_series(a, v * v)
        want = _mp_digamma(complex(a, v[0])).real
        assert np.max(np.abs(got - want)) <= 2 * np.finfo(float).eps * abs(want)
