"""Acceptance gate: one numbered criterion per test, one PASS/FAIL line each.

Each test prints its verdict line even under pytest's capture so a full run
shows the eight lines in order; the asserts keep the gate binding.
"""

import math
import time

import numpy as np
import scipy.special as sps
from scipy.integrate import quad

from zerogap.certification import certify_gap
from zerogap.explicit_formula import PRIME_FREE_RADIUS, verify
from zerogap.extremal import beurling, fourier_at
from zerogap.region_scan import classify_point
from zerogap.special_math import digamma, trigamma_real

LENGTH = 10.0 * math.pi / math.log(2.0)
EULER_GAMMA = 0.5772156649015328606065


def _criterion(capsys, num, ok, detail):
    with capsys.disabled():
        print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_universal_gap_certificate(capsys):
    start = time.monotonic()
    cert = certify_gap(4, LENGTH, PRIME_FREE_RADIUS)
    elapsed = time.monotonic() - start
    ok = (cert.certified is True and cert.margin > 0.0
          and cert.search.re_max == 50.0 and cert.search.im_max == 200.0
          and cert.search.step == 0.25 and elapsed < 600.0)
    _criterion(capsys, 1, ok,
               f"degree 4, length {LENGTH:.7f}: certified={cert.certified}, "
               f"margin={cert.margin:.6f}, grid {cert.search.grid_shape}, "
               f"{elapsed:.1f} s")


def test_criterion_2_selberg_minorant(capsys, cert_minorant):
    s = cert_minorant
    target = LENGTH - 1.0 / PRIME_FREE_RADIUS
    int_ok = abs(s.integral - target) < 1e-6
    hat0 = fourier_at(s, 0.0)
    hat0_ok = abs(hat0 - target) < 1e-6

    rng = np.random.default_rng(2)
    xs = rng.uniform(-60.0, 60.0, 100_000)
    half = LENGTH / 2.0
    chi = ((xs >= -half) & (xs <= half)).astype(float)
    minor_ok = bool(np.all(np.asarray(s.value(xs)) <= chi + 1e-12))

    freqs = np.linspace(1.01 * PRIME_FREE_RADIUS, 3.0 * PRIME_FREE_RADIUS, 10)
    leak = max(abs(fourier_at(s, float(sx * x)))
               for x in freqs for sx in (1.0, -1.0))
    supp_ok = leak <= 1e-6

    ok = int_ok and hat0_ok and minor_ok and supp_ok
    _criterion(capsys, 2, ok,
               f"integral err {abs(s.integral - target):.2e}, "
               f"transform-at-0 err {abs(hat0 - target):.2e}, "
               f"minorant holds on 1e5 samples: {minor_ok}, "
               f"max |transform| beyond delta {leak:.2e}")


def test_criterion_3_beurling_approximant(capsys):
    rng = np.random.default_rng(3)
    xs = rng.uniform(-50.0, 50.0, 100_000)
    vals = beurling(xs)
    major_ok = bool(np.all(vals >= np.sign(xs) - 1e-12))

    T = 300.0
    # int_{-T}^{T} as int_0^1 of the sum over unit shifts, at whose ends sgn jumps
    ks = np.arange(-T, T)
    core = quad(lambda s: np.sum(beurling(ks + s) - np.sign(ks + s)), 0.0, 1.0,
                epsabs=1e-12, epsrel=0.0)[0]
    tails = (sps.digamma(1.0 + T) - math.log(T)) / math.pi**2
    tails += (math.log(T) - sps.digamma(T)) / math.pi**2
    excess = core + tails
    int_ok = abs(excess - 1.0) < 1e-6

    ok = major_ok and int_ok
    _criterion(capsys, 3, ok,
               f"majorant holds on 1e5 samples: {major_ok}, "
               f"excess integral {excess:.9f} (err {abs(excess - 1.0):.2e})")


def test_criterion_4_region_verdicts(capsys):
    points = {
        (4.7209, 12.4687): "Unconstrained",
        (0.0, 0.0): "Impossible",
        (50.0, 50.0): "ForcedLowZero",
    }
    got, stable = {}, True
    for (n1, n2), want in points.items():
        a = classify_point(n1, n2, tol=1e-8)
        b = classify_point(n1, n2, tol=5e-9)
        got[(n1, n2)] = a.verdict
        stable = stable and (a.verdict == b.verdict == want)
    ok = stable and all(got[p] == want for p, want in points.items())
    summary = "; ".join(f"({p[0]:.4g},{p[1]:.4g})->{v}" for p, v in got.items())
    _criterion(capsys, 4, ok, f"{summary}; stable under tolerance halving: {stable}")


def test_criterion_5_bundled_zero_geometry(capsys, bundled):
    zs = np.asarray(bundled.zeros)
    twice_first = 2.0 * zs[0]
    first_ok = abs(twice_first - 28.9921230182) < 1e-10
    count_ok = zs.size == 11 and bool(np.all((zs > 0.0) & (zs < 30.0)))

    sym = np.sort(np.concatenate([-zs, zs]))
    stretches = np.concatenate([[sym[0] + 30.0], np.diff(sym), [30.0 - sym[-1]]])
    widest = float(stretches.max())
    window_ok = widest < LENGTH

    ok = first_ok and count_ok and window_ok
    _criterion(capsys, 5, ok,
               f"2*gamma_1 = {twice_first:.10f}, zeros in (0,30): {zs.size}, "
               f"widest zero-free stretch {widest:.4f} < {LENGTH:.4f}")


def test_criterion_6_explicit_formula_consistency(capsys, bundled, cert_minorant):
    rep = verify(bundled, cert_minorant)
    ok = (abs(rep.residual) <= rep.tail_bound + rep.tolerance_budget
          and math.isfinite(rep.implied_log_Q))
    _criterion(capsys, 6, ok,
               f"|residual| {abs(rep.residual):.4f} <= tail bound "
               f"{rep.tail_bound:.4f} + budget {rep.tolerance_budget:.1e}, "
               f"implied_log_Q = {rep.implied_log_Q:.6f}")


def test_criterion_7_digamma_oracle(capsys):
    anchors = [
        (digamma(1.0), -EULER_GAMMA),
        (digamma(2.0), 1.0 - EULER_GAMMA),
        (digamma(0.5), -EULER_GAMMA - 2.0 * math.log(2.0)),
        (trigamma_real(1.0), math.pi**2 / 6.0),
        (trigamma_real(2.0), math.pi**2 / 6.0 - 1.0),
        (trigamma_real(0.5), math.pi**2 / 2.0),
    ]
    anchor_err = max(abs(complex(got) - want) for got, want in anchors)

    rng = np.random.default_rng(7)
    z = rng.uniform(0.1, 10.0, 1000) + 1j * rng.uniform(-10.0, 10.0, 1000)
    rec = np.abs(digamma(z + 1.0) - digamma(z) - 1.0 / z)
    conj = np.abs(digamma(np.conj(z)) - np.conj(digamma(z)))
    prop_err = float(max(rec.max(), conj.max()))

    ok = anchor_err < 1e-10 and prop_err < 1e-10
    _criterion(capsys, 7, ok,
               f"anchor error {anchor_err:.2e}, recurrence/conjugation error "
               f"on 1000 points {prop_err:.2e}")


def test_criterion_8_convention_agreement(capsys, minimal_lengths):
    kw = dict(re_max=6.0, im_max=20.0, step=1.0)
    cert_h = certify_gap(4, LENGTH, convention="halved", **kw)
    cert_l = certify_gap(4, LENGTH, convention="literal", **kw)
    # minimal_certified_length(4, PRIME_FREE_RADIUS, 1e-3, convention=..., **kw)
    len_h, len_l = minimal_lengths["halved"], minimal_lengths["literal"]
    ok = (cert_h.certified == cert_l.certified is True
          and abs(len_h - len_l) <= 1e-3)
    _criterion(capsys, 8, ok,
               f"certified {cert_h.certified}/{cert_l.certified}, minimal "
               f"length {len_h:.4f}/{len_l:.4f} (diff {abs(len_h - len_l):.1e})")
