import json
import logging
import math
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import CERT_LENGTH, GOLDENS

from zerogap import certification, explicit_formula
from zerogap.certification import (
    GapCertificate,
    MinEllSearch,
    SearchDomain,
    certify_gap,
    min_ell_over_mu,
    minimal_certified_length,
)
from zerogap.errors import AccuracyError, DomainError
from zerogap.explicit_formula import (
    _GRID_TOL,
    PRIME_FREE_RADIUS,
    _step_grid,
    convention_scale,
    ell,
    ell_column_floor,
    ell_grid,
)
from zerogap.extremal import fejer, selberg_minorant, windowed_fejer

# frozen from the default 201 x 801 grid run
CERT_SEARCH_DOMAIN = {
    "re_max": 50.0, "im_max": 200.0, "step": 0.25, "convention": "halved",
    "grid_shape": [201, 801], "columns_evaluated": GOLDENS["headline"]["columns_evaluated"],
    "floor_clears_at": GOLDENS["headline"]["floor_clears_at"],
    "error_bound": 7.70966042141075e-05,
}

# smaller rectangle for the fast tests; the minimum sits at mu = 0, but the
# lattice's extent follows the rectangle, so the margin on it, the record's
# small_rectangle entry, differs from the headline margin by 8.6e-8
FAST = dict(re_max=6.0, im_max=20.0, step=0.5)


def test_min_ell_small_grid():
    s = min_ell_over_mu_cached()
    assert s.value == pytest.approx(GOLDENS["min_ell"]["value"], abs=1e-6)
    assert s.argmin == 0j
    assert s.domain.grid_shape == (13, 41)
    assert s.domain.convention == "halved"
    assert s.domain.error_bound > 0.0


_CACHE = {}


def min_ell_over_mu_cached():
    if "fast" not in _CACHE:
        _CACHE["fast"] = min_ell_over_mu(cert_fn(), **FAST)
    return _CACHE["fast"]


def cert_fn():
    from zerogap.extremal import selberg_minorant
    if "fn" not in _CACHE:
        half = CERT_LENGTH / 2.0
        _CACHE["fn"] = selberg_minorant(-half, half, PRIME_FREE_RADIUS)
    return _CACHE["fn"]


def test_certificate_margin_and_flags():
    cert = certify_gap(4, CERT_LENGTH, **FAST)
    assert cert.certified is True
    assert cert.margin == pytest.approx(GOLDENS["small_rectangle"]["margin"], abs=1e-11)
    assert cert.margin == pytest.approx(
        4.0 * min_ell_over_mu_cached().value / (2.0 * math.pi), abs=1e-12)
    assert cert.degree == 4
    assert cert.delta == PRIME_FREE_RADIUS
    assert cert.positivity_window[1] == -cert.positivity_window[0]
    assert cert.positivity_window[1] == pytest.approx(CERT_LENGTH / 2.0, abs=1e-12)
    assert "evidence" in cert.kind
    d = cert.to_dict()
    assert d["certified"] is True
    assert d["window_length"] == pytest.approx(CERT_LENGTH, abs=1e-12)
    json.dumps(d)  # must be serializable as-is


def test_headline_certificate_pins():
    d = certify_gap(4, CERT_LENGTH).to_dict()
    assert d["margin"] == pytest.approx(GOLDENS["headline"]["margin"], abs=1e-11)
    assert round(d["margin"], 6) == round(GOLDENS["headline"]["margin"], 6)
    assert d["positivity_window"] == GOLDENS["headline"]["positivity_window"]
    assert d["search_domain"] == CERT_SEARCH_DOMAIN


def test_certificate_degree_free():
    base = min_ell_over_mu_cached().value
    for degree in (1, 2, 3, 10):
        cert = certify_gap(degree, CERT_LENGTH, **FAST)
        assert cert.certified is True
        assert cert.margin == pytest.approx(degree * base / (2.0 * math.pi), abs=1e-12)


def test_short_window_fails():
    cert = certify_gap(4, 20.0, re_max=6.0, im_max=20.0, step=1.0)
    assert cert.certified is False
    assert cert.margin == pytest.approx(-9.755113331721033, abs=1e-4)
    with pytest.raises(DomainError):
        # a window at or below 1/delta has no valid minorant
        certify_gap(4, 1.0 / PRIME_FREE_RADIUS, **FAST)


def test_parameter_validation():
    with pytest.raises(DomainError):
        certify_gap(0, CERT_LENGTH, **FAST)
    with pytest.raises(DomainError):
        certify_gap(2.5, CERT_LENGTH, **FAST)
    # a bool is an int, and a degree beyond the float range overflows the margin
    for degree in (True, 10**400):
        with pytest.raises(DomainError):
            certify_gap(degree, CERT_LENGTH, **FAST)
        with pytest.raises(DomainError):
            minimal_certified_length(degree, **FAST)
    with pytest.raises(DomainError):
        certify_gap(4, CERT_LENGTH, delta=0.2, **FAST)
    with pytest.raises(DomainError):
        certify_gap(4, CERT_LENGTH, convention="other", **FAST)
    with pytest.raises(DomainError):
        min_ell_over_mu(cert_fn(), re_max=6.0, im_max=20.0, step=-0.5)
    with pytest.raises(DomainError):
        min_ell_over_mu(cert_fn(), re_max=0.0, im_max=20.0, step=0.5)
    with pytest.raises(DomainError):
        # one Im-mu column: the search needs step <= im_max, so ell_grid gets 2 or more
        min_ell_over_mu(cert_fn(), re_max=6.0, im_max=0.25, step=0.5)
    # comparisons with nan are false, so non-finite bounds need their own check
    for bad in ({"re_max": math.nan}, {"im_max": math.nan}, {"step": math.nan},
                {"re_max": math.inf}, {"im_max": math.inf}, {"step": math.inf}):
        with pytest.raises(DomainError):
            min_ell_over_mu(cert_fn(), **{**FAST, **bad})
        with pytest.raises(DomainError):
            certify_gap(4, CERT_LENGTH, **{**FAST, **bad})
    for precision in (0.0, math.nan, math.inf):
        with pytest.raises(DomainError):
            minimal_certified_length(4, precision=precision, **FAST)


def test_conventions_give_identical_certificates():
    # the literal search runs on the halved rectangle scaled by 1/2, which
    # visits the same kernel parameters point for point: every field agrees
    # except the convention, the rectangle and c0, which are the halved ones / 2
    a = certify_gap(4, CERT_LENGTH, **FAST).to_dict()
    b = certify_gap(4, CERT_LENGTH, convention="literal", **FAST).to_dict()
    da, db = a.pop("search_domain"), b.pop("search_domain")
    assert b == a
    assert b["certified"] is True
    assert (da.pop("convention"), db.pop("convention")) == ("halved", "literal")
    for key in ("re_max", "im_max", "step", "floor_clears_at"):
        assert db.pop(key) == da.pop(key) / 2.0
    assert db == da  # grid_shape, columns_evaluated, error_bound
    # min-ell searches the caller's rectangle: literal on (R, I, s) is halved
    # on (2R, 2I, 2s) with the argmin doubled
    lit = min_ell_over_mu(cert_fn(), FAST["re_max"] / 2.0, FAST["im_max"] / 2.0,
                          FAST["step"] / 2.0, "literal")
    half = min_ell_over_mu_cached()
    assert (lit.value, 2.0 * lit.argmin) == (half.value, half.argmin)
    assert (lit.domain.grid_shape, lit.domain.columns_evaluated, lit.domain.error_bound) == (
        half.domain.grid_shape, half.domain.columns_evaluated, half.domain.error_bound)


def test_refinement_stability():
    coarse = certify_gap(4, CERT_LENGTH, re_max=6.0, im_max=50.0, step=0.25)
    fine = certify_gap(4, CERT_LENGTH, re_max=6.0, im_max=50.0, step=0.125)
    assert abs(coarse.margin - fine.margin) < 1e-3
    assert coarse.certified and fine.certified


def test_certified_needs_the_floor_cleared_inside_the_rectangle():
    # up to Im mu = 4 the column floor clears no column (it first does at
    # 16.5), so the axis beyond the rectangle is unsearched: the margin is
    # positive, and the same as on a rectangle that does clear, but nothing
    # is certified
    short = certify_gap(4, CERT_LENGTH, re_max=50.0, im_max=4.0, step=1.0)
    assert short.search.columns_evaluated == short.search.grid_shape[1] == 5
    assert short.search.floor_clears_at is None
    assert short.certified is False and short.to_dict()["certified"] is False
    assert short.margin == pytest.approx(GOLDENS["small_rectangle"]["margin"], abs=1e-12)
    cleared = certify_gap(4, CERT_LENGTH, re_max=50.0, im_max=20.0, step=1.0)
    assert cleared.search.columns_evaluated < cleared.search.grid_shape[1]
    assert cleared.search.floor_clears_at == 17.0
    assert cleared.certified is True
    # two columns, 0 and 20: the floor clears at the second, so the search
    # evaluates both (it keeps at least 2) and still certifies
    two = certify_gap(4, CERT_LENGTH, re_max=50.0, im_max=20.0, step=20.0)
    assert two.search.columns_evaluated == two.search.grid_shape[1] == 2
    assert two.search.floor_clears_at == 20.0
    assert two.certified is True and two.to_dict()["certified"] is True


def test_min_ell_needs_positive_mass():
    # below 1/delta the minorant's fhat(0) = L - 1/delta is negative, and ell
    # falls to -inf along the real axis: there is no minimum to search for
    short = selberg_minorant(-4.0, 4.0, PRIME_FREE_RADIUS)
    assert short.fourier_centred(0.0) < 0.0
    for f in (short, replace(cert_fn(), fourier_centred=lambda xi: 0.0 * xi)):
        with pytest.raises(DomainError, match="fhat"):
            min_ell_over_mu(f, **FAST)


def test_minimal_length(minimal_lengths):
    got = minimal_lengths["halved"]
    assert got == pytest.approx(GOLDENS["minimal_length"]["value"], abs=2e-3)
    assert got < CERT_LENGTH
    assert got > 28.992  # must exceed twice the first zero of the example
    lit = minimal_lengths["literal"]
    assert lit == got


def _certified_above(threshold, probes):
    # stands in for certify_gap: certifies exactly the lengths above threshold
    def fake(degree, length, delta, **kwargs):
        probes.append(length)
        return SimpleNamespace(certified=length > threshold)
    return fake


def test_minimal_length_grows_bracket(monkeypatch):
    # 5/delta certifies on every real search, so the growing loop needs a stub
    probes = []
    monkeypatch.setattr(certification, "certify_gap", _certified_above(100.0, probes))
    got = minimal_certified_length(4, PRIME_FREE_RADIUS, 1e-3)
    assert 100.0 < got <= 100.0 + 1e-3
    start = 5.0 / PRIME_FREE_RADIUS
    # 5/delta * 1.3^k for k = 0..4 brackets 100, then bisection takes over
    assert probes[:5] == pytest.approx([start * 1.3**k for k in range(5)], rel=1e-12)
    assert probes[3] < 100.0 < probes[4]


def test_minimal_length_gives_up_after_twelve_growths(monkeypatch):
    probes = []
    monkeypatch.setattr(certification, "certify_gap", _certified_above(math.inf, probes))
    with pytest.raises(AccuracyError) as info:
        minimal_certified_length(4, PRIME_FREE_RADIUS, 1e-3)
    assert info.value.best is None
    assert "no certified window length" in str(info.value)
    # the first probe and twelve growths, each probe refused
    assert len(probes) == 13
    assert probes[-1] == pytest.approx(5.0 / PRIME_FREE_RADIUS * 1.3**12, rel=1e-12)


def test_certificate_invariant():
    s = MinEllSearch(value=-1.0, argmin=0j,
                     domain=SearchDomain(re_max=1.0, im_max=1.0, step=1.0,
                                         convention="halved", grid_shape=(2, 2),
                                         columns_evaluated=2, floor_clears_at=1.0,
                                         error_bound=1e-4))
    with pytest.raises(DomainError):
        GapCertificate(interval=(-1.0, 1.0), delta=PRIME_FREE_RADIUS, degree=4,
                       margin=-0.5, certified=True, positivity_window=(-1.0, 1.0),
                       search=s.domain, kind="numerical evidence, grid-based")


def _full_row_search(f, re_max, im_max, step, convention="halved"):
    """The minimum over every column of the Re mu = 0 row, from one uncut
    ell_grid call: the oracle for the search, which cuts the row where the
    column floor clears it."""
    k = convention_scale(convention)
    im_values = _step_grid(im_max, step)
    vals, error_bound = ell_grid(f, [0.0], k * im_values, im_max=k * im_values[-1])
    j = int(np.argmin(vals[0]))
    return (float(vals[0, j]), complex(0.0, im_values[j]), float(error_bound),
            (len(_step_grid(re_max, step)), len(im_values)))


def _fields(search):
    d = search.domain
    return search.value, search.argmin, d.error_bound, d.grid_shape


EXACT_CASES = [
    *((length, dict(re_max=50.0, im_max=200.0, step=step))
      for length in (45.06, CERT_LENGTH, 45.5, 52.0, 60.0) for step in (0.25, 1.0)),
    (CERT_LENGTH, dict(re_max=25.0, im_max=100.0, step=0.5, convention="literal")),
    (CERT_LENGTH, FAST),
    (CERT_LENGTH, dict(re_max=1.5, im_max=20.0, step=0.5)),
]


@pytest.mark.parametrize("length, rect", EXACT_CASES)
def test_pruned_search_equals_full_grid(length, rect):
    # the row cut where the column floor clears it: the minimum, its argmin
    # and the bound are the uncut Re mu = 0 row's, bit for bit (the rest of
    # the half-plane is the minimum principle's, checked pointwise by
    # test_ell_minimum_over_the_half_plane_is_at_zero)
    f = cert_fn() if length == CERT_LENGTH else selberg_minorant(
        -length / 2.0, length / 2.0, PRIME_FREE_RADIUS)
    assert _fields(min_ell_over_mu(f, **rect)) == _full_row_search(f, **rect)


def test_pruned_search_on_wide_re_rectangles():
    # of the Re grid the search takes only its count, so widening the
    # rectangle from 2 re_max + 1 <= 2 im_max to past it changes re_max and
    # grid_shape alone
    narrow = min_ell_over_mu(cert_fn(), re_max=1.5, im_max=10.0, step=1.0)
    wide = min_ell_over_mu(cert_fn(), re_max=50.0, im_max=10.0, step=1.0)
    assert (wide.value, wide.argmin) == (narrow.value, narrow.argmin)
    assert (wide.domain.re_max, wide.domain.grid_shape) == (50.0, (51, 11))
    assert replace(wide.domain, re_max=1.0, grid_shape=(2, 11)) == narrow.domain


def test_headline_certificate_evaluates_few_rows(monkeypatch):
    calls = []

    def spy(f, re_values, im_values, im_max):
        calls.append((len(re_values), len(im_values), im_max))
        return ell_grid(f, re_values, im_values, im_max=im_max)

    monkeypatch.setattr(certification, "ell_grid", spy)
    cert = certify_gap(4, CERT_LENGTH)
    assert len(calls) == 1
    rows, cols, im_max = calls[0]
    # the Re mu = 0 row's leading columns the column floor keeps, on the
    # full grid's lattice
    assert rows == 1 and cols <= 71 and im_max == 200.0
    assert cert.search.grid_shape == (201, 801)
    assert cert.search.columns_evaluated == cols


def test_ell_grid_gets_the_row_the_search_checked(monkeypatch):
    # ell_grid repeats none of min_ell_over_mu's checks, so every call must
    # get the Re mu = 0 row's leading columns, from Im mu = 0 in the search's
    # step, and the full row's last column, on the grid: bit for bit the
    # search's own grid, scaled by the convention's k
    calls = []

    def spy(f, re_values, im_values, im_max):
        calls.append((re_values, np.array(im_values), im_max))
        return ell_grid(f, re_values, im_values, im_max=im_max)

    monkeypatch.setattr(certification, "ell_grid", spy)
    runs = [
        (1, 0.25, lambda: certify_gap(4, CERT_LENGTH).search),
        (2, 0.125, lambda: certify_gap(4, CERT_LENGTH, convention="literal").search),
        (1, 0.5, lambda: min_ell_over_mu(cert_fn(), 6.0, 20.0, 0.5).domain),
    ]
    for k, step, search in runs:
        calls.clear()
        domain = search()
        n_im = domain.grid_shape[1]
        [(re_values, im_values, im_max)] = calls
        cols = domain.columns_evaluated
        assert re_values == [0.0]
        assert cols >= 2 and len(im_values) == cols
        assert im_values.tobytes() == (k * (step * np.arange(cols))).tobytes()
        assert im_max == k * (step * (n_im - 1))


@pytest.mark.parametrize("f, rect", [
    *((None, rect) for rect in (
        dict(im_max=math.nan), dict(im_max=math.inf), dict(step=math.nan), dict(step=math.inf),
        dict(step=0.1),  # off the 1/16 lattice
        dict(im_max=7e4, step=0.0625),  # a row of 1.1e6 values, on a lattice within its limit
        dict(im_max=2e5),  # a row of 4e5 values, within its limit, on a lattice of 1.6e7
    )),
    # on FAST, test functions that are not the Selberg minorant of a
    # centred window
    (selberg_minorant(-10.0, 40.0, PRIME_FREE_RADIUS), {}),
    (selberg_minorant(5000.0 - CERT_LENGTH / 2.0, 5000.0 + CERT_LENGTH / 2.0,
                      PRIME_FREE_RADIUS), {}),
    (fejer(PRIME_FREE_RADIUS), {}),
    (windowed_fejer(14.13, PRIME_FREE_RADIUS), {}),
], ids=["im_max-nan", "im_max-inf", "step-nan", "step-inf", "off-lattice", "row", "lattice",
        "off-centre", "centre-5000", "fejer", "windowed-fejer"])
def test_min_ell_refuses_before_any_ell(monkeypatch, f, rect):
    # the checks the column floor and ell_grid rely on come before the
    # floor's pass, which takes the incumbent ell(0): the first evaluation
    # of the search.  None is the headline window
    def reached(*args, **kwargs):
        raise AssertionError("the search evaluated ell before refusing its input")

    monkeypatch.setattr(certification, "ell_column_floor", reached)
    monkeypatch.setattr(certification, "ell_grid", reached)
    with pytest.raises(DomainError):
        min_ell_over_mu(cert_fn() if f is None else f, **{**FAST, **rect})


@pytest.mark.parametrize("length, centre", [
    (CERT_LENGTH, 0.0), (45.5, 0.0), (52.75, 0.0), (60.0, 0.0),
])
def test_incumbent_is_ell_at_zero(length, centre):
    # the column floor's pass takes the search's incumbent on its own
    # panels: the pointwise ell(0) to within 1e-12, with an estimate within
    # the incumbent's tolerance
    f = selberg_minorant(centre - length / 2.0, centre + length / 2.0, PRIME_FREE_RADIUS)
    _, u, err = ell_column_floor(f)
    assert type(u) is float and 0.0 < err <= certification._INCUMBENT_TOL
    assert abs(u - ell(0.0, f, tol=1e-12)) <= 1e-12


def test_certify_takes_no_panel(monkeypatch):
    # neither the incumbent nor the lattice goes through ell's panel rule
    want = json.dumps(certify_gap(4, 52.75).to_dict())

    def fail(*args, **kwargs):
        raise AssertionError("certify_gap took ell's panel rule")

    monkeypatch.setattr(explicit_formula, "_ell_panels", fail)
    assert json.dumps(certify_gap(4, 52.75).to_dict()) == want


def test_incumbent_estimate_checked_against_its_tolerance(monkeypatch):
    # the incumbent's estimate (about 7.6e-14 on the headline window) must
    # stay within _INCUMBENT_TOL, which the pad leaves room for
    monkeypatch.setattr(certification, "_INCUMBENT_TOL", 1e-15)
    with pytest.raises(AccuracyError, match="incumbent ell\\(0\\) error estimate") as info:
        min_ell_over_mu(cert_fn(), **FAST)
    assert info.value.best == ell_column_floor(cert_fn()).incumbent


def test_pruning_pad_checked_against_grid_bound(monkeypatch):
    def loose(f, re_values, im_values, im_max):
        values, _ = ell_grid(f, re_values, im_values, im_max=im_max)
        return values, 1e-3  # above the pad the skipped columns were sized with

    monkeypatch.setattr(certification, "ell_grid", loose)
    with pytest.raises(AccuracyError):
        min_ell_over_mu(cert_fn(), **FAST)


def test_min_ell_logs_columns_evaluated(caplog):
    with caplog.at_level(logging.DEBUG, logger="zerogap"):
        search = min_ell_over_mu(cert_fn(), re_max=50.0, im_max=200.0, step=1.0)
    records = [r for r in caplog.records if r.name == "zerogap.certification"]
    assert len(records) == 1
    assert records[0].levelno == logging.DEBUG
    message = records[0].getMessage()
    assert "incumbent ell(0) = 0.2919830149572" in message
    cols = search.domain.columns_evaluated
    assert f"{cols} of 201 Im-mu columns" in message and 2 <= cols < 201
    assert f"clears the pad from Im mu = c0 = {float(cols)!r}" in message
    assert search.domain.floor_clears_at == float(cols)
    assert search.domain.grid_shape == (51, 201)


def test_package_logger_silent_by_default():
    logger = logging.getLogger("zerogap")
    assert any(isinstance(h, logging.NullHandler) for h in logger.handlers)


@pytest.mark.parametrize("rect", [
    dict(im_max=1e7),  # a lattice of 8e8 entries, a 6 GB table
    dict(step=1e-4),  # a row of 2e6 values
], ids=["im_max", "step"])
def test_oversized_rectangle_refused_before_allocating(rect):
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="too large"):
            certify_gap(4, CERT_LENGTH, **rect)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20  # the minorant's own samples, not the grid


def test_off_lattice_step_refused_before_allocating():
    # a row of 1e6 values is within the size limits, but a step of 2e-4 is
    # off the lattice: refused before the column floor's 150 MiB
    tracemalloc.start()
    try:
        with pytest.raises(DomainError, match="multiple of"):
            certify_gap(4, CERT_LENGTH, step=2e-4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2**20


def test_re_max_sizes_nothing_built():
    # only the Re mu = 0 row is built, so a rectangle of 4e7 rows certifies
    # as the default one does: the same margin, bit for bit, and the same
    # certificate apart from re_max and grid_shape
    wide = certify_gap(4, CERT_LENGTH, re_max=1e7).to_dict()
    base = certify_gap(4, CERT_LENGTH).to_dict()
    assert wide["margin"] == base["margin"]
    assert wide["search_domain"]["grid_shape"] == [40_000_001, 801]
    for cert in (wide, base):
        del cert["search_domain"]["re_max"], cert["search_domain"]["grid_shape"]
    assert wide == base


def test_headline_certificate_columns_are_the_column_floors():
    # the columns kept are those of the Re mu = 0 row up to the last whose
    # floor is at or below the pad: the floor at every skipped column is
    # above it, and at the last kept column it is not
    cert = certify_gap(4, CERT_LENGTH)
    d = cert.search
    f = cert_fn()
    pad = ell_column_floor(f).incumbent + 2.0 * _GRID_TOL
    floor = ell_column_floor(f).floor(1j * _step_grid(d.im_max, d.step))
    assert d.columns_evaluated < 801
    assert d.floor_clears_at == d.step * d.columns_evaluated
    assert (floor[d.columns_evaluated:] > pad).all()
    assert not floor[d.columns_evaluated - 1] > pad


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32, 33, 801, 1_040_001])
def test_first_cleared_is_one_past_the_last_column_not_cleared(n):
    # a nondecreasing clears, column 0 not clearing: the search's answer is
    # one past the last column at or below the pad, as on the whole row
    for first in sorted(v for v in {1, 2, n // 3, n - 1, n} if 1 <= v <= n):
        probed = []

        def clears(j):
            probed.append(len(j))
            return j >= first

        assert certification._first_cleared(clears, n) == first
        assert max(probed, default=0) <= 31


def test_c0_search_probes_the_row_not_all_of_it(monkeypatch):
    # a row of 100,001 columns: c0 and the columns kept are the whole row's
    # floor's, found on a few probes of it.  The lattice is stubbed out, so
    # the peak is the search's own: 0.36 MiB measured, against 12.4 MiB when
    # the floor was evaluated on the whole row
    f = cert_fn()
    im_max, step = 6250.0, 0.0625
    floor = ell_column_floor(f).floor(1j * _step_grid(im_max, step))
    pad = ell_column_floor(f).incumbent + 2.0 * _GRID_TOL
    cols = int(np.flatnonzero(~(floor > pad))[-1]) + 1
    monkeypatch.setattr(certification, "ell_grid", lambda f, re_values, im_values, im_max:
                        (np.zeros((1, len(im_values))), 0.0))
    tracemalloc.start()
    try:
        search = min_ell_over_mu(f, re_max=1.0, im_max=im_max, step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(floor) == 100_001 and 2 < cols < 1000
    assert search.domain.columns_evaluated == cols
    assert search.domain.floor_clears_at == step * cols
    assert peak <= 2**20
