import json
import math
import os
import shlex
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import mpmath
import numpy as np
import pytest
from conftest import CERT_LENGTH, GOLDENS, VERIFY_DELTAS

import zerogap
from zerogap.cli import _EVAL_BLOCK, _fmt, main
from zerogap.explicit_formula import PRIME_FREE_RADIUS
from zerogap.extremal import fourier_at, selberg_minorant
from zerogap.lfunctions import bundled_example_path

COEFF_GOLDEN = (
    "n,re,im\n"
    "2,-0.9306216518,0\n"
    "3,0.2059369705,0\n"
    "4,0.6055821733,0\n"
    "5,0.002620059715,0\n"
    "6,0,0\n"
    "7,-0.4441142611,0\n"
)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_fresh(*argv, env=None):
    """The CLI in a fresh interpreter, which configures no logging and
    reads its environment at import."""
    src = str(Path(zerogap.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.path.insert(0, sys.argv[1]); from zerogap.cli import main; "
         "sys.exit(main(sys.argv[2:]))", src, *argv],
        capture_output=True, timeout=120, env=env)


def test_eval_beurling_golden(capsys):
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "beurling",
                     "--from", "-1", "--to", "1", "--samples", "3")
    assert rc == 0
    assert out == "x,value\n-1,-1\n0,1\n1,1\n"


def test_eval_beurling_fourier_rejected(capsys):
    rc, out, err = run(capsys, "eval-extremal", "--kind", "beurling",
                       "--from", "0", "--to", "1", "--samples", "2", "--fourier")
    assert rc == 1
    assert out == ""
    assert "not integrable" in err


def test_eval_fejer_fourier_block(capsys):
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "fejer",
                     "--from", "0", "--to", "0.3", "--samples", "3", "--fourier")
    assert rc == 0
    head, block = out.split("x,fhat\n")
    assert head.startswith("x,value\n")
    assert block == "0,9.064720284\n0.15,0\n0.3,0\n"


def test_eval_off_centre_selberg_fourier_golden(capsys):
    # Re f^ of the window [-3, 5], centre 1: first the full-precision values
    # against Vaaler's closed form with its phase at 30 digits, then the
    # printed block
    argv = ("--alpha", "-3", "--beta", "5", "--from", "-0.2", "--to", "0.2", "--samples", "5")
    f = selberg_minorant(-3.0, 5.0, PRIME_FREE_RADIUS)
    xs = [-0.2, -0.1, 0.0, 0.1, 0.2]
    with mpmath.workdps(30):
        delta, length = mpmath.mpf(PRIME_FREE_RADIUS), mpmath.mpf(8)
        for x in xs:
            xi = abs(mpmath.mpf(x))
            u = xi / delta
            if xi == 0:
                want = length - 1 / delta
            elif u >= 1:
                want = mpmath.mpf(0)
            else:
                j_hat = (1 - u) * mpmath.pi * u * mpmath.cot(mpmath.pi * u) + u
                want = ((j_hat * mpmath.sin(mpmath.pi * xi * length) / (mpmath.pi * xi)
                         - (1 - u) / delta * mpmath.cos(mpmath.pi * xi * length))
                        * mpmath.cos(2 * mpmath.pi * xi))
            assert abs(fourier_at(f, x) - float(want)) < 1e-12, x
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "selberg", *argv, "--fourier")
    assert rc == 0
    assert out[out.index("x,fhat\n"):] == GOLDENS["selberg_fourier"]["fhat_block"]


def test_eval_windowed_fejer(capsys):
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "windowed-fejer",
                     "--from", "0", "--to", "20", "--samples", "3", "--fourier")
    assert rc == 0
    # the value at 0 is t0^2 = 14.13^2; the transform vanishes past delta
    assert out == ("x,value\n0,199.6569\n10,10.48405997\n20,-0.01428935573\n"
                   "x,fhat\n0,2111.239493\n10,0\n20,0\n")


def test_eval_listing_in_blocks_matches_one_call(capsys):
    # one sample past a block: the last block holds a single sample
    n = _EVAL_BLOCK + 1
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "selberg", "--alpha", "-3",
                     "--beta", "5", "--from", "-0.2", "--to", "0.2", "--samples", str(n),
                     "--fourier")
    assert rc == 0
    xs = np.linspace(-0.2, 0.2, n)
    f = selberg_minorant(-3.0, 5.0, PRIME_FREE_RADIUS)
    want = "x,value\n" + "".join(f"{_fmt(x)},{_fmt(v)}\n" for x, v in zip(xs, f.value(xs)))
    want += "x,fhat\n" + "".join(f"{_fmt(x)},{_fmt(v)}\n"
                                 for x, v in zip(xs, fourier_at(f, xs)))
    assert out == want


def test_eval_selberg_length(capsys):
    # the headline minorant across [0, delta0] and its transform: u = 0 and
    # u = 1 are removable points of v cot(pi v), and u = 1/2 (the fifth
    # sample) is where J^ folds
    at_0 = _fmt(GOLDENS["headline_minorant"]["value_at_0"])
    rc, out, err = run(capsys, "eval-extremal", "--kind", "selberg", "--length", repr(CERT_LENGTH),
                       "--from", "0", "--to", repr(PRIME_FREE_RADIUS), "--samples", "9", "--fourier")
    assert (rc, err) == (0, "")
    assert out == (
        f"x,value\n0,{at_0}\n0.01378972501,0.9816900861\n0.02757945002,0.9816912733\n"
        "0.04136917503,0.9816932517\n0.05515890004,0.9816960213\n0.06894862505,0.9816995819\n"
        "0.08273835006,0.981703933\n0.09652807507,0.9817090745\n0.1103178001,0.9817150058\n"
        "x,fhat\n0,36.25888113\n0.01378972501,23.39210151\n0.02757945002,-2.040278893\n"
        "0.04136917503,-7.236430063\n0.05515890004,2.885390082\n0.06894862505,2.57515247\n"
        "0.08273835006,-2.040278893\n0.09652807507,-0.2951541125\n0.1103178001,0\n")
    # and past the window's middle
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "selberg", "--length", repr(CERT_LENGTH),
                     "--from", "10", "--to", "20", "--samples", "2")
    assert (rc, out) == (0, "x,value\n10,0.9677141616\n20,0.3975424981\n")


def test_eval_selberg_window_edges(capsys):
    # both edges put u = 0 in one Beurling term; a RuntimeWarning there
    # fails the test (pyproject.toml's filter)
    rc, out, err = run(capsys, "eval-extremal", "--kind", "selberg", "--alpha", "-3",
                       "--beta", "5", "--from", "-3", "--to", "5", "--samples", "9")
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert (lines[1], lines[-1]) == ("-3,-0.0111628678", "5,-0.0111628678")


def test_eval_selberg_alpha_beta(capsys):
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "selberg",
                     "--alpha", "-20", "--beta", "20",
                     "--from", "0", "--to", "0", "--samples", "1")
    assert rc == 0
    assert out.startswith("x,value\n0,")


def test_eval_selberg_needs_window(capsys):
    rc, _, err = run(capsys, "eval-extremal", "--kind", "selberg",
                     "--from", "0", "--to", "1", "--samples", "2")
    assert rc == 1
    assert "selberg needs" in err


def test_eval_argument_validation(capsys):
    rc, _, err = run(capsys, "eval-extremal", "--kind", "fejer",
                     "--from", "0", "--to", "1", "--samples", "0")
    assert rc == 1
    assert "--samples" in err
    rc, _, err = run(capsys, "eval-extremal", "--kind", "fejer",
                     "--from", "1", "--to", "0", "--samples", "2")
    assert rc == 1
    assert "--to" in err


def test_eval_out_file(capsys, tmp_path):
    target = tmp_path / "table.csv"
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "beurling",
                     "--from", "0", "--to", "0", "--samples", "1",
                     "--out", str(target))
    assert rc == 0
    assert out == ""
    assert target.read_text() == "x,value\n0,1\n"


def test_certify_gap_json(capsys):
    rc, out, _ = run(capsys, "certify-gap", "--degree", "4",
                     "--length", repr(CERT_LENGTH),
                     "--re-max", "6", "--im-max", "20", "--step", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    # this rectangle's own margin (the lattice's extent follows the rectangle)
    assert doc["margin"] == pytest.approx(GOLDENS["small_rectangle"]["margin"], abs=1e-11)
    assert doc["degree"] == 4
    assert doc["window_length"] == pytest.approx(CERT_LENGTH)
    assert "evidence" in doc["kind"]
    assert doc["search_domain"]["grid_shape"] == [13, 41]


def test_certify_gap_generic_length(capsys):
    # delta0 L is no integer here, so the window's edges take root steps
    rc, out, err = run(capsys, "certify-gap", "--degree", "4", "--length", "52.75")
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["positivity_window"] == [-26.37083848083434, 26.37083848083434]
    assert round(doc["margin"], 6) == 5.632864
    assert doc["search_domain"]["columns_evaluated"] == 78
    assert doc["search_domain"]["floor_clears_at"] == 19.5


def test_certify_gap_cli_output_unaffected_by_logging(capsys):
    # the search logs at DEBUG to the `zerogap` logger; a fresh interpreter
    # that configures no logging must print the JSON and nothing else
    argv = ["certify-gap", "--degree", "4", "--length", repr(CERT_LENGTH),
            "--re-max", "50", "--im-max", "20", "--step", "1"]
    rc, out, err = run(capsys, *argv)
    done = run_fresh(*argv)
    assert (rc, err) == (0, "")
    assert (done.returncode, done.stdout, done.stderr) == (0, out.encode(), b"")


@pytest.mark.parametrize("argv", [
    ("certify-gap", "--degree", "4", "--length", repr(CERT_LENGTH)),
    # stride 1: every column a 13,441-term sum at its own table offset
    ("certify-gap", "--degree", "4", "--length", repr(CERT_LENGTH), "--step", "0.0625"),
    ("scan-region", "--nu-max", "4", "--step", "1"),
], ids=["certify-gap", "certify-gap-stride-1", "scan-region"])
def test_output_does_not_depend_on_thread_count(argv):
    # the same bytes under one and two BLAS threads; more threads than the
    # two cores this was measured on are untested
    outputs = []
    for threads in ("1", "2"):
        done = run_fresh(*argv, env={**os.environ, "OPENBLAS_NUM_THREADS": threads})
        assert (done.returncode, done.stderr) == (0, b"")
        outputs.append(done.stdout)
    assert outputs[0] and outputs[0] == outputs[1]


def test_scan_region_huge_nu_runs(capsys):
    # the Fejer kernels' closed form costs the same at any nu
    rc, out, err = run(capsys, "scan-region", "--nu-max", "1e9", "--step", "5e8")
    assert rc == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[6:]]
    assert len(rows) == 9
    assert rows[0][:2] == ["0", "0"] and rows[0][-1] == "Impossible"
    assert rows[-1][:2] == ["1000000000", "1000000000"] and rows[-1][-1] == "ForcedLowZero"


def test_scan_region_too_many_rows_is_an_error(capsys):
    rc, out, err = run(capsys, "scan-region", "--nu-max", "16", "--step", "0.001")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "larger step" in err
    assert "Traceback" not in err


def test_eval_extremal_too_many_samples_is_an_error(capsys):
    rc, out, err = run(capsys, "eval-extremal", "--kind", "fejer",
                       "--from", "0", "--to", "1", "--samples", "1000000000")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "--samples" in err


def test_certify_gap_oversized_grid_is_an_error(capsys):
    rc, out, err = run(capsys, "certify-gap", "--degree", "4", "--length", repr(CERT_LENGTH),
                       "--im-max", "1e7")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "too large" in err
    assert "Traceback" not in err


def test_certify_gap_short_window(capsys):
    rc, _, err = run(capsys, "certify-gap", "--degree", "4", "--length", "8")
    assert rc == 1
    assert "window_length" in err


def test_min_ell_json(capsys):
    rc, out, _ = run(capsys, "min-ell", "--length", repr(CERT_LENGTH),
                     "--re-max", "6", "--im-max", "20", "--step", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["min_ell"] == pytest.approx(GOLDENS["min_ell"]["value"], abs=1e-6)
    assert doc["argmin"] == {"re": 0.0, "im": 0.0}
    assert doc["window_length"] == pytest.approx(CERT_LENGTH)
    assert doc["delta"] == pytest.approx(math.log(2.0) / (2.0 * math.pi))
    assert doc["search_domain"]["columns_evaluated"] < 41


def test_min_ell_in_both_conventions(capsys):
    # README's rectangle, halved, and the same rectangle in literal units:
    # one minimum, the same 66 columns, c0 in each unit
    docs = []
    for argv in (("--re-max", "6", "--im-max", "20"),
                 ("--re-max", "3", "--im-max", "10", "--step", "0.125", "--convention", "literal")):
        rc, out, err = run(capsys, "min-ell", "--length", repr(CERT_LENGTH), *argv)
        assert (rc, err) == (0, "")
        docs.append(json.loads(out))
    halved, literal = docs
    assert halved["min_ell"] == literal["min_ell"]
    assert round(halved["min_ell"], 9) == round(GOLDENS["min_ell"]["value"], 9)
    head = GOLDENS["headline"]
    for doc, c0 in ((halved, head["floor_clears_at"]), (literal, 8.25)):
        assert doc["search_domain"]["columns_evaluated"] == head["columns_evaluated"]
        assert doc["search_domain"]["floor_clears_at"] == c0


def test_min_ell_without_mass_is_an_error(capsys):
    # 8 < 1/delta: the minorant's fhat(0) is negative, and ell has no minimum
    rc, out, err = run(capsys, "min-ell", "--length", "8",
                       "--re-max", "6", "--im-max", "20", "--step", "0.5")
    assert rc == 1
    assert out == ""
    assert err.startswith("error:") and "fhat(0) > 0" in err
    assert "Traceback" not in err


def test_scan_region_stdout_golden(capsys):
    rc, out, _ = run(capsys, "scan-region", "--nu-max", "1", "--step", "1")
    assert rc == 0
    assert out == GOLDENS["scan"]["csv"]


def test_scan_region_narrow_support_golden(capsys):
    # delta = 0.01: the Fejer kernels take the closed form at any support
    rc, out, err = run(capsys, "scan-region", "--delta", "0.01", "--nu-max", "16", "--step", "8")
    assert (rc, err) == (0, "")
    assert out == (
        "# t0 = 14.13\n# delta = 0.01\n# Q = 1\n# step = 8\n# convention = halved\n"
        "nu1,nu2,fejer_rhs,windowed_rhs,verdict\n"
        "0,0,85.08557784,-681468.8022,Unconstrained\n0,8,85.76197233,-679999.6851,Unconstrained\n"
        "0,16,87.74032654,-675776.2194,Unconstrained\n8,0,85.76197233,-679999.6851,Unconstrained\n"
        "8,8,86.43836683,-678530.5679,Unconstrained\n8,16,88.41672104,-674307.1023,Unconstrained\n"
        "16,0,87.74032654,-675776.2194,Unconstrained\n16,8,88.41672104,-674307.1023,Unconstrained\n"
        "16,16,90.39507525,-670083.6366,Unconstrained\n")


def test_scan_region_too_narrow_support_is_an_error(capsys):
    # delta = 1e-7 would take 58,887,329 geometric-sum terms per nu: refused
    # before any array
    rc, out, err = run(capsys, "scan-region", "--delta", "1e-7", "--nu-max", "1", "--step", "1")
    assert (rc, out) == (1, "")
    assert err.startswith("error:")
    assert "Traceback" not in err


def test_scan_region_out_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run(capsys, "scan-region", "--nu-max", "1", "--step", "0.5",
                    "--out", str(a))
    rc2, _, _ = run(capsys, "scan-region", "--nu-max", "1", "--step", "0.5",
                    "--out", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_out_to_an_unwritable_path_exits_domain_error(capsys, tmp_path):
    # a missing directory, and a directory
    for target in (tmp_path / "missing" / "x.csv", tmp_path):
        rc, out, err = run(capsys, "scan-region", "--nu-max", "1", "--step", "1",
                           "--out", str(target))
        assert (rc, out) == (1, "")
        assert err.startswith(f"error: cannot write {target}: ")


def test_scan_region_has_no_threads_option(capsys):
    # the scan runs on the calling thread: one ell call over both kernels
    with pytest.raises(SystemExit) as exc:
        main(["scan-region", "--nu-max", "1", "--step", "1", "--threads", "2"])
    assert exc.value.code == 1
    assert "--threads" in capsys.readouterr().err


def test_verify_example_passes(capsys, tmp_path, monkeypatch):
    rc, out, _ = run(capsys, "verify-example")
    assert rc == 0
    assert out.endswith("consistency: PASS\n")
    doc = json.loads(out.rsplit("consistency:", 1)[0])
    assert abs(doc["residual"]) <= doc["tail_bound"] + doc["tolerance_budget"]
    # --data names a file, whatever its first character: byte-for-byte
    # copies of the bundled file, named relative to the working directory,
    # give the same report
    monkeypatch.chdir(tmp_path)
    for name in ("[draft].json", "{v2}.json"):
        Path(name).write_bytes(bundled_example_path().read_bytes())
        assert run(capsys, "verify-example", "--data", name)[:2] == (0, out)


@pytest.mark.parametrize("name", list(VERIFY_DELTAS))
def test_verify_example_reports_are_pinned(capsys, name):
    # every number of the report to 12 significant digits, so that a moved
    # verify number fails here and not only in the benchmark
    rc, out, err = run(capsys, "verify-example", "--length", repr(5.0 / PRIME_FREE_RADIUS),
                       "--delta", repr(VERIFY_DELTAS[name]))
    assert rc == 0 and err == ""
    assert out.endswith("consistency: PASS\n")
    got = json.loads(out.rsplit("consistency:", 1)[0])
    want = GOLDENS["verify"]["reports"][name]
    assert got.keys() == want.keys()
    for key, value in want.items():
        expected = value if isinstance(value, str) else pytest.approx(value, rel=1e-12, abs=0.0)
        assert got[key] == expected, key


def test_verify_example_at_zero_mass(capsys):
    # L = 1/delta0, where the minorant's integral is exactly 0: the report
    # has no implied conductor, and the PASS rule still applies
    rc, out, err = run(capsys, "verify-example", "--length", repr(1.0 / PRIME_FREE_RADIUS))
    assert rc == 0 and err == ""
    assert out.endswith("consistency: PASS\n")
    doc = json.loads(out.rsplit("consistency:", 1)[0])
    assert doc["implied_log_Q"] is None
    assert abs(doc["residual"]) <= doc["tail_bound"] + doc["tolerance_budget"]


def test_verify_example_detects_wrong_conductor(capsys, tmp_path):
    doc = json.loads(bundled_example_path().read_text())
    doc["conductor"]["value"] = 1000.0
    doc["conductor"]["assumed"] = False
    bad = tmp_path / "wrong_q.json"
    bad.write_text(json.dumps(doc))
    rc, out, _ = run(capsys, "verify-example", "--data", str(bad))
    assert rc == 2
    assert out.endswith("consistency: FAIL\n")
    rep = json.loads(out.rsplit("consistency:", 1)[0])
    # the implied conductor still points back at log Q ~ 0
    assert rep["implied_log_Q"] == pytest.approx(
        GOLDENS["verify"]["reports"]["delta0"]["implied_log_Q"], abs=1e-4)


def test_verify_example_unreachable_tol_exits_accuracy(capsys):
    rc, out, err = run(capsys, "verify-example", "--tol", "1e-20")
    assert rc == 2
    assert out == ""
    assert err.startswith("accuracy failure: ell quadrature error")


@pytest.mark.parametrize("delta, code", [("2.5", 3), ("3", 3), ("200", 1)])
def test_verify_example_wide_support_refused_at_once(capsys, delta, code):
    # the bundled data ends at a_13 (a_8 missing), so every prime from 17
    # on is a gap: listed without enumerating the primes up to e^(2 pi
    # delta), and at delta = 200 that bound is past the prime sum's 2^53.
    # An exception that escaped main would fail the test with its traceback
    start = time.perf_counter()
    rc, out, err = run(capsys, "verify-example", "--delta", delta)
    assert time.perf_counter() - start < 2.0
    assert (rc, out) == (code, "")
    assert err.startswith("incomplete data:" if code == 3 else "error:")
    assert len(err.encode()) < 10_000


def test_negative_self_dual_zero_exits_at_load(capsys, tmp_path):
    doc = json.loads(bundled_example_path().read_text())
    doc["zeros"]["values"].insert(0, "-1.5")
    bad = tmp_path / "negative_zero.json"
    bad.write_text(json.dumps(doc))
    for argv in (("coefficients", "--data", str(bad)), ("verify-example", "--data", str(bad))):
        rc, out, err = run(capsys, *argv)
        assert (rc, out) == (1, "")
        assert "gamma >= 0" in err


def test_verify_example_malformed_data_exit(capsys, tmp_path):
    doc = json.loads(bundled_example_path().read_text())
    doc["spectral"][0] = 3.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify-example", "--data", str(bad))
    assert rc == 1
    assert out == ""
    assert "spectral[0] must be an object" in err


def test_unreadable_data_exits_domain_error(capsys, tmp_path):
    # a directory, the empty path and a file of non-UTF-8 bytes
    undecodable = tmp_path / "bytes.json"
    undecodable.write_bytes(b"\xff\xfe{}")
    for data, message in ((str(tmp_path), "cannot read data file"),
                          ("", "cannot read data file '': "),
                          (str(undecodable), "is not UTF-8 text")):
        rc, out, err = run(capsys, "verify-example", "--data", data)
        assert (rc, out) == (1, "")
        assert err.startswith("error: ") and message in err


def test_coefficients_golden(capsys):
    rc, out, _ = run(capsys, "coefficients")
    assert rc == 0
    assert out == COEFF_GOLDEN


def test_coefficients_gap_exit(capsys):
    rc, out, err = run(capsys, "coefficients", "--max-n", "13")
    assert rc == 3
    assert out == ""
    assert "missing n: [8]" in err


def test_coefficients_below_one_exit(capsys):
    rc, out, err = run(capsys, "coefficients", "--max-n", "-5")
    assert (rc, out) == (1, "")
    assert err.startswith("error: ")
    # no n from 2 to 1: the header alone
    assert run(capsys, "coefficients", "--max-n", "1") == (0, "n,re,im\n", "")


def test_coefficients_skip_gaps(capsys):
    rc, out, _ = run(capsys, "coefficients", "--max-n", "13", "--skip-gaps")
    assert rc == 0
    lines = out.splitlines()
    assert "9,1.056860485,0" in lines
    assert "10,0,0" in lines
    assert "11,-1.66853819,0" in lines
    assert "13,2.263402778,0" in lines
    assert not any(line.startswith("8,") for line in lines)


def test_coefficients_listing_stops_at_the_last_coefficient(capsys):
    # the bundled data gives c(n) up to n = 13; the listing does not
    # factorize every n up to --max-n beyond it
    _, want, _ = run(capsys, "coefficients", "--max-n", "13", "--skip-gaps")
    start = time.perf_counter()
    rc, out, err = run(capsys, "coefficients", "--max-n", "3000000", "--skip-gaps")
    assert time.perf_counter() - start < 5.0
    assert rc == 0
    assert out == want
    assert "listing stops at n = 13" in err


@pytest.mark.parametrize("argv", [
    ("certify-gap", "--degree", "4", "--length", "46", "--re-max", "nan"),
    ("certify-gap", "--degree", "4", "--length", "46", "--im-max", "inf"),
    ("certify-gap", "--degree", "4", "--length", "46", "--step", "nan"),
    # a degree beyond the float range is refused before the search
    ("certify-gap", "--degree", "1" + "0" * 400, "--length", "46"),
    ("min-ell", "--length", "46", "--re-max", "inf"),
    ("scan-region", "--step", "inf"),
    ("scan-region", "--nu-max", "nan"),
    ("verify-example", "--tol", "nan"),
    ("verify-example", "--tol", "inf"),
    ("scan-region", "--nu-max", "1", "--t0", "inf"),
    ("scan-region", "--nu-max", "1", "--conductor", "inf"),
    ("eval-extremal", "--kind", "selberg", "--length", "inf",
     "--from", "0", "--to", "1", "--samples", "2"),
    ("eval-extremal", "--kind", "fejer", "--delta", "inf",
     "--from", "0", "--to", "1", "--samples", "2"),
    ("eval-extremal", "--kind", "beurling", "--from", "nan", "--to", "1", "--samples", "2"),
], ids=" ".join)
def test_non_finite_arguments_exit_domain_error(capsys, argv):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.startswith("error: ")
    assert "Traceback" not in err


def test_readme_reproduction_commands(capsys, tmp_path, monkeypatch):
    # README.md's reproduction section: the numbers it quotes, as the record
    # rounds them, and its zerogap lines, `time` dropped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Reproducing the headline numbers")[1]
    head, text = GOLDENS["headline"], " ".join(section.split())
    for quoted in (f"margin {head['margin']:.4f}", f"`+-{head['positivity_window'][1]:.4f}`",
                   f"{GOLDENS['minimal_length']['value']:.6f}",
                   *(f"{n} `{v}`" for v, n in GOLDENS["figure2"]["verdicts"].items())):
        assert quoted in text
    lines = [line.removeprefix("time ") for line in section.splitlines()]
    commands = {argv[0]: argv for argv in (shlex.split(line)[1:] for line in lines
                                           if line.startswith("zerogap "))}
    assert sorted(commands) == ["certify-gap", "scan-region"]
    monkeypatch.chdir(tmp_path)

    rc, out, err = run(capsys, *commands["certify-gap"])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["window_length"] == CERT_LENGTH
    assert round(doc["margin"], 6) == round(head["margin"], 6)
    assert doc["positivity_window"] == head["positivity_window"]
    assert doc["search_domain"]["grid_shape"] == [201, 801]
    assert doc["search_domain"]["columns_evaluated"] == head["columns_evaluated"]

    rc, out, err = run(capsys, *commands["scan-region"])
    assert (rc, out, err) == (0, "", "")
    csv = (tmp_path / "figure2.csv").read_text()
    verdicts = Counter(line.rsplit(",", 1)[1] for line in csv.splitlines()
                       if not line.startswith(("#", "nu1")))
    assert verdicts == GOLDENS["figure2"]["verdicts"]
    assert csv.startswith("# t0 = 14.13\n# delta = 0.1103178001\n# Q = 1\n# step = 0.5\n")


def test_unknown_command_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
