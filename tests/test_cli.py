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

import zerogap
from zerogap.cli import _EVAL_BLOCK, _fmt, main
from zerogap.explicit_formula import PRIME_FREE_RADIUS
from zerogap.extremal import fourier_at, selberg_minorant
from zerogap.lfunctions import bundled_example_path

CERT_LENGTH = "45.323601418271934"

COEFF_GOLDEN = (
    "n,re,im\n"
    "2,-0.9306216518,0\n"
    "3,0.2059369705,0\n"
    "4,0.6055821733,0\n"
    "5,0.002620059715,0\n"
    "6,0,0\n"
    "7,-0.4441142611,0\n"
)

SCAN_GOLDEN = (
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
    assert out.split("x,fhat\n")[1] == (
        "-0.2,0\n-0.1,0.5946105941\n0,-1.064720284\n0.1,0.5946105941\n0.2,0\n")


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
    rc, out, _ = run(capsys, "eval-extremal", "--kind", "selberg",
                     "--length", CERT_LENGTH,
                     "--from", "0", "--to", "20", "--samples", "3")
    assert rc == 0
    assert out == "x,value\n0,0.9816896904\n10,0.9677141616\n20,0.3975424981\n"


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
                     "--length", CERT_LENGTH,
                     "--re-max", "6", "--im-max", "20", "--step", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["margin"] == pytest.approx(0.18588499153844687, abs=1e-6)
    # this rectangle's own margin (the lattice's extent follows the rectangle)
    assert doc["margin"] == pytest.approx(0.18588487951695654, abs=1e-11)
    assert doc["degree"] == 4
    assert doc["window_length"] == pytest.approx(float(CERT_LENGTH))
    assert "evidence" in doc["kind"]
    assert doc["search_domain"]["grid_shape"] == [13, 41]


def test_certify_gap_cli_output_unaffected_by_logging(capsys):
    # the search logs at DEBUG to the `zerogap` logger; a fresh interpreter
    # that configures no logging must print the JSON and nothing else
    argv = ["certify-gap", "--degree", "4", "--length", CERT_LENGTH,
            "--re-max", "50", "--im-max", "20", "--step", "1"]
    rc, out, err = run(capsys, *argv)
    done = run_fresh(*argv)
    assert (rc, err) == (0, "")
    assert (done.returncode, done.stdout, done.stderr) == (0, out.encode(), b"")


@pytest.mark.parametrize("argv", [
    ("certify-gap", "--degree", "4", "--length", CERT_LENGTH),
    # stride 1: every column a 13,441-term sum at its own table offset
    ("certify-gap", "--degree", "4", "--length", CERT_LENGTH, "--step", "0.0625"),
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
    rc, out, err = run(capsys, "certify-gap", "--degree", "4", "--length", CERT_LENGTH,
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
    rc, out, _ = run(capsys, "min-ell", "--length", CERT_LENGTH,
                     "--re-max", "6", "--im-max", "20", "--step", "0.5")
    assert rc == 0
    doc = json.loads(out)
    assert doc["min_ell"] == pytest.approx(0.2919874619148928, abs=1e-6)
    assert doc["argmin"] == {"re": 0.0, "im": 0.0}
    assert doc["window_length"] == pytest.approx(float(CERT_LENGTH))
    assert doc["delta"] == pytest.approx(math.log(2.0) / (2.0 * math.pi))
    assert doc["search_domain"]["columns_evaluated"] < 41


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
    assert out == SCAN_GOLDEN


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
    assert doc["implied_log_Q"] == pytest.approx(0.055081473846852344, abs=1e-6)
    # --data names a file, whatever its first character: byte-for-byte
    # copies of the bundled file, named relative to the working directory,
    # give the same report
    monkeypatch.chdir(tmp_path)
    for name in ("[draft].json", "{v2}.json"):
        Path(name).write_bytes(bundled_example_path().read_bytes())
        assert run(capsys, "verify-example", "--data", name)[:2] == (0, out)


# verify-example's reports on the benchmark's window +-5/(2 delta0) at its
# three fixed apertures (delta0, just above the n = 2 edge, log 7.9/2 pi),
# as printed before the transform's derivative left `fourier_centred`
VERIFY_EXAMPLE_REPORTS = {
    PRIME_FREE_RADIUS: {
        "zero_side": 4.03665393538893, "tail_bound": 5.509495615671456, "rhs_conductor": 0.0,
        "rhs_archimedean": [0.22275334242787106, 0.22275334242787106,
                            1.4777105485892368, 1.4777105485892368],
        "rhs_primes": 0.0, "rhs_total": 3.400927782034216, "residual": 0.6357261533547143,
        "implied_log_Q": 0.05508147385075495, "convention": "halved",
        "tolerance_budget": 4e-08,
    },
    PRIME_FREE_RADIUS * (1.0 + 1e-2): {
        "zero_side": 4.077002301624426, "tail_bound": 5.461132189486813, "rhs_conductor": 0.0,
        "rhs_archimedean": [0.23892246449214435, 0.23892246449214435,
                            1.4918761641958027, 1.4918761641958027],
        "rhs_primes": -0.018613152766202994, "rhs_total": 3.442984104609691,
        "residual": 0.6340181970147349, "implied_log_Q": 0.05479785246188989,
        "convention": "halved", "tolerance_budget": 4e-08,
    },
    math.log(7.9) / (2.0 * math.pi): {
        "zero_side": 7.0794490779998895, "tail_bound": 4.006414428883505, "rhs_conductor": 0.0,
        "rhs_archimedean": [1.3496544946085531, 1.3496544946085531,
                            2.429176396376639, 2.429176396376639],
        "rhs_primes": -0.5701761008840505, "rhs_total": 6.9874856810863335,
        "residual": 0.09196339691355604, "implied_log_Q": 0.006832702662755441,
        "convention": "halved", "tolerance_budget": 4e-08,
    },
}


@pytest.mark.parametrize("delta", list(VERIFY_EXAMPLE_REPORTS), ids=["delta0", "n2-edge", "log7.9"])
def test_verify_example_reports_are_pinned(capsys, delta):
    # every number of the report to 12 significant digits, so that a moved
    # verify number fails here and not only in the benchmark
    rc, out, err = run(capsys, "verify-example", "--length", repr(5.0 / PRIME_FREE_RADIUS),
                       "--delta", repr(delta))
    assert rc == 0 and err == ""
    assert out.endswith("consistency: PASS\n")
    got = json.loads(out.rsplit("consistency:", 1)[0])
    want = VERIFY_EXAMPLE_REPORTS[delta]
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
    assert rep["implied_log_Q"] == pytest.approx(0.055081473846852344, abs=1e-4)


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


def _readme_commands():
    # the zerogap lines of README.md's reproduction section, `time` dropped
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text(encoding="utf-8").split("## Reproducing the headline numbers")[1]
    lines = [line.removeprefix("time ") for line in section.splitlines()]
    return [shlex.split(line)[1:] for line in lines if line.startswith("zerogap ")]


def test_readme_reproduction_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    commands = {argv[0]: argv for argv in _readme_commands()}
    assert sorted(commands) == ["certify-gap", "scan-region"]

    rc, out, err = run(capsys, *commands["certify-gap"])
    assert (rc, err) == (0, "")
    doc = json.loads(out)
    assert doc["certified"] is True
    assert doc["window_length"] == 10.0 * math.pi / math.log(2.0)
    assert round(doc["margin"], 6) == 0.185885
    assert doc["positivity_window"] == [-22.661800709135967, 22.661800709135967]
    assert doc["search_domain"]["grid_shape"] == [201, 801]
    assert doc["search_domain"]["columns_evaluated"] == 66

    rc, out, err = run(capsys, *commands["scan-region"])
    assert (rc, out, err) == (0, "", "")
    csv = (tmp_path / "figure2.csv").read_text()
    verdicts = Counter(line.rsplit(",", 1)[1] for line in csv.splitlines()
                       if not line.startswith(("#", "nu1")))
    assert verdicts == {"Impossible": 528, "ForcedLowZero": 440, "Unconstrained": 121}
    assert csv.startswith("# t0 = 14.13\n# delta = 0.1103178001\n# Q = 1\n# step = 0.5\n")


def test_unknown_command_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
