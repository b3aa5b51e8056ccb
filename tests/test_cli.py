import json
import math

import pytest

from zerogap.cli import main
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
    assert doc["margin"] == pytest.approx(0.18588514992730618, abs=1e-11)
    assert doc["degree"] == 4
    assert doc["window_length"] == pytest.approx(float(CERT_LENGTH))
    assert "evidence" in doc["kind"]
    assert doc["search_domain"]["grid_shape"] == [13, 41]


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
    assert doc["search_domain"]["boundary_clear"] is True


def test_scan_region_stdout_golden(capsys):
    rc, out, _ = run(capsys, "scan-region", "--nu-max", "1", "--step", "1")
    assert rc == 0
    assert out == SCAN_GOLDEN


def test_scan_region_out_reproducible(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    rc1, _, _ = run(capsys, "scan-region", "--nu-max", "1", "--step", "0.5",
                    "--out", str(a))
    rc2, _, _ = run(capsys, "scan-region", "--nu-max", "1", "--step", "0.5",
                    "--threads", "2", "--out", str(b))
    assert rc1 == rc2 == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_example_passes(capsys):
    rc, out, _ = run(capsys, "verify-example")
    assert rc == 0
    assert out.endswith("consistency: PASS\n")
    doc = json.loads(out.rsplit("consistency:", 1)[0])
    assert abs(doc["residual"]) <= doc["tail_bound"] + doc["tolerance_budget"]
    assert doc["implied_log_Q"] == pytest.approx(0.055081473846852344, abs=1e-6)


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


def test_verify_example_malformed_data_exit(capsys, tmp_path):
    doc = json.loads(bundled_example_path().read_text())
    doc["spectral"][0] = 3.0
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    rc, out, err = run(capsys, "verify-example", "--data", str(bad))
    assert rc == 1
    assert out == ""
    assert "spectral[0] must be an object" in err


def test_coefficients_golden(capsys):
    rc, out, _ = run(capsys, "coefficients")
    assert rc == 0
    assert out == COEFF_GOLDEN


def test_coefficients_gap_exit(capsys):
    rc, out, err = run(capsys, "coefficients", "--max-n", "13")
    assert rc == 3
    assert out == ""
    assert "missing n: [8]" in err


def test_coefficients_skip_gaps(capsys):
    rc, out, _ = run(capsys, "coefficients", "--max-n", "13", "--skip-gaps")
    assert rc == 0
    lines = out.splitlines()
    assert "9,1.056860485,0" in lines
    assert "10,0,0" in lines
    assert "11,-1.66853819,0" in lines
    assert "13,2.263402778,0" in lines
    assert not any(line.startswith("8,") for line in lines)


def test_unknown_command_exits_usage(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1
    assert "error:" in capsys.readouterr().err
