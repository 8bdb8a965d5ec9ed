"""CLI surface: formats, exit codes, sentinels, determinism, verify gate."""

import json
import math
import re

import pytest

from hawkdeco import QuadratureAccuracyError, cli, special
from hawkdeco.verification import FAIL, PASS, WARN

M_SUN = 1.99e30
M_MOON = 7.35e22

SCI9 = re.compile(r"^-?\d\.\d{8}e[+-]\d{2}$")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_csv(capsys):
    code, out, err = run(capsys, "info", "--mass", "1.99e30")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "r_s_m,t_hawking_k,t_evaporation_s,lambda_total_per_s,planck_length_m"
    cells = lines[1].split(",")
    assert all(SCI9.match(c) for c in cells)
    assert float(cells[1]) == pytest.approx(6.17e-8, rel=5e-3)
    assert float(cells[0]) == pytest.approx(2.955e3, rel=1e-3)
    assert out.endswith("\n")


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "--mass", "7.35e22", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "info"
    assert payload["meta"]["constants"] == "CODATA2018"
    assert payload["rows"][0]["t_hawking_k"] == pytest.approx(1.67, rel=5e-3)


def test_rate_vacuum_canonical(capsys):
    code, out, err = run(capsys, "rate", "--mass", "7.35e22", "--dx", "0.01")
    assert code == 0
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "rate_si,tau_d_s,overlap,regime,variant"
    cells = lines[1].split(",")
    assert float(cells[1]) == pytest.approx(3.5247e-11, rel=1e-4)
    assert cells[3] == "crossover"
    assert cells[4] == "canonical_appendix"


def test_rate_printed_variant_notice(capsys):
    code, out, err = run(capsys, "rate", "--mass", "7.35e22", "--dx", "0.01",
                         "--variant", "printed_eq8")
    assert code == 0
    assert "printed_eq8" in err and "4x" in err
    tau = float(out.splitlines()[1].split(",")[1])
    assert tau == pytest.approx(8.8118e-12, rel=1e-4)


def test_rate_infinity_sentinel(capsys):
    code, out, _ = run(capsys, "rate", "--mass", "7.35e22", "--dx", "0")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert cells[0] == "0.00000000e+00"
    assert cells[1] == "inf"

    code, out, _ = run(capsys, "rate", "--mass", "7.35e22", "--dx", "0",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)  # "inf" must survive strict JSON
    assert payload["rows"][0]["tau_d_s"] == "inf"
    assert payload["rows"][0]["rate_si"] == 0.0


def test_rate_thermal_mode(capsys):
    code, out, _ = run(capsys, "rate", "--mass", "7.35e22", "--dx-over-rs", "1",
                       "--mode", "thermal")
    assert code == 0
    cells = out.splitlines()[1].split(",")
    assert cells[2] == ""   # overlap not defined for the scattering channel
    assert cells[4] == ""
    geom_r_s = 2.0 * 6.67430e-11 * 7.35e22 / 2.99792458e8 ** 2
    expected = 0.05758667446091064 * 2.99792458e8 / geom_r_s
    assert float(cells[0]) == pytest.approx(expected, rel=1e-8)


def test_rate_geometry_flags(capsys):
    code, _, err = run(capsys, "rate", "--mass", "1e30", "--dx", "1", "--dx-over-rs", "1")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "rate", "--mass", "1e30")
    assert code == 2 and "exactly one" in err
    code, _, err = run(capsys, "rate", "--mass", "-1", "--dx", "1")
    assert code == 2 and "error:" in err
    code, _, err = run(capsys, "rate", "--mass", "1e30", "--dx", "1",
                       "--mode", "thermal", "--variant", "printed_eq8")
    assert code == 2 and "vacuum" in err


@pytest.mark.parametrize("argv, option", [
    (("rate", "--mass", "inf", "--dx", "1"), "--mass"),
    (("rate", "--mass", "1e30", "--dx", "nan"), "--dx"),
    (("rate", "--mass", "1e30", "--dx-over-rs", "inf"), "--dx-over-rs"),
    (("rate", "--mass", "1e30", "--dx-over-rs", "nan", "--mode", "thermal"), "--dx-over-rs"),
    (("evolve", "--mass", "1e30", "--dx", "inf", "--t-max", "1"), "--dx"),
    (("evolve", "--mass", "1e30", "--dx", "1", "--t-max", "inf"), "--t-max"),
    (("sweep", "--mass", "1e30", "--dx-over-rs", "1", "inf", "3"), "--dx-over-rs"),
    (("info", "--mass", "nan"), "--mass"),
    (("sweep", "--mass", "1", "--dx-over-rs", "1", "10", "inf"), "--dx-over-rs POINTS"),
    (("sweep", "--mass", "1", "--dx-over-rs", "1", "10", "nan"), "--dx-over-rs POINTS"),
])
def test_non_finite_inputs_are_usage_errors(capsys, argv, option):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and option in err
    assert "Traceback" not in err and "nan" not in out


@pytest.mark.parametrize("argv, named", [
    (("info", "--mass", "1e120"), "mass=1e+120 kg"),   # M^3 overflows in t_bh
    (("info", "--mass", "1e-290"), "r_s="),            # Lambda_total overflows
    (("evolve", "--mass", "1e120", "--dx-over-rs", "1", "--t-max", "1", "--steps", "4"),
     "mass=1e+120 kg"),
    (("rate", "--mass", "1e-280", "--dx", "1e-300"), "r_s="),
    (("rate", "--mass", "1e-300", "--dx-over-rs", "1"), "mass=1e-300 kg"),  # R_s is 0
])
def test_extreme_masses_are_usage_errors(capsys, argv, named):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and named in err


def test_heaviest_masses_still_give_rates(capsys):
    code, out, err = run(capsys, "rate", "--mass", "1e300", "--dx-over-rs", "1")
    assert code == 0 and err == ""
    assert 0.0 < float(out.splitlines()[1].split(",")[0]) < math.inf


def test_lightest_masses_with_a_representable_rate_give_rates(capsys):
    # R_s = 4.46e-301 m: Lambda_total ~ 7e306 s^-1 fits a double although
    # 27 c zeta(3) / (pi^4 R_s) alone does not
    code, out, err = run(capsys, "rate", "--mass", "3e-274", "--dx-over-rs", "1e4")
    assert code == 0 and err == ""
    assert 0.0 < float(out.splitlines()[1].split(",")[0]) < math.inf


def test_quadrature_failure_is_a_usage_error(capsys, monkeypatch):
    def run_checks():
        raise QuadratureAccuracyError("subdivision budget exhausted", 1e-6, 1e-10)

    monkeypatch.setattr(cli, "run_checks", run_checks)
    code, out, err = run(capsys, "verify")
    assert code == 2
    assert out == ""
    assert err.startswith("error: subdivision budget exhausted")


def test_sweep_header_and_shape(capsys):
    code, out, _ = run(capsys, "sweep", "--mass", "7.35e22",
                       "--dx-over-rs", "1e-3", "1e4", "71")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "dx_over_rs,rate_c_over_rs,rate_si,overlap,regime"
    assert len(lines) == 72
    first = lines[1].split(",")
    last = lines[-1].split(",")
    # quadratic rise at the small end, plateau at the large end
    assert float(first[1]) == pytest.approx(1.1375567e-4 * 1e-6, rel=1e-4)
    assert float(last[1]) == pytest.approx(27.0 * 1.2020569031595943 / (32.0 * math.pi ** 4),
                                           rel=1e-2)
    assert first[4] == "small_separation" and last[4] == "saturated"


def test_sweep_linear_spacing(capsys):
    code, out, _ = run(capsys, "sweep", "--mass", "1e30",
                       "--dx-over-rs", "0", "2", "5", "--spacing", "linear")
    assert code == 0
    xs = [float(line.split(",")[0]) for line in out.splitlines()[1:]]
    assert xs == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0], abs=1e-12)


def test_sweep_range_validation(capsys):
    bad_ranges = [
        ("1", "10", "1.5"),          # non-integer points
        ("1", "10", "1"),            # too few points
        ("10", "1", "5"),            # stop <= start
        ("0", "10", "5"),            # log spacing from zero
        ("-1", "10", "5", "--spacing", "linear"),  # negative separation
    ]
    for args in bad_ranges:
        code, _, err = run(capsys, "sweep", "--mass", "1e30", "--dx-over-rs", *args)
        assert code == 2, args
        assert err.startswith("error:")


def test_sweep_cross_format_equality(capsys):
    args = ("sweep", "--mass", "7.35e22", "--dx-over-rs", "0.5", "200", "7")
    code, csv_out, _ = run(capsys, *args)
    assert code == 0
    code, json_out, _ = run(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(json_out)
    header = csv_out.splitlines()[0].split(",")
    for line, row in zip(csv_out.splitlines()[1:], payload["rows"]):
        for key, cell in zip(header, line.split(",")):
            jval = row[key]
            if isinstance(jval, float):
                assert float(cell) == jval, key
            else:
                assert cell == str(jval), key


def test_sweep_deterministic(capsys):
    args = ("sweep", "--mass", "1e25", "--dx-over-rs", "1e-2", "1e3", "31")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_evolve_csv_with_summary(capsys):
    code, out, err = run(capsys, "evolve", "--mass", "7.35e22", "--dx", "0.01",
                         "--t-max", "1.7e-10", "--steps", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "t,coherence,mass"
    assert len(lines) == 10
    assert float(lines[1].split(",")[1]) == 1.0
    m = re.match(r"tau_d_s=(\S+) quasi_static_valid=(true|false)$", err.strip())
    assert m
    assert float(m.group(1)) == pytest.approx(3.5247e-11, rel=1e-4)
    assert m.group(2) == "true"


def test_evolve_json_meta(capsys):
    code, out, _ = run(capsys, "evolve", "--mass", "7.35e22", "--dx", "0.01",
                       "--t-max", "1.7e-10", "--steps", "8", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["quasi_static_valid"] is True
    assert payload["meta"]["tau_d_s"] == pytest.approx(3.5247e-11, rel=1e-4)
    assert len(payload["rows"]) == 9


def test_evolve_five_tau(capsys):
    tau = 3.5247124615710643e-11
    code, out, _ = run(capsys, "evolve", "--mass", "7.35e22", "--dx", "0.01",
                       "--t-max", str(5.0 * tau), "--steps", "100")
    assert code == 0
    final = float(out.splitlines()[-1].split(",")[1])
    assert final == pytest.approx(math.exp(-5.0), abs=1e-6)


def test_evolve_evaporation_domain_error(capsys):
    # one-kilogram hole evaporates in ~8.4e-17 s
    code, _, err = run(capsys, "evolve", "--mass", "1", "--dx-over-rs", "1e-3",
                       "--t-max", "1e-16", "--steps", "8", "--evaporate")
    assert code == 2
    assert "evaporation" in err


def test_out_file(tmp_path, capsys):
    target = tmp_path / "sweep.csv"
    args = ("sweep", "--mass", "1e25", "--dx-over-rs", "1", "10", "3")
    code, stdout_text, _ = run(capsys, *args)
    code2, empty, _ = run(capsys, *args, "--out", str(target))
    assert code == code2 == 0
    assert empty == ""
    assert target.read_text(encoding="utf-8") == stdout_text


def test_usage_errors_from_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["rate", "--mass", "1e30", "--dx", "1", "--variant", "bogus"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit):
        cli.main(["nonsense"])
    capsys.readouterr()


def test_verify_passes_with_moon_warning(capsys):
    code, out, _ = run(capsys, "verify")
    assert code == 0
    lines = out.splitlines()
    statuses = {}
    for line in lines[:-1]:
        status, rest = line.split(" ", 1)
        statuses[rest.split(":")[0]] = status
    assert statuses["moon_discrepancy"] == WARN
    assert statuses["trigamma_shift_threshold"] == PASS
    assert all(s == PASS for name, s in statuses.items() if name != "moon_discrepancy")
    assert lines[-1].endswith("0 failed")
    moon_line = next(l for l in lines if "moon_discrepancy" in l)
    assert "1.09" in moon_line  # the published value is quoted in the detail


def test_verify_json(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["failed"] == 0
    names = [r["name"] for r in payload["rows"]]
    assert "rate_oracle_grid" in names and "variant_factor_4" in names


def test_verify_json_rows_carry_value_and_tolerance(capsys):
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    rows = json.loads(out)["rows"]
    assert len(rows) == 24 and len({r["name"] for r in rows}) == 24
    for row in rows:
        assert isinstance(row["value"], float) and isinstance(row["tol"], float)
        expected = WARN if row["name"] == "moon_discrepancy" else PASS
        assert row["status"] == (expected if row["value"] <= row["tol"] else FAIL)
        assert row["detail"].endswith(f"(tol {row['tol']:g})")
    assert [r["status"] for r in rows].count(PASS) == 23


@pytest.mark.parametrize("argv", [
    ("rate", "--mass", "1", "--dx-over-rs", "1e200", "--mode", "thermal"),
    ("rate", "--mass", "1e-280", "--dx", "1e-300", "--mode", "thermal"),
    ("sweep", "--mass", "1e-280", "--dx-over-rs", "1", "1e10", "3", "--mode", "thermal"),
])
def test_thermal_overflow_is_a_usage_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: dx/R_s=") and "thermal_bh_rate=inf" in err


def test_subnormal_lifetime_is_a_usage_error(capsys):
    # 8.41147800e-317 was printed, but the lifetime is 8.41147790e-317 s
    code, out, err = run(capsys, "info", "--mass", "1e-100")
    assert code == 2
    assert out == ""
    assert err == "error: mass=1e-100 kg puts t_bh=8.411478e-317 out of floating-point range\n"


def test_verify_detects_constant_perturbation(capsys, monkeypatch):
    """Nudging zeta(3) by 1e-6 must trip the emission-rate cross-check
    while the zeta-free anchors keep passing."""
    monkeypatch.setitem(special._ZETA_TABLE, 3, special._ZETA_TABLE[3] * (1.0 + 1e-6))
    code, out, _ = run(capsys, "verify")
    assert code == 1
    statuses = {}
    for line in out.splitlines()[:-1]:
        status, rest = line.split(" ", 1)
        statuses[rest.split(":")[0]] = status
    assert statuses["emission_saturation"] == FAIL
    assert statuses["trigamma_anchor"] == PASS
