"""CLI surface: formats, exit codes, sentinels, determinism, verify gate."""

import dataclasses
import json
import math
import os
import re
import subprocess
import sys

import numpy as np
import pytest

import hawkdeco
from hawkdeco import QuadratureAccuracyError, cli, rates, special, verification
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
    (("rate", "--mass", "1e30", "--dx", "1", "--species", "0"), "--species"),
    (("info", "--mass", "1e30", "--species", "-2"), "--species"),
    (("evolve", "--mass", "1e30", "--dx", "1", "--t-max", "1", "--steps", "1"), "--steps"),
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


@pytest.mark.parametrize("extra", [(), ("--evaporate",)])
@pytest.mark.parametrize("dx", ["0", "0.01"])
def test_evolve_reads_tau_from_the_trace(capsys, monkeypatch, dx, extra):
    # tau_d = 1 / Gamma(0), from the rate evolve_coherence already evaluated
    def no_second_rate(*args, **kwargs):
        raise AssertionError("evolve evaluated the rate a second time")

    monkeypatch.setattr(cli, "vacuum_rate", no_second_rate)
    argv = ("evolve", "--mass", "1e12", "--dx", dx, "--t-max", "1e-3", "--steps", "8", *extra)
    code, out, err = run(capsys, *argv, "--format", "json")
    assert code == 0
    rate0 = hawkdeco.evolve_coherence(1e12, float(dx), 1e-3, 8, evaporate=bool(extra)).rate[0]
    tau = json.loads(out)["meta"]["tau_d_s"]
    assert tau == ("inf" if rate0 == 0.0 else float(f"{1.0 / rate0:.8e}"))
    code, _, err = run(capsys, *argv)
    assert code == 0 and err.startswith("tau_d_s=inf " if dx == "0" else f"tau_d_s={tau:.8e} ")


def test_evolve_evaporation_domain_error(capsys):
    # one-kilogram hole evaporates in ~8.4e-17 s
    code, _, err = run(capsys, "evolve", "--mass", "1", "--dx-over-rs", "1e-3",
                       "--t-max", "1e-16", "--steps", "8", "--evaporate")
    assert code == 2
    assert "evaporation" in err


def test_evolve_too_coarse_evaporating_grid(capsys):
    # the first parabola weight turns negative; this printed coherence "inf"
    code, out, err = run(capsys, "evolve", "--mass", "1", "--dx-over-rs", "1e-3",
                         "--t-max", "8e-17", "--steps", "2", "--evaporate", "--format", "json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: steps=2 ") and err.count("\n") == 1


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
    assert [statuses[name] for name in ("trigamma_small_y", "trigamma_large_y",
                                        "trigamma_vs_series")] == [PASS] * 3
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
    assert len(rows) == 22 and len({r["name"] for r in rows}) == 22
    for row in rows:
        assert isinstance(row["value"], float) and isinstance(row["tol"], float)
        expected = WARN if row["name"] == "moon_discrepancy" else PASS
        assert row["status"] == (expected if row["value"] <= row["tol"] else FAIL)
        assert row["detail"].endswith(f"(tol {row['tol']:g})")
    assert [r["status"] for r in rows].count(PASS) == 21


def test_verify_rows_check_the_overlap_routine(capsys):
    # the three trigamma rows measure the routine the rates run; the rest keep their order
    code, out, _ = run(capsys, "verify", "--format", "json")
    assert code == 0
    assert [r["name"] for r in json.loads(out)["rows"]] == [
        "trigamma_small_y", "trigamma_large_y", "trigamma_vs_series", "zeta_table_vs_series",
        "emission_saturation", "overlap_oracle_grid", "rate_oracle_grid", "variant_factor_4",
        "hbar_invariance", "headline_sun", "headline_earth", "headline_temperatures",
        "moon_discrepancy", "thermal_coefficient", "thermal_tau_unit",
        "localization_coefficients", "localization_vacuum", "localization_ratio", "limits",
        "limits_saturation", "evolution_exponential", "evolution_grid_doubling"]


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


def verify_statuses(capsys) -> dict:
    """Each row's status by check name, from a `verify` run that fails."""
    code, out, _ = run(capsys, "verify")
    assert code == 1
    statuses = {}
    for line in out.splitlines()[:-1]:
        status, rest = line.split(" ", 1)
        statuses[rest.split(":")[0]] = status
    return statuses


def test_verify_detects_constant_perturbation(capsys, monkeypatch):
    """Nudging zeta(3) by 1e-6 must trip the emission-rate cross-check and
    the overlap's normalization while the zeta-free anchors keep passing."""
    monkeypatch.setitem(special._ZETA_TABLE, 3, special._ZETA_TABLE[3] * (1.0 + 1e-6))
    statuses = verify_statuses(capsys)
    assert statuses["emission_saturation"] == FAIL
    assert statuses["trigamma_small_y"] == FAIL
    assert statuses["headline_temperatures"] == PASS


def test_verify_limits_checks_the_library_limit(capsys, monkeypatch):
    """A small-dx limit 1% off must fail the `limits` row, which measures
    the library's vacuum_rate_small_dx, not a copy of its coefficient."""
    original = rates.vacuum_rate_small_dx

    def scaled(*args, **kwargs):
        return 1.01 * original(*args, **kwargs)

    for module in (rates, verification):
        monkeypatch.setattr(module, "vacuum_rate_small_dx", scaled)
    statuses = verify_statuses(capsys)
    assert statuses["limits"] == FAIL
    assert statuses["limits_saturation"] == PASS


def _fmt(x) -> str:
    # one output cell: nine significant digits (or "inf") for a float, "" for None
    if isinstance(x, float):
        return f"{x:.8e}"
    return "" if x is None else str(x)


def reference_emit(args, header, columns, meta):
    """Reference writer: the per-cell loop the column-at-a-time writer replaced.
    Takes the writer's columns (a None column is empty cells) and writes to
    stdout only."""
    meta = {**meta, "constants": "CODATA2018"}
    n = len(next(c for c in columns if c is not None))
    rows = list(zip(*([None] * n if c is None else np.asarray(c).tolist() for c in columns)))

    def json_value(x):
        if isinstance(x, float):
            return "inf" if math.isinf(x) else float(_fmt(x))
        return x

    if args.format == "json":
        sys.stdout.write(json.dumps({
            "meta": {k: json_value(v) for k, v in meta.items()},
            "rows": [{k: json_value(v) for k, v in zip(header, row)} for row in rows],
        }, indent=2, allow_nan=False) + "\n")
    else:
        lines = [",".join(header)]
        for row in rows:
            cells = []
            for v in row:
                cells.append(_fmt(v))
            lines.append(",".join(cells))
        sys.stdout.write("\n".join(lines) + "\n")


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("info", "--mass", "1.99e30", "--species", "3"),
    ("rate", "--mass", "7.35e22", "--dx", "0.01"),
    ("rate", "--mass", "7.35e22", "--dx-over-rs", "1", "--mode", "thermal"),
    ("rate", "--mass", "7.35e22", "--dx", "0.01", "--variant", "printed_eq8"),
    ("rate", "--mass", "7.35e22", "--dx", "0"),                     # tau = inf
    ("sweep", "--mass", "7.35e22", "--dx-over-rs", "1e-3", "1e4", "41"),
    ("sweep", "--mass", "1e30", "--dx-over-rs", "0", "2", "5", "--spacing", "linear"),
    ("sweep", "--mass", "7.35e22", "--dx-over-rs", "1e-3", "1e4", "9", "--mode", "thermal"),
    ("sweep", "--mass", "1e30", "--dx-over-rs", "0", "2", "5", "--spacing", "linear",
     "--mode", "thermal"),
    ("evolve", "--mass", "7.35e22", "--dx", "0.01", "--t-max", "1.7e-10", "--steps", "16"),
    ("evolve", "--mass", "1e10", "--dx-over-rs", "10", "--t-max", "1e10", "--steps", "64",
     "--evaporate"),
    ("evolve", "--mass", "7.342e22", "--dx-over-rs", "3", "--t-max", "1e-9", "--steps", "4096",
     "--evaporate"),
    ("sweep", "--mass", "7.342e22", "--dx-over-rs", "1", "1e4", "2000", "--variant",
     "printed_eq8", "--species", "3"),
    ("sweep", "--mass", "1", "--dx-over-rs", "1", "1.7976931348623157e308", "3"),  # e+308, e-307
    ("evolve", "--mass", "7.35e22", "--dx", "0.01", "--t-max", "1e-7", "--steps", "16"),  # 0.0
    ("sweep", "--mass", "7.342e22", "--dx-over-rs", "1e-3", "1e4", "10000"),
])
def test_table_writer_matches_the_per_cell_reference(capsys, monkeypatch, argv, fmt):
    argv = argv + ("--format", fmt)
    expected = run(capsys, *argv)
    with monkeypatch.context() as patch:
        patch.setattr(cli, "_emit", reference_emit)
        reference = run(capsys, *argv)
    assert expected[0] == 0
    assert expected == reference


def test_json_writer_rejects_nan_as_json_does():
    with pytest.raises(ValueError) as new:
        cli._json_column([1.0, math.nan])
    with pytest.raises(ValueError) as old:
        json.dumps([1.0, math.nan], allow_nan=False)
    assert str(new.value) == str(old.value)


def _nan_at(values, k):
    values = np.array(values, dtype=float)
    values[k] = math.nan
    return values


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [
    ("evolve", "--mass", "7.35e22", "--dx", "0.01", "--t-max", "1.7e-10", "--steps", "4"),
    ("sweep", "--mass", "7.35e22", "--dx-over-rs", "1e-3", "1e4", "9"),
])
def test_a_nan_cell_is_a_domain_error_in_both_formats(capsys, monkeypatch, tmp_path, argv, fmt):
    """The CLI never prints nan with exit code 0, and --out is not opened."""
    trace_of = cli.evolve_coherence
    rates_of = cli.canonical_rate_array

    def evolve_with_nan(*args, **kwargs):
        trace = trace_of(*args, **kwargs)
        return dataclasses.replace(trace, coherence=_nan_at(trace.coherence, 3))

    def rates_with_nan(*args, **kwargs):
        rate, overlap = rates_of(*args, **kwargs)
        return _nan_at(rate, 4), overlap

    monkeypatch.setattr(cli, "evolve_coherence", evolve_with_nan)
    monkeypatch.setattr(cli, "canonical_rate_array", rates_with_nan)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert code == 2
    assert err.startswith("error: ") and "Traceback" not in err
    assert "nan" not in out
    out_file = tmp_path / "table.txt"
    assert run(capsys, *argv, "--format", fmt, "--out", str(out_file))[0] == 2
    assert not out_file.exists()


def sweep_grid(start, stop, points, spacing):
    """The dx/R_s column of a sweep: from START to STOP exactly."""
    if spacing == "linear":
        return np.linspace(start, stop, points).tolist()
    with np.errstate(over="ignore"):
        grid = np.logspace(math.log10(start), math.log10(stop), points).tolist()
    return [start, *grid[1:-1], stop]


def per_point_sweep(mass, start, stop, points, spacing, mode, variant, species):
    """Reference: the sweep table row by row, one SuperpositionGeometry and
    one vacuum_rate or thermal_bh_rate call per point."""
    r_s = hawkdeco.schwarzschild_radius(mass)
    lines = ["dx_over_rs,rate_c_over_rs,rate_si,overlap,regime"]
    for x in sweep_grid(start, stop, points, spacing):
        geom = hawkdeco.SuperpositionGeometry(delta_x=x * r_s, r_s=r_s)
        if mode == "vacuum":
            res = hawkdeco.vacuum_rate(geom, variant, species_multiplicity=species)
            rate, overlap = res.rate, f"{res.overlap:.8e}"
        else:
            rate, overlap = hawkdeco.thermal_bh_rate(geom, species_multiplicity=species), ""
        regime = hawkdeco.classify_regime(geom.dx_over_rs)
        lines.append(f"{x:.8e},{rate * r_s / hawkdeco.CODATA2018.c:.8e},{rate:.8e},{overlap},"
                     f"{regime}")
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("species", [1, 3])
@pytest.mark.parametrize("mode, variant", [
    ("vacuum", "canonical"), ("vacuum", "printed_eq8"), ("thermal", "canonical")])
@pytest.mark.parametrize("start, stop, points, spacing", [
    (1e-3, 1e4, 301, "log"),        # crosses y = 0.05 at dx/R_s = 0.63
    (0.0, 2.0, 257, "linear"),      # from coincident branches
    (0.6, 0.65, 40, "linear"),      # dense around the series cut
])
def test_sweep_equals_the_per_point_reference(capsys, species, mode, variant, start, stop,
                                             points, spacing):
    mass = 7.342e22
    code, out, _ = run(capsys, "sweep", "--mass", repr(mass), "--dx-over-rs", repr(start),
                       repr(stop), str(points), "--spacing", spacing, "--mode", mode,
                       "--variant", variant, "--species", str(species))
    assert code == 0
    rates_variant = {"canonical": hawkdeco.VARIANT_CANONICAL,
                     "printed_eq8": hawkdeco.VARIANT_PRINTED}[variant]
    assert out == per_point_sweep(mass, start, stop, points, spacing, mode, rates_variant,
                                  species)


@pytest.mark.parametrize("mass, start, stop, mode, species, named", [
    (1.0, 1.0, 1e200, "thermal", 1, "dx/R_s=1e+200 "),  # the thermal rate overflows at point 3
    (1e30, 1.0, 1e308, "vacuum", 1, "--dx-over-rs=1e+308 "),  # delta_x overflows at point 3
    (1e30, 1.0, 1e308, "thermal", 1, "dx/R_s=1e+154 "),  # the thermal rate, at point 2
    (1e30, 1e306, 1e307, "vacuum", 10 ** 400, "--dx-over-rs=1e+306 "),  # before Lambda_total
    (1.0, 1.0, 2.0, "vacuum", 10 ** 400, "Lambda_total=inf"),  # the same at every point
    (1.0, 1.0, 2.0, "thermal", 10 ** 400, "dx/R_s=1.0 "),  # species * d past the largest double
    # STOP is the largest double: the thermal rate overflows at point 2, before it
    (1.0, 1.0, sys.float_info.max, "thermal", 1, "dx/R_s=1.3407807929942642e+154 "),
], ids=["thermal-3", "geometry-3", "thermal-2", "geometry-1", "lambda-1", "species-1",
        "thermal-2-max"])
def test_sweep_fails_where_the_per_point_reference_fails(capsys, mass, start, stop, mode,
                                                         species, named):
    with pytest.raises(ValueError) as library:
        per_point_sweep(mass, start, stop, 3, "log", mode, hawkdeco.VARIANT_CANONICAL, species)
    # the error of `rate` at the first grid point where `rate` fails
    for x in sweep_grid(start, stop, 3, "log"):
        code, _, expected = run(capsys, "rate", "--mass", repr(mass), "--dx-over-rs", repr(x),
                                "--mode", mode, "--species", str(species))
        if code:
            break
    code, out, err = run(capsys, "sweep", "--mass", repr(mass), "--dx-over-rs", repr(start),
                         repr(stop), "3", "--mode", mode, "--species", str(species))
    assert (code, out, err) == (2, "", expected)
    assert err.startswith("error: ") and named in err
    if not named.startswith("--dx-over-rs"):  # the library's own error, as `rate` passes it on
        assert err == f"error: {library.value}\n"


def test_sweep_log_grid_ends_at_stop(capsys):
    # 10**log10(STOP) rounds past the largest double, which STOP itself is not
    stop = sys.float_info.max
    code, out, err = run(capsys, "sweep", "--mass", "1", "--dx-over-rs", "1", repr(stop), "3")
    assert (code, err) == (0, "")
    assert out == per_point_sweep(1.0, 1.0, stop, 3, "log", "vacuum",
                                  hawkdeco.VARIANT_CANONICAL, 1)
    assert out.splitlines()[-1].startswith("1.79769313e+308,")


def _fresh(argv):
    # start the same call in a new interpreter, stdout and stderr piped
    src = os.path.dirname(os.path.dirname(hawkdeco.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    return subprocess.Popen([sys.executable, "-m", "hawkdeco.cli", *argv], env=env, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def test_the_cached_parser_keeps_no_state_between_calls(capsys, tmp_path):
    assert cli.build_parser() is cli.build_parser()
    rate = ("rate", "--mass", "7.35e22", "--dx", "0.01")
    sweep = ("sweep", "--mass", "1e25", "--dx-over-rs", "1", "10", "3")
    to_file = sweep + ("--out", str(tmp_path / "in_process.csv"))
    sequence = [rate + ("--variant", "printed_eq8"), rate, to_file, sweep,
                rate + ("--mode", "thermal"), rate, rate + ("--variant", "bogus"), rate]
    # one new interpreter per distinct call, all started before any is read
    procs = {argv: _fresh(argv) for argv in dict.fromkeys(sequence) if argv is not to_file}
    procs[to_file] = _fresh(sweep + ("--out", str(tmp_path / "fresh.csv")))
    fresh = {argv: (*proc.communicate(timeout=60), proc.returncode)
             for argv, proc in procs.items()}
    for argv in sequence:
        try:
            got = run(capsys, *argv)
        except SystemExit as exc:
            got = (exc.code, *capsys.readouterr())
        out, err, code = fresh[argv]
        assert got == (code, out, err), argv
    assert (tmp_path / "in_process.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
