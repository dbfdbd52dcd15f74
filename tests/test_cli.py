"""Command-line front end: exit codes, output contracts, round trips."""

import csv
import json
import math
import types

import numpy as np
import pytest

from minqet import analytic, checks, cli, measurement, protocol

MAX_EB_UNIT = 0.11474763394014725
GROUND_ENTROPY_UNIT = 0.4164955306996875
E_A_PROJECTIVE_UNIT = 0.7071067811865475


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_range_forms():
    assert np.allclose(cli.parse_range("1.0"), [1.0])
    assert np.allclose(cli.parse_range("1:4:4"), [1.0, 2.0, 3.0, 4.0])
    assert np.allclose(cli.parse_range("0.5:2:3:log"), [0.5, 1.0, 2.0])


def test_parse_range_rejects_bad_input():
    for bad in ("0:2:3", "2:1:3", "1:2:0", "1:2:3:cubic", "nope"):
        with pytest.raises(ValueError):
            cli.parse_range(bad)


# seeds 26 and 33 draw weak outcomes that once broke optimizer-vs-closed
@pytest.mark.parametrize("seed", ["0", "26", "33"])
def test_verify_passes(capsys, seed):
    code, out, err = run_cli(capsys, "verify", "--seed", seed, "--ensemble", "24")
    assert code == 0
    assert err == ""
    lines = [ln for ln in out.splitlines() if ln.startswith(("PASS", "FAIL", "SKIP"))]
    assert len(lines) == 22
    assert all(ln.startswith("PASS") for ln in lines)


def test_verify_is_hermetic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--seed", "3", "--ensemble", "12")
    code2, out2, _ = run_cli(capsys, "verify", "--seed", "3", "--ensemble", "12")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_skips_ensemble_checks(capsys):
    code, out, _ = run_cli(capsys, "verify", "--ensemble", "0")
    assert code == 0
    lines = out.splitlines()
    assert sum(ln.startswith("PASS") for ln in lines) == 5
    skipped = [ln.split()[1] for ln in lines if ln.startswith("SKIP")]
    capped = [
        name for _, budgets, cap in checks.CHECKS if cap is not None for name in budgets
    ]
    assert len(skipped) == 17
    assert skipped == capped


def test_verify_reports_a_raising_routine_once_per_name(capsys, monkeypatch):
    def boom(seed, size):
        raise ZeroDivisionError("injected")

    table = [
        (boom if routine is checks.ensemble_residuals else routine, budgets, cap)
        for routine, budgets, cap in checks.CHECKS
    ]
    monkeypatch.setattr(checks, "CHECKS", table)
    code, out, err = run_cli(capsys, "verify", "--ensemble", "3")
    assert code == 1
    names = next(b for r, b, _ in table if r is boom)
    assert len(names) == 13
    failed = [ln.split()[1] for ln in out.splitlines() if ln.startswith("FAIL")]
    assert failed == list(names)
    failures = json.loads(err)["failures"]
    assert [f["check"] for f in failures] == list(names)
    assert all(f["error"] == "ZeroDivisionError" for f in failures)
    # the other nine checks still ran
    assert sum(ln.startswith("PASS") for ln in out.splitlines()) == 9


def test_omega_maximum_is_judged_relative_to_its_value(capsys, monkeypatch):
    # every omega maximum seed 0 draws is below 0.1, so an absolute 1e-10
    # error in Q is over the 1e-9 budget only relative to the value itself.
    # Only verify's view of analytic is shifted: protocol.run's own
    # cross-check would otherwise raise first and fail all 13 names.
    shifted = types.SimpleNamespace(**vars(analytic))
    shifted.Q_of = lambda *args: analytic.Q_of(*args) + 1e-10
    monkeypatch.setattr(checks, "analytic", shifted)
    code, out, err = run_cli(capsys, "verify", "--seed", "0", "--ensemble", "24")
    assert code == 1
    failed = [ln.split()[1] for ln in out.splitlines() if ln.startswith("FAIL")]
    assert failed == ["omega-maximum"]
    (failure,) = json.loads(err)["failures"]
    assert failure["residual"] > failure["budget"] == 1e-9


def test_omega_maximum_at_zero_q_is_not_a_false_fail(capsys, monkeypatch):
    # with q = 0 every omega maximum is exactly 0; judged relative to the
    # rounding level of Q's parts, the check still passes on correct code
    def unbiased(seed, n_outcomes=2):
        weights = [measurement.OutcomeWeights(1.0 / n_outcomes, 0.0)] * n_outcomes
        return measurement.weights_to_coeffs(weights)

    monkeypatch.setattr(measurement, "random_measurement", unbiased)
    code, out, err = run_cli(capsys, "verify", "--seed", "0", "--ensemble", "24")
    (line,) = [ln for ln in out.splitlines() if ln.split()[1:2] == ["omega-maximum"]]
    assert line.startswith("PASS"), line
    assert float(line.split()[3]) <= 1e-15
    assert code == 0, err


def test_envelope_peak_catches_a_fault_in_abc_constants(capsys, monkeypatch):
    # T(0) is checked against eps p f_E((q/p)^2), which reaches it through
    # the sigma angles; a relative error of 1e-6 in a moves T(0) only
    original = analytic.abc_constants

    def shifted(params, p, q):
        a, b, c = original(params, p, q)
        return a * (1.0 + 1e-6), b, c

    monkeypatch.setattr(analytic, "abc_constants", shifted)
    code, out, err = run_cli(capsys, "verify", "--seed", "0", "--ensemble", "24")
    assert code == 1
    (line,) = [ln for ln in out.splitlines() if ln.split()[1:2] == ["envelope-peak"]]
    assert line.startswith("FAIL"), line
    assert float(line.split()[3]) > 1e-9


def test_verify_fault_hook(capsys, monkeypatch):
    def corrupted_measurement():
        bad = object.__new__(measurement.KrausCoefficients)
        for field, value in (("m", 0.9), ("l", 0.6), ("alpha", 0.0), ("delta", 0.0)):
            object.__setattr__(bad, field, value)
        broken = object.__new__(measurement.MeasurementModel)
        object.__setattr__(broken, "coeffs", (bad,))
        measurement.validate(broken)
        return 0.0

    budgets = {"corrupted-measurement": 1e-12}
    monkeypatch.setattr(checks, "CHECKS", ((corrupted_measurement, budgets, None),))
    code, out, err = run_cli(capsys, "verify", "--ensemble", "0")
    assert code == 1
    assert out.startswith("FAIL corrupted-measurement")
    payload = json.loads(err)
    assert payload["failures"][0]["error"] == "ConstraintViolation"


def test_report_projective(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--h", "1", "--k", "1", "--povm", "builtin:projective"
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["energies"]["maxE_B_closed"] - MAX_EB_UNIT) <= 1e-9
    assert abs(payload["energies"]["E_B_bruteforce"] - MAX_EB_UNIT) <= 1e-9
    assert abs(payload["energies"]["E_A_closed"] - E_A_PROJECTIVE_UNIT) <= 1e-12
    assert abs(payload["entanglement"]["delta_S"] - GROUND_ENTROPY_UNIT) <= 1e-10
    # the second bound is tight for projective weights
    assert abs(payload["bounds"]["bound770"]["slack"]) <= 1e-9


def test_report_weak_measurement(capsys):
    code, out, _ = run_cli(
        capsys, "report", "--h", "1", "--k", "1", "--povm", "builtin:weak(0.01)"
    )
    assert code == 0
    payload = json.loads(out)
    slack32 = payload["bounds"]["bound32"]["slack"]
    assert 0.0 < slack32 < 1e-4
    # delta_S tracks c32 * E_B / eps with a quartic-in-u error
    lhs = payload["entanglement"]["delta_S"]
    rhs = payload["bounds"]["bound32"]["rhs"]
    assert abs(lhs - rhs) <= 1e-7


def test_report_identity_file(tmp_path, capsys):
    povm = tmp_path / "identity.json"
    povm.write_text(json.dumps({"outcomes": [{"m": 1.0, "l": 0.0}]}))
    code, out, _ = run_cli(capsys, "report", "--h", "1", "--k", "1", "--povm", str(povm))
    assert code == 0
    payload = json.loads(out)
    assert payload["energies"]["E_A_closed"] == 0.0
    assert abs(payload["energies"]["E_B_bruteforce"]) <= 1e-12
    assert abs(payload["entanglement"]["delta_S"]) <= 1e-12


def test_report_missing_file(capsys):
    code, _, err = run_cli(capsys, "report", "--h", "1", "--k", "1", "--povm", "/no/such.json")
    assert code == 2
    assert "error" in err


def test_report_malformed_json(tmp_path, capsys):
    povm = tmp_path / "broken.json"
    povm.write_text('{"outcomes": [')
    code, _, err = run_cli(capsys, "report", "--h", "1", "--k", "1", "--povm", str(povm))
    assert code == 2
    assert "broken.json" in err


def test_report_unknown_builtin(capsys):
    code, _, err = run_cli(capsys, "report", "--h", "1", "--k", "1", "--povm", "builtin:magic")
    assert code == 2


def test_sweep_single_cell(tmp_path, capsys):
    out_dir = tmp_path / "single"
    code, _, _ = run_cli(
        capsys, "sweep", "--h", "1", "--k", "1",
        "--povm", "builtin:projective", "--out", str(out_dir),
    )
    assert code == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    row = rows[0]
    assert abs(float(row["E_A"]) - E_A_PROJECTIVE_UNIT) <= 1e-12
    assert abs(float(row["maxE_B_closed"]) - MAX_EB_UNIT) <= 1e-12
    assert abs(float(row["maxE_B_numeric"]) - MAX_EB_UNIT) <= 1e-7
    assert abs(float(row["delta_S"]) - GROUND_ENTROPY_UNIT) <= 1e-10
    meta = json.loads((out_dir / "metadata.json").read_text())
    assert meta["rows"] == 1


def test_sweep_grid_contract(tmp_path, capsys):
    out_dir = tmp_path / "grid"
    code, _, _ = run_cli(
        capsys, "sweep", "--h", "0.5:2:4:log", "--k", "0.5:2:4:log",
        "--povm", "builtin:weak(0.6)", "--out", str(out_dir),
    )
    assert code == 0
    with open(out_dir / "sweep.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert len(rows) == 16
    h_values = [float(r["h"]) for r in rows]
    assert h_values == sorted(h_values)  # h-major ordering
    for row in rows:
        for column, value in row.items():
            if column != "povm_sha256":
                assert math.isfinite(float(value))
        assert float(row["bound32_lhs"]) >= float(row["bound32_rhs"]) - 1e-10
        assert float(row["bound770_lhs"]) >= float(row["bound770_rhs"]) - 1e-10
    meta = json.loads((out_dir / "metadata.json").read_text())
    for key in ("minqet_version", "numpy_version", "wall_s"):
        assert key in meta
    assert meta["numpy_version"] == np.__version__
    assert meta["wall_s"] > 0.0
    gap = meta["worst_rel_gap_numeric_vs_closed"]
    assert 0.0 <= gap <= 1e-7
    worst = max(
        abs(float(r["maxE_B_numeric"]) - float(r["maxE_B_closed"]))
        / float(r["maxE_B_closed"])
        for r in rows
    )
    assert gap == worst


def test_sweep_csv_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "roundtrip"
    run_cli(
        capsys, "sweep", "--h", "0.7:1.3:2", "--k", "1.1",
        "--povm", "builtin:projective", "--out", str(out_dir),
    )
    from minqet import analytic, entanglement
    from minqet.model import ModelParams

    with open(out_dir / "sweep.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            params = ModelParams(h=float(row["h"]), k=float(row["k"]))
            # printed with 17 significant digits: parse-back is exact
            expected = analytic.bounds(params).c32 * float(row["maxE_B_closed"]) / params.eps
            assert float(row["bound32_rhs"]) == expected
            assert float(row["delta_S_bits"]) == float(row["delta_S"]) / math.log(2.0)


def test_sweep_parallel_matches_serial(tmp_path, capsys):
    serial = tmp_path / "serial"
    parallel = tmp_path / "parallel"
    args = ["sweep", "--h", "0.5:2:3:log", "--k", "0.8:1.2:2", "--povm", "builtin:projective"]
    run_cli(capsys, *args, "--out", str(serial))
    run_cli(capsys, *args, "--out", str(parallel), "--jobs", "2")
    assert (serial / "sweep.csv").read_text() == (parallel / "sweep.csv").read_text()


def test_sweep_rows_match_one_report_per_cell(tmp_path, capsys):
    # 72 cells: more than one block of run_many, in three chunks with --jobs 3
    povm = "builtin:weak(0.7)"
    args = ["sweep", "--h", "0.3:3:9:log", "--k", "0.4:2.5:8:log", "--povm", povm]
    run_cli(capsys, *args, "--out", str(tmp_path / "serial"))
    run_cli(capsys, *args, "--out", str(tmp_path / "pool"), "--jobs", "3")
    text = (tmp_path / "serial" / "sweep.csv").read_text()
    assert (tmp_path / "pool" / "sweep.csv").read_text() == text
    rows = list(csv.DictReader(text.splitlines()))
    assert len(rows) == 72 > protocol.BLOCK
    for row in rows:
        code, out, _ = run_cli(capsys, "report", "--h", row["h"], "--k", row["k"], "--povm", povm)
        assert code == 0
        payload = json.loads(out)
        energies, entropies, bounds = payload["energies"], payload["entanglement"], payload["bounds"]
        assert float(row["E_A"]) == energies["E_A_bruteforce"]
        assert float(row["maxE_B_closed"]) == energies["maxE_B_closed"]
        assert float(row["delta_S"]) == entropies["delta_S"]
        assert float(row["mutual_info"]) == entropies["mutual_info"]
        assert float(row["bound32_rhs"]) == bounds["bound32"]["rhs"]
        assert float(row["bound770_rhs"]) == bounds["bound770"]["rhs"]


def test_sweep_unwritable_output(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--h", "1", "--k", "1",
        "--povm", "builtin:projective", "--out", "/proc/nowhere/sub",
    )
    assert code == 2


def test_evolve_stdout_contract(capsys):
    code, out, _ = run_cli(
        capsys, "evolve", "--h", "1", "--k", "1", "--povm", "builtin:projective",
        "--t-max", str(math.pi / 2.0), "--points", "129",
    )
    assert code == 0
    rows = list(csv.DictReader(out.splitlines()))
    assert len(rows) == 129
    first = rows[0]
    assert float(first["t"]) == 0.0
    assert abs(float(first["HB_bruteforce"])) <= 1e-12
    assert abs(float(first["HB_closed"])) <= 1e-12
    peak = max(float(r["HB_bruteforce"]) for r in rows)
    assert abs(peak - E_A_PROJECTIVE_UNIT) <= 1e-9
    for r in rows:
        assert abs(float(r["V_expect"])) <= 1e-9
        assert abs(float(r["HB_bruteforce"]) - float(r["HB_closed"])) <= 1e-9


def test_evolve_rejects_bad_time_axis(capsys):
    code, _, _ = run_cli(
        capsys, "evolve", "--h", "1", "--k", "1", "--povm", "builtin:projective",
        "--t-max", "-1.0",
    )
    assert code == 2
    code, _, _ = run_cli(
        capsys, "evolve", "--h", "1", "--k", "1", "--povm", "builtin:projective",
        "--t-max", "1.0", "--points", "1",
    )
    assert code == 2


def test_optimize_policy_json(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--h", "1", "--k", "1", "--povm", "builtin:projective",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["best_value"] - MAX_EB_UNIT) <= 1e-7
    assert abs(payload["closed_form_max"] - MAX_EB_UNIT) <= 1e-12
    assert payload["converged"] is True
    assert len(payload["policy"]) == 2


def test_optimize_weights_json(capsys):
    code, out, _ = run_cli(
        capsys, "optimize", "--h", "1", "--k", "1", "--over", "weights",
        "--n-outcomes", "2",
    )
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["best_value"] - payload["projective_limit"]) <= 1e-8
    for w in payload["weights"]:
        assert abs(abs(w["q"]) - w["p"]) <= 1e-6


# closed forms that overflow or divide by zero, and a brute-force route that
# loses its phase accuracy at huge t, give no verified number: exit 1
@pytest.mark.parametrize(
    "argv",
    [
        "report --h 1e8 --k 1 --povm builtin:projective",
        "report --h 1e150 --k 1e150 --povm builtin:projective",
        "evolve --h 1 --k 1 --povm builtin:projective --t-max 1e12 --points 4",
    ],
)
def test_numeric_failure_exits_one_without_traceback(capsys, argv):
    code, _, err = run_cli(capsys, *argv.split())
    assert code == 1
    assert err.startswith("error: ")
    assert err.count("\n") == 1


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2
