"""Command-line front end: exit codes, output contracts, round trips."""

import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from minqet import analytic, checks, cli, measurement, optimizer, protocol
from minqet.model import ModelParams, ParamsBlock

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


# one member, two, and a last ensemble block of one 3-outcome member
@pytest.mark.parametrize("size", ["1", "2", "257"])
def test_verify_passes_on_small_ensembles(capsys, size):
    code, out, err = run_cli(capsys, "verify", "--seed", "0", "--ensemble", size)
    assert (code, err) == (0, "")
    summary = out.splitlines()[-1]
    assert summary.startswith("verify: 22 checks, 22 passed, 0 failed, 0 skipped"), summary


def test_verify_rejects_a_negative_seed(capsys):
    # a usage error, before any check runs or any line is printed
    code, out, err = run_cli(capsys, "verify", "--seed", "-1")
    assert (code, out, err) == (2, "", "error: --seed must be nonnegative, got -1\n")


def test_verify_rejects_a_negative_ensemble(capsys):
    # --ensemble 0 skips the ensemble checks; a negative size is a usage error
    code, out, err = run_cli(capsys, "verify", "--ensemble", "-3")
    assert (code, out, err) == (2, "", "error: --ensemble must be nonnegative, got -3\n")


def test_a_nan_residual_fails_its_checks(capsys, monkeypatch):
    # the closed delta_S reads NaN at the first member of every call, so of every
    # ensemble block; member 0 is saturated, so bound-770-equality reads it too
    closed = analytic.delta_S_closed

    def nan_first(*args):
        delta = np.array(closed(*args))
        delta[0] = math.nan
        return delta

    monkeypatch.setattr(analytic, "delta_S_closed", nan_first)
    code, out, _ = run_cli(capsys, "verify", "--ensemble", "300")
    failed = [line.split() for line in out.splitlines() if line.startswith("FAIL")]
    assert code == 1
    assert [words[1] for words in failed] == [
        "entanglement-consumption", "bound-32", "bound-770", "bound-770-equality"
    ]
    assert all(words[2:4] == ["residual", "nan"] for words in failed)


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
    assert len(names) == 15
    failed = [ln.split()[1] for ln in out.splitlines() if ln.startswith("FAIL")]
    assert failed == list(names)
    failures = json.loads(err)["failures"]
    assert [f["check"] for f in failures] == list(names)
    assert all(f["error"] == "ZeroDivisionError" for f in failures)
    # the other seven checks still ran
    assert sum(ln.startswith("PASS") for ln in out.splitlines()) == 7


def test_omega_maximum_is_judged_relative_to_its_value(capsys, monkeypatch):
    # every omega maximum seed 0 draws is below 0.1, so an absolute 1e-10
    # error in Q is over the 1e-9 budget only relative to the value itself.
    # Only verify's view of analytic is shifted: protocol.run_block's own
    # cross-check would otherwise raise first and fail all 15 names.
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
    # rounding level of Q's parts, the check still passes on correct code.
    # Raw u = 0 balances to q = 0, in every check that draws random models.
    draw_block = measurement.draw_block
    drawn = []

    def unbiased(p, u, counts):
        drawn.append(draw_block(p, np.zeros_like(u), counts))
        return drawn[-1]

    monkeypatch.setattr(measurement, "draw_block", unbiased)
    code, out, err = run_cli(capsys, "verify", "--seed", "0", "--ensemble", "24")
    # drawn through the patch: the ensemble and optimizer-vs-closed; the
    # saturated members get q = 0 too, so bound-770-equality scores none
    assert [len(coeffs) for coeffs, _ in drawn] == [24, 5]
    assert all(np.all(measurement.weight_block(coeffs)[1] == 0.0) for coeffs, _ in drawn)
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
        broken = object.__new__(measurement.MeasurementModel)
        object.__setattr__(broken, "rows", np.array([[0.9, 0.6, 0.0, 0.0]]))
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
    for i, row in enumerate(rows):
        cell = ("--h", row["h"], "--k", row["k"], "--povm", povm)
        code, out, _ = run_cli(capsys, "report", *cell)
        assert code == 0
        payload = json.loads(out)
        energies, entropies, bounds = payload["energies"], payload["entanglement"], payload["bounds"]
        assert float(row["E_A"]) == energies["E_A_bruteforce"]
        assert float(row["maxE_B_closed"]) == energies["maxE_B_closed"]
        assert float(row["delta_S"]) == entropies["delta_S"]
        assert float(row["mutual_info"]) == entropies["mutual_info"]
        for name in ("bound32", "bound770"):
            assert float(row[f"{name}_lhs"]) == bounds[name]["lhs"]
            assert float(row[f"{name}_rhs"]) == bounds[name]["rhs"]
        if i % 9 == 0:  # the grid's search column is the one-case search
            code, out, _ = run_cli(capsys, "optimize", *cell)
            assert code == 0
            assert float(row["maxE_B_numeric"]) == json.loads(out)["best_value"]


def test_report_and_sweep_refuse_when_the_routes_disagree(tmp_path, capsys, monkeypatch):
    # the grid above; only row 67, in run_many's second block, sees a Q shifted by 1e-6
    # in protocol's view
    povm = "builtin:weak(0.7)"
    h_range, k_range, row = "0.3:3:9:log", "0.4:2.5:8:log", 67
    h, k = cli.parse_range(h_range)[row // 8], cli.parse_range(k_range)[row % 8]
    shifted = types.SimpleNamespace(**vars(analytic))
    shifted.Q_of = lambda params, *rest: analytic.Q_of(params, *rest) + 1e-6 * (
        (params.h == h) & (params.k == k)
    )
    monkeypatch.setattr(protocol, "analytic", shifted)
    report = ["report", "--h", cli.fmt(h), "--k", cli.fmt(k), "--povm", povm]
    sweep = ["sweep", "--h", h_range, "--k", k_range, "--povm", povm, "--out", str(tmp_path)]
    for argv, case in ((report, 0), (sweep, row)):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(
            r"error: RuntimeError: internal cross-check failed: E_B per-outcome route differs"
            rf" in case {case} \(residual \S+, budget \S+\)\n",
            err,
        ), err
    assert not (tmp_path / "sweep.csv").exists()


def test_sweep_jobs_changes_no_byte(tmp_path, capsys):
    # --jobs is checked, but the grid runs in one process whatever its value;
    # --jobs below 1 is a usage error
    args = ["sweep", "--h", "1:2:2", "--k", "1", "--povm", "builtin:projective", "--out"]
    assert run_cli(capsys, *args, str(tmp_path / "many"), "--jobs", "50")[0] == 0
    assert run_cli(capsys, *args, str(tmp_path / "serial"))[0] == 0
    text = (tmp_path / "serial" / "sweep.csv").read_text()
    assert (tmp_path / "many" / "sweep.csv").read_text() == text
    for jobs in ("0", "-3"):
        code, out, err = run_cli(capsys, *args, str(tmp_path / jobs), "--jobs", jobs)
        assert (code, out) == (2, "")
        assert err == f"error: --jobs must be at least 1, got {jobs}\n"
        assert not (tmp_path / jobs).exists()


def test_sweep_unwritable_output(capsys):
    code, _, err = run_cli(
        capsys, "sweep", "--h", "1", "--k", "1",
        "--povm", "builtin:projective", "--out", "/proc/nowhere/sub",
    )
    assert code == 2


# a non-finite value or bound is a usage error before any NumPy arithmetic runs
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "flag, text, message",
    [
        ("--h", "inf", "grid values must be positive and finite, got inf"),
        ("--h", "nan", "grid values must be positive and finite, got nan"),
        ("--h", "1:inf:3", "range bounds must satisfy 0 < MIN <= MAX < inf, got '1:inf:3'"),
        ("--k", "0.5:inf:2:log",
         "range bounds must satisfy 0 < MIN <= MAX < inf, got '0.5:inf:2:log'"),
    ],
    ids=["h-inf", "h-nan", "h-linear-inf", "k-log-inf"],
)
def test_sweep_rejects_a_non_finite_grid(tmp_path, capsys, flag, text, message):
    grid = {"--h": "1", "--k": "1", flag: text}
    argv = ["sweep", "--h", grid["--h"], "--k", grid["--k"], "--povm", "builtin:projective"]
    code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "s"))
    assert (code, out, err) == (2, "", f"error: {message}\n")
    assert not (tmp_path / "s").exists()


CSV_SPECIALS = [math.inf, -math.inf, math.nan, -0.0, 5e-324, 1.7976931348623157e308, 0.1, -2.5]


@pytest.mark.parametrize("tail", ["", "9f" * 32], ids=["no-tail", "hex-tail"])
def test_write_csv_writes_what_csv_writer_writes(tail):
    columns = (
        np.array(CSV_SPECIALS),
        np.array(CSV_SPECIALS[::-1]),
        np.array([1.0, 0.0, 1e-300, 3e300, -1e-17, 42.0, math.pi, -math.e]),
    )
    header = ["a", "b", "c"] + ["sha"] * bool(tail)
    expected = io.StringIO()
    rows = [[cli.fmt(x) for x in row] + [tail] * bool(tail) for row in zip(*columns)]
    csv.writer(expected).writerows([header, *rows])
    written = io.StringIO()
    assert cli.write_csv(written, header, columns, tail) == len(CSV_SPECIALS)
    assert written.getvalue() == expected.getvalue()


# a three-outcome POVM with phases: the third alpha makes the q weights sum to zero
PHASED_POVM_3 = {
    "outcomes": [
        {"m": 0.5, "l": 0.2, "alpha": 0.3, "delta": 0.4},
        {"m": 0.6, "l": 0.3, "alpha": 2.5, "delta": 1.1},
        {"m": 0.5, "l": 0.1, "alpha": 0.23097332453062439, "delta": -0.7},
    ]
}


# the sha256 of the bytes that sweep and evolve wrote through csv.writer
def test_sweep_and_evolve_csv_bytes_are_frozen(tmp_path, capsys):
    povm = tmp_path / "phased3.json"
    povm.write_text(json.dumps(PHASED_POVM_3))
    sweep = ["sweep", "--h", "0.3:3:5:log", "--k", "0.4:2.5:4:log", "--povm", str(povm)]
    assert run_cli(capsys, *sweep, "--out", str(tmp_path / "s"))[0] == 0
    text = (tmp_path / "s" / "sweep.csv").read_bytes()
    assert hashlib.sha256(text).hexdigest() == (
        "455fc864c9164836c92e741f9d945954d0ae23c82212f22b524546a86ec0fdb5"
    )
    evolve = ["evolve", "--h", "0.8", "--k", "2.1", "--povm", str(povm), "--t-max", "3"]
    code, out, err = run_cli(capsys, *evolve, "--points", "100")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode("ascii")).hexdigest() == (
        "ed161f8bfe516ecfdf6bffe1b2402d60bf03c7b46d6dfdba127531512c716ca3"
    )


def test_sweep_grid_block_is_the_model_params_block(tmp_path, capsys, monkeypatch):
    # the search is the first to see the grid's block; stop the sweep there
    seen = []

    def spy(params, p, q):
        seen.append(params)
        raise RuntimeError("grid seen")

    monkeypatch.setattr(optimizer, "maximize_over_policies", spy)
    grid = "1e-150:1e150:31:log"
    argv = ["sweep", "--h", grid, "--k", grid, "--povm", "builtin:weak(0.3)"]
    assert run_cli(capsys, *argv, "--out", str(tmp_path))[0] == 1
    values = cli.parse_range(grid).tolist()
    expected = ParamsBlock.of(ModelParams(h, k) for h in values for k in values)
    for name, column in vars(expected).items():
        assert getattr(seen[0], name).tobytes() == column.tobytes(), name


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
    for t_max in ("-1.0", "nan", "inf"):
        code, out, err = run_cli(
            capsys, "evolve", "--h", "1", "--k", "1", "--povm", "builtin:projective",
            "--t-max", t_max,
        )
        message = f"error: --t-max must be positive and finite, got {float(t_max)}\n"
        assert (code, out, err) == (2, "", message)
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


def y_turns(*omegas):
    """A policy payload of turns about the y axis."""
    return [{"omega": w, "n": [0.0, 1.0, 0.0]} for w in omegas]


# optimize --over policy payloads frozen from the object-based search it
# replaced (commit 9a5f913): (POVM, h, k, payload without povm.source); a
# "weights" POVM is written to a file first
OPTIMIZE_POLICY_FROZEN = (
    (
        "builtin:projective", "1", "1",
        {
            "over": "policy", "params": {"h": 1.0, "k": 1.0},
            "povm": {"sha256": "72aba9966ce12bababec98dc8cd14dd151ff6c128776230690fecb77d98e9642"},
            "best_value": 0.11474763394014711, "closed_form_max": 0.11474763394014707,
            "policy": y_turns(2.980717376391472, 0.1608752771983211),
            "evaluations": 602, "converged": True,
        },
    ),
    (
        "builtin:weak(0.3)", "0.8", "2.1",
        {
            "over": "policy", "params": {"h": 0.8, "k": 2.1},
            "povm": {"sha256": "578b88be729304c8272efacea5f6bcce341b293f8c90587e8569922706665c89"},
            "best_value": 0.005970165909301643, "closed_form_max": 0.005970165909301644,
            "policy": y_turns(3.114979336805358, 0.026613316784435077),
            "evaluations": 619, "converged": True,
        },
    ),
    (
        # |q| = p, zero mass and q = 0
        {"p": [0.3, 0.0, 0.4, 0.3], "q": [0.3, 0.0, 0.0, -0.3]}, "1", "1",
        {
            "over": "policy", "params": {"h": 1.0, "k": 1.0},
            "povm": {"sha256": "31c45ee21a93a7d14f08f8aba77d910f631b472b3d11bb91f0fe4f61ec089398"},
            "best_value": 0.06884858036408827, "closed_form_max": 0.06884858036408825,
            "policy": y_turns(2.980717376391472, 0.0, 0.0, 0.1608752771983211),
            "evaluations": 863, "converged": True,
        },
    ),
    (
        # the weights of random_measurement(6, n_outcomes=6)
        {
            "p": [
                0.16691859037504, 0.04429754868489803, 0.1455367602416561,
                0.1293993984265705, 0.17741464618227862, 0.3364330560895567,
            ],
            "q": [
                0.028382950618235488, 0.03853661223828597, -0.035502452827362266,
                -0.050003520554855053, 0.17741464618227862, -0.15882823565658274,
            ],
        },
        "0.8", "2.1",
        {
            "over": "policy", "params": {"h": 0.8, "k": 2.1},
            "povm": {"sha256": "e01696ca25911ddb65738f1915719163a3062175f6c88187c5837f8532477795"},
            "best_value": 0.021042960957275023, "closed_form_max": 0.021042960957275026,
            "policy": y_turns(
                3.126498490939776, 3.0649515230194027, 0.021647230338661366,
                0.034259111466404236, 3.0537139279873564, 0.041821801145413104,
            ),
            "evaluations": 1843, "converged": True,
        },
    ),
)


@pytest.mark.parametrize("povm, h, k, frozen", OPTIMIZE_POLICY_FROZEN)
def test_optimize_policy_payload_is_frozen(capsys, tmp_path, povm, h, k, frozen):
    if isinstance(povm, dict):
        path = tmp_path / "povm.json"
        weights = [{"p": p, "q": q} for p, q in zip(povm["p"], povm["q"])]
        path.write_text(json.dumps({"weights": weights}))
        povm = str(path)
    code, out, err = run_cli(capsys, "optimize", "--h", h, "--k", k, "--povm", povm)
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["povm"].pop("source") == povm
    assert payload == frozen
    for turn in payload["policy"]:
        assert abs(math.sqrt(sum(c * c for c in turn["n"])) - 1.0) <= 1e-12


# (h, k, outcomes of the 20 printed with the search's own axis, not the y axis)
@pytest.mark.parametrize(
    "h, k, searched", [("1e-6", "1", 11), ("1", "1e-6", 14), ("0.8", "2.1", 0)]
)
def test_optimize_prints_the_search_axes_divided_by_their_lengths(
    capsys, tmp_path, h, k, searched
):
    own = 0
    for n in range(2, 7):
        meas = measurement.random_measurement(seed=0, n_outcomes=n)
        path = tmp_path / f"povm-{n}.json"
        path.write_text(json.dumps(measurement.to_json_obj(meas)))
        code, out, err = run_cli(capsys, "optimize", "--h", h, "--k", k, "--povm", str(path))
        assert (code, err) == (0, "")
        printed = [turn["n"] for turn in json.loads(out)["policy"]]
        block = ParamsBlock.of([ModelParams(h=float(h), k=float(k))])
        weights = measurement.weight_block(meas.rows[None])
        axes = optimizer.maximize_over_policies(block, *weights)[2]
        # each component over the length, in Python float arithmetic
        lengths = [math.sqrt(x * x + y * y + z * z) for x, y, z in axes[0].tolist()]
        assert printed == [[c / r for c in axis] for axis, r in zip(axes[0].tolist(), lengths)]
        for axis in printed:
            assert abs(math.sqrt(sum(c * c for c in axis)) - 1.0) <= 4e-16
        own += sum(axis != list(analytic.Y_AXIS) for axis in printed)
    assert own == searched


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


# a two-outcome POVM with phases (m, l and delta per outcome, alpha = pi/2)
PHASED_POVM = {
    "outcomes": [
        {"m": 0.6, "l": 0.3, "alpha": math.pi / 2.0, "delta": 0.4},
        {"m": 0.7, "l": math.sqrt(0.06), "alpha": math.pi / 2.0, "delta": 1.1},
    ]
}


# a Hamiltonian that overflows, a closed form that divides by zero, a brute-force route that
# loses its phase accuracy at huge t or whose phases overflow, and an expectation whose
# rounding leaves an imaginary residue above 1e-12 give no verified number: exit 1
@pytest.mark.parametrize(
    "argv",
    [
        "report --h 1e8 --k 1 --povm builtin:projective",
        "report --h 1e160 --k 1e160 --povm builtin:projective",
        "evolve --h 1 --k 1 --povm builtin:projective --t-max 1e12 --points 4",
        "report --h 1e6 --k 1e6 --povm {phased}",
        "evolve --h 1 --k 1 --povm builtin:projective --t-max 1e308 --points 4",
    ],
)
def test_numeric_failure_exits_one_without_traceback(capsys, recwarn, tmp_path, argv):
    phased = tmp_path / "phased.json"
    phased.write_text(json.dumps(PHASED_POVM))
    code, out, err = run_cli(capsys, *argv.format(phased=phased).split())
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1
    assert not recwarn.list, [str(w.message) for w in recwarn.list]


def test_running_out_of_memory_exits_one_without_traceback(capsys, monkeypatch):
    message = "Unable to allocate 1.82 TiB for an array with shape (500000, 500000)"

    def exhausted(args):
        raise MemoryError(message)

    monkeypatch.setattr(cli, "cmd_report", exhausted)
    argv = ["report", "--h", "1", "--k", "1", "--povm", "builtin:projective"]
    assert run_cli(capsys, *argv) == (1, "", f"error: out of memory ({message})\n")


def test_unknown_subcommand(capsys):
    code, _, _ = run_cli(capsys, "frobnicate")
    assert code == 2


# in this order in one process, each call prints what it prints as the first
# call of a fresh interpreter: a report, a usage error, a 6-outcome weights
# search, the default 2 outcomes back, a policy search with no --povm, a verify
REUSE_CALLS = [
    "report --h 0.8 --k 2.1 --povm builtin:weak(0.3)",
    "report --h 0.8 --k 2.1",
    "optimize --h 0.8 --k 2.1 --over weights --n-outcomes 6",
    "optimize --h 0.8 --k 2.1 --over weights",
    "optimize --h 0.8 --k 2.1 --over policy",
    "verify --ensemble 0",
]


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps usage lines to the terminal width
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    procs = [
        subprocess.Popen(
            [sys.executable, "-m", "minqet.cli", *argv.split()],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for argv in REUSE_CALLS
    ]
    fresh = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        fresh.append((proc.returncode, out, err))
    assert [code for code, _, _ in fresh] == [0, 2, 0, 0, 2, 0]
    assert [len(json.loads(fresh[i][1])["weights"]) for i in (2, 3)] == [6, 2]
    assert fresh[4][2] == "error: optimize --over policy needs --povm\n"

    assert run_cli(capsys, *REUSE_CALLS[0].split()) == fresh[0]
    # the parser is built by now, and reused: a rebuild would fail from here on
    monkeypatch.setattr(cli, "build_parser", None)
    for argv, expected in zip(REUSE_CALLS[1:], fresh[1:]):
        assert run_cli(capsys, *argv.split()) == expected, argv

    # a command runs by its name at call time, so a rebound cmd_* is the one that runs
    seen = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: seen.append(args.povm) or 0)
    assert run_cli(capsys, *REUSE_CALLS[0].split()) == (0, "", "")
    assert seen == ["builtin:weak(0.3)"]
