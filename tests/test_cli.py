"""End-to-end tests for the command-line interface: spec parsing, output
formatting, exit codes, and file side effects."""

import json
import math
import subprocess
import sys

import numpy as np
import pytest

from bfslab import (
    Lp,
    StepFunction,
    counting,
    norm,
    step_from_json,
    step_to_json,
    unit_interval,
)
from bfslab.cli import main


def run_cli(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


# ---------------------------------------------------------------------------
# norm


def test_norm_of_unit_indicator_prints_one(capsys):
    rc, out, _ = run_cli(capsys, "norm", "lp:2", "indicator:1", "--grid", "unit:32")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "value = 1"
    assert lines[1] == "kind  = exact"


def test_norm_prints_twelve_significant_digits(capsys):
    rc, out, _ = run_cli(capsys, "norm", "lp:2", "powerfn:0.3", "--grid", "unit:32")
    assert rc == 0
    ms = unit_interval(32)
    t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
    want = norm(Lp(2.0), StepFunction(ms, t**-0.3)).value
    assert out.splitlines()[0] == f"value = {format(want, '.12g')}"


def test_norm_json_output(capsys):
    rc, out, _ = run_cli(capsys, "norm", "lp:2", "indicator:1", "--grid", "unit:16", "--json")
    assert rc == 0
    payload = json.loads(out)
    assert payload["value"] == pytest.approx(1.0, rel=1e-12)
    assert payload["kind"] == "exact"
    assert isinstance(payload["notes"], list)


def test_norm_respects_the_grid_env_default(capsys, monkeypatch):
    monkeypatch.setenv("BFSLAB_GRID_N", "16")
    rc, out16, _ = run_cli(capsys, "norm", "lp:2", "powerfn:0.5")
    assert rc == 0
    ms = unit_interval(16)
    t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
    want = norm(Lp(2.0), StepFunction(ms, t**-0.5)).value
    assert out16.splitlines()[0] == f"value = {format(want, '.12g')}"
    monkeypatch.setenv("BFSLAB_GRID_N", "64")
    _, out64, _ = run_cli(capsys, "norm", "lp:2", "powerfn:0.5")
    assert out64.splitlines()[0] != out16.splitlines()[0]


def test_recursive_space_specs(capsys):
    rc, out, _ = run_cli(capsys, "norm", "conv:2:lp:2", "indicator:0.25", "--grid", "unit:32")
    assert rc == 0
    # Convexifying L^2 by 2 gives L^4: indicator norm 0.25**(1/4).
    assert float(out.splitlines()[0].split("=")[1]) == pytest.approx(0.25**0.25, rel=1e-10)
    rc, out, _ = run_cli(capsys, "norm", "dual:lp:3", "indicator:1", "--grid", "unit:16")
    assert rc == 0


def test_space_spec_from_json_file(capsys, tmp_path):
    from bfslab import space_to_json

    path = tmp_path / "space.json"
    path.write_text(json.dumps(space_to_json(Lp(2.0))))
    rc, out, _ = run_cli(capsys, "norm", f"@{path}", "indicator:1", "--grid", "unit:16")
    assert rc == 0
    assert out.splitlines()[0] == "value = 1"


# ---------------------------------------------------------------------------
# exit codes


def test_unknown_specs_exit_two(capsys):
    assert run_cli(capsys, "norm", "bogus:1", "indicator:1")[0] == 2
    assert run_cli(capsys, "norm", "lp:2", "mystery:1")[0] == 2
    assert run_cli(capsys, "norm", "lp:2", "indicator:1", "--grid", "torus:3")[0] == 2
    assert run_cli(capsys, "young", "eval", "--phi", "power,1,2")[0] == 2  # missing --at
    assert run_cli(capsys, "indices")[0] == 2


def test_missing_files_exit_two(capsys):
    assert run_cli(capsys, "norm", "@/nonexistent/space.json", "indicator:1")[0] == 2
    assert run_cli(capsys, "norm", "lp:2", "@/nonexistent/step.json")[0] == 2


def test_argparse_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as err:
        main(["norm"])  # missing positional arguments
    assert err.value.code == 2
    capsys.readouterr()


def test_unknown_suite_is_a_compute_error(capsys):
    rc, _, err = run_cli(capsys, "verify", "--suite", "definitely_not_a_suite")
    assert rc == 1
    assert "unknown suite" in err


# ---------------------------------------------------------------------------
# young calculus


def test_young_eval_inverse(capsys):
    rc, out, _ = run_cli(capsys, "young", "eval", "--phi", "power,1,2", "--at", "3")
    assert rc == 0 and out.strip() == "9"
    rc, out, _ = run_cli(capsys, "young", "inverse", "--phi", "power,1,2", "--at", "4")
    assert rc == 0 and out.strip() == "2"


def test_young_oplus_of_two_squares_at_four_prints_eight(capsys):
    rc, out, _ = run_cli(
        capsys, "young", "oplus", "--phi1", "power,1,2", "--phi2", "power,1,2", "--at", "4"
    )
    assert rc == 0
    assert out.strip() == "8"


def test_young_ominus(capsys):
    rc, out, _ = run_cli(
        capsys, "young", "ominus", "--phi1", "power,1,1", "--phi2", "power,1,2", "--at", "2"
    )
    assert rc == 0
    assert float(out.strip()) == pytest.approx(1.0, rel=1e-9)


def test_young_relation_exit_codes(capsys):
    rc, out, _ = run_cli(
        capsys,
        "young",
        "relation",
        "--phi1",
        "power,1,4",
        "--phi2",
        "power,1,4",
        "--phi",
        "power,1,2",
    )
    assert rc == 0
    cert = json.loads(out)
    assert cert["holds"] is True
    assert cert["D"] == pytest.approx(1.0, rel=1e-9)
    rc, out, _ = run_cli(
        capsys,
        "young",
        "relation",
        "--phi1",
        "power,1,1",
        "--phi2",
        "power,1,1",
        "--phi",
        "shifted,1,1,1",
    )
    assert rc == 1
    cert = json.loads(out)
    assert cert["holds"] is False
    assert cert["witness_u"] is not None


# ---------------------------------------------------------------------------
# product and factorize


def test_product_reports_witness_and_writes_file(capsys, tmp_path):
    wfile = tmp_path / "wit.json"
    rc, out, _ = run_cli(
        capsys,
        "product",
        "lp:3",
        "lp:6",
        "powerfn:0.2",
        "--grid",
        "unit:32",
        "--witness",
        str(wfile),
    )
    assert rc == 0
    value = float(out.splitlines()[0].split("=")[1])
    assert any(line.startswith("witness: method=closed_form") for line in out.splitlines())
    data = json.loads(wfile.read_text())
    # Round trip: the stored factors certify the printed value.
    assert data["product"] == pytest.approx(value, rel=1e-9)
    assert data["norm_x"] * data["norm_y"] == pytest.approx(value, rel=1e-9)
    x = step_from_json(data["x"])
    y = step_from_json(data["y"])
    ms = unit_interval(32)
    t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
    assert np.allclose(x.values * y.values, t**-0.2, rtol=1e-9)


def test_factorize_within_epsilon_exits_zero(capsys):
    # 0.25 is an exact breakpoint of the geometric unit grid, so the
    # indicator does not snap and the mass is exactly 0.25.
    rc, out, _ = run_cli(capsys, "factorize", "lp:1.5", "indicator:0.25", "--grid", "unit:32")
    assert rc == 0
    assert out.splitlines()[0] == "product = 0.25"
    assert "not_within_epsilon" not in out


def test_factorize_not_within_epsilon_exits_one(capsys, tmp_path):
    rng = np.random.default_rng(99)
    ms = counting(12)
    z = StepFunction(ms, rng.uniform(0.1, 2.0, 12))
    zfile = tmp_path / "z.json"
    zfile.write_text(json.dumps(step_to_json(z)))
    rc, out, _ = run_cli(capsys, "factorize", "lambda:0.6", f"@{zfile}", "--eps", "1e-14")
    assert rc == 1
    assert "not_within_epsilon" in out
    # The floor still holds: the reported product cannot undercut the mass.
    product = float(out.splitlines()[0].split("=")[1])
    l1 = norm(Lp(1.0), z).value
    assert product >= l1 * (1 - 1e-9)


# ---------------------------------------------------------------------------
# multiplier and indices


def test_multiplier_table_and_numeric(capsys):
    rc, out, _ = run_cli(capsys, "multiplier", "lp:inf", "lp:2", "indicator:1", "--grid", "unit:16")
    assert rc == 0
    assert out.splitlines()[0] == "value = 1"
    rc, out, _ = run_cli(
        capsys, "multiplier", "lp:6", "lp:1.5", "indicator:8", "--grid", "count:8", "--no-table"
    )
    assert rc == 0
    # Numeric path is a certified lower bound on the exact value 8**0.5.
    got = float(out.splitlines()[0].split("=")[1])
    assert got <= math.sqrt(8.0) * (1 + 1e-9)
    assert got >= math.sqrt(8.0) * 0.98


def test_indices_of_a_power_weight(capsys):
    rc, out, _ = run_cli(capsys, "indices", "--phi", "0.5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("dilation: lower=0.5 upper=0.5")
    assert lines[1].startswith("simonenko: lower=0.5 upper=0.5")


def test_indices_of_a_space(capsys):
    rc, out, _ = run_cli(capsys, "indices", "--space", "lp:2")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0].startswith("boyd: lower=0.5 upper=0.5")
    assert any(line.startswith("norm[H]:") for line in lines)
    assert any(line.startswith("norm[H*]:") for line in lines)


# ---------------------------------------------------------------------------
# verify


def test_verify_list_prints_registry(capsys):
    rc, out, _ = run_cli(capsys, "verify", "--list")
    assert rc == 0
    names = out.split()
    assert "holder_rogers" in names
    assert len(names) >= 15


def test_verify_single_suite_with_reports(capsys, tmp_path):
    report = tmp_path / "report.json"
    flat = tmp_path / "flat.csv"
    rc, out, _ = run_cli(
        capsys,
        "verify",
        "--suite",
        "holder_rogers",
        "--seed",
        "7",
        "--report",
        str(report),
        "--csv",
        str(flat),
    )
    assert rc == 0
    assert out.splitlines()[0].startswith("holder_rogers: PASS (")
    assert "total:" in out.splitlines()[-1]
    payload = json.loads(report.read_text())
    assert payload[0]["suite"] == "holder_rogers"
    assert payload[0]["summary"]["failed"] == 0
    header = flat.read_text().splitlines()[0]
    assert header == "suite,index,lhs,rhs,constant,tolerance,pass,inputs"


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "bfslab.cli", "young", "oplus", "--phi1", "power,1,2", "--phi2", "power,1,2", "--at", "4"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "8"
