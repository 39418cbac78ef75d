"""Tests for the check-suite runner: registry, determinism, report
shapes, and a couple of cheap suites run end to end."""

import csv
import io
import json
import math
import zlib

import numpy as np
import pytest

from bfslab import (
    LorentzLambda,
    Marcinkiewicz,
    MarcinkiewiczStar,
    Power,
    PowerWeight,
    ShiftedPower,
    StepFunction,
    SuiteConfig,
    half_line,
    inverse,
    norm,
    oplus,
    product_norm,
    registered_suites,
    report_to_csv,
    report_to_json,
    run_all,
    run_suite,
)


def _strip_timestamp(report) -> dict:
    data = report_to_json(report)
    data.pop("timestamp")
    return data


def test_registry_is_nonempty_and_sorted_names_are_stable():
    names = registered_suites()
    assert len(names) >= 15
    assert "holder_rogers" in names
    assert "reverse_chebyshev" in names
    assert "hardy_identity" in names


def test_unknown_suite_lists_the_registry():
    with pytest.raises(ValueError) as err:
        run_suite("no_such_suite")
    msg = str(err.value)
    assert "no_such_suite" in msg
    assert "holder_rogers" in msg


def test_empty_suite_refuses_a_vacuous_pass():
    with pytest.raises(RuntimeError, match="vacuous"):
        run_suite("reverse_chebyshev", instances=0)


def test_same_seed_same_report():
    a = run_suite("reverse_chebyshev", seed=7, instances=40)
    b = run_suite("reverse_chebyshev", seed=7, instances=40)
    assert _strip_timestamp(a) == _strip_timestamp(b)


def test_different_seed_changes_the_data_not_the_verdict():
    a = run_suite("holder_rogers", seed=7)
    b = run_suite("holder_rogers", seed=8)
    assert a.passed and b.passed
    assert _strip_timestamp(a) != _strip_timestamp(b)


def test_cheap_suites_pass_end_to_end():
    for name in ("holder_rogers", "reverse_chebyshev", "hardy_identity"):
        rep = run_suite(name, seed=7)
        assert rep.passed, rep.summary
        assert rep.summary["failed"] == 0
        assert rep.summary["total"] == len(rep.instances)


def test_instance_and_config_shapes():
    rep = run_suite("holder_rogers", seed=11)
    data = report_to_json(rep)
    assert data["suite"] == "holder_rogers"
    assert data["config"]["seed"] == 11
    assert isinstance(data["timestamp"], str)
    for inst in data["instances"]:
        assert set(inst) == {"inputs", "lhs", "rhs", "constant", "tolerance", "pass"}
        assert isinstance(inst["pass"], bool)
        # Everything in inputs must already be JSON-serializable.
        json.dumps(inst["inputs"])


def test_config_overrides_are_recorded():
    rep = run_suite("reverse_chebyshev", seed=3, instances=10, grid_n=12)
    assert rep.config["instances"] == 10
    assert rep.config["grid_n"] == 12
    assert len(rep.instances) == 10


def test_explicit_config_object_wins_over_kwargs():
    cfg = SuiteConfig(suite="reverse_chebyshev", seed=5, instances=7)
    rep = run_suite("reverse_chebyshev", config=cfg)
    assert rep.config["seed"] == 5
    assert len(rep.instances) == 7


def test_config_renamed_to_requested_suite():
    cfg = SuiteConfig(suite="something_else", seed=5, instances=7)
    rep = run_suite("reverse_chebyshev", config=cfg)
    assert rep.suite == "reverse_chebyshev"
    assert rep.config["suite"] == "reverse_chebyshev"


def test_csv_rows_match_instances():
    reports = [run_suite("holder_rogers", seed=7), run_suite("reverse_chebyshev", seed=7, instances=5)]
    text = report_to_csv(reports)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["suite", "index", "lhs", "rhs", "constant", "tolerance", "pass", "inputs"]
    body = rows[1:]
    assert len(body) == sum(len(r.instances) for r in reports)
    suites = {row[0] for row in body}
    assert suites == {"holder_rogers", "reverse_chebyshev"}
    # The inputs column must parse back as JSON.
    for row in body:
        json.loads(row[7])


def test_run_all_honours_the_name_filter():
    reports = run_all(seed=7, names=["holder_rogers", "reverse_chebyshev"], instances=10)
    assert [r.suite for r in reports] == ["holder_rogers", "reverse_chebyshev"]
    assert all(r.passed for r in reports)


def test_theorem10_constants_match_a_direct_recomputation():
    # Oracle for the shared two-sided runner: redraw each part's profiles
    # from the suite's seed scheme and recompute both ratio maxima.
    seed, n, count = 7, 8, 2
    rep = run_suite("theorem10", seed=seed, grid_n=n, instances=count)
    ms = half_line(n)
    opts = {"max_sweeps": 300, "quick_sweeps": 25, "golden_iters": 10}
    a, b = 0.3, 0.7
    parts = {
        "a": (LorentzLambda(PowerWeight(a)), MarcinkiewiczStar(PowerWeight(b - a)), LorentzLambda(PowerWeight(b))),
        "b": (Marcinkiewicz(PowerWeight(a)), MarcinkiewiczStar(PowerWeight(b - a)), Marcinkiewicz(PowerWeight(b))),
        "c": (Marcinkiewicz(PowerWeight(a)), LorentzLambda(PowerWeight(b - a)), LorentzLambda(PowerWeight(b))),
    }
    assert [inst["inputs"]["part"] for inst in rep.instances] == list(parts)
    for inst in rep.instances:
        E, F, T = parts[inst["inputs"]["part"]]
        key = zlib.crc32(inst["inputs"]["part"].encode()) % 100_000
        ups, dns = [], []
        for i in range(count):
            rng = np.random.default_rng([seed, zlib.crc32(b"theorem10"), key + i])
            t = np.maximum(ms.breakpoints[1:], ms.breakpoints[1] * 0.5)
            gamma = rng.uniform(0.05, 0.25)
            vals = t**-gamma * np.exp(-np.cumsum(rng.exponential(0.12, size=n)))
            z = StepFunction(ms, vals / float(np.sum(vals * ms.widths)))
            p = product_norm(E, F, z, opts=opts)[0].value
            q = norm(T, z).value
            ups.append(p / q)
            dns.append(q / p)
        c_up, c_dn = max(ups), max(dns)
        assert inst["lhs"] == c_up
        assert inst["rhs"] == c_dn
        assert inst["constant"] == [c_up, c_dn]
        assert inst["tolerance"] == 50.0
        assert inst["pass"] is (c_up <= 50.0 and c_dn <= 50.0)
        assert math.isfinite(c_up) and math.isfinite(c_dn)


def test_oplus_sandwich_matches_the_scalar_loop():
    # Oracle for the suite's array calls: the scalar inverse and phi calls,
    # one t at a time, with Python's max, which skips a NaN term
    rep = run_suite("oplus_sandwich", seed=7)
    pairs = {
        "squares": (Power(1.0, 2.0), Power(1.0, 2.0)),
        "linear_square": (Power(1.0, 1.0), Power(1.0, 2.0)),
        "mixed_powers": (Power(1.0, 3.0), Power(1.0, 1.5)),
        "shifted": (ShiftedPower(1.0, 0.5, 2.0), Power(1.0, 2.0)),
    }
    assert [inst["inputs"]["pair"] for inst in rep.instances] == list(pairs)
    ts = np.geomspace(1e-6, 1e6, 512)
    for inst in rep.instances:
        p1, p2 = pairs[inst["inputs"]["pair"]]
        ph = oplus(p1, p2)
        worst = 0.0
        for t in ts:
            mid = inverse(p1, t) * inverse(p2, t)
            if not (0.0 < mid < math.inf):
                continue
            worst = max(worst, (t - ph(mid * (1 + 1e-9))) / t, (ph(mid * (1 - 1e-9)) - 2.0 * t) / (2.0 * t))
        assert inst["lhs"] == worst
        assert inst["inputs"]["samples"] == 512
        assert inst["pass"] is (worst <= 1e-6)
