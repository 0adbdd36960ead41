"""Acceptance suite: every shipped guarantee at its declared scale.

Each test drives the same configuration documents the CLI presets use, runs
them through the full pipeline, and checks the declared tolerance, printing
one PASS/FAIL line per criterion (run with ``pytest -s`` to see them).
"""

import math
import time

import pytest

from hypwalk import words as W
from hypwalk.config import run_config
from hypwalk.experiments import small_cancellation_certificate
from hypwalk.presets import preset_config


def _report(criterion: str, ok: bool, detail: str):
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="module")
def drift_result():
    return run_config(preset_config("drift-f2"))


@pytest.fixture(scope="module")
def translation_result():
    return run_config(preset_config("translation-growth-f2"))


def test_criterion_1_cremona_exactness():
    start = time.monotonic()
    result = run_config(preset_config("sigma-involution"))
    elapsed = time.monotonic() - start
    ok = result.passed and elapsed < 10.0
    _report(
        "criterion 1 (exact Cremona algebra)",
        ok,
        f"sigma^2 = id, deg sigma = 2, henon degrees "
        f"{result.aggregates['henon_degrees']}, {elapsed:.1f}s",
    )
    assert result.passed
    assert result.aggregates["henon_degrees"] == [2 ** k for k in range(1, 7)]
    assert elapsed < 10.0


def test_criterion_2_drift(drift_result):
    start = time.monotonic()
    result = run_config(preset_config("drift-f2"))  # timed fresh run
    elapsed = time.monotonic() - start
    mean = result.aggregates["mean_speed"]
    ok = abs(mean - 0.5) <= 0.02 and elapsed < 30.0
    _report(
        "criterion 2 (drift 1/2)",
        ok,
        f"mean d/n = {mean:.4f} (target 0.5 +- 0.02), {elapsed:.1f}s",
    )
    assert result.passed and ok


def test_criterion_3_translation_growth(drift_result, translation_result):
    drift_mean = drift_result.aggregates["mean_speed"]
    tau_mean = translation_result.aggregates["per_n"]["2000"]["mean_tau_over_n"]
    gap = abs(tau_mean - drift_mean)
    ok = gap <= 0.03
    _report(
        "criterion 3 (translation length ~ drift)",
        ok,
        f"mean tau/n = {tau_mean:.4f}, drift = {drift_mean:.4f}, gap {gap:.4f} <= 0.03",
    )
    assert translation_result.passed
    assert ok


def test_criterion_4_gromov_product_sublinearity():
    result = run_config(preset_config("gromov-sublinearity-f2"))
    freqs = {
        n: result.aggregates["per_n"][str(n)]["tail_frequency"]
        for n in (100, 500, 2000)
    }
    ok = all(f <= 0.01 for f in freqs.values())
    _report(
        "criterion 4 (Gromov product sublinearity)",
        ok,
        f"tail frequencies {freqs} all <= 0.01 over 10^4 trials per n",
    )
    assert result.passed and ok


def test_criterion_5_shadow_decay():
    result = run_config(preset_config("shadow-decay-f2"))
    slope = result.aggregates["decay_slope"]
    in_band = {}
    for m in range(1, 6):
        agg = result.aggregates["per_m"][str(m)]
        lo, hi = agg["wilson_band"]
        in_band[m] = lo <= agg["exact"] <= hi
    slope_ok = abs(slope + math.log(3)) <= 0.1 * math.log(3)
    ok = all(in_band.values()) and slope_ok
    _report(
        "criterion 5 (shadow decay)",
        ok,
        f"exact harmonic measures inside 3-sigma Wilson bands: {in_band}; "
        f"slope {slope:.4f} vs -log 3 = {-math.log(3):.4f}",
    )
    assert result.passed and ok


def test_criterion_6a_axis_match():
    result = run_config(preset_config("match-axis-f2"))
    freq = result.aggregates["frequency"]
    ok = freq >= 0.95
    _report(
        "criterion 6a (axis matching, L = 10, n = 500)",
        ok,
        f"frequency {freq:.4f} vs threshold 0.95 "
        "(see README's \"Known red check\" paragraph: unattainable at these "
        "parameters; a (10, 0)-match needs roughly n >= 10^5 on the rank-2 tree)",
    )
    assert ok, (
        f"axis-match frequency {freq:.4f} < 0.95 at L=10, n=500; "
        "the stated calibration is unattainable (README, \"Known red check\")"
    )


def test_criterion_6b_non_matching():
    result = run_config(preset_config("match-non-f2"))
    freqs = [
        result.aggregates["per_s"][str(s)]["frequency"] for s in (10, 20, 30)
    ]
    ok = result.passed and freqs[-1] <= 0.05
    _report(
        "criterion 6b (non-matching)",
        ok,
        f"pattern frequencies {freqs} non-increasing, last <= 0.05",
    )
    assert ok


def test_criterion_6c_self_matching():
    result = run_config(preset_config("match-self-f2"))
    freqs = [
        result.aggregates["per_n"][str(n)]["frequency"] for n in (100, 300, 500)
    ]
    ok = result.passed
    _report(
        "criterion 6c (self-matching)",
        ok,
        f"self-match frequencies {freqs} non-increasing in n",
    )
    assert ok


def test_criterion_7_asymptotic_acylindricality():
    result = run_config(preset_config("acylindricity-f2"))
    quantiles = {
        n: result.aggregates["per_n"][str(n)]["quantile_count"]
        for n in (50, 200, 800)
    }
    ok = result.passed and len(set(quantiles.values())) == 1
    _report(
        "criterion 7 (asymptotic acylindricality)",
        ok,
        f"99%-quantile census counts {quantiles} identical across the grid",
    )
    assert ok


def test_criterion_8_small_cancellation():
    ab10 = W.power(W.str_to_word("ab"), 10)
    cert = small_cancellation_certificate(ab10, A=1.0, epsilon=0.1)
    hand_ok = cert.tau == 20 and cert.delta == 0 and cert.certified and cert.passed
    aab = small_cancellation_certificate(W.str_to_word("aab"), A=1.0, epsilon=0.1)
    hand_ok = hand_ok and aab.delta >= 1

    result = run_config(preset_config("small-cancellation-f2"))
    freq = result.aggregates["pass_frequency"]
    ok = hand_ok and freq >= 0.95
    _report(
        "criterion 8 (small cancellation genericity)",
        ok,
        f"tau((ab)^10) = {cert.tau}, Delta = {cert.delta}; Delta(aab) = "
        f"{aab.delta}; pass frequency {freq:.3f} >= 0.95",
    )
    assert result.passed and ok


def test_criterion_9_characteristic_index():
    result = run_config(preset_config("char-index-z3"))
    k = result.aggregates["characteristic_index"]
    freqs = {
        n: result.aggregates["per_n"][str(n)]["trivial_frequency"]
        for n in (10, 100, 1000)
    }
    control = run_config(preset_config("char-index-z3-control"))
    control_ok = (
        control.aggregates["characteristic_index"] == 1
        and control.params["kernel_central"] is True
        and all(
            control.aggregates["per_n"][str(n)]["trivial_frequency"] == 1.0
            for n in (10, 100, 1000)
        )
    )
    ok = (
        k == 2
        and all(abs(f - 0.5) <= 0.03 for f in freqs.values())
        and control_ok
    )
    _report(
        "criterion 9 (characteristic index)",
        ok,
        f"k = {k}; trivial-image frequencies {freqs} (exact value 1/2); "
        f"trivial-action control gives k = 1 with frequency 1: {control_ok}",
    )
    assert result.passed and control.passed and ok


def test_criterion_10_cremona_degree_growth():
    start = time.monotonic()
    henon = run_config(preset_config("degree-growth-henon"))
    henon_rates = [
        henon.aggregates["per_n"][str(n)]["mean_log_deg_rate"]
        for n in range(1, 9)
    ]
    henon_ok = all(abs(r - math.log(2)) < 1e-12 for r in henon_rates)

    mixed = run_config(preset_config("degree-growth-cremona"))
    elapsed = time.monotonic() - start
    rates = {
        n: mixed.aggregates["per_n"][str(n)]["mean_log_deg_rate"]
        for n in (2, 4, 6, 8)
    }
    track = mixed.aggregates["lambda_track"]
    ok = (
        henon_ok
        and mixed.passed
        and all(r > 0 for r in rates.values())
        and track["gap"] <= 0.2
        and mixed.aggregates["two_prime_agreement"] == 1.0
        and elapsed < 300.0
    )
    _report(
        "criterion 10 (Cremona degree growth)",
        ok,
        f"henon point mass: rate log 2 exactly for n <= 8 ({henon_ok}); "
        f"mixed rates {({k: round(v, 3) for k, v in rates.items()})} positive; "
        f"dynamical-degree gap {track['gap']:.3f} <= 0.2 on subsample of "
        f"{track['subsample']}; two-prime agreement "
        f"{mixed.aggregates['two_prime_agreement']:.0%}; {elapsed:.0f}s < 300s",
    )
    assert henon.passed and henon_ok
    assert mixed.passed and ok
