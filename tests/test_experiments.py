import json
import math
from fractions import Fraction

import numpy as np
import pytest

from hypwalk import experiments as E
from hypwalk import polynomials, stats
from hypwalk import words as W
from hypwalk.cli import write_outputs
from hypwalk.config import build_measure, build_model, run_config
from hypwalk.cremona import CremonaModel
from hypwalk.errors import BadPrimeSignal, InputError
from hypwalk.finitegroups import Automorphism, FiniteGroup, cyclic_automorphism
from hypwalk.freegroup import FreeGroupOracle, SemidirectOracle
from hypwalk.presets import preset_config
from hypwalk.walk import MAX_BAD_PRIME_ATTEMPTS, FiniteMeasure, fold_words, sample_path


def uniform_free(rank=2):
    oracle = FreeGroupOracle(rank)
    atoms = []
    for g in range(1, rank + 1):
        atoms.append((W.word_to_str((g,)), (g,), Fraction(1, 2 * rank)))
        atoms.append((W.word_to_str((-g,)), (-g,), Fraction(1, 2 * rank)))
    return FiniteMeasure(oracle, atoms, attest_non_elementary=True)


def z3_semidirect(invert_action=True):
    z3 = FiniteGroup.cyclic(3)
    first = cyclic_automorphism(3, 2) if invert_action else Automorphism.identity(z3)
    model = SemidirectOracle(2, z3, [first, Automorphism.identity(z3)])
    atoms = [
        ("a", model.element((1,)), Fraction(1, 4)),
        ("A", model.element((-1,)), Fraction(1, 4)),
        ("b", model.element((2,)), Fraction(1, 4)),
        ("B", model.element((-2,)), Fraction(1, 4)),
    ]
    return FiniteMeasure(model, atoms, attest_non_elementary=True)


def exact_speed_oracle(rank: int, n: int) -> float:
    """Independent drift oracle: the distance from the root is a birth-death
    chain on the nonnegative integers (up with probability (2k-1)/2k, down
    with 1/2k, reflected at 0); dynamic programming gives E d(x, w_n x)."""
    up = (2 * rank - 1) / (2 * rank)
    dist = [0.0] * (n + 1)
    dist[0] = 1.0
    for _ in range(n):
        nxt = [0.0] * (n + 1)
        for m, mass in enumerate(dist):
            if mass == 0.0:
                continue
            if m == 0:
                nxt[1] += mass
            else:
                nxt[m + 1] += mass * up
                nxt[m - 1] += mass * (1 - up)
        dist = nxt
    return sum(m * mass for m, mass in enumerate(dist)) / n


def test_drift_against_markov_oracle():
    measure = uniform_free(2)
    n, trials = 400, 200
    result = E.estimate_drift(measure, n, trials, seed=1001)
    exact = exact_speed_oracle(2, n)
    se = result.aggregates["speed_se"]
    assert abs(result.aggregates["mean_speed"] - exact) <= 4 * se
    assert result.aggregates["truncated_fraction"] == 0.0


def test_drift_f3_speed_two_thirds():
    measure = uniform_free(3)
    result = E.estimate_drift(
        measure, 500, 100, seed=1002, expected=2 / 3, tolerance=0.03
    )
    assert result.passed


def test_drift_point_mass_degenerate():
    oracle = FreeGroupOracle(2)
    point = FiniteMeasure(oracle, [("a", (1,), Fraction(1))])
    result = E.estimate_drift(point, 100, 30, seed=1003, expected=1.0, tolerance=1e-9)
    assert result.passed
    assert result.aggregates["mean_speed"] == 1.0


def test_drift_requires_enough_trials():
    with pytest.raises(InputError):
        E.estimate_drift(uniform_free(), 50, 10, seed=1)


def test_translation_growth_tree():
    measure = uniform_free()
    result = E.translation_growth(measure, [100, 300], 60, seed=1004)
    assert result.passed
    # tau <= displacement pathwise, and residual identically zero on a tree
    for n in ("100", "300"):
        agg = result.aggregates["per_n"][n]
        assert agg["mean_tau_over_n"] <= agg["mean_speed"] + 1e-12
        assert agg["max_abs_residual"] == 0.0


def test_translation_growth_deterministic_word():
    oracle = FreeGroupOracle(2)
    point = FiniteMeasure(oracle, [("a", (1,), Fraction(1))])
    result = E.translation_growth(point, [50], 40, seed=1005)
    assert result.aggregates["per_n"]["50"]["mean_tau_over_n"] == 1.0


def test_gromov_tail_thresholds():
    measure = uniform_free()
    result = E.gromov_tail(measure, [50, 150], 300, seed=1006, epsilon=0.1)
    assert result.passed
    meds = [
        result.aggregates["per_n"][str(n)]["median_sym_gp"] for n in (50, 150)
    ]
    assert all(m <= 3 for m in meds)  # the product is stochastically bounded


def test_gromov_tail_epsilon_validation():
    with pytest.raises(InputError):
        E.gromov_tail(uniform_free(), [10], 40, seed=1, epsilon=1.5)


def test_shadow_decay_small():
    measure = uniform_free()
    result = E.shadow_decay(measure, [1, 2, 3], 30000, seed=1007)
    assert result.passed
    agg = result.aggregates["per_m"]["1"]
    assert abs(agg["frequency"] - 0.25) < 0.02
    assert agg["exact"] == 0.25


def multi_letter_f3():
    oracle = FreeGroupOracle(3)
    atoms = [(w, W.str_to_word(w), Fraction(1, 4)) for w in ("ab", "BA", "c", "C")]
    return FiniteMeasure(oracle, atoms, attest_non_elementary=True)


def atom_letters(measure, index):
    element = measure.atoms[index].element
    return element.word if isinstance(measure.oracle, SemidirectOracle) else element


@pytest.mark.parametrize("make", [uniform_free, multi_letter_f3, z3_semidirect])
def test_fold_words_matches_reduce_letters(make):
    measure = make()
    steps, marks = 60, [1, 2, 17, 60]
    indices = np.vstack([measure.increment_indices(steps, 9, t) for t in range(48)])
    folded = fold_words(measure, indices, marks)
    for mark, (stack, length) in zip(marks, folded):
        assert stack.shape[1] == length.max()
        for row in range(len(indices)):
            letters = [
                letter
                for index in indices[row, :mark]
                for letter in atom_letters(measure, index)
            ]
            got = tuple(stack[row, : length[row]].tolist())
            assert got == W.reduce_letters(letters)


@pytest.mark.parametrize("make", [multi_letter_f3, z3_semidirect])
def test_shadow_decay_matches_prefix_check(make):
    # no preset runs shadow decay on multi-letter atoms or on the semidirect
    # model: check its hit counts against a letter-by-letter reduction of the
    # same streams
    measure = make()
    settle, samples, chunk = 8, 300, 128
    result = E.shadow_decay(
        measure, [1, 2, 3], samples, seed=21, settle_steps=settle, chunk=chunk
    )
    assert result.passed is None  # not the uniform measure: no exact law
    expected = []
    for mark, m in enumerate([1, 2, 3]):
        target = tuple((1, 2)[i % 2] for i in range(m))
        for chunk_id, start in enumerate(range(0, samples, chunk)):
            batch = min(chunk, samples - start)
            indices = measure.increment_indices(
                (m + settle) * batch, 21, (mark << 32) | chunk_id
            ).reshape(batch, m + settle)
            hits = sum(
                W.reduce_letters(
                    [letter for i in row for letter in atom_letters(measure, i)]
                )[:m]
                == target
                for row in indices
            )
            expected.append((m, chunk_id, hits))
    got = [(r["n"], r["trial"], r["hits"]) for r in result.records]
    assert got == expected
    assert sum(hits for _, _, hits in got) > 0


def test_match_census_kinds():
    measure = uniform_free()
    axis = E.match_census(
        "axis", measure, seed=1008, trials=80, n=300,
        axis_core=W.str_to_word("ab"), L=4,
    )
    assert axis.aggregates["frequency"] > 0.9  # short matches are generic
    non = E.match_census("non", measure, seed=1009, trials=80, n=300)
    assert non.passed
    series = [non.aggregates["per_s"][str(s)]["frequency"] for s in (10, 20, 30)]
    assert series == sorted(series, reverse=True)
    self_result = E.match_census("self", measure, seed=1010, trials=80, n_grid=[60, 120])
    assert self_result.passed


def test_match_census_validation():
    with pytest.raises(InputError):
        E.match_census("axis", uniform_free(), seed=1, trials=10, n=50)
    with pytest.raises(InputError):
        E.match_census("bogus", uniform_free(), seed=1, trials=10, n=50)


def test_stab_acylindricity_tree_and_kernel():
    measure = uniform_free()
    result = E.stab_acylindricity(measure, 0, [40, 120], 60, seed=1011)
    assert result.passed
    for n in ("40", "120"):
        assert result.aggregates["per_n"][n]["max_count"] == 1  # free action

    semidirect = z3_semidirect()
    result = E.stab_acylindricity(semidirect, 0, [40, 120], 50, seed=1012)
    assert result.passed
    for n in ("40", "120"):
        assert result.aggregates["per_n"][n]["quantile_count"] == 3  # |A| fixes x


def test_small_cancellation_certificates():
    ab10 = W.power(W.str_to_word("ab"), 10)
    cert = E.small_cancellation_certificate(ab10, A=1.0, epsilon=0.01)
    assert cert.tau == 20 and cert.delta == 0 and cert.certified and cert.passed
    aab = W.str_to_word("aab")
    cert = E.small_cancellation_certificate(aab, A=1.0, epsilon=0.1)
    assert cert.tau == 3 and cert.delta == 1 and not cert.passed
    cert = E.small_cancellation_certificate(aab, A=1.0, epsilon=0.5)
    assert cert.passed  # 1 <= 0.5 * 3
    with pytest.raises(InputError):
        E.small_cancellation_certificate(W.str_to_word("aA"), 1.0, 0.1)


def test_small_cancellation_experiment_runs():
    measure = uniform_free()
    result = E.small_cancellation_experiment(measure, 400, 40, seed=1013, epsilon=0.1)
    assert result.aggregates["loxodromic_frequency"] == 1.0
    assert 0.0 <= result.aggregates["pass_frequency"] <= 1.0


def test_characteristic_index_experiment():
    measure = z3_semidirect()
    result = E.characteristic_index_experiment(measure, [10, 50], 3000, seed=1014)
    assert result.aggregates["characteristic_index"] == 2
    for n in ("10", "50"):
        agg = result.aggregates["per_n"][n]
        assert abs(agg["trivial_frequency"] - 0.5) <= 0.03
        assert agg["kth_power_frequency"] == 1.0
    assert result.passed

    control = z3_semidirect(invert_action=False)
    result = E.characteristic_index_experiment(control, [10, 50], 500, seed=1015)
    assert result.aggregates["characteristic_index"] == 1
    assert result.params["kernel_central"] is True
    for n in ("10", "50"):
        assert result.aggregates["per_n"][n]["trivial_frequency"] == 1.0
    assert result.passed


def test_characteristic_index_requires_reversible():
    z3 = FiniteGroup.cyclic(3)
    model = SemidirectOracle(
        2, z3, [cyclic_automorphism(3, 2), Automorphism.identity(z3)]
    )
    one_sided = FiniteMeasure(
        model,
        [("a", model.element((1,)), Fraction(1, 2)),
         ("b", model.element((2,)), Fraction(1, 2))],
    )
    with pytest.raises(InputError):
        E.characteristic_index_experiment(one_sided, [10], 100, seed=1)


def test_cremona_exactness_experiment():
    result = E.cremona_exactness()
    assert result.passed
    assert result.aggregates["sigma_degree"] == 2
    assert result.aggregates["henon_degrees"] == [2, 4, 8, 16, 32, 64]


def test_degree_growth_point_mass_exact():
    model = CremonaModel()
    pm = FiniteMeasure(model, [("h2", model.henon(2), Fraction(1))])
    result = E.degree_growth_experiment(
        pm, [1, 2, 3, 4], 2, seed=1016, iterate_budget=None
    )
    assert result.passed
    for n in (1, 2, 3, 4):
        agg = result.aggregates["per_n"][str(n)]
        assert agg["mean_log_deg_rate"] == pytest.approx(math.log(2), abs=1e-12)


def test_degree_growth_retries_bad_primes():
    # at the tiny primes 3 and 5 some compositions disagree in degree, so
    # trials are respawned at fresh primes; the dynamical-degree subsample
    # follows a retried trial to its primes, and an estimate that meets a
    # bad prime is retried at fresh primes too, so every trial gets the
    # lambda rate the default primes give
    def run(primes):
        config = preset_config("degree-growth-cremona")
        config["params"].update({"n_grid": [2, 4], "trials": 6, "iterate_budget": 2})
        if primes is not None:
            config["model"]["primes"] = primes
        return run_config(config)

    tiny = run([3, 5])
    good = run(None)
    top = [r for r in tiny.records if r["n"] == 4]
    assert len(top) == 6 and not any(r["truncated"] for r in top)
    retried = {r["trial"] for r in tiny.records if r.get("prime_retries", 0) >= 1}
    assert retried
    assert tiny.aggregates["retried_trials"] == len(retried)
    reference = {(r["trial"], r["n"]): r for r in good.records}
    for r in tiny.records:
        if r["trial"] in retried:
            assert r["degree"] == reference[r["trial"], r["n"]]["degree"]
    for r in top:
        assert r["lambda_rate"] == reference[r["trial"], 4]["lambda_rate"]
    assert tiny.aggregates["lambda_track"] == good.aggregates["lambda_track"]


def _cremona_measure(degree_cap=None, primes=None):
    config = preset_config("degree-growth-cremona")
    if degree_cap is not None:
        config["model"]["degree_cap"] = degree_cap
    if primes is not None:
        config["model"]["primes"] = primes
    model = build_model(config["model"])
    return build_measure(model, config["measure"])


def test_degree_growth_lambda_gives_up_after_retries(monkeypatch):
    calls = []

    def always_bad(model, f, budget):
        calls.append(model.primes)
        raise BadPrimeSignal("injected")

    measure = _cremona_measure()
    monkeypatch.setattr(E, "dynamical_degree_estimate", always_bad)
    result = E.degree_growth_experiment(measure, [2], trials=2, seed=5)
    for r in result.records:
        assert r["lambda_skipped"] == "bad_prime"
    # each trial tries the base primes, then fresh pairs of its own retry
    # stream; no fresh pair repeats
    assert len(calls) == 2 * MAX_BAD_PRIME_ATTEMPTS
    assert len(set(calls)) == 1 + 2 * (MAX_BAD_PRIME_ATTEMPTS - 1)


def test_degree_growth_discard_reaches_report(monkeypatch, tmp_path):
    # every gcd check fails, so every attempt of every trial meets a bad
    # prime and the walk discards the trial after MAX_BAD_PRIME_ATTEMPTS
    measure = _cremona_measure()
    monkeypatch.setattr(polynomials, "_divides_all", lambda g, polys: False)
    path = sample_path(measure, 3, 5, 0)
    assert path.discarded and path.prime_retries == MAX_BAD_PRIME_ATTEMPTS
    result = E.degree_growth_experiment(measure, [2, 3], trials=2, seed=5)
    assert not result.passed
    assert any(f.startswith("resource:") for f in result.failures)
    write_outputs(result, {"experiment": "degree_growth"}, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())["result"]
    assert report["records"] == [
        {"trial": t, "n": n, "truncated": True, "truncation_reason": "discarded"}
        for t in (0, 1)
        for n in (2, 3)
    ]
    assert report["aggregates"]["truncated_fraction"] == 1.0


def test_degree_growth_cap_truncation_reaches_report(tmp_path):
    # at degree cap 8, trials 0-2 of seed 1 pass the cap between n = 2 and
    # n = 6; their rows say so, unlike the rows of a discarded trial
    measure = _cremona_measure(degree_cap=8)
    result = E.degree_growth_experiment(measure, [2, 6], trials=4, seed=1)
    write_outputs(result, {"experiment": "degree_growth"}, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())["result"]
    top = [r for r in report["records"] if r["n"] == 6]
    assert top[:3] == [
        {"trial": t, "n": 6, "truncated": True, "truncation_reason": "degree_cap"}
        for t in (0, 1, 2)
    ]
    assert not top[3]["truncated"] and "truncation_reason" not in top[3]
    assert all(not r["truncated"] for r in report["records"] if r["n"] == 2)
    assert report["aggregates"]["truncated_fraction"] == 0.75


def test_degree_growth_lambda_at_degree_cap():
    # trial 8 of seed 3 ends at degree 4 (so 4^2 <= 16 and it is iterable),
    # but a suffix product of its square passes the cap: the estimate is
    # skipped as "cap" instead of aborting the run
    measure = _cremona_measure(degree_cap=16)
    result = E.degree_growth_experiment(measure, [2, 4], trials=9, seed=3)
    row = next(r for r in result.records if r["trial"] == 8 and r["n"] == 4)
    assert not row["truncated"] and row["degree"] == 4
    assert row["lambda_skipped"] == "cap"
    assert result.aggregates["lambda_track"]["subsample"] > 0


def test_gromov_tail_retries_bad_primes():
    # at the primes 3 and 5, composing w^-1 w^-1 for the symmetric Gromov
    # product of trial 0 meets a degree disagreement; the row is retried at
    # fresh primes instead of aborting the run, and gives the default
    # primes' value
    tiny = E.gromov_tail(_cremona_measure(primes=[3, 5]), [2, 4], 2, seed=1)
    good = E.gromov_tail(_cremona_measure(), [2, 4], 2, seed=1)
    assert not any(r["truncated"] for r in tiny.records)
    assert tiny.records == good.records


def test_gromov_tail_gives_up_after_retries(monkeypatch):
    calls = []

    def always_bad(self, g, h):
        calls.append(self.primes)
        raise BadPrimeSignal("injected")

    monkeypatch.setattr(CremonaModel, "pairwise_distance", always_bad)
    rows = E._generic_observable_rows(_cremona_measure(), [2], 5, 2)
    assert rows == [
        {"trial": t, "n": 2, "truncated": True, "truncation_reason": "bad_prime"}
        for t in (0, 1)
    ]
    assert len(calls) == 2 * MAX_BAD_PRIME_ATTEMPTS
    assert len(set(calls)) == 1 + 2 * (MAX_BAD_PRIME_ATTEMPTS - 1)


def test_reproducibility_and_aggregate_audit():
    measure = uniform_free()
    a = E.estimate_drift(measure, 200, 40, seed=77)
    b = E.estimate_drift(measure, 200, 40, seed=77)
    assert a.records == b.records
    assert a.aggregates == b.aggregates
    assert a.recompute_aggregates() == a.aggregates

    tail = E.gromov_tail(measure, [30, 60], 100, seed=78)
    assert tail.recompute_aggregates() == tail.aggregates


def test_parallel_serial_equivalence():
    measure = uniform_free()
    runs = [
        lambda jobs: E.translation_growth(measure, [50, 100], 24, seed=79, jobs=jobs),
        lambda jobs: E.match_census(
            "axis", measure, seed=81, trials=7, n=60,
            axis_core=W.str_to_word("ab"), L=4, jobs=jobs,
        ),
        lambda jobs: E.match_census("non", measure, seed=82, trials=7, n=60, jobs=jobs),
        lambda jobs: E.match_census(
            "self", measure, seed=83, trials=7, n_grid=[20, 40], jobs=jobs
        ),
        lambda jobs: E.stab_acylindricity(
            z3_semidirect(), 1, [10, 30], 7, seed=84, jobs=jobs
        ),
        lambda jobs: E.small_cancellation_experiment(
            measure, 60, 7, seed=85, jobs=jobs
        ),
    ]
    for run in runs:
        serial, parallel = run(1), run(2)
        assert serial.records == parallel.records
        assert serial.aggregates == parallel.aggregates


def test_csv_tracks_sorted():
    measure = uniform_free()
    result = E.translation_growth(measure, [20, 40], 10, seed=80)
    tracks = result.csv_tracks()
    assert set(tracks) == {"d", "tau", "sym_gp"}
    rows = tracks["tau"]
    assert rows == sorted(rows, key=lambda r: (r[0], r[1]))


def test_stats_helpers():
    assert stats.mean([1, 2, 3]) == 2.0
    assert stats.median([3, 1, 2]) == 2
    assert stats.median([4, 1, 2, 3]) == 2.5
    assert stats.empirical_quantile([5, 1, 3], 0.99) == 5
    lo, hi = stats.wilson_interval(0, 100, 1.96)
    assert lo == 0.0 and hi < 0.05
    assert stats.least_squares_slope([0, 1, 2], [1, 3, 5]) == pytest.approx(2.0)
    with pytest.raises(InputError):
        stats.wilson_interval(5, 0, 1.0)
