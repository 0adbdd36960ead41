import hashlib
import json
import math
import pickle
from fractions import Fraction
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypwalk import experiments as E
from hypwalk import cremona, polynomials, stats
from hypwalk import words as W
from hypwalk.cli import write_outputs
from hypwalk.config import build_measure, build_model, run_config
from hypwalk.cremona import CremonaModel, MonomialMap, MonomialModel
from hypwalk.errors import BadPrimeSignal, InputError, ParamError, ResourceError
from hypwalk.finitegroups import Automorphism, FiniteGroup, cyclic_automorphism
from hypwalk.freegroup import FreeGroupOracle, SemidirectOracle
from hypwalk.polynomials import HomPoly3
from hypwalk.presets import preset_config
from hypwalk.walk import (
    MAX_BAD_PRIME_ATTEMPTS,
    FiniteMeasure,
    fold_words,
    retry_primes,
    sample_path,
)


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
    return measure.oracle.tree_word(measure.atoms[index].element)


def f127_extremes():
    """Letters ±1 and ±127: the fold's floor letter, -128, is the least
    int8, so the stack is int8 and a cancelling -127 sits one above it."""
    oracle = FreeGroupOracle(127)
    atoms = [(f"x{g}", (g,), Fraction(1, 4)) for g in (1, -1, 127, -127)]
    return FiniteMeasure(oracle, atoms, attest_non_elementary=True)


def _check_fold(measure, indices, marks):
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
    return folded


@pytest.mark.parametrize(
    "make", [uniform_free, multi_letter_f3, z3_semidirect, f127_extremes]
)
def test_fold_words_matches_reduce_letters(make):
    measure = make()
    # marks on both sides of the fold's 64-step letter blocks
    steps, marks = 150, [1, 2, 17, 63, 64, 65, 150]
    indices = np.vstack([measure.increment_indices(steps, 9, t) for t in range(48)])
    _check_fold(measure, indices, marks)
    _check_fold(measure, indices[:1], marks)  # one walk


def test_fold_floor_letter_is_the_least_int8():
    measure = f127_extremes()
    indices = np.vstack([measure.increment_indices(300, 4, t) for t in range(16)])
    ((stack, length),) = _check_fold(measure, indices, [300])
    assert stack.dtype == np.int8
    assert set(np.unique(stack[0, : length[0]])) <= {1, -1, 127, -127}


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


def test_axis_match_counts_a_conjugate_like_its_cyclic_core():
    # the axis of abA is the a-translate of the axis of b; matched against
    # the unreduced line abA abA ..., no reduced path word ever matched
    conjugate, core = (
        E.match_census(
            "axis", uniform_free(), seed=5, trials=60, n=200,
            axis_core=W.str_to_word(word), L=4,
        )
        for word in ("abA", "b")
    )
    assert conjugate.records == core.records
    assert conjugate.aggregates == core.aggregates
    assert conjugate.aggregates["frequency"] > 0.2
    assert conjugate.params["axis_core"] == "abA"


def _henon_point_mass():
    model = CremonaModel()
    return FiniteMeasure(model, [("h2", model.henon(2), Fraction(1))])


def test_match_census_validation():
    with pytest.raises(InputError):
        E.match_census("axis", uniform_free(), seed=1, trials=10, n=50)
    with pytest.raises(InputError):
        E.match_census("bogus", uniform_free(), seed=1, trials=10, n=50)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda m: E.gromov_tail(m, [], 10, seed=1), "n_grid: must be a nonempty list"),
        (lambda m: E.match_census("non", m, seed=1, trials=0, n=10), "trials: must be"),
        (lambda m: E.estimate_drift(m, 0, 40, seed=1), "n: must be an integer >= 1"),
        (lambda m: E.shadow_decay(m, [1, 0], 100, seed=1), "m_grid: must be"),
        (lambda m: E.match_census("self", m, seed=1, trials=5, n_grid=()), "n_grid:"),
        (
            lambda m: E.estimate_drift(m, 10, 40, seed=1, tolerance=math.nan),
            "tolerance: must be a finite number",
        ),
        (lambda m: E.estimate_drift(m, 10, 40, seed=1, expected=math.inf), "expected:"),
        (lambda m: E.gromov_tail(m, [10], 40, seed=1, epsilon=-math.inf), "epsilon:"),
        (
            lambda m: E.shadow_decay(m, [1], 100, seed=1, wilson_z=np.float32("nan")),
            "wilson_z: must be a finite number",
        ),
        # numpy raised a bare ValueError at -10, and -1 read m - 1 steps
        (
            lambda m: E.shadow_decay(m, [1, 5], 100, seed=1, settle_steps=-10),
            "settle_steps: must be >= 0",
        ),
        (
            lambda m: E.shadow_decay(m, [1, 5], 100, seed=1, settle_steps=-1),
            "settle_steps: must be >= 0",
        ),
        # pattern[:20] of a length-10 pattern would be reported under s = 20
        (
            lambda m: E.match_census("non", m, seed=1, trials=5, n=50, pattern_length=10),
            "pattern_length: 10 is shorter than the largest s in s_grid (30)",
        ),
        # the other arguments an entry point checks itself name their field
        (
            lambda m: E.match_census("bogus", m, seed=1, trials=5, n=50),
            "kind: unknown matching census kind 'bogus'",
        ),
        (lambda m: E.gromov_tail(m, [10], 40, seed=1, epsilon=1.5), "epsilon: must lie"),
        (
            lambda m: E.estimate_drift(m, 10, 29, seed=1),
            "trials: drift estimation needs at least 30",
        ),
        (
            lambda m: E.match_census("axis", m, seed=1, trials=5, n=50),
            "axis_core: axis matching needs it",
        ),
        (
            lambda m: E.match_census("axis", m, seed=1, trials=5, axis_core=(1, 2)),
            "n: axis matching needs it",
        ),
        (lambda m: E.match_census("non", m, seed=1, trials=5), "n: non matching"),
        (lambda m: E.match_census("self", m, seed=1, trials=5), "n_grid: self matching"),
        # an elliptic core has no axis: rejected before the first trial
        (
            lambda m: E.match_census("axis", m, seed=1, trials=5, n=50, axis_core=()),
            "axis_core: must be loxodromic",
        ),
        (
            lambda m: E.match_census("axis", m, seed=1, trials=5, n=50, axis_core=(1, -1)),
            "axis_core: must be loxodromic",
        ),
        # at the parent a bad quantile raised only after every trial had run
        (
            lambda m: E.stab_acylindricity(m, 0, [10], 5, seed=1, quantile=1.5),
            "quantile: must lie in (0, 1]",
        ),
        (lambda m: E.stab_acylindricity(m, -1, [10], 5, seed=1), "K: must be >= 0"),
        (
            lambda m: E.match_census("axis", m, seed=1, trials=5, n=50, axis_core=(1,), L=0),
            "L: must be an integer >= 1",
        ),
        # a fraction outside (0, 1/2] passed with no self match to find
        *[
            (
                lambda m, f=f: E.match_census(
                    "self", m, seed=1, trials=5, n_grid=[20], self_match_fraction=f
                ),
                "self_match_fraction: must lie in (0, 1/2]",
            )
            for f in (2.0, -0.5, 0.0)
        ],
        (
            lambda m: E.degree_growth_experiment(
                _henon_point_mass(), [2], 2, seed=1, iterate_budget=1
            ),
            "iterate_budget: the dynamical-degree budget must be >= 2",
        ),
        (
            lambda m: E.translation_growth(_henon_point_mass(), [2], 2, seed=1, tau_budget=0),
            "tau_budget: must be an integer >= 1",
        ),
        (
            lambda m: E.degree_growth_experiment(_henon_point_mass(), [3, 3], 2, seed=1),
            "n_grid: must not repeat an entry",
        ),
        (lambda m: E.shadow_decay(m, [2, 2], 100, seed=1), "m_grid: must not repeat"),
        # the JSON types a config is checked against hold for a call too:
        # unchecked, the first passed its gate, the second raised TypeError
        # after the last trial, and the last two ran
        (
            lambda m: E.estimate_drift(m, 50, 30, seed=1, tolerance="x"),
            "tolerance: must be a number",
        ),
        (
            lambda m: E.estimate_drift(m, 50, 30, seed=1, expected="0.5"),
            "expected: must be a number or null",
        ),
        (
            lambda m: E.gromov_tail(m, [10], 5, seed=1, threshold=None),
            "threshold: must be a number",
        ),
        (lambda m: E.cremona_exactness("6"), "henon_power_budget: must be an integer"),
        (lambda m: E.cremona_exactness(0), "henon_power_budget: must be an integer >= 1"),
        # None leaves out only an argument whose default is None
        (
            lambda m: E.gromov_tail(m, None, 5, seed=1),
            "n_grid: must be a nonempty list of integers >= 1",
        ),
    ],
)
def test_direct_calls_check_counts_and_grids(monkeypatch, call, message):
    # the bounds a config is validated against hold for a call from Python,
    # before any walk; unchecked, the first two crashed with IndexError and
    # ZeroDivisionError
    def walked(*args):
        raise AssertionError("a walk ran before the check")

    monkeypatch.setattr(FiniteMeasure, "increment_indices", walked)
    with pytest.raises(ParamError) as info:
        call(uniform_free())
    assert str(info.value).startswith(message)


class _Walked(Exception):
    """Raised by the first walk step: the arguments were accepted."""


@pytest.mark.parametrize(
    "call",
    [
        lambda m: E.stab_acylindricity(m, np.int64(2), [10], 5, seed=np.int64(1)),
        lambda m: E.estimate_drift(m, 50, 30, seed=1, tolerance=np.float32(0.05)),
        lambda m: E.estimate_drift(m, 50, 30, seed=1, expected=Fraction(1, 2)),
    ],
)
def test_direct_calls_accept_numeric_scalars(monkeypatch, call):
    # a numbers.Integral is an integer and a numbers.Real a number
    def walked(*args):
        raise _Walked

    monkeypatch.setattr(FiniteMeasure, "increment_indices", walked)
    with pytest.raises(_Walked):
        call(uniform_free())


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


def _linear_point_mass():
    model = CremonaModel()
    return FiniteMeasure(model, [("L", model.linear([1, 1, 0, 0, 1, 0, 0, 0, 1]), 1)])


def _henon_point_mass():
    model = CremonaModel()
    return FiniteMeasure(model, [("h2", model.henon(2), 1)])


def _shadow_result(hits_samples, slope_rtol):
    """The uniform F2 shadow_decay gate on synthetic (hits, samples) at
    m = 1, 2, ..., inside each Wilson band at z = 3."""
    params = {"m_grid": list(range(1, len(hits_samples) + 1)), "rank": 2,
              "uniform": True, "wilson_z": 3.0}
    records = [
        {"trial": 0, "n": m, "hits": hits, "samples": samples}
        for m, (hits, samples) in enumerate(hits_samples, 1)
    ]
    return E._result(
        "shadow_decay", params, 1, records, {"wilson_z": 3.0, "slope_rtol": slope_rtol}
    )


# Gates that fail on synthetic records only: a row holding pattern[:s] or its
# inverse holds every shorter prefix too, so real non-match frequencies never
# increase in s.
@pytest.mark.parametrize(
    "run, failures",
    [
        (
            lambda: E.shadow_decay(
                uniform_free(), [1, 2], 400, seed=5, wilson_z=0.01, slope_rtol=0.01
            ),
            [
                "m=1: exact measure 0.250000 outside the 0.01-sigma Wilson band "
                "(0.232289, 0.232711)",
                "m=2: exact measure 0.083333 outside the 0.01-sigma Wilson band "
                "(0.094853, 0.095147)",
                "fitted decay slope -0.8950 deviates more than 1% from -1.0986",
            ],
        ),
        (
            lambda: _shadow_result([(25, 100), (8, 100)], slope_rtol=0.001),
            ["fitted decay slope -1.1394 deviates more than 0.1% from -1.0986"],
        ),
        (
            lambda: _shadow_result([(0, 10), (0, 10)], slope_rtol=0.01),
            ["no decay slope: fewer than two m with positive frequency"],
        ),
        (
            lambda: E.match_census(
                "non", uniform_free(), seed=3, trials=20, n=40, s_grid=[2, 4],
                non_match_threshold=0.01,
            ),
            ["non-match frequency 0.3000 at s=4 exceeds 0.01"],
        ),
        (
            lambda: E._result(
                "match_census_non",
                {"s_grid": [2, 4]},
                1,
                [{"pattern_s2": 0, "pattern_s4": 1}, {"pattern_s2": 0, "pattern_s4": 0}],
                {"non_match_threshold": 1.0},
            ),
            ["non-match frequencies [0.0, 0.5] not non-increasing in s"],
        ),
        (
            lambda: E._result(
                "match_census_self",
                {"n_grid": [10, 20]},
                1,
                [{"n": 10, "self_match": 0}, {"n": 20, "self_match": 1}],
            ),
            ["self-match frequencies [0.0, 1.0] not non-increasing in n"],
        ),
        (
            lambda: E._result(
                "characteristic_index",
                {"n_grid": [10], "characteristic_index": 1, "kernel_central": False},
                1,
                [{"n": 10, "image_trivial": 1}],
                {"frequency_tolerance": 0.03},
            ),
            ["characteristic index 1 must coincide with a central kernel"],
        ),
        (
            lambda: E.degree_growth_experiment(
                _linear_point_mass(), [1, 2], 2, seed=1, iterate_budget=None
            ),
            [
                "mean log-degree rate not positive at n=1",
                "mean log-degree rate not positive at n=2",
            ],
        ),
        (
            lambda: E.degree_growth_experiment(
                _henon_point_mass(), [1, 2], 2, seed=1, lambda_degree_bound=1
            ),
            ["resource: dynamical-degree subsample is empty"],
        ),
    ],
    ids=[
        "shadow-band-and-slope", "shadow-slope-tight", "shadow-no-slope",
        "match-non-threshold", "match-non-increasing",
        "match-self-increasing", "char-index-central", "degree-rate-not-positive",
        "degree-subsample-empty",
    ],
)
def test_gate_failures_name_what_failed(run, failures):
    result = run()
    assert result.failures == failures and result.passed is False


def test_small_cancellation_counts_an_elliptic_endpoint():
    # at n = 2 the walk returns to the root whenever its letters cancel
    result = E.small_cancellation_experiment(uniform_free(), 2, 20, seed=1)
    elliptic = {"tau": 0, "delta": -1, "pass": 0, "loxodromic": 0}
    assert any(
        {k: r[k] for k in elliptic} == elliptic for r in result.records
    )
    assert result.aggregates["loxodromic_frequency"] == 0.7


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
    assert result.passed

    control = z3_semidirect(invert_action=False)
    result = E.characteristic_index_experiment(control, [10, 50], 500, seed=1015)
    assert result.aggregates["characteristic_index"] == 1
    assert result.params["kernel_central"] is True
    for n in ("10", "50"):
        assert result.aggregates["per_n"][n]["trivial_frequency"] == 1.0
    assert result.passed


def _klein_four_semidirect():
    """F2 acting on the Klein four-group V through Aut(V) = S3: a swaps two
    involutions and b cycles all three, so the image group is non-abelian
    and k = 6."""
    v4 = FiniteGroup(tuple(tuple(g ^ h for h in range(4)) for g in range(4)), "V4")
    model = SemidirectOracle(
        2, v4, [Automorphism((0, 2, 1, 3)), Automorphism((0, 2, 3, 1))]
    )
    atoms = [
        ("a", model.element((1,)), Fraction(1, 4)),
        ("A", model.element((-1,)), Fraction(1, 4)),
        ("b", model.element((2,)), Fraction(1, 4)),
        ("B", model.element((-2,)), Fraction(1, 4)),
    ]
    return FiniteMeasure(model, atoms, attest_non_elementary=True)


def test_table_fold_matches_the_conjugation_of_the_product(monkeypatch):
    # oracle: the conjugation action on the kernel of w_n = g_1 ... g_n,
    # multiplied out by SemidirectOracle.multiply
    measure = _klein_four_semidirect()
    model = measure.oracle
    marks, seed = [1, 4, 7, 20], 1016
    expected = {}
    for trial in range(11):
        w = model.identity()
        for step, atom in enumerate(measure.increment_indices(marks[-1], seed, trial), 1):
            w = model.multiply(w, measure.atoms[atom].element)
            expected[trial, step] = model.conjugation_on_kernel(w).images

    atom_images = [model.conjugation_on_kernel(a.element) for a in measure.atoms]
    elements, table = E._image_table(atom_images, model.torsion_group)
    assert len(elements) == 6
    monkeypatch.setattr(E, "_FOLD_TRIALS", 3)  # trials 2..10 in three blocks
    rows = E._tree_trial_rows(
        measure, marks, seed, 2, 11, lambda image, n: {"image": image},
        fold=partial(E._table_fold, table),
    )
    assert [(r["trial"], r["n"]) for r in rows] == [
        (t, n) for t in range(2, 11) for n in marks
    ]
    assert len({r["image"] for r in rows}) > 1  # the walk leaves the identity
    for r in rows:
        assert elements[r["image"]] == expected[r["trial"], r["n"]]

    result = E.characteristic_index_experiment(measure, marks, 11, seed=seed)
    assert result.aggregates["characteristic_index"] == 6
    assert [(r["n"], r["trial"]) for r in result.records] == [
        (n, t) for n in marks for t in range(11)
    ]
    for r in result.records:
        assert r["image_trivial"] == int(expected[r["trial"], r["n"]] == elements[0])


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


def _golden_configs():
    yield "sigma-involution", preset_config("sigma-involution")
    yield "degree-growth-henon", preset_config("degree-growth-henon")
    # the config of test_degree_growth_retries_bad_primes at primes [3, 5]:
    # it retries both walks and dynamical-degree estimates
    config = preset_config("degree-growth-cremona")
    config["params"].update({"n_grid": [2, 4], "trials": 6, "iterate_budget": 2})
    config["model"]["primes"] = [3, 5]
    yield "degree-growth-cremona-primes-3-5", config


# sha256 of each report.json: the retry path keeps these reports byte for byte
_GOLDEN_REPORTS = {
    "sigma-involution": "a47cce48c4d4df99f4a4b2fac89f568a278b163591afd9db3198416c768e95ae",
    "degree-growth-henon": "2830b9977540c14e1170796b6383376943665aa54d6ad79b86c6ef1568860e09",
    "degree-growth-cremona-primes-3-5": (
        "480b71b3b367c13813cebc6bdd0d20bed9938dd98cda273a63de355d4af1186d"
    ),
}


@pytest.mark.parametrize("name, config", list(_golden_configs()))
def test_retry_path_reports_keep_their_bytes(name, config, tmp_path):
    write_outputs(run_config(config), config, tmp_path)
    digest = hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest()
    assert digest == _GOLDEN_REPORTS[name]


def _cremona_measure(degree_cap=None, primes=None):
    config = preset_config("degree-growth-cremona")
    if degree_cap is not None:
        config["model"]["degree_cap"] = degree_cap
    if primes is not None:
        config["model"]["primes"] = primes
    model = build_model(config["model"])
    return build_measure(model, config["measure"])


def _fail_every_gcd_check(patch):
    """Every gcd check fails.  gcd3's trial division rejects every gcd, and
    every group gcd (a letter step's pairs, a composed triple) goes through
    gcd3, so the check is met also by the groups that group_gcds proves
    coprime without it."""

    def through_gcd3(polys, groups):
        out = []
        for group in groups:
            quotients = []
            members = [polys[k] for k in group]
            zeros = [HomPoly3.zero(members[0].degree, members[0].p)] * (3 - len(group))
            common = polynomials.gcd3(*members, *zeros, quotients)
            out.append((common, *quotients[: len(group)]))
        return out

    for module in (cremona, polynomials):
        patch.setattr(module, "group_gcds", through_gcd3)
    patch.setattr(polynomials, "_divides_all", lambda g, polys: False)


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
    # prime and the walk discards the trial after MAX_BAD_PRIME_ATTEMPTS;
    # the round trip through pickle empties the model's memo, as in
    # test_cremona_drift_rows_name_their_truncation_reason
    measure = _cremona_measure()
    _fail_every_gcd_check(monkeypatch)
    measure = pickle.loads(pickle.dumps(measure))
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
    for n in ("2", "3"):
        assert report["aggregates"]["per_n"][n] == {
            "mean_log_deg_rate": None,
            "rate_se": None,
            "trials_used": 0,
        }
    assert "no untruncated trials at n=2" in result.failures
    assert "no untruncated trials at n=3" in result.failures


def test_two_prime_agreement_counts_discarded_trials(monkeypatch):
    # trial 1 alone meets a failing gcd check at every attempt and is
    # discarded; the other three agree across primes.  Trial 1 walks a copy
    # of the measure whose model's memo is empty, so that it cannot take
    # the states trial 0 composed.
    measure = _cremona_measure()
    walk = E.sample_path

    def discard_trial_one(measure, n, seed, trial, **options):
        if trial != 1:
            return walk(measure, n, seed, trial, **options)
        with monkeypatch.context() as patch:
            _fail_every_gcd_check(patch)
            return walk(pickle.loads(pickle.dumps(measure)), n, seed, trial, **options)

    monkeypatch.setattr(E, "sample_path", discard_trial_one)
    result = E.degree_growth_experiment(measure, [2, 3], trials=4, seed=5)
    discarded = [r for r in result.records if r.get("truncation_reason") == "discarded"]
    assert {(r["trial"], r["n"]) for r in discarded} == {(1, 2), (1, 3)}
    assert result.aggregates["two_prime_agreement"] == 0.75


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
    rows = E.gromov_tail(_cremona_measure(), [2], 2, seed=5).records
    assert rows == [
        {"trial": t, "n": 2, "truncated": True, "truncation_reason": "bad_prime"}
        for t in (0, 1)
    ]
    assert len(calls) == 2 * MAX_BAD_PRIME_ATTEMPTS
    assert len(set(calls)) == 1 + 2 * (MAX_BAD_PRIME_ATTEMPTS - 1)


@pytest.mark.parametrize("experiment", [E.gromov_tail, E.translation_growth])
def test_all_truncated_mark_reports_null_statistics(experiment, monkeypatch, tmp_path):
    def always_bad(self, g, h):
        raise BadPrimeSignal("injected")

    monkeypatch.setattr(CremonaModel, "pairwise_distance", always_bad)
    result = experiment(_cremona_measure(), [2], 2, seed=5)
    assert all(r["truncation_reason"] == "bad_prime" for r in result.records)
    assert set(result.aggregates["per_n"]["2"].values()) == {None}
    assert result.failures == ["no untruncated trials at n=2"] and not result.passed
    assert result.recompute_aggregates() == result.aggregates
    write_outputs(result, {"experiment": result.name}, tmp_path)
    report = json.loads((tmp_path / "report.json").read_text())["result"]
    assert set(report["aggregates"]["per_n"]["2"].values()) == {None}


def test_generic_rows_name_their_truncation_reason(monkeypatch):
    def reason(rows):
        return {r["truncation_reason"] for r in rows}

    # the walk itself passes the degree cap
    capped = _cremona_measure(degree_cap=4)
    assert sample_path(capped, 4, 5, 0).truncated_at is not None
    assert reason(E.gromov_tail(capped, [4], 1, seed=5).records) == {"degree_cap"}

    # the observable passes the cap after the walk succeeded
    def over_cap(self, g, h):
        raise ResourceError("injected")

    with monkeypatch.context() as patch:
        patch.setattr(CremonaModel, "pairwise_distance", over_cap)
        assert reason(E.gromov_tail(_cremona_measure(), [2], 1, seed=5).records) == {
            "degree_cap"
        }

    # every gcd check fails, so the walk discards the trial
    measure = _cremona_measure()
    _fail_every_gcd_check(monkeypatch)
    assert reason(E.gromov_tail(measure, [3], 1, seed=5).records) == {"discarded"}


def test_cremona_gromov_tail_walks_each_trial_once(monkeypatch):
    # n_grid [2, 4, 6, 8] walks each trial once, 8 steps, where a walk per
    # mark would take 2 + 4 + 6 + 8 = 20
    draws = []
    increments = FiniteMeasure.increment_indices

    def recording(self, n, seed, trial):
        draws.append((trial, n))
        return increments(self, n, seed, trial)

    measure = _cremona_measure()
    monkeypatch.setattr(FiniteMeasure, "increment_indices", recording)
    result = E.gromov_tail(measure, [2, 4, 6, 8], 2, seed=20260810)
    assert draws == [(0, 8), (1, 8)]
    assert [(r["trial"], r["n"]) for r in result.records] == [
        (t, n) for t in (0, 1) for n in (2, 4, 6, 8)
    ]


def test_generic_rows_come_from_the_rewalk_after_a_late_bad_prime(monkeypatch):
    # the third step of trial 0 meets a bad prime at the base primes, so the
    # whole trial is walked again at the first fresh pair of its retry
    # stream; the row at mark 2, reached before the bad prime, comes from
    # that re-walk too
    measure = _cremona_measure()
    clean = E.gromov_tail(measure, [2, 4], 1, seed=5).records
    base = measure.oracle.primes
    multiply = CremonaModel.multiply
    pushes = []

    def bad_third_push(self, g, h):
        if self.primes == base:
            pushes.append(g)
            if len(pushes) == 3:
                raise BadPrimeSignal("injected")
        return multiply(self, g, h)

    observed = []
    distance = CremonaModel.pairwise_distance

    def recording(self, g, h):
        observed.append(self.primes)
        return distance(self, g, h)

    monkeypatch.setattr(CremonaModel, "multiply", bad_third_push)
    monkeypatch.setattr(CremonaModel, "pairwise_distance", recording)
    assert E.gromov_tail(measure, [2, 4], 1, seed=5).records == clean
    assert len(pushes) == 3
    assert observed == [next(retry_primes(5, 0))] * 2


def test_observable_retries_continue_past_the_walks_retry_pairs(monkeypatch):
    # the walk of trial 0 meets a bad prime at its third step at the base
    # primes and succeeds at fresh pair 0; the symmetric Gromov product then
    # fails at every attempt, so it runs on the walk's pair 0 and moves on
    # to pairs 1 and 2, never back to the base primes
    measure = _cremona_measure()
    base = measure.oracle.primes
    multiply = CremonaModel.multiply
    pushes = []

    def bad_third_push(self, g, h):
        if self.primes == base:
            pushes.append(g)
            if len(pushes) == 3:
                raise BadPrimeSignal("injected")
        return multiply(self, g, h)

    observed = []

    def always_bad(self, g, h):
        observed.append(self.primes)
        raise BadPrimeSignal("injected")

    monkeypatch.setattr(CremonaModel, "multiply", bad_third_push)
    monkeypatch.setattr(CremonaModel, "pairwise_distance", always_bad)
    rows = E.gromov_tail(measure, [4], 1, seed=5).records
    assert rows == [
        {"trial": 0, "n": 4, "truncated": True, "truncation_reason": "bad_prime"}
    ]
    assert len(pushes) == 3
    fresh = retry_primes(5, 0)
    assert observed == [next(fresh) for _ in range(MAX_BAD_PRIME_ATTEMPTS)]
    assert base not in observed


def _monomial_measure(*matrices):
    weight = Fraction(1, len(matrices))
    return FiniteMeasure(
        MonomialModel(), [(str(m), MonomialMap(*m), weight) for m in matrices]
    )


def _cat_measure():
    return _monomial_measure((2, 1, 1, 1), (1, -1, -1, 2))


def _assert_rows_read_the_exact_degree(measure, n):
    result = E.estimate_drift(measure, n, 30, seed=3)
    assert result.passed and result.aggregates["trials_used"] == 30
    for row in result.records:
        degree = sample_path(measure, n, 3, row["trial"]).final.degree
        assert row["degree"] == degree and row["log_deg"] == math.log(degree)


def test_drift_runs_on_the_monomial_model():
    _assert_rows_read_the_exact_degree(_cat_measure(), 6)


@pytest.mark.parametrize(
    "matrices",
    [
        # degrees near 10^20, which a float rounds: cosh(acosh(d)) gives
        # 116253058127149170688 for d = 116253058127148802631
        ((2, 1, 1, 1), (1, -1, -1, 2), (1, 2, 0, 1), (1, -2, 0, 1)),
        # degrees near 10^400, past the float range, where math.acosh
        # raises OverflowError
        ((100, 1, 99, 1),),
    ],
)
def test_monomial_drift_rows_read_the_exact_degree_past_float_precision(matrices):
    _assert_rows_read_the_exact_degree(_monomial_measure(*matrices), 200)

_TREE_ONLY_PRESETS = [
    "small-cancellation-f2",
    "match-axis-f2",
    "match-non-f2",
    "match-self-f2",
    "acylindricity-f2",
    "shadow-decay-f2",
]
_NON_TREE_MODELS = {
    "cremona": (
        preset_config("degree-growth-cremona")["model"],
        preset_config("degree-growth-cremona")["measure"],
    ),
    "monomial": (
        {"type": "monomial"},
        {
            "atoms": [
                {"matrix": [2, 1, 1, 1], "weight": "1/2"},
                {"matrix": [1, -1, -1, 2], "weight": "1/2"},
            ]
        },
    ),
}


@pytest.mark.parametrize("model", sorted(_NON_TREE_MODELS))
@pytest.mark.parametrize("preset", _TREE_ONLY_PRESETS)
def test_tree_only_experiments_reject_other_models(preset, model, monkeypatch):
    def no_walk(*args):
        raise AssertionError("walked before rejecting the model")

    config = preset_config(preset)
    config["model"], config["measure"] = _NON_TREE_MODELS[model]
    monkeypatch.setattr(FiniteMeasure, "increment_indices", no_walk)
    with pytest.raises(InputError, match="runs on the tree models"):
        run_config(config)


def test_cremona_drift_rows_name_their_truncation_reason(monkeypatch):
    # at degree cap 4, 14 of the 30 walks of seed 1 pass the cap before n = 4
    result = E.estimate_drift(_cremona_measure(degree_cap=4), 4, 30, seed=1)
    cut = [r for r in result.records if r["truncated"]]
    assert len(cut) == 14
    assert cut == [
        {"trial": r["trial"], "n": 4, "truncated": True, "truncation_reason": "degree_cap"}
        for r in cut
    ]
    assert result.failures == ["resource: truncated fraction 0.467 exceeds 0.1"]

    # every gcd check fails, so the walk discards every trial.  The measure
    # cannot be built under the patch, so it is built first, and a round
    # trip through pickle empties its model's memo of the states composed
    # while building it.
    measure = _cremona_measure()
    _fail_every_gcd_check(monkeypatch)
    measure = pickle.loads(pickle.dumps(measure))
    assert list(measure.oracle._memo) == [()]
    result = E.estimate_drift(measure, 3, 30, seed=5)
    assert result.records == [
        {"trial": t, "n": 3, "truncated": True, "truncation_reason": "discarded"}
        for t in range(30)
    ]
    assert result.aggregates["truncated_fraction"] == 1.0
    assert result.aggregates["mean_speed"] is None
    assert result.aggregates["speed_se"] is None
    assert result.aggregates["speed_ci95"] is None
    assert result.failures == [
        "resource: truncated fraction 1.000 exceeds 0.1",
        "no untruncated trials at n=3",
    ]


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
        lambda jobs: E.degree_growth_experiment(
            _cremona_measure(), [1, 3], 3, seed=86, jobs=jobs
        ),
        lambda jobs: E.gromov_tail(_cremona_measure(), [2, 3], 3, seed=87, jobs=jobs),
        # each producer of the runner, for each entry point that has both
        lambda jobs: E.estimate_drift(measure, 40, 30, seed=88, jobs=jobs),
        lambda jobs: E.estimate_drift(_cat_measure(), 6, 30, seed=89, jobs=jobs),
        lambda jobs: E.translation_growth(_cat_measure(), [3, 6], 5, seed=90, jobs=jobs),
        lambda jobs: E.gromov_tail(measure, [30, 60], 24, seed=91, jobs=jobs),
        lambda jobs: E.characteristic_index_experiment(
            _klein_four_semidirect(), [10, 30], 7, seed=92, jobs=jobs
        ),
    ]
    for run in runs:
        serial, parallel = run(1), run(2)
        assert serial.records == parallel.records
        assert serial.aggregates == parallel.aggregates


def test_tree_fold_in_blocks_matches_one_block(monkeypatch):
    measure = uniform_free()
    observe = E._obs_tree_translation
    one_block = E._tree_trial_rows(measure, [5, 30], 3, 2, 19, observe)
    monkeypatch.setattr(E, "_FOLD_TRIALS", 4)
    assert E._tree_trial_rows(measure, [5, 30], 3, 2, 19, observe) == one_block
    assert [row["trial"] for row in one_block] == [t for t in range(2, 19) for _ in (5, 30)]
    blocked = E.translation_growth(measure, [20, 40], 10, seed=80).records
    monkeypatch.undo()
    assert E.translation_growth(measure, [20, 40], 10, seed=80).records == blocked


def test_tree_runner_draws_once_per_block(monkeypatch):
    # the draw is batched: one increment_indices call per _FOLD_TRIALS block
    # of trials, never one per trial
    draws = []
    increments = FiniteMeasure.increment_indices

    def recording(self, n, seed, trial):
        draws.append(trial)
        return increments(self, n, seed, trial)

    monkeypatch.setattr(FiniteMeasure, "increment_indices", recording)
    measure = uniform_free()
    E.gromov_tail(measure, [10, 40], 30, seed=3)
    assert draws == [range(0, 30)]
    draws.clear()
    monkeypatch.setattr(E, "_FOLD_TRIALS", 4)
    E._tree_trial_rows(measure, [5, 30], 3, 2, 19, E._obs_tree_translation)
    assert draws == [range(lo, min(lo + 4, 19)) for lo in range(2, 19, 4)]


@st.composite
def _conjugate_words(draw):
    """Reduced words u c u^-1 over F_3; |u| up to 70 outruns the first
    probe window of the symmetric prefix several times over."""
    letters = st.sampled_from([1, -1, 2, -2, 3, -3])
    u = W.reduce_letters(draw(st.lists(letters, max_size=70)))
    c = W.reduce_letters(draw(st.lists(letters, max_size=12)))
    return W.multiply(W.multiply(u, c), W.invert(u))


@settings(max_examples=60, deadline=None)
@given(words=st.lists(_conjugate_words(), min_size=1, max_size=8))
@example(words=[()])
@example(words=[(1,), (1, 2, -1), (1,) * 9 + (2,) + (-1,) * 9])
def test_block_observers_match_the_word_observers(words):
    # fold the words themselves, each padded with the empty atom to one
    # length (so the fold runs on squares and reads a strided stack), then
    # read the block with the block observers and each word with the words
    # module
    letters = [1, -1, 2, -2, 3, -3]
    measure = FiniteMeasure(
        FreeGroupOracle(3),
        [(str(x), (x,), Fraction(1, 7)) for x in letters] + [("e", (), Fraction(1, 7))],
    )
    steps = max(1, *map(len, words))
    indices = np.full((len(words), steps), len(letters))
    for row, w in enumerate(words):
        indices[row, : len(w)] = [letters.index(x) for x in w]
    (block,) = fold_words(measure, indices, [steps])
    prefixes = [W.symmetric_prefix(w) for w in words]
    assert E._sym_gp_of_word(block, steps) == {"sym_gp": prefixes}
    assert E._obs_tree_displacement(block, steps) == {"d": [len(w) for w in words]}
    assert E._obs_tree_translation(block, steps) == {
        "d": [len(w) for w in words],
        "tau": [W.translation_length(w) for w in words],
        "sym_gp": prefixes,
    }
    read = E._each_word(lambda word, n: {"word": word, "n": n}, block, steps)
    assert read == {"word": [tuple(w) for w in words], "n": [steps] * len(words)}


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
