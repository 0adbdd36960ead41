import math
from fractions import Fraction

import numpy as np
import pytest

from hypwalk import polynomials
from hypwalk import words as W
from hypwalk.cremona import CremonaModel
from hypwalk.errors import BadPrimeSignal, InputError
from hypwalk.finitegroups import Automorphism, FiniteGroup, cyclic_automorphism
from hypwalk.freegroup import FreeGroupOracle, SemidirectOracle
from hypwalk.walk import (
    FiniteMeasure,
    _build_alias,
    path_observables,
    reflected_path,
    sample_path,
    trial_rng,
)


def uniform_f2(rank=2):
    oracle = FreeGroupOracle(rank)
    letters = []
    for g in range(1, rank + 1):
        letters.extend([(g,), (-g,)])
    atoms = [(W.word_to_str(w), w, Fraction(1, 2 * rank)) for w in letters]
    return FiniteMeasure(oracle, atoms, attest_non_elementary=True)


def test_measure_flags():
    measure = uniform_f2()
    assert measure.symmetric and measure.reversible
    assert measure.bounded_displacement == 1.0

    oracle = FreeGroupOracle(2)
    asym = FiniteMeasure(
        oracle, [("a", (1,), Fraction(1, 2)), ("b", (2,), Fraction(1, 2))]
    )
    assert not asym.symmetric and not asym.reversible

    lopsided = FiniteMeasure(
        oracle,
        [
            ("a", (1,), Fraction(2, 3)),
            ("A", (-1,), Fraction(1, 6)),
            ("b", (2,), Fraction(1, 12)),
            ("B", (-2,), Fraction(1, 12)),
        ],
    )
    assert lopsided.reversible and not lopsided.symmetric


def test_measure_weight_validation():
    oracle = FreeGroupOracle(2)
    with pytest.raises(InputError):
        FiniteMeasure(oracle, [("a", (1,), Fraction(9, 10))])
    with pytest.raises(InputError):
        FiniteMeasure(oracle, [("a", (1,), Fraction(-1, 2)), ("b", (2,), Fraction(3, 2))])


def test_alias_table_exact_distribution():
    weights = [Fraction(1, 2), Fraction(1, 3), Fraction(1, 6)]
    table = _build_alias(weights)
    n, scale = len(weights), table.scale
    counts = [0] * n
    for bucket in range(n):
        for draw in range(scale):
            picked = table.pick(np.array([bucket]), np.array([draw]))[0]
            counts[picked] += 1
    total = n * scale
    assert [Fraction(c, total) for c in counts] == weights


def test_uniform_increments_are_the_bucket_draw():
    # equal weights make no acceptance draw: the indices are the buckets
    measure = uniform_f2()
    for seed, trial in [(0, 0), (7, 3), (2**64 - 1, 2**64 - 1)]:
        buckets = trial_rng(seed, trial).integers(0, 4, size=500)
        assert np.array_equal(measure.increment_indices(500, seed, trial), buckets)


def test_weighted_increments_are_the_two_draw_alias_pick():
    weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    letters = [(1,), (-1,), (2,), (-2,)]
    measure = FiniteMeasure(
        FreeGroupOracle(2), [(str(w), w, p) for w, p in zip(letters, weights)]
    )
    table = _build_alias(weights)
    assert not table.trivial and table.scale == 8
    rng = trial_rng(5, 11)
    buckets = rng.integers(0, 4, size=500)
    draws = rng.integers(0, table.scale, size=500)
    expected = np.where(
        draws < table.thresholds[buckets], buckets, table.aliases[buckets]
    )
    assert np.array_equal(measure.increment_indices(500, 5, 11), expected)


@pytest.mark.parametrize("seed, trial", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
def test_increments_reject_keys_outside_64_bits(seed, trial):
    with pytest.raises(InputError, match="64-bit"):
        uniform_f2().increment_indices(10, seed, trial)


def test_determinism_and_trial_independence():
    measure = uniform_f2()
    p1 = sample_path(measure, 50, seed=123, trial=7)
    p2 = sample_path(measure, 50, seed=123, trial=7)
    assert p1.increment_indices == p2.increment_indices
    assert p1.displacements == p2.displacements
    assert p1.final == p2.final
    other_trial = sample_path(measure, 50, seed=123, trial=8)
    assert other_trial.increment_indices != p1.increment_indices
    prefix = sample_path(measure, 20, seed=123, trial=7)
    assert prefix.increment_indices == p1.increment_indices[:20]


def test_first_step_displacement_always_one():
    measure = uniform_f2()
    for trial in range(20):
        path = sample_path(measure, 1, seed=5, trial=trial)
        assert path.displacements == (0.0, 1.0)


def test_zero_step_path():
    measure = uniform_f2()
    path = sample_path(measure, 0, seed=1, trial=0)
    assert path.final == ()
    assert path.displacements == (0.0,)


def test_empirical_frequencies_match_weights():
    oracle = FreeGroupOracle(2)
    measure = FiniteMeasure(
        oracle,
        [
            ("a", (1,), Fraction(1, 2)),
            ("b", (2,), Fraction(1, 3)),
            ("B", (-2,), Fraction(1, 6)),
        ],
    )
    indices = measure.increment_indices(60000, seed=11, trial=0)
    freq = np.bincount(indices, minlength=3) / 60000
    assert abs(freq[0] - 0.5) < 0.01
    assert abs(freq[1] - 1 / 3) < 0.01
    assert abs(freq[2] - 1 / 6) < 0.01


def test_reflected_paths():
    oracle = FreeGroupOracle(2)
    point_mass = FiniteMeasure(oracle, [("a", (1,), Fraction(1))])
    path = reflected_path(point_mass, 10, seed=3, trial=0)
    assert path.final == W.power((-1,), 10)
    assert path.final_displacement == 10.0

    halfhalf = FiniteMeasure(
        oracle, [("a", (1,), Fraction(1, 2)), ("b", (2,), Fraction(1, 2))]
    )
    refl = reflected_path(halfhalf, 30, seed=9, trial=1)
    assert all(letter in (-1, -2) for letter in refl.final)


def test_semidirect_path_products():
    z3 = FiniteGroup.cyclic(3)
    model = SemidirectOracle(2, z3, [cyclic_automorphism(3, 2), Automorphism.identity(z3)])
    measure = FiniteMeasure(
        model,
        [
            (tag, model.element(W.str_to_word(tag), torsion), Fraction(1, 4))
            for tag, torsion in (("a", 1), ("A", 2), ("b", 1), ("B", 0))
        ],
    )

    def product(elements):
        out = model.identity()
        for g in elements:
            out = model.multiply(out, g)
        return out

    path = sample_path(measure, 41, seed=13, trial=4)
    assert path.products[-1] == path.final
    increments = [measure.atoms[i].element for i in path.increment_indices]
    half = len(increments) // 2
    assert path.final == model.multiply(
        product(increments[:half]), product(increments[half:])
    )
    assert path.displacements == tuple(float(len(g.word)) for g in path.products)
    assert path.final_inverse == model.inverse(path.final)

    refl = reflected_path(measure, 41, seed=13, trial=4)
    assert refl.final == product(
        measure.atoms[i].inverse for i in refl.increment_indices
    )


def test_path_observable_examples():
    oracle = FreeGroupOracle(2)
    point_mass = FiniteMeasure(oracle, [("a", (1,), Fraction(1))])
    path = sample_path(point_mass, 3, seed=0, trial=0)
    obs = path_observables(point_mass, path, [("d", 0), ("d", 1), ("d", 3)])
    assert (obs[("d", 0)], obs[("d", 1)], obs[("d", 3)]) == (0.0, 1.0, 3.0)
    obs = path_observables(point_mass, path, [("sym_gp",), ("tau", 4)])
    assert obs[("sym_gp",)] == 0.0  # a^n and a^-n diverge immediately
    assert obs[("tau", 4)] == 3.0


def test_sym_gp_cross_check_with_word_prefix():
    measure = uniform_f2()
    for trial in range(25):
        path = sample_path(measure, 40, seed=77, trial=trial)
        got = path_observables(measure, path, [("sym_gp",)])[("sym_gp",)]
        expected = W.common_prefix_length(path.final, W.invert(path.final))
        assert got == expected


def test_gp_requests_and_errors():
    measure = uniform_f2()
    path = sample_path(measure, 10, seed=2, trial=2)
    obs = path_observables(measure, path, [("gp", 3, 7)])
    assert obs[("gp", 3, 7)] >= 0
    for request in [("d", 99), ("gp", -1, 3), ("gp", 99, 0), ("nonsense",)]:
        with pytest.raises(InputError):
            path_observables(measure, path, [request])


def cremona_mixed_measure(cap=512):
    model = CremonaModel(degree_cap=cap)
    sigma = model.sigma()
    h = model.henon(2)
    lin = model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1])
    sigma_l = model.multiply(sigma, lin)
    return model, FiniteMeasure(
        model,
        [
            ("sigma", sigma, Fraction(1, 4)),
            ("sigma.l", sigma_l, Fraction(1, 4)),
            ("h2", h, Fraction(1, 4)),
            ("h2inv", model.inverse(h), Fraction(1, 4)),
        ],
        attest_non_elementary=True,
        attest_wpd=True,
    )


def test_cremona_walk_degree_track():
    model, measure = cremona_mixed_measure()
    path = sample_path(measure, 6, seed=42, trial=0)
    assert path.truncated_at is None
    assert len(path.displacements) == 7
    # displacement track is arccosh of integer degrees
    for d in path.displacements:
        assert d >= 0.0
    # cross-check the final displacement against a direct left-to-right product
    w = model.identity()
    for index in path.increment_indices:
        w = model.multiply(w, measure.atoms[index].element)
    assert math.isclose(path.final_displacement, math.acosh(w.degree))
    assert path.final == w
    assert path.final_inverse == model.inverse(w)


def test_cremona_path_composes_no_endpoint(monkeypatch):
    model, measure = cremona_mixed_measure()
    for atom in measure.atoms:
        atom.inverse.tracks  # the atoms' own inverses, composed on first use
    calls = []
    compose = CremonaModel._compose_tracks

    def counting(self, *args):
        calls.append(args[0])
        return compose(self, *args)

    monkeypatch.setattr(CremonaModel, "_compose_tracks", counting)
    path = sample_path(measure, 6, seed=42, trial=0)
    # one composition per push (no push of this trial cancels), and none
    # for the forward endpoint until it is read
    walked = len(calls)
    assert walked == len(path.increment_indices) == 6
    inverse = model.identity()
    for index in path.increment_indices:
        inverse = model.multiply(measure.atoms[index].inverse, inverse)
    assert len(calls) == 2 * walked
    assert inverse == path.final_inverse
    path.final.tracks
    # reading the endpoint folds its whole word in one composition
    assert calls[2 * walked :] == [path.final.word]


def test_cremona_lazy_final_matches_composed_word():
    model, measure = cremona_mixed_measure()
    path = sample_path(measure, 6, seed=42, trial=1)
    word = model._reduce_word(tuple(-x for x in reversed(path.final_inverse.word)))
    expected = model._compose_word(word)
    for p in model.primes:
        assert path.final.triple(p) == expected.triple(p)
    assert path.final == expected


def test_cremona_bad_prime_at_endpoint_read_is_not_a_retry(monkeypatch):
    _, measure = cremona_mixed_measure()
    path = sample_path(measure, 6, seed=42, trial=0)
    # the gcd check fails only from here on, while the endpoint is composed
    monkeypatch.setattr(polynomials, "_divides_all", lambda g, polys: False)
    with pytest.raises(BadPrimeSignal):
        path.final.tracks
    assert path.prime_retries == 0 and not path.discarded
    monkeypatch.undo()
    assert path.final.tracks


def test_cremona_walk_determinism():
    _, measure = cremona_mixed_measure()
    p1 = sample_path(measure, 5, seed=7, trial=3)
    p2 = sample_path(measure, 5, seed=7, trial=3)
    assert p1.displacements == p2.displacements
    assert p1.increment_indices == p2.increment_indices


def test_cremona_degree_cap_truncates():
    _, measure = cremona_mixed_measure(cap=8)
    hit = False
    for trial in range(12):
        path = sample_path(measure, 12, seed=1, trial=trial)
        if path.truncated_at is not None:
            hit = True
            assert len(path.displacements) == path.truncated_at + 1
    assert hit


def test_cremona_log_degree_subadditive_in_expectation():
    # E log deg(w_{n+m}) <= E log deg(w_n) + E log deg(w_m): a statistical
    # check of submultiplicativity across concatenated segments.
    import statistics

    _, measure = cremona_mixed_measure()

    def mean_log_deg(n, trials, base_trial):
        values = []
        for t in range(trials):
            path = sample_path(measure, n, seed=1234, trial=base_trial + t)
            values.append(math.log(round(math.cosh(path.final_displacement))))
        return statistics.mean(values), statistics.stdev(values) / len(values) ** 0.5

    m3, se3 = mean_log_deg(3, 40, 0)
    m6, se6 = mean_log_deg(6, 40, 100)
    assert m6 <= 2 * m3 + 3 * (se6 + 2 * se3)


def test_displacement_bounded_by_step_count():
    measure = uniform_f2()
    for trial in range(10):
        path = sample_path(measure, 60, seed=31, trial=trial)
        assert all(
            d <= i * measure.bounded_displacement + 1e-12
            for i, d in enumerate(path.displacements)
        )
