import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from hypwalk import polynomials
from hypwalk import words as W
from hypwalk.cremona import CremonaModel, MonomialMap, MonomialModel
from hypwalk.errors import BadPrimeSignal, InputError
from hypwalk.experiments import _sym_gp_of_word
from hypwalk.finitegroups import Automorphism, FiniteGroup, cyclic_automorphism
from hypwalk.freegroup import FreeGroupOracle, SemidirectOracle
from hypwalk.geometry import orbit_gromov_product
from hypwalk.walk import FiniteMeasure, _build_alias, sample_path, trial_rng


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


def reflected(measure: FiniteMeasure) -> FiniteMeasure:
    """The reflected measure: each atom inverted, same weights, same order,
    so a trial draws the same indices."""
    return FiniteMeasure(
        measure.oracle, [(a.tag, a.inverse, a.weight) for a in measure.atoms]
    )


def assert_left_to_right_product(measure, n, seed, trial, marks=()):
    """The path's endpoints and displacement track are those of the
    left-to-right products w_j = g_1 ... g_j of its increments."""
    model = measure.oracle
    path = sample_path(measure, n, seed, trial, marks=marks)
    assert path.oracle is model and path.prime_retries == 0
    assert path.truncated_at is None and path.truncation_reason is None
    products = [model.identity()]
    for index in path.increment_indices:
        products.append(model.multiply(products[-1], measure.atoms[index].element))
    assert path.displacements == tuple(model.displacement(w) for w in products)
    assert path.final == products[n]
    assert set(path.endpoints) == {*marks, n}
    for mark, (w, w_inverse) in path.endpoints.items():
        assert w == products[mark]
        assert w_inverse == model.inverse(products[mark])
    return path


def test_reflected_paths():
    oracle = FreeGroupOracle(2)
    point_mass = FiniteMeasure(oracle, [("a", (1,), Fraction(1))])
    path = sample_path(reflected(point_mass), 10, seed=3, trial=0)
    assert path.final == W.power((-1,), 10)
    assert path.displacements[-1] == 10.0

    halfhalf = FiniteMeasure(
        oracle, [("a", (1,), Fraction(1, 2)), ("b", (2,), Fraction(1, 2))]
    )
    walk = sample_path(halfhalf, 30, seed=9, trial=1)
    refl = sample_path(reflected(halfhalf), 30, seed=9, trial=1)
    assert refl.increment_indices == walk.increment_indices
    assert all(letter in (-1, -2) for letter in refl.final)
    # each increment inverted: the letters of w_n, each inverted, in order
    assert refl.final == tuple(-letter for letter in walk.final)


def semidirect_z3_measure():
    z3 = FiniteGroup.cyclic(3)
    model = SemidirectOracle(2, z3, [cyclic_automorphism(3, 2), Automorphism.identity(z3)])
    return FiniteMeasure(
        model,
        [
            (tag, model.element(W.str_to_word(tag), torsion), Fraction(1, 4))
            for tag, torsion in (("a", 1), ("A", 2), ("b", 1), ("B", 0))
        ],
    )


def monomial_measure():
    matrices = [(1, 1, 0, 1), (1, -1, 0, 1), (1, 0, 1, 1), (0, 1, 1, 0)]
    return FiniteMeasure(
        MonomialModel(),
        [(str(m), MonomialMap(*m), Fraction(1, 4)) for m in matrices],
    )


def test_semidirect_path_products():
    measure = semidirect_z3_measure()
    model = measure.oracle
    for trial in range(10):
        assert_left_to_right_product(measure, 41, 13, trial, marks=(0, 7, 20))

    refl = sample_path(reflected(measure), 41, seed=13, trial=4)
    expected = model.identity()
    for i in refl.increment_indices:
        expected = model.multiply(expected, measure.atoms[i].inverse)
    assert refl.final == expected


def test_free_and_monomial_paths_are_left_to_right_products():
    for measure in (uniform_f2(), monomial_measure()):
        for trial in range(10):
            assert_left_to_right_product(measure, 30, 21, trial, marks=(1, 15))


def test_monomial_degree_is_its_inverses():
    # a plane Cremona map and its inverse have one degree, so the walk's
    # running inverse has the walk's displacement
    for a, b, c, d in itertools.product(range(-4, 5), repeat=4):
        if abs(a * d - b * c) == 1:
            g = MonomialMap(a, b, c, d)
            assert g.degree() == g.inverse().degree()


def test_path_observable_examples():
    # d(x, w_i x) is displacements[i]; the symmetric Gromov product and the
    # translation length are read off the endpoint through the oracle
    oracle = FreeGroupOracle(2)
    point_mass = FiniteMeasure(oracle, [("a", (1,), Fraction(1))])
    path = sample_path(point_mass, 3, seed=0, trial=0)
    assert path.displacements == (0.0, 1.0, 2.0, 3.0)
    w, w_inverse = path.endpoints[3]
    # a^n and a^-n diverge immediately
    assert orbit_gromov_product(oracle, w, w_inverse) == 0.0
    assert oracle.translation_length_estimate(w, 4) == 3.0


def test_sym_gp_cross_check_with_word_prefix():
    # the tree fold's symmetric Gromov product of a reduced word is the
    # oracle's <w x, w^-1 x>_x at the walk's endpoint
    measure = uniform_f2()
    oracle = measure.oracle
    for trial in range(25):
        path = sample_path(measure, 40, seed=77, trial=trial)
        w, w_inverse = path.endpoints[40]
        got = orbit_gromov_product(oracle, w, w_inverse)
        assert got == _sym_gp_of_word(np.array(w, dtype=np.int8), 40)
        assert got == W.common_prefix_length(w, W.invert(w))


def test_gp_requests_and_errors():
    # the Gromov product of w_i x and w_j x is read at the endpoints kept
    # at marks i and j; on the tree it is the common prefix of the words
    measure = uniform_f2()
    oracle = measure.oracle
    path = sample_path(measure, 10, seed=2, trial=2, marks=(3, 7))
    (w3, _), (w7, _) = path.endpoints[3], path.endpoints[7]
    assert orbit_gromov_product(oracle, w3, w7) == W.common_prefix_length(w3, w7)
    for marks in [(-1,), (11,)]:
        with pytest.raises(InputError, match="marks"):
            sample_path(measure, 10, seed=2, trial=2, marks=marks)
    with pytest.raises(InputError, match="length"):
        sample_path(measure, -1, seed=2, trial=2)


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
    assert math.isclose(path.displacements[-1], math.acosh(w.degree))
    assert path.final == w
    assert path.endpoints[6][1] == model.inverse(w)


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
    assert inverse == path.endpoints[6][1]
    path.final.tracks
    # reading the endpoint folds its whole word in one composition
    assert calls[2 * walked :] == [path.final.word]


def test_cremona_lazy_final_matches_composed_word():
    model, measure = cremona_mixed_measure()
    path = sample_path(measure, 6, seed=42, trial=1)
    word = model._reduce_word(tuple(-x for x in reversed(path.endpoints[6][1].word)))
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
            values.append(math.log(round(math.cosh(path.displacements[-1]))))
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
