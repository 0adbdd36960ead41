import itertools
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypwalk import polynomials, walk
from hypwalk import words as W
from hypwalk.cremona import CremonaModel, MonomialMap, MonomialModel
from hypwalk.errors import BadPrimeSignal, InputError, ParamError
from hypwalk.experiments import _FOLD_TRIALS, _obs_tree_translation, _sym_gp_of_word
from hypwalk.finitegroups import Automorphism, FiniteGroup, cyclic_automorphism
from hypwalk.freegroup import FreeGroupOracle, SemidirectOracle
from hypwalk.geometry import orbit_gromov_product
from hypwalk.walk import (
    FiniteMeasure,
    _build_alias,
    fold_words,
    retry_primes,
    sample_path,
    trial_rng,
)


def _common_prefix_length(u, v) -> int:
    n = 0
    while n < min(len(u), len(v)) and u[n] == v[n]:
        n += 1
    return n


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
    with pytest.raises(ParamError, match=r"^atoms\[0\]\.weight: must be a number, not a bool$"):
        FiniteMeasure(oracle, [("a", (1,), True)])
    with pytest.raises(ParamError, match="^attest_wpd: must be true or false$"):
        FiniteMeasure(oracle, [("a", (1,), Fraction(1))], attest_wpd="yes")
    for weight in ("abc", "1/0", None, 1.5j, math.inf):
        with pytest.raises(ParamError, match=r"^atoms\[0\]\.weight: not a rational number$"):
            FiniteMeasure(oracle, [("a", (1,), weight)])
    for atom in (("a", (1,)), "a", ("a", (1,), Fraction(1), "extra")):
        with pytest.raises(
            ParamError, match=r"^atoms\[0\]: must be a \(tag, element, weight\) triple$"
        ):
            FiniteMeasure(oracle, [atom])


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


def _skewed_f2():
    weights = [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]
    return FiniteMeasure(
        FreeGroupOracle(2),
        [(str(w), w, p) for w, p in zip([(1,), (-1,), (2,), (-2,)], weights)],
    )


def test_weighted_increments_are_the_two_draw_alias_pick():
    measure = _skewed_f2()
    table = _build_alias([a.weight for a in measure.atoms])
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


def _fresh_draws(measure, n, seed, trial):
    """The trial's indices from its own fresh ``trial_rng``: the bucket
    draw, then, for unequal weights, the acceptance draw of the alias pick."""
    table = _build_alias([a.weight for a in measure.atoms])
    rng = trial_rng(seed, trial)
    buckets = rng.integers(0, len(measure.atoms), size=n)
    if table.trivial:
        return buckets
    return table.pick(buckets, rng.integers(0, table.scale, size=n))


@settings(max_examples=60, deadline=None)
@given(
    skewed=st.booleans(),
    seed=st.integers(0, 2**64 - 1),
    first=st.one_of(
        st.integers(_FOLD_TRIALS - 6, _FOLD_TRIALS + 1), st.integers(0, 2**64 - 6)
    ),
    count=st.integers(0, 5),
    n=st.integers(0, 70),
)
@example(skewed=True, seed=2**64 - 1, first=2**64 - 6, count=5, n=9)
def test_block_draws_are_the_fresh_per_trial_draws(skewed, seed, first, count, n):
    # one re-keyed Philox per block draws what a fresh generator per trial
    # draws, for ranges on both sides of the runner's block boundary and
    # keys up to 2^64 - 1
    measure = _skewed_f2() if skewed else uniform_f2()
    trials = range(first, first + count)
    block = measure.increment_indices(n, seed, trials)
    assert block.shape == (count, n)
    for row, trial in zip(block, trials):
        expected = _fresh_draws(measure, n, seed, trial)
        assert np.array_equal(row, expected)
        assert np.array_equal(measure.increment_indices(n, seed, trial), expected)


def test_philox_keys_are_exact_unsigned_64_bit():
    # a key held as a list of Python ints went through float64: every retry
    # key seed ^ RETRY_SALT (top bit set) lost its low 11 bits, so seeds 0-3
    # shared one retry stream, and a seed near 2^64 wrapped to key [0, 0]
    # with a RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed in [0, 1, 2, 3, 2**63 + 1, 2**64 - 1]:
            for trial in [0, 7, 2**64 - 1]:
                key = trial_rng(seed, trial).bit_generator.state["state"]["key"]
                assert key.dtype == np.uint64 and key.tolist() == [seed, trial]
        retries = {tuple(itertools.islice(retry_primes(seed, 0), 3)) for seed in range(4)}
        assert len(retries) == 4
        # an entry point takes numpy integer seeds; the salted key of one
        # overflowed int64 at the first retry
        assert next(retry_primes(np.int64(1), 0)) == next(retry_primes(1, 0))
        near = [
            uniform_f2().increment_indices(40, seed, range(2)).tolist()
            for seed in (2**63, 2**63 + 1, 2**64 - 1, 0)
        ]
        assert all(a != b for a, b in itertools.combinations(near, 2))


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
            assert g.degree == g.inverse().degree


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


def _block(words):
    """The folded block ``(stack, length)`` of the reduced words ``words``,
    as walk.fold_words returns one."""
    length = np.array([len(w) for w in words], dtype=np.int64)
    stack = np.zeros((len(words), length.max(initial=0)), dtype=np.int8)
    for row, w in enumerate(words):
        stack[row, : len(w)] = w
    return stack, length


def test_sym_gp_cross_check_with_word_prefix():
    # the tree fold's symmetric Gromov product of a reduced word is the
    # oracle's <w x, w^-1 x>_x at the walk's endpoint
    measure = uniform_f2()
    oracle = measure.oracle
    words, products = [], []
    for trial in range(25):
        path = sample_path(measure, 40, seed=77, trial=trial)
        w, w_inverse = path.endpoints[40]
        got = orbit_gromov_product(oracle, w, w_inverse)
        assert got == _common_prefix_length(w, W.invert(w))
        words.append(w)
        products.append(got)
    assert _sym_gp_of_word(_block(words), 40) == {"sym_gp": products}


@st.composite
def _reduced_words(draw):
    """Reduced words p c p^-1 over ranks 2-5, of up to 60 letters."""
    rank = draw(st.integers(2, 5))
    letters = st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])
    prefix = W.reduce_letters(draw(st.lists(letters, max_size=30)))
    core = W.reduce_letters(draw(st.lists(letters, max_size=30)))
    return W.multiply(W.multiply(prefix, core), W.invert(prefix))


@settings(max_examples=300, deadline=None)
@given(w=_reduced_words())
@example(w=())
@example(w=(1,))
@example(w=(-5,))
@example(w=(2, 1, -2))
def test_tree_translation_reads_tau_off_the_symmetric_prefix(w):
    # tau = |w| - 2 sym_gp, as w = p c p^-1 with |p| = sym_gp and tau = |c|
    columns = _obs_tree_translation(_block([w]), len(w))
    row = {field: column[0] for field, column in columns.items()}
    sym_gp = _common_prefix_length(w, W.invert(w))
    assert row == {"d": len(w), "tau": W.translation_length(w), "sym_gp": sym_gp}
    assert row["tau"] == len(W.power(w, 2)) - len(w)  # |w^2| = |w| + |c|


def test_gp_requests_and_errors():
    # the Gromov product of w_i x and w_j x is read at the endpoints kept
    # at marks i and j; on the tree it is the common prefix of the words
    measure = uniform_f2()
    oracle = measure.oracle
    path = sample_path(measure, 10, seed=2, trial=2, marks=(3, 7))
    (w3, _), (w7, _) = path.endpoints[3], path.endpoints[7]
    assert orbit_gromov_product(oracle, w3, w7) == _common_prefix_length(w3, w7)
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
    # no push of this trial cancels, so each push composes only its own
    # letters in front of the running word, which the memo holds; the first
    # push is an atom's inverse, composed above.  Nothing composes the
    # forward endpoint until it is read.
    running = path.endpoints[6][1].word
    first = measure.atoms[path.increment_indices[0]].inverse.word
    assert calls == [(letter,) for letter in reversed(running)][len(first) :]
    walked = len(calls)
    assert walked == 6
    inverse = model.identity()
    for index in path.increment_indices:
        inverse = model.multiply(measure.atoms[index].inverse, inverse)
    # the replayed walk takes every state from the memo
    assert len(calls) == walked
    assert inverse == path.endpoints[6][1]
    path.final.tracks
    # reading the endpoint composes its word in front of its last letter,
    # an atom's inverse that the memo holds
    assert path.final.word[-1:] == measure.atoms[2].inverse.word
    assert calls[walked:] == [(letter,) for letter in reversed(path.final.word[:-1])]
    assert len(calls) == walked + 7


def test_cremona_walk_spells_sigma_one_way():
    # sigma is its own inverse, so no stored word holds the letter -sigma
    model, measure = cremona_mixed_measure()
    for trial in range(4):
        sample_path(measure, 6, seed=7, trial=trial).final.tracks
    (sigma,) = model.sigma().word
    assert len(model._memo) > 10
    assert not any(-sigma in word for word in model._memo)


def test_cremona_lazy_final_matches_composed_word():
    model, measure = cremona_mixed_measure()
    path = sample_path(measure, 6, seed=42, trial=1)
    inverse = path.endpoints[6][1].word
    word = model._reduce_word(tuple(model._inverse_letter(x) for x in reversed(inverse)))
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



@pytest.mark.parametrize("seed", [0, 1, 5, 42])
def test_retry_pairs_have_two_primes(seed):
    for trial in range(3):
        pairs = list(itertools.islice(retry_primes(seed, trial), 4))
        assert all(p != q for p, q in pairs)


def test_retry_pair_redraws_a_repeated_prime(monkeypatch):
    draws = iter([5, 5, 7, 11, 13])
    monkeypatch.setattr(walk, "fresh_prime", lambda stream: next(draws))
    assert list(itertools.islice(retry_primes(0, 0), 2)) == [(5, 7), (11, 13)]

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


def _stack_reduce(words):
    """The free reduction of the concatenated ``words``, one letter at a
    time on a Python stack."""
    stack = []
    for word in words:
        for letter in word:
            if stack and stack[-1] == -letter:
                stack.pop()
            else:
                stack.append(letter)
    return tuple(stack)


@st.composite
def _unequal_atoms(draw):
    """Reduced atoms of 0-3 letters over ranks up to 300, so that some
    letters need int16, with an empty and a 3-letter atom always present."""
    rank = draw(st.sampled_from([2, 5, 126, 127, 300]))
    letters = st.integers(1, rank).flatmap(lambda g: st.sampled_from([g, -g]))
    atoms = draw(st.lists(st.lists(letters, max_size=3), min_size=1, max_size=5))
    atoms = [W.reduce_letters(a) for a in atoms]
    atoms += [(), W.reduce_letters([rank, rank, -1])]
    return rank, atoms


@settings(max_examples=80, deadline=None)
@given(
    spec=_unequal_atoms(),
    walks=st.integers(1, 6),
    steps=st.integers(1, 140),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_fold_on_squares_matches_a_stack_reduction(spec, walks, steps, seed, data):
    # atoms of unequal length fold on squares (x -> x x, shortfalls filled
    # with z z^-1 pairs of a fresh letter): the words read at every other
    # letter are the free reductions, at any marks
    rank, atoms = spec
    weight = Fraction(1, len(atoms))
    measure = FiniteMeasure(
        FreeGroupOracle(rank), [(str(i), a, weight) for i, a in enumerate(atoms)]
    )
    indices = np.random.default_rng(seed).integers(0, len(atoms), size=(walks, steps))
    marks = sorted(data.draw(st.sets(st.integers(1, steps), min_size=1, max_size=4)))
    for mark, (stack, length) in zip(marks, fold_words(measure, indices, marks)):
        assert stack.shape[1] == length.max()
        for row in range(walks):
            expected = _stack_reduce(atoms[i] for i in indices[row, :mark])
            assert tuple(stack[row, : length[row]].tolist()) == expected


def test_fold_views_copy_nothing():
    # the stride-2 tops and the last mark's strided snapshot are views of
    # the one flat stack: the fold's peak is near that stack, (walks + 1)
    # rows of 2 * (steps // 2 + 1) letters
    measure = uniform_f2()
    walks = steps = 2000
    indices = np.random.default_rng(5).integers(0, 4, size=(walks, steps)).astype(np.uint8)
    tracemalloc.start()
    try:
        ((stack, length),) = fold_words(measure, indices, [steps])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    full = (walks + 1) * 2 * (steps // 2 + 1)
    assert full <= peak < 1.25 * full
    assert stack.base is not None and length.max() > steps // 3
