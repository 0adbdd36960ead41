import functools
import gc
import math
import pickle
import random
import weakref
from fractions import Fraction
from unittest import mock

import pytest
import sympy
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from hypwalk import cremona, polynomials
from hypwalk.cremona import (
    CremonaElement,
    CremonaModel,
    DynamicalDegreeEstimate,
    MonomialMap,
    MonomialModel,
    dynamical_degree_estimate,
    monomial_dynamical_degree,
)
from hypwalk.config import build_measure, build_model
from hypwalk.errors import BadPrimeSignal, InputError, ParamError, ResourceError
from hypwalk.geometry import IsometryClass
from hypwalk.polynomials import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    HomPoly3,
    normalize_triple,
    substitute,
)
from hypwalk.presets import preset_config
from hypwalk.walk import FiniteMeasure, sample_path


GOLDEN3 = (3 + math.sqrt(5)) / 2  # spectral radius of [[2,1],[1,1]]


# The prime pairs of the line-track tests: the default pair, and two 31-bit
# primes, where every product runs on 16-bit halves.
_LINE_PRIME_PAIRS = [(DEFAULT_PRIME, SECOND_PRIME), (2083116181, 2147483647)]


@pytest.mark.parametrize(
    "primes",
    [
        (),
        (1000000, 1000002),
        (2305843009213693951, 1000003),
        (True, 1000003),
        (3, 5),
        (65521, 1000003),  # the largest prime below 2^16
    ],
)
def test_model_rejects_bad_primes(primes):
    message = r"^primes: must be a nonempty list of primes in \[2\^16, 2\^31\)$"
    with pytest.raises(ParamError, match=message):
        CremonaModel(primes=primes)


def test_model_rejects_a_repeated_prime():
    with pytest.raises(ParamError, match="^primes: must not repeat a prime$"):
        CremonaModel(primes=(DEFAULT_PRIME, DEFAULT_PRIME))


@pytest.mark.parametrize("degree_cap", [True, 0, 1, 1.5, None])
def test_model_rejects_a_bad_degree_cap(degree_cap):
    with pytest.raises(ParamError, match=r"^degree_cap: must be an integer >= 2$"):
        CremonaModel(degree_cap=degree_cap)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda m: m.henon(2.0), "n: must be an integer >= 2"),
        (lambda m: m.henon(1), "n: must be an integer >= 2"),
        (lambda m: m.linear([1.5, 0, 0, 0, 1, 0, 0, 0, 1]), "entries: must be nine integers"),
        (lambda m: m.linear([True, False, False] * 3), "entries: must be nine integers"),
        (lambda m: m.linear([1, 0, 0, 0, 1, 0, 0, 0]), "entries: must be nine integers"),
        (
            lambda m: m.linear([1, 0, 0, 2, 0, 0, 3, 0, 0]),
            "entries: linear generator matrix is singular mod p",
        ),
        (lambda m: m.monomial([1, 1, 0, 1.0]), "matrix: must be four integers"),
        (lambda m: m.monomial([2, 0, 0, 2]), "matrix: monomial matrix must have determinant +-1"),
    ],
    ids=[
        "henon-float", "henon-1", "linear-float", "linear-bools", "linear-eight",
        "linear-singular", "monomial-float", "monomial-det",
    ],
)
def test_generators_name_a_bad_argument(build, message):
    # the messages a config run prints under the generator's path
    with pytest.raises(ParamError) as info:
        build(CremonaModel())
    assert str(info.value) == message


def test_model_takes_small_and_31_bit_primes():
    # 65537 = 2^16 + 1 is the least prime a model takes, 2^31 - 1 the largest
    assert CremonaModel(primes=(65537, 2147483647)).primes == (65537, 2147483647)


def test_sigma_degree_and_involution():
    model = CremonaModel()
    sigma = model.sigma()
    assert sigma.degree == 2
    assert model.multiply(sigma, sigma) == model.identity()
    assert model.inverse(sigma) == sigma
    assert model.inverse(sigma).word == sigma.word


def test_self_inverse_letter_has_one_spelling(monkeypatch):
    # sigma^-1 o h and sigma o h are one map, so one memo key
    model = CremonaModel()
    sigma, h = model.sigma(), model.henon(2)
    first = model.multiply(model.inverse(sigma), h)
    composed = []
    compose = CremonaModel._compose_tracks

    def recording_compose(self, letters, *args):
        composed.extend(letters)
        return compose(self, letters, *args)

    monkeypatch.setattr(CremonaModel, "_compose_tracks", recording_compose)
    again = model.multiply(sigma, h)
    assert composed == [] and again.word == first.word and again == first


def test_henon_generator_shape():
    model = CremonaModel()
    h = model.henon(2)
    assert h.degree == 2
    p = model.primes[0]
    expected = (
        HomPoly3(2, {(0, 1, 1): 1}, p),
        HomPoly3(2, {(0, 2, 0): 1, (1, 0, 1): p - 1}, p),
        HomPoly3(2, {(0, 0, 2): 1}, p),
    )
    assert _letter_triple(model, h.word[0], p) == expected
    # its track is that triple composed onto the frame, which no base point
    # of h lies on
    frame = cremona.frame(p)
    assert h.triple(p) == normalize_triple(*(substitute(q, frame) for q in expected))[0]
    assert model.multiply(h, model.inverse(h)) == model.identity()
    assert model.multiply(model.inverse(h), h) == model.identity()


def test_linear_identity_and_inverse():
    model = CremonaModel()
    ident = model.linear([1, 0, 0, 0, 1, 0, 0, 0, 1])
    assert ident.degree == 1
    assert ident == model.identity()
    gen = model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1])
    assert gen.degree == 1
    assert model.multiply(gen, model.inverse(gen)) == model.identity()
    with pytest.raises(InputError):
        model.linear([1, 0, 0, 2, 0, 0, 3, 0, 0])


def test_generators_are_normalized_like_compositions():
    model = CremonaModel()
    lin = model.linear([2, 0, 0, 0, 1, 0, 0, 0, 1])
    assert lin == model.multiply(lin, model.identity())
    assert lin == model.multiply(model.identity(), lin)
    assert lin == model.inverse(model.inverse(lin))
    assert hash(lin) == hash(model.inverse(model.inverse(lin)))
    inverse = model.linear([1, 0, 0, 0, 2, 0, 0, 0, 2])
    assert inverse == model.inverse(lin)
    assert model.multiply(inverse, lin) == model.identity()


def test_henon_degree_doubling():
    model = CremonaModel()
    h = model.henon(2)
    power = h
    for n in range(2, 7):
        power = model.multiply(h, power)
        assert power.degree == 2**n
    assert model.degree_sequence(h, 6) == [2, 4, 8, 16, 32, 64]


def test_compose_degrees():
    model = CremonaModel()
    sigma = model.sigma()
    lin = model.linear([1, 1, 0, 0, 1, 1, 1, 0, 1])
    assert model.multiply(sigma, lin).degree == 2
    assert model.multiply(lin, sigma).degree == 2
    h = model.henon(2)
    assert model.multiply(h, h).degree == 4
    # sigma o henon drops a line: degree 3, not 4
    assert model.multiply(sigma, h).degree == 3


def test_word_reduction_matches_polynomial_cancellation():
    # Composing h with sigma twice inserted must equal plain h: the word
    # simplification and the polynomial gcd cancellation give the same map.
    model = CremonaModel()
    sigma = model.sigma()
    h = model.henon(2)
    noisy = model.multiply(model.multiply(h, sigma), sigma)
    assert noisy == h
    assert noisy.word == h.word


def test_orbit_distance():
    model = CremonaModel()
    assert model.displacement(model.identity()) == 0.0
    assert model.displacement(model.sigma()) == pytest.approx(math.acosh(2), abs=1e-12)
    h = model.henon(5)
    assert model.displacement(h) == pytest.approx(math.acosh(5), abs=1e-12)


def test_translation_length_estimates():
    model = CremonaModel()
    sigma = model.sigma()
    assert model.translation_length_estimate(sigma, 2) == 0.0
    h = model.henon(2)
    est = model.translation_length_estimate(h, 6)
    assert abs(est - math.log(2)) <= 0.02
    # antitone in the budget
    previous = math.inf
    for budget in (1, 2, 4, 6):
        value = model.translation_length_estimate(h, budget)
        assert value <= previous + 1e-12
        previous = value


def test_classification():
    model = CremonaModel()
    assert model.classify(model.sigma(), 6) is IsometryClass.ELLIPTIC
    assert model.classify(model.henon(2), 6) is IsometryClass.LOXODROMIC
    shear = model.monomial([1, 1, 0, 1])
    assert model.classify(shear, 8) is IsometryClass.PARABOLIC
    mono = MonomialModel()
    assert mono.classify(MonomialMap(1, 1, 0, 1), 8) is IsometryClass.PARABOLIC
    assert mono.classify(MonomialMap(0, 1, 1, 0), 8) is IsometryClass.ELLIPTIC
    assert mono.classify(MonomialMap(2, 1, 1, 1), 8) is IsometryClass.LOXODROMIC
    assert model.classify(model.inverse(model.henon(2)), 6) is IsometryClass.LOXODROMIC


@pytest.mark.parametrize(
    "sequence, expected",
    [
        ([2] * 40, IsometryClass.ELLIPTIC),  # bounded
        ([2] * 39 + [3], IsometryClass.PARABOLIC),  # estimate log(2)/39 = 0.0178
        ([2] * 19 + [3], IsometryClass.UNDETERMINED),  # estimate log(2)/19 = 0.0365
    ],
    ids=["elliptic", "parabolic", "undetermined"],
)
def test_classification_reads_the_degree_sequence(monkeypatch, sequence, expected):
    model = CremonaModel()
    monkeypatch.setattr(model, "degree_sequence", lambda g, budget: list(sequence))
    assert model.classify(model.henon(2), len(sequence)) is expected


def test_a_bounded_de_jonquieres_map_classifies_elliptic():
    model = CremonaModel()
    s = model.linear([0, 1, 0, 1, 0, 0, 0, 0, 1])
    L = model.linear([1, 0, 0, 0, -1, 0, 0, 0, 1])
    # (x, y) -> (x, y - x^2): degree 2 at every power
    jonquieres = model.multiply(L, model.multiply(model.henon(2), s))
    assert model.degree_sequence(jonquieres, 8) == [2] * 8
    for budget in (4, 6, 13):
        assert model.classify(jonquieres, budget) is IsometryClass.ELLIPTIC
    h = model.henon(2)
    for budget in range(4, 9):
        assert model.classify(h, budget) is IsometryClass.LOXODROMIC
        assert model.classify(model.inverse(h), budget) is IsometryClass.LOXODROMIC


_MIXED = build_measure(
    build_model({"type": "cremona"}),
    preset_config("degree-growth-cremona")["measure"],
)


@settings(max_examples=30, deadline=None)
@given(
    letters=st.lists(st.integers(0, len(_MIXED.atoms) - 1), min_size=1, max_size=2),
    budget=st.integers(2, 4),
)
def test_translation_length_estimate_is_the_log_degree_rate(letters, budget):
    model = _MIXED.oracle
    g = model.identity()
    for k in letters:
        g = model.multiply(g, _MIXED.atoms[k].element)
    try:
        seq = model.degree_sequence(g, budget)
    except ResourceError:
        with pytest.raises(ResourceError):
            model.translation_length_estimate(g, budget)
        return
    expected = min(math.log(d) / (m + 1) for m, d in enumerate(seq))
    assert model.translation_length_estimate(g, budget).hex() == expected.hex()


def test_classification_past_the_cap_and_below_budget_four():
    model = CremonaModel(degree_cap=8)
    # deg h^4 = 16 passes the cap: unbounded, but not certified loxodromic
    assert model.classify(model.henon(2), 6) is IsometryClass.UNDETERMINED
    with pytest.raises(InputError, match="^classification budget must be >= 4$"):
        model.classify(model.henon(2), 3)


def test_dynamical_degree_estimates():
    model = CremonaModel()
    est = dynamical_degree_estimate(model, model.sigma(), 6)
    assert est.value == 1.0
    assert est.degree_sequence == (2, 1, 2, 1, 2, 1)
    est = dynamical_degree_estimate(model, model.henon(2), 6)
    assert est.value == 2.0
    with pytest.raises(InputError):
        dynamical_degree_estimate(model, model.sigma(), 1)


def test_monomial_degrees_and_dynamical_degree():
    assert MonomialMap(1, 0, 0, 1).degree == 1
    assert MonomialMap(-1, 0, 0, -1).degree == 2  # this is sigma
    assert MonomialMap(1, 1, 0, 1).degree == 2
    assert MonomialMap(2, 1, 1, 1).degree == 3
    assert monomial_dynamical_degree(MonomialMap(1, 1, 0, 1)) == 1.0
    assert monomial_dynamical_degree(MonomialMap(0, 1, 1, 0)) == 1.0
    assert monomial_dynamical_degree(MonomialMap(2, 1, 1, 1)) == pytest.approx(GOLDEN3)
    with pytest.raises(InputError):
        MonomialMap(2, 0, 0, 2)


def test_monomial_triple_matches_polynomial_model():
    # the sigma matrix induces exactly the sigma triple
    model = CremonaModel()
    from_matrix = model.monomial([-1, 0, 0, -1])
    assert from_matrix == model.sigma()
    # degree growth of the shear agrees between matrix and polynomial paths
    mono = MonomialModel()
    m = MonomialMap(1, 1, 0, 1)
    power = m
    poly_shear = model.monomial([1, 1, 0, 1])
    poly_power = poly_shear
    for _ in range(4):
        power = mono.multiply(m, power)
        poly_power = model.multiply(poly_shear, poly_power)
        assert power.degree == poly_power.degree


def test_monomial_model_metric():
    mono = MonomialModel()
    m = MonomialMap(2, 1, 1, 1)
    assert mono.displacement(m) == math.acosh(3)
    assert mono.pairwise_distance(m, m) == 0.0
    assert mono.translation_length_estimate(m, 5) == pytest.approx(math.log(GOLDEN3))
    big = m
    for _ in range(30):
        big = mono.multiply(big, m)  # far beyond any polynomial cap
    assert big.degree > 10**12
    assert mono.displacement(big) == math.acosh(big.degree)
    for _ in range(1000):
        big = mono.multiply(big, m)  # past the float range
    d = big.degree
    assert d > 2**1024
    # acosh(d) = log(d + sqrt(d^2 - 1)), in integers
    assert mono.displacement(big) == pytest.approx(math.log(d + math.isqrt(d * d - 1)))


def test_triangle_inequality_on_hyperboloid():
    model = CremonaModel()
    rng = random.Random(3)
    gens = [model.sigma(), model.henon(2), model.henon(3),
            model.linear([1, 1, 0, 0, 1, 1, 1, 0, 1])]
    words = []
    for _ in range(12):
        w = model.identity()
        for _ in range(rng.randrange(1, 4)):
            w = model.multiply(w, rng.choice(gens))
        words.append(w)
    for f in words:
        for g in words:
            lhs = math.acosh(model.multiply(f, g).degree)
            rhs = math.acosh(f.degree) + math.acosh(g.degree)
            assert lhs <= rhs + 1e-9
            # submultiplicativity is the same statement at the degree level
            assert model.multiply(f, g).degree <= f.degree * g.degree


def test_inversion_degree_symmetry():
    model = CremonaModel()
    rng = random.Random(5)
    gens = [model.sigma(), model.henon(2),
            model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1])]
    for _ in range(10):
        w = model.identity()
        for _ in range(rng.randrange(1, 5)):
            w = model.multiply(w, rng.choice(gens))
        assert model.inverse(w).degree == w.degree


def test_degree_cap_resource_error():
    model = CremonaModel(degree_cap=8)
    h = model.henon(2)
    with pytest.raises(ResourceError):
        model.degree_sequence(h, 6)


def _sample_word(model):
    h, sigma = model.henon(2), model.sigma()
    lin = model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1])
    g = model.identity()
    for factor in (h, sigma, lin, h, sigma):
        g = model.multiply(g, factor)
    return g


def test_lazy_inverse_checks_degree_on_read():
    model = CremonaModel()
    g = _sample_word(model)
    inverse = model.inverse(g)
    assert inverse.degree == g.degree and inverse._tracks is None
    assert model.multiply(g, inverse) == model.identity()
    wrong = CremonaElement(inverse.word, g.degree + 1, None, model)
    with pytest.raises(BadPrimeSignal):
        wrong.tracks


def test_lazy_inverse_pickles():
    model = CremonaModel()
    g = _sample_word(model)
    inverse = model.inverse(g)
    clone = pickle.loads(pickle.dumps(inverse))
    assert clone._tracks is None and clone.word == inverse.word
    assert clone == inverse
    assert clone == model._compose_word(inverse.word)


def test_respawn_reinterns_every_generator_kind():
    # each atom is built again through the constructor its spec names; no
    # preset's bad-prime retry reaches a monomial atom
    model = CremonaModel()
    h, mono = model.henon(3), model.monomial([2, 1, 1, 1])
    lin, sigma = model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1]), model.sigma()
    g = model.identity()
    for factor in (h, sigma, mono, lin, model.inverse(h), sigma):
        g = model.multiply(g, factor)
    clone = model.respawn((2083116181, 1000033))
    assert clone.primes == (2083116181, 1000033) and clone.degree_cap == model.degree_cap
    assert [atom.spec for atom in clone._atoms] == [
        ("henon", 3),
        ("monomial", (2, 1, 1, 1)),
        ("linear", (1, 2, 0, 0, 1, 3, 1, 0, 1)),
        ("sigma",),
    ]
    assert [(a.degree, a.self_inverse, a.monomial) for a in clone._atoms] == [
        (a.degree, a.self_inverse, a.monomial) for a in model._atoms
    ]
    rebuilt = clone.rebuild(g)
    assert rebuilt.word == g.word and rebuilt.degree == g.degree > 1
    # interning the same spec again returns its atom rather than a new one
    assert clone.monomial((2, 1, 1, 1)).word == mono.word and len(clone._atoms) == 4


def test_henon_power_at_a_31_bit_prime_matches_sympy():
    # every product of this composition lies past the float64 bound at a
    # 31-bit retry prime, so the kernel runs on 16-bit halves throughout;
    # the track is sympy's h2^6 restricted to the frame's line
    p = 2083116181
    model = CremonaModel(primes=(p,))
    h64 = model.power(model.henon(2), 6)
    assert h64.degree == 64
    x, y, t = sympy.symbols("x y t")
    u, v = sympy.Poly(x, x, y, modulus=p), sympy.Poly(y, x, y, modulus=p)
    for _ in range(6):
        u, v = v, v**2 - u
    # the frame (a Y + c Z, b Y + d Z, e Z) at (Y, Z) = (t, 1), in the chart
    # Z = 1 of the plane: x = (a t + c) / e and y = (b t + d) / e
    (a, c), (b, d), (_, e) = (
        [form.coeffs.get((0, 1, 0), 0), form.coeffs.get((0, 0, 1), 0)]
        for form in cremona.frame(p)
    )
    scale = pow(e, -1, p)
    chart = [sympy.Poly([k * scale % p, m * scale % p], t, modulus=p) for k, m in ((a, c), (b, d))]

    def restricted(poly):
        powers = [[sympy.Poly(1, t, modulus=p)] for _ in range(2)]
        for ladder, base in zip(powers, chart):
            for _ in range(64):
                ladder.append(ladder[-1] * base)
        total = sympy.Poly(0, t, modulus=p)
        for (i, j), coeff in poly.terms():
            total += powers[0][i] * powers[1][j] * int(coeff)
        return total

    # (u, v, 1) on the line, as forms of degree 64 in (Y, Z) for (t, 1)
    images = [restricted(u), restricted(v), sympy.Poly(1, t, modulus=p)]
    lead = pow(int(images[0].LC()) % p, -1, p)  # normalization makes it 1
    for got, image in zip(h64.triple(p), images):
        coeffs = image.all_coeffs()[::-1]
        expected = {(0, j, 64 - j): int(c) * lead % p for j, c in enumerate(coeffs) if int(c) % p}
        assert got.coeffs == expected


# -- the base-point rule --------------------------------------------------------

_ORACLE_PRIMES = (1000003, 2083116181, 2, 3, 5)


@pytest.mark.parametrize("p", _ORACLE_PRIMES + (2**31 - 1,))
@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(-(2**40), 2**40), min_size=9, max_size=9))
def test_linear_inverse_entries_invert_the_matrix_mod_p(p, entries):
    m = sympy.Matrix(3, 3, entries)
    assume(m.det() % p)
    inverse = sympy.Matrix(3, 3, cremona.linear_inverse_entries(entries, p))
    assert (m * inverse).applyfunc(lambda c: c % p) == sympy.eye(3)


def _letter_triple(model, letter, prime):
    """The triple of a generator letter, as its atom stores it."""
    atom = model._atoms[abs(letter) - 1]
    return dict(atom.triples if letter > 0 else atom.inverse_triples)[prime]


def _normalized_by_sympy(forms, p):
    """normalize_triple of three binary forms, by sympy's univariate gcd over
    GF(p): a form F(Y, Z) is read as F(y, 1), which loses only its power of
    Z, so the gcd is the gcd in y times the least power of Z.  Returns the
    normalized triple and the gcd degree."""
    y = sympy.Symbol("y")
    rows = [
        sympy.Poly([form.coeffs.get((0, j, form.degree - j), 0) for j in range(form.degree, -1, -1)], y, modulus=p)
        for form in forms
    ]
    nonzero = [(form, row) for form, row in zip(forms, rows) if not row.is_zero]
    common = functools.reduce(sympy.Poly.gcd, [row for _, row in nonzero]).monic()
    z_power = min(form.degree - row.degree() for form, row in nonzero)
    gcd_degree = common.degree() + z_power
    quotients = [row.exquo(common) for row in rows]
    lead = pow(int(next(q.LC() for q in quotients if not q.is_zero)) % p, -1, p)
    triple = []
    for form, q in zip(forms, quotients):
        degree = form.degree - gcd_degree
        coeffs = q.all_coeffs()[::-1] if not q.is_zero else []
        triple.append(HomPoly3(degree, {(0, j, degree - j): int(c) * lead for j, c in enumerate(coeffs)}, p))
    return tuple(triple), gcd_degree


def _compose_against_oracle(model, letters, max_degree):
    """Compose ``letters`` onto the identity at the model's one prime, last
    letter first, checking each step against substitution and sympy's gcd of
    the composed binary forms; returns the oracle's gcd degree of each
    step."""
    prime = model.primes[0]
    g = model.identity().triple(prime)
    dropped = []
    for letter in reversed(letters):
        outer = _letter_triple(model, letter, prime)
        expected, gcd_degree = _normalized_by_sympy([substitute(q, g) for q in outer], prime)
        assert model._compose_letter(letter, 0, g) == expected
        dropped.append(gcd_degree)
        g = expected
        if g[0].degree > max_degree:
            break
    return dropped


@pytest.mark.parametrize("p", (1000003, 2083116181, 65537))
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_letter_step_matches_gcd3_on_the_composed_triple(p, data):
    entries = data.draw(st.lists(st.integers(-3, 3), min_size=9, max_size=9))
    model = CremonaModel(primes=(p,))
    try:
        linear = model.linear(entries).word[0]
    except InputError:
        assume(False)  # singular mod p
    sigma, h2, h3 = model.sigma().word[0], model.henon(2).word[0], model.henon(3).word[0]
    shear = model.monomial([1, 1, 0, 1]).word[0]
    # sigma-heavy words, so cancellation goes deep; (sigma, linear) is the
    # compose atom sigma o L, and the shear takes the plain gcd3 route
    steps = st.sampled_from(
        [(sigma,), (sigma,), (sigma, linear), (sigma, linear)]
        + [(h2,), (-h2,), (h3,), (linear,), (shear,)]
    )
    drawn = data.draw(st.lists(steps, min_size=1, max_size=8))
    word = [letter for step in drawn for letter in step]
    _compose_against_oracle(model, word, max_degree=48)


def test_letter_step_takes_the_henon_gcd_route(monkeypatch):
    # the last h of h o sigma o h o sigma o h meets a base-point pair
    # gcd a with gcd(a, g3 / a) != 1, the one case that runs gcd3 on a
    # composed triple
    model = CremonaModel(primes=(1000003,))
    sigma, h = model.sigma().word[0], model.henon(2).word[0]
    flags = []
    normalize = cremona.normalize_triple

    def recording(*triple, coprime=False):
        flags.append(coprime)
        return normalize(*triple, coprime=coprime)

    monkeypatch.setattr(cremona, "normalize_triple", recording)
    dropped = _compose_against_oracle(model, [h, sigma, h, sigma, h], max_degree=64)
    assert flags[-1] is False and flags.count(False) == 1
    assert all(dropped[1:])  # every step after the first cancels
    assert model._compose_word((h, sigma, h, sigma, h)).degree == 9


def _sigma_henon_measure(model):
    sigma, h = model.sigma(), model.henon(2)
    atoms = [("sigma", sigma, Fraction(1, 2)), ("h", h, Fraction(1, 4))]
    return FiniteMeasure(model, [*atoms, ("H", model.inverse(h), Fraction(1, 4))])


def test_inexact_sigma_quotient_retries_at_fresh_primes(monkeypatch):
    # the clean walk runs on a second, identical model, so that the patched
    # walk cannot take its states from the memo
    clean = sample_path(_sigma_henon_measure(CremonaModel()), 6, seed=3, trial=0)
    model = CremonaModel()
    measure = _sigma_henon_measure(model)
    sigma = model.sigma()
    divexact = cremona.divexact

    def inexact_at_default_primes(f, g):
        return None if f.p in model.primes else divexact(f, g)

    monkeypatch.setattr(cremona, "divexact", inexact_at_default_primes)
    # sigma o sigma cancels only in the word; the letter step divides
    with pytest.raises(BadPrimeSignal):
        model._compose_letter(sigma.word[0], 0, sigma.triple(model.primes[0]))
    path = sample_path(measure, 6, seed=3, trial=0)
    assert path.prime_retries > 0 and not path.discarded
    assert path.displacements == clean.displacements


def test_sigma_step_restricts_each_coordinate_once_per_line(monkeypatch):
    # g = h o L o h has one pair, (g1, g3), with a common factor of degree 2;
    # the other two pairs are proved coprime by the certificate
    p = 1000003
    model = CremonaModel(primes=(p,))
    h, lin = model.henon(2).word[0], model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1]).word[0]
    sigma = model.sigma().word[0]
    g = model._compose_word((h, lin, h)).triple(p)
    outer = _letter_triple(model, sigma, p)
    expected = normalize_triple(*(substitute(q, g) for q in outer))[0]
    common = polynomials.gcd3(g[0], g[2], HomPoly3.zero(g[0].degree, p))

    certified, gcd_calls, divisors = [], [], []
    certificate, gcd3, divexact = (
        getattr(polynomials, name) for name in ("coprimality_certificate", "gcd3", "divexact")
    )

    def recording_certificate(polys, q, groups):
        proved = certificate(polys, q, groups)
        certified.append((sorted(polys), list(groups), proved))
        return proved

    def recording_gcd3(*args, **kwargs):
        gcd_calls.append(args[:2])
        return gcd3(*args, **kwargs)

    def recording_divexact(f, d):
        divisors.append(d)
        return divexact(f, d)

    monkeypatch.setattr(polynomials, "coprimality_certificate", recording_certificate)
    monkeypatch.setattr(polynomials, "gcd3", recording_gcd3)
    monkeypatch.setattr(polynomials, "divexact", recording_divexact)
    assert model._compose_letter(sigma, 0, g) == expected

    # one certificate call gets each of the three rests once and tries the
    # three pairs; the pair (g1, g3) is the one it does not prove
    pairs = [(1, 2), (0, 2), (0, 1)]
    assert certified == [([0, 1, 2], pairs, {(1, 2), (0, 1)})]
    assert gcd_calls == [(g[0], g[2])]
    assert common.degree == 2 and divisors == [common] * 3  # that gcd3's check only


# -- tracks on a line -----------------------------------------------------------


def _line_test_atoms(model):
    """Every letter kind: sigma, h2, h3, a linear map, a coordinate swap, the
    shear and sigma's monomial matrix (the map sigma under another letter)."""
    return [
        model.sigma(),
        model.henon(2),
        model.henon(3),
        model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1]),
        model.linear([0, 1, 0, 1, 0, 0, 0, 0, 1]),
        model.monomial([1, 1, 0, 1]),
        model.monomial([-1, 0, 0, -1]),
    ]


def _product(model, atoms, letters):
    """The product of the atoms ``letters`` names (an index and whether the
    inverse is taken), left to right."""
    g = model.identity()
    for index, inverse in letters:
        g = model.multiply(g, model.inverse(atoms[index]) if inverse else atoms[index])
    return g


@st.composite
def _reduced_words(draw, kinds, max_size, min_size=0):
    """A word of letters (kind, inverse) over ``kinds`` with no letter next
    to its inverse."""
    word = []
    for _ in range(draw(st.integers(min_size, max_size))):
        letters = [(k, inverse) for k in kinds for inverse in (False, True)]
        if word:
            letters.remove((word[-1][0], not word[-1][1]))
        word.append(draw(st.sampled_from(letters)))
    return word


def _henon_degree(word):
    """The degree of the composite of a reduced word of Henon letters, pairs
    (n, inverse) for h_n or h_n^-1, composed left to right as maps (the
    first letter applied last), by the amalgam structure of Aut(A^2) (Jung
    1942, van der Kulk 1953; Friedland and Milnor 1989).

    h_n = t o e_n for the swap t(x, y) = (y, x) and the involution
    e_n(x, y) = (y^n - x, y), so h_n^-1 = e_n o t.  Written in these atoms,
    with each t o t cancelled, the word alternates single t's with runs of
    e's.  A run e_{a_1} o ... o e_{a_m} is (x, y) -> (+-x + q(y), y) for
    q = y^{a_1} - y^{a_2} + y^{a_3} - ..., and the degree is the product of
    deg q over the runs.  The coefficients of q are sums of at most as many
    +-1 as the word has letters, nonzero mod every prime a model takes at
    the lengths tested.  A run whose q has degree below 2 would be affine
    and merge with its neighbours; the formula refuses it.
    """
    atoms = []
    for n, inverse in word:
        for atom in (n, "t") if inverse else ("t", n):
            if atom == "t" and atoms and atoms[-1] == "t":
                atoms.pop()
            else:
                atoms.append(atom)
    degree, run = 1, []
    for atom in [*atoms, "t"]:
        if atom != "t":
            run.append(atom)
        elif run:
            q = {}
            for m, n in enumerate(run):
                q[n] = q.get(n, 0) + (-1) ** m
            top = max((n for n, c in q.items() if c), default=0)
            if top < 2:
                raise ValueError(f"the run {run} is affine")
            degree *= top
            run = []
    return degree


def test_henon_degree_formula_examples():
    assert _henon_degree([]) == 1
    assert _henon_degree([(2, False)]) == _henon_degree([(2, True)]) == 2
    assert _henon_degree([(3, True)]) == 3
    assert _henon_degree([(2, False)] * 6) == 64
    # h2^-1 o h3 = e2 o e3 is (x, y) -> (x + y^2 - y^3, y)
    assert _henon_degree([(2, True), (3, False)]) == 3
    # one run e2 e3 e2 e3 for alternating signs: q = 2 y^2 - 2 y^3
    assert _henon_degree([(2, True), (3, False), (2, True), (3, False)]) == 3
    assert _henon_degree([(3, False), (2, False), (3, True)]) == 9


def _check_suffix_degrees(model, elements, degree_of_suffix):
    """Compose the product of ``elements`` right to left, one left product
    per letter, and check the degree of each suffix elements[k:] against
    ``degree_of_suffix(k)``.  A step whose raw degree (the letter's degree
    times the suffix's) passes the model's cap must raise ResourceError."""
    g = model.identity()
    for k in range(len(elements) - 1, -1, -1):
        if elements[k].degree * g.degree > model.degree_cap:
            with pytest.raises(ResourceError):
                model.multiply(elements[k], g)
            return
        g = model.multiply(elements[k], g)
        assert g.degree == degree_of_suffix(k)


@pytest.mark.parametrize("primes", _LINE_PRIME_PAIRS)
@settings(max_examples=30, deadline=None)
@given(word=_reduced_words((2, 3), 12, min_size=1))
def test_henon_words_have_the_amalgam_degree(primes, word):
    # every suffix of a reduced word over h2^+-1 and h3^+-1 has the degree
    # of the formula, up to the default cap of 512; a longer word's degree
    # passes the cap at the step the formula says
    model = CremonaModel(primes)
    henon = {n: model.henon(n) for n in (2, 3)}
    elements = [model.inverse(henon[n]) if inverse else henon[n] for n, inverse in word]
    _check_suffix_degrees(model, elements, lambda k: _henon_degree(word[k:]))


_x, _y, _z = sympy.symbols("x y z")


def _plane_letter(spec, inverse, p):
    """The plane triple of a generator letter as three sympy polynomials
    over GF(p), from its atom's spec."""
    x, y, z = _x, _y, _z
    kind, *args = spec
    if kind == "sigma":
        exprs = (y * z, x * z, x * y)
    elif kind == "henon":
        n = args[0]
        if inverse:
            exprs = (x**n - y * z ** (n - 1), x * z ** (n - 1), z**n)
        else:
            exprs = (y * z ** (n - 1), y**n - x * z ** (n - 1), z**n)
    elif kind == "linear":
        matrix = sympy.Matrix(3, 3, list(args[0]))
        exprs = tuple((matrix.inv_mod(p) if inverse else matrix) * sympy.Matrix([x, y, z]))
    else:
        mono = MonomialMap(*args[0])
        mono = mono.inverse() if inverse else mono
        # (x, y) -> (x^a y^b, x^c y^d) in the chart z = 1, denominators cleared
        affine = [(x / z) ** mono.a * (y / z) ** mono.b, (x / z) ** mono.c * (y / z) ** mono.d, 1]
        denominator = sympy.lcm([sympy.fraction(sympy.together(e))[1] for e in affine])
        exprs = tuple(sympy.cancel(e * denominator) for e in affine)
    return [sympy.Poly(e, x, y, z, modulus=p) for e in exprs]


def _plane_map(model, atoms, word, p):
    """The coprime plane triple of the product of ``word``'s letters,
    composed letter by letter in sympy over GF(p)."""
    gens = (_x, _y, _z)
    triple = [sympy.Poly(v, *gens, modulus=p) for v in gens]
    for index, inverse in reversed(word):
        images = dict(zip(gens, (q.as_expr() for q in triple)))
        composed = [
            sympy.Poly(q.as_expr().subs(images, simultaneous=True), *gens, modulus=p)
            for q in _plane_letter(model._atoms[atoms[index].word[0] - 1].spec, inverse, p)
        ]
        common = functools.reduce(sympy.Poly.gcd, composed)
        triple = [q.exquo(common) for q in composed]
    return triple


def _same_plane_map(f, g):
    """Whether two coprime plane triples are proportional: every 2x2 minor
    vanishes."""
    return all((f[i] * g[j] - f[j] * g[i]).is_zero for i in range(3) for j in range(i + 1, 3))


@pytest.mark.parametrize("primes", _LINE_PRIME_PAIRS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_line_tracks_give_the_plane_degrees_and_equalities(primes, data):
    # each track's degree against an exact reference on the plane: the
    # amalgam formula for Henon words, the exponent matrices for monomial
    # words, and sympy's composition for mixed words of at most three
    # letters, which also decides u == v and u == v^-1
    model = CremonaModel(primes, degree_cap=64)
    assert all(t[0].box.shape[0] == 1 for _, t in model.identity().tracks)
    atoms = _line_test_atoms(model)
    kind = data.draw(st.sampled_from(["henon", "monomial", "mixed"]))
    if kind == "henon":
        word = data.draw(_reduced_words((1, 2), 6))  # h2 and h3
        elements = [model.inverse(atoms[k]) if inverse else atoms[k] for k, inverse in word]
        henon = [(atoms[k].degree, inverse) for k, inverse in word]
        _check_suffix_degrees(model, elements, lambda k: _henon_degree(henon[k:]))
        return
    if kind == "monomial":
        word = data.draw(_reduced_words((5, 6), 6))  # the shear and sigma's matrix
        elements = [model.inverse(atoms[k]) if inverse else atoms[k] for k, inverse in word]
        maps = [model._as_monomial(g) for g in elements]
        identity = MonomialMap(1, 0, 0, 1)
        _check_suffix_degrees(
            model, elements, lambda k: functools.reduce(MonomialMap.matmul, maps[k:], identity).degree
        )
        return
    letter = st.tuples(st.integers(0, 6), st.booleans())
    words = [data.draw(st.lists(letter, max_size=3)) for _ in range(2)]
    respelling = data.draw(st.sampled_from(["none", "sigma", "inverse"]))
    if respelling == "sigma":
        # the first word with sigma spelled by its monomial matrix: the same
        # map, another word
        words[1] = [(6 if index == 0 else index, inverse) for index, inverse in words[0]]
    elif respelling == "inverse":
        words[1] = [(index, not inverse) for index, inverse in reversed(words[0])]
    p = primes[0]
    u, v = (_product(model, atoms, word) for word in words)
    plane_u, plane_v = (_plane_map(model, atoms, word, p) for word in words)
    for g, plane in ((u, plane_u), (v, plane_v)):
        assert g.degree == max(q.total_degree() for q in plane)
    inverse_v = [(index, not inverse) for index, inverse in reversed(words[1])]
    assert (u == v) == _same_plane_map(plane_u, plane_v)
    assert (u == model.inverse(v)) == _same_plane_map(plane_u, _plane_map(model, atoms, inverse_v, p))


def test_a_line_through_a_base_point_drops_one_step_and_leaves_no_trace():
    # the frame at P has ad = bc, so its line t (1, 2, 0) + u (3, 6, 1)
    # passes through [0:0:1], a base point of sigma, at (t:u) = (-3:1)
    P, Q = DEFAULT_PRIME, SECOND_PRIME
    bad = normalize_triple(
        HomPoly3(1, {(0, 1, 0): 1, (0, 0, 1): 3}, P),
        HomPoly3(1, {(0, 1, 0): 2, (0, 0, 1): 6}, P),
        HomPoly3.variable(2, P),
        coprime=True,
    )[0]
    frame = cremona.frame
    with mock.patch.object(cremona, "frame", lambda p: bad if p == P else frame(p)):
        model = CremonaModel((P, Q))
    frames = model.identity().tracks
    sigma = model.sigma()
    letter = sigma.word[0]
    # sigma o l has the common factor Y + 3Z, so the step reads degree 1
    missed = model._compose_letter(letter, 0, bad)
    assert missed[0].degree == 1
    assert model._compose_letter(letter, 1, frames[1][1])[0].degree == 2
    # the other prime's line is good, so the step is a bad prime
    with pytest.raises(BadPrimeSignal):
        model._compose_tracks((letter,), frames, 1)
    with pytest.raises(BadPrimeSignal):
        sigma.tracks
    # sigma o sigma is the identity, which has no base point: composed onto
    # the missed track, sigma gives the frame back, at the identity's degree
    # 1 on the plane
    assert model._compose_letter(letter, 0, missed) == bad


# -- the composition memo -------------------------------------------------------


def _check_memo(model):
    """The memo holds the identity on each prime's frame (a line at these
    primes: three linear forms in Y and Z), keys each state by its reduced
    word, and counts exactly the box bytes of its other states, within the
    budget."""
    memo = model._memo
    identity = tuple((p, cremona.frame(p)) for p in model.primes)
    assert memo[()] == (identity, 1)
    assert all(q.corner[0] == 0 and q.box.shape[0] == 1 for _, t in identity for q in t)
    assert all(model._reduce_word(word) == word for word in memo)
    stored = sum(
        poly.box.nbytes for word in memo if word for _, t in memo[word][0] for poly in t
    )
    assert model._memo_bytes == stored <= cremona._MEMO_BYTES


def _memo_atoms(model):
    """sigma, h2, h2^-1, L, L^-1, the compound sigma o L and its inverse."""
    sigma, h = model.sigma(), model.henon(2)
    lin = model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1])
    sigma_l = model.multiply(sigma, lin)
    inverses = [model.inverse(g) for g in (h, lin, sigma_l)]
    return [sigma, h, lin, sigma_l, *inverses]


@pytest.mark.parametrize("memo_bytes", [cremona._MEMO_BYTES, 4096])
@pytest.mark.parametrize("primes", [(DEFAULT_PRIME, SECOND_PRIME), (2083116181, 2147483647)])
@settings(max_examples=10, deadline=None)
@given(
    steps=st.lists(
        st.one_of(
            st.tuples(st.integers(0, 6), st.booleans()), st.integers(-2, 3), st.none()
        ),
        max_size=12,
    )
)
# at 4096 bytes the last step holds no suffix of its word and composes it
# from the identity, and its second state evicts the 7-letter word before it
@example(steps=[(6, False)] * 3 + [(4, True), (3, False)])
def test_memo_changes_no_composition(primes, memo_bytes, steps):
    # a step is a product with an atom (an index and whether it goes on the
    # left), a power g^m (an int m), or a read of g's lazy inverse (None).
    # sigma o sigma, h o h^-1 and sigma o (sigma o L) cancel in the word, so
    # most products land on, or cut back into, words composed before; at
    # 4096 bytes the memo evicts in mid-walk and drops most states
    model = CremonaModel(primes, degree_cap=64)
    reference = CremonaModel(primes, degree_cap=64)
    atoms = _memo_atoms(model)
    _memo_atoms(reference)  # the same atom indices; _compose_tracks skips the memo
    identity = reference.identity().tracks

    def read_inverse(g):
        inverse = model.inverse(g)
        inverse.tracks
        return inverse

    with mock.patch.object(cremona, "_MEMO_BYTES", memo_bytes):
        g = model.identity()
        for step in steps:
            inverse_word = tuple(reference._inverse_letter(x) for x in reversed(g.word))
            if step is None:
                word, call = inverse_word, lambda: read_inverse(g)
            elif isinstance(step, int):
                base = g.word if step >= 0 else inverse_word
                word = reference._reduce_word(base * abs(step))
                call = lambda: model.power(g, step)
            else:
                index, on_left = step
                factors = (atoms[index], g) if on_left else (g, atoms[index])
                word = reference._reduce_word(factors[0].word + factors[1].word)
                call = lambda: model.multiply(*factors)
            try:
                expected = reference._compose_tracks(word, identity, 1)
            except ResourceError:
                with pytest.raises(ResourceError):
                    call()
                continue
            g = call()
            assert g.word == word and (g.tracks, g.degree) == expected
            _check_memo(model)


def test_memo_keeps_its_byte_budget_and_pickles_empty(monkeypatch):
    model = CremonaModel()
    measure = _sigma_henon_measure(model)
    size = len(pickle.dumps(model))
    paths = [sample_path(measure, 6, seed=3, trial=t) for t in range(8)]
    assert len(model._memo) > 1 and len(pickle.dumps(model)) == size
    clone = pickle.loads(pickle.dumps(model))
    assert list(clone._memo) == [()] and clone._memo_bytes == 0
    assert clone.identity() == model.identity()

    # a budget of a few small states: the walks evict the oldest in mid-walk
    tight = CremonaModel()
    measure = _sigma_henon_measure(tight)
    monkeypatch.setattr(cremona, "_MEMO_BYTES", 1024)
    evicted = []
    store = CremonaModel._store

    def recording_store(self, *args):
        before = list(self._memo)
        store(self, *args)
        evicted.extend(word for word in before if word not in self._memo)
        _check_memo(tight)

    monkeypatch.setattr(CremonaModel, "_store", recording_store)
    for t, path in enumerate(paths):
        again = sample_path(measure, 6, seed=3, trial=t)
        assert again.displacements == path.displacements
        assert again.final == path.final
    assert len(evicted) > 10
    assert len(pickle.dumps(tight)) == size


def test_memo_holds_each_generator_within_the_cap():
    # a generator's tracks are its letter composed onto the frames when they
    # are first read, and stored then, within the cap
    model = CremonaModel(degree_cap=4)
    h2, h8 = model.henon(2), model.henon(8)
    assert list(model._memo) == [()]
    tracks = h2.tracks
    assert list(model._memo.items())[1:] == [((1,), (tracks, 2))]
    # h8 is past the cap, so composing its letter still raises, and so does
    # reading its tracks
    with pytest.raises(ResourceError):
        model.multiply(model.identity(), h8)
    with pytest.raises(ResourceError):
        h8.tracks
    assert list(model._memo) == [(), (1,)]


def test_memo_is_freed_with_its_model():
    # without the cycle collector: each run's model is dropped by reference
    # counting, so repeated runs do not pile up composed states
    model = CremonaModel()
    _sample_word(model)
    stored = [
        weakref.ref(poly.box)
        for word, (tracks, _) in model._memo.items()
        if word
        for _, triple in tracks
        for poly in triple
    ]
    assert len(stored) > 3
    gc.disable()
    try:
        del model
        assert all(ref() is None for ref in stored)
    finally:
        gc.enable()


def test_degree_sequence_composes_each_power_past_the_last(monkeypatch):
    # g = L o sigma o h o L^-1 is not cyclically reduced, so the reduced word
    # of g^m is L (sigma h)^m L^-1 and shares only (sigma h)^(m-1) L^-1 with
    # g^(m-1)
    model = CremonaModel()
    sigma, h = model.sigma(), model.henon(2)
    lin = model.linear([1, 2, 0, 0, 1, 3, 1, 0, 1])
    g = model.multiply(model.multiply(lin, model.multiply(sigma, h)), model.inverse(lin))
    composed, power = {}, model.power
    compose = CremonaModel._compose_tracks

    def recording_power(g, m):
        composed[m] = []
        return power(g, m)

    def recording_compose(self, letters, *args):
        composed[max(composed)].extend(letters)
        return compose(self, letters, *args)

    monkeypatch.setattr(model, "power", recording_power)
    monkeypatch.setattr(CremonaModel, "_compose_tracks", recording_compose)
    seq = model.degree_sequence(g, 4)
    monkeypatch.undo()

    def shared_suffix(u, v):
        k = 0
        while k < min(len(u), len(v)) and u[-1 - k] == v[-1 - k]:
            k += 1
        return k

    words = {m: model._reduce_word(g.word * m) for m in range(1, 5)}
    # g^2 too, since building g composed the states of g's suffixes
    for m in (2, 3, 4):
        front = words[m][: len(words[m]) - shared_suffix(words[m], words[m - 1])]
        assert composed[m] == list(reversed(front))
        assert len(front) == 3
    reference = CremonaModel()
    _memo_atoms(reference)  # sigma, h and L first, as in model
    identity = reference.identity().tracks
    assert seq == [reference._compose_tracks(words[m], identity, 1)[1] for m in range(1, 5)]
    assert seq == [3, 6, 12, 19]
