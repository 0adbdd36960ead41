import functools
import random
import tracemalloc

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from hypwalk import polynomials
from hypwalk.errors import BadPrimeSignal, InputError
from hypwalk.polynomials import (
    DEFAULT_PRIME,
    HomPoly3,
    _restrict_to_line,
    divexact,
    fresh_prime,
    gcd3,
    is_prime,
    normalize_triple,
    substitute,
)

# A prime from the 31-bit range the bad-prime retry policy draws from; int64
# sums of (p - 1)^2 products overflow here after a single term.
P31 = 2083116181

X = HomPoly3.variable(0)
Y = HomPoly3.variable(1)
Z = HomPoly3.variable(2)


def _random_poly(rng, degree, density=0.5, p=DEFAULT_PRIME):
    coeffs = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            if rng.random() < density:
                coeffs[(i, j, degree - i - j)] = rng.randrange(1, p)
    return HomPoly3(degree, coeffs, p)


def test_ring_op_examples():
    assert X.add(Y).mul(X.sub(Y)) == X.mul(X).sub(Y.mul(Y))
    sq = X.add(Y).pow(2)
    expected = HomPoly3(2, {(2, 0, 0): 1, (1, 1, 0): 2, (0, 2, 0): 1})
    assert sq == expected
    zero = HomPoly3.zero(3)
    prod = zero.mul(X.mul(Y))
    assert prod.is_zero() and prod.degree == 5


def test_constructor_allocates_only_the_box():
    # a Henon-type generator of degree n is an (n + 1) x 2 box; its dense
    # (n + 1)^2 form would take 32 MB here
    n = 2000
    tracemalloc.start()
    try:
        poly = HomPoly3(n, {(n, 0, 0): 1, (0, 1, n - 1): -1}, 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert poly.box.shape == (n + 1, 2) and poly.corner == (0, 0)
    assert peak < 2**20


def test_add_requires_equal_degrees():
    with pytest.raises(InputError):
        X.add(X.mul(Y))


def test_mul_commutative_associative_random():
    rng = random.Random(2)
    for _ in range(25):
        a = _random_poly(rng, rng.randrange(1, 5))
        b = _random_poly(rng, rng.randrange(1, 5))
        c = _random_poly(rng, rng.randrange(1, 4))
        assert a.mul(b) == b.mul(a)
        assert a.mul(b).mul(c) == a.mul(b.mul(c))


def test_substitute_examples():
    sigma = (Y.mul(Z), X.mul(Z), X.mul(Y))
    assert substitute(X, sigma) == Y.mul(Z)
    assert substitute(X.mul(Y), sigma) == Y.mul(Z).mul(X.mul(Z))
    ident = (X, Y, Z)
    poly = X.mul(X).add(Y.mul(Z))
    assert substitute(poly, ident) == poly


def test_substitute_multiplicative_random():
    rng = random.Random(7)
    triple = (
        _random_poly(rng, 2, 0.8),
        _random_poly(rng, 2, 0.8),
        _random_poly(rng, 2, 0.8),
    )
    for _ in range(10):
        a = _random_poly(rng, rng.randrange(1, 4), 0.7)
        b = _random_poly(rng, rng.randrange(1, 4), 0.7)
        lhs = substitute(a.mul(b), triple)
        rhs = substitute(a, triple).mul(substitute(b, triple))
        assert lhs == rhs


def test_substitute_degree_mismatch():
    with pytest.raises(InputError):
        substitute(X, (X, Y, X.mul(Y)))


def test_gcd3_examples():
    assert gcd3(X.mul(Y), X.mul(Z), X.mul(Y.add(Z))) == X
    xyz_monomials = (
        HomPoly3.monomial(2, 1, 1),
        HomPoly3.monomial(1, 2, 1),
        HomPoly3.monomial(1, 1, 2),
    )
    assert gcd3(*xyz_monomials) == HomPoly3.monomial(1, 1, 1)
    assert gcd3(X.pow(2), Y.pow(2), Z.pow(2)) == HomPoly3.monomial(0, 0, 0)


def test_gcd3_finds_planted_nonmonomial_factor():
    rng = random.Random(11)
    for _ in range(10):
        common = X.add(Y)  # nonmonomial common factor
        a = common.mul(_random_poly(rng, 2, 0.8))
        b = common.mul(_random_poly(rng, 2, 0.8))
        c = common.mul(_random_poly(rng, 3, 0.8))
        g = gcd3(a, b, c)
        assert divexact(g, common) is not None  # common divides the gcd
        for poly in (a, b, c):
            assert divexact(poly, g) is not None


def test_gcd3_divides_inputs_random():
    rng = random.Random(13)
    for _ in range(20):
        a = _random_poly(rng, rng.randrange(1, 5), 0.6)
        b = _random_poly(rng, rng.randrange(1, 5), 0.6)
        c = _random_poly(rng, rng.randrange(1, 5), 0.6)
        if a.is_zero() and b.is_zero() and c.is_zero():
            continue
        g = gcd3(a, b, c)
        for poly in (a, b, c):
            if not poly.is_zero():
                assert divexact(poly, g) is not None


def test_divexact_detects_non_divisibility():
    assert divexact(X.mul(Y), X) == Y
    assert divexact(X.add(Y).mul(X), X.add(Y)) == X
    assert divexact(X.mul(X).add(Y.mul(Z)), X) is None


def test_normalize_triple_sigma_squared():
    # sigma composed with itself: (X^2 Y Z, X Y^2 Z, X Y Z^2) -> identity map
    triple = (
        HomPoly3.monomial(2, 1, 1),
        HomPoly3.monomial(1, 2, 1),
        HomPoly3.monomial(1, 1, 2),
    )
    (p1, p2, p3), dropped = normalize_triple(*triple)
    assert (p1, p2, p3) == (X, Y, Z)
    assert dropped == 3


def test_normalize_triple_scaling_and_coprime():
    two = X.scale(2), Y.scale(2), Z.scale(2)
    (p1, p2, p3), dropped = normalize_triple(*two)
    assert (p1, p2, p3) == (X, Y, Z)
    assert dropped == 0

    coprime = (X.pow(2), Y.pow(2), Z.pow(2))
    normalized, dropped = normalize_triple(*coprime)
    assert normalized == coprime
    assert dropped == 0


def test_normalize_triple_rejects_zero():
    zeros = tuple(HomPoly3.zero(2) for _ in range(3))
    with pytest.raises(BadPrimeSignal):
        normalize_triple(*zeros)


def test_normalize_degree_drop_iff_gcd():
    rng = random.Random(17)
    for _ in range(10):
        a = _random_poly(rng, 3, 0.7)
        b = _random_poly(rng, 3, 0.7)
        c = _random_poly(rng, 3, 0.7)
        (q1, q2, q3), dropped = normalize_triple(a, b, c)
        assert q1.degree == 3 - dropped
        follow_up = gcd3(q1, q2, q3)
        assert follow_up == HomPoly3.monomial(0, 0, 0)


def test_prime_utilities():
    assert is_prime(DEFAULT_PRIME) and is_prime(1000033)
    assert not is_prime(10**6)

    class FakeRng:
        def __init__(self):
            self.values = iter([2**30 + 1, 2**30 + 3, 2**30 + 9, 2**30 + 11])

        def integers(self, lo, hi):
            return next(self.values)

    # 2^30 + 3 is prime (2^30 + 1 is not); the helper must skip composites
    assert fresh_prime(FakeRng()) == 2**30 + 3


def test_divexact_z_power_in_divisor():
    # setting Z = 1 divides these exactly; the homogeneous quotient does not exist
    assert divexact(X, Z) is None
    assert divexact(X.mul(Y), Z.mul(Y)) is None
    assert divexact(X.mul(Z), Z.mul(Z)) is None
    rng = random.Random(23)
    h = _random_poly(rng, 12, density=1.0)
    a = _random_poly(rng, 12, density=1.0)
    assert divexact(a.mul(h), Z.mul(h)) is None
    assert divexact(a.mul(h).mul(Z), Z.mul(h)) == a


def test_divexact_exact_at_31_bit_prime():
    rng = random.Random(29)
    a = _random_poly(rng, 20, density=0.9, p=P31)
    g = _random_poly(rng, 20, density=0.9, p=P31)
    assert divexact(a.mul(g), g) == a


def test_gcd3_finds_degree_20_factor_at_31_bit_prime():
    rng = random.Random(31)
    common = _random_poly(rng, 20, density=0.9, p=P31)
    polys = [common.mul(_random_poly(rng, d, density=0.9, p=P31)) for d in (3, 3, 4)]
    g = gcd3(*polys)
    assert g.degree == 20
    assert g == common.scale(pow(common.terms()[0][1], P31 - 2, P31))


def _restrict_reference(poly, line, a=0):
    """poly(t + a, b t + c, 1) for the line (b, c), by Python-integer
    polynomial products."""
    b, c = line
    p = poly.p

    def times(u, v):
        out = [0] * (len(u) + len(v) - 1)
        for i, x in enumerate(u):
            for j, y in enumerate(v):
                out[i + j] = (out[i + j] + x * y) % p
        return out

    acc = [0] * (2 * poly.degree + 1)
    for (i, j, _), coeff in poly.coeffs.items():
        term = [coeff]
        for _ in range(i):
            term = times(term, [a, 1])
        for _ in range(j):
            term = times(term, [c, b])
        for k, v in enumerate(term):
            acc[k] = (acc[k] + v) % p
    while acc and acc[-1] == 0:
        acc.pop()
    return acc


def test_restrict_to_line_exact_at_31_bit_prime():
    rng = random.Random(37)
    poly = _random_poly(rng, 40, density=0.9, p=P31)
    for line in polynomials._CERT_LINES:
        assert _restrict_to_line(poly, line).tolist() == _restrict_reference(poly, line)


def test_gcd_verification_failure_is_a_bad_prime(monkeypatch):
    monkeypatch.setattr(polynomials, "_divides_all", lambda g, polys: False)
    with pytest.raises(BadPrimeSignal):
        gcd3(X.mul(Y), X.mul(Z), X.mul(Y.add(Z)))


# ---------------------------------------------------------------------------
# Oracle properties against sympy's polynomials over GF(p).

_ORACLE_PRIMES = (DEFAULT_PRIME, P31, 2, 3, 5)
_x, _y, _z = sympy.symbols("x y z")


@st.composite
def _hompolys(draw, p, max_degree, min_degree=0):
    degree = draw(st.integers(min_degree, max_degree))
    coeffs = {}
    for i in range(degree + 1):
        for j in range(degree + 1 - i):
            coeffs[(i, j, degree - i - j)] = draw(
                st.sampled_from((0, 1, p - 1)) | st.integers(0, p - 1)
            )
    return HomPoly3(degree, coeffs, p)


def _to_sympy(poly):
    return sympy.Poly.from_dict(
        dict(poly.coeffs) or {(0, 0, 0): 0}, _x, _y, _z, modulus=poly.p
    )


def _from_sympy(poly, degree, p):
    return HomPoly3(degree, {m: int(c) % p for m, c in poly.terms() if c}, p)


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_divexact_matches_sympy(p, data):
    a = data.draw(_hompolys(p, 3))
    g = data.draw(_hompolys(p, 3))
    e = data.draw(_hompolys(p, 6))
    if g.is_zero():
        return
    f = a.mul(g)
    assert divexact(f, g) == a
    if e.degree == f.degree and data.draw(st.booleans()):
        f = f.add(e)
    quotient, remainder = _to_sympy(f).div(_to_sympy(g))
    expected = (
        _from_sympy(quotient, f.degree - g.degree, p)
        if remainder.is_zero
        else None
    )
    assert divexact(f, g) == expected


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_gcd3_matches_sympy(p, data):
    common = data.draw(_hompolys(p, 2))
    polys = [common.mul(data.draw(_hompolys(p, 3))) for _ in range(3)]
    nonzero = [_to_sympy(q) for q in polys if not q.is_zero()]
    if not nonzero:
        return
    expected = functools.reduce(sympy.Poly.gcd, nonzero).monic()
    g = gcd3(*polys)
    assert g == _from_sympy(expected, expected.total_degree(), p)


def test_gcd3_checks_the_first_pairwise_gcd_at_p5():
    # Three polys over GF(5) sharing X + Y.  Every nonzero point of GF(5) is
    # unlucky for the first pair, so its modular gcd is wrong, and folded
    # with the third poly it gave 1, which passes the final trial division.
    p = 5
    f1 = HomPoly3(3, {(3, 0, 0): 1, (2, 1, 0): 2, (1, 0, 2): 1, (0, 3, 0): 4, (0, 1, 2): 1}, p)
    f2 = HomPoly3(3, {(2, 1, 0): 3, (1, 2, 0): 4, (1, 0, 2): 4, (0, 3, 0): 1, (0, 1, 2): 4}, p)
    f3 = HomPoly3(2, {(2, 0, 0): 1, (1, 1, 0): 2, (1, 0, 1): 4, (0, 2, 0): 1, (0, 1, 1): 4}, p)
    assert gcd3(f1, f2, f3) == HomPoly3(1, {(1, 0, 0): 1, (0, 1, 0): 1}, p)
    boxes = [f.box for f in (f1, f2, f3)]
    assert polynomials._bivariate_gcd_list(boxes, p, polynomials._modular_bivariate_gcd) is None


def _dict_add(a, b, p):
    """The sum of two {exponent triple: residue} dicts, zeros dropped."""
    out = dict(a)
    for key, c in b.items():
        out[key] = (out.get(key, 0) + c) % p
    return {key: c for key, c in out.items() if c}


def _dict_scale(a, c, p):
    return {key: v * c % p for key, v in a.items() if v * c % p}


@st.composite
def _raw_coeffs(draw, p, degree):
    """A coefficient dict on some of degree's exponent triples, with zero,
    negative and >= p values."""
    keys = [(i, j, degree - i - j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    value = st.sampled_from((0, p, -1, -p, 2 * p + 1)) | st.integers(-3 * p, 3 * p)
    return {key: draw(value) for key in draw(st.lists(st.sampled_from(keys), unique=True))}


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_array_representation_matches_dict_reference(p, data):
    degree = data.draw(st.integers(0, 5))
    raw = [data.draw(_raw_coeffs(p, degree)) for _ in range(2)]
    a, b = (HomPoly3(degree, r, p) for r in raw)
    clean_a, clean_b = ({key: c % p for key, c in r.items() if c % p} for r in raw)
    for poly, clean in ((a, clean_a), (b, clean_b)):
        assert poly.coeffs == clean
        assert poly.terms() == sorted(clean.items(), reverse=True)
        assert poly.num_terms() == len(clean) and poly.is_zero() == (not clean)
        if clean:
            assert poly._leading_coefficient() == poly.terms()[0][1]

    c = data.draw(st.integers(-2 * p, 2 * p))
    for got, expected in (
        (a.add(b), _dict_add(clean_a, clean_b, p)),
        (a.neg(), _dict_scale(clean_a, -1, p)),
        (a.sub(b), _dict_add(clean_a, _dict_scale(clean_b, -1, p), p)),
        (a.scale(c), _dict_scale(clean_a, c, p)),
        (a.scale(0), {}),
        (a.sub(a), {}),
    ):
        assert got.coeffs == expected and got.degree == degree  # a zero keeps it
        assert got == HomPoly3(degree, expected, p)

    e = data.draw(st.integers(0, 2))
    triple = [HomPoly3(e, data.draw(_raw_coeffs(p, e)), p) for _ in range(3)]
    for got in (a.mul(b), substitute(a, triple)):
        rebuilt = HomPoly3(got.degree, got.coeffs, p)
        assert got == rebuilt and hash(got) == hash(rebuilt)

    nonzero = [(q, clean) for q, clean in ((a, clean_a), (b, clean_b)) if clean]
    if nonzero:
        shift = polynomials._monomial_content([q for q, _ in nonzero])
        keys = [key for _, clean in nonzero for key in clean]
        assert shift == tuple(min(key[v] for key in keys) for v in range(3))
        for q, clean in nonzero:
            expected = {tuple(np.subtract(key, shift).tolist()): c for key, c in clean.items()}
            shifted = polynomials._shift_exponents(q, shift)
            assert shifted == HomPoly3(degree - sum(shift), expected, p)
            assert shifted.coeffs == expected


@pytest.mark.parametrize("p", (DEFAULT_PRIME, P31, 5))
def test_udivexact_returns_none_for_a_non_multiple(p):
    # y^2 + 2 is 3 at the root y = -1 of y + 1, and 3 is no multiple of p
    assert polynomials._udivexact(np.array([2, 0, 1]), np.array([1, 1]), p) is None
    assert polynomials._udivexact(np.array([2, 3, 1]), np.array([1, 1]), p).tolist() == [2, 1]
    q, v = [3, 0, p - 1], [p - 2, 1, 2]
    qv = _umul_ints(q, v, p)
    assert polynomials._udivexact(np.array(qv), np.array(v), p).tolist() == q
    qv[0] = (qv[0] + 1) % p  # + r with r = 1
    assert polynomials._udivexact(np.array(qv), np.array(v), p) is None


@pytest.mark.parametrize("p", _ORACLE_PRIMES + (2**31 - 1,))
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_udivmod_matches_sympy(p, data):
    coeff = st.sampled_from((0, 1, p - 1)) | st.integers(0, p - 1)
    u = data.draw(st.lists(coeff, max_size=14))
    v = data.draw(st.lists(coeff, max_size=8)) + [data.draw(st.integers(1, p - 1))]
    q, r = polynomials._udivmod(u, v, p)
    assert len(r) < len(v) and (not r or r[-1])

    def poly(c):
        return sympy.Poly(c[::-1] or [0], _x, modulus=p)

    assert poly(q) * poly(v) + poly(r) == poly(u)
    assert (poly(q), poly(r)) == poly(u).div(poly(v))


def _conv2d_reference(a, b, p):
    """The 2-D convolution of two integer arrays mod p, by one Python-integer
    product (Kronecker substitution): x^i y^j becomes 2^(128 (i W + j)) for
    the output width W, and no output entry reaches 2^128 before the mod."""
    width = len(a[0]) + len(b[0]) - 1
    rows = len(a) + len(b) - 1

    def pack(arr):
        slots = [0] * (rows * width)
        for i, row in enumerate(arr):
            slots[i * width : i * width + len(row)] = row
        return int.from_bytes(b"".join(v.to_bytes(16, "little") for v in slots), "little")

    raw = (pack(a) * pack(b)).to_bytes(16 * rows * width, "little")
    flat = [int.from_bytes(raw[16 * k : 16 * k + 16], "little") % p for k in range(rows * width)]
    return [flat[i * width : (i + 1) * width] for i in range(rows)]


@st.composite
def _residue_arrays(draw, p, max_rows, max_cols):
    rows = draw(st.integers(1, max_rows))
    cols = draw(st.integers(1, max_cols))
    entry = st.sampled_from((0, 1, p - 1)) | st.integers(0, p - 1)
    arr = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    # whole zero rows and columns, which the kernel skips or keeps
    for i in draw(st.lists(st.integers(0, rows - 1), max_size=2)):
        arr[i] = [0] * cols
    for j in draw(st.lists(st.integers(0, cols - 1), max_size=2)):
        for row in arr:
            row[j] = 0
    return arr


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_conv2d_mod_matches_integer_convolution(p, data):
    a = data.draw(_residue_arrays(p, 5, 9))
    b = data.draw(_residue_arrays(p, 5, 9))
    got = polynomials._conv2d_mod(np.array(a), np.array(b), p)
    assert got.dtype == np.int64 and got.tolist() == _conv2d_reference(a, b, p)


def _full_array(rows, cols, p, rng):
    """A residue array of entries near p - 1, the worst case for the bound."""
    return [[rng.randrange(p - 3, p) for _ in range(cols)] for _ in range(rows)]


@pytest.fixture
def reductions(monkeypatch):
    """The shapes of the arrays reduced mod p, one per reduction."""
    seen = []
    residues = polynomials._residues
    monkeypatch.setattr(
        polynomials, "_residues", lambda v, q: seen.append(v.shape) or residues(v, q)
    )
    return seen


@pytest.mark.parametrize("p", (DEFAULT_PRIME, P31))
def test_conv2d_mod_on_both_sides_of_the_float_bound(p, reductions):
    # at 1000003 one row product holds (2^53 - p) // (p - 1)^2 = 9007 terms
    # exactly: 95 x 95 operands (95^2 = 9025 terms on an entry) need one
    # reduction between row products and 94 x 94 (8836) none; at 2083116181
    # every product is split into 16-bit halves
    rng = random.Random(41)
    shapes = [((1, 1), (1, 1)), ((2, 3), (3, 2)), ((94, 94), (94, 94)), ((95, 95), (95, 95))]
    for sa, sb in shapes:
        a, b = _full_array(*sa, p, rng), _full_array(*sb, p, rng)
        reductions.clear()
        got = polynomials._conv2d_mod(np.array(a), np.array(b), p)
        assert got.tolist() == _conv2d_reference(a, b, p)
        if p == P31:
            assert len(reductions) == 4  # one per 16-bit half product
        elif sa == (95, 95):
            assert len(reductions) == 2  # one between row products, one at the end
        else:
            assert len(reductions) == 1


@pytest.mark.parametrize("p", (DEFAULT_PRIME, P31))
def test_matmul_mod_on_both_sides_of_the_float_bound(p, reductions):
    # at 1000003 an inner dimension of 9007 is the longest summed in one
    # float64 pass and 9008 is split into 16-bit halves, as every product
    # is at 2083116181
    rng = random.Random(43)
    for n in (1, 9007, 9008):
        a, b = _full_array(2, n, p, rng), _full_array(n, 3, p, rng)
        expected = [
            [sum(a[i][k] * b[k][j] for k in range(n)) % p for j in range(3)] for i in range(2)
        ]
        reductions.clear()
        assert polynomials._matmul_mod(np.array(a), np.array(b), p).tolist() == expected
        assert len(reductions) == (1 if p == DEFAULT_PRIME and n < 9008 else 4)


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_mul_matches_integer_convolution(p, data):
    a = data.draw(_hompolys(p, 6))
    b = data.draw(_hompolys(p, 6))
    degree = a.degree + b.degree
    expected = _conv2d_reference(a._to_array().tolist(), b._to_array().tolist(), p)
    coeffs = {
        (i, j, degree - i - j): c
        for i, row in enumerate(expected)
        for j, c in enumerate(row)
        if c
    }
    assert a.mul(b) == HomPoly3(degree, coeffs, p)


@pytest.mark.parametrize("p", (DEFAULT_PRIME, P31))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_substitute_matches_sympy(p, data):
    poly = data.draw(_hompolys(p, 3))
    e = data.draw(st.integers(0, 3))
    triple = [data.draw(_hompolys(p, e, min_degree=e)) for _ in range(3)]
    images = dict(zip((_x, _y, _z), (_to_sympy(q).as_expr() for q in triple)))
    expr = _to_sympy(poly).as_expr().subs(images, simultaneous=True)
    expected = sympy.Poly(expr, _x, _y, _z, modulus=p)
    assert substitute(poly, triple) == _from_sympy(expected, poly.degree * e, p)


@pytest.mark.parametrize("p", (DEFAULT_PRIME, P31))
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_normalize_triple_matches_sympy(p, data):
    common = data.draw(_hompolys(p, 2))
    e = data.draw(st.integers(0, 3))
    triple = [common.mul(data.draw(_hompolys(p, e, min_degree=e))) for _ in range(3)]
    nonzero = [_to_sympy(q) for q in triple if not q.is_zero()]
    if not nonzero:
        return  # the zero triple is test_normalize_triple_rejects_zero
    g = functools.reduce(sympy.Poly.gcd, nonzero)
    quotients = [_to_sympy(q).exquo(g) for q in triple]
    lead = next(q.LC() for q in quotients if not q.is_zero)
    scale = pow(int(lead) % p, -1, p)
    expected = tuple(
        _from_sympy(q * scale, q_in.degree - g.total_degree(), p)
        for q, q_in in zip(quotients, triple)
    )
    assert normalize_triple(*triple) == (expected, g.total_degree())


# ---------------------------------------------------------------------------
# The gcd kernels against their straightforward versions.


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_restrict_to_line_matches_reference(p, data):
    line = data.draw(
        st.sampled_from(polynomials._CERT_LINES)
        | st.tuples(*[st.integers(0, p - 1)] * 2)
    )
    big = data.draw(_hompolys(p, 9, min_degree=5))
    small = data.draw(_hompolys(p, 4))
    other_p = data.draw(st.sampled_from([q for q in _ORACLE_PRIMES if q != p]))
    elsewhere = data.draw(_hompolys(other_p, 6))
    polynomials._LINE_TABLES.clear()
    # the small restriction reads a prefix of the table the big one grew,
    # and the same line at a second prime keeps a table of its own
    for poly in (big, small, elsewhere, big):
        assert _restrict_to_line(poly, line).tolist() == _restrict_reference(poly, line)


def test_line_tables_keep_a_few_primes():
    polynomials._LINE_TABLES.clear()
    primes = (DEFAULT_PRIME, P31, 2, 3, 5, 7)
    for p in primes:
        _restrict_to_line(HomPoly3(3, {(1, 1, 1): 1}, p), (2, 1))
    assert list(polynomials._LINE_TABLES) == list(primes[-polynomials._LINE_TABLE_PRIMES :])


# The certificate's lines as (a, b, c) for (t + a, b t + c, 1), before the
# shift a was folded into c; _CERT_LINES holds the same two lines.
_SHIFTED_CERT_LINES = ((1, 2, 3), (5, 7, 11))


def _proved_on_shifted_lines(polys, p, groups):
    """The groups whose restrictions to one of _SHIFTED_CERT_LINES all keep
    their degree and have a constant gcd."""
    proved = set()
    for a, b, c in _SHIFTED_CERT_LINES:
        for group in groups:
            vectors = [
                np.array(_restrict_reference(polys[k], (b, c), a), dtype=np.int64)
                for k in group
            ]
            if any(v.size != polys[k].degree + 1 for v, k in zip(vectors, group)):
                continue
            gcd = functools.reduce(lambda u, v: polynomials._ugcd(u, v, p), vectors)
            if gcd.size == 1:
                proved.add(group)
    return proved


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_certificate_proves_what_the_shifted_lines_prove(p, data):
    # (t, b t + c - a b, 1) is (t + a, b t + c, 1) reparametrized, so the
    # restrictions are translates: same degree drops, same gcd degrees
    assert [(b, c - a * b) for a, b, c in _SHIFTED_CERT_LINES] == list(
        polynomials._CERT_LINES
    )
    common = data.draw(_hompolys(p, 2, min_degree=1))
    polys = [
        common.mul(data.draw(_hompolys(p, 2))) if data.draw(st.booleans())
        else data.draw(_hompolys(p, 4))
        for _ in range(4)
    ]
    groups = [(0, 1), (1, 2), (2, 3), (0, 3), (0, 1, 2)]
    proved = polynomials.coprimality_certificate(polys, p, groups)
    assert proved == _proved_on_shifted_lines(polys, p, groups)


def _upolyval_many(rows, points, p):
    out = np.zeros((rows.shape[0], points.shape[0]), dtype=np.int64)
    for j in range(rows.shape[1] - 1, -1, -1):
        out = (out * points[None, :] + rows[:, j][:, None]) % p
    return out


def _modular_gcd_per_point(A, B, p):
    """The evaluation/interpolation gcd of two primitive boxes, evaluating
    one point at a time."""
    ugcd, utrim = polynomials._ugcd, polynomials._utrim
    lcA, lcB = utrim(A[-1]), utrim(B[-1])
    gamma = ugcd(lcA, lcB, p)
    needed = (gamma.size - 1) + min(A.shape[1], B.shape[1])
    best_deg = None
    nodes, values = [], []
    point = 0
    while len(nodes) < needed:
        point += 1
        if point > 8 * needed + 64 or point >= p:
            return None
        y = np.array([point])
        if _upolyval_many(lcA[None, :], y, p)[0, 0] == 0:
            continue
        if _upolyval_many(lcB[None, :], y, p)[0, 0] == 0:
            continue
        a_spec = utrim(_upolyval_many(A, y, p)[:, 0])
        b_spec = utrim(_upolyval_many(B, y, p)[:, 0])
        g_spec = ugcd(a_spec, b_spec, p)
        deg = g_spec.size - 1
        if best_deg is None or deg < best_deg:
            best_deg = deg
            nodes, values = [], []
        if deg == best_deg:
            if best_deg == 0:
                return np.ones((1, 1), dtype=np.int64)
            scale = int(_upolyval_many(gamma[None, :], y, p)[0, 0])
            nodes.append(point)
            values.append((g_spec * scale) % p)
    table = np.zeros((len(nodes), best_deg + 1), dtype=np.int64)
    for t, vec in enumerate(values):
        table[t, : vec.size] = vec
    poly = polynomials._newton_interpolate(np.array(nodes, dtype=np.int64), table, p)
    return polynomials._primitive(poly.T, p)[1]


def _primitive_boxes(a, b, p):
    """The primitive parts of a's and b's boxes, the modular gcd's inputs."""
    return polynomials._primitive(a.box, p)[1], polynomials._primitive(b.box, p)[1]


def _same_gcd(A, B, p):
    got = polynomials._modular_bivariate_gcd(A, B, p)
    expected = _modular_gcd_per_point(A, B, p)
    if expected is None:
        return got is None
    return got is not None and np.array_equal(got, expected)


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_modular_gcd_matches_per_point_loop(p, data):
    common = data.draw(_hompolys(p, 3))
    a = common.mul(data.draw(_hompolys(p, 4)))
    b = common.mul(data.draw(_hompolys(p, 4)))
    if a.is_zero() or b.is_zero():
        return
    assert _same_gcd(*_primitive_boxes(a, b, p), p)


def test_modular_gcd_runs_out_of_points_at_5():
    # at p = 5 the points are 1..4, fewer than the 5 that a gcd of
    # y-degree 4 needs
    p = 5
    g = HomPoly3(4, {(1, 3, 0): 1, (0, 4, 0): 2, (0, 0, 4): 1}, p)
    a = g.mul(HomPoly3(1, {(1, 0, 0): 1, (0, 1, 0): 1}, p))
    b = g.mul(HomPoly3(1, {(1, 0, 0): 1, (0, 0, 1): 3}, p))
    A, B = _primitive_boxes(a, b, p)
    assert polynomials._modular_bivariate_gcd(A, B, p) is None
    assert _same_gcd(A, B, p)
    assert gcd3(a, b, a) == g  # through the PRS fallback


def test_normalize_triple_divides_each_component_once(monkeypatch):
    common = X.add(Y.scale(3)).mul(Z.add(Y))
    triple = [common.mul(q) for q in (X.mul(Y), Y.mul(Z).add(X.mul(X)), Z.mul(Z))]
    expected = normalize_triple(*triple)
    quotients = []
    g = gcd3(*triple, quotients)
    assert g == gcd3(*triple) and g.degree == 2
    assert quotients == [divexact(q, g) for q in triple]
    calls = []
    original = polynomials.divexact

    def counting(f, h):
        calls.append(f)
        return original(f, h)

    monkeypatch.setattr(polynomials, "divexact", counting)
    assert normalize_triple(*triple) == expected
    assert len(calls) == 3


def _record_gcd_layer(monkeypatch):
    """Record the calls normalize_triple makes into the gcd layer: each
    certificate call, each gcd3 call, and for each line restriction
    whether it ran inside gcd3."""
    calls = {"certificate": 0, "gcd3": 0, "restrictions": []}
    inside = []
    certificate, gcd, restrict = (
        getattr(polynomials, name)
        for name in ("coprimality_certificate", "gcd3", "_restrict_to_line")
    )

    def recording_certificate(*args):
        calls["certificate"] += 1
        return certificate(*args)

    def recording_gcd3(*args):
        calls["gcd3"] += 1
        inside.append(True)
        try:
            return gcd(*args)
        finally:
            inside.pop()

    def recording_restrict(poly, line):
        calls["restrictions"].append(bool(inside))
        return restrict(poly, line)

    monkeypatch.setattr(polynomials, "coprimality_certificate", recording_certificate)
    monkeypatch.setattr(polynomials, "gcd3", recording_gcd3)
    monkeypatch.setattr(polynomials, "_restrict_to_line", recording_restrict)
    return calls


def test_normalize_triple_proves_a_coprime_triple_without_gcd3(monkeypatch):
    # the quadratic Henon triple composed onto a linear one is coprime
    A, B, C = X.add(Y.scale(2)).add(Z), Y.add(Z.scale(3)), X.add(Z)
    triple = (B.mul(C), B.mul(B).sub(A.mul(C)), C.mul(C))
    calls = _record_gcd_layer(monkeypatch)
    (q1, q2, q3), dropped = normalize_triple(*triple)
    assert dropped == 0 and calls["certificate"] == 1 and calls["gcd3"] == 0
    assert calls["restrictions"] and not any(calls["restrictions"])
    lead = polynomials._inv_mod(triple[0]._leading_coefficient(), DEFAULT_PRIME)
    assert (q1, q2, q3) == tuple(q.scale(lead) for q in triple)


def test_normalize_triple_sends_a_shared_factor_to_gcd3_once(monkeypatch):
    common = X.add(Y.scale(3)).mul(Z.add(Y))
    triple = [common.mul(q) for q in (X.mul(Y), Y.mul(Z).add(X.mul(X)), Z.mul(Z))]
    calls = _record_gcd_layer(monkeypatch)
    (q1, q2, q3), dropped = normalize_triple(*triple)
    assert dropped == 2 and calls["certificate"] == 1 and calls["gcd3"] == 1
    # the certificate tried the triple; gcd3 restricts nothing
    assert calls["restrictions"] and not any(calls["restrictions"])
    assert [q.degree for q in (q1, q2, q3)] == [2, 2, 2]


# ---------------------------------------------------------------------------
# The gcd front (group_gcds), division by a monomial and the short Euclid.


@st.composite
def _pair_gcd_inputs(draw, p):
    """Four polys for group gcds: some share a factor, some are a monomial
    times a constant, the rest are free; each carries monomial content, and
    one may be zero."""
    common = draw(_hompolys(p, 2, min_degree=1))
    polys = []
    for _ in range(4):
        exps = [draw(st.integers(0, 2)) for _ in range(3)]
        mono = HomPoly3.monomial(*exps, draw(st.integers(1, p - 1)), p)
        kind = draw(st.sampled_from(["shared", "shared", "monomial", "free", "zero"]))
        if kind == "shared":
            polys.append(common.mul(draw(_hompolys(p, 2))).mul(mono))
        elif kind == "monomial":
            polys.append(mono)
        elif kind == "free":
            polys.append(draw(_hompolys(p, 3)).mul(mono))
        else:
            polys.append(HomPoly3.zero(draw(st.integers(0, 4)), p))
    return polys


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_pair_gcds_match_gcd3_pair_by_pair(p, data):
    # group_gcds against gcd3 group by group, on pairs and one triple
    polys = data.draw(_pair_gcd_inputs(p))
    triple = data.draw(st.sampled_from([(0, 1, 2), (1, 2, 3), (3, 0, 2), (2, 3, 1)]))
    groups = [
        group
        for group in ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 0), triple)
        if not all(polys[k].is_zero() for k in group)
    ]
    if not groups:
        return
    for group, got in zip(groups, polynomials.group_gcds(polys, groups)):
        quotients = []
        members = [polys[k] for k in group]
        zero = HomPoly3.zero(members[0].degree, p)
        common = gcd3(*members, *[zero] * (3 - len(group)), quotients)
        assert got == (common, *quotients[: len(group)])


def _divexact_dense_path(f, g):
    """f / g for a nonzero f through :func:`_divexact_dense`, whatever g."""
    degree = f.degree - g.degree
    corner = (f.corner[0] - g.corner[0], f.corner[1] - g.corner[1])
    if degree < 0 or min(corner) < 0:
        return None
    q = polynomials._divexact_dense(f.box, g.box, f.p, degree - sum(corner))
    return None if q is None else HomPoly3._from_array(degree, q, f.p, corner)


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_divexact_by_a_monomial_matches_the_dense_path(p, data):
    c = data.draw(st.sampled_from((1, p - 1)) | st.integers(1, p - 1))
    g = HomPoly3.monomial(*[data.draw(st.integers(0, 2)) for _ in range(3)], c, p)
    cofactor = data.draw(_hompolys(p, 3))
    f = cofactor.mul(g) if data.draw(st.booleans()) else data.draw(_hompolys(p, 5))
    if f.is_zero():
        return
    got = divexact(f, g)
    assert got == _divexact_dense_path(f, g)
    if f.degree >= g.degree and f == cofactor.mul(g):
        assert got == cofactor


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
def test_divexact_by_a_monomial_rejects_each_inexact_case(p):
    c = p - 1  # a coefficient other than 1, for p > 2
    f = HomPoly3(3, {(2, 1, 0): 1, (1, 1, 1): 1}, p)  # X^2 Y + X Y Z
    for g in (
        HomPoly3.monomial(0, 2, 0, c, p),  # Y^2: a negative Y corner
        HomPoly3.monomial(2, 0, 0, 1, p),  # X^2: a negative X corner
        HomPoly3.monomial(0, 0, 1, c, p),  # Z: the X^2 Y term has no Z
    ):
        assert divexact(f, g) is None and _divexact_dense_path(f, g) is None
    g = HomPoly3.monomial(1, 1, 0, c, p)
    inverse = pow(c, p - 2, p)
    expected = HomPoly3(1, {(1, 0, 0): inverse, (0, 0, 1): inverse}, p)
    assert divexact(f, g) == _divexact_dense_path(f, g) == expected


def _umul_ints(a, b, p):
    out = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@pytest.mark.parametrize("p", _ORACLE_PRIMES)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_short_ugcd_matches_the_numpy_rows(p, data):
    coeff = st.sampled_from((0, 1, p - 1)) | st.integers(0, p - 1)
    common = data.draw(st.lists(coeff, max_size=6))
    v = _umul_ints(common, data.draw(st.lists(coeff, min_size=1, max_size=12)), p)
    # u = v q + r with r of degree deg v - 2 or less, so the first
    # remainder drops more than one degree
    q = data.draw(st.lists(coeff, min_size=1, max_size=8))
    r = data.draw(st.lists(coeff, max_size=max(len(v) - 2, 0)))
    vq = _umul_ints(v, q, p)
    u = [(x + (r[k] if k < len(r) else 0)) % p for k, x in enumerate(vq)] or list(r)
    for a, b in ((u, v), (v, u), (u, common), (r, v)):
        a = polynomials._utrim(np.array(a, dtype=np.int64))
        b = polynomials._utrim(np.array(b, dtype=np.int64))
        expected = polynomials._ugcd_rows(a, b, p).tolist()
        assert polynomials._ugcd_ints(a.tolist(), b.tolist(), p) == expected
        assert polynomials._ugcd(a, b, p).tolist() == expected
