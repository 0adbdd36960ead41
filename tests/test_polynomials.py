import functools
import random

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


def test_dense_and_dict_products_agree():
    rng = random.Random(5)
    for _ in range(5):
        a = _random_poly(rng, 12, density=0.9)
        b = _random_poly(rng, 11, density=0.9)
        via_dict = a._mul_dict(b, a.degree + b.degree)
        via_dense = a._mul_dense(b, a.degree + b.degree)
        assert via_dict == via_dense


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


def _restrict_reference(poly, line):
    """poly(t + a, b t + c, 1) by Python-integer polynomial products."""
    a, b, c = line
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
    for line in ((1, 2, 3), (5, 7, 11)):
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
        | st.tuples(*[st.integers(0, p - 1)] * 3)
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
        _restrict_to_line(HomPoly3(3, {(1, 1, 1): 1}, p), (1, 2, 3))
    assert list(polynomials._LINE_TABLES) == list(primes[-polynomials._LINE_TABLE_PRIMES :])


def _upolyval_many(rows, points, p):
    out = np.zeros((rows.shape[0], points.shape[0]), dtype=np.int64)
    for j in range(rows.shape[1] - 1, -1, -1):
        out = (out * points[None, :] + rows[:, j][:, None]) % p
    return out


def _modular_gcd_per_point(A, B, p):
    """The evaluation/interpolation gcd evaluating one point at a time."""
    ugcd, utrim = polynomials._ugcd, polynomials._utrim
    contA, contB = polynomials._content_y(A, p), polynomials._content_y(B, p)
    content = ugcd(contA, contB, p)
    A = polynomials._rows_divexact_content(A, contA, p)
    B = polynomials._rows_divexact_content(B, contB, p)
    dxA = int(np.nonzero(A.any(axis=1))[0][-1])
    dxB = int(np.nonzero(B.any(axis=1))[0][-1])
    lcA, lcB = utrim(A[dxA]), utrim(B[dxB])
    gamma = ugcd(lcA, lcB, p)
    needed = (gamma.size - 1) + min(
        polynomials._ydeg_rows(A), polynomials._ydeg_rows(B)
    ) + 1
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
                out = np.zeros((1, max(content.size, 1)), dtype=np.int64)
                out[0, : content.size] = content
                return out
            scale = int(_upolyval_many(gamma[None, :], y, p)[0, 0])
            nodes.append(point)
            values.append((g_spec * scale) % p)
    table = np.zeros((len(nodes), best_deg + 1), dtype=np.int64)
    for t, vec in enumerate(values):
        table[t, : vec.size] = vec
    poly = polynomials._newton_interpolate(np.array(nodes, dtype=np.int64), table, p)
    ycont = polynomials._content_y(poly.T, p)
    poly = polynomials._rows_divexact_content(poly.T, ycont, p)
    if content.size > 1 or content[0] != 1:
        out = np.zeros((poly.shape[0], poly.shape[1] + content.size - 1), dtype=np.int64)
        for i in range(poly.shape[0]):
            row = utrim(poly[i])
            if row.size:
                conv = polynomials._convolve_mod(row, content, p)
                out[i, : conv.size] = conv
        poly = out
    return poly


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
    assert _same_gcd(a._to_array(), b._to_array(), p)


def test_modular_gcd_runs_out_of_points_at_5():
    # at p = 5 the points are 1..4, fewer than the 5 that a gcd of
    # y-degree 4 needs
    p = 5
    g = HomPoly3(4, {(1, 3, 0): 1, (0, 4, 0): 2, (0, 0, 4): 1}, p)
    a = g.mul(HomPoly3(1, {(1, 0, 0): 1, (0, 1, 0): 1}, p))
    b = g.mul(HomPoly3(1, {(1, 0, 0): 1, (0, 0, 1): 3}, p))
    A, B = a._to_array(), b._to_array()
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
