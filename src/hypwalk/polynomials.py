"""Exact homogeneous polynomial arithmetic in three variables over GF(p).

A :class:`HomPoly3` is a sparse map from exponent triples ``(i, j, l)`` with
``i + j + l = degree`` to nonzero residues mod a prime.  The zero polynomial
keeps an explicit degree tag so that homogeneity bookkeeping survives sums.

Products dispatch between a literal dict loop (small operands) and a dense
bivariate convolution in int64 numpy (large operands); both are exact and
produce identical polynomials.  Exact division is one dense routine on the
bivariate forms (Z set to 1), with a shortcut that scales by the inverse of
a constant divisor.  The division, gcd and line-restriction kernels reduce
their int64 convolutions and matrix products through :func:`_convolve_mod`
and :func:`_matmul_mod`, which stay exact for every prime p < 2^31, so the
31-bit primes drawn by the bad-prime retry policy are as safe as the
default ones.

GCDs run a cheap certified pipeline first (monomial content, then
restriction to fixed affine lines: a nonconstant common factor survives
restriction to any line it does not contain, so a trivial univariate gcd on
one line proves coprimality), then a modular evaluation/interpolation gcd,
and fall back to a content/primitive-part pseudo-remainder sequence on the
dehomogenized bivariate forms.  Every gcd is verified by trial division
before it is returned; a gcd that fails the check raises
:class:`~hypwalk.errors.BadPrimeSignal`.
"""

from __future__ import annotations

import numpy as np

from .errors import BadPrimeSignal, InputError

DEFAULT_PRIME = 1000003
SECOND_PRIME = 1000033

_DICT_MUL_CUTOFF = 4096
# Fixed affine lines (X, Y, Z) = (t + a, b t + c, 1) used for the coprimality
# certificate; a handful suffices since failure just falls through to the PRS.
_CERT_LINES = ((1, 2, 3), (5, 7, 11), (13, 17, 19), (23, 29, 31))


def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


# Products of residues mod p < 2^31 are below 2^62, so an int64 sum of n of
# them stays exact while n * (p - 1)^2 < 2^63.  Past that bound one operand
# is split into 16-bit halves: each half-product sum is then below n * 2^47,
# exact for any operand shorter than 2^15.


def _convolve_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """np.convolve(a, b) % p for residue vectors, exact for every p < 2^31."""
    if min(a.size, b.size) * (p - 1) ** 2 < 2**63:
        return np.convolve(a, b) % p
    high = np.convolve(a >> 16, b) % p
    return (high * 65536 + np.convolve(a & 0xFFFF, b)) % p


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b % p for residue matrices, exact for every p < 2^31."""
    if a.shape[-1] * (p - 1) ** 2 < 2**63:
        return a @ b % p
    high = (a >> 16) @ b % p
    return (high * 65536 + (a & 0xFFFF) @ b) % p


class HomPoly3:
    """Homogeneous polynomial in X, Y, Z over GF(p)."""

    __slots__ = ("degree", "p", "coeffs")

    def __init__(self, degree: int, coeffs: dict, p: int = DEFAULT_PRIME):
        if degree < 0:
            raise InputError("degree must be >= 0")
        clean = {}
        for (i, j, l), c in coeffs.items():
            if i < 0 or j < 0 or l < 0 or i + j + l != degree:
                raise InputError(
                    f"exponent triple {(i, j, l)} does not match degree {degree}"
                )
            c %= p
            if c:
                clean[(i, j, l)] = c
        self.degree = degree
        self.p = p
        self.coeffs = clean

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(degree: int, p: int = DEFAULT_PRIME) -> "HomPoly3":
        return HomPoly3(degree, {}, p)

    @staticmethod
    def monomial(i: int, j: int, l: int, c: int = 1, p: int = DEFAULT_PRIME) -> "HomPoly3":
        return HomPoly3(i + j + l, {(i, j, l): c}, p)

    @staticmethod
    def variable(index: int, p: int = DEFAULT_PRIME) -> "HomPoly3":
        exps = [0, 0, 0]
        exps[index] = 1
        return HomPoly3(1, {tuple(exps): 1}, p)

    # -- basics ---------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.coeffs

    def terms(self):
        """Terms in graded-lex order (X > Y > Z), largest first."""
        return sorted(self.coeffs.items(), reverse=True)

    def num_terms(self) -> int:
        return len(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, HomPoly3)
            and self.p == other.p
            and self.degree == other.degree
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.degree, self.p, tuple(self.terms())))

    def __repr__(self):
        if self.is_zero():
            return f"HomPoly3(0, degree={self.degree})"
        names = "XYZ"
        parts = []
        for (i, j, l), c in self.terms()[:6]:
            mono = "".join(
                f"{names[k]}^{e}" if e > 1 else (names[k] if e == 1 else "")
                for k, e in enumerate((i, j, l))
            )
            parts.append(f"{c}*{mono}" if mono else str(c))
        tail = " + ..." if self.num_terms() > 6 else ""
        return f"HomPoly3({' + '.join(parts)}{tail})"

    # -- ring operations ------------------------------------------------------

    def _check_partner(self, other: "HomPoly3"):
        if self.p != other.p:
            raise InputError("operands live over different primes")

    def add(self, other: "HomPoly3") -> "HomPoly3":
        self._check_partner(other)
        if self.degree != other.degree:
            raise InputError(
                f"cannot add degrees {self.degree} and {other.degree}"
            )
        out = dict(self.coeffs)
        p = self.p
        for key, c in other.coeffs.items():
            s = (out.get(key, 0) + c) % p
            if s:
                out[key] = s
            else:
                out.pop(key, None)
        return HomPoly3(self.degree, out, p)

    def neg(self) -> "HomPoly3":
        p = self.p
        return HomPoly3(self.degree, {k: p - c for k, c in self.coeffs.items()}, p)

    def sub(self, other: "HomPoly3") -> "HomPoly3":
        return self.add(other.neg())

    def scale(self, c: int) -> "HomPoly3":
        c %= self.p
        return HomPoly3(
            self.degree, {k: (v * c) % self.p for k, v in self.coeffs.items()}, self.p
        )

    def mul(self, other: "HomPoly3") -> "HomPoly3":
        self._check_partner(other)
        degree = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return HomPoly3.zero(degree, self.p)
        if self.num_terms() * other.num_terms() <= _DICT_MUL_CUTOFF:
            return self._mul_dict(other, degree)
        return self._mul_dense(other, degree)

    def _mul_dict(self, other: "HomPoly3", degree: int) -> "HomPoly3":
        p = self.p
        out: dict = {}
        for (i1, j1, l1), c1 in self.coeffs.items():
            for (i2, j2, l2), c2 in other.coeffs.items():
                key = (i1 + i2, j1 + j2, l1 + l2)
                s = (out.get(key, 0) + c1 * c2) % p
                if s:
                    out[key] = s
                else:
                    out.pop(key, None)
        return HomPoly3(degree, out, p)

    def _mul_dense(self, other: "HomPoly3", degree: int) -> "HomPoly3":
        p = self.p
        small = min(self.degree, other.degree)
        if (p - 1) ** 2 * (small + 1) ** 2 >= 2**63:
            # int64 accumulation would overflow; fall back to exact dict loop
            return self._mul_dict(other, degree)
        a = self._to_array()
        b = other._to_array()
        rows_a = [i for i in range(a.shape[0]) if a[i].any()]
        rows_b = [i for i in range(b.shape[0]) if b[i].any()]
        out = np.zeros((degree + 1, 2 * degree + 1), dtype=np.int64)
        for i in rows_a:
            ai = a[i]
            for j in rows_b:
                conv = np.convolve(ai, b[j])
                out[i + j, : conv.shape[0]] += conv
        out %= p
        coeffs = {}
        for i, j in zip(*np.nonzero(out)):
            coeffs[(int(i), int(j), degree - int(i) - int(j))] = int(out[i, j])
        return HomPoly3(degree, coeffs, p)

    def _to_array(self) -> np.ndarray:
        """Dense bivariate form: entry [i, j] is the coefficient of
        X^i Y^j Z^(degree-i-j)."""
        arr = np.zeros((self.degree + 1, self.degree + 1), dtype=np.int64)
        for (i, j, _), c in self.coeffs.items():
            arr[i, j] = c
        return arr

    def pow(self, n: int) -> "HomPoly3":
        if n < 0:
            raise InputError("negative power of a polynomial")
        result = HomPoly3.monomial(0, 0, 0, 1, self.p)
        base = self
        while n:
            if n & 1:
                result = result.mul(base)
            base = base.mul(base) if n > 1 else base
            n >>= 1
        return result


# ---------------------------------------------------------------------------
# Substitution (coordinate-level composition).


def substitute(poly: HomPoly3, triple) -> HomPoly3:
    """poly(A, B, C) for three homogeneous polys A, B, C of one degree e.

    The result is homogeneous of degree ``poly.degree * e``.  Powers of the
    substituted coordinates are cached, so the cost is dominated by products
    of the cached powers, one or two per monomial of ``poly``.
    """
    a, b, c = triple
    if not (a.degree == b.degree == c.degree):
        raise InputError("substituted coordinates must share one degree")
    if not (poly.p == a.p == b.p == c.p):
        raise InputError("substitution operands live over different primes")
    e = a.degree
    out_degree = poly.degree * e
    if poly.is_zero():
        return HomPoly3.zero(out_degree, poly.p)

    max_i = max(k[0] for k in poly.coeffs)
    max_j = max(k[1] for k in poly.coeffs)
    max_l = max(k[2] for k in poly.coeffs)
    pow_a = _power_ladder(a, max_i)
    pow_b = _power_ladder(b, max_j)
    pow_c = _power_ladder(c, max_l)

    acc = HomPoly3.zero(out_degree, poly.p)
    for (i, j, l), coeff in poly.terms():
        term = pow_a[i].mul(pow_b[j]).mul(pow_c[l]).scale(coeff)
        acc = acc.add(term)
    return acc


def _power_ladder(base: HomPoly3, top: int) -> list[HomPoly3]:
    ladder = [HomPoly3.monomial(0, 0, 0, 1, base.p)]
    for _ in range(top):
        ladder.append(ladder[-1].mul(base))
    return ladder


# ---------------------------------------------------------------------------
# Exact division and GCD.


def divexact(f: HomPoly3, g: HomPoly3):
    """f / g when the division is exact, else None.

    A constant divisor is a scaling.  Every other divisor goes through the
    dense bivariate routine :func:`_divexact_dense`, which is exact for every
    prime p < 2^31.
    """
    if g.is_zero():
        raise InputError("division by the zero polynomial")
    if f.is_zero():
        return HomPoly3.zero(max(f.degree - g.degree, 0), f.p)
    if f.degree < g.degree:
        return None
    if g.degree == 0:
        return f.scale(_inv_mod(g.coeffs[0, 0, 0], f.p))
    degree = f.degree - g.degree
    q = _divexact_dense(f._to_array(), g._to_array(), f.p, degree)
    if q is None:
        return None
    return _array_to_hompoly(q, f.p, degree=degree)


def _monomial_content(polys) -> tuple[int, int, int]:
    mins = [None, None, None]
    for poly in polys:
        for key in poly.coeffs:
            for v in range(3):
                if mins[v] is None or key[v] < mins[v]:
                    mins[v] = key[v]
    return tuple(m or 0 for m in mins)


def _shift_exponents(poly: HomPoly3, shift: tuple[int, int, int]) -> HomPoly3:
    si, sj, sl = shift
    if si == sj == sl == 0:
        return poly
    out = {
        (i - si, j - sj, l - sl): c for (i, j, l), c in poly.coeffs.items()
    }
    return HomPoly3(poly.degree - si - sj - sl, out, poly.p)


def _restrict_to_line(poly: HomPoly3, line: tuple[int, int, int]) -> np.ndarray:
    """Coefficients of poly(t + a, b t + c, 1) as an int64 residue vector.

    Dense two-stage evaluation: first collapse the Y-exponent against powers
    of (b t + c) with one matrix product, then fold in powers of (t + a) row
    by row.
    """
    a, b, c = line
    p = poly.p
    d = poly.degree
    if poly.is_zero():
        return np.zeros(0, dtype=np.int64)
    arr = poly._to_array()
    # V[j] = coefficients of (b t + c)^j, padded to degree d
    V = np.zeros((d + 1, d + 1), dtype=np.int64)
    V[0, 0] = 1
    for j in range(1, d + 1):
        prev = V[j - 1]
        cur = (prev * c) % p
        cur[1:] = (cur[1:] + prev[:-1] * b) % p
        V[j] = cur
    W = _matmul_mod(arr, V, p)  # row i: sum_j arr[i, j] (b t + c)^j
    # U[i] = coefficients of (t + a)^i
    out = np.zeros(2 * d + 1, dtype=np.int64)
    u = np.zeros(d + 1, dtype=np.int64)
    u[0] = 1
    top = 0
    for i in range(d + 1):
        if W[i].any():
            conv = _convolve_mod(u[: i + 1], W[i], p)
            out[: conv.shape[0]] += conv
            top = max(top, conv.shape[0])
        nxt = (u * a) % p
        nxt[1:] = (nxt[1:] + u[:-1]) % p
        u = nxt
    out %= p
    return _utrim(out[: max(top, 1)])


def _utrim(vec: np.ndarray) -> np.ndarray:
    nz = np.nonzero(vec)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=np.int64)
    return vec[: nz[-1] + 1]


def _ugcd(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd of univariate polynomials over GF(p) (coefficient vectors)."""
    u, v = _utrim(u.copy()), _utrim(v.copy())
    while v.size:
        # u mod v
        lc_inv = _inv_mod(int(v[-1]), p)
        while u.size >= v.size and u.size:
            factor = (int(u[-1]) * lc_inv) % p
            if factor:
                u[u.size - v.size :] = (u[u.size - v.size :] - factor * v) % p
            u = _utrim(u)
        u, v = v, u
    if u.size:
        u = (u * _inv_mod(int(u[-1]), p)) % p
    return u


def coprimality_certificate(polys, p: int) -> bool:
    """True when restriction to some fixed line proves the gcd is constant.

    Sound provided no restriction drops degree: when
    ``deg poly(L(t)) == deg poly`` for each input, every factorization
    ``poly = G * cofactor`` restricts with full degrees on both sides, so a
    common factor of positive degree restricts to a nonconstant common
    divisor of the univariate restrictions.  A constant univariate gcd then
    certifies coprimality.  Lines with a degree drop (the line meets some
    polynomial at its point at infinity) are skipped.
    """
    for line in _CERT_LINES:
        restricted = [_restrict_to_line(poly, line) for poly in polys]
        if any(
            r.size != poly.degree + 1 for r, poly in zip(restricted, polys)
        ):
            continue  # degree drop: certificate not sound on this line
        g = restricted[0]
        for r in restricted[1:]:
            g = _ugcd(g, r, p)
            if g.size == 1:
                return True
        if g.size == 1:
            return True
    return False


def gcd3(p1: HomPoly3, p2: HomPoly3, p3: HomPoly3) -> HomPoly3:
    """A gcd of the three polynomials, monic under graded-lex.

    Pipeline: extract the joint monomial content; certify coprimality by
    line restriction when possible; otherwise compute the gcd of the
    dehomogenized bivariate forms, pairwise then with the third, by
    evaluation/interpolation with a pseudo-remainder-sequence fallback.
    The result is verified by trial division against all three inputs; a
    failed check raises :class:`~hypwalk.errors.BadPrimeSignal`, which sends
    the caller to the bad-prime retry policy.
    """
    polys = [q for q in (p1, p2, p3) if not q.is_zero()]
    if not polys:
        raise InputError("gcd3 of three zero polynomials")
    p = polys[0].p
    if any(q.p != p for q in polys):
        raise InputError("gcd3 operands live over different primes")

    shift = _monomial_content(polys)
    reduced = [_shift_exponents(q, shift) for q in polys]
    monomial_gcd = HomPoly3.monomial(*shift, 1, p)

    gcd_poly = monomial_gcd
    nontrivial = all(q.num_terms() > 1 for q in reduced) and not (
        coprimality_certificate(reduced, p)
    )
    used_modular = False
    if nontrivial:
        rest = _dense_gcd_list([q._to_array() for q in reduced], p)
        if rest is not None:
            gcd_poly = monomial_gcd.mul(_array_to_hompoly(rest, p))
            used_modular = True
        else:
            prs = _bivariate_gcd_list([_dehomogenize(q) for q in reduced], p)
            gcd_poly = monomial_gcd.mul(_rehomogenize(prs, p))

    # make the graded-lex leading coefficient 1
    lead = gcd_poly.terms()[0][1]
    if lead != 1:
        gcd_poly = gcd_poly.scale(_inv_mod(lead, p))

    if not _divides_all(gcd_poly, (p1, p2, p3)):
        if used_modular:
            # unlucky evaluation points: redo with the exact fallback
            prs = _bivariate_gcd_list([_dehomogenize(q) for q in reduced], p)
            gcd_poly = monomial_gcd.mul(_rehomogenize(prs, p))
            lead = gcd_poly.terms()[0][1]
            if lead != 1:
                gcd_poly = gcd_poly.scale(_inv_mod(lead, p))
        if not _divides_all(gcd_poly, (p1, p2, p3)):
            raise BadPrimeSignal("gcd verification by trial division failed", p)
    return gcd_poly


def _divides_all(gcd_poly: HomPoly3, polys) -> bool:
    return all(
        q.is_zero() or divexact(q, gcd_poly) is not None for q in polys
    )


def _dense_gcd_list(arrays, p: int) -> np.ndarray | None:
    g = arrays[0]
    for arr in arrays[1:]:
        if _ydeg_rows(g) <= 0 and int(np.nonzero(g.any(axis=1))[0][-1]) == 0:
            break  # already constant
        g = _modular_bivariate_gcd(g, arr, p)
        if g is None:
            return None
    return g


def normalize_triple(p1: HomPoly3, p2: HomPoly3, p3: HomPoly3):
    """Divide out gcd3 and rescale so the first nonzero coefficient (scanning
    the triple in order, each in graded-lex order) equals 1.

    Returns ``(triple, gcd_degree)``.  An all-zero triple signals a
    degenerate composition, typically an unlucky coefficient prime.
    """
    if p1.is_zero() and p2.is_zero() and p3.is_zero():
        raise BadPrimeSignal("composition collapsed to the zero triple", p1.p)
    g = gcd3(p1, p2, p3)
    parts = []
    for q in (p1, p2, p3):
        if q.is_zero():
            parts.append(HomPoly3.zero(q.degree - g.degree, q.p))
        else:
            parts.append(divexact(q, g))
    scale = None
    for q in parts:
        if not q.is_zero():
            scale = _inv_mod(q.terms()[0][1], q.p)
            break
    parts = [q.scale(scale) for q in parts]
    return tuple(parts), g.degree


# ---------------------------------------------------------------------------
# Dense bivariate helpers (arrays M[i, j] = coefficient of x^i y^j; setting
# Z = 1 in a homogeneous polynomial gives exactly its exponent array).


def _upolyval_many(rows: np.ndarray, points: np.ndarray, p: int) -> np.ndarray:
    """Evaluate every row polynomial (in y) at every point: result[i, t]."""
    out = np.zeros((rows.shape[0], points.shape[0]), dtype=np.int64)
    for j in range(rows.shape[1] - 1, -1, -1):
        out = (out * points[None, :] + rows[:, j][:, None]) % p
    return out


def _udeg(vec: np.ndarray) -> int:
    nz = np.nonzero(vec)[0]
    return int(nz[-1]) if nz.size else -1


def _ydeg_rows(arr: np.ndarray) -> int:
    nz = np.nonzero(arr)[1]
    return int(nz.max()) if nz.size else -1


def _content_y(arr: np.ndarray, p: int) -> np.ndarray:
    """gcd in F_p[y] of all row polynomials (the content w.r.t. x)."""
    g = np.zeros(0, dtype=np.int64)
    for row in arr:
        row = _utrim(row)
        if row.size:
            g = row if g.size == 0 else _ugcd(g, row, p)
            if g.size == 1:
                break
    return g


def _rows_divexact_content(arr: np.ndarray, cont: np.ndarray, p: int) -> np.ndarray:
    if cont.size == 1:
        inv = _inv_mod(int(cont[0]), p)
        return (arr * inv) % p
    out = np.zeros_like(arr)
    for i in range(arr.shape[0]):
        row = _utrim(arr[i])
        if row.size:
            q = _udivexact(row, cont, p)
            out[i, : q.size] = q
    return out


def _modular_bivariate_gcd(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray | None:
    """gcd of two dense bivariate polynomials by evaluation/interpolation.

    Specialize y at distinct points avoiding roots of both leading
    coefficients, take monic univariate gcds, rescale by the gcd of the
    leading coefficients, and interpolate back (Newton differences).
    Returns None when the prime runs out of usable points; the caller keeps
    the pseudo-remainder fallback.  Results are verified by trial division
    downstream, so an unlucky specialization cannot corrupt a composition.
    """
    contA, contB = _content_y(A, p), _content_y(B, p)
    content = _ugcd(contA, contB, p)
    A = _rows_divexact_content(A, contA, p)
    B = _rows_divexact_content(B, contB, p)
    dxA = int(np.nonzero(A.any(axis=1))[0][-1])
    dxB = int(np.nonzero(B.any(axis=1))[0][-1])
    lcA, lcB = _utrim(A[dxA]), _utrim(B[dxB])
    gamma = _ugcd(lcA, lcB, p)
    needed = (gamma.size - 1) + min(_ydeg_rows(A), _ydeg_rows(B)) + 1

    best_deg = None
    nodes: list[int] = []
    values: list[np.ndarray] = []
    point = 0
    attempts = 0
    while len(nodes) < needed:
        point += 1
        attempts += 1
        if attempts > 8 * needed + 64 or point >= p:
            return None
        y = point % p
        if _upolyval_many(lcA[None, :], np.array([y]), p)[0, 0] == 0:
            continue
        if _upolyval_many(lcB[None, :], np.array([y]), p)[0, 0] == 0:
            continue
        a_spec = _utrim(_upolyval_many(A, np.array([y]), p)[:, 0])
        b_spec = _utrim(_upolyval_many(B, np.array([y]), p)[:, 0])
        g_spec = _ugcd(a_spec, b_spec, p)
        deg = g_spec.size - 1
        if best_deg is None or deg < best_deg:
            best_deg = deg
            nodes, values = [], []
        if deg == best_deg:
            if best_deg == 0:
                out = np.zeros((1, max(content.size, 1)), dtype=np.int64)
                out[0, : content.size] = content
                return out
            scale = int(_upolyval_many(gamma[None, :], np.array([y]), p)[0, 0])
            nodes.append(y)
            values.append((g_spec * scale) % p)

    width = best_deg + 1
    table = np.zeros((len(nodes), width), dtype=np.int64)
    for t, vec in enumerate(values):
        table[t, : vec.size] = vec
    poly = _newton_interpolate(np.array(nodes, dtype=np.int64), table, p)
    ycont = _content_y(poly.T, p)  # rows of poly.T are x-coefficients in y
    poly = _rows_divexact_content(poly.T, ycont, p)  # primitive in y
    if content.size > 1 or content[0] != 1:
        out = np.zeros(
            (poly.shape[0], poly.shape[1] + content.size - 1), dtype=np.int64
        )
        for i in range(poly.shape[0]):
            row = _utrim(poly[i])
            if row.size:
                conv = _convolve_mod(row, content, p)
                out[i, : conv.size] = conv
        poly = out
    return poly


def _newton_interpolate(nodes: np.ndarray, table: np.ndarray, p: int) -> np.ndarray:
    """Columnwise Newton interpolation: result[t] are y^t coefficient rows.

    ``table[t]`` holds the vector value at ``nodes[t]``; the result has shape
    (len(nodes), width) with row index = power of y, transposed relative to
    the dense convention (callers transpose).
    """
    n, width = table.shape
    diffs = table.copy()
    for level in range(1, n):
        denom = (nodes[level:] - nodes[:-level]) % p
        inv = np.array([_inv_mod(int(d), p) for d in denom], dtype=np.int64)
        diffs[level:] = ((diffs[level:] - diffs[level - 1 : -1]) * inv[:, None]) % p
    # Horner expansion: G(y) = c_0 + (y - y_0)(c_1 + (y - y_1)(...))
    out = np.zeros((n, width), dtype=np.int64)
    out[0] = diffs[n - 1]
    degree = 0
    for k in range(n - 2, -1, -1):
        shifted = np.zeros_like(out)
        shifted[1 : degree + 2] = out[: degree + 1]
        shifted[: degree + 1] = (
            shifted[: degree + 1] - nodes[k] * out[: degree + 1]
        ) % p
        shifted[0] = (shifted[0] + diffs[k]) % p
        out = shifted
        degree += 1
    return out % p


def _divexact_dense(
    F: np.ndarray, G: np.ndarray, p: int, degree: int
) -> np.ndarray | None:
    """Exact division of dense bivariate polynomials in F_p[y][x].

    F and G are homogeneous polynomials with Z set to 1, and ``degree`` is
    the degree of their homogeneous quotient.  A quotient term of total
    degree above ``degree`` means G carries a power of Z that F lacks, so
    the division is rejected there; that bound also keeps every product row
    inside F's columns.
    """
    if not G.any():
        raise InputError("division by zero polynomial")
    dxF = int(np.nonzero(F.any(axis=1))[0][-1]) if F.any() else -1
    dxG = int(np.nonzero(G.any(axis=1))[0][-1])
    if dxF < dxG:
        return None
    lcG = _utrim(G[dxG])
    rows_G = [(r, row) for r in range(dxG + 1) if (row := _utrim(G[r])).size]
    rem = F.copy()
    q = np.zeros((dxF - dxG + 1, F.shape[1]), dtype=np.int64)
    for i in range(dxF - dxG, -1, -1):
        top = _utrim(rem[i + dxG])
        if top.size == 0:
            continue
        if top.size < lcG.size or top.size - lcG.size > degree - i:
            return None
        try:
            qi = _udivexact(top, lcG, p)
        except AssertionError:
            return None
        q[i, : qi.size] = qi
        for r, row in rows_G:
            conv = _convolve_mod(qi, row, p)
            seg = rem[i + r]
            seg[: conv.size] = (seg[: conv.size] - conv) % p
    if rem.any():
        return None
    return q


def _array_to_hompoly(arr: np.ndarray, p: int, degree: int | None = None) -> HomPoly3:
    """Rehomogenize a dense bivariate array.

    Without an explicit degree the total degree of the array is used (right
    for gcds once the joint monomial content is out); quotients pass the
    known degree so that a power of Z dividing them is restored.
    """
    nz = np.nonzero(arr)
    if nz[0].size == 0:
        return HomPoly3.zero(degree or 0, p)
    total = int((nz[0] + nz[1]).max()) if degree is None else degree
    coeffs = {}
    for i, j in zip(*nz):
        coeffs[(int(i), int(j), total - int(i) - int(j))] = int(arr[i, j])
    return HomPoly3(total, coeffs, p)


# ---------------------------------------------------------------------------
# Bivariate PRS gcd on dehomogenized forms (the rare fallback path).


def _dehomogenize(poly: HomPoly3) -> dict:
    """HomPoly3 -> {x_exponent: y-coefficient-vector} with Z set to 1."""
    out: dict[int, np.ndarray] = {}
    max_j: dict[int, int] = {}
    for (i, j, _), _c in poly.coeffs.items():
        max_j[i] = max(max_j.get(i, 0), j)
    for i, mj in max_j.items():
        out[i] = np.zeros(mj + 1, dtype=np.int64)
    for (i, j, _), c in poly.coeffs.items():
        out[i][j] = c
    return {i: _utrim(v) for i, v in out.items() if _utrim(v).size}


def _rehomogenize(biv: dict, p: int) -> HomPoly3:
    total = 0
    coeffs = {}
    for i, vec in biv.items():
        for j, c in enumerate(vec.tolist()):
            if c:
                total = max(total, i + j)
    for i, vec in biv.items():
        for j, c in enumerate(vec.tolist()):
            if c:
                coeffs[(i, j, total - i - j)] = int(c)
    return HomPoly3(total, coeffs, p)


def _bdeg(biv: dict) -> int:
    return max(biv) if biv else -1


def _bcontent(biv: dict, p: int) -> np.ndarray:
    vals = list(biv.values())
    g = vals[0]
    for v in vals[1:]:
        g = _ugcd(g, v, p)
        if g.size == 1:
            break
    return g


def _udivexact(u: np.ndarray, g: np.ndarray, p: int) -> np.ndarray:
    """u / g for univariate polys when exact."""
    if g.size == 1:
        return (u * _inv_mod(int(g[0]), p)) % p
    u = u.copy()
    q = np.zeros(u.size - g.size + 1, dtype=np.int64)
    lc_inv = _inv_mod(int(g[-1]), p)
    for k in range(q.size - 1, -1, -1):
        c = (int(u[k + g.size - 1]) * lc_inv) % p
        q[k] = c
        if c:
            u[k : k + g.size] = (u[k : k + g.size] - c * g) % p
    if _utrim(u).size:
        raise AssertionError("inexact univariate division in PRS")
    return q


def _bprimitive(biv: dict, p: int) -> dict:
    cont = _bcontent(biv, p)
    if cont.size == 1 and cont[0] == 1:
        return biv
    return {i: _udivexact(v, cont, p) for i, v in biv.items()}


def _bscale(biv: dict, u: np.ndarray, p: int) -> dict:
    return {i: _convolve_mod(v, u, p) for i, v in biv.items()}


def _bsub(a: dict, b: dict, p: int) -> dict:
    out = dict(a)
    for i, v in b.items():
        if i in out:
            n = max(out[i].size, v.size)
            s = np.zeros(n, dtype=np.int64)
            s[: out[i].size] += out[i]
            s[: v.size] -= v
            s %= p
            s = _utrim(s)
            if s.size:
                out[i] = s
            else:
                del out[i]
        else:
            out[i] = (-v) % p
    return out


def _bshift_x(biv: dict, k: int) -> dict:
    return {i + k: v for i, v in biv.items()}


def _pseudo_rem(a: dict, b: dict, p: int) -> dict:
    """Pseudo-remainder of a by b as polynomials in x over GF(p)[y]."""
    db = _bdeg(b)
    lb = b[db]
    r = dict(a)
    while _bdeg(r) >= db and r:
        dr = _bdeg(r)
        lr = r[dr]
        r = _bsub(_bscale(r, lb, p), _bshift_x(_bscale(b, lr, p), dr - db), p)
        r.pop(dr, None)
    return r


def _bivariate_gcd(a: dict, b: dict, p: int) -> dict:
    if not a:
        return b
    if not b:
        return a
    ca, cb = _bcontent(a, p), _bcontent(b, p)
    content = _ugcd(ca, cb, p)
    a, b = _bprimitive(a, p), _bprimitive(b, p)
    if _bdeg(a) < _bdeg(b):
        a, b = b, a
    while b:
        r = _pseudo_rem(a, b, p)
        a, b = b, (_bprimitive(r, p) if r else {})
    a = _bprimitive(a, p)
    if content.size > 1 or content[0] != 1:
        a = _bscale(a, content, p)
    return a


def _bivariate_gcd_list(polys: list[dict], p: int) -> dict:
    g = polys[0]
    for q in polys[1:]:
        g = _bivariate_gcd(g, q, p)
        if _bdeg(g) == 0 and g[0].size == 1:
            break
    return g


# ---------------------------------------------------------------------------
# Prime utilities for the bad-prime retry policy.


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for 64-bit integers."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def fresh_prime(rng) -> int:
    """A random 31-bit prime drawn from the caller's generator."""
    while True:
        candidate = int(rng.integers(2**30, 2**31)) | 1
        if is_prime(candidate):
            return candidate
