"""Exact homogeneous polynomial arithmetic in three variables over GF(p).

A :class:`HomPoly3` of degree d is one read-only int64 array of residues mod
a prime: its coefficients cut to their nonzero bounding box in (X-exponent,
Y-exponent), with the box's corner.  Entry [a, b] of the box is the
coefficient of X^i Y^j Z^(d-i-j) for (i, j) = corner + (a, b); the
Z-exponent follows from the degree.  The zero polynomial is an empty box
that keeps its degree tag, so homogeneity bookkeeping survives sums.

Every polynomial product -- :meth:`HomPoly3.mul`, the power ladders and
terms of :func:`substitute`, the quotient rows of exact division -- is one
2-D convolution, :func:`_conv2d_mod`, of two boxes: a float64 BLAS product
per row of the operand with fewer rows, reduced mod p.  It and
:func:`_matmul_mod` (line restriction, evaluation at many points) follow one
exact-product rule, stated next to them, that holds for every prime
p < 2^31: the 31-bit primes drawn by the bad-prime retry policy are as safe
as the default ones.  Exact division by a one-term divisor is a shift of
the box, scaled by the inverse of the divisor's coefficient.

The gcd layer has a front and a core.  The front, :func:`group_gcds`,
takes groups of polys by index: the pairs of a Cremona letter step (see
:mod:`hypwalk.cremona`) or the triple that :func:`normalize_triple`
cancels.  It splits each poly's monomial content off once and tries every
group whose rests have two or more terms with one coprimality
certificate: a nonconstant common factor survives restriction to any
fixed affine line it does not contain, so a trivial univariate gcd on one
line proves coprimality.  Each line is (X, Y, Z) = (t, b t + c, 1), so a
restriction is one matrix product against the powers of (b t + c), cached
per (line, prime).  A proved group's gcd is a monomial, and its quotients
are shifts.  Every other group goes to the core, :func:`gcd3`: the least
monomial content times the gcd of the rests, whose boxes are their dense
bivariate forms.  Each step of the fold over the boxes splits off the
y-contents once, runs Brown's modular gcd on the primitive parts (a block
of evaluation points with one matrix product, univariate gcds point by
point, then interpolation), falls back to a pseudo-remainder sequence when
the prime runs out of points, and multiplies the gcd of the contents back
in.

Every gcd of the core is verified by trial division before it is
returned, and the quotients of that division are handed back, so a triple
:func:`normalize_triple` cancels has each coordinate divided at most once.
A gcd that fails the check, after one retry through the PRS, raises
:class:`~hypwalk.errors.BadPrimeSignal`.  A monomial gcd is checked by
shifts, with no trial division.  Univariate quotients and remainders on
Python ints come from :func:`_udivmod`, exact for every p: short gcds (the
certificate's, and the modular gcd's per point) run on it, long ones on
numpy rows.
"""

from __future__ import annotations

from functools import partial, reduce

import numpy as np

from .errors import BadPrimeSignal, InputError

DEFAULT_PRIME = 1000003
SECOND_PRIME = 1000033

# Fixed affine lines (X, Y, Z) = (t, b t + c, 1), stored as (b, c), used for
# the coprimality certificate; a group no line proves goes to the modular
# gcd.  Of four lines, only two ever proved a group: ``degree-growth-cremona``
# proved 730 groups on the first and 48 on the second (after a sound failure
# on the first) and 268 on none; ``cremona-mixed`` (seeds 0-7) 52 a pass on
# the first and 10 on none.  No restriction dropped degree.  A shift t + a
# in X gives the same line: (t + a, b t + c', 1) is (t, b t + c' - a b, 1)
# after t -> t - a.
_CERT_LINES = ((2, 1), (7, -24))


def _inv_mod(a: int, p: int) -> int:
    return pow(a, p - 2, p)


# The exact-product rule.  Every product of residue arrays is a float64 BLAS
# product reduced mod p afterwards.  Residues are nonnegative, so every
# partial sum BLAS forms, in any order and with or without FMA, is an
# integer no larger than the finished sum; a sum of K products of integers
# in [0, t], on top of one residue below p, is exact while K t^2 + p <= 2^53.
# With t = p - 1 that allows K up to 9007 at the default primes and no K
# once p > 2^26.5, as at the 31-bit retry primes.  Past the bound both
# operands are split into 16-bit halves (t = 2^16 - 1, exact for K < 2^21),
# recombined mod p in int64 below 2^48.  K is the inner dimension of a
# matrix product; a 2-D convolution puts at most min(cols) products on an
# entry per row product and reduces mod p every floor(9007 / min(cols))
# rows at the default primes.  Up to DEFAULT_DEGREE_CAP = 512 (cols <= 513)
# every product is exact for every p < 2^31.


def _exact_terms(top: int, p: int) -> int:
    """How many products of integers in [0, top] a float64 sum holds exactly
    on top of one residue below p."""
    return (2**53 - p) // (top * top)


def _residues(values: np.ndarray, p: int) -> np.ndarray:
    """Exact float64 integers reduced mod p, as int64 (np.fmod is far slower)."""
    return values.astype(np.int64) % p


def _exact_mod(product, a: np.ndarray, b: np.ndarray, terms: int, p: int) -> np.ndarray:
    """product(a, b, top) for residue operands, where ``product`` reduces mod
    p a float64 product whose entries each sum at most ``terms`` products of
    entries in [0, top]: in one pass when that is exact for top = p - 1,
    else from the 16-bit halves of both operands."""
    if terms <= _exact_terms(p - 1, p):
        return product(a, b, p - 1)

    def half(u, v):
        return product(u, v, 0xFFFF)

    a1, a0, b1, b0 = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
    mid = half(a1, b0) + half(a0, b1)
    return ((half(a1, b1) * 65536 + mid) % p * 65536 + half(a0, b0)) % p


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b % p for residue matrices, exact for every p < 2^31."""

    def product(u, v, top):
        return _residues(u.astype(np.float64) @ v.astype(np.float64), p)

    return _exact_mod(product, a, b, a.shape[-1], p)


def _conv2d_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The 2-D convolution of residue arrays mod p, exact for every p < 2^31:
    entry [i, j] is the x^i y^j coefficient of the bivariate product."""
    if a.shape[0] > b.shape[0]:
        a, b = b, a  # loop over the rows of the operand with fewer
    terms = min(a.shape[1], b.shape[1])
    return _exact_mod(partial(_conv2d_float, p=p), a, b, terms, p)


def _conv2d_float(a: np.ndarray, b: np.ndarray, top: int, p: int) -> np.ndarray:
    """2-D convolution mod p of arrays with entries in [0, top]: one float64
    product of b against the Toeplitz matrix of each nonzero row of a."""
    rows_b, cols_b = b.shape
    cols_a = a.shape[1]
    width = cols_a + cols_b - 1
    block = _exact_terms(top, p) // min(cols_a, cols_b)  # rows between reductions
    out = np.zeros((a.shape[0] + rows_b - 1, width))
    fb = b.astype(np.float64)
    # row k of the (cols_b, width + 1) buffer, read with row length width,
    # starts k places further right: entry (k, m) lands in column k + m
    buf = np.zeros((cols_b, width + 1))
    toeplitz = buf.ravel()[: cols_b * width].reshape(cols_b, width)
    pending = 0
    for i in np.flatnonzero(a.any(axis=1)).tolist():
        if pending == block:
            out[:] = _residues(out, p)
            pending = 0
        buf[:, :cols_a] = a[i]
        out[i : i + rows_b] += fb @ toeplitz
        pending += 1
    return _residues(out, p)


# The box of the zero polynomial.
_EMPTY = np.zeros((0, 0), dtype=np.int64)
_EMPTY.flags.writeable = False


class HomPoly3:
    """Homogeneous polynomial in X, Y, Z over GF(p), stored as the residue
    array ``box`` of its nonzero bounding box and the box's ``corner``.

    >>> f = HomPoly3(2, {(0, 2, 0): -1, (1, 0, 1): 3, (0, 0, 2): 0}, p=7)
    >>> f.terms()
    [((1, 0, 1), 3), ((0, 2, 0), 6)]
    >>> f.corner, f.box.tolist()
    ((0, 0), [[0, 0, 6], [3, 0, 0]])
    """

    __slots__ = ("degree", "p", "box", "corner")

    def __init__(self, degree: int, coeffs: dict, p: int = DEFAULT_PRIME):
        if degree < 0:
            raise InputError("degree must be >= 0")
        for i, j, l in coeffs:
            if i < 0 or j < 0 or l < 0 or i + j + l != degree:
                raise InputError(
                    f"exponent triple {(i, j, l)} does not match degree {degree}"
                )
        arr, corner = _EMPTY, (0, 0)
        if coeffs:
            # only the keys' box is allocated: a sparse generator of a degree
            # far past the composition cap stays cheap to build
            keys = np.array([key[:2] for key in coeffs], dtype=np.int64)
            low = keys.min(axis=0)
            arr = np.zeros(keys.max(axis=0) - low + 1, dtype=np.int64)
            arr[tuple((keys - low).T)] = [c % p for c in coeffs.values()]
            corner = tuple(low.tolist())
        self._store(degree, arr, p, corner)

    # -- constructors --------------------------------------------------------

    @staticmethod
    def _from_array(degree: int, arr: np.ndarray, p: int, corner=(0, 0)) -> "HomPoly3":
        """The polynomial whose X^(i0+a) Y^(j0+b) coefficient is the residue
        arr[a, b], for corner (i0, j0).  ``arr`` is made read-only and kept
        when it is its own box, so the caller must not write to it again."""
        poly = object.__new__(HomPoly3)
        poly._store(degree, arr, p, corner)
        return poly

    def _store(self, degree: int, arr: np.ndarray, p: int, corner) -> None:
        """Set the slots, cutting arr to its nonzero bounding box."""
        self.degree, self.p = degree, p
        rows = arr.any(axis=1).nonzero()[0].tolist()
        if not rows:
            self.box, self.corner = _EMPTY, (0, 0)
            return
        cols = arr.any(axis=0).nonzero()[0].tolist()
        r0, c0 = rows[0], cols[0]
        box = arr[r0 : rows[-1] + 1, c0 : cols[-1] + 1]
        if box.shape != arr.shape:
            box = box.copy()  # do not keep the whole of arr alive
        box.flags.writeable = False
        self.box, self.corner = box, (corner[0] + r0, corner[1] + c0)

    @staticmethod
    def zero(degree: int, p: int = DEFAULT_PRIME) -> "HomPoly3":
        return HomPoly3._from_array(degree, _EMPTY, p)

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
        return self.box.size == 0

    def terms(self):
        """Terms ``((i, j, l), c)`` in graded-lex order (X > Y > Z), largest
        first: the box's nonzero entries read from its last row and column."""
        flipped = self.box[::-1, ::-1]
        rows, cols = np.nonzero(flipped)
        i = self.corner[0] + self.box.shape[0] - 1 - rows
        j = self.corner[1] + self.box.shape[1] - 1 - cols
        keys = zip(i.tolist(), j.tolist(), (self.degree - i - j).tolist())
        return list(zip(keys, flipped[rows, cols].tolist()))

    @property
    def coeffs(self) -> dict:
        """The nonzero coefficients as ``{(i, j, l): c}``."""
        return dict(self.terms())

    def num_terms(self) -> int:
        return int(np.count_nonzero(self.box))

    def _leading_coefficient(self) -> int:
        """The graded-lex leading coefficient: the last nonzero entry of the
        box's last row.  Nonzero polynomials only."""
        last = self.box[-1]
        return int(last[np.flatnonzero(last)[-1]])

    def __eq__(self, other):
        return (
            isinstance(other, HomPoly3)
            and self.p == other.p
            and self.degree == other.degree
            and self.corner == other.corner
            and np.array_equal(self.box, other.box)
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
        out = (self._to_array() + other._to_array()) % self.p
        return HomPoly3._from_array(self.degree, out, self.p)

    def neg(self) -> "HomPoly3":
        return self.scale(-1)

    def sub(self, other: "HomPoly3") -> "HomPoly3":
        return self.add(other.neg())

    def scale(self, c: int) -> "HomPoly3":
        c %= self.p
        return HomPoly3._from_array(self.degree, self.box * c % self.p, self.p, self.corner)

    def mul(self, other: "HomPoly3") -> "HomPoly3":
        """The product: one exact 2-D convolution (:func:`_conv2d_mod`) of
        the two boxes, at the sum of the corners.  The product of the boxes
        is the product's box, as GF(p)[y] is a domain."""
        self._check_partner(other)
        degree = self.degree + other.degree
        if self.is_zero() or other.is_zero():
            return HomPoly3.zero(degree, self.p)
        (ai, aj), (bi, bj) = self.corner, other.corner
        arr = _conv2d_mod(self.box, other.box, self.p)
        return HomPoly3._from_array(degree, arr, self.p, (ai + bi, aj + bj))

    def _to_array(self) -> np.ndarray:
        """Dense bivariate form: entry [i, j] is the coefficient of
        X^i Y^j Z^(degree-i-j)."""
        arr = np.zeros((self.degree + 1, self.degree + 1), dtype=np.int64)
        (i0, j0), (rows, cols) = self.corner, self.box.shape
        arr[i0 : i0 + rows, j0 : j0 + cols] = self.box
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

    The result is homogeneous of degree ``poly.degree * e``.  The powers of
    A, B and C that poly's monomials use, then each monomial's product of
    them, are :meth:`HomPoly3.mul` products; the scaled terms are summed
    into one array, cut to its box once.
    """
    a, b, c = triple
    if not (a.degree == b.degree == c.degree):
        raise InputError("substituted coordinates must share one degree")
    p = poly.p
    if not (p == a.p == b.p == c.p):
        raise InputError("substitution operands live over different primes")
    out_degree = poly.degree * a.degree
    if poly.is_zero():
        return HomPoly3.zero(out_degree, p)

    rows, cols = np.nonzero(poly.box)
    i = rows + poly.corner[0]
    j = cols + poly.corner[1]
    exponents = np.stack([i, j, poly.degree - i - j], axis=1)
    # ladders[v][k - 1] is triple[v]^k
    ladders = []
    for top, base in zip(exponents.max(axis=0).tolist(), triple):
        ladder = [] if base.is_zero() or top == 0 else [base]
        while 0 < len(ladder) < top:
            ladder.append(ladder[-1].mul(base))
        ladders.append(ladder)

    out = np.zeros((out_degree + 1, out_degree + 1), dtype=np.int64)
    for key, coeff in zip(exponents.tolist(), poly.box[rows, cols].tolist()):
        if any(e > len(ladder) for e, ladder in zip(key, ladders)):
            continue  # a positive power of a zero coordinate
        factors = [ladder[e - 1] for e, ladder in zip(key, ladders) if e]
        term = reduce(HomPoly3.mul, factors) if factors else HomPoly3.monomial(0, 0, 0, 1, p)
        (i0, j0), (height, width) = term.corner, term.box.shape
        block = out[i0 : i0 + height, j0 : j0 + width]
        block += coeff * term.box
        block %= p
    return HomPoly3._from_array(out_degree, out, p)


# ---------------------------------------------------------------------------
# Exact division and GCD.


def divexact(f: HomPoly3, g: HomPoly3):
    """f / g when the division is exact, else None.

    The quotient's box has its corner at the difference of the corners, as
    the corners of a product add.  A one-term divisor c X^i Y^j Z^l (a
    constant included) is a shift: the quotient is f's box at that corner,
    scaled by 1/c unless c is 1, and exact when the corner is nonnegative
    and every term of f has Z-exponent at least l.  Every other divisor goes
    through the dense bivariate routine :func:`_divexact_dense` on the two
    boxes, which is exact for every prime p < 2^31.
    """
    if g.is_zero():
        raise InputError("division by the zero polynomial")
    if f.is_zero():
        return HomPoly3.zero(max(f.degree - g.degree, 0), f.p)
    if f.degree < g.degree:
        return None
    degree = f.degree - g.degree
    corner = (f.corner[0] - g.corner[0], f.corner[1] - g.corner[1])
    if min(corner) < 0:
        return None
    if g.box.size == 1:
        z = g.degree - sum(g.corner)
        if z and sum(corner) + _max_ij(f.box) > degree:
            return None  # some term of f has fewer Z than g
        q = _shift_exponents(f, (*g.corner, z))
        c = int(g.box[0, 0])
        return q if c == 1 else q.scale(_inv_mod(c, f.p))
    q = _divexact_dense(f.box, g.box, f.p, degree - sum(corner))
    if q is None:
        return None
    return HomPoly3._from_array(degree, q, f.p, corner)


def _max_ij(arr: np.ndarray) -> int:
    """The largest i + j over the nonzero entries arr[i, j]."""
    rows, cols = np.nonzero(arr)
    return int((rows + cols).max())


def _monomial_content(polys) -> tuple[int, int, int]:
    """The exponents of the largest monomial dividing every (nonzero) poly:
    the least corner entries, and the least Z-exponent, which is the degree
    less the largest i + j in the box."""
    return (
        min(q.corner[0] for q in polys),
        min(q.corner[1] for q in polys),
        min(q.degree - sum(q.corner) - _max_ij(q.box) for q in polys),
    )


def _shift_exponents(poly: HomPoly3, shift: tuple[int, int, int]) -> HomPoly3:
    """poly divided by the monomial X^si Y^sj Z^sl: the same box, moved."""
    if not any(shift):
        return poly  # polys are immutable
    si, sj, sl = shift
    corner = (poly.corner[0] - si, poly.corner[1] - sj)
    return HomPoly3._from_array(poly.degree - si - sj - sl, poly.box, poly.p, corner)


def _power_table(root: int, lead: int, size: int, p: int) -> np.ndarray:
    """Row k holds the coefficients of (lead t + root)^k, for k < size."""
    table = np.zeros((size, size), dtype=np.int64)
    table[0, 0] = 1
    for k in range(1, size):
        prev = table[k - 1]
        table[k] = (prev * root) % p
        table[k, 1:] = (table[k, 1:] + prev[:-1] * lead) % p
    table.flags.writeable = False  # cached and shared by every restriction
    return table


# prime -> {line: powers of (b t + c)}, most recently used prime last.  The
# power table of degree d is the top-left block of any larger one, so each
# table grows on demand; the retry primes are drawn fresh, so only a few
# primes are kept.
_LINE_TABLES: dict[int, dict] = {}
_LINE_TABLE_PRIMES = 4


def _line_table(line: tuple[int, int], p: int, d: int) -> np.ndarray:
    """The power table of (b t + c) for degrees up to d."""
    tables = _LINE_TABLES.pop(p, None)
    if tables is None:
        tables = {}
        while len(_LINE_TABLES) >= _LINE_TABLE_PRIMES:
            del _LINE_TABLES[next(iter(_LINE_TABLES))]
    _LINE_TABLES[p] = tables
    cached = tables.get(line)
    if cached is None or cached.shape[0] <= d:
        size = max(d + 1, 2 * cached.shape[0]) if cached is not None else d + 1
        b, c = line
        cached = tables[line] = _power_table(c % p, b, size, p)
    return cached[: d + 1, : d + 1]


def _restrict_to_line(poly: HomPoly3, line: tuple[int, int]) -> np.ndarray:
    """Coefficients of poly(t, b t + c, 1) as an int64 residue vector.

    One matrix product of the box against the rows of the cached power
    table that its Y-exponents cover: row r of ``W = box @ V`` is the part
    of the restriction from X^(i0+r), divided by t^(i0+r), so W[r, k] adds
    to the t^(i0+r+k) coefficient.  The antidiagonal sums of W, moved by
    i0, are the coefficients; a row-skewed reshape lines each antidiagonal
    up as a column.
    """
    if poly.is_zero():
        return np.zeros(0, dtype=np.int64)
    p = poly.p
    n = poly.degree + 1
    (i0, j0), (rows, cols) = poly.corner, poly.box.shape
    W = _matmul_mod(poly.box, _line_table(line, p, poly.degree)[j0 : j0 + cols], p)
    # row m of the padded (n, 2n) matrix, read with row length 2n - 1,
    # starts m places further right: entry (m, k) lands in column m + k
    skewed = np.zeros((n, 2 * n), dtype=np.int64)
    skewed[i0 : i0 + rows, :n] = W
    sums = skewed.ravel()[: n * (2 * n - 1)].reshape(n, 2 * n - 1).sum(axis=0) % p
    return _utrim(sums)


def _utrim(vec: np.ndarray) -> np.ndarray:
    nz = np.nonzero(vec)[0]
    if nz.size == 0:
        return np.zeros(0, dtype=np.int64)
    return vec[: nz[-1] + 1]


# Univariate gcds of inputs shorter than this many coefficients run on
# Python ints (_ugcd_ints), longer ones on numpy rows (_ugcd_rows): below
# it the fixed cost of a numpy call per Euclid step dominates.  Measured on
# the full remainder sequence of a random coprime pair (n and n - 1
# coefficients; x86-64 Xeon, numpy 2.4), rows against ints, in us:
#   n            4       20       40       60      100
#   p = 1000003  45/14   249/155  480/492  544/678  839/1842
#   p ~ 2^31     51/24   277/241  519/705  780/1335 1295/3243
# The crossover is near 40 at the default primes, where nearly every gcd
# runs; the 31-bit retry primes cross over near 25.  The rows earn their
# place on the larger degrees of the ``degree-growth-cremona`` preset: 406
# of its 9,674 calls have 40 or more coefficients, and all its calls,
# recorded and replayed, take 462-481 ms on ints alone against 405-409 ms
# through this dispatch (best of 5, same machine).  The bench's Cremona
# workloads stay below 40 (at most 25 coefficients on ``cremona-mixed``;
# ``cremona-henon`` makes no call).
_SHORT_UGCD = 40


def _ugcd(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """Monic gcd of univariate polynomials over GF(p) (coefficient vectors)."""
    u, v = _utrim(u), _utrim(v)
    if max(u.size, v.size) < _SHORT_UGCD:
        return np.array(_ugcd_ints(u.tolist(), v.tolist(), p), dtype=np.int64)
    return _ugcd_rows(u, v, p)


def _ugcd_ints(u: list, v: list, p: int) -> list:
    """:func:`_ugcd` on lists of Python ints (exact for every p), low
    coefficient first, without trailing zeros."""
    while v:
        u, v = v, _udivmod(u, v, p)[1]
    if u and u[-1] != 1:
        inv = _inv_mod(u[-1], p)
        u = [c * inv % p for c in u]
    return u


def _udivmod(u: list, v: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of u by v over GF(p), on lists of Python ints
    (exact for every p), low coefficient first; v has no trailing zeros,
    and neither has the remainder."""
    n = len(v) - 1
    inv = _inv_mod(v[-1], p)
    r = list(u)
    q = [0] * max(len(r) - n, 0)
    for top in range(len(r) - 1, n - 1, -1):
        factor = r[top] * inv % p
        if factor:
            base = top - n
            q[base] = factor
            for k in range(n):
                r[base + k] = (r[base + k] - factor * v[k]) % p
    del r[n:]  # each step clears its top coefficient exactly
    while r and not r[-1]:
        r.pop()
    return q, r


def _ugcd_rows(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """:func:`_ugcd` on trimmed int64 residue vectors, one numpy row
    operation per Euclid step."""
    while v.size:
        n = v.size
        if u.size >= n:
            # u mod v: each step clears the top coefficient exactly, so the
            # remainder is trimmed once, below the degree of v
            lc_inv = _inv_mod(int(v[-1]), p)
            u = u.copy()
            for top in range(u.size - 1, n - 2, -1):
                factor = int(u[top]) * lc_inv % p
                if factor:
                    seg = u[top - n + 1 : top + 1]
                    seg -= factor * v
                    seg %= p
            u = _utrim(u[: n - 1])
        u, v = v, u
    if u.size:
        u = (u * _inv_mod(int(u[-1]), p)) % p
    return u


def coprimality_certificate(polys, p: int, groups) -> set:
    """The groups of ``polys`` whose gcd restriction to a fixed line proves
    constant: a group is a tuple of indices into ``polys`` (a list, or a
    dict keyed by index), and the result is the set of groups proved
    coprime (empty when none is).

    Sound provided no restriction drops degree: when
    ``deg poly(L(t)) == deg poly`` for each poly of a group, every
    factorization ``poly = G * cofactor`` restricts with full degrees on
    both sides, so a common factor of positive degree restricts to a
    nonconstant common divisor of the univariate restrictions.  A constant
    univariate gcd then certifies coprimality.  A line on which some poly of
    a group drops degree (the line meets it at its point at infinity) is
    skipped for that group.  Each poly is restricted at most once per line,
    and only while a group holding it is unproved.
    """
    proved: set = set()
    for line in _CERT_LINES:
        restricted: dict = {}  # index -> restriction, None on a degree drop
        for group in groups:
            if group in proved:
                continue
            for k in group:
                if k not in restricted:
                    r = _restrict_to_line(polys[k], line)
                    restricted[k] = r if r.size == polys[k].degree + 1 else None
            vectors = [restricted[k] for k in group]
            if any(r is None for r in vectors):
                continue  # degree drop: certificate not sound on this line
            g = vectors[0]
            for r in vectors[1:]:
                g = _ugcd(g, r, p)
                if g.size == 1:
                    break
            if g.size == 1:
                proved.add(group)
        if len(proved) == len(groups):
            break
    return proved


def group_gcds(polys, groups) -> list[tuple[HomPoly3, ...]]:
    """``(gcd, *quotients)`` for each group of two or three indices into
    ``polys``: the gcd of the group's polys, monic under graded-lex, and
    each of them divided by it, as :func:`gcd3` of the group (a pair's
    third operand zero) gives them.

    The front of the gcd layer, and the one caller of
    :func:`coprimality_certificate`.  Each poly of a group whose polys all
    have two or more terms is split once into its own monomial content m
    and the rest r; gcd(m r, m' r') is gcd(m, m') gcd(r, r'), as X, Y and Z
    are primes that divide no r.  One certificate call, restricting each r
    at most once per line, tries every such group.  A proved group's gcd
    is the least of its contents m, and its quotients are its polys moved
    by that monomial, with no division.  Every other group goes to
    :func:`gcd3`: a group with a zero poly or a unit rest (one term), whose
    gcd is a monomial, and an unproved group.
    """
    tried = [group for group in groups if all(polys[k].num_terms() > 1 for k in group)]
    contents, rests = {}, {}  # index -> m and r of each poly the certificate tries
    for k in {k for group in tried for k in group}:
        contents[k] = _monomial_content([polys[k]])
        rests[k] = _shift_exponents(polys[k], contents[k])
    proved = coprimality_certificate(rests, polys[0].p, tried) if tried else set()
    out = []
    for group in groups:
        members = [polys[k] for k in group]
        p = members[0].p
        if group in proved:
            shift = tuple(map(min, *(contents[k] for k in group)))
            common = HomPoly3.monomial(*shift, 1, p)
            out.append((common, *(_shift_exponents(f, shift) for f in members)))
        else:
            quotients: list = []
            zeros = [HomPoly3.zero(members[0].degree, p)] * (3 - len(members))
            common = gcd3(*members, *zeros, quotients)
            out.append((common, *quotients[: len(members)]))
    return out


def gcd3(p1: HomPoly3, p2: HomPoly3, p3: HomPoly3, quotients: list | None = None) -> HomPoly3:
    """A gcd of the three polynomials, monic under graded-lex: the core of
    the gcd layer, with no certificate (that is :func:`group_gcds`'s).

    The gcd of the nonzero polys is the least of their monomial contents
    times the gcd of their rests.  When a rest is one term, that gcd is 1.
    Otherwise each poly's box, with its corner at (0, 0), is its rest's
    dense dehomogenized form, and :func:`_bivariate_gcd_list` folds the
    boxes by the modular gcd on their primitive parts.  The result is
    verified by trial division against all three inputs, and the fold's
    first pairwise gcd against its pair.  A gcd of the rests that fails a
    check (unlucky evaluation points) is computed once more by the
    pseudo-remainder sequence alone; a failed check then
    raises :class:`~hypwalk.errors.BadPrimeSignal`, which sends the caller
    to the bad-prime retry policy.  When ``quotients`` is a list it is
    filled with the three exact quotients the verification computed.
    """
    polys = [q for q in (p1, p2, p3) if not q.is_zero()]
    if not polys:
        raise InputError("gcd3 of three zero polynomials")
    p = polys[0].p
    if any(q.p != p for q in polys):
        raise InputError("gcd3 operands live over different primes")
    shift = _monomial_content(polys)

    def monic(rest: np.ndarray) -> HomPoly3:
        """X^si Y^sj Z^sl times rest, with graded-lex leading coefficient 1."""
        gcd_poly = HomPoly3._from_array(_max_ij(rest) + sum(shift), rest, p, shift[:2])
        return gcd_poly.scale(_inv_mod(gcd_poly._leading_coefficient(), p))

    gcd_poly = HomPoly3.monomial(*shift, 1, p)
    boxes = [q.box for q in polys] if all(q.num_terms() > 1 for q in polys) else None
    if boxes:
        rest = _bivariate_gcd_list(boxes, p, _modular_bivariate_gcd)
        gcd_poly = None if rest is None else monic(rest)
    exact = gcd_poly is not None and _divides_all(gcd_poly, (p1, p2, p3))
    if not exact and boxes:
        gcd_poly = monic(_bivariate_gcd_list(boxes, p, _prs_gcd))
        exact = _divides_all(gcd_poly, (p1, p2, p3))
    if not exact:
        raise BadPrimeSignal("gcd verification by trial division failed")
    if quotients is not None:
        quotients[:] = exact
    return gcd_poly


def _divides_all(gcd_poly: HomPoly3, polys) -> list[HomPoly3] | None:
    """The exact quotients of polys by gcd_poly, or None when one is inexact."""
    quotients = [divexact(q, gcd_poly) for q in polys]
    return None if any(q is None for q in quotients) else quotients


def normalize_triple(p1: HomPoly3, p2: HomPoly3, p3: HomPoly3, coprime: bool = False):
    """Divide out the gcd and rescale so the first nonzero coefficient
    (scanning the triple in order, each in graded-lex order) equals 1.

    The gcd and quotients come from :func:`group_gcds` of the triple, so
    each component is divided at most once (not at all when the
    certificate proves the triple).  With ``coprime`` the caller vouches
    that the triple has no common factor (a composition whose cancellation
    the base-point rule of :mod:`hypwalk.cremona` already divided out), and
    only the rescaling is done.  Returns ``(triple, gcd_degree)``.  An
    all-zero triple signals a degenerate composition, typically an unlucky
    coefficient prime.
    """
    if p1.is_zero() and p2.is_zero() and p3.is_zero():
        raise BadPrimeSignal("composition collapsed to the zero triple")
    if coprime:
        parts, gcd_degree = [p1, p2, p3], 0
    else:
        ((common, *parts),) = group_gcds((p1, p2, p3), ((0, 1, 2),))
        gcd_degree = common.degree
    lead = next(q._leading_coefficient() for q in parts if not q.is_zero())
    scale = _inv_mod(lead, p1.p)
    return tuple(q.scale(scale) for q in parts), gcd_degree


# ---------------------------------------------------------------------------
# Dense bivariate helpers (arrays M[i, j] = coefficient of x^i y^j; setting
# Z = 1 in a homogeneous polynomial gives exactly its exponent array).  The
# gcds take boxes: nonzero arrays cut to their last nonzero row and column.


def _vandermonde(points: np.ndarray, width: int, p: int) -> np.ndarray:
    """result[j, t] = points[t]^j mod p, for j < width."""
    table = np.empty((width, points.size), dtype=np.int64)
    table[0] = 1
    for j in range(1, width):
        table[j] = table[j - 1] * points % p
    return table


def _cut(arr: np.ndarray) -> np.ndarray:
    """arr without trailing zero rows and columns."""
    rows = np.flatnonzero(arr.any(axis=1))
    cols = np.flatnonzero(arr.any(axis=0))
    return arr[: rows[-1] + 1, : cols[-1] + 1] if rows.size else arr[:0, :0]


def _content_y(rows, p: int) -> np.ndarray:
    """gcd in F_p[y] of all row polynomials (the content w.r.t. x)."""
    g = np.zeros(0, dtype=np.int64)
    for row in rows:
        row = _utrim(row)
        if row.size:
            g = row if g.size == 0 else _ugcd(g, row, p)
            if g.size == 1:
                break
    return g


def _primitive(arr: np.ndarray, p: int) -> tuple[np.ndarray, np.ndarray]:
    """``(c, arr / c)`` for a nonzero arr and its content c in GF(p)[y], the
    gcd of its rows; the primitive part is cut."""
    content = _content_y(arr, p)
    if content.size == 1:
        return content, _cut(arr * _inv_mod(int(content[0]), p) % p)
    return content, _cut(_divexact_dense(arr, content[None, :], p, sum(arr.shape)))


def _bivariate_gcd_list(boxes, p: int, primitive_gcd) -> np.ndarray | None:
    """The gcd of the boxes, folded pairwise by :func:`_bivariate_gcd`, or
    None when a fold result before the last does not divide the two boxes
    it came from (trial division with no degree bound).  Unlucky evaluation points can make a pairwise gcd wrong,
    and once folded with the next box a wrong one can come out too small:
    1 passes the caller's trial division of the inputs.  A constant is
    exact (no point gives a degree below the true gcd's)."""
    g = boxes[0]
    for k, box in enumerate(boxes[1:], 2):
        fold = _bivariate_gcd(g, box, p, primitive_gcd)
        if fold.shape == (1, 1):
            return fold
        if k < len(boxes) and any(
            _divexact_dense(f, fold, p, sum(f.shape)) is None for f in (g, box)
        ):
            return None
        g = fold
    return g


def _bivariate_gcd(a: np.ndarray, b: np.ndarray, p: int, primitive_gcd) -> np.ndarray:
    """gcd(a, b) of two boxes: the gcd of their contents in GF(p)[y] times
    ``primitive_gcd`` of their primitive parts, which is the modular gcd
    (:func:`_prs_gcd` where it runs out of points) or the PRS itself."""
    (content_a, a), (content_b, b) = _primitive(a, p), _primitive(b, p)
    g = primitive_gcd(a, b, p)
    if g is None:
        g = _prs_gcd(a, b, p)
    content = _ugcd(content_a, content_b, p)
    return _conv2d_mod(g, content[None, :], p) if content.size > 1 else g


def _modular_bivariate_gcd(A: np.ndarray, B: np.ndarray, p: int) -> np.ndarray | None:
    """gcd of two primitive boxes by evaluation/interpolation, primitive and
    cut.

    Brown's modular gcd with y as the evaluation variable: specialize y at
    the points 1, 2, 3, ... avoiding roots of both leading coefficients,
    take monic univariate gcds, rescale by the gcd of the leading
    coefficients, and interpolate back (Newton differences).  The points
    come in blocks: one matrix product against a Vandermonde table
    evaluates every row of A and B, and the leading-coefficient gcd, at a
    whole block; only the univariate gcd runs per point.  Returns None when
    the prime runs out of usable points (past ``8 * needed + 64`` points or
    p); the caller keeps the pseudo-remainder fallback.  Results are
    verified by trial division downstream, so an unlucky specialization
    cannot corrupt a composition.
    """
    dxA, dxB = A.shape[0] - 1, B.shape[0] - 1
    gamma = _ugcd(_utrim(A[dxA]), _utrim(B[dxB]), p)
    needed = (gamma.size - 1) + min(A.shape[1], B.shape[1])
    last_point = min(8 * needed + 64, p - 1)

    # rows 0..dxA are A, the next dxB + 1 are B, the last is gamma
    ywidth = max(A.shape[1], B.shape[1], gamma.size)
    stacked = np.zeros((dxA + dxB + 3, ywidth), dtype=np.int64)
    stacked[: dxA + 1, : A.shape[1]] = A
    stacked[dxA + 1 : -1, : B.shape[1]] = B
    stacked[-1, : gamma.size] = gamma
    block = needed + 8

    best_deg = None
    nodes: list[int] = []
    values: list[np.ndarray] = []
    start = 1
    while len(nodes) < needed:
        if start > last_point:
            return None
        points = np.arange(start, min(start + block, last_point + 1), dtype=np.int64)
        start += points.size
        evaluated = _matmul_mod(stacked, _vandermonde(points, ywidth, p), p).T
        for y, column in zip(points.tolist(), evaluated):
            if column[dxA] == 0 or column[dxA + 1 + dxB] == 0:
                continue  # y is a root of a leading coefficient
            a_spec = _utrim(column[: dxA + 1])
            b_spec = _utrim(column[dxA + 1 : -1])
            g_spec = _ugcd(a_spec, b_spec, p)
            deg = g_spec.size - 1
            if best_deg is None or deg < best_deg:
                best_deg = deg
                nodes, values = [], []
            if deg == best_deg:
                if best_deg == 0:
                    return np.ones((1, 1), dtype=np.int64)
                nodes.append(y)
                values.append((g_spec * int(column[-1])) % p)
                if len(nodes) == needed:
                    break

    width = best_deg + 1
    table = np.zeros((len(nodes), width), dtype=np.int64)
    for t, vec in enumerate(values):
        table[t, : vec.size] = vec
    poly = _newton_interpolate(np.array(nodes, dtype=np.int64), table, p)
    return _primitive(poly.T, p)[1]  # rows of poly.T are x-coefficients in y


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

    F and G are boxes: nonzero arrays without zero outer rows or columns.
    A quotient entry [i, j] with i + j above ``degree`` is rejected: ``divexact``
    passes the bound that keeps the homogeneous quotient's Z-exponent
    nonnegative, as G may carry a power of Z that F lacks.  A product row
    wider than F lands outside F's box, so the division is inexact there.
    """
    dxF, dxG = F.shape[0] - 1, G.shape[0] - 1
    if dxF < dxG:
        return None
    lcG = _utrim(G[dxG])
    rem = F.copy()
    q = np.zeros((dxF - dxG + 1, F.shape[1]), dtype=np.int64)
    for i in range(dxF - dxG, -1, -1):
        top = _utrim(rem[i + dxG])
        if top.size == 0:
            continue
        if top.size < lcG.size or top.size - lcG.size > degree - i:
            return None
        qi = _udivexact(top, lcG, p)
        if qi is None:
            return None
        q[i, : qi.size] = qi
        product = _conv2d_mod(qi[None, :], G, p)
        if product.shape[1] > rem.shape[1]:
            return None
        seg = rem[i : i + dxG + 1, : product.shape[1]]
        seg -= product
        seg %= p
    if rem.any():
        return None
    return q


def _udivexact(u: np.ndarray, g: np.ndarray, p: int) -> np.ndarray | None:
    """u / g for univariate polys when exact, else None."""
    q, r = _udivmod(u.tolist(), g.tolist(), p)
    return None if r else np.array(q, dtype=np.int64)


# ---------------------------------------------------------------------------
# The bivariate PRS gcd on boxes (the fallback when the modular gcd runs out
# of points, and the retry after a failed trial division).


def _pseudo_rem(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Pseudo-remainder of a by b as polynomials in x over GF(p)[y]: while
    deg r >= deg b, r becomes lc(b) r - lc(r) x^(deg r - deg b) b, whose
    top row cancels."""
    db = b.shape[0] - 1
    lb = b[db:]
    r = a
    while r.shape[0] > db:
        dr = r.shape[0] - 1
        left = _conv2d_mod(r[:dr], lb, p)
        right = _conv2d_mod(b[:db], r[dr:], p)
        out = np.zeros((dr, max(left.shape[1], right.shape[1])), dtype=np.int64)
        out[:, : left.shape[1]] = left
        out[dr - db :, : right.shape[1]] -= right
        r = _cut(out % p)
    return r


def _prs_gcd(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The gcd of two primitive boxes by the primitive pseudo-remainder
    sequence in x: it needs no evaluation points, so it works at every
    prime.  The result is primitive."""
    if a.shape[0] < b.shape[0]:
        a, b = b, a
    while b.size:
        r = _pseudo_rem(a, b, p)
        a, b = b, (_primitive(r, p)[1] if r.size else r)
    return a


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
