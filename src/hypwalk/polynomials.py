"""Exact homogeneous polynomial arithmetic in three variables over GF(p).

A :class:`HomPoly3` of degree d is one read-only int64 array of residues mod
a prime: its coefficients cut to their nonzero bounding box in (X-exponent,
Y-exponent), with the box's corner.  Entry [a, b] of the box is the
coefficient of X^i Y^j Z^(d-i-j) for (i, j) = corner + (a, b); the
Z-exponent follows from the degree.  The zero polynomial is an empty box
that keeps its degree tag, so homogeneity bookkeeping survives sums.

Every polynomial product -- :meth:`HomPoly3.mul` and the power ladders and
terms of :func:`substitute` -- is one 2-D convolution, :func:`_conv2d_mod`,
of two boxes: a float64 BLAS product per row of the operand with fewer
rows, reduced mod p.  It follows one exact-product rule, stated next to
it, that holds for every prime p < 2^31: the 31-bit primes drawn by the
bad-prime retry policy are as safe as the default ones.  Exact division by
a one-term divisor is a shift of the box, scaled by the inverse of the
divisor's coefficient.  Every inverse mod p is Python's ``pow(a, -1, p)``
of a nonzero residue (a zero one raises ``ValueError``).

The gcd layer has a front and a core, and beyond a monomial gcd or a shift
it takes one-row boxes: forms in Y and Z times a power of X, as the
coordinates of a Cremona track on a line are (see :mod:`hypwalk.cremona`).
Such a box's row is the form with Z = 1, divided by the powers of X and Y
at its corner, so every gcd of two or more terms is a fold of univariate
gcds over the rows.  The front, :func:`group_gcds`, takes groups of polys
by index: the pairs of a Cremona letter step or the triple that
:func:`normalize_triple` cancels.  It splits each poly's monomial content
off once and tries every group whose rests have two or more terms with one
coprimality certificate, which proves a group exactly when the fold over
its rests' rows is constant.  A proved group's gcd is a monomial, and its
quotients are shifts.  Every other group goes to the core, :func:`gcd3`:
the least monomial content times the gcd of the rests.  Exact division,
:func:`divexact`, is a shift for a monomial divisor and a univariate
division of the rows otherwise.  :func:`coprimality_certificate` raises
:class:`~hypwalk.errors.InputError` on any plane operand (a box of two or
more rows), and :func:`gcd3` and :func:`divexact` on one whose answer is
not a monomial gcd or a shift.

Every gcd of the core is verified by trial division before it is
returned, and the quotients of that division are handed back, so a triple
:func:`normalize_triple` cancels has each coordinate divided at most once.
A gcd that fails the check raises :class:`~hypwalk.errors.BadPrimeSignal`.
Univariate quotients and remainders on Python ints come from
:func:`_udivmod`, exact for every p: short gcds run on it, long ones on
numpy rows.
"""

from __future__ import annotations

from functools import reduce

import numpy as np

from .errors import BadPrimeSignal, InputError

DEFAULT_PRIME = 1000003
SECOND_PRIME = 1000033

# The exact-product rule.  A 2-D convolution of residue arrays is a float64
# BLAS product per row of the operand with fewer rows, reduced mod p
# afterwards.  Residues are nonnegative, so every partial sum BLAS forms, in
# any order and with or without FMA, is an integer no larger than the
# finished sum; a sum of K products of integers in [0, t], on top of one
# residue below p, is exact while K t^2 + p <= 2^53.  A row product puts at
# most K = min(cols) products on an entry.  With t = p - 1 that allows K up
# to 9007 at the default primes and no K once p > 2^26.5, as at the 31-bit
# retry primes.  Past the bound both operands are split into 16-bit halves
# (t = 2^16 - 1, exact for K < 2^21), recombined mod p in int64 below 2^48.
# The row products are reduced mod p every floor(9007 / min(cols)) rows at
# the default primes.  Up to DEFAULT_DEGREE_CAP = 512 (cols <= 513) every
# product is exact for every p < 2^31.


def _exact_terms(top: int, p: int) -> int:
    """How many products of integers in [0, top] a float64 sum holds exactly
    on top of one residue below p."""
    return (2**53 - p) // (top * top)


def _residues(values: np.ndarray, p: int) -> np.ndarray:
    """Exact float64 integers reduced mod p, as int64 (np.fmod is far slower)."""
    return values.astype(np.int64) % p


def _conv2d_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """The 2-D convolution of residue arrays mod p, exact for every p < 2^31:
    entry [i, j] is the x^i y^j coefficient of the bivariate product.  It is
    one pass when that is exact for entries up to p - 1, else it is put
    together from the products of the 16-bit halves of both operands."""
    if a.shape[0] > b.shape[0]:
        a, b = b, a  # loop over the rows of the operand with fewer
    if min(a.shape[1], b.shape[1]) <= _exact_terms(p - 1, p):
        return _conv2d_float(a, b, p - 1, p)

    def half(u, v):
        return _conv2d_float(u, v, 0xFFFF, p)

    a1, a0, b1, b0 = a >> 16, a & 0xFFFF, b >> 16, b & 0xFFFF
    mid = half(a1, b0) + half(a0, b1)
    return ((half(a1, b1) * 65536 + mid) % p * 65536 + half(a0, b0)) % p


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
        return _sum_boxes(self.degree, [(1, q) for q in (self, other)], self.p)

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
    them, are :meth:`HomPoly3.mul` products; the scaled terms are summed in
    the union of their boxes, cut once.
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

    terms = []
    for key, coeff in zip(exponents.tolist(), poly.box[rows, cols].tolist()):
        if any(e > len(ladder) for e, ladder in zip(key, ladders)):
            continue  # a positive power of a zero coordinate
        factors = [ladder[e - 1] for e, ladder in zip(key, ladders) if e]
        term = reduce(HomPoly3.mul, factors) if factors else HomPoly3.monomial(0, 0, 0, 1, p)
        terms.append((coeff, term))
    return _sum_boxes(out_degree, terms, p)


def _sum_boxes(degree: int, terms, p: int) -> HomPoly3:
    """The sum of c q over ``terms``, pairs (c, q) of a residue and a poly of
    ``degree``, added in the union of the nonzero boxes, cut once."""
    terms = [(c, q) for c, q in terms if not q.is_zero()]
    if not terms:
        return HomPoly3.zero(degree, p)
    low = [min(q.corner[k] for _, q in terms) for k in (0, 1)]
    high = [max(q.corner[k] + q.box.shape[k] for _, q in terms) for k in (0, 1)]
    out = np.zeros((high[0] - low[0], high[1] - low[1]), dtype=np.int64)
    for c, q in terms:
        (i0, j0), (rows, cols) = q.corner, q.box.shape
        block = out[i0 - low[0] : i0 - low[0] + rows, j0 - low[1] : j0 - low[1] + cols]
        block += c * q.box
        block %= p
    return HomPoly3._from_array(degree, out, p, tuple(low))


# ---------------------------------------------------------------------------
# Exact division and GCD.


def divexact(f: HomPoly3, g: HomPoly3):
    """f / g when the division is exact, else None.

    The quotient's box has its corner at the difference of the corners, as
    the corners of a product add.  A one-term divisor c X^i Y^j Z^l (a
    constant included) is a shift: the quotient is f's box at that corner,
    scaled by 1/c unless c is 1, and exact when the corner is nonnegative
    and every term of f has Z-exponent at least l.  Any other divisor, and
    f with it, must be a one-row box, a form in Y and Z times a power of X,
    as a Cremona track's coordinates are: the quotient's row is the
    univariate quotient of the rows (:func:`_udivexact`, exact for every
    p), and the division is exact when that has no remainder and leaves
    every Z-exponent nonnegative.  Other operands raise
    :class:`~hypwalk.errors.InputError`.
    """
    if g.is_zero():
        raise InputError("division by the zero polynomial")
    if f.is_zero():
        return HomPoly3.zero(max(f.degree - g.degree, 0), f.p)
    if g.box.size > 1 and max(f.box.shape[0], g.box.shape[0]) > 1:
        raise InputError("divexact by a polynomial of two or more terms takes one-row boxes")
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
        return q if c == 1 else q.scale(pow(c, -1, f.p))
    q = _udivexact(f.box[0], g.box[0], f.p)
    if q is None or q.size - 1 > degree - sum(corner):
        return None  # inexact, or some term of the quotient has a negative Z-exponent
    return HomPoly3._from_array(degree, q[None, :], f.p, corner)


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
# runs; the 31-bit retry primes cross over near 25.  ``degree-growth-cremona``
# makes 1,676 calls, 60 of them with 40 or more coefficients (at most 89).
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
        inv = pow(u[-1], -1, p)
        u = [c * inv % p for c in u]
    return u


def _udivmod(u: list, v: list, p: int) -> tuple[list, list]:
    """Quotient and remainder of u by v over GF(p), on lists of Python ints
    (exact for every p), low coefficient first; v has no trailing zeros,
    and neither has the remainder."""
    n = len(v) - 1
    inv = pow(v[-1], -1, p)
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


def _udivexact(u: np.ndarray, g: np.ndarray, p: int) -> np.ndarray | None:
    """u / g for univariate polys when exact, else None."""
    q, r = _udivmod(u.tolist(), g.tolist(), p)
    return None if r else np.array(q, dtype=np.int64)


def _ugcd_rows(u: np.ndarray, v: np.ndarray, p: int) -> np.ndarray:
    """:func:`_ugcd` on trimmed int64 residue vectors, one numpy row
    operation per Euclid step."""
    while v.size:
        n = v.size
        if u.size >= n:
            # u mod v: each step clears the top coefficient exactly, so the
            # remainder is trimmed once, below the degree of v
            lc_inv = pow(int(v[-1]), -1, p)
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
        u = (u * pow(int(u[-1]), -1, p)) % p
    return u


def coprimality_certificate(polys, p: int, groups) -> set:
    """The groups of ``polys`` whose rows have a constant gcd: a group is a
    tuple of indices into ``polys`` (a list, or a dict keyed by index), and
    the result is the set of groups proved (empty when none is).

    Every poly of a group must be a one-row box, a form in Y and Z times a
    power of X; a plane operand (a box of two or more rows) raises
    :class:`~hypwalk.errors.InputError`.  Such a poly is its row, read from
    its corner, times a monomial, so a group is proved exactly when its gcd
    is a monomial: for the rests :func:`group_gcds` passes, whose monomial
    content is split off, exactly when they are coprime.  The rows' gcd is
    a fold of :func:`_ugcd`, stopped once it is constant.

    >>> Y, Z = HomPoly3.variable(1, 7), HomPoly3.variable(2, 7)
    >>> polys = [Y.mul(Y).add(Z.mul(Z)), Y.add(Z), Y.add(Z).mul(Y.sub(Z))]
    >>> coprimality_certificate(polys, 7, [(0, 1), (1, 2)])
    {(0, 1)}
    """
    if any(polys[k].box.shape[0] > 1 for group in groups for k in group):
        raise InputError("the coprimality certificate takes one-row boxes")
    proved: set = set()
    for group in groups:
        rows = [polys[k].box.ravel() for k in group]  # a zero poly's is empty
        gcd = rows[0]
        for row in rows[1:]:
            if gcd.size == 1:
                break
            gcd = _ugcd(gcd, row, p)
        if gcd.size == 1:
            proved.add(group)
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
    are primes that divide no r.  One certificate call tries every such
    group, each r a one-row box.  A proved group's gcd is the least of its
    contents m, and its quotients are its polys moved by that monomial,
    with no division.  Every other group goes to :func:`gcd3`: a group
    with a zero poly or a unit rest (one term), whose gcd is a monomial,
    and an unproved group.
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
    Otherwise every poly must be a one-row box, a form in Y and Z times a
    power of X, as a Cremona track's coordinates are: its row, read from its
    corner, is its rest with Z = 1, of the rest's full degree, and the gcd
    of the rests is the fold of :func:`_ugcd` over the rows, monic in its
    highest power of Y.  A plane operand (a box of two or more rows) raises
    :class:`~hypwalk.errors.InputError`.  The result is verified by trial
    division against all three inputs; a failed check raises
    :class:`~hypwalk.errors.BadPrimeSignal`, which sends the caller to the
    bad-prime retry policy.  When ``quotients`` is a list it is filled with
    the three exact quotients the verification computed.
    """
    polys = [q for q in (p1, p2, p3) if not q.is_zero()]
    if not polys:
        raise InputError("gcd3 of three zero polynomials")
    p = polys[0].p
    if any(q.p != p for q in polys):
        raise InputError("gcd3 operands live over different primes")
    shift = _monomial_content(polys)
    gcd_poly = HomPoly3.monomial(*shift, 1, p)
    if all(q.num_terms() > 1 for q in polys):
        if any(q.box.shape[0] > 1 for q in polys):
            raise InputError("gcd3 of polynomials of two or more terms takes one-row boxes")
        # folded from the zero polynomial, so that one poly's rest is made monic
        rows = [q.box[0] for q in polys]
        rest = reduce(lambda u, v: _ugcd(u, v, p), rows, np.zeros(0, dtype=np.int64))
        gcd_poly = HomPoly3._from_array(rest.size - 1 + sum(shift), rest[None, :], p, shift[:2])
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
    scale = pow(lead, -1, p1.p)
    return tuple(q.scale(scale) for q in parts), gcd_degree


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
