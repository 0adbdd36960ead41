"""Plane Cremona maps through their degree dynamics.

A birational self-map of the projective plane is a coprime triple of
homogeneous polynomials of one degree.  The group acts by isometries on an
infinite-dimensional hyperboloid in which the displacement of the basepoint
(the class of a line) is ``arccosh(degree)``; everything this library needs
from that action reduces to exact degree bookkeeping:

* composition is coordinate substitution followed by cancelling the common
  factor, computed over one or more prime fields in lockstep (the
  base-point rule below says where that factor can come from);
* the dynamical degree is the limit of ``deg(f^n)^(1/n)``, approached from
  above along the submultiplicative degree sequence;
* monomial maps (the loxodromics that fail weak proper discontinuity) are
  handled purely through their 2x2 exponent matrices, which stay exact at
  powers far beyond any polynomial budget.

Elements remember the generator word that built them, stored freely reduced
(a map composed with its inverse generator cancels symbolically before any
polynomial work happens; the resulting map is identical, since the
normalized coprime triple of a map is unique).  An inverse is its reversed
word and the degree of the map it inverts (a plane Cremona map and its
inverse have the same degree); its coordinates are composed from the word
the first time something reads them.  An unlucky coefficient prime
announces itself either as a composed triple collapsing to zero or as a
degree disagreement between the tracked primes; both raise
:class:`~hypwalk.errors.BadPrimeSignal` so that trial runners can retry at
fresh primes.

The base-point rule.  A common factor of f o g, for a coprime triple
g = (g1, g2, g3), can only come from curves that g contracts to a base point
of f, a point where every coordinate of f vanishes (Alberich-Carraminana,
*Geometry of the Plane Cremona Maps*, 2002; Blanc-Deserti, "Degree growth
of birational maps of the plane", 2015).  So a composition f o g composes
the letters of f's word onto g one at a time, and each letter finds its
cancellation from gcds of pairs of g's degree-d coordinates, never from
``gcd3`` on the degree-2d composed triple:

* a linear letter has no base point: L o g is coprime and is only rescaled;
* sigma has the three coordinate points as base points, and the gcd of
  sigma o g = (g2 g3, g1 g3, g1 g2) is gcd(g2, g3) gcd(g1, g3) gcd(g1, g2),
  so sigma o g is a product of quotients of g's coordinates, with no
  substitution at all;
* a Henon letter h has the one base point [1:0:0] (h^-1 has [0:1:0]): h o g
  is coprime when the pair (g2, g3) (for h^-1, (g1, g3)) is, and otherwise
  the pair's gcd a divides out as a^(n-1), leaving a triple whose common
  factor divides gcd(a, g3 / a).

The gcd of a whole composed triple is taken only for a monomial letter
and in that last Henon case when gcd(a, g3 / a) is nontrivial.  A letter
step takes all its pairwise gcds from one call to
``polynomials.group_gcds``, the front of the gcd layer, and a composed
triple's gcd from another (in ``normalize_triple``).  The front proves
groups of non-monomial coordinates coprime by line restriction and sends
the others (a group with a monomial coordinate, or one the certificate does
not prove) through ``gcd3``.  Every other quotient goes through
``divexact`` (a shift for a monomial divisor), and an inexact one raises
:class:`~hypwalk.errors.BadPrimeSignal`.  The normalized coprime triple of
a map is unique, so the rule changes no result, only the work.

The composition memo.  A reduced word is composed onto the identity one
letter at a time, last letter first, so the states on the way are the
word's suffixes, whatever product, power or inverse reached the word.  Each
model keeps the states it has composed in one dict keyed by reduced word
(a self-inverse letter is written one way, so one map has one key), and
every composition (a product, a power, a rebuilt element, a lazy inverse's
coordinates) probes the suffixes of its word, longest first, and composes
only the letters in front of the first one held, storing each new state.
The identity is always held.  The words composed are short (at most 14
letters in any preset), so the probes cost microseconds against the
milliseconds of a letter step.  A state is stored only after its letter
step has passed the degree cap (checked on the letter's raw degree, its
degree times the running degree) and the primes have agreed on its degree,
or, for a generator's own tracks, when the generator is made with a degree
within the cap; the arithmetic is deterministic, so a stored state gives
what composing again would, errors included.  The oldest state leaves the
memo first, and a pickled model carries none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import BadPrimeSignal, InputError, ParamError, ResourceError
from .errors import check_int, is_int
from .geometry import ActionOracle, IsometryClass
from .polynomials import (
    DEFAULT_PRIME,
    SECOND_PRIME,
    HomPoly3,
    divexact,
    group_gcds,
    is_prime,
    normalize_triple,
    substitute,
)

DEFAULT_DEGREE_CAP = 512

#: The bytes of coefficient boxes one model's composition memo may hold,
#: besides the identity's.  A state at the default degree cap is about 6 MB
#: per prime.
_MEMO_BYTES = 32 * 2**20

Triple = tuple[HomPoly3, HomPoly3, HomPoly3]


# ---------------------------------------------------------------------------
# Generator coordinate triples.


def sigma_triple(p: int) -> Triple:
    """The standard quadratic involution [x:y:z] -> [yz:xz:xy]."""
    X, Y, Z = (HomPoly3.variable(k, p) for k in range(3))
    return (Y.mul(Z), X.mul(Z), X.mul(Y))


def henon_triple(n: int, p: int) -> Triple:
    """(x, y) -> (y, y^n - x) homogenized: [Y Z^(n-1) : Y^n - X Z^(n-1) : Z^n]."""
    return (
        HomPoly3(n, {(0, 1, n - 1): 1}, p),
        HomPoly3(n, {(0, n, 0): 1, (1, 0, n - 1): p - 1}, p),
        HomPoly3(n, {(0, 0, n): 1}, p),
    )


def henon_inverse_triple(n: int, p: int) -> Triple:
    """(u, v) -> (u^n - v, u): the inverse of the henon generator."""
    return (
        HomPoly3(n, {(n, 0, 0): 1, (0, 1, n - 1): p - 1}, p),
        HomPoly3(n, {(1, 0, n - 1): 1}, p),
        HomPoly3(n, {(0, 0, n): 1}, p),
    )


def linear_triple(entries, p: int) -> Triple:
    """A projective linear map from nine matrix entries (row major)."""
    m = [[entries[3 * r + c] % p for c in range(3)] for r in range(3)]
    if _det3(m, p) == 0:
        raise ParamError("entries", "linear generator matrix is singular mod p")
    out = []
    for r in range(3):
        coeffs = {}
        for c, exps in enumerate(((1, 0, 0), (0, 1, 0), (0, 0, 1))):
            if m[r][c]:
                coeffs[exps] = m[r][c]
        out.append(HomPoly3(1, coeffs, p))
    return tuple(out)


def linear_inverse_entries(entries, p: int) -> list[int]:
    m = [[entries[3 * r + c] % p for c in range(3)] for r in range(3)]
    det = _det3(m, p)
    det_inv = pow(det, p - 2, p)
    cof = [
        [
            (m[(r + 1) % 3][(c + 1) % 3] * m[(r + 2) % 3][(c + 2) % 3]
             - m[(r + 1) % 3][(c + 2) % 3] * m[(r + 2) % 3][(c + 1) % 3]) % p
            for r in range(3)
        ]
        for c in range(3)
    ]
    return [(cof[r][c] * det_inv) % p for r in range(3) for c in range(3)]


def _det3(m, p: int) -> int:
    return (
        m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
        - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
        + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0])
    ) % p


# ---------------------------------------------------------------------------
# The base-point rule: sigma and Henon letters composed onto a coprime triple.


def _quotient(f: HomPoly3, g: HomPoly3) -> HomPoly3:
    q = divexact(f, g)
    if q is None:
        raise BadPrimeSignal("inexact quotient in the base-point rule")
    return q


def _sigma_onto(g: Triple) -> Triple:
    """The normalized triple of sigma o g for a coprime triple g.

    With a = gcd(g2, g3), b = gcd(g1, g3) and c = gcd(g1, g2), the gcd of
    (g2 g3, g1 g3, g1 g2) is exactly abc, so sigma o g is
    (a g2' g3', b g1' g3', c g1' g2') for g1' = g1/(bc), g2' = g2/(ac) and
    g3' = g3/(ab), a coprime triple that needs only the rescaling."""
    (a, g2_a, g3_a), (b, g1_b, _), (c, _, _) = group_gcds(g, ((1, 2), (0, 2), (0, 1)))
    g1_bc = _quotient(g1_b, c)
    g2_ac = _quotient(g2_a, c)
    g3_ab = _quotient(g3_a, b)
    return normalize_triple(
        a.mul(g2_ac).mul(g3_ab),
        b.mul(g1_bc).mul(g3_ab),
        c.mul(g1_bc).mul(g2_ac),
        coprime=True,
    )[0]


def _henon_cancel(
    n: int, inverse: bool, a: HomPoly3, u: HomPoly3, v: HomPoly3, w: HomPoly3
) -> Triple:
    """The normalized triple of h o g, or of h^-1 o g when ``inverse``, for
    a coprime triple g whose base-point pair has the gcd a of degree > 0.

    h o g is (U W^(n-1), U^n - V W^(n-1), W^n) for (U, V, W) = (g2, g1, g3),
    and h^-1 o g is the same with its first two coordinates swapped, for
    (U, V, W) = (g1, g2, g3).  With U = a u, W = a w and V = v it is
    a^(n-1) T for T = (a u w^(n-1), a u^n - v w^(n-1), a w^n).  As
    gcd(a, v) = 1, the common factor of T divides gcd(a, w); only when that
    is nontrivial is the gcd of T taken."""
    w_power = w.pow(n - 1)
    t = [
        a.mul(u).mul(w_power),
        a.mul(u.pow(n)).sub(v.mul(w_power)),
        a.mul(w_power).mul(w),
    ]
    if inverse:
        t[0], t[1] = t[1], t[0]
    ((common, _, _),) = group_gcds((a, w), ((0, 1),))
    return normalize_triple(*t, coprime=common.degree == 0)[0]


# ---------------------------------------------------------------------------
# Monomial maps as exponent matrices.


@dataclass(frozen=True)
class MonomialMap:
    """(x, y) -> (x^a y^b, x^c y^d) for an integer matrix of determinant +-1."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if abs(self.det()) != 1:
            raise ParamError("matrix", "monomial matrix must have determinant +-1")

    def det(self) -> int:
        return self.a * self.d - self.b * self.c

    def matmul(self, other: "MonomialMap") -> "MonomialMap":
        return MonomialMap(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inverse(self) -> "MonomialMap":
        det = self.det()
        return MonomialMap(self.d * det, -self.b * det, -self.c * det, self.a * det)

    @property
    def degree(self) -> int:
        """Degree of the induced plane map, from homogenizing the exponents."""
        a, b, c, d = self.a, self.b, self.c, self.d
        return -min(a, c, 0) - min(b, d, 0) + max(a + b, c + d, 0)

    def spectral_radius(self) -> float:
        tr = self.a + self.d
        det = self.det()
        disc = tr * tr - 4 * det
        if disc < 0:
            return 1.0  # complex eigenvalues of modulus sqrt(det) = 1
        return (abs(tr) + math.sqrt(disc)) / 2.0

    def is_identity(self) -> bool:
        return (self.a, self.b, self.c, self.d) == (1, 0, 0, 1)


def _integers(name: str, values, count: int, words: str) -> tuple[int, ...]:
    """``values``, a list or tuple of ``count`` ints (not bools), as a tuple."""
    if isinstance(values, (list, tuple)) and len(values) == count:
        if all(map(is_int, values)):
            return tuple(values)
    raise ParamError(name, f"must be {words} integers")


def monomial_map(matrix) -> MonomialMap:
    """The monomial map of ``matrix``, a list of four integers [a, b, c, d]."""
    return MonomialMap(*_integers("matrix", matrix, 4, "four"))


def monomial_triple(mono: MonomialMap, p: int) -> Triple:
    """The coordinate triple of the plane map induced by a monomial map."""
    a, b, c, d = mono.a, mono.b, mono.c, mono.d
    sx = -min(a, c, 0)
    sy = -min(b, d, 0)
    sz = max(a + b, c + d, 0)
    exps = [
        (a + sx, b + sy, sz - a - b),
        (c + sx, d + sy, sz - c - d),
        (sx, sy, sz),
    ]
    return tuple(HomPoly3(sx + sy + sz, {e: 1}, p) for e in exps)


def monomial_dynamical_degree(mono: MonomialMap) -> float:
    """The dynamical degree of a monomial map is the spectral radius of its
    exponent matrix (no polynomial iteration required)."""
    return mono.spectral_radius()


# ---------------------------------------------------------------------------
# Generator atoms and elements.


@dataclass(frozen=True)
class GeneratorAtom:
    spec: tuple  # its key, and the call that builds it: ("henon", n) is henon(n)
    triples: tuple[tuple[int, Triple], ...]          # per prime
    inverse_triples: tuple[tuple[int, Triple], ...]  # per prime
    self_inverse: bool
    degree: int
    monomial: "MonomialMap | None" = None


@dataclass(frozen=True, eq=False)
class CremonaElement:
    """A plane Cremona map tracked over each configured prime.

    ``word`` records the freely reduced generator word that built the map
    (positive letter = atom, negative = its inverse, and a self-inverse
    atom always positive), enough to rebuild the inverse map in closed
    form.  Equality compares the maps themselves (the
    normalized coordinate triples), not the words that built them.

    An element built without coordinates (``_tracks`` is None, as
    :meth:`CremonaModel.inverse` builds them) holds its model and composes
    ``tracks`` from ``word`` on first read.  That composition must give the
    recorded degree; a disagreement raises
    :class:`~hypwalk.errors.BadPrimeSignal`, and the cap can raise
    :class:`~hypwalk.errors.ResourceError`.
    """

    word: tuple[int, ...]
    degree: int
    _tracks: "tuple[tuple[int, Triple], ...] | None"
    _model: "CremonaModel | None" = None

    @property
    def tracks(self) -> tuple[tuple[int, Triple], ...]:
        if self._tracks is None:
            composed = self._model._compose_word(self.word)
            if composed.degree != self.degree:
                raise BadPrimeSignal(
                    f"composed degree {composed.degree} differs from the "
                    f"recorded degree {self.degree}"
                )
            object.__setattr__(self, "_tracks", composed.tracks)
        return self._tracks

    def triple(self, prime: int) -> Triple:
        for p, t in self.tracks:
            if p == prime:
                return t
        raise InputError(f"no track for prime {prime}")

    def __eq__(self, other):
        return (
            isinstance(other, CremonaElement)
            and self.degree == other.degree
            and self.tracks == other.tracks
        )

    def __hash__(self):
        return hash((self.degree, self.tracks))

    def __repr__(self):
        return f"CremonaElement(degree={self.degree}, word_length={len(self.word)})"


class CremonaModel(ActionOracle):
    """Bir(P^2) acting on the hyperboloid: d(x, f.x) = arccosh(deg f)."""

    def __init__(
        self,
        primes: tuple[int, ...] = (DEFAULT_PRIME, SECOND_PRIME),
        degree_cap: int = DEFAULT_DEGREE_CAP,
    ):
        # below 2^31, the bound of the exact-product rule of hypwalk.polynomials
        if not (
            isinstance(primes, (list, tuple))
            and primes
            and all(is_int(p) and p < 2**31 and is_prime(p) for p in primes)
        ):
            raise ParamError("primes", "must be a nonempty list of primes below 2^31")
        if len(set(primes)) != len(primes):
            raise ParamError("primes", "must not repeat a prime")
        check_int("degree_cap", degree_cap, 2)
        self.primes = tuple(primes)
        self.degree_cap = degree_cap
        self._atoms: list[GeneratorAtom] = []
        self._atom_index: dict[tuple, int] = {}
        # the composition memo: reduced word -> (tracks, degree), oldest
        # first, and the bytes of its boxes besides the identity's
        identity = tuple(
            (p, tuple(HomPoly3.variable(k, p) for k in range(3))) for p in self.primes
        )
        self._memo = {(): (identity, 1)}
        self._memo_bytes = 0

    def __getstate__(self):
        # a pickled model carries no composed states
        return {**self.__dict__, "_memo": {(): self._memo[()]}, "_memo_bytes": 0}

    def _store(self, word: tuple[int, ...], state) -> None:
        """Store the (tracks, degree) of ``word``, evicting the oldest states
        (never the identity) to keep within ``_MEMO_BYTES``; a state whose
        boxes alone pass the budget is not stored."""
        nbytes = _state_bytes(state)
        if nbytes > _MEMO_BYTES:
            return
        while self._memo_bytes + nbytes > _MEMO_BYTES:
            oldest = next(key for key in self._memo if key)
            self._memo_bytes -= _state_bytes(self._memo.pop(oldest))
        self._memo[word] = state
        self._memo_bytes += nbytes

    # -- generator construction ---------------------------------------------

    def _intern(
        self, spec, builder, inverse_builder, self_inverse, monomial=None
    ) -> CremonaElement:
        if spec not in self._atom_index:
            # normalized like every composed triple, so that a map equals
            # itself however it was built
            triples, inverses = (
                tuple(
                    (p, normalize_triple(*build(p), coprime=True)[0])
                    for p in self.primes
                )
                for build in (builder, inverse_builder)
            )
            degrees = {t[0].degree for _, t in triples}
            if len(degrees) != 1:
                raise AssertionError("generator degree differs across primes")
            atom = GeneratorAtom(
                spec, triples, inverses, self_inverse, degrees.pop(), monomial
            )
            self._atoms.append(atom)
            self._atom_index[spec] = index = len(self._atoms)
            if atom.degree <= self.degree_cap:
                # the generator's own tracks, which composing its letter onto
                # the identity gives (the normalized triple is unique); past
                # the cap that composition raises instead
                self._store((index,), (triples, atom.degree))
        index = self._atom_index[spec]
        atom = self._atoms[index - 1]
        return CremonaElement((index,), atom.degree, atom.triples)

    def sigma(self) -> CremonaElement:
        return self._intern(("sigma",), sigma_triple, sigma_triple, True)

    def henon(self, n: int) -> CremonaElement:
        check_int("n", n, 2)
        return self._intern(
            ("henon", n),
            lambda p: henon_triple(n, p),
            lambda p: henon_inverse_triple(n, p),
            False,
        )

    def linear(self, entries) -> CremonaElement:
        entries = _integers("entries", entries, 9, "nine")
        return self._intern(
            ("linear", entries),
            lambda p: linear_triple(entries, p),
            lambda p: linear_triple(linear_inverse_entries(entries, p), p),
            False,
        )

    def monomial(self, matrix) -> CremonaElement:
        mono = monomial_map(matrix)
        return self._intern(
            ("monomial", (mono.a, mono.b, mono.c, mono.d)),
            lambda p: monomial_triple(mono, p),
            lambda p: monomial_triple(mono.inverse(), p),
            False,
            monomial=mono,
        )

    def respawn(self, primes: tuple[int, ...]) -> "CremonaModel":
        """A fresh model over new primes with the same generator registry.

        Each atom is interned again, in order, through the constructor its
        spec names, so atom indices and element words carry over verbatim;
        used by the bad-prime retry policy.
        """
        clone = CremonaModel(primes, self.degree_cap)
        for kind, *args in (atom.spec for atom in self._atoms):
            getattr(clone, kind)(*args)
        return clone

    def rebuild(self, element: CremonaElement) -> CremonaElement:
        """Recompute an element of a sibling model over this model's primes."""
        return self._compose_word(element.word)

    def _as_monomial(self, g: CremonaElement) -> "MonomialMap | None":
        """Exponent matrix of g when every letter of its word is monomial."""
        product = MonomialMap(1, 0, 0, 1)
        for letter in g.word:
            atom = self._atoms[abs(letter) - 1]
            if atom.monomial is None:
                return None
            step = atom.monomial if letter > 0 else atom.monomial.inverse()
            product = product.matmul(step)
        return product

    # -- the group operation --------------------------------------------------

    def identity(self) -> CremonaElement:
        return self._compose_word(())

    def _inverse_letter(self, letter: int) -> int:
        """The one spelling of a letter's inverse: a self-inverse letter is
        its own, so one map is never two words."""
        return letter if self._atoms[abs(letter) - 1].self_inverse else -letter

    def _reduce_word(self, letters) -> tuple[int, ...]:
        out: list[int] = []
        for letter in letters:
            if out and out[-1] == self._inverse_letter(letter):
                out.pop()
            else:
                out.append(letter)
        return tuple(out)

    def _compose_letter(self, letter: int, prime_slot: int, g: Triple) -> Triple:
        """The normalized triple of ``letter o g`` for a coprime triple g,
        cancelling by the base-point rule (see the module docstring)."""
        atom = self._atoms[abs(letter) - 1]
        spec = atom.spec
        if spec[0] == "sigma":
            return _sigma_onto(g)
        if spec[0] == "henon":
            # the base point is [1:0:0] for h and [0:1:0] for h^-1, so the
            # base-point pair is (g2, g3) for h and (g1, g3) for h^-1
            u, v = (g[1], g[0]) if letter > 0 else (g[0], g[1])
            ((a, u, w),) = group_gcds((u, g[2]), ((0, 1),))
            if a.degree:
                return _henon_cancel(spec[1], letter < 0, a, u, v, w)
        outer = (atom.triples if letter > 0 else atom.inverse_triples)[prime_slot][1]
        composed = [substitute(q, g) for q in outer]
        coprime = spec[0] in ("linear", "henon")
        return normalize_triple(*composed, coprime=coprime)[0]

    def _compose_tracks(self, letters, tracks, degree):
        """Compose the word ``letters`` onto a map of ``degree`` with
        ``tracks``, one letter at a time, last letter first, without the memo.

        Each letter step checks the cap on its raw degree (the letter's
        degree times the running degree) and that the primes agree on the
        composed degree.  Returns the composed tracks and degree."""
        for letter in reversed(letters):
            raw_degree = self._atoms[abs(letter) - 1].degree * degree
            if raw_degree > self.degree_cap:
                raise ResourceError(
                    f"composition degree {raw_degree} above cap {self.degree_cap}"
                )
            tracks = tuple(
                (prime, self._compose_letter(letter, slot, inner))
                for slot, (prime, inner) in enumerate(tracks)
            )
            degrees = {triple[0].degree for _, triple in tracks}
            if len(degrees) != 1:
                raise BadPrimeSignal(
                    f"degree disagreement across primes: {sorted(degrees)}"
                )
            degree = degrees.pop()
        return tracks, degree

    def multiply(self, g: CremonaElement, h: CremonaElement) -> CremonaElement:
        """g o h (apply h first): the reduced word of g's letters then h's,
        cancelled symbolically before any polynomial work, and composed from
        its longest suffix in the memo.  The walk keeps the big factor on the
        right, where the memo holds its word, so a step composes only g's
        letters that do not cancel."""
        return self._compose_word(self._reduce_word(g.word + h.word))

    def _compose_word(self, word: tuple[int, ...]) -> CremonaElement:
        """The element of a reduced word, composed from the longest suffix of
        ``word`` that the memo holds (the identity at least); each new state
        is stored."""
        k = next(k for k in range(len(word) + 1) if word[k:] in self._memo)
        tracks, degree = self._memo[word[k:]]
        for j in range(k - 1, -1, -1):
            tracks, degree = self._compose_tracks((word[j],), tracks, degree)
            self._store(word[j:], (tracks, degree))
        return CremonaElement(word, degree, tracks)

    def inverse(self, g: CremonaElement) -> CremonaElement:
        """g^-1 as its reduced word and g's degree, in O(len(word)).

        A plane Cremona map and its inverse have the same degree, so nothing
        polynomial is needed until the coordinates are read: ``tracks``
        composes them from the word then, and checks the degree.  The
        inverse of a reduced word, letter by letter, is reduced."""
        word = tuple(self._inverse_letter(letter) for letter in reversed(g.word))
        return CremonaElement(word, g.degree, None, self)

    # -- the isometric action --------------------------------------------------

    def displacement(self, g: CremonaElement) -> float:
        return math.acosh(g.degree)

    def power(self, g: CremonaElement, m: int) -> CremonaElement:
        """g^m, composed from the longest suffix of its reduced word in the
        memo, which holds g^(m-1) once that was composed."""
        if m < 0:
            return self.power(self.inverse(g), -m)
        return self._compose_word(self._reduce_word(g.word * m))

    def degree_sequence(self, g: CremonaElement, budget: int) -> list[int]:
        """[deg g, deg g^2, ..., deg g^budget]; the cap raises ResourceError."""
        if budget < 1:
            raise InputError("budget must be >= 1")
        return [g.degree] + [self.power(g, m).degree for m in range(2, budget + 1)]

    def power_track(self, g: CremonaElement, budget: int) -> list[float]:
        """[log deg g, ..., log deg g^budget]: log deg increases with the
        displacement arccosh(deg), is 0 exactly at degree 1, and its power
        rate decreases to log(dynamical degree), the translation length on
        the hyperboloid.  The cap raises :class:`~hypwalk.errors.ResourceError`
        and :meth:`degree_sequence` checks the budget."""
        return [math.log(d) for d in self.degree_sequence(g, budget)]

    def classify(self, g: CremonaElement, budget: int) -> IsometryClass:
        if budget < 4:
            raise InputError("classification budget must be >= 4")
        mono = self._as_monomial(g)
        if mono is not None:
            # exact route: spectral radius of the exponent matrix decides
            return MonomialModel().classify(mono, budget)
        try:
            return super().classify(g, budget)
        except ResourceError:
            # the degree blew past the cap: certainly unbounded, and the
            # partial estimate cannot certify loxodromic growth
            return IsometryClass.UNDETERMINED


def _state_bytes(state) -> int:
    """The bytes of the coefficient boxes of a (tracks, degree) state."""
    return sum(poly.box.nbytes for _, triple in state[0] for poly in triple)


@dataclass(frozen=True)
class DynamicalDegreeEstimate:
    value: float
    degree_sequence: tuple[int, ...]


def dynamical_degree_estimate(
    model: CremonaModel, f: CremonaElement, budget: int
) -> DynamicalDegreeEstimate:
    """min over 1 <= m <= budget of (deg f^m)^(1/m).

    Submultiplicativity makes every term an upper bound for the dynamical
    degree and the running minimum non-increasing in the budget.  The full
    degree sequence rides along for convergence inspection.
    """
    if budget < 2:
        raise InputError("dynamical degree budget must be >= 2")
    seq = model.degree_sequence(f, budget)  # the cap raises ResourceError
    value = min(d ** (1.0 / (m + 1)) for m, d in enumerate(seq))
    return DynamicalDegreeEstimate(value, tuple(seq))


# ---------------------------------------------------------------------------
# A pure matrix oracle for measures supported on monomial maps.


class MonomialModel(ActionOracle):
    """Monomial maps acting through their exponent matrices only.

    Matrix powers stay exact far beyond any polynomial degree cap, which is
    the point: these are the loxodromic maps excluded from weak proper
    discontinuity, kept around as a contrasting model.
    """

    def identity(self) -> MonomialMap:
        return MonomialMap(1, 0, 0, 1)

    def multiply(self, g: MonomialMap, h: MonomialMap) -> MonomialMap:
        # exponent vectors transform linearly, so (g o h) has matrix M_g M_h
        return g.matmul(h)

    def inverse(self, g: MonomialMap) -> MonomialMap:
        return g.inverse()

    def displacement(self, g: MonomialMap) -> float:
        try:
            return math.acosh(g.degree)
        except OverflowError:  # past the float range acosh(d) is log(2d)
            return math.log(g.degree) + math.log(2)

    def translation_length_estimate(self, g: MonomialMap, budget: int) -> float:
        if budget < 1:
            raise InputError("budget must be >= 1")
        return math.log(g.spectral_radius())

    def classify(self, g: MonomialMap, budget: int) -> IsometryClass:
        radius = g.spectral_radius()
        if radius > 1.0 + 1e-12:
            return IsometryClass.LOXODROMIC
        power = g
        for _ in range(6):  # torsion orders in GL2(Z) divide 6 or equal 4
            if power.is_identity():
                return IsometryClass.ELLIPTIC
            power = power.matmul(g)
        return IsometryClass.PARABOLIC
