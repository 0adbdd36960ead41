"""Free groups and finite extensions acting on their Cayley trees.

Two exact models live here:

* :class:`FreeGroupOracle` -- rank-k free group on its (2k)-regular tree.
  Distances are word lengths, translation lengths come from cyclic
  reduction, and stabilizer counts are literal enumerations.

* :class:`SemidirectOracle` -- extensions ``F_k x| A`` of a free group by a
  finite group ``A`` carrying a designated automorphism action of each free
  generator.  The tree action factors through the word coordinate, so the
  kernel ``A`` fixes the tree pointwise: the class extends the free oracle,
  overriding only the group law and :meth:`FreeGroupOracle.tree_word`.

The fellow-travelling constant of a loxodromic word (the largest overlap
between its axis and a translate by an element outside the axis stabilizer)
is computed two ways: a literal search over conjugators in a ball
(:func:`axis_overlap_delta`), and an exact value from the periodic structure
of the core (:func:`fellow_traveling_delta`); on a tree the two agree
whenever the search radius certifies the ball result.  The exact value is
the length of the longest repeated window among the 2d circular windows
that start at the d phases of the primitive root and the d phases of its
inverse, which covers both orientations of the translate.  It is exact
because both readings of the axis are periodic with the root's length d
and no two windows agree for a whole period, so every overlap is shorter
than one period; doubling the window length and then binary-searching it
finds the value in O(d log d log Delta) time and O(d) memory.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from . import words as W
from .errors import InputError, ParamError, ResourceError, check_int
from .finitegroups import (
    Automorphism,
    FiniteGroup,
    check_automorphism,
    closure,
    inner_automorphism,
)
from .geometry import ActionOracle, IsometryClass

DEFAULT_CENSUS_CAP = 4


class FreeGroupOracle(ActionOracle):
    """F_k acting on its Cayley tree; elements are reduced words.  The tree
    action reads an element only through :meth:`tree_word`."""

    torsion_order = 1  # the number of elements acting as each word

    def __init__(self, rank: int = 2):
        check_int("rank", rank, 2)  # rank 1 is an elementary action
        self.rank = rank

    def identity(self) -> W.Word:
        return ()

    def multiply(self, g: W.Word, h: W.Word) -> W.Word:
        return W.multiply(g, h)

    def inverse(self, g: W.Word) -> W.Word:
        return W.invert(g)

    def tree_word(self, g) -> W.Word:
        """The reduced word by which g acts on the tree: g itself."""
        return g

    def displacement(self, g) -> float:
        return float(len(self.tree_word(g)))

    def translation_length_estimate(self, g, budget: int) -> float:
        if budget < 1:
            raise InputError("budget must be >= 1")
        return float(W.translation_length(self.tree_word(g)))

    def classify(self, g, budget: int) -> IsometryClass:
        # Free groups are torsion free: every nontrivial word is loxodromic.
        return IsometryClass.LOXODROMIC if self.tree_word(g) else IsometryClass.ELLIPTIC

    def __repr__(self):
        return f"FreeGroupOracle(rank={self.rank})"


# ---------------------------------------------------------------------------
# Semidirect extensions F_k x| A.


@dataclass(frozen=True)
class ExtendedElement:
    """Pair (word, torsion) in F_k x| A, multiplied by the twisted rule."""

    word: W.Word
    torsion: int


class SemidirectOracle(FreeGroupOracle):
    """F_k x| A with each free generator acting on A by an automorphism.

    Multiplication follows (u, s)(v, t) = (uv, phi(v)^-1(s) * t), the rule
    for writing every element as ``word * torsion`` when conjugation
    satisfies ``u a u^-1 = phi(u)(a)``.
    """

    def __init__(self, rank: int, torsion_group: FiniteGroup, actions: list[Automorphism]):
        super().__init__(rank)
        if not isinstance(actions, (list, tuple)) or len(actions) != rank:
            raise ParamError("actions", "need exactly one action per generator")
        for phi in actions:
            check_automorphism(torsion_group, phi)
        self.torsion_group = torsion_group
        self.torsion_order = torsion_group.order
        self.actions = list(actions)
        self._inverse_actions = [phi.inverse() for phi in actions]

    # -- group structure ---------------------------------------------------

    def word_action(self, word: W.Word) -> Automorphism:
        """phi(word): the product of the letter actions, a homomorphism."""
        phi = Automorphism.identity(self.torsion_group)
        for letter in word:
            step = (
                self.actions[letter - 1]
                if letter > 0
                else self._inverse_actions[-letter - 1]
            )
            phi = phi.compose(step)
        return phi

    def element(self, word, torsion: int = 0) -> ExtendedElement:
        word = W.reduce_letters(word, self.rank)
        check_int("torsion", torsion)
        if not (0 <= torsion < self.torsion_group.order):
            raise ParamError("torsion", "torsion index out of range")
        return ExtendedElement(word, torsion)

    def identity(self) -> ExtendedElement:
        return ExtendedElement((), 0)

    def multiply(self, g: ExtendedElement, h: ExtendedElement) -> ExtendedElement:
        # phi(v)^-1 = phi(v_1)^-1 then ... then phi(v_k)^-1 for v = v_1...v_k:
        # the torsion moves through v's letters one image at a time, with no
        # automorphism composed, and the identity (fixed by all) not at all
        twisted = g.torsion
        if twisted:
            for letter in h.word:
                phi = (
                    self._inverse_actions[letter - 1]
                    if letter > 0
                    else self.actions[-letter - 1]
                )
                twisted = phi.images[twisted]
        return ExtendedElement(
            W.multiply(g.word, h.word), self.torsion_group.mul(twisted, h.torsion)
        )

    def inverse(self, g: ExtendedElement) -> ExtendedElement:
        phi = self.word_action(g.word)
        return ExtendedElement(
            W.invert(g.word), phi(self.torsion_group.inv(g.torsion))
        )

    def tree_word(self, g: ExtendedElement) -> W.Word:
        return g.word

    # -- conjugation data for the characteristic index ----------------------

    def conjugation_on_kernel(self, g: ExtendedElement) -> Automorphism:
        """The automorphism k -> g (e, k) g^-1 of A = the elliptic kernel."""
        return self.word_action(g.word).compose(
            inner_automorphism(self.torsion_group, g.torsion)
        )

    def __repr__(self):
        return (
            f"SemidirectOracle(rank={self.rank}, A={self.torsion_group.name})"
        )


def characteristic_index(oracle: SemidirectOracle, support: list[ExtendedElement]) -> int:
    """Order of the subgroup of Aut(A) generated by the support's images.

    This is the characteristic index k of the measure: the image of the
    group generated by the support under the conjugation homomorphism into
    Aut(A).
    """
    generators = [oracle.conjugation_on_kernel(g) for g in support]
    return len(closure(generators, oracle.torsion_group))


# ---------------------------------------------------------------------------
# Joint coarse stabilizers.


def stab_census(
    w_word: W.Word,
    K: int,
    rank: int,
    torsion_order: int = 1,
    cap: int = DEFAULT_CENSUS_CAP,
) -> int:
    """|Stab_K(x, w.x)| by exhaustive enumeration of the radius-K ball.

    Counts elements g with d(x, g.x) <= K and d(w.x, g w.x) <= K.  In the
    semidirect model the kernel A fixes the tree pointwise, so the count is
    the free-group count times |A|.

    The second distance is |w^-1 u w| for u = g, and it follows from
    cancellation lengths, with no conjugate built.  w^-1 cancels the
    a = lcp(w, u) letters it shares with u, leaving w[a:]^-1 u[a:], of
    length |w| - a + m with m = |u| - a.  Against w that cancels c letters:
    the run r of i < min(m, |w|) with u[|u|-1-i] = -w[i], and when the run
    takes all of u[a:] (r = m), lcp(w[a:], w[m:]) more, where w[a:]^-1
    meets w[m:].  So |w^-1 u w| = 2|w| - a + m - 2c.  The identity is
    counted apart: for it that lcp is all of w, while for a reduced u != 1
    with r = m, a != m and the lcp stops where w stops repeating with
    period |a - m|.  The lcp is followed only until the length reaches K.
    """
    if K < 0:
        raise InputError("K must be >= 0")
    if K > cap:
        raise ResourceError(
            f"census radius {K} above cap {cap} "
            f"(ball has {W.ball_size(rank, K)} words)",
        )
    w, n = w_word, len(w_word)
    count = 1  # the identity
    for u in _punctured_ball(rank, K):
        k = len(u)
        a = 0
        while a < k and a < n and u[a] == w[a]:
            a += 1
        m = k - a
        c = 0
        while c < m and c < n and u[k - 1 - c] == -w[c]:
            c += 1
        length = 2 * n - a + m - 2 * c
        if c == m:  # a != m, as u is reduced and not 1
            i, j = a, m
            while length > K and i < n and j < n and w[i] == w[j]:
                i, j, length = i + 1, j + 1, length - 2
        count += length <= K
    return count * torsion_order


@lru_cache(maxsize=16)
def _punctured_ball(rank: int, K: int) -> tuple[W.Word, ...]:
    """The nontrivial reduced words of length <= K, enumerated once per
    (rank, K) for every census word."""
    return tuple(W.ball_words(rank, K))[1:]


# ---------------------------------------------------------------------------
# Axes, overlaps, and the fellow-travelling constant.


@dataclass(frozen=True)
class OverlapBound:
    """A lower bound for the fellow-travelling constant, with a certificate
    flag saying whether the search radius was large enough to make it exact."""

    value: int
    certified: bool


def _axis_vertices(prefix: W.Word, core: W.Word, extent: int) -> dict[W.Word, int]:
    """Vertices ``prefix * s_m`` of the axis line for parameters |m| <= extent.

    Returns word -> parameter.  ``s_m`` is the length-m prefix of core^inf
    for m >= 0 and of (core^-1)^inf for m < 0; both concatenations against
    ``prefix`` are reduced because the cyclic reduction was stripped.
    """
    out: dict[W.Word, int] = {}
    for direction, sign in ((core, 1), (W.invert(core), -1)):
        reps = -(-extent // len(direction)) + 1
        stretch = direction * reps
        for m in range(0, extent + 1):
            vertex = prefix + stretch[:m]
            out[vertex] = sign * m
    return out


def _in_axis_stabilizer(h: W.Word, prefix: W.Word, root: W.Word) -> bool:
    """Is h in E(w) = prefix <root> prefix^-1, the setwise axis stabilizer?

    On a tree no element can reverse a line (that would force a fixed vertex
    or an edge inversion, impossible for a free action), so the stabilizer is
    exactly the cyclic group generated by the primitive root of the core.
    """
    q = W.multiply(W.multiply(W.invert(prefix), h), prefix)
    d = len(root)
    if len(q) % d != 0:
        return False
    k = len(q) // d
    return q == W.power(root, k) or q == W.power(W.invert(root), k)


def _line_overlap(prefix: W.Word, core: W.Word, h: W.Word) -> int:
    """Overlap diameter (edge count) of axis(w) and h.axis(w) in the tree.

    Exact for h outside the axis stabilizer: the shared vertex set of two
    distinct lines is a finite path, found inside a large enough window.
    """
    extent = len(h) + 2 * len(prefix) + 2 * len(core) + 8
    for _ in range(64):
        ours = _axis_vertices(prefix, core, extent)
        theirs = {
            W.multiply(h, v): m for v, m in _axis_vertices(prefix, core, extent).items()
        }
        shared = [v for v in theirs if v in ours]
        if not shared:
            return 0
        margin = extent - len(core)
        clipped = any(
            abs(ours[v]) >= margin or abs(theirs[v]) >= margin for v in shared
        )
        if clipped:
            extent *= 2  # the shared path may continue outside a window
            continue
        params = sorted(ours[v] for v in shared)
        return params[-1] - params[0]
    raise ResourceError("axis overlap window kept growing; is h in E(w)?")


def axis_overlap_delta(w: W.Word, search_radius: int, rank: int = 2) -> OverlapBound:
    """Best axis overlap over conjugators of length <= search_radius.

    Searches every h in the ball with h not in E(w) and measures the overlap
    of axis(w) with h.axis(w).  The result is certified exact when
    ``search_radius >= |core| + best + 2``: on a tree, a translate achieving
    a longer overlap can always be chosen to move a vertex near the base of
    the axis, hence has a representative inside that radius.
    """
    prefix, core = W.cyclic_reduce(w)
    if len(core) == 0:
        raise InputError("axis overlap needs a loxodromic word")
    root = W.primitive_root(core)
    best = 0
    for h in W.ball_words(rank, search_radius):
        if not h or _in_axis_stabilizer(h, prefix, root):
            continue
        best = max(best, _line_overlap(prefix, core, h))
    certified = search_radius >= len(core) + best + 2
    return OverlapBound(best, certified)


def fellow_traveling_delta(w: W.Word) -> int:
    """Exact fellow-travelling constant of a loxodromic word on the tree.

    The largest overlap between the axis line and a translate by an element
    outside the axis stabilizer.  Reading the line from one of its vertices
    gives the bi-infinite word ``root^inf`` of the primitive root (length
    d); a translate reads either the same word at another phase
    (orientation-preserving conjugators) or the word of the inverted line
    (orientation-reversing ones).  An overlap of length L is therefore a
    pair of equal length-L windows among the 2d windows that start at the d
    phases of ``root^inf`` and the d phases of ``invert(root)^inf``: two
    phases of one reading are an orientation-preserving translate, one
    phase of each an orientation-reversing one.  The constant is the length
    of the longest repeated window, found in O(d log d log Delta) time by
    doubling the window length and then binary-searching it.

    No two windows agree for a whole period: the root is primitive, and a
    reduced word is never conjugate to its inverse.  So every overlap is
    shorter than d, and windows of length at most d hold the supremum over
    the whole group.  Conjugacy-invariant: only the core matters.

    >>> fellow_traveling_delta(W.str_to_word("aab"))
    1
    >>> fellow_traveling_delta(W.power(W.str_to_word("ab"), 10))
    0
    """
    _, core = W.cyclic_reduce(w)
    if len(core) == 0:
        raise InputError("fellow-travelling constant needs a loxodromic word")
    return _longest_repeated_window(tuple(W.primitive_root(core)))


def _longest_repeated_window(root: W.Word) -> int:
    """Largest L < d at which two of the 2d circular length-L windows of
    ``root`` and ``invert(root)`` (d phases each) are equal.

    Karp-Miller-Rosenberg doubling: ``rank`` names the windows of length h
    so that equal windows get equal names, and the windows of length 2h are
    named by the pairs (name at i, name at i + h).  Doubling stops once the
    names are all distinct or 2h > d; the answer, in [h, 2h), is then
    binary-searched on the pairs (name at i, name at i + L - h), which name
    the windows of length L exactly.  O(d log d log L) time, O(d) memory.
    Equal windows of length d raise: the root is not primitive.
    """
    d = len(root)
    n = 2 * d
    start = np.arange(n)
    reading = start - start % d

    def pair_keys(rank, offset):
        """(name at i, name at i + offset), packed exactly below n**2."""
        return rank * n + rank[reading + (start + offset) % d]

    letters, rank = np.unique(np.array(root + W.invert(root)), return_inverse=True)
    if len(letters) == n:
        return 0
    h = 1
    while 2 * h <= d:
        named, doubled = np.unique(pair_keys(rank, h), return_inverse=True)
        if len(named) == n:
            break
        rank, h = doubled, 2 * h
    lo, hi = h, min(2 * h - 1, d)  # windows of length lo repeat
    while lo < hi:
        mid = (lo + hi + 1) // 2
        keys = np.sort(pair_keys(rank, mid - h))  # a repeat needs no names
        if (keys[1:] == keys[:-1]).any():
            lo = mid
        else:
            hi = mid - 1
    if lo == d:
        raise AssertionError("full-period agreement: the root is not primitive")
    return lo


# ---------------------------------------------------------------------------
# Exact harmonic measure of shadows for the uniform walk.


def exact_shadow_measure(m: int, rank: int) -> Fraction:
    """Harmonic measure of the shadow behind a vertex at distance m.

    For the uniform walk on F_k the limit point is a uniformly random
    boundary word: all 2k(2k-1)^(m-1) cylinders of depth m are equally
    likely, so the measure is exactly 1/(2k (2k-1)^(m-1)); m = 0 gives the
    whole boundary.
    """
    if m < 0:
        raise InputError("distance parameter must be >= 0")
    if m == 0:
        return Fraction(1)
    return Fraction(1, 2 * rank * (2 * rank - 1) ** (m - 1))
