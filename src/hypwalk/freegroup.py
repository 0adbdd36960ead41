"""Free groups and finite extensions acting on their Cayley trees.

Two exact models live here:

* :class:`FreeGroupOracle` -- rank-k free group on its (2k)-regular tree.
  Distances are word lengths, translation lengths come from cyclic
  reduction, and stabilizer counts are literal enumerations.

* :class:`SemidirectOracle` -- extensions ``F_k x| A`` of a free group by a
  finite group ``A`` carrying a designated automorphism action of each free
  generator.  The tree action factors through the word coordinate, so the
  kernel ``A`` fixes the tree pointwise.

The fellow-travelling constant of a loxodromic word (the largest overlap
between its axis and a translate by an element outside the axis stabilizer)
is computed two ways: a literal search over conjugators in a ball
(:func:`axis_overlap_delta`), and an exact value from the periodic structure
of the core (:func:`fellow_traveling_delta`); on a tree the two agree
whenever the search radius certifies the ball result.  The exact value is
one vectorized circular-agreement scan of the primitive root against its
shifts and against the shifts of its inverse, which covers both
orientations of the translate.  The scan is exact because both readings of
the axis are periodic with the root's length and no shift agrees for a
whole period, so every overlap is a run shorter than one period.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import words as W
from .errors import InputError, ResourceError, UnsupportedError
from .finitegroups import (
    Automorphism,
    FiniteGroup,
    check_automorphism,
    inner_automorphism,
)
from .geometry import ActionOracle, IsometryClass

DEFAULT_CENSUS_CAP = 4


class FreeGroupOracle(ActionOracle):
    """F_k acting on its Cayley tree; elements are reduced words."""

    def __init__(self, rank: int = 2):
        if rank < 2:
            raise InputError("rank must be >= 2 for a non-elementary action")
        self.rank = rank

    def identity(self) -> W.Word:
        return ()

    def multiply(self, g: W.Word, h: W.Word) -> W.Word:
        return W.multiply(g, h)

    def inverse(self, g: W.Word) -> W.Word:
        return W.invert(g)

    def displacement(self, g: W.Word) -> float:
        return float(len(g))

    def translation_length_estimate(self, g: W.Word, budget: int) -> float:
        if budget < 1:
            raise InputError("budget must be >= 1")
        return float(W.translation_length(g))

    def classify(self, g: W.Word, budget: int) -> IsometryClass:
        # Free groups are torsion free: every nontrivial element is loxodromic.
        return IsometryClass.ELLIPTIC if len(g) == 0 else IsometryClass.LOXODROMIC

    def __repr__(self):
        return f"FreeGroupOracle(rank={self.rank})"


# ---------------------------------------------------------------------------
# Semidirect extensions F_k x| A.


@dataclass(frozen=True)
class ExtendedElement:
    """Pair (word, torsion) in F_k x| A, multiplied by the twisted rule."""

    word: W.Word
    torsion: int


class SemidirectOracle(ActionOracle):
    """F_k x| A with each free generator acting on A by an automorphism.

    Multiplication follows (u, s)(v, t) = (uv, phi(v)^-1(s) * t), the rule
    for writing every element as ``word * torsion`` when conjugation
    satisfies ``u a u^-1 = phi(u)(a)``.
    """

    def __init__(self, rank: int, torsion_group: FiniteGroup, actions: list[Automorphism]):
        if rank < 2:
            raise InputError("rank must be >= 2")
        if len(actions) != rank:
            raise InputError("need one automorphism of A per free generator")
        for phi in actions:
            check_automorphism(torsion_group, phi)
        self.rank = rank
        self.torsion_group = torsion_group
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
        if not (0 <= torsion < self.torsion_group.order):
            raise InputError("torsion index out of range")
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

    # -- tree action (factors through the word part) ------------------------

    def displacement(self, g: ExtendedElement) -> float:
        return float(len(g.word))

    def translation_length_estimate(self, g: ExtendedElement, budget: int) -> float:
        if budget < 1:
            raise InputError("budget must be >= 1")
        return float(W.translation_length(g.word))

    def classify(self, g: ExtendedElement, budget: int) -> IsometryClass:
        return (
            IsometryClass.ELLIPTIC if len(g.word) == 0 else IsometryClass.LOXODROMIC
        )

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
    from .finitegroups import closure_order

    generators = [oracle.conjugation_on_kernel(g) for g in support]
    return closure_order(generators, oracle.torsion_group)


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
    """
    if K < 0:
        raise InputError("K must be >= 0")
    if K > cap:
        raise ResourceError(
            f"census radius {K} above cap {cap} "
            f"(ball has {W.ball_size(rank, K)} words)",
        )
    w_inv = W.invert(w_word)
    count = 0
    for u in W.ball_words(rank, K):
        conjugate = W.multiply(W.multiply(w_inv, u), w_word)
        if len(conjugate) <= K:
            count += 1
    return count * torsion_order


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
    (orientation-reversing ones).  An overlap is a run of positions where
    the two readings agree, so both cases are one circular-agreement scan of
    the root against a shifted copy of itself or of its inverse:

    * preserving: shifts 1..d-1 of ``root`` (shift 0 is a power of the
      root, which stabilizes the axis and is excluded);
    * reversing: shifts 0..d-1 of ``invert(root)``.

    Both readings are d-periodic, and no shift agrees for a whole period:
    the root is primitive, and a reduced word is never conjugate to its
    inverse.  Every run is therefore shorter than d, so the longest run in
    one doubled period is the supremum over the whole group.
    Conjugacy-invariant: only the core matters.

    >>> fellow_traveling_delta(W.str_to_word("aab"))
    1
    >>> fellow_traveling_delta(W.power(W.str_to_word("ab"), 10))
    0
    """
    _, core = W.cyclic_reduce(w)
    if len(core) == 0:
        raise InputError("fellow-travelling constant needs a loxodromic word")
    root = W.primitive_root(core)
    d = len(root)
    dtype = np.min_scalar_type(-max(abs(letter) for letter in root))
    line = np.array(root, dtype=dtype)
    inverted = np.array(W.invert(root), dtype=dtype)
    preserving = _longest_circular_agreement(line, line, np.arange(1, d))
    reversing = _longest_circular_agreement(line, inverted, np.arange(d))
    return int(max(preserving.max(initial=0), reversing.max()))


#: Shifts compared per block: bounds the (shifts x 2d) temporaries.
_SHIFT_BLOCK = 64


def _longest_circular_agreement(u: np.ndarray, v: np.ndarray, shifts) -> np.ndarray:
    """For each shift s, the longest circular run of t with u[t] == v[(t+s) % d].

    Scans two periods, which holds every circular run as a plain run as long
    as no shift agrees for a whole period; such a shift raises.
    """
    d = len(u)
    doubled = np.concatenate([u, u])
    t = np.arange(2 * d, dtype=np.int32)
    rows = np.lib.stride_tricks.sliding_window_view(np.concatenate([v, v, v]), 2 * d)
    out = np.zeros(len(shifts), dtype=np.int64)
    for lo in range(0, len(shifts), _SHIFT_BLOCK):
        bits = rows[shifts[lo : lo + _SHIFT_BLOCK]] == doubled
        if bits[:, :d].all(axis=1).any():
            raise AssertionError("full-period agreement: the root is not primitive")
        last_mismatch = np.maximum.accumulate(np.where(bits, -1, t), axis=1)
        out[lo : lo + _SHIFT_BLOCK] = (t - last_mismatch).max(axis=1)
    return out


# ---------------------------------------------------------------------------
# Exact harmonic measure of shadows for the uniform walk.


def exact_shadow_measure(m: int, rank: int, uniform: bool = True) -> Fraction:
    """Harmonic measure of the shadow behind a vertex at distance m.

    For the uniform walk on F_k the limit point is a uniformly random
    boundary word: all 2k(2k-1)^(m-1) cylinders of depth m are equally
    likely, so the measure is exactly 1/(2k (2k-1)^(m-1)); m = 0 gives the
    whole boundary.
    """
    if not uniform:
        raise UnsupportedError(
            "exact shadow measure is only available for the uniform measure; "
            "use the empirical estimator instead"
        )
    if m < 0:
        raise InputError("distance parameter must be >= 0")
    if m == 0:
        return Fraction(1)
    return Fraction(1, 2 * rank * (2 * rank - 1) ** (m - 1))
