"""Gromov-hyperbolic geometry over an abstract isometric action.

Everything in this module sees a group action on a metric space only through
an :class:`ActionOracle`: opaque group elements with identity, composition
and inversion, a basepoint ``x``, and the displacement ``d(x, g.x)``.  All
pairwise orbit distances derive from ``d(g.x, h.x) = d(x, (g^-1 h).x)``.

Concrete models (the free-group tree, the degree metric on plane Cremona
maps, monomial maps) plug in by subclassing the oracle.  Every budgeted
reading walks g, g^2, ..., g^budget once, in :meth:`ActionOracle.power_track`:
the estimate is its :func:`power_rate`, the classification the one trichotomy
:func:`isometry_class` of it; exact models override both with closed forms.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, repeat

from .errors import InputError

TOLERANCE = 1e-9

#: Budgeted translation-length estimates at or above this value are classified
#: loxodromic.  Every loxodromic element appearing in the concrete models has
#: translation length >= log((1+sqrt(5))/2) ~ 0.48, so the margin is wide.
LOXODROMIC_THRESHOLD = 0.05


class IsometryClass(Enum):
    ELLIPTIC = "elliptic"
    PARABOLIC = "parabolic"
    LOXODROMIC = "loxodromic"
    UNDETERMINED = "undetermined"


def power_rate(track) -> float:
    """min over m of track[m-1]/m, for a track along the powers g, g^2, ..."""
    return min(d / (m + 1) for m, d in enumerate(track))


def isometry_class(track) -> IsometryClass:
    """Elliptic when some power fixes the basepoint (a value within
    ``TOLERANCE`` of 0) or when the later half of the track (d(x, g^m.x),
    or a quantity increasing in it and 0 at 0, for m = 1..budget) peaks no
    higher than its earlier half; else loxodromic at a :func:`power_rate`
    of at least the threshold, parabolic below half of it, and
    UNDETERMINED between."""
    half = len(track) // 2
    if min(track) <= TOLERANCE or max(track[half:]) <= max(track[:half]) + TOLERANCE:
        return IsometryClass.ELLIPTIC
    estimate = power_rate(track)
    if estimate >= LOXODROMIC_THRESHOLD:
        return IsometryClass.LOXODROMIC
    if estimate < LOXODROMIC_THRESHOLD / 2:
        return IsometryClass.PARABOLIC
    return IsometryClass.UNDETERMINED


class ActionOracle(ABC):
    """A group acting by isometries, seen from the orbit of one basepoint."""

    @abstractmethod
    def identity(self): ...

    @abstractmethod
    def multiply(self, g, h): ...

    @abstractmethod
    def inverse(self, g): ...

    @abstractmethod
    def displacement(self, g) -> float:
        """d(x, g.x) for the fixed basepoint x."""

    def pairwise_distance(self, g, h) -> float:
        return self.displacement(self.multiply(self.inverse(g), h))

    def power_track(self, g, budget: int) -> list:
        """[d(x, g.x), ..., d(x, g^budget.x)], from budget - 1 products."""
        if budget < 1:
            raise InputError("budget must be >= 1")
        powers = accumulate(repeat(g, budget), self.multiply)
        return [self.displacement(p) for p in powers]

    def translation_length_estimate(self, g, budget: int) -> float:
        """min over 1 <= m <= budget of d(x, g^m.x)/m.

        The displacement sequence is subadditive, so by Fekete's lemma the
        running minimum decreases to the true translation length; the error
        is at most d(x, g.x)/budget.  Exact models override.
        """
        return power_rate(self.power_track(g, budget))

    def classify(self, g, budget: int) -> IsometryClass:
        """:func:`isometry_class` of the power track of g up to g^budget;
        exact models override."""
        if budget < 4:
            raise InputError("classification budget must be >= 4")
        return isometry_class(self.power_track(g, budget))


def gromov_product(d_xy: float, d_xz: float, d_yz: float) -> float:
    """(d(x,y) + d(x,z) - d(y,z)) / 2 from the three pairwise distances.

    Inputs must be nonnegative and satisfy the triangle inequality up to the
    floating tolerance; a violation means the distance oracle is broken.
    """
    for d in (d_xy, d_xz, d_yz):
        if d < -TOLERANCE:
            raise InputError(f"negative distance {d}")
    if (
        d_yz > d_xy + d_xz + TOLERANCE
        or d_xy > d_xz + d_yz + TOLERANCE
        or d_xz > d_xy + d_yz + TOLERANCE
    ):
        raise InputError(
            f"triangle inequality violated: ({d_xy}, {d_xz}, {d_yz})"
        )
    value = (d_xy + d_xz - d_yz) / 2.0
    return 0.0 if value < 0.0 else value


def orbit_gromov_product(oracle: ActionOracle, g, h) -> float:
    """Gromov product <g.x, h.x>_x."""
    return gromov_product(
        oracle.displacement(g),
        oracle.displacement(h),
        oracle.pairwise_distance(g, h),
    )


@dataclass(frozen=True)
class Shadow:
    """S_source(target, slack): orbit points whose Gromov product with the
    target, seen from the source, is at least d(source, target) - slack.

    The distance parameter ``d(source, target) - slack`` may be negative, in
    which case the shadow is everything.
    """

    source: object
    target: object
    slack: float

    def __post_init__(self):
        if self.slack < 0:
            raise InputError("shadow slack must be >= 0")


def shadow_contains(oracle: ActionOracle, shadow: Shadow, z) -> bool:
    """Membership test <z, target>_source >= d(source, target) - slack."""
    d_st = oracle.pairwise_distance(shadow.source, shadow.target)
    d_sz = oracle.pairwise_distance(shadow.source, z)
    d_tz = oracle.pairwise_distance(shadow.target, z)
    product = gromov_product(d_st, d_sz, d_tz)
    return product >= d_st - shadow.slack - TOLERANCE


def four_point_delta(oracle: ActionOracle, quadruples) -> float:
    """Empirical lower bound for the hyperbolicity constant.

    For each quadruple of orbit points, the two largest of the three pair-sum
    combinations differ by at most 2*delta; the defect (largest - second
    largest)/2 is therefore a certified lower bound for delta.  Trees give 0.
    """
    quadruples = list(quadruples)
    if not quadruples:
        raise InputError("empty quadruple sample")
    worst = 0.0
    for quad in quadruples:
        if len(quad) != 4:
            raise InputError("each sample must contain four orbit elements")
        g0, g1, g2, g3 = quad
        s01 = oracle.pairwise_distance(g0, g1) + oracle.pairwise_distance(g2, g3)
        s02 = oracle.pairwise_distance(g0, g2) + oracle.pairwise_distance(g1, g3)
        s03 = oracle.pairwise_distance(g0, g3) + oracle.pairwise_distance(g1, g2)
        a, b, _ = sorted((s01, s02, s03), reverse=True)
        worst = max(worst, (a - b) / 2.0)
    return worst
