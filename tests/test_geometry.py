import math
import random

import pytest

from hypwalk import words as W
from hypwalk.errors import InputError
from hypwalk.freegroup import FreeGroupOracle
from hypwalk.geometry import (
    ActionOracle,
    IsometryClass,
    Shadow,
    four_point_delta,
    gromov_product,
    orbit_gromov_product,
    shadow_contains,
)


def _common_prefix_length(u, v) -> int:
    n = 0
    while n < min(len(u), len(v)) and u[n] == v[n]:
        n += 1
    return n


def test_gromov_product_examples():
    assert gromov_product(5, 7, 4) == 4
    assert gromov_product(2, 2, 4) == 0
    assert gromov_product(2, 2, 0) == 2


def test_gromov_product_clamps_tolerance():
    assert gromov_product(1, 1, 2 + 1e-12) == 0.0


def test_gromov_product_rejects_broken_metric():
    with pytest.raises(InputError):
        gromov_product(1, 1, 3)
    with pytest.raises(InputError):
        gromov_product(-1, 1, 1)


def test_tree_gromov_product_is_common_prefix():
    # distance-based Gromov products agree exactly with common-prefix
    # lengths on ten thousand random pairs
    fo = FreeGroupOracle(2)
    rng = random.Random(17)
    for _ in range(10_000):
        u = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(15))])
        v = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(15))])
        assert orbit_gromov_product(fo, u, v) == _common_prefix_length(u, v)


def test_shadow_membership_examples():
    fo = FreeGroupOracle(2)
    shadow = Shadow(source=(), target=W.str_to_word("aa"), slack=0.0)
    assert shadow_contains(fo, shadow, W.str_to_word("aaa")) is True
    assert shadow_contains(fo, shadow, W.str_to_word("b")) is False
    assert shadow_contains(fo, shadow, W.str_to_word("aabbbbb")) is True


def test_shadow_complement_nesting_exact_on_tree():
    # z outside S_x(y, R) lies in S_y(x, d(x,y) - R) with no extra slack.
    fo = FreeGroupOracle(2)
    rng = random.Random(29)
    for _ in range(300):
        y = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 10))])
        z = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))])
        R = float(rng.randrange(0, 6))
        if shadow_contains(fo, Shadow((), y, R), z):
            continue
        nested = Shadow(y, (), max(len(y) - R, 0.0))
        assert shadow_contains(fo, nested, z)


def test_two_smallest_products_agree_on_tree():
    # Basepoint form of delta-thinness: among the three Gromov products of a
    # triple, the two smallest agree up to the hyperbolicity constant (0 here).
    fo = FreeGroupOracle(2)
    rng = random.Random(37)
    for _ in range(200):
        pts = [
            W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))])
            for _ in range(3)
        ]
        products = sorted(
            [
                orbit_gromov_product(fo, pts[0], pts[1]),
                orbit_gromov_product(fo, pts[0], pts[2]),
                orbit_gromov_product(fo, pts[1], pts[2]),
            ]
        )
        assert products[0] == products[1]
        assert all(p >= 0 for p in products)


def test_translation_estimate_tree():
    fo = FreeGroupOracle(2)
    assert fo.translation_length_estimate(W.str_to_word("abab"), 1) == 4.0
    # conjugate: exact answer at any budget
    w = W.str_to_word("baaB")
    assert fo.translation_length_estimate(w, 3) == 2.0


def test_generic_estimate_antitone_and_bounded():
    # Run the generic Fekete estimator (bypassing the tree override) and
    # check the stated error bound against the exact translation length.
    from hypwalk.geometry import ActionOracle

    class GenericTree(ActionOracle):
        def identity(self):
            return ()

        def multiply(self, g, h):
            return W.multiply(g, h)

        def inverse(self, g):
            return W.invert(g)

        def displacement(self, g):
            return float(len(g))

    oracle = GenericTree()
    rng = random.Random(53)
    for _ in range(50):
        w = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 9))])
        tau = float(W.translation_length(w))
        previous = math.inf
        for budget in (1, 2, 4, 8):
            est = oracle.translation_length_estimate(w, budget)
            assert tau <= est + 1e-9
            assert est - tau <= len(w) / budget + 1e-9
            assert est <= previous + 1e-9
            previous = est


def test_classification_matches_inverse_on_all_models():
    from hypwalk.cremona import CremonaModel, MonomialMap, MonomialModel

    fo = FreeGroupOracle(2)
    rng = random.Random(71)
    for _ in range(30):
        w = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(8))])
        assert fo.classify(w, 8) is fo.classify(W.invert(w), 8)
    cm = CremonaModel()
    for g in (cm.sigma(), cm.henon(2), cm.multiply(cm.sigma(), cm.henon(2))):
        assert cm.classify(g, 6) is cm.classify(cm.inverse(g), 6)
    mm = MonomialModel()
    for mono in (MonomialMap(2, 1, 1, 1), MonomialMap(1, 1, 0, 1), MonomialMap(0, 1, 1, 0)):
        assert mm.classify(mono, 6) is mm.classify(mm.inverse(mono), 6)


def test_four_point_delta_cremona_recorded():
    # Monte-Carlo measurement on hyperboloid orbit points: finite and
    # nonnegative is all that is recorded (the constant is not asserted).
    from hypwalk.cremona import CremonaModel

    model = CremonaModel()
    gens = [model.sigma(), model.henon(2), model.linear([1, 1, 0, 0, 1, 1, 1, 0, 1])]
    rng = random.Random(73)
    points = []
    for _ in range(12):
        g = model.identity()
        for _ in range(rng.randrange(1, 4)):
            g = model.multiply(g, rng.choice(gens))
        points.append(g)
    quads = [tuple(rng.choice(points) for _ in range(4)) for _ in range(100)]
    value = four_point_delta(model, quads)
    assert value >= 0.0 and math.isfinite(value)


def test_four_point_delta_tree_is_zero():
    fo = FreeGroupOracle(2)
    rng = random.Random(61)
    quads = []
    for _ in range(100):
        quads.append(
            tuple(
                W.reduce_letters(
                    [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))]
                )
                for _ in range(4)
            )
        )
    assert four_point_delta(fo, quads) == 0.0
    degenerate = [(w, w, w, w) for w, *_ in quads[:5]]
    assert four_point_delta(fo, degenerate) == 0.0
    with pytest.raises(InputError):
        four_point_delta(fo, [])


# ---------------------------------------------------------------------------
# The budgeted trichotomy of ActionOracle.classify.


class _TrackOracle(ActionOracle):
    """The integers, with d(x, m.x) = track[|m| - 1]: the element 1 has the
    displacement track ``track`` along its powers."""

    def __init__(self, track):
        self.track = track

    def identity(self):
        return 0

    def multiply(self, g, h):
        return g + h

    def inverse(self, g):
        return -g

    def displacement(self, g):
        return 0.0 if g == 0 else self.track[abs(g) - 1]


@pytest.mark.parametrize(
    "track, expected",
    [
        ([float(m) for m in range(1, 9)], IsometryClass.LOXODROMIC),  # estimate 1
        ([1.0] * 40, IsometryClass.ELLIPTIC),  # estimate 1/40, bounded
        ([0.5] * 39 + [0.5 + 1e-12], IsometryClass.ELLIPTIC),  # growth within tolerance
        ([0.5] * 39 + [0.6], IsometryClass.PARABOLIC),  # estimate 0.5/39 = 0.0128
        ([0.5] * 19 + [0.7], IsometryClass.UNDETERMINED),  # estimate 0.5/19 = 0.0263
        ([1.0] * 4, IsometryClass.ELLIPTIC),  # bounded, though the estimate is 1/4
        ([1.0, 2.0, 3.0, 0.0], IsometryClass.ELLIPTIC),  # g^4 fixes the basepoint
    ],
    ids=[
        "loxodromic", "elliptic", "elliptic-within-tolerance", "parabolic",
        "undetermined", "bounded-before-threshold", "fixed-basepoint",
    ],
)
def test_classify_reads_the_displacement_track(track, expected):
    assert _TrackOracle(track).classify(1, len(track)) is expected


def test_classify_composes_one_product_per_power_past_the_first():
    calls = []

    class Counting(_TrackOracle):
        def multiply(self, g, h):
            calls.append((g, h))
            return super().multiply(g, h)

    oracle = Counting([float(m) for m in range(1, 7)])
    assert oracle.classify(1, 6) is IsometryClass.LOXODROMIC
    assert calls == [(m, 1) for m in range(1, 6)]


def test_classify_needs_a_budget_of_four():
    with pytest.raises(InputError, match="^classification budget must be >= 4$"):
        _TrackOracle([1.0] * 3).classify(1, 3)
