import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypwalk import words as W
from hypwalk.config import build_measure, build_model
from hypwalk.errors import InputError, ParamError, ResourceError
from hypwalk.finitegroups import (
    Automorphism,
    FiniteGroup,
    closure,
    cyclic_automorphism,
)
from hypwalk.freegroup import (
    ExtendedElement,
    FreeGroupOracle,
    SemidirectOracle,
    _longest_repeated_window,
    axis_overlap_delta,
    characteristic_index,
    exact_shadow_measure,
    fellow_traveling_delta,
    stab_census,
)
from hypwalk.geometry import IsometryClass
from hypwalk.presets import preset_config
from hypwalk.walk import FiniteMeasure, fold_words


def _z3_model():
    z3 = FiniteGroup.cyclic(3)
    invert = cyclic_automorphism(3, 2)
    ident = Automorphism.identity(z3)
    return SemidirectOracle(2, z3, [invert, ident])


def _random_word(rng, max_len=12):
    return W.reduce_letters(
        [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(max_len))]
    )


# ---------------------------------------------------------------------------
# Free oracle basics.


def test_free_oracle_metric():
    fo = FreeGroupOracle(2)
    w = W.str_to_word("abA")
    assert fo.displacement(w) == 3.0
    assert fo.pairwise_distance(W.str_to_word("a"), W.str_to_word("b")) == 2.0
    assert fo.translation_length_estimate(W.str_to_word("abab"), 1) == 4.0
    assert fo.classify((), 8) is IsometryClass.ELLIPTIC
    assert fo.classify(W.str_to_word("aB"), 8) is IsometryClass.LOXODROMIC


# ---------------------------------------------------------------------------
# Semidirect model.


def test_semidirect_group_axioms():
    model = _z3_model()
    rng = random.Random(5)
    elements = [
        model.element(_random_word(rng, 6), rng.randrange(3)) for _ in range(40)
    ]
    e = model.identity()
    for g in elements:
        assert model.multiply(g, model.inverse(g)) == e
        assert model.multiply(model.inverse(g), g) == e
    for _ in range(120):
        g, h, k = rng.choice(elements), rng.choice(elements), rng.choice(elements)
        assert model.multiply(model.multiply(g, h), k) == model.multiply(
            g, model.multiply(h, k)
        )
        gh = model.multiply(g, h)
        assert gh.word == W.multiply(g.word, h.word)


def test_semidirect_twist_example():
    # a acts on Z/3 by inversion: moving a torsion element past a flips sign.
    model = _z3_model()
    a1 = model.element((1,), 1)
    e1 = model.element((), 1)
    product = model.multiply(a1, e1)
    assert product.word == (1,)
    assert product.torsion == 2  # phi(e)^-1(1) + 1 stays 2 in Z/3
    assert model.multiply(a1, model.inverse(a1)) == model.identity()


def test_semidirect_twist_is_the_inverse_word_action():
    # Aut of the Klein four-group is S3, and these two actions do not
    # commute, so the letter order of the twist phi(v)^-1 shows
    klein = FiniteGroup(tuple(tuple(i ^ j for j in range(4)) for i in range(4)))
    model = SemidirectOracle(
        2, klein, [Automorphism((0, 2, 1, 3)), Automorphism((0, 2, 3, 1))]
    )
    rng = random.Random(11)
    for _ in range(500):
        g = model.element(_random_word(rng), rng.randrange(4))
        h = model.element(_random_word(rng), rng.randrange(4))
        twist = model.word_action(h.word).inverse()
        assert model.multiply(g, h) == ExtendedElement(
            W.multiply(g.word, h.word), klein.mul(twist(g.torsion), h.torsion)
        )


def test_word_action_is_homomorphism():
    model = _z3_model()
    rng = random.Random(9)
    for _ in range(10_000):
        u, v = _random_word(rng), _random_word(rng)
        lhs = model.word_action(W.multiply(u, v))
        rhs = model.word_action(u).compose(model.word_action(v))
        assert lhs == rhs


def test_conjugation_homomorphism_on_pairs():
    model = _z3_model()
    rng = random.Random(13)
    for _ in range(150):
        g = model.element(_random_word(rng), rng.randrange(3))
        h = model.element(_random_word(rng), rng.randrange(3))
        lhs = model.conjugation_on_kernel(model.multiply(g, h))
        rhs = model.conjugation_on_kernel(g).compose(model.conjugation_on_kernel(h))
        assert lhs == rhs
        # conjugation really is k -> g k g^-1 inside the extension
        for k in range(3):
            conj = model.multiply(
                model.multiply(g, model.element((), k)), model.inverse(g)
            )
            assert conj.word == ()
            assert conj.torsion == model.conjugation_on_kernel(g)(k)


_LETTERS = st.sampled_from([1, -1, 2, -2])


@settings(max_examples=60, deadline=None)
@given(
    word=st.lists(_LETTERS, max_size=12),
    torsion=st.integers(0, 2),
    budget=st.integers(1, 8),
)
def test_semidirect_tree_action_is_the_free_action_on_its_word(word, torsion, budget):
    # the kernel fixes the tree: an element acts as its word coordinate
    model, free = _z3_model(), FreeGroupOracle(2)
    g = model.element(word, torsion)
    assert model.displacement(g) == free.displacement(g.word)
    assert model.translation_length_estimate(
        g, budget
    ) == free.translation_length_estimate(g.word, budget)
    assert model.classify(g, budget) is free.classify(g.word, budget)


@settings(max_examples=30, deadline=None)
@given(
    atoms=st.lists(
        st.tuples(st.lists(_LETTERS, max_size=4), st.integers(0, 2)),
        min_size=1,
        max_size=4,
    ),
    seed=st.integers(0, 2**32 - 1),
)
def test_semidirect_fold_is_the_free_fold_of_its_words(atoms, seed):
    model = _z3_model()
    weight = Fraction(1, len(atoms))
    semidirect = FiniteMeasure(
        model,
        [(str(i), model.element(w, t), weight) for i, (w, t) in enumerate(atoms)],
    )
    free = FiniteMeasure(
        FreeGroupOracle(2), [(a.tag, a.element.word, weight) for a in semidirect.atoms]
    )
    indices = np.random.default_rng(seed).integers(0, len(atoms), size=(6, 80))
    marks = [1, 40, 80]
    for (stack, length), (free_stack, free_length) in zip(
        fold_words(semidirect, indices, marks), fold_words(free, indices, marks)
    ):
        for row in range(len(indices)):
            assert (
                stack[row, : length[row]].tolist()
                == free_stack[row, : free_length[row]].tolist()
            )


def test_characteristic_index_examples():
    model = _z3_model()
    # phi(ab) = inversion, phi(a^2) = identity
    assert model.word_action(W.str_to_word("ab")).images == (0, 2, 1)
    assert model.word_action(W.str_to_word("aa")).images == (0, 1, 2)
    support = [model.element((1,)), model.element((-1,)), model.element((2,)),
               model.element((-2,))]
    assert characteristic_index(model, support) == 2

    trivial_actions = [Automorphism.identity(FiniteGroup.cyclic(3))] * 2
    direct = SemidirectOracle(2, FiniteGroup.cyclic(3), trivial_actions)
    support = [direct.element((1,)), direct.element((2,))]
    assert characteristic_index(direct, support) == 1


def test_characteristic_index_z5():
    z5 = FiniteGroup.cyclic(5)
    doubling = cyclic_automorphism(5, 2)  # order 4 in Aut(Z/5)
    model = SemidirectOracle(2, z5, [doubling, Automorphism.identity(z5)])
    assert characteristic_index(model, [model.element((1,))]) == 4


def test_closure_lists_the_image_group_identity_first():
    z5 = FiniteGroup.cyclic(5)
    doubling = cyclic_automorphism(5, 2)
    # the powers of x -> 2x on Z/5, breadth first
    assert closure([doubling], z5) == [
        (0, 1, 2, 3, 4), (0, 2, 4, 1, 3), (0, 4, 3, 2, 1), (0, 3, 1, 4, 2)
    ]
    assert closure([], z5) == [(0, 1, 2, 3, 4)]
    assert len(closure([doubling, doubling.inverse()], z5)) == 4


def test_bad_automorphism_rejected():
    z3 = FiniteGroup.cyclic(3)
    with pytest.raises(InputError):
        closure([Automorphism((0, 0, 0))], z3)
    with pytest.raises(InputError):
        closure([Automorphism((1, 0, 2))], z3)  # does not fix identity


_Z3 = FiniteGroup.cyclic(3)
_Z3_ACTIONS = [cyclic_automorphism(3, 2), Automorphism.identity(_Z3)]


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FreeGroupOracle(2.5), "rank: must be an integer >= 2"),
        (lambda: FreeGroupOracle(1), "rank: must be an integer >= 2"),
        (lambda: SemidirectOracle(True, _Z3, _Z3_ACTIONS), "rank: must be an integer >= 2"),
        (
            lambda: SemidirectOracle(2, _Z3, _Z3_ACTIONS[:1]),
            "actions: need exactly one action per generator",
        ),
        (lambda: FiniteGroup.cyclic(2.5), "order: must be an integer >= 1"),
        (lambda: FiniteGroup.cyclic(0), "order: must be an integer >= 1"),
        (lambda: cyclic_automorphism(3, 1.0), "value: must be an integer"),
        (lambda: cyclic_automorphism(3, 3), "value: 3 is not a unit modulo 3"),
        (
            lambda: SemidirectOracle(2, _Z3, _Z3_ACTIONS).element((1,), 1.0),
            "torsion: must be an integer",
        ),
        (
            lambda: SemidirectOracle(2, _Z3, _Z3_ACTIONS).element((1,), 3),
            "torsion: torsion index out of range",
        ),
    ],
    ids=[
        "free-rank-float", "free-rank-1", "semidirect-rank-bool", "semidirect-one-action",
        "cyclic-order-float", "cyclic-order-0", "value-float", "value-not-a-unit",
        "torsion-float", "torsion-out-of-range",
    ],
)
def test_tree_models_name_a_bad_argument(build, message):
    # the messages a config run prints under the model's or atom's path
    with pytest.raises(ParamError) as info:
        build()
    assert str(info.value) == message


# ---------------------------------------------------------------------------
# Stabilizer census.


def test_stab_census_examples():
    a10 = W.power((1,), 10)
    assert stab_census(a10, 0, rank=2) == 1
    assert stab_census(a10, 2, rank=2) == 5
    assert stab_census(a10, 0, rank=2, torsion_order=3) == 3


def test_stab_census_monotone_and_cap():
    rng = random.Random(31)
    for _ in range(20):
        w = _random_word(rng, 10)
        counts = [stab_census(w, K, rank=2) for K in range(4)]
        assert counts == sorted(counts)
    with pytest.raises(ResourceError):
        stab_census((1,), 5, rank=2, cap=4)


def _stab_census_naive(w, K, rank):
    # the literal ball enumeration: build every conjugate w^-1 u w
    w_inv = W.invert(w)
    return sum(
        len(W.multiply(W.multiply(w_inv, u), w)) <= K for u in W.ball_words(rank, K)
    )


def test_stab_census_matches_the_ball_enumeration():
    # powers of a word reach the branch where w^-1 cancels into w itself
    rng = random.Random(37)
    for rank in (2, 3):
        letters = [s * g for g in range(1, rank + 1) for s in (1, -1)]
        for _ in range(25):
            base = W.reduce_letters([rng.choice(letters) for _ in range(rng.randrange(13))])
            for w in (base, W.power(base, 2), W.power(base, 3)):
                for K in range(5):
                    expected = _stab_census_naive(w, K, rank)
                    for torsion in (1, 3):
                        assert stab_census(w, K, rank, torsion) == expected * torsion


# ---------------------------------------------------------------------------
# Axis overlaps and the fellow-travelling constant.


def test_axis_overlap_examples():
    res = axis_overlap_delta(W.str_to_word("ab"), 4)
    assert res.value == 0 and res.certified
    res = axis_overlap_delta(W.str_to_word("aab"), 6)
    assert res.value == 1 and res.certified
    res = axis_overlap_delta(W.str_to_word("aa"), 5)
    assert res.value == 0 and res.certified
    with pytest.raises(InputError):
        axis_overlap_delta((), 3)


def test_fellow_traveling_examples():
    assert fellow_traveling_delta(W.str_to_word("ab")) == 0
    assert fellow_traveling_delta(W.str_to_word("aab")) == 1
    assert fellow_traveling_delta(W.power(W.str_to_word("ab"), 10)) == 0
    assert fellow_traveling_delta(W.str_to_word("aa")) == 0


def _longest_common_factor(u, v):
    """Longest common contiguous factor length (suffix automaton of u)."""
    if not u or not v:
        return 0
    # states: (length, suffix link, transitions)
    length = [0]
    link = [-1]
    trans = [{}]
    last = 0
    for ch in u:
        cur = len(length)
        length.append(length[last] + 1)
        link.append(0)
        trans.append({})
        p = last
        while p != -1 and ch not in trans[p]:
            trans[p][ch] = cur
            p = link[p]
        if p != -1:
            q = trans[p][ch]
            if length[q] == length[p] + 1:
                link[cur] = q
            else:
                clone = len(length)
                length.append(length[p] + 1)
                link.append(link[q])
                trans.append(dict(trans[q]))
                while p != -1 and trans[p].get(ch) == q:
                    trans[p][ch] = clone
                    p = link[p]
                link[q] = clone
                link[cur] = clone
        last = cur
    state, current, best = 0, 0, 0
    for ch in v:
        while state and ch not in trans[state]:
            state = link[state]
            current = length[state]
        if ch in trans[state]:
            state = trans[state][ch]
            current += 1
        best = max(best, current)
    return best


def _fellow_traveling_reference(w):
    """Pure-Python reference: a run scan per phase shift of the root for
    orientation-preserving overlaps, and the longest common factor of three
    periods of the root and of its inverse for orientation-reversing ones."""
    _, core = W.cyclic_reduce(w)
    root = W.primitive_root(core)
    d = len(root)
    best = 0
    for shift in range(1, d):
        bits = [1 if root[t % d] == root[(t + shift) % d] else 0 for t in range(d)]
        assert not all(bits)
        run = longest = 0
        for b in bits + bits:
            run = run + 1 if b else 0
            longest = max(longest, run)
        best = max(best, longest)
    return max(best, _longest_common_factor(root * 3, W.invert(root) * 3))


@st.composite
def _loxodromic_words(draw):
    """Reduced words over ranks 1-3 with nontrivial core, up to 120 letters:
    a near-periodic base (a repeated block and a tail, so that agreement
    runs are long and often wrap around the period), possibly raised to a
    proper power and conjugated."""
    rank = draw(st.integers(1, 3))
    letters = st.sampled_from([s * g for g in range(1, rank + 1) for s in (1, -1)])
    block = draw(st.lists(letters, min_size=1, max_size=5))
    tail = draw(st.lists(letters, max_size=6))
    base = W.reduce_letters(block * draw(st.integers(1, 6)) + tail)
    if W.translation_length(base) == 0:
        base = (block[0],)
    conjugator = W.reduce_letters(draw(st.lists(letters, max_size=6)))
    w = W.power(base, draw(st.integers(1, 3)))
    return W.multiply(W.multiply(conjugator, w), W.invert(conjugator))


@settings(max_examples=300, deadline=None)
@given(w=_loxodromic_words())
@example(w=(1,))
@example(w=(1, 1, 1))
@example(w=(2, 1, -2))
@example(w=W.power(W.str_to_word("abAB"), 3))
@example(w=W.str_to_word("aaaabaaaaa"))  # runs wrap around the period
def test_fellow_traveling_matches_reference(w):
    assert fellow_traveling_delta(w) == _fellow_traveling_reference(w)


def _small_cancellation_words():
    """The 20 reduced words w_500 of the small-cancellation-f2 preset's
    first 20 trials at its seed (roots of 192-290 letters, Delta 7-13)."""
    config = preset_config("small-cancellation-f2")
    measure = build_measure(build_model(config["model"]), config["measure"])
    n = config["params"]["n"]
    indices = np.stack(
        [measure.increment_indices(n, config["seed"], t) for t in range(20)]
    )
    ((stack, length),) = fold_words(measure, indices, [n])
    return [tuple(stack[row, : length[row]].tolist()) for row in range(20)]


def test_fellow_traveling_matches_reference_on_walk_words():
    for w in _small_cancellation_words():
        assert fellow_traveling_delta(w) == _fellow_traveling_reference(w)


@pytest.mark.parametrize("rank", [3, 5])
def test_fellow_traveling_matches_reference_on_long_random_words(rank):
    rng = random.Random(rank)
    for _ in range(6):
        w = ()
        while W.translation_length(w) < 200:
            letters = [
                rng.choice((1, -1)) * rng.randint(1, rank)
                for _ in range(rng.randint(200, 400))
            ]
            w = W.reduce_letters(letters)
        assert fellow_traveling_delta(w) == _fellow_traveling_reference(w)


def test_fellow_traveling_matches_reference_on_long_overlaps():
    a70 = W.str_to_word("a" * 70)
    rng = random.Random(7)
    u = (1,)
    while len(u) < 100:
        u = W.multiply(u, (rng.choice((1, -1, 2, -2)),))
    cases = [
        # a^70 b a^70 b^-1: an orientation-preserving overlap a^70
        (W.multiply(W.multiply(a70, (2,)), W.multiply(a70, (-2,))), 70),
        # u c u^-1 d: the axis and its reversed translate both read u
        (W.reduce_letters(u + (3,) + W.invert(u) + (4,)), 100),
        # a long block with a short tail, squared and conjugated
        (W.multiply((3,), W.power(W.str_to_word("abAAb" * 18 + "ab"), 2)) + (-3,), 88),
    ]
    for w, delta in cases:
        assert fellow_traveling_delta(w) == _fellow_traveling_reference(w) == delta


def test_fellow_traveling_accepts_a_list():
    w = W.str_to_word("aabAbaBab")
    assert fellow_traveling_delta(list(w)) == _fellow_traveling_reference(w)


@pytest.mark.parametrize(
    "root", [(1, 2, 1, 2), (1, 1), (3, -1, 2) * 4, W.str_to_word("aabab") * 2]
)
def test_repeated_window_search_rejects_a_non_primitive_root(root):
    with pytest.raises(AssertionError, match="full-period agreement"):
        _longest_repeated_window(root)


_F2_LETTERS = (0, 1, -1, 2, -2)


def _ball_array(radius):
    """The words of ``W.ball_words(2, radius)``, one per row, padded with
    the no-op letter 0."""
    letters = np.array(_F2_LETTERS[1:], dtype=np.int8)
    shell = np.zeros((1, radius), dtype=np.int8)
    shells = [shell]
    for r in range(radius):
        grown = np.repeat(shell, len(letters), axis=0)
        grown[:, r] = np.tile(letters, len(shell))
        if r:
            grown = grown[grown[:, r] != -grown[:, r - 1]]
        shell = grown
        shells.append(shell)
    return np.concatenate(shells)


def _conjugate_lengths(w, ball):
    """|v^-1 w v| for every row v of the ball, in one batched fold."""
    measure = FiniteMeasure(
        FreeGroupOracle(2),
        [(str(x), (x,) if x else (), Fraction(1, 5)) for x in _F2_LETTERS],
    )
    atom_of = np.zeros(5, dtype=np.uint8)
    atom_of[np.array(_F2_LETTERS) + 2] = np.arange(5)
    middle = np.broadcast_to(np.array(w, dtype=np.int8), (len(ball), len(w)))
    letters = np.concatenate([-ball[:, ::-1], middle, ball], axis=1)
    ((_, length),) = fold_words(measure, atom_of[letters + 2], [letters.shape[1]])
    return length


def _overlap_oracle(w, h, radius):
    """Independent overlap oracle: the axis is the min-displacement set."""
    tau = W.translation_length(w)
    conj = W.multiply(W.multiply(h, w), W.invert(h))
    ball = _ball_array(radius)
    assert len(ball) == W.ball_size(2, radius)
    on_both = (_conjugate_lengths(w, ball) == tau) & (
        _conjugate_lengths(conj, ball) == tau
    )
    shared = [tuple(int(x) for x in row if x) for row in ball[on_both]]
    if not shared:
        return 0
    return max(
        len(W.multiply(W.invert(v1), v2)) for v1 in shared for v2 in shared
    )


def test_ball_array_matches_ball_words():
    words = {tuple(int(x) for x in row if x) for row in _ball_array(5)}
    assert words == set(W.ball_words(2, 5))


def test_line_overlap_against_min_displacement_oracle():
    from hypwalk.freegroup import _in_axis_stabilizer, _line_overlap

    rng = random.Random(41)
    checked = 0
    while checked < 20:
        w = ()
        while W.translation_length(w) == 0:
            w = _random_word(rng, 6)
        h = _random_word(rng, 4)
        prefix, core = W.cyclic_reduce(w)
        root = W.primitive_root(core)
        if not h or _in_axis_stabilizer(h, prefix, root):
            continue
        radius = len(w) + len(h) + 6
        expected = _overlap_oracle(w, h, radius)
        assert _line_overlap(prefix, core, h) == expected
        checked += 1


def test_fellow_traveling_matches_ball_search():
    rng = random.Random(43)
    for _ in range(12):
        w = ()
        while not (1 <= W.translation_length(w) <= 4):
            w = _random_word(rng, 5)
        exact = fellow_traveling_delta(w)
        _, core = W.cyclic_reduce(w)
        radius = len(core) + exact + 2
        searched = axis_overlap_delta(w, radius)
        assert searched.certified
        assert searched.value == exact


# ---------------------------------------------------------------------------
# Exact shadow measure.


def test_exact_shadow_measure_values():
    assert exact_shadow_measure(1, 2) == Fraction(1, 4)
    assert exact_shadow_measure(2, 2) == Fraction(1, 12)
    assert exact_shadow_measure(0, 2) == Fraction(1)


def test_shadow_measure_partition_identity():
    # Depth-m cylinders partition the boundary.
    for rank in (2, 3):
        for m in range(1, 5):
            count = 2 * rank * (2 * rank - 1) ** (m - 1)
            assert count * exact_shadow_measure(m, rank) == 1
