import random
import tracemalloc

import pytest

from hypwalk import words as W
from hypwalk.errors import InputError


def test_reduce_examples():
    assert W.reduce_letters([1, -1, 2]) == (2,)
    assert W.reduce_letters([]) == ()
    assert W.reduce_letters([1, 2, -2, 1]) == (1, 1)


def test_reduce_rejects_bad_letters():
    with pytest.raises(InputError):
        W.reduce_letters([0])
    with pytest.raises(InputError):
        W.reduce_letters([3], rank=2)


def test_reduce_is_minimal_random():
    rng = random.Random(7)
    for _ in range(300):
        letters = [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 40))]
        w = W.reduce_letters(letters)
        for i in range(len(w) - 1):
            assert w[i] != -w[i + 1]


def test_multiply_invert_group_axioms():
    rng = random.Random(11)
    for _ in range(200):
        u = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))])
        v = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))])
        t = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))])
        assert W.multiply(W.multiply(u, v), t) == W.multiply(u, W.multiply(v, t))
        assert W.multiply(u, W.invert(u)) == ()
        assert W.multiply(W.invert(u), u) == ()
    assert W.multiply(W.str_to_word("ab"), W.str_to_word("B")) == W.str_to_word("a")
    assert W.invert(W.str_to_word("ab")) == W.str_to_word("BA")


def test_cyclic_reduce_examples():
    prefix, core = W.cyclic_reduce(W.str_to_word("baB"))
    assert (prefix, core) == (W.str_to_word("b"), W.str_to_word("a"))
    assert W.translation_length(W.str_to_word("baB")) == 1
    assert W.cyclic_reduce(W.str_to_word("ab")) == ((), W.str_to_word("ab"))
    assert W.translation_length(W.str_to_word("ab")) == 2
    assert W.cyclic_reduce(W.str_to_word("Aba")) == (W.str_to_word("A"), W.str_to_word("b"))


def test_translation_length_conjugacy_invariant():
    rng = random.Random(3)
    for _ in range(200):
        w = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 15))])
        h = W.reduce_letters([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(10))])
        conj = W.multiply(W.multiply(h, w), W.invert(h))
        assert W.translation_length(conj) == W.translation_length(w)


def test_primitive_root():
    assert W.primitive_root(W.str_to_word("abab")) == W.str_to_word("ab")
    assert W.primitive_root(W.str_to_word("aab")) == W.str_to_word("aab")
    assert W.primitive_root(W.str_to_word("aaa")) == W.str_to_word("a")


def test_word_str_roundtrip():
    for s in ("", "a", "aB", "abAB", "cC" "zz"):
        w = W.str_to_word(s)
        assert W.str_to_word(W.word_to_str(w)) == w


def test_ball_words_count():
    listed = list(W.ball_words(2, 3))
    assert len(listed) == len(set(listed)) == W.ball_size(2, 3) == 1 + 4 + 12 + 36
    assert all(w == W.reduce_letters(w) for w in listed)


def test_match_detect_examples():
    ab = W.str_to_word("ab")
    assert W.match_detect(W.str_to_word("abab"), ab, 4) is True
    assert W.match_detect(W.str_to_word("abba"), ab, 3) is False
    assert W.match_detect(W.str_to_word("BAB"), ab, 3) is True


def test_match_detect_reads_the_axis_of_any_loxodromic_word():
    # abA = a b a^-1 has the a-translate of b's axis; cyclic reduction
    # finds it, where the windows of (abA)^inf are not reduced words
    rng = random.Random(23)
    b, conjugate = W.str_to_word("b"), W.str_to_word("abA")
    for _ in range(200):
        path = W.reduce_letters(
            [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 30))]
        )
        L = rng.randrange(1, 6)
        assert W.match_detect(path, conjugate, L) is W.match_detect(path, b, L)
    assert W.match_detect(W.str_to_word("abbbA"), conjugate, 3) is True
    for elliptic in [(), (1, -1), W.str_to_word("abBA")]:
        with pytest.raises(InputError, match="loxodromic"):
            W.match_detect(W.str_to_word("abab"), elliptic, 2)


def test_match_detect_oracle():
    # Independent oracle: enumerate the factors of a long finite chunk.
    rng = random.Random(19)
    for scale in (1, 100):  # letters past 127 take the wide byte encoding
        core = tuple(scale * letter for letter in W.str_to_word("aab"))
        chunk = core * 30
        ichunk = W.invert(core) * 30
        for _ in range(200):
            path = W.reduce_letters(
                [scale * rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 30))]
            )
            L = rng.randrange(1, 8)
            expected = False
            for i in range(len(path) - L + 1):
                window = path[i : i + L]
                for j in range(len(chunk) - L + 1):
                    if chunk[j : j + L] == window or ichunk[j : j + L] == window:
                        expected = True
            assert W.match_detect(path, core, L) is expected


def test_byte_search_counts_only_letter_aligned_hits():
    # In the eight-byte encoding, 1's bytes sit across the two letters of
    # (256, 256) at byte offset 1, and across 256 and 512 in (256, 512, 1):
    # neither is a letter of the word, so neither is a match.
    assert W.holds_factor((256, 256), {(1,)}, 1) is False
    assert W.holds_factor((256, 1, 256), {(1,)}, 1) is True
    assert W.self_match_detect((256, 512, 1), 1) is False
    assert W.self_match_detect((256, 512, 1, 7, 256), 1) is True
    # -128 fits a byte but its inverse does not: the reversed inverse of
    # (-128, 5) is (-5, 128), not (-5, -128)
    assert W.self_match_detect((-128, 5, 7, -5, -128), 2) is False
    assert W.self_match_detect((-128, 5, 7, -5, 128), 2) is True


def test_self_match_examples():
    assert W.self_match_detect(W.str_to_word("abab"), 2) is True
    assert W.self_match_detect(W.str_to_word("ab"), 2) is False
    assert W.self_match_detect(W.str_to_word("abAb"), 2) is False
    # letters past one byte take the wide window encoding
    assert W.self_match_detect((200, 300, 200, 300), 2) is True
    assert W.self_match_detect((200, 300, 200, -300), 2) is False
    assert W.self_match_detect((200, 300, 5, -300, -200), 2) is True


def test_self_match_windows_share_the_path_buffer():
    # the search holds the path's bytes and one block at a time, O(n);
    # a bytes copy per window once peaked at 132.5 MB at this size
    rng = random.Random(29)
    n = 20_000
    path = [1]
    while len(path) < n:
        path.append(rng.choice([x for x in (1, -1, 2, -2) if x != -path[-1]]))
    tracemalloc.start()
    try:
        found = W.self_match_detect(path, n // 5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a random reduced word of this length has no repeat of length n / 5
    assert len(path) == n and found is False
    assert peak < 20 * 2**20


def _self_match_naive(path, L):
    n = len(path)
    for i in range(n - L + 1):
        for j in range(n - L + 1):
            if abs(i - j) < L:
                continue
            eta = path[i : i + L]
            etap = path[j : j + L]
            if eta == etap or etap == W.invert(eta):
                return True
    return False


def _self_match_inputs(rng):
    """Random reduced words; powers of short roots between a reduced
    prefix and suffix, whose only pairs may be adjacent windows; and such
    powers with one letter changed, where a block recurs at many shifts but
    the translate it suggests breaks at the changed letter."""
    for rank in (2, 3):
        alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]

        def word(length):
            return W.reduce_letters([rng.choice(alphabet) for _ in range(length)])

        for _ in range(100):
            yield word(rng.randrange(0, 61))
            root = W.cyclic_reduce(word(rng.randrange(1, 5)))[1] or (1,)
            power = root * rng.randrange(1, 12)
            yield W.multiply(W.multiply(word(rng.randrange(0, 6)), power), word(rng.randrange(6)))
            changed = list(power)
            k = rng.randrange(len(changed))
            changed[k] = rng.choice([x for x in alphabet if x != changed[k]])
            yield W.reduce_letters(changed)


def test_self_match_oracle_and_monotone():
    rng = random.Random(23)
    for reduced in _self_match_inputs(rng):
        # letters past 127 take the wide window encoding
        for path in (reduced, tuple(100 * letter for letter in reduced)):
            lengths = range(1, len(path) // 2 + 2)
            results = [W.self_match_detect(path, L) for L in lengths]
            assert results == [_self_match_naive(path, L) for L in lengths]
            assert results == sorted(results, reverse=True)  # monotone in L
