import random

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


def test_match_detect_oracle():
    # Independent oracle: enumerate the factors of a long finite chunk.
    rng = random.Random(19)
    core = W.str_to_word("aab")
    chunk = core * 30
    ichunk = W.invert(core) * 30
    for _ in range(200):
        path = W.reduce_letters(
            [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 30))]
        )
        L = rng.randrange(1, 8)
        expected = False
        for i in range(len(path) - L + 1):
            window = path[i : i + L]
            for j in range(len(chunk) - L + 1):
                if chunk[j : j + L] == window or ichunk[j : j + L] == window:
                    expected = True
        assert W.match_detect(path, core, L) is expected


def test_self_match_examples():
    assert W.self_match_detect(W.str_to_word("abab"), 2) is True
    assert W.self_match_detect(W.str_to_word("ab"), 2) is False
    assert W.self_match_detect(W.str_to_word("abAb"), 2) is False
    # letters past one byte take the wide window encoding
    assert W.self_match_detect((200, 300, 200, 300), 2) is True
    assert W.self_match_detect((200, 300, 200, -300), 2) is False
    assert W.self_match_detect((200, 300, 5, -300, -200), 2) is True


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


def test_self_match_oracle_and_monotone():
    rng = random.Random(23)
    for rank in (2, 3):
        alphabet = [s * g for g in range(1, rank + 1) for s in (1, -1)]
        for _ in range(150):
            path = W.reduce_letters(
                [rng.choice(alphabet) for _ in range(rng.randrange(0, 61))]
            )
            results = {}
            for L in range(1, 9):
                got = W.self_match_detect(path, L)
                assert got is _self_match_naive(path, L)
                results[L] = got
            for L in range(1, 8):
                if results[L + 1]:
                    assert results[L]  # monotone in L
