"""Freely reduced words in a finite-rank free group.

A word is a tuple of nonzero signed integers: ``i`` in ``1..rank`` is the
i-th generator, ``-i`` its inverse.  Every function here keeps words freely
reduced (no adjacent cancelling pair), so the tuple length *is* the distance
``d(x, w.x)`` in the Cayley tree.

The string form used in reports writes generator ``1`` as ``a`` and its
inverse as ``A``, generator ``2`` as ``b``/``B``, and so on.
"""

from __future__ import annotations

from array import array

from .errors import InputError

Word = tuple[int, ...]

_LOWER = "abcdefghijklmnopqrstuvwxyz"


def reduce_letters(letters, rank: int | None = None) -> Word:
    """Freely reduce a raw letter sequence.

    >>> reduce_letters([1, -1, 2])
    (2,)
    >>> reduce_letters([1, 2, -2, 1])
    (1, 1)
    """
    out: list[int] = []
    for letter in letters:
        if letter == 0 or not isinstance(letter, int):
            raise InputError(f"letters must be nonzero integers, got {letter!r}")
        if rank is not None and abs(letter) > rank:
            raise InputError(f"letter {letter} outside generator range 1..{rank}")
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def multiply(u: Word, v: Word) -> Word:
    """Reduced concatenation u * v."""
    cancel = 0
    max_cancel = min(len(u), len(v))
    while cancel < max_cancel and u[len(u) - 1 - cancel] == -v[cancel]:
        cancel += 1
    return u[: len(u) - cancel] + v[cancel:]


def invert(u: Word) -> Word:
    return tuple(-letter for letter in reversed(u))


def power(u: Word, n: int) -> Word:
    if n < 0:
        return power(invert(u), -n)
    result: Word = ()
    base = u
    while n:
        if n & 1:
            result = multiply(result, base)
        base = multiply(base, base)
        n >>= 1
    return result


def cyclic_reduce(w: Word) -> tuple[Word, Word]:
    """Split ``w = prefix * core * prefix^-1`` with ``core`` cyclically reduced.

    The translation length of ``w`` on the tree is ``len(core)``.

    >>> cyclic_reduce((2, 1, -2))
    ((2,), (1,))
    """
    i = symmetric_prefix(w)
    return w[:i], w[i : len(w) - i]


def symmetric_prefix(w: Word) -> int:
    """The length of the prefix in :func:`cyclic_reduce`'s split; on a
    reduced word, the common prefix length of w and w^-1."""
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return i


def translation_length(w: Word) -> int:
    return len(w) - 2 * symmetric_prefix(w)


def primitive_root(core: Word) -> Word:
    """Smallest ``r`` with ``core == r^k`` (core must be cyclically reduced).

    A word equals its rotation by ``len(r)`` exactly when it is a power of
    ``r``, so ``len(r)`` is the first letter offset past 0 at which ``core``
    recurs in ``core + core``: one byte search (:func:`_find`).
    """
    if not core:
        return core
    data, width = letter_bytes(core)
    return core[: _find(data + data, data, width, 1, 2 * len(core))]


def word_to_str(w: Word) -> str:
    """ASCII form: a..z for generators, A..Z for inverses."""
    chars = []
    for letter in w:
        idx = abs(letter) - 1
        if idx >= 26:
            raise InputError("string form only supports ranks up to 26")
        chars.append(_LOWER[idx].upper() if letter < 0 else _LOWER[idx])
    return "".join(chars)


def str_to_word(s: str, rank: int | None = None) -> Word:
    letters = []
    for ch in s:
        if ch.islower():
            letters.append(_LOWER.index(ch) + 1)
        elif ch.isupper():
            letters.append(-(_LOWER.index(ch.lower()) + 1))
        else:
            raise InputError(f"invalid word character {ch!r}")
    return reduce_letters(letters, rank)


def ball_words(rank: int, radius: int):
    """Yield every reduced word of length <= radius, shortest first."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    yield ()
    frontier: list[Word] = [()]
    for _ in range(radius):
        new_frontier = []
        for w in frontier:
            last = w[-1] if w else 0
            for g in range(1, rank + 1):
                for letter in (g, -g):
                    if letter == -last:
                        continue
                    nw = w + (letter,)
                    new_frontier.append(nw)
                    yield nw
        frontier = new_frontier


def ball_size(rank: int, radius: int) -> int:
    """|B(radius)| = 1 + 2k * ((2k-1)^radius - 1) / (2k - 2) for rank k >= 2."""
    if radius < 0:
        raise InputError("radius must be >= 0")
    total, shell = 1, 1
    for r in range(1, radius + 1):
        shell = shell * (2 * rank - 1) if r > 1 else 2 * rank
        total += shell
    return total


# ---------------------------------------------------------------------------
# Factor matching against periodic words (axes in the tree).


def periodic_factors(core: Word, length: int) -> set[Word]:
    """All distinct length-``length`` factors of the bi-infinite word core^inf,
    read in both directions.

    Only the primitive root r matters (the inverse line's is r^-1); there
    are at most ``len(r)`` such factors for each reading direction.
    """
    root = primitive_root(core)
    d = len(root)
    if d == 0:
        return set()
    reps = -(-(length + d) // d)  # enough copies to see every phase
    factors: set[Word] = set()
    for line in (root, invert(root)):
        stretch = line * reps
        factors.update(stretch[phase : phase + length] for phase in range(d))
    return factors


def letter_bytes(word) -> tuple[bytes, int]:
    """``word`` as bytes, and the bytes per letter: one signed byte when
    every letter lies in -127..127 (so that its inverse does too), else
    eight.

    Substring search on these bytes runs in C (two-way matching: Crochemore
    and Perrin, "Two-way string-matching", J. ACM 1991).  At width 1 a byte
    hit is a letter hit.  At width 8 a hit at a byte offset that is not a
    multiple of 8 straddles two letters and is no match: :func:`_find`
    searches past it.
    """
    try:
        data = array("b", word).tobytes()
        if b"\x80" not in data:  # -128, whose inverse needs eight bytes
            return data, 1
    except OverflowError:
        pass
    return array("q", word).tobytes(), 8


#: byte -> the byte of the inverse letter, at one byte a letter
_INVERSE_BYTE = bytes(-byte & 0xFF for byte in range(256))


def _find(data: bytes, needle: bytes, width: int, start: int, stop: int) -> int:
    """The least letter offset p >= ``start`` at which ``needle`` occurs in
    ``data`` and ends by letter ``stop``, or -1; both encoded at ``width``."""
    pos = data.find(needle, start * width, stop * width)
    while pos % width and pos != -1:
        pos = data.find(needle, pos + 1, stop * width)
    return pos // width


class FactorCodes:
    """A set of words encoded once for byte search (:meth:`held_in`).

    ``wide`` holds every word at eight bytes a letter; ``narrow`` holds the
    words that :func:`letter_bytes` writes at one byte a letter, the only
    ones that can occur in a word it writes so.
    """

    __slots__ = ("narrow", "wide")

    def __init__(self, factors):
        factors = tuple(factors)
        self.wide = [array("q", factor).tobytes() for factor in factors]
        codes = [letter_bytes(factor) for factor in factors]
        self.narrow = [code for code, width in codes if width == 1]

    def held_in(self, data: bytes, width: int) -> bool:
        """Does the word that :func:`letter_bytes` encoded as ``data`` at
        ``width`` hold one of the words as a factor?"""
        if width == 1:
            return any(code in data for code in self.narrow)
        end = len(data) // 8
        return any(_find(data, code, 8, 0, end) >= 0 for code in self.wide)


def holds_factor(word: Word, factors: set[Word], length: int) -> bool:
    """Does ``word`` hold one of ``factors``, a set of length-``length``
    words, as a factor (a contiguous subword)?  A byte search, with
    :func:`letter_bytes`'s alignment rule for letters past one byte.

    >>> holds_factor(str_to_word("abba"), {str_to_word("bb")}, 2)
    True
    >>> holds_factor(str_to_word("abba"), periodic_factors(str_to_word("ab"), 3), 3)
    False
    >>> holds_factor((256, 256), {(1,)}, 1)  # 1's eight bytes sit at byte 1
    False
    """
    data, width = letter_bytes(word)
    return FactorCodes([f for f in factors if len(f) == length]).held_in(data, width)


def match_detect(path_word: Word, axis_core: Word, L: int) -> bool:
    """Does a length-L factor of ``path_word`` lie on a translate of the
    axis of ``axis_core``, the line core^inf of its cyclic core?

    This is the tree instance (Hausdorff slack 0) of an (L, K)-match between
    the geodesic [x, w.x] and a group translate of the axis of the element
    ``axis_core``, any loxodromic word: a conjugate's axis is a translate of
    its cyclic core's.  Both reading directions of the line count.
    """
    if L < 1:
        raise InputError("match length L must be >= 1")
    axis_core = cyclic_reduce(axis_core)[1]
    if len(axis_core) == 0:
        raise InputError("axis core must be loxodromic (a nonempty cyclic core)")
    return holds_factor(path_word, periodic_factors(axis_core, L), L)


def self_match_detect(path_word: Word, L: int) -> bool:
    """Two disjoint length-L subsegments of the path equal as labelled paths.

    Tree instance of an (L, K)-self-match with K = 0: segments eta, eta' of
    [x, w.x] with g.eta = eta' for some g != 1.  The translate may reverse
    orientation, in which case the label of eta' is the reversed inverse of
    the label of eta.  Disjoint means the index intervals do not overlap.

    Aligned blocks.  Let h = ceil(L/2).  Every length-L window [j, j+L)
    holds an aligned block [b, b+h), b = t*h, at an offset b - j in
    [0, L-h].  Both relations are symmetric, so take [j, j+L) the later
    window of a pair and [i, i+L), i <= j - L, the earlier.  A same
    orientation pair copies the block to p = b - (j - i) <= b - L; a
    reversed-inverse pair puts the block's reversed inverse at
    q = i + L - (b - j) - h, so q + h <= b.  So for each block with
    L <= b <= n - h, a byte search finds every such p (in the path) and q
    (in the inverted path, read backwards) and confirms the candidate
    exactly: the pair exists when the letters that agree under that
    translate (x with path[x] = path[x - (b - p)], or with
    path[x] = -path[s - x] for s = b + q + h - 1 and x > s - x so the
    windows stay disjoint) run on from the block for L letters.  No hash,
    and no false positive; the search holds O(n) bytes.

    >>> self_match_detect(str_to_word("abcBA"), 2)  # ab, then its reversed inverse
    True
    >>> self_match_detect(str_to_word("abcAB"), 2)
    False
    """
    if L < 1:
        raise InputError("match length L must be >= 1")
    n = len(path_word)
    if n < 2 * L:
        return False
    data, width = letter_bytes(path_word)
    if width == 1:
        rdata = data[::-1].translate(_INVERSE_BYTE)
    else:
        rdata = array("q", invert(path_word)).tobytes()
    h = (L + 1) // 2
    for b in range(-(-L // h) * h, n - h + 1, h):
        block = data[b * width : (b + h) * width]
        for p in _occurrences(data, block, width, b - L + h):
            if _run_spans(path_word, L, b, b + h, 1, p - b, b - p, n):
                return True
        mirrored = rdata[(n - b - h) * width : (n - b) * width]
        for q in _occurrences(data, mirrored, width, b):
            s = b + q + h - 1
            if _run_spans(path_word, L, b, b + h, -1, s, s // 2 + 1, min(n, s + 1)):
                return True
    return False


def _occurrences(data: bytes, needle: bytes, width: int, stop: int):
    """Yield, in order, every letter offset at which ``needle`` occurs in
    ``data`` and ends by letter ``stop``."""
    p = _find(data, needle, width, 0, stop)
    while p >= 0:
        yield p
        p = _find(data, needle, width, p + 1, stop)


def _run_spans(path, L: int, start: int, end: int, sign: int, pivot: int, lo: int, hi: int) -> bool:
    """Do the x in [lo, hi) with path[x] == sign * path[pivot + sign * x]
    run on from [start, end), where they hold, to L letters?"""

    def agrees(x):
        return path[x] == sign * path[pivot + sign * x]

    while end < hi and end - start < L and agrees(end):
        end += 1
    while start > lo and end - start < L and agrees(start - 1):
        start -= 1
    return end - start >= L
