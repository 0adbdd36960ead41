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

    Uses the KMP failure function: the smallest period dividing the length.
    """
    n = len(core)
    if n == 0:
        return core
    fail = [0] * (n + 1)
    k = 0
    for i in range(1, n):
        while k and core[i] != core[k]:
            k = fail[k]
        if core[i] == core[k]:
            k += 1
        fail[i + 1] = k
    period = n - fail[n]
    if n % period == 0:
        return core[:period]
    return core


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


def holds_factor(word: Word, factors: set[Word], length: int) -> bool:
    """Does ``word`` hold one of ``factors``, a set of length-``length``
    words, as a factor (a contiguous subword)?

    >>> holds_factor(str_to_word("abba"), {str_to_word("bb")}, 2)
    True
    >>> holds_factor(str_to_word("abba"), periodic_factors(str_to_word("ab"), 3), 3)
    False
    """
    for i in range(len(word) - length + 1):
        if word[i : i + length] in factors:
            return True
    return False


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

    Both relations are symmetric, so the later window of a pair finds the
    earlier one: a pair exists exactly when some window j has its label, or
    its reversed inverse, first occurring at j - L or earlier.  One pass
    over the windows, keeping first occurrences, decides it.

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

    # Windows are read-only memoryview slices of one fixed-width letter
    # encoding: they hash and compare by content, far faster than tuple
    # slices, and as dict keys they share the buffer instead of copying
    # L letters each.  The reversed inverse of window j is window n - L - j
    # of the inverted path.
    try:
        letters, inverse = array("b", path_word), array("b", invert(path_word))
    except OverflowError:
        letters, inverse = array("q", path_word), array("q", invert(path_word))
    width = letters.itemsize
    data, rdata = memoryview(letters.tobytes()), memoryview(inverse.tobytes())
    first: dict[memoryview, int] = {}
    for j in range(n - L + 1):
        window = data[j * width : (j + L) * width]
        mirrored = rdata[(n - L - j) * width : (n - j) * width]
        if first.setdefault(window, j) <= j - L or first.get(mirrored, j) <= j - L:
            return True
    return False
