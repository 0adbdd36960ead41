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
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == -w[j - 1]:
        i += 1
        j -= 1
    return w[:i], w[i:j]


def translation_length(w: Word) -> int:
    return len(cyclic_reduce(w)[1])


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


def common_prefix_length(u: Word, v: Word) -> int:
    n = min(len(u), len(v))
    i = 0
    while i < n and u[i] == v[i]:
        i += 1
    return i


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
    """All distinct length-``length`` factors of the bi-infinite word core^inf.

    Only the primitive period matters; there are at most ``len(root)`` such
    factors for each of the two reading directions.
    """
    factors: set[Word] = set()
    for line in (core, invert(core)):
        root = primitive_root(line)
        d = len(root)
        if d == 0:
            continue
        reps = -(-(length + d) // d)  # enough copies to see every phase
        stretch = root * reps
        for phase in range(d):
            factors.add(stretch[phase : phase + length])
    return factors


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
    if len(path_word) < L:
        return False
    targets = periodic_factors(axis_core, L)
    for i in range(len(path_word) - L + 1):
        if path_word[i : i + L] in targets:
            return True
    return False


def self_match_detect(path_word: Word, L: int) -> bool:
    """Two disjoint length-L subsegments of the path equal as labelled paths.

    Tree instance of an (L, K)-self-match with K = 0: segments eta, eta' of
    [x, w.x] with g.eta = eta' for some g != 1.  The translate may reverse
    orientation, in which case the label of eta' is the reversed inverse of
    the label of eta.  Disjoint means the index intervals do not overlap.
    """
    if L < 1:
        raise InputError("match length L must be >= 1")
    n = len(path_word)
    if n < 2 * L:
        return False

    # Windows are read-only memoryview slices of one fixed-width letter
    # encoding: they hash and compare by content, far faster than tuple
    # slices, and as dict keys they share the buffer instead of copying
    # L letters each.
    typecode = "b" if max(abs(letter) for letter in path_word) <= 127 else "q"
    width = array(typecode).itemsize
    data = memoryview(array(typecode, path_word).tobytes())
    first: dict[memoryview, int] = {}
    last: dict[memoryview, int] = {}
    for i in range(n - L + 1):
        window = data[i * width : (i + L) * width]
        if window not in first:
            first[window] = i
        last[window] = i
    for window, lo in first.items():
        if last[window] - lo >= L:
            return True

    # Orientation-reversing pairs: window(j) == reverse-invert(window(i)),
    # realised as a window of the reversed-inverted path at t = n - L - i.
    rdata = memoryview(array(typecode, invert(path_word)).tobytes())
    rfirst: dict[memoryview, int] = {}
    rlast: dict[memoryview, int] = {}
    for t in range(n - L + 1):
        window = rdata[t * width : (t + L) * width]
        if window not in rfirst:
            rfirst[window] = t
        rlast[window] = t
    for window, j_lo in first.items():
        t = rfirst.get(window)
        if t is None:
            continue
        # j + t <= n - 2L  <=>  segments disjoint with eta' to the left;
        # j + t >= n       <=>  disjoint with eta' to the right.
        if j_lo + t <= n - 2 * L or last[window] + rlast[window] >= n:
            return True
    return False
