"""Seedable random walks over any isometric-action oracle.

Determinism contract: a path is a pure function of ``(measure, n, seed,
trial)``.  Each trial owns a counter-based Philox stream keyed by
``[seed, trial]``, exact as two unsigned 64-bit words (the scheme is part of
the external contract, since reports embed seeds), so identical inputs give
bit-identical paths no matter how trials are scheduled.  Sampling from the
finite measure goes through an alias table built from the exact rational
weights; the acceptance draw compares integers, never floats.

Increment draws consume the stream as one vectorized block, so the batched
tree fold (:func:`fold_words`, which reduces many walks' words together) and
full path construction see the same increments.  A block of trials is drawn
from one Philox, re-keyed for each trial to the state of a fresh one keyed
``[seed, trial]``: each trial still draws its own stream, and no generator
is built per trial.  :func:`sample_path` is the one path loop for every
oracle: it composes the running inverse ``w_j^-1 = g_j^-1 o w_{j-1}^-1``
through the oracle and keeps the displacement track and the endpoints at
the requested marks, nothing more.

Bad coefficient primes (zero collapse or cross-prime degree disagreement)
trigger a deterministic retry, and one function, :func:`at_trial_primes`,
owns it for the walk and for the observables read off its endpoints: fresh
31-bit primes are drawn from a salted stream keyed by the same
``(seed, trial)``, and after three failed attempts the walk's trial is
discarded (an observable's row is recorded as lost to a bad prime).  A
path names why it was cut short in ``truncation_reason``, in the report's
row vocabulary: ``"degree_cap"`` or ``"discarded"``.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

import numpy as np

from .errors import BadPrimeSignal, InputError, ParamError, ResourceError
from .geometry import ActionOracle
from .polynomials import fresh_prime

#: Salt for the prime-retry stream; documented as part of the RNG contract.
RETRY_SALT = 0xB5049E59F55AD7A3

MAX_BAD_PRIME_ATTEMPTS = 3


def _philox_key(seed: int, trial: int) -> np.ndarray:
    """The Philox key [seed, trial], exact as two unsigned 64-bit words.

    Not a Python list: numpy reads a list holding an int >= 2^63 as
    float64, which rounds the key to 53 bits (or wraps it to 0 near 2^64).
    """
    if not (0 <= seed < 2**64 and 0 <= trial < 2**64):
        raise InputError("seed and trial index must be unsigned 64-bit integers")
    return np.array([seed, trial], dtype=np.uint64)


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial generator: Philox keyed by [seed, trial]."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, trial)))


def retry_primes(seed: int, trial: int):
    """The fresh prime pairs of a trial's retry stream, in draw order.

    :func:`at_trial_primes` draws every respawn from it: the walk respawns
    at the first pairs, and an observable of the walk's endpoint (the
    symmetric Gromov product, the translation length, the dynamical-degree
    estimate) continues past the pairs the walk used.  The two primes of a
    pair differ: a second prime equal to the first is drawn again.
    """
    # as a Python int: a numpy integer seed would overflow in the xor
    stream = trial_rng(operator.index(seed) ^ RETRY_SALT, trial)
    while True:
        first = second = fresh_prime(stream)
        while second == first:
            second = fresh_prime(stream)
        yield first, second


def at_trial_primes(model, seed: int, trial: int, compute, used: int = 0):
    """``compute(model, rebuild)`` under the bad-prime retry policy.

    Returns ``(value, attempt_model, attempt)`` from the first attempt that
    meets no bad prime, or None when all ``MAX_BAD_PRIME_ATTEMPTS`` do.
    Attempt 0 runs on ``model`` with ``rebuild`` the identity.  Attempt k
    runs on ``model`` respawned at pair ``used + k - 1`` of the trial's
    :func:`retry_primes` stream, with ``rebuild`` recomposing an element of
    ``model`` at those primes; ``used`` counts the pairs the trial spent
    before (a path's ``prime_retries``), so no pair is tried twice.  A model
    without coefficient primes never meets a bad prime.
    """
    fresh = islice(retry_primes(seed, trial), used, None)
    attempt_model, rebuild = model, lambda element: element
    for attempt in range(MAX_BAD_PRIME_ATTEMPTS):
        if attempt:
            attempt_model = model.respawn(next(fresh))
            rebuild = attempt_model.rebuild
        try:
            return compute(attempt_model, rebuild), attempt_model, attempt
        except BadPrimeSignal:
            pass
    return None


# ---------------------------------------------------------------------------
# Measures.


@dataclass(frozen=True)
class MeasureAtom:
    tag: str
    element: object
    weight: Fraction
    inverse: object


class FiniteMeasure:
    """Finitely supported probability measure on group elements.

    ``atoms`` lists (tag, element, weight) triples, the weights positive
    exact rationals summing to one.  The ``symmetric`` and ``reversible``
    flags are computed from the support (closure under inverses, with or
    without matching weights); non-elementarity and the presence of a WPD
    element in the generated semigroup are user attestations, not
    computations.
    """

    def __init__(
        self,
        oracle: ActionOracle,
        atoms,
        attest_non_elementary: bool = False,
        attest_wpd: bool = False,
    ):
        if not isinstance(atoms, (list, tuple)) or not atoms:
            raise ParamError("atoms", "must be a nonempty list")
        built = []
        total = Fraction(0)
        for i, atom in enumerate(atoms):
            if not isinstance(atom, (list, tuple)) or len(atom) != 3:
                raise ParamError(f"atoms[{i}]", "must be a (tag, element, weight) triple")
            tag, element, weight = atom
            if isinstance(weight, bool):
                raise ParamError(f"atoms[{i}].weight", "must be a number, not a bool")
            try:
                weight = Fraction(weight)
            except (ValueError, TypeError, ZeroDivisionError, OverflowError):
                raise ParamError(f"atoms[{i}].weight", "not a rational number") from None
            if weight <= 0:
                raise ParamError(f"atoms[{i}].weight", "must be positive")
            total += weight
            built.append(MeasureAtom(tag, element, weight, oracle.inverse(element)))
        if total != 1:
            raise ParamError("atoms", f"weights must sum to 1 exactly, got {total}")
        if not isinstance(attest_non_elementary, bool):
            raise ParamError("attest_non_elementary", "must be true or false")
        if not isinstance(attest_wpd, bool):
            raise ParamError("attest_wpd", "must be true or false")
        self.oracle = oracle
        self.atoms = tuple(built)
        self.attest_non_elementary = attest_non_elementary
        self.attest_wpd = attest_wpd
        self.bounded_displacement = max(
            oracle.displacement(a.element) for a in self.atoms
        )
        # each atom's first inverse partner in the support, or None
        partners = [
            next((b for b in self.atoms if b.element == a.inverse), None)
            for a in self.atoms
        ]
        self.reversible = None not in partners
        self.symmetric = self.reversible and all(
            b.weight == a.weight for a, b in zip(self.atoms, partners)
        )
        self._alias = _build_alias([a.weight for a in self.atoms])

    def increment_indices(self, n: int, seed: int, trial) -> np.ndarray:
        """The first n atom indices of ``trial``, or, for a range of trials,
        a (len(trial) x n) array of them: the only consumer of the trial
        streams, shared verbatim by every path-building code path.

        One Philox serves the whole range: for each trial it is re-keyed to
        [seed, trial] with the counter and buffer of a fresh one, so it
        draws exactly the stream of :func:`trial_rng`, without building a
        generator per trial.
        """
        block = trial if isinstance(trial, range) else range(trial, trial + 1)
        out = np.empty((len(block), n), dtype=np.min_scalar_type(len(self.atoms) - 1))
        bits = np.random.Philox(key=_philox_key(seed, 0))
        rng = np.random.Generator(bits)
        fresh = bits.state
        for row, t in enumerate(block):
            fresh["state"]["key"] = _philox_key(seed, t)
            bits.state = fresh
            buckets = rng.integers(0, len(self.atoms), size=n)
            if self._alias.trivial:
                # every draw would accept its bucket; being the stream's
                # last use, skipping it changes no index
                out[row] = buckets
            else:
                draws = rng.integers(0, self._alias.scale, size=n)
                out[row] = self._alias.pick(buckets, draws)
        return out if isinstance(trial, range) else out[0]


@dataclass(frozen=True)
class _AliasTable:
    thresholds: np.ndarray  # int64 per bucket, out of `scale`
    aliases: np.ndarray
    scale: int
    trivial: bool  # equal weights: every threshold is `scale`

    def pick(self, buckets: np.ndarray, draws: np.ndarray) -> np.ndarray:
        take_primary = draws < self.thresholds[buckets]
        return np.where(take_primary, buckets, self.aliases[buckets])


def _build_alias(weights: list[Fraction]) -> _AliasTable:
    n = len(weights)
    denominator = 1
    for w in weights:
        denominator = denominator * w.denominator // math.gcd(
            denominator, w.denominator
        )
    if denominator > 2**62:
        raise InputError("weight denominators too large for exact sampling")
    scaled = [int(w * denominator) for w in weights]  # sums to denominator
    # Vose's construction in integer arithmetic: bucket i is hit with
    # probability (1/n) * thresholds[i]/denominator plus alias spill.
    prob = [s * n for s in scaled]
    thresholds = [denominator] * n
    aliases = list(range(n))
    small = [i for i in range(n) if prob[i] < denominator]
    large = [i for i in range(n) if prob[i] >= denominator]
    while small and large:
        s = small.pop()
        l = large.pop()
        thresholds[s] = prob[s]
        aliases[s] = l
        prob[l] -= denominator - prob[s]
        (small if prob[l] < denominator else large).append(l)
    return _AliasTable(
        np.array(thresholds, dtype=np.int64),
        np.array(aliases, dtype=np.int64),
        denominator,
        all(t == denominator for t in thresholds),
    )


# ---------------------------------------------------------------------------
# The batched tree fold.

#: Steps whose letters fold_words gathers together.
_FOLD_BLOCK = 64


def fold_words(measure: FiniteMeasure, indices: np.ndarray, marks) -> list:
    """Freely reduce many tree walks at once, with snapshots at marks.

    ``indices`` is a (walks x steps) array of atom indices.  Returns one
    ``(stack, length)`` pair per mark: walk r's reduced word after ``mark``
    increments is ``stack[r, :length[r]]``, and ``stack`` has
    ``length.max()`` columns.  Every walk advances one letter slot at a
    time, cancelling where its top letter is the inverse of the new one and
    pushing otherwise, so each slot moves every top by one.

    The walks share one flat stack.  Each walk's row starts, at an even
    offset ``base``, with a floor letter that no letter cancels, so an empty
    word needs no test; row 0 is spare.  After s slots with c cancels a
    walk's top letter is at ``base + s - 2c``, which is ``full[s::2][half]``
    for ``half = base/2 - c``, and the spare row keeps every ``half``
    non-negative.  A slot is one gather and compare against the negated
    letters, one scatter just above the top (a cancel writes there too,
    which leaves the word unchanged) and ``half -= cancel``.

    Atoms of unequal length fold on squares: each letter x is written x x,
    an injective map that keeps reduced words reduced, and each atom's
    shortfall is filled with pairs z z^-1 of a fresh letter z.  The stack is
    then read at every other letter, and the length halved.

    The letters and their negations are gathered once per block of
    ``_FOLD_BLOCK`` = 64 steps, as (slot, step, walk) arrays, so each slot
    reads contiguous rows and the gathers hold no (walks x steps) array.  No
    snapshot is copied at the last step, which nothing overwrites.
    """
    words = [measure.oracle.tree_word(a.element) for a in measure.atoms]
    walks, steps = indices.shape
    if any(not 1 <= mark <= steps for mark in marks):
        raise InputError(f"fold marks must lie in 1..{steps}")
    width = max(len(w) for w in words)
    largest = max((abs(letter) for w in words for letter in w), default=0)
    stride = 1
    if any(len(w) < width for w in words):
        stride, fresh = 2, largest + 1
        words = [
            [x for letter in w for x in (letter, letter)]
            + [fresh, -fresh] * (width - len(w))
            for w in words
        ]
        width, largest = 2 * width, fresh
    floor = -largest - 1
    # the smallest signed dtype in which every letter can also be negated,
    # and which holds the floor letter
    dtype = np.min_scalar_type(floor)
    table = np.array(words, dtype=dtype).T  # slot x atom
    row_size = 2 * (steps * width // 2 + 1)  # even, and room for every slot
    full = np.empty((walks + 1) * row_size, dtype=dtype)
    bases = np.arange(1, walks + 1) * row_size  # each walk's floor letter
    full[bases] = floor
    half = bases // 2
    tops = full[0::2]  # tops[half] is each walk's top letter, after s slots
    cancel = np.empty(walks, dtype=bool)
    wanted = set(marks)
    snapshots = {}
    s = 0
    for first in range(0, steps, _FOLD_BLOCK):
        block = np.ascontiguousarray(indices[:, first : first + _FOLD_BLOCK].T)
        letters = table[:, block]  # (slot, step, walk)
        negated = -letters
        for offset in range(len(block)):
            for slot in range(width):
                s += 1
                above = full[s::2]
                np.equal(tops[half], negated[slot, offset], out=cancel)
                above[half] = letters[slot, offset]
                half -= cancel
                tops = above
            step = first + offset + 1
            if step in wanted:
                length = (s + 2 * half - bases) // stride
                rows = full.reshape(walks + 1, row_size)[1:]
                kept = rows[:, 1 : 1 + stride * length.max(initial=0) : stride]
                if step < steps:  # later steps overwrite the stack
                    kept = kept.copy()
                snapshots[step] = (kept, length)
    return [snapshots[mark] for mark in marks]


# ---------------------------------------------------------------------------
# Sample paths.


@dataclass(frozen=True)
class SamplePath:
    """One trial's record: increments, displacement track, endpoints.

    ``displacements[j]`` is d(x, w_j x).  ``endpoints`` maps each mark m
    (the last step is always one) to the pair (w_m, w_m^-1); a mark past a
    truncation has none.  No other partial product is kept.  For the
    Cremona model w_m is the reversed word of the running inverse and its
    degree, and its coordinates are composed from the word on first read (a
    bad prime met then raises at the read and is not a retry of the walk).
    ``oracle`` is the oracle the walk ran on: a retried Cremona trial's
    model respawned at its fresh primes, after ``prime_retries`` pairs of
    the trial's retry stream.  ``truncated_at`` is the step at which the
    trial was cut short, if it was, and ``truncation_reason`` says why, as a
    truncated report row does: ``"degree_cap"`` when a composition passed
    the degree cap, or ``"discarded"`` when every attempt of
    :func:`at_trial_primes` met a bad prime (then ``truncated_at`` is 0 and
    ``oracle`` the measure's own).
    """

    seed: int
    trial: int
    n: int
    increment_indices: tuple[int, ...]
    displacements: tuple[float, ...]
    endpoints: dict
    oracle: object
    truncated_at: int | None = None
    truncation_reason: str | None = None
    prime_retries: int = 0

    @property
    def discarded(self) -> bool:
        return self.truncation_reason == "discarded"

    @property
    def final(self):
        return self.endpoints.get(self.n, (None, None))[0]


def sample_path(
    measure: FiniteMeasure, n: int, seed: int, trial: int, marks=()
) -> SamplePath:
    """Run one trial of n i.i.d. increments; deterministic in (seed, trial).

    The endpoints are kept at step n and at every step in ``marks``.

    The walk tracks only the running inverse, ``w_j^-1 = g_j^-1 o
    w_{j-1}^-1``, whose outer factor is a generator: the Cremona model
    composes that small-into-big cheaply.  The action is isometric, so
    d(x, w_j^-1 x) = d(x, w_j x) is the displacement track.  The whole walk
    is one attempt of :func:`at_trial_primes`: a bad prime at any step
    re-walks the trial at the next fresh primes, and a model without
    coefficient primes walks once.
    """
    if n < 0:
        raise InputError("path length must be >= 0")
    marks = {*marks, n}
    if any(not 0 <= mark <= n for mark in marks):
        raise InputError(f"path marks must lie in 0..{n}")
    indices = measure.increment_indices(n, seed, trial)

    def walk(model, rebuild):
        # rebuilding the atoms composes at the trial's primes too, so a bad
        # prime there counts as an attempt
        inverses = [rebuild(a.inverse) for a in measure.atoms]
        displacements = [0.0]
        endpoints = {}
        inverse = model.identity()
        for step, index in enumerate(indices):
            if step in marks:
                endpoints[step] = (model.inverse(inverse), inverse)
            try:
                inverse = model.multiply(inverses[index], inverse)
            except ResourceError:
                return displacements, endpoints, step, "degree_cap"
            displacements.append(model.displacement(inverse))
        endpoints[n] = (model.inverse(inverse), inverse)
        return displacements, endpoints, None, None

    walked = at_trial_primes(measure.oracle, seed, trial, walk)
    if walked is None:  # every attempt met a bad prime
        walked = ([0.0], {}, 0, "discarded"), measure.oracle, MAX_BAD_PRIME_ATTEMPTS
    (displacements, endpoints, truncated_at, reason), model, retries = walked
    return SamplePath(
        seed=seed,
        trial=trial,
        n=n,
        increment_indices=tuple(int(i) for i in indices),
        displacements=tuple(displacements),
        endpoints=endpoints,
        oracle=model,
        truncated_at=truncated_at,
        truncation_reason=reason,
        prime_retries=retries,
    )
