"""Seedable random walks over any isometric-action oracle.

Determinism contract: a path is a pure function of ``(measure, n, seed,
trial)``.  Each trial owns a counter-based Philox stream keyed by
``[seed, trial]`` (the scheme is part of the external contract, since
reports embed seeds), so identical inputs give bit-identical paths no matter
how trials are scheduled.  Sampling from the finite measure goes through an
alias table built from the exact rational weights; the acceptance draw
compares integers, never floats.

Increment draws consume the stream as one vectorized block, so the batched
tree fold (:func:`fold_words`, which reduces many walks' words together) and
full path construction (:func:`sample_path`, which multiplies through the
oracle) see the same increments.

Bad coefficient primes in the Cremona model (zero collapse or cross-prime
degree disagreement) trigger a deterministic retry: fresh 31-bit primes are
drawn from a salted stream keyed by the same ``(seed, trial)``; after three
failed attempts the trial is recorded as discarded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cremona import CremonaModel
from .errors import BadPrimeSignal, InputError, ResourceError
from .freegroup import SemidirectOracle
from .geometry import ActionOracle, gromov_product
from .polynomials import fresh_prime

#: Salt for the prime-retry stream; documented as part of the RNG contract.
RETRY_SALT = 0xB5049E59F55AD7A3

MAX_BAD_PRIME_ATTEMPTS = 3


def trial_rng(seed: int, trial: int) -> np.random.Generator:
    """The per-trial generator: Philox keyed by [seed, trial]."""
    if not (0 <= seed < 2**64 and 0 <= trial < 2**64):
        raise InputError("seed and trial index must be unsigned 64-bit integers")
    return np.random.Generator(np.random.Philox(key=[seed, trial]))


def retry_primes(seed: int, trial: int):
    """The fresh prime pairs of a trial's retry stream, in draw order.

    The walk respawns at the first pairs; the dynamical-degree estimate of
    :func:`~hypwalk.experiments.degree_growth_experiment` continues past them.
    """
    stream = np.random.Generator(np.random.Philox(key=[seed ^ RETRY_SALT, trial]))
    while True:
        yield fresh_prime(stream), fresh_prime(stream)


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

    Weights are exact rationals summing to one.  The ``symmetric`` and
    ``reversible`` flags are computed from the support (closure under
    inverses, with or without matching weights); non-elementarity and the
    presence of a WPD element in the generated semigroup are user
    attestations, not computations.
    """

    def __init__(
        self,
        oracle: ActionOracle,
        atoms,
        attest_non_elementary: bool = False,
        attest_wpd: bool = False,
    ):
        built = []
        total = Fraction(0)
        for tag, element, weight in atoms:
            weight = Fraction(weight)
            if weight <= 0:
                raise InputError(f"weight of atom {tag!r} must be positive")
            total += weight
            built.append(MeasureAtom(tag, element, weight, oracle.inverse(element)))
        if total != 1:
            raise InputError(f"weights must sum to 1 exactly, got {total}")
        if not built:
            raise InputError("measure needs at least one atom")
        self.oracle = oracle
        self.atoms = tuple(built)
        self.attest_non_elementary = attest_non_elementary
        self.attest_wpd = attest_wpd
        self.bounded_displacement = max(
            oracle.displacement(a.element) for a in self.atoms
        )
        self.symmetric = self._closed_under_inverses(match_weights=True)
        self.reversible = self._closed_under_inverses(match_weights=False)
        self._alias = _build_alias([a.weight for a in self.atoms])

    def _closed_under_inverses(self, match_weights: bool) -> bool:
        for atom in self.atoms:
            partner = [b for b in self.atoms if b.element == atom.inverse]
            if not partner:
                return False
            if match_weights and partner[0].weight != atom.weight:
                return False
        return True

    def __len__(self):
        return len(self.atoms)

    def increment_indices(self, n: int, seed: int, trial: int) -> np.ndarray:
        """The trial's first n atom indices: the only consumer of the trial
        stream, shared verbatim by every path-building code path."""
        rng = trial_rng(seed, trial)
        buckets = rng.integers(0, len(self.atoms), size=n)
        draws = rng.integers(0, self._alias.scale, size=n)
        return self._alias.pick(buckets, draws)


@dataclass(frozen=True)
class _AliasTable:
    thresholds: np.ndarray  # int64 per bucket, out of `scale`
    aliases: np.ndarray
    scale: int

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
    )


# ---------------------------------------------------------------------------
# The batched tree fold.


def fold_words(measure: FiniteMeasure, indices: np.ndarray, marks) -> list:
    """Freely reduce many tree walks at once, with snapshots at marks.

    ``indices`` is a (walks x steps) array of atom indices.  Returns one
    ``(stack, length)`` pair per mark: walk r's reduced word after ``mark``
    increments is ``stack[r, :length[r]]``.  Every walk advances one letter
    column at a time, cancelling where its top letter is the inverse of the
    new one and pushing otherwise; atoms shorter than the longest are padded
    with the no-op letter 0.  The semidirect model folds its word coordinate.
    """
    semidirect = isinstance(measure.oracle, SemidirectOracle)
    words = [a.element.word if semidirect else a.element for a in measure.atoms]
    walks, steps = indices.shape
    if any(not 1 <= mark <= steps for mark in marks):
        raise InputError(f"fold marks must lie in 1..{steps}")
    width = max(len(w) for w in words)
    largest = max((abs(letter) for w in words for letter in w), default=0)
    # the smallest signed dtype in which every letter can also be negated
    dtype = np.min_scalar_type(-largest - 1)
    table = np.zeros((len(words), width), dtype=dtype)
    for row, w in enumerate(words):
        table[row, : len(w)] = w
    stack = np.zeros((walks, steps * width), dtype=dtype)
    length = np.zeros(walks, dtype=np.intp)
    rows = np.arange(walks)
    wanted = set(marks)
    snapshots = {}
    for step in range(steps):
        for letter in table[indices[:, step]].T:
            cancel = (length > 0) & (stack[rows, length - 1] == -letter)
            # a write at `length` lands above the top, so cancels and the
            # padding letter leave the word unchanged
            stack[rows, length] = letter
            length += (letter != 0) & ~cancel
            length -= cancel
        if step + 1 in wanted:
            kept = stack[:, : length.max(initial=0)]
            if step + 1 < steps:  # later steps overwrite the stack
                kept = kept.copy()
            snapshots[step + 1] = (kept, length.copy())
    return [snapshots[mark] for mark in marks]


# ---------------------------------------------------------------------------
# Sample paths.


class _CremonaAccumulator:
    """Tracks the inverse map, which composes small-into-big cheaply.

    ``w_j = w_{j-1} g_j`` turns into ``w_j^-1 = g_j^-1 o w_{j-1}^-1`` where
    the outer factor is a generator: exactly the fast direction for
    coordinate substitution.  Degrees of a map and its inverse agree (the
    displacement d(x, w x) = d(x, w^-1 x) is an isometry identity), so the
    displacement track needs nothing else.
    """

    def __init__(self, oracle: CremonaModel):
        self.oracle = oracle
        self.inverse_current = oracle.identity()

    def push(self, atom: MeasureAtom):
        self.inverse_current = self.oracle.multiply(atom.inverse, self.inverse_current)

    def displacement(self) -> float:
        return math.acosh(self.inverse_current.degree)

    def element(self):
        return self.oracle.inverse(self.inverse_current)

    def inverse_element(self):
        return self.inverse_current


@dataclass(frozen=True)
class SamplePath:
    """One trial's record: increments, displacement track, products.

    ``products`` holds every partial product for the tree models (cheap
    words); the Cremona model keeps only the final map and its inverse, per
    the memory policy for large elements.  ``truncated_at`` is the step at
    which a resource cap aborted the trial, if any.
    """

    seed: int
    trial: int
    n: int
    reflected: bool
    increment_indices: tuple[int, ...]
    displacements: tuple[float, ...]
    products: tuple | None
    final: object | None
    final_inverse: object | None
    truncated_at: int | None = None
    truncation_reason: str | None = None
    prime_retries: int = 0
    discarded: bool = False

    @property
    def final_displacement(self) -> float:
        return self.displacements[-1]


def sample_path(
    measure: FiniteMeasure,
    n: int,
    seed: int,
    trial: int,
    reflected: bool = False,
) -> SamplePath:
    """Run one trial of n i.i.d. increments; deterministic in (seed, trial)."""
    if n < 0:
        raise InputError("path length must be >= 0")
    oracle = measure.oracle
    indices = measure.increment_indices(n, seed, trial)
    if isinstance(oracle, CremonaModel):
        return _cremona_path(measure, indices, seed, trial, reflected)

    current = oracle.identity()
    displacements = [0.0]
    products = [current]
    for index in indices:
        atom = measure.atoms[index]
        current = oracle.multiply(current, atom.inverse if reflected else atom.element)
        displacements.append(oracle.displacement(current))
        products.append(current)
    return SamplePath(
        seed=seed,
        trial=trial,
        n=n,
        reflected=reflected,
        increment_indices=tuple(int(i) for i in indices),
        displacements=tuple(displacements),
        products=tuple(products),
        final=current,
        final_inverse=oracle.inverse(current),
    )


def reflected_path(measure: FiniteMeasure, n: int, seed: int, trial: int) -> SamplePath:
    """A path of the reflected measure (each increment inverted)."""
    return sample_path(measure, n, seed, trial, reflected=True)


def _cremona_path(measure, indices, seed, trial, reflected) -> SamplePath:
    base_model: CremonaModel = measure.oracle
    fresh = retry_primes(seed, trial)
    retries = 0
    model = base_model
    atoms = measure.atoms
    while True:
        displacements = [0.0]
        truncated_at = None
        reason = None
        final = None
        final_inverse = None
        # rebuilding the atoms and inverting the endpoint compose at the
        # trial's primes too, so a bad prime there counts as an attempt
        try:
            if retries > 0:
                model = base_model.respawn(next(fresh))
                atoms = tuple(
                    MeasureAtom(
                        a.tag,
                        model.rebuild(a.element),
                        a.weight,
                        model.rebuild(a.inverse),
                    )
                    for a in measure.atoms
                )
            acc = _CremonaAccumulator(model)
            for step, index in enumerate(indices):
                atom = atoms[index]
                if reflected:
                    atom = MeasureAtom(atom.tag, atom.inverse, atom.weight, atom.element)
                try:
                    acc.push(atom)
                except ResourceError as err:
                    truncated_at = step
                    reason = str(err)
                    break
                displacements.append(acc.displacement())
            if truncated_at is None:
                final_inverse = acc.inverse_element()
                try:
                    final = model.inverse(final_inverse)
                except ResourceError:
                    final = None  # suffix products can exceed the cap; keep inverse
        except BadPrimeSignal:
            retries += 1
            if retries < MAX_BAD_PRIME_ATTEMPTS:
                continue
            return SamplePath(
                seed=seed,
                trial=trial,
                n=len(indices),
                reflected=reflected,
                increment_indices=tuple(int(i) for i in indices),
                displacements=(0.0,),
                products=None,
                final=None,
                final_inverse=None,
                truncated_at=0,
                truncation_reason="bad primes exhausted retries",
                prime_retries=retries,
                discarded=True,
            )
        return SamplePath(
            seed=seed,
            trial=trial,
            n=len(indices),
            reflected=reflected,
            increment_indices=tuple(int(i) for i in indices),
            displacements=tuple(displacements),
            products=None,
            final=final,
            final_inverse=final_inverse,
            truncated_at=truncated_at,
            truncation_reason=reason,
            prime_retries=retries,
        )


# ---------------------------------------------------------------------------
# Observables.


def path_observables(measure: FiniteMeasure, path: SamplePath, requests) -> dict:
    """Evaluate observable requests against a stored path.

    Requests: ``("d", i)`` for d(x, w_i x); ``("gp", i, j)`` for the Gromov
    product of w_i x and w_j x at the basepoint; ``("sym_gp",)`` for the
    product of w_n x and w_n^-1 x; ``("tau", budget)`` for the translation
    length of the endpoint.
    """
    oracle = measure.oracle
    out = {}
    for request in requests:
        kind = request[0]
        if kind == "d":
            _, i = request
            if not (0 <= i < len(path.displacements)):
                raise InputError(f"step {i} outside recorded range")
            out[request] = path.displacements[i]
        elif kind == "gp":
            _, i, j = request
            if path.products is None:
                raise InputError("pairwise products were not retained")
            wi, wj = path.products[i], path.products[j]
            out[request] = gromov_product(
                path.displacements[i],
                path.displacements[j],
                oracle.pairwise_distance(wi, wj),
            )
        elif kind == "sym_gp":
            w, winv = path.final, path.final_inverse
            if w is None or winv is None:
                raise InputError("endpoint unavailable (truncated trial)")
            out[request] = gromov_product(
                path.final_displacement,
                oracle.displacement(winv),
                oracle.pairwise_distance(w, winv),
            )
        elif kind == "tau":
            _, budget = request
            if path.final is None:
                raise InputError("endpoint unavailable (truncated trial)")
            out[request] = oracle.translation_length_estimate(path.final, budget)
        else:
            raise InputError(f"unknown observable request {request!r}")
    return out
