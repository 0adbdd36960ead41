"""A canary for the numpy draws under every report.

Each report is a function of ``Generator.integers`` draws on Philox
streams.  NumPy keeps a BitGenerator's stream across versions, but not the
algorithms of ``Generator`` methods (NEP 19), so a numpy upgrade could
change every preset digest at once.  These tests pin the sha256 of the
first draws of each ``integers`` call the library makes, so such a change
names its cause instead.
"""

import hashlib
import itertools
from fractions import Fraction

import numpy as np
import pytest

from hypwalk import walk
from hypwalk.experiments import _fixed_test_pattern
from hypwalk.freegroup import FreeGroupOracle
from hypwalk.walk import FiniteMeasure, trial_rng


def _uniform(rank):
    letters = [(s * g,) for g in range(1, rank + 1) for s in (1, -1)]
    weight = Fraction(1, 2 * rank)
    return FiniteMeasure(FreeGroupOracle(rank), [(str(w), w, weight) for w in letters])


def _skewed_f2():
    weights = [Fraction(2, 5), Fraction(1, 10), Fraction(3, 10), Fraction(1, 5)]
    letters = [(1,), (-1,), (2,), (-2,)]
    return FiniteMeasure(
        FreeGroupOracle(2), [(str(w), w, p) for w, p in zip(letters, weights)]
    )


# name -> (the draws, their pinned sha256), recorded at numpy 2.4.6
STREAMS = {
    # the bucket draw of increment_indices, at the presets' atom counts
    "buckets k=4, drift-f2 trial 0": (
        lambda: trial_rng(20260801, 0).integers(0, 4, size=2000),
        "a935ac40205db58e630188c1b881a025f49e42df1738813dbef34094e1d24465",
    ),
    "buckets k=4, char-index-z3 trial 7": (
        lambda: trial_rng(20260809, 7).integers(0, 4, size=1000),
        "26b2e89ac92701664b6264a073f0e84d12e73d239d6d094e3a6d866da0fd44b0",
    ),
    "buckets k=1, degree-growth-henon trial 3": (
        lambda: trial_rng(20260810, 3).integers(0, 1, size=8),
        "705c7f7f6bcd1c8298551ada5ed8cd0a445347e05702ba5a39ecce9600ac5a2c",
    ),
    # the two-draw alias pick: bucket draws, then acceptance draws
    "alias pick, skewed F2 measure": (
        lambda: _skewed_f2().increment_indices(500, 5, 11),
        "2e735d08f9ee52d4aa1edb96ffddf2c5a949c1d3ac7d7db15935cf3516922fba",
    ),
    # fresh_prime's scalar draws on the retry stream, keyed by the exact
    # unsigned 64-bit seed ^ RETRY_SALT
    "retry primes, degree-growth-cremona trial 0": (
        lambda: itertools.chain(*itertools.islice(walk.retry_primes(20260810, 0), 3)),
        "73f0814f683c2d9710689a420940c7ac5196a7cc20de47d767c5c893b6ff6b5d",
    ),
    "retry primes, degree-growth-cremona trial 41": (
        lambda: itertools.chain(*itertools.islice(walk.retry_primes(20260810, 41), 3)),
        "09eb527cb1a23b4e0dafc571e4a097f977bb4c27dbe8b6cdf0f6c39d04bc7533",
    ),
    # the scalar letter and sign draws of the match-non test pattern
    "test pattern, rank 2": (
        lambda: _fixed_test_pattern(_uniform(2), 30, 20260805),
        "6e3fbc5aae3584bf00ba615509ce127ed6af5c2550a6bbd7e4cf070c88755c5d",
    ),
    "test pattern, rank 3": (
        lambda: _fixed_test_pattern(_uniform(3), 30, 20260805),
        "f4017f7d6e195e498bd0ddc175f959f7d7bb65119ad5065c1ddebc498e939eb9",
    ),
}


def _digest(values) -> str:
    return hashlib.sha256(",".join(map(str, values)).encode()).hexdigest()


@pytest.mark.parametrize("name", STREAMS)
def test_numpy_draws_are_the_pinned_stream(name):
    draw, pinned = STREAMS[name]
    assert _digest(draw()) == pinned, (
        f"numpy {np.__version__}: {name} no longer draws the pinned stream. "
        "NEP 19 keeps a BitGenerator's stream across numpy versions, but not "
        "the algorithms of Generator methods such as integers; every report "
        "digest rests on these draws."
    )
