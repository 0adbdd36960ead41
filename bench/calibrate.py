"""A fixed computation that tells how fast this machine runs right now.

On a shared host other tenants' load slows a pass by up to 1.8x, for
stretches of tens of seconds, longer than a short run's quiet windows.  The
benchmark times this computation before and after every pass and set-up and
scales each by ``REFERENCE_S / calibration``: the time the pass would have
taken at the speed at which the calibration takes ``REFERENCE_S``.  Load
that slows the pass slows the calibration next to it about as much, so the
scaled times move far less than the raw ones.  The computation uses neither
``hypwalk`` nor its data, so no change to the program changes it; it mixes
interpreter work (dict and integer operations) and numpy int64 array work,
as the program does.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: A fixed scale: scaled times read as seconds at the speed at which the
#: calibration takes this long.  On the 2-core machine described in
#: reference.json the calibration took 0.07-0.14 s, 0.1 s typically.
REFERENCE_S = 0.1

_PRIME = 1_000_003
_LOOP = 250_000
_ROUNDS = 6
_LENGTH = 3000


def calibrate() -> float:
    """Seconds one run of the fixed computation takes now."""
    start = perf_counter()
    table: dict[int, int] = {}
    for i in range(_LOOP):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
    values = np.arange(1, _LENGTH + 1, dtype=np.int64)
    for _ in range(_ROUNDS):
        product = np.convolve(values % 1024, values[::-1] % 1024) % _PRIME
        values = (values * 31 + product[:_LENGTH]) % _PRIME
    return perf_counter() - start
