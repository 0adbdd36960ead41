"""Exception types shared across the library.

The split mirrors how callers are expected to react: ``InputError`` means the
caller passed something malformed and should fix it (``ParamError``, when it
is one named argument of an experiment), ``ResourceError`` means a
configured budget (degree cap, census cap) was exhausted, and
``BadPrimeSignal`` asks a trial runner to retry at fresh primes.  The one
partial result a ``ResourceError`` carries is the ``degree_sequence`` of a
Cremona power iteration that the degree cap cut short.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed argument: broken metric oracle, bad generator index, etc."""


class ParamError(InputError):
    """A bad argument of an experiment's entry point: the message is
    ``<name>: <reason>``, and a config run names the field ``$.params.<name>``."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name}: {reason}")


class ResourceError(RuntimeError):
    """A configured cap was hit.  ``payload``, when set, holds partial results."""

    def __init__(self, message: str, payload=None):
        super().__init__(message)
        self.payload = payload


class BadPrimeSignal(RuntimeError):
    """Internal retry signal: modular arithmetic hit an unlucky prime.

    Raised when a composed coordinate triple collapses to zero mod p, or when
    two coefficient primes disagree about a degree.  Trial runners catch this
    and recompute the trial at fresh primes.
    """

    def __init__(self, message: str, prime: int | None = None):
        super().__init__(message)
        self.prime = prime
