"""Exception types shared across the library, and the one integer check.

The split mirrors how callers are expected to react: ``InputError`` means the
caller passed something malformed and should fix it (``ParamError``, when it
is one named argument: of an experiment's entry point, or of the model,
generator or measure constructor that takes it), ``ResourceError`` means a
configured budget (degree cap, census cap) was exhausted, and
``BadPrimeSignal`` asks a trial runner to retry at fresh primes.
"""

from __future__ import annotations


class InputError(ValueError):
    """Malformed argument: broken metric oracle, bad generator index, etc."""


class ParamError(InputError):
    """A bad named argument: the message is ``<name>: <reason>``, and a
    config run names the field ``$.params.<name>``, ``$.model...<name>`` or
    ``$.measure...<name>``."""

    def __init__(self, name: str, reason: str):
        super().__init__(f"{name}: {reason}")


def is_int(value, least: int | None = None) -> bool:
    """An ``int`` that is not a ``bool`` (JSON ``true`` and ``false`` load as
    bools), and at least ``least`` when that is given."""
    exact = isinstance(value, int) and not isinstance(value, bool)
    return exact and (least is None or value >= least)


def check_int(name: str, value, least: int | None = None) -> None:
    """Raise ``ParamError(name, ...)`` unless :func:`is_int` holds."""
    if not is_int(value, least):
        bound = "" if least is None else f" >= {least}"
        raise ParamError(name, f"must be an integer{bound}")


class ResourceError(RuntimeError):
    """A configured cap was hit."""


class BadPrimeSignal(RuntimeError):
    """Internal retry signal: modular arithmetic hit an unlucky prime.

    Raised when a composed coordinate triple collapses to zero mod p, or when
    two coefficient primes disagree about a degree.  Trial runners catch this
    and recompute the trial at fresh primes.
    """
