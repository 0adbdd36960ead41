"""Finite groups given by Cayley tables, their automorphisms, and the
characteristic index of a measure.

The finite group plays the role of the elliptic kernel sitting inside the
elementary closure of a generic loxodromic element.  Free generators act on
it through automorphisms; the order of the subgroup of ``Aut`` generated by
the letters appearing in a measure controls how often the image of the walk
in ``Aut`` is trivial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InputError, ParamError, check_int


class FiniteGroup:
    """A finite group on elements ``0..order-1`` with an explicit table.

    Element ``0`` is the identity.
    """

    def __init__(self, table: tuple[tuple[int, ...], ...], name: str = ""):
        order = len(table)
        for row in table:
            if len(row) != order or any(not (0 <= v < order) for v in row):
                raise InputError("multiplication table is not square over 0..order-1")
        if any(table[0][j] != j or table[j][0] != j for j in range(order)):
            raise InputError("element 0 must be the identity")
        self.table = table
        self.order = order
        self.name = name or f"group of order {order}"
        self._inverse = [0] * order
        for g in range(order):
            for h in range(order):
                if table[g][h] == 0:
                    self._inverse[g] = h
                    break
            else:
                raise InputError(f"element {g} has no inverse; not a group table")

    def mul(self, g: int, h: int) -> int:
        return self.table[g][h]

    def inv(self, g: int) -> int:
        return self._inverse[g]

    def is_abelian(self) -> bool:
        n = self.order
        return all(
            self.table[g][h] == self.table[h][g] for g in range(n) for h in range(n)
        )

    def __repr__(self):
        return f"FiniteGroup({self.name})"

    # -- constructors ------------------------------------------------------

    @staticmethod
    def cyclic(order: int) -> "FiniteGroup":
        check_int("order", order, 1)
        table = tuple(tuple((i + j) % order for j in range(order)) for i in range(order))
        return FiniteGroup(table, name=f"Z/{order}")


@dataclass(frozen=True)
class Automorphism:
    """An automorphism of a ``FiniteGroup`` stored as an image tuple."""

    images: tuple[int, ...]

    def __call__(self, g: int) -> int:
        return self.images[g]

    def compose(self, other: "Automorphism") -> "Automorphism":
        """self after other: (self . other)(g) = self(other(g))."""
        return Automorphism(tuple(self.images[v] for v in other.images))

    def inverse(self) -> "Automorphism":
        inv = [0] * len(self.images)
        for src, dst in enumerate(self.images):
            inv[dst] = src
        return Automorphism(tuple(inv))

    @staticmethod
    def identity(group: FiniteGroup) -> "Automorphism":
        return Automorphism(tuple(range(group.order)))


def check_automorphism(group: FiniteGroup, phi: Automorphism) -> None:
    """Raise unless ``phi`` is a bijective homomorphism of ``group``."""
    n = group.order
    if len(phi.images) != n or sorted(phi.images) != list(range(n)):
        raise InputError("map is not a bijection of the group elements")
    if phi.images[0] != 0:
        raise InputError("map does not fix the identity")
    for g in range(n):
        for h in range(n):
            if phi(group.mul(g, h)) != group.mul(phi(g), phi(h)):
                raise InputError("map is not a homomorphism")


def inner_automorphism(group: FiniteGroup, a: int) -> Automorphism:
    """Conjugation k -> a k a^-1."""
    ainv = group.inv(a)
    return Automorphism(
        tuple(group.mul(group.mul(a, k), ainv) for k in range(group.order))
    )


def cyclic_automorphism(m: int, value: int) -> Automorphism:
    """x -> value * x on Z/m; value must be a unit mod m."""
    from math import gcd

    check_int("value", value)
    if gcd(value, m) != 1:
        raise ParamError("value", f"{value} is not a unit modulo {m}")
    return Automorphism(tuple((value * x) % m for x in range(m)))


def closure(
    generators: list[Automorphism], group: FiniteGroup
) -> list[tuple[int, ...]]:
    """The subgroup of Aut generated by the given automorphisms, as image
    tuples: the identity first, then the breadth-first closure under
    composition with the generators (in a finite group the inverses are
    powers, so they add nothing).  Every generator is validated first.
    """
    for phi in generators:
        check_automorphism(group, phi)
    identity = tuple(range(group.order))
    elements, seen, frontier = [identity], {identity}, [identity]
    while frontier:
        nxt = []
        for images in frontier:
            for phi in generators:
                composed = tuple(phi.images[v] for v in images)
                if composed not in seen:
                    seen.add(composed)
                    nxt.append(composed)
        elements += nxt
        frontier = nxt
    return elements
