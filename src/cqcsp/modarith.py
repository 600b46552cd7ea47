"""Modular sumset arithmetic: the walk-endpoint sets on cycles whose sizes
the universal-path and even-cycle gadget arguments rest on.  No decider or
reducer imports it; it is exported for the tests and the sumset demo.

Residue sets are bitmasks over the modulus; negative inputs are reduced on
construction.
"""

from __future__ import annotations

from .model import Record


class ResidueSet(Record):
    """A set of residues modulo ``modulus`` (stored as a bitmask)."""

    _fields = ("modulus", "bits")

    def __init__(self, modulus: int, bits: int) -> None:
        object.__setattr__(self, "modulus", modulus)
        object.__setattr__(self, "bits", bits)
        if self.modulus < 1:
            raise ValueError("modulus must be >= 1")
        if self.bits < 0 or self.bits >> self.modulus:
            raise ValueError("bitmask out of range for modulus")

    @classmethod
    def of(cls, modulus: int, elements: Iterable[int]) -> "ResidueSet":
        bits = 0
        for e in elements:
            bits |= 1 << (e % modulus)
        return cls(modulus, bits)

    def elements(self) -> tuple[int, ...]:
        return tuple(i for i in range(self.modulus) if self.bits >> i & 1)

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, value: int) -> bool:
        return bool(self.bits >> (value % self.modulus) & 1)

    def __str__(self) -> str:
        return "{" + ",".join(str(e) for e in self.elements()) + "} mod " + str(self.modulus)


def sumset_mod(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Elementwise modular sums {(x + y) mod n : x in a, y in b}."""
    if a.modulus != b.modulus:
        raise ValueError("modulus mismatch")
    n = a.modulus
    mask = (1 << n) - 1
    out = 0
    bits = a.bits
    while bits:
        low = bits & -bits
        bits ^= low
        shift = low.bit_length() - 1
        rotated = ((b.bits << shift) | (b.bits >> (n - shift))) & mask if shift else b.bits
        out |= rotated
    return ResidueSet(n, out)


def iterated_sumset(j: int, a: ResidueSet) -> ResidueSet:
    """The j-fold sumset a + a + ... + a (j >= 1 copies)."""
    if j < 1:
        raise ValueError("iterated sumset needs j >= 1")
    acc = a
    for _ in range(j - 1):
        acc = sumset_mod(acc, a)
    return acc


def reachable_by_walk(n: int, length: int, start: int) -> ResidueSet:
    """Endpoints of walks of the given length in the n-cycle from ``start``."""
    if n < 3:
        raise ValueError("cycle walks need n >= 3")
    if length < 0:
        raise ValueError("walk length must be >= 0")
    if length == 0:
        return ResidueSet.of(n, [start])
    steps = ResidueSet.of(n, [-1, 1])
    return sumset_mod(iterated_sumset(length, steps), ResidueSet.of(n, [start]))
