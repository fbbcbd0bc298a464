"""Seeded random generators for states, letters and group-like elements.

Both the test suite and the CLI verification suites draw from these, so a
seed pins down every randomized check end to end.
"""

from __future__ import annotations

import random
from fractions import Fraction

from tauforge.fock import Letter
from tauforge.grouplike import (
    Diagonal,
    ExponentBilinear,
    LinearWord,
    ModeMatrix,
    NormalOrderedBilinear,
    Product,
    ProjectorElement,
    SolitonExponent,
)
from tauforge.partitions import Partition, enumerate_partitions


def rational(rng: random.Random, num: int = 5, den: int = 4) -> Fraction:
    return Fraction(rng.randint(-num, num), rng.randint(1, den))


def nonzero_rational(rng: random.Random, num: int = 5, den: int = 4) -> Fraction:
    while True:
        x = rational(rng, num, den)
        if x != 0:
            return x


def sample_shape(rng: random.Random, weight: int) -> Partition:
    return rng.choice(enumerate_partitions(weight))


def sample_states(rng, count: int, charges=(-1, 0, 1), weight: int = 3):
    return [(rng.choice(charges), sample_shape(rng, weight)) for _ in range(count)]


def sample_letter(rng: random.Random, kind: str, lo: int = -4, hi: int = 4) -> Letter:
    return tuple(
        (nonzero_rational(rng, 3, 2), kind, rng.randint(lo, hi)) for _ in range(rng.randint(1, 3))
    )


def banded_matrix(
    rng: random.Random, size: int = 4, band: int = 2, lo: int = -3
) -> ModeMatrix:
    """A size x size sparse matrix on contiguous modes with limited band."""
    entries = {}
    modes = list(range(lo, lo + size))
    for i in modes:
        for k in modes:
            if abs(i - k) <= band and rng.random() < 0.7:
                c = rational(rng, 3, 2)
                if c:
                    entries[(i, k)] = c
    return ModeMatrix(entries)


def nilpotent_matrix(rng: random.Random, size: int = 3, lo: int = -2) -> ModeMatrix:
    """Strictly lower-triangular in mode order, hence nilpotent."""
    entries = {}
    modes = list(range(lo, lo + size))
    for ai, i in enumerate(modes):
        for ak, k in enumerate(modes):
            if ai < ak and rng.random() < 0.8:
                c = rational(rng, 3, 2)
                if c:
                    entries[(i, k)] = c
    return ModeMatrix(entries)


def sample_exponent_bilinear(rng: random.Random) -> ExponentBilinear:
    return ExponentBilinear(nilpotent_matrix(rng, size=rng.choice((2, 3, 4))))


def sample_bare_bilinear(rng: random.Random, size: int = 4) -> NormalOrderedBilinear:
    return NormalOrderedBilinear(banded_matrix(rng, size=size), ordering=None)


def sample_vacuum_bilinear(rng: random.Random, n: int = 0) -> NormalOrderedBilinear:
    return NormalOrderedBilinear(banded_matrix(rng, size=4), ordering=n)


def sample_linear_word(rng: random.Random, net_charge: int = 0) -> LinearWord:
    kinds = ["psi"] * max(net_charge, 0) + ["psi*"] * max(-net_charge, 0)
    extra = rng.randint(0, 1)
    kinds += ["psi", "psi*"] * extra
    rng.shuffle(kinds)
    return LinearWord(tuple(sample_letter(rng, kind) for kind in kinds))


def sample_diagonal(rng: random.Random, span: int = 4, ordered: bool = True) -> Diagonal:
    mults = []
    for j in range(-span, span + 1):
        if rng.random() < 0.6:
            mults.append((j, nonzero_rational(rng, 4, 3)))
    return Diagonal(tuple(mults), ordered=ordered)


def sample_soliton(rng: random.Random, size: int = 2) -> SolitonExponent:
    points: list[Fraction] = []
    while len(points) < 2 * size:
        cand = Fraction(rng.randint(1, 9), rng.randint(10, 14))
        if cand not in points:
            points.append(cand)
    ps, qs = points[:size], points[size:]
    rows = tuple(
        tuple(rational(rng, 3, 2) for _ in range(size)) for _ in range(size)
    )
    return SolitonExponent(tuple(ps), tuple(qs), rows)


def sample_element(rng: random.Random, allow_products: bool = True):
    pick = rng.randrange(6 if allow_products else 5)
    if pick == 0:
        return sample_exponent_bilinear(rng)
    if pick == 1:
        return sample_bare_bilinear(rng)
    if pick == 2:
        return sample_vacuum_bilinear(rng)
    if pick == 3:
        return sample_diagonal(rng)
    if pick == 4:
        return sample_linear_word(rng, net_charge=rng.choice((-1, 0, 1)))
    return Product(
        (sample_exponent_bilinear(rng), ProjectorElement("plus", rng.choice((-2, -1, 0))))
    )


def sample_quadruples(rng, count: int, charges=(-1, 0, 1), weight: int = 2):
    quads = []
    for _ in range(count):
        quads.append(
            (
                (rng.choice(charges), sample_shape(rng, weight)),
                (rng.choice(charges), sample_shape(rng, weight)),
                (rng.choice(charges), sample_shape(rng, weight)),
                (rng.choice(charges), sample_shape(rng, weight)),
            )
        )
    return quads
