"""Young-diagram combinatorics.

Partitions are immutable weakly-decreasing tuples of positive integers.
Rows and columns are 1-indexed; mode indices on the Maya axis are plain
(possibly negative) integers.  The charge-n Maya set of a shape is
``{n + part_i - i : i >= 1}`` with zero parts padded in, i.e. a Dirac sea
deformed near its surface.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple


class Partition:
    """A Young diagram; the empty diagram is ``Partition([])``."""

    __slots__ = ("_parts",)

    def __init__(self, parts: Iterable[int] = ()):
        cleaned = []
        prev = None
        for p in parts:
            p = int(p)
            if p == 0:
                continue  # zero parts are padding, normalized away
            if p < 0:
                raise ValueError(f"negative part {p}")
            if prev is not None and p > prev:
                raise ValueError(f"parts not weakly decreasing: {list(parts)}")
            cleaned.append(p)
            prev = p
        self._parts = tuple(cleaned)

    @property
    def parts(self) -> tuple[int, ...]:
        return self._parts

    @property
    def weight(self) -> int:
        return sum(self._parts)

    @property
    def length(self) -> int:
        return len(self._parts)

    def part(self, i: int) -> int:
        """Row length, 1-indexed, 0 beyond the last row."""
        if i < 1:
            raise IndexError("rows are 1-indexed")
        return self._parts[i - 1] if i <= len(self._parts) else 0

    def col(self, j: int) -> int:
        """Column height, 1-indexed, 0 beyond the last column."""
        if j < 1:
            raise IndexError("columns are 1-indexed")
        return sum(1 for p in self._parts if p >= j)

    def transpose(self) -> "Partition":
        if not self._parts:
            return Partition()
        return Partition(self.col(j) for j in range(1, self._parts[0] + 1))

    def contains(self, other: "Partition") -> bool:
        return all(self.part(i) >= p for i, p in enumerate(other.parts, start=1))

    @property
    def diagonal_size(self) -> int:
        return sum(1 for i, p in enumerate(self._parts, start=1) if p >= i)

    def frobenius(self) -> "FrobeniusCoordinates":
        """Arms lambda_i - i and legs lambda'_i - i over the diagonal, read
        off the parts in one pass: the rows on the diagonal give the arms,
        and one pointer walking up from the last row gives each column
        height lambda'_i, which only falls as i grows."""
        parts = self._parts
        alphas = []
        for i, p in enumerate(parts, start=1):
            if p < i:
                break
            alphas.append(p - i)
        betas, rows = [], len(parts)
        for i in range(1, len(alphas) + 1):
            while parts[rows - 1] < i:
                rows -= 1
            betas.append(rows - i)
        return FrobeniusCoordinates(tuple(alphas), tuple(betas))

    def sign_exponent(self) -> int:
        """The shape's sign exponent; see `sign_exponent`."""
        return sign_exponent(self._parts)

    def hook_length(self, i: int, j: int) -> int:
        if not (1 <= i <= self.length and 1 <= j <= self.part(i)):
            raise ValueError(f"box ({i},{j}) outside diagram {self}")
        return self.part(i) + self.col(j) - i - j + 1

    def hook_product(self) -> int:
        h = 1
        for i in range(1, self.length + 1):
            for j in range(1, self.part(i) + 1):
                h *= self.hook_length(i, j)
        return h

    def boxes(self) -> Iterator[tuple[int, int]]:
        for i, p in enumerate(self._parts, start=1):
            for j in range(1, p + 1):
                yield (i, j)

    def maya_modes(self, n: int, count: int) -> list[int]:
        """First `count` occupied modes n + part_i - i, descending."""
        return [n + self.part(i) - i for i in range(1, count + 1)]

    def to_json(self) -> list[int]:
        return list(self._parts)

    @staticmethod
    def from_json(data: list[int]) -> "Partition":
        return Partition(data)

    def __iter__(self) -> Iterator[int]:
        return iter(self._parts)

    def __len__(self) -> int:
        return len(self._parts)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Partition) and self._parts == other._parts

    def __hash__(self) -> int:
        return hash(self._parts)

    def __repr__(self) -> str:
        return f"Partition({list(self._parts)})"


class FrobeniusCoordinates(NamedTuple):
    """Arm/leg lengths along the main diagonal, both strictly decreasing."""

    alphas: tuple[int, ...]
    betas: tuple[int, ...]

    def to_partition(self) -> Partition:
        d = len(self.alphas)
        if d != len(self.betas):
            raise ValueError("arm and leg lists must have equal length")
        if any(self.alphas[i] <= self.alphas[i + 1] for i in range(d - 1)):
            raise ValueError("arms must be strictly decreasing")
        if any(self.betas[i] <= self.betas[i + 1] for i in range(d - 1)):
            raise ValueError("legs must be strictly decreasing")
        if any(a < 0 for a in self.alphas) or any(b < 0 for b in self.betas):
            raise ValueError("Frobenius coordinates must be non-negative")
        if d == 0:
            return Partition()
        parts = [self.alphas[i] + i + 1 for i in range(d)]
        cols = [self.betas[i] + i + 1 for i in range(d)]
        for i in range(d + 1, self.betas[0] + 2):
            parts.append(sum(1 for c in cols if c >= i))
        return Partition(parts)


def sign_exponent(parts: tuple[int, ...]) -> int:
    """Parity exponent: sum of (leg length + 1) over the diagonal hooks,
    d(d+1)/2 plus the parts below the Durfee square of size d.

    This is the exponent of the sign that relates the wedge-canonical
    occupation state to the operator-built basis state, and the sign
    carried by Schur coefficients of coherent states.
    """
    d = 0
    while d < len(parts) and parts[d] > d:
        d += 1
    return d * (d + 1) // 2 + sum(parts[d:])


def frobenius(shape: Partition) -> FrobeniusCoordinates:
    return shape.frobenius()


def from_frobenius(alphas: Iterable[int], betas: Iterable[int]) -> Partition:
    return FrobeniusCoordinates(tuple(alphas), tuple(betas)).to_partition()


def hook_shape(alpha: int, beta: int) -> Partition:
    """The hook with arm `alpha` and leg `beta`: one row of alpha+1, then beta rows of 1."""
    return Partition([alpha + 1] + [1] * beta)


def pochhammer(u: Fraction | int, k: int) -> Fraction:
    """Rising factorial u(u+1)...(u+k-1)."""
    u = Fraction(u)
    out = Fraction(1)
    for i in range(k):
        out *= u + i
    return out


def pochhammer_content(u: Fraction | int, shape: Partition) -> Fraction:
    """Product of (u + column - row) over the boxes of the diagram."""
    u = Fraction(u)
    out = Fraction(1)
    for i, j in shape.boxes():
        out *= u + j - i
    return out


def pochhammer_content_frobenius(u: Fraction | int, shape: Partition) -> Fraction:
    """Same content product assembled hook-by-hook from Frobenius data."""
    u = Fraction(u)
    alphas, betas = shape.frobenius()
    out = Fraction(1)
    for a, b in zip(alphas, betas):
        out *= (-1) ** b * pochhammer(u, a + 1) * pochhammer(1 - u, b)
    return out


class MayaSet:
    """Occupied-mode set of a charged shape: all k < n except the hole
    positions, plus the particle positions given by the Frobenius data."""

    __slots__ = ("charge", "shape", "_particles", "_holes")

    def __init__(self, charge: int, shape: Partition):
        self.charge = charge
        self.shape = shape
        alphas, betas = shape.frobenius()
        self._particles = frozenset(charge + a for a in alphas)
        self._holes = frozenset(charge - b - 1 for b in betas)

    def contains(self, k: int) -> bool:
        if k in self._particles:
            return True
        if k in self._holes:
            return False
        return k < self.charge

    __contains__ = contains

    def occupied_above(self, floor: int) -> frozenset[int]:
        """All occupied modes >= floor; requires floor below every hole."""
        if self._holes and floor > min(self._holes):
            raise ValueError("floor must sit below every hole")
        sea = frozenset(range(floor, self.charge))
        return (sea - self._holes) | self._particles

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, MayaSet)
            and self.charge == other.charge
            and self.shape == other.shape
        )

    def __hash__(self) -> int:
        return hash((self.charge, self.shape))

    def __repr__(self) -> str:
        return f"MayaSet(charge={self.charge}, shape={self.shape!r})"


def maya_set(n: int, shape: Partition) -> MayaSet:
    return MayaSet(n, shape)


def maya_canonicalize(floor: int, occupied_above: Iterable[int]) -> tuple[int, Partition]:
    """Canonical (charge, shape) of an occupation set.

    The set is described finitely: every mode < `floor` is occupied and
    `occupied_above` lists the occupied modes >= floor.  Rejects
    descriptions that mention modes below the floor.
    """
    above = sorted(set(int(k) for k in occupied_above), reverse=True)
    if above and above[-1] < floor:
        raise ValueError("occupied_above mentions a mode below the floor")
    n = floor + len(above)
    parts = []
    for i, m in enumerate(above, start=1):
        parts.append(m - n + i)
    # Below the floor the sea contributes zero parts only.
    return n, Partition(parts)


@lru_cache(maxsize=None)
def _enumerate_cached(
    max_weight: int, max_rows: int | None, max_cols: int | None
) -> tuple[Partition, ...]:
    def rec(remaining: int, cap: int, prefix: tuple[int, ...]):
        yield prefix
        if max_rows is not None and len(prefix) >= max_rows:
            return
        top = min(remaining, cap)
        for p in range(top, 0, -1):
            yield from rec(remaining - p, p, prefix + (p,))

    cap0 = max_weight if max_cols is None else min(max_weight, max_cols)
    raw = list(rec(max_weight, cap0, ()))
    raw.sort(key=lambda t: (sum(t), tuple(-x for x in t)))
    return tuple(Partition(t) for t in raw)


def enumerate_partitions(
    max_weight: int, max_rows: int | None = None, max_cols: int | None = None
) -> list[Partition]:
    """All diagrams of weight <= max_weight within the box constraints,
    ordered by weight then reverse-lexicographically (so (2) before (1,1))."""
    if max_weight < 0:
        raise ValueError("max_weight must be >= 0")
    return list(_enumerate_cached(max_weight, max_rows, max_cols))
