"""Group-like operators: solutions of the basic bilinear exchange condition.

Variants: exponentials of window-nilpotent bilinears, normally ordered
bilinear exponents (bare or vacuum ordering), finite linear words in the
mode operators, diagonal multipliers, projectors and products act on
window vectors.  Point-field words and soliton exponents are declared here
but have no window action: psi(z) = sum_k psi_k z^k reaches every mode, so
they are read exactly by Wick's theorem in `wick`.

One minor routine applies every bilinear exponent: a normally ordered
one as it stands, the exponential of a nilpotent bilinear b as its bare
form with B = e^b - I.  A word of mode letters psi*_R psi_C is one signed
bit flip per state, so each minor's word is compiled once per state group
and run on the occupation bits (`fock._words_into`).

Every constructor's output is checkable: `bbc_check` verifies the
exchange identity on sampled matrix elements and `verify_charge` the
definite charge that `charge_of` states, each applying g once per distinct
basis state of the call.  `bbc_check` reads each term <X| psi_k |Y> by one
bit flip and one lookup (`fock.inner_mode`), and only at the modes where
the quadruple's basis states differ, unless g|V> leaves the window: then
every window mode is read, so the window error is raised where a mode
meets the spilling state.

Ordered exponents read `fock.creates`; a diagonal element's eigenvalue is
the product of its multipliers over the occupied modes.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from math import inf, prod
from typing import Callable, Iterable, Mapping

from tauforge.fock import (
    FockVector,
    Letter,
    ModeWindow,
    _check_bits_window,
    _occupied,
    _outside_window,
    _words_into,
    apply_charge,
    apply_diagonal_exp,
    apply_word,
    basis_vector,
    creates,
    frobenius_word,
    inner,
    inner_mode,
    outer_project,
    project,
    vacuum,
)
from tauforge.partitions import Partition, hook_shape
from tauforge.polyring import fraction_matmul, fraction_matrix_det, fraction_matrix_inverse


class ModeMatrix:
    """Sparse rational matrix indexed by (row mode, col mode)."""

    __slots__ = ("entries",)

    def __init__(self, entries: Mapping[tuple[int, int], Fraction]):
        self.entries = {
            (i, k): Fraction(c) for (i, k), c in entries.items() if c != 0
        }

    def get(self, i: int, k: int) -> Fraction:
        return self.entries.get((i, k), Fraction(0))

    def modes(self) -> list[int]:
        ms = set()
        for i, k in self.entries:
            ms.add(i)
            ms.add(k)
        return sorted(ms)

    def items(self):
        return sorted(self.entries.items())

    def key(self) -> tuple:
        return tuple(sorted(self.entries.items()))

    def __eq__(self, other):
        return isinstance(other, ModeMatrix) and self.entries == other.entries

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        return f"ModeMatrix({self.entries})"


def _dense(mat: ModeMatrix, modes: list[int]) -> list[list[Fraction]]:
    """The matrix as a dense array over `modes` (rows and columns)."""
    return [[mat.get(i, k) for k in modes] for i in modes]


def _sparse(dense, modes: list[int], sign: int = 1) -> ModeMatrix:
    """`sign` times a dense array over `modes`, back as a ModeMatrix."""
    return ModeMatrix(
        {(i, k): sign * x for i, row in zip(modes, dense) for k, x in zip(modes, row)}
    )


def _one_plus(sign: int, dense, kept: list[bool], left: bool):
    """I + sign P A (left) or I + sign A P, where the diagonal projector
    P keeps the modes whose `kept` flag is set."""
    n = len(dense)
    return [
        [int(a == b) + (sign * dense[a][b] if kept[a if left else b] else 0) for b in range(n)]
        for a in range(n)
    ]


# -- element variants ----------------------------------------------------------


@dataclass(frozen=True)
class Identity:
    pass


@dataclass(frozen=True)
class ExponentBilinear:
    """Exponential of the bilinear that empties mode i and fills mode k
    with amplitude b[i,k].  The matrix must be nilpotent so the
    exponential stays rational; diagonal flows go through `Diagonal`.

    The element applies as its bare form :exp(sum B[i,k] psi*_i psi_k):
    with B = e^b - I = sum_k b^k/k!, built once from sparse powers of b;
    the same powers decide nilpotency, b^n = 0 over its n modes."""

    b: ModeMatrix
    bare: ModeMatrix = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        by_row: dict[int, list[tuple[int, Fraction]]] = {}
        for (i, k), c in self.b.entries.items():
            by_row.setdefault(i, []).append((k, c))
        n, power, bare = len(self.b.modes()), self.b.entries, {}
        for k in range(2, n + 2):  # power = b^(k-1)/(k-1)!
            if not power:
                break
            if k > n:
                raise ValueError(
                    "exponent matrix must be nilpotent; use Diagonal for diagonal flows"
                )
            for key, c in power.items():
                bare[key] = bare.get(key, 0) + c
            step: dict = {}
            for (i, j), c in power.items():
                for l, d in by_row.get(j, ()):
                    step[i, l] = step.get((i, l), 0) + c * d
            power = {key: c / k for key, c in step.items() if c}
        object.__setattr__(self, "bare", ModeMatrix(bare))


@dataclass(frozen=True)
class NormalOrderedBilinear:
    """Normally ordered exponential of a bilinear: creation parts left.

    `ordering` is an integer vacuum charge, or None for the bare ordering:
    the vacuum above every mode, where every starred operator creates."""

    mat: ModeMatrix
    ordering: int | None = None


@dataclass(frozen=True)
class LinearWord:
    """A finite product of linear combinations of mode operators; a term
    at a point is a `FieldWord`'s."""

    letters: tuple[Letter, ...]

    def __post_init__(self):
        for lt in self.letters:
            for _, _, at in lt:
                if not isinstance(at, int):
                    raise TypeError(
                        f"LinearWord terms act at int modes, not {at!r}:"
                        " point fields go in a FieldWord"
                    )


@dataclass(frozen=True)
class Diagonal:
    """Diagonal multipliers m_j at listed modes (1 elsewhere).

    A state's eigenvalue is the product of m_j over its occupied modes;
    ordered=True (the vacuum-0 normally ordered convention) divides it by
    the charge-0 vacuum's value, the product of m_j over j < 0, so occupied
    non-negative modes collect m_j and empty negative modes 1/m_j.
    """

    mults: tuple[tuple[int, Fraction], ...]
    ordered: bool = True

    def __post_init__(self):
        modes = [j for j, _ in self.mults]
        if len(set(modes)) != len(modes):
            raise ValueError(f"diagonal multipliers must name each mode once: {modes}")
        if self.ordered and any(j < 0 and not m for j, m in self.mults):
            raise ValueError("ordered multipliers at negative modes divide, so must be nonzero")


@dataclass(frozen=True)
class DiagonalFlow:
    """exp of the vacuum-0 ordered diagonal bilinear with polynomial mode
    weights; `base` is the exact rational standing for e of one flow unit."""

    p_coeffs: tuple[Fraction, ...]
    base: Fraction


@dataclass(frozen=True)
class ProjectorElement:
    kind: str  # "plus" | "minus" | "plus_state" | "minus_state"
    n: int = 0
    shape: Partition | None = None


@dataclass(frozen=True)
class StateProjector:
    ket_n: int
    ket_shape: Partition
    bra_n: int
    bra_shape: Partition


@dataclass(frozen=True)
class FieldWord:
    """Product of linear combinations of point-evaluated fermion fields
    (with derivative orders), letters whose terms are at (point, order)
    pairs, read by Wick's theorem (`wick`) only."""

    letters: tuple[Letter, ...]


@dataclass(frozen=True)
class SolitonExponent:
    """Bare-ordered exponential of sum A[i,k] psi*(q_i) psi(p_k), read by
    Wick's theorem (`wick`) only; points pairwise distinct so no kernel
    pole is hit."""

    ps: tuple[Fraction, ...]
    qs: tuple[Fraction, ...]
    couplings: tuple[tuple[Fraction, ...], ...]  # square matrix over (q_i, p_k)

    def __post_init__(self):
        n = len(self.ps)
        if len(self.qs) != n or len(self.couplings) != n:
            raise ValueError("need matching point and coupling counts")
        if any(len(r) != n for r in self.couplings):
            raise ValueError("coupling matrix must be square")
        pts = list(self.ps) + list(self.qs)
        if len(set(pts)) != len(pts):
            raise ValueError("soliton points must be pairwise distinct")

    @staticmethod
    def diagonal(ps, qs, amps) -> "SolitonExponent":
        n = len(ps)
        rows = tuple(tuple(Fraction(amps[i] if i == k else 0) for k in range(n)) for i in range(n))
        return SolitonExponent(tuple(map(Fraction, ps)), tuple(map(Fraction, qs)), rows)


@dataclass(frozen=True)
class Product:
    factors: tuple[object, ...]


# -- application -----------------------------------------------------------------


def bilinear_minors(
    entries: Mapping[tuple[int, int], Fraction],
) -> dict[tuple[tuple[int, ...], tuple[int, ...]], Fraction]:
    """Every nonzero minor {(rows, cols): det A[rows, cols]} of the sparse
    matrix A = {(i, k): A_ik}, rows and columns in increasing order and the
    empty minor 1 included.  These are the terms of the ordered exponent
    :exp(sum A_ik psi*_i psi_k): = sum det A[R, C] psi*_R psi_rev(C).

    Rows join in increasing order, each new minor expanded along its new
    last row with sign (-1)^(number of chosen columns after k); a zero
    minor is dropped, since it adds nothing to any larger one."""
    by_row: dict[int, list[tuple[int, Fraction]]] = {}
    for (i, k), c in sorted(entries.items()):
        if c:
            by_row.setdefault(i, []).append((k, c))
    minors = {((), ()): Fraction(1)}
    for i, row in sorted(by_row.items()):
        grown: dict = {}
        for (rows, cols), det in minors.items():
            for k, c in row:
                at = bisect_left(cols, k)
                if at < len(cols) and cols[at] == k:
                    continue
                key = (rows + (i,), cols[:at] + (k,) + cols[at:])
                term = c * det if (len(cols) - at) % 2 == 0 else -c * det
                grown[key] = grown.get(key, 0) + term
        minors.update((key, det) for key, det in grown.items() if det)
    return minors


def _apply_ordered_exponent(
    entries: Mapping[tuple[int, int], Fraction], ordering: int | None, v: FockVector
) -> FockVector:
    """Apply :exp(sum A_ik psi*_i psi_k): as one ordered word psi*_R psi_rev(C)
    per nonzero minor det A[R, C].  The bare ordering is the vacuum above
    every mode, top = +inf, so `fock.creates` serves both.  Input states are
    grouped by the entries that survive on them: an entry whose first-acting
    letter dies on the state is dropped before the minors are formed, which
    keeps dense (moment-type) matrices tractable.  Each group's words are
    compiled once into bit flips and run on its states in one integer loop
    (`fock._words_into`)."""
    top = inf if ordering is None else ordering
    base, dual = v.base, v.dual

    def lives(bits: int, kind: str, mode: int) -> bool:
        # the side that meets the state first (creation on a bra) must
        # find its mode empty to fill it, filled to empty it
        if creates(kind, mode, top) != dual:
            return True
        return _occupied(bits, base, mode) != ((kind == "psi") != dual)

    groups: dict[tuple, dict] = {}
    for bits, amp in v.bits.items():
        # one row test and one column test, so dropping an entry prunes
        # exactly the minors it would enter
        kept = tuple(
            (i, k) for i, k in entries if lives(bits, "psi*", i) and lives(bits, "psi", k)
        )
        groups.setdefault(kept, {})[bits] = amp
    out: dict = {}
    for kept, states in groups.items():
        words = [
            _normal_order(rows, cols, top, det)
            for (rows, cols), det in bilinear_minors({key: entries[key] for key in kept}).items()
        ]
        _words_into(out, words, v, states)
    return v._like(out)


def _normal_order(rows, cols, top: float, det) -> tuple[list[tuple[str, int]], object]:
    """The word psi*_R psi_rev(C) of one minor, normally ordered on the vacuum
    filled below `top`, as ((kind, mode) letters, det with the sign of the
    reordering): creation letters go left in written order, each passing
    the annihilation letters written before it (under the bare ordering
    the species alone decides)."""
    created, annihilated, passed = [], [], 0
    for kind, at in [("psi*", i) for i in rows] + [("psi", k) for k in reversed(cols)]:
        if creates(kind, at, top):
            created.append((kind, at))
            passed += len(annihilated)
        else:
            annihilated.append((kind, at))
    return created + annihilated, -det if passed % 2 else det


def apply_element(g, v: FockVector) -> FockVector:
    """Apply a group-like element to a ket or bra vector.  A point-field
    word or soliton exponent, alone or in a product, raises TypeError: it
    has no window action, only Wick's theorem (`wick.correlator_exact`)."""
    if isinstance(g, Identity):
        return v
    if isinstance(g, ExponentBilinear):
        return _apply_ordered_exponent(g.bare.entries, None, v)
    if isinstance(g, NormalOrderedBilinear):
        return _apply_ordered_exponent(g.mat.entries, g.ordering, v)
    if isinstance(g, LinearWord):
        return apply_word(g.letters, v)
    if isinstance(g, Diagonal):
        # ordered: divided by the charge-0 vacuum's value, states in the window
        sea = prod((m for j, m in g.mults if j < 0), start=Fraction(1)) if g.ordered else 1
        out = {}
        for bits, c in v.bits.items():
            if g.ordered:
                _check_bits_window(v.window, v.base, bits)
            factor = Fraction(1)
            for mode, m in g.mults:
                if _occupied(bits, v.base, mode):
                    factor *= m
            out[bits] = c * (factor / sea)
        return v._like(out)
    if isinstance(g, DiagonalFlow):
        return apply_diagonal_exp(list(g.p_coeffs), g.base, v)
    if isinstance(g, ProjectorElement):
        return project(g.kind, v, g.n, g.shape)
    if isinstance(g, StateProjector):
        if v.dual:
            raise NotImplementedError("state projector on bras is unused")
        return outer_project(g.ket_n, g.ket_shape, g.bra_n, g.bra_shape, v)
    if isinstance(g, Product):
        seq = list(g.factors)
        if not v.dual:
            seq = seq[::-1]
        for factor in seq:
            v = apply_element(factor, v)
        return v
    if isinstance(g, (FieldWord, SolitonExponent)):
        raise TypeError(
            f"{type(g).__name__} has no window action: point fields are read by"
            " Wick's theorem (wick.correlator_exact)"
        )
    raise TypeError(f"not a group-like element: {g!r}")


# -- structure maps -----------------------------------------------------------------


def charge_of(g) -> int:
    """Static charge of the element ([charge operator, g] = q g)."""
    if isinstance(
        g,
        (
            Identity,
            ExponentBilinear,
            NormalOrderedBilinear,
            Diagonal,
            DiagonalFlow,
            SolitonExponent,
            ProjectorElement,
        ),
    ):
        return 0
    if isinstance(g, StateProjector):
        return g.ket_n - g.bra_n
    if isinstance(g, (LinearWord, FieldWord)):
        q = 0
        for lt in g.letters:
            kinds = {term[1] for term in lt}
            if len(kinds) != 1:
                raise ValueError("letters must not mix species")
            q += 1 if kinds == {"psi"} else -1
        return q
    if isinstance(g, Product):
        return sum(charge_of(f) for f in g.factors)
    raise TypeError(f"not a group-like element: {g!r}")


def verify_charge(g, window: ModeWindow, samples: Iterable[tuple[int, Partition]]) -> int:
    """Check [Q, g] = q g on sample basis states; returns q, raises
    AssertionError on a mismatch and ValueError when there is no sample.
    A basis state has Q|v> = n|v>, so g Q|v> = n g|v>: g is applied once
    per distinct state, and a repeated state is checked once."""
    q = charge_of(g)
    seen = set()
    for n, lam in samples:
        if (n, lam) in seen:
            continue
        seen.add((n, lam))
        gv = apply_element(g, basis_vector(window, n, lam))
        if apply_charge(gv) - gv.scale(n) != gv.scale(q):
            raise AssertionError(f"element lacks definite charge {q} on {(n, lam)}")
    if not seen:
        raise ValueError("verify_charge compares nothing without a sample state")
    return q


def _modes_of(bits: int, base: int) -> list[int]:
    """The modes an occupation int read from `base` sets, in increasing order."""
    return [base + j for j in range(bits.bit_length()) if bits >> j & 1]


def _exchange_sum(bra, bra2, ket, ket2, modes: Iterable[int]):
    """sum over `modes` of <bra| psi_k |ket> <bra2| psi*_k |ket2>.

    The particle-side factor is read first: it vanishes for deep sea
    modes, so the hole-side factor (whose intermediate state would leave
    the window down there) is never read."""
    total = Fraction(0)
    for k in modes:
        t1 = inner_mode(bra, "psi", k, ket)
        if t1:
            total += t1 * inner_mode(bra2, "psi*", k, ket2)
    return total


def bbc_check(
    g,
    window: ModeWindow,
    quadruples: Iterable[
        tuple[tuple[int, Partition], tuple[int, Partition], tuple[int, Partition], tuple[int, Partition]]
    ],
    apply_fn: Callable[[object, FockVector], FockVector] | None = None,
):
    """The bilinear exchange identity on matrix elements:

    sum_k <U| psi_k g |V> <U'| psi*_k g |V'> =
    sum_k <U| g psi_k |V> <U'| g psi*_k |V'>

    Returns None if every quadruple passes, else the failing quadruple,
    and raises ValueError when there is none.  Each basis vector and its
    g|V> or <U|g is built once per call.  A factor <X| psi_k |Y> is one bit
    flip and a lookup (`fock.inner_mode`); with basis states on both sides,
    a left term needs k filled in U and empty in U', a right term k empty
    in V and filled in V', and only those modes are read.  If g|V> or g|V'>
    leaves the window, the left sum reads every window mode, so the
    WindowViolation is raised at the mode that meets the spilling state.
    An `apply_fn` in place of `apply_element` keeps the window and side of
    the vector it is given.
    """
    apply_fn = apply_fn or apply_element
    basis: dict = {}  # (charge, shape, dual) -> the basis vector
    applied: dict = {}  # the same keys -> g applied to it
    for (nu, lu), (nu2, lu2), (nv, lv), (nv2, lv2) in quadruples:
        keys = [(nu, lu, True), (nu2, lu2, True), (nv, lv, False), (nv2, lv2, False)]
        for key in keys:
            if key not in basis:
                basis[key] = basis_vector(window, *key)
        for key in keys[2:] + keys[:2]:  # g|V>, g|V'>, <U|g, <U'|g
            if key not in applied:
                applied[key] = apply_fn(g, basis[key])
        bra_u, bra_u2, ket_v, ket_v2 = (basis[key] for key in keys)
        u_g, u2_g, g_v, g_v2 = (applied[key] for key in keys)
        # basis states in the window all read their bits from window.lo
        (u,), (u2,), (v,), (v2,) = bra_u.bits, bra_u2.bits, ket_v.bits, ket_v2.bits
        if any(_outside_window(window, x.base, x.bits) for x in (g_v, g_v2)):
            modes = range(window.lo, window.hi)
        else:
            modes = _modes_of(u & ~u2, window.lo)
        lhs = _exchange_sum(bra_u, bra_u2, g_v, g_v2, modes)
        # <U| g psi_k |V> = <(U g)| psi_k |V>
        rhs = _exchange_sum(u_g, u2_g, ket_v, ket_v2, _modes_of(v2 & ~v, window.lo))
        if lhs != rhs:
            return ((nu, lu), (nu2, lu2), (nv, lv), (nv2, lv2))
    if not basis:
        raise ValueError("bbc_check compares nothing without a quadruple")
    return None


def rotation_of(g):
    """Rotation matrix R with g psi*_n = sum_l R[l,n] psi*_l g, when the
    variant supports one; returns (R, reason) with R None on failure."""
    if isinstance(g, Identity):
        return ModeMatrix({}), None  # R = I, stored as I + (empty correction)
    if isinstance(g, ExponentBilinear):
        return g.bare, None
    if isinstance(g, Diagonal):
        # a multiplier m on occupied mode j rotates the starred operator
        # by 1/m (the bilinear in the exponent pairs with the particle side)
        if any(not m for _, m in g.mults):
            return None, "no rotation: a zero multiplier has no inverse"
        return ModeMatrix({(j, j): 1 / Fraction(m) - 1 for j, m in g.mults}), None
    if isinstance(g, NormalOrderedBilinear):
        # the rotation is the bare-ordering matrix B = (I - A P)^(-1) A;
        # det(I - P A) = det(I - A P), so reorder fails exactly when it does
        try:
            return reorder(g, None)[1].mat, None
        except ZeroDivisionError:
            return None, "no rotation: the ordering transform matrix is singular"
    return None, f"variant {type(g).__name__} carries no rotation matrix"


def rotation_prime_of(g):
    """The transposed-side rotation R' for vacuum-ordered bilinears:
    R' = I - (I + A P_<n)^(-1) A, returned as the correction to I."""
    if not isinstance(g, NormalOrderedBilinear) or g.ordering is None:
        return None, "variant carries no R'"
    modes = g.mat.modes()
    dense = _dense(g.mat, modes)
    below = [k < g.ordering for k in modes]
    try:
        inv = fraction_matrix_inverse(_one_plus(+1, dense, below, left=False))
    except ZeroDivisionError:
        return None, "no R': singular transform"
    return _sparse(fraction_matmul(inv, dense), modes, -1), None


def reorder(g: NormalOrderedBilinear, target: int | None) -> tuple[Fraction, NormalOrderedBilinear]:
    """Rewrite a normally ordered bilinear exponent in another ordering.

    Returns (scalar, element) with: old element = scalar * new element.
    Bare -> vacuum n:  A = B (I + P B)^(-1), scalar det(I + P B).
    Vacuum n -> bare:  B = (I - A P)^(-1) A, scalar det(I - P A).
    Here P projects onto modes >= n.
    """
    if g.ordering == target:
        return Fraction(1), g
    if g.ordering is not None and target is not None:
        s1, bare = reorder(g, None)
        s2, out = reorder(bare, target)
        return s1 * s2, out
    n0 = target if g.ordering is None else g.ordering
    assert n0 is not None
    modes = g.mat.modes()
    dense = _dense(g.mat, modes)
    above = [k >= n0 for k in modes]
    if g.ordering is None:
        # B given; A = B (I + P B)^{-1}; scalar = det(I + P B)
        ipb = _one_plus(+1, dense, above, left=True)
        scalar = fraction_matrix_det(ipb)
        if scalar == 0:
            raise ZeroDivisionError("ordering transform is singular")
        a = fraction_matmul(dense, fraction_matrix_inverse(ipb))
        return scalar, NormalOrderedBilinear(_sparse(a, modes), ordering=n0)
    # A given; B = (I - A P)^{-1} A; scalar = det(I - P A)
    scalar = fraction_matrix_det(_one_plus(-1, dense, above, left=True))
    if scalar == 0:
        raise ZeroDivisionError("ordering transform is singular")
    b = fraction_matmul(fraction_matrix_inverse(_one_plus(-1, dense, above, left=False)), dense)
    return scalar, NormalOrderedBilinear(_sparse(b, modes), ordering=None)


def compose_bare_ordered(
    gp: NormalOrderedBilinear, g: NormalOrderedBilinear
) -> NormalOrderedBilinear:
    """Product of two bare-ordered exponents: B'' = B + B' + B' B."""
    if gp.ordering is not None or g.ordering is not None:
        raise ValueError("composition law holds for the bare ordering")
    modes = sorted(set(gp.mat.modes()) | set(g.mat.modes()))
    bp, b = _dense(gp.mat, modes), _dense(g.mat, modes)
    total = [
        [x + y + z for x, y, z in zip(*rows)] for rows in zip(b, bp, fraction_matmul(bp, b))
    ]
    return NormalOrderedBilinear(_sparse(total, modes), ordering=None)


def exponent_to_bare(b: ModeMatrix) -> NormalOrderedBilinear:
    """exp(bilinear with nilpotent matrix b) as a bare-ordered exponent:
    B = e^b - I."""
    return NormalOrderedBilinear(ExponentBilinear(b).bare, ordering=None)


def reconstruct_exponential(
    g, n: int, window: ModeWindow, arm_max: int, leg_max: int
) -> tuple[Fraction, NormalOrderedBilinear]:
    """Rebuild g|n> as <n|g|n> exp(hole-particle bilinear)|n> from the
    one-hook correlators; returns (central value, vacuum-n element)."""
    ket = apply_element(g, vacuum(window, n))
    central = ket.component(n, Partition([]))
    if central == 0:
        raise ZeroDivisionError("central correlator vanishes; no exponential form")
    entries = {}
    for alpha in range(arm_max + 1):
        for beta in range(leg_max + 1):
            word = frobenius_word(hook_shape(alpha, beta), n, dual=True)
            val = inner(apply_word(word, vacuum(window, n, dual=True)), ket)
            if val:
                entries[(n - beta - 1, n + alpha)] = Fraction(val, central)
    return central, NormalOrderedBilinear(ModeMatrix(entries), ordering=n)
