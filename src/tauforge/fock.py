"""Finite-window fermionic Fock space over exact scalars.

A vector stores each basis state as its occupation bits: an int whose bit
j is mode base + j, every mode below `base` filled and left implicit.  The
base is the vector's own, at or below `window.lo` (lower when a state sticks
out of the window below it), so the charge of bits b is base + popcount(b).
Coefficients are kept in wedge phase, the order of the semi-infinite wedge
of the occupied modes.  Mode operators flip a bit and current modes hop one,
each with the wedge sign (-1)^(occupied modes passed), one popcount; no
operator converts a state.  Each output state's coefficient is one running
sum (a `polyring._Sum` for polynomials) until the vector is built.

The public basis states are (charge, shape) pairs with the phase of the
operator construction: hole operators at the Frobenius leg positions,
particle operators at the arm positions, applied to the shifted sea.  It
differs from the wedge order by the shape's sign exponent, applied once
where a state enters a vector (the constructor) or leaves it (`states`,
`component`, `to_json`; `wedge_component` reads the stored phase).  The
route-agreement tests rebuild every basis state three independent ways to
pin this down.

`creates` (which mode operators create on a vacuum, hence the pairing and
every normal ordering) and `frobenius_word` (the basis word) are the vacuum
rules that every other module reads.

Coefficients may be rationals or truncated polynomials; the two flavors
share one implementation.

Currents of one direction commute: `_current_tree` builds each J^m v as one
hop of its parent's, on the vector's own scalars, for the current
exponential (its polynomials built once from their monomial terms) and the
current Schur functions.  `apply_current_exp` is the one route of e^{J(c t)}
for a rational scale c, with one rule for both directions: `depth` bounds
only the growing side, the shrinking side hops by every time of the family,
and every nonzero state of a grown result must fit the window.  By
bosonization, <mu, n| e^{J(c t)} = sum_lam s_(lam/mu)(c t) <lam, n| in wedge
phase, so the Schur builder (`schur._schur_poly`) reads every skew Schur
function off one raised bra.  `apply_current_exp_direct` is the same route
under the name perfbench's fock-routes jobs call.  `_hops` holds the window
rule of a single checked hop.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, inf, lcm, prod
from typing import Callable, Iterable, Mapping

from tauforge.partitions import Partition, sign_exponent
from tauforge.polyring import Poly, Scalar, TimeFamily, _Sum, standard_single_family
from tauforge.schur import _schur_poly, schur_jt

State = tuple[int, tuple[int, ...]]  # (charge, shape parts)


class WindowViolation(Exception):
    """A computation referenced a mode the window does not materialize."""


@dataclass(frozen=True)
class ModeWindow:
    lo: int
    hi: int  # exclusive

    def __post_init__(self):
        if self.lo >= self.hi:
            raise ValueError("window must satisfy lo < hi")

    def require(self, k: int):
        if not (self.lo <= k < self.hi):
            raise WindowViolation(f"mode {k} outside window [{self.lo},{self.hi})")

    def contains(self, k: int) -> bool:
        return self.lo <= k < self.hi


# modes an auto-sized window keeps beyond the reach of its charges and weight
WINDOW_MARGIN = 2


def window_for(charges: Iterable[int], weight: int) -> ModeWindow:
    """Auto-sizing rule: charges in [lo, hi] at weight cutoff D get the
    window [lo - D - WINDOW_MARGIN, hi + D + WINDOW_MARGIN)."""
    cs = list(charges)
    return ModeWindow(min(cs) - weight - WINDOW_MARGIN, max(cs) + weight + WINDOW_MARGIN)


# -- occupation bitmasks --------------------------------------------------------


def occupation_bits(n: int, parts: tuple[int, ...], base: int) -> int:
    """Occupied modes of the charge-n state of shape `parts` as an int whose
    bit j is mode base + j.  Every mode below `base` is filled and left
    implicit, so `base` must not exceed the lowest hole n - len(parts)."""
    top = n - base
    bits = (1 << (top - len(parts))) - 1
    for i, p in enumerate(parts, start=1):
        bits |= 1 << (top + p - i)
    return bits


def _state_of_bits(bits: int, base: int) -> State:
    """(charge, shape parts) of an occupation int read from mode `base` up."""
    hole = (~bits & (bits + 1)).bit_length() - 1  # lowest empty mode
    rest = bits >> hole
    ell = rest.bit_count()
    parts = []
    for i in range(1, ell + 1):
        j = rest.bit_length() - 1
        parts.append(j - ell + i)
        rest ^= 1 << j
    return base + hole + ell, tuple(parts)


def _weight(bits: int) -> int:
    """Shape weight of an occupation int, whatever its base: the positions
    of the r set bits above the lowest empty mode, less 0 + 1 + ... + r-1."""
    rest = bits >> ((~bits & (bits + 1)).bit_length() - 1)
    r = rest.bit_count()
    total = 0
    while rest:
        low = rest & -rest
        total += low.bit_length() - 1
        rest ^= low
    return total - r * (r - 1) // 2


def _occupied(bits: int, base: int, mode: int) -> bool:
    """Whether the occupation int `bits`, read from `base`, fills `mode`."""
    return mode < base or bool(bits >> (mode - base) & 1)


def occupancy(n: int, parts: tuple[int, ...]) -> Callable[[int], bool]:
    """Membership test for the occupied modes of a charged shape."""
    base = n - len(parts)
    bits = occupation_bits(n, parts, base)
    return lambda k: _occupied(bits, base, k)


def _check_bits_window(window: ModeWindow, base: int, bits: int) -> None:
    """`_check_state_window` for an occupation int read from `base`: every
    mode below the window filled, none at or above it."""
    fill = (1 << (window.lo - base)) - 1
    if bits & fill != fill or bits >> (window.hi - base):
        _check_state_window(window, *_state_of_bits(bits, base))


def _add_into(out: dict, key: int, term) -> None:
    """Add `term` into the running sum out[key]: a first addend is kept as
    it is, and a second polynomial one starts a `polyring._Sum`."""
    acc = out.get(key)
    if acc is None:
        out[key] = term
    elif type(acc) is _Sum:
        acc.add(term if type(term) is Poly else Poly.constant(acc.table, acc.cutoffs, term))
    elif type(acc) is Poly and type(term) is Poly:
        out[key] = acc = _Sum(acc)
        acc.add(term)
    else:
        out[key] = acc + term


def accumulate(out: dict, v: "FockVector", coeff=None) -> None:
    """Add coeff * v into `out` in place, running sums keyed by occupation
    bits at v's base; `FockVector._from_sums` builds the vector from it."""
    for b, c in v.bits.items():
        _add_into(out, b, c if coeff is None else c * coeff)


# -- vectors ------------------------------------------------------------------


class FockVector:
    """Sparse linear combination of basis states; `dual` marks bra vectors.

    `bits` maps occupation ints read from mode `base` up to coefficients in
    wedge phase; `states` is the same vector as {(charge, shape parts):
    coefficient} in the operator-built phase."""

    __slots__ = ("window", "base", "bits", "dual", "_states")

    def __init__(
        self,
        window: ModeWindow,
        states: Mapping[State, object] | None = None,
        dual: bool = False,
    ):
        items = [(s, c) for s, c in (states or {}).items() if c]
        base = min([window.lo] + [n - len(p) for (n, p), _ in items])
        self.window, self.base, self.dual, self._states = window, base, dual, None
        self.bits = {
            occupation_bits(n, p, base): -c if sign_exponent(p) & 1 else c
            for (n, p), c in items
        }

    @classmethod
    def _from_sums(cls, window: ModeWindow, base: int, sums: dict, dual: bool) -> "FockVector":
        """The vector of running sums keyed by occupation bits at `base`
        (`_add_into`), each finished once and zeros dropped."""
        v = cls.__new__(cls)
        v.window, v.base, v.dual, v._states = window, base, dual, None
        bits = {}
        for b, c in sums.items():
            if type(c) is _Sum:
                c = c.poly()
            if c:
                bits[b] = c
        v.bits = bits
        return v

    def _bits_at(self, base: int) -> dict:
        """`bits` read from a base at or below the vector's own."""
        shift = self.base - base
        if not shift:
            return self.bits
        fill = (1 << shift) - 1
        return {(b << shift) | fill: c for b, c in self.bits.items()}

    def _like(self, bits: dict) -> "FockVector":
        return FockVector._from_sums(self.window, self.base, bits, self.dual)

    @property
    def states(self) -> dict[State, object]:
        """{(charge, shape parts): coefficient}, built once per vector."""
        if self._states is None:
            out = {}
            for b, c in self.bits.items():
                s = _state_of_bits(b, self.base)
                out[s] = -c if sign_exponent(s[1]) & 1 else c
            self._states = out
        return self._states

    @property
    def is_zero(self) -> bool:
        return not self.bits

    def wedge_component(self, n: int, parts: tuple[int, ...]):
        if n - len(parts) < self.base:  # a hole below every state's
            return Fraction(0)
        return self.bits.get(occupation_bits(n, parts, self.base), Fraction(0))

    def component(self, n: int, shape):
        parts = shape.parts if isinstance(shape, Partition) else tuple(shape)
        c = self.wedge_component(n, parts)
        return -c if sign_exponent(parts) & 1 else c

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.window != other.window or self.dual != other.dual:
            raise ValueError("vectors live in different spaces")
        base = min(self.base, other.base)
        out = dict(self._bits_at(base))
        for b, c in other._bits_at(base).items():
            _add_into(out, b, c)
        return FockVector._from_sums(self.window, base, out, self.dual)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, c) -> "FockVector":
        if not c:
            return self._like({})
        return self._like({b: v * c for b, v in self.bits.items()})

    def truncated(self, weight: int) -> "FockVector":
        """The states of weight (partition size) at most `weight`."""
        return self._like({b: c for b, c in self.bits.items() if _weight(b) <= weight})

    def charges(self) -> set[int]:
        return {self.base + b.bit_count() for b in self.bits}

    def restrict_charge(self, n: int) -> "FockVector":
        count = n - self.base
        return self._like({b: c for b, c in self.bits.items() if b.bit_count() == count})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector) or self.dual != other.dual:
            return False
        base = min(self.base, other.base)
        return self._bits_at(base) == other._bits_at(base)

    def __repr__(self) -> str:
        kind = "Bra" if self.dual else "Ket"
        bits = [f"{c!r}*|{n},{list(p)}>" for (n, p), c in list(self.states.items())[:6]]
        tail = " ..." if len(self.bits) > 6 else ""
        return f"{kind}({' + '.join(bits)}{tail})"

    def to_json(self) -> list:
        return [
            {"charge": n, "partition": list(p), "coeff": str(c)}
            for (n, p), c in sorted(self.states.items())
        ]


def _check_state_window(window: ModeWindow, n: int, parts: tuple[int, ...]):
    # top occupied mode is n + part_1 - 1, deepest hole is n - length
    if n + (parts[0] if parts else 0) - 1 >= window.hi or n - len(parts) < window.lo:
        raise WindowViolation(f"state (charge {n}, shape {parts}) exceeds window {window}")


def vacuum(window: ModeWindow, n: int, dual: bool = False) -> FockVector:
    return FockVector(window, {(n, ()): Fraction(1)}, dual)


def basis_vector(
    window: ModeWindow, n: int, shape: Partition, dual: bool = False
) -> FockVector:
    _check_state_window(window, n, shape.parts)
    return FockVector(window, {(n, shape.parts): Fraction(1)}, dual)


def _mode_into(out: dict, kind: str, k: int, v: FockVector, coeff=None) -> None:
    """Add coeff * (mode operator at k) v into `out` (keyed at v's base):
    flip bit k with the wedge sign of the occupied modes above k."""
    window, base = v.window, v.base
    window.require(k)
    pos = k - base
    bit = 1 << pos
    filling = (kind == "psi") != v.dual
    for bits, c in v.bits.items():
        if (bits >> pos & 1) == filling:
            continue
        # k lies in the window, so only a source outside it leaves it
        _check_bits_window(window, base, bits)
        term = c if coeff is None else c * coeff
        _add_into(out, bits ^ bit, -term if (bits >> (pos + 1)).bit_count() & 1 else term)


def apply_mode(kind: str, k: int, v: FockVector) -> FockVector:
    out: dict = {}
    _mode_into(out, kind, k, v)
    return v._like(out)


def apply_psi(k: int, v: FockVector) -> FockVector:
    return apply_mode("psi", k, v)


def apply_psi_star(k: int, v: FockVector) -> FockVector:
    return apply_mode("psi*", k, v)


# A letter is a finite linear combination of same-species mode operators.
Letter = tuple[tuple[object, str, int], ...]  # ((coeff, kind, mode), ...)

_ONE = Fraction(1)  # shared by every single-mode letter


def letter(kind: str, k: int) -> Letter:
    return ((_ONE, kind, k),)


def combo(parts: Iterable[tuple[object, str, int]]) -> Letter:
    return tuple(parts)


def apply_letter(lt: Letter, v: FockVector) -> FockVector:
    out: dict = {}
    for coeff, kind, k in lt:
        _mode_into(out, kind, k, v, coeff)
    return v._like(out)


def apply_word(letters: Iterable[Letter], v: FockVector) -> FockVector:
    """Operator-product order: rightmost letter hits a ket first, leftmost
    hits a bra first."""
    seq = list(letters)
    if not v.dual:
        seq = seq[::-1]
    for lt in seq:
        v = apply_letter(lt, v)
    return v


def inner(bra: FockVector, ket: FockVector):
    if bra.window != ket.window:
        raise ValueError("window mismatch")
    if not bra.dual or ket.dual:
        raise ValueError("inner expects (bra, ket)")
    base = min(bra.base, ket.base)
    kets = ket._bits_at(base)
    total: dict = {}
    for b, c in bra._bits_at(base).items():
        d = kets.get(b)
        if d is not None:
            _add_into(total, 0, c * d)
    out = total.get(0, Fraction(0))
    return out.poly() if type(out) is _Sum else out


def vev(window: ModeWindow, n: int, letters: Iterable[Letter]):
    """<n| word |n> by direct application."""
    return inner(vacuum(window, n, dual=True), apply_word(letters, vacuum(window, n)))


# -- basis states via operator routes -----------------------------------------


def frobenius_word(shape: Partition, n: int, dual: bool = False) -> list[Letter]:
    """The basis word: word |n> is the ket of `shape`, psi*_(n-b-1) per leg b
    then psi_(n+a) per arm a from the last; dual=True gives the adjoint,
    psi*_(n+a) per arm then psi_(n-b-1) per leg from the last, <n| word."""
    alphas, betas = shape.frobenius()
    if dual:
        word = [letter("psi*", n + a) for a in alphas]
        return word + [letter("psi", n - b - 1) for b in reversed(betas)]
    word = [letter("psi*", n - b - 1) for b in betas]
    return word + [letter("psi", n + a) for a in reversed(alphas)]


def basis_state_via_creation(
    route: str, shape: Partition, n: int, window: ModeWindow
) -> FockVector:
    """Build the basis ket from a vacuum by one of three operator routes."""
    if route == "frobenius":
        return apply_word(frobenius_word(shape, n), vacuum(window, n))
    if route == "row":
        ell = shape.length
        word = [letter("psi", n + shape.part(i) - i) for i in range(1, ell + 1)]
        out = apply_word(word, vacuum(window, n - ell))
        return out.scale((-1) ** shape.sign_exponent())
    if route == "column":
        m = shape.part(1)
        t = shape.transpose()
        word = [letter("psi*", n - t.part(i) + i - 1) for i in range(1, m + 1)]
        out = apply_word(word, vacuum(window, n + m))
        return out.scale((-1) ** (shape.weight - shape.sign_exponent()))
    raise ValueError(f"unknown route {route!r}")


# -- normal ordering -----------------------------------------------------------


def creates(kind: str, mode: int, top: float) -> bool:
    """Whether the mode operator creates on the vacuum filled below `top`
    (top = inf for the bare ordering, the vacuum above every mode): psi
    creates from top up, psi* below it, and each annihilates otherwise."""
    return (kind == "psi") == (mode >= top)


def pair_vev(n: int, a: Letter, b: Letter) -> Fraction:
    """<n| a b |n> for two linear letters: a mode pairs with its conjugate
    when the right-hand one creates on |n>."""
    total = Fraction(0)
    for c1, k1, m1 in a:
        for c2, k2, m2 in b:
            if m1 == m2 and k1 != k2 and creates(k2, m2, n):
                total += Fraction(c1) * Fraction(c2)
    return total


def normal_order_expand(
    letters: list[Letter], n: int
) -> list[tuple[Fraction, list[Letter]]]:
    """Expand the vacuum-n ordered word into plain operator monomials.

    Recursion: ordered(f0..fm) = f0 ordered(f1..fm)
               - sum_j (-1)^(j-1) <f0 fj> ordered(f1.. without fj ..fm).
    """
    if len(letters) <= 1:
        return [(Fraction(1), list(letters))]
    f0, rest = letters[0], letters[1:]
    out = [(c, [f0] + w) for c, w in normal_order_expand(rest, n)]
    for j, fj in enumerate(rest, start=1):
        p = pair_vev(n, f0, fj)
        if p == 0:
            continue
        reduced = rest[: j - 1] + rest[j:]
        for c, w in normal_order_expand(reduced, n):
            out.append((-((-1) ** (j - 1)) * p * c, w))
    return out


def apply_normal_ordered_word(
    letters: list[Letter], n: int | None, v: FockVector
) -> FockVector:
    """Apply a normally ordered monomial of letters: under the ordering all
    letters anticommute freely, so sort the letters that create (`creates`,
    on vacuum n, or the bare vacuum when n is None) to the left and keep
    the permutation parity.  The ordered exponents' oracle."""
    top = inf if n is None else n
    out: dict = {}

    def rec(chosen: list[tuple[str, int]], remaining: list[Letter], coeff):
        if not remaining:
            order = sorted(
                range(len(chosen)),
                key=lambda i: (not creates(*chosen[i], top), i),
            )
            parity = sum(order[y] > order[x] for x in range(len(order)) for y in range(x))
            word = [letter(*chosen[i]) for i in order]
            accumulate(out, apply_word(word, v), coeff * (-1) ** (parity % 2))
            return
        head, *tail = remaining
        for c, kind, mode in head:
            rec(chosen + [(kind, mode)], tail, coeff * c)

    rec([], list(letters), Fraction(1))
    return v._like(out)


# -- projectors ----------------------------------------------------------------


def project(
    kind: str, v: FockVector, n: int = 0, shape: Partition | None = None
) -> FockVector:
    """Projector action.

    "plus": modes below n all filled (shape length <= charge - n).
    "minus": modes at or above n all empty (first part <= n - charge).
    "plus_state"/"minus_state": occupied set contains / is contained in the
    reference state's occupied set.
    """
    base = v.base
    if kind in ("plus_state", "minus_state"):
        assert shape is not None
        base = min(base, n - shape.length)
        ref = occupation_bits(n, shape.parts, base)
    out = {}
    for bits, c in v._bits_at(base).items():
        if kind == "plus":
            keep = base + (~bits & (bits + 1)).bit_length() - 1 >= n  # lowest hole
        elif kind == "minus":
            keep = base + bits.bit_length() <= n  # above the top particle
        elif kind in ("plus_state", "minus_state"):
            keep = not (ref & ~bits if kind == "plus_state" else bits & ~ref)
        else:
            raise ValueError(f"unknown projector {kind!r}")
        if keep:
            out[bits] = c
    return FockVector._from_sums(v.window, base, out, v.dual)


def outer_project(
    ket_n: int, ket_shape: Partition, bra_n: int, bra_shape: Partition, v: FockVector
) -> FockVector:
    """|ket><bra| acting on a ket vector."""
    if v.dual:
        raise ValueError("outer_project acts on kets")
    c = v.component(bra_n, bra_shape)
    if not c:
        return FockVector(v.window, {})
    _check_state_window(v.window, ket_n, ket_shape.parts)
    return FockVector(v.window, {(ket_n, ket_shape.parts): c})


# -- currents and their exponentials --------------------------------------------


def apply_charge(v: FockVector) -> FockVector:
    return v._like({b: c * (v.base + b.bit_count()) for b, c in v.bits.items()})


def apply_current(k: int, v: FockVector) -> FockVector:
    """Current mode k: hops one particle from mode m to m - k on kets
    (transpose on bras); the charge operator at k = 0."""
    return apply_current_combination({k: 1}, v)


def _hops(bits: int, k: int, dual: bool, window: ModeWindow | None = None, base: int = 0) -> int:
    """The particles of `bits` that J_k (k != 0) moves by |k|, up on kets
    for k < 0, after the window rule if the window and base are given.  Up,
    a state outside it, or one a particle could enter from below or leave
    past the top, raises (so the rule grows with |k|); down, a state outside
    it with a particle to move raises (some |k| can move one iff 1 can)."""
    up, s, low = (k < 0) != dual, abs(k), (1 << abs(k)) - 1
    if up:
        if window is not None:
            d, top = window.lo - base, window.hi - base
            fill = (1 << d) - 1
            if bits & fill != fill or bits >> top or ~(bits >> d) & low or bits >> max(top - s, d):
                n, parts = _state_of_bits(bits, base)
                raise WindowViolation(f"J_{k} on state ({n}, {parts}) leaves window {window}")
        return bits & ~(bits >> s)
    hops = bits & ~((bits << s) | low)
    if hops and window is not None:
        _check_bits_window(window, base, bits)
    return hops


def _hop_into(out: dict, bits: int, hops: int, k: int, dual: bool, term) -> None:
    """Add J_k's hops of the particles `hops` of the state `bits` into
    `out`, each `term` with the sign of the occupied modes it passes."""
    up, s = (k < 0) != dual, abs(k)
    passed, signed = (1 << (s - 1)) - 1, (term, -term)
    while hops:
        m = hops.bit_length() - 1
        hops ^= 1 << m
        t = m + s if up else m - s
        odd = (bits >> ((m if up else t) + 1) & passed).bit_count() & 1
        _add_into(out, bits ^ (1 << m) ^ (1 << t), signed[odd])


def apply_current_combination(coeffs: Mapping[int, object], v: FockVector) -> FockVector:
    out: dict = {}
    for k, c in coeffs.items():
        if k == 0:
            accumulate(out, apply_charge(v), c)
        elif c:
            for bits, x in v.bits.items():
                if hops := _hops(bits, k, v.dual, v.window, v.base):
                    _hop_into(out, bits, hops, k, v.dual, x * c)
    return v._like(out)


def skew_schur_signed(
    family: TimeFamily, outer: Partition, inner: Partition, scale: Scalar
) -> Poly:
    """Skew Schur function at the scaled times c t (c = -1 negates every
    time), the current exponential's matrix element up to the shapes' signs,
    from the Schur builder: the tests' skew-placement reference for
    `apply_current_exp`."""
    return _schur_poly(family, outer.parts, inner.parts, scale)


def apply_current_exp(
    direction: str, family: TimeFamily, v: FockVector, depth: int, scale: Scalar = 1
) -> FockVector:
    """Exponential of the time-weighted lowering ("lower") or raising
    ("raise") current ladder at the scaled times c t, c = `scale` rational,
    polynomial-valued: sum_m c^|m| t^m/m! J^m v from `_current_tree`,
    unchecked on a base lowered by the hops' reach; c = -1 is the inverse
    exponential.

    "lower" grows ket shapes and "raise" shrinks them; on bras the roles
    transpose.  `depth` bounds only the growing side, by how much weight a
    shape may gain; the shrinking side hops by every time of the family.
    Every state with a nonzero coefficient in a grown result must fit the
    window, read at the lowered base (a hole moved below the vector's base
    shows there).  A node drops a state whose t^m term truncates to zero."""
    grow = (direction == "lower") != v.dual
    mode_sign = -1 if direction == "lower" else +1
    # the hops' total (and level) bound: the growth, or every weight a shape sheds
    reach = depth if grow else max(map(_weight, v.bits), default=0)
    if (cutoff := family.cutoffs.get(family.grading)) is not None:
        reach = min(reach, cutoff)
    ks = list(range(1, min(reach, family.depth) + 1))
    lift = reach if grow else 0  # the furthest a hole moves down
    index = {k: family.table.index[family.names[k - 1]] for k in ks}
    table, cutoffs = family.table, family.one().cutoffs
    # rationals hop as integers over q; level s of the terms is the integer
    # num^s den^(reach - s) reach!/m! over q den^reach reach!, c = num/den
    poly = any(type(c) is Poly for c in v.bits.values())
    q = 1 if poly else lcm(*(c.denominator for c in v.bits.values()))
    num, den, fact = scale.numerator, scale.denominator, factorial(reach)
    denom = den**reach * fact
    start = {b: c if poly else int(c * q) for b, c in v._bits_at(v.base - lift).items()}
    tree = FockVector._from_sums(v.window, v.base - lift, start, v.dual)
    out: dict = {}
    for s, level in enumerate(_current_tree(tree, ks, mode_sign, reach, False)):
        scaled = num**s * den ** (reach - s) * fact
        for m, _, states in level:
            key = table.encode([(index[k], e) for k, e in m])
            mult = scaled // prod(factorial(e) for _, e in m)
            if not poly:
                for b, c in states.items():
                    out.setdefault(b, {})[key] = c * mult
                continue
            tm = Poly.from_numerators(table, cutoffs, {key: mult}, denom)
            for b in list(states):
                if term := states[b] * tm:
                    _add_into(out, b, term)
                else:
                    del states[b]
    if not poly:
        out = dict(zip(out, Poly.from_numerator_rows(table, cutoffs, out.values(), q * denom)))
    out = tree._like(out).bits
    for b in out if grow else ():
        _check_bits_window(v.window, tree.base, b)
    return v._like({b >> lift: c for b, c in out.items()})


def vacuum_readout(family: TimeFamily, v: FockVector, n: int, depth: int) -> Poly:
    """<n| exp(sum_k t_k J_k) v, the raising exponential's charge-n vacuum
    component of a ket: the polynomial image of its charge-n sector, and
    the family's zero when that component is absent.  The raising side
    does not read `depth`: the family's cutoffs truncate the result."""
    raised = apply_current_exp("raise", family, v, depth)
    return raised.component(n, Partition([])) or family.zero()


def _current_tree(v: FockVector, ks: list[int], mode_sign: int, reach: int, checked: bool):
    """Levels (|m| factors) of J^m v for multisets m of `ks` (ascending) of
    total <= `reach`: nodes (m as ((k, e), ...) from its least part k, total,
    {bits: value}), each J_(mode_sign k) on m - e_k.  Unchecked hops need a
    base below every particle that could move; callers may prune levels."""
    level = [((), 0, v.bits)]
    while level:
        yield level
        nxt = []
        for m, total, states in level:
            least = m[0][0] if m else inf
            for k in ks:
                if k > least or total + k > reach:
                    break
                hop, child = mode_sign * k, {}
                for b, c in states.items():
                    if hops := _hops(b, hop, v.dual, v.window if checked else None, v.base):
                        _hop_into(child, b, hops, hop, v.dual, c)
                if child := v._like(child).bits:
                    head = ((k, m[0][1] + 1),) + m[1:] if k == least else ((k, 1),) + m
                    nxt.append((head, total + k, child))
        level = nxt


def apply_current_exp_direct(
    direction: str, family: TimeFamily, v: FockVector, depth: int, scale: Scalar = 1
) -> FockVector:
    """`apply_current_exp`, under the name perfbench's fock-routes jobs call."""
    return apply_current_exp(direction, family, v, depth, scale)


def apply_scaled_current_schur(
    shape: Partition, direction: str, v: FockVector
) -> FockVector:
    """Schur function of the scaled current ladder (J_1, J_2/2, J_3/3, ...)
    lowered ("lower") or raised ("raise"), applied to a vector: each term
    c t^m of s_shape reads J^m v from `_current_tree`, every hop checked."""
    weight = shape.weight
    terms = schur_jt(standard_single_family(max(weight, 1)), shape).terms
    mode_sign = -1 if direction == "lower" else +1
    out: dict = {}
    for level in _current_tree(v, list(range(1, weight + 1)), mode_sign, weight, True):
        for m, _, states in level:
            # the single-family table orders t_1..t_D
            if c := terms.get(tuple((k - 1, e) for k, e in m)):
                c /= prod(k**e for k, e in m)
                for b, x in states.items():
                    _add_into(out, b, x * c)
    return v._like(out)


# -- diagonal flows --------------------------------------------------------------


def diagonal_exponent(p_coeffs: list[Fraction], n: int, shape: Partition) -> Fraction:
    """Exponent collected by a diagonal flow with mode polynomial p on the
    (charge n, shape) eigenstate: the shape's staircase differences plus
    the charge staircase."""

    def p(x: int) -> Fraction:
        acc = Fraction(0)
        for i, coef in enumerate(p_coeffs):
            acc += Fraction(coef) * x**i
        return acc

    total = Fraction(0)
    for j in range(1, shape.length + 1):
        total += p(n + shape.part(j) - j) - p(n - j)
    if n > 0:
        total += sum(p(m) for m in range(0, n))
    elif n < 0:
        total -= sum(p(m) for m in range(n, 0))
    return total


def apply_diagonal_exp(
    p_coeffs: list[Fraction], base: Fraction, v: FockVector
) -> FockVector:
    """Diagonal evolution: each eigenstate picks base**(integer exponent);
    the unit of the flow is kept exact by choosing `base` rational."""
    base = Fraction(base)
    out = {}
    for bits, c in v.bits.items():
        n, parts = _state_of_bits(bits, v.base)
        s = diagonal_exponent(p_coeffs, n, Partition(parts))
        if s.denominator != 1:
            raise ValueError("diagonal exponent is not an integer for this state")
        out[bits] = c * base ** int(s)
    return v._like(out)


def apply_diagonal_multipliers(
    mult: Callable[[int], Fraction], v: FockVector
) -> FockVector:
    """Window-direct diagonal action: multiply by mult(j) for each occupied
    j >= 0 and divide by mult(j) for each empty j < 0, over the window: the
    tests' oracle (a `Diagonal` reads only the occupied listed modes)."""
    window, base = v.window, v.base
    out = {}
    for bits, c in v.bits.items():
        _check_bits_window(window, base, bits)
        factor = Fraction(1)
        for j in range(0, window.hi):
            if _occupied(bits, base, j):
                factor *= Fraction(mult(j))
        for j in range(window.lo, 0):
            if not _occupied(bits, base, j):
                factor /= Fraction(mult(j))
        out[bits] = c * factor
    return v._like(out)
