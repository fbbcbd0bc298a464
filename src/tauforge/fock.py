"""Finite-window fermionic Fock space over exact scalars.

Basis states are (charge, shape) pairs with the phase fixed by the
operator construction: hole operators at the Frobenius leg positions,
particle operators at the arm positions, applied to the shifted sea.
Internally a state is its occupied-mode set; a mode insertion or removal
carries the wedge sign (-1)^(occupied modes above), and the conversion
between the wedge-canonical phase and the operator-built phase is the
shape's sign exponent.  The route-agreement tests rebuild every basis
state three independent ways to pin this down.

Coefficients may be rationals or truncated polynomials; the two flavors
share one implementation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping

from tauforge.partitions import (
    Partition,
    enumerate_partitions,
    maya_canonicalize,
    maya_set,
)
from tauforge.polyring import Poly, TimeFamily, poly_matrix_det
from tauforge.schur import schur_jt, skew_schur

State = tuple[int, tuple[int, ...]]  # (charge, shape parts)


def _is_zero(c) -> bool:
    if isinstance(c, Poly):
        return c.is_zero
    return c == 0


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


def window_for(charges: Iterable[int], weight: int, margin: int = 2) -> ModeWindow:
    """Auto-sizing rule: charges in [lo, hi] at weight cutoff D get the
    window [lo - D - margin, hi + D + margin)."""
    cs = list(charges)
    return ModeWindow(min(cs) - weight - margin, max(cs) + weight + margin)


# -- single-letter action on a basis state -----------------------------------


def _occupied_above(n: int, parts: tuple[int, ...], k: int) -> int:
    """Number of occupied modes strictly above k at charge n."""
    count = 0
    i = 1
    while True:
        mode = n + (parts[i - 1] if i <= len(parts) else 0) - i
        if mode <= k:
            return count
        count += 1
        i += 1


def _shape_sign(parts: tuple[int, ...]) -> int:
    return (-1) ** Partition(parts).sign_exponent()


def _letter_on_state(kind: str, k: int, state: State, dual: bool):
    """Apply one mode operator; returns ((charge, parts), sign) or None.

    kind "psi" fills mode k (charge +1 on kets), "psi*" empties it; the
    roles transpose on bras.  The sign combines the wedge parity with the
    phase conversion of source and target shapes.
    """
    n, parts = state
    filling = (kind == "psi") != dual
    occupied = maya_set(n, Partition(parts)).contains(k)
    if filling == occupied:
        return None
    floor = min(k, n - len(parts)) - 2
    modes = set()
    i = 1
    while True:
        m = n + (parts[i - 1] if i <= len(parts) else 0) - i
        if m < floor:
            break
        modes.add(m)
        i += 1
    above = _occupied_above(n, parts, k)
    if filling:
        modes.add(k)
    else:
        modes.remove(k)
    n2, lam2 = maya_canonicalize(floor, modes)
    sign = ((-1) ** above) * _shape_sign(parts) * _shape_sign(lam2.parts)
    return (n2, lam2.parts), sign


# -- vectors ------------------------------------------------------------------


class FockVector:
    """Sparse linear combination of basis states; `dual` marks bra vectors."""

    __slots__ = ("window", "states", "dual")

    def __init__(
        self,
        window: ModeWindow,
        states: Mapping[State, object] | None = None,
        dual: bool = False,
    ):
        self.window = window
        self.dual = dual
        self.states = {s: c for s, c in (states or {}).items() if not _is_zero(c)}

    @property
    def is_zero(self) -> bool:
        return not self.states

    def component(self, n: int, shape):
        parts = shape.parts if isinstance(shape, Partition) else tuple(shape)
        return self.states.get((n, parts), Fraction(0))

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.window != other.window or self.dual != other.dual:
            raise ValueError("vectors live in different spaces")
        out = dict(self.states)
        for s, c in other.states.items():
            acc = out.get(s)
            acc = c if acc is None else acc + c
            if _is_zero(acc):
                out.pop(s, None)
            else:
                out[s] = acc
        return FockVector(self.window, out, self.dual)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, c) -> "FockVector":
        if _is_zero(c):
            return FockVector(self.window, {}, self.dual)
        return FockVector(
            self.window, {s: v * c for s, v in self.states.items()}, self.dual
        )

    def charges(self) -> set[int]:
        return {n for (n, _) in self.states}

    def restrict_charge(self, n: int) -> "FockVector":
        return FockVector(
            self.window,
            {s: c for s, c in self.states.items() if s[0] == n},
            self.dual,
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FockVector)
            and self.dual == other.dual
            and self.states == other.states
        )

    def __repr__(self) -> str:
        kind = "Bra" if self.dual else "Ket"
        bits = [f"{c!r}*|{n},{list(p)}>" for (n, p), c in list(self.states.items())[:6]]
        tail = " ..." if len(self.states) > 6 else ""
        return f"{kind}({' + '.join(bits)}{tail})"

    def to_json(self) -> list:
        return [
            {"charge": n, "partition": list(p), "coeff": str(c)}
            for (n, p), c in sorted(self.states.items())
        ]


def _check_state_window(window: ModeWindow, n: int, shape: Partition):
    # top occupied mode is n + part_1 - 1, deepest hole is n - length
    if n + shape.part(1) - 1 >= window.hi or n - shape.length < window.lo:
        raise WindowViolation(
            f"state (charge {n}, shape {shape.parts}) exceeds window {window}"
        )


def vacuum(window: ModeWindow, n: int, dual: bool = False) -> FockVector:
    return FockVector(window, {(n, ()): Fraction(1)}, dual)


def basis_vector(
    window: ModeWindow, n: int, shape: Partition, dual: bool = False
) -> FockVector:
    _check_state_window(window, n, shape)
    return FockVector(window, {(n, shape.parts): Fraction(1)}, dual)


def apply_mode(kind: str, k: int, v: FockVector) -> FockVector:
    v.window.require(k)
    out: dict[State, object] = {}
    for s, c in v.states.items():
        hit = _letter_on_state(kind, k, s, v.dual)
        if hit is None:
            continue
        s2, sign = hit
        _check_state_window(v.window, s2[0], Partition(s2[1]))
        term = c * sign
        acc = out.get(s2)
        acc = term if acc is None else acc + term
        if _is_zero(acc):
            out.pop(s2, None)
        else:
            out[s2] = acc
    return FockVector(v.window, out, v.dual)


def apply_psi(k: int, v: FockVector) -> FockVector:
    return apply_mode("psi", k, v)


def apply_psi_star(k: int, v: FockVector) -> FockVector:
    return apply_mode("psi*", k, v)


# A letter is a finite linear combination of same-species mode operators.
Letter = tuple[tuple[object, str, int], ...]  # ((coeff, kind, mode), ...)


def letter(kind: str, k: int) -> Letter:
    return ((Fraction(1), kind, k),)


def combo(parts: Iterable[tuple[object, str, int]]) -> Letter:
    return tuple(parts)


def apply_letter(lt: Letter, v: FockVector) -> FockVector:
    out = FockVector(v.window, {}, v.dual)
    for coeff, kind, k in lt:
        out = out + apply_mode(kind, k, v).scale(coeff)
    return out


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
    total = None
    for s, c in bra.states.items():
        d = ket.states.get(s)
        if d is None:
            continue
        term = c * d
        total = term if total is None else total + term
    return Fraction(0) if total is None else total


def vev(window: ModeWindow, n: int, letters: Iterable[Letter]):
    """<n| word |n> by direct application."""
    return inner(vacuum(window, n, dual=True), apply_word(letters, vacuum(window, n)))


# -- basis states via operator routes -----------------------------------------


def basis_state_via_creation(
    route: str, shape: Partition, n: int, window: ModeWindow
) -> FockVector:
    """Build the basis ket from a vacuum by one of three operator routes."""
    alphas, betas = shape.frobenius()
    if route == "frobenius":
        word = [letter("psi*", n - b - 1) for b in betas]
        word += [letter("psi", n + a) for a in reversed(alphas)]
        return apply_word(word, vacuum(window, n))
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


def pair_vev(n: int, a: Letter, b: Letter) -> Fraction:
    """<n| a b |n> for two linear letters, from the mode pairing rules."""
    total = Fraction(0)
    for c1, k1, m1 in a:
        for c2, k2, m2 in b:
            if m1 != m2 or k1 == k2:
                continue
            if k1 == "psi" and m2 < n:
                total += Fraction(c1) * Fraction(c2)
            elif k1 == "psi*" and m2 >= n:
                total += Fraction(c1) * Fraction(c2)
    return total


def vev_word_pairing(n: int, letters: list[Letter]) -> Fraction:
    """<n| f_0 f_1 ... |n> by recursive pairing of the leading letter."""
    m = len(letters)
    if m == 0:
        return Fraction(1)
    if m % 2 == 1:
        return Fraction(0)
    total = Fraction(0)
    head = letters[0]
    for j in range(1, m):
        p = pair_vev(n, head, letters[j])
        if p == 0:
            continue
        total += ((-1) ** (j - 1)) * p * vev_word_pairing(n, letters[1:j] + letters[j + 1 :])
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
    letters anticommute freely, so sort creation letters (w.r.t. vacuum n,
    or the bare vacuum when n is None) to the left and keep the permutation
    parity."""

    def is_creation(kind: str, mode: int) -> bool:
        if n is None:
            return kind == "psi*"
        return (kind == "psi" and mode >= n) or (kind == "psi*" and mode < n)

    out = FockVector(v.window, {}, v.dual)

    def rec(chosen: list[tuple[str, int]], remaining: list[Letter], coeff):
        nonlocal out
        if not remaining:
            order = sorted(
                range(len(chosen)),
                key=lambda i: (not is_creation(*chosen[i]), i),
            )
            parity = sum(
                1
                for x in range(len(order))
                for y in range(x)
                if order[y] > order[x]
            )
            word = [letter(*chosen[i]) for i in order]
            out = out + apply_word(word, v).scale(coeff * (-1) ** (parity % 2))
            return
        head, *tail = remaining
        for c, kind, mode in head:
            rec(chosen + [(kind, mode)], tail, coeff * c)

    rec([], list(letters), Fraction(1))
    return out


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
    ref = maya_set(n, shape) if shape is not None else None
    out = {}
    for (m, parts), c in v.states.items():
        lam = Partition(parts)
        if kind == "plus":
            keep = lam.length <= m - n
        elif kind == "minus":
            keep = lam.part(1) <= n - m
        elif kind in ("plus_state", "minus_state"):
            assert ref is not None and shape is not None
            floor = min(n - shape.length, m - lam.length) - 2
            mine = maya_set(m, lam).occupied_above(floor)
            refset = ref.occupied_above(floor)
            keep = refset <= mine if kind == "plus_state" else mine <= refset
        else:
            raise ValueError(f"unknown projector {kind!r}")
        if keep:
            out[(m, parts)] = c
    return FockVector(v.window, out, v.dual)


def outer_project(
    ket_n: int, ket_shape: Partition, bra_n: int, bra_shape: Partition, v: FockVector
) -> FockVector:
    """|ket><bra| acting on a ket vector."""
    if v.dual:
        raise ValueError("outer_project acts on kets")
    c = v.states.get((bra_n, bra_shape.parts))
    if c is None:
        return FockVector(v.window, {})
    _check_state_window(v.window, ket_n, ket_shape)
    return FockVector(v.window, {(ket_n, ket_shape.parts): c})


# -- currents and their exponentials --------------------------------------------


def apply_charge(v: FockVector) -> FockVector:
    return FockVector(v.window, {s: c * s[0] for s, c in v.states.items()}, v.dual)


def apply_current(k: int, v: FockVector) -> FockVector:
    """Current mode k: hops one particle from mode m to m - k on kets
    (transpose on bras); the charge operator at k = 0."""
    if k == 0:
        return apply_charge(v)
    out = FockVector(v.window, {}, v.dual)
    for (n, parts), c in v.states.items():
        base = FockVector(v.window, {(n, parts): c}, v.dual)
        maya = maya_set(n, Partition(parts))
        floor = n - len(parts) - abs(k) - 1
        i = 1
        while True:
            m = n + (parts[i - 1] if i <= len(parts) else 0) - i
            if m < floor:
                break
            i += 1
            target = m - k if not v.dual else m + k
            if maya.contains(target):
                continue
            if not v.dual:
                step = apply_psi(target, apply_psi_star(m, base))
            else:
                step = apply_psi_star(target, apply_psi(m, base))
            out = out + step
    return out


def apply_current_combination(coeffs: Mapping[int, object], v: FockVector) -> FockVector:
    out = FockVector(v.window, {}, v.dual)
    for k, c in coeffs.items():
        if _is_zero(c):
            continue
        out = out + apply_current(k, v).scale(c)
    return out


def skew_schur_signed(
    family: TimeFamily, outer: Partition, inner: Partition, sign: int
) -> Poly:
    """Skew Schur function at +t or -t (sign = -1 negates every time)."""
    if sign == 1:
        return skew_schur(family, outer, inner)
    ell = max(outer.length, inner.length)
    if ell == 0:
        return family.one()
    rows = [
        [
            family.h(outer.part(i) - inner.part(j) - i + j, sign=-1)
            for j in range(1, ell + 1)
        ]
        for i in range(1, ell + 1)
    ]
    return poly_matrix_det(rows)


def apply_current_exp(
    direction: str, family: TimeFamily, v: FockVector, depth: int, sign: int = 1
) -> FockVector:
    """Exponential of the time-weighted lowering ("lower") or raising
    ("raise") current ladder, polynomial-valued, via the skew expansion.

    "lower" grows ket shapes with signed skew coefficients; "raise"
    shrinks them; on bras the roles transpose.  sign = -1 negates the
    times (the inverse exponential).
    """
    grow = (direction == "lower") != v.dual
    out: dict[State, object] = {}
    for (n, parts), c in v.states.items():
        lam = Partition(parts)
        if grow:
            shapes = [
                mu for mu in enumerate_partitions(lam.weight + depth) if mu.contains(lam)
            ]
        else:
            shapes = [mu for mu in enumerate_partitions(lam.weight) if lam.contains(mu)]
        for mu in shapes:
            big, small = (mu, lam) if grow else (lam, mu)
            coeff = skew_schur_signed(family, big, small, sign)
            if coeff.is_zero:
                continue
            phase = (-1) ** (big.sign_exponent() - small.sign_exponent())
            if grow:
                _check_state_window(v.window, n, mu)
            term = c * coeff * phase
            key = (n, mu.parts)
            acc = out.get(key)
            acc = term if acc is None else acc + term
            if _is_zero(acc):
                out.pop(key, None)
            else:
                out[key] = acc
    return FockVector(v.window, out, v.dual)


def apply_current_exp_direct(
    direction: str, family: TimeFamily, v: FockVector, depth: int, sign: int = 1
) -> FockVector:
    """Oracle route: exponentiate the current series term by term; the
    series terminates because every application shifts total weight.

    Lowering grows shapes monotonically, so states beyond the reachable
    coefficient weight are trimmed exactly (they can never feed back)."""
    mode_sign = -1 if direction == "lower" else +1
    coeffs = {mode_sign * k: family.time(k) * sign for k in range(1, depth + 1)}
    cap = max((sum(p) for _, p in v.states), default=0) + depth
    out = v.scale(family.one())
    term = out
    step = 1
    while True:
        term = apply_current_combination(coeffs, term).scale(Fraction(1, step))
        if direction == "lower":
            term = FockVector(
                v.window,
                {s: c for s, c in term.states.items() if sum(s[1]) <= cap},
                v.dual,
            )
        if term.is_zero:
            return out
        out = out + term
        step += 1
        if step > 4 * (depth + 4) + sum(len(p) + sum(p) for _, p in v.states):
            raise RuntimeError("current exponential failed to terminate")


def apply_scaled_current_schur(
    shape: Partition, direction: str, v: FockVector
) -> FockVector:
    """Schur function of the scaled current ladder (J_1, J_2/2, J_3/3, ...)
    lowered ("lower") or raised ("raise"), applied to a vector."""
    from tauforge.polyring import standard_single_family

    fam = standard_single_family(max(shape.weight, 1))
    poly = schur_jt(fam, shape)
    mode_sign = -1 if direction == "lower" else +1
    out = FockVector(v.window, {}, v.dual)
    for key, c in poly.terms.items():
        piece = v.scale(c)
        for idx, e in key:
            k = idx + 1  # the single-family table orders t_1..t_D
            for _ in range(e):
                piece = apply_current(mode_sign * k, piece).scale(Fraction(1, k))
        out = out + piece
    return out


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
    for (n, parts), c in v.states.items():
        s = diagonal_exponent(p_coeffs, n, Partition(parts))
        if s.denominator != 1:
            raise ValueError("diagonal exponent is not an integer for this state")
        out[(n, parts)] = c * base ** int(s)
    return FockVector(v.window, out, v.dual)


def apply_diagonal_multipliers(
    mult: Callable[[int], Fraction], v: FockVector
) -> FockVector:
    """Window-direct diagonal action: multiply by mult(j) for each occupied
    j >= 0 and divide by mult(j) for each empty j < 0, over the window."""
    out = {}
    for (n, parts), c in v.states.items():
        lam = Partition(parts)
        _check_state_window(v.window, n, lam)
        maya = maya_set(n, lam)
        factor = Fraction(1)
        for j in range(0, v.window.hi):
            if maya.contains(j):
                factor *= Fraction(mult(j))
        for j in range(v.window.lo, 0):
            if not maya.contains(j):
                factor /= Fraction(mult(j))
        out[(n, parts)] = c * factor
    return FockVector(v.window, out, v.dual)
