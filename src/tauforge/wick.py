"""Determinant evaluation of fermionic correlators.

A letter is a `fock.Letter` throughout: terms (coeff, kind, at) whose `at`
is an int mode or a (point, order) pair, the order-th z-derivative of the
field at a rational point.  Two evaluation routes take one item list,
elements and bare letters, and cross-check each other:

* the window route applies operators to finite Fock vectors (exact for
  mode letters and every window element; point fields have no window route);
* the exact route is Wick's theorem, kept here once: `wick_matrix` makes
  a word laid out by `wick_layout` one bordered determinant of closed-form
  pair kernels (rational functions of the points whose derivatives are
  exact Leibniz sums over rationals); `kernel_vev`, the pairing recursion
  over subsets, stays as the tests' oracle.

Raising-exponential insertions are handled by conjugation: each letter is
"dressed" with the exponential-series factors, whose coefficients are
truncated polynomials in the times.

The point-field mode rules live here alone (`field_mode`).  The pair
kernels read `fock.creates` and report their own poles (a point 0 under
z^e with e < 0, coincident points) as a ZeroDivisionError naming them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import comb, factorial, perm
from typing import Iterable, Sequence

from tauforge.fock import (
    Letter,
    ModeWindow,
    apply_letter,
    creates,
    inner,
    letter,
    pair_vev,
    vacuum,
)
from tauforge.grouplike import (
    FieldWord,
    Identity,
    LinearWord,
    Product,
    SolitonExponent,
    apply_element,
)
from tauforge.polyring import (
    Poly,
    TimeFamily,
    _Sum,
    fraction_matrix_det,
    poly_matrix_det,
)

# -- point fields and the two-point kernel ---------------------------------------


def _falling(k: int, m: int) -> int:
    out = 1
    for j in range(m):
        out *= k - j
    return out


def point_power(point: Fraction, e: int) -> Fraction:
    """point**e for a kernel factor z^e; at its pole, the point 0 with e < 0,
    the ZeroDivisionError names the pole."""
    if e < 0 and not point:
        raise ZeroDivisionError(f"the point 0 is a pole of z^{e}")
    return point**e


def field_mode(kind: str, point: Fraction, order: int, k: int) -> Fraction:
    """Coefficient of the mode-k operator in the order-th z-derivative of a
    field at `point`: psi(z) = sum_k psi_k z^k, psi*(z) = sum_k psi*_k z^-k."""
    e = k if kind == "psi" else -k
    return _falling(e, order) * point_power(point, e - order)


def _field_field_kernel(
    n: int, first_kind: str, p: Fraction, r: int, q: Fraction, s: int
) -> Fraction:
    """d^r/dz^r d^s/dzeta^s of the two-point vacuum kernel, with the field
    written first ("psi": z^n zeta^(1-n)/(z - zeta); "psi*": the sign-
    flipped denominator), at rational points z = p, zeta = q, as a Leibniz
    sum; a term whose falling factor vanishes is skipped before its powers
    are formed, and a pole raises ZeroDivisionError."""
    if p == q or (not p and n < 0) or (not q and n > 1):
        raise ZeroDivisionError(f"z = {p}, zeta = {q} is a pole of z^{n} zeta^{1 - n}/(z - zeta)")
    psi = first_kind == "psi"
    gap = p - q if psi else q - p
    total = Fraction(0)
    for a in range(r + 1):
        for b in range(s + 1):
            c = comb(r, a) * comb(s, b) * _falling(n, r - a) * _falling(1 - n, s - b)
            if c:
                # d^a/dz^a d^b/dzeta^b of 1/gap: (a+b)!/gap^(1+a+b), times (-1)^a ((-1)^b for psi*)
                c *= factorial(a + b) * (-1) ** (a if psi else b)
                total += c * p ** (n - r + a) * q ** (1 - n - s + b) / gap ** (1 + a + b)
    return total


# -- kernel letters -----------------------------------------------------------


def kfield(kind: str, point, order: int = 0, coeff=Fraction(1)) -> tuple:
    """One letter term: the order-th z-derivative of the field at `point`."""
    return (coeff, kind, (Fraction(point), order))


def kernel_pair(n: int, a: tuple, b: tuple) -> Fraction:
    """Ordered vacuum pair value <n| a b |n> for two single letter terms
    (coefficients excluded); an int `at` is a mode, a pair a field."""
    _, kind_a, at_a = a
    _, kind_b, at_b = b
    if kind_a == kind_b:
        return Fraction(0)
    mode_a, mode_b = type(at_a) is int, type(at_b) is int
    if mode_a or mode_b:
        # mode j pairs when the right-hand letter's mode-j part creates on
        # |n>: with its conjugate mode, or by the field's mode-j coefficient
        j = at_b if mode_b else at_a
        if not creates(kind_b, j, n):
            return Fraction(0)
        if mode_a and mode_b:
            return Fraction(1) if at_a == j else Fraction(0)
        kind, (point, order) = (kind_b, at_b) if mode_a else (kind_a, at_a)
        return field_mode(kind, point, order, j)
    if kind_a == "psi":
        return _field_field_kernel(n, "psi", *at_a, *at_b)
    return _field_field_kernel(n, "psi*", *at_b, *at_a)


def letter_pair(n: int, a: Letter, b: Letter):
    """<n| a b |n> for two letters, their coefficients included; a rational
    coefficient 1 is not multiplied in."""
    terms = []
    for ta in a:
        for tb in b:
            if base := kernel_pair(n, ta, tb):
                for c in (tb[0], ta[0]):
                    if type(c) is Poly or c != 1:
                        base = c * base
                terms.append(base)
    return sum(terms[1:], terms[0]) if terms else Fraction(0)


def kernel_vev(n: int, letters: Sequence[Letter]):
    """<n| word |n> by recursive pairing with closed-form pair kernels.

    The first unpaired letter pairs with each later one in turn, the sign
    counting the unpaired letters between them; the value of each set of
    unpaired letters, an int whose bit i is letter i, is memoized per call.
    Coefficients may be polynomials; the pair kernels themselves are exact
    rationals at the given points."""
    letters = [tuple(lt) for lt in letters]
    if len(letters) % 2 == 1:
        return Fraction(0)
    memo: dict[int, object] = {0: Fraction(1)}
    pair = cache(lambda i, j: letter_pair(n, letters[i], letters[j]))  # per call

    def rec(unpaired: int):
        got = memo.get(unpaired)
        if got is not None:
            return got
        head = (unpaired & -unpaired).bit_length() - 1
        rest = unpaired ^ 1 << head
        total, between, left = Fraction(0), 0, rest
        while left:
            low = left & -left
            p = pair(head, low.bit_length() - 1)
            sub = rec(rest ^ low) if p else 0
            if sub:
                term = p * sub
                total = (-term if between & 1 else term) + total
            between += 1
            left ^= low
        memo[unpaired] = total
        return total

    return rec((1 << len(letters)) - 1)


def vacuum_pad(n_left: int, n_right: int) -> list[Letter]:
    """Letters P with P |n_left> = |n_right>, appended at the right end so
    a cross-charge expectation becomes a single-vacuum one."""
    if n_right == n_left:
        return []
    if n_right < n_left:
        # |n_right> = psi*_{n_right} psi*_{n_right+1} ... psi*_{n_left-1} |n_left>
        return [letter("psi*", j) for j in range(n_right, n_left)]
    # |n_right> = psi_{n_right-1} ... psi_{n_left} |n_left>
    return [letter("psi", j) for j in range(n_right - 1, n_left - 1, -1)]


def kernel_vev_between(n_left: int, letters: Sequence[Letter], n_right: int):
    return kernel_vev(n_left, list(letters) + vacuum_pad(n_left, n_right))


# -- dressing by the raising exponential ---------------------------------------


def _exp_xi_jet(family: TimeFamily, point: Fraction, order: int, sign: int) -> list[Poly]:
    """Taylor coefficients (times m!) of exp(+-xi(t, z)) at z = point,
    through derivative `order`: returns [value, d/dz, d^2/dz^2, ...].

    exp(c xi(t, z)) = sum_a h_a(c t) z^a (Macdonald I.2), so jet m is
    sum_{a=m}^{depth} h_a(c t) a!/(a-m)! point^(a-m).  The sum stops at the
    family's depth, which is exact when h_a vanishes past it: every family
    `polyring` builds has depth equal to its cutoff."""
    point = Fraction(point)
    jets = []
    for m in range(order + 1):
        total = _Sum(family.zero())
        for a in range(m, family.depth + 1):
            total.add(family.h(a, sign), perm(a, m) * point ** (a - m))
        jets.append(total.poly())
    return jets


def dress_letter(family: TimeFamily, lt: Letter) -> Letter:
    """Conjugate one letter through the raising exponential of `family`:
    fields pick exp(+-xi) factors (with derivative Leibniz terms), modes
    convolve with the generator coefficients."""
    out = []
    for coeff, kind, at in lt:
        sign = +1 if kind == "psi" else -1
        if type(at) is int:
            for a in range(0, family.depth + 1):
                h = family.h(a, sign)
                if not h.is_zero:
                    out.append((coeff * h, kind, at - sign * a))
        else:
            point, order = at
            jets = _exp_xi_jet(family, point, order, sign)
            for j in range(order + 1):
                out.append((coeff * (jets[order - j] * comb(order, j)), kind, (point, j)))
    return tuple(out)


def dress_word(family: TimeFamily, letters: Iterable[Letter]) -> list[Letter]:
    return [dress_letter(family, lt) for lt in letters]


# -- Wick's theorem: one bordered determinant -------------------------------------

# One slot per letter in word order: (letter, species, couplings, point).  A
# soliton point has its soliton's couplings over the coupled points (one list
# per occurrence) and its row (hole) or column (particle); a fixed letter None.
Slot = tuple[Letter, str, "list | None", int]


def wick_layout(items: Sequence[object]) -> list[Slot]:
    """Items (elements or bare letters) laid out in word order.

    Mode and field words give their letters; a soliton exponent
    exp(sum A_ik psi*(q_i) psi(p_k)) gives its coupled hole points, then its
    coupled particle points (a point whose couplings all vanish never
    pairs); a product gives its factors in turn.  An element with no word
    form raises TypeError."""
    slots: list[Slot] = []
    for g in items:
        if isinstance(g, tuple):  # a bare letter; an empty one is zero: a psi row of zeros
            kinds = {kind for _, kind, _ in g} or {"psi"}
            if len(kinds) > 1:
                raise ValueError(f"a letter needs one species, psi or psi*: {sorted(kinds)}")
            slots.append((g, kinds.pop(), None, 0))
        elif isinstance(g, (LinearWord, FieldWord)):
            slots += wick_layout(g.letters)
        elif isinstance(g, SolitonExponent):
            rows = [i for i, row in enumerate(g.couplings) if any(row)]
            cols = [k for k in range(len(g.ps)) if any(row[k] for row in g.couplings)]
            a = [[g.couplings[i][k] for k in cols] for i in rows]
            slots += [((kfield("psi*", g.qs[i]),), "psi*", a, r) for r, i in enumerate(rows)]
            slots += [((kfield("psi", g.ps[k]),), "psi", a, c) for c, k in enumerate(cols)]
        elif isinstance(g, Product):
            slots += wick_layout(g.factors)
        elif not isinstance(g, Identity):
            raise TypeError(f"element {type(g).__name__} has no exact word expansion")
    return slots


def oriented_pair(n: int, a: Letter, b: Letter, a_first: bool):
    """P(a, b): <a b> when a is written first, -<b a> otherwise."""
    return letter_pair(n, a, b) if a_first else -letter_pair(n, b, a)


def interleave_sign(kinds: Iterable[str]) -> int:
    """(-1)^(inversions) of the permutation taking letters of these species,
    in word order, to psi_1 psi*_1 psi_2 psi*_2 ...; the i-th psi and the
    i-th psi* keep their order among their species."""
    seen, ranks = {"psi": 0, "psi*": 1}, []
    for kind in kinds:
        ranks.append(seen[kind])
        seen[kind] += 2
    odd = sum(a > b for i, a in enumerate(ranks) for b in ranks[i + 1 :]) & 1
    return -1 if odd else 1


def wick_matrix(n: int, slots: Sequence[Slot]) -> tuple[int, list[list]]:
    """(sign, matrix) with <n| word |n> = sign * det(matrix) for a laid-out
    word: sign = interleave_sign(the fixed letters' species), 0 when their
    counts differ, and matrix = [[P_ff, P_fq], [-A P_pf, I - A P_pq]], rows
    the fixed psi letters then the hole points, columns the fixed psi*
    letters then the hole points.  It sums every minor of the couplings at
    once (Cauchy-Binet); P(p_k, q_j) = -K_kj, so I - A P_pq = I + A K."""
    fixed = [x for x, s in enumerate(slots) if s[2] is None]
    rows = [x for x in fixed if slots[x][1] == "psi"]
    cols = [y for y in fixed if slots[y][1] == "psi*"]
    if len(rows) != len(cols):
        return 0, []
    holes = [x for x, s in enumerate(slots) if s[2] is not None and s[1] == "psi*"]
    particles = [x for x, s in enumerate(slots) if s[2] is not None and s[1] == "psi"]
    cols += holes

    def pair(x: int, y: int):
        return oriented_pair(n, slots[x][0], slots[y][0], x < y)

    matrix = [[pair(x, y) for y in cols] for x in rows]
    below = {k: [pair(k, y) for y in cols] for k in particles}
    for h in holes:
        _, _, a, i = slots[h]
        row = [int(y == h) for y in cols]
        for k in particles:
            _, _, b, j = slots[k]
            if b is a and a[i][j]:
                row = [v - a[i][j] * w for v, w in zip(row, below[k])]
        matrix.append(row)
    return interleave_sign(slots[x][1] for x in fixed), matrix


def correlator_exact(
    n_left: int,
    items: Sequence[object],
    n_right: int,
    family: TimeFamily | None = None,
    undressed: Sequence[object] = (),
):
    """<n_left| undressed [raising exp] items |n_right> as one bordered
    determinant (`wick_matrix`), the right vacuum reached by `vacuum_pad`.

    Items are word-expandable elements or bare letters.  When `family`
    is given, the letters of `items` are conjugated through its raising
    exponential (which then dies on the right vacuum); `undressed` items
    sit to the left of the exponential and stay raw."""
    body = wick_layout(items)
    if family is not None:
        letters = dress_word(family, [s[0] for s in body])
        body = [(lt, *s[1:]) for lt, s in zip(letters, body)]
    slots = wick_layout(undressed) + body + wick_layout(vacuum_pad(n_left, n_right))
    sign, matrix = wick_matrix(n_left, slots)
    return sign * poly_matrix_det(matrix) if sign else Fraction(0)


# -- window-route correlator ------------------------------------------------------


def correlator_window(
    window: ModeWindow,
    n_left: int,
    items: Sequence[object],
    n_right: int,
):
    """<n_left| items |n_right> by direct application; items are window
    elements or bare mode letters, the item list `correlator_exact` takes.
    A point-field item, a field letter among them, raises TypeError (as
    `grouplike.apply_element` does): its route is `correlator_exact`."""
    ket = vacuum(window, n_right)
    for item in reversed(list(items)):
        if not isinstance(item, tuple):
            ket = apply_element(item, ket)
        elif all(type(at) is int for _, _, at in item):
            ket = apply_letter(item, ket)
        else:
            raise TypeError("a field letter has no window action: Wick's theorem reads it")
    return inner(vacuum(window, n_left, dual=True), ket)


# -- Wick determinant forms ---------------------------------------------------------


def wick_standard(n: int, vs: Sequence[Letter], ws: Sequence[Letter]):
    """<n| v_1..v_m w*_m..w*_1 |n> as the pair-correlator determinant."""
    m = len(vs)
    if len(ws) != m:
        raise ValueError("need equally many starred and unstarred letters")
    mat = [[pair_vev(n, vs[i], ws[j]) for j in range(m)] for i in range(m)]
    return fraction_matrix_det(mat)


def wick_generalized(evaluate, vs: Sequence[object], ws: Sequence[object]):
    """The ratio-determinant form of the generalized pairing theorem.

    `evaluate(v, w)` returns the correlator <n| G' v G'' w G |n - charge>
    with the insertions v and w (None for none, so evaluate(None, None) is
    the central value); this function only arranges the determinant
    det[evaluate(v_j, w_i)] / central^(m-1).  `vs` and `ws` are whatever
    the evaluator accepts."""
    m = len(vs)
    if m == 0:
        raise ValueError("need at least one insertion pair")
    central = evaluate(None, None)
    if not central:
        raise ZeroDivisionError("central correlator vanishes")
    entries = [
        [evaluate(vs[j], ws[i]) for j in range(m)] for i in range(m)
    ]
    # normalize: det of (entry/central) = det / central^m
    out = poly_matrix_det(entries)
    inv = 1 / central
    for _ in range(m - 1):
        out = out * inv
    return out


def three_term_column_identity(window: ModeWindow, g, n: int, l: int, w: Letter) -> bool:
    """The stepped-denominator column identity used to trade insertion
    determinants for charge-shifted central values:

    <n|g|n><n+1|psi_l w g|n+1> = <n+1|g|n+1><n|psi_l w g|n>
                                 + <n+1|psi_l g|n><n|w g|n+1>.
    """

    def corr(nl, pre, nr):
        return correlator_window(window, nl, pre + [g], nr)

    psi = letter("psi", l)
    lhs = corr(n, [], n) * corr(n + 1, [psi, w], n + 1)
    rhs = corr(n + 1, [], n + 1) * corr(n, [psi, w], n) + corr(n + 1, [psi], n) * corr(n, [w], n + 1)
    return lhs == rhs


# arrangement -> (its point counts (m zs, l zetas), its sign against the mixed form)
_ARRANGEMENTS = {
    "stars_first": (lambda m, l: m == l, lambda m, l: 1),
    "fields_first": (lambda m, l: m == l, lambda m, l: (-1) ** m),
    "charged_psi": (lambda m, l: l == 0, lambda m, l: 1),
    "charged_star": (lambda m, l: m == 0, lambda m, l: (-1) ** (l * (l - 1) // 2)),
    "mixed_charged": (lambda m, l: True, lambda m, l: 1),
}


def vacuum_kernel(
    n: int,
    zs: Sequence[Fraction],
    zetas: Sequence[Fraction],
    arrangement: str,
):
    """Closed-form multi-point vacuum kernels at rational points: one mixed
    form, V(z) V(zeta reversed) / prod(zeta_j - z_i) * prod z^n * prod
    zeta^(1-n) with V the Vandermonde prod_(i<j) (x_i - x_j), times one
    sign per arrangement.

    arrangement (sign):
      "stars_first":  <n| psi*(zeta_1)..psi*(zeta_m) psi(z_m)..psi(z_1) |n>  (1)
      "fields_first": <n| psi(z_1)..psi(z_m) psi*(zeta_m)..psi*(zeta_1) |n>  ((-1)^m)
      "charged_psi":  <n+m| psi(z_1)..psi(z_m) |n>   (zetas empty; 1)
      "charged_star": <n-l| psi*(zeta_1)..psi*(zeta_l) |n>  (zs empty; (-1)^(l(l-1)/2))
      "mixed_charged": <n+m-l| psi*(zeta_l)..psi*(zeta_1) psi(z_1)..psi(z_m) |n>  (1)
    """
    if arrangement not in _ARRANGEMENTS:
        raise ValueError(f"unknown arrangement {arrangement!r}")
    fits, sign = _ARRANGEMENTS[arrangement]
    zs, zetas = [Fraction(z) for z in zs], [Fraction(z) for z in zetas]
    m, l = len(zs), len(zetas)
    if not fits(m, l):
        raise ValueError(f"{arrangement} takes no {m} points z and {l} points zeta")
    out, den = Fraction(sign(m, l)), Fraction(1)
    for points in (zs, zetas[::-1]):  # the two Vandermonde factors
        for i, x in enumerate(points):
            for y in points[i + 1 :]:
                out *= x - y
    for zet in zetas:
        for z in zs:
            den *= zet - z
    out /= den
    for z in zs:
        out *= z**n
    for zet in zetas:
        out *= zet ** (1 - n)
    return out


# side -> (charge step of each inserted letter, letters left of g)
_COLUMN_SIDES = {
    "holes": (-1, True),
    "particles": (+1, True),
    "right_particles": (-1, False),
    "right_holes": (+1, False),
}


def wick_column_forms(
    window: ModeWindow,
    g,
    n: int,
    inserts: Sequence[Letter],
    side: str,
) -> dict:
    """Evaluate one charged expectation three ways.

    side "holes":      <n-m| w*_m..w*_1 g |n>
      insertion form:  det <n| psi_{n-j} w*_i g |n>  / central^(m-1)
      stepped form:    central * det[ <n-j| w*_i g |n-j+1> / <n-j+1|g|n-j+1> ]
    side "particles":  <n+m| v_m..v_1 g |n>, mirrored.
    side "right_particles": <n| g v_1..v_m |n-m>, right-insertion twin.
    side "right_holes":     <n| g w*_1..w*_m |n+m>.

    Returns {"direct", "insertion", "stepped"}; "insertion" is None for the
    right-side twins, which only come in the stepped form.
    """
    if side not in _COLUMN_SIDES:
        raise ValueError(f"unknown side {side!r}")
    step, left = _COLUMN_SIDES[side]
    m = len(inserts)

    def corr(shifted, word, base):
        # word lists letters outward from g: <shifted| ..w_2 w_1 g |base>
        # on the left, <base| g w_1 w_2.. |shifted> on the right
        if left:
            return correlator_window(window, shifted, [*word[::-1], g], base)
        return correlator_window(window, base, [g, *word], shifted)

    central = corr(n, [], n)
    if central == 0:
        raise ZeroDivisionError("central correlator vanishes")
    # column j: the letter moves the vacuum n + step (j - 1) to n + step j
    columns = [(n + step * j, n + step * (j - 1)) for j in range(1, m + 1)]
    insertion = None
    if left:
        # column j inserts the mode between its two vacua
        kind = "psi" if step < 0 else "psi*"
        ins = [[corr(n, [w, letter(kind, min(col))], n) for col in columns] for w in inserts]
        insertion = poly_matrix_det(ins) / central ** (m - 1)
    stepped = [
        [corr(to, [w], frm) / corr(frm, [], frm) for to, frm in columns] for w in inserts
    ]
    return {
        "direct": corr(n + step * m, inserts, n),
        "insertion": insertion,
        "stepped": central * poly_matrix_det(stepped),
    }
