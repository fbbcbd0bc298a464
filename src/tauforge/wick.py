"""Determinant evaluation of fermionic correlators.

Two evaluation routes coexist and cross-check each other:

* the window route applies operators to finite Fock vectors (exact for
  mode letters and every window-representable element);
* the kernel route evaluates words of mode letters and point-evaluated
  fields against a vacuum through closed-form pair kernels (rational
  functions of the points whose derivatives are exact Leibniz sums over
  rationals), summed over pairings.

Raising-exponential insertions are handled by conjugation: each letter is
"dressed" with the exponential-series factors, whose coefficients are
truncated polynomials in the times.

The pair kernels read `fock.creates` and report their own poles (a point 0
under z^e with e < 0, coincident points) as a ZeroDivisionError naming them.
"""

from __future__ import annotations

from fractions import Fraction
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
    _coupling_entries,
    _falling,
    apply_element,
    bilinear_minors,
    field_mode,
)
from tauforge.polyring import (
    Poly,
    TimeFamily,
    _Sum,
    fraction_matrix_det,
    poly_matrix_det,
)

# -- the two-point kernel ------------------------------------------------------


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

# ("mode", j) or ("field", point, order); terms carry rational or
# polynomial coefficients.
KTerm = tuple[object, str, tuple]
KLetter = tuple[KTerm, ...]


def kmode(kind: str, j: int, coeff=Fraction(1)) -> KTerm:
    return (coeff, kind, ("mode", j))


def kfield(kind: str, point, order: int = 0, coeff=Fraction(1)) -> KTerm:
    return (coeff, kind, ("field", Fraction(point), order))


def from_mode_letter(lt: Letter) -> KLetter:
    return tuple((c, kind, ("mode", j)) for c, kind, j in lt)


def kernel_pair(n: int, a: KTerm, b: KTerm) -> Fraction:
    """Ordered vacuum pair value <n| a b |n> for two single terms
    (coefficients excluded)."""
    _, kind_a, spec_a = a
    _, kind_b, spec_b = b
    if kind_a == kind_b:
        return Fraction(0)
    if spec_a[0] == "mode" or spec_b[0] == "mode":
        # mode j pairs when the right-hand letter's mode-j part creates on
        # |n>: with its conjugate mode, or by the field's mode-j coefficient
        j = spec_b[1] if spec_b[0] == "mode" else spec_a[1]
        if not creates(kind_b, j, n):
            return Fraction(0)
        if spec_a[0] == spec_b[0]:
            return Fraction(1) if spec_a[1] == j else Fraction(0)
        kind, (_, point, order) = (kind_a, spec_a) if spec_a[0] == "field" else (kind_b, spec_b)
        return field_mode(kind, point, order, j)
    # field-field
    pa, ra = spec_a[1], spec_a[2]
    pb, rb = spec_b[1], spec_b[2]
    if kind_a == "psi":
        return _field_field_kernel(n, "psi", pa, ra, pb, rb)
    return _field_field_kernel(n, "psi*", pb, rb, pa, ra)


def kernel_vev(n: int, letters: Sequence[KLetter]):
    """<n| word |n> by recursive pairing with closed-form pair kernels.

    Coefficients may be polynomials; the pair kernels themselves are
    exact rationals at the given points."""
    letters = [tuple(lt) for lt in letters]
    if len(letters) % 2 == 1:
        return Fraction(0)
    memo: dict[tuple[int, ...], object] = {}

    def pair_value(a: KLetter, b: KLetter):
        total = None
        for ca, kind_a, spec_a in a:
            for cb, kind_b, spec_b in b:
                base = kernel_pair(n, (1, kind_a, spec_a), (1, kind_b, spec_b))
                if base == 0:
                    continue
                term = ca * cb * base
                total = term if total is None else total + term
        return total

    def rec(indices: tuple[int, ...]):
        if not indices:
            return Fraction(1)
        got = memo.get(indices)
        if got is not None:
            return got
        head, rest = indices[0], indices[1:]
        total = None
        for pos, j in enumerate(rest):
            p = pair_value(letters[head], letters[j])
            if p is None:
                continue
            sub = rec(tuple(x for x in rest if x != j))
            if not sub:
                continue
            term = p * sub * ((-1) ** pos)
            total = term if total is None else total + term
        out = Fraction(0) if total is None else total
        memo[indices] = out
        return out

    return rec(tuple(range(len(letters))))


def vacuum_pad(n_left: int, n_right: int) -> list[KLetter]:
    """Letters P with P |n_left> = |n_right>, appended at the right end so
    a cross-charge expectation becomes a single-vacuum one."""
    if n_right == n_left:
        return []
    if n_right < n_left:
        # |n_right> = psi*_{n_right} psi*_{n_right+1} ... psi*_{n_left-1} |n_left>
        return [(kmode("psi*", j),) for j in range(n_right, n_left)]
    # |n_right> = psi_{n_right-1} ... psi_{n_left} |n_left>
    return [(kmode("psi", j),) for j in range(n_right - 1, n_left - 1, -1)]


def kernel_vev_between(n_left: int, letters: Sequence[KLetter], n_right: int):
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


def dress_letter(family: TimeFamily, lt: KLetter) -> KLetter:
    """Conjugate one letter through the raising exponential of `family`:
    fields pick exp(+-xi) factors (with derivative Leibniz terms), modes
    convolve with the generator coefficients."""
    out: list[KTerm] = []
    for coeff, kind, spec in lt:
        if spec[0] == "mode":
            j = spec[1]
            for a in range(0, family.depth + 1):
                h = family.h(a, sign=+1 if kind == "psi" else -1)
                if h.is_zero:
                    continue
                mode = j - a if kind == "psi" else j + a
                out.append((coeff * h, kind, ("mode", mode)))
        else:
            point, order = spec[1], spec[2]
            sign = +1 if kind == "psi" else -1
            jets = _exp_xi_jet(family, point, order, sign)
            for j in range(order + 1):
                factor = jets[order - j] * comb(order, j)
                out.append((coeff * factor, kind, ("field", point, j)))
    return tuple(out)


def dress_word(family: TimeFamily, letters: Iterable[KLetter]) -> list[KLetter]:
    return [dress_letter(family, lt) for lt in letters]


# -- element expansion into kernel words ----------------------------------------


def element_words(g) -> list[tuple[object, list[KLetter]]]:
    """Expand a word-expandable element into (coefficient, letters) pairs."""
    if isinstance(g, Identity):
        return [(Fraction(1), [])]
    if isinstance(g, LinearWord):
        return [(Fraction(1), [from_mode_letter(lt) for lt in g.letters])]
    if isinstance(g, FieldWord):
        return [
            (
                Fraction(1),
                [
                    tuple((c, kind, ("field", Fraction(pt), order)) for c, kind, pt, order in lt)
                    for lt in g.letters
                ],
            )
        ]
    if isinstance(g, SolitonExponent):
        out = []
        for (rows, cols), det in bilinear_minors(_coupling_entries(g.a_rows)).items():
            word = [(kfield("psi*", g.qs[i]),) for i in rows]
            word += [(kfield("psi", g.ps[k]),) for k in reversed(cols)]
            out.append((det, word))
        return out
    if isinstance(g, Product):
        # the operator product: words concatenate, coefficients multiply
        out = [(Fraction(1), [])]
        for factor in g.factors:
            out = [(c * d, w + v) for c, w in out for d, v in element_words(factor)]
        return out
    raise TypeError(f"element {type(g).__name__} has no exact word expansion")


def correlator_exact(
    n_left: int,
    items: Sequence[object],
    n_right: int,
    family: TimeFamily | None = None,
    undressed: Sequence[object] = (),
):
    """<n_left| undressed [raising exp] items |n_right> via kernels.

    Items are word-expandable elements or single KLetters.  When `family`
    is given, `items` are conjugated through its raising exponential
    (which then dies on the right vacuum); `undressed` items sit to the
    left of the exponential and stay raw."""

    def expand(seq):
        out = []
        for item in seq:
            if isinstance(item, tuple):  # a bare KLetter
                out.append([(Fraction(1), [item])])
            else:
                out.append(element_words(item))
        return out

    pre_exp = expand(undressed)
    expansions = pre_exp + expand(items)
    boundary = len(pre_exp)
    total = None

    def rec(i: int, coeff, raw: list[KLetter], dressed: list[KLetter]):
        nonlocal total
        if i == len(expansions):
            word = list(raw)
            word += dress_word(family, dressed) if family is not None else dressed
            term = coeff * kernel_vev_between(n_left, word, n_right)
            total = term if total is None else total + term
            return
        for c, w in expansions[i]:
            if i < boundary:
                rec(i + 1, coeff * c, raw + w, dressed)
            else:
                rec(i + 1, coeff * c, raw, dressed + w)

    rec(0, Fraction(1), [], [])
    return Fraction(0) if total is None else total


# -- window-route correlator ------------------------------------------------------


def correlator_window(
    window: ModeWindow,
    n_left: int,
    items: Sequence[object],
    n_right: int,
):
    """<n_left| items |n_right> by direct application; items are elements
    or ("letter", mode letter) tags."""
    ket = vacuum(window, n_right)
    for item in reversed(list(items)):
        if isinstance(item, tuple) and item and item[0] == "letter":
            ket = apply_letter(item[1], ket)
        else:
            ket = apply_element(item, ket)
    return inner(vacuum(window, n_left, dual=True), ket)


# -- Wick determinant forms ---------------------------------------------------------


def wick_standard(window: ModeWindow, n: int, vs: Sequence[Letter], ws: Sequence[Letter]):
    """<n| v_1..v_m w*_m..w*_1 |n> as the pair-correlator determinant."""
    m = len(vs)
    if len(ws) != m:
        raise ValueError("need equally many starred and unstarred letters")
    mat = [[pair_vev(n, vs[i], ws[j]) for j in range(m)] for i in range(m)]
    return fraction_matrix_det(mat)


def wick_generalized(evaluate, n: int, vs: Sequence[object], ws: Sequence[object]):
    """The ratio-determinant form of the generalized pairing theorem.

    `evaluate(pre, mid, post...)` -- concretely: evaluate(inserts) returns
    the correlator <n| G' .inserts_v. G'' .inserts_w. G |n - total charge>
    for the supplied per-slot insertions; this function only arranges the
    determinant.  `vs` and `ws` are whatever the evaluator accepts.
    """
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

    lhs = corr(n, [], n) * corr(
        n + 1, [("letter", letter("psi", l)), ("letter", w)], n + 1
    )
    rhs = corr(n + 1, [], n + 1) * corr(
        n, [("letter", letter("psi", l)), ("letter", w)], n
    ) + corr(n + 1, [("letter", letter("psi", l))], n) * corr(n, [("letter", w)], n + 1)
    return lhs == rhs


def vacuum_kernel(
    n: int,
    zs: Sequence[Fraction],
    zetas: Sequence[Fraction],
    arrangement: str,
):
    """Closed-form multi-point vacuum kernels at rational points.

    arrangement:
      "stars_first":  <n| psi*(zeta_1)..psi*(zeta_m) psi(z_m)..psi(z_1) |n>
      "fields_first": <n| psi(z_1)..psi(z_m) psi*(zeta_m)..psi*(zeta_1) |n>
      "charged_psi":  <n+m| psi(z_1)..psi(z_m) |n>   (zetas empty)
      "charged_star": <n-m| psi*(zeta_1)..psi*(zeta_m) |n>  (zs empty)
      "mixed_charged": <n+l| psi*(zeta_{m-l})..psi*(zeta_1) psi(z_1)..psi(z_m) |n>
    """
    zs = [Fraction(z) for z in zs]
    zetas = [Fraction(z) for z in zetas]

    def vander(points):
        out = Fraction(1)
        for i in range(len(points)):
            for j in range(i + 1, len(points)):
                out *= points[i] - points[j]
        return out

    if arrangement in ("stars_first", "fields_first"):
        m = len(zs)
        assert len(zetas) == m
        num = vander(zs) * vander(list(reversed(zetas)))
        den = Fraction(1)
        for zet in zetas:
            for z in zs:
                den *= (zet - z) if arrangement == "stars_first" else (z - zet)
        out = num / den
        for z, zet in zip(zs, zetas):
            out *= z**n * zet ** (1 - n)
        return out
    if arrangement == "charged_psi":
        out = vander(zs)
        for z in zs:
            out *= z**n
        return out
    if arrangement == "charged_star":
        out = vander(zetas)
        for z in zetas:
            out *= z ** (1 - n)
        return out
    if arrangement == "mixed_charged":
        m = len(zs)
        ml = len(zetas)
        num = vander(zs) * vander(list(reversed(zetas)))
        den = Fraction(1)
        for zet in zetas:
            for z in zs:
                den *= zet - z
        out = num / den
        for z in zs:
            out *= z**n
        for zet in zetas:
            out *= zet ** (1 - n)
        return out
    raise ValueError(f"unknown arrangement {arrangement!r}")


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
        items = [("letter", lt) for lt in word]
        if left:
            return correlator_window(window, shifted, items[::-1] + [g], base)
        return correlator_window(window, base, [g] + items, shifted)

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
