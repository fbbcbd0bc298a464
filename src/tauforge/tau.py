"""Tau-series as Schur expansions with determinant coefficient identities.

Every tau coefficient is one signed matrix element of a group-like
element, (-1)^(sign exponents) <shape, n| g |source, n - charge>, and every
reader of coefficients takes them from one `coefficient_reader`.  The
reader picks the route once: a window-representable element is applied
once per (charge, source) and each bra shape read off that ket; a
point-field element (a soliton exponent, a field word, a product with
them) is read by Wick's theorem on its layout (`wick.wick_layout`), one
bordered determinant per read, taken as c det(P_ff + P_fq M P_pf) with
c = det(I - A P_pq) and M = (I - A P_pq)^-1 A formed once per charge.
The series expansions and the hook-determinant, row/column-determinant
(with stepped charges), exchange and rectangle identities all read
through one reader per call; the Wick reader builds its basis letters
with `fock.frobenius_word`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul
from typing import Mapping

from tauforge.fock import (
    ModeWindow,
    _check_state_window,
    basis_vector,
    frobenius_word,
    vacuum,
    vacuum_readout,
    window_for,
)
from tauforge.grouplike import (
    Diagonal,
    ExponentBilinear,
    FieldWord,
    LinearWord,
    NormalOrderedBilinear,
    Product,
    ProjectorElement,
    SolitonExponent,
    _matmul,
    apply_element,
    charge_of,
)
from tauforge.partitions import Partition, enumerate_partitions, from_frobenius, hook_shape
from tauforge.polyring import (
    Poly,
    TimeFamily,
    _Sum,
    fraction_matrix_det,
    fraction_matrix_inverse,
    poly_matrix_det,
)
from tauforge.schur import double_schur_sum, schur_jt
from tauforge.wick import (
    correlator_exact,
    from_mode_letter,
    interleave_sign,
    oriented_pair,
    vacuum_pad,
    wick_layout,
    wick_matrix,
)

# -- plumbing -----------------------------------------------------------------


def is_field_based(g) -> bool:
    if isinstance(g, (FieldWord, SolitonExponent)):
        return True
    if isinstance(g, Product):
        return any(is_field_based(f) for f in g.factors)
    return False


def mode_support(g) -> list[int]:
    """Window modes an element touches (empty for field-based parts and
    for elements that name no modes of their own)."""
    if isinstance(g, ExponentBilinear):
        return g.b.modes()
    if isinstance(g, NormalOrderedBilinear):
        return g.mat.modes()
    if isinstance(g, LinearWord):
        return [k for lt in g.letters for _, _, k in lt]
    if isinstance(g, Diagonal):
        return [j for j, _ in g.mults]
    if isinstance(g, Product):
        return [m for f in g.factors for m in mode_support(f)]
    return []


def window_for_element(g, charges, depth: int) -> ModeWindow:
    return window_for(list(charges) + mode_support(g), depth)


def bra_letters(shape: Partition, n: int) -> list:
    """Kernel letters of the basis bra, from `fock.frobenius_word`."""
    return [from_mode_letter(lt) for lt in frobenius_word(shape, n, dual=True)]


def ket_letters(shape: Partition, n: int) -> list:
    """Kernel letters building the basis ket from its vacuum."""
    return [from_mode_letter(lt) for lt in frobenius_word(shape, n)]


_EMPTY = Partition([])


def coefficient_reader(g, window: ModeWindow):
    """read(shape, n, source=empty) -> the signed coefficient
    (-1)^(sign exponents of shape and source) <shape, n| g |source, n - charge>.

    A window element is applied to each (charge, source) ket once, kept
    for the reader's lifetime only, and every bra shape must fit the
    window (else WindowViolation, as for a basis bra).  A point-field
    element does not read the window: it is read by Wick's theorem
    (`_wick_reader`)."""
    q = charge_of(g)
    if is_field_based(g):
        return _wick_reader(g, q)

    kets = {}

    def read(shape: Partition, n: int, source: Partition = _EMPTY):
        # the bra's shape sign cancels the ket's: read the wedge phase
        ket = kets.get((n, source))
        if ket is None:
            ket = kets[(n, source)] = apply_element(g, basis_vector(window, n - q, source))
        _check_state_window(window, n, shape.parts)
        return ket.wedge_component(n, shape.parts) * (-1) ** source.sign_exponent()

    return read


def _wick_reader(g, q: int):
    """The reader of a point-field element g of charge q by Wick's theorem
    (`wick.wick_matrix`) over the bra's letters, g's layout and the source's
    ket letters with the vacuum pad.  Per charge n, once: B = I - A P_pq over
    g's points, c = det B and M = B^-1 A.  With c != 0 a read is
    c det(P_ff + P_fq M P_pf), the Schur complement of B, with the row
    P(x, q) M of each psi letter x and the column P(p, y) of each psi* letter
    y memoized by (charge, letter, place in g's layout); with c = 0 it is the
    bordered determinant itself.  A bra's letters never pair with each other,
    so its block has rank at most min(#holes, #particles): a bra with more
    rows than that plus the number of other fixed letters reads 0."""
    inner = wick_layout([g])
    own = [(s, j) for j, s in enumerate(inner) if s[2] is None]
    holes = [(s, j) for j, s in enumerate(inner) if s[2] is not None and s[1] == "psi*"]
    particles = [(s, j) for j, s in enumerate(inner) if s[2] is not None and s[1] == "psi"]
    couplings = [[h[2][h[3]][p[3]] if p[2] is h[2] else 0 for p, _ in particles] for h, _ in holes]
    rank, end = min(len(holes), len(particles)), len(inner)
    vacua: dict[int, tuple] = {}
    memo: dict[tuple, list] = {}  # factors, and each (charge, source)'s ket and pad slots

    def vacuum_data(n: int) -> tuple:
        if n not in vacua:
            _, b = wick_matrix(n, [s for s in inner if s[2] is not None])  # B = I - A P_pq
            c = fraction_matrix_det(b)
            vacua[n] = (c, _matmul(fraction_matrix_inverse(b), couplings) if c else None)
        return vacua[n]

    def factor(n: int, slot, at: int) -> list:
        key = (n, slot[0], at)
        got = memo.get(key)
        if got is None:
            if slot[1] == "psi":
                legs = [oriented_pair(n, slot[0], h[0], at < j) for h, j in holes]
                got = [sum(map(mul, legs, col), Fraction(0)) for col in zip(*vacua[n][1])]
            else:
                got = [oriented_pair(n, p[0], slot[0], j < at) for p, j in particles]
            memo[key] = got
        return got

    def read(shape: Partition, n: int, source: Partition = _EMPTY):
        outer = memo.get((n, source))
        if outer is None:
            letters = ket_letters(source, n - q) + vacuum_pad(n, n - q)
            outer = memo[(n, source)] = [(s, end) for s in wick_layout(letters)]
        if shape.diagonal_size > rank + len(own) + len(outer):
            return Fraction(0)
        # a basis letter is one mode: its species is its term's
        bra = [((lt, lt[0][1], None, 0), -1) for lt in bra_letters(shape, n)]
        sign = (-1) ** (shape.sign_exponent() + source.sign_exponent())
        c = vacuum_data(n)[0]
        if not c:
            s, matrix = wick_matrix(n, [s for s, _ in bra] + inner + [s for s, _ in outer])
            return s * sign * fraction_matrix_det(matrix) if s else Fraction(0)
        word = bra + own + outer
        rows = [x for x, (s, _) in enumerate(word) if s[1] == "psi"]
        cols = [y for y, (s, _) in enumerate(word) if s[1] == "psi*"]
        if len(rows) != len(cols):
            return Fraction(0)

        def entry(x: int, y: int) -> Fraction:
            (sx, at_x), (sy, at_y) = word[x], word[y]
            pair = 0 if at_x == at_y == -1 else oriented_pair(n, sx[0], sy[0], x < y)
            return pair + sum(map(mul, factor(n, sx, at_x), factor(n, sy, at_y)), Fraction(0))

        entries = [[entry(x, y) for y in cols] for x in rows]
        return sign * interleave_sign(s[1] for s, _ in word) * c * fraction_matrix_det(entries)

    return read


def pluecker_coefficient(g, shape: Partition, n: int, window: ModeWindow | None = None):
    """Signed expansion coefficient of the element's state over the basis:
    (-1)^(sign exponent) <shape, n| g |n - charge>, a one-shape read whose
    default window fits that shape."""
    window = window or window_for_element(g, (n, n - charge_of(g)), shape.weight + 1)
    return coefficient_reader(g, window)(shape, n)


# -- series -------------------------------------------------------------------


@dataclass
class TauSeries:
    kind: str  # "KP" | "MKP" | "2DTL"
    charge: int
    poly: Poly
    coefficients: Mapping
    provenance: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return series_json(self.kind, self.charge, self.provenance.get("depth"), self.coefficients)


def series_json(kind: str, charge: int, depth: int, coefficients: Mapping) -> dict:
    """A Schur expansion's report body: its coefficients by shape, or by
    pair of shapes, in order of total weight and then of the shapes."""
    terms = []
    for key in sorted(coefficients, key=_coeff_sort_key):
        c = coefficients[key]
        entry = {"coeff": c.to_json() if isinstance(c, Poly) else str(c)}
        if isinstance(key, tuple) and isinstance(key[0], Partition):
            entry["partition"] = key[0].to_json()
            entry["second_partition"] = key[1].to_json()
        else:
            entry["partition"] = key.to_json()
        terms.append(entry)
    return {"kind": kind, "charge": charge, "cutoff": depth, "terms": terms}


def _coeff_sort_key(key):
    if isinstance(key, tuple) and isinstance(key[0], Partition):
        return (
            key[0].weight + key[1].weight,
            tuple(-x for x in key[0].parts),
            tuple(-x for x in key[1].parts),
        )
    return (key.weight, tuple(-x for x in key.parts), ())


def mkp_coefficients(
    g, n: int, depth: int, window: ModeWindow | None = None
) -> dict[Partition, object]:
    """The nonzero signed bra coefficients {shape: c} of tau_n's Schur
    expansion to weight `depth`, all read through one coefficient reader."""
    read = coefficient_reader(g, window or window_for_element(g, (n, n - charge_of(g)), depth))
    return {lam: c for lam in enumerate_partitions(depth) if (c := read(lam, n))}


def expand_mkp(
    g,
    n: int,
    family: TimeFamily,
    depth: int,
    window: ModeWindow | None = None,
) -> TauSeries:
    """tau_n as the Schur expansion sum c_lambda s_lambda(t) over
    `mkp_coefficients`."""
    coeffs = mkp_coefficients(g, n, depth, window)
    total = _Sum(family.zero())
    for lam, c in coeffs.items():
        total.add(schur_jt(family, lam), c)
    return TauSeries(
        "MKP", n, total.poly(), coeffs, {"depth": depth, "element": repr(g)}
    )


def expand_mkp_direct(
    g,
    n: int,
    family: TimeFamily,
    depth: int,
    window: ModeWindow | None = None,
) -> Poly:
    """Second route: apply the raising exponential as an operator to the
    element's state and read off the vacuum component (for point-field
    elements, the dressed bordered determinant of `wick.correlator_exact`)."""
    q = charge_of(g)
    if is_field_based(g):
        return correlator_exact(n, [g], n - q, family=family)
    window = window or window_for_element(g, (n, n - q), depth)
    ket = apply_element(g, vacuum(window, n - q))
    return vacuum_readout(family, ket.restrict_charge(n).truncated(depth), n, depth)


def expand_2dtl(
    g,
    n: int,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
    depth: int,
    window: ModeWindow | None = None,
) -> TauSeries:
    """Double Schur expansion; the second family enters through the
    inverse-lowering exponential, so its functions appear at negated
    times (realized via the transpose sign rule)."""
    read = coefficient_reader(g, window or window_for_element(g, (n, n - charge_of(g)), depth))
    shapes = enumerate_partitions(depth)
    coeffs = {}

    def terms():
        for mu in shapes:
            for lam in shapes:
                if c := read(lam, n, mu):
                    coeffs[(lam, mu)] = c
                    yield lam, mu, c

    poly = double_schur_sum(family_plus, family_minus, terms())
    return TauSeries("2DTL", n, poly, coeffs, {"depth": depth, "element": repr(g)})


# -- coefficient identities ------------------------------------------------------


def giambelli_coeff_check(g, n: int, shape: Partition, window: ModeWindow | None = None):
    """Coefficient of a shape = hook-coefficient determinant divided by
    the central value to the power (diagonal size - 1).  Returns True,
    False, or None when the central coefficient vanishes."""
    alphas, betas = shape.frobenius()
    d = len(alphas)
    if d == 0:
        return True
    read = coefficient_reader(
        g, window or window_for_element(g, (n, n - charge_of(g)), shape.weight + 1)
    )
    central = read(_EMPTY, n)
    if not central:
        return None
    entries = [[read(hook_shape(alphas[i], betas[j]), n) for j in range(d)] for i in range(d)]
    lhs = read(shape, n)
    inv = 1 / central
    rhs = poly_matrix_det(entries)
    for _ in range(d - 1):
        rhs = rhs * inv
    return lhs == rhs


# orientation -> (charge step per determinant column, the lines of a shape
# the determinant runs over, the one-line shape of a given length)
_JT_ORIENTATIONS = {
    "rows": (-1, lambda shape: shape, lambda a: Partition([a])),
    "columns": (+1, Partition.transpose, lambda a: Partition([1] * a)),
}


def quantum_jt_check(
    g, n: int, shape: Partition, orientation: str, window: ModeWindow | None = None
):
    """Stepped-charge determinant identities for the coefficients.

    orientation "rows":   det over one-row coefficients at charges n-j+1;
    orientation "columns": det over one-column coefficients at n+j-1 (the
    rows determinant of the transposed shape with the charge step flipped).
    Returns None when a prefactor central value vanishes.
    """
    span = shape.weight + 1
    read = coefficient_reader(
        g, window or window_for_element(g, (n - span, n + span, n - charge_of(g)), span)
    )
    lhs = read(shape, n)
    if orientation not in _JT_ORIENTATIONS:
        raise ValueError(f"unknown orientation {orientation!r}")
    step, lines_of, line = _JT_ORIENTATIONS[orientation]
    lines = lines_of(shape)
    ell = lines.length
    if ell == 0:
        return True
    pref = Fraction(1)
    for k in range(1, ell):
        c0 = read(_EMPTY, n + step * k)
        if not c0:
            return None
        pref = pref * c0

    def coefficient(a: int, charge: int):
        # the empty and negative-length conventions of the stepped determinants
        if a < 0:
            return Fraction(0)
        return read(line(a), charge)

    entries = [
        [coefficient(lines.part(i) - i + j, n + step * (j - 1)) for j in range(1, ell + 1)]
        for i in range(1, ell + 1)
    ]
    return lhs * pref == poly_matrix_det(entries)


def pluecker_check(
    g,
    n: int,
    alphas: tuple[int, ...],
    betas: tuple[int, ...],
    r: int,
    s: int,
    window: ModeWindow | None = None,
):
    """Exchange identity among coefficients with deleted Frobenius entries
    (indices r, s are 1-based positions to strike)."""
    d = len(alphas)
    if not (1 <= r < s <= d):
        raise ValueError("need 1 <= r < s <= diagonal size")
    shape = from_frobenius(alphas, betas)
    read = coefficient_reader(
        g, window or window_for_element(g, (n, n - charge_of(g)), shape.weight + 1)
    )

    def drop(seq, *positions):
        return tuple(x for i, x in enumerate(seq, start=1) if i not in positions)

    def c(al, be):
        return read(from_frobenius(al, be), n)

    lhs = c(alphas, betas) * c(drop(alphas, r, s), drop(betas, r, s))
    rhs = c(drop(alphas, r), drop(betas, r)) * c(drop(alphas, s), drop(betas, s)) - c(
        drop(alphas, r), drop(betas, s)
    ) * c(drop(alphas, s), drop(betas, r))
    return lhs == rhs


def rectangular_three_term_check(
    g, n: int, s: int, a: int, window: ModeWindow | None = None
):
    """The rectangle exchange relation linking adjacent charges."""
    read = coefficient_reader(
        g, window or window_for_element(g, (n - 1, n + 1, n - charge_of(g)), s * a + s + a + 2)
    )

    def rect(width, height, charge):
        if width < 0 or height < 0:
            return Fraction(0)
        return read(Partition([width] * height), charge)

    lhs = rect(s, a, n) * rect(s, a, n + 1) - rect(s + 1, a, n) * rect(s - 1, a, n + 1)
    rhs = rect(s, a - 1, n) * rect(s, a + 1, n + 1)
    return lhs == rhs


# -- restriction -------------------------------------------------------------------


def restrict_element(g, rows: int) -> Product:
    """Insert the row-bound projector in front of the element: the series
    keeps only shapes with at most rows + charge rows."""
    return Product((ProjectorElement("plus", -rows), g))


def restricted_series(
    g, rows: int, n: int, family: TimeFamily, depth: int, window: ModeWindow | None = None
) -> TauSeries:
    return expand_mkp(restrict_element(g, rows), n, family, depth, window)
