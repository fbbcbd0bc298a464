"""Tau-series as Schur expansions with determinant coefficient identities.

Every tau coefficient is one signed matrix element of a group-like
element, (-1)^(sign exponents) <shape, n| g |source, n - charge>.  A
window element is applied once per (charge, source) and each bra shape
read off that ket.  A point-field element (a soliton exponent, a field
word, a product with them) is read by Wick's theorem on its layout
(`wick.wick_layout`) with the basis letters of `fock.frobenius_word`,
taken as c det(P_ff + P_fq M P_pf), c = det(I - A P_pq) and
M = (I - A P_pq)^-1 A: one Wick table per (charge, source) forms c and M
once and holds each letter's pairs as one integer vector, so a read is c
times one integer minor (c_0^(d-1) c_(alpha|beta) = det c_(alpha_i|beta_j)
of the generalized Wick theorem), bordered by B's rows when c = 0.  The
identity checks, the one-shape Pluecker read and the Hamiltonian routes of
`models` read shape by shape through one `coefficient_reader` per call.
The series expansions (single and double; so `expand`, `model --kind
soliton` and `verify --suite kp`) call no reader: `coefficient_rows`
reads every shape to a weight at once, a window element's from its ket's
own states, a point-field element's from its Wick tables where their rank
bound lets a shape be nonzero.  A Schur expansion sums c_lambda s_lambda
on one running sum (`polyring._Sum`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm, prod
from operator import mul
from typing import Mapping

from tauforge.fock import (
    ModeWindow,
    _check_state_window,
    _state_of_bits,
    basis_vector,
    frobenius_word,
    letter,
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
    apply_element,
    charge_of,
)
from tauforge.partitions import Partition, enumerate_partitions, from_frobenius, hook_shape
from tauforge.polyring import (
    Poly,
    TimeFamily,
    _Sum,
    fraction_matmul,
    fraction_matrix_det,
    fraction_matrix_inverse,
    integer_matrix_det,
    poly_matrix_det,
)
from tauforge.schur import double_schur_sum, schur_jt
from tauforge.wick import (
    correlator_exact,
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


_EMPTY = Partition([])


def coefficient_reader(g, window: ModeWindow):
    """read(shape, n, source=empty) -> the signed coefficient
    (-1)^(sign exponents of shape and source) <shape, n| g |source, n - charge>.

    One dict, kept for the reader's lifetime only, holds what each
    (charge, source) reads from, formed on its first read.  A window element
    is applied to the source ket once, and every bra shape must fit the
    window (else WindowViolation, as for a basis bra).  A point-field
    element does not read the window: it is read by Wick's theorem on its
    `_WickTable`."""
    q = charge_of(g)
    field = is_field_based(g)
    held = {}  # (n, source) -> its ket or Wick table

    def read(shape: Partition, n: int, source: Partition = _EMPTY):
        got = held.get((n, source))
        if got is None:
            if field:
                got = _WickTable(g, q, n, source)
            else:
                got = apply_element(g, basis_vector(window, n - q, source))
            held[(n, source)] = got
        if field:
            return got.read(shape) if got.admits(shape.parts) else Fraction(0)
        _check_state_window(window, n, shape.parts)
        # the bra's shape sign cancels the ket's: read the wedge phase
        return got.wedge_component(n, shape.parts) * (-1) ** source.sign_exponent()

    return read


def coefficient_rows(g, n: int, depth: int, sources, window: ModeWindow):
    """(source, {shape: c}) for each source in turn: the nonzero signed
    coefficients c of `coefficient_reader` at charge n over every shape of
    weight <= depth, in `enumerate_partitions` order.

    A window element reads each source's ket, applied once, for its own
    states at charge n: no shape the ket lacks is probed.  The bra contract
    is the per-shape reader's, checked once after the first ket: the first
    shape in enumeration order to leave the window is (k) or (1^k) at the
    least failing weight k, (k) first, so only those two are tried.  A
    point-field element builds each source's Wick table first and reads
    only the shapes the table admits, those whose diagonal size is within
    its rank bound: every other shape reads 0."""
    shapes = enumerate_partitions(depth)
    q = charge_of(g)
    if is_field_based(g):
        for mu in sources:
            table = _WickTable(g, q, n, mu)
            admits, read = table.admits, table.read
            yield mu, {lam: c for lam in shapes if admits(lam.parts) and (c := read(lam))}
        return
    checked = False
    for mu in sources:
        ket = apply_element(g, basis_vector(window, n - q, mu))
        if not checked:
            for k in range(depth + 1):
                _check_state_window(window, n, Partition([k]).parts)
                _check_state_window(window, n, (1,) * k)
            checked = True
        ket = ket.restrict_charge(n).truncated(depth)
        # the bra's shape sign cancels the ket's: read the wedge phase
        wedge = {_state_of_bits(b, ket.base)[1]: c for b, c in ket.bits.items()}
        sign = -1 if mu.sign_exponent() & 1 else 1
        yield mu, {lam: wedge[lam.parts] * sign for lam in shapes if lam.parts in wedge}


def _integer_rows(matrix) -> tuple[list[list[int]], int]:
    """A rational matrix as (integer rows, d): each entry is its integer
    over d, the least common denominator."""
    den = lcm(*(x.denominator for row in matrix for x in row))
    return [[x.numerator * (den // x.denominator) for x in row] for row in matrix], den


class _WickTable:
    """The Wick table of a point-field element g of charge q at one (charge
    n, source): Wick's theorem over the bra's letters, g's layout and the
    source's ket letters with the vacuum pad.

    Once per table: B = I - A P_pq over g's points (`wick.wick_matrix`) and
    c = det B.  The bra of (alpha | beta), psi*_(n+alpha_i) then
    psi_(n-beta_i-1), is written before g's own letters and the source's
    (the fixed letters) and never pairs with itself.  A psi letter x has the
    factor P(x, q), its pairs with the hole points, and a psi* letter y the
    factor P(p, y), its pairs with the particle points.  With c != 0 x's
    factor is taken times M = B^-1 A and a read is c det E over the word's
    psi letters x and psi* letters y, E(x, y) = P(x, y) + (P(x, q) M)(P(p, y)),
    the Schur complement of B.  With c = 0 y's factor is taken times -A and
    a read is the bordered determinant det [[P, P(x, q)], [-A P(p, y), B]]
    itself, as `wick.wick_matrix` forms it, with B's rows formed once.

    Every letter a read meets, the fixed letters and the bra's legs and arms
    (each formed once), is held as (u, s), an integer vector over a scale s
    of its own.  A psi letter x's vector is s times: its factor, its pairs
    P(x, y) with the fixed psi* letters y, and (fixed letters only) its own
    unit among the fixed psi letters.  A psi* letter y's vector is s times:
    its factor, (fixed letters only) its own unit among the fixed psi*
    letters, and (bra letters only) its pairs P(x, y) with the fixed psi
    letters x.  So the dot product of x's vector and y's is s_x s_y E(x, y),
    each pair counted once, and with c = 0, the factors left out,
    s_x s_y P(x, y); a read's determinant is an integer one.  The bra's arm
    columns meet its legs only through g's couplings, of rank at most
    min(#holes, #particles), so they span at most that rank plus the number
    of fixed psi letters: a bra of larger diagonal size reads 0 and is never
    formed."""

    def __init__(self, g, q: int, n: int, source: Partition):
        self.n = n
        inner = wick_layout([g])
        points = [(s, j) for j, s in enumerate(inner) if s[2] is not None]
        self.holes = [(s, j) for s, j in points if s[1] == "psi*"]
        self.particles = [(s, j) for s, j in points if s[1] == "psi"]
        couplings = [
            [h[2][h[3]][p[3]] if p[2] is h[2] else 0 for p, _ in self.particles]
            for h, _ in self.holes
        ]
        _, b = wick_matrix(n, [s for s, _ in points])  # B = I - A P_pq
        self.c = fraction_matrix_det(b)
        # a letter of the mapped species has its factor u over e taken to
        # [u . v for v in vectors] over e d: the columns of M, or the rows of -A
        if self.c:
            m, d = _integer_rows(fraction_matmul(fraction_matrix_inverse(b), couplings))
            self.mapped, self.map, self.border = "psi", (list(zip(*m)), d), None
        else:
            self.mapped = "psi*"
            self.map = _integer_rows([[-x for x in row] for row in couplings])
            self.border = _integer_rows(b)
        self.sign = -1 if source.sign_exponent() & 1 else 1
        outer = wick_layout(frobenius_word(source, n - q) + vacuum_pad(n, n - q))
        slots = [(s, j) for j, s in enumerate(inner) if s[2] is None]
        slots += [(s, len(inner)) for s in outer]
        self.kinds = [s[1] for s, _ in slots]
        # in word order: of two fixed letters at one place, the one of lower
        # index is written first
        fixed = list(enumerate(self.letter(s, at) for s, at in slots))
        self.psi = [(i, x) for i, x in fixed if x[0][1] == "psi"]
        self.stars = [(i, y) for i, y in fixed if y[0][1] == "psi*"]
        self.fixed_rows = [self._row(x, i) for i, x in self.psi]
        self.fixed_cols = [self._col(y, i) for i, y in self.stars]
        balanced = len(self.psi) == len(self.stars)
        bound = min(len(self.holes), len(self.particles)) + len(self.psi)
        # the diagonal size exceeds the bound iff the part below the bound does
        self.admits = lambda parts: balanced and (len(parts) <= bound or parts[bound] <= bound)
        self.bras: dict[tuple, tuple] = {}  # (species, arm or leg) -> (u, s)
        self.scales: dict[int, Fraction] = {}

    def letter(self, slot, at: int) -> tuple:
        """(slot, place, factor, e) of a letter at place `at` of the word (-1
        for the bra's): its factor as integers over e, the row P(x, q) of a
        psi letter x or the column P(p, y) of a psi* letter y, mapped as the
        table's species says."""
        n = self.n
        if slot[1] == "psi":
            pairs = [oriented_pair(n, slot[0], h[0], at < j) for h, j in self.holes]
        else:
            pairs = [oriented_pair(n, p[0], slot[0], j < at) for p, j in self.particles]
        (factor,), den = _integer_rows([pairs])
        if slot[1] == self.mapped:
            vectors, d = self.map
            factor, den = [sum(map(mul, factor, v)) for v in vectors], den * d
        return slot, at, factor, den

    def read(self, shape: Partition) -> Fraction:
        """The signed coefficient of a shape the table admits: the minor of
        its bra legs and arms and the fixed letters, bordered by the hole
        points when c = 0, as one integer determinant over the product of
        its letters' scales."""
        alphas, betas = shape.frobenius()
        d = len(alphas)
        rows = [self.bra("psi", b) for b in reversed(betas)] + self.fixed_rows
        cols = [self.bra("psi*", a) for a in alphas] + self.fixed_cols
        den = prod(s for _, s in rows) * prod(s for _, s in cols)
        if self.border is None:
            minor = [[sum(map(mul, u, v)) for v, _ in cols] for u, _ in rows]
            det = minor[0][0] if len(minor) == 1 else integer_matrix_det(minor)
        else:
            # the first w entries of a vector are its factor
            w, (border, bd) = len(self.holes), self.border
            matrix = [[sum(map(mul, u[w:], v[w:])) for v, _ in cols] + u[:w] for u, _ in rows]
            matrix += [[bd * v[h] for v, _ in cols] + b for h, b in enumerate(border)]
            det = integer_matrix_det(matrix)
            den *= bd**w
        if not det:
            return Fraction(0)
        if (sum(betas) + d) & 1:  # the shape's sign exponent
            det = -det
        scale = self.scale(d)
        return Fraction(scale.numerator * det, scale.denominator * den)

    def _row(self, x: tuple, at: int | None = None) -> tuple:
        """(u, s) of a psi letter: the fixed one of index `at`, or a bra leg."""
        (lx, *_), _, factor, den = x
        n = self.n
        tail = [oriented_pair(n, lx, y[0][0], at is None or at < i) for i, y in self.stars]
        tail += [int(i == at) for i, _ in self.psi]
        return _scaled(factor, den, tail)

    def _col(self, y: tuple, at: int | None = None) -> tuple:
        """(u, s) of a psi* letter: the fixed one of index `at`, or a bra arm."""
        (ly, *_), _, factor, den = y
        if at is None:  # written before every fixed letter
            tail = [0] * len(self.stars)
            tail += [oriented_pair(self.n, x[0][0], ly, False) for _, x in self.psi]
        else:
            tail = [int(i == at) for i, _ in self.stars] + [0] * len(self.psi)
        return _scaled(factor, den, tail)

    def bra(self, kind: str, k: int) -> tuple:
        """(u, s) of the bra's psi*_(n+k) (arm k) or psi_(n-k-1) (leg k)."""
        got = self.bras.get((kind, k))
        if got is None:
            n = self.n
            slot = (letter(kind, n + k if kind == "psi*" else n - k - 1), kind, None, 0)
            x = self.letter(slot, -1)
            got = self.bras[(kind, k)] = self._row(x) if kind == "psi" else self._col(x)
        return got

    def scale(self, d: int) -> Fraction:
        """c, or 1 when c = 0 (the bordered determinant is the whole
        value), times the sign of the word's species order at diagonal
        size d."""
        got = self.scales.get(d)
        if got is None:
            kinds = ["psi*"] * d + ["psi"] * d + self.kinds
            got = self.scales[d] = (self.c or 1) * self.sign * interleave_sign(kinds)
        return got


def _scaled(factor: list[int], den: int, tail: list) -> tuple:
    """(s * (factor / den + tail), s) for the least s that makes every entry
    an integer; `tail` holds rationals."""
    s = lcm(den, *(v.denominator for v in tail))
    f = s // den
    return [x * f for x in factor] + [v.numerator * (s // v.denominator) for v in tail], s


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
    depth: int

    def to_json(self) -> dict:
        return series_json(self.kind, self.charge, self.depth, self.coefficients)


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
    expansion to weight `depth`, in `enumerate_partitions` order: a window
    element's from its one ket's states, a point-field element's from its
    Wick table (`coefficient_rows`)."""
    window = window or window_for_element(g, (n, n - charge_of(g)), depth)
    return next(coefficient_rows(g, n, depth, [_EMPTY], window))[1]


def expand_mkp(
    g,
    n: int,
    family: TimeFamily,
    depth: int,
    window: ModeWindow | None = None,
) -> TauSeries:
    """tau_n as the Schur expansion sum c_lambda s_lambda(t) over
    `mkp_coefficients`, on one running sum."""
    coeffs = mkp_coefficients(g, n, depth, window)
    total = _Sum(family.zero())
    for lam, c in coeffs.items():
        total.add(schur_jt(family, lam), c)
    return TauSeries("MKP", n, total.poly(), coeffs, depth)


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
    return vacuum_readout(family, ket.restrict_charge(n).truncated(depth), n)


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
    window = window or window_for_element(g, (n, n - charge_of(g)), depth)
    coeffs = {
        (lam, mu): c
        for mu, row in coefficient_rows(g, n, depth, enumerate_partitions(depth), window)
        for lam, c in row.items()
    }
    terms = ((lam, mu, c) for (lam, mu), c in coeffs.items())
    poly = double_schur_sum(family_plus, family_minus, terms)
    return TauSeries("2DTL", n, poly, coeffs, depth)


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
