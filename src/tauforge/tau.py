"""Tau-series as Schur expansions with determinant coefficient identities.

Every tau coefficient is one signed matrix element of a group-like
element, (-1)^(sign exponents) <shape, n| g |source, n - charge>, and every
reader of coefficients takes them from one `coefficient_reader`.  The
reader picks the route once: a window-representable element is applied
once per (charge, source) and each bra shape read off that ket; a
point-field element (a soliton exponent, a field word, a product with
them) is read by Wick's theorem on its layout (`wick.wick_layout`) with
the basis letters of `fock.frobenius_word` as they are, one bordered
determinant per read, taken as c det(P_ff + P_fq M P_pf) with
c = det(I - A P_pq) and M = (I - A P_pq)^-1 A formed once per charge.
Each pair value of that Schur complement is memoized in one letter table
per (charge, source), so a read is c times one minor of the table, as in
the generalized Wick theorem's c_0^(d-1) c_(alpha|beta) = det c_(alpha_i|beta_j).
The identity checks read shape by shape through one reader per call.  The
series expansions read every shape to a weight at once (`coefficient_rows`):
a window element's coefficients are its ket's own states, so no absent
shape is probed, and a point-field element's come from its Wick tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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

    A window element is applied to each (charge, source) ket once, kept
    for the reader's lifetime only, and every bra shape must fit the
    window (else WindowViolation, as for a basis bra).  A point-field
    element does not read the window: it is read by Wick's theorem
    (`_WickReader`), through one letter table per (charge, source)."""
    q = charge_of(g)
    if is_field_based(g):
        return _WickReader(g, q)

    kets = {}

    def read(shape: Partition, n: int, source: Partition = _EMPTY):
        # the bra's shape sign cancels the ket's: read the wedge phase
        ket = kets.get((n, source))
        if ket is None:
            ket = kets[(n, source)] = apply_element(g, basis_vector(window, n - q, source))
        _check_state_window(window, n, shape.parts)
        return ket.wedge_component(n, shape.parts) * (-1) ** source.sign_exponent()

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
    point-field element is read shape by shape through its Wick tables."""
    shapes = enumerate_partitions(depth)
    q = charge_of(g)
    if is_field_based(g):
        read = _WickReader(g, q)
        for mu in sources:
            yield mu, {lam: c for lam in shapes if (c := read(lam, n, mu))}
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


class _WickReader:
    """The reader of a point-field element g of charge q by Wick's theorem
    (`wick.wick_matrix`) over the bra's letters, g's layout and the source's
    ket letters with the vacuum pad.

    Per charge n, once: B = I - A P_pq over g's points, c = det B and
    M = B^-1 A.  With c != 0 a read is c det E over the word's psi letters
    x and psi* letters y, E(x, y) = P(x, y) + (P(x, q) M)(P(p, y)), the
    Schur complement of B.  The bra of (alpha | beta), psi*_(n+alpha_i) then
    psi_(n-beta_i-1), is written before g's own letters and the source's
    (the fixed letters) and never pairs with itself.  A `_WickTable` per
    (charge, source) memoizes E, so a read is one minor of it: no letter
    word is built per shape.  With c = 0 a read is the bordered determinant
    itself.  A bra's block has rank at most min(#holes, #particles) plus
    the number of fixed letters: a bra of larger diagonal size reads 0."""

    def __init__(self, g, q: int):
        self.q = q
        self.inner = inner = wick_layout([g])
        self.own = [(s, j) for j, s in enumerate(inner) if s[2] is None]
        self.holes = [(s, j) for j, s in enumerate(inner) if s[2] is not None and s[1] == "psi*"]
        self.particles = [
            (s, j) for j, s in enumerate(inner) if s[2] is not None and s[1] == "psi"
        ]
        self.couplings = [
            [h[2][h[3]][p[3]] if p[2] is h[2] else 0 for p, _ in self.particles]
            for h, _ in self.holes
        ]
        self.rank = min(len(self.holes), len(self.particles))
        self.vacua: dict[int, tuple] = {}  # n -> (c, M)
        self.bras: dict[tuple, tuple] = {}  # (n, species, arm or leg) -> letter
        self.tables: dict[tuple, _WickTable] = {}  # (n, source) -> its table

    def __call__(self, shape: Partition, n: int, source: Partition = _EMPTY):
        table = self.tables.get((n, source))
        if table is None:
            table = self.tables[(n, source)] = _WickTable(self, n, source)
        alphas, betas = shape.frobenius()
        d = len(alphas)
        if d > self.rank + len(table.fixed):
            return Fraction(0)
        if not table.c:
            bra = [self.bra_letter(n, "psi*", a)[0] for a in alphas]
            bra += [self.bra_letter(n, "psi", b)[0] for b in reversed(betas)]
            s, matrix = wick_matrix(n, bra + self.inner + table.outer)
            value = s * table.sign * fraction_matrix_det(matrix) if s else Fraction(0)
        elif len(table.rows) != len(table.cols):
            return Fraction(0)
        else:
            entry = self.entry
            cols = [*alphas, *table.cols]
            rows = [*reversed(betas), *table.rows]
            minor = [[entry(table, x, y) for y in cols] for x in rows]
            det = minor[0][0] if len(minor) == 1 else fraction_matrix_det(minor)
            value = table.scale(d) * det
        return -value if shape.sign_exponent() & 1 else value

    def vacuum_data(self, n: int) -> tuple:
        got = self.vacua.get(n)
        if got is None:
            _, b = wick_matrix(n, [s for s in self.inner if s[2] is not None])  # B = I - A P_pq
            c = fraction_matrix_det(b)
            m = fraction_matmul(fraction_matrix_inverse(b), self.couplings) if c else None
            got = self.vacua[n] = (c, m)
        return got

    def letter(self, n: int, slot, at: int) -> tuple:
        """(slot, place, factor) of a letter at place `at` of the word (-1
        for the bra's): its factor is the row P(x, q) M of a psi letter x or
        the column P(p, y) of a psi* letter y, None while c = 0."""
        c, m = self.vacuum_data(n)
        if not c:
            return slot, at, None
        if slot[1] == "psi":
            legs = [oriented_pair(n, slot[0], h[0], at < j) for h, j in self.holes]
            return slot, at, [sum(map(mul, legs, col), Fraction(0)) for col in zip(*m)]
        return slot, at, [oriented_pair(n, p[0], slot[0], j < at) for p, j in self.particles]

    def bra_letter(self, n: int, kind: str, k: int) -> tuple:
        """`letter` of the bra's psi*_(n+k) (arm k) or psi_(n-k-1) (leg k)."""
        got = self.bras.get((n, kind, k))
        if got is None:
            slot = (letter(kind, n + k if kind == "psi*" else n - k - 1), kind, None, 0)
            got = self.bras[(n, kind, k)] = self.letter(n, slot, -1)
        return got

    def entry(self, table: "_WickTable", x: int, y: int) -> Fraction:
        """E(x, y) of a table, memoized there."""
        got = table.values.get((x, y))
        if got is None:
            n = table.n
            sx, at_x, fx = self.bra_letter(n, "psi", x) if x >= 0 else table.fixed[-1 - x]
            sy, at_y, fy = self.bra_letter(n, "psi*", y) if y >= 0 else table.fixed[-1 - y]
            # bra letters never pair with each other; of two fixed letters
            # at one place, the one of lower index is written first
            first = at_x < at_y or (at_x == at_y and x > y)
            pair = 0 if at_x == at_y == -1 else oriented_pair(n, sx[0], sy[0], first)
            got = table.values[(x, y)] = pair + sum(map(mul, fx, fy), Fraction(0))
        return got


class _WickTable:
    """A Wick reader's letter table at one (charge, source): the fixed
    letters (g's own, then the source's ket letters and vacuum pad) with
    their factors, the pair values E(x, y) (`_WickReader.entry`) over bra
    legs, bra arms and fixed letters (leg or arm k is the key k, fixed
    letter i the key -1 - i), and c times the sign of the word's species
    order, memoized by the bra's diagonal size.  It holds no reference to
    its reader, so the two form no cycle and are freed when reading ends."""

    def __init__(self, reader: _WickReader, n: int, source: Partition):
        self.n = n
        self.c = reader.vacuum_data(n)[0]
        self.sign = -1 if source.sign_exponent() & 1 else 1
        self.outer = wick_layout(frobenius_word(source, n - reader.q) + vacuum_pad(n, n - reader.q))
        slots = reader.own + [(s, len(reader.inner)) for s in self.outer]
        self.fixed = [reader.letter(n, s, at) for s, at in slots]
        self.kinds = [s[1] for s, _, _ in self.fixed]
        self.rows = [-1 - i for i, k in enumerate(self.kinds) if k == "psi"]
        self.cols = [-1 - i for i, k in enumerate(self.kinds) if k == "psi*"]
        self.values: dict[tuple, Fraction] = {}
        self.scales: dict[int, Fraction] = {}

    def scale(self, d: int) -> Fraction:
        got = self.scales.get(d)
        if got is None:
            kinds = ["psi*"] * d + ["psi"] * d + self.kinds
            got = self.scales[d] = self.c * self.sign * interleave_sign(kinds)
        return got


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
    `mkp_coefficients`."""
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
