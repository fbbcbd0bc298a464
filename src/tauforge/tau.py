"""Tau-series as Schur expansions with determinant coefficient identities.

Every tau coefficient is one signed matrix element of a group-like
element, (-1)^(sign exponents) <shape, n| g |source, n - charge>, and every
reader of coefficients takes them from one `coefficient_reader`.  The
reader picks the route once: a window-representable element is applied
once per (charge, source) and each bra shape read off that ket; a soliton
exponent is read by the generalized Wick theorem, c_shape = c_empty^(1-d)
det[c_(a_i|b_j)], from its vacuum value and hook coefficients, which need
one inverse of I + A K per charge; every other point-field element, and a
soliton where that theorem does not apply (a source, c_empty = 0, a pole),
is paired shape by shape through the exact kernels, which stay the oracle.
The series expansions and the hook-determinant, row/column-determinant
(with stepped charges), exchange and rectangle identities all read
through one reader per call; the kernel route builds its basis letters
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
    FieldWord,
    Product,
    ProjectorElement,
    SolitonExponent,
    _coupling_entries,
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
from tauforge.schur import _schur_poly, schur_jt
from tauforge.wick import correlator_exact, from_mode_letter, kernel_pair, kfield, kmode

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
    from tauforge.grouplike import (
        Diagonal,
        ExponentBilinear,
        LinearWord,
        NormalOrderedBilinear,
    )

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
    element does not read the window: a bare `SolitonExponent` is read
    from its hook matrix, built once per charge (`_hook_reader`), and any
    other, or a soliton read with a source, at c_empty = 0 or at a kernel
    pole, is paired through the exact kernels, shape by shape."""
    q = charge_of(g)
    if is_field_based(g):

        def read(shape: Partition, n: int, source: Partition = _EMPTY):
            letters = bra_letters(shape, n) + [g] + ket_letters(source, n - q)
            sign = (-1) ** (shape.sign_exponent() + source.sign_exponent())
            return correlator_exact(n, letters, n - q) * sign

        return _hook_reader(g, read) if isinstance(g, SolitonExponent) else read

    kets = {}

    def read(shape: Partition, n: int, source: Partition = _EMPTY):
        # the bra's shape sign cancels the ket's: read the wedge phase
        ket = kets.get((n, source))
        if ket is None:
            ket = kets[(n, source)] = apply_element(g, basis_vector(window, n - q, source))
        _check_state_window(window, n, shape.parts)
        return ket.wedge_component(n, shape.parts) * (-1) ** source.sign_exponent()

    return read


def _hook_reader(g: SolitonExponent, kernel_read):
    """The reader of a soliton exponent g = exp(sum A_ik psi*(q_i) psi(p_k))
    by the generalized Wick theorem, with `kernel_read` where it does not
    apply: a nonempty source, c_empty = 0, or a pole of the kernels (which
    the kernel route then reports as it always has).

    Per charge n, once: K_kj = <n| psi*(q_j) psi(p_k) |n> over the coupled
    particle points k and hole points j, c_empty = det(I + A K) and
    M = (I + A K)^-1 A.  A hook coefficient is
    c_(a|b) = (-1)^(sign exponent) c_empty sum_ik M_ik <n| psi*_(n+a) psi(p_k) |n>
    <n| psi_(n-b-1) psi*(q_i) |n>, memoized, and a shape of diagonal size d
    reads det[c_(a_i|b_j)] / c_empty^(d-1) (the Giambelli identity), which
    is 0 when d exceeds the number of coupled hole or particle points, since
    the hook matrix factors through M."""
    coupled = [key for key, c in _coupling_entries(g.a_rows).items() if c]
    rows = sorted({i for i, _ in coupled})
    cols = sorted({k for _, k in coupled})
    a = [[g.a_rows[i][k] for k in cols] for i in rows]
    holes = [kfield("psi*", g.qs[i]) for i in rows]
    particles = [kfield("psi", g.ps[k]) for k in cols]
    rank = min(len(rows), len(cols))  # a bound on the rank of every hook matrix
    vacua: dict[int, tuple | None] = {}
    hooks: dict[tuple[int, int, int], Fraction] = {}

    def vacuum_data(n: int):
        if n not in vacua:
            vacua[n] = None
            try:
                kernel = [[kernel_pair(n, h, p) for h in holes] for p in particles]
            except ZeroDivisionError:
                return None
            one_plus = _matmul(a, kernel)
            for i, row in enumerate(one_plus):
                row[i] += 1
            c_empty = fraction_matrix_det(one_plus)
            if c_empty:
                vacua[n] = (c_empty, _matmul(fraction_matrix_inverse(one_plus), a))
        return vacua[n]

    def hook(n: int, alpha: int, beta: int) -> Fraction:
        got = hooks.get((n, alpha, beta))
        if got is None:
            c_empty, m = vacua[n]
            arm = [kernel_pair(n, kmode("psi*", n + alpha), p) for p in particles]
            leg = [kernel_pair(n, kmode("psi", n - beta - 1), h) for h in holes]
            total = sum((x * sum(map(mul, row, arm)) for x, row in zip(leg, m)), Fraction(0))
            sign = (-1) ** hook_shape(alpha, beta).sign_exponent()
            got = hooks[(n, alpha, beta)] = total * c_empty * sign
        return got

    def read(shape: Partition, n: int, source: Partition = _EMPTY):
        data = None if source else vacuum_data(n)
        if data is None:
            return kernel_read(shape, n, source)
        alphas, betas = shape.frobenius()
        if len(alphas) > rank:
            return Fraction(0)
        entries = [[hook(n, al, be) for be in betas] for al in alphas]
        return fraction_matrix_det(entries) / data[0] ** (len(alphas) - 1)

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
        terms = []
        for key in sorted(self.coefficients, key=_coeff_sort_key):
            c = self.coefficients[key]
            entry = {"coeff": c.to_json() if isinstance(c, Poly) else str(c)}
            if isinstance(key, tuple) and isinstance(key[0], Partition):
                entry["partition"] = key[0].to_json()
                entry["second_partition"] = key[1].to_json()
            else:
                entry["partition"] = key.to_json()
            terms.append(entry)
        return {
            "kind": self.kind,
            "charge": self.charge,
            "cutoff": self.provenance.get("depth"),
            "terms": terms,
        }


def _coeff_sort_key(key):
    if isinstance(key, tuple) and isinstance(key[0], Partition):
        return (
            key[0].weight + key[1].weight,
            tuple(-x for x in key[0].parts),
            tuple(-x for x in key[1].parts),
        )
    return (key.weight, tuple(-x for x in key.parts), ())


def expand_mkp(
    g,
    n: int,
    family: TimeFamily,
    depth: int,
    window: ModeWindow | None = None,
) -> TauSeries:
    """tau_n as the Schur expansion with signed bra coefficients, all read
    through one coefficient reader."""
    read = coefficient_reader(g, window or window_for_element(g, (n, n - charge_of(g)), depth))
    coeffs = {}
    total = _Sum(family.zero())
    for lam in enumerate_partitions(depth):
        c = read(lam, n)
        if not c:
            continue
        coeffs[lam] = c
        total.add(schur_jt(family, lam) * c)
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
    element's state and read off the vacuum component (the kernel route
    with dressing for point-field elements)."""
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
    total = _Sum(family_plus.zero())
    for mu in shapes:
        for lam in shapes:
            c = read(lam, n, mu)
            if not c:
                continue
            coeffs[(lam, mu)] = c
            total.add(schur_jt(family_plus, lam) * _schur_neg(family_minus, mu) * c)
    return TauSeries("2DTL", n, total.poly(), coeffs, {"depth": depth, "element": repr(g)})


def _schur_neg(family: TimeFamily, shape: Partition) -> Poly:
    """Schur function at negated times."""
    return _schur_poly(family, shape.parts, (), -1)


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
