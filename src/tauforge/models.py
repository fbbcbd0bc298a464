"""Concrete tau-function families with closed forms and cross-checks.

Every family is produced by at least two independent routes (an operator
route through the Fock space or the exact kernels, and a closed-form
route), and equality is exact modulo the weight truncation.  Square-root
and pi prefactors of the matrix-model integrals are dropped as tracked
units so all arithmetic stays rational; the docstrings note where.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from math import factorial, prod
from typing import Callable, Sequence

from tauforge.fock import (
    ModeWindow,
    apply_current_exp,
    project,
    vacuum,
    vacuum_readout,
    window_for,
)
from tauforge.grouplike import (
    Diagonal,
    DiagonalFlow,
    ExponentBilinear,
    FieldWord,
    ModeMatrix,
    NormalOrderedBilinear,
    Product,
    SolitonExponent,
    apply_element,
    bilinear_minors,
    charge_of,
    reorder,
)
from tauforge.partitions import (
    Partition,
    enumerate_partitions,
    hook_shape,
    pochhammer,
    pochhammer_content,
)
from tauforge.polyring import (
    Poly,
    TimeFamily,
    Variable,
    VariableTable,
    _Sum,
    fraction_matrix_det,
    poly_matrix_det,
)
from tauforge.schur import double_schur_sum
from tauforge.tau import (
    TauSeries,
    coefficient_reader,
    window_for_element,
)
from tauforge.wick import _field_field_kernel, correlator_exact, vacuum_kernel

# -- solitons -------------------------------------------------------------------


SolitonData = SolitonExponent  # the name perfbench's references construct


def _coupling_entries(couplings) -> dict[tuple[int, int], Fraction]:
    """A soliton coupling matrix as {(hole row i, particle column k): A_ik}."""
    return {(i, k): c for i, row in enumerate(couplings) for k, c in enumerate(row)}


def _exp_eta(family: TimeFamily, data: SolitonExponent, i: int, k: int, n: int) -> Poly:
    """The elementary exponential factor p_i^n q_k^(1-n)/(q_k - p_i)
    exp(xi(t,p_i) - xi(t,q_k)) of the kernel matrix; its prefactor is the
    two-point kernel <n| psi*(q_k) psi(p_i) |n>, whose pole raises."""
    p, q = data.ps[i], data.qs[k]
    pref = _field_field_kernel(n, "psi*", p, 0, q, 0)
    return (family.xi_value(p) - family.xi_value(q)).series_exp() * pref


def soliton_tau(
    data: SolitonExponent,
    n: int,
    family: TimeFamily,
    depth: int,
    form: str = "determinant",
) -> TauSeries:
    """The soliton family in two forms: "determinant" (identity plus
    coupling times kernel matrix) and "explicit" (subset expansion with
    closed-form minors).  Its Schur expansion is `tau.expand_mkp`."""
    if form == "determinant":
        poly = _coupled_kernel_det(data, lambda k, j: _exp_eta(family, data, k, j, n), family)
        return TauSeries("MKP", n, poly, {}, depth)
    if form == "explicit":
        total = _Sum(family.zero())
        minors = bilinear_minors(_coupling_entries(data.couplings))
        for (rows_sel, cols_sel), a_det in minors.items():
            # closed-form kernel minor over (particle cols, hole rows): the
            # Cauchy determinant with the charge powers p^n q^(1-n)
            ps = [data.ps[k] for k in cols_sel]
            qs = [data.qs[i] for i in rows_sel]
            factor = family.constant(vacuum_kernel(n, ps, qs, "stars_first"))
            for p in ps:
                factor = factor * family.xi_value(p).series_exp()
            for q in qs:
                factor = factor * (family.xi_value(q) * -1).series_exp()
            total.add(factor, a_det)
        return TauSeries("MKP", n, total.poly(), {}, depth)
    raise ValueError(f"unknown form {form!r}")


def _coupled_kernel_det(data: SolitonExponent, eta, family: TimeFamily) -> Poly:
    """det(I + A K) for the kernel K_kj = eta(k, j).  A hole point whose
    couplings all vanish has a unit row, so its column never enters: the
    determinant is taken over the coupled hole points only, and each K_kj
    is formed once and only when a nonzero coupling uses it."""
    eta = cache(eta)
    coupled = [i for i, row in enumerate(data.couplings) if any(row)]
    rows = []
    for i in coupled:
        row = []
        for j in coupled:
            acc = _Sum(family.one() if i == j else family.zero())
            for k, c in enumerate(data.couplings[i]):
                if c:
                    # (A Q)_{ij}: couple hole point i to particle point k
                    acc.add(eta(k, j), c)
            row.append(acc.poly())
        rows.append(row)
    return poly_matrix_det(rows) if rows else family.one()


def soliton_fermionic_det(
    ps: Sequence[Fraction],
    qs: Sequence[Fraction],
    bs: Sequence[Fraction],
    n: int,
    family: TimeFamily,
) -> Poly:
    """The alternative charged-word realization: determinant of
    exp(xi(t,q_i)) q_i^(n-j) + b_i exp(xi(t,p_i)) p_i^(n-j)."""
    size = len(ps)
    eq = [family.xi_value(q).series_exp() for q in qs]
    ep = [family.xi_value(p).series_exp() for p in ps]
    rows = [
        [
            eq[i] * (Fraction(qs[i]) ** (n - j)) + ep[i] * (Fraction(bs[i]) * Fraction(ps[i]) ** (n - j))
            for j in range(1, size + 1)
        ]
        for i in range(size)
    ]
    return poly_matrix_det(rows)


def soliton_gauge_couplings(
    ps: Sequence[Fraction], qs: Sequence[Fraction], bs: Sequence[Fraction]
) -> list[Fraction]:
    """Diagonal couplings matching the charged-word determinant: derived
    by expanding that determinant over which rows take the p-branch."""
    size = len(ps)
    out = []
    for i in range(size):
        g = Fraction(1)
        for j in range(size):
            if j != i:
                g *= (ps[i] - qs[j]) / (qs[i] - qs[j])
        out.append(
            Fraction(bs[i])
            * (Fraction(qs[i]) / Fraction(ps[i])) ** size
            * g
            * (qs[i] - ps[i])
            / qs[i]
        )
    return out


def soliton_gauge_factor(
    qs: Sequence[Fraction], n: int, size: int, family: TimeFamily
) -> Poly:
    """The exact prefactor relating the two soliton realizations: a charge
    power and one exponential of a linear form per hole point."""
    vander = Fraction(1)
    for i in range(size):
        for j in range(i + 1, size):
            vander *= Fraction(qs[i]) - Fraction(qs[j])
    out = family.constant(vander)
    for q in qs:
        out = out * family.xi_value(q).series_exp() * (Fraction(q) ** (n - size))
    return out


def affine_log_ratio(num: Poly, den: Poly) -> Poly | None:
    """log(num/den) if it is affine-linear in the variables (total degree
    <= 1); None otherwise.  The constant term is dropped (it is the log of
    the constant ratio, not a polynomial)."""
    ratio = num * den.series_inverse()
    c0 = ratio.constant_term()
    if c0 == 0:
        return None
    log_part = (ratio * Fraction(1, c0) - 1).series_log1p()
    for key in log_part.terms:
        if sum(e for _, e in key) > 1:
            return None
    return log_part


# -- quasi-polynomial families -----------------------------------------------------


def field_word(points_orders: Sequence[tuple[str, Fraction, Sequence[Fraction]]]) -> FieldWord:
    """Build a word of point-field combinations: each entry is
    (kind, point, derivative coefficients [a_0, a_1, ...])."""
    letters = []
    for kind, point, coeffs in points_orders:
        terms = tuple(
            (Fraction(c), kind, (Fraction(point), m))
            for m, c in enumerate(coeffs)
            if c != 0
        )
        letters.append(terms)
    return FieldWord(tuple(letters))


def quasipoly_tau(word: FieldWord, n: int, family: TimeFamily) -> Poly:
    """tau for a product of particle-type point letters between stepped
    vacua, via the dressed kernel expectation."""
    q = charge_of(word)
    return correlator_exact(n, [word], n - q, family=family)


def quasipoly_tau_stepped(word: FieldWord, n: int, family: TimeFamily) -> Poly:
    """Second route: the stepped-charge determinant, one letter per row."""
    letters = word.letters
    size = len(letters)
    entries = [
        [
            correlator_exact(n - j + 1, [FieldWord((letters[i],))], n - j, family=family)
            for j in range(1, size + 1)
        ]
        for i in range(size)
    ]
    return poly_matrix_det(entries)


def single_derivative_closed_form(p: Fraction, n: int, family: TimeFamily) -> Poly:
    """Closed form for the one-letter derivative word: the expectation of
    the z-derivative field between charges n and n-1 equals
    (n - 1 + sum_k k t_k p^k) p^(n-2) exp(xi(t, p))."""
    p = Fraction(p)
    linear = family.zero()
    for k in range(1, family.depth + 1):
        linear = linear + family.time(k) * (k * p**k)
    return (linear + (n - 1)) * family.xi_value(p).series_exp() * p ** (n - 2)


# -- unitary-model family ------------------------------------------------------------


def unitary_model_tau(
    count: int,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
    depth: int,
    route: str = "cauchy",
) -> Poly:
    """Circular-ensemble partition function.

    route "cauchy" (the default, which the CLI uses): the double Schur
    sum of s(t+) s(-t-) over the shapes with at most `count` rows, the
    second family at negated times (the sign realized by
    the operator construction; see the sign-convention note in the
    README); route "toeplitz", kept as the tests' oracle: the size-`count`
    determinant of the band sums sum_a h_a(t+) h_{a+j-k}(-t-).  count <= 0
    degenerates: 1 at 0, 0 below.
    """
    if count < 0:
        return family_plus.zero()
    if count == 0:
        return family_plus.one()
    if route == "cauchy":
        shapes = enumerate_partitions(depth, max_rows=count)
        return double_schur_sum(family_plus, family_minus, ((lam, lam, 1) for lam in shapes))
    if route == "toeplitz":
        rows = []
        for j in range(1, count + 1):
            row = []
            for k in range(1, count + 1):
                acc = family_plus.zero()
                for a in range(0, depth + 1):
                    hp = family_plus.h(a)
                    hm = family_minus.h(a + j - k, sign=-1)
                    if hp.is_zero or hm.is_zero:
                        continue
                    acc = acc + hp * hm
                row.append(acc)
            rows.append(row)
        return poly_matrix_det(rows)
    raise ValueError(f"unknown route {route!r}")


def _content_sum(shape: Partition) -> int:
    """The staircase content sum sum_i shape_i (shape_i + 1 - 2i)."""
    return sum(
        shape.part(i) * (shape.part(i) + 1 - 2 * i) for i in range(1, shape.length + 1)
    )


# -- diagonal matrix models ------------------------------------------------------------


@dataclass(frozen=True)
class DiagonalModel:
    """A mode-multiplier family g_n for n >= 0 (the non-negative modes of
    a sea-projected ensemble).  Prefactor units (powers of pi and sqrt
    factors of the underlying integrals) are dropped; only the rational
    content enters."""

    name: str
    g: Callable[[int], Fraction]

    @staticmethod
    def gaussian(c: Fraction) -> "DiagonalModel":
        c = Fraction(c)
        return DiagonalModel("gaussian", lambda k: c ** (-k - 1) * factorial(k))

    @staticmethod
    def hciz(c: Fraction) -> "DiagonalModel":
        c = Fraction(c)
        return DiagonalModel("hciz", lambda k: c**k / factorial(k))

    @staticmethod
    def log_squared(r: Fraction, e_half_beta: Fraction) -> "DiagonalModel":
        r, e = Fraction(r), Fraction(e_half_beta)
        return DiagonalModel("log_squared", lambda k: r ** (2 * k) * e ** (k * k + 2 * k))


def diagonal_model_tau_fock(
    model: DiagonalModel,
    count: int,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
    depth: int,
) -> Poly:
    """Operator route: lower with the negated second family, project onto
    the sea-filled sector, multiply the occupied non-negative modes, raise
    with the first family, read the vacuum component."""
    window = window_for([count], depth)
    v = apply_current_exp("lower", family_minus, vacuum(window, count), depth, scale=-1)
    v = project("plus", v, 0)
    mults = tuple((j, model.g(j)) for j in range(0, window.hi))
    v = apply_element(Diagonal(mults, ordered=False), v)
    return vacuum_readout(family_plus, v, count)


def diagonal_model_tau_closed(
    model: DiagonalModel,
    count: int,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
    depth: int,
) -> Poly:
    """Closed route: the diagonal double Schur sum, each shape weighted by its
    eigenvalue, g over the occupied modes count + shape_i - i >= 0 (g
    memoized for the call: the shapes share most of their modes)."""
    g = cache(model.g)

    def eigenvalue(lam: Partition) -> Fraction:
        return prod(g(count + lam.part(i) - i) for i in range(1, count + 1))

    shapes = enumerate_partitions(depth, max_rows=count)
    terms = ((lam, lam, eigenvalue(lam)) for lam in shapes)
    return double_schur_sum(family_plus, family_minus, terms)


def gaussian_coefficient_ratio(count: int, shape: Partition, c: Fraction) -> Fraction:
    """Expected ratio of the shape coefficient to the empty one for the
    normal Gaussian ensemble: (1/c)^weight times the content product."""
    return Fraction(c) ** (-shape.weight) * pochhammer_content(count, shape)


def hciz_coefficient_ratio(count: int, shape: Partition, c: Fraction) -> Fraction:
    return Fraction(c) ** shape.weight / pochhammer_content(count, shape)


def log_squared_coefficient_ratio(
    count: int, shape: Partition, r: Fraction, e_half_beta: Fraction
) -> Fraction:
    """e^(beta C/2) (r^2 e^(beta(count+1/2)))^weight with C the staircase
    content sum, all through the exact rational base."""
    return (
        Fraction(e_half_beta) ** (_content_sum(shape) + shape.weight * (2 * count + 1))
        * Fraction(r) ** (2 * shape.weight)
    )


# -- Gaussian Hermitian ensemble ----------------------------------------------------------


def gaussian_moment(m: int) -> int:
    """Normalized even moments by the double-factorial recurrence."""
    if m < 0:
        raise ValueError
    if m % 2 == 1:
        return 0
    out = 1
    for x in range(m - 1, 0, -2):
        out *= x
    return out


def hermitian_moment_tau(count: int, family: TimeFamily, depth: int) -> Poly:
    """Hankel determinant of time-dressed Gaussian moments.  The unit
    (2 pi)^(count/2) of the underlying integrals is dropped."""
    if count == 0:
        return family.one()
    rows = []
    for i in range(1, count + 1):
        row = []
        for j in range(1, count + 1):
            acc = _Sum(family.zero())
            for a in range(0, depth + 1):
                mu = gaussian_moment(i + j - 2 + a)
                if mu:
                    acc.add(family.h(a), mu)
            row.append(acc.poly())
        rows.append(row)
    return poly_matrix_det(rows)


def weight_shift_element(window: ModeWindow) -> ExponentBilinear:
    """Half of the weight-two raising flow: exp((1/2) sum k(k-1) over the
    window of the hole-particle pair two modes apart)."""
    entries = {}
    for k in range(window.lo + 2, window.hi):
        c = Fraction(-k * (k - 1), 2)
        if c:
            entries[(k - 2, k)] = c
    return ExponentBilinear(ModeMatrix(entries))


def hermitian_fermionic_tau(count: int, family: TimeFamily, depth: int) -> Poly:
    """Operator route: raise through the weight-two flow from the charged
    sea; equals the moment determinant divided by the staircase of
    factorials (the tracked unit aside).  The flow is read in the sea's
    own ordering: its bare form's minors would also chain through the
    empty modes, thousands of them per output state."""
    window = window_for([count], depth + 2)
    bare = NormalOrderedBilinear(weight_shift_element(window).bare)
    scalar, g = reorder(bare, count)
    ket = apply_element(g, vacuum(window, count)).scale(scalar)
    return vacuum_readout(family, ket.truncated(depth), count)


def hermitian_moment_element(span: int) -> NormalOrderedBilinear:
    """Line-measure Gaussian coupling: the moment matrix over non-negative
    modes is the Hankel array of normalized even moments."""
    moments = {
        (n, m): Fraction(gaussian_moment(n + m))
        for n in range(span)
        for m in range(span)
    }
    return moment_coupled_element(moments)


def hermitian_two_family_tau(
    count: int, family_plus: TimeFamily, family_minus: TimeFamily, depth: int
) -> Poly:
    """The two-family realization through the Hankel moment coupling and
    the sea projector; depends on time differences only (the chain
    property), which the tests assert."""
    window = window_for([count], depth + 2)
    v = apply_current_exp("lower", family_minus, vacuum(window, count), depth, scale=-1)
    v = project("plus", v, 0)
    v = apply_element(hermitian_moment_element(window.hi), v)
    v = project("plus", v, 0)
    return vacuum_readout(family_plus, v.truncated(depth), count)


# -- cut-and-join family ---------------------------------------------------------------


def cut_and_join_tau_sum(
    e_half_beta: Fraction,
    q: Fraction,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
    depth: int,
) -> Poly:
    """Direct double Schur sum with staircase-content exponents."""
    e, q = Fraction(e_half_beta), Fraction(q)
    return double_schur_sum(
        family_plus,
        family_minus,
        ((lam, lam, e ** _content_sum(lam) * q**lam.weight) for lam in enumerate_partitions(depth)),
    )


def cut_and_join_element(e_half_beta: Fraction, q: Fraction) -> Product:
    """The diagonal-flow realization: the quadratic staircase flow at base
    e^(beta/2) composed with the weight-counting flow at base Q."""
    return Product(
        (
            DiagonalFlow((Fraction(0), Fraction(1), Fraction(1)), Fraction(e_half_beta)),
            DiagonalFlow((Fraction(0), Fraction(1)), Fraction(q)),
        )
    )


def cut_and_join_tau_operator(
    e_half_beta: Fraction,
    q: Fraction,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
    depth: int,
) -> Poly:
    window = window_for([0], depth)
    v = apply_current_exp("lower", family_minus, vacuum(window, 0), depth, scale=-1)
    v = apply_element(cut_and_join_element(e_half_beta, q), v)
    return vacuum_readout(family_plus, v, 0)


# -- Hamiltonian-evolution tau in the auxiliary times -------------------------------------


def hamiltonian_families(t_depth: int, w_depth: int):
    """Table with the auxiliary times (grading "T"), a shift family for
    residue checks, and the formal inverse spectral unit (grading "w")."""
    variables = [Variable(f"T{k}", "T", k) for k in range(1, t_depth + 1)]
    variables += [Variable(f"A{k}", "T", k) for k in range(1, t_depth + 1)]
    variables.append(Variable("winv", "w", 1))
    table = VariableTable(variables)
    cutoffs = {"T": t_depth, "w": w_depth}
    times = TimeFamily(table, cutoffs, [f"T{k}" for k in range(1, t_depth + 1)], "T")
    shift = TimeFamily(table, cutoffs, [f"A{k}" for k in range(1, t_depth + 1)], "T")
    return times, shift


def _flow_exp(times: TimeFamily, m) -> Poly:
    """exp(sum_k m(k) t_k), truncated at the time cutoff."""
    linear = _Sum(times.zero())
    for k in range(1, times.depth + 1):
        linear.add(times.time(k), m(k))
    return linear.poly().series_exp()


def _staircase_exponent_factor(times: TimeFamily, shape: Partition) -> Poly:
    """exp of the flow-weight sums over the shape's Frobenius data,
    truncated at the time cutoff."""
    alphas, betas = shape.frobenius()
    return _flow_exp(
        times, lambda k: sum(a**k - (-b - 1) ** k for a, b in zip(alphas, betas))
    )


def _spectral_reader(g, w_depth: int, window: ModeWindow | None):
    """Coefficient reader at charge 0 whose default window fits every shape
    of spectral weight up to w_depth."""
    return coefficient_reader(
        g, window or window_for_element(g, (0, -charge_of(g)), w_depth + 1)
    )


def hamiltonian_tau_eigen(
    g,
    a: Fraction,
    times: TimeFamily,
    w_depth: int,
    window: ModeWindow | None = None,
) -> Poly:
    """Eigenvalue route: signed coefficients times the content-evaluated
    Schur values (formal inverse spectral powers) times flow exponents."""
    a = Fraction(a)
    read = _spectral_reader(g, w_depth, window)
    winv = Poly.variable(times.table, times.cutoffs, "winv")
    out = times.zero()
    for lam in enumerate_partitions(w_depth):
        c = read(lam, 0)
        if c == 0:
            continue
        content = pochhammer_content(a, lam) / lam.hook_product()
        out = (
            out
            + _staircase_exponent_factor(times, lam)
            * winv**lam.weight
            * (c * content)
        )
    return out


def _hook_couplings(read, a: Fraction, w_depth: int):
    """The central coefficient and the hook-coefficient matrix of the
    infinite-soliton form: entry (i, k) couples the integer points i-1
    and -k."""
    central = read(Partition([]), 0)
    if central == 0:
        raise ZeroDivisionError("central coefficient vanishes")
    entries = {}
    for i in range(1, w_depth + 1):
        for k in range(1, w_depth + 2 - i):
            c = read(hook_shape(i - 1, k - 1), 0)
            num = (
                (-1) ** k
                * (c / central)
                * pochhammer(a, i)
                * pochhammer(-a, k)
                / (a * factorial(i - 1) * factorial(k))
            )
            if num:
                entries[(i, k)] = num
    return central, entries


def hamiltonian_tau_soliton(
    g,
    a: Fraction,
    times: TimeFamily,
    w_depth: int,
    window: ModeWindow | None = None,
) -> Poly:
    """Soliton-form route: subset expansion over the coupling matrix with
    integer spectral points and flow exponentials."""
    central, entries = _hook_couplings(_spectral_reader(g, w_depth, window), Fraction(a), w_depth)
    winv = Poly.variable(times.table, times.cutoffs, "winv")
    out = _Sum(times.zero())
    for (rsel, csel), a_det in bilinear_minors(entries).items():
        wpow = sum(rsel) + sum(csel) - len(rsel)
        if wpow > w_depth:  # beyond spectral weight w_depth: zero in the truncated ring
            continue
        kernel = [
            [Fraction(k, i - 1 + k) for k in csel] for i in rsel
        ]
        k_det = fraction_matrix_det(kernel)
        if k_det == 0:
            continue
        flow = _flow_exp(
            times,
            lambda kk: sum((i - 1) ** kk for i in rsel) - sum((-k) ** kk for k in csel),
        )
        out.add(flow * winv**wpow, a_det * k_det)
    return out.poly() * central


def moment_coupled_element(moments: dict[tuple[int, int], Fraction]) -> NormalOrderedBilinear:
    """Vacuum-ordered exponent for a two-contour moment coupling: the
    bilinear collects the non-negative-mode moment matrix minus the
    identity on those modes (the paired-ensemble construction with a
    user-supplied moment matrix; no closed-form series is shipped for it).

    `moments[(n, m)]` couples the particle mode n to the hole mode m.
    """
    entries: dict[tuple[int, int], Fraction] = {}
    modes = sorted({x for nm in moments for x in nm})
    if modes and min(modes) < 0:
        raise ValueError("moment coupling lives on non-negative modes")
    for (pn, hm), c in moments.items():
        val = Fraction(c) - (1 if pn == hm else 0)
        if val:
            # the exponent carries hole-then-particle index order with the
            # exchange sign of rewriting particle-hole products
            entries[(hm, pn)] = entries.get((hm, pn), Fraction(0)) - val
    for j in modes:
        if (j, j) not in moments:
            entries[(j, j)] = entries.get((j, j), Fraction(0)) + 1
    return NormalOrderedBilinear(ModeMatrix(entries), ordering=0)


def soliton_tau_two_family(
    data: SolitonExponent,
    n: int,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
) -> Poly:
    """Two-family soliton: commuting the element through the lowering
    exponential dresses each spectral point with the inverse-point series
    of the second family, and the vacuum pairing contributes the bilinear
    exponential prefactor exp(-sum k t_k t_-k)."""

    def dressed_eta(i, k):
        # the first family's kernel factor times the inverse-point dressing
        p, q = data.ps[i], data.qs[k]
        dressing = (family_minus.xi_value(1 / p) - family_minus.xi_value(1 / q)).series_exp()
        return _exp_eta(family_plus, data, i, k, n) * dressing

    det = _coupled_kernel_det(data, dressed_eta, family_plus)
    quad = family_plus.zero()
    for k in range(1, min(family_plus.depth, family_minus.depth) + 1):
        quad = quad + family_plus.time(k) * family_minus.time(k) * (-k)
    return quad.series_exp() * det
