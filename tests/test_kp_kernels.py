"""Differential tests for the kernels the KP checks run on.

`Poly.derivative` takes any order in one pass, `apply_diff` and
`hirota_bilinear` share memoized partial derivatives, `miwa_parts` reads
every h_j(+-d~) p off one binomial sweep, `shift_by` and `miwa_shift`
expand binomially, and `expand_mkp` reads every coefficient off one
application of a window element.  Each is compared here with the
implementation it replaced, kept below as the reference: iterated
first-order derivatives, one operator applied at a time, substitution of
`Poly` powers, and one element application per shape.
"""

import random
from fractions import Fraction
from math import comb

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforge.fock import window_for
from tauforge.grouplike import charge_of
from tauforge.partitions import enumerate_partitions
from tauforge.polyring import (
    Poly,
    hirota_bilinear,
    paired_family,
    standard_double_family,
    standard_single_family,
)
from tauforge.sampling import sample_element
from tauforge.schur import schur_jt
from tauforge.tau import expand_mkp, mode_support, pluecker_coefficient

# -- references: the implementations before the rewrite -------------------------


def old_derivative(p: Poly, name: str, order: int = 1) -> Poly:
    idx = p.table.index[name]
    cur = p
    for _ in range(order):
        terms = {}
        for key, c in cur.terms.items():
            d = dict(key)
            e = d.get(idx, 0)
            if not e:
                continue
            d[idx] = e - 1
            newkey = tuple(sorted((i, x) for i, x in d.items() if x))
            terms[newkey] = terms.get(newkey, Fraction(0)) + c * e
        cur = Poly(cur.table, cur.cutoffs, {k: c for k, c in terms.items() if c})
    return cur


def old_miwa_shift(family, p: Poly, sign: int, param: str) -> Poly:
    y = Poly.variable(family.table, family.cutoffs, param)
    mapping = {}
    ypow = family.one()
    for k in range(1, family.depth + 1):
        ypow = ypow * y
        mapping[family.names[k - 1]] = family.time(k) + ypow * Fraction(sign, k)
    return p.substitute(mapping)


def old_shift_by(family, p: Poly, other, sign: int) -> Poly:
    mapping = {
        family.names[k - 1]: family.time(k) + other.time(k) * sign
        for k in range(1, min(family.depth, other.depth) + 1)
    }
    return p.substitute(mapping)


def old_apply_diff(family, op: Poly, target: Poly) -> Poly:
    out = target.zero_like()
    for key, c in op.terms.items():
        piece = target
        coeff = c
        for idx, e in key:
            name = op.table.variables[idx].name
            k = family.names.index(name) + 1
            coeff *= Fraction(1, k) ** e
            piece = old_derivative(piece, name, e)
            if piece.is_zero:
                break
        out = out + piece * coeff
    return out


def old_hirota_bilinear(op_terms, f: Poly, g: Poly) -> Poly:
    out = f.zero_like()
    for coeff, orders in op_terms:
        names = [n for n, a in orders.items() if a]
        arities = [orders[n] for n in names]

        def rec(i, fp, gp, factor):
            nonlocal out
            if i == len(names):
                out = out + fp * gp * factor
                return
            n, a = names[i], arities[i]
            for b in range(a + 1):
                fd = old_derivative(fp, n, b)
                gd = old_derivative(gp, n, a - b)
                if fd.is_zero or gd.is_zero:
                    continue
                rec(i + 1, fd, gd, factor * comb(a, b) * (-1) ** (a - b))

        rec(0, f, g, Fraction(coeff))
    return out


def per_shape_expansion(g, n: int, family, depth: int, window) -> tuple[Poly, dict]:
    coeffs = {}
    poly = family.zero()
    for lam in enumerate_partitions(depth):
        c = pluecker_coefficient(g, lam, n, window)
        if not c:
            continue
        coeffs[lam] = c
        poly = poly + schur_jt(family, lam) * c
    return poly, coeffs


def same(a: Poly, b: Poly) -> bool:
    return a.terms == b.terms and a.cutoffs == b.cutoffs


# -- strategies ---------------------------------------------------------------------

DEPTH = 4
TIMES, SHIFTS = paired_family(DEPTH, extra_unit=("y",))
TABLE = TIMES.table
PLUS, MINUS = standard_double_family(DEPTH, DEPTH - 1, extra_unit_plus=("y",))

coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
cutoff_values = st.one_of(st.none(), st.just(-1), st.integers(0, DEPTH + 2))


def polys(table, gradings, max_size=10):
    keys = st.dictionaries(
        st.integers(0, len(table.variables) - 1), st.integers(1, 3), max_size=3
    ).map(lambda d: tuple(sorted(d.items())))

    @st.composite
    def build(draw):
        cutoffs = {g: draw(cutoff_values) for g in gradings}
        return Poly(table, cutoffs, draw(st.dictionaries(keys, coefficients, max_size=max_size)))

    return build()


def operators(family, max_size=6):
    """Polynomials in the family's times only, at its own cutoffs."""
    idx = [family.table.index[n] for n in family.names]
    keys = st.dictionaries(st.sampled_from(idx), st.integers(1, 3), max_size=2).map(
        lambda d: tuple(sorted(d.items()))
    )
    return st.dictionaries(keys, coefficients, max_size=max_size).map(
        lambda terms: Poly(family.table, family.cutoffs, terms)
    )


names = st.sampled_from([v.name for v in TABLE.variables])
orders = st.dictionaries(names, st.integers(0, 3), max_size=3)
op_terms = st.lists(st.tuples(coefficients, orders), max_size=3)


# -- derivative ------------------------------------------------------------------------


@settings(deadline=None, max_examples=150)
@given(polys(TABLE, ("t",)), names, st.integers(0, 4))
def test_derivative_matches_iterated_first_derivatives(p, name, order):
    assert same(p.derivative(name, order), old_derivative(p, name, order))


def test_negative_derivative_order_is_rejected():
    fam = standard_single_family(3)
    p = fam.h(3)
    with pytest.raises(ValueError):
        p.derivative("t1", -1)
    with pytest.raises(ValueError):
        hirota_bilinear([(1, {"t1": -1})], p, p)
    with pytest.raises(ValueError):
        hirota_bilinear([(1, {"t1": 2, "t2": -1})], p, fam.h(2))


# -- binomial time shifts ------------------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(polys(TABLE, ("t",)), st.sampled_from((-1, 1)))
def test_shift_by_matches_power_substitution(p, sign):
    assert same(TIMES.shift_by(p, SHIFTS, sign), old_shift_by(TIMES, p, SHIFTS, sign))


@settings(deadline=None, max_examples=100)
@given(polys(PLUS.table, ("tp", "tm")), st.sampled_from((-1, 1)))
def test_shift_by_across_gradings_matches_power_substitution(p, sign):
    # the shift family has its own grading and a smaller cutoff, so the
    # shifted monomials are truncated there
    assert same(PLUS.shift_by(p, MINUS, sign), old_shift_by(PLUS, p, MINUS, sign))


@settings(deadline=None, max_examples=100)
@given(polys(TABLE, ("t",)), st.sampled_from((-1, 1)))
def test_miwa_shift_matches_power_substitution(p, sign):
    assert same(TIMES.miwa_shift(p, sign, "y"), old_miwa_shift(TIMES, p, sign, "y"))


@settings(deadline=None, max_examples=60)
@given(polys(PLUS.table, ("tp", "tm")), st.sampled_from((-1, 1)))
def test_miwa_shift_in_a_bounded_grading_matches_power_substitution(p, sign):
    assert same(PLUS.miwa_shift(p, sign, "y"), old_miwa_shift(PLUS, p, sign, "y"))


# -- differential operators ------------------------------------------------------------


@settings(deadline=None, max_examples=100)
@given(operators(SHIFTS), polys(TABLE, ("t",)))
def test_apply_diff_matches_the_derivative_per_monomial(op, target):
    assert same(SHIFTS.apply_diff(op, target), old_apply_diff(SHIFTS, op, target))


@settings(deadline=None, max_examples=60)
@given(polys(TABLE, ("t",)), st.sampled_from((-1, 1)), st.integers(-1, DEPTH + 2))
# t-weight 5 = a1^3 a2 beyond the family's cutoff 4: h_5 is zero there
@example(Poly(TABLE, {"t": None}, {((DEPTH, 3), (DEPTH + 1, 1)): 1}), 1, DEPTH + 1)
def test_miwa_parts_match_the_operators_one_by_one(target, sign, top):
    # part j is h_j(sign d~) applied alone, the family's cutoff included
    parts = SHIFTS.miwa_parts(target, top, sign)
    assert len(parts) == max(min(top, DEPTH), -1) + 1
    for j in range(top + 1):
        want = old_apply_diff(SHIFTS, SHIFTS.h(j, sign), target)
        if j < len(parts):
            assert same(parts[j], want)
        else:
            assert want.is_zero


@pytest.mark.parametrize("sign", (-1, 1))
def test_miwa_parts_hold_every_power_of_a_rank_in_one_denominator(sign):
    # a2^4 needs 2^4 in the common denominator at top 8, which the lcm of
    # 1..8 (2^3 * 3 * 5 * 7) lacks
    fam, shift = paired_family(8)
    a1, a2, a3 = (shift.time(k) for k in (1, 2, 3))
    target = a2**4 + a2**3 * a1 * fam.time(1) + a3**2 * a2 + a1**8 * Fraction(1, 5)
    for j, part in enumerate(shift.miwa_parts(target, 8, sign)):
        assert same(part, old_apply_diff(shift, shift.h(j, sign), target))


@settings(deadline=None, max_examples=100)
@given(op_terms, polys(TABLE, ("t",), 8), polys(TABLE, ("t",), 8))
# a term with no derivative adds f * g even when it vanishes, merging the cutoffs
@example([(Fraction(1), {})], Poly.zero(TABLE, {"t": None}), Poly.zero(TABLE, {"t": 2}))
def test_hirota_bilinear_matches_the_leibniz_recursion(ops, f, g):
    assert same(hirota_bilinear(ops, f, g), old_hirota_bilinear(ops, f, g))


@settings(deadline=None, max_examples=100)
@given(op_terms, polys(TABLE, ("t",), 8))
def test_hirota_bilinear_of_one_series_matches_the_leibniz_recursion(ops, f):
    # f is g: mirror-image Leibniz terms share one product
    assert same(hirota_bilinear(ops, f, f), old_hirota_bilinear(ops, f, f))


# the KP and mKP operators of `hirota`, over the times of TABLE
BILINEAR_OPS = {
    "kp": [(1, {"t1": 4}), (3, {"t2": 2}), (-4, {"t1": 1, "t3": 1})],
    "mkp": [(1, {"t1": 2}), (-1, {"t2": 1})],
}


@settings(deadline=None, max_examples=150)
@given(
    st.sampled_from(sorted(BILINEAR_OPS)),
    polys(TABLE, ("t",), 8),
    polys(TABLE, ("t",), 8),
    st.booleans(),
    st.integers(-1, DEPTH),
)
# (D1^2 - D2) t1^2 . t1^2 = -4 t1^2 at weight 2, lost by a cut one weight too low
@example("mkp", TIMES.time(1) * TIMES.time(1), TIMES.zero(), True, 2)
# D1 D3 t1 t2 t3 . 1 = t2 survives the full residual's product at cutoff 0 as
# a zero that merges g's cutoff, but its partial t2 is gone at a cut of 1
@example(
    "kp",
    Poly(TABLE, {"t": None}, {tuple((TABLE.index[f"t{k}"], 1) for k in (1, 2, 3)): 1}),
    Poly(TABLE, {"t": 0}, {(): 1}),
    False,
    1,
)
def test_hirota_bilinear_cut_at_a_weight_is_the_full_residual_truncated(name, f, g, one, v):
    # partials truncated before they multiply: the residual within the cut
    # is the full one's, for f.f (one product per mirror pair) and f.g
    g = f if one else g
    within = {"t": v}
    ops = BILINEAR_OPS[name]
    assert same(hirota_bilinear(ops, f, g, within), hirota_bilinear(ops, f, g).truncate(within))


def toda_series():
    """Polynomials in t1, t2, s1, s2 at the double family's cutoffs, so the
    operator D_t1 D_s1 meets terms at every biweight."""
    idx = [PLUS.table.index[n] for n in ("t1", "t2", "s1", "s2")]
    keys = st.dictionaries(st.sampled_from(idx), st.integers(1, 3), max_size=3).map(
        lambda d: tuple(sorted(d.items()))
    )
    return st.dictionaries(keys, coefficients, max_size=8).map(
        lambda terms: Poly(PLUS.table, PLUS.cutoffs, terms)
    )


@settings(deadline=None, max_examples=100)
@given(
    toda_series(),
    toda_series(),
    st.booleans(),
    st.integers(-1, DEPTH),
    st.integers(-1, DEPTH - 1),
)
# f = t1 s1 + 3 t1^2 leaves the residual -3 t1^2 at biweight (2, 0), which
# needs f's own t1^2 term: a cut one weight too low drops it
@example(PLUS.time(1) * MINUS.time(1) + PLUS.time(1) * PLUS.time(1) * 3, PLUS.zero(), True, 2, 2)
def test_toda_bilinear_cut_at_a_biweight_is_the_full_residual_truncated(f, g, one, vp, vm):
    g = f if one else g
    within = {"tp": vp, "tm": vm}
    ops = [(Fraction(1, 2), {"t1": 1, "s1": 1})]
    assert same(hirota_bilinear(ops, f, g, within), hirota_bilinear(ops, f, g).truncate(within))


# -- one element application per expansion ------------------------------------------


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 10**6), st.integers(-1, 1), st.integers(0, 8))
def test_one_ket_expansion_matches_per_shape_coefficients(seed, n, depth):
    g = sample_element(random.Random(seed))
    fam = standard_single_family(max(depth, 1))
    window = window_for([n, n - charge_of(g)] + mode_support(g), depth)
    series = expand_mkp(g, n, fam, depth, window)
    poly, coeffs = per_shape_expansion(g, n, fam, depth, window)
    assert series.coefficients == coeffs
    assert same(series.poly, poly)
