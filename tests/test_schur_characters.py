"""The Schur builder against determinants and a recurrence built here.

`schur_jt` is compared with det h_{row_i - i + j}, formed from the family's
complete homogeneous generators and `poly_matrix_det`, so it raises exactly
where a generator is asked for beyond the family's times.  Every shape of
weight <= 12 is compared on families that differ in layout: extra
parameters, second families, a cutoff below the shape's weight, and fewer
times than the cutoff allows (where both must raise the same ValueError).

The builder at a rational scale c, s_(outer/inner)(c t), is compared with
the skew determinant det h_{outer_i - inner_j - i + j}(c t) over generators
from the recurrence k h_k = sum_j j c t_j h_{k-j}, for every pair of shapes
of weight <= 7, nested or not; the generators themselves, `TimeFamily.h`,
are compared with the same recurrence.

The builder reads every skew Schur function off one raised bra,
`fock.apply_current_exp` on <inner, 0|, the current tree.  The integer
characters in its polynomials, chi^(outer/inner)_rho = prod_k m_k! times
the coefficient of prod_k t_k^(m_k), are checked here against rules that
share no hop code with it: the hook length formula, column orthogonality
and standard skew tableaux counted by corner removal.
"""

from collections import Counter
from fractions import Fraction
from functools import cache
from math import factorial, prod

import pytest

from tauforge.partitions import Partition, enumerate_partitions
from tauforge.fock import skew_schur_signed
from tauforge.polyring import (
    TimeFamily,
    VariableTable,
    _Sum,
    paired_family,
    poly_matrix_det,
    standard_double_family,
    standard_single_family,
    time_variables,
)
from tauforge.schur import _schur_neg, _schur_poly, schur_jt, skew_schur

SHAPES = enumerate_partitions(12)


def jacobi_trudi(family, shape):
    ell = shape.length
    if ell == 0:
        return family.one()
    rows = [
        [family.h(shape.part(i) - i + j) for j in range(1, ell + 1)]
        for i in range(1, ell + 1)
    ]
    return poly_matrix_det(rows)


def outcome(build, *args):
    try:
        return build(*args)
    except ValueError as err:
        return ("ValueError", str(err))


def family_with(depth, cutoffs):
    table = VariableTable(time_variables("t", depth))
    return TimeFamily(table, cutoffs, [f"t{k}" for k in range(1, depth + 1)], "t")


FAMILIES = {
    "single with unit parameters": lambda: standard_single_family(
        12, extra_unit=("y", "z"), extra_gradings={"z": "w"}
    ),
    "minus side of a double family": lambda: standard_double_family(4, 12)[1],
    "second of a paired family": lambda: paired_family(12)[1],
    "cutoff below the weight": lambda: family_with(12, {"t": 7}),
    "fewer generators than the weight": lambda: standard_single_family(6),
    "fewer times than the cutoff": lambda: family_with(5, {"t": 9}),
    "unbounded with few times": lambda: family_with(4, {}),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_schur_jt_matches_jacobi_trudi(name):
    family = FAMILIES[name]()
    raised = 0
    for shape in SHAPES:
        want = outcome(jacobi_trudi, family, shape)
        got = outcome(schur_jt, family, shape)
        assert got == want, (name, shape)
        if isinstance(want, tuple):
            raised += 1
        else:
            assert got.cutoffs == want.cutoffs, (name, shape)
    # the families without enough times must exercise the error path
    assert (raised > 0) == (name in ("fewer times than the cutoff", "unbounded with few times"))


SCALES = (1, -1, -2, Fraction(1, 3))
PAIRS = [(outer, inner) for outer in enumerate_partitions(7) for inner in enumerate_partitions(7)]


def recurrence_h(family, k, scale, memo):
    """h_k(scale * t) by k h_k = sum_j j scale t_j h_{k-j}, raising where a
    generator lies beyond the family's times yet within its cutoff."""
    if k < 0:
        return family.zero()
    if k == 0:
        return family.one()
    if k > family.depth:
        cut = family.cutoffs.get(family.grading)
        if cut is not None and k > cut:
            return family.zero()
        raise ValueError(f"h_{k} needs time variables up to {k}")
    if (k, scale) not in memo:
        acc = _Sum(family.zero())
        for j in range(1, k + 1):
            lower = recurrence_h(family, k - j, scale, memo)
            acc.add(family.time(j) * lower, Fraction(scale) * j / k)
        memo[(k, scale)] = acc.poly()
    return memo[(k, scale)]


def skew_jacobi_trudi(family, outer, inner, scale, memo):
    ell = max(outer.length, inner.length)
    if ell == 0:
        return family.one()
    rows = [
        [
            recurrence_h(family, outer.part(i) - inner.part(j) - i + j, scale, memo)
            for j in range(1, ell + 1)
        ]
        for i in range(1, ell + 1)
    ]
    return poly_matrix_det(rows)


SKEW_FAMILIES = {
    "single": lambda: standard_single_family(8, extra_unit=("y",)),
    "cutoff below the weight": lambda: family_with(8, {"t": 5}),
    "fewer times than the cutoff": lambda: family_with(4, {"t": 7}),
}


@pytest.mark.parametrize("scale", SCALES, ids=str)
@pytest.mark.parametrize("name", list(SKEW_FAMILIES))
def test_builder_matches_skew_jacobi_trudi(name, scale):
    family = SKEW_FAMILIES[name]()
    memo = {}
    raised = 0
    for outer, inner in PAIRS:
        want = outcome(skew_jacobi_trudi, family, outer, inner, scale, memo)
        got = outcome(_schur_poly, family, outer.parts, inner.parts, scale)
        assert got == want, (name, outer, inner, scale)
        if isinstance(want, tuple):
            raised += 1
            continue
        assert got.cutoffs == want.cutoffs, (name, outer, inner)
        if not outer.contains(inner):
            assert got.is_zero
        # the public callers are the builder at their scales
        if scale in (1, -1):
            assert skew_schur_signed(family, outer, inner, scale) is got
        if scale == 1:
            assert skew_schur(family, outer, inner) is got
            if not inner.parts:
                assert schur_jt(family, outer) is got
        if scale == -1 and not inner.parts:
            assert _schur_neg(family, outer) is got
    # only the family with fewer times than its cutoff asks for a missing time
    assert (raised > 0) == (name == "fewer times than the cutoff")


@pytest.mark.parametrize("name", list(SKEW_FAMILIES))
def test_generators_match_the_recurrence(name):
    family = SKEW_FAMILIES[name]()
    memo = {}
    for scale in SCALES + (Fraction(3, 2),):
        for k in range(-1, 10):
            want = outcome(recurrence_h, family, k, scale, memo)
            got = outcome(family.h, k, scale)
            assert got == want, (name, k, scale)
            if not isinstance(want, tuple):
                assert got.cutoffs == want.cutoffs


def cycle_type(rho):
    """A partition's cycle type ((k, multiplicity), ...), k ascending."""
    return tuple(sorted(Counter(rho.parts).items()))


def characters(family, outer, inner):
    """{cycle type: chi^(outer/inner)} read off the builder's polynomial at
    unit scale: prod_k m_k! times the coefficient of prod_k t_k^(m_k), on a
    single family whose table orders t_1, t_2, ... first."""
    poly = _schur_poly(family, outer.parts, inner.parts, 1)
    return {
        tuple((i + 1, e) for i, e in mono): c * prod(factorial(e) for _, e in mono)
        for mono, c in poly.terms.items()
    }


@cache
def standard_tableaux(outer, inner):
    """Standard skew tableaux of shape outer/inner: remove a corner of
    `outer` that keeps it around `inner`, one box at a time."""
    if outer == inner:
        return 1
    count = 0
    for i, part in enumerate(outer):
        if i + 1 == len(outer) or outer[i + 1] < part:
            rest = outer[:i] + (part - 1,) + outer[i + 1 :]
            rest = tuple(p for p in rest if p)
            if len(rest) >= len(inner) and all(r >= q for r, q in zip(rest, inner)):
                count += standard_tableaux(rest, inner)
    return count


def test_characters_against_rules_without_hops():
    """The builder's characters against three rules they share no code
    with.  These comparisons read the current tree on both sides, so they
    are not oracles of it: `tests/test_fock_vectors.py::ref_current_exp`
    (through `skew_schur_signed`) against `apply_current_exp`, and the
    `current_exp` check of perfbench's fock-routes jobs (`schur.skew_schur`).
    The test-side `ref_current_exp_direct` hops on (charge, shape) dicts and
    shares no tree code."""
    top = 10
    family = standard_single_family(top)
    for k in range(top + 1):
        shapes = [lam for lam in enumerate_partitions(k) if lam.weight == k]
        types = [cycle_type(rho) for rho in shapes]
        rows = [characters(family, lam, Partition([])) for lam in shapes]
        for lam, row in zip(shapes, rows):
            # every entry is a cycle type of the shape's weight
            assert set(row) <= set(types), lam
            # the identity class: chi^lam_(1^k) = k! / hook product
            assert row.get(((1, k),) if k else (), 0) * lam.hook_product() == factorial(k)
        # column orthogonality: sum_lam chi_rho chi_sigma = z_rho delta
        for m in types:
            z = prod(j**e * factorial(e) for j, e in m)
            for n in types:
                got = sum(row.get(m, 0) * row.get(n, 0) for row in rows)
                assert got == (z if m == n else 0), (k, m, n)
    # skew characters at the identity class count standard skew tableaux
    span = 7
    family = standard_single_family(span)
    for inner in enumerate_partitions(3):
        for outer in enumerate_partitions(inner.weight + span):
            k = outer.weight - inner.weight
            got = characters(family, outer, inner).get(((1, k),) if k > 0 else (), 0)
            want = standard_tableaux(outer.parts, inner.parts) if outer.contains(inner) else 0
            assert got == want, (outer, inner)
