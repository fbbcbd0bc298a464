"""Differential tests of the packed `Poly` against the tuple-key reference.

`tuple_poly.TuplePoly` keeps the tuple keys and the algorithms `Poly` used
before its monomials became packed integers.  Both are built from the same
raw terms on random tables (one to three gradings that may be bounded, an
unbounded grading "u", variables in a random table order, often a
weight-0 variable) and every operation must give the same cutoffs,
denominator and numerators, key for key.  The report order, the JSON
round trip and the CLI report text are compared as well; the report text
against the standard encoder on the reference's JSON.

The last test pins the boundary of the packed layout: an exponent, weight
or cutoff beyond a field raises instead of carrying into the next field.
"""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauforge.cli import report_text
from tauforge.polyring import (
    FIELD_MAX,
    Poly,
    TimeFamily,
    Variable,
    VariableTable,
    _Sum,
)
from tuple_poly import Sum, TuplePoly, binomial_shift

GRADINGS = ("a", "b", "c")


@st.composite
def tables(draw):
    gradings = GRADINGS[: draw(st.integers(1, 3))]
    pick = st.sampled_from(gradings)
    times, others = draw(pick), draw(pick)
    variables = [
        Variable("t1", times, 1),
        Variable("t2", times, 2),
        Variable("s1", others, 1),
        Variable("s2", others, 2),
        Variable("y", draw(pick), 1),
        Variable("u1", "u", 1),
    ]
    extra = draw(st.lists(st.tuples(pick, st.integers(0, 3)), max_size=2))
    variables += [Variable(f"x{j}", g, w) for j, (g, w) in enumerate(extra)]
    if draw(st.booleans()):
        variables.append(Variable("z", draw(st.sampled_from(gradings + ("u",))), 0))
    return VariableTable(draw(st.permutations(variables)))


cutoff_values = st.one_of(st.none(), st.just(-1), st.integers(0, 6))
coefficients = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


def cutoffs_for(table):
    bounded = [g for g in table.gradings if g != "u"]
    return st.fixed_dictionaries({g: cutoff_values for g in bounded})


def raw_terms(table):
    keys = st.dictionaries(
        st.integers(0, len(table.variables) - 1), st.integers(1, 3), max_size=3
    ).map(lambda d: tuple(sorted(d.items())))
    return st.dictionaries(keys, coefficients, max_size=7)


def pair(table, cut, terms):
    """A packed `Poly` and its reference, built from one raw dict."""
    return Poly(table, cut, terms), TuplePoly.build(table, cut, terms)


@st.composite
def operands(draw, table, count=2):
    return [
        pair(table, draw(cutoffs_for(table)), draw(raw_terms(table))) for _ in range(count)
    ]


def same(p: Poly, ref: TuplePoly):
    assert p.cutoffs == ref.cutoffs
    assert p.den == ref.den
    assert {p.table.decode(k): n for k, n in p.nums.items()} == ref.nums
    assert len(p.nums) == len(ref.nums)


@st.composite
def table_and_operands(draw, count=2):
    table = draw(tables())
    return table, draw(operands(table, count))


@settings(max_examples=150, deadline=None)
@given(table_and_operands(), st.integers(-3, 3))
def test_ring_operations_match_the_tuple_reference(drawn, c):
    _, [(a, ra), (b, rb)] = drawn
    same(a, ra)
    same(a * b, ra * rb)
    same(a * a, ra * ra)  # a square forms each unordered pair of terms once
    same(a + b, ra + rb)
    same(a - b, ra - rb)
    same(a * c, ra.scaled(c))
    acc, want = _Sum(a), Sum(ra)
    for p, rp, scale in ((b, rb, None), (a * b, ra * rb, Fraction(c, 3))):
        acc.add(p, scale)
        want.add(rp, scale)
    same(acc.poly(), want.poly())


@settings(max_examples=100, deadline=None)
@given(table_and_operands(1), st.integers(0, 3))
def test_derivatives_match_the_tuple_reference(drawn, order):
    table, [(a, ra)] = drawn
    for idx, v in enumerate(table.variables):
        same(a.derivative(v.name, order), ra.derivative(idx, order))


@settings(max_examples=100, deadline=None)
@given(st.data(), st.sampled_from((1, -1)))
def test_time_shifts_match_the_tuple_reference(data, sign):
    table = data.draw(tables())
    [(a, ra)] = data.draw(operands(table, 1))
    fam_cut, other_cut = data.draw(cutoffs_for(table)), data.draw(cutoffs_for(table))
    fam = TimeFamily(table, fam_cut, ["t1", "t2"], table.var("t1").grading)
    other = TimeFamily(table, other_cut, ["s1", "s2"], table.var("s1").grading)
    t1, t2, s1, s2, y = (table.index[n] for n in ("t1", "t2", "s1", "s2", "y"))
    moves = {t1: (s1, 1, sign, 1), t2: (s2, 1, sign, 1)}
    same(fam.shift_by(a, other, sign), binomial_shift(ra, moves, fam.cutoffs, other.cutoffs))
    moves = {t1: (y, 1, sign, 1), t2: (y, 2, sign, 2)}
    same(fam.miwa_shift(a, sign, "y"), binomial_shift(ra, moves, fam.cutoffs))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_truncate_and_embed_match_the_tuple_reference(data):
    table = data.draw(tables())
    [(a, ra)] = data.draw(operands(table, 1))
    tighter = data.draw(cutoffs_for(table))
    same(a.truncate(tighter), ra.truncate(tighter))
    big = VariableTable(
        [Variable("w", "d", 1)] + list(reversed(table.variables)) + [Variable("w0", "a", 0)]
    )
    target = {**data.draw(cutoffs_for(big)), "d": data.draw(cutoff_values)}
    same(a.embed(big, target), ra.embed(big, target))


@settings(max_examples=80, deadline=None)
@given(table_and_operands(1), st.integers(1, 3))
def test_series_match_the_tuple_reference(drawn, c):
    table, [(a, ra)] = drawn
    bounded = [g for g, cut in a.cutoffs.items() if cut is not None]
    keep = {
        key: coefficient
        for key, coefficient in a.terms.items()
        if any(a.weight(key, g) for g in bounded)
    }
    a, ra = pair(table, a.cutoffs, keep)
    same(a.series_exp(), ra.series_exp())
    shifted, rshifted = a + c, ra + ra.one_like().scaled(c)
    if shifted.constant_term():
        same(shifted.series_inverse(), rshifted.series_inverse())


@settings(max_examples=150, deadline=None)
@given(table_and_operands())
def test_report_order_json_and_report_text_match_the_tuple_reference(drawn):
    table, [(a, ra), (b, rb)] = drawn
    cases = [(a, ra), (a * b, ra * rb)]
    if "z" in table.index:
        # k and k * z tie on every weight while one tuple extends the other
        z, rz = pair(table, {}, {(): 1, ((table.index["z"], 1),): 1})
        cases.append((a * z, ra * rz))
    for p, ref in cases:
        assert [table.decode(k) for k, _ in p._sorted_nums()] == [k for k, _ in ref.sorted_nums()]
        data = p.to_json()
        assert json.dumps(data) == json.dumps(ref.to_json())
        same(Poly.from_json(data), ref)
        assert report_text({"tau": p, "n": 1}) == json.dumps(
            {"tau": ref.to_json(), "n": 1}, indent=2, sort_keys=True
        )


# -- the boundary of the packed layout -------------------------------------------


def test_field_overflow_raises_instead_of_carrying():
    table = VariableTable(
        [Variable("x", "u", 1), Variable("y", "v", 1), Variable("w", "u", 2), Variable("z", "v", 0)]
    )
    x = Poly.variable(table, {}, "x")
    with pytest.raises(ValueError) as err:
        x**40000
    assert str(err.value) == f"a monomial exponent or weight exceeds {FIELD_MAX}"
    top = x**FIELD_MAX
    assert top.coefficient({"x": FIELD_MAX}) == 1
    # the exponent field fits but the total weight above it would not
    with pytest.raises(ValueError):
        top * Poly.variable(table, {}, "y")
    # an exponent that fits whose weight does not
    with pytest.raises(ValueError):
        Poly(table, {}, {((2, 16384),): 1})
    w = Poly(table, {}, {((2, 16383),): 1})
    with pytest.raises(ValueError):
        w * Poly.variable(table, {}, "w")
    # a shift onto a weight-0 variable that moves past its field
    fam = TimeFamily(table, {}, ["x"], "u")
    with pytest.raises(ValueError):
        fam.miwa_shift(Poly(table, {}, {((0, 2), (3, FIELD_MAX - 1)): 1}), 1, "z")
    # cutoffs above the field range
    for build in (
        lambda: Poly.zero(table, {"u": FIELD_MAX + 1}),
        lambda: Poly(table, {"v": 40000}, {((0, 1),): 1}),
        lambda: x.truncate({"u": FIELD_MAX + 1}),
        lambda: VariableTable([Variable("big", "u", FIELD_MAX + 1)]),
    ):
        with pytest.raises(ValueError) as err:
            build()
        assert "\n" not in str(err.value)
    assert x.truncate({"u": FIELD_MAX}) == x
