"""Differential and canonical-form tests for the `Poly` storage: integer
numerators over one denominator.

Every operation is compared with a reference on plain dicts of `Fraction`
coefficients: form every term, then truncate.  Operands carry their own
cutoffs on two bounded gradings ("a", "b") and an unbounded one ("u").
Every result is also checked to be canonical: a positive denominator that
shares no factor with the numerators as a whole, 1 for the zero
polynomial, nonzero integer numerators on sorted keys within the cutoffs.
"""

from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from test_polyring_graded import TABLE, coefficients, cutoff_values, keys
from tauforge.polyring import (
    Poly,
    TimeFamily,
    Variable,
    VariableTable,
    _Sum,
    standard_single_family,
)

# -- the reference: (cutoffs, {key: Fraction}) ----------------------------------


def weight(key, g, table=TABLE) -> int:
    return sum(
        table.variables[i].weight * e for i, e in key if table.variables[i].grading == g
    )


def clip(cutoffs: dict, terms: dict, table=TABLE) -> dict:
    return {
        k: Fraction(c)
        for k, c in terms.items()
        if c and all(cut is None or weight(k, g, table) <= cut for g, cut in cutoffs.items())
    }


def merge(*cutoffs: dict) -> dict:
    """The tightest bound per grading."""
    out = {}
    for g in TABLE.gradings:
        bounds = [c[g] for c in cutoffs if c.get(g) is not None]
        out[g] = min(bounds) if bounds else None
    return out


def key_product(k1, k2):
    return tuple(sorted((Counter(dict(k1)) + Counter(dict(k2))).items()))


def ref_mul(a, b):
    (ca, ta), (cb, tb) = a, b
    acc: dict = {}
    for k1, c1 in ta.items():
        for k2, c2 in tb.items():
            key = key_product(k1, k2)
            acc[key] = acc.get(key, 0) + c1 * c2
    cut = merge(ca, cb)
    return cut, clip(cut, acc)


def ref_add(a, b, scale=1):
    (ca, ta), (cb, tb) = a, b
    acc = dict(ta)
    for k, c in tb.items():
        acc[k] = acc.get(k, 0) + c * scale
    cut = merge(ca, cb)
    return cut, clip(cut, acc)


def ref_scale(a, c):
    cut, terms = a
    return cut, clip(cut, {k: v * c for k, v in terms.items()})


def ref_one(cut):
    return cut, clip(cut, {(): Fraction(1)})


def ref_pow(a, n):
    out = ref_one(a[0])
    for _ in range(n):
        out = ref_mul(out, a)
    return out


def ref_series(a, coefficient):
    """sum_k coefficient(k) a^k, for an `a` whose powers die out."""
    out = ref_scale(ref_one(a[0]), coefficient(0))
    power, k = ref_one(a[0]), 1
    while True:
        power = ref_mul(power, a)
        if not power[1]:
            return out
        out = ref_add(out, power, coefficient(k))
        k += 1


def ref_derivative(a, idx, order):
    cut, terms = a
    acc: dict = {}
    for key, c in terms.items():
        d = dict(key)
        e = d.get(idx, 0)
        if e < order:
            continue
        for j in range(order):
            c *= e - j
        d[idx] = e - order
        new = tuple(sorted((i, x) for i, x in d.items() if x))
        acc[new] = acc.get(new, 0) + c
    return cut, clip(cut, acc)


# -- checks ------------------------------------------------------------------------


def assert_canonical(p: Poly):
    assert type(p.den) is int and p.den > 0
    assert all(type(n) is int and n for n in p.nums.values())
    assert gcd(p.den, *p.nums.values()) == 1
    if not p.nums:
        assert p.den == 1
    for packed in p.nums:
        # a packed key: every guard clear, its weight fields those of its
        # exponents, and it decodes to a sorted key of positive exponents
        assert type(packed) is int and packed >= 0 and not packed & p.table.guards
        key = p.table.decode(packed)
        assert p.table.encode(key) == packed
        assert list(key) == sorted(key) and all(e > 0 for _, e in key)
        assert all(
            cut is None or weight(key, g, p.table) <= cut for g, cut in p.cutoffs.items()
        )


def assert_matches(p: Poly, ref):
    assert_canonical(p)
    cut, terms = ref
    assert p.cutoffs == cut
    assert dict(p.terms) == terms
    assert p == Poly(p.table, cut, terms)
    assert hash(p) == hash(Poly(p.table, cut, terms))


# -- inputs ------------------------------------------------------------------------

raw_terms = st.dictionaries(keys, coefficients, max_size=8)


@st.composite
def cutoffs(draw):
    return {"a": draw(cutoff_values), "b": draw(cutoff_values), "u": None}


def operand(cut: dict, terms: dict):
    """A `Poly` and its reference, built independently from one raw dict."""
    cut = merge(cut)
    return Poly(TABLE, cut, terms), (cut, clip(cut, terms))


@st.composite
def operands(draw):
    return operand(draw(cutoffs()), draw(raw_terms))


@st.composite
def nilpotent_operands(draw):
    """Every term has positive weight in a bounded grading."""
    cut = draw(cutoffs())
    terms = draw(raw_terms)
    bounded = [g for g in ("a", "b") if cut[g] is not None]
    return operand(cut, {k: c for k, c in terms.items() if any(weight(k, g) for g in bounded)})


scalars = st.one_of(st.integers(-6, 6), coefficients)


# -- construction and the ring -----------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(operands(), operands(), scalars)
@example(  # a - b cancels to zero and must come back with den 1
    operand({"a": 3}, {((1, 1),): Fraction(1, 6)}),
    operand({"a": 3}, {((1, 1),): Fraction(1, 6)}),
    -1,
)
@example(  # the sum's content shares a factor with its denominator
    operand({"a": 3}, {((1, 1),): Fraction(1, 6), (): Fraction(1, 3)}),
    operand({"a": 1}, {((1, 1),): Fraction(1, 6), (): Fraction(1, 6)}),
    Fraction(1, 2),
)
def test_ring_operations_match_reference(x, y, c):
    (a, ra), (b, rb) = x, y
    assert_matches(a, ra)
    assert_matches(a + b, ref_add(ra, rb))
    assert_matches(a - b, ref_add(ra, rb, -1))
    assert_matches(-a, ref_scale(ra, -1))
    assert_matches(a * b, ref_mul(ra, rb))
    assert_matches(a * c, ref_scale(ra, Fraction(c)))
    assert_matches(c * a, ref_scale(ra, Fraction(c)))
    assert_matches(a + c, ref_add(ra, (ra[0], clip(ra[0], {(): Fraction(c)}))))
    assert_matches(c - a, ref_add((ra[0], clip(ra[0], {(): Fraction(c)})), ra, -1))


@settings(max_examples=100, deadline=None)
@given(operands(), st.integers(0, 4))
def test_power_matches_reference(x, n):
    a, ra = x
    assert_matches(a**n, ref_pow(ra, n))


@settings(max_examples=200, deadline=None)
@given(operands(), st.lists(st.tuples(operands(), st.one_of(st.none(), scalars)), max_size=5))
def test_sum_with_scales_matches_reference(start, addends):
    a, ra = start
    acc = _Sum(a)
    want = ra
    for (p, rp), scale in addends:
        acc.add(p, scale)
        want = ref_add(want, rp, 1 if scale is None else scale)
    assert_matches(acc.poly(), want)


@settings(max_examples=200, deadline=None)
@given(operands(), st.integers(0, len(TABLE.variables) - 1), st.integers(0, 3))
def test_derivative_matches_reference(x, idx, order):
    a, ra = x
    assert_matches(a.derivative(TABLE.variables[idx].name, order), ref_derivative(ra, idx, order))


# -- series ------------------------------------------------------------------------


def factorial_inverse(k):
    out = Fraction(1)
    for j in range(2, k + 1):
        out /= j
    return out


@settings(max_examples=100, deadline=None)
@given(nilpotent_operands(), st.one_of(st.integers(1, 4), coefficients.filter(bool)))
def test_series_match_reference(x, c):
    a, ra = x
    assert_matches(a.series_exp(), ref_series(ra, factorial_inverse))
    assert_matches(
        a.series_log1p(),
        ref_series(ra, lambda k: Fraction((-1) ** (k + 1), k) if k else Fraction(0)),
    )
    # 1 / (c + a) = (1/c) sum (-a/c)^k
    shifted = a + c
    if not shifted.constant_term():  # a cutoff of -1 keeps no constant
        with pytest.raises(ZeroDivisionError):
            1 / shifted
        return
    want = ref_series(ra, lambda k: Fraction(-1) ** k / Fraction(c) ** (k + 1))
    assert_matches(shifted.series_inverse(), want)
    assert_matches(1 / shifted, want)
    assert_matches(3 / shifted, ref_scale(want, 3))


def test_inverse_of_series_without_constant_term_raises():
    with pytest.raises(ZeroDivisionError):
        1 / Poly(TABLE, {"a": 2}, {((1, 1),): 1})


# -- truncation, embedding, serialization -----------------------------------------


@settings(max_examples=200, deadline=None)
@given(operands(), cutoffs())
def test_truncate_matches_reference(x, tighter):
    a, (cut, terms) = x
    merged = {
        g: c if cut[g] is None else (cut[g] if c is None else min(cut[g], c))
        for g, c in tighter.items()
    }
    assert_matches(a.truncate(tighter), (merged, clip(merged, terms)))


BIG = VariableTable(
    [Variable("z", "a", 1)] + list(reversed(TABLE.variables)) + [Variable("c1", "c", 1)]
)


@settings(max_examples=200, deadline=None)
@given(operands(), cutoffs(), st.one_of(st.none(), st.integers(0, 4)))
def test_embed_matches_reference(x, target, c_cut):
    a, (_, terms) = x
    target = {**target, "c": c_cut}
    moved = {
        tuple(sorted((BIG.index[TABLE.variables[i].name], e) for i, e in k)): v
        for k, v in terms.items()
    }
    got = a.embed(BIG, target)
    assert_canonical(got)
    assert got.cutoffs == target
    assert dict(got.terms) == clip(target, moved, BIG)


@settings(max_examples=200, deadline=None)
@given(operands())
def test_json_round_trip(x):
    a, (cut, terms) = x
    data = a.to_json()
    assert [(t["num"], t["den"]) for t in data["terms"]] == [
        (str(c.numerator), str(c.denominator)) for _, c in a.sorted_terms()
    ]
    back = Poly.from_json(data)
    assert_matches(back, (cut, terms))
    assert back.to_json() == data


# -- time shifts -------------------------------------------------------------------


def ref_shift(a, moves, *extra_cutoffs):
    """Substitute t_i -> t_i + coeff * v^m for each i -> (v, m, coeff),
    expanding every power in full, then truncate."""
    cut, terms = a
    acc: dict = {}
    touched = False
    for key, c in terms.items():
        parts = {(): c}
        for i, e in key:
            if i in moves:
                touched = True
                v, m, coeff = moves[i]
                factor = {((i, 1),): Fraction(1), ((v, m),): coeff}
            else:
                factor = {((i, 1),): Fraction(1)}
            for _ in range(e):
                grown: dict = {}
                for k1, c1 in parts.items():
                    for k2, c2 in factor.items():
                        k = key_product(k1, k2)
                        grown[k] = grown.get(k, 0) + c1 * c2
                parts = grown
        for k, v in parts.items():
            acc[k] = acc.get(k, 0) + v
    if not touched:
        return a
    merged = merge(cut, *extra_cutoffs)
    return merged, clip(merged, acc)


@settings(max_examples=150, deadline=None)
@given(operands(), cutoffs(), cutoffs(), st.sampled_from((1, -1)), st.sampled_from(("u1", "b1")))
def test_binomial_shifts_match_reference(x, fam_cut, other_cut, sign, param):
    a, ra = x
    fam = TimeFamily(TABLE, fam_cut, ["a1", "a2"], "a")
    other = TimeFamily(TABLE, other_cut, ["b1", "b2"], "b")
    i1, i2 = TABLE.index["a1"], TABLE.index["a2"]
    b1, b2, y = TABLE.index["b1"], TABLE.index["b2"], TABLE.index[param]
    want = ref_shift(ra, {i1: (b1, 1, Fraction(sign)), i2: (b2, 1, Fraction(sign))}, fam_cut, other_cut)
    assert_matches(fam.shift_by(a, other, sign), want)
    want = ref_shift(ra, {i1: (y, 1, Fraction(sign)), i2: (y, 2, Fraction(sign, 2))}, fam_cut)
    assert_matches(fam.miwa_shift(a, sign, param), want)


# -- equal values by different routes ------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(operands(), st.integers(2, 12), operands())
def test_equal_values_compare_and_hash_equal(x, m, y):
    a, _ = x
    b, _ = y
    routes = [
        a * m * Fraction(1, m),
        a * Fraction(1, m) * m,
        Poly(TABLE, a.cutoffs, {k: c * m for k, c in a.terms.items()}) * Fraction(1, m),
        (a + a) * Fraction(1, 2),
        a + b - b,
    ]
    for p in routes[:4]:
        assert_canonical(p)
        assert p == a and hash(p) == hash(a)
        assert (p.nums, p.den) == (a.nums, a.den)
    # a + b - b keeps a's terms within the merged cutoffs
    assert_canonical(routes[4])
    assert routes[4] == a.truncate(b.cutoffs)
    assert hash(routes[4]) == hash(a.truncate(b.cutoffs))
    assert a * b == b * a and hash(a * b) == hash(b * a)


def test_zero_is_canonical_by_every_route():
    x = Poly(TABLE, {"a": 2}, {((1, 1),): Fraction(2, 3)})
    for z in (x - x, x * 0, x + (-x), Poly.zero(TABLE, {"a": 2}), x.truncate({"a": 0})):
        assert (z.nums, z.den) == ({}, 1)
        assert z == 0 and hash(z) == hash(Poly.zero(TABLE, {}))


def test_terms_is_a_fresh_fraction_view():
    x = Poly(TABLE, {"a": 4}, {((1, 1),): Fraction(2, 3), ((1, 2),): Fraction(1, 6)})
    assert (x.nums, x.den) == ({TABLE.encode(((1, 1),)): 4, TABLE.encode(((1, 2),)): 1}, 6)
    view = x.terms
    assert len(view) == 2 and set(view) == {TABLE.decode(k) for k in x.nums}
    assert view[((1, 1),)] == Fraction(2, 3) and isinstance(view[((1, 1),)], Fraction)
    assert x.terms is not view
    with pytest.raises(TypeError):
        view[((1, 1),)] = 1


# -- h_k(c t) ----------------------------------------------------------------------


@pytest.mark.parametrize("c", [-2, Fraction(1, 3), Fraction(3, 2)])
def test_scaled_h_matches_substitution(c):
    fam = standard_single_family(8)
    scaled = {fam.names[j - 1]: fam.time(j) * c for j in range(1, fam.depth + 1)}
    for k in range(0, 9):
        got = fam.h(k, c)
        assert_canonical(got)
        assert got == fam.h(k).substitute(scaled)
        assert got.cutoffs == fam.h(k).cutoffs


def test_h_memo_keys_on_the_scale():
    fam = standard_single_family(6)
    a, b = fam.h(4, 2), fam.h(4, 3)
    assert a != b
    assert fam.h(4, 2) is a and fam.h(4, Fraction(2)) is a and fam.h(4, 3) is b
    assert fam.e(4) == fam.h(4, -1)


def test_negative_exponents_are_refused():
    """The packed key has no field for a negative exponent: the constructor
    and `from_json` raise a one-line ValueError."""
    table = VariableTable([Variable("t1", "t", 1), Variable("t2", "t", 2)])
    with pytest.raises(ValueError) as err:
        Poly(table, {"t": 4}, {((0, -1),): 1})
    assert str(err.value) == "negative exponent -1 of t1"
    data = Poly(table, {"t": 4}, {((0, 1), (1, 1)): 3}).to_json()
    data["terms"][0]["exp"]["t1"] = -2
    with pytest.raises(ValueError) as err:
        Poly.from_json(data)
    assert str(err.value) == "negative exponent -2 of t1"
