"""Differential property tests for the graded `Poly` product and sum.

The product pairs only weight buckets that fit the merged cutoffs; the sum
skips its truncation pass when no cutoff tightens.  Both are compared here
with naive references: form every term, then truncate.
"""

from collections import Counter
from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforge.polyring import Poly, Variable, VariableTable

# gradings "a" and "b" take a cutoff or None per operand; "u" never has one
TABLE = VariableTable(
    [
        Variable("a0", "a", 0),
        Variable("a1", "a", 1),
        Variable("a2", "a", 2),
        Variable("b1", "b", 1),
        Variable("b2", "b", 2),
        Variable("u0", "u", 0),
        Variable("u1", "u", 1),
    ]
)

cutoff_values = st.one_of(st.none(), st.just(-1), st.integers(0, 6))
coefficients = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
keys = st.dictionaries(
    st.integers(0, len(TABLE.variables) - 1), st.integers(1, 2), max_size=3
).map(lambda d: tuple(sorted(d.items())))


@st.composite
def polys(draw):
    cutoffs = {"a": draw(cutoff_values), "b": draw(cutoff_values), "u": None}
    kind = draw(st.sampled_from(("terms", "zero", "constant")))
    if kind == "zero":
        return Poly.zero(TABLE, cutoffs)
    if kind == "constant":
        return Poly.constant(TABLE, cutoffs, draw(coefficients))
    return Poly(TABLE, cutoffs, draw(st.dictionaries(keys, coefficients, max_size=8)))


def poly(cutoffs: dict, terms: dict) -> Poly:
    """Build from {((name, exponent), ...): coefficient}."""
    return Poly(
        TABLE,
        cutoffs,
        {tuple((TABLE.index[n], e) for n, e in k): c for k, c in terms.items()},
    )


def merged_cutoffs(a: Poly, b: Poly) -> dict:
    out = {}
    for g in a.table.gradings:
        bounds = [c for c in (a.cutoffs.get(g), b.cutoffs.get(g)) if c is not None]
        out[g] = min(bounds) if bounds else None
    return out


def truncated(cutoffs: dict, terms: dict) -> Poly:
    def weight(key, g):
        return sum(
            TABLE.variables[i].weight * e
            for i, e in key
            if TABLE.variables[i].grading == g
        )

    kept = {
        k: c
        for k, c in terms.items()
        if c and all(cut is None or weight(k, g) <= cut for g, cut in cutoffs.items())
    }
    return Poly(TABLE, cutoffs, kept)


def naive_product(a: Poly, b: Poly) -> Poly:
    acc: dict = {}
    for k1, c1 in a.terms.items():
        for k2, c2 in b.terms.items():
            key = tuple(sorted((Counter(dict(k1)) + Counter(dict(k2))).items()))
            acc[key] = acc.get(key, 0) + c1 * c2
    return truncated(merged_cutoffs(a, b), acc)


def naive_sum(a: Poly, b: Poly) -> Poly:
    acc = dict(a.terms)
    for k, c in b.terms.items():
        acc[k] = acc.get(k, 0) + c
    return truncated(merged_cutoffs(a, b), acc)


def assert_same(got: Poly, want: Poly):
    assert got.terms == want.terms
    assert got.cutoffs == want.cutoffs
    assert got.to_json() == want.to_json()


@settings(max_examples=300, deadline=None)
@given(polys(), polys())
@example(Poly.zero(TABLE, {"a": 3}), Poly.constant(TABLE, {"b": 2}, 5))
@example(Poly.constant(TABLE, {"a": -1}, 2), Poly.constant(TABLE, {}, 3))
@example(  # only the first bounded grading is exceeded
    poly({"a": 2, "b": 4}, {(("a1", 2),): 1}),
    poly({"a": 3, "b": 4}, {(("a1", 1), ("b1", 1)): 1}),
)
@example(  # only the second bounded grading is exceeded
    poly({"a": 4, "b": 4}, {(("a1", 1), ("b2", 1)): 1, (("a0", 2), ("u1", 2)): 2}),
    poly({"a": 4, "b": 3}, {(("b1", 2),): 3, (("a1", 1), ("u0", 1)): -1, (): 1}),
)
def test_graded_product_matches_all_pairs(a, b):
    assert_same(a * b, naive_product(a, b))
    assert_same(b * a, naive_product(b, a))


@settings(max_examples=300, deadline=None)
@given(polys(), polys())
@example(poly({"a": 2}, {(("a1", 2),): 1}), poly({"a": 1}, {(("a1", 1),): 1}))
@example(Poly.constant(TABLE, {"a": -1}, 2), Poly.constant(TABLE, {"a": -1}, 3))
def test_sum_matches_truncated_union(a, b):
    assert_same(a + b, naive_sum(a, b))
    assert_same(b + a, naive_sum(b, a))
