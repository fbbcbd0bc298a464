"""The double Schur sum builder against the product loop it replaced.

`schur.double_schur_sum` multiplies the integer numerators of the memoized
Schur factors into one dict over one common denominator.  The reference
here forms every term as `Poly.__mul__` products added into a `_Sum`, the
loop that `models` and `tau.expand_2dtl` ran before: the two must give the
same numerators, denominator and cutoffs, and raise the same errors.

`tau.expand_mkp`'s single sum c_lam s_lam(t) runs on a `_Sum`, and is
compared with the independent operator and dressed-correlator route,
`tau.expand_mkp_direct`.

Negative control: with the minus-side Schur function taken at +t instead of
-t, or with each product's numerators left unscaled by D / d (D the common
denominator, d the term's own), the comparisons below fail.
"""

import random
from fractions import Fraction

import pytest

from tauforge.grouplike import charge_of
from tauforge.models import (
    DiagonalModel,
    cut_and_join_tau_sum,
    diagonal_model_tau_closed,
    unitary_model_tau,
)
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.polyring import (
    TimeFamily,
    _Sum,
    paired_family,
    standard_double_family,
    standard_single_family,
)
from tauforge.sampling import sample_element, sample_soliton
from tauforge.schur import _schur_neg, double_schur_sum, schur_jt
from tauforge.tau import (
    coefficient_reader,
    expand_2dtl,
    expand_mkp,
    expand_mkp_direct,
    window_for_element,
)

F = Fraction


def product_loop(plus, minus, terms):
    """sum of w s_lam(t+) s_mu(-t-) by `Poly.__mul__` and one running `_Sum`."""
    total = _Sum(plus.zero())
    for lam, mu, w in terms:
        total.add(schur_jt(plus, lam) * _schur_neg(minus, mu), w)
    return total.poly()


def assert_same(got, want):
    assert (got.nums, got.den, got.cutoffs) == (want.nums, want.den, want.cutoffs)


def diagonal_terms(depth, count, weight):
    return [(lam, lam, weight(lam)) for lam in enumerate_partitions(depth, max_rows=count)]


def eigenvalue(model, count):
    def weight(lam):
        out = F(1)
        for i in range(1, count + 1):
            out *= model.g(count + lam.part(i) - i)
        return out

    return weight


@pytest.mark.parametrize("count", range(5))
def test_unitary_cauchy_sum_matches_the_product_loop(count):
    for depth in range(10):
        plus, minus = standard_double_family(depth, depth)
        got = unitary_model_tau(count, plus, minus, depth)
        if count == 0:
            assert got == plus.one()
            continue
        assert_same(got, product_loop(plus, minus, diagonal_terms(depth, count, lambda lam: 1)))


MODELS = [
    DiagonalModel.gaussian(F(3, 2)),
    DiagonalModel.hciz(F(2, 3)),
    DiagonalModel.hciz(F(0)),
    DiagonalModel.log_squared(F(2, 3), F(3, 2)),
]


@pytest.mark.parametrize("model", MODELS, ids=["gaussian", "hciz", "hciz-zero", "log-squared"])
def test_diagonal_models_match_the_product_loop(model):
    for count in (1, 2, 3):
        for depth in (0, 1, 4, 7):
            plus, minus = standard_double_family(depth, depth)
            got = diagonal_model_tau_closed(model, count, plus, minus, depth)
            want = product_loop(plus, minus, diagonal_terms(depth, count, eigenvalue(model, count)))
            assert_same(got, want)


def test_hciz_at_zero_coupling_is_the_zero_polynomial():
    # g(k) = 0 for k > 0, so every shape's eigenvalue holds a zero at size 2
    plus, minus = standard_double_family(6, 6)
    got = diagonal_model_tau_closed(DiagonalModel.hciz(F(0)), 2, plus, minus, 6)
    assert got.is_zero and got.den == 1
    assert got.cutoffs == {"tm": 6, "tp": 6}


@pytest.mark.parametrize("e,q", [(F(2), F(1, 3)), (F(3, 2), F(-2, 5)), (F(-1), F(7))])
def test_cut_and_join_sum_matches_the_product_loop(e, q):
    for depth in (0, 3, 6):
        plus, minus = standard_double_family(depth, depth)

        def weight(lam):
            content = sum(lam.part(i) * (lam.part(i) + 1 - 2 * i) for i in range(1, lam.length + 1))
            return e**content * q**lam.weight

        want = product_loop(
            plus, minus, [(lam, lam, weight(lam)) for lam in enumerate_partitions(depth)]
        )
        assert_same(cut_and_join_tau_sum(e, q, plus, minus, depth), want)


def pair_terms(depth, rng):
    shapes = enumerate_partitions(depth)
    return [
        (lam, mu, F(rng.randint(-4, 4), rng.randint(1, 6)))
        for lam in shapes
        for mu in shapes
        if rng.random() < 0.5
    ]


def test_one_shared_grading_truncates_the_products():
    # s_lam(t) s_mu(-a) has weight |lam| + |mu| in the one grading "t"
    rng = random.Random(3)
    for depth in (2, 5):
        first, second = paired_family(depth)
        terms = pair_terms(depth, rng)
        got = double_schur_sum(first, second, terms)
        assert_same(got, product_loop(first, second, terms))
        assert got.max_weight("t") <= depth


def test_different_cutoffs_on_one_table_merge():
    plus, minus = standard_double_family(6, 6)
    table = plus.table
    plus = TimeFamily(table, {"tp": 6, "tm": 3}, plus.names, "tp")
    minus = TimeFamily(table, {"tp": 4, "tm": 6}, minus.names, "tm")
    terms = pair_terms(6, random.Random(4))
    got = double_schur_sum(plus, minus, terms)
    assert_same(got, product_loop(plus, minus, terms))
    assert got.cutoffs == {"tp": 4, "tm": 3}


def test_no_terms_give_the_zero_of_the_first_family():
    plus, minus = standard_double_family(3, 3)
    assert_same(double_schur_sum(plus, minus, []), plus.zero())


def raised(build):
    with pytest.raises(ValueError) as err:
        build()
    return str(err.value)


def test_two_tables_raise_as_the_product_does():
    plus, _ = standard_double_family(4, 4)
    _, minus = standard_double_family(5, 5)
    terms = [(Partition([]), Partition([]), 1), (Partition([1]), Partition([1]), F(1, 2))]
    want = raised(lambda: product_loop(plus, minus, terms))
    assert want == "polynomials live on different variable tables"
    assert raised(lambda: double_schur_sum(plus, minus, terms)) == want


def test_times_below_the_cutoff_raise_as_the_product_loop_does():
    # times t1..t3 at cutoff 5: a shape needing h_4 or h_5 raises, also at weight 0
    plus, minus = standard_double_family(5, 5)
    short = TimeFamily(plus.table, plus.cutoffs, plus.names[:3], "tp")
    for terms in (
        [(Partition([]), Partition([]), 1), (Partition([4]), Partition([1]), F(2, 3))],
        [(Partition([2, 1]), Partition([2]), 1), (Partition([5]), Partition([]), 0)],
    ):
        want = raised(lambda: product_loop(short, minus, terms))
        assert want.startswith("h_")
        assert raised(lambda: double_schur_sum(short, minus, terms)) == want
    # and on the minus side
    terms = [(Partition([1]), Partition([4]), 0)]
    want = raised(lambda: product_loop(minus, short, terms))
    assert raised(lambda: double_schur_sum(minus, short, terms)) == want


def old_expand_2dtl_poly(g, n, plus, minus, depth):
    """The pair loop `expand_2dtl` ran: one product per nonzero coefficient."""
    read = coefficient_reader(g, window_for_element(g, (n, n - charge_of(g)), depth))
    shapes = enumerate_partitions(depth)
    coeffs, total = {}, _Sum(plus.zero())
    for mu in shapes:
        for lam in shapes:
            c = read(lam, n, mu)
            if not c:
                continue
            coeffs[(lam, mu)] = c
            total.add(schur_jt(plus, lam) * _schur_neg(minus, mu) * c)
    return total.poly(), coeffs


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_expand_2dtl_matches_the_pair_loop(n):
    rng = random.Random(20 + n)
    plus, minus = standard_double_family(3, 3)
    seen = 0
    for _ in range(4):
        g = sample_element(rng)
        series = expand_2dtl(g, n, plus, minus, 3)
        poly, coeffs = old_expand_2dtl_poly(g, n, plus, minus, 3)
        assert_same(series.poly, poly)
        seen += bool(coeffs)
        assert list(series.coefficients.items()) == list(coeffs.items())
    assert seen


@pytest.mark.parametrize("n", [-1, 0, 1])
def test_expand_mkp_matches_the_direct_route(n):
    # window elements through the operator route, solitons through the
    # dressed correlator: numerators, denominator and cutoffs
    rng = random.Random(30 + n)
    family = standard_single_family(6)
    elements = [sample_element(rng) for _ in range(4)]
    for g in elements + [sample_soliton(rng, size) for size in (1, 2)]:
        assert_same(expand_mkp(g, n, family, 6).poly, expand_mkp_direct(g, n, family, 6))


def test_running_sum_merges_cutoffs_and_refuses_a_second_table():
    # zero weights and a second family's tighter cutoffs on one table
    plus, minus = standard_double_family(6, 6)
    plus = TimeFamily(plus.table, {"tp": 6, "tm": 3}, plus.names, "tp")
    minus = TimeFamily(plus.table, {"tp": 4, "tm": 6}, minus.names, "tm")
    rng = random.Random(6)
    total, want = _Sum(plus.one()), plus.one()
    for family in (plus, minus):
        for lam in enumerate_partitions(4):
            p, w = schur_jt(family, lam), F(rng.randint(-2, 2), rng.randint(1, 4))
            total.add(p, w)
            want = want + p * w
    got = total.poly()
    assert_same(got, want)
    assert got.cutoffs == {"tp": 4, "tm": 3}
    _, other = standard_double_family(5, 5)
    total = _Sum(plus.zero())
    assert raised(lambda: total.add(schur_jt(other, Partition([1])), F(0))) == (
        "polynomials live on different variable tables"
    )
