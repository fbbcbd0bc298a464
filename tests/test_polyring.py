import random
from fractions import Fraction
from itertools import permutations
from math import prod

import pytest

from tauforge.polyring import (
    Poly,
    fraction_matrix_det,
    fraction_matrix_inverse,
    hirota_bilinear,
    integer_matrix_det,
    paired_family,
    poly_matrix_det,
    standard_double_family,
    standard_single_family,
)

F = Fraction


def test_truncation_on_construction_and_multiply():
    fam = standard_single_family(2)
    t1 = fam.time(1)
    assert (t1 * t1).coefficient({"t1": 2}) == 1
    fam1 = standard_single_family(1)
    s1 = fam1.time(1)
    assert (s1 * s1).is_zero  # cutoff 1 kills weight 2
    assert (t1 + 0) == t1
    p = (1 + t1) * (1 - t1)
    assert p == 1 - t1 * t1


def test_table_mismatch_raises():
    a = standard_single_family(3).time(1)
    b = standard_single_family(4).time(1)
    with pytest.raises(ValueError):
        _ = a + b


def _random_poly(fam, rng, max_terms=4):
    out = fam.zero()
    for _ in range(rng.randint(1, max_terms)):
        mono = fam.constant(F(rng.randint(-4, 4), rng.randint(1, 3)))
        for _ in range(rng.randint(0, 2)):
            mono = mono * fam.time(rng.randint(1, fam.depth))
        out = out + mono
    return out


def test_ring_axioms_random():
    fam = standard_single_family(6)
    rng = random.Random(11)
    for _ in range(25):
        p, q, r = (_random_poly(fam, rng) for _ in range(3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert p + q == q + p
        assert p - p == fam.zero()


def test_linear_part_is_the_derivative_at_zero_times():
    # d p / d a_k at a = 0, on polynomials mixing both families and y
    times, shift = paired_family(7, extra_unit=("y",))
    y = Poly.variable(times.table, times.cutoffs, "y")
    rng = random.Random(5)
    at_zero = {name: 0 for name in shift.names}
    for _ in range(30):
        p = _random_poly(times, rng) * _random_poly(shift, rng, 6) * (1 + y * rng.randint(-2, 2))
        p = p + _random_poly(shift, rng) ** 2
        for k in range(1, 8):
            want = p.derivative(shift.names[k - 1]).substitute(at_zero)
            assert shift.linear_part(p, k) == want, (p, k)


def test_h_generators_match_exponential_series():
    fam = standard_single_family(10, extra_unit=["y"])
    # exp(sum t_k y^k) = sum h_k y^k, coefficient-by-coefficient through 10
    xi = fam.xi("y")
    lhs = xi.series_exp()
    rhs = fam.zero()
    y = Poly.variable(fam.table, fam.cutoffs, "y")
    ypow = fam.one()
    for k in range(0, 11):
        rhs = rhs + fam.h(k) * ypow
        ypow = ypow * y
    assert lhs == rhs


def test_h_known_values():
    fam = standard_single_family(4)
    t1, t2, t3, t4 = (fam.time(k) for k in range(1, 5))
    assert fam.h(1) == t1
    assert fam.h(2) == t1 * t1 * F(1, 2) + t2
    assert fam.h(3) == t1**3 * F(1, 6) + t1 * t2 + t3
    assert fam.h(4) == t1**4 * F(1, 24) + t2 * t2 * F(1, 2) + t1 * t1 * t2 * F(1, 2) + t1 * t3 + t4
    assert fam.h(-2).is_zero
    assert fam.e(2) == fam.h(2, sign=-1)  # (-1)^2 h_2(-t)


def test_derivative_identity_on_h():
    fam = standard_single_family(8)
    for k in range(0, 9):
        for n in range(1, 5):
            got = fam.h(k).derivative(f"t{n}")
            assert got == fam.h(k - n)
    assert fam.time(1).derivative("t3").is_zero


def test_quasihomogeneity():
    fam = standard_single_family(6)
    a = F(3, 2)
    for k in range(0, 7):
        scaled = fam.h(k).substitute(
            {f"t{j}": fam.time(j) * a**j for j in range(1, 7)}
        )
        assert scaled == fam.h(k) * a**k


def test_miwa_shift_and_inverse():
    fam = standard_single_family(5, extra_unit=["y"])
    rng = random.Random(3)
    p = _random_poly(fam, rng)
    shifted = fam.miwa_shift(p, +1, "y")
    back = fam.miwa_shift(shifted, -1, "y")
    assert back == p
    assert fam.miwa_shift(fam.time(1), -1, "y") == fam.time(1) - Poly.variable(
        fam.table, fam.cutoffs, "y"
    )


def test_miwa_shift_matches_generating_series():
    # h_2(t + [y]) = sum_j h_{2-j}(t) y^j through the cutoff
    fam = standard_single_family(4, extra_unit=["y"])
    y = Poly.variable(fam.table, fam.cutoffs, "y")
    lhs = fam.miwa_shift(fam.h(2), +1, "y")
    rhs = fam.h(2) + fam.h(1) * y + fam.h(0) * y * y
    assert lhs == rhs


def test_evaluate_and_miwa_times():
    fam = standard_single_family(4)
    assert fam.time(1).evaluate({"t1": 3, "t2": 0, "t3": 0, "t4": 0}) == 3
    times = fam.miwa_times(1, 1)
    assert [times[f"t{k}"] for k in range(1, 5)] == [F(1), F(1, 2), F(1, 3), F(1, 4)]
    with pytest.raises(KeyError):
        fam.h(2).evaluate({"t1": 1})


def test_series_inverse_and_log():
    fam = standard_single_family(6)
    rng = random.Random(5)
    p = 1 + _random_poly(fam, rng) * fam.time(1)
    inv = p.series_inverse()
    assert p * inv == fam.one()
    u = fam.time(1) + fam.time(2)
    assert u.series_log1p() == u - u * u * F(1, 2) + u**3 * F(1, 3) - u**4 * F(
        1, 4
    ) + u**5 * F(1, 5) - u**6 * F(1, 6)
    # log(exp(u)) == u
    assert (u.series_exp() - 1).series_log1p() == u


def test_hirota_first_order_and_square():
    fam = standard_single_family(6)
    rng = random.Random(9)
    f, g = _random_poly(fam, rng), _random_poly(fam, rng)
    d1 = hirota_bilinear([(1, {"t1": 1})], f, g)
    assert d1 == f.derivative("t1") * g - f * g.derivative("t1")
    tau = _random_poly(fam, rng)
    d11 = hirota_bilinear([(1, {"t1": 2})], tau, tau)
    manual = 2 * (tau * tau.derivative("t1", 2) - tau.derivative("t1") ** 2)
    assert d11 == manual


def test_hirota_kp_operator_expansion():
    # (D1^4 + 3 D2^2 - 4 D1 D3) tau.tau doubles the classical 7-term form.
    fam = standard_single_family(6)
    rng = random.Random(13)
    tau = _random_poly(fam, rng)
    op = [(1, {"t1": 4}), (3, {"t2": 2}), (-4, {"t1": 1, "t3": 1})]
    got = hirota_bilinear(op, tau, tau)

    def d(p, name, k=1):
        return p.derivative(name, k)

    t = tau
    manual = (
        t * d(t, "t1", 4)
        - 4 * d(t, "t1") * d(t, "t1", 3)
        + 3 * d(t, "t1", 2) ** 2
        + 3 * t * d(t, "t2", 2)
        - 3 * d(t, "t2") ** 2
        - 4 * t * d(d(t, "t1"), "t3")
        + 4 * d(t, "t1") * d(t, "t3")
    )
    assert got == manual * 2


def test_hirota_antisymmetry_for_monomials():
    fam = standard_single_family(5)
    rng = random.Random(17)
    f, g = _random_poly(fam, rng), _random_poly(fam, rng)
    for orders in ({"t1": 1}, {"t2": 1, "t1": 2}, {"t3": 1}):
        deg = sum(orders.values())
        ab = hirota_bilinear([(1, orders)], f, g)
        ba = hirota_bilinear([(1, orders)], g, f)
        assert ab == ba * ((-1) ** deg)


def test_poly_matrix_det_matches_permanent_expansion():
    fam = standard_single_family(5)
    rows = [[fam.h(1), fam.h(2)], [fam.one(), fam.h(1)]]
    assert poly_matrix_det(rows) == fam.h(1) * fam.h(1) - fam.h(2)
    rng = random.Random(23)
    mat = [[_random_poly(fam, rng) for _ in range(3)] for _ in range(3)]
    brute = fam.zero()
    import itertools

    for perm in itertools.permutations(range(3)):
        sign = 1
        for i in range(3):
            for j in range(i):
                if perm[j] > perm[i]:
                    sign = -sign
        term = fam.one()
        for i in range(3):
            term = term * mat[i][perm[i]]
        brute = brute + term * sign
    assert poly_matrix_det(mat) == brute


def test_fraction_matrix_helpers():
    m = [[F(2), F(1)], [F(7), F(4)]]
    assert fraction_matrix_det(m) == 1
    inv = fraction_matrix_inverse(m)
    assert inv == [[F(4), F(-1)], [F(-7), F(2)]]
    with pytest.raises(ZeroDivisionError):
        fraction_matrix_inverse([[F(1), F(2)], [F(2), F(4)]])


def _leibniz(mat):
    size = len(mat)
    total = 0
    for perm in permutations(range(size)):
        inversions = sum(perm[i] > perm[j] for j in range(size) for i in range(j))
        total += (-1) ** inversions * prod(mat[i][perm[i]] for i in range(size))
    return total


def test_fraction_free_determinant_matches_the_permutation_sum():
    # Bareiss elimination against the Leibniz sum, with zeros that force
    # row swaps and singular matrices among the draws
    rng = random.Random(53)
    for size in range(6):
        for _ in range(12):
            mat = [[rng.choice((0, 0, rng.randint(-4, 4))) for _ in range(size)] for _ in range(size)]
            assert integer_matrix_det(mat) == _leibniz(mat), mat
            scaled = [[F(x, rng.randint(1, 3)) for x in row] for row in mat]
            assert fraction_matrix_det(scaled) == _leibniz(scaled), scaled


def test_double_family_and_embedding():
    plus, minus = standard_double_family(3, 3)
    p = plus.h(2) * minus.h(1)
    assert p.coefficient({"t2": 1, "s1": 1}) == 1
    # embed a single-family poly into the double table by name
    single = standard_single_family(3)
    q = single.h(2)
    table = plus.table
    emb = q.embed(table, plus.cutoffs)
    assert emb == plus.h(2)


def test_json_round_trip():
    fam = standard_single_family(4)
    p = fam.h(3) * F(-5, 7) + 2
    q = Poly.from_json(p.to_json())
    assert q.terms == {
        k: c for k, c in p.terms.items()
    } and q.table.variables == p.table.variables


def test_verified_order_never_exceeds_cutoff():
    fam = standard_single_family(3)
    p = fam.h(3)
    assert p.max_weight("t") == 3
    assert p.truncate({"t": 2}).max_weight("t") <= 2


def test_generator_beyond_depth_is_zero_under_cutoff():
    fam = standard_single_family(3)
    assert fam.h(4).is_zero  # every weight-4 monomial dies at cutoff 3
    assert fam.h(7, sign=-1).is_zero


def test_power_and_exp_edge_cases():
    fam = standard_single_family(4)
    p = fam.time(1) + 2
    assert p**0 == fam.one()
    with pytest.raises(ValueError):
        _ = p**-1
    with pytest.raises(ValueError):
        (fam.one()).series_exp()  # constant term survives truncation forever
    with pytest.raises(ZeroDivisionError):
        fam.time(1).series_inverse()


def test_embed_weight_mismatch_rejected():
    small = standard_single_family(3)
    from tauforge.polyring import TimeFamily, Variable, VariableTable

    # a table reusing the name t2 at the wrong weight
    table = VariableTable(
        [Variable("t1", "t", 1), Variable("t2", "t", 5), Variable("t3", "t", 3)]
    )
    with pytest.raises(ValueError):
        small.h(2).embed(table, {"t": 5})


def test_poly_truth_value_is_nonzero():
    fam = standard_single_family(4)
    rng = random.Random(31)
    for p in [fam.zero(), fam.one(), fam.time(4), fam.time(2) * fam.time(3)] + [
        _random_poly(fam, rng) for _ in range(8)
    ]:
        assert bool(p) == (not p.is_zero)


def test_rational_over_poly_is_series_inverse():
    fam = standard_single_family(5)
    rng = random.Random(37)
    for _ in range(6):
        p = _random_poly(fam, rng) + F(rng.randint(1, 5), rng.randint(1, 3))
        if p.constant_term() == 0:
            continue
        assert 1 / p == p.series_inverse()
        assert F(2, 3) / p == p.series_inverse() * F(2, 3)
    with pytest.raises(ZeroDivisionError):
        1 / fam.time(1)


def test_det_of_empty_and_rational_matrices():
    assert poly_matrix_det([]) == 1
    rng = random.Random(41)
    for size in (1, 2, 3, 4):
        mat = [
            [F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(size)]
            for _ in range(size)
        ]
        assert poly_matrix_det(mat) == fraction_matrix_det(mat)


def test_det_of_mixed_scalar_and_poly_entries():
    fam = standard_single_family(3)
    t1 = fam.time(1)
    mixed = [
        [[F(0), t1], [t1, 1]],
        [[t1, F(0)], [F(0), t1]],
        [[F(2), t1], [F(0), F(1, 2)]],
    ]
    for mat in mixed:
        lifted = [
            [x if isinstance(x, Poly) else fam.constant(x) for x in row] for row in mat
        ]
        assert poly_matrix_det(mat) == poly_matrix_det(lifted)
    assert poly_matrix_det([[F(0), t1], [t1, 1]]) == -t1 * t1
