import random
from fractions import Fraction

import pytest

from tauforge.fock import (
    FockVector,
    ModeWindow,
    WindowViolation,
    apply_charge,
    apply_current,
    apply_current_exp,
    apply_diagonal_exp,
    apply_diagonal_multipliers,
    apply_normal_ordered_word,
    apply_psi,
    apply_psi_star,
    apply_scaled_current_schur,
    apply_word,
    basis_state_via_creation,
    basis_vector,
    combo,
    inner,
    letter,
    normal_order_expand,
    outer_project,
    pair_vev,
    project,
    vacuum,
    vev,
    window_for,
)
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.polyring import standard_single_family
from tauforge.schur import schur_jt
from test_fock_vectors import ref_current_exp, ref_current_exp_direct

F = Fraction
W = ModeWindow(-9, 9)


def rand_vector(rng, window=W, charges=(-1, 0, 1), weight=4) -> FockVector:
    states = {}
    shapes = enumerate_partitions(weight)
    for _ in range(rng.randint(1, 4)):
        n = rng.choice(charges)
        lam = rng.choice(shapes)
        states[(n, lam.parts)] = F(rng.randint(-5, 5), rng.randint(1, 3))
    return FockVector(window, states)


def test_vacuum_shifts():
    assert apply_psi(0, vacuum(W, 0)) == vacuum(W, 1)
    assert apply_psi_star(0, vacuum(W, 1)) == vacuum(W, 0)
    assert apply_psi(3, vacuum(W, 3)) == vacuum(W, 4)
    # bras
    assert apply_psi(2, vacuum(W, 3, dual=True)) == vacuum(W, 2, dual=True)
    assert apply_psi_star(2, vacuum(W, 2, dual=True)) == vacuum(W, 3, dual=True)


def test_annihilation_rules():
    lam = Partition([3, 1])
    v = basis_vector(W, 0, lam)
    maya = [0 + lam.part(i) - i for i in range(1, 8)]
    for k in maya:
        assert apply_psi(k, v).is_zero
    for k in range(-6, 6):
        if k not in maya:
            assert not apply_psi(k, v).is_zero
            assert apply_psi_star(k, v).is_zero


def test_car_on_random_vectors():
    rng = random.Random(2)
    for _ in range(12):
        v = rand_vector(rng)
        j, k = rng.randint(-5, 5), rng.randint(-5, 5)
        pj_pk = apply_psi(j, apply_psi(k, v)) + apply_psi(k, apply_psi(j, v))
        assert pj_pk.is_zero
        sj_sk = apply_psi_star(j, apply_psi_star(k, v)) + apply_psi_star(
            k, apply_psi_star(j, v)
        )
        assert sj_sk.is_zero
        anti = apply_psi(j, apply_psi_star(k, v)) + apply_psi_star(k, apply_psi(j, v))
        assert anti == (v if j == k else FockVector(W, {}))


def test_route_agreement():
    for lam in enumerate_partitions(6):
        for n in (-2, -1, 0, 1, 2):
            want = basis_vector(W, n, lam)
            for route in ("frobenius", "row", "column"):
                assert basis_state_via_creation(route, lam, n, W) == want, (
                    route,
                    lam,
                    n,
                )


def test_orthonormality_and_inner():
    shapes = enumerate_partitions(4)
    for lam in shapes[:6]:
        for mu in shapes[:6]:
            for n, m in ((0, 0), (0, 1), (-1, -1)):
                got = inner(basis_vector(W, n, lam, dual=True), basis_vector(W, m, mu))
                assert got == (1 if (n, lam) == (m, mu) else 0)


def test_pair_vev_rule():
    from tauforge.grouplike import field_mode
    from tauforge.wick import kernel_pair

    z = F(2, 3)
    for n in (-2, 0, 3):
        for i in range(-4, 4):
            for j in range(-4, 4):
                got = vev(W, n, [letter("psi", i), letter("psi*", j)])
                assert got == (1 if i == j and j < n else 0)
                assert got == pair_vev(n, letter("psi", i), letter("psi*", j))
                star_first = vev(W, n, [letter("psi*", i), letter("psi", j)])
                assert star_first == (1 if i == j and j >= n else 0)
                assert star_first == pair_vev(n, letter("psi*", i), letter("psi", j))
                # the kernel route's mode-mode pairs follow the same rule
                for a, b in (("psi", "psi*"), ("psi*", "psi")):
                    mode_pair = kernel_pair(n, (1, a, ("mode", i)), (1, b, ("mode", j)))
                    assert mode_pair == pair_vev(n, letter(a, i), letter(b, j))
            # a field against mode j: its mode-j coefficient times the mode
            # pair value, with the field on either side
            for a, b in (("psi", "psi*"), ("psi*", "psi")):
                field = (1, a, ("field", z, 1))
                mode = (1, b, ("mode", i))
                coeff = field_mode(a, z, 1, i)
                assert kernel_pair(n, field, mode) == coeff * pair_vev(
                    n, letter(a, i), letter(b, i)
                )
                field = (1, b, ("field", z, 1))
                mode = (1, a, ("mode", i))
                assert kernel_pair(n, mode, field) == field_mode(b, z, 1, i) * pair_vev(
                    n, letter(a, i), letter(b, i)
                )


def test_window_violations():
    small = ModeWindow(-3, 3)
    with pytest.raises(WindowViolation):
        apply_psi(5, vacuum(small, 0))
    with pytest.raises(WindowViolation):
        basis_vector(small, 0, Partition([4]))
    w = window_for([0], 4)
    assert w.lo == -6 and w.hi == 6


def test_normal_order_three_letters():
    rng = random.Random(5)
    n = 0
    letters = [
        combo([(F(rng.randint(-3, 3)), "psi", rng.randint(-3, 3)) for _ in range(2)])
        for _ in range(2)
    ] + [combo([(F(1), "psi*", rng.randint(-3, 3)), (F(2), "psi*", 2)])]
    f0, f1, f2 = letters
    v = rand_vector(rng)
    got = FockVector(W, {})
    for c, w in normal_order_expand(letters, n):
        got = got + apply_word(w, v).scale(c)
    want = (
        apply_word([f0, f1, f2], v)
        - apply_word([f0], v).scale(pair_vev(n, f1, f2))
        + apply_word([f1], v).scale(pair_vev(n, f0, f2))
        - apply_word([f2], v).scale(pair_vev(n, f0, f1))
    )
    assert got == want


def test_normal_order_monomial_action_matches_expansion():
    # the sorted-with-parity route equals the contraction-expansion route
    rng = random.Random(7)
    for n in (0, 1):
        for _ in range(6):
            letters = []
            for _ in range(rng.choice((2, 3, 4))):
                kind = rng.choice(("psi", "psi*"))
                letters.append(letter(kind, rng.randint(-4, 4)))
            v = rand_vector(rng)
            via_sort = apply_normal_ordered_word(letters, n, v)
            via_expand = FockVector(W, {})
            for c, w in normal_order_expand(letters, n):
                via_expand = via_expand + apply_word(w, v).scale(c)
            assert via_sort == via_expand


def test_normal_order_swaps_sign():
    # ordering psi*_1 psi_1 at vacuum 0 flips to -psi_1 psi*_1
    v = basis_vector(W, 0, Partition([1]))
    lhs = apply_normal_ordered_word([letter("psi*", 1), letter("psi", 1)], 0, v)
    rhs = apply_word([letter("psi", 1), letter("psi*", 1)], v).scale(-1)
    assert lhs == rhs


def test_charge_and_current_basics():
    for n in (-2, 0, 1):
        v = basis_vector(W, n, Partition([2, 1]))
        assert apply_charge(v) == v.scale(n)
        for k in (1, 2, 3):
            assert apply_current(k, vacuum(W, n)).is_zero
    # lowering on the vacuum populates single boxes: J_{-1}|n> = -|(1),n>?
    got = apply_current(-1, vacuum(W, 0))
    assert set(got.states) == {(0, (1,))}


def test_current_commutator():
    rng = random.Random(13)
    big = ModeWindow(-14, 14)
    for k in (1, 2, 3):
        for l in (-3, -2, -1, 1, 2):
            for _ in range(3):
                v = rand_vector(rng, window=big, weight=3)
                lhs = apply_current(k, apply_current(l, v)) - apply_current(
                    l, apply_current(k, v)
                )
                want = v.scale(k) if k + l == 0 else FockVector(big, {})
                assert lhs == want, (k, l)


def test_current_exp_routes_agree():
    """The current tree against the test-side state routes: skew Schur
    functions placed state by state, and on lowered kets the series of
    single current hops.  The Schur builder reads its skew Schur functions
    off a bra raised by the same tree, so the first pins state placement,
    phases and window rules, not the characters; the hop series pins those
    too, and `tests/test_schur_characters.py` checks the characters apart."""
    fam = standard_single_family(4)
    big = ModeWindow(-14, 14)
    for lam in enumerate_partitions(4):
        for n in (-1, 0, 1):
            v = basis_vector(big, n, lam)
            for direction in ("lower", "raise"):
                got = apply_current_exp(direction, fam, v, 4).states
                args = (direction, fam, big, v.states, False, 4)
                assert got == ref_current_exp(*args), (lam, n, direction)
                if direction == "lower":
                    assert got == ref_current_exp_direct(*args), (lam, n)
    # and on a bra
    b = basis_vector(big, 0, Partition([2]), dual=True)
    got = apply_current_exp("raise", fam, b, 4).states
    assert got == ref_current_exp("raise", fam, big, b.states, True, 4)


def test_coherent_state_coefficients():
    fam = standard_single_family(6)
    big = ModeWindow(-12, 12)
    for n in (-1, 0, 1):
        grown = apply_current_exp("lower", fam, vacuum(big, n), 6)
        for lam in enumerate_partitions(6):
            want = schur_jt(fam, lam) * ((-1) ** lam.sign_exponent())
            assert grown.component(n, lam) == want
        # raising fixes the vacuum
        assert apply_current_exp("raise", fam, vacuum(big, n), 6) == vacuum(
            big, n
        ).scale(fam.one())


def test_mixed_exponential_commutation():
    # <n| raise(t) lower(s) |n> = exp(sum k t_k s_k) as polynomials
    from tauforge.polyring import standard_double_family

    plus, minus = standard_double_family(4, 4)
    big = ModeWindow(-12, 12)
    for n in (-1, 0, 2):
        grown = apply_current_exp("lower", minus, vacuum(big, n), 4)
        shrunk = apply_current_exp("raise", plus, grown, 4)
        got = shrunk.component(n, Partition([]))
        quad = plus.zero()
        for k in range(1, 5):
            quad = quad + plus.time(k) * minus.time(k) * k
        assert got == quad.series_exp()


def test_schur_of_currents_builds_basis_states():
    big = ModeWindow(-12, 12)
    for lam in enumerate_partitions(4):
        for n in (-1, 0, 1):
            got = apply_scaled_current_schur(lam, "lower", vacuum(big, n))
            want = basis_vector(big, n, lam).scale((-1) ** lam.sign_exponent())
            assert got == want, (lam, n)


def test_projectors():
    assert project("plus", vacuum(W, 0)) == vacuum(W, 0)
    assert project("minus", vacuum(W, 0)) == vacuum(W, 0)
    assert project("plus", vacuum(W, -1)).is_zero
    assert project("minus", vacuum(W, 1)).is_zero
    rng = random.Random(19)
    for _ in range(8):
        v = rand_vector(rng)
        for kind in ("plus", "minus"):
            once = project(kind, v)
            assert project(kind, once) == once
    # shape-refined projector pair picks out exactly one state
    lam, mu = Partition([2, 1]), Partition([1, 1])
    for n, m in ((0, 0), (0, 1)):
        v = basis_vector(W, m, mu)
        hit = project("plus_state", project("minus_state", v, n, lam), n, lam)
        if (n, lam) == (m, mu):
            assert hit == v
        else:
            assert hit.is_zero
    both = project(
        "plus_state", project("minus_state", basis_vector(W, 0, lam), 0, lam), 0, lam
    )
    assert both == basis_vector(W, 0, lam)


def test_projector_commutation():
    lam = Partition([2, 1])
    rng = random.Random(23)
    for _ in range(6):
        v = rand_vector(rng)
        ab = project("plus_state", project("minus_state", v, 0, lam), 0, lam)
        ba = project("minus_state", project("plus_state", v, 0, lam), 0, lam)
        assert ab == ba


def test_outer_projector():
    lam, mu = Partition([2]), Partition([1, 1])
    v = basis_vector(W, 0, mu).scale(F(3, 2))
    got = outer_project(1, lam, 0, mu, v)
    assert got == basis_vector(W, 1, lam).scale(F(3, 2))
    assert outer_project(1, lam, 0, Partition([3]), v).is_zero


def test_diagonal_exponent_vs_direct_multipliers():
    base = F(3, 2)
    p = [F(1), F(-2), F(1, 1)]  # p(x) = 1 - 2x + x^2

    def mult(j):
        return base ** (1 - 2 * j + j * j)

    rng = random.Random(29)
    for _ in range(8):
        v = rand_vector(rng, charges=(-2, -1, 0, 1, 2), weight=3)
        closed = apply_diagonal_exp(p, base, v)
        direct = apply_diagonal_multipliers(mult, v)
        assert closed == direct


def test_diagonal_identity_and_charge():
    v = basis_vector(W, 2, Partition([2, 1]))
    assert apply_diagonal_exp([F(0)], F(7), v) == v
    for n in (-2, 0, 3):
        u = basis_vector(W, n, Partition([1]))
        got = apply_diagonal_exp([F(1)], F(5), u)
        assert got == u.scale(F(5) ** n)


def test_single_mode_exponential_identity():
    # exp(alpha psi_k psi*_k) = 1 + (e^alpha - 1) psi_k psi*_k on states,
    # with the exact multiplier M standing for e^alpha
    M = F(7, 3)
    for k in (0, 2, -1):
        for lam in enumerate_partitions(3):
            for n in (-1, 0, 1):
                v = basis_vector(W, n, lam)
                occ = apply_psi(k, apply_psi_star(k, v))  # projector on "k occupied"
                rhs = v + occ.scale(M - 1)
                want = v.scale(M) if occ == v else v
                assert rhs == want


def test_linear_flow_rescales_modes():
    # conjugating a mode operator through the weight-one diagonal flow
    # rescales it by base**mode, i.e. the generating series argument shifts
    rng = random.Random(31)
    base = F(5, 4)
    for _ in range(6):
        v = rand_vector(rng, weight=3)
        k = rng.randint(-4, 4)
        lhs = apply_diagonal_exp([F(0), F(1)], base, apply_psi(k, v))
        rhs = apply_psi(k, apply_diagonal_exp([F(0), F(1)], base, v)).scale(base**k)
        assert lhs == rhs, k
        lhs = apply_diagonal_exp([F(0), F(1)], base, apply_psi_star(k, v))
        rhs = apply_psi_star(k, apply_diagonal_exp([F(0), F(1)], base, v)).scale(
            base**-k
        )
        assert lhs == rhs, k
