import random
from fractions import Fraction

import pytest

from tauforge.fock import (
    ModeWindow,
    apply_mode,
    apply_psi_star,
    apply_word,
    basis_vector,
    letter,
    vacuum,
)
from tauforge.grouplike import (
    Diagonal,
    ExponentBilinear,
    Identity,
    LinearWord,
    ModeMatrix,
    NormalOrderedBilinear,
    Product,
    ProjectorElement,
    apply_element,
    bbc_check,
    charge_of,
    compose_bare_ordered,
    exponent_to_bare,
    matrix_element,
    reconstruct_exponential,
    reorder,
    rotation_of,
    rotation_prime_of,
    verify_charge,
)
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.sampling import (
    sample_bare_bilinear,
    sample_diagonal,
    sample_element,
    sample_exponent_bilinear,
    sample_quadruples,
    sample_states,
    sample_vacuum_bilinear,
)

F = Fraction
W = ModeWindow(-10, 10)


def test_identity_and_simple_exponent():
    assert apply_element(Identity(), vacuum(W, 0)) == vacuum(W, 0)
    b = ModeMatrix({(-1, 0): F(2)})
    g = ExponentBilinear(b)
    v = basis_vector(W, 1, Partition([1]))
    got = apply_element(g, v)
    manual = v + apply_word([letter("psi*", -1), letter("psi", 0)], v).scale(F(2))
    assert got == manual


def test_exponent_requires_nilpotent():
    with pytest.raises(ValueError):
        ExponentBilinear(ModeMatrix({(0, 0): F(1)}))


def test_degenerate_ordered_exponent_example():
    # vacuum-ordered exp of (star_1 psi_1 - star_-1 psi_-1) equals the
    # explicit degenerate word star_1 psi_1 psi_-1 star_-1
    g = NormalOrderedBilinear(
        ModeMatrix({(1, 1): F(1), (-1, -1): F(-1)}), ordering=0
    )
    word = [letter("psi*", 1), letter("psi", 1), letter("psi", -1), letter("psi*", -1)]
    for lam in enumerate_partitions(3):
        for n in (-1, 0, 1, 2):
            v = basis_vector(W, n, lam)
            assert apply_element(g, v) == apply_word(word, v), (lam, n)
    assert apply_element(g, vacuum(W, 0)) == vacuum(W, 0)
    # neither rotation side exists for this element
    r, why = rotation_of(g)
    assert r is None and why
    rp, why2 = rotation_prime_of(g)
    assert rp is None and why2


def _check_rotation(g, rng, count=6):
    corr, why = rotation_of(g)
    assert corr is not None, why
    for n, lam in sample_states(rng, count, weight=2):
        v = basis_vector(W, n, lam)
        lhs = apply_element(g, apply_psi_star(n + lam.part(1) - 1, v))
        k = n + lam.part(1) - 1
        rhs = apply_psi_star(k, apply_element(g, v))
        for (l, kk), c in corr.entries.items():
            if kk == k:
                rhs = rhs + apply_psi_star(l, apply_element(g, v)).scale(c)
        assert lhs == rhs


def test_rotation_matrices():
    rng = random.Random(31)
    assert rotation_of(ExponentBilinear(ModeMatrix({})))[0] == ModeMatrix({})
    for _ in range(4):
        _check_rotation(sample_exponent_bilinear(rng), rng)
        _check_rotation(sample_bare_bilinear(rng), rng)
        _check_rotation(sample_diagonal(rng), rng)
        _check_rotation(sample_vacuum_bilinear(rng), rng)
    # scalar diagonal: the starred operator at the marked mode picks 1/m
    g = Diagonal(((2, F(7, 2)),), ordered=False)
    corr, _ = rotation_of(g)
    assert corr == ModeMatrix({(2, 2): F(2, 7) - 1})


def test_exponent_to_bare():
    rng = random.Random(37)
    assert exponent_to_bare(ModeMatrix({})).mat == ModeMatrix({})
    b = ModeMatrix({(-1, 0): F(1, 2), (0, 1): F(3), (-1, 1): F(-1)})
    bare = exponent_to_bare(b)
    # B = b + b^2/2 for this two-step nilpotent
    b2_entry = F(1, 2) * F(3) * F(1, 2)
    want = ModeMatrix(
        {(-1, 0): F(1, 2), (0, 1): F(3), (-1, 1): F(-1) + b2_entry}
    )
    assert bare.mat == want
    for _ in range(5):
        g = sample_exponent_bilinear(rng)
        h = exponent_to_bare(g.b)
        for n, lam in sample_states(rng, 4, weight=2):
            v = basis_vector(W, n, lam)
            assert apply_element(g, v) == apply_element(h, v)


def test_reorder_trivial_cases():
    scalar, out = reorder(NormalOrderedBilinear(ModeMatrix({}), None), 0)
    assert scalar == 1 and out.mat == ModeMatrix({})
    # support entirely below the ordering vacuum: projector annihilates
    neg = ModeMatrix({(-3, -2): F(2), (-2, -4): F(1, 3)})
    scalar, out = reorder(NormalOrderedBilinear(neg, None), 0)
    assert scalar == 1 and out.mat == neg and out.ordering == 0


def test_reorder_action_and_round_trip():
    rng = random.Random(41)
    for _ in range(8):
        g = sample_bare_bilinear(rng)
        try:
            scalar, vac = reorder(g, 0)
        except ZeroDivisionError:
            continue
        for n, lam in sample_states(rng, 5, weight=2):
            v = basis_vector(W, n, lam)
            assert apply_element(g, v) == apply_element(vac, v).scale(scalar)
        scalar2, back = reorder(vac, None)
        assert scalar * scalar2 == 1
        assert back.mat == g.mat and back.ordering is None


def test_reorder_nonzero_vacuum():
    rng = random.Random(43)
    for n0 in (-1, 2):
        g = sample_bare_bilinear(rng)
        try:
            scalar, vac = reorder(g, n0)
        except ZeroDivisionError:
            continue
        for n, lam in sample_states(rng, 4, weight=2):
            v = basis_vector(W, n, lam)
            assert apply_element(g, v) == apply_element(vac, v).scale(scalar)


def test_reorder_between_two_vacua():
    # vacuum n1 -> vacuum n2 goes through the bare ordering; the scalars
    # of both legs multiply
    rng = random.Random(44)
    checked = 0
    for n1, n2 in ((0, 1), (1, -1), (-1, 0), (2, 0)):
        g = sample_vacuum_bilinear(rng, n1)
        try:
            scalar, out = reorder(g, n2)
        except ZeroDivisionError:
            continue
        assert out.ordering == n2
        for n, lam in sample_states(rng, 4, weight=2):
            v = basis_vector(W, n, lam)
            assert apply_element(g, v) == apply_element(out, v).scale(scalar)
        checked += 1
    assert checked >= 3


def test_rotation_prime_on_vacuum_ordered_samples():
    # g psi_k = sum_l (delta_kl + R'[k,l]) psi_l g on basis states
    rng = random.Random(59)
    for n0 in (-1, 0, 1):
        done = 0
        while done < 3:
            g = sample_vacuum_bilinear(rng, n0)
            corr, why = rotation_prime_of(g)
            if corr is None:
                assert why
                continue
            for n, lam in sample_states(rng, 4, weight=2):
                v = basis_vector(W, n, lam)
                gv = apply_element(g, v)
                for k in range(-4, 5):
                    rhs = apply_mode("psi", k, gv)
                    for (kk, l), c in corr.entries.items():
                        if kk == k:
                            rhs = rhs + apply_mode("psi", l, gv).scale(c)
                    assert apply_element(g, apply_mode("psi", k, v)) == rhs, (n0, k)
            done += 1
    assert rotation_prime_of(NormalOrderedBilinear(ModeMatrix({}), None))[0] is None


def test_compose_bare_ordered():
    rng = random.Random(47)
    zero = NormalOrderedBilinear(ModeMatrix({}), None)
    g = sample_bare_bilinear(rng)
    assert compose_bare_ordered(zero, g).mat == g.mat
    for _ in range(5):
        gp, g = sample_bare_bilinear(rng, 3), sample_bare_bilinear(rng, 3)
        combined = compose_bare_ordered(gp, g)
        for n, lam in sample_states(rng, 4, weight=2):
            v = basis_vector(W, n, lam)
            assert apply_element(combined, v) == apply_element(
                gp, apply_element(g, v)
            )


def test_bbc_all_variants_and_semigroup():
    rng = random.Random(53)
    quads = sample_quadruples(rng, 6)
    assert bbc_check(Identity(), W, quads) is None
    assert bbc_check(LinearWord((letter("psi", 1),)), W, quads) is None
    assert bbc_check(LinearWord((letter("psi*", -2),)), W, quads) is None
    for _ in range(4):
        assert bbc_check(sample_element(rng), W, sample_quadruples(rng, 4)) is None
    # semigroup: products of solutions solve it again
    g1, g2 = sample_exponent_bilinear(rng), sample_diagonal(rng)
    assert bbc_check(Product((g1, g2)), W, sample_quadruples(rng, 4)) is None


def test_bbc_negative_control():
    # 1 + two bilinears (no exponential closure) is not group-like: the
    # missing quadratic term shows up on a charge-matched quadruple
    def fake_apply(_, v):
        return (
            v
            + apply_word([letter("psi*", 1), letter("psi", 0)], v)
            + apply_word([letter("psi*", -1), letter("psi", 2)], v)
        )

    witness = (
        (1, Partition([2])),
        (-1, Partition([2])),
        (0, Partition([])),
        (0, Partition([2, 1])),
    )
    rng = random.Random(59)
    quads = sample_quadruples(rng, 4) + [witness]
    assert bbc_check(object(), W, quads, apply_fn=fake_apply) == witness


def test_charges():
    rng = random.Random(61)
    assert charge_of(sample_exponent_bilinear(rng)) == 0
    assert charge_of(LinearWord((letter("psi", 2),))) == 1
    w = LinearWord(
        (letter("psi", 1), letter("psi", -1), letter("psi", 0), letter("psi*", 2))
    )
    assert charge_of(w) == 2  # three creations, one annihilation
    for _ in range(6):
        g = sample_element(rng)
        q = verify_charge(g, W, sample_states(rng, 5, weight=2))
        assert q == charge_of(g)


def test_matrix_element_helper():
    g = Diagonal(((0, F(3)),), ordered=False)
    got = matrix_element(vacuum(W, 1, dual=True), g, vacuum(W, 1))
    assert got == 3  # mode 0 occupied at charge 1


def test_reconstruct_exponential():
    rng = random.Random(67)
    central, g = reconstruct_exponential(Identity(), 0, W, 3, 3)
    assert central == 1 and g.mat == ModeMatrix({})
    diag = sample_diagonal(rng)
    central, rebuilt = reconstruct_exponential(diag, 0, W, 4, 4)
    want = apply_element(diag, vacuum(W, 0))
    got = apply_element(rebuilt, vacuum(W, 0)).scale(central)
    assert got == want
    for _ in range(4):
        g = sample_exponent_bilinear(rng)
        want = apply_element(g, vacuum(W, 0))
        central = want.component(0, Partition([]))
        if central == 0:
            continue
        c2, rebuilt = reconstruct_exponential(g, 0, W, 5, 5)
        assert c2 == central
        got = apply_element(rebuilt, vacuum(W, 0)).scale(central)
        for lam in enumerate_partitions(5):
            assert got.component(0, lam) == want.component(0, lam), lam
    with pytest.raises(ZeroDivisionError):
        reconstruct_exponential(LinearWord((letter("psi", 0),)), 0, W, 2, 2)


def test_projector_element_dispatch():
    g = ProjectorElement("plus", -2)
    v = basis_vector(W, 0, Partition([2, 1]))
    assert apply_element(g, v) == v
    assert apply_element(ProjectorElement("plus", 1), v).is_zero
