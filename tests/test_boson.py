import random
from fractions import Fraction

from tauforge.boson import (
    bosonize,
    bra_field_series,
    correspondence_check,
    current_expansion_prediction,
    current_image_check,
    ket_field_series,
    left_bosonization_series,
    merged_point_bra_series,
    merged_point_prediction,
    normal_ordered_pair_element,
    right_bosonization_series,
    vertex_apply,
)
from tauforge.fock import ModeWindow, apply_current, basis_vector, letter, vacuum
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.polyring import standard_single_family
from tauforge.schur import schur_jt
from tauforge.tau import pluecker_coefficient
from tauforge.wick import correlator_exact, kfield

F = Fraction
W = ModeWindow(-11, 11)


def test_bosonize_basis_states():
    fam = standard_single_family(4)
    assert bosonize(vacuum(W, 0), fam) == {0: fam.one()}
    assert bosonize(vacuum(W, -2), fam) == {-2: fam.one()}
    for lam in enumerate_partitions(4):
        got = bosonize(basis_vector(W, 0, lam), fam)
        want = schur_jt(fam, lam) * ((-1) ** lam.sign_exponent())
        assert got == {0: want}, lam


def test_bosonize_injective_on_sampled_basis():
    fam = standard_single_family(4)
    seen = {}
    for n in (-1, 0, 1):
        for lam in enumerate_partitions(4):
            image = bosonize(basis_vector(W, n, lam), fam)
            key = tuple(sorted((l, tuple(sorted(p.terms.items()))) for l, p in image.items()))
            assert key not in seen, (n, lam, seen[key]) if key in seen else None
            seen[key] = (n, lam)


def test_current_image_rules():
    fam = standard_single_family(5)
    rng = random.Random(3)
    states = [(0, Partition([2, 1])), (1, Partition([1])), (-1, Partition([2]))]
    for n, lam in states:
        v = basis_vector(W, n, lam)
        for k in (1, 2, 3, 0, -1, -2):
            assert current_image_check(k, v, fam), (n, lam, k)
    # the lowering-mode image on the vacuum fixes the multiplication sign
    fam4 = standard_single_family(4)
    image = bosonize(apply_current(-1, vacuum(W, 0)), fam4)
    assert image == {0: fam4.time(1)}


def test_vertex_on_vacuum_image():
    # the raising vertex at charge 0 lands in charge 1 with the
    # exponential-prefactor coefficients
    fam = standard_single_family(4)
    image = {(0, 0): fam.one()}
    out = vertex_apply("psi", image, fam, 4, (-4, 4))
    for e in range(0, 5):
        assert out.get((1, e)) == fam.h(e), e
    assert all(l == 1 for (l, _) in out)


def test_correspondence_all_small_states():
    fam = standard_single_family(4)
    for n in (-1, 0, 1):
        for lam in enumerate_partitions(4):
            v = basis_vector(W, n, lam)
            assert correspondence_check(v, fam, 4, (-3, 3)), (n, lam)


def test_correspondence_on_combination():
    fam = standard_single_family(3)
    v = basis_vector(W, 0, Partition([2])).scale(F(2, 3)) + basis_vector(
        W, 0, Partition([1, 1])
    ).scale(F(-1, 2))
    assert correspondence_check(v, fam, 3, (-3, 3))


def test_left_bosonization_rules():
    for kind in ("psi", "psi*"):
        for n in (-1, 0, 2):
            lhs = bra_field_series(n, kind, W, 4)
            rhs = left_bosonization_series(n, kind, W, 4)
            exps = sorted(set(lhs) | set(rhs))
            lo = (n - 1 if kind == "psi" else -n) - 4
            hi = n - 1 if kind == "psi" else -n
            for e in exps:
                if not (lo <= e <= hi):
                    continue
                assert lhs.get(e) == rhs.get(e), (kind, n, e)
            # the spectral families are genuinely nontrivial
            assert any(lo <= e <= hi for e in lhs)


def test_right_bosonization_rules():
    for kind in ("psi", "psi*"):
        for n in (-1, 0, 2):
            lhs = ket_field_series(n, kind, W, 4)
            rhs = right_bosonization_series(n, kind, W, 4)
            base = n if kind == "psi" else 1 - n
            for e in range(base, base + 5):
                assert lhs.get(e) == rhs.get(e), (kind, n, e)


def test_two_point_rule_against_schur_specialization():
    # <n| field*(zeta) field(z) |shape, n> equals the two-point kernel times
    # the raising expectation at the difference of inverse-point ladders
    z, zeta = F(1, 3), F(1, 2)
    for n in (-1, 0, 1):
        for lam in enumerate_partitions(3):
            alphas, betas = lam.frobenius()
            post = [letter("psi*", n - b - 1) for b in betas]
            post += [letter("psi", n + a) for a in reversed(alphas)]
            lhs = correlator_exact(
                n, [(kfield("psi*", zeta),), (kfield("psi", z),)] + post, n
            )
            kernel = z**n * zeta ** (1 - n) / (zeta - z)
            times = {}
            fam = standard_single_family(max(lam.weight, 1))
            for k in range(1, fam.depth + 1):
                times[f"t{k}"] = (zeta**-k - z**-k) / k
            want = (
                kernel
                * schur_jt(fam, lam).evaluate(times)
                * (-1) ** lam.sign_exponent()
            )
            assert lhs == want, (n, lam)


def test_merged_point_rules():
    for m, unit in ((2, 1), (3, 2)):
        for n in (0, 1, 2):
            lhs = merged_point_bra_series(n, m, W, 3)
            got_unit, rhs = merged_point_prediction(n, m, W, 3)
            assert got_unit == unit
            offset = m * (n - m)
            for e in range(offset - 3, offset + 1):
                want = rhs.get(e)
                want = want.scale(unit) if want is not None else None
                assert lhs.get(e) == want, (m, n, e)


def test_current_expansion_through_second_order():
    rng = random.Random(7)
    pairs = [
        (vacuum(W, 0, dual=True), vacuum(W, 0)),
        (vacuum(W, 1, dual=True), vacuum(W, 1)),
        (
            basis_vector(W, 0, Partition([1]), dual=True),
            basis_vector(W, 0, Partition([1])),
        ),
        (
            basis_vector(W, 0, Partition([2]), dual=True),
            basis_vector(W, 0, Partition([1, 1])),
        ),
        (
            basis_vector(W, -1, Partition([2, 1]), dual=True),
            basis_vector(W, -1, Partition([3])),
        ),
    ]
    for bra, ket in pairs:
        lhs = normal_ordered_pair_element(bra, ket, 2, (-4, 4))
        rhs = current_expansion_prediction(bra, ket, 2, (-4, 4))
        keys = {k for k in set(lhs) | set(rhs) if -4 <= k[1] <= 4}
        for key in sorted(keys):
            assert lhs.get(key, F(0)) == rhs.get(key, F(0)), (key, bra, ket)


def test_current_expansion_zeroth_order_is_current():
    # the eps^0 term is the current generating series: diagonal elements
    # count charge at z^0 wait -- check on the vacuum: <0|J(z)|0> = 0
    lhs = normal_ordered_pair_element(vacuum(W, 0, dual=True), vacuum(W, 0), 0, (-3, 3))
    assert not lhs  # all matrix elements vanish on the vacuum diagonal
    # and on a charged vacuum the z^0 (charge) term appears
    lhs1 = normal_ordered_pair_element(vacuum(W, 2, dual=True), vacuum(W, 2), 0, (-3, 3))
    assert lhs1.get((0, 0)) == 2
