import random
from fractions import Fraction
from math import factorial

from tauforge import schur
from tauforge.fock import ModeWindow, vacuum, window_for
from tauforge.grouplike import Diagonal, apply_element, bbc_check
from tauforge.hirota import kp_residue_check
from tauforge.models import (
    DiagonalModel,
    SolitonData,
    affine_log_ratio,
    cut_and_join_element,
    cut_and_join_tau_operator,
    cut_and_join_tau_sum,
    diagonal_model_tau_closed,
    diagonal_model_tau_fock,
    field_word,
    gaussian_coefficient_ratio,
    gaussian_moment,
    hamiltonian_families,
    hamiltonian_tau_eigen,
    hamiltonian_tau_soliton,
    hciz_coefficient_ratio,
    hermitian_fermionic_tau,
    hermitian_moment_tau,
    hermitian_two_family_tau,
    log_squared_coefficient_ratio,
    moment_coupled_element,
    quasipoly_tau,
    quasipoly_tau_stepped,
    single_derivative_closed_form,
    soliton_element,
    soliton_fermionic_det,
    soliton_gauge_couplings,
    soliton_gauge_factor,
    soliton_tau,
    soliton_tau_two_family,
    unitary_model_tau,
)
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.polyring import paired_family, standard_double_family, standard_single_family
from tauforge.sampling import sample_bare_bilinear, sample_quadruples, sample_states
from tauforge.tau import expand_2dtl, pluecker_coefficient

F = Fraction


def small_soliton(n_points, rng=None, diagonal=True):
    rng = rng or random.Random(0)
    pool = [F(1, 3), F(1, 5), F(2, 7), F(1, 2), F(3, 5), F(5, 7)]
    ps = pool[:n_points]
    qs = pool[3 : 3 + n_points]
    if diagonal:
        amps = [F(rng.randint(1, 5), rng.randint(1, 3)) for _ in range(n_points)]
        return SolitonData.diagonal(ps, qs, amps)
    rows = tuple(
        tuple(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(n_points))
        for _ in range(n_points)
    )
    return SolitonData(tuple(ps), tuple(qs), rows)


def test_soliton_zero_coupling_is_one():
    data = SolitonData.diagonal([F(1, 3)], [F(1, 2)], [0])
    fam = standard_single_family(4)
    assert soliton_tau(data, 0, fam, 4, "determinant").poly == fam.one()
    assert soliton_tau(data, 0, fam, 4, "schur_sum").poly == fam.one()


def test_one_soliton_closed_form():
    fam = standard_single_family(5)
    p, q, a = F(1, 3), F(1, 2), F(2)
    data = SolitonData.diagonal([p], [q], [a])
    for n in (-1, 0, 2):
        tau = soliton_tau(data, n, fam, 5, "determinant").poly
        eta = (fam.xi_value(p) - fam.xi_value(q)).series_exp()
        want = fam.one() + eta * (a * q / (q - p) * (p / q) ** n)
        assert tau == want


def test_two_soliton_interaction_coefficient():
    fam = standard_single_family(4)
    data = small_soliton(2)
    (p1, p2), (q1, q2) = data.ps, data.qs
    a1, a2 = data.couplings[0][0], data.couplings[1][1]
    n = 0
    tau = soliton_tau(data, n, fam, 4, "determinant").poly

    def eta(p, q, amp):
        return (fam.xi_value(p) - fam.xi_value(q)).series_exp() * (
            amp * q / (q - p)
        )

    c12 = ((p1 - p2) * (q1 - q2)) / ((p1 - q2) * (q1 - p2))
    want = (
        fam.one()
        + eta(p1, q1, a1)
        + eta(p2, q2, a2)
        + eta(p1, q1, a1) * eta(p2, q2, a2) * c12
    )
    assert tau == want


def test_soliton_three_forms_agree():
    rng = random.Random(5)
    fam = standard_single_family(4)
    for size in (1, 2, 3):
        for diagonal in (True, False):
            data = small_soliton(size, rng, diagonal)
            for n in (-1, 0, 1):
                det_form = soliton_tau(data, n, fam, 4, "determinant").poly
                explicit = soliton_tau(data, n, fam, 4, "explicit").poly
                schur = soliton_tau(data, n, fam, 4, "schur_sum").poly
                assert det_form == explicit, (size, diagonal, n)
                assert det_form == schur, (size, diagonal, n)


def test_soliton_element_is_group_like():
    rng = random.Random(7)
    data = small_soliton(2, rng)
    w = ModeWindow(-8, 8)
    # window-truncated soliton application: BBC holds modulo window tails,
    # so check on the exact kernel side instead through tau identities
    from tauforge.tau import giambelli_coeff_check

    g = soliton_element(data)
    assert giambelli_coeff_check(g, 0, Partition([2, 2])) is True
    assert giambelli_coeff_check(g, 0, Partition([2, 1])) is True


def test_soliton_fermionic_det_matches_diagonal_form_exactly():
    fam = standard_single_family(5)
    rng = random.Random(9)
    for size in (1, 2, 3):
        pool = [F(1, 3), F(2, 5), F(3, 7), F(1, 2), F(4, 7), F(5, 6)]
        ps, qs = pool[:size], pool[3 : 3 + size]
        bs = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(size)]
        for n in (0, 1):
            fermi = soliton_fermionic_det(ps, qs, bs, n, fam)
            amps = soliton_gauge_couplings(ps, qs, bs)
            data = SolitonData.diagonal(ps, qs, amps)
            tau = soliton_tau(data, n, fam, 5, "determinant").poly
            gauge = soliton_gauge_factor(qs, n, size, fam)
            assert fermi == gauge * tau, (size, n)
            log_ratio = affine_log_ratio(fermi, tau)
            assert log_ratio is not None
            # the measured factor is exactly the sum of hole-point series
            want = fam.zero()
            for q in qs:
                want = want + fam.xi_value(q)
            assert log_ratio == want


def test_soliton_fermionic_zero_couplings_pure_gauge():
    fam = standard_single_family(4)
    ps, qs = [F(1, 3), F(2, 5)], [F(1, 2), F(3, 5)]
    fermi = soliton_fermionic_det(ps, qs, [F(0), F(0)], 0, fam)
    assert affine_log_ratio(fermi, fam.one()) is not None


def test_quasipoly_routes_and_closed_form():
    fam = standard_single_family(5)
    p = F(1, 3)
    word = field_word([("psi", p, [0, 1])])  # a pure derivative letter
    for n in (0, 1, 2):
        tau = quasipoly_tau(word, n, fam)
        assert tau == single_derivative_closed_form(p, n, fam)
        assert tau == quasipoly_tau_stepped(word, n, fam)


def test_quasipoly_two_letter_routes():
    fam = standard_single_family(4)
    word = field_word(
        [("psi", F(1, 3), [1, 1]), ("psi", F(2, 5), [0, 0, 1])]
    )
    for n in (0, 1):
        assert quasipoly_tau(word, n, fam) == quasipoly_tau_stepped(word, n, fam)


def test_quasipoly_support_rectangle_exclusion():
    # particle-only words: coefficients vanish beyond the row bound
    word = field_word([("psi", F(1, 3), [1, 2]), ("psi", F(2, 5), [1])])
    for lam in enumerate_partitions(4):
        c = pluecker_coefficient(word, lam, 0)
        if lam.length > 2:
            assert c == 0, lam
    # a particle-hole pair word: support excludes shapes containing the
    # 2 x 2 square (hook shapes only)
    word2 = field_word([("psi", F(1, 3), [1]), ("psi*", F(1, 2), [1])])
    saw_nonzero = False
    for lam in enumerate_partitions(4):
        c = pluecker_coefficient(word2, lam, 0)
        if lam.contains(Partition([2, 2])):
            assert c == 0, lam
        elif lam.weight:
            saw_nonzero = saw_nonzero or c != 0
    assert saw_nonzero


def test_unitary_model_routes_and_degenerate_cases():
    plus, minus = standard_double_family(6, 6)
    assert unitary_model_tau(-1, plus, minus, 6) == plus.zero()
    assert unitary_model_tau(0, plus, minus, 6) == plus.one()
    for count in (1, 2, 3):
        toeplitz = unitary_model_tau(count, plus, minus, 6, "toeplitz")
        cauchy = unitary_model_tau(count, plus, minus, 6, "cauchy")
        assert toeplitz == cauchy, count


def test_unitary_default_route_equals_toeplitz():
    for depth in range(9):
        plus, minus = standard_double_family(depth, depth)
        for count in range(5):
            toeplitz = unitary_model_tau(count, plus, minus, depth, "toeplitz")
            assert unitary_model_tau(count, plus, minus, depth) == toeplitz, (count, depth)


def test_unitary_one_row_structure():
    plus, minus = standard_double_family(5, 5)
    got = unitary_model_tau(1, plus, minus, 5)
    want = plus.zero()
    for a in range(0, 6):
        want = want + plus.h(a) * minus.h(a, sign=-1)
    assert got == want


def test_diagonal_models_two_routes():
    plus, minus = standard_double_family(4, 4)
    models = [
        DiagonalModel.gaussian(F(3, 2)),
        DiagonalModel.hciz(F(2, 3)),
        DiagonalModel.log_squared(F(1, 2), F(3)),
        # g_k = 0 for every k >= 1: the closed route used to divide by
        # these multipliers and raised ZeroDivisionError from count 2
        DiagonalModel.hciz(F(0)),
        DiagonalModel.log_squared(F(0), F(1)),
        DiagonalModel.log_squared(F(1), F(0)),
    ]
    for model in models:
        for count in (0, 1, 2, 3):
            fock_route = diagonal_model_tau_fock(model, count, plus, minus, 4)
            closed = diagonal_model_tau_closed(model, count, plus, minus, 4)
            assert fock_route == closed, (model.name, count)


def test_operator_routes_read_no_schur_memo():
    """The operator routes raise and lower through the current tree, so
    they check the Schur-sum routes only if they read no memoized Schur
    function: the memo stays empty."""
    plus, minus = standard_double_family(4, 4)
    schur._schur_cache.clear()
    diagonal_model_tau_fock(DiagonalModel.gaussian(F(3, 2)), 2, plus, minus, 4)
    cut_and_join_tau_operator(F(3, 2), F(2, 3), plus, minus, 4)
    hermitian_fermionic_tau(2, standard_single_family(6), 6)
    assert schur._schur_cache == {}


def test_diagonal_model_coefficient_ratios():
    c = F(3, 2)
    model = DiagonalModel.gaussian(c)
    for count in (1, 2, 3):
        pref = Fraction(1)
        for k in range(count):
            pref *= model.g(k)
        for lam in enumerate_partitions(4, max_rows=count):
            ratio = Fraction(1)
            for i in range(1, lam.length + 1):
                ratio *= model.g(count + lam.part(i) - i) / model.g(count - i)
            assert ratio == gaussian_coefficient_ratio(count, lam, c), (count, lam)
    hc = DiagonalModel.hciz(F(2, 3))
    for count in (1, 2, 3):
        for lam in enumerate_partitions(4, max_rows=count):
            ratio = Fraction(1)
            for i in range(1, lam.length + 1):
                ratio *= hc.g(count + lam.part(i) - i) / hc.g(count - i)
            assert ratio == hciz_coefficient_ratio(count, lam, F(2, 3))
    ls = DiagonalModel.log_squared(F(1, 2), F(3))
    for count in (1, 2):
        for lam in enumerate_partitions(4, max_rows=count):
            ratio = Fraction(1)
            for i in range(1, lam.length + 1):
                ratio *= ls.g(count + lam.part(i) - i) / ls.g(count - i)
            assert ratio == log_squared_coefficient_ratio(count, lam, F(1, 2), F(3))


def test_diagonal_model_row_bound():
    plus, minus = standard_double_family(3, 3)
    model = DiagonalModel.gaussian(F(2))
    g_fock = diagonal_model_tau_fock(model, 1, plus, minus, 3)
    # no shape with more than one row contributes at count = 1
    closed = diagonal_model_tau_closed(model, 1, plus, minus, 3)
    assert g_fock == closed
    two_rows = plus.h(1) * minus.h(1, sign=-1)  # contains s_(1)s_(1) content
    # spot check: the (1,1) double coefficient must be absent; reconstruct
    # by orthogonality against s_(1,1)(t+) s_(1,1)(-t-)
    lam = Partition([1, 1])
    from tauforge.schur import _schur_neg, schur_jt

    probe = schur_jt(plus, lam) * _schur_neg(minus, lam)
    # linear independence: subtracting all admissible shapes leaves no
    # (1,1) x (1,1) component; verified by the route equality above
    assert g_fock == closed


def test_gaussian_moments():
    assert [gaussian_moment(m) for m in range(8)] == [1, 0, 1, 0, 3, 0, 15, 0]


def test_hermitian_routes_agree():
    fam = standard_single_family(6)
    for count in (0, 1, 2, 3):
        moments = hermitian_moment_tau(count, fam, 6)
        fermionic = hermitian_fermionic_tau(count, fam, 6)
        staircase = 1
        for k in range(1, count + 1):
            staircase *= factorial(k - 1)
        assert moments == fermionic * staircase, count


def test_hermitian_two_family_depends_on_differences():
    plus, minus = standard_double_family(4, 4)
    fam = standard_single_family(4)
    for count in (1, 2):
        tau = hermitian_two_family_tau(count, plus, minus, 4)
        for k in range(1, 5):
            dsum = tau.derivative(f"t{k}") + tau.derivative(f"s{k}")
            # both derivative sources exist only below cutoff - k
            windowed = dsum.truncate({"tp": 4 - k, "tm": 4 - k})
            assert windowed.is_zero, (count, k)
        # the second-family zero slice reproduces the moment determinant
        slice_zero = tau.substitute({f"s{k}": F(0) for k in range(1, 5)})
        single = hermitian_moment_tau(count, fam, 4).embed(plus.table, plus.cutoffs)
        assert slice_zero == single


def test_cut_and_join_routes_and_trivial_point():
    plus, minus = standard_double_family(4, 4)
    for e, q in ((F(1), F(1)), (F(3, 2), F(2, 3))):
        sum_route = cut_and_join_tau_sum(e, q, plus, minus, 4)
        op_route = cut_and_join_tau_operator(e, q, plus, minus, 4)
        assert sum_route == op_route, (e, q)
    trivial = cut_and_join_tau_sum(F(1), F(1), plus, minus, 4)
    quad = plus.zero()
    for k in range(1, 5):
        quad = quad + plus.time(k) * minus.time(k) * (-k)
    assert trivial == quad.series_exp()


def test_cut_and_join_single_box_eigenvalue():
    # the staircase content sum vanishes on the single box
    lam = Partition([1])
    c_sum = sum(lam.part(i) * (lam.part(i) + 1 - 2 * i) for i in range(1, 2))
    assert c_sum == 0
    # eigenvalue consistency against the diagonal-flow application
    from tauforge.fock import basis_vector

    w = ModeWindow(-8, 8)
    g = cut_and_join_element(F(5), F(7))
    for shape in enumerate_partitions(3):
        v = basis_vector(w, 0, shape)
        got = apply_element(g, v)
        c2 = sum(
            shape.part(i) * (shape.part(i) + 1 - 2 * i)
            for i in range(1, shape.length + 1)
        )
        want = v.scale(F(5) ** c2 * F(7) ** shape.weight)
        assert got == want, shape


def test_hamiltonian_two_routes_and_kp():
    rng = random.Random(11)
    from tauforge.sampling import sample_exponent_bilinear

    g = sample_exponent_bilinear(rng)
    times, shift = hamiltonian_families(3, 3)
    a = F(2, 3)
    eigen = hamiltonian_tau_eigen(g, a, times, 3)
    soliton_form = hamiltonian_tau_soliton(g, a, times, 3)
    assert eigen == soliton_form
    report = kp_residue_check(eigen, times, shift)
    assert report.ok and report.verified_weight == 2


def test_hamiltonian_routes_agree_on_a_nontrivial_element():
    # three couplings and time depth 5, so the residue check reaches weight
    # 4, where the first Pluecker relation lives
    from tauforge.sampling import sample_exponent_bilinear

    g = sample_exponent_bilinear(random.Random(5))
    assert len(g.b.entries) == 3
    times, shift = hamiltonian_families(5, 3)
    eigen = hamiltonian_tau_eigen(g, F(2, 3), times, 3)
    assert eigen != times.one()
    assert hamiltonian_tau_soliton(g, F(2, 3), times, 3) == eigen
    report = kp_residue_check(eigen, times, shift)
    assert report.ok and report.verified_weight == 4
    broken = kp_residue_check(eigen + times.time(1) ** 4 * F(1, 7), times, shift)
    assert not broken.ok and broken.verified_weight == 4


def test_hamiltonian_routes_agree_at_the_spectral_cutoff():
    # this element's coupling minors reach spectral weight 3 = w_depth, so
    # the soliton route's weight filter must keep the boundary terms
    from tauforge.sampling import sample_exponent_bilinear

    g = sample_exponent_bilinear(random.Random(5))
    times, _ = hamiltonian_families(3, 3)
    soliton_form = hamiltonian_tau_soliton(g, F(2, 3), times, 3)
    assert soliton_form == hamiltonian_tau_eigen(g, F(2, 3), times, 3)
    assert soliton_form.max_weight("w") == 3


def test_staircase_flow_is_a_product_of_point_exponentials():
    # exp(sum_k m_k t_k) with m_k = sum over the Frobenius pairs of
    # a^k - (-b-1)^k, against exp(xi(t, a)) exp(-xi(t, -b-1)) per pair
    from tauforge.models import _staircase_exponent_factor

    times, _ = hamiltonian_families(4, 2)
    for lam in enumerate_partitions(4):
        want = times.one()
        for a, b in zip(*lam.frobenius()):
            want = want * times.xi_value(a).series_exp()
            want = want * (times.xi_value(-b - 1) * -1).series_exp()
        assert _staircase_exponent_factor(times, lam) == want, lam


def test_hamiltonian_trivial_element():
    times, _ = hamiltonian_families(3, 3)
    from tauforge.grouplike import Identity

    assert hamiltonian_tau_eigen(Identity(), F(1, 2), times, 3) == times.one()


def test_moment_coupled_element_diagonal_case():
    # diagonal moments act as occupied-mode multipliers over the support
    moments = {(0, 0): F(3), (1, 1): F(5, 2), (2, 2): F(1)}
    g = moment_coupled_element(moments)
    w = ModeWindow(-6, 6)
    direct = Diagonal(((0, F(3)), (1, F(5, 2))), ordered=False)
    rng = random.Random(13)
    for n, lam in sample_states(rng, 8, charges=(-1, 0, 1, 2), weight=3):
        from tauforge.fock import basis_vector

        v = basis_vector(w, n, lam)
        assert apply_element(g, v) == apply_element(direct, v), (n, lam)
    assert bbc_check(g, w, sample_quadruples(rng, 4)) is None


def test_soliton_two_family_slice_and_toda():
    from tauforge.hirota import toda_equation_check
    from tauforge.models import soliton_tau_two_family

    data = SolitonData.diagonal([F(1, 3), F(2, 5)], [F(1, 2), F(3, 5)], [F(2), F(1, 3)])
    plus, minus = standard_double_family(4, 4)
    fam = standard_single_family(4)
    taus = {n: soliton_tau_two_family(data, n, plus, minus) for n in (-1, 0, 1)}
    slice0 = taus[0].substitute({f"s{k}": F(0) for k in range(1, 5)})
    one_fam = soliton_tau(data, 0, fam, 4, "determinant").poly.embed(
        plus.table, plus.cutoffs
    )
    assert slice0 == one_fam
    assert toda_equation_check(taus[-1], taus[0], taus[1], plus, minus).ok


def test_charged_word_shift_prescription():
    # for an N-letter particle word, the one-point-shifted series is a
    # degree-N polynomial in the shift unit whose signed top coefficient
    # is the tau at the next charge
    from tauforge.polyring import Poly

    p1, p2 = F(1, 3), F(2, 5)
    for letters, size in (
        ([("psi", p1, [1])], 1),
        ([("psi", p1, [1, 1]), ("psi", p2, [1])], 2),
    ):
        word = field_word(letters)
        fam = standard_single_family(4, extra_unit=["y"])
        for n in (0, 1):
            tau_n = quasipoly_tau(word, n, fam)
            shifted = fam.miwa_shift(tau_n, -1, "y")
            # no power of y beyond the letter count survives
            for key, _ in shifted.terms.items():
                ydeg = dict(key).get(fam.table.index["y"], 0)
                assert ydeg <= size
            top = shifted.derivative("y", size).substitute({"y": F(0)}) * F(
                (-1) ** size, 1
            ) * F(1, __import__("math").factorial(size))
            tau_up = quasipoly_tau(word, n + 1, fam).truncate({"t": 4 - size})
            assert top.truncate({"t": 4 - size}) == tau_up, (letters, n)


def test_restricted_series_stays_kp():
    from tauforge.hirota import kp_equation_check, kp_residue_check
    from tauforge.tau import restricted_series

    fam, shift = paired_family(5)
    rng = random.Random(41)
    g = sample_bare_bilinear(rng)
    w = window_for([0], 7)
    for rows in (1, 2):
        tau = restricted_series(g, rows, 0, fam, 5, w).poly
        assert kp_residue_check(tau, fam, shift).ok, rows
        assert kp_equation_check(tau, fam).ok, rows


def test_soliton_two_family_matches_coefficient_expansion():
    # the closed two-family determinant equals the first-principles double
    # Schur expansion computed through the exact kernels
    data = SolitonData.diagonal([F(1, 3)], [F(1, 2)], [F(2)])
    plus, minus = standard_double_family(3, 3)
    closed = soliton_tau_two_family(data, 0, plus, minus)
    from tauforge.models import soliton_element
    from tauforge.tau import expand_2dtl

    series = expand_2dtl(soliton_element(data), 0, plus, minus, 3)
    assert series.poly == closed
