"""Acceptance suite: every exit criterion at its stated truncation, exact
(tolerance zero), one printed pass/fail line per criterion."""

import random
from fractions import Fraction
from math import factorial

from tauforge.fock import (
    ModeWindow,
    apply_current_exp,
    apply_diagonal_exp,
    apply_diagonal_multipliers,
    basis_vector,
    vacuum,
)
from tauforge.grouplike import (
    apply_element,
    bbc_check,
    charge_of,
    reorder,
    verify_charge,
)
from tauforge.hirota import (
    kp_equation_check,
    kp_residue_check,
    mkp_equation_check,
    three_term_check_kp,
    three_term_check_toda,
    toda_equation_check,
)
from tauforge.models import (
    DiagonalModel,
    SolitonData,
    affine_log_ratio,
    diagonal_model_tau_closed,
    diagonal_model_tau_fock,
    field_word,
    gaussian_coefficient_ratio,
    hamiltonian_families,
    hamiltonian_tau_eigen,
    hamiltonian_tau_soliton,
    hermitian_fermionic_tau,
    hermitian_moment_tau,
    log_squared_coefficient_ratio,
    quasipoly_tau,
    soliton_fermionic_det,
    soliton_gauge_couplings,
    soliton_tau,
    soliton_tau_two_family,
    unitary_model_tau,
)
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.polyring import (
    paired_family,
    standard_double_family,
    standard_single_family,
)
from tauforge.sampling import (
    sample_bare_bilinear,
    sample_diagonal,
    sample_element,
    sample_exponent_bilinear,
    sample_letter,
    sample_linear_word,
    sample_quadruples,
    sample_soliton,
    sample_states,
    sample_vacuum_bilinear,
)
from tauforge.schur import (
    cauchy_littlewood_check,
    schur_content_eval,
    schur_dual_jt,
    schur_giambelli,
    schur_jt,
    skew_schur,
)
from tauforge.tau import (
    expand_mkp,
    giambelli_coeff_check,
    pluecker_check,
    quantum_jt_check,
    rectangular_three_term_check,
)
from tauforge.wick import correlator_window, wick_column_forms, wick_generalized

F = Fraction


def record(num: int, description: str):
    print(f"ACCEPTANCE {num:02d} PASS: {description}")


def test_criterion_01_schur_route_agreement():
    fam = standard_single_family(10)
    for lam in enumerate_partitions(10):
        a = schur_jt(fam, lam)
        assert schur_dual_jt(fam, lam) == a, lam
        assert schur_giambelli(fam, lam) == a, lam
    record(1, "three Schur routes agree exactly for every shape of weight <= 10")


def test_criterion_02_cauchy_littlewood():
    assert cauchy_littlewood_check(8) == 8
    record(2, "double Schur sum equals the quadratic exponential through biweight 8")


def test_criterion_03_hook_content():
    rng = random.Random(103)
    fam = standard_single_family(8)
    pairs = []
    while len(pairs) < 5:
        u = F(rng.randint(-9, 9), rng.randint(1, 6))
        w = F(rng.randint(1, 9), rng.randint(1, 6))
        pairs.append((u, w))
    for lam in enumerate_partitions(8):
        poly = schur_jt(fam, lam)
        for u, w in pairs:
            assert schur_content_eval(lam, u, w) == poly.evaluate(fam.miwa_times(u, w))
    record(3, "content/hook closed form equals Miwa evaluation, weight <= 8, 5 samples")


def test_criterion_04_coherent_states_and_skew():
    fam = standard_single_family(6)
    # every grown shape fits with room to spare
    window = ModeWindow(-21, 21)
    for n in (-1, 0, 1):
        grown = apply_current_exp("lower", fam, vacuum(window, n), 6)
        for lam in enumerate_partitions(6):
            want = schur_jt(fam, lam) * ((-1) ** lam.sign_exponent())
            assert grown.component(n, lam) == want, (n, lam)
    fam5 = standard_single_family(5)
    for mu in enumerate_partitions(5):
        for n in (-1, 0, 1):
            grown = apply_current_exp(
                "lower", fam5, basis_vector(window, n, mu), 5
            )
            for lam in enumerate_partitions(5):
                if not lam.contains(mu):
                    continue
                sign = (-1) ** (lam.sign_exponent() - mu.sign_exponent())
                assert grown.component(n, lam) == skew_schur(fam5, lam, mu) * sign
    record(4, "coherent and skew expansions match the operator exponential exactly")


def test_criterion_05_generalized_wick_all_variants():
    rng = random.Random(105)
    window = ModeWindow(-12, 12)
    makers = {
        "nilpotent exponent": sample_exponent_bilinear,
        "bare ordered": sample_bare_bilinear,
        "vacuum ordered": sample_vacuum_bilinear,
        "diagonal": sample_diagonal,
        "linear word": lambda r: sample_linear_word(r, net_charge=r.choice((-1, 0, 1))),
    }
    for name, make in makers.items():
        done = 0
        attempts = 0
        while done < 20 and attempts < 80:
            attempts += 1
            g = make(rng)
            q = charge_of(g)
            n = rng.choice((-1, 0, 1))
            m = rng.choice((1, 2, 3))
            vs = [sample_letter(rng, "psi") for _ in range(m)]
            ws = [sample_letter(rng, "psi*") for _ in range(m)]

            def evaluate(v, w):
                items = []
                if v is not None:
                    items.append(("letter", v))
                if w is not None:
                    items.append(("letter", w))
                items.append(g)
                return correlator_window(window, n, items, n - q)

            try:
                predicted = wick_generalized(evaluate, n, vs, ws)
            except ZeroDivisionError:
                continue
            direct = correlator_window(
                window,
                n,
                [("letter", v) for v in vs]
                + [("letter", w) for w in reversed(ws)]
                + [g],
                n - q,
            )
            assert predicted == direct, (name, n, m)
            done += 1
        assert done == 20, (name, done)
    # soliton variant through the exact kernel route
    from tauforge.wick import correlator_exact, kmode

    done = 0
    attempts = 0
    while done < 20 and attempts < 120:
        attempts += 1
        g = sample_soliton(rng, rng.choice((1, 2)))
        n = rng.choice((-1, 0, 1))
        m = rng.choice((1, 2, 3))
        vs = [(kmode("psi", rng.randint(-3, 3)),) for _ in range(m)]
        ws = [(kmode("psi*", rng.randint(-3, 3)),) for _ in range(m)]

        def evaluate(v, w):
            items = []
            if v is not None:
                items.append(v)
            if w is not None:
                items.append(w)
            items.append(g)
            return correlator_exact(n, items, n)

        try:
            predicted = wick_generalized(evaluate, n, vs, ws)
        except ZeroDivisionError:
            continue
        direct = correlator_exact(n, list(vs) + list(reversed(ws)) + [g], n)
        assert predicted == direct, ("soliton", n, m)
        done += 1
    assert done == 20
    # column-form mutual agreement
    for side in ("holes", "particles"):
        done = 0
        while done < 6:
            g = rng.choice((sample_exponent_bilinear, sample_diagonal))(rng)
            n = rng.choice((-1, 0, 1))
            m = rng.choice((1, 2, 3))
            kind = "psi*" if side == "holes" else "psi"
            inserts = [sample_letter(rng, kind) for _ in range(m)]
            try:
                got = wick_column_forms(window, g, n, inserts, side)
            except ZeroDivisionError:
                continue
            assert got["insertion"] == got["direct"] == got["stepped"]
            done += 1
    record(5, "generalized pairing determinant = direct evaluation, all variants, 20 each")


def test_criterion_06_bbc_and_charge():
    rng = random.Random(106)
    window = ModeWindow(-12, 12)
    for _ in range(50):
        g = sample_element(rng)
        bad = bbc_check(g, window, sample_quadruples(rng, 10))
        assert bad is None, (g, bad)
        q = verify_charge(g, window, sample_states(rng, 5, weight=2))
        assert q == charge_of(g)
    record(6, "50 seeded elements pass the exchange identity and have definite charge")


def test_criterion_07_normal_ordering_transform():
    rng = random.Random(107)
    window = ModeWindow(-12, 12)
    done = 0
    while done < 20:
        g = sample_bare_bilinear(rng, size=4)
        n0 = rng.choice((-1, 0, 1))
        try:
            scalar, vac = reorder(g, n0)
        except ZeroDivisionError:
            continue
        for n, lam in sample_states(rng, 10, weight=2):
            v = basis_vector(window, n, lam)
            assert apply_element(g, v) == apply_element(vac, v).scale(scalar)
        back_scalar, back = reorder(vac, None)
        assert scalar * back_scalar == 1 and back.mat == g.mat
        done += 1
    record(7, "20 banded exponents agree across orderings after the determinant scalar")


def _hirota_family_taus(depth):
    """The four named KP families at the stated depth, with charges."""
    fam, shift = paired_family(depth)
    window = ModeWindow(-depth - 6, depth + 6)
    out = {}
    # 3-soliton
    data = SolitonData.diagonal(
        [F(1, 3), F(2, 5), F(3, 7)], [F(1, 2), F(3, 5), F(5, 6)], [F(2), F(1, 3), F(3)]
    )
    out["three_soliton"] = {
        n: soliton_tau(data, n, fam, depth, "determinant").poly for n in (0, 1)
    }
    # quasi-polynomial with two derivative letters
    word = field_word([("psi", F(1, 3), [1, 1]), ("psi", F(2, 5), [0, 1])])
    out["quasi_polynomial"] = {n: quasipoly_tau(word, n, fam) for n in (0, 1)}
    # character
    from tauforge.grouplike import StateProjector

    char = StateProjector(0, Partition([2, 1]), 0, Partition([]))
    out["character"] = {0: expand_mkp(char, 0, fam, depth, window).poly}
    # random bilinear
    g = sample_bare_bilinear(random.Random(108))
    out["random_bilinear"] = {
        n: expand_mkp(g, n, fam, depth, window).poly for n in (0, 1)
    }
    return fam, shift, out


def test_criterion_08_hirota_suite():
    depth = 8
    fam, shift, families = _hirota_family_taus(depth)
    for name, taus in families.items():
        for n, tau in taus.items():
            rep = kp_residue_check(tau, fam, shift)
            assert rep.ok and rep.verified_weight == depth - 1, (name, n, rep)
            rep = kp_equation_check(tau, fam)
            assert rep.ok and rep.verified_weight == depth - 4, (name, n, rep)
        if 0 in taus and 1 in taus:
            rep = mkp_equation_check(taus[1], taus[0], fam)
            assert rep.ok, name
    # lattice bilinear equation on the two-family soliton and the circular
    # ensemble at adjacent sizes
    plus, minus = standard_double_family(4, 4)
    data2 = SolitonData.diagonal([F(1, 3), F(2, 5)], [F(1, 2), F(3, 5)], [F(2), F(1, 3)])
    taus2 = {n: soliton_tau_two_family(data2, n, plus, minus) for n in (-1, 0, 1)}
    assert toda_equation_check(taus2[-1], taus2[0], taus2[1], plus, minus).ok
    for size in (1, 2):
        triple = [unitary_model_tau(size + d, plus, minus, 4) for d in (-1, 0, 1)]
        assert toda_equation_check(triple[0], triple[1], triple[2], plus, minus).ok, size
    # three-shift identities through total weight 6
    fam6 = standard_single_family(6, extra_unit=["y1", "y2", "y3"])
    data_bi2 = SolitonData.diagonal([F(1, 3), F(2, 5)], [F(1, 2), F(3, 5)], [F(2), F(1, 3)])
    tau_bi2 = soliton_tau(data_bi2, 0, fam6, 6, "determinant").poly
    rep = three_term_check_kp({frozenset(): tau_bi2}, fam6, ("y1", "y2", "y3"))
    assert rep.ok and rep.verified_weight == 6
    plus_a, minus_b = standard_double_family(
        3, 3, extra_unit_plus=["alpha"], extra_unit_minus=["b"]
    )
    taus_ab = {
        n: soliton_tau_two_family(data_bi2, n, plus_a, minus_b) for n in (-1, 0, 1)
    }
    rep = three_term_check_toda(
        taus_ab[-1], taus_ab[0], taus_ab[1], plus_a, minus_b, "alpha", "b"
    )
    assert rep.ok
    record(8, "residue, bilinear PDE, lattice and three-shift identities all vanish")


def test_criterion_09_coefficient_identities():
    rng = random.Random(109)
    window = ModeWindow(-14, 14)
    makers = (
        sample_exponent_bilinear,
        sample_bare_bilinear,
        sample_vacuum_bilinear,
        sample_diagonal,
    )
    shapes = [lam for lam in enumerate_partitions(6) if lam.weight >= 1]
    giambelli = qjt = pluecker = rect = 0
    for _ in range(20):
        g = rng.choice(makers)(rng)
        n = rng.choice((-1, 0, 1))
        lam = rng.choice(shapes)
        got = giambelli_coeff_check(g, n, lam, window)
        if got is not None:
            assert got, ("giambelli", g, n, lam)
            giambelli += 1
        for orientation in ("rows", "columns"):
            got = quantum_jt_check(g, n, lam, orientation)
            if got is not None:
                assert got, ("qjt", orientation, g, n, lam)
                qjt += 1
        assert pluecker_check(g, n, (3, 1), (2, 0), 1, 2, window)
        pluecker += 1
        s, a = rng.choice(((1, 1), (2, 1), (1, 2), (2, 2)))
        assert rectangular_three_term_check(g, n, s, a, window)
        rect += 1
    assert giambelli >= 15 and qjt >= 30 and pluecker == 20 and rect == 20
    record(9, "hook, stepped-charge, exchange and rectangle identities hold, 20 elements")


def test_criterion_10_matrix_models():
    plus, minus = standard_double_family(6, 6)
    # (a) circular ensemble
    assert unitary_model_tau(-1, plus, minus, 6).is_zero
    assert unitary_model_tau(0, plus, minus, 6) == plus.one()
    for size in (1, 2, 3):
        assert unitary_model_tau(size, plus, minus, 6, "toeplitz") == unitary_model_tau(
            size, plus, minus, 6, "cauchy"
        )
    # (b) Gaussian normal ensemble coefficient ratios
    plus4, minus4 = standard_double_family(4, 4)
    c = F(5, 3)
    model = DiagonalModel.gaussian(c)
    for size in (1, 2, 3):
        fock_route = diagonal_model_tau_fock(model, size, plus4, minus4, 4)
        closed = diagonal_model_tau_closed(model, size, plus4, minus4, 4)
        assert fock_route == closed
        for lam in enumerate_partitions(4, max_rows=size):
            ratio = Fraction(1)
            for i in range(1, lam.length + 1):
                ratio *= model.g(size + lam.part(i) - i) / model.g(size - i)
            assert ratio == gaussian_coefficient_ratio(size, lam, c), (size, lam)
    # (c) log-squared ensemble
    r, e = F(1, 2), F(3)
    ls = DiagonalModel.log_squared(r, e)
    for size in (1, 2):
        fock_route = diagonal_model_tau_fock(ls, size, plus4, minus4, 4)
        closed = diagonal_model_tau_closed(ls, size, plus4, minus4, 4)
        assert fock_route == closed
        for lam in enumerate_partitions(4, max_rows=size):
            ratio = Fraction(1)
            for i in range(1, lam.length + 1):
                ratio *= ls.g(size + lam.part(i) - i) / ls.g(size - i)
            assert ratio == log_squared_coefficient_ratio(size, lam, r, e)
    # (d) Gaussian Hermitian: moment route vs weight-two flow route
    fam6 = standard_single_family(6)
    for size in (0, 1, 2, 3):
        moments = hermitian_moment_tau(size, fam6, 6)
        fermionic = hermitian_fermionic_tau(size, fam6, 6)
        staircase = 1
        for k in range(1, size + 1):
            staircase *= factorial(k - 1)
        assert moments == fermionic * staircase, size
    record(10, "all four ensemble families: routes and coefficient ratios exact")


def test_criterion_11_soliton_equivalence():
    fam = standard_single_family(6)
    rng = random.Random(111)
    pool = [F(1, 3), F(2, 5), F(3, 7), F(1, 2), F(4, 7), F(5, 6)]
    for size in (1, 2, 3):
        ps, qs = pool[:size], pool[3 : 3 + size]
        bs = [F(rng.randint(1, 4), rng.randint(1, 3)) for _ in range(size)]
        for n in (0, 1):
            fermi = soliton_fermionic_det(ps, qs, bs, n, fam)
            amps = soliton_gauge_couplings(ps, qs, bs)
            tau = soliton_tau(
                SolitonData.diagonal(ps, qs, amps), n, fam, 6, "determinant"
            ).poly
            log_ratio = affine_log_ratio(fermi, tau)
            assert log_ratio is not None, (size, n)
            want = fam.zero()
            for q in qs:
                want = want + fam.xi_value(q)
            assert log_ratio == want
    record(11, "charged-word and exponent soliton forms differ by an affine gauge only")


def test_criterion_12_boson_fermion():
    from tauforge.boson import (
        correspondence_check,
        bra_field_series,
        current_expansion_prediction,
        ket_field_series,
        left_bosonization_series,
        merged_point_bra_series,
        merged_point_prediction,
        normal_ordered_pair_element,
        right_bosonization_series,
    )

    window = ModeWindow(-11, 11)
    fam = standard_single_family(4)
    for n in (-1, 0, 1):
        for lam in enumerate_partitions(4):
            assert correspondence_check(
                basis_vector(window, n, lam), fam, 4, (-3, 3)
            ), (n, lam)
    # left/right vacuum rules
    for kind in ("psi", "psi*"):
        for n in (-1, 0, 1):
            lhs = bra_field_series(n, kind, window, 4)
            rhs = left_bosonization_series(n, kind, window, 4)
            hi = n - 1 if kind == "psi" else -n
            for e in range(hi - 4, hi + 1):
                assert lhs.get(e) == rhs.get(e), ("left", kind, n, e)
            lhs = ket_field_series(n, kind, window, 4)
            rhs = right_bosonization_series(n, kind, window, 4)
            base = n if kind == "psi" else 1 - n
            for e in range(base, base + 5):
                assert lhs.get(e) == rhs.get(e), ("right", kind, n, e)
    # merged points through triple order, with the factorial staircase units
    for m, unit in ((2, 1), (3, 2)):
        for n in (0, 1):
            lhs = merged_point_bra_series(n, m, window, 3)
            got_unit, rhs = merged_point_prediction(n, m, window, 3)
            assert got_unit == unit
            offset = m * (n - m)
            for e in range(offset - 3, offset + 1):
                want = rhs.get(e)
                want = want.scale(unit) if want is not None else None
                assert lhs.get(e) == want, (m, n, e)
    # the coincident-point current expansion through second order
    pairs = [
        (vacuum(window, 0, dual=True), vacuum(window, 0)),
        (
            basis_vector(window, 0, Partition([2]), dual=True),
            basis_vector(window, 0, Partition([1, 1])),
        ),
        (
            basis_vector(window, 1, Partition([1]), dual=True),
            basis_vector(window, 1, Partition([2])),
        ),
    ]
    for bra, ket in pairs:
        lhs = normal_ordered_pair_element(bra, ket, 2, (-4, 4))
        rhs = current_expansion_prediction(bra, ket, 2, (-4, 4))
        keys = {k for k in set(lhs) | set(rhs) if -4 <= k[1] <= 4}
        for key in keys:
            assert lhs.get(key, F(0)) == rhs.get(key, F(0)), key
    record(12, "correspondence, vacuum rules, merged points, current expansion exact")


def test_criterion_13_hamiltonian_evolution():
    # eigenvalue formula vs the direct window product, weight <= 5
    window = ModeWindow(-12, 12)
    rng = random.Random(113)
    for k_flow in (1, 2, 3):
        base = F(3, 2)
        p = [F(0)] * k_flow + [F(1)]  # p(x) = x^k

        def mult(j, p=p):
            acc = F(0)
            for i, coef in enumerate(p):
                acc += coef * j**i
            return base ** int(acc)

        for n in (-2, -1, 0, 1, 2):
            for lam in enumerate_partitions(5):
                v = basis_vector(window, n, lam)
                closed = apply_diagonal_exp(p, base, v)
                direct = apply_diagonal_multipliers(mult, v)
                assert closed == direct, (k_flow, n, lam)
    # double-truncated route agreement plus the residue identity in the
    # auxiliary times, for a random three-mode element
    from tauforge.grouplike import ExponentBilinear, ModeMatrix
    from tauforge.sampling import rational

    rng13 = random.Random(114)
    modes = (-1, 0, 1)
    entries = {}
    for a in range(3):
        for b in range(a + 1, 3):
            entries[(modes[a], modes[b])] = rational(rng13) or F(1, 2)
    g = ExponentBilinear(ModeMatrix(entries))
    assert len(g.b.modes()) == 3
    times, shift = hamiltonian_families(3, 3)
    a = F(3, 5)
    eigen = hamiltonian_tau_eigen(g, a, times, 3)
    soliton_form = hamiltonian_tau_soliton(g, a, times, 3)
    assert eigen == soliton_form
    rep = kp_residue_check(eigen, times, shift)
    assert rep.ok and rep.verified_weight == 2
    record(13, "diagonal-flow eigenvalues and the auxiliary-time tau routes agree")
