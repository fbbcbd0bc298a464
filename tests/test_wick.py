import random
from fractions import Fraction

import pytest

from tauforge.fock import ModeWindow, apply_word, inner, letter, vacuum, vev
from tauforge.grouplike import (
    FieldWord,
    Identity,
    LinearWord,
    Product,
    apply_element,
    charge_of,
)
from tauforge.polyring import standard_single_family
from tauforge.sampling import (
    sample_bare_bilinear,
    sample_diagonal,
    sample_exponent_bilinear,
    sample_letter,
    sample_linear_word,
    sample_soliton,
    sample_vacuum_bilinear,
)
from tauforge.wick import (
    correlator_exact,
    correlator_window,
    kernel_pair,
    kernel_vev,
    kernel_vev_between,
    kfield,
    letter_pair,
    three_term_column_identity,
    vacuum_kernel,
    wick_column_forms,
    wick_generalized,
    wick_layout,
    wick_standard,
)

F = Fraction
W = ModeWindow(-10, 10)


def test_two_point_kernel_closed_form():
    # <n| psi*(zeta) psi(z) |n> = z^n zeta^(1-n)/(zeta - z)
    for n in (-1, 0, 2):
        z, zeta = F(1, 3), F(1, 2)
        got = kernel_pair(n, (1, "psi*", (zeta, 0)), (1, "psi", (z, 0)))
        assert got == z**n * zeta ** (1 - n) / (zeta - z)
        got2 = kernel_pair(n, (1, "psi", (z, 0)), (1, "psi*", (zeta, 0)))
        assert got2 == z**n * zeta ** (1 - n) / (z - zeta)


def test_two_point_kernel_derivatives():
    # hand-derived at n = 0: F = zeta/(zeta-z); dF/dz = zeta/(zeta-z)^2;
    # d2F/(dzeta dz) = (zeta-z)^-2 - 2 zeta (zeta-z)^-3
    z, zeta = F(1, 3), F(1, 2)
    d = zeta - z
    got = kernel_pair(0, (1, "psi*", (zeta, 0)), (1, "psi", (z, 1)))
    assert got == zeta / d**2
    got = kernel_pair(0, (1, "psi*", (zeta, 1)), (1, "psi", (z, 1)))
    assert got == d**-2 - 2 * zeta * d**-3


def test_field_mode_kernels_match_series():
    # <n| psi_j psi*(zeta) |n> picks zeta^-j for j < n
    for n in (-1, 0, 2):
        for j in range(-4, 4):
            zeta = F(3, 5)
            got = kernel_pair(n, (1, "psi", j), (1, "psi*", (zeta, 0)))
            assert got == (zeta**-j if j < n else 0)
            got = kernel_pair(n, (1, "psi*", (zeta, 0)), (1, "psi", j))
            assert got == (zeta**-j if j >= n else 0)


def test_letter_pair_skips_only_rational_unit_factors():
    # against the product ta * tb * base of every term: the same value and
    # type, on mode and field letters whose coefficients are 1 (int or
    # rational), other rationals, or polynomials (one of them the constant 1)
    fam = standard_single_family(3)
    coeffs = [1, F(1), F(-2, 3), F(5), fam.one(), fam.time(1) + F(1, 2), fam.time(2) * 3]
    modes = [-2, -1, 0, 1, 2]
    specs = {  # distinct points per species: no pole
        "psi": modes + [(F(1, 2), 0), (F(-2, 5), 1)],
        "psi*": modes + [(F(3), 0), (F(2, 7), 1)],
    }
    rng = random.Random(29)
    for _ in range(400):
        n = rng.randint(-1, 1)
        a, b = (
            tuple(
                (rng.choice(coeffs), kind, rng.choice(specs[kind]))
                for _ in range(rng.randint(1, 3))
            )
            for kind in rng.sample(["psi", "psi*"], 2)
        )
        terms = [ta[0] * tb[0] * base for ta in a for tb in b if (base := kernel_pair(n, ta, tb))]
        want = sum(terms[1:], terms[0]) if terms else F(0)
        got = letter_pair(n, a, b)
        assert got == want and type(got) is type(want), (n, a, b)


def test_kernel_vev_matches_window_vev_for_modes():
    rng = random.Random(3)
    for n in (-1, 0, 2):
        for m in (2, 3):
            for _ in range(5):
                letters = []
                for _ in range(2 * m):
                    kind = rng.choice(("psi", "psi*"))
                    letters.append(sample_letter(rng, kind))
                window_value = vev(W, n, letters)
                assert kernel_vev(n, letters) == window_value


def test_one_item_list_runs_through_both_routes():
    # mode letters (near the charge, so that some pair) and linear words,
    # as one list of items, read alike by direct application and by Wick's
    # theorem, the right vacuum at the charge the items carry
    rng = random.Random(31)
    nonzero = 0
    for n in (-1, 0, 1):
        for _ in range(30):
            items = []
            for _ in range(rng.randint(1, 3)):
                if rng.random() < 0.5:
                    items.append(sample_letter(rng, rng.choice(("psi", "psi*")), n - 2, n + 2))
                else:
                    items.append(sample_linear_word(rng, net_charge=rng.randint(-1, 1)))
            q = charge_of(LinearWord(tuple(x for x in items if isinstance(x, tuple))))
            q += sum(charge_of(x) for x in items if not isinstance(x, tuple))
            got = correlator_window(W, n, items, n - q)
            assert got == correlator_exact(n, items, n - q), (n, items)
            nonzero += bool(got)
    assert nonzero >= 20  # of 90: the routes compared nonzero values


def test_kernel_single_pair_vs_window_truncation_exact_tail():
    # psi*(zeta) psi(z) cut to the window's modes, psi(z) = sum_k psi_k z^k
    # and psi*(zeta) = sum_k psi*_k zeta^-k: the window evaluation is the
    # partial geometric sum, so the defect equals the closed-form tail exactly
    n = 0
    z, zeta = F(1, 3), F(1, 2)
    closed = kernel_vev(n, [(kfield("psi*", zeta),), (kfield("psi", z),)])
    ket = vacuum(W, n)
    word = [
        tuple((zeta**-k, "psi*", k) for k in range(W.lo, W.hi)),
        tuple((z**k, "psi", k) for k in range(W.lo, W.hi)),
    ]
    truncated = inner(vacuum(W, n, dual=True), apply_word(word, ket))
    ratio = z / zeta
    tail = ratio**W.hi / (1 - ratio)
    assert closed - truncated == tail


def test_point_fields_have_no_window_action():
    # psi(z) reaches every mode, so no window applies a point field: only
    # Wick's theorem reads it, and the window route refuses it
    sol = sample_soliton(random.Random(5), size=2)
    field = FieldWord((((F(1), "psi", (F(1, 3), 0)),),))
    mixed = Product((sol, LinearWord((letter("psi*", -1),))))
    for g in (field, sol, mixed):
        for v in (vacuum(W, 0), vacuum(W, 1, dual=True)):
            with pytest.raises(TypeError, match="Wick's theorem"):
                apply_element(g, v)
    with pytest.raises(TypeError, match="Wick's theorem"):
        correlator_window(W, 0, [letter("psi", 0), sol], 1)
    with pytest.raises(TypeError, match="Wick's theorem"):
        correlator_window(W, 1, [(kfield("psi", F(1, 3)),)], 0)


def test_multipoint_kernels_and_pads():
    zs = [F(1, 3), F(1, 5), F(2, 7)]
    zetas = [F(1, 2), F(3, 5), F(5, 6)]
    for n in (-1, 0, 2):
        for m in (1, 2, 3):
            word = [(kfield("psi*", z),) for z in zetas[:m]]
            word += [(kfield("psi", z),) for z in reversed(zs[:m])]
            got = kernel_vev(n, word)
            assert got == vacuum_kernel(n, zs[:m], zetas[:m], "stars_first")
            word2 = [(kfield("psi", z),) for z in zs[:m]]
            word2 += [(kfield("psi*", z),) for z in reversed(zetas[:m])]
            assert kernel_vev(n, word2) == vacuum_kernel(n, zs[:m], zetas[:m], "fields_first")
            # charged pads
            charged = kernel_vev_between(
                n + m, [(kfield("psi", z),) for z in zs[:m]], n
            )
            assert charged == vacuum_kernel(n, zs[:m], [], "charged_psi")
            starred = kernel_vev_between(
                n - m, [(kfield("psi*", z),) for z in zetas[:m]], n
            )
            assert starred == vacuum_kernel(n, [], zetas[:m], "charged_star")
    # mixed-charge form
    got = kernel_vev_between(
        1,
        [(kfield("psi*", zetas[0]),)] + [(kfield("psi", z),) for z in zs[:2]],
        0,
    )
    assert got == vacuum_kernel(0, zs[:2], zetas[:1], "mixed_charged")


def test_vacuum_kernel_arrangements_keep_their_point_counts():
    # stars_first and fields_first pair m points with m, charged_psi takes
    # no zetas and charged_star no zs; only mixed_charged takes any counts
    zs, zetas = [F(1, 3), F(1, 5)], [F(1, 2)]
    for arrangement in ("stars_first", "fields_first", "charged_psi", "charged_star", "other"):
        with pytest.raises(ValueError):
            vacuum_kernel(0, zs, zetas, arrangement)
    assert vacuum_kernel(0, zs, zetas, "mixed_charged")


def test_dressed_mode_correlator_gives_generators():
    # <0| psi*_i [raising exp] psi_j |0> = h_{j-i}(t) for i, j >= 0
    fam = standard_single_family(6)
    for i in range(0, 3):
        for j in range(0, 5):
            got = correlator_exact(
                0,
                [letter("psi", j)],
                0,
                family=fam,
                undressed=[letter("psi*", i)],
            )
            assert got == fam.h(j - i)


def test_dressed_field_matches_exponential_factor():
    # <1| [raising exp] psi(z) |0> = z^0 * exp(xi(t, z))
    fam = standard_single_family(5)
    z = F(2, 5)
    got = correlator_exact(1, [(kfield("psi", z),)], 0, family=fam)
    assert got == fam.exp_xi_value(z)
    # derivative letter: d/dz of z^n exp(xi) at the point, for n = 1 charge
    got1 = correlator_exact(2, [(kfield("psi", z, 1),)], 1, family=fam)
    xi1 = fam.zero()
    for k in range(1, 6):
        xi1 = xi1 + fam.time(k) * (k * z ** (k - 1))
    want = fam.exp_xi_value(z) * (1 + z * xi1)  # d/dz [z e^xi]
    assert got1 == want


def test_wick_standard_matches_direct():
    rng = random.Random(7)
    for n in (-1, 0, 2):
        for m in (1, 2, 3, 4):
            for _ in range(5):
                vs = [sample_letter(rng, "psi") for _ in range(m)]
                ws = [sample_letter(rng, "psi*") for _ in range(m)]
                word = vs + list(reversed(ws))
                direct = vev(W, n, word)
                assert wick_standard(n, vs, ws) == direct


def test_wick_standard_antisymmetry():
    rng = random.Random(9)
    n = 0
    vs = [sample_letter(rng, "psi") for _ in range(3)]
    ws = [sample_letter(rng, "psi*") for _ in range(3)]
    base = vev(W, n, vs + list(reversed(ws)))
    swapped = vev(W, n, [vs[1], vs[0], vs[2]] + list(reversed(ws)))
    assert swapped == -base


def _window_evaluator(window, gp, gpp, g, n):
    qtot = charge_of(gp) + charge_of(gpp) + charge_of(g)

    def evaluate(v, w):
        items = [gp]
        if v is not None:
            items.append(v)
        items.append(gpp)
        if w is not None:
            items.append(w)
        items.append(g)
        return correlator_window(window, n, items, n - qtot)

    return evaluate


def test_wick_generalized_window_variants():
    rng = random.Random(11)
    makers = [
        sample_exponent_bilinear,
        sample_bare_bilinear,
        sample_vacuum_bilinear,
        sample_diagonal,
        lambda r: sample_linear_word(r, net_charge=0),
    ]
    for make in makers:
        done = 0
        attempts = 0
        while done < 3 and attempts < 12:
            attempts += 1
            g = make(rng)
            n = rng.choice((-1, 0, 1))
            m = rng.choice((1, 2, 3))
            vs = [sample_letter(rng, "psi") for _ in range(m)]
            ws = [sample_letter(rng, "psi*") for _ in range(m)]
            evaluate = _window_evaluator(W, Identity(), Identity(), g, n)
            try:
                predicted = wick_generalized(evaluate, vs, ws)
            except ZeroDivisionError:
                continue
            items = vs + ws[::-1] + [g]
            direct = correlator_window(W, n, items, n - charge_of(g))
            assert predicted == direct
            done += 1
        assert done >= 1


def test_wick_generalized_with_middle_element_and_charge():
    rng = random.Random(13)
    done = 0
    attempts = 0
    while done < 3 and attempts < 20:
        attempts += 1
        gp = sample_exponent_bilinear(rng)
        gpp = sample_diagonal(rng)
        # a charge-1 word guaranteed to bridge |-1> back to the sea
        g = LinearWord(
            (
                (
                    (F(1), "psi", -1),
                    (F(rng.randint(-3, 3), rng.randint(1, 2)), "psi", rng.randint(0, 3)),
                ),
            )
        )
        qtot = 1
        n = 0
        m = rng.choice((1, 2))
        vs = [sample_letter(rng, "psi") for _ in range(m)]
        ws = [sample_letter(rng, "psi*") for _ in range(m)]

        def evaluate(v, w):
            items = [gp]
            if v is not None:
                items.append(v)
            items.append(gpp)
            if w is not None:
                items.append(w)
            items.append(g)
            return correlator_window(W, n, items, n - qtot)

        try:
            predicted = wick_generalized(evaluate, vs, ws)
        except ZeroDivisionError:
            continue
        items = [gp] + vs + [gpp] + ws[::-1] + [g]
        direct = correlator_window(W, n, items, n - qtot)
        assert predicted == direct
        done += 1
    assert done >= 2


def test_wick_generalized_soliton_kernel_route():
    rng = random.Random(17)
    g = sample_soliton(rng, size=2)
    n = 0
    for m in (1, 2):
        vs = [letter("psi", rng.randint(-3, 3)) for _ in range(m)]
        ws = [letter("psi*", rng.randint(-3, 3)) for _ in range(m)]

        def evaluate(v, w):
            items = []
            if v is not None:
                items.append(v)
            if w is not None:
                items.append(w)
            items.append(g)
            return correlator_exact(n, items, n)

        try:
            predicted = wick_generalized(evaluate, vs, ws)
        except ZeroDivisionError:
            continue
        direct = correlator_exact(n, list(vs) + list(reversed(ws)) + [g], n)
        assert predicted == direct


def test_wick_column_forms_agree():
    rng = random.Random(23)
    for side in ("holes", "particles", "right_particles", "right_holes"):
        done = 0
        while done < 3:
            g = rng.choice(
                (sample_exponent_bilinear, sample_bare_bilinear, sample_diagonal)
            )(rng)
            n = rng.choice((-1, 0, 1))
            m = rng.choice((1, 2, 3))
            kind = "psi*" if side in ("holes", "right_holes") else "psi"
            inserts = [sample_letter(rng, kind) for _ in range(m)]
            try:
                got = wick_column_forms(W, g, n, inserts, side)
            except ZeroDivisionError:
                continue
            assert got["stepped"] == got["direct"], (side, n, m)
            if got["insertion"] is not None:
                assert got["insertion"] == got["direct"]
            done += 1


def test_wick_column_forms_side_table():
    rng = random.Random(24)
    g = sample_exponent_bilinear(rng)
    with pytest.raises(ValueError, match="unknown side"):
        wick_column_forms(W, g, 0, [sample_letter(rng, "psi")], "left")
    # <0| psi_-2 psi_-1 |-2> and <0| psi*_1 psi*_0 |2> are both -1
    for side, kind, modes in (
        ("right_particles", "psi", (-2, -1)),
        ("right_holes", "psi*", (1, 0)),
    ):
        inserts = [letter(kind, j) for j in modes]
        got = wick_column_forms(W, Identity(), 0, inserts, side)
        assert got == {"direct": -1, "insertion": None, "stepped": -1}


def test_three_term_column_identity():
    rng = random.Random(29)
    for _ in range(6):
        g = rng.choice(
            (sample_exponent_bilinear, sample_bare_bilinear, sample_diagonal)
        )(rng)
        n = rng.choice((-1, 0, 1))
        w = sample_letter(rng, "psi*")
        l = rng.randint(-3, 3)
        assert three_term_column_identity(W, g, n, l, w)


def test_coincident_field_points_hit_pole():
    import pytest as _pytest

    z = F(1, 3)
    with _pytest.raises(ZeroDivisionError):
        kernel_vev(0, [(kfield("psi*", z),), (kfield("psi", z),)])


def test_wick_generalized_mixes_scalar_zero_and_poly_entries():
    # an absent state reads as Fraction(0) next to polynomial correlators
    fam = standard_single_family(3)
    t1 = fam.time(1)
    table = [[F(0), t1], [t1, fam.one()]]

    def evaluate(v, w):
        return fam.one() if v is None else table[w][v]

    assert wick_generalized(evaluate, [0, 1], [0, 1]) == -t1 * t1


def test_field_field_kernel_matches_sympy_derivatives():
    # the exact jet against symbolic differentiation of the closed forms
    import sympy

    from tauforge.wick import _field_field_kernel

    z, zeta = sympy.symbols("z zeta")
    points = [(F(1, 3), F(1, 2)), (F(-2, 5), F(3, 7))]
    # zero points at charges without a pole: p = 0 for n >= 0, q = 0 for n <= 1
    zeros = {n: [(F(0), F(2, 3))] * (n >= 0) + [(F(3, 4), F(0))] * (n <= 1) for n in range(-2, 4)}
    checked = 0
    for n in range(-2, 4):
        for kind in ("psi", "psi*"):
            den = z - zeta if kind == "psi" else zeta - z
            by_z = z**n * zeta ** (1 - n) / den
            for r in range(4):
                expr = by_z
                for s in range(4):
                    for p, q in points + zeros[n]:
                        value = expr.subs(
                            {z: sympy.Rational(p.numerator, p.denominator),
                             zeta: sympy.Rational(q.numerator, q.denominator)}
                        )
                        assert value.is_Rational
                        want = F(int(value.p), int(value.q))
                        assert _field_field_kernel(n, kind, p, r, q, s) == want, (n, kind, r, s)
                        checked += 1
                    expr = sympy.diff(expr, zeta)
                by_z = sympy.diff(by_z, z)
    assert checked == (6 * 2 + 8) * 2 * 16


def test_field_field_kernel_poles_raise_with_their_name():
    from tauforge.wick import _field_field_kernel

    for n, p, q in ((-1, F(0), F(2, 3)), (-3, F(0), F(1, 2)), (2, F(3, 4), F(0)),
                    (4, F(1, 5), F(0)), (1, F(1, 2), F(1, 2))):
        for kind in ("psi", "psi*"):
            for r, s in ((0, 0), (2, 1)):
                with pytest.raises(ZeroDivisionError) as err:
                    _field_field_kernel(n, kind, p, r, q, s)
                assert str(err.value) == (
                    f"z = {p}, zeta = {q} is a pole of z^{n} zeta^{1 - n}/(z - zeta)"
                )


def series_exp_jet(family, point, order, sign):
    """Reference jet: xi's Taylor coefficients at the point, the series
    exponential of the value, the epsilon-part's exponential multiplied
    out term by term."""
    from math import comb, factorial

    coeffs = [family.zero() for _ in range(order + 1)]
    for k in range(1, family.depth + 1):
        tk = family.time(k) * sign
        for m in range(0, min(order, k) + 1):
            coeffs[m] = coeffs[m] + tk * (comb(k, m) * point ** (k - m))
    base = coeffs[0].series_exp()
    series = {0: family.one()}
    for m in range(1, order + 1):
        new = dict(series)
        power, fact, e = family.one(), 1, 0
        while True:
            e += 1
            fact *= e
            power = power * coeffs[m]
            if power.is_zero or m * e > order:
                break
            for deg, val in series.items():
                if deg + m * e <= order:
                    add = val * power * F(1, fact)
                    new[deg + m * e] = new.get(deg + m * e, family.zero()) + add
        series = new
    return [base] + [
        base * series.get(d, family.zero()) * factorial(d) for d in range(1, order + 1)
    ]


def test_exp_xi_jet_from_h_generators_matches_series_exponential():
    from tauforge.wick import _exp_xi_jet

    for depth in (6, 8, 10):
        fam = standard_single_family(depth)
        for point in (F(1, 3), F(-5, 4), F(2)):
            for sign in (1, -1):
                want = series_exp_jet(fam, point, 3, sign)
                for order in range(4):
                    assert _exp_xi_jet(fam, point, order, sign) == want[: order + 1]


def test_product_layout_concatenates_factor_layouts():
    rng = random.Random(37)
    sol = sample_soliton(rng, size=2)
    word = LinearWord((letter("psi*", -1), letter("psi", 1)))
    assert wick_layout([Product((sol,))]) == wick_layout([sol])
    assert wick_layout([Product((word, Identity(), sol))]) == wick_layout([word, sol])
    kinds = [kind for _, kind, couplings, _ in wick_layout([sol]) if couplings is not None]
    assert kinds == ["psi*", "psi*", "psi", "psi"]  # the hole points, then the particle points
    with pytest.raises(TypeError):
        wick_layout([Product((sol, sample_bare_bilinear(rng)))])


def test_one_factor_product_series_equals_its_factor():
    from tauforge.tau import expand_mkp

    fam = standard_single_family(5)
    sol = sample_soliton(random.Random(41), size=2)
    for n in (-1, 0, 1):
        assert expand_mkp(Product((sol,)), n, fam, 5).poly == expand_mkp(sol, n, fam, 5).poly
