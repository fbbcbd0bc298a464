import random
from fractions import Fraction

import pytest

from tauforge import schur, tau, wick
from tauforge.fock import ModeWindow, WindowViolation, basis_vector, frobenius_word, inner, letter
from tauforge.grouplike import (
    Diagonal,
    FieldWord,
    Identity,
    LinearWord,
    NormalOrderedBilinear,
    Product,
    SolitonExponent,
    StateProjector,
    apply_element,
    bilinear_minors,
    charge_of,
)
from tauforge.models import _coupling_entries
from tauforge.partitions import Partition, enumerate_partitions, from_frobenius
from tauforge.polyring import (
    fraction_matrix_inverse,
    standard_double_family,
    standard_single_family,
)
from tauforge.sampling import (
    sample_bare_bilinear,
    sample_diagonal,
    sample_element,
    sample_exponent_bilinear,
    sample_linear_word,
    sample_soliton,
    sample_vacuum_bilinear,
)
from tauforge.schur import schur_jt
from tauforge.tau import (
    expand_2dtl,
    expand_mkp,
    expand_mkp_direct,
    giambelli_coeff_check,
    pluecker_check,
    pluecker_coefficient,
    quantum_jt_check,
    rectangular_three_term_check,
    restricted_series,
)
from tauforge.wick import (
    correlator_exact,
    dress_word,
    kernel_pair,
    kernel_vev,
    kernel_vev_between,
    kfield,
    vacuum_pad,
)

F = Fraction
W = ModeWindow(-12, 12)


def test_identity_tau_is_one():
    fam = standard_single_family(4)
    series = expand_mkp(Identity(), 0, fam, 4, W)
    assert series.poly == fam.one()
    assert series.coefficients == {Partition([]): F(1)}


def test_coefficient_trivial_and_projector():
    for lam in enumerate_partitions(3):
        want = F(1) if lam == Partition([]) else F(0)
        assert pluecker_coefficient(Identity(), lam, 0, W) == want
    # state projector |mu,0><0,0| reproduces a character coefficient
    mu = Partition([2, 1])
    g = StateProjector(0, mu, 0, Partition([]))
    got = pluecker_coefficient(g, mu, 0, W)
    assert got == (-1) ** mu.sign_exponent()


def test_identity_checks_apply_the_element_once_per_charge(monkeypatch):
    calls = []

    def counted(g, v):
        calls.append(v.charges())
        return apply_element(g, v)

    monkeypatch.setattr(tau, "apply_element", counted)
    g = sample_vacuum_bilinear(random.Random(41))
    durfee_3 = from_frobenius((3, 1, 0), (2, 1, 0))
    assert giambelli_coeff_check(g, 0, durfee_3, W) is True
    assert len(calls) == 1
    calls.clear()
    assert quantum_jt_check(g, 0, Partition([3, 2, 2]), "rows", W) is True
    assert calls == [{0}, {-1}, {-2}]  # one application per stepped charge
    calls.clear()
    assert pluecker_check(g, 0, (3, 1, 0), (2, 1, 0), 1, 3, W)
    assert len(calls) == 1


def test_character_series():
    # element |lam,0><0| gives the signed Schur function
    fam = standard_single_family(5)
    for lam in enumerate_partitions(4):
        g = StateProjector(0, lam, 0, Partition([]))
        series = expand_mkp(g, 0, fam, 5, W)
        want = schur_jt(fam, lam) * ((-1) ** lam.sign_exponent())
        assert series.poly == want


def test_route_equality_all_variants():
    rng = random.Random(3)
    fam = standard_single_family(5)
    makers = [
        sample_exponent_bilinear,
        sample_bare_bilinear,
        sample_vacuum_bilinear,
        sample_diagonal,
        lambda r: sample_soliton(r, 2),
    ]
    for make in makers:
        g = make(rng)
        for n in (-1, 0, 1):
            series = expand_mkp(g, n, fam, 5, W)
            direct = expand_mkp_direct(g, n, fam, 5, W)
            assert series.poly == direct, (type(g).__name__, n)


def test_operator_route_reads_no_schur_memo():
    """`expand_mkp_direct` raises the element's state through the current
    tree, so it is an oracle for `expand_mkp`, which sums the memoized Schur
    functions, only if it reads none of them: the memo stays empty."""
    fam = standard_single_family(5)
    rng = random.Random(29)
    elements = [sample_element(rng) for _ in range(30)]
    schur._schur_cache.clear()
    direct = [expand_mkp_direct(g, 0, fam, 5) for g in elements]
    assert schur._schur_cache == {}
    assert sum(not d.is_zero for d in direct) >= 20
    for g, d in zip(elements, direct):
        assert expand_mkp(g, 0, fam, 5).poly == d


def test_charged_element_series():
    # single particle letter: charge 1, right vacuum shifts down
    fam = standard_single_family(4)
    g = LinearWord((letter("psi", 2),))
    assert charge_of(g) == 1
    series = expand_mkp(g, 0, fam, 4, W)
    direct = expand_mkp_direct(g, 0, fam, 4, W)
    assert series.poly == direct
    assert not series.poly.is_zero


def test_2dtl_trivial_element_gives_exponential():
    plus, minus = standard_double_family(4, 4)
    series = expand_2dtl(Identity(), 0, plus, minus, 4, W)
    quad = plus.zero()
    for k in range(1, 5):
        quad = quad + plus.time(k) * minus.time(k) * (-k)
    assert series.poly == quad.series_exp()
    # diagonal coefficients only
    for (lam, mu) in series.coefficients:
        assert lam == mu


def test_2dtl_diagonal_element_is_diagonal():
    rng = random.Random(5)
    plus, minus = standard_double_family(3, 3)
    g = sample_diagonal(rng)
    series = expand_2dtl(g, 1, plus, minus, 3, W)
    assert series.coefficients
    for (lam, mu) in series.coefficients:
        assert lam == mu


def test_2dtl_charged_element():
    plus, minus = standard_double_family(3, 3)
    g = LinearWord((letter("psi", 1),))
    series = expand_2dtl(g, 1, plus, minus, 3, W)
    # <lam,1| psi_1 |mu,0> pairs nontrivially across the charge step
    assert series.coefficients


def _random_elements(rng, count):
    makers = (
        sample_exponent_bilinear,
        sample_bare_bilinear,
        sample_vacuum_bilinear,
        sample_diagonal,
    )
    return [rng.choice(makers)(rng) for _ in range(count)]


def test_giambelli_identity():
    rng = random.Random(7)
    shapes = [lam for lam in enumerate_partitions(6) if lam.diagonal_size >= 1]
    checked = 0
    for g in _random_elements(rng, 12):
        n = rng.choice((-1, 0, 1))
        lam = rng.choice(shapes)
        got = giambelli_coeff_check(g, n, lam, W)
        if got is None:
            continue
        assert got, (g, n, lam)
        checked += 1
    assert checked >= 8


def test_giambelli_hooks_trivially():
    rng = random.Random(9)
    g = sample_exponent_bilinear(rng)
    assert giambelli_coeff_check(g, 0, Partition([3, 1]), W) in (True, None)
    assert giambelli_coeff_check(g, 0, Partition([2, 2]), W) in (True, None)


def test_quantum_jt_both_orientations():
    rng = random.Random(11)
    shapes = [lam for lam in enumerate_partitions(5) if lam.weight >= 1]
    checked = 0
    for g in _random_elements(rng, 14):
        n = rng.choice((-1, 0, 1))
        lam = rng.choice(shapes)
        for orientation in ("rows", "columns"):
            got = quantum_jt_check(g, n, lam, orientation)
            if got is None:
                continue
            assert got, (g, n, lam, orientation)
            checked += 1
    assert checked >= 14


def test_quantum_jt_one_row_trivial():
    rng = random.Random(13)
    g = sample_diagonal(rng)
    assert quantum_jt_check(g, 0, Partition([3]), "rows") in (True, None)


def test_quantum_jt_multi_line_shapes_step_the_charge():
    # two-row and two-column shapes, where each orientation's determinant
    # reads its coefficients at distinct stepped charges
    rng = random.Random(5)
    makers = (sample_exponent_bilinear, sample_vacuum_bilinear, sample_bare_bilinear)
    for make in makers:
        g = make(rng)
        for lam in (Partition([2, 1]), Partition([1, 1]), Partition([2, 2])):
            for orientation in ("rows", "columns"):
                assert quantum_jt_check(g, 0, lam, orientation) is True, (lam, orientation)


def test_quantum_jt_rejects_unknown_orientation():
    g = Diagonal(((-1, 3), (-2, 5)), ordered=False)
    with pytest.raises(ValueError, match="unknown orientation"):
        quantum_jt_check(g, 0, Partition([2, 1]), "diagonal", ModeWindow(-10, 10))


def test_pluecker_relations():
    rng = random.Random(17)
    checked = 0
    for g in _random_elements(rng, 10):
        n = rng.choice((-1, 0, 1))
        alphas, betas = (3, 1), (2, 0)
        assert pluecker_check(g, n, alphas, betas, 1, 2, W)
        checked += 1
    assert checked == 10


def test_pluecker_degenerate_coincident_rows():
    # striking r=1 twice the same alpha... degenerate input: two equal arms
    # cannot occur in strictly decreasing data, so instead verify the
    # relation on a diagonal-3 shape
    rng = random.Random(19)
    g = sample_bare_bilinear(rng)
    alphas, betas = (4, 2, 0), (3, 1, 0)
    assert pluecker_check(g, 0, alphas, betas, 1, 3, W)
    assert pluecker_check(g, 0, alphas, betas, 2, 3, W)


def test_rectangular_three_term():
    rng = random.Random(23)
    checked = 0
    for g in _random_elements(rng, 10):
        n = rng.choice((-1, 0))
        s, a = rng.choice(((1, 1), (2, 1), (2, 2), (1, 2)))
        assert rectangular_three_term_check(g, n, s, a, W)
        checked += 1
    assert checked == 10


def test_restriction_matches_coefficient_filter():
    rng = random.Random(29)
    fam = standard_single_family(4)
    for _ in range(4):
        g = sample_bare_bilinear(rng)
        n = rng.choice((0, 1))
        rows = rng.choice((0, 1, 2))
        full = expand_mkp(g, n, fam, 4, W)
        cut = restricted_series(g, rows, n, fam, 4, W)
        want = fam.zero()
        for lam, c in full.coefficients.items():
            if lam.length <= rows + n:
                want = want + schur_jt(fam, lam) * c
        assert cut.poly == want
    # rows = 0 at charge 0 keeps only the central value
    g = sample_bare_bilinear(rng)
    cut = restricted_series(g, 0, 0, fam, 4, W)
    assert set(cut.coefficients) <= {Partition([])}


def test_gauge_freedom_diagonal_twist():
    # multiplying by a charge-staircase diagonal rescales tau by a charge
    # function: tau'_n = C(n) tau_n with C(n) the staircase eigenvalue
    rng = random.Random(31)
    fam = standard_single_family(4)
    g = sample_bare_bilinear(rng)
    twist = Diagonal(((0, F(5, 3)), (1, F(2, 7)), (-1, F(3))), ordered=True)
    twisted = Product((g, twist))
    for n in (-1, 0, 1):
        base = expand_mkp(g, n, fam, 4, W)
        new = expand_mkp(twisted, n, fam, 4, W)
        from tauforge.fock import vacuum

        cn = apply_element(twist, vacuum(W, n)).component(n, Partition([]))
        assert new.poly == base.poly * cn


def test_series_json_is_deterministic():
    rng = random.Random(37)
    fam = standard_single_family(3)
    g = sample_exponent_bilinear(rng)
    a = expand_mkp(g, 0, fam, 3, W).to_json()
    b = expand_mkp(g, 0, fam, 3, W).to_json()
    assert a == b


def test_giambelli_empty_shape_is_trivially_true():
    g = Diagonal(((-1, 3), (-2, 5)), ordered=False)
    assert giambelli_coeff_check(g, 0, Partition([]), ModeWindow(-10, 10)) is True


# -- the coefficient reader against the per-shape route it replaced -------------


def _per_shape_coefficient(g, shape, n, window, source=Partition([])):
    """Reference: a basis bra paired with the element applied to the source
    ket (or the kernel pairing for point fields), signed by the Frobenius
    legs of both shapes."""
    q = charge_of(g)
    if tau.is_field_based(g):
        letters = frobenius_word(shape, n, dual=True) + [g] + frobenius_word(source, n - q)
        val = correlator_exact(n, letters, n - q)
    else:
        ket = apply_element(g, basis_vector(window, n - q, source))
        val = inner(basis_vector(window, n, shape, dual=True), ket)
    legs = sum(b + 1 for b in shape.frobenius().betas + source.frobenius().betas)
    return val * (-1) ** legs


def _every_sampled_kind():
    rng = random.Random(43)
    picked = {}
    while len(picked) < 6:
        g = sample_element(rng)
        if isinstance(g, LinearWord) and not charge_of(g):
            continue  # a charged word, so the source and bra charges differ
        kind = type(g).__name__
        if isinstance(g, NormalOrderedBilinear):
            kind += "/bare" if g.ordering is None else "/vacuum"
        picked.setdefault(kind, g)
    return list(picked.values()) + [sample_soliton(rng, 2)]


def _per_shape_elements():
    """Every sampled kind, then the point-field elements the Wick tables
    serve: solitons of 1, 2 and 3 point pairs, one whose vacuum value
    vanishes at charge 0, a field word (its own letters) and a soliton times
    a linear word.  A bra of diagonal size 2 with the word's pad letter, or
    with a source's letters, reads a 3 x 3 minor."""
    rng = random.Random(47)
    solitons = [_soliton((("2",),), ("1/3",), ("1/2",))]
    solitons += [sample_soliton(rng, size) for size in (2, 3)]
    vanishing = _soliton((("-1/3",),), ("1/3",), ("1/2",))
    psi = ((F(2), "psi", (F(3, 17), 0)), (F(1), "psi", (F(3, 17), 1)))
    field_word = FieldWord((psi, ((F(1), "psi*", (F(5, 17), 0)),)))
    with_word = Product((sample_soliton(rng, 2), LinearWord((letter("psi*", -1),))))
    return _every_sampled_kind() + solitons + [vanishing, field_word, with_word]


def test_coefficient_reader_matches_the_per_shape_route():
    fam = standard_single_family(6)
    plus, minus = standard_double_family(3, 3)
    shapes, pairs = enumerate_partitions(6), enumerate_partitions(3)
    for g in _per_shape_elements():
        q = charge_of(g)
        for n in (-1, 0, 1):
            window = tau.window_for_element(g, (n, n - q), 6)
            want = {}
            for lam in shapes:
                c = _per_shape_coefficient(g, lam, n, window)
                if c:
                    want[lam] = c
            # equal in enumeration order, which the reports keep
            assert list(expand_mkp(g, n, fam, 6).coefficients.items()) == list(want.items()), (g, n)
            window = tau.window_for_element(g, (n, n - q), 3)
            want = {}
            for mu in pairs:
                for lam in pairs:
                    c = _per_shape_coefficient(g, lam, n, window, mu)
                    if c:
                        want[(lam, mu)] = c
            got = expand_2dtl(g, n, plus, minus, 3).coefficients
            assert list(got.items()) == list(want.items()), (g, n)


def test_wick_tables_skip_only_shapes_that_read_zero():
    # a table reads no shape whose diagonal size passes g's rank plus its
    # fixed psi letters: every shape it skips, through weight 8 and at the
    # least skipped square (b + 1)^(b + 1) and that square with a box more,
    # reads 0 by the words' pairing, with the vacuum and the sources (1) and
    # (2, 1) as fixed letters, for solitons of one and two point pairs
    # (the one whose vacuum value vanishes at charge 0 among them)
    solitons = [g for g in _per_shape_elements() if type(g) is SolitonExponent and len(g.ps) <= 2]
    assert [len(g.ps) for g in solitons] == [2, 1, 2, 1]
    shapes = enumerate_partitions(8)
    skipped = 0
    for g in solitons:
        reader, want = tau._WickReader(g, charge_of(g)), _KernelCoefficients(g)
        for n in (-1, 0, 1):
            for source in (Partition([]), Partition([1]), Partition([2, 1])):
                table = reader.table(n, source)
                b = len(g.ps) + (source != Partition([]))
                beyond = [Partition([b + 1] * (b + 1)), Partition([b + 2] + [b + 1] * b)]
                assert table.admits((b,) * b) and not any(table.admits(lam.parts) for lam in beyond)
                for lam in [lam for lam in shapes if not table.admits(lam.parts)] + beyond:
                    assert want(lam, n, source) == 0, (g, n, source, lam)
                    skipped += 1
    assert skipped == 4 * 3 * 3 * 2 + 2 * 3 * 30  # 30 shapes of weight <= 8 have d >= 2


def test_2dtl_bra_outside_an_explicit_window_raises():
    # every charge-0 source of weight <= 3 fits [-3, 3), the charge-1 bra of
    # shape (3) reaches mode 3 and does not
    plus, minus = standard_double_family(3, 3)
    g = LinearWord((letter("psi", 0),))
    with pytest.raises(WindowViolation, match=r"shape \(3,\)"):
        expand_2dtl(g, 1, plus, minus, 3, ModeWindow(-3, 3))


# -- the Wick reader against words paired through kernel_vev --------------------


def _oracle_words(g) -> list:
    """(coefficient, kernel letters) terms of an element's word expansion: a
    soliton exponent gives one word psi*(q_R) psi(p_rev(C)) per nonzero minor
    det A[R, C] of its couplings, a product the products of its factors'."""
    if isinstance(g, Identity):
        return [(F(1), [])]
    if isinstance(g, (LinearWord, FieldWord)):
        return [(F(1), list(g.letters))]
    if isinstance(g, SolitonExponent):
        return [
            (det, [(kfield("psi*", g.qs[i]),) for i in rows]
             + [(kfield("psi", g.ps[k]),) for k in reversed(cols)])
            for (rows, cols), det in bilinear_minors(_coupling_entries(g.couplings)).items()
        ]
    assert isinstance(g, Product)
    out = [(F(1), [])]
    for factor in g.factors:
        out = [(c * d, w + v) for c, w in out for d, v in _oracle_words(factor)]
    return out


class _KernelCoefficients:
    """An element's signed coefficients from its words, each paired through
    `kernel_vev`'s subset recursion: no Wick layout and no determinant.

    One instance serves every read of one element, and forms each letter
    pair the recursion meets once for all its words, shapes, sources and
    charges.  Words, bras, kets and paddings are formed once each, so a
    pair is found by its letters' identity; the table holds the letters,
    so no identity it keys by is reused."""

    def __init__(self, g):
        self.q = charge_of(g)
        self.words = _oracle_words(g)
        self.letters: dict = {}  # (builder, its arguments) -> letters
        self.pairs: dict = {}  # (charge, id, id) -> (letter, letter, pair value)

    def _once(self, build, *args):
        key = (build, *args)
        if key not in self.letters:
            self.letters[key] = build(*args)
        return self.letters[key]

    def __call__(self, shape, n, source=Partition([])):
        m = n - self.q
        bra, ket = self._once(frobenius_word, shape, n, True), self._once(frobenius_word, source, m)
        pad = self._once(vacuum_pad, n, m)
        formed, pairs = wick.letter_pair, self.pairs

        def pair(n, a, b):
            got = pairs.get((n, id(a), id(b)))
            if got is None:
                got = pairs[n, id(a), id(b)] = (a, b, formed(n, a, b))
            return got[2]

        total = F(0)
        wick.letter_pair = pair  # what kernel_vev calls for every pair
        try:
            for c, word in self.words:
                total += c * kernel_vev(n, bra + word + ket + pad)
        finally:
            wick.letter_pair = formed
        return total * (-1) ** (shape.sign_exponent() + source.sign_exponent())


def _count_kernel_reads(monkeypatch) -> list:
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return correlator_exact(*args, **kwargs)

    monkeypatch.setattr(tau, "correlator_exact", counted)
    return calls


def _soliton(rows, ps, qs):
    rows = tuple(tuple(map(F, row)) for row in rows)
    return SolitonExponent(tuple(map(F, ps)), tuple(map(F, qs)), rows)


def test_soliton_hook_route_matches_the_kernel_route(monkeypatch):
    rng = random.Random(7)
    draws = [sample_soliton(rng, size) for size in (1, 2, 3) for _ in range(4)]
    dense = (("1", "-1/2"), ("2/3", "2"))
    cases = [(g, (-1, 0, 1)) for g in draws] + [
        # a zero point off its pole: p = 0 at charges >= 0, q = 0 at charges <= 1
        (_soliton(dense, ("0", "2/5"), ("1/2", "1/7")), (0, 1)),
        (_soliton(dense, ("1/3", "2/5"), ("1/2", "0")), (-1, 0, 1)),
        # an uncoupled zero hole point at charge 2, where a coupled one is a pole
        (_soliton((("1", "1"), ("0", "0")), ("1/3", "1/5"), ("1/2", "0")), (2,)),
    ]
    shapes = enumerate_partitions(7)
    compared = 0
    for g, charges in cases:
        for n in charges:
            calls = _count_kernel_reads(monkeypatch)
            read = tau.coefficient_reader(g, W)
            got = [read(lam, n) for lam in shapes]
            assert calls == []  # the Wick reader answered every shape
            monkeypatch.undo()
            want = _KernelCoefficients(g)
            assert got == [want(lam, n) for lam in shapes], (g, n)
            compared += len(shapes)
            assert any(got[1:]), (g, n)  # the element is no multiple of the identity
    assert compared == 1620 + 6 * len(shapes)


def test_soliton_with_a_vanishing_vacuum_value_takes_the_kernel_route(monkeypatch):
    # c_empty = 1 + A K = 1 - (1/3) * 3 = 0 at charge 0, so there is no Schur
    # complement to take: those reads are the bordered determinant itself,
    # and no read at either charge pairs through the correlator
    g = _soliton((("-1/3",),), ("1/3",), ("1/2",))
    shapes = enumerate_partitions(7)
    for n in (0, 1):
        calls = _count_kernel_reads(monkeypatch)
        matrices = _count_calls(monkeypatch, tau, "wick_matrix")
        read = tau.coefficient_reader(g, W)
        got = [read(lam, n) for lam in shapes]
        assert calls == []
        # B's rows and every letter's pairs are formed once per charge, and
        # each read forms only its bra's rows and columns
        assert matrices == [1]
        monkeypatch.undo()
        want = _KernelCoefficients(g)
        assert got == [want(lam, n) for lam in shapes]
        assert bool(got[0]) == bool(n)  # c_empty vanishes at charge 0 only


def _count_calls(monkeypatch, owner, name: str) -> list:
    """[calls so far] of `owner.name`, counted while the patch lasts."""
    counted, formed = [0], getattr(owner, name)

    def wrapper(*args, **kwargs):
        counted[0] += 1
        return formed(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapper)
    return counted


def test_one_point_soliton_reads_each_hook_once(monkeypatch):
    # at cutoff 8 only the empty shape and the 36 hooks can read nonzero for
    # a one-point soliton; each of the bra's 8 legs and 8 arms is formed
    # once, and each read is one integer product: the only rational
    # determinant is c_empty's and the only integer one the empty shape's,
    # of size 0
    g = _soliton((("2/3",),), ("2/5",), ("5/6",))
    for n in (0, 1):
        counts = {
            name: _count_calls(monkeypatch, owner, name)
            for owner, name in (
                (tau._WickReader, "read"),
                (tau._WickReader, "letter"),
                (tau, "fraction_matrix_det"),
                (tau, "integer_matrix_det"),
            )
        }
        coefficients = tau.mkp_coefficients(g, n, 8)
        monkeypatch.undo()
        assert {name: c[0] for name, c in counts.items()} == {
            "read": 37,
            "letter": 16,
            "fraction_matrix_det": 1,
            "integer_matrix_det": 1,
        }
        hooks = [lam for lam in enumerate_partitions(8) if len(lam.frobenius().alphas) <= 1]
        assert list(coefficients) == hooks


def _vanishing_solitons() -> list:
    """(soliton, charge) with c_empty = det(I + A K) = 0 at that charge:
    A = -K^-1 for the two-point kernels K_kj = <n| psi*(q_j) psi(p_k) |n>."""
    out = []
    for ps, qs, n in (
        (("1/3",), ("1/2",), 0), (("2/5",), ("1/7",), 1), (("3/4",), ("2/9",), -1),
        (("1/6",), ("5/6",), 1), (("1/3", "2/5"), ("1/2", "1/7"), 0),
        (("3/4", "1/5"), ("2/9", "4/11"), 1), (("1/6", "2/3"), ("5/6", "3/7"), -1),
        (("2/7", "5/9"), ("1/8", "3/5"), 0),
    ):
        ps, qs = tuple(map(F, ps)), tuple(map(F, qs))
        kernel = [[kernel_pair(n, kfield("psi*", q), kfield("psi", p)) for q in qs] for p in ps]
        a = [[-x for x in row] for row in fraction_matrix_inverse(kernel)]
        out.append((SolitonExponent(ps, qs, tuple(map(tuple, a))), n))
    return out


def _field_word(rng) -> FieldWord:
    """One or two single-species letters of point fields and their first
    derivatives, at distinct points k/17 that no sampled soliton point
    equals."""
    letters = []
    for k in rng.sample(range(1, 17), rng.randint(1, 2)):
        kind = rng.choice(("psi", "psi*"))
        terms = [(F(rng.randint(1, 3)), kind, (F(k, 17), r)) for r in range(rng.randint(1, 2))]
        letters.append(tuple(terms))
    return FieldWord(tuple(letters))


def test_wick_reader_matches_the_word_by_word_pairing():
    # every family the reader serves, against the words each soliton minor
    # gives, paired through kernel_vev: bare solitons, products with mode and
    # field words, and solitons whose vacuum value vanishes at one charge
    rng = random.Random(19)
    sol = sample_soliton
    elements = [sol(rng, size) for size in (1, 2, 3) for _ in range(4)]
    elements += [
        Product((sol(rng, rng.randint(1, 2)), sample_linear_word(rng, rng.randint(-1, 1))))
        for _ in range(9)
    ]
    for _ in range(9):
        # two one-point solitons with four distinct points
        pair = sol(rng, 2)
        first, second = (
            SolitonExponent((pair.ps[i],), (pair.qs[i],), ((pair.couplings[i][i],),))
            for i in (0, 1)
        )
        elements.append(Product((sample_linear_word(rng, rng.randint(-1, 1)), first, second)))
    elements += [Product((_field_word(rng), sol(rng, rng.randint(1, 2)))) for _ in range(9)]
    vanishing = _vanishing_solitons()
    for g, n in vanishing:
        assert tau.coefficient_reader(g, W)(Partition([]), n) == 0
    elements += [g for g, _ in vanishing]
    shapes = enumerate_partitions(4)
    sources = [Partition([]), Partition([1]), Partition([2, 1])]
    compared = 0
    for g in elements:
        read, want = tau.coefficient_reader(g, W), _KernelCoefficients(g)
        for n in (-1, 0, 1):
            for source in sources:
                for lam in shapes:
                    assert read(lam, n, source) == want(lam, n, source), (g, lam, n, source)
                    compared += 1
    assert compared == 47 * 3 * 3 * 12


def test_dressed_correlator_matches_the_word_by_word_pairing():
    # correlator_exact's determinant with polynomial entries, against the
    # dressed words of every coupling minor paired through kernel_vev
    rng = random.Random(23)
    fam = standard_single_family(3)
    elements = [sample_soliton(rng, 2), Product((_field_word(rng), sample_soliton(rng, 1)))]
    elements.append(Product((sample_soliton(rng, 1), sample_linear_word(rng, 1))))
    for g in elements:
        q = charge_of(g)
        for n in (-1, 0, 1):
            want = fam.zero()
            for c, word in _oracle_words(g):
                want = want + kernel_vev_between(n, dress_word(fam, word), n - q) * c
            assert correlator_exact(n, [g], n - q, family=fam) == want, (g, n)


def test_soliton_hook_route_reads_shapes_of_diagonal_size_three():
    # shapes of Durfee size 3 need a 3 x 3 Schur complement
    g = sample_soliton(random.Random(11), 3)
    read = tau.coefficient_reader(g, W)
    for shape in (Partition([3, 3, 3]), Partition([4, 3, 3, 1]), Partition([3, 3, 3, 2])):
        got = read(shape, 0)
        assert got and got == _KernelCoefficients(g)(shape, 0), shape
        assert giambelli_coeff_check(g, 0, shape, W) is True
