import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauforge import grouplike
from tauforge.fock import (
    FockVector,
    ModeWindow,
    apply_diagonal_multipliers,
    apply_mode,
    apply_normal_ordered_word,
    apply_word,
    basis_vector,
    inner,
    letter,
    occupancy,
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
    bilinear_minors,
    charge_of,
    compose_bare_ordered,
    exponent_to_bare,
    reconstruct_exponential,
    reorder,
    rotation_of,
    rotation_prime_of,
    verify_charge,
)
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.polyring import fraction_matrix_det
from tauforge.sampling import (
    sample_bare_bilinear,
    sample_diagonal,
    sample_element,
    sample_exponent_bilinear,
    sample_quadruples,
    sample_states,
    sample_vacuum_bilinear,
)
from tauforge.wick import kfield

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


NOT_NILPOTENT = "exponent matrix must be nilpotent; use Diagonal for diagonal flows"


def test_exponent_requires_nilpotent():
    for entries in ({(0, 0): F(1)}, {(0, 1): F(1), (1, 0): F(1)}):  # b^n != 0 over n modes
        with pytest.raises(ValueError) as err:
            ExponentBilinear(ModeMatrix(entries))
        assert str(err.value) == NOT_NILPOTENT
    # the empty matrix: B = 0
    assert ExponentBilinear(ModeMatrix({})).bare == ModeMatrix({})
    # diagonal entries, yet b^2 = 0: e^b = I + b
    b = ModeMatrix({(0, 0): F(1), (0, 1): F(1), (1, 0): F(-1), (1, 1): F(-1)})
    assert ExponentBilinear(b).bare == b
    # a 4-mode chain: b^3 != 0, b^4 = 0, so B = b + b^2/2 + b^3/6
    chain = ExponentBilinear(ModeMatrix({(0, 1): F(2), (1, 2): F(3), (2, 3): F(5)}))
    want = {(0, 1): 2, (1, 2): 3, (2, 3): 5, (0, 2): 3, (1, 3): F(15, 2), (0, 3): 5}
    assert chain.bare == ModeMatrix(want)
    # the bare form is derived: equality, hash and repr read b alone
    assert chain == ExponentBilinear(chain.b) and "bare" not in repr(chain)


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
        lhs = apply_element(g, apply_mode("psi*", n + lam.part(1) - 1, v))
        k = n + lam.part(1) - 1
        rhs = apply_mode("psi*", k, apply_element(g, v))
        for (l, kk), c in corr.entries.items():
            if kk == k:
                rhs = rhs + apply_mode("psi*", l, apply_element(g, v)).scale(c)
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


def test_rotation_of_a_zero_multiplier_is_refused():
    # a zero multiplier has no inverse to rotate by: this used to raise
    # ZeroDivisionError instead of returning the reason
    for g in (Diagonal(((0, F(0)),), ordered=False), Diagonal(((-1, F(2)), (3, F(0))))):
        corr, why = rotation_of(g)
        assert corr is None and "zero multiplier" in why
    # an integer multiplier rotates by an exact rational, not a float's
    assert rotation_of(Diagonal(((0, 3),), ordered=False)) == (ModeMatrix({(0, 0): F(-2, 3)}), None)


def taylor_exponential(b: ModeMatrix, v: FockVector) -> FockVector:
    """sum_k X^k v / k! for X = sum b_ik psi*_i psi_k, one bilinear
    application per step; X is nilpotent, so the series ends."""
    out, term = v, v
    for step in range(1, len(b.modes()) ** 2 + 2):
        nxt = FockVector(v.window, {}, v.dual)
        for (i, k), c in b.entries.items():
            nxt = nxt + apply_word([letter("psi*", i), letter("psi", k)], term).scale(c / step)
        if nxt.is_zero:
            return out
        out, term = out + nxt, nxt
    raise AssertionError("the bilinear series did not end")


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
    # the bare form applied against the Taylor series, kets and bras
    for _ in range(12):
        g = sample_exponent_bilinear(rng)
        for n in (-1, 0, 1):
            for lam in enumerate_partitions(3):
                for dual in (False, True):
                    v = basis_vector(W, n, lam, dual=dual)
                    assert apply_element(g, v) == taylor_exponential(g.b, v), (g, n, lam, dual)


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


def test_checks_without_samples_compare_nothing_and_fail():
    g = sample_exponent_bilinear(random.Random(71))
    with pytest.raises(ValueError, match="without a quadruple"):
        bbc_check(g, W, [])
    with pytest.raises(ValueError, match="without a sample state"):
        verify_charge(g, W, [])


def test_charge_negative_control(monkeypatch):
    # a wrong claimed charge fails on the first sample state: the exponential
    # of a nilpotent bilinear is invertible, so g|v> is never zero
    rng = random.Random(73)
    g = sample_exponent_bilinear(rng)
    states = sample_states(rng, 4, weight=2)
    q = verify_charge(g, W, states)
    monkeypatch.setattr(grouplike, "charge_of", lambda _: q + 1)
    with pytest.raises(AssertionError) as err:
        verify_charge(g, W, states)
    assert str(err.value) == f"element lacks definite charge {q + 1} on {states[0]}"


def test_checks_apply_g_once_per_distinct_state(monkeypatch):
    rng = random.Random(79)
    g = sample_exponent_bilinear(rng)
    quads = sample_quadruples(rng, 8) + sample_quadruples(random.Random(79), 2)
    applied = []

    def counting_apply(g, v):
        applied.append(v)
        return apply_element(g, v)

    assert bbc_check(g, W, quads, apply_fn=counting_apply) is None
    keys = {(dual, *s) for q in quads for dual, s in zip((True, True, False, False), q)}
    assert len(applied) == len(keys) < 4 * len(quads)

    calls = []

    def counted(g, v):
        calls.append(v)
        return apply_element(g, v)

    monkeypatch.setattr(grouplike, "apply_element", counted)
    states = sample_states(rng, 8, weight=1) * 2
    assert verify_charge(g, W, states) == 0
    assert len(calls) == len(set(states)) < len(states)


def test_linear_word_refuses_point_field_terms():
    with pytest.raises(TypeError, match="FieldWord"):
        LinearWord(((kfield("psi", F(1, 3)),),))
    with pytest.raises(TypeError, match="FieldWord"):
        LinearWord((letter("psi", 1), ((F(1), "psi*", 0), kfield("psi*", F(1, 2), 1))))


def test_matrix_element_helper():
    g = Diagonal(((0, F(3)),), ordered=False)
    got = inner(vacuum(W, 1, dual=True), apply_element(g, vacuum(W, 1)))
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


# -- the minor expansion against the per-subset and per-permutation routes -------


def reference_minors(entries):
    """Every nonzero minor by one Gaussian determinant per pair of row and
    column subsets, the empty minor 1 included."""
    rows = sorted({i for i, _ in entries})
    cols = sorted({k for _, k in entries})
    out = {((), ()): F(1)}
    for d in range(1, min(len(rows), len(cols)) + 1):
        for rsel in combinations(rows, d):
            for csel in combinations(cols, d):
                minor = [[entries.get((i, k), F(0)) for k in csel] for i in rsel]
                det = fraction_matrix_det(minor)
                if det:
                    out[(rsel, csel)] = det
    return out


def partial_permutations(entries, admissible=lambda i, k: True):
    """Every subset of (admissible) entries with distinct rows and distinct
    columns, as (pairs, product of the entries)."""

    def rec(idx, chosen, rows, cols, coeff):
        yield chosen, coeff
        for j in range(idx, len(entries)):
            (i, k), c = entries[j]
            if i in rows or k in cols or not admissible(i, k):
                continue
            yield from rec(j + 1, chosen + [(i, k)], rows | {i}, cols | {k}, coeff * c)

    yield from rec(0, [], set(), set(), F(1))


def reference_ordered_exponent(g: NormalOrderedBilinear, v: FockVector) -> FockVector:
    """One ordered word per partial permutation of the entries, pruned per
    input state by the letters that meet the state first."""
    n0 = g.ordering
    out = FockVector(v.window, {}, v.dual)
    for state, amp in v.states.items():
        sv = FockVector(v.window, {state: amp}, v.dual)
        occupied = occupancy(*state)

        def admissible(i, k):
            if not v.dual:
                if n0 is None:
                    return not occupied(k)
                return (i < n0 or occupied(i)) and (k >= n0 or not occupied(k))
            if n0 is None:
                return not occupied(i)
            return (i >= n0 or not occupied(i)) and (k < n0 or occupied(k))

        for pairs, coeff in partial_permutations(g.mat.items(), admissible):
            word = [letter("psi*", i) for i, _ in pairs]
            word += [letter("psi", k) for _, k in reversed(pairs)]
            if n0 is None:
                out = out + apply_word(word, sv).scale(coeff)
            else:
                out = out + apply_normal_ordered_word(word, n0, sv).scale(coeff)
    return out


small_rationals = st.builds(F, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def sparse_matrices(draw, lo=-3, hi=3, max_size=5):
    """Up to max_size x max_size rational matrices on modes in [lo, hi),
    dense or with any pattern of zeros."""
    rows = draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=max_size, unique=True))
    cols = draw(st.lists(st.integers(lo, hi - 1), min_size=1, max_size=max_size, unique=True))
    values = st.one_of(st.just(F(0)), small_rationals) if draw(st.booleans()) else small_rationals
    return {(i, k): draw(values) for i in rows for k in cols}


@st.composite
def fock_vectors(draw, window, dual):
    """One to three basis states at charges -1..1 and weight <= 3."""
    shapes = [lam for w in range(4) for lam in enumerate_partitions(w)]
    picks = draw(
        st.lists(
            st.tuples(st.integers(-1, 1), st.sampled_from(shapes), small_rationals),
            min_size=1,
            max_size=3,
        )
    )
    out = FockVector(window, {}, dual)
    for n, lam, c in picks:
        out = out + basis_vector(window, n, lam, dual=dual).scale(c)
    return out


@settings(deadline=None, max_examples=150)
@given(sparse_matrices(max_size=5))
def test_bilinear_minors_match_one_determinant_per_subset(entries):
    assert bilinear_minors(entries) == reference_minors(entries)


@settings(deadline=None, max_examples=150)
@given(
    sparse_matrices(max_size=4),
    st.sampled_from([None, -2, -1, 0, 1, 2]),
    st.booleans(),
    st.data(),
)
def test_ordered_exponent_matches_the_partial_permutation_route(entries, ordering, dual, data):
    g = NormalOrderedBilinear(ModeMatrix(entries), ordering)
    v = data.draw(fock_vectors(W, dual))
    assert apply_element(g, v) == reference_ordered_exponent(g, v)


@settings(deadline=None, max_examples=100)
@given(sparse_matrices(max_size=4), st.integers(0, 3), st.booleans(), st.data())
def test_bare_ordering_is_the_vacuum_above_every_mode(entries, gap, dual, data):
    mat = ModeMatrix(entries)
    top = max(mat.modes(), default=0) + 1 + gap
    bare, above = NormalOrderedBilinear(mat, None), NormalOrderedBilinear(mat, top)
    v = data.draw(fock_vectors(W, dual))
    assert apply_element(above, v) == apply_element(bare, v)
    assert reorder(bare, top) == (1, above)
    assert reorder(above, None) == (1, bare)


def test_cauchy_exponent_applies_one_word_per_minor(monkeypatch):
    # A_ik = 1/(k - i) has every minor nonzero: sum_d C(4, d)^2 = 70
    # minors, the empty one included, against sum_d C(4, d)^2 d! = 209
    # partial permutations; the vacuum is one state group, so each minor's
    # word is compiled once
    g = NormalOrderedBilinear(
        ModeMatrix({(i, k): F(1, k - i) for i in range(-4, 0) for k in range(4)})
    )
    words = []

    def counted(out, group_words, v, states):
        group_words = list(group_words)
        words.extend(word for word, _ in group_words)
        return words_into(out, group_words, v, states)

    words_into = grouplike._words_into
    monkeypatch.setattr(grouplike, "_words_into", counted)
    got = apply_element(g, vacuum(W, 0))
    assert len(words) == 70 and [] in words
    assert len({tuple(word) for word in words}) == 70
    assert got == reference_ordered_exponent(g, vacuum(W, 0))


def reference_diagonal(g: Diagonal, v: FockVector) -> FockVector:
    """The two routes a Diagonal element took before its eigenvalue had one
    rule: the ordered convention looped every window mode through a
    multiplier lookup, the plain one multiplied the occupied listed modes."""
    if g.ordered:
        return apply_diagonal_multipliers(lambda j: dict(g.mults).get(j, F(1)), v)
    out = {}
    for (n, parts), c in v.states.items():
        occupied = occupancy(n, parts)
        factor = F(1)
        for mode, m in g.mults:
            if occupied(mode):
                factor *= m
        out[(n, parts)] = c * factor
    return FockVector(v.window, out, v.dual)


@st.composite
def diagonals(draw):
    """Multipliers (zero allowed, except at negative modes when ordered) on
    modes in and around the window (-3, 3), and far outside it."""
    ordered = draw(st.booleans())
    modes = draw(st.lists(st.sampled_from(list(range(-5, 6)) + [-40, 40]), unique=True))
    nonzero = small_rationals.filter(bool)
    return Diagonal(
        tuple((j, draw(nonzero if ordered and j < 0 else small_rationals)) for j in modes),
        ordered,
    )


@settings(deadline=None, max_examples=200)
@given(
    diagonals(),
    st.booleans(),
    st.lists(
        st.tuples(
            st.integers(-2, 2),
            st.sampled_from([lam.parts for w in range(5) for lam in enumerate_partitions(w)]),
            small_rationals.filter(bool),
        ),
        min_size=1,
        max_size=3,
    ),
)
def test_diagonal_eigenvalue_matches_both_former_routes(g, dual, states):
    # the window (-3, 3) holds some states and misses others by one or more
    # modes, at either end: both sides must agree on values or on the error
    window = ModeWindow(-3, 3)
    v = FockVector(window, {(n, parts): c for n, parts, c in states}, dual)

    def outcome(route):
        try:
            return route(g, v)
        except Exception as err:  # the exception type is part of the behaviour
            return type(err)

    assert outcome(apply_element) == outcome(reference_diagonal)
