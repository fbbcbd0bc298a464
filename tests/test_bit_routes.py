"""Differential tests for the Fock routes on occupation bits.

Every mode operator runs on one compiled kernel (`fock._words_into`):
`apply_letter`, `apply_mode`, `apply_word` and a `LinearWord` hand it
one-flip words, and `grouplike._apply_ordered_exponent` compiles each
minor's mode word once per state group.  `bbc_check` reads each exchange
term <X| psi_k |Y> by one bit flip and one lookup (`fock.inner_mode`),
only at the modes where the quadruple's basis states differ unless g|V> or
g|V'> leaves the window.

The references below are the routes these replaced, copied here: the
interpreted flip of one mode operator over a vector's states
(`ref_mode_into`) and the letters and words built on it, one reference
word per minor on the group's vector, and `inner(bra, ref_apply_mode(kind,
k, ket))` per exchange term.  Both sides must give equal values, or raise
the same exception with the same message, on exponent, bare and
vacuum-ordered bilinears, letters with several terms and repeated modes,
kets and bras, multi-state vectors with polynomial coefficients, odd-sign
shapes and states outside the window.
"""

from fractions import Fraction as F
from math import inf

from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforge.fock import (
    FockVector,
    ModeWindow,
    _add_into,
    _check_bits_window,
    _occupied,
    accumulate,
    apply_letter,
    apply_word,
    basis_vector,
    creates,
    inner,
    inner_mode,
    letter,
)
from tauforge.grouplike import (
    Diagonal,
    ExponentBilinear,
    LinearWord,
    ModeMatrix,
    NormalOrderedBilinear,
    _apply_ordered_exponent,
    apply_element,
    bbc_check,
    bilinear_minors,
)
from tauforge.partitions import Partition, enumerate_partitions, sign_exponent
from tauforge.polyring import standard_single_family

FAM = standard_single_family(3)
SHAPES = [lam.parts for lam in enumerate_partitions(3)]
assert any(sign_exponent(p) & 1 for p in SHAPES)  # odd-sign shapes are drawn

# -- references: the routes before bit compilation ------------------------------------


def ref_mode_into(out, kind, k, v, coeff=None):
    """Add coeff * (mode operator at k) v into `out` (keyed at v's base):
    flip bit k with the wedge sign of the occupied modes above k."""
    window, base = v.window, v.base
    window.require(k)
    pos = k - base
    bit = 1 << pos
    filling = (kind == "psi") != v.dual
    for bits, c in v.bits.items():
        if (bits >> pos & 1) == filling:
            continue
        # k lies in the window, so only a source outside it leaves it
        _check_bits_window(window, base, bits)
        term = c if coeff is None else c * coeff
        _add_into(out, bits ^ bit, -term if (bits >> (pos + 1)).bit_count() & 1 else term)


def ref_apply_mode(kind, k, v):
    out = {}
    ref_mode_into(out, kind, k, v)
    return v._like(out)


def ref_apply_letter(lt, v):
    out = {}
    for coeff, kind, k in lt:
        ref_mode_into(out, kind, k, v, coeff)
    return v._like(out)


def ref_apply_word(letters, v):
    """Operator-product order: the rightmost letter hits a ket first."""
    seq = list(letters)
    for lt in seq if v.dual else seq[::-1]:
        v = ref_apply_letter(lt, v)
    return v


def ref_ordered_exponent(entries, ordering, v):
    """One reference word per nonzero minor on each state group's vector."""
    top = inf if ordering is None else ordering
    base, dual = v.base, v.dual

    def lives(bits, kind, mode):
        if creates(kind, mode, top) != dual:
            return True
        return _occupied(bits, base, mode) != ((kind == "psi") != dual)

    groups = {}
    for bits, amp in v.bits.items():
        kept = tuple(
            (i, k) for i, k in entries if lives(bits, "psi*", i) and lives(bits, "psi", k)
        )
        groups.setdefault(kept, {})[bits] = amp
    out = {}
    for kept, states in groups.items():
        sv = v._like(states)
        for (rows, cols), det in bilinear_minors({key: entries[key] for key in kept}).items():
            created, annihilated, passed = [], [], 0
            for kind, at in [("psi*", i) for i in rows] + [("psi", k) for k in reversed(cols)]:
                if creates(kind, at, top):
                    created.append(letter(kind, at))
                    passed += len(annihilated)
                else:
                    annihilated.append(letter(kind, at))
            accumulate(out, ref_apply_word(created + annihilated, sv), -det if passed % 2 else det)
    return v._like(out)


def ref_bbc_check(g, window, quadruples, apply_fn=None):
    """The exchange identity with every term built as a vector."""
    apply_fn = apply_fn or apply_element
    for (nu, lu), (nu2, lu2), (nv, lv), (nv2, lv2) in quadruples:
        bra_u = basis_vector(window, nu, lu, dual=True)
        bra_u2 = basis_vector(window, nu2, lu2, dual=True)
        ket_v = basis_vector(window, nv, lv)
        ket_v2 = basis_vector(window, nv2, lv2)
        g_v, g_v2 = apply_fn(g, ket_v), apply_fn(g, ket_v2)
        u_g, u2_g = apply_fn(g, bra_u), apply_fn(g, bra_u2)
        lhs = rhs = F(0)
        for k in range(window.lo, window.hi):
            t1 = inner(bra_u, ref_apply_mode("psi", k, g_v))
            if t1 != 0:
                lhs += t1 * inner(bra_u2, ref_apply_mode("psi*", k, g_v2))
            t1 = inner(u_g, ref_apply_mode("psi", k, ket_v))
            if t1 != 0:
                rhs += t1 * inner(u2_g, ref_apply_mode("psi*", k, ket_v2))
        if lhs != rhs:
            return ((nu, lu), (nu2, lu2), (nv, lv), (nv2, lv2))
    return None


def outcome(fn, *args, **kwargs):
    """The value, or the exception's type and message."""
    try:
        return fn(*args, **kwargs)
    except Exception as err:
        return type(err), str(err)


# -- strategies ------------------------------------------------------------------------

rationals = st.builds(
    lambda n, sign, d: F(sign * n, d), st.integers(1, 4), st.sampled_from((1, -1)), st.integers(1, 3)
)
polys = st.builds(
    lambda a, b, k: FAM.constant(a) + FAM.time(k) * b, rationals, rationals, st.integers(1, 3)
)
windows = st.builds(ModeWindow, st.integers(-7, -2), st.integers(2, 7))
modes = st.integers(-5, 4)  # some fall outside the narrower windows


@st.composite
def state_dicts(draw, window, size=3, coeffs=st.one_of(rationals, polys)):
    """One to `size` states at charges that fit the window, or, one time in
    four, up to two steps beyond it on either side."""
    spill = draw(st.integers(0, 3)) == 0
    states = {}
    for _ in range(draw(st.integers(1, size))):
        parts = draw(st.sampled_from(SHAPES))
        lo, hi = window.lo + len(parts), window.hi - (parts[0] if parts else 0)
        lo, hi = (min(lo, hi) - 2, max(lo, hi) + 2) if spill or lo > hi else (lo, hi)
        states[(draw(st.integers(lo, hi)), parts)] = draw(coeffs)
    return states


@st.composite
def vectors(draw, window, dual, size=3):
    return FockVector(window, draw(state_dicts(window, size)), dual)


@st.composite
def exponents(draw):
    """(entries, ordering): the bare form of a nilpotent exponent, a bare
    ordered bilinear, or a vacuum-ordered one at a charge in -2..2."""
    pairs = draw(st.lists(st.tuples(modes, modes), min_size=1, max_size=5, unique=True))
    kind = draw(st.sampled_from(("exponent", "bare", "vacuum")))
    if kind == "exponent":
        upper = {(i, k): draw(rationals) for i, k in pairs if i < k}
        return ExponentBilinear(ModeMatrix(upper)).bare.entries, None
    entries = ModeMatrix({key: draw(rationals) for key in pairs}).entries
    return entries, None if kind == "bare" else draw(st.integers(-2, 2))


# -- properties ------------------------------------------------------------------------


@settings(max_examples=400, deadline=None)
@given(exponents(), windows, st.booleans(), st.data())
def test_compiled_words_match_one_vector_per_minor(exponent, window, dual, data):
    entries, ordering = exponent
    v = data.draw(vectors(window, dual))
    got = outcome(_apply_ordered_exponent, entries, ordering, v)
    assert got == outcome(ref_ordered_exponent, entries, ordering, v)
    if isinstance(got, FockVector):
        assert got.dual == dual and got.base == v.base


@st.composite
def mode_letters(draw):
    """A letter of one species with up to three terms, rational or
    polynomial coefficients, and, one time in three, its first mode
    repeated."""
    kind = draw(st.sampled_from(("psi", "psi*")))
    ks = draw(st.lists(modes, min_size=1, max_size=3))
    if draw(st.integers(0, 2)) == 0:
        ks.append(ks[0])
    return tuple((draw(st.one_of(rationals, polys)), kind, k) for k in ks)


@settings(max_examples=300, deadline=None)
@given(windows, st.booleans(), st.lists(mode_letters(), min_size=1, max_size=3), st.data())
def test_mode_letters_match_the_interpreted_flip(window, dual, word, data):
    v = data.draw(vectors(window, dual))
    want = outcome(ref_apply_letter, word[0], v)
    assert outcome(apply_letter, word[0], v) == want
    want = outcome(ref_apply_word, word, v)
    assert outcome(apply_word, word, v) == want
    assert outcome(apply_element, LinearWord(tuple(word)), v) == want
    if isinstance(want, FockVector):
        assert apply_word(word, v).base == want.base


@settings(max_examples=400, deadline=None)
@given(
    windows,
    st.sampled_from(("psi", "psi*")),
    st.sampled_from((1, 4)),
    st.sampled_from((1, 4)),
    st.data(),
)
def test_mode_lookup_matches_the_built_vector(window, kind, bra_size, ket_size, data):
    # sizes 1 and 4 walk either side; the bra holds some of the states the
    # mode reaches, so that terms meet
    k = data.draw(st.integers(window.lo - 1, window.hi))
    ket = data.draw(vectors(window, False, size=ket_size))
    bra = data.draw(state_dicts(window, size=bra_size))
    reached = outcome(lambda: ref_apply_mode(kind, k, ket).states)
    for state in reached if isinstance(reached, dict) else ():
        if data.draw(st.booleans()):
            bra[state] = data.draw(st.one_of(rationals, polys))
    bra = FockVector(window, bra, dual=True)
    assert outcome(inner_mode, bra, kind, k, ket) == outcome(
        lambda: inner(bra, ref_apply_mode(kind, k, ket))
    )


def test_mode_lookup_reads_each_stored_coefficient():
    # a basis bra of odd sign exponent stores -1; against a ket of three
    # states the bra's side is walked, against a basis ket the ket's
    w = ModeWindow(-4, 4)
    bra = basis_vector(w, 1, Partition([2]), dual=True)
    assert list(bra.bits.values()) == [-1]
    # psi_2, psi_-1 and psi_-2 take these to the bra's state
    ket = FockVector(w, {(0, ()): F(1), (0, (3,)): F(2, 3), (0, (3, 1)): F(3)})
    got = []
    for b in (bra, bra.scale(F(5, 7))):
        for v in (ket, basis_vector(w, 0, Partition([]))):
            for kind in ("psi", "psi*"):
                for k in range(w.lo, w.hi):
                    got.append(inner_mode(b, kind, k, v))
                    assert got[-1] == inner(b, ref_apply_mode(kind, k, v))
    assert sum(1 for x in got if x) == 8


def test_mode_lookup_keeps_the_composition_errors():
    w = ModeWindow(-3, 3)
    bra = basis_vector(w, 0, Partition([1]), dual=True)
    ket = basis_vector(w, 0, Partition([1]))
    spill = FockVector(w, {(4, ()): F(1), (0, (1,)): F(2)})  # modes up to 3 filled
    for args in [
        (bra, "psi", 3, ket),  # the mode outside the window
        (bra, "psi*", 1, spill),  # psi*_1 meets the spilling state
        (bra, "psi", 1, spill),  # psi_1 passes it by
        (basis_vector(ModeWindow(-4, 3), 0, Partition([1]), dual=True), "psi", 0, ket),
        (ket, "psi", 0, ket),
        (bra, "psi", 0, bra),
    ]:
        got = outcome(inner_mode, *args)
        assert got == outcome(lambda: inner(args[0], ref_apply_mode(*args[1:])))
    assert outcome(inner_mode, bra, "psi*", 1, spill)[0].__name__ == "WindowViolation"
    assert outcome(inner_mode, bra, "psi", 1, spill) == 0


def spill_apply(g, v):
    """apply_element joined by states outside the window: the factors meet
    states the window does not hold."""
    w = v.window
    return apply_element(g, v) + FockVector(w, {(w.hi + 1, ()): F(3), (w.lo, (1,)): F(-1)}, v.dual)


def poly_apply(g, v):
    """apply_element scaled by a polynomial."""
    return apply_element(g, v).scale(FAM.constant(2) + FAM.time(1))


def fake_apply(_, v):
    """`test_bbc_negative_control`'s non-group-like map: 1 + two bilinears."""
    return (
        v
        + ref_apply_word([letter("psi*", 1), letter("psi", 0)], v)
        + ref_apply_word([letter("psi*", -1), letter("psi", 2)], v)
    )


@st.composite
def elements(draw):
    entries, ordering = draw(exponents())
    return draw(
        st.sampled_from(
            (
                NormalOrderedBilinear(ModeMatrix(entries), ordering),
                Diagonal(((0, F(2)), (-1, F(1, 3)))),
                LinearWord((letter("psi", 1), letter("psi*", -1))),
            )
        )
    )


shapes = st.sampled_from(SHAPES).map(Partition)
# charge-matched quadruples (<U| one above |V>, <U'| one below |V'>), whose
# terms meet, or any charges
quadruples = st.one_of(
    st.builds(
        lambda n, m, a, b, c, d: ((n + 1, a), (m - 1, b), (n, c), (m, d)),
        st.integers(-1, 1), st.integers(-1, 1), shapes, shapes, shapes, shapes,
    ),
    st.tuples(*[st.tuples(st.integers(-1, 1), shapes)] * 4),
)


@settings(max_examples=150, deadline=None)
@given(
    elements(),
    st.builds(ModeWindow, st.integers(-6, -4), st.integers(4, 6)),
    st.lists(quadruples, min_size=1, max_size=3),
    st.sampled_from((None, fake_apply, spill_apply, poly_apply)),
)
@example(  # a group-like element on a quadruple where a dropped sign shows
    NormalOrderedBilinear(ModeMatrix({(-3, 2): F(2), (2, -1): F(1), (-2, -1): F(3)}), 1),
    ModeWindow(-5, 5),
    [((2, Partition([])), (0, Partition([1, 1])), (1, Partition([1, 1])), (1, Partition([2, 1])))],
    None,
)
@example(  # the fake map on a quadruple where a dropped sign shows
    None,
    ModeWindow(-5, 5),
    [((1, Partition([])), (0, Partition([1, 1])), (0, Partition([])), (1, Partition([1, 1, 1])))],
    fake_apply,
)
@example(  # the negative control's witness
    None,
    ModeWindow(-5, 5),
    [((1, Partition([2])), (-1, Partition([2])), (0, Partition([])), (0, Partition([2, 1])))],
    fake_apply,
)
@example(  # g|V> leaves the window: every mode is read, and one empty
    # below the top meets the spilling state, though U = U' pairs no mode
    NormalOrderedBilinear(ModeMatrix({}), None),
    ModeWindow(-4, 4),
    [((0, Partition([])),) * 4],
    spill_apply,
)
def test_exchange_lookups_match_the_built_vectors(g, window, quads, apply_fn):
    got = outcome(bbc_check, g, window, quads, apply_fn=apply_fn)
    assert got == outcome(ref_bbc_check, g, window, quads, apply_fn=apply_fn)
