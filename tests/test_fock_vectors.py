"""Differential property tests for Fock vectors keyed by occupation bits.

A `FockVector` stores occupation ints read from a per-vector base, with
coefficients in wedge phase, and converts to (charge, shape) states only in
its public readers.  The reference below is the earlier route on plain
{(charge, parts): coefficient} dicts: every operator converts each state to
bits and back and applies both shapes' sign exponents per term.  Both must
give the same states and coefficients, or raise the same exception type, on
random windows, charges, shapes, rational and polynomial coefficients, kets
and bras, including states that stick out of the window.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tauforge.fock import (
    FockVector,
    ModeWindow,
    WindowViolation,
    _state_of_bits,
    apply_current_exp,
    inner,
    occupation_bits,
    project,
    skew_schur_signed,
)
from tauforge.partitions import Partition, enumerate_partitions, sign_exponent
from tauforge.polyring import Poly, standard_single_family

DEPTH = 3
FAM = standard_single_family(DEPTH)
SHAPES = [lam.parts for w in range(4) for lam in enumerate_partitions(w)]

# -- reference: operators on (charge, parts) dicts ---------------------------------


def ref_nonzero(states):
    return {s: c for s, c in states.items() if c}


def ref_add(out, key, term):
    acc = out.get(key)
    out[key] = term if acc is None else acc + term


def ref_check_state_window(window, n, parts):
    if n + (parts[0] if parts else 0) - 1 >= window.hi or n - len(parts) < window.lo:
        raise WindowViolation(f"state (charge {n}, shape {parts}) exceeds window {window}")


def ref_current_into(out, k, window, states, dual, coeff):
    lo, width = window.lo, window.hi - window.lo
    up = (k < 0) != dual
    s = abs(k)
    low, passed = (1 << s) - 1, (1 << (s - 1)) - 1
    for (n, parts), c in states.items():
        base = min(lo, n - len(parts))
        bits = occupation_bits(n, parts, base)
        if up and (~bits & low or bits >> max(width - s, 0)):
            raise WindowViolation(f"J_{k} on state ({n}, {parts}) leaves window {window}")
        hops = bits & ~(bits >> s) if up else bits & ~((bits << s) | low)
        if not hops:
            continue
        ref_check_state_window(window, n, parts)
        phase = sign_exponent(parts)
        term = c * coeff
        signed = (term, -term)
        while hops:
            m = hops.bit_length() - 1
            hops ^= 1 << m
            t = m + s if up else m - s
            key = _state_of_bits(bits ^ (1 << m) ^ (1 << t), lo)
            between = (bits >> (min(m, t) + 1) & passed).bit_count()
            ref_add(out, key, signed[(between + phase + sign_exponent(key[1])) & 1])


def ref_current_exp_direct(direction, family, window, states, dual, depth, scale=1):
    """The exponential as a series of current hops by J_1..J_depth, one state
    at a time (so `depth` caps each state's growth), checking each hop's window."""
    out = {}
    for s, c in states.items():
        out = ref_sum(out, ref_current_series(direction, family, window, {s: c}, dual, depth, scale))
    return out


def ref_current_series(direction, family, window, states, dual, depth, scale):
    mode_sign = -1 if direction == "lower" else +1
    coeffs = {mode_sign * k: family.time(k) * scale for k in range(1, depth + 1)}
    cap = max((sum(p) for _, p in states), default=0) + depth
    term = ref_nonzero({s: c * family.one() for s, c in states.items()})
    out = dict(term)
    step = 1
    while True:
        acc = {}
        for k, c in coeffs.items():
            ref_current_into(acc, k, window, term, dual, c * Fraction(1, step))
        term = ref_nonzero(acc)
        if direction == "lower":
            term = {s: c for s, c in term.items() if sum(s[1]) <= cap}
        if not term:
            return ref_nonzero(out)
        for s, c in term.items():
            ref_add(out, s, c)
        step += 1
        if step > 4 * (depth + 4) + sum(len(p) + sum(p) for _, p in states):
            raise RuntimeError("current exponential failed to terminate")


def ref_current_exp(direction, family, window, states, dual, depth, scale=1):
    grow = (direction == "lower") != dual
    out = {}
    for (n, parts), c in states.items():
        lam = Partition(parts)
        for mu in enumerate_partitions(lam.weight + depth if grow else lam.weight):
            big, small = (mu, lam) if grow else (lam, mu)
            if not big.contains(small):
                continue
            coeff = skew_schur_signed(family, big, small, scale)
            if coeff.is_zero:
                continue
            phase = (-1) ** (big.sign_exponent() - small.sign_exponent())
            ref_add(out, (n, mu.parts), c * coeff * phase)
    out = ref_nonzero(out)
    for n, parts in out if grow else ():
        ref_check_state_window(window, n, parts)
    return out


def ref_project(kind, states, n, shape):
    out = {}
    for (m, parts), c in states.items():
        if kind == "plus":
            keep = len(parts) <= m - n
        elif kind == "minus":
            keep = (parts[0] if parts else 0) <= n - m
        else:
            base = min(n - shape.length, m - len(parts))
            mine = occupation_bits(m, parts, base)
            ref = occupation_bits(n, shape.parts, base)
            keep = not (ref & ~mine if kind == "plus_state" else mine & ~ref)
        if keep:
            out[(m, parts)] = c
    return out


def ref_sum(a, b):
    out = dict(a)
    for s, c in b.items():
        ref_add(out, s, c)
    return ref_nonzero(out)


def ref_inner(bra, ket):
    total = None
    for s, c in bra.items():
        d = ket.get(s)
        if d is not None:
            total = c * d if total is None else total + c * d
    return Fraction(0) if total is None else total


# -- strategies ------------------------------------------------------------------

fractions = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))
polys = st.builds(
    lambda a, b, k: FAM.constant(a) + FAM.time(k) * b,
    fractions,
    fractions,
    st.integers(1, DEPTH),
)
windows = st.integers(-8, 2).flatmap(
    lambda lo: st.integers(2, 12).map(lambda width: ModeWindow(lo, lo + width))
)


@st.composite
def state_dicts(draw, window, coeffs, size=3):
    """Up to `size` states; charges that fit the window, and up to two
    steps beyond on either side.  Coefficients may be zero."""
    states = {}
    for _ in range(draw(st.integers(0, size))):
        parts = draw(st.sampled_from(SHAPES))
        fit = (window.lo + len(parts), window.hi - (parts[0] if parts else 0))
        n = draw(st.integers(min(fit) - 2, max(fit) + 2))
        states[(n, parts)] = draw(coeffs)
    return states


@st.composite
def vector_cases(draw, coeffs=st.one_of(fractions, polys)):
    window = draw(windows)
    return window, draw(state_dicts(window, coeffs)), draw(st.booleans())


def outcome(fn, *args):
    try:
        got = fn(*args)
    except Exception as err:  # the exception type is part of the contract
        return type(err)
    return got.states if isinstance(got, FockVector) else got


# -- properties ------------------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(vector_cases())
def test_constructor_round_trips_through_every_reader(case):
    window, states, dual = case
    v = FockVector(window, states, dual)
    want = ref_nonzero(states)
    assert v.states == want
    assert v.is_zero == (not want)
    assert v == FockVector(window, want, dual)
    for (n, parts), c in states.items():
        assert v.component(n, parts) == (c if c else 0)
        assert v.component(n, Partition(parts)) == (c if c else 0)
    for n in range(window.lo - 3, window.hi + 3):
        for parts in SHAPES:
            if (n, parts) not in want:
                assert v.component(n, parts) == 0
    assert v.charges() == {n for n, _ in want}
    for n in v.charges() | {window.lo}:
        assert v.restrict_charge(n).states == {s: c for s, c in want.items() if s[0] == n}
    for weight in range(4):
        assert v.truncated(weight).states == {s: c for s, c in want.items() if sum(s[1]) <= weight}
    assert v.to_json() == [
        {"charge": n, "partition": list(p), "coeff": str(c)} for (n, p), c in sorted(want.items())
    ]


@settings(max_examples=200, deadline=None)
@given(
    vector_cases(coeffs=polys),
    st.sampled_from(("lower", "raise")),
    st.sampled_from((1, -1, -2, Fraction(2, 3))),
    st.integers(1, DEPTH),
)
# the state route hops by up to `depth` from every state of its last
# nonzero term, past the family's cutoff: J_-2 on shape (2) in [-3, 3) raises
@example((ModeWindow(-3, 3), {(0, ()): Fraction(1)}, False), "lower", 1, 2)
@example((ModeWindow(-3, 3), {(0, ()): FAM.time(1)}, False), "lower", 1, 2)
# t2 J_-1 |(1)> and t1 J_-2 |()> cancel on shape (2): the t1 t2 term of the
# first level sums to zero across the monomials t1 and t2
@example((ModeWindow(-4, 5), {(0, (1,)): FAM.time(2), (0, ()): FAM.time(1)}, False), "lower", 1, 2)
# only nonzero result states meet the window: the grown <(2)| sticks out,
# and its coefficient t2 s_(2) truncates to zero
@example((ModeWindow(-1, 1), {(0, ()): FAM.time(2)}, True), "raise", 1, 2)
# the shrinking side hops by every time, past `depth`: t1 <(2)| reaches t1 t2 <0|
@example((ModeWindow(-1, 1), {(0, (2,)): FAM.time(1)}, True), "lower", 1, 1)
# `depth` caps a bra's growth too: t1 <0| grows by one box, not to (2)
@example((ModeWindow(-1, 1), {(0, ()): FAM.time(1)}, True), "raise", 1, 1)
# the hole a raised bra leaves below the window's base is read before it is
# shifted back: <0| in (0, 2) raises
@example((ModeWindow(0, 2), {(0, ()): Fraction(1)}, True), "raise", 1, 1)
# `depth` caps each state's growth: |()> grows by one box beside |(1, 1)>
@example(
    (ModeWindow(-8, 8), {(0, ()): Fraction(1), (0, (1, 1)): Fraction(1)}, False), "lower", 1, 1
)
def test_current_exponentials_match_the_state_route(case, direction, scale, depth):
    """The tree route against the skew placement on every case, and against
    the hop-by-hop series on lowered kets where that series' own window rule
    (every hop in the window) raises nothing."""
    window, states, dual = case
    v = FockVector(window, states, dual)
    got = outcome(apply_current_exp, direction, FAM, v, depth, scale)
    args = (direction, FAM, window, ref_nonzero(states), dual, depth, scale)
    assert got == outcome(ref_current_exp, *args)
    if direction == "lower" and not dual:
        want = outcome(ref_current_exp_direct, *args)
        assert want is WindowViolation or got == want


def test_current_exponential_of_a_rational_ket_multiplies_no_polynomials():
    """On rational coefficients the current exponential hops on the rationals
    and builds each polynomial once from its terms: no product of two `Poly`s."""
    window = ModeWindow(-9, 9)
    cases = [
        (direction, FockVector(window, {(n, parts): Fraction(1)}, dual))
        for direction in ("lower", "raise")
        for dual in (False, True)
        for n, parts in ((0, ()), (1, (2, 1)), (-1, (3,)))
    ]
    products = []
    mul = Poly.__mul__

    def spy(self, other):
        if isinstance(other, Poly):
            products.append((self, other))
        return mul(self, other)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Poly, "__mul__", spy)
        patch.setattr(Poly, "__rmul__", spy)
        got = [apply_current_exp(direction, FAM, v, DEPTH) for direction, v in cases]
    assert products == []
    for (direction, v), out in zip(cases, got):
        assert out.states == ref_current_exp(direction, FAM, window, v.states, v.dual, DEPTH)
    assert sum(len(out.states) for out in got) > 2 * len(cases)


@settings(max_examples=300, deadline=None)
@given(
    windows.flatmap(
        lambda w: st.tuples(
            st.just(w),
            state_dicts(w, st.one_of(fractions, polys)),
            state_dicts(w, st.one_of(fractions, polys)),
            st.booleans(),
        )
    ),
    st.one_of(fractions, polys),
)
def test_sums_scales_and_pairings_match_the_state_route(case, c):
    window, a, b, dual = case
    u, w = FockVector(window, a, dual), FockVector(window, b, dual)
    a, b = ref_nonzero(a), ref_nonzero(b)
    assert (u + w).states == ref_sum(a, b)
    assert (u - w).states == ref_sum(a, {s: -x for s, x in b.items()})
    assert u.scale(c).states == ref_nonzero({s: x * c for s, x in a.items()})
    bra, ket = FockVector(window, a, dual=True), FockVector(window, b)
    assert inner(bra, ket) == ref_inner(a, b)
    assert inner(bra, FockVector(window, a)) == ref_inner(a, a)


@settings(max_examples=300, deadline=None)
@given(
    vector_cases(),
    st.sampled_from(("plus", "minus", "plus_state", "minus_state")),
    st.integers(-6, 6),
    st.sampled_from(SHAPES),
)
def test_projectors_match_the_state_route(case, kind, n, parts):
    window, states, dual = case
    got = project(kind, FockVector(window, states, dual), n, Partition(parts))
    assert got.states == ref_project(kind, ref_nonzero(states), n, Partition(parts))
