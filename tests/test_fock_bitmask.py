"""Differential property tests for the bitmask Fock operators.

`apply_mode` and `apply_current` flip bits of an occupation int.  They are
compared here with the earlier set-based implementation, kept below as the
reference: it rebuilds each state's Maya set, re-canonicalises the result
and composes every current hop from two mode operators.  Both must give
the same states and coefficients, or raise the same exception type, on
random windows, charges, shapes, coefficients and kets or bras, including
source states that stick out of the window.
"""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from tauforge.fock import (
    FockVector,
    ModeWindow,
    WindowViolation,
    _state_of_bits,
    apply_charge,
    apply_current,
    apply_mode,
    occupancy,
    occupation_bits,
)
from tauforge.partitions import (
    Partition,
    enumerate_partitions,
    maya_canonicalize,
    maya_set,
    sign_exponent,
)
from tauforge.polyring import standard_single_family

# -- reference: the set-based operators -----------------------------------------


def ref_occupied_above(n, parts, k):
    count = 0
    i = 1
    while True:
        mode = n + (parts[i - 1] if i <= len(parts) else 0) - i
        if mode <= k:
            return count
        count += 1
        i += 1


def ref_sign_exponent(lam):
    """Sum of (leg length + 1) over the diagonal hooks, from the Frobenius
    coordinates."""
    return sum(b + 1 for b in lam.frobenius().betas)


def ref_shape_sign(parts):
    return (-1) ** ref_sign_exponent(Partition(parts))


def ref_letter_on_state(kind, k, state, dual):
    n, parts = state
    filling = (kind == "psi") != dual
    occupied = maya_set(n, Partition(parts)).contains(k)
    if filling == occupied:
        return None
    floor = min(k, n - len(parts)) - 2
    modes = set()
    i = 1
    while True:
        m = n + (parts[i - 1] if i <= len(parts) else 0) - i
        if m < floor:
            break
        modes.add(m)
        i += 1
    above = ref_occupied_above(n, parts, k)
    if filling:
        modes.add(k)
    else:
        modes.remove(k)
    n2, lam2 = maya_canonicalize(floor, modes)
    sign = ((-1) ** above) * ref_shape_sign(parts) * ref_shape_sign(lam2.parts)
    return (n2, lam2.parts), sign


def ref_check_state_window(window, n, shape):
    if n + shape.part(1) - 1 >= window.hi or n - shape.length < window.lo:
        raise WindowViolation(f"state ({n}, {shape}) exceeds window {window}")


def ref_apply_mode(kind, k, v):
    v.window.require(k)
    out = {}
    for s, c in v.states.items():
        hit = ref_letter_on_state(kind, k, s, v.dual)
        if hit is None:
            continue
        s2, sign = hit
        ref_check_state_window(v.window, s2[0], Partition(s2[1]))
        term = c * sign
        acc = out.get(s2)
        acc = term if acc is None else acc + term
        if acc == 0 or getattr(acc, "is_zero", False):
            out.pop(s2, None)
        else:
            out[s2] = acc
    return FockVector(v.window, out, v.dual)


def ref_apply_current(k, v):
    if k == 0:
        return apply_charge(v)
    out = FockVector(v.window, {}, v.dual)
    for (n, parts), c in v.states.items():
        base = FockVector(v.window, {(n, parts): c}, v.dual)
        maya = maya_set(n, Partition(parts))
        floor = n - len(parts) - abs(k) - 1
        i = 1
        while True:
            m = n + (parts[i - 1] if i <= len(parts) else 0) - i
            if m < floor:
                break
            i += 1
            target = m - k if not v.dual else m + k
            if maya.contains(target):
                continue
            if not v.dual:
                step = ref_apply_mode("psi", target, ref_apply_mode("psi*", m, base))
            else:
                step = ref_apply_mode("psi*", target, ref_apply_mode("psi", m, base))
            out = out + step
    return out


# -- strategies ------------------------------------------------------------------

FAM = standard_single_family(3)
SHAPES = enumerate_partitions(5)

fractions = st.builds(Fraction, st.integers(-4, 4).filter(bool), st.integers(1, 3))
polys = st.builds(
    lambda a, b, k: FAM.constant(a) + FAM.time(k) * b,
    fractions,
    fractions,
    st.integers(1, 3),
)


@st.composite
def vectors(draw):
    lo = draw(st.integers(-8, 2))
    window = ModeWindow(lo, lo + draw(st.integers(2, 14)))
    coeffs = draw(st.sampled_from((fractions, polys)))
    states = {}
    for _ in range(draw(st.integers(1, 3))):
        lam = draw(st.sampled_from(SHAPES))
        # charges that fit the window, and one step beyond on either side
        fit = (window.lo + lam.length, window.hi - lam.part(1))
        n = draw(st.integers(min(fit) - 1, max(fit) + 1))
        states[(n, lam.parts)] = draw(coeffs)
    return FockVector(window, states, draw(st.booleans()))


def outcome(op, *args):
    try:
        return op(*args).states
    except Exception as err:  # the exception type is part of the contract
        return type(err)


# -- properties ------------------------------------------------------------------


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_mode_operators_match_reference(v):
    for k in range(v.window.lo - 1, v.window.hi + 1):
        for kind in ("psi", "psi*"):
            assert outcome(apply_mode, kind, k, v) == outcome(
                ref_apply_mode, kind, k, v
            ), (kind, k)


@settings(max_examples=200, deadline=None)
@given(vectors())
def test_currents_match_reference(v):
    for k in range(-5, 6):
        assert outcome(apply_current, k, v) == outcome(ref_apply_current, k, v), k


def test_phase_is_the_sign_exponent():
    for lam in enumerate_partitions(10):
        assert sign_exponent(lam.parts) == lam.sign_exponent() == ref_sign_exponent(lam), lam


@given(st.sampled_from(SHAPES), st.integers(-6, 6), st.integers(0, 4))
def test_bits_round_trip_and_occupancy(lam, n, depth):
    base = n - lam.length - depth
    bits = occupation_bits(n, lam.parts, base)
    assert _state_of_bits(bits, base) == (n, lam.parts)
    maya = maya_set(n, lam)
    occupied = occupancy(n, lam.parts)
    for k in range(base - 3, n + lam.part(1) + 3):
        assert occupied(k) == maya.contains(k), k
