"""Boson-fermion correspondence: the polynomial-space map, vertex
operators, bosonization rules and the current expansion.

The polynomial image of a state assigns each charge sector the raising
expectation against that sector (a truncated polynomial); fields become
vertex operators with a two-sided spectral grading (positive powers from
the exponential prefactor, negative powers from the derivative
exponential).  All spectral series are handled coefficient-by-coefficient
over an explicit exponent range, and every identity check here compares
exact objects on that range.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial, prod

from tauforge.fock import (
    FockVector,
    ModeWindow,
    _add_into,
    _current_tree,
    _weight,
    apply_charge,
    apply_current,
    apply_mode,
    inner,
    vacuum,
    vacuum_readout,
)
from tauforge.polyring import Poly, TimeFamily

# -- the polynomial-space map -------------------------------------------------


def bosonize(v: FockVector, family: TimeFamily) -> dict[int, Poly]:
    """Charge-indexed polynomial image: sector l maps to the raising
    expectation of the sector component."""
    out: dict[int, Poly] = {}
    for l in sorted(v.charges()):
        val = vacuum_readout(family, v.restrict_charge(l), l)
        if val:
            out[l] = val
    return out


def current_image_check(k: int, v: FockVector, family: TimeFamily) -> bool:
    """The current mode acts on the polynomial image as: d/dt_k for k > 0,
    charge multiplication at k = 0, and multiplication by |k| t_|k| for
    k < 0 (verified sector by sector)."""
    lhs = bosonize(apply_current(k, v), family)
    image = bosonize(v, family)
    rhs: dict[int, Poly] = {}
    for l, poly in image.items():
        if k > 0:
            cand = poly.derivative(family.names[k - 1])
        elif k == 0:
            cand = poly * l
        else:
            cand = poly * family.time(-k) * (-k)
        if not cand.is_zero:
            rhs[l] = cand
    if k < 0:
        # multiplication can push monomials over the cutoff that the
        # operator route grew before truncation; compare below the edge
        cut = family.cutoffs[family.grading] - (-k)
        lhs = {l: p.truncate({family.grading: cut}) for l, p in lhs.items()}
        rhs = {l: p.truncate({family.grading: cut}) for l, p in rhs.items()}
        lhs = {l: p for l, p in lhs.items() if not p.is_zero}
        rhs = {l: p for l, p in rhs.items() if not p.is_zero}
    return lhs == rhs


# -- vertex operators ------------------------------------------------------------

# A spectral-graded bosonic state: (charge, spectral exponent) -> Poly.
VertexState = dict[tuple[int, int], Poly]


def vertex_apply(
    kind: str,
    state: VertexState,
    family: TimeFamily,
    depth: int,
    exp_window: tuple[int, int],
) -> VertexState:
    """Apply the raising ("psi") or lowering ("psi*") vertex operator,
    keeping spectral exponents within exp_window (inclusive)."""
    lo, hi = exp_window
    out: VertexState = {}
    for (l, e), poly in state.items():
        charge_shift = +1 if kind == "psi" else -1
        parts = family.miwa_parts(poly, depth, sign=-1 if kind == "psi" else +1)
        for a in range(0, depth + 1):
            pref = family.h(a, sign=+1 if kind == "psi" else -1)
            if pref.is_zero:
                continue
            for m, derived in enumerate(parts):
                if derived.is_zero:
                    continue
                if kind == "psi":
                    newexp = e + l + a - m
                else:
                    newexp = e - (l - 1) + a - m
                if not (lo <= newexp <= hi):
                    continue
                key = (l + charge_shift, newexp)
                term = pref * derived
                out[key] = out.get(key, family.zero()) + term
    return {k: p for k, p in out.items() if not p.is_zero}


def field_image(
    kind: str, v: FockVector, family: TimeFamily, exp_window: tuple[int, int]
) -> VertexState:
    """Spectral-coefficient family of the field applied in the fermion
    picture, then bosonized: for "psi" the coefficient of exponent e is
    the mode-e insertion, for "psi*" the mode -e insertion."""
    lo, hi = exp_window
    out: VertexState = {}
    for e in range(lo, hi + 1):
        mode = e if kind == "psi" else -e
        hit = apply_mode(kind, mode, v)
        if hit.is_zero:
            continue
        for l, poly in bosonize(hit, family).items():
            out[(l, e)] = poly
    return out


def correspondence_check(
    v: FockVector,
    family: TimeFamily,
    depth: int,
    exp_window: tuple[int, int],
) -> bool:
    """Both fields agree with their vertex operators on the polynomial
    image, coefficient-by-coefficient over the exponent window."""
    image: VertexState = {(l, 0): poly for l, poly in bosonize(v, family).items()}
    for kind in ("psi", "psi*"):
        via_fock = field_image(kind, v, family, exp_window)
        via_vertex = vertex_apply(kind, image, family, depth, exp_window)
        if via_fock != via_vertex:
            return False
    return True


# -- bosonization rules -------------------------------------------------------------


def _field_series(
    n: int, kind: str, window: ModeWindow, weight_cap: int, dual: bool
) -> dict[int, FockVector]:
    out: dict[int, FockVector] = {}
    for e in range(-window.hi - weight_cap, window.hi + weight_cap):
        mode = e if kind == "psi" else -e
        if not window.contains(mode):
            continue
        vec = apply_mode(kind, mode, vacuum(window, n, dual)).truncated(weight_cap)
        if not vec.is_zero:
            out[e] = vec
    return out


def bra_field_series(
    n: int, kind: str, window: ModeWindow, weight_cap: int
) -> dict[int, FockVector]:
    """<n| field(z) as a spectral-exponent family of bras, keeping states
    of weight at most weight_cap."""
    return _field_series(n, kind, window, weight_cap, dual=True)


def ket_field_series(
    n: int, kind: str, window: ModeWindow, weight_cap: int
) -> dict[int, FockVector]:
    return _field_series(n, kind, window, weight_cap, dual=False)


def _current_exp_series(
    v: FockVector, mode_sign: int, c: int, weight_cap: int
) -> dict[int, FockVector]:
    """exp(c * sum_m x^m J_{mode_sign m} / m) applied to v, as a map from
    the exponent of x to vectors, truncated at total flow weight
    weight_cap (x is z^-1 for the raising currents, z for the lowering
    ones): node m of the current tree, every hop checked, adds
    c^|m| J^m v / prod_k k^e_k e_k! at its total weight."""
    out: dict[int, dict] = {0: {}}
    for level in _current_tree(v, list(range(1, weight_cap + 1)), mode_sign, weight_cap, True):
        for m, total, states in level:
            scale = Fraction(c ** sum(e for _, e in m), prod(k**e * factorial(e) for k, e in m))
            for b, x in states.items():
                _add_into(out.setdefault(total, {}), b, x * scale)
    return {e: v._like(sums) for e, sums in out.items()}


def raising_miwa_series(
    v: FockVector, strength: int, weight_cap: int, direction: int = -1
) -> dict[int, FockVector]:
    """exp(direction * strength * sum_m z^-m J_m / m) applied to a bra or
    ket, as a map from the inverse-spectral exponent to vectors, truncated
    at total flow weight weight_cap."""
    return _current_exp_series(v, +1, direction * strength, weight_cap)


def left_bosonization_series(
    n: int, kind: str, window: ModeWindow, weight_cap: int
) -> dict[int, FockVector]:
    """The right-hand side of the left-vacuum bosonization rule as a
    spectral family:

      "psi":  z^(n-1) <n-1| exp(-sum z^-m J_m / m)
      "psi*": z^(-n)  <n+1| exp(+sum z^-m J_m / m)
    """
    if kind == "psi":
        base = vacuum(window, n - 1, dual=True)
        offset = n - 1
        direction = -1
    else:
        base = vacuum(window, n + 1, dual=True)
        offset = -n
        direction = +1
    flow = raising_miwa_series(base, 1, weight_cap, direction)
    return {offset - e: vec for e, vec in flow.items() if not vec.is_zero}


def right_bosonization_series(
    n: int, kind: str, window: ModeWindow, weight_cap: int
) -> dict[int, FockVector]:
    """The right-vacuum rules:

      "psi":  field(z)|n> = z^n     exp(+sum z^m J_{-m} / m) |n+1>
      "psi*": field(z)|n> = z^(1-n) exp(-sum z^m J_{-m} / m) |n-1>

    returned as exponent -> ket (positive spectral powers here)."""
    if kind == "psi":
        base = vacuum(window, n + 1)
        offset = n
        direction = +1
    else:
        base = vacuum(window, n - 1)
        offset = 1 - n
        direction = -1
    flow = _current_exp_series(base, -1, direction, weight_cap)
    return {offset + e: vec for e, vec in flow.items()}


def merged_point_bra_series(
    n: int, order_count: int, window: ModeWindow, weight_cap: int
) -> dict[int, FockVector]:
    """<n| d^(m-1)field ... d field field at one point, spectral family.

    Computed mode-wise: the product over window modes of the derivative
    falling factors, applied to the left vacuum."""
    out: dict[int, FockVector] = {0: vacuum(window, n, dual=True)}
    for r in range(order_count - 1, -1, -1):
        new: dict[int, FockVector] = {}
        for e, bra in out.items():
            for k in range(window.lo, window.hi):
                fall = 1
                for j in range(r):
                    fall *= k - j
                if fall == 0:
                    continue
                hit = apply_mode("psi", k, bra).scale(Fraction(fall))
                if hit.is_zero:
                    continue
                key = e + k - r
                if key in new:
                    new[key] = new[key] + hit
                else:
                    new[key] = hit
        out = {e: v for e, v in new.items() if not v.is_zero}
    # intermediate weights may overshoot the cap and come back, so trim
    # only the final family
    trimmed = {e: bra.truncated(weight_cap) for e, bra in out.items()}
    return {e: bra for e, bra in trimmed.items() if not bra.is_zero}


def merged_point_prediction(
    n: int, order_count: int, window: ModeWindow, weight_cap: int
) -> tuple[int, dict[int, FockVector]]:
    """Unit prefactor and spectral family of the merged-point rule:
    product of factorials times z^(m(n-m)) times the m-fold lowering of
    the charge-shifted bra."""
    unit = 1
    for j in range(1, order_count):
        unit *= factorial(j)
    base = vacuum(window, n - order_count, dual=True)
    flow = raising_miwa_series(base, order_count, weight_cap, -1)
    offset = order_count * (n - order_count)
    return unit, {offset - e: vec for e, vec in flow.items() if not vec.is_zero}


# -- the current expansion around coincident points -----------------------------------


def normal_ordered_pair_element(
    bra: FockVector, ket: FockVector, eps_order: int, z_window: tuple[int, int]
) -> dict[tuple[int, int], Fraction]:
    """<bra| ordered[field(z+eps) field*(z)] |ket> expanded through
    eps_order, as {(eps power, z power): value}."""
    window = bra.window
    out: dict[tuple[int, int], Fraction] = {}

    def add(eps, zexp, val):
        if val == 0:
            return
        key = (eps, zexp)
        out[key] = out.get(key, Fraction(0)) + val
        if out[key] == 0:
            del out[key]

    zlo, zhi = z_window
    for k in range(window.lo, window.hi):
        for j in range(window.lo, window.hi):
            ordered = apply_mode("psi*", j, ket)
            ordered = apply_mode("psi", k, ordered)
            val = inner(bra, ordered)
            if k == j and j < 0:
                same = inner(bra, ket)
                val = val - same
            if val == 0:
                continue
            # (z + eps)^k z^{-j} through eps_order
            for m in range(eps_order + 1):
                binom = Fraction(1)
                for x in range(m):
                    binom = binom * (k - x) / (x + 1)
                zexp = k - m - j
                if zlo <= zexp <= zhi:
                    add(m, zexp, val * binom)
    return out


def _phi_derivative_modes(r: int, budget: int) -> list[tuple[int, int, Fraction]]:
    """Terms (z power, current mode, coefficient) of the r-th z-derivative
    of the chiral field, with |mode| <= budget."""
    terms: list[tuple[int, int, Fraction]] = []
    for k in range(1, budget + 1):
        fall = Fraction(1)
        for j in range(1, r):
            fall *= k - j
        terms.append((k - r, -k, fall))
    # the log term
    logc = Fraction((-1) ** (r - 1) * factorial(r - 1))
    terms.append((-r, 0, logc))
    for k in range(1, budget + 1):
        # d^r/dz^r [-z^-k / k] = -(-k)(-k-1)...(-k-r+1) z^{-k-r} / k
        c = Fraction(-1, k)
        for j in range(0, r):
            c *= -k - j
        terms.append((-k - r, k, c))
    return terms


def current_expansion_prediction(
    bra: FockVector,
    ket: FockVector,
    eps_order: int,
    z_window: tuple[int, int],
) -> dict[tuple[int, int], Fraction]:
    """Matrix elements of z (phi' + eps/2 (:phi'^2: + phi'') +
    eps^2/6 (:phi'^3: + 3 :phi' phi'': + phi''')) through eps_order."""
    window = bra.window
    bra_weights = {_weight(b) for b in bra.bits}
    ket_weights = {_weight(b) for b in ket.bits}
    budget = max(bra_weights | ket_weights, default=0) + 3
    zlo, zhi = z_window
    out: dict[tuple[int, int], Fraction] = {}

    def add(eps, zexp, val):
        if val == 0:
            return
        key = (eps, zexp)
        out[key] = out.get(key, Fraction(0)) + val
        if out[key] == 0:
            del out[key]

    def apply_modes(modes, vec):
        # bosonic ordering puts creation (negative) modes left, so the kets
        # meet the annihilation-side (largest) modes first
        cur = vec
        for m in sorted(modes, reverse=True):
            if m == 0:
                cur = apply_charge(cur)
            else:
                cur = apply_current(m, cur)
            if cur.is_zero:
                return cur
        return cur

    deltas = {wb - wk for wb in bra_weights for wk in ket_weights}

    def add_product(parts_lists, eps_power, scale):
        # parts_lists: list of derivative orders, e.g. [1, 1] for phi'^2
        def rec(i, zexp, modes, coeff):
            if i == len(parts_lists):
                # the sequence changes weight by -sum(modes); prune anything
                # that cannot land on a bra weight (also keeps intermediate
                # states inside the window)
                if -sum(modes) not in deltas:
                    return
                vec = apply_modes(modes, ket)
                if vec.is_zero:
                    return
                val = inner(bra, vec)
                if val:
                    ztot = zexp + 1  # the overall factor z
                    if zlo <= ztot <= zhi:
                        add(eps_power, ztot, val * coeff * scale)
                return
            for zp, mode, c in _phi_derivative_modes(parts_lists[i], budget):
                rec(i + 1, zexp + zp, modes + [mode], coeff * c)

        rec(0, 0, [], Fraction(1))

    add_product([1], 0, Fraction(1))
    if eps_order >= 1:
        add_product([1, 1], 1, Fraction(1, 2))
        add_product([2], 1, Fraction(1, 2))
    if eps_order >= 2:
        add_product([1, 1, 1], 2, Fraction(1, 6))
        add_product([1, 2], 2, Fraction(3, 6))  # ordering merges both arrangements
        add_product([3], 2, Fraction(1, 6))
    return out
