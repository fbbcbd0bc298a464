"""Bilinear-identity verifiers for truncated tau-series.

Every check reports the weight through which vanishing was actually
established -- a check never claims more than the truncation supports --
and hands back the first offending monomial as a counterexample when an
identity fails.  The Hirota equations hold weight by weight, so the
bilinear checks form no product term beyond the weight they verify.

The residue identities are realized coefficient-wise: the spectral
parameter is eliminated in favor of an auxiliary shift family living in
the same grading as the times, so one cutoff bounds time weight and
shift degree together.  Expanded in the shift, the residue total's
coefficients are the Hirota equations, so the KP equation needs no product
of its own: `kp_checks`, the `verify --suite kp` route, reads it off the
total the residue check forms.  `kp_equation_check` keeps its own
bilinear product as the independent route the tests compare it with.  The
three-term identities clear their pole prefactors with the
inverse-parameter unit variables, making each a polynomial identity.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import partial

from tauforge.polyring import Poly, TimeFamily, hirota_bilinear, sum_of_products


@dataclass
class CheckReport:
    name: str
    ok: bool
    verified_weight: int
    counterexample: dict | list | None = None

    def __bool__(self) -> bool:
        return self.ok

    def to_json(self) -> dict:
        out = {
            "check": self.name,
            "ok": self.ok,
            "verified_weight": self.verified_weight,
        }
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        return out


def _report(name: str, residual: Poly, verified: int, grading: str) -> CheckReport:
    return _verdict(name, residual.truncate({grading: verified}), verified)


def _verdict(name: str, bad: Poly, verified: int) -> CheckReport:
    """Pass when `bad` (the residual within the verified range) vanishes,
    else report its first term as the counterexample."""
    if bad.is_zero:
        return CheckReport(name, True, verified)
    key, coeff = bad.sorted_terms()[0]
    mono = {bad.table.variables[i].name: e for i, e in key}
    return CheckReport(
        name, False, verified, {"monomial": mono, "coefficient": str(coeff)}
    )


def _least_cutoff(name: str, family: TimeFamily, verified: int) -> None:
    """Refuse a check whose cutoff leaves a negative weight to verify: it
    would compare nothing."""
    if verified < 0:
        cutoff = family.cutoffs[family.grading]
        raise ValueError(f"{name} needs a cutoff of at least {cutoff - verified}, got {cutoff}")


def residue_check(
    tau_left: Poly,
    tau_right: Poly,
    family: TimeFamily,
    shift: TimeFamily,
    charge_gap: int = 0,
) -> CheckReport:
    """The spectral-residue identity between two series whose charges
    differ by `charge_gap` >= 0 (0 is the single-series case):

    sum_{j > gap} h_{j-gap-1}(-2a) h_j(scaled d/da) [tau_l(t-a) tau_r(t+a)] = 0,

    verified through weight cutoff - 1 - gap.  Each h_j(scaled d/da) F is
    the coefficient of w^j in F(a + [w]) (`TimeFamily.miwa_parts`).  For a
    single series, tau(t+a) = E + O by the parity of the degree in a, and
    tau(t-a) tau(t+a) = E^2 - O^2.  Every term takes some a-derivative,
    which kills the a-free square, so with E = E0 + E1, E0 the a-free
    terms, the product formed is 2 E0 E1 + E1^2 - O^2.
    """
    if charge_gap < 0:
        raise ValueError("charge gap must be >= 0")
    name = "kp_residue" if charge_gap == 0 else f"mkp_residue_gap{charge_gap}"
    depth = family.cutoffs[family.grading]
    # each term consumes gap+1 net derivative orders of the truncated input
    verified = depth - 1 - charge_gap
    _least_cutoff(name, family, verified)
    total = _residue_total(tau_left, tau_right, family, shift, charge_gap)
    return _report(name, total, verified, family.grading)


def _residue_total(
    tau_left: Poly, tau_right: Poly, family: TimeFamily, shift: TimeFamily, gap: int
) -> Poly:
    """The residue identity's left side, before its truncation to the
    verified weight."""
    depth = family.cutoffs[family.grading]
    plus = family.shift_by(tau_right, shift, +1)
    if tau_left is tau_right:
        even, odd, free = shift.parity_parts(plus)
        squares = [(free, even, 2), (even, even, 1), (odd, odd, -1)]
        product = sum_of_products(plus.zero_like(), squares)
    else:
        product = family.shift_by(tau_left, shift, -1) * plus
    parts = shift.miwa_parts(product, depth + 1)
    terms = [(shift.h(j - gap - 1, -2), parts[j], 1) for j in range(gap + 1, len(parts))]
    return sum_of_products(product.zero_like(), terms)


def kp_residue_check(tau: Poly, family: TimeFamily, shift: TimeFamily) -> CheckReport:
    return residue_check(tau, tau, family, shift, 0)


def kp_checks(tau: Poly, family: TimeFamily, shift: TimeFamily) -> list[CheckReport]:
    """The `kp_residue` and `kp_equation` entries of one series, both read
    off one residue total.  Expanded in the shift a, the total's
    coefficients are the Hirota equations of the hierarchy: its part linear
    in a_3 and free of the other a_k is -1/12 times (D1^4 + 3 D2^2 -
    4 D1 D3) tau.tau, verified through weight cutoff - 4.  Equal, entry by
    entry, to `kp_residue_check` and `kp_equation_check`."""
    depth = family.cutoffs[family.grading]
    _least_cutoff("kp_residue", family, depth - 1)
    _least_cutoff("kp_equation", family, depth - 4)
    total = _residue_total(tau, tau, family, shift, 0)
    kp = shift.linear_part(total, 3) * -12
    return [
        _report("kp_residue", total, depth - 1, family.grading),
        _report("kp_equation", kp, depth - 4, family.grading),
    ]


KP_BILINEAR_OP = [(1, {0: 4}), (3, {1: 2}), (-4, {0: 1, 2: 1})]


def _op(family: TimeFamily, spec) -> list[tuple[Fraction, dict[str, int]]]:
    return [
        (Fraction(c), {family.names[idx]: order for idx, order in orders.items()})
        for c, orders in spec
    ]


def kp_equation_check(tau: Poly, family: TimeFamily) -> CheckReport:
    """(D1^4 + 3 D2^2 - 4 D1 D3) tau.tau = 0 through weight cutoff - 4, by
    its own bilinear product: the independent route that tests compare
    `kp_checks`' read-off with."""
    verified = family.cutoffs[family.grading] - 4
    _least_cutoff("kp_equation", family, verified)
    residual = hirota_bilinear(_op(family, KP_BILINEAR_OP), tau, tau, {family.grading: verified})
    return _report("kp_equation", residual, verified, family.grading)


def mkp_equation_check(
    tau_up: Poly, tau_down: Poly, family: TimeFamily
) -> CheckReport:
    """(D1^2 - D2) tau_{n+1}.tau_n = 0 through weight cutoff - 2."""
    verified = family.cutoffs[family.grading] - 2
    _least_cutoff("mkp_equation", family, verified)
    op = _op(family, [(1, {0: 2}), (-1, {1: 1})])
    residual = hirota_bilinear(op, tau_up, tau_down, {family.grading: verified})
    return _report("mkp_equation", residual, verified, family.grading)


def toda_equation_check(
    tau_down: Poly,
    tau_mid: Poly,
    tau_up: Poly,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
) -> CheckReport:
    """(1/2) D_1 D_{-1} tau_n.tau_n + tau_{n+1} tau_{n-1} = 0, verified
    through biweight (cutoff_+ - 1, cutoff_- - 1)."""
    dp = family_plus.cutoffs[family_plus.grading] - 1
    dm = family_minus.cutoffs[family_minus.grading] - 1
    _least_cutoff("toda_equation", family_plus, dp)
    _least_cutoff("toda_equation", family_minus, dm)
    op = [(Fraction(1, 2), {family_plus.names[0]: 1, family_minus.names[0]: 1})]
    within = {family_plus.grading: dp, family_minus.grading: dm}
    # the truncated factor bounds the product, and with it the sum, by `within`
    bad = hirota_bilinear(op, tau_mid, tau_mid, within) + tau_up.truncate(within) * tau_down
    return _verdict("toda_equation", bad, dp + dm)


def _units(family: TimeFamily, names) -> dict[str, Poly]:
    """The unit-weight parameters `names` as polynomials of the family's ring."""
    return {nm: Poly.variable(family.table, family.cutoffs, nm) for nm in names}


def _miwa_down(family: TimeFamily, p: Poly, names) -> Poly:
    """p at t - [y1] - [y2] - ..., one Miwa shift per parameter in `names`."""
    for nm in names:
        p = family.miwa_shift(p, -1, nm)
    return p


def three_term_check_kp(
    taus: dict[frozenset[str], Poly],
    family: TimeFamily,
    params: tuple[str, str, str],
) -> CheckReport:
    """The pole-cleared three-shift identity for a single series:

    sum_cyc (y3 - y2) y1 tau(t-[y1]) tau(t-[y2]-[y3]) = 0.

    `taus` maps each needed shift set (as a frozenset of parameter names)
    to the shifted series; pass the unshifted series under frozenset().
    Missing entries are computed on the fly from the base series.
    """
    y1, y2, y3 = params
    base = taus[frozenset()]

    def shifted(names):
        key = frozenset(names)
        if key not in taus:
            taus[key] = _miwa_down(family, base, names)
        return taus[key]

    var = _units(family, params)
    total = base.zero_like()
    for a, b, c in ((y1, y2, y3), (y2, y3, y1), (y3, y1, y2)):
        total = total + (var[c] - var[b]) * var[a] * shifted([a]) * shifted([b, c])
    depth = family.cutoffs[family.grading]
    return _report("three_term_single", total, depth, family.grading)


def three_term_check_kp4(
    tau: Poly,
    family: TimeFamily,
    params: tuple[str, str, str, str],
) -> CheckReport:
    """The pole-cleared four-point variant (one distinguished point y0):

    (y1-y0)(y3-y2) tau(t-[y0]-[y1]) tau(t-[y2]-[y3]) + cyclic(1,2,3) = 0.
    """
    y0, y1, y2, y3 = params
    var = _units(family, params)
    total = tau.zero_like()
    for a, b, c in ((y1, y2, y3), (y2, y3, y1), (y3, y1, y2)):
        # each pair of shifts occurs once, so none is kept
        left = _miwa_down(family, tau, [y0, a])
        right = _miwa_down(family, tau, [b, c])
        total = total + (var[a] - var[y0]) * (var[c] - var[b]) * left * right
    depth = family.cutoffs[family.grading]
    return _report("three_term_four_point", total, depth, family.grading)


def three_term_check_mkp(
    tau_up: Poly,
    tau_down: Poly,
    family: TimeFamily,
    params: tuple[str, str],
) -> CheckReport:
    """Pole-cleared charge-step three-term identity:

    y1 T+(t-[y2]) T(t-[y1]) - y2 T+(t-[y1]) T(t-[y2])
      + (y2 - y1) T+(t) T(t-[y1]-[y2]) = 0
    """
    y1, y2 = params
    var = _units(family, params)
    sh = partial(_miwa_down, family)
    total = (
        var[y1] * sh(tau_up, [y2]) * sh(tau_down, [y1])
        - var[y2] * sh(tau_up, [y1]) * sh(tau_down, [y2])
        + (var[y2] - var[y1]) * tau_up * sh(tau_down, [y1, y2])
    )
    depth = family.cutoffs[family.grading]
    return _report("three_term_charge_step", total, depth, family.grading)


def three_term_check_toda(
    tau_down: Poly,
    tau_mid: Poly,
    tau_up: Poly,
    family_plus: TimeFamily,
    family_minus: TimeFamily,
    alpha: str,
    b: str,
) -> CheckReport:
    """Pole-cleared two-family three-term identity (alpha is the inverse
    of the plus-side point, b the minus-side point):

    T(t+-[alpha], t-) T(t+, t--[b]) - T T(t+-[alpha], t--[b])
      = b alpha T_up(t+, t--[b]) T_down(t+-[alpha], t-).
    """
    var = _units(family_plus, (alpha, b))
    shifted_a = _miwa_down(family_plus, tau_mid, [alpha])
    shifted_b = _miwa_down(family_minus, tau_mid, [b])
    shifted_ab = _miwa_down(family_minus, shifted_a, [b])
    lhs = shifted_a * shifted_b - tau_mid * shifted_ab
    rhs = (
        var[b]
        * var[alpha]
        * _miwa_down(family_minus, tau_up, [b])
        * _miwa_down(family_plus, tau_down, [alpha])
    )
    residual = lhs - rhs
    dp = family_plus.cutoffs[family_plus.grading]
    dm = family_minus.cutoffs[family_minus.grading]
    return _verdict("three_term_two_family", residual, dp + dm)


def scalar_kp_field_check(tau: Poly, family: TimeFamily) -> CheckReport:
    """The second-log-derivative field u satisfies the scalar equation
    3 u_22 = (4 u_3 - 12 u u_1 - u_111)_1 through cutoff - 6."""
    depth = family.cutoffs[family.grading]
    _least_cutoff("scalar_kp_field", family, depth - 6)
    c0 = tau.constant_term()
    if c0 == 0:
        raise ValueError("series needs a nonzero constant term")
    log_tau = (tau * Fraction(1, c0) - 1).series_log1p()
    t1, t2, t3 = family.names[0], family.names[1], family.names[2]
    u = log_tau.derivative(t1, 2)
    lhs = u.derivative(t2, 2) * 3
    rhs = (
        u.derivative(t3) * 4 - u * u.derivative(t1) * 12 - u.derivative(t1, 3)
    ).derivative(t1)
    return _report("scalar_kp_field", lhs - rhs, depth - 6, family.grading)
