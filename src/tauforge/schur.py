"""Schur and skew Schur functions in graded time variables.

One builder, `_schur_poly`, makes every Schur-family polynomial: the skew
function at scaled times s_(outer/inner)(c t), c rational, read off one
raised bra.  By bosonization, <inner, 0| e^{J(c t)} = sum_outer
s_(outer/inner)(c t) <outer, 0| in wedge phase, and `fock.apply_current_exp`
(imported at call time) forms that bra from the current tree, so one call
per (family, inner shape, scale) fills `_schur_cache` for every outer shape
it reaches.  `schur_jt`, `skew_schur`, `fock.skew_schur_signed`,
`_schur_neg` and `TimeFamily.h` all call the builder: none forms a
determinant or a product.  `double_schur_sum` builds a weighted sum of
s_lambda(t+) s_mu(-t-) from the memoized factors' integer numerators, with
no product polynomial (`polyring.sum_of_products`).

The dual generator determinant, the hook alternating sums and the hook
determinant over the Frobenius square stay as independent oracles.
Specializations (content product over hook product) come from the Miwa
evaluation t_k = u w^{-k} / k.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction
from math import factorial

from tauforge.partitions import (
    Partition,
    enumerate_partitions,
    pochhammer,
    pochhammer_content,
    sign_exponent,
)
from tauforge.polyring import (
    Poly,
    Scalar,
    TimeFamily,
    fraction_matrix_det,
    poly_matrix_det,
    standard_double_family,
    sum_of_products,
)

_schur_cache: dict[tuple, Poly] = {}


def _missing_time(family: TimeFamily, outer: tuple[int, ...], inner: tuple[int, ...]) -> int:
    """The first generator index k, in row order of det h_{outer_i -
    inner_j - i + j}, that lies beyond the family's times yet within its
    cutoff (the h_k that `TimeFamily.h` refuses), or 0 when there is none.
    Along a row the index grows with j, so only the first index beyond the
    times can count."""
    depth, cut = family.depth, family.cutoffs.get(family.grading)
    ell = max(len(outer), len(inner))
    outer = outer + (0,) * (ell - len(outer))
    inner = inner + (0,) * (ell - len(inner))
    for i, row in enumerate(outer):
        for j, col in enumerate(inner):
            k = row - col - i + j
            if k > depth:
                if cut is None or k <= cut:
                    return k
                break
    return 0


def _schur_poly(
    family: TimeFamily, outer: tuple[int, ...], inner: tuple[int, ...], scale: Scalar
) -> Poly:
    """s_(outer/inner)(c t) for the rational scale c = `scale`, truncated at
    the family's cutoffs and memoized in `_schur_cache`.  Raises where the
    skew Jacobi-Trudi determinant would ask for a generator beyond the
    family's times, on every call; an outer shape that does not hold the
    inner one, or a weight above the cutoff, is zero.

    A miss on any other shape raises the bra <inner, 0| once, sized to the
    family's cutoff, or to the asked weight when the family has none (and
    raised again only larger): its wedge-phase coefficients, started at the
    inner shape's sign, are s_(outer/inner)(c t) for every outer shape it
    reaches.  The bra hops by the family's times only, so a shape whose
    determinant needs a missing time is left out of the memo."""
    family_key = (family.table, tuple(family.names), tuple(sorted(family.cutoffs.items())))
    key = (family_key, outer, inner, scale)
    got = _schur_cache.get(key)
    if got is not None:
        return got
    if k := _missing_time(family, outer, inner):
        raise ValueError(f"h_{k} needs time variables up to {k}")
    weight = sum(outer) - sum(inner)
    top = family.cutoffs.get(family.grading)
    held = len(outer) >= len(inner) and all(o >= i for o, i in zip(outer, inner))
    if held and (top is None or weight <= top):
        from tauforge.fock import FockVector, _state_of_bits, apply_current_exp, window_for

        size = weight if top is None else top
        # a grown shape's first part and length are each at most |inner| + size
        window = window_for([0], size + sum(inner))
        start = {(0, inner): -1 if sign_exponent(inner) & 1 else 1}
        bra = apply_current_exp("raise", family, FockVector(window, start, True), size, scale)
        for bits, poly in bra.bits.items():
            lam = _state_of_bits(bits, bra.base)[1]
            if not _missing_time(family, lam, inner):
                _schur_cache.setdefault((family_key, lam, inner, scale), poly)
        got = _schur_cache.get(key)
    if got is None:
        got = _schur_cache[key] = family.zero()
    return got


def schur_jt(family: TimeFamily, shape: Partition) -> Poly:
    """s_shape, truncated at the family's cutoffs; 1 on the empty shape.
    Equal to the Jacobi-Trudi determinant det h_{row_i - i + j}, and raises
    where that determinant would ask for a generator beyond the family's
    times."""
    return _schur_poly(family, shape.parts, (), 1)


def _schur_neg(family: TimeFamily, shape: Partition) -> Poly:
    """Schur function at negated times."""
    return _schur_poly(family, shape.parts, (), -1)


def double_schur_sum(
    plus: TimeFamily, minus: TimeFamily, terms: Iterable[tuple[Partition, Partition, Scalar]]
) -> Poly:
    """sum of w s_lam(t+) s_mu(-t-) over the (lam, mu, w) of `terms`, w
    rational (Macdonald I.4 for the Cauchy sum), with no product polynomial:
    the integer numerators of the memoized factors are multiplied into one
    dict over one common denominator (`polyring.sum_of_products`), truncated
    at the cutoffs a product of the two factors would merge.  Both factors
    are formed for every term, a zero-weight one included, so a shape beyond
    a family's times raises as `schur_jt` does; two tables raise ValueError.
    With no terms, the zero of `plus`."""
    return sum_of_products(
        plus.zero(),
        ((schur_jt(plus, lam), _schur_neg(minus, mu), w) for lam, mu, w in terms),
    )


def schur_dual_jt(family: TimeFamily, shape: Partition) -> Poly:
    """det e_{col_i - i + j}, size = number of columns."""
    width = shape.part(1)
    if width == 0:
        return family.one()
    t = shape.transpose()
    rows = [
        [schur_elementary(family, t.part(i) - i + j) for j in range(1, width + 1)]
        for i in range(1, width + 1)
    ]
    return poly_matrix_det(rows)


def schur_elementary(family: TimeFamily, k: int) -> Poly:
    return family.zero() if k < 0 else family.e(k)


def hook_schur(family: TimeFamily, alpha: int, beta: int) -> Poly:
    """Schur function of the hook (alpha|beta) via the alternating sum
    (-1)^beta sum_m h_{beta-m}(-t) h_{alpha+m+1}(t)."""
    acc = family.zero()
    for m in range(beta + 1):
        acc = acc + family.h(beta - m, sign=-1) * family.h(alpha + m + 1)
    return acc * ((-1) ** beta)


def hook_schur_alt(family: TimeFamily, alpha: int, beta: int) -> Poly:
    """The companion alternating sum (-1)^(beta+1) sum_m h_{alpha-m}(t) h_{beta+m+1}(-t)."""
    acc = family.zero()
    for m in range(alpha + 1):
        acc = acc + family.h(alpha - m) * family.h(beta + m + 1, sign=-1)
    return acc * ((-1) ** (beta + 1))


def schur_giambelli(family: TimeFamily, shape: Partition) -> Poly:
    """det of hook Schur functions over the Frobenius square."""
    alphas, betas = shape.frobenius()
    d = len(alphas)
    if d == 0:
        return family.one()
    rows = [[hook_schur(family, alphas[i], betas[j]) for j in range(d)] for i in range(d)]
    return poly_matrix_det(rows)


def skew_schur(family: TimeFamily, outer: Partition, inner: Partition) -> Poly:
    """s_(outer/inner), equal to det h_{outer_i - inner_j - i + j} over the
    rows of the outer shape; identically zero unless the inner shape sits
    inside the outer one."""
    return _schur_poly(family, outer.parts, inner.parts, 1)


def skew_via_derivatives(family: TimeFamily, outer: Partition, inner: Partition) -> Poly:
    """Skew function as the inner shape's scaled-derivative operator applied
    to the outer Schur function."""
    op = schur_jt(family, inner)
    return family.apply_diff(op, schur_jt(family, outer))


def schur_content_eval(shape: Partition, u: Fraction | int, w: Fraction | int) -> Fraction:
    """Closed-form Miwa specialization: w^(-weight) * content product / hook product."""
    u, w = Fraction(u), Fraction(w)
    if w == 0:
        raise ZeroDivisionError("w must be nonzero")
    return w ** (-shape.weight) * pochhammer_content(u, shape) / shape.hook_product()


def schur_content_eval_frobenius(
    shape: Partition, u: Fraction | int, w: Fraction | int
) -> Fraction:
    """Same value assembled hook-by-hook with the Cauchy determinant kernel;
    exercises the Frobenius closed form."""
    u, w = Fraction(u), Fraction(w)
    alphas, betas = shape.frobenius()
    d = len(alphas)
    if d == 0:
        return Fraction(1)
    pref = Fraction(1)
    for a, b in zip(alphas, betas):
        pref *= (
            Fraction((-1) ** b)
            * pochhammer(u, a + 1)
            * pochhammer(1 - u, b)
            / (factorial(a) * factorial(b))
        )
    kernel = [
        [Fraction(1, alphas[i] + betas[j] + 1) for j in range(d)] for i in range(d)
    ]
    return pref * fraction_matrix_det(kernel) * w ** (-shape.weight)


def cauchy_littlewood_check(depth: int) -> int:
    """Compare sum_shapes s(t) s(t') with exp(sum k t_k t'_k) through total
    biweight `depth`; returns the verified biweight, raises on mismatch."""
    plus, other = standard_double_family(depth, depth)
    lhs = plus.zero()
    for shape in enumerate_partitions(depth):
        lhs = lhs + schur_jt(plus, shape) * schur_jt(other, shape)
    quad = plus.zero()
    for k in range(1, depth + 1):
        quad = quad + plus.time(k) * other.time(k) * k
    rhs = quad.series_exp()
    if lhs != rhs:
        raise AssertionError("Cauchy-Littlewood mismatch")
    return depth


def schur_orthonormality(family: TimeFamily, left: Partition, right: Partition) -> Fraction:
    """Constant term of s_left(scaled derivatives) applied to s_right."""
    applied = family.apply_diff(schur_jt(family, left), schur_jt(family, right))
    return applied.constant_term()
