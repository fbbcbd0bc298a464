"""Schur and skew Schur functions in graded time variables.

One builder, `_schur_poly`, makes every Schur-family polynomial: the skew
function at scaled times s_(outer/inner)(c t), c rational, as the character
expansion (bosonization of the Schur function) over cycle types rho of
weight |outer| - |inner|, sum chi^(outer/inner)_rho c^len(rho)
prod_k t_k^(m_k) / m_k!, m_k the multiplicity of k in rho.  The integer
skew characters, the coefficients of <outer, 0| in <inner, 0| J_rho, come
from the current tree (`fock.character_table`, imported at call time).
`schur_jt`, `skew_schur`, `fock.skew_schur_signed`, `_schur_neg` and
`TimeFamily.h` all call it, memoized in `_schur_cache`: none forms a
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
from math import factorial, lcm, prod

from tauforge.partitions import (
    Partition,
    enumerate_partitions,
    pochhammer,
    pochhammer_content,
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


def _check_generators(family: TimeFamily, outer: tuple[int, ...], inner: tuple[int, ...]) -> None:
    """Raise the ValueError of `TimeFamily.h` for the first generator h_k,
    in row order of det h_{outer_i - inner_j - i + j}, that lies beyond the
    family's times yet within its cutoff.  Along a row the index grows with
    j, so only the first index beyond the times can raise."""
    depth, cut = family.depth, family.cutoffs.get(family.grading)
    ell = max(len(outer), len(inner))
    outer = outer + (0,) * (ell - len(outer))
    inner = inner + (0,) * (ell - len(inner))
    for i, row in enumerate(outer):
        for j, col in enumerate(inner):
            k = row - col - i + j
            if k > depth:
                if cut is None or k <= cut:
                    raise ValueError(f"h_{k} needs time variables up to {k}")
                break


def _schur_poly(
    family: TimeFamily, outer: tuple[int, ...], inner: tuple[int, ...], scale: Scalar
) -> Poly:
    """s_(outer/inner)(c t) for the rational scale c = `scale`, truncated at
    the family's cutoffs and memoized in `_schur_cache`: the sum over cycle
    types rho of weight |outer| - |inner| of
    chi^(outer/inner)_rho c^len(rho) prod_k t_k^(m_k) / m_k!, as integer
    numerators over one denominator.  Raises where the skew Jacobi-Trudi
    determinant would ask for a generator beyond the family's times; a
    weight above the cutoff is zero."""
    family_key = (family.table, tuple(family.names), tuple(sorted(family.cutoffs.items())))
    key = (family_key, outer, inner, scale)
    got = _schur_cache.get(key)
    if got is not None:
        return got
    _check_generators(family, outer, inner)
    table = family.table
    weight = sum(outer) - sum(inner)
    top = family.cutoffs.get(family.grading)
    terms = []
    if weight >= 0 and (top is None or weight <= top):
        from tauforge.fock import character_table

        index = [table.index[name] for name in family.names]
        num, den = scale.numerator, scale.denominator
        chars = character_table(inner, weight if top is None else top).get(outer, {})
        for m, chi in chars.items():
            # a cycle longer than the family's times has a nonzero character
            # only on a shape above the cutoff (below it, the check raised)
            if m and m[-1][0] > family.depth:
                continue
            length = sum(e for _, e in m)
            z = prod(factorial(e) for _, e in m) * den**length
            terms.append((table.encode([(index[k - 1], e) for k, e in m]), chi * num**length, z))
    common = lcm(*(z for _, _, z in terms))
    nums = {mono: n * (common // z) for mono, n, z in terms}
    out = _schur_cache[key] = Poly.from_numerators(table, family.cutoffs, nums, common)
    return out


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
