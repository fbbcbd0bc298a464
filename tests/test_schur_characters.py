"""`schur_jt` against a Jacobi-Trudi determinant built here, shape by shape.

The determinant det h_{row_i - i + j} is formed from the family's complete
homogeneous generators and `poly_matrix_det`, so it raises exactly where
a generator is asked for beyond the family's times.  Every shape of weight
<= 12 is compared on families that differ in layout: extra parameters,
second families, a cutoff below the shape's weight, and fewer times than
the cutoff allows (where both must raise the same ValueError).
"""

import pytest

from tauforge.partitions import enumerate_partitions
from tauforge.polyring import (
    TimeFamily,
    VariableTable,
    paired_family,
    poly_matrix_det,
    standard_double_family,
    standard_single_family,
    time_variables,
)
from tauforge.schur import schur_jt

SHAPES = enumerate_partitions(12)


def jacobi_trudi(family, shape):
    ell = shape.length
    if ell == 0:
        return family.one()
    rows = [
        [family.h(shape.part(i) - i + j) for j in range(1, ell + 1)]
        for i in range(1, ell + 1)
    ]
    return poly_matrix_det(rows)


def outcome(build, family, shape):
    try:
        return build(family, shape)
    except ValueError as err:
        return ("ValueError", str(err))


def family_with(depth, cutoffs):
    table = VariableTable(time_variables("t", depth))
    return TimeFamily(table, cutoffs, [f"t{k}" for k in range(1, depth + 1)], "t")


FAMILIES = {
    "single with unit parameters": lambda: standard_single_family(
        12, extra_unit=("y", "z"), extra_gradings={"z": "w"}
    ),
    "minus side of a double family": lambda: standard_double_family(4, 12)[1],
    "second of a paired family": lambda: paired_family(12)[1],
    "cutoff below the weight": lambda: family_with(12, {"t": 7}),
    "fewer generators than the weight": lambda: standard_single_family(6),
    "fewer times than the cutoff": lambda: family_with(5, {"t": 9}),
    "unbounded with few times": lambda: family_with(4, {}),
}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_schur_jt_matches_jacobi_trudi(name):
    family = FAMILIES[name]()
    raised = 0
    for shape in SHAPES:
        want = outcome(jacobi_trudi, family, shape)
        got = outcome(schur_jt, family, shape)
        assert got == want, (name, shape)
        if isinstance(want, tuple):
            raised += 1
        else:
            assert got.cutoffs == want.cutoffs, (name, shape)
    # the families without enough times must exercise the error path
    assert (raised > 0) == (name in ("fewer times than the cutoff", "unbounded with few times"))
