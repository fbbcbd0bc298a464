"""The CLI's report writer against `json.dumps(..., indent=2, sort_keys=True)`.

Payloads mix polynomial term dicts ({"den", "exp", "num"}) with near
misses, inside nested reports with empty lists and dicts; a `Poly` in a
payload must come out as its `to_json()` would.
"""

import io
import json
import random
from contextlib import redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauforge.cli import main, report_text
from tauforge.polyring import FIELD_MAX, Poly, Variable, VariableTable, time_variables

names = st.text(min_size=0, max_size=4)
exps = st.dictionaries(names, st.integers(-3, 40), max_size=4)
terms = st.fixed_dictionaries(
    {
        "den": st.integers(1, 10**30).map(str),
        "exp": exps,
        "num": st.integers(-(10**30), 10**30).map(str),
    }
)
near_terms = st.fixed_dictionaries(
    {
        "den": st.one_of(st.integers(1, 9), st.none(), names),
        "exp": st.one_of(
            exps,
            st.dictionaries(names, st.one_of(st.booleans(), st.floats(), st.none()), max_size=3),
            st.lists(st.integers(), max_size=2),
        ),
        "num": st.one_of(st.integers(-9, 9), names),
    },
    optional={"extra": st.integers()},
)
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(10**20), 10**20),
    st.floats(),
    st.text(max_size=6),
    terms,
    near_terms,
)
values = st.recursive(
    scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(terms, max_size=4),
        st.dictionaries(st.text(max_size=5), inner, max_size=4),
        st.dictionaries(st.integers(-5, 5), inner, max_size=3),
    ),
    max_leaves=25,
)
reports = st.fixed_dictionaries(
    {
        "schema": st.just(1),
        "kind": st.text(max_size=8),
        "tau": st.fixed_dictionaries(
            {
                "vars": st.lists(
                    st.fixed_dictionaries(
                        {"name": names, "grading": names, "weight": st.integers(0, 9)}
                    ),
                    max_size=3,
                ),
                "cutoff": st.dictionaries(names, st.integers(0, 9), max_size=2),
                "terms": st.lists(terms, max_size=5),
            }
        ),
        "results": st.lists(values, max_size=3),
    }
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(values, reports))
def test_writer_matches_json_dumps(payload):
    assert report_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


def test_writer_edge_cases():
    for payload in (
        {},
        [],
        {"terms": []},
        {"exp": {}, "num": "-3", "den": "2"},
        [{"den": "1", "exp": {}, "num": "1"}, {"den": "4", "exp": {"t2": 1, "s1": 3}, "num": "-7"}],
        {"den": "1", "exp": {"t": True}, "num": "1"},
        {"den": "1", "exp": {"t": 1}, "num": 1},
        {"a": {"b": {"c": [[], {}, [{}]]}}},
        {2: "x", -1: "y", 10: "z"},
        {"é": "☃\n\"\\", "tab\t": None},
    ):
        assert report_text(payload) == json.dumps(payload, indent=2, sort_keys=True)


@st.composite
def polys(draw):
    """A Poly over t1..tD (D up to 12, so t10 sorts before t2 by name) and
    parameters in the times' grading or their own, with bounded and
    unbounded gradings, rational coefficients of either sign, and the
    empty and constant cases."""
    variables = time_variables("t", draw(st.integers(0, 12)))
    for name in draw(st.lists(st.sampled_from(["y", "b", "w1", "Z"]), unique=True, max_size=3)):
        grading = draw(st.sampled_from(["t", "u", "w"]))
        variables.append(Variable(name, grading, draw(st.integers(0, 3))))
    table = VariableTable(variables)
    cutoffs = {g: draw(st.one_of(st.none(), st.integers(0, 14))) for g in table.gradings}
    monomials = st.just({})
    if variables:
        indices = st.integers(0, len(variables) - 1)
        monomials = st.dictionaries(indices, st.integers(1, 4), max_size=4)
    coefficients = st.fractions(min_value=-(10**12), max_value=10**12, max_denominator=10**6)
    terms = draw(st.lists(st.tuples(monomials, coefficients), max_size=12))
    return Poly(table, cutoffs, {tuple(sorted(m.items())): c for m, c in terms})


@settings(max_examples=150, deadline=None)
@given(polys(), st.integers(0, 9))
def test_writer_formats_a_poly_as_its_to_json(poly, size):
    payload = {"schema": 1, "kind": "unitary", "size": size, "tau": poly}
    want = json.dumps({**payload, "tau": poly.to_json()}, indent=2, sort_keys=True)
    assert report_text({**payload, "tau": poly.to_json()}) == want
    assert report_text(payload) == want


def test_writer_formats_empty_and_constant_polys():
    table = VariableTable(time_variables("t", 11))
    for cutoffs in ({"t": 3}, {}):
        for terms in ({}, {(): 5}, {(): -3}, {((10, 1),): 1, ((1, 2),): -2}):
            poly = Poly(table, cutoffs, terms)
            want = json.dumps({"tau": poly.to_json()}, indent=2, sort_keys=True)
            assert report_text({"tau": poly}) == want
    assert report_text({"tau": Poly(VariableTable([]), {}, {(): 1})}) == json.dumps(
        {"tau": Poly(VariableTable([]), {}, {(): 1}).to_json()}, indent=2, sort_keys=True
    )


def written_as_to_json(poly: Poly) -> bool:
    """Whether a payload holding `poly`, at two depths, is written as
    `json.dumps` writes the same payload with its `to_json()`."""
    want = poly.to_json()
    payload = {"tau": poly, "list": [{"inner": poly}]}
    text = json.dumps({"tau": want, "list": [{"inner": want}]}, indent=2, sort_keys=True)
    return report_text(payload) == text


def random_poly(table: VariableTable, cutoffs: dict, seed: int, count: int = 60) -> Poly:
    """Up to `count` terms of up to four variables each, exponents 1 to 3."""
    rng = random.Random(seed)
    n = len(table.variables)
    terms = {}
    for _ in range(count):
        exps = {rng.randrange(n): rng.randint(1, 3) for _ in range(rng.randint(0, 4))}
        terms[tuple(sorted(exps.items()))] = Fraction(rng.randint(-99, 99), rng.randint(1, 12))
    return Poly(table, cutoffs, terms)


def test_writer_escapes_variable_names():
    table = VariableTable(
        [
            Variable('a"b', "t", 1),
            Variable("é", "t", 2),
            Variable("back\\slash", "u", 1),
            Variable("", "t", 1),
            Variable("tab\t", "u", 2),
        ]
    )
    poly = Poly(
        table,
        {"t": 6},
        {(): 1, ((0, 2), (1, 1)): Fraction(3, 4), ((2, 5), (4, 1)): -1, ((3, 1), (4, 2)): 2},
    )
    assert written_as_to_json(poly)
    assert written_as_to_json(random_poly(table, {}, 1))


def test_writer_formats_large_exponents():
    table = VariableTable([Variable("x", "t", 1), Variable("y", "t", 1), Variable("z", "u", 0)])
    terms = {
        ((0, FIELD_MAX),): 1,
        ((1, FIELD_MAX),): -2,
        ((2, FIELD_MAX),): Fraction(1, 3),
        ((0, 10), (1, 11), (2, 99)): 5,
        ((0, 12345), (2, 1000)): -7,
        ((1, 100), (2, 9)): 1,
    }
    assert written_as_to_json(Poly(table, {}, terms))


def test_writer_formats_a_table_with_weightless_variables():
    # a weight-0 variable ties the weights of keys where one tuple extends
    # another, so the table sorts by decoded tuples
    table = VariableTable(
        time_variables("t", 3) + [Variable("c", "t", 0), Variable("a", "u", 0)]
    )
    terms = {(): 2, ((3, 1),): 1, ((3, 2),): -1, ((3, 1), (4, 1)): 3, ((4, 2),): 5}
    terms |= {((0, 1),): 4, ((0, 1), (3, 1)): -4, ((0, 1), (3, 1), (4, 3)): 7, ((1, 1),): 6}
    assert written_as_to_json(Poly(table, {"t": 3}, terms))
    assert written_as_to_json(random_poly(table, {"t": 4, "u": 2}, 2))


def test_writer_formats_times_past_nine_mixed_with_parameters():
    # by name t1 < t10 < ... < t19 < t1a < t2 < t20 < t3: the name order
    # cuts the times' index order into runs, and t10..t19 is longer than
    # one chunk of the writer; the parameters sit between and after them
    variables = time_variables("t", 20)
    variables[5:5] = [Variable("t1a", "t", 1), Variable("b", "w", 1)]
    variables += [Variable("y", "t", 1), Variable("a", "w", 2)]
    table = VariableTable(variables)
    for seed in range(4):
        assert written_as_to_json(random_poly(table, {"w": 4}, seed, 200))


def test_reports_written_back_to_back_match_each_written_alone():
    table = VariableTable(time_variables("t", 12) + [Variable("y", "t", 1)])
    polys = [random_poly(table, {"t": 9}, seed) for seed in range(3)]
    polys.append(polys[0] * Fraction(2, 7))  # the same keys over another denominator
    alone = [report_text({"tau": p}) for p in polys]
    assert alone == [json.dumps({"tau": p.to_json()}, indent=2, sort_keys=True) for p in polys]
    assert [report_text({"tau": p}) for p in reversed(polys)] == alone[::-1]
    both = report_text({"a": polys[0], "b": polys[1]})
    assert both == json.dumps(
        {"a": polys[0].to_json(), "b": polys[1].to_json()}, indent=2, sort_keys=True
    )


@pytest.mark.parametrize(
    "command",
    [
        "model --kind unitary --size 2 --cutoff 8",
        "model --kind soliton --size 2 --cutoff 6",
        "verify --suite all --cutoff 6 --seed 3 --corrupt",
    ],
)
def test_cli_reports_match_json_dumps(command):
    buf = io.StringIO()
    with redirect_stdout(buf):
        main(command.split())
    payload = json.loads(buf.getvalue())
    assert buf.getvalue() == json.dumps(payload, indent=2, sort_keys=True) + "\n"
