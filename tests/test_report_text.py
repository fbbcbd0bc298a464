"""The CLI's report writer against `json.dumps(..., indent=2, sort_keys=True)`.

Payloads mix polynomial terms ({"den", "exp", "num"}, the writer's
template) with near misses that must take the general path, inside nested
reports with empty lists and dicts.
"""

import io
import json
from contextlib import redirect_stdout

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tauforge.cli import main, report_text

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
