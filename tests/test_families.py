"""The standard time families are built once per set of arguments, and a
shared family changes no report."""

import hashlib

import pytest

from tauforge import polyring
from tauforge.cli import main
from tauforge.polyring import paired_family, standard_double_family, standard_single_family


def test_repeated_calls_return_the_identical_family():
    assert standard_single_family(5) is standard_single_family(5)
    assert standard_double_family(4, 3) is standard_double_family(4, 3)
    assert paired_family(6) is paired_family(6)
    assert standard_single_family(5) is not standard_single_family(6)
    assert standard_double_family(4, 3) is not standard_double_family(3, 4)
    fam, shift = paired_family(6)
    assert fam.table is shift.table
    assert isinstance(fam.names, tuple) and fam.names == ("t1", "t2", "t3", "t4", "t5", "t6")


def test_list_and_tuple_arguments_give_the_same_family():
    units = ["y1", "y2", "y3"]
    fam = standard_single_family(6, extra_unit=units)
    assert fam is standard_single_family(6, extra_unit=("y1", "y2", "y3"))
    assert fam is standard_single_family(6, ("y1", "y2", "y3"))
    assert fam is not standard_single_family(6, extra_unit=("y1", "y3", "y2"))
    units.append("y4")  # the caller's list is not kept
    assert [v.name for v in fam.table.variables][-3:] == ["y1", "y2", "y3"]
    once = standard_single_family(2, extra_unit=(name for name in ("z",)))
    assert [v.name for v in once.table.variables] == ["t1", "t2", "z"]
    graded = standard_single_family(4, ["y"], {"y": "w"})
    assert graded is standard_single_family(4, extra_unit=("y",), extra_gradings={"y": "w"})
    assert graded.table.var("y").grading == "w"
    assert standard_single_family(4, ["y"], None) is standard_single_family(4, ["y"], {})
    assert paired_family(5, extra_unit=["y"]) is paired_family(5, extra_unit=("y",))
    assert standard_double_family(3, 3, ["a"], []) is standard_double_family(
        3, 3, extra_unit_plus=("a",)
    )


REPORTS = [
    "verify --suite kp --cutoff 8 --seed 3",
    "verify --suite all --cutoff 6 --seed 1 --corrupt",
    "model --kind unitary --size 2 --cutoff 6",
    "model --kind soliton --size 2 --cutoff 6",
    "expand --charge 1 --cutoff 7 --element "
    '{"kind":"soliton","couplings":[["1","-1/2"],["2/3","2"]],"ps":["1/3","2/5"],"qs":["1/2","1/7"]}',
]


@pytest.mark.parametrize("command", REPORTS)
def test_reports_are_the_same_from_a_fresh_or_a_reused_family(capsys, command):
    def report():
        code = main(command.split())
        return code, hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()

    polyring._families.clear()
    fresh = report()
    reused = report()
    # a fresh family on a new table meets polynomials memoized on the old one
    polyring._families.clear()
    assert fresh == reused == report()
