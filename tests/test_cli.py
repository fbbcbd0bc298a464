import io
import json
from fractions import Fraction as F

import pytest

from tauforge.cli import main


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def test_expand_identity(capsys):
    code, out = run(
        capsys, ["expand", "--element", '{"kind": "identity"}', "--cutoff", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"coeff": "1", "partition": []}]


def test_expand_character(capsys):
    code, out = run(
        capsys,
        [
            "expand",
            "--element",
            '{"kind": "character", "partition": [2]}',
            "--cutoff",
            "4",
        ],
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"] == [{"coeff": "-1", "partition": [2]}]


def test_expand_soliton_matches_model(capsys):
    element = json.dumps(
        {
            "kind": "soliton",
            "ps": ["1/3"],
            "qs": ["1/2"],
            "couplings": [["2"]],
        }
    )
    code, out = run(capsys, ["expand", "--element", element, "--cutoff", "3"])
    assert code == 0
    expansion = json.loads(out)
    code, out = run(
        capsys,
        [
            "model",
            "--kind",
            "soliton",
            "--cutoff",
            "3",
            "--points-p",
            "1/3",
            "--points-q",
            "1/2",
            "--couplings",
            "2",
        ],
    )
    assert code == 0
    model = json.loads(out)
    # rebuild the model polynomial from the expansion's coefficients
    from fractions import Fraction

    from tauforge.partitions import Partition
    from tauforge.polyring import standard_single_family
    from tauforge.schur import schur_jt

    fam = standard_single_family(3)
    poly = fam.zero()
    for term in expansion["terms"]:
        poly = poly + schur_jt(fam, Partition(term["partition"])) * Fraction(
            term["coeff"]
        )
    from tauforge.polyring import Poly

    assert Poly.from_json(model["tau"]).terms == poly.terms


def test_verify_all_green(capsys):
    code, out = run(capsys, ["verify", "--suite", "all", "--cutoff", "5", "--seed", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert {r["check"] for r in payload["results"]} >= {
        "schur_route_agreement",
        "kp_residue",
        "wick_standard",
        "bbc",
        "definite_charge",
        "tau_route_equality",
    }


def test_verify_deterministic_output(capsys):
    _, first = run(capsys, ["verify", "--suite", "kp", "--cutoff", "5", "--seed", "11"])
    _, second = run(capsys, ["verify", "--suite", "kp", "--cutoff", "5", "--seed", "11"])
    assert first == second
    _, third = run(capsys, ["verify", "--suite", "kp", "--cutoff", "5", "--seed", "12"])
    assert json.loads(third)["seed"] == 12


def test_verify_corrupt_negative_control(capsys):
    code, out = run(
        capsys,
        ["verify", "--suite", "kp", "--cutoff", "5", "--seed", "5", "--corrupt"],
    )
    assert code == 1
    payload = json.loads(out)
    assert payload["ok"] is False
    assert any("counterexample" in r for r in payload["results"])


def test_model_unitary_and_hermitian(capsys):
    code, out = run(capsys, ["model", "--kind", "unitary", "--size", "0", "--cutoff", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["tau"]["terms"][0]["exp"] == {}
    code, out = run(
        capsys, ["model", "--kind", "gaussian-hermitian", "--size", "1", "--cutoff", "4"]
    )
    assert code == 0
    payload = json.loads(out)
    # 1 + h_2 + 3 h_4 starts with the constant term
    assert payload["tau"]["terms"][0]["num"] == "1"


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = main(
        ["verify", "--suite", "schur", "--cutoff", "4", "--out", str(target)]
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert payload["ok"] is True


def test_row_major_matrix_and_stdin(capsys, monkeypatch):
    spec = (
        '{"kind": "exponent_bilinear", "matrix": '
        '{"row_offset": -2, "col_offset": -1, "rows": [["1/2", "0"], ["0", "1/3"]]}}'
    )
    monkeypatch.setattr("sys.stdin", io.StringIO(spec))
    code, out = run(capsys, ["expand", "--element", "-", "--cutoff", "3"])
    assert code == 0
    payload = json.loads(out)
    assert payload["terms"][0] == {"coeff": "1", "partition": []}
    # same element via the entry-list format agrees
    spec2 = (
        '{"kind": "exponent_bilinear", "entries": ['
        '{"row": -2, "col": -1, "value": "1/2"}, {"row": -1, "col": 0, "value": "1/3"}]}'
    )
    code, out2 = run(capsys, ["expand", "--element", spec2, "--cutoff", "3"])
    assert code == 0


def test_verify_rejects_cutoff_below_suite_minimum(capsys):
    # kp_equation compares through weight cutoff - 4: nothing below cutoff 5
    for argv in (
        ["--suite", "kp", "--cutoff", "2"],
        ["--suite", "kp", "--cutoff", "4"],
        ["--suite", "all", "--cutoff", "0"],
        ["--suite", "all", "--cutoff", "4"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(["verify", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.strip().splitlines()[-1].endswith("needs --cutoff >= 5")
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "schur", "--cutoff", "-1"])
    assert exc.value.code == 2
    code, out = run(capsys, ["verify", "--suite", "schur", "--cutoff", "0"])
    assert code == 0 and json.loads(out)["ok"]


def usage_error(capsys, argv) -> str:
    """Run argv, expect exit code 2, and return the one-line message."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    return err.strip().splitlines()[-1]


def test_expand_rejects_negative_cutoff(capsys):
    msg = usage_error(capsys, ["expand", "--element", '{"kind": "identity"}', "--cutoff", "-1"])
    assert msg.endswith("expand needs --cutoff >= 0")


def test_model_rejects_negative_cutoff(capsys):
    msg = usage_error(capsys, ["model", "--kind", "unitary", "--cutoff", "-1"])
    assert msg.endswith("model needs --cutoff >= 0")


def test_expand_rejects_unknown_element_kind(capsys):
    msg = usage_error(capsys, ["expand", "--element", '{"kind": "bogus"}'])
    assert "bad --element" in msg and "bogus" in msg


def test_expand_rejects_element_that_is_not_json(capsys):
    assert "bad --element" in usage_error(capsys, ["expand", "--element", "notjson"])


def test_expand_rejects_increasing_partition(capsys):
    spec = '{"kind": "character", "partition": [1, 2]}'
    msg = usage_error(capsys, ["expand", "--element", spec])
    assert "bad --element" in msg and "weakly decreasing" in msg


def test_expand_rejects_an_exponent_bilinear_that_is_not_nilpotent(capsys):
    entries = [{"row": 0, "col": 1, "value": "1"}, {"row": 1, "col": 0, "value": "1"}]
    spec = json.dumps({"kind": "exponent_bilinear", "entries": entries})
    msg = usage_error(capsys, ["expand", "--element", spec])
    assert msg.endswith(
        "bad --element: exponent matrix must be nilpotent; use Diagonal for diagonal flows"
    )


def test_expand_reports_a_user_window_that_is_too_small(capsys):
    spec = '{"kind": "character", "partition": [3]}'
    msg = usage_error(capsys, ["expand", "--element", spec, "--window=-1..1", "--cutoff", "3"])
    assert "--window -1..1 is too small" in msg


def test_expand_rejects_a_window_without_dots(capsys):
    # used to say "not enough values to unpack (expected 2, got 1)"
    for text in ("-3,3", "5"):
        argv = ["expand", "--element", '{"kind": "identity"}', f"--window={text}"]
        msg = usage_error(capsys, argv)
        assert msg.endswith(f"bad --window {text!r}: expected lo..hi")


def test_expand_rejects_unknown_species_and_mixed_letters(capsys):
    # an unknown species used to run as psi* and exit 0 with a wrong series
    for species in (["phi"], ["psi", "psi*"]):
        letter = [{"coeff": "1", "species": s, "mode": i} for i, s in enumerate(species)]
        spec = json.dumps({"kind": "linear_word", "letters": [letter]})
        msg = usage_error(capsys, ["expand", "--element", spec])
        assert "bad --element" in msg and "one species" in msg


def test_expand_names_a_species_that_is_not_a_string(capsys):
    # a list as species used to exit 2 with "unhashable type: 'list'"
    spec = {"kind": "linear_word", "letters": [[{"coeff": "1", "species": ["psi"], "mode": 0}]]}
    msg = usage_error(capsys, ["expand", "--cutoff", "2", "--element", json.dumps(spec)])
    assert msg.endswith('bad --element: a letter needs one species, psi or psi*: '
                        'a term\'s species is ["psi"]')


def test_expand_rejects_unknown_projector_side(capsys):
    for spec in ({"kind": "projector", "side": "bogus"}, {"kind": "projector", "side": "plus_state"}):
        msg = usage_error(capsys, ["expand", "--element", json.dumps(spec)])
        assert "bad --element" in msg and "projector side" in msg


def test_expand_rejects_json_of_the_wrong_shape(capsys):
    # a string where an array belongs used to be read character by character
    # (the partition "21" as [2, 1], exit 0), and a non-object element or a
    # non-array factor list exited 2 with a Python message
    matrix = {"row_offset": -1, "col_offset": 0, "rows": [["1"]]}
    letter = [{"coeff": "1", "species": "psi", "mode": 0}]
    for spec, what in (
        ({"kind": "character", "partition": "21"}, "partition must be a JSON array"),
        ({"kind": "soliton", "couplings": "1", "ps": ["1"], "qs": ["2"]}, "couplings must"),
        ({"kind": "soliton", "couplings": ["1"], "ps": ["1"], "qs": ["2"]}, "a couplings row"),
        ({"kind": "soliton", "couplings": [["1"]], "ps": "1", "qs": ["2"]}, "ps must"),
        ({"kind": "soliton", "couplings": [["1"]], "ps": ["1"], "qs": "2"}, "qs must"),
        ({"kind": "diagonal", "mults": {"mode": 1, "value": "2"}}, "mults must"),
        ({"kind": "diagonal", "mults": [[1, "2"]]}, "a multiplier must be a JSON object"),
        ({"kind": "projector", "side": "plus_state", "partition": "1"}, "partition must"),
        ({"kind": "linear_word", "letters": letter}, "a letter must be a JSON array"),
        ({"kind": "linear_word", "letters": {"a": letter}}, "letters must"),
        ({"kind": "linear_word", "letters": [["psi"]]}, "a letter term must be a JSON object"),
        ({"kind": "product", "factors": {"a": 1}}, "factors must be a JSON array"),
        ({"kind": "product", "factors": ["identity"]}, "an element must be a JSON object"),
        ({"kind": "normal_ordered", "entries": "1"}, "entries must"),
        ({"kind": "normal_ordered", "entries": [[-1, 0, "1"]]}, "an entry must"),
        ({"kind": "normal_ordered", "matrix": [["1"]]}, "matrix must be a JSON object"),
        ({"kind": "normal_ordered", "matrix": {**matrix, "rows": "1"}}, "rows must"),
        ({"kind": "exponent_bilinear", "matrix": {**matrix, "rows": ["1"]}}, "a row must"),
        ([1], "an element must be a JSON object, got [1]"),
        (1, "an element must be a JSON object, got 1"),
        (None, "an element must be a JSON object, got null"),
    ):
        msg = usage_error(capsys, ["expand", "--cutoff", "2", "--element", json.dumps(spec)])
        assert "bad --element: " in msg and what in msg, msg
    # the same fields as arrays and objects are read as before
    for spec in (
        {"kind": "character", "partition": [2, 1]},
        {"kind": "product", "factors": [{"kind": "linear_word", "letters": [letter]}]},
        {"kind": "normal_ordered", "matrix": matrix},
    ):
        assert run(capsys, ["expand", "--cutoff", "2", "--element", json.dumps(spec)])[0] == 0


def entry_bilinear(row, col="0", value="1/2", **extra) -> str:
    return json.dumps(
        {"kind": "normal_ordered", "entries": [{"row": row, "col": col, "value": value}], **extra}
    )


def test_expand_rejects_fractional_integer_fields(capsys):
    # int() used to truncate these: row -1.5 read as mode -1, ordering 0.7 as 0
    for spec in (
        entry_bilinear(-1.5),
        entry_bilinear("-1", ordering=0.7),
        json.dumps({"kind": "character", "partition": [2.5]}),
        json.dumps({"kind": "diagonal", "mults": [{"mode": 1.0, "value": "2"}]}),
    ):
        msg = usage_error(capsys, ["expand", "--element", spec, "--cutoff", "2"])
        assert "bad --element" in msg and "must be integers" in msg
    for spec in (entry_bilinear(-1), entry_bilinear("-1", ordering="0")):
        assert run(capsys, ["expand", "--element", spec, "--cutoff", "2"])[0] == 0


def test_expand_rejects_booleans_as_numbers(capsys):
    # true used to pass as 1, both as an index and as a rational value
    for spec, what in (
        (entry_bilinear(True), "must be integers"),
        (entry_bilinear(-1, value=True), "rationals must be"),
        (json.dumps({"kind": "projector", "side": "plus", "charge": False}), "must be integers"),
    ):
        msg = usage_error(capsys, ["expand", "--element", spec, "--cutoff", "2"])
        assert "bad --element" in msg and what in msg


def test_expand_rejects_non_boolean_ordered_flag(capsys):
    # the string "false" used to read as True
    spec = json.dumps({"kind": "diagonal", "mults": [{"mode": 1, "value": "2"}], "ordered": "false"})
    msg = usage_error(capsys, ["expand", "--element", spec, "--cutoff", "2"])
    assert "bad --element" in msg and "ordered must be true or false" in msg
    spec = json.dumps({"kind": "diagonal", "mults": [{"mode": 1, "value": "2"}], "ordered": False})
    assert run(capsys, ["expand", "--element", spec, "--cutoff", "2"])[0] == 0


def test_expand_rejects_a_repeated_diagonal_mode(capsys):
    # the ordered, unordered and rotation readings used to take 2, 6 and 1/3
    mults = [{"mode": 0, "value": "2"}, {"mode": 0, "value": "3"}]
    for ordered in (True, False):
        spec = json.dumps({"kind": "diagonal", "ordered": ordered, "mults": mults})
        msg = usage_error(capsys, ["expand", "--charge", "1", "--cutoff", "1", "--element", spec])
        assert "bad --element" in msg and "each mode once" in msg


def test_expand_rejects_a_zero_ordered_multiplier_at_a_negative_mode(capsys):
    # the ordered convention divides by it: this used to exit 1 with a traceback
    spec = json.dumps({"kind": "diagonal", "ordered": True, "mults": [{"mode": -1, "value": "0"}]})
    argv = ["expand", "--charge", "-1", "--cutoff", "1", "--element"]
    msg = usage_error(capsys, argv + [spec])
    assert "bad --element" in msg and "must be nonzero" in msg
    assert run(capsys, argv + [spec.replace("true", "false")])[0] == 0


def soliton_spec(p="1/3", q="1/2") -> dict:
    return {"kind": "soliton", "couplings": [["1"]], "ps": [p], "qs": [q]}


def test_expand_rejects_a_soliton_pole_given_as_element(capsys):
    # used to exit 1 with ZeroDivisionError, alone or as a product factor
    for spec, charge in ((soliton_spec(p="0"), "-1"), (soliton_spec(q="0"), "2")):
        for element in (spec, {"kind": "product", "factors": [spec]}):
            argv = ["expand", "--charge", charge, "--cutoff", "2", "--element", json.dumps(element)]
            msg = usage_error(capsys, argv)
            assert "bad --element" in msg and "pole" in msg


def test_a_zero_denominator_in_element_json_is_bad_input(capsys, monkeypatch):
    # "1/0" used to exit 1 with a ZeroDivisionError traceback, which under
    # `verify` reads as a failed check
    entry = {"kind": "normal_ordered", "entries": [{"row": -1, "col": 0, "value": "1/0"}]}
    specs = [
        entry,
        soliton_spec(p="1/0"),
        {"kind": "soliton", "couplings": [["1/0"]], "ps": ["1/3"], "qs": ["1/2"]},
    ]
    for spec in specs:
        for element in (spec, {"kind": "product", "factors": [spec]}):
            text = json.dumps(element)
            monkeypatch.setattr("sys.stdin", io.StringIO(text))
            for argv in (
                ["expand", "--element", text],
                ["expand", "--element", "-"],
                ["verify", "--suite", "kp", "--element", text],
            ):
                msg = usage_error(capsys, argv)
                assert msg.endswith("bad --element: a rational needs a nonzero denominator, got '1/0'")


def test_expand_rejects_a_pole_that_a_mode_letter_brings(capsys):
    # the field psi(0) pairs with psi*_{-1} through 0^(-1); this used to
    # exit 1 with a ZeroDivisionError traceback
    letter = {"kind": "linear_word", "letters": [[{"coeff": "1", "species": "psi*", "mode": -1}]]}
    element = {"kind": "product", "factors": [soliton_spec(p="0"), letter]}
    for argv in (
        ["expand", "--charge", "0", "--cutoff", "2", "--element", json.dumps(element)],
        ["verify", "--suite", "kp", "--element", json.dumps(element)],
    ):
        msg = usage_error(capsys, argv)
        assert "bad --element" in msg and "pole" in msg


def test_expand_uncoupled_zero_point_is_no_kernel_pole(capsys):
    # a hole point without couplings never enters the kernel route, so it
    # brings no pole: the series is the one for any other such point
    def spec(q):
        return json.dumps(
            {"kind": "soliton", "couplings": [["1", "1"], ["0", "0"]],
             "ps": ["1/3", "1/5"], "qs": ["1/2", q]}
        )

    argv = ["expand", "--charge", "2", "--cutoff", "3", "--element"]
    code, out = run(capsys, argv + [spec("0")])
    assert code == 0 and (code, out) == run(capsys, argv + [spec("1/7")])


def test_point_field_products_take_the_kernel_route(capsys):
    # a product with a soliton factor used to exit 1 with a TypeError
    product = json.dumps({"kind": "product", "factors": [soliton_spec()]})
    argv = ["expand", "--cutoff", "3", "--element"]
    assert run(capsys, argv + [product]) == run(capsys, argv + [json.dumps(soliton_spec())])
    assert run(capsys, ["verify", "--suite", "kp", "--element", product])[0] == 0
    window_only = {"kind": "normal_ordered", "entries": [{"row": -1, "col": 0, "value": "1"}]}
    mixed = json.dumps({"kind": "product", "factors": [soliton_spec(), window_only]})
    for argv in (argv, ["verify", "--suite", "kp", "--element"]):
        msg = usage_error(capsys, argv + [mixed])
        assert "bad --element" in msg and "no exact route" in msg


def outcome(capsys, argv) -> tuple:
    """(exit code, stdout, stderr) of one command, usage errors included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    return (code, *capsys.readouterr())


def test_soliton_poles_read_alike_on_the_hook_and_kernel_routes(capsys):
    # a bare soliton takes the hook route and a one-factor product the kernel
    # route; a pole of the hook matrix's kernels hands the read back to the
    # kernel route, so both report the pole the kernels meet first
    dense = [["1", "-1/2"], ["2/3", "2"]]
    for ps, qs, pole in ((["0", "2/5"], ["1/2", "1/7"], -1), (["1/3", "2/5"], ["1/2", "0"], 2)):
        spec = {"kind": "soliton", "couplings": dense, "ps": ps, "qs": qs}
        product = {"kind": "product", "factors": [spec]}
        for charge in (pole, 0, 1):
            argv = ["expand", "--charge", str(charge), "--cutoff", "4", "--element"]
            hooks = outcome(capsys, argv + [json.dumps(spec)])
            assert hooks == outcome(capsys, argv + [json.dumps(product)])
            assert hooks[0] == (2 if charge == pole else 0)
            assert (charge == pole) == ("is a pole of" in hooks[2])


def test_model_rejects_log_squared_parameter_with_one_value(capsys):
    msg = usage_error(capsys, ["model", "--kind", "log-squared", "--parameter", "1"])
    assert "bad --parameter '1'" in msg and "expected 2" in msg


def test_model_rejects_parameter_that_is_not_rational(capsys):
    msg = usage_error(capsys, ["model", "--kind", "hciz", "--parameter", "abc"])
    assert "bad --parameter 'abc'" in msg


def test_model_zero_multipliers_give_the_fock_series(capsys):
    # hciz at c = 0 and log-squared at r = 0 or e = 0 have g_k = 0 for
    # k >= 1; the closed route used to divide by them and exit 1
    from tauforge.models import DiagonalModel, diagonal_model_tau_fock
    from tauforge.polyring import Poly, standard_double_family

    plus, minus = standard_double_family(4, 4)
    for kind, parameter, model in (
        ("hciz", "0", DiagonalModel.hciz(F(0))),
        ("log-squared", "0,1", DiagonalModel.log_squared(F(0), F(1))),
        ("log-squared", "1,0", DiagonalModel.log_squared(F(1), F(0))),
    ):
        for size in (1, 2):
            argv = ["model", "--kind", kind, "--size", str(size), "--parameter", parameter]
            code, out = run(capsys, argv)
            assert code == 0
            tau = Poly.from_json(json.loads(out)["tau"])
            assert tau == diagonal_model_tau_fock(model, size, plus, minus, 4)


def test_model_rejects_zero_gaussian_parameter(capsys):
    msg = usage_error(capsys, ["model", "--kind", "gaussian-normal", "--parameter", "0"])
    assert "gaussian-normal needs a nonzero rational" in msg


def test_model_rejects_coincident_soliton_points(capsys):
    argv = ["model", "--kind", "soliton", "--points-p", "1/2", "--points-q", "1/2"]
    msg = usage_error(capsys, argv)
    assert "bad soliton data" in msg and "pairwise distinct" in msg


def test_model_rejects_soliton_point_count_mismatch(capsys):
    argv = ["model", "--kind", "soliton", "--points-p", "1/3,1/5", "--points-q", "1/2"]
    msg = usage_error(capsys, argv)
    assert "bad soliton data" in msg and "matching point" in msg


def test_model_rejects_negative_size_for_every_kind(capsys):
    for kind in ("gaussian-hermitian", "unitary", "hciz", "soliton"):
        msg = usage_error(capsys, ["model", "--kind", kind, "--size", "-1"])
        assert msg.endswith("model needs --size >= 0")


def test_model_rejects_soliton_pole_at_zero_particle_point(capsys):
    # p^n q^(1-n) of the kernel has a pole at p = 0 for a negative charge
    for charge in ("-2", "-1"):
        argv = ["model", "--kind", "soliton", "--points-p", "0", "--points-q", "1/2",
                "--charge", charge]
        msg = usage_error(capsys, argv)
        assert "bad soliton data" in msg and "pole" in msg


def test_model_rejects_soliton_pole_at_zero_hole_point(capsys):
    # and at q = 0 for a charge above 1
    for charge in ("3", "2"):
        argv = ["model", "--kind", "soliton", "--points-p", "1/3", "--points-q", "0",
                "--charge", charge]
        msg = usage_error(capsys, argv)
        assert "bad soliton data" in msg and "pole" in msg


def test_model_and_expand_report_one_soliton_pole_alike(capsys):
    # both routes take the prefactor p^n q^(1-n)/(q - p) from the one
    # two-point kernel, so its pole reads the same from either
    for p, q, charge in (("0", "1/2", "-1"), ("1/3", "0", "2")):
        model = usage_error(capsys, ["model", "--kind", "soliton", "--points-p", p,
                                     "--points-q", q, "--charge", charge])
        element = json.dumps(soliton_spec(p=p, q=q))
        expand = usage_error(capsys, ["expand", "--charge", charge, "--element", element])
        pole = f"z = {p}, zeta = {q} is a pole of z^{charge} zeta^{1 - int(charge)}/(z - zeta)"
        assert model.endswith(f"bad soliton data at --charge {charge}: {pole}")
        assert expand.endswith(f"bad --element at --charge {charge}: {pole}")


def report_digest(capsys, argv) -> tuple[int, str]:
    import hashlib

    code, out = run(capsys, argv)
    return code, hashlib.sha256(out.encode()).hexdigest()


def test_model_soliton_zero_point_without_coupling_is_no_pole(capsys):
    # the pole factor never enters when the point's couplings all vanish
    for p, q, charge in (("0", "1/2", "-2"), ("1/3", "0", "3")):
        argv = ["model", "--kind", "soliton", "--points-p", p, "--points-q", q,
                "--charge", charge, "--couplings", "0"]
        assert report_digest(capsys, argv) == (
            0, "1730f2af42f8a4c8d34a0f7b8acc8915700a5c68a3afbc386a883fec0d520834"
        )
    argv = ["model", "--kind", "soliton", "--points-p", "0,1/3", "--points-q", "1/2,1/5",
            "--couplings", "0,1;0,2", "--charge", "-1"]
    assert report_digest(capsys, argv) == (
        0, "b0f9668687b8f2d60ae73c677abc1b922a207534dcad568687c7647a42ceaa1c"
    )


def test_model_soliton_uncoupled_zero_hole_point_is_no_pole(capsys):
    # the hole point 0 has an all-zero coupling row, so its kernel column
    # never enters det(I + A K); this used to exit 2 with "the point 0 is a
    # pole of z^-1" at charge 2
    from tauforge.models import SolitonData, soliton_tau
    from tauforge.partitions import Partition
    from tauforge.polyring import Poly, standard_single_family
    from tauforge.schur import schur_jt

    argv = ["model", "--kind", "soliton", "--points-p", "1/3,1/5", "--points-q", "1/2,0",
            "--couplings", "1,1;0,0", "--charge", "2", "--cutoff", "4"]
    code, out = run(capsys, argv)
    assert code == 0
    model = Poly.from_json(json.loads(out)["tau"])

    fam = standard_single_family(4)
    element = {"kind": "soliton", "couplings": [["1", "1"], ["0", "0"]],
               "ps": ["1/3", "1/5"], "qs": ["1/2", "0"]}
    code, out = run(capsys, ["expand", "--charge", "2", "--cutoff", "4",
                             "--element", json.dumps(element)])
    assert code == 0
    expansion = fam.zero()
    for term in json.loads(out)["terms"]:
        expansion = expansion + schur_jt(fam, Partition(term["partition"])) * F(term["coeff"])

    data = SolitonData((F(1, 3), F(1, 5)), (F(1, 2), F(0)), ((F(1), F(1)), (F(0), F(0))))
    explicit = soliton_tau(data, 2, fam, 4, form="explicit").poly
    assert not model.is_zero
    assert model == expansion == explicit


def test_model_soliton_zero_point_at_charge_without_pole(capsys):
    argv = ["model", "--kind", "soliton", "--points-p", "0", "--points-q", "1/2", "--charge", "0"]
    assert report_digest(capsys, argv) == (
        0, "f883bd21079d1e6c46f5e81b2a85eb133a69808f2cfb0df47073f2bb69643d2a"
    )
    argv = ["model", "--kind", "soliton", "--points-p", "1/3", "--points-q", "0", "--charge", "1"]
    assert report_digest(capsys, argv) == (
        0, "ea96f8be1346ec4583b1faf0acda6e4bfc317809f72a2072bc47ee27c3ac20ad"
    )


def test_model_rejects_charge_for_a_kind_that_ignores_it(capsys):
    for kind in ("unitary", "hciz", "gaussian-hermitian"):
        msg = usage_error(capsys, ["model", "--kind", kind, "--charge", "1"])
        assert msg.endswith(f"--charge does not apply to --kind {kind}")
    # an explicit value equal to the default is still an explicit flag
    msg = usage_error(capsys, ["model", "--kind", "unitary", "--charge", "0"])
    assert msg.endswith("--charge does not apply to --kind unitary")


def test_model_rejects_points_p_for_a_kind_that_ignores_it(capsys):
    msg = usage_error(capsys, ["model", "--kind", "unitary", "--points-p", "1/3"])
    assert msg.endswith("--points-p does not apply to --kind unitary")


def test_model_rejects_points_q_for_a_kind_that_ignores_it(capsys):
    msg = usage_error(capsys, ["model", "--kind", "log-squared", "--points-q", "1/2"])
    assert msg.endswith("--points-q does not apply to --kind log-squared")


def test_model_rejects_couplings_for_a_kind_that_ignores_it(capsys):
    msg = usage_error(capsys, ["model", "--kind", "gaussian-normal", "--couplings", "1"])
    assert msg.endswith("--couplings does not apply to --kind gaussian-normal")


def test_model_rejects_parameter_for_a_kind_that_ignores_it(capsys):
    for kind in ("unitary", "gaussian-hermitian", "soliton"):
        msg = usage_error(capsys, ["model", "--kind", kind, "--parameter", "2"])
        assert msg.endswith(f"--parameter does not apply to --kind {kind}")
    # the soliton flags and --size stay accepted where they are read
    argv = ["model", "--kind", "soliton", "--size", "3", "--charge", "0", "--points-p", "1/3",
            "--points-q", "1/2", "--couplings", "1", "--cutoff", "6"]
    plain = ["model", "--kind", "soliton", "--cutoff", "6"]
    assert report_digest(capsys, argv) == report_digest(capsys, plain)


def test_verify_rejects_flags_a_suite_does_not_read(capsys):
    spec = '{"kind": "identity"}'
    for suite in ("schur", "wick", "bbc", "charge", "tau-routes"):
        msg = usage_error(capsys, ["verify", "--suite", suite, "--corrupt"])
        assert msg.endswith(f"--corrupt does not apply to --suite {suite}")
        msg = usage_error(capsys, ["verify", "--suite", suite, "--element", spec])
        assert msg.endswith(f"--element does not apply to --suite {suite}")
    # a run of all includes kp, which reads both flags
    code, out = run(capsys, ["verify", "--suite", "all", "--seed", "1", "--element", spec])
    assert code == 0 and json.loads(out)["ok"]
    code, _ = run(capsys, ["verify", "--suite", "all", "--seed", "1", "--corrupt"])
    assert code == 1


def test_verify_wick_sampling_is_bounded(capsys, monkeypatch):
    import tauforge.cli as cli

    calls = []

    def singular(*args):
        calls.append(args)
        raise ZeroDivisionError

    monkeypatch.setattr(cli, "wick_generalized", singular)
    code, out = run(capsys, ["verify", "--suite", "wick", "--seed", "2"])
    assert code == 1 and len(calls) == cli.WICK_DRAWS
    entry = {r["check"]: r for r in json.loads(out)["results"]}["wick_generalized"]
    assert entry["ok"] is False
    assert entry["counterexample"] == {"attempts": cli.WICK_DRAWS, "compared": 0}
