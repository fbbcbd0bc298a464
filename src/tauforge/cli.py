"""Command-line front end: build tau-series from declarative element
descriptions, run verification suites, emit deterministic JSON reports.

Randomized suites draw every sample from one seeded generator recorded in
the report, so a fixed seed reproduces a byte-identical report.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import random
import sys
from fractions import Fraction
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote
from math import gcd
from operator import add

from tauforge.fock import ModeWindow, WindowViolation, vev, window_for
from tauforge.grouplike import (
    Diagonal,
    ExponentBilinear,
    Identity,
    LinearWord,
    ModeMatrix,
    NormalOrderedBilinear,
    Product,
    ProjectorElement,
    SolitonExponent,
    StateProjector,
    bbc_check,
    charge_of,
    verify_charge,
)
from tauforge.hirota import (
    CheckReport,
    kp_equation_check,
    kp_residue_check,
    mkp_equation_check,
)
from tauforge.partitions import Partition, enumerate_partitions
from tauforge.polyring import Poly, paired_family, standard_double_family, standard_single_family
from tauforge.sampling import (
    sample_element,
    sample_letter,
    sample_quadruples,
    sample_states,
)
from tauforge.schur import (
    cauchy_littlewood_check,
    schur_dual_jt,
    schur_giambelli,
    schur_jt,
)
from tauforge.tau import expand_mkp, expand_mkp_direct, is_field_based, mkp_coefficients
from tauforge.tau import series_json, window_for_element
from tauforge.wick import correlator_window, wick_generalized, wick_layout, wick_standard


class InputError(Exception):
    """Bad command-line input: reported on one line with exit code 2."""


def _frac(x) -> Fraction:
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        try:
            return Fraction(x)
        except ZeroDivisionError:
            raise ValueError(f"a rational needs a nonzero denominator, got {x!r}") from None
    raise ValueError(f"rationals must be strings or integers, got {x!r}")


def _int(x) -> int:
    if isinstance(x, str) or (isinstance(x, int) and not isinstance(x, bool)):
        return int(x)
    raise ValueError(f"indices must be integers or integer strings, got {x!r}")


def _species(x) -> str:
    if x not in ("psi", "psi*"):
        raise ValueError(
            f"a letter needs one species, psi or psi*: a term's species is {json.dumps(x)}"
        )
    return x


def _json(x, kind: type, what: str):
    """x, when it is the JSON array (`list`) or object (`dict`) that `what`
    takes; anything else is bad input."""
    if not isinstance(x, kind):
        name = "array" if kind is list else "object"
        raise ValueError(f"{what} must be a JSON {name}, got {json.dumps(x)}")
    return x


def _matrix_from_json(spec: dict) -> ModeMatrix:
    """Either an explicit entry list or a row-major array with index
    offsets: {"row_offset": r0, "col_offset": c0, "rows": [[...], ...]}."""
    if "entries" in spec:
        return ModeMatrix(
            {
                (_int(_json(e, dict, "an entry")["row"]), _int(e["col"])): _frac(e["value"])
                for e in _json(spec["entries"], list, "entries")
            }
        )
    mat = _json(spec["matrix"], dict, "matrix")
    r0, c0 = _int(mat.get("row_offset", 0)), _int(mat.get("col_offset", 0))
    entries = {}
    for i, row in enumerate(_json(mat["rows"], list, "rows")):
        for k, value in enumerate(_json(row, list, "a row")):
            v = _frac(value)
            if v:
                entries[(r0 + i, c0 + k)] = v
    return ModeMatrix(entries)


def element_from_json(spec: dict):
    kind = _json(spec, dict, "an element")["kind"]
    if kind == "identity":
        return Identity()
    if kind == "character":
        lam = Partition([_int(p) for p in _json(spec["partition"], list, "partition")])
        return StateProjector(0, lam, 0, Partition([]))
    if kind == "soliton":
        rows = tuple(
            tuple(_frac(x) for x in _json(row, list, "a couplings row"))
            for row in _json(spec["couplings"], list, "couplings")
        )
        return SolitonExponent(
            rows,
            tuple(_frac(p) for p in _json(spec["ps"], list, "ps")),
            tuple(_frac(q) for q in _json(spec["qs"], list, "qs")),
        )
    if kind == "exponent_bilinear":
        return ExponentBilinear(_matrix_from_json(spec))
    if kind == "normal_ordered":
        ordering = spec.get("ordering")
        return NormalOrderedBilinear(
            _matrix_from_json(spec), None if ordering is None else _int(ordering)
        )
    if kind == "diagonal":
        mults = tuple(
            (_int(_json(m, dict, "a multiplier")["mode"]), _frac(m["value"]))
            for m in _json(spec["mults"], list, "mults")
        )
        ordered = spec.get("ordered", True)
        if not isinstance(ordered, bool):
            raise ValueError(f"ordered must be true or false, got {ordered!r}")
        return Diagonal(mults, ordered=ordered)
    if kind == "projector":
        side, shape = spec["side"], spec.get("partition")
        shape = None if shape is None else _json(shape, list, "partition")
        if side not in ("plus", "minus", "plus_state", "minus_state"):
            raise ValueError(f"unknown projector side {side!r}")
        if side.endswith("_state") and shape is None:
            raise ValueError(f"projector side {side!r} needs a partition")
        return ProjectorElement(
            side,
            _int(spec.get("charge", 0)),
            None if shape is None else Partition([_int(p) for p in shape]),
        )
    if kind == "linear_word":
        letters = tuple(
            tuple(
                (
                    _frac(_json(t, dict, "a letter term")["coeff"]),
                    _species(t["species"]),
                    _int(t["mode"]),
                )
                for t in _json(lt, list, "a letter")
            )
            for lt in _json(spec["letters"], list, "letters")
        )
        for lt in letters:
            species = {s for _, s, _ in lt}
            if species not in ({"psi"}, {"psi*"}):
                raise ValueError(f"a letter needs one species, psi or psi*: {sorted(species)}")
        return LinearWord(letters)
    if kind == "product":
        return Product(tuple(element_from_json(f) for f in _json(spec["factors"], list, "factors")))
    raise ValueError(f"unknown element kind {kind!r}")


def _parse_window(text: str | None, charges, depth: int) -> ModeWindow:
    if not text:
        return window_for(charges, depth)
    if ".." not in text:
        raise InputError(f"bad --window {text!r}: expected lo..hi")
    try:
        lo, hi = text.split("..")
        return ModeWindow(int(lo), int(hi))
    except ValueError as err:
        raise InputError(f"bad --window {text!r}: {err}") from None


def _decode_element(text: str):
    """The element described by JSON text; bad input raises InputError."""
    try:
        return element_from_json(json.loads(text))
    except KeyError as err:
        raise InputError(f"bad --element: missing field {err}") from None
    except (ValueError, TypeError, AttributeError) as err:
        raise InputError(f"bad --element: {err}") from None


def _rationals(text: str, flag: str, count: int | None = None) -> list[Fraction]:
    """The comma-separated rationals given to `flag`; bad input raises
    InputError."""
    try:
        values = [Fraction(x) for x in text.split(",")]
    except (ValueError, ZeroDivisionError) as err:
        raise InputError(f"bad {flag} {text!r}: {err}") from None
    if count is not None and len(values) != count:
        raise InputError(f"bad {flag} {text!r}: expected {count} comma-separated rationals")
    return values


def cmd_expand(args) -> int:
    g = _decode_element(sys.stdin.read() if args.element == "-" else args.element)
    with _kernel_route(g, f"bad --element at --charge {args.charge}"):
        window = _parse_window(args.window, (args.charge, args.charge - charge_of(g)), args.cutoff)
        try:
            coeffs = mkp_coefficients(g, args.charge, args.cutoff, window)
        except WindowViolation as err:
            if not args.window:
                raise  # an auto-sized window must fit: that is a defect, not bad input
            raise InputError(f"--window {args.window} is too small: {err}") from None
    # the report holds the coefficients only: the Schur sum is never formed
    payload = series_json("MKP", args.charge, args.cutoff, coeffs)
    payload["schema"] = 1
    _emit(args, payload)
    return 0


# model flags that only some kinds read: dest -> (those kinds, the value
# when the flag is not given, None where each kind has its own); a flag
# given to another kind is bad input
MODEL_FLAGS = {
    "charge": (("soliton",), 0),
    "points_p": (("soliton",), "1/3"),
    "points_q": (("soliton",), "1/2"),
    "couplings": (("soliton",), "1"),
    "parameter": (("gaussian-normal", "hciz", "log-squared"), None),
}


def cmd_model(args) -> int:
    from tauforge.models import (
        DiagonalModel,
        SolitonData,
        diagonal_model_tau_closed,
        hermitian_moment_tau,
        soliton_element,
        soliton_tau,
        unitary_model_tau,
    )

    if args.size < 0:
        raise InputError("model needs --size >= 0")
    for dest, (kinds, default) in MODEL_FLAGS.items():
        if getattr(args, dest) is None:
            setattr(args, dest, default)
        elif args.kind not in kinds:
            flag = "--" + dest.replace("_", "-")
            raise InputError(f"{flag} does not apply to --kind {args.kind}")
    depth = args.cutoff
    if args.kind == "soliton":
        fam = standard_single_family(depth)
        ps = tuple(_rationals(args.points_p, "--points-p"))
        qs = tuple(_rationals(args.points_q, "--points-q"))
        rows = tuple(tuple(_rationals(r, "--couplings")) for r in args.couplings.split(";"))
        try:
            data = SolitonData(ps, qs, rows)
        except ValueError as err:
            raise InputError(f"bad soliton data: {err}") from None
        with _kernel_route(soliton_element(data), f"bad soliton data at --charge {args.charge}"):
            series = soliton_tau(data, args.charge, fam, depth, "determinant")
        payload = {"schema": 1, "kind": "soliton", "tau": series.poly}
        _emit(args, payload)
        return 0
    plus, minus = standard_double_family(depth, depth)
    if args.kind == "unitary":
        poly = unitary_model_tau(args.size, plus, minus, depth)
    elif args.kind == "gaussian-normal":
        (c,) = _rationals(args.parameter or "1", "--parameter", 1)
        if c == 0:
            raise InputError(
                f"bad --parameter {args.parameter!r}: gaussian-normal needs a nonzero rational"
            )
        poly = diagonal_model_tau_closed(
            DiagonalModel.gaussian(c), args.size, plus, minus, depth
        )
    elif args.kind == "hciz":
        (c,) = _rationals(args.parameter or "1", "--parameter", 1)
        poly = diagonal_model_tau_closed(DiagonalModel.hciz(c), args.size, plus, minus, depth)
    elif args.kind == "log-squared":
        r, e = _rationals(args.parameter or "1,1", "--parameter", 2)
        poly = diagonal_model_tau_closed(
            DiagonalModel.log_squared(r, e), args.size, plus, minus, depth
        )
    elif args.kind == "gaussian-hermitian":
        fam = standard_single_family(depth)
        poly = hermitian_moment_tau(args.size, fam, depth)
    else:
        raise ValueError(f"unknown model kind {args.kind!r}")
    payload = {"schema": 1, "kind": args.kind, "size": args.size, "tau": poly}
    _emit(args, payload)
    return 0


@contextlib.contextmanager
def _kernel_route(g, what: str = "bad --element"):
    """Evaluate `g` where every element with point fields takes the exact
    Wick route: a product mixing point-field with window-only factors (no
    route is exact for it, and `wick.wick_layout` refuses it) is bad input
    before the body runs, and so is a pole that the pair kernels meet,
    reported as "what: <the kernel's message>"."""
    field_based = is_field_based(g)
    if field_based:
        try:
            wick_layout([g])
        except TypeError:
            raise InputError(
                "bad --element: a product of point-field and window-only factors has no exact route"
            ) from None
    try:
        yield
    except ZeroDivisionError as err:
        if not field_based:
            raise
        raise InputError(f"{what}: {err}") from None


def _suite_schur(depth: int, rng) -> list[CheckReport]:
    fam = standard_single_family(depth)
    bad = []
    for lam in enumerate_partitions(depth):
        a = schur_jt(fam, lam)
        if schur_dual_jt(fam, lam) != a or schur_giambelli(fam, lam) != a:
            bad.append(lam.to_json())
    cl_depth = min(depth, 8)
    try:
        cauchy_littlewood_check(cl_depth)
        cl_ok = True
    except AssertionError:
        cl_ok = False
    return [
        CheckReport("schur_route_agreement", not bad, depth, bad[:3] or None),
        CheckReport("cauchy_littlewood", cl_ok, cl_depth),
    ]


def _suite_kp(depth: int, rng, corrupt: bool, element_json: str | None) -> list[CheckReport]:
    fam, shift = paired_family(depth)
    g = _decode_element(element_json) if element_json else sample_element(rng, allow_products=False)
    with _kernel_route(g):
        window = window_for_element(g, (-1, 0, 1), depth)
        tau = expand_mkp(g, 0, fam, depth, window).poly
        tau1 = expand_mkp(g, 1, fam, depth, window).poly
    if corrupt:
        tau = tau + fam.time(min(2, depth)) * Fraction(1, 7)
        tau1 = tau1 + fam.time(1) * Fraction(1, 5)
    reports = [kp_residue_check(tau, fam, shift), kp_equation_check(tau, fam)]
    return reports + [mkp_equation_check(tau1, tau, fam)]


# draws the generalized Wick check may make for its six samples; a draw
# whose correlator determinant is singular is skipped
WICK_DRAWS = 60


def _suite_wick(depth: int, rng) -> list[CheckReport]:
    window = ModeWindow(-8 - depth, 8 + depth)
    ok = True
    detail = None
    for _ in range(10):
        n = rng.choice((-1, 0, 2))
        m = rng.choice((1, 2, 3))
        vs = [sample_letter(rng, "psi") for _ in range(m)]
        ws = [sample_letter(rng, "psi*") for _ in range(m)]
        direct = vev(window, n, vs + list(reversed(ws)))
        if wick_standard(window, n, vs, ws) != direct:
            ok = False
            detail = {"n": n, "m": m}
            break
    ok2 = True
    detail2 = None
    done = attempts = 0
    while done < 6:
        if attempts == WICK_DRAWS:
            ok2 = False
            detail2 = {"attempts": attempts, "compared": done}
            break
        attempts += 1
        g = sample_element(rng, allow_products=False)
        n = rng.choice((-1, 0, 1))
        m = rng.choice((1, 2))
        vs = [sample_letter(rng, "psi") for _ in range(m)]
        ws = [sample_letter(rng, "psi*") for _ in range(m)]
        q = charge_of(g)

        def evaluate(v, w):
            items = []
            if v is not None:
                items.append(("letter", v))
            if w is not None:
                items.append(("letter", w))
            items.append(g)
            return correlator_window(window, n, items, n - q)

        try:
            predicted = wick_generalized(evaluate, n, vs, ws)
        except ZeroDivisionError:
            continue
        direct = correlator_window(
            window,
            n,
            [("letter", v) for v in vs] + [("letter", w) for w in reversed(ws)] + [g],
            n - q,
        )
        if predicted != direct:
            ok2 = False
            break
        done += 1
    return [
        CheckReport("wick_standard", ok, depth, detail),
        CheckReport("wick_generalized", ok2, depth, detail2),
    ]


def _suite_bbc(depth: int, rng) -> list[CheckReport]:
    window = ModeWindow(-8 - depth, 8 + depth)
    failures = []
    for _ in range(12):
        g = sample_element(rng)
        bad = bbc_check(g, window, sample_quadruples(rng, 4))
        if bad is not None:
            failures.append(repr(bad))
    return [CheckReport("bbc", not failures, depth, failures[:2] or None)]


def _suite_charge(depth: int, rng) -> list[CheckReport]:
    window = ModeWindow(-8 - depth, 8 + depth)
    failures = []
    for _ in range(12):
        g = sample_element(rng)
        try:
            verify_charge(g, window, sample_states(rng, 4, weight=2))
        except AssertionError as err:
            failures.append(str(err))
    return [CheckReport("definite_charge", not failures, depth, failures[:2] or None)]


def _suite_tau_routes(depth: int, rng) -> list[CheckReport]:
    fam = standard_single_family(depth)
    failures = []
    for _ in range(4):
        g = sample_element(rng, allow_products=False)
        n = rng.choice((-1, 0, 1))
        window = window_for_element(g, (n, n - charge_of(g)), depth)
        series = expand_mkp(g, n, fam, depth, window)
        direct = expand_mkp_direct(g, n, fam, depth, window)
        if series.poly != direct:
            failures.append({"charge": n})
    return [CheckReport("tau_route_equality", not failures, depth, failures or None)]


# suite name -> (least --cutoff, runner); a weight cutoff is >= 0, and
# kp_equation checks the KP operator D1^4 + 3 D2^2 - 4 D1 D3 through weight
# cutoff - 4, so it compares something only from cutoff 5
SUITES = {
    "schur": (0, lambda args, rng: _suite_schur(args.cutoff, rng)),
    "kp": (5, lambda args, rng: _suite_kp(args.cutoff, rng, args.corrupt, args.element)),
    "wick": (0, lambda args, rng: _suite_wick(args.cutoff, rng)),
    "bbc": (0, lambda args, rng: _suite_bbc(args.cutoff, rng)),
    "charge": (0, lambda args, rng: _suite_charge(args.cutoff, rng)),
    "tau-routes": (0, lambda args, rng: _suite_tau_routes(args.cutoff, rng)),
}


def _suite_names(suite: str) -> list[str]:
    return list(SUITES) if suite == "all" else [suite]


# verify flags that only some suites read: dest -> those suites; a flag
# given to a run of none of them is bad input
VERIFY_FLAGS = {"corrupt": ("kp",), "element": ("kp",)}


def cmd_verify(args) -> int:
    rng = random.Random(args.seed)
    names = _suite_names(args.suite)
    for dest, suites in VERIFY_FLAGS.items():
        if getattr(args, dest) not in (None, False) and not set(suites) & set(names):
            raise InputError(f"--{dest} does not apply to --suite {args.suite}")
    reports: list[CheckReport] = []
    for name in names:
        reports.extend(SUITES[name][1](args, rng))
    ok = all(r.ok for r in reports)
    payload = {
        "schema": 1,
        "seed": args.seed,
        "suites": names,
        "results": [r.to_json() for r in reports],
        "ok": ok,
    }
    _emit(args, payload)
    return 0 if ok else 1


def report_text(payload) -> str:
    """`json.dumps(payload, indent=2, sort_keys=True)`, written directly:
    the standard encoder runs in pure Python whenever it indents.  A `Poly`
    in the payload is written as its `to_json()` would be, straight from
    its numerators, in the order of `Poly.named_terms`."""
    out: list[str] = []
    _write_json(payload, "\n", out)
    return "".join(out)


def _write_json(obj, nl: str, out: list[str]) -> None:
    """Append the text of `obj`; `nl` is a newline plus the indentation of
    the line `obj` starts on."""
    if isinstance(obj, Poly):
        _write_poly(obj, nl, out)
    elif isinstance(obj, dict) and obj:
        inner = nl + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(f"{sep}{_quote(_json_key(key))}: ")
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(obj, (list, tuple)) and obj:
        inner = nl + "  "
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _write_json(value, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    else:  # a scalar, {} or []: the standard encoder's C path
        out.append(json.dumps(obj))


def _write_poly(poly: Poly, nl: str, out: list[str]) -> None:
    """Append the text of `poly.to_json()`, keys "cutoff", "terms", "vars",
    with each term {"den", "exp", "num"} formatted from the numerators."""
    head = poly._json_head()
    inner = nl + "  "
    out.append("{" + inner + '"cutoff": ')
    _write_json(head["cutoff"], inner, out)
    out.append("," + inner + '"terms": ')
    row = inner + "  "  # the line a term starts on
    field = row + "  "
    deeper = field + "  "
    labels = [_quote(name) + ": " for name in sorted(v.name for v in poly.table.variables)]
    den = poly.den
    texts = []
    for exps, n in poly.named_terms():
        g = gcd(n, den)
        body = ("," + deeper).join(map(add, compress(labels, exps), map(str, filter(None, exps))))
        exp = "{" + deeper + body + field + "}" if body else "{}"
        texts.append(
            f'{{{field}"den": "{den // g}",{field}"exp": {exp},{field}"num": "{n // g}"{row}}}'
        )
    out.append("[" + row + ("," + row).join(texts) + inner + "]" if texts else "[]")
    out.append("," + inner + '"vars": ')
    _write_json(head["vars"], inner, out)
    out.append(nl + "}")


def _json_key(key) -> str:
    """A dict key as the standard encoder converts it, after sorting."""
    if isinstance(key, str):
        return key
    if key is None or isinstance(key, (int, float)):
        return json.dumps(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _emit(args, payload: dict):
    text = report_text(payload)
    out = getattr(args, "out", None)
    if out and out != "-":
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tau-forge",
        description="Exact tau-function engine: expansion, models, verification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_expand = sub.add_parser("expand", help="Schur-expand an element's tau-series")
    p_expand.add_argument("--element", required=True, help="element description (JSON)")
    p_expand.add_argument("--charge", type=int, default=0)
    p_expand.add_argument("--cutoff", type=int, default=4)
    p_expand.add_argument("--window", default=None, help="lo..hi override")
    p_expand.add_argument("--out", default="-")
    p_expand.set_defaults(func=cmd_expand)

    p_model = sub.add_parser("model", help="emit a named model tau-series")
    p_model.add_argument(
        "--kind",
        required=True,
        choices=[
            "soliton",
            "unitary",
            "gaussian-normal",
            "hciz",
            "log-squared",
            "gaussian-hermitian",
        ],
    )
    p_model.add_argument("--size", type=int, default=1, help="matrix size / charge")
    # None marks a flag as not given (see MODEL_FLAGS)
    p_model.add_argument("--charge", type=int, default=None)
    p_model.add_argument("--cutoff", type=int, default=4)
    p_model.add_argument("--parameter", default=None)
    p_model.add_argument("--points-p", default=None)
    p_model.add_argument("--points-q", default=None)
    p_model.add_argument("--couplings", default=None)
    p_model.add_argument("--out", default="-")
    p_model.set_defaults(func=cmd_model)

    p_verify = sub.add_parser("verify", help="run a named verification suite")
    p_verify.add_argument("--suite", default="all", choices=["all"] + sorted(SUITES))
    p_verify.add_argument("--cutoff", type=int, default=5)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--corrupt", action="store_true", help="negative control")
    p_verify.add_argument("--element", default=None, help="element JSON for kp suite")
    p_verify.add_argument("--out", default="-")
    p_verify.set_defaults(func=cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        least = max(SUITES[name][0] for name in _suite_names(args.suite))
        if args.cutoff < least:
            parser.error(f"verify --suite {args.suite} needs --cutoff >= {least}")
    elif args.cutoff < 0:
        parser.error(f"{args.command} needs --cutoff >= 0")
    try:
        return args.func(args)
    except InputError as err:
        parser.error(str(err))


if __name__ == "__main__":
    sys.exit(main())
