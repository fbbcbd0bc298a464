"""Reference digests for the model-series workload, and the independent
routes they were checked against.

The model-series parameter pools in jobs.py are finite, so references.json
holds the sha256 of the `tau` payload (not the `schema` envelope) of every
`tau-forge model` job that any seed can produce.  Each digest was written
only after the CLI's answer matched an independent route in
`tauforge.models`:

  unitary             Toeplitz determinant  vs  route="cauchy"
  gaussian-normal,
  hciz, log-squared   closed Schur sum      vs  diagonal_model_tau_fock
  gaussian-hermitian  moment determinant    vs  hermitian_fermionic_tau
                                                times the factorial staircase
  soliton             "determinant"         vs  "explicit"

A job whose digest is missing (a seed-independent pool change, say) is
checked against the same independent route at run time.

Regenerate with  python3 perfbench/references.py --write
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys
from fractions import Fraction
from math import factorial
from pathlib import Path

import jobs as jobspec

PATH = Path(__file__).resolve().parent / "references.json"


def key(argv: list[str]) -> str:
    return " ".join(argv)


def load() -> dict[str, str]:
    return json.loads(PATH.read_text())


def independent_tau(argv: list[str], polyring):
    """The job's tau by the independent route, as a Poly."""
    from tauforge import cli, models

    args = cli.build_parser().parse_args(list(argv))
    depth, size = args.cutoff, args.size
    if args.kind == "soliton":
        data = models.SolitonData(
            tuple(Fraction(x) for x in args.points_p.split(",")),
            tuple(Fraction(x) for x in args.points_q.split(",")),
            tuple(tuple(Fraction(x) for x in row.split(",")) for row in args.couplings.split(";")),
        )
        fam = polyring.standard_single_family(depth)
        return models.soliton_tau(data, args.charge, fam, depth, "explicit").poly
    if args.kind == "gaussian-hermitian":
        fam = polyring.standard_single_family(depth)
        staircase = 1
        for k in range(1, size + 1):
            staircase *= factorial(k - 1)
        return models.hermitian_fermionic_tau(size, fam, depth) * staircase
    plus, minus = polyring.standard_double_family(depth, depth)
    if args.kind == "unitary":
        return models.unitary_model_tau(size, plus, minus, depth, route="cauchy")
    if args.kind == "log-squared":
        r, e = args.parameter.split(",")
        model = models.DiagonalModel.log_squared(Fraction(r), Fraction(e))
    elif args.kind == "gaussian-normal":
        model = models.DiagonalModel.gaussian(Fraction(args.parameter))
    else:
        model = models.DiagonalModel.hciz(Fraction(args.parameter))
    return models.diagonal_model_tau_fock(model, size, plus, minus, depth)


def every_model_argv() -> list[list[str]]:
    """Every argv the model-series generator can emit."""
    argv = jobspec._model_argv
    cuts = jobspec.MODEL_CUTOFFS
    out = [argv("unitary", s, c) for s in (1, 2) for c in cuts]
    for kind in ("gaussian-normal", "hciz"):
        out += [
            argv(kind, s, c, parameter=p)
            for s, c, p in itertools.product((2, 3), cuts, jobspec.MODEL_SCALES)
        ]
    out += [
        argv("log-squared", s, c, parameter=f"{r},{e}")
        for s, c, r, e in itertools.product(
            (2, 3), cuts, jobspec.LOG_SQUARED_R, jobspec.LOG_SQUARED_E
        )
    ]
    out += [argv("gaussian-hermitian", s, c) for s in (2, 3, 4) for c in cuts]
    out += [
        argv("soliton", 1, c, points_p=p, points_q=q, couplings=a)
        for c, p, q, a in itertools.product(
            cuts, jobspec.SOLITON_P, jobspec.SOLITON_Q, jobspec.SOLITON_COUPLING
        )
    ]
    return out


def write() -> int:
    """Run every model job through the CLI, check it against its
    independent route, and store the digest."""
    import worker

    worker.use_checkout_source()
    from tauforge import cli, polyring

    refs = {}
    worker.SCRATCH.mkdir(parents=True, exist_ok=True)
    out = worker.SCRATCH / "references-report.json"
    for argv in every_model_argv():
        if cli.main(argv + ["--out", str(out)]) != 0:
            raise SystemExit(f"non-zero exit: {key(argv)}")
        tau_json = json.loads(out.read_text())["tau"]
        if polyring.Poly.from_json(tau_json) != independent_tau(argv, polyring):
            raise SystemExit(f"independent route disagrees: {key(argv)}")
        refs[key(argv)] = worker.digest(tau_json)
    PATH.write_text(json.dumps(refs, indent=0, sort_keys=True) + "\n")
    print(f"wrote {len(refs)} digests to {PATH}")
    return 0


if __name__ == "__main__":
    p = argparse.ArgumentParser(description="Regenerate references.json.")
    p.add_argument("--write", action="store_true", required=True)
    p.parse_args()
    sys.exit(write())
