"""Seeded job lists for the benchmark workloads.

Every input is drawn here from the run's seed, in the benchmark's own code
(not with `tauforge.sampling`), so the workloads stay fixed when the
library's samplers change.  A job is plain data: a CLI argv list, or an
element in the `tauforge.cli.element_from_json` format plus the states or
shapes it acts on.  This module does not import tauforge.

Each workload is a sequence of rounds.  A round has a fixed composition of
job templates; the seed picks the parameters and the order inside the
round.  Whole rounds keep the cost mix of a run the same on every seed, so
percentiles and throughput move little with the seed.
"""

from __future__ import annotations

import json
import random

WORKLOADS = ("model-series", "fock-routes", "kp-verify")

# Parameter pools for `tau-forge model`.  They are finite so that
# references.json can hold the report digest of every job any seed can
# produce; see references.py.
MODEL_SCALES = ("1/2", "2/3", "5/4", "3/2", "2", "3")
LOG_SQUARED_R = ("1/2", "2/3", "3/2", "2")
LOG_SQUARED_E = ("1/3", "3/4", "5/4", "2")
SOLITON_P = ("1/3", "2/5", "3/4", "1/6")
SOLITON_Q = ("1/2", "2/7", "5/6", "3/5")
SOLITON_COUPLING = ("1", "-1/2", "2/3", "3/2")
MODEL_CUTOFFS = (6, 7, 8)

KP_CUTOFF = 8
TAU_ROUTE_CUTOFF = 8
ORACLE_DEPTH = 5
ORACLE_WINDOW = (-21, 21)
ORACLE_WEIGHTS = (0, 1, 2, 3, 4, 5)
FOCK_WINDOW = (-16, 16)


def _rat(rng: random.Random, num: int, den: int) -> str:
    """A nonzero rational p/q with |p| <= num, 1 <= q <= den, as a string."""
    while True:
        p, q = rng.randint(-num, num), rng.randint(1, den)
        if p:
            return f"{p}/{q}"


def _shape(rng: random.Random, weight: int) -> list[int]:
    """A seeded partition of exactly `weight`, parts drawn largest first."""
    parts: list[int] = []
    left = weight
    while left:
        p = rng.randint(1, min(left, parts[-1] if parts else left))
        parts.append(p)
        left -= p
    return parts


def _entries(pairs, rng) -> list[dict]:
    return [{"row": i, "col": k, "value": _rat(rng, 3, 2)} for i, k in pairs]


# -- elements ---------------------------------------------------------------
# Each kind has a fixed shape (how many modes, entries, letters); the seed
# picks the modes and the values.  Cost follows shape far more than values,
# so fixed shapes keep a round's cost the same on every seed.


def exponent_bilinear(rng: random.Random) -> dict:
    """Three modes, all three pairs above the diagonal: nilpotent.  The
    modes straddle 0, so the exponent never acts trivially on the vacuum."""
    lo = rng.choice((-2, -1))
    pairs = [(lo, lo + 1), (lo, lo + 2), (lo + 1, lo + 2)]
    return {"kind": "exponent_bilinear", "entries": _entries(pairs, rng)}


def normal_ordered(rng: random.Random, ordering: int | None) -> dict:
    """Eight entries within distance 2 of the diagonal, on four modes."""
    lo = rng.randint(-3, -1)
    modes = range(lo, lo + 4)
    band = [(i, k) for i in modes for k in modes if abs(i - k) <= 2]
    spec = {"kind": "normal_ordered", "entries": _entries(sorted(rng.sample(band, 8)), rng)}
    if ordering is not None:
        spec["ordering"] = ordering
    return spec


def diagonal(rng: random.Random) -> dict:
    """Multipliers on six of the modes -4..4."""
    modes = sorted(rng.sample(range(-4, 5), 6))
    mults = [{"mode": j, "value": _rat(rng, 4, 3)} for j in modes]
    return {"kind": "diagonal", "mults": mults, "ordered": rng.random() < 0.5}


def linear_word(rng: random.Random) -> dict:
    """Three letters of two terms each on modes -2..2, net charge +1 or -1."""
    species = [rng.choice(("psi", "psi*")), "psi", "psi*"]
    rng.shuffle(species)
    letters = [
        [
            {"coeff": _rat(rng, 3, 2), "species": s, "mode": m}
            for m in sorted(rng.sample(range(-2, 3), 2))
        ]
        for s in species
    ]
    return {"kind": "linear_word", "letters": letters}


def character(rng: random.Random) -> dict:
    return {"kind": "character", "partition": _shape(rng, 2)}


def projector(rng: random.Random) -> dict:
    return {"kind": "projector", "side": "plus", "charge": rng.choice((-2, -1, 0))}


def product(rng: random.Random) -> dict:
    return {"kind": "product", "factors": [exponent_bilinear(rng), projector(rng)]}


def two_point_soliton(rng: random.Random) -> dict:
    return {
        "kind": "soliton",
        "couplings": [[rng.choice(SOLITON_COUPLING)]],
        "ps": [rng.choice(SOLITON_P)],
        "qs": [rng.choice(SOLITON_Q)],
    }


ELEMENTS = {
    "identity": lambda rng: {"kind": "identity"},
    "character": character,
    "exponent_bilinear": exponent_bilinear,
    "bare_ordered": lambda rng: normal_ordered(rng, None),
    "vacuum_ordered": lambda rng: normal_ordered(rng, 0),
    "diagonal": diagonal,
    "projector": projector,
    "linear_word": linear_word,
    "product": product,
}


def element_charge(spec: dict) -> int:
    """Charge of an element, read off its description."""
    if spec["kind"] == "linear_word":
        return sum(1 if lt[0]["species"] == "psi" else -1 for lt in spec["letters"])
    if spec["kind"] == "product":
        return sum(element_charge(f) for f in spec["factors"])
    return 0


def _states(rng: random.Random, count: int, weight: int) -> list[list]:
    return [[rng.choice((-1, 0, 1)), _shape(rng, weight)] for _ in range(count)]


# -- rounds -----------------------------------------------------------------


def _model_argv(kind: str, size: int, cutoff: int, **extra: str) -> list[str]:
    argv = ["model", "--kind", kind, "--size", str(size), "--cutoff", str(cutoff)]
    for flag, value in extra.items():
        # "--flag=value" keeps a value such as "-1/2" from reading as a flag
        argv.append(f"--{flag.replace('_', '-')}={value}")
    return argv


def model_round(rng: random.Random, index: int) -> list[dict]:
    argvs = [_model_argv("unitary", s, c) for s in (1, 2) for c in MODEL_CUTOFFS]
    for c in MODEL_CUTOFFS:
        size = rng.choice((2, 3))
        argvs.append(_model_argv("gaussian-normal", size, c, parameter=rng.choice(MODEL_SCALES)))
        argvs.append(_model_argv("hciz", size, c, parameter=rng.choice(MODEL_SCALES)))
        param = f"{rng.choice(LOG_SQUARED_R)},{rng.choice(LOG_SQUARED_E)}"
        argvs.append(_model_argv("log-squared", size, c, parameter=param))
    for size in (2, 3, 4):
        argvs.append(_model_argv("gaussian-hermitian", size, rng.choice(MODEL_CUTOFFS)))
    for c in MODEL_CUTOFFS * 2:
        argvs.append(
            _model_argv(
                "soliton",
                1,
                c,
                points_p=rng.choice(SOLITON_P),
                points_q=rng.choice(SOLITON_Q),
                couplings=rng.choice(SOLITON_COUPLING),
            )
        )
    return [{"type": "model", "argv": a} for a in argvs]


def fock_round(rng: random.Random, index: int) -> list[dict]:
    jobs = []
    for kind, make in ELEMENTS.items():
        if kind != "character":  # a state projector has no action on bras
            quads = [_states(rng, 4, 2) for _ in range(4)]
            jobs.append({"type": "bbc", "element": make(rng), "quadruples": quads})
        g = make(rng)
        jobs.append(
            {"type": "charge", "element": g, "states": _states(rng, 4, 2), "charge": element_charge(g)}
        )
        jobs.append({"type": "tau_routes", "element": make(rng), "charge": rng.choice((-1, 0, 1))})
    # one basis vector of each weight; round r takes the r-th shape of each
    # weight (shapes of one weight differ in cost by up to 1.7x)
    for weight in ORACLE_WEIGHTS:
        shapes = _shapes_of(weight)
        jobs.append(
            {
                "type": "current_exp",
                "charge": rng.choice((-1, 0, 1)),
                "shape": shapes[index % len(shapes)],
            }
        )
    return jobs


def _shapes_of(weight: int) -> list[list[int]]:
    if weight == 0:
        return [[]]
    return [[p] + rest for p in range(weight, 0, -1) for rest in _shapes_of(weight - p)
            if not rest or rest[0] <= p]


# bare-ordered bilinears are left to fock-routes: their kp jobs range over
# 30x in cost, which moved the median job time from seed to seed
KP_WINDOW_KINDS = ("exponent_bilinear", "vacuum_ordered", "diagonal", "linear_word")


def kp_round(rng: random.Random, index: int) -> list[dict]:
    # two solitons (about 0.8 s each) to eight window elements (about 0.05 s
    # each): the solitons are the top fifth of the jobs, so the 90th
    # percentile falls among them and not in the tail of the window jobs
    elements = [two_point_soliton(rng) for _ in range(2)]
    elements += [ELEMENTS[kind](rng) for kind in KP_WINDOW_KINDS for _ in range(2)]
    return [
        {
            "type": "verify",
            "argv": ["verify", "--suite", "kp", "--cutoff", str(KP_CUTOFF), "--element", _json(g)],
        }
        for g in elements
    ]


def _json(spec: dict) -> str:
    return json.dumps(spec, sort_keys=True, separators=(",", ":"))


ROUNDS = {"model-series": model_round, "fock-routes": fock_round, "kp-verify": kp_round}


def make_rounds(workload: str, seed: int, count: int) -> list[list[dict]]:
    """The first `count` rounds of a workload; round r is a prefix-stable
    function of (workload, seed), and each round is shuffled."""
    rng = random.Random(f"{workload}:{seed}")
    rounds = []
    for index in range(count):
        jobs = ROUNDS[workload](rng, index)
        rng.shuffle(jobs)
        rounds.append(jobs)
    return rounds
