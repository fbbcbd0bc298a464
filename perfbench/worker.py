"""Benchmark worker: runs one workload's jobs in a fresh interpreter.

    python3 perfbench/worker.py --jobs FILE --result FILE --mode MODE
        [--seconds S] [--min-rounds N] [--corrupt-job I]

MODE is one of
  setup   import tauforge, build the families, decode every job, then exit;
  timed   run whole rounds until S seconds have passed and at least N
          rounds are done;
  fixed   run every round in the file, untraced;
  traced  run every round in the file with the layer tracer installed.

The worker is a closed loop with one client: jobs run back to back, and
they share the library's module-global memos as in one library session.
Each job is checked after its timed span ends; a job that raises, exits
non-zero or returns a wrong answer counts as failed.  A reference kernel is
timed before every job (and nine times after set-up), so run.py can rescale
times to a fixed machine speed.  The result file gets one JSON object with
the time the worker was ready, the per-job times, kernel times and
failures, the peak RSS and, when traced, the per-layer metrics and per-job
work counters.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

import jobs as jobspec
import references

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench_build" / "perfbench"
SETUP_REFERENCE_RUNS = 9


def use_checkout_source():
    """Make `import tauforge` load this checkout's source tree, never an
    installed copy."""
    sys.path.insert(0, str(SRC))
    import tauforge

    if Path(tauforge.__file__).resolve().parent != (SRC / "tauforge").resolve():
        raise SystemExit(f"tauforge imported from {tauforge.__file__}, not {SRC}")


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python workload with the operations
    tauforge's hot paths use (Fraction products, dict updates, sorted tuple
    keys).  It runs before every job, so the machine speed at the time of
    each job is known; it does not touch tauforge."""
    t0 = time.perf_counter()
    terms = {(i, j): Fraction(i + 1, j + 2) for i in range(5) for j in range(5)}
    acc: dict = {}
    for (i, j), c in terms.items():
        for (k, m), d in terms.items():
            key = tuple(sorted(((0, i + k), (1, j + m))))
            acc[key] = acc.get(key, 0) + c * d
    return time.perf_counter() - t0


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


class Session:
    """Decoded jobs plus the families and windows they share."""

    def __init__(self, scratch: Path):
        use_checkout_source()
        from tauforge import cli, fock, grouplike, partitions, polyring, schur, tau

        self.cli, self.fock, self.grouplike, self.partitions = cli, fock, grouplike, partitions
        self.polyring, self.schur, self.tau = polyring, schur, tau
        self.scratch = scratch
        self.refs = references.load()
        self.family = {
            d: self.polyring.standard_single_family(d)
            for d in (jobspec.TAU_ROUTE_CUTOFF, jobspec.ORACLE_DEPTH)
        }
        self.fock_window = self.fock.ModeWindow(*jobspec.FOCK_WINDOW)
        self.oracle_window = self.fock.ModeWindow(*jobspec.ORACLE_WINDOW)

    def _state(self, pair):
        return (int(pair[0]), self.partitions.Partition(pair[1]))

    def prepare(self, job: dict, corrupt: bool):
        """Decode one job into (call, check): `call()` is the timed span,
        `check(output)` returns None or the reason the output is wrong."""
        kind = job["type"]
        if kind in ("model", "verify"):
            out = self.scratch / "report.json"
            argv = list(job["argv"]) + ["--out", str(out)]
            if corrupt and kind == "verify":
                argv.append("--corrupt")
            cli = self.cli

            def call():
                return cli.main(argv)

            def check(rc):
                if rc != 0:
                    return f"exit code {rc}"
                payload = json.loads(out.read_text())
                if kind == "verify":
                    return verify_failure(payload)
                if corrupt:
                    first = payload["tau"]["terms"][0]
                    first["num"] = str(int(first["num"]) + 1)
                return self.model_failure(job["argv"], payload)

            return call, check
        g = self.cli.element_from_json(job["element"]) if "element" in job else None
        if kind == "bbc":
            quads = [tuple(self._state(s) for s in quad) for quad in job["quadruples"]]
            grouplike, window = self.grouplike, self.fock_window

            def call():
                return grouplike.bbc_check(g, window, quads)

            def check(bad):
                if corrupt:
                    bad = quads[0]
                return None if bad is None else f"exchange identity fails on {bad}"

            return call, check
        if kind == "charge":
            states = [self._state(s) for s in job["states"]]
            grouplike, window = self.grouplike, self.fock_window

            def call():
                return grouplike.verify_charge(g, window, states)

            def check(q):
                if corrupt:
                    q += 1
                return None if q == job["charge"] else f"charge {q} != {job['charge']}"

            return call, check
        if kind == "tau_routes":
            n, depth = job["charge"], jobspec.TAU_ROUTE_CUTOFF
            fam = self.family[depth]
            charges = [n, n - self.grouplike.charge_of(g)]
            window = self.fock.window_for(charges + self.tau.mode_support(g), depth)
            tau = self.tau

            def call():
                series = tau.expand_mkp(g, n, fam, depth, window).poly
                return series, tau.expand_mkp_direct(g, n, fam, depth, window)

            def check(out):
                series, direct = out
                if corrupt:
                    series = series + fam.one()
                return None if series == direct else "Schur sum and operator route differ"

            return call, check
        if kind == "current_exp":
            n, depth = job["charge"], jobspec.ORACLE_DEPTH
            fam = self.family[depth]
            mu = self.partitions.Partition(job["shape"])
            ket = self.fock.basis_vector(self.oracle_window, n, mu)
            shapes = [
                lam for lam in self.partitions.enumerate_partitions(mu.weight + depth)
                if lam.contains(mu)
            ]
            fock, schur = self.fock, self.schur

            def call():
                grown = fock.apply_current_exp_direct("lower", fam, ket, depth)
                want = {}
                for lam in shapes:
                    c = schur.skew_schur(fam, lam, mu)
                    if not c.is_zero:
                        sign = (-1) ** (lam.sign_exponent() - mu.sign_exponent())
                        want[(n, lam.parts)] = c * sign
                return grown.states, want

            def check(out):
                grown, want = out
                if corrupt:
                    want = {}
                return None if grown == want else "operator exponential != signed skew Schur"

            return call, check
        raise ValueError(f"unknown job type {kind!r}")

    def model_failure(self, argv: list[str], payload: dict) -> str | None:
        """Compare the report's tau payload with the stored digest, or with
        an independent route when no digest is stored for this job."""
        want = self.refs.get(references.key(argv))
        if want is not None:
            got = digest(payload["tau"])
            return None if got == want else f"tau digest {got[:12]} is not the reference"
        poly = self.polyring.Poly.from_json(payload["tau"])
        if poly != references.independent_tau(argv, self.polyring):
            return "tau differs from the independent route"
        return None


def verify_failure(payload: dict) -> str | None:
    if payload.get("ok") is not True:
        return "report ok is not true"
    for r in payload["results"]:
        if r["ok"] is not True or r["verified_weight"] <= 0:
            return f"check {r['check']}: ok={r['ok']} weight={r['verified_weight']}"
    return None


def run_jobs(prepared, deadline_s: float | None, min_rounds: int, tracer=None):
    """Run rounds back to back; with a deadline, stop after the first
    whole round that ends past it (and not before `min_rounds`)."""
    records = []
    start = time.perf_counter()
    for r, round_jobs in enumerate(prepared):
        if deadline_s is not None and r >= min_rounds and time.perf_counter() - start >= deadline_s:
            break
        for job_id, call, check in round_jobs:
            ref_s = reference_kernel()
            if tracer is not None:
                tracer.start_job(job_id)
            t0 = time.perf_counter()
            try:
                out = call()
                failure = None
            except Exception as err:  # a failed operation, reported, not fatal
                failure = f"raised {type(err).__name__}: {err}"
            wall = time.perf_counter() - t0
            if tracer is not None:
                tracer.end_job()
            if failure is None:
                if tracer is not None:
                    with tracer.paused():
                        failure = check(out)
                else:
                    failure = check(out)
            records.append(
                {"id": job_id, "round": r, "wall_s": wall, "ref_s": ref_s, "failure": failure}
            )
    return records


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--jobs", required=True, type=Path)
    p.add_argument("--result", required=True, type=Path)
    p.add_argument("--mode", required=True, choices=("setup", "timed", "fixed", "traced"))
    p.add_argument("--seconds", type=float, default=None)
    p.add_argument("--min-rounds", type=int, default=1)
    p.add_argument("--corrupt-job", type=int, default=-1)
    args = p.parse_args(argv)

    rounds = json.loads(args.jobs.read_text())
    session = Session(args.result.parent)
    prepared = []
    job_id = 0
    for round_jobs in rounds:
        decoded = []
        for job in round_jobs:
            call, check = session.prepare(job, corrupt=job_id == args.corrupt_job)
            decoded.append((job_id, call, check))
            job_id += 1
        prepared.append(decoded)
    ready = time.monotonic()
    result = {"ready_monotonic": ready}
    if args.mode == "setup":
        result["ref_s"] = [reference_kernel() for _ in range(SETUP_REFERENCE_RUNS)]
    else:
        tracer = None
        if args.mode == "traced":
            import tracer as tracing

            tracer = tracing.Tracer()
            tracer.install()
        try:
            deadline = args.seconds if args.mode == "timed" else None
            result["jobs"] = run_jobs(prepared, deadline, args.min_rounds, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            result["layers"] = tracer.metrics()
            result["job_counters"] = tracer.job_counts
            tracer.write_spans(args.result.with_suffix(".spans.jsonl"))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
