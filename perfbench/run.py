"""tauforge benchmark: seeded job mixes run end to end, one client, closed loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see jobs.py and BENCHMARK.json for why each exists):
  model-series  `tau-forge model` jobs at cutoffs 6-8
  fock-routes   operator routes on window elements (exchange identity,
                charge, tau routes, current exponential against skew Schur)
  kp-verify     `tau-forge verify --suite kp --cutoff 8 --element ...`

--trace 0 measures.  Set-up is sampled in SETUP_SAMPLES fresh interpreters
(the timed worker is the last one), then the timed worker runs whole rounds
of jobs back to back until S seconds have passed and at least MIN_JOBS jobs
are done, so the 90th percentile has ten jobs beyond it.

Times are reported at a fixed reference speed.  The machine this was built
on is shared, and its speed for pure-Python work swings by 30 % or more over
tens of seconds, so raw wall times of one run did not repeat within any
usable bound.  The worker times a fixed reference kernel (no tauforge code)
before every job, and a time measured while the kernel took k seconds is
multiplied by REFERENCE_S / k: each job's time by the kernel runs just
before and after it (for the percentiles), the run's total job time and
set-up by the kernel's mean over the run (a long job outlasts the speed
seen next to it).  On a machine running at the reference speed every factor
is 1.  Each run also prints the raw wall-clock values.

--trace 1 runs the first TRACE_ROUNDS rounds, each time in a fresh
interpreter, TRACE_REPEATS times untraced and TRACE_REPEATS times with every
layer's entry points wrapped (alternating).  It fails unless the traced runs
give identical calls, raised counts and work counters.  It reports
per-layer calls, times and work counters, plus the tracing overhead (mean
traced minus mean untraced job time).  Spans and per-job counters are
written under .bench_build/perfbench/traces/.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  A job that raises, exits non-zero,
reports ok false or a non-positive verified weight, or returns a wrong
answer counts as failed.  --corrupt-job I corrupts job I's output (or runs
a kp-verify job with --corrupt): a negative control for the gate.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import jobs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCRATCH = ROOT / ".bench_build" / "perfbench"

SETUP_SAMPLES = 5
MIN_JOBS = 100
MAX_ROUNDS = 100
TRACE_ROUNDS = 1
TRACE_REPEATS = 2
WORKER_TIMEOUT_S = 170
# the reference kernel's time at the reference speed (about its median on a
# quiet 2.1 GHz core); see worker.reference_kernel
REFERENCE_S = 0.0035

END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_s.p50": "s",
    "job_s.p90": "s",
    "peak_rss_mb": "MB",
}


def percentile(sorted_values: list[float], q: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


class Runner:
    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONHASHSEED="0")

    def worker(self, jobs_file: Path, name: str, mode: str, *extra: str) -> tuple[dict, float]:
        """Run one worker to completion; returns its result and its set-up
        time, from just before the interpreter starts to the worker being
        ready for its first job."""
        result = self.workdir / f"{name}.json"
        cmd = [
            sys.executable, str(HERE / "worker.py"),
            "--jobs", str(jobs_file), "--result", str(result), "--mode", mode, *extra,
        ]
        spawned = time.monotonic()
        proc = subprocess.run(
            cmd, cwd=ROOT, env=self.env, timeout=WORKER_TIMEOUT_S,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker {name} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        data = json.loads(result.read_text())
        return data, data["ready_monotonic"] - spawned


def write_jobs(path: Path, rounds: list) -> Path:
    path.write_text(json.dumps(rounds))
    return path


def gate(records: list[dict]) -> tuple[int, int, list[str]]:
    failures = [f"job {r['id']}: {r['failure']}" for r in records if r["failure"]]
    return len(records), len(failures), failures


def report_failures(attempted: int, failed: int, failures: list[str]):
    print(f"  fail_ratio = {failed}/{attempted} = {failed / attempted:.6g}")
    for line in failures[:5]:
        print(f"  FAILED {line}")


def provenance(args):
    cutoffs = {
        "model-series": f"model cutoffs {list(jobs.MODEL_CUTOFFS)}",
        "fock-routes": f"tau routes at cutoff {jobs.TAU_ROUTE_CUTOFF}, "
                       f"current exponential at D = {jobs.ORACLE_DEPTH}",
        "kp-verify": f"kp suite at cutoff {jobs.KP_CUTOFF}",
    }[args.workload]
    per_round = len(jobs.make_rounds(args.workload, args.seed, 1)[0])
    print(f"python {platform.python_version()}, nproc {os.cpu_count()}, load average at start "
          f"{' '.join(f'{x:.2f}' for x in os.getloadavg())}; {per_round} jobs a round, {cutoffs}")


def speed_factor(ref_samples: list[float]) -> float:
    """Rescales a time measured while the reference kernel took these
    times to the reference speed."""
    return REFERENCE_S / statistics.mean(ref_samples)


def measure(args, runner: Runner) -> dict:
    per_round = len(jobs.make_rounds(args.workload, args.seed, 1)[0])
    min_rounds = math.ceil(MIN_JOBS / per_round)
    rounds = jobs.make_rounds(args.workload, args.seed, max(MAX_ROUNDS, min_rounds))
    jobs_file = write_jobs(runner.workdir / "jobs.json", rounds)
    raw_setups, setups = [], []
    for i in range(SETUP_SAMPLES - 1):
        result, setup = runner.worker(jobs_file, f"setup{i}", "setup")
        raw_setups.append(setup)
        setups.append(setup * speed_factor(result["ref_s"]))
    timed, setup = runner.worker(
        jobs_file, "timed", "timed",
        "--seconds", str(args.seconds), "--min-rounds", str(min_rounds),
        "--corrupt-job", str(args.corrupt_job),
    )
    records = timed["jobs"]
    refs = [r["ref_s"] for r in records]
    factor = speed_factor(refs)
    raw_setups.append(setup)
    setups.append(setup * factor)
    raw = sorted(r["wall_s"] for r in records)
    # a job's own speed: the kernel runs just before it and just after it
    local = [
        r["wall_s"] * speed_factor(refs[i:i + 2]) for i, r in enumerate(records)
    ]
    walls = sorted(local)
    p50, _ = percentile(walls, 0.50)
    p90, beyond = percentile(walls, 0.90)
    if beyond < 10:
        raise RuntimeError(f"only {beyond} jobs beyond the 90th percentile")
    attempted, failed, failures = gate(records)
    metrics = {
        "setup_s": statistics.median(setups),
        "jobs_per_s": attempted / (sum(raw) * factor),
        "job_s.p50": p50,
        "job_s.p90": p90,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    n_rounds = records[-1]["round"] + 1
    print(f"{args.workload} seed {args.seed}: {attempted} jobs in {n_rounds} rounds, "
          f"{sum(raw):.2f} s of job time")
    print(f"  job_s.p50 over {attempted} jobs, job_s.p90 with {beyond} jobs beyond it")
    print(f"  speed factor {factor:.4f}: the reference kernel took "
          f"{statistics.mean(r['ref_s'] for r in records) * 1e3:.3f} ms on average, "
          f"{REFERENCE_S * 1e3:.3f} ms at the reference speed")
    print(f"  as measured: setup_s {statistics.median(raw_setups):.6g}, "
          f"jobs_per_s {attempted / sum(raw):.6g}, job_s.p50 {percentile(raw, 0.5)[0]:.6g}, "
          f"job_s.p90 {percentile(raw, 0.9)[0]:.6g}")
    print("  at the reference speed:")
    for name, value in metrics.items():
        print(f"  {name} = {value:.6g} {END_TO_END[name]}")
    report_failures(attempted, failed, failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()},
    }


def trace(args, runner: Runner) -> dict:
    rounds = jobs.make_rounds(args.workload, args.seed, TRACE_ROUNDS)
    jobs_file = write_jobs(runner.workdir / "jobs.json", rounds)
    corrupt = ("--corrupt-job", str(args.corrupt_job))
    plain, traced = [], []
    for i in range(TRACE_REPEATS):  # alternate, so drift in CPU speed hits both
        plain.append(runner.worker(jobs_file, f"untraced{i}", "fixed", *corrupt)[0])
        traced.append(runner.worker(jobs_file, f"traced{i}", "traced", *corrupt)[0])
    first = traced[0]
    for other in traced[1:]:
        exact = [k for k in first["layers"] if not k.endswith("_s")]
        if ([first["layers"][k] for k in exact] != [other["layers"][k] for k in exact]
                or first["job_counters"] != other["job_counters"]):
            raise RuntimeError("two traced runs of the same jobs gave different counts")
    def factor(run):
        return speed_factor([r["ref_s"] for r in run["jobs"]])

    layers = {
        k: statistics.mean(t["layers"][k] * (factor(t) if k.endswith("_s") else 1) for t in traced)
        for k in first["layers"]
    }
    untraced_s = statistics.mean(sum(r["wall_s"] for r in p["jobs"]) * factor(p) for p in plain)
    traced_s = statistics.mean(sum(r["wall_s"] for r in t["jobs"]) * factor(t) for t in traced)
    layers["trace.overhead_s"] = traced_s - untraced_s

    out_dir = SCRATCH / "traces"
    out_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    shutil.move(runner.workdir / "traced0.spans.jsonl", out_dir / f"{stem}.spans.jsonl")
    flat = [job for r in rounds for job in r]
    (out_dir / f"{stem}.jobs.json").write_text(json.dumps(
        [{"id": i, "job": job, "counters": first["job_counters"].get(str(i), {})}
         for i, job in enumerate(flat)],
        indent=1,
    ))
    attempted, failed, failures = gate(first["jobs"])
    print(f"{args.workload} seed {args.seed}: {attempted} jobs in {TRACE_ROUNDS} round(s), "
          f"run {TRACE_REPEATS} times untraced and {TRACE_REPEATS} times traced; "
          f"counts repeat exactly")
    print(f"  mean job time at the reference speed untraced {untraced_s:.3f} s, traced {traced_s:.3f} s, "
          f"overhead {traced_s - untraced_s:.3f} s")
    print(f"  spans and per-job counters in {out_dir}/{stem}.*")
    report_failures(attempted, failed, failures)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": layer_unit(k)} for k, v in layers.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=jobs.WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--corrupt-job", type=int, default=-1, help="negative control")
    args = p.parse_args(argv)

    if not (ROOT / "src" / "tauforge" / "__init__.py").is_file():
        print(f"no tauforge source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    SCRATCH.mkdir(parents=True, exist_ok=True)
    workdir = SCRATCH / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        provenance(args)
        result = trace(args, runner) if args.trace else measure(args, runner)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
