"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py

The traced-run tests start the benchmark in subprocesses and take about a
minute in all.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

import jobs
import references
import run
import tracer
import worker

ROOT = run.ROOT


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def template(job: dict) -> tuple:
    """What a job is, without its seeded parameters."""
    if job["type"] == "model":
        argv = job["argv"]
        kind = argv[2]
        fixed = kind == "unitary"
        return (kind, argv[4] if fixed else None, argv[6] if fixed else None)
    if job["type"] == "verify":
        return ("verify", json.loads(job["argv"][-1])["kind"])
    if job["type"] == "current_exp":
        return ("current_exp", sum(job["shape"]))
    return (job["type"], job["element"]["kind"])


# -- generator --------------------------------------------------------------


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_generator_is_deterministic_per_seed(workload):
    assert jobs.make_rounds(workload, 5, 3) == jobs.make_rounds(workload, 5, 3)
    # a longer list extends a shorter one
    assert jobs.make_rounds(workload, 5, 4)[:3] == jobs.make_rounds(workload, 5, 3)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_changing_the_seed_changes_the_jobs(workload):
    assert jobs.make_rounds(workload, 5, 1) != jobs.make_rounds(workload, 6, 1)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_every_round_has_the_same_composition(workload):
    compositions = {
        frozenset(Counter(template(j) for j in r).items())
        for seed in range(4)
        for r in jobs.make_rounds(workload, seed, 3)
    }
    assert len(compositions) == 1


def test_model_jobs_have_reference_digests():
    refs = references.load()
    argvs = {references.key(a) for a in references.every_model_argv()}
    assert set(refs) == argvs
    for seed in range(20):
        for r in jobs.make_rounds("model-series", seed, 3):
            for job in r:
                assert references.key(job["argv"]) in refs


def test_percentile_counts_the_samples_beyond():
    values = [float(i) for i in range(1, 101)]
    assert run.percentile(values, 0.5) == (50.0, 50)
    assert run.percentile(values, 0.9) == (90.0, 10)


# -- gate and negative controls ---------------------------------------------


@pytest.fixture(scope="module")
def session():
    scratch = worker.SCRATCH / "tests"
    scratch.mkdir(parents=True, exist_ok=True)
    return worker.Session(scratch)


def one_of_each_type(workload: str) -> list[dict]:
    seen = {}
    for job in jobs.make_rounds(workload, 0, 1)[0]:
        seen.setdefault(job["type"], job)
    return list(seen.values())


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_gate_passes_true_answers_and_catches_corrupted_ones(session, workload):
    for job in one_of_each_type(workload):
        call, check = session.prepare(job, corrupt=False)
        assert check(call()) is None, job
        call, check = session.prepare(job, corrupt=True)
        assert check(call()) is not None, job


def test_model_gate_falls_back_to_the_independent_route(session):
    argv = jobs._model_argv("hciz", 2, 6, parameter="7/5")
    assert references.key(argv) not in session.refs
    call, check = session.prepare({"type": "model", "argv": argv}, corrupt=False)
    assert check(call()) is None
    call, check = session.prepare({"type": "model", "argv": argv}, corrupt=True)
    assert check(call()) == "tau differs from the independent route"


def test_corrupted_kp_job_drives_fail_ratio_above_zero():
    result = last_json(bench("--workload", "kp-verify", "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--corrupt-job", "2"))
    assert result["failed"] == 1 and result["attempted"] >= run.MIN_JOBS
    assert result["correct"] is False


# -- tracer -----------------------------------------------------------------


def bindings() -> dict:
    """Every attribute of every tauforge module and class, by identity."""
    worker.use_checkout_source()
    for layer in tracer.LAYERS:
        __import__(f"tauforge.{layer}")
    out = {}
    for name, module in sorted(sys.modules.items()):
        if not name.startswith("tauforge."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = id(value)
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = id(cvalue)
    return out


def test_tracer_restores_every_binding():
    before = bindings()
    t = tracer.Tracer()
    t.install()
    try:
        from tauforge import polyring, schur, tau

        assert tau.schur_jt is schur.schur_jt
        assert getattr(schur.schur_jt, "__wrapped_by_tracer__", False)
        assert polyring.Poly.__rmul__ is polyring.Poly.__mul__
        assert getattr(polyring.Poly.__mul__, "__wrapped_by_tracer__", False)
        assert bindings() != before
    finally:
        t.uninstall()
    assert bindings() == before


def traced(workload: str, seed: int) -> dict:
    metrics = last_json(bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                              "--trace", "1"))["metrics"]
    stem = run.SCRATCH / "traces" / f"{workload}-seed{seed}"
    per_job = json.loads(stem.with_suffix(".jobs.json").read_text())
    return {k: v["value"] for k, v in metrics.items()}, per_job


EXACT = tuple(
    [f"{layer}.{f}" for layer in tracer.LAYERS for f in ("calls", "raised")]
    + list(tracer.REPORTED_COUNTERS)
    + ["polyring.mul.kept_ratio", "schur.repeat_ratio", "tau.coeff_nonzero_ratio"]
)


@pytest.mark.parametrize("workload", jobs.WORKLOADS)
def test_traced_runs_repeat_exactly(workload):
    first, first_jobs = traced(workload, 7)
    second, second_jobs = traced(workload, 7)
    assert {k: first[k] for k in EXACT} == {k: second[k] for k in EXACT}
    assert first_jobs == second_jobs
    assert "trace.overhead_s" in first
    if workload == "model-series":
        assert first["fock.calls"] == 0
        heavy = [
            j["counters"] for j in first_jobs
            if j["job"]["argv"][:6] == ["model", "--kind", "unitary", "--size", "2", "--cutoff"]
            and j["job"]["argv"][6] == "8"
        ]
        # counted directly in Poly.__mul__'s loop: 1,247,612 products formed,
        # 16,572 within the cutoffs
        assert [(c["polyring.mul.kept"], c["polyring.mul.candidates"]) for c in heavy] == [
            (16572, 1247612)
        ]


def test_benchmark_without_the_program_fails():
    bare = worker.SCRATCH / "tests" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(run.HERE, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "kp-verify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
