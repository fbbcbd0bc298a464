"""Run the benchmark on several seeds and report each end-to-end metric's
median and quartile spread (Q3 - Q1 over the median, as
statistics.quantiles(values, n=4) gives the quartiles).

    python3 perfbench/spread.py --workload NAME --seeds 1-10 [--seconds 30]

Prints one line per run as it finishes, then a summary, then the summary as
one JSON object on the last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", required=True, type=seeds)
    p.add_argument("--seconds", default="30")
    args = p.parse_args(argv)

    values: dict[str, list[float]] = {}
    for seed in args.seeds:
        started = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", "0"],
            cwd=run.ROOT, capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            raise SystemExit(f"seed {seed} failed its checks:\n{proc.stdout}")
        got = {k: v["value"] for k, v in result["metrics"].items()}
        for k, v in got.items():
            values.setdefault(k, []).append(v)
        print(f"seed {seed}: {time.monotonic() - started:.1f} s, {result['attempted']} jobs, "
              + ", ".join(f"{k} {v:.5g}" for k, v in got.items()), flush=True)
    summary = {}
    for k, v in values.items():
        q1, _, q3 = statistics.quantiles(v, n=4)
        median = statistics.median(v)
        summary[k] = {"median": median, "spread": (q3 - q1) / median, "runs": len(v)}
        print(f"{args.workload} {k}: median {median:.5g}, spread {(q3 - q1) / median:.4f}")
    print(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
