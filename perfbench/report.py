"""Run every workload once and print all end-to-end metrics by name and unit.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace]

`--seconds` defaults to `run_seconds` in BENCHMARK.json.
With `--trace`, each workload also gets a traced run, and the report adds
its largest per-layer self times and the tracing overhead. Exits 1 if any
output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

from run import HERE, ROOT, WORKLOADS


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        run_seconds = json.load(fh)["run_seconds"]
    ap.add_argument("--seconds", type=float, default=run_seconds)
    ap.add_argument("--trace", action="store_true", help="add a traced run per workload")
    args = ap.parse_args()
    all_correct = True
    for workload in WORKLOADS:
        res = run(workload, args.seed, args.seconds, 0)
        all_correct &= res["correct"]
        print(f"{workload}  (checks {'pass' if res['correct'] else 'FAIL'})")
        print(f"  {'failed_ratio':<14} {res['failed'] / res['attempted']:<12.4g} ({res['failed']} / {res['attempted']})")
        for name, m in res["metrics"].items():
            print(f"  {name:<14} {m['value']:<12.4g} {m['unit']}")
        if args.trace:
            traced = run(workload, args.seed, args.seconds, 1)
            all_correct &= traced["correct"]
            layers = traced["metrics"]
            print(f"  traced run: overhead {layers['trace.overhead_ratio']['value']:+.1%}, largest self times:")
            selfs = sorted(
                ((m["value"], name[: -len(".self_s")]) for name, m in layers.items() if name.endswith(".self_s")),
                reverse=True,
            )
            for value, name in selfs[:6]:
                calls = layers[f"{name}.calls"]["value"]
                print(f"    {name:<40} {value:.4f} s/op  {calls:.3g} calls/op")
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
