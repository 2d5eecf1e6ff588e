"""capbound benchmark: one workload, one seed, one result line.

    python3 perfbench/run.py --workload {prove,verify,search,dims} \
        --seed N --seconds S --trace {0,1}

Run it from the root of a source checkout; it imports the package from
`src/`. Each set-up is a fresh interpreter (`workload.py`); the run sets
up SETUP_REPEATS times and measures in the last one. With `--trace 0` the
result carries the end-to-end metrics, with `--trace 1` the per-layer
metrics of a separate traced pass. The last line of standard output is
the JSON result; the lines before it name every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOADS = ("prove", "verify", "search", "dims")
SETUP_REPEATS = 3
TIME_LIMIT_S = 170.0

def median(values) -> tuple[float, int]:
    """(median, number of samples) of a non-empty sequence."""
    values = list(values)
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values), len(values)


def pinned_env() -> dict:
    """The child environment: package from this checkout, default precision."""
    env = dict(os.environ)
    env.pop("CAPSET_PRECISION", None)
    env["PYTHONPATH"] = SRC
    env["PYTHONHASHSEED"] = "0"
    return env


def environment(seed: int) -> dict:
    """What the numbers depend on besides the code: versions, CPUs, seed."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "capbound")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "seed": seed,
        "capset_precision": "unset",
    }


def run_child(argv: list[str], deadline: float) -> dict:
    """Run workload.py to completion and return its result line.

    The child gets its own process group, so that on a timeout its search
    workers are killed with it.
    """
    cmd = [sys.executable, os.path.join(HERE, "workload.py"), *argv]
    proc = subprocess.Popen(
        cmd, cwd=ROOT, env=pinned_env(), stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, process_group=0,
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"workload process exceeded the {TIME_LIMIT_S:.0f} s limit")
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process exited {proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set up SETUP_REPEATS times, measure in the last; returns raw results."""
    deadline = time.monotonic() + TIME_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    common = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    setups, attempted, failures, result = [], 0, [], {}
    for rep in range(SETUP_REPEATS):
        last = rep == SETUP_REPEATS - 1
        workdir = os.path.join(OUT, f"{workload}-{seed}-{os.getpid()}-{rep}")
        os.makedirs(workdir)
        try:
            t0 = time.monotonic()
            args = common + ["--workdir", workdir, "--t0", repr(t0)]
            if workload == "verify":
                prover = run_child(args + ["--mode", "prove-transcripts"], deadline)
                attempted += prover["attempted"]
                failures += prover["failures"]
            mode = ["--mode", "measure"] if last else ["--mode", "setup"]
            if last and trace:
                mode += ["--spans", os.path.join(OUT, f"spans-{workload}.jsonl")]
            result = run_child(args + mode, deadline)
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        setups.append(result["setup_s"])
        attempted += result["attempted"]
        failures += result["failures"]
    result.update(setup_samples=setups, attempted=attempted, failures=failures)
    return result


def end_to_end(result: dict) -> dict:
    """The end-to-end metrics of an untraced run.

    op_p50_s is the median op of each round (one op per input kind),
    averaged over the rounds. The plain median of all op times snaps
    between the fast and slow phases that a shared host goes through
    within a run; the round-by-round form follows the share of each.
    """
    ops = result["op_seconds"]
    return {
        "ops_per_s": len(ops) / sum(ops),
        "op_p50_s": statistics.fmean(result["round_medians"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "setup_s": median(result["setup_samples"])[0],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="capbound benchmark, one workload per run")
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "capbound", "cli.py")):
        print(f"error: no capbound sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not result["op_seconds"]:
        print("error: no timed op succeeded", *result["failures"][:20], sep="\n", file=sys.stderr)
        return 1
    if not result["capbound"].startswith(SRC + os.sep):
        print(f"error: measured {result['capbound']}, not the package under {SRC}", file=sys.stderr)
        return 1

    env = environment(args.seed)
    env.update({k: result[k] for k in ("python", "numpy", "search_threads")})
    print("env " + json.dumps(env, sort_keys=True))
    attempted, failed = result["attempted"], len(result["failures"])
    for line in result["failures"][:20]:
        print(f"FAILED {line}", file=sys.stderr)
    ops = result["op_seconds"]
    print(
        f"{args.workload}: {len(ops)} timed ops in {len(result['round_medians'])} rounds, "
        f"{len(result['setup_samples'])} set-ups, {failed} failed of {attempted} attempted"
    )
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    values = result["layers"] if args.trace else end_to_end(result)
    if set(values) != {m["name"] for m in declared}:
        print("error: measured metrics differ from those BENCHMARK.json declares", file=sys.stderr)
        return 1
    metrics = {m["name"]: (values[m["name"]], m["unit"]) for m in declared}
    if args.trace and result["absent"]:
        print("absent from the package: " + ", ".join(result["absent"]))
    print(f"  {'failed_ratio':<44} {failed / attempted:.6g} ({failed} / {attempted})")
    samples = {
        "ops_per_s": f"{len(ops)} ops",
        "op_p50_s": f"{len(result['round_medians'])} rounds",
        "setup_s": f"{len(result['setup_samples'])} set-ups",
    }
    for name, (value, unit) in metrics.items():
        extra = f"  (n = {samples[name]})" if name in samples else ""
        print(f"  {name:<44} {value:.6g} {unit}{extra}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
