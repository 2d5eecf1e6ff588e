"""One workload in a fresh interpreter: set-up, one warm-up op, timed ops.

`run.py` starts this script once per set-up; the set-up ends where the
first timed op starts. Every op is one in-process `capbound.cli.main`
call with its standard output captured and checked by `checks`. The load
is a closed loop: ops run back to back in rounds of one op per input
kind, whole rounds until `--seconds` of wall time have passed.

The last line of standard output is one JSON object with the raw
measurements; `run.py` turns them into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import resource
import statistics
import sys
import time
from dataclasses import dataclass
from functools import partial
from typing import Callable

import checks
import inputs
from tracer import Tracer, layer_totals, target_names

SEARCH_THREADS = 2
EXACT_BUDGET = 300_000
PROVE_ROUNDS = 8
VERIFY_ROUNDS = 2
SEARCH_ROUNDS = 64
# p -> lowest n of the first window, for entropy-check (n a multiple of 3)
# and dims (n not a multiple of 3); chosen so that ops take similar time.
ENTROPY_LO = {3: 420, 5: 255, 7: 165, 11: 120}
DIMS_LO = {3: 300, 5: 150, 7: 100, 11: 60}


@dataclass
class Op:
    kind: str
    argv: list[str]
    check: Callable[[int, dict], list[str]]
    dim_v: int | None = None  # of the transcript a verify op checks


def run_op(argv: list[str]) -> tuple[int, float, str, str]:
    """(exit code, wall seconds, standard output, standard error) of one CLI call."""
    from capbound import cli

    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, time.perf_counter() - start, out.getvalue(), err.getvalue()


def _write_json(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh)
    return path


def _prove_round_ops(rounds, workdir: str) -> list[list[Op]]:
    out = []
    for r, row in enumerate(rounds):
        ops = []
        for kind, data in row:
            path = _write_json(os.path.join(workdir, f"input-{r}-{kind}.json"), data)
            dim_v = inputs.PRODUCT_CAP_DIM_V if kind == "product_cap" else None
            check = partial(checks.check_prove, input_points=data, dim_v=dim_v)
            ops.append(Op(kind, ["prove", "--input", path, "--format", "json"], check))
        out.append(ops)
    return out


def build_prove(rng: random.Random, workdir: str):
    rounds = _prove_round_ops(inputs.prove_inputs(rng, PROVE_ROUNDS + 1), workdir)
    warm, rounds = rounds[0][0], rounds[1:]
    return warm, lambda r: rounds[r % len(rounds)]


def prove_transcripts(rng: random.Random, workdir: str) -> tuple[int, list[str]]:
    """Set-up of `verify`: prove its inputs and save each transcript."""
    failures = []
    ops = [op for row in _prove_round_ops(inputs.prove_inputs(rng, VERIFY_ROUNDS), workdir) for op in row]
    for i, op in enumerate(ops):
        problems, out, _, _ = execute(op)
        failures += problems
        with open(os.path.join(workdir, f"transcript-{i}-{op.kind}.json"), "w", encoding="utf-8") as fh:
            fh.write(out)
    return len(ops), failures


def build_verify(rng: random.Random, workdir: str):
    ops = []
    for name in sorted(f for f in os.listdir(workdir) if f.startswith("transcript-")):
        path = os.path.join(workdir, name)
        with open(path, encoding="utf-8") as fh:
            dim_v = int(json.load(fh)["result"]["dims"]["intersection"])
        kind = name.rsplit("-", 1)[1].removesuffix(".json")
        ops.append(Op(kind, ["verify-transcript", "--input", path, "--format", "json"], checks.check_verify, dim_v))
    if not ops:
        raise RuntimeError("no transcripts were proved in set-up")
    per_round = len(ops) // VERIFY_ROUNDS
    rounds = [ops[i : i + per_round] for i in range(0, len(ops), per_round)]
    return ops[0], lambda r: rounds[r % len(rounds)]


def _search_argv(p: int, n: int, *extra: str) -> list[str]:
    return ["search", "--p", str(p), "--n", str(n), *extra, "--format", "json"]


def build_search(rng: random.Random, workdir: str):
    exact = ["--mode", "exact", "--threads", str(SEARCH_THREADS)]
    budget = ["--budget", str(EXACT_BUDGET)]
    fixed = [
        Op("exact_f3_3", _search_argv(3, 3, *exact), partial(checks.check_search, p=3, n=3, size=9, optimal=True)),
        Op("exact_f3_4", _search_argv(3, 4, *exact, *budget), partial(checks.check_search, p=3, n=4, size=20, optimal=None)),
        Op("exact_f5_3", _search_argv(5, 3, *exact, *budget), partial(checks.check_search, p=5, n=3, size=None, optimal=None)),
    ]
    rounds = []
    for _ in range(SEARCH_ROUNDS):
        seed = str(rng.randrange(2**31))
        greedy = Op(
            "greedy_f3_8",
            _search_argv(3, 8, "--mode", "greedy", "--seed", seed),
            partial(checks.check_search, p=3, n=8, size=None, optimal=None),
        )
        rounds.append(fixed + [greedy])
    return fixed[0], lambda r: rounds[r % len(rounds)]


def build_dims(rng: random.Random, workdir: str):
    entropy = {p: inputs.FreshN(rng, lo, True) for p, lo in ENTROPY_LO.items()}
    dims = {p: inputs.FreshN(rng, lo, False) for p, lo in DIMS_LO.items()}

    def make_round(_r: int) -> list[Op]:
        ops = []
        for p in entropy:
            n = entropy[p].take()
            argv = ["entropy-check", "--p", str(p), "--n", str(n), "--format", "json"]
            ops.append(Op(f"entropy_p{p}", argv, partial(checks.check_entropy, ns=[n])))
            n = dims[p].take()
            argv = ["dims", "--p", str(p), "--n", str(n), "--format", "json"]
            ops.append(Op(f"dims_p{p}", argv, partial(checks.check_dims, p=p, n=n)))
        return ops

    return make_round(-1)[0], make_round


# workload -> (function building its ops, whether every op must use fresh inputs)
WORKLOADS = {
    "prove": (build_prove, False),
    "verify": (build_verify, False),
    "search": (build_search, False),
    "dims": (build_dims, True),
}


def execute(op: Op) -> tuple[list[str], str, dict, float]:
    """Run and check one op; returns (problems, output, parsed output, seconds)."""
    try:
        code, secs, out, err = run_op(op.argv)
    except Exception as exc:  # an escaped exception is a failed op, not a crash
        return [f"{op.kind}: {type(exc).__name__}: {exc}"], "", {}, 0.0
    try:
        parsed = json.loads(out)
        problems = op.check(code, parsed)
    except (ValueError, KeyError, TypeError) as exc:
        parsed = {}
        problems = [f"exit {code}, unusable output ({type(exc).__name__}: {exc}) {err.strip()[:200]}"]
    return [f"{op.kind}: {p}" for p in problems], out, parsed, secs


class Recorder:
    """Raw measurements of the timed ops."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.seconds: list[float] = []
        self.round_medians: list[float] = []
        self.out_bytes = 0
        self.dim_v: list[int] = []
        self.exact_ops = 0
        self.exact_optimal = 0
        self.exact_nodes = 0
        self.exact_seconds = 0.0
        self.last_out = ""

    def add(self, op: Op, problems: list[str], out: str, parsed: dict, secs: float) -> None:
        self.last_out = out
        self.attempted += 1
        self.failures += problems
        if problems:
            return
        self.seconds.append(secs)
        self.out_bytes += len(out.encode())
        result = parsed["result"]
        if op.argv[0] == "prove":
            self.dim_v.append(int(result["dims"]["intersection"]))
        elif op.dim_v is not None:
            self.dim_v.append(op.dim_v)
        if op.kind.startswith("exact"):
            self.exact_ops += 1
            self.exact_optimal += bool(result["optimal"])
            self.exact_nodes += int(result["nodes_explored"])
            self.exact_seconds += secs


def layer_metrics(tracer: Tracer, traced_ops: int, plain: Recorder, traced_secs: float) -> dict:
    ops = max(traced_ops, 1)
    totals = layer_totals(tracer.spans)
    metrics = {}
    for name in target_names():
        calls, secs = totals.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls / ops
        metrics[f"{name}.self_s"] = secs / ops
    metrics["gf.row_space_intersection.cells"] = tracer.counts["gf.row_space_intersection.cells"] / ops
    metrics["proof.dim_v"] = sum(plain.dim_v) / len(plain.dim_v) if plain.dim_v else 0.0
    metrics["sets.search.nodes"] = plain.exact_nodes / plain.exact_ops if plain.exact_ops else 0.0
    metrics["sets.search.nodes_per_s"] = (
        plain.exact_nodes / plain.exact_seconds if plain.exact_seconds else 0.0
    )
    metrics["sets.search.optimal_ratio"] = (
        plain.exact_optimal / plain.exact_ops if plain.exact_ops else 0.0
    )
    metrics["cli.output_bytes"] = plain.out_bytes / max(len(plain.seconds), 1)
    plain_secs = sum(plain.seconds)
    metrics["trace.overhead_ratio"] = traced_secs / plain_secs - 1 if plain_secs else 0.0
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--t0", type=float, required=True, help="time.monotonic() when set-up began")
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--mode", choices=["measure", "setup", "prove-transcripts"], default="measure")
    ap.add_argument("--spans", default=None, help="file to write the traced spans to")
    args = ap.parse_args(argv)

    import capbound
    import numpy

    rng = random.Random(args.seed)
    report = {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "capbound": capbound.__file__,
        "search_threads": SEARCH_THREADS,
    }
    if args.mode == "prove-transcripts":
        attempted, failures = prove_transcripts(rng, args.workdir)
        report.update(attempted=attempted, failures=failures)
        print(json.dumps(report))
        return 0

    build, fresh_per_op = WORKLOADS[args.workload]
    warm, rounds = build(rng, args.workdir)
    failures = execute(warm)[0]
    setup_s = time.monotonic() - args.t0
    report.update(setup_s=setup_s, attempted=1, failures=failures)
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    plain = Recorder()
    tracer = Tracer() if args.trace else None
    traced_ops, traced_secs = 0, 0.0
    start = time.perf_counter()
    r = 0
    while time.perf_counter() - start < args.seconds:
        ops = rounds(2 * r if tracer and fresh_per_op else r)
        twins = rounds(2 * r + 1) if tracer and fresh_per_op else ops
        first = len(plain.seconds)
        for op, twin in zip(ops, twins):
            if tracer is None:
                plain.add(op, *execute(op))
                continue
            # alternate which of the pair runs first, so that neither side
            # gains from the heap and caches the other warmed
            traced_first = traced_ops % 2 == 1
            if not traced_first:
                plain.add(op, *execute(op))
            tracer.op = traced_ops
            tracer.install()
            try:
                problems, traced_out, _, secs = execute(twin)
            finally:
                tracer.uninstall()
            if traced_first:
                plain.add(op, *execute(op))
            traced_ops += 1
            traced_secs += secs
            reference = execute(twin)[1] if twin is not op else plain.last_out
            if traced_out != reference:
                problems.append(f"{twin.kind}: traced output differs from untraced output")
            plain.attempted += 1
            plain.failures += problems
        if len(plain.seconds) > first:
            plain.round_medians.append(statistics.median(plain.seconds[first:]))
        r += 1

    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    report.update(
        attempted=1 + plain.attempted,
        failures=failures + plain.failures,
        op_seconds=plain.seconds,
        round_medians=plain.round_medians,
        peak_rss_mb=usage / 1024,
    )
    if tracer is not None:
        report["layers"] = layer_metrics(tracer, traced_ops, plain, traced_secs)
        report["absent"] = tracer.absent
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
