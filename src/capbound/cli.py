"""Command-line surface: every computation with machine-readable output.

Exit codes are stable across commands: 0 = all checks pass, 1 = a
mathematical check failed (evidence included in the output), 2 = usage or
parse error. JSON output is schema-stable per command and serializes every
unbounded integer as a decimal string; `--format` overrides the default
(table on a terminal, JSON when redirected). JSON output is
`json.dumps(envelope)` and a newline: compact, on one line. All randomized
behavior is seed-controlled, so identical invocations produce identical
outputs.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import os
import sys
import time

from .bounds import _p_cn, _split_degree, verify_entropy_lemma
from .errors import CheckFailure, ProgressionFound
from .field import PrimeField
from .monomials import _cumulative_counts

# `proof` and `sets` (and with them numpy) are imported inside the commands
# that run them, so `bound`, `dims` and `entropy-check` start without them.

__all__ = ["main", "run"]


BOUND_N_MAX = 1000  # `bound` writes one row of two Decimal exponentials per n


def _emit(envelope: dict, rows: list[dict], columns: list[str], table_head: list[str], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(envelope))
    elif fmt == "csv":
        out = io.StringIO()
        writer = csv.DictWriter(out, fieldnames=columns, extrasaction="ignore")
        writer.writeheader()
        writer.writerows(rows)
        sys.stdout.write(out.getvalue())
    else:
        for line in table_head:
            print(line)
        if rows:
            widths = {c: max(len(c), *(len(str(r.get(c, ""))) for r in rows)) for c in columns}
            print("  ".join(c.ljust(widths[c]) for c in columns))
            for r in rows:
                print("  ".join(str(r.get(c, "")).ljust(widths[c]) for c in columns))


def _pick_format(arg: str | None) -> str:
    if arg:
        return arg
    return "table" if sys.stdout.isatty() else "json"


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def cmd_bound(args) -> int:
    field = PrimeField(args.p)
    if not 1 <= args.n_max <= BOUND_N_MAX:
        raise ValueError(f"--n-max {args.n_max} is outside [1, {BOUND_N_MAX}]")
    c, values = _p_cn(field, range(1, args.n_max + 1))
    base = values[0][1]  # p^c, the row of n = 1
    rows = [{"n": n, "p_cn": str(p_cn), "three_p_cn": str(bound)} for n, (_, p_cn, bound) in enumerate(values, 1)]
    envelope = {
        "command": "bound",
        "params": {"p": args.p, "n_max": args.n_max},
        "result": {"c": str(c), "base": str(base), "rows": rows},
    }
    head = [f"p = {args.p}   c = {c}   base p^c = {base}"]
    _emit(envelope, rows, ["n", "p_cn", "three_p_cn"], head, _pick_format(args.format))
    return 0


def _require_printable(p: int, n: int) -> None:
    """Refuse an n whose p^n has more digits than str(int) may write (p >= 3)."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # absent before 3.10.7: no limit
    if limit and (n >= 3 * limit or p**n >= 10**limit):
        raise ValueError(f"p^n = {p}^{n} has more than {limit} decimal digits (sys.get_int_max_str_digits())")


def cmd_dims(args) -> int:
    field = PrimeField(args.p)
    if args.n < 0:
        raise ValueError(f"n must be nonnegative, got {args.n}")
    top = (field.p - 1) * args.n
    d_min = args.d_min if args.d_min is not None else 0
    d_max = args.d_max if args.d_max is not None else top
    if not 0 <= d_min <= d_max <= top:
        raise ValueError(f"degree range [{d_min}, {d_max}] not inside [0, {top}]")
    _require_printable(field.p, args.n)
    total = field.p**args.n
    # every partner top - d - 1 is read from the table too, never derived by symmetry
    cum = _cumulative_counts(args.n, field.p - 1, max(d_max, top - d_min - 1))
    rows = []
    for d in range(d_min, d_max + 1):
        partner = cum[top - d - 1] if d < top else 0
        rows.append({"d": d, "dim": str(cum[d]), "duality": "ok" if cum[d] + partner == total else "FAIL"})
    envelope = {
        "command": "dims",
        "params": {"p": args.p, "n": args.n, "d_min": d_min, "d_max": d_max},
        "result": {"ambient": str(total), "rows": rows},
    }
    head = [f"dimensions over GF({args.p}), n = {args.n}, ambient p^n = {total}"]
    _emit(envelope, rows, ["d", "dim", "duality"], head, _pick_format(args.format))
    return 0 if all(r["duality"] == "ok" for r in rows) else 1


def cmd_entropy_check(args) -> int:
    field = PrimeField(args.p)
    ns = [int(t) for t in args.n.split(",") if t.strip()]
    if not ns:
        raise ValueError("--n names no n")
    _require_printable(field.p, max(ns))
    reports = [verify_entropy_lemma(field, n) for n in ns]
    rows = [
        {
            "n": rep.n,
            "d": _split_degree(field.p, rep.n),
            "exact_dim": str(rep.exact_dim),
            "bound_p_cn": str(rep.bound_value),
            "margin": str(rep.margin),
            "holds": rep.holds,
        }
        for rep in reports
    ]
    envelope = {
        "command": "entropy-check",
        "params": {"p": args.p, "n": ns},
        "result": {"c": str(reports[0].c), "rows": rows},
    }
    head = [f"low-third dimension bound over GF({args.p})"]
    _emit(
        envelope,
        rows,
        ["n", "d", "exact_dim", "bound_p_cn", "margin", "holds"],
        head,
        _pick_format(args.format),
    )
    return 0 if all(rep.holds for rep in reports) else 1


_POOL_BUDGET = 50_000  # more than one process only above this budget; moving it changes default-thread output


def _default_threads(budget: int | None) -> int:
    """Worker processes for an exact search run without --threads, at most `sets._MAX_WORKERS`."""
    from .sets import _MAX_WORKERS

    return min(os.cpu_count() or 1, _MAX_WORKERS) if budget is not None and budget > _POOL_BUDGET else 1


def _search(args) -> SearchResult:
    """Run the search `args` names; a missing `args.threads` gets its default."""
    from .sets import SearchResult, _check_search_options, greedy_progression_free, max_progression_free

    field = PrimeField(args.p)
    if args.threads is None:
        args.threads = _default_threads(args.budget)
    _check_search_options(args.n, args.budget, args.threads)  # greedy ignores the last two, but echoes them
    if args.mode == "greedy":
        t0 = time.perf_counter()
        witness = greedy_progression_free(field, args.n, order_seed=args.seed)
        return SearchResult(
            best_size=witness.size,
            witness=witness,
            optimal=False,
            nodes_explored=0,
            elapsed=time.perf_counter() - t0,
        )
    return max_progression_free(
        field,
        args.n,
        node_budget=args.budget,
        workers=args.threads,
    )


def cmd_search(args) -> int:
    result = _search(args)
    envelope = {
        "command": "search",
        "params": {key: getattr(args, key) for key in ("p", "n", "mode", "budget", "seed", "threads")},
        "result": {
            "best_size": result.best_size,
            "optimal": result.optimal,
            "nodes_explored": result.nodes_explored,
            "witness": result.witness.to_json(),
        },
    }
    rows = [
        {
            "best_size": result.best_size,
            "optimal": result.optimal,
            "nodes": result.nodes_explored,
            "witness": " ".join("".join(map(str, c)) for c in result.witness.points()),
        }
    ]
    head = [f"search over F_{args.p}^{args.n} ({args.mode})"]
    _emit(envelope, rows, ["best_size", "optimal", "nodes", "witness"], head, _pick_format(args.format))
    return 0


def _load_set_for_prove(args):
    from .sets import parse_point_set

    if args.input:
        return parse_point_set(_read_input(args.input))
    if not args.search:
        raise ValueError("provide an input file or --search")
    _split_degree(args.p, args.n)  # the cut needs only p and n: refuse it before searching
    return _search(args).witness


def cmd_prove(args) -> int:
    from .proof import prove_size_bound

    points = _load_set_for_prove(args)
    transcript = prove_size_bound(points)
    payload = transcript.to_json()
    envelope = {
        "command": "prove",
        "params": {"p": points.field.p, "n": points.n, "input_size": points.size},
        "result": payload,
    }
    rows = [
        {"check": c["name"], "relation": c["relation"], "lhs": c["lhs"], "rhs": c["rhs"], "holds": c["holds"]}
        for c in payload["checks"]
    ]
    head = [
        f"size-bound transcript for |A| = {transcript.input_size} in F_{transcript.p}^{transcript.n}",
        f"branch = {transcript.branch}   dims = {payload['dims']}",
        f"conclusion: exact {payload['conclusion']['exact']}",
        f"conclusion: asymptotic holds = {payload['conclusion']['asymptotic']['holds']}",
    ]
    _emit(envelope, rows, ["check", "relation", "lhs", "rhs", "holds"], head, _pick_format(args.format))
    return 0 if transcript.all_hold else 1


def cmd_verify_set(args) -> int:
    from .sets import is_progression_free, parse_point_set

    points = parse_point_set(_read_input(args.input))
    ok, triple = is_progression_free(points)
    result = {
        "p": points.field.p,
        "n": points.n,
        "size": points.size,
        "progression_free": ok,
        "witness": None if triple is None else [list(c) for c in triple],
    }
    envelope = {"command": "verify-set", "params": {"input": args.input}, "result": result}
    rows = [
        {
            "size": points.size,
            "progression_free": ok,
            "witness": "" if triple is None else str([list(c) for c in triple]),
        }
    ]
    head = [f"set in F_{points.field.p}^{points.n}"]
    _emit(envelope, rows, ["size", "progression_free", "witness"], head, _pick_format(args.format))
    return 0 if ok else 1


def cmd_verify_transcript(args) -> int:
    from .proof import verify_transcript
    from .sets import load_json

    data = load_json(_read_input(args.input))
    if isinstance(data, dict) and "result" in data and "command" in data:
        data = data["result"]
    ok, checks = verify_transcript(data)
    rows = [c.to_json() for c in checks]
    envelope = {
        "command": "verify-transcript",
        "params": {"input": args.input},
        "result": {"valid": ok, "checks": rows},
    }
    head = [f"transcript re-check: {'all checks reproduced' if ok else 'FAILED'}"]
    _emit(envelope, rows, ["name", "relation", "lhs", "rhs", "holds"], head, _pick_format(args.format))
    return 0 if ok else 1


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=["table", "json", "csv"], default=None)


def _add_search_options(sub, default: int | None = None) -> None:
    """The options of a search; --p and --n are required, or default to `default` when it is given."""
    sub.add_argument("--p", type=int, required=default is None, default=default)
    sub.add_argument("--n", type=int, required=default is None, default=default)
    sub.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    sub.add_argument("--budget", type=int, default=None, help="exact mode: cap on nodes_explored")
    sub.add_argument("--seed", type=int, default=0, help="order seed for greedy mode")
    threads_help = "exact mode: processes, at most the CPU count (default 1; all CPUs above a 50000 budget)"
    sub.add_argument("--threads", type=int, default=None, help=threads_help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; `parse_args` returns a fresh
    Namespace on each call and no handler changes the parser."""
    parser = argparse.ArgumentParser(
        prog="capbound",
        description="Exact progression-free set bounds over F_p^n",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    b = subs.add_parser("bound", help="exponent c(p) and the bound table")
    b.add_argument("--p", type=int, required=True)
    b.add_argument("--n-max", type=int, default=10)
    _add_format(b)
    b.set_defaults(handler=cmd_bound)

    d = subs.add_parser("dims", help="exact dimensions of the degree slices")
    d.add_argument("--p", type=int, required=True)
    d.add_argument("--n", type=int, required=True)
    d.add_argument("--d-min", type=int, default=None)
    d.add_argument("--d-max", type=int, default=None)
    _add_format(d)
    d.set_defaults(handler=cmd_dims)

    e = subs.add_parser("entropy-check", help="exact low-third dimension bound per n")
    e.add_argument("--p", type=int, required=True)
    e.add_argument("--n", type=str, required=True, help="comma-separated n >= 1 with 3 | (p-1)n")
    _add_format(e)
    e.set_defaults(handler=cmd_entropy_check)

    s = subs.add_parser("search", help="maximum or greedy progression-free set")
    _add_search_options(s)
    _add_format(s)
    s.set_defaults(handler=cmd_search)

    pr = subs.add_parser("prove", help="run the size-bound argument, emit a transcript")
    pr.add_argument("--input", type=str, default=None, help="point-set file (JSON or text, - for stdin)")
    pr.add_argument("--search", action="store_true", help="prove on a searched witness")
    _add_search_options(pr, default=3)
    _add_format(pr)
    pr.set_defaults(handler=cmd_prove)

    vs = subs.add_parser("verify-set", help="progression-freeness verdict for a file")
    vs.add_argument("--input", type=str, required=True)
    _add_format(vs)
    vs.set_defaults(handler=cmd_verify_set)

    vt = subs.add_parser("verify-transcript", help="re-check a serialized transcript")
    vt.add_argument("--input", type=str, required=True)
    _add_format(vt)
    vt.set_defaults(handler=cmd_verify_transcript)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except ProgressionFound as exc:
        envelope = {
            "command": args.command,
            "error": str(exc),
            "witness": exc.evidence,
        }
        print(json.dumps(envelope))
        return 1
    except CheckFailure as exc:
        envelope = {"command": args.command, "error": str(exc), "evidence": exc.evidence}
        print(json.dumps(envelope))
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
