"""Command-line surface: every computation with machine-readable output.

Exit codes are stable across commands: 0 = all checks pass, 1 = a
mathematical check failed (evidence included in the output), 2 = usage or
parse error, or a search worker that failed or died unsent. JSON output is
schema-stable per command and serializes every unbounded integer as a
decimal string; `--format` overrides the default (table on a terminal,
JSON when redirected). JSON output is `json.dumps(envelope)` and a
newline: compact, on one line. All randomized behavior is seed-controlled,
and a search runs in one process unless `--threads` asks for more, so
identical invocations produce identical outputs on any host.

The search options belong to `search` alone. Every `--input` is read by
one rule: a JSON object with a `command` key is an envelope, and only the
envelope of the command that writes the input is read (`_WRITERS`), any
other being refused by name. `prove` and `verify-set` read a point-set
file or the envelope `search` writes, and `verify-transcript` a transcript
or the envelope `prove` writes, so a searched witness is proved by
`capbound search ... | capbound prove --input -`.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys

from .bounds import _p_cn, _split_degree, verify_entropy_lemma
from .errors import CheckFailure, ProgressionFound
from .field import PrimeField
from .monomials import _cumulative_counts

# `proof` and `sets` (and with them numpy) are imported inside the commands
# that run them, so `bound`, `dims` and `entropy-check` start without them.

__all__ = ["main", "run"]


BOUND_N_MAX = 1000  # `bound` writes one row of two Decimal exponentials per n
_digit_ceiling = functools.lru_cache(maxsize=1)(functools.partial(pow, 10))  # 10^limit, keyed by the limit


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
    if limit and (n >= 3 * limit or p**n >= _digit_ceiling(limit)):
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


def cmd_search(args) -> int:
    from .search import SearchResult, _check_search_options, greedy_progression_free, max_progression_free

    field = PrimeField(args.p)
    if args.mode == "exact":
        result = max_progression_free(field, args.n, node_budget=args.budget, workers=args.threads)
    else:
        _check_search_options(args.n, args.budget, args.threads)  # greedy reads neither option, but echoes both
        witness = greedy_progression_free(field, args.n, order_seed=args.seed)
        result = SearchResult(best_size=witness.size, witness=witness, optimal=False, nodes_explored=0)
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


# command -> the command whose envelope its --input may be
_WRITERS = {"prove": "search", "verify-set": "search", "verify-transcript": "prove"}


def _unwrap(data, command: str):
    """`data`, or, when it is an envelope (an object with a `command` key), the
    `result` of the one envelope `command` reads; any other is refused by name."""
    if not (isinstance(data, dict) and "command" in data):
        return data
    writer = _WRITERS[command]
    if data["command"] != writer:
        raise ValueError(f"{command} reads the envelope of {writer} alone, not a {data['command']!r} envelope")
    return data.get("result")


def _load_point_set(path: str, command: str):
    """The point set in `path`: a point-set file, or the witness in the envelope `search` writes."""
    from .sets import PointSet, load_json

    text = _read_input(path)
    if not text.lstrip().startswith("{"):
        return PointSet.from_text(text)
    data = load_json(text)  # an object, as the text starts with "{"
    if "command" not in data:
        return PointSet.from_json(data)
    result = _unwrap(data, command)
    return PointSet.from_json(result.get("witness") if isinstance(result, dict) else result, what="search witness")


def cmd_prove(args) -> int:
    from .proof import prove_size_bound

    points = _load_point_set(args.input, args.command)
    t = prove_size_bound(points)
    envelope = {
        "command": "prove",
        "params": {"p": points.field.p, "n": points.n, "input_size": points.size},
        "result": t,
    }
    rows = [
        {"check": c["name"], "relation": c["relation"], "lhs": c["lhs"], "rhs": c["rhs"], "holds": c["holds"]}
        for c in t["checks"]
    ]
    head = [
        f"size-bound transcript for |A| = {t['input_size']} in F_{t['p']}^{t['n']}",
        f"branch = {t['branch']}   dims = {t['dims']}",
        f"conclusion: exact {t['conclusion']['exact']}",
        f"conclusion: asymptotic holds = {t['conclusion']['asymptotic']['holds']}",
    ]
    _emit(envelope, rows, ["check", "relation", "lhs", "rhs", "holds"], head, _pick_format(args.format))
    return 0 if all(c["holds"] for c in t["checks"]) else 1


def cmd_verify_set(args) -> int:
    from .sets import is_progression_free

    points = _load_point_set(args.input, args.command)
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

    ok, rows = verify_transcript(_unwrap(load_json(_read_input(args.input)), args.command))
    envelope = {
        "command": "verify-transcript",
        "params": {"input": args.input},
        "result": {"valid": ok, "checks": rows},
    }
    head = [f"transcript re-check: {'all checks reproduced' if ok else 'FAILED'}"]
    _emit(envelope, rows, ["name", "relation", "lhs", "rhs", "holds", "note"], head, _pick_format(args.format))
    return 0 if ok else 1


def _add_format(sub) -> None:
    sub.add_argument("--format", choices=["table", "json", "csv"], default=None)


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
    s.add_argument("--p", type=int, required=True)
    s.add_argument("--n", type=int, required=True)
    s.add_argument("--mode", choices=["exact", "greedy"], default="exact")
    s.add_argument("--budget", type=int, default=None, help="exact mode: cap on nodes_explored")
    s.add_argument("--seed", type=int, default=0, help="order seed for greedy mode")
    s.add_argument("--threads", type=int, default=1, help="exact mode: worker processes, at most the CPU count")
    _add_format(s)
    s.set_defaults(handler=cmd_search)

    pr = subs.add_parser("prove", help="run the size-bound argument, emit a transcript")
    pr.add_argument("--input", type=str, required=True, help="point set or search envelope (JSON or text, - for stdin)")
    _add_format(pr)
    pr.set_defaults(handler=cmd_prove)

    vs = subs.add_parser("verify-set", help="progression-freeness verdict for a file")
    vs.add_argument("--input", type=str, required=True, help="point set or search envelope (JSON or text, - for stdin)")
    _add_format(vs)
    vs.set_defaults(handler=cmd_verify_set)

    vt = subs.add_parser("verify-transcript", help="re-check a serialized transcript")
    vt.add_argument("--input", type=str, required=True, help="transcript or prove envelope (JSON, - for stdin)")
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
    except CheckFailure as exc:
        key = "witness" if isinstance(exc, ProgressionFound) else "evidence"
        print(json.dumps({"command": args.command, "error": str(exc), key: exc.evidence}))
        return 1
    except (ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
