"""Spans around the package's layer functions, recorded from outside.

`Tracer.install()` replaces each listed function with a wrapper that
records a span (op id, parent span, name, start, end) in memory, and
rebinds every module-level reference to that function across the loaded
`capbound` modules: `proof` imports `row_space_intersection` by name, so
patching `gf` alone would miss the calls that matter. `uninstall()` puts
every original back, so untraced ops run the unmodified code.

Per-point helpers such as `gf.point_index` and `gf.point_coords` are
deliberately not listed: they run hundreds of thousands of times per op
and a wrapper would dominate what it measures. A listed function that the
package no longer has is reported as absent instead of failing the run.

Calls made inside `search`'s worker processes are invisible: the workers
are separate processes and their spans never reach this one. Search node
counts therefore come from the command's result, not from spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

PACKAGE = "capbound"

# module -> functions (or Class.method) whose spans and self times are reported
TARGETS = {
    "cli": ["main"],
    "proof": [
        "prove_size_bound",
        "verify_transcript",
        "basis_supported_on",
        "low_degree_basis",
        "intersect_poly_spans",
        "select_unit_witness",
        "diagonal_certificate",
        "ProofTranscript.to_json",
        "ProofTranscript.from_json",
    ],
    "gf": ["row_space_intersection", "FpMatrix.rank", "FpMatrix.pivot_columns", "FpMatrix.solve"],
    "polyspace": [
        "indicator_poly",
        "evaluate_all",
        "shift_coefficient_matrix",
        "support_split_rank_bound",
        "gram_matrix",
        "poly_to_vector",
        "poly_from_vector",
    ],
    "sets": [
        "parse_point_set",
        "is_progression_free",
        "pair_sums",
        "greedy_progression_free",
        "max_progression_free",
    ],
    "monomials": ["dim_L", "enumerate_monomials", "monomial_index"],
    "bounds": ["verify_entropy_lemma", "exponent_c"],
}


def target_names() -> list[str]:
    return [f"{module}.{name}" for module, names in TARGETS.items() for name in names]


def _block_cells(args, kwargs) -> int:
    """Entries of the Zassenhaus block row_space_intersection reduces."""
    b1, b2 = args[0], args[1]
    if not isinstance(b1, (list, tuple)) or not isinstance(b2, (list, tuple)) or not b1:
        return 0
    return (len(b1) + len(b2)) * 2 * len(b1[0])


# span name -> (count name, function of the call's arguments)
ARG_COUNTS = {"gf.row_space_intersection": ("gf.row_space_intersection.cells", _block_cells)}


class Tracer:
    """Records spans for the listed functions while installed."""

    def __init__(self) -> None:
        # span id = position; entry (op, parent id or -1, name, start, end)
        self.spans: list = []
        self.counts: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = ARG_COUNTS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if counter is not None:
                self.counts[counter[0]] += counter[1](args, kwargs)
            sid = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[sid] = (self.op, parent, name, start, end)

        return wrapper

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.absent = []
        targets = {}
        for module in TARGETS:
            try:
                targets[module] = importlib.import_module(f"{PACKAGE}.{module}")
            except ModuleNotFoundError:
                targets[module] = None
        modules = [
            m for key, m in list(sys.modules.items())
            if m is not None and (key == PACKAGE or key.startswith(PACKAGE + "."))
        ]
        for module, names in TARGETS.items():
            mod = targets[module]
            for qual in names:
                name = f"{module}.{qual}"
                if "." in qual:
                    cls_name, meth = qual.split(".")
                    cls = getattr(mod, cls_name, None)
                    raw = getattr(cls, "__dict__", {}).get(meth)
                    if raw is None:
                        self.absent.append(name)
                    elif isinstance(raw, (classmethod, staticmethod)):
                        self._patch(cls, meth, type(raw)(self._wrap(name, raw.__func__)))
                    else:
                        self._patch(cls, meth, self._wrap(name, raw))
                    continue
                fn = getattr(mod, qual, None)
                if not callable(fn):
                    self.absent.append(name)
                    continue
                wrapper = self._wrap(name, fn)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is fn:
                            self._patch(m, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (op, parent, name, start, end) in enumerate(self.spans):
                fh.write(f'{{"id":{sid},"op":{op},"parent":{parent},"name":"{name}",'
                         f'"start":{start!r},"end":{end!r}}}\n')


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for sid, (_, parent, _, start, end) in enumerate(spans):
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for sid, (_, _, _, start, end) in enumerate(spans):
        covered, cursor = 0.0, start
        for s, e in sorted(children.get(sid, ())):
            s, e = max(s, cursor), min(e, end)
            if e > s:
                covered += e - s
                cursor = e
        out.append(end - start - covered)
    return out


def layer_totals(spans) -> dict[str, tuple[int, float]]:
    """name -> (calls, total self seconds) over all spans."""
    totals: dict[str, list] = defaultdict(lambda: [0, 0.0])
    for span, own in zip(spans, self_times(spans)):
        entry = totals[span[2]]
        entry[0] += 1
        entry[1] += own
    return {name: (calls, secs) for name, (calls, secs) in totals.items()}
