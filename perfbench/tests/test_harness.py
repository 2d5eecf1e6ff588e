"""Tests of the benchmark's own helpers.

    python3 -m pytest perfbench/tests
"""

import os
import random
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import pytest

import checks
import inputs
import run
import tracer


def span(parent, name, start, end, op=0):
    return (op, parent, name, start, end)


def test_self_time_subtracts_nested_children():
    spans = [
        span(-1, "cli.main", 0.0, 10.0),
        span(0, "proof.prove_size_bound", 1.0, 9.0),
        span(1, "gf.row_space_intersection", 2.0, 6.0),
        span(1, "sets.pair_sums", 6.5, 7.0),
        span(2, "gf.FpMatrix.rank", 3.0, 4.0),
    ]
    assert tracer.self_times(spans) == pytest.approx([2.0, 3.5, 3.0, 0.5, 1.0])
    totals = tracer.layer_totals(spans)
    assert totals["gf.row_space_intersection"] == (1, pytest.approx(3.0))
    assert sum(secs for _, secs in totals.values()) == pytest.approx(10.0)


def test_self_time_counts_overlapping_children_once():
    spans = [span(-1, "a", 0.0, 4.0), span(0, "b", 1.0, 3.0), span(0, "c", 2.0, 3.5)]
    assert tracer.self_times(spans)[0] == pytest.approx(1.5)


def test_median_reports_sample_count():
    assert run.median([3.0, 1.0, 2.0]) == (2.0, 3)
    assert run.median([4.0, 1.0, 2.0, 3.0]) == (2.5, 4)
    with pytest.raises(ValueError):
        run.median([])


def test_progression_check_rejects_a_line_and_accepts_caps():
    line = [(0, 0), (1, 1), (2, 2), (0, 1)]
    assert checks.progression_triple(3, line) is not None
    assert checks.check_point_set({"p": 3, "n": 2, "points": line}, 3, 2)
    assert checks.progression_triple(3, inputs.CAP9) is None
    assert checks.progression_triple(3, inputs.PRODUCT_CAP) is None
    # in F_5 a progression need not be a full line: 0, 2, 4 has midpoint 2
    assert checks.progression_triple(5, [(0,), (2,), (4,)]) == ((0,), (4,), (2,))


def test_generated_inputs_are_progression_free_and_seeded():
    rows = inputs.prove_inputs(random.Random(3), 2)
    assert rows == inputs.prove_inputs(random.Random(3), 2)
    for row in rows:
        assert [kind for kind, _ in row] == ["product_cap", "cap_f3_6", "set_f7_3"]
        for _, data in row:
            assert not checks.check_point_set(data, data["p"], data["n"], len(data["points"]))


def test_fresh_n_never_repeats_and_keeps_residue():
    rng = random.Random(5)
    multiples, others = inputs.FreshN(rng, 120, True), inputs.FreshN(rng, 60, False)
    taken = [multiples.take() for _ in range(70)]
    assert len(set(taken)) == 70 and all(n % 3 == 0 for n in taken)
    rest = [others.take() for _ in range(70)]
    assert len(set(rest)) == 70 and all(n % 3 for n in rest)
    # each draw and the next one (an op and its traced twin) are neighbours
    assert all(abs(a - b) <= 3 for a, b in zip(taken[0:64:2], taken[1:64:2]))


def test_tracer_rebinds_imported_names_and_restores_them():
    import capbound.gf as gf
    import capbound.proof as proof
    from capbound.gf import PrimeField
    from capbound.sets import PointSet

    original = gf.row_space_intersection
    from_json = proof.ProofTranscript.__dict__["from_json"]
    t = tracer.Tracer()
    t.install()
    try:
        assert proof.row_space_intersection is gf.row_space_intersection is not original
        cap = PointSet.from_points(PrimeField(3), 3, inputs.CAP9)
        transcript = proof.prove_size_bound(cap)
        assert proof.ProofTranscript.from_json(transcript.to_json()).all_hold
    finally:
        t.uninstall()
    assert proof.row_space_intersection is original is gf.row_space_intersection
    assert proof.ProofTranscript.__dict__["from_json"] is from_json
    names = {s[2] for s in t.spans}
    assert {
        "proof.prove_size_bound",
        "gf.row_space_intersection",
        "sets.pair_sums",
        "proof.ProofTranscript.to_json",
        "proof.ProofTranscript.from_json",
    } <= names
    assert t.absent == []


def test_tracer_reports_missing_targets_as_absent(monkeypatch):
    monkeypatch.setitem(tracer.TARGETS, "proof", ["no_such_function", "ProofTranscript.no_such_method"])
    t = tracer.Tracer()
    t.install()
    t.uninstall()
    assert t.absent == ["proof.no_such_function", "proof.ProofTranscript.no_such_method"]
