"""Acceptance suite: one test per criterion, at the stated tolerances.

Run `pytest -s tests/test_acceptance.py` to see one line per criterion as
it completes; a summary table also prints at the end of any full run.
"""

import json
import time
from decimal import Decimal

import numpy as np
import pytest

from capbound.bounds import GUARD_MARGIN, main_bound, verify_entropy_lemma
from capbound.cli import main
from capbound.errors import HypothesisViolation, ProgressionFound
from capbound.gf import PrimeField
from capbound.monomials import dim_L
from capbound.proof import prove_size_bound, value_table
from capbound.reference import evaluate_all, interpolate
from capbound.search import greedy_progression_free, max_progression_free
from capbound.sets import PointSet, is_progression_free
from dense import check_gram_rank_bound, gram_matrix, verify_duality
from oracles import max_pf_all_subsets, max_pf_recursive
from test_polyspace import random_poly

F3 = PrimeField(3)


def _announce(k: int, detail: str) -> None:
    print(f"\ncriterion {k}: PASS - {detail}")


@pytest.mark.acceptance(criterion=1)
def test_criterion_1_headline_constant(capsys):
    t0 = time.perf_counter()
    code = main(["bound", "--p", "3", "--n-max", "1", "--format", "json"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    base = float(json.loads(out)["result"]["base"])
    assert 2.835 <= base <= 2.845
    assert round(base, 2) == 2.84
    assert elapsed < 0.1, f"bound command took {elapsed:.3f}s"
    with capsys.disabled():
        _announce(1, f"base = {base:.6f} in [2.835, 2.845], {elapsed * 1000:.1f} ms")


@pytest.mark.acceptance(criterion=2)
def test_criterion_2_dimension_bound_exact(capsys):
    t0 = time.perf_counter()
    worst = None
    for p in (3, 5, 7, 11):
        field = PrimeField(p)
        for n in range(3, 31, 3):
            report = verify_entropy_lemma(field, n)
            assert report.holds, f"bound failed at p={p}, n={n}"
            assert report.margin > GUARD_MARGIN
            if worst is None or report.margin < worst[0]:
                worst = (report.margin, p, n)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"dimension bound checks took {elapsed:.3f}s"
    with capsys.disabled():
        _announce(
            2,
            f"40 cases hold; slimmest margin {float(worst[0]):.4f} at "
            f"(p={worst[1]}, n={worst[2]}), {elapsed * 1000:.0f} ms",
        )


@pytest.mark.acceptance(criterion=3)
def test_criterion_3_duality_identity(capsys):
    t0 = time.perf_counter()
    checked = 0
    for p in (3, 5, 7):
        field = PrimeField(p)
        for n in range(1, 9):
            assert verify_duality(n, field), f"duality failed at p={p}, n={n}"
            checked += (p - 1) * n
    elapsed = time.perf_counter() - t0
    assert elapsed < 1.0, f"duality checks took {elapsed:.3f}s"
    with capsys.disabled():
        _announce(3, f"{checked} degree cuts verified exactly, {elapsed * 1000:.0f} ms")


@pytest.mark.acceptance(criterion=4)
def test_criterion_4_evaluation_bijection(capsys):
    rng = np.random.default_rng(20160514)
    trials = 0
    for p in (3, 5):
        field = PrimeField(p)
        for n in (1, 2, 3):
            total = p**n
            for _ in range(100):
                values = [int(v) for v in rng.integers(0, p, size=total)]
                f = interpolate(values, field, n)
                assert evaluate_all(f) == values
                assert interpolate(evaluate_all(f), field, n) == f
                trials += 1
    assert trials == 600
    with capsys.disabled():
        _announce(4, "600 round-trips, zero failures")


@pytest.mark.acceptance(criterion=5)
def test_criterion_5_rank_bound_suite(capsys):
    rng = np.random.default_rng(20160515)
    t0 = time.perf_counter()
    for trial in range(200):
        n = int(rng.integers(1, 4))
        f = random_poly(rng, F3, n, max_terms=8)
        total = 3**n
        a = PointSet.from_indices(
            F3, n, rng.choice(total, size=int(rng.integers(1, total + 1)), replace=False)
        )
        b = PointSet.from_indices(
            F3, n, rng.choice(total, size=int(rng.integers(1, total + 1)), replace=False)
        )
        record = check_gram_rank_bound(f, a, b)
        assert record.factorization_ok, f"factorization failed on trial {trial}"
        assert record.holds, f"rank bound failed on trial {trial}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"rank suite took {elapsed:.3f}s"
    with capsys.disabled():
        _announce(5, f"200 instances, factorization exact, {elapsed:.2f} s")


@pytest.mark.acceptance(criterion=6)
def test_criterion_6_extremal_search(capsys, cap9_search):
    t0 = time.perf_counter()
    expected = {(3, 1): 2, (3, 2): 4, (5, 1): 2}
    for (p, n), want in expected.items():
        result = max_progression_free(PrimeField(p), n)
        assert result.optimal
        assert result.best_size == want
        assert result.best_size == max_pf_all_subsets(p, n)

    assert max_progression_free(F3, 3) == cap9_search  # the shared search, timed with the rest
    assert cap9_search.optimal
    assert cap9_search.best_size == 9
    oracle_best, oracle_states = max_pf_recursive(3, 3)
    assert oracle_best == cap9_search.best_size == 9
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"search criterion took {elapsed:.1f}s"
    with capsys.disabled():
        _announce(
            6,
            f"sizes 2/4/9/2 match the oracle ({oracle_states} oracle states), "
            f"{elapsed:.1f} s",
        )


@pytest.mark.acceptance(criterion=7)
def test_criterion_7_end_to_end_transcript(capsys, cap9_search, tmp_path):
    cap = cap9_search.witness
    assert cap.size == 9

    set_file = tmp_path / "cap9.json"
    set_file.write_text(json.dumps(cap.to_json()))
    t0 = time.perf_counter()
    code = main(["prove", "--input", str(set_file), "--format", "json"])
    transcript = prove_size_bound(cap)
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)["result"]

    assert payload["dims"]["vanishing_off_doubles"] == "9"
    assert payload["dims"]["low_degree"] == "23"
    assert int(payload["dims"]["intersection"]) >= 5

    a_prime = PointSet.from_indices(F3, 3, transcript["selected_points"])
    arr = gram_matrix(interpolate(value_table(transcript), F3, 3), a_prime, a_prime)
    assert (np.diagonal(arr) == 1).all(), "diagonal is not all ones"
    assert not (arr - np.diag(np.diagonal(arr))).any(), "off-diagonal entries"
    assert transcript["matrix_rank"] == a_prime.size == len(payload["selected_points"])
    assert transcript["matrix_rank"] <= 20 == 2 * dim_L(3, 2, F3)

    bound = Decimal(payload["conclusion"]["asymptotic"]["bound"])
    assert Decimal(9) <= bound
    assert abs(bound - Decimal("68.565")) < Decimal("0.01")
    digits = len(str(bound).replace(".", "").lstrip("0"))
    assert digits >= 30 and payload["precision"] >= 30
    assert elapsed < 5.0, f"prove took {elapsed:.2f}s"
    with capsys.disabled():
        _announce(
            7,
            f"dims 9/23/{payload['dims']['intersection']}, rank {transcript['matrix_rank']} <= 20, "
            f"9 <= {float(bound):.1f}, {elapsed * 1000:.0f} ms",
        )


@pytest.mark.acceptance(criterion=8)
def test_criterion_8_negative_control(capsys, cap9_search, tmp_path):
    line_file = tmp_path / "line.txt"
    line_file.write_text("p=3 n=3\n0 0 0\n1 0 0\n2 0 0\n")
    code = main(["prove", "--input", str(line_file), "--format", "json"])
    out = capsys.readouterr().out
    assert code == 1
    witness = json.loads(out)["witness"]
    a, b, c = [tuple(x) for x in witness]
    assert all((x + y) % 3 == 2 * z % 3 for x, y, z in zip(a, b, c))
    assert len({a, b, c}) == 3

    # forcing the pipeline past verification must die inside the
    # diagonal certificate, which is where the hypothesis is consumed
    cap = cap9_search.witness
    extra = next(i for i in range(27) if i not in cap.indices())
    tainted = PointSet.from_indices(F3, 3, cap.indices() + [extra])
    assert not is_progression_free(tainted)[0]
    with pytest.raises(HypothesisViolation, match="not diagonal") as exc_info:
        prove_size_bound(tainted, _skip_progression_check=True)
    assert exc_info.value.evidence["value"] != 0

    with pytest.raises(ProgressionFound):
        prove_size_bound(tainted)
    with capsys.disabled():
        _announce(8, "refusal with triple; hook run fails in the diagonal certificate")


@pytest.mark.acceptance(criterion=9)
def test_criterion_9_consistency(capsys, cap9_search):
    solved = {1: 2, 2: 4, 3: cap9_search.best_size}
    for n, best in solved.items():
        assert Decimal(best) <= main_bound(F3, n), f"best({n}) exceeds the bound"

    for seed in (0, 7, 2024):
        witness = greedy_progression_free(F3, 6, order_seed=seed)
        assert is_progression_free(witness)[0]
        assert Decimal(witness.size) <= main_bound(F3, 6)
    with capsys.disabled():
        _announce(9, "exhausted sizes below 3*p^cn; greedy witnesses at n=6 verified")
