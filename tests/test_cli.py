import ast
import copy
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import time
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import capbound
import oracles
from capbound import bounds, cli, monomials, search, sets
from capbound.cli import main
from capbound.gf import PrimeField
from capbound.proof import VALUE_TABLE_BOUND, prove_size_bound
from capbound.sets import PAIR_BOUND, PointSet


@pytest.fixture()
def run(capsys):
    def invoke(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


@pytest.fixture()
def dimension_reads(monkeypatch):
    """Every `dim_L` and `_cumulative_counts` call a command makes, spied where
    the commands reach them: (name, n, d) and (name, n, m, d, entries built)."""
    calls = []
    real_dim, real_cum = monomials.dim_L, monomials._cumulative_counts

    def dim_L(n, d, field):
        calls.append(("dim_L", n, d))
        return real_dim(n, d, field)

    def cumulative_counts(n, m, d):
        table = real_cum(n, m, d)
        calls.append(("_cumulative_counts", n, m, d, len(table)))
        return table

    for module in (monomials, bounds):
        monkeypatch.setattr(module, "dim_L", dim_L)
    for module in (monomials, cli):
        monkeypatch.setattr(module, "_cumulative_counts", cumulative_counts)
    return calls


def run_json(invoke, *argv):
    code, out, _ = invoke(*argv, "--format", "json")
    return code, json.loads(out)


def prove_searched(invoke, *search_argv):
    """`search <search_argv> | prove --input -`, both writing JSON: prove's exit code and envelope."""
    code, out, _ = invoke("search", *search_argv, "--format", "json")
    assert code == 0
    with mock.patch("sys.stdin", io.StringIO(out)):
        return run_json(invoke, "prove", "--input", "-")


class TestBound:
    def test_headline(self, run):
        code, env = run_json(run, "bound", "--p", "3", "--n-max", "1")
        assert code == 0
        assert 2.835 <= float(env["result"]["base"]) <= 2.845
        assert env["result"]["rows"][0]["n"] == 1

    def test_n_max_below_one_refused(self, run):
        for n_max in ("0", "-3"):
            code, out, err = run("bound", "--p", "3", "--n-max", n_max)
            assert (code, out) == (2, "") and f"--n-max {n_max} is outside [1, 1000]" in err

    def test_n_max_above_limit_refused(self, run):
        assert run_json(run, "bound", "--p", "3", "--n-max", "1000")[0] == 0
        code, out, err = run("bound", "--p", "3", "--n-max", "1001")
        assert (code, out) == (2, "") and "--n-max 1001 is outside [1, 1000]" in err

    def test_p5_exponent(self, run):
        code, env = run_json(run, "bound", "--p", "5", "--n-max", "3")
        assert code == 0
        assert abs(float(env["result"]["c"]) - 0.96548) < 1e-5

    def test_invalid_p(self, run):
        code, out, err = run("bound", "--p", "4")
        assert code == 2 and "prime" in err

    def test_formats(self, run):
        code, out, _ = run("bound", "--p", "3", "--n-max", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines()[0] == "n,p_cn,three_p_cn"
        code, out, _ = run("bound", "--p", "3", "--n-max", "2", "--format", "table")
        assert code == 0 and "base p^c" in out


class TestDims:
    def test_rows(self, run):
        code, env = run_json(run, "dims", "--p", "3", "--n", "3")
        assert code == 0
        rows = {r["d"]: r for r in env["result"]["rows"]}
        assert rows[2]["dim"] == "10" and rows[4]["dim"] == "23"
        assert rows[6]["dim"] == "27" == env["result"]["ambient"]
        assert all(r["duality"] == "ok" for r in env["result"]["rows"])

    def test_range_errors(self, run):
        code, _, err = run("dims", "--p", "3", "--n", "2", "--d-max", "9")
        assert code == 2

    def test_negative_n_is_named(self, run):
        code, out, err = run("dims", "--p", "3", "--n", "-1")
        assert (code, out) == (2, "") and "n must be nonnegative, got -1" in err
        assert run("dims", "--p", "3", "--n", "0", "--format", "json")[0] == 0

    def test_huge_n_refused_before_any_table(self, run, dimension_reads):
        code, out, err = run("dims", "--p", "3", "--n", "9100")
        assert (code, out) == (2, "")
        assert "3^9100" in err and str(sys.get_int_max_str_digits()) in err
        code, _, err = run("entropy-check", "--p", "3", "--n", "3,9102")
        assert code == 2 and "3^9102" in err
        assert dimension_reads == []

    def test_digit_limit_is_exact(self, run):
        """3^1341 has 640 decimal digits and 3^1342 has 641; a limit of 0
        refuses nothing."""
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert run("entropy-check", "--p", "3", "--n", "1341", "--format", "json")[0] == 0
            code, _, err = run("dims", "--p", "3", "--n", "1342", "--d-max", "0")
            assert code == 2 and "3^1342" in err and "640" in err
            sys.set_int_max_str_digits(0)
            assert run("dims", "--p", "3", "--n", "1342", "--d-max", "0", "--format", "json")[0] == 0
        finally:
            sys.set_int_max_str_digits(limit)

    def test_digit_limit_change_between_calls(self, run):
        """The memoised power 10^limit follows a limit changed between two
        calls in one process, both ways."""
        limit = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            assert run("dims", "--p", "3", "--n", "1342", "--d-max", "0")[0] == 2
            sys.set_int_max_str_digits(700)
            assert run("dims", "--p", "3", "--n", "1342", "--d-max", "0", "--format", "json")[0] == 0
            sys.set_int_max_str_digits(640)
            code, _, err = run("entropy-check", "--p", "3", "--n", "1342")
            assert code == 2 and "3^1342" in err and "640" in err
        finally:
            sys.set_int_max_str_digits(limit)

    def test_no_digit_limit_before_python_3_10_7(self, run, monkeypatch):
        """Python 3.10.0-3.10.6 have no sys.get_int_max_str_digits, and no limit."""
        monkeypatch.delattr(sys, "get_int_max_str_digits")
        assert run("dims", "--p", "3", "--n", "4", "--format", "json")[0] == 0
        assert run("entropy-check", "--p", "3", "--n", "6", "--format", "json")[0] == 0


def _sha256_json(obj) -> str:
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()


def assert_written_by_json_dumps(out: str) -> None:
    """The writer contract: JSON output is `json.dumps(envelope)` and a newline."""
    assert out == json.dumps(json.loads(out)) + "\n"


# sha256 of the parsed JSON output, keys sorted. The `dims` and
# `entropy-check` values were taken from output whose bytes matched those of
# the window convolution that the layer recurrence replaced, and the `bound`
# values from output written before c and p^(cn) had one evaluator; both
# rewrites must reproduce them.
PINNED_OUTPUTS = {
    ("dims", "--p", "3", "--n", "301"): "e2f75cd2e0ef72e27db0aa7cd3c300af7a60f4f73f9626de93307096272c99a0",
    ("dims", "--p", "11", "--n", "61"): "cdccab0dec369b1b33d47031d208efbb6c5018c995ab8981fd3c2091e67f4d53",
    ("entropy-check", "--p", "5", "--n", "3,6,255"): "50766508353df6fea666f63603d8d63d673b1fd62a139d4cd83a022a3a633c68",
    ("bound", "--p", "3", "--n-max", "1000"): "d48dc64a1a8c76faf0f6b77ae01861deda107238ec11384fc2fb76019628f81b",
    ("bound", "--p", "65521", "--n-max", "50"): "ae1b3fa5cce9d9167d943ed98953d566a8b75252cbab4047dffe21b547efb1eb",
}


@pytest.mark.parametrize("argv", list(PINNED_OUTPUTS), ids=lambda a: f"{a[0]}_p{a[2]}_n{a[4]}")
def test_dimension_outputs_byte_stable(run, argv):
    code, out, _ = run(*argv, "--format", "json")
    assert code == 0
    assert_written_by_json_dumps(out)
    assert _sha256_json(json.loads(out)) == PINNED_OUTPUTS[argv]


# sha256 of the `result` object of exhaustive `search --mode exact`, keys
# sorted, taken with the per-pair tuple masks that the row table replaced;
# the row table and the one search loop must reproduce them at one and at two
# processes (nodes_explored and the witness both depend on the frontier).
PINNED_SEARCHES = {
    ("3", "2", "1"): "0fa921df40b8f3618f198af5bcaf1dd4955b37d028da6c49835b5709a5020f56",
    ("3", "2", "2"): "0fa921df40b8f3618f198af5bcaf1dd4955b37d028da6c49835b5709a5020f56",
    ("3", "3", "1"): "693ac48232305ba6b0d32bf9fa97cb8de58239c1a5ca08fdba7db4def3984ca2",
    ("3", "3", "2"): "d2fe58c5f78929efba5385281ebaf670bfd38da6d70f8deb7b98a1232a58b5f6",
    ("5", "2", "1"): "c7d2423acffe865dea7f37039d5069b58dba11116a8723879403e0e0819a5b84",
    ("5", "2", "2"): "c7d2423acffe865dea7f37039d5069b58dba11116a8723879403e0e0819a5b84",
    ("7", "2", "1"): "1801a516e2019e2a8684a9201217b8e7d6df2e18cddfd597811639a7a5b42d81",
    ("7", "2", "2"): "1407929f000b8b2cd971adb89bcf70b74f1e27d96a4ed345bed850f1a338b406",
}

# Budgeted searches at 1 and 2 processes: best size and the witness's sha256,
# keys sorted, as the tuple masks gave them at 2 processes.
PINNED_BUDGETED = {
    ("3", "4"): (20, "36279c4948acdd07ecada6366083a8c6bd0b36992fc29c65bfa3ca2dd4c04224"),
    ("5", "3"): (25, "ab19ec029dd7af78512fd2112ccd578fd7ca5e29472f969577947e82777c95a4"),
}


@pytest.mark.parametrize(
    "key", list(PINNED_SEARCHES), ids=lambda k: f"p{k[0]}_n{k[1]}_threads{k[2]}"
)
def test_exact_search_output_pinned(run, key):
    p, n, threads = key
    code, env = run_json(run, "search", "--p", p, "--n", n, "--mode", "exact", "--threads", threads)
    assert code == 0 and env["result"]["optimal"]
    assert _sha256_json(env["result"]) == PINNED_SEARCHES[key]


@pytest.mark.parametrize(
    "key", [(*k, t) for k in PINNED_BUDGETED for t in "12"], ids=lambda k: f"p{k[0]}_n{k[1]}_threads{k[2]}"
)
def test_budgeted_search_pinned(run, key):
    p, n, threads = key
    code, env = run_json(
        run, "search", "--p", p, "--n", n, "--mode", "exact", "--budget", "300000", "--threads", threads
    )
    result = env["result"]
    assert code == 0 and result["nodes_explored"] == 300000 and not result["optimal"]
    assert (result["best_size"], _sha256_json(result["witness"])) == PINNED_BUDGETED[(p, n)]


CAP9 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0), (0, 0, 1), (1, 0, 1), (2, 1, 1), (2, 2, 1), (2, 1, 2)]
# greedy_progression_free(F_5, 3, order_seed=0): 15 points, zero-intersection branch
GREEDY_F5_N3 = [
    (3, 0, 0), (4, 2, 0), (1, 4, 0), (4, 0, 1), (0, 1, 1), (1, 4, 1), (2, 0, 2), (0, 1, 3),
    (4, 2, 3), (1, 3, 3), (0, 4, 3), (4, 0, 4), (2, 1, 4), (4, 1, 4), (0, 4, 4),
]


def _point_text(p: int, n: int, points) -> str:
    return f"p={p} n={n}\n" + "".join(" ".join(map(str, c)) + "\n" for c in points)


TRANSCRIPT_INPUTS = {
    "product_cap": _point_text(3, 6, [a + b for a in CAP9 for b in CAP9]),
    "zero_branch": _point_text(5, 3, GREEDY_F5_N3),
    # main branch through a 1507 x 729 block (dim V = 125)
    "product_of_three_caps": _point_text(3, 9, [a + b + c for a in CAP9 for b in CAP9 for c in CAP9]),
    # a 2 x 50116 block whose Vandermonde entries reach 66
    "pair_f67": _point_text(67, 3, [(0, 0, 0), (1, 2, 3)]),
}

# sha256 of the parsed JSON output of `prove --input <file>` and of
# `verify-transcript --input -` on that transcript, keys sorted. Taken for
# the capbound.transcript/3 format, whose report keeps one row per fact of
# the certificate, after every transcript of the benchmark's prove inputs
# (seeds 0-5) and of these four inputs, and every verify report on them,
# matched the /2 output byte for byte once its format was renamed and its
# nine other rows deleted; these are the hashes of that edited /2 output.
PINNED_TRANSCRIPTS = {
    "product_cap": (
        "aa2b78671d2117c7f7232bcd5ed6237c4a80015b3f2dd279e737224cd4500c21",
        "0a781b854928cf93519e8e9cd34f8326c105f6de8e7e85840cc0525ce0215660",
    ),
    "zero_branch": (
        "5479eb2deb65ebd1f87fb4ae8d171ecd713793e9be878059a74ece8b4c6d0713",
        "8260884235e3ba8c0fd9d88f24a6fbceffa3a3cff4ebe0ec1e641b465b36f583",
    ),
    "product_of_three_caps": (
        "1e7d5f3ba2be5bab6aa53eae1e0a0dc115824f720894c719e7f6db1781a85de3",
        "712dde0bf5e1ecd5cd872990fcdff471528136b72560365def757f5a14bc5f47",
    ),
    "pair_f67": (
        "fa3d35ce8ef91ca41d9c2a9dadf87d1e2468bec3d9fd52e4ef3553ed209584b7",
        "4da9d485a4c2f5fc05064f3d89c14357163936ac11cce1a949df6e4b3a449a04",
    ),
}


# sha256 of the stdout of `search <argv> --format json | prove --input - --format json`
# and of `verify-transcript --input - --format json` on that transcript. Taken
# from the `prove --search <argv>` that this pipeline replaced, with the same
# bytes.
PINNED_PIPELINES = {
    ("--p", "3", "--n", "3"): (
        "b0cfe9c11d43a113635fff1a4bb4462c16e7f8aca6f7b44a32410ca46c2ce509",
        "733d648b9fb32cee3c29c665f8aab31380d49ac2cab1683bf2d29e83e12488cc",
    ),
    ("--p", "3", "--n", "6", "--mode", "greedy"): (
        "1fad9a78e4ffd39c52ef90afc49001b1915c265a6483d7cd838c61afdfa1adb7",
        "3522501ac09a932f11e4a83d3b65216dc42b0dc63dda05190187a8f7f7b3e38e",
    ),
    ("--p", "7", "--n", "4", "--mode", "greedy"): (
        "42808ec663836674191019a82141aa8109a23a5f0da7d27dc16f0143ba77949b",
        "af9b29b36a324fd4b548f7e29a12762e7ca2d1f09cabb26efe9cf61400ecf54a",
    ),
}


@pytest.mark.parametrize("argv", list(PINNED_PIPELINES), ids=lambda a: "_".join(a).replace("--", ""))
def test_search_prove_verify_pipeline_pinned(run, argv):
    out = run("search", *argv, "--format", "json")[1]
    outs = []
    for command in ("prove", "verify-transcript"):
        with mock.patch("sys.stdin", io.StringIO(out)):
            code, out, _ = run(command, "--input", "-", "--format", "json")
        assert code == 0
        outs.append(out)
    assert tuple(hashlib.sha256(text.encode()).hexdigest() for text in outs) == PINNED_PIPELINES[argv]


@pytest.mark.parametrize("name", list(PINNED_TRANSCRIPTS))
def test_transcript_outputs_byte_stable(run, tmp_path, name):
    f = tmp_path / "set.txt"
    f.write_text(TRANSCRIPT_INPUTS[name])
    code, proved, _ = run("prove", "--input", str(f), "--format", "json")
    assert code == 0
    code, verified, _ = verify_from_stdin(json.loads(proved))
    assert code == 0
    for out in (proved, verified):
        assert_written_by_json_dumps(out)
    assert tuple(_sha256_json(json.loads(out)) for out in (proved, verified)) == PINNED_TRANSCRIPTS[name]


@pytest.mark.parametrize("value", ["60", "2000", "junk"])
def test_precision_env_ignored(run, monkeypatch, tmp_path, value):
    """Every real value is evaluated at 30 digits, so `CAPSET_PRECISION`, which
    earlier versions read, changes no byte and no exit code of any command."""
    cap, transcript = tmp_path / "cap.txt", tmp_path / "cap9.json"
    cap.write_text(_point_text(3, 3, CAP9))
    calls = [
        ("bound", "--p", "3", "--n-max", "5"),
        ("entropy-check", "--p", "3", "--n", "3,6"),
        ("prove", "--input", str(cap)),
        ("verify-transcript", "--input", str(transcript)),
    ]
    monkeypatch.delenv("CAPSET_PRECISION", raising=False)
    transcript.write_text(run("prove", "--input", str(cap), "--format", "json")[1])
    unset = [run(*argv, "--format", "json") for argv in calls]
    assert [code for code, _, _ in unset] == [0, 0, 0, 0]
    monkeypatch.setenv("CAPSET_PRECISION", value)
    assert [run(*argv, "--format", "json") for argv in calls] == unset


def test_verify_reads_indented_transcripts(run, tmp_path):
    """Earlier versions wrote transcripts indented; the indent changes no report."""
    f = tmp_path / "set.txt"
    f.write_text(TRANSCRIPT_INPUTS["zero_branch"])
    code, proved, _ = run("prove", "--input", str(f), "--format", "json")
    assert code == 0
    reports = []
    for indent in (None, 2):
        t = tmp_path / f"transcript-{indent}.json"
        t.write_text(json.dumps(json.loads(proved), indent=indent))
        code, out, err = run("verify-transcript", "--input", str(t), "--format", "json")
        reports.append((code, json.loads(out)["result"], err))
    assert reports[0][0] == 0 and reports[0][1]["valid"] is True
    assert reports[1] == reports[0]


# greedy_progression_free(F_5, 3, order_seed=1): 13 points, zero-intersection branch
GREEDY_F5_N3_SEED1 = [
    (4, 0, 0), (0, 4, 0), (4, 4, 0), (1, 2, 1), (3, 2, 1), (1, 3, 1), (0, 4, 1), (0, 0, 2),
    (4, 0, 3), (2, 1, 3), (4, 1, 3), (1, 4, 4), (4, 4, 4),
]
REPORT_INPUTS = {"cap9": _point_text(3, 3, CAP9), "greedy_f5_3": _point_text(5, 3, GREEDY_F5_N3_SEED1)}

# The lines of `prove --input <set>` and of `verify-transcript` on its JSON
# transcript, written as a table (every cell padded, the last one too) or as
# CSV (each line ends in \r\n).
PINNED_REPORTS = {
    ("prove", "cap9", "table"): [
        "size-bound transcript for |A| = 9 in F_3^3",
        "branch = main   dims = {'ambient': '27', 'vanishing_off_doubles': '9', 'low_degree': '23', "
        "'low_third': '10', 'low_third_minus': '4', 'intersection': '5'}",
        "conclusion: exact {'size': '9', 'low_third_minus': '4', 'selected': '5', 'bound': '9', 'holds': True}",
        "conclusion: asymptotic holds = True",
        "check                     relation  lhs  rhs                              holds",
        "progression_free          ==        1    1                                True ",
        "witness_degree            <=        4    4                                True ",
        "witness_unit_on_selected  ==        1    1                                True ",
        "selected_size_bound       <=        5    20                               True ",
        "size_bound_exact          <=        9    9                                True ",
        "size_bound_asymptotic     <=        9    68.5650197161397399976383093829  True ",
    ],
    ("prove", "cap9", "csv"): [
        "check,relation,lhs,rhs,holds",
        "progression_free,==,1,1,True",
        "witness_degree,<=,4,4,True",
        "witness_unit_on_selected,==,1,1,True",
        "selected_size_bound,<=,5,20,True",
        "size_bound_exact,<=,9,9,True",
        "size_bound_asymptotic,<=,9,68.5650197161397399976383093829,True",
    ],
    ("prove", "greedy_f5_3", "table"): [
        "size-bound transcript for |A| = 13 in F_5^3",
        "branch = zero_intersection   dims = {'ambient': '125', 'vanishing_off_doubles': '13', "
        "'low_degree': '105', 'low_third': '35', 'low_third_minus': '20', 'intersection': '0'}",
        "conclusion: exact {'size': '13', 'bound': '20', 'holds': True}",
        "conclusion: asymptotic holds = True",
        "check                  relation  lhs  rhs                              holds",
        "progression_free       ==        1    1                                True ",
        "size_bound_exact       <=        13   20                               True ",
        "size_bound_asymptotic  <=        13   317.430646833980277766844024928  True ",
    ],
    ("prove", "greedy_f5_3", "csv"): [
        "check,relation,lhs,rhs,holds",
        "progression_free,==,1,1,True",
        "size_bound_exact,<=,13,20,True",
        "size_bound_asymptotic,<=,13,317.430646833980277766844024928,True",
    ],
    ("verify-transcript", "cap9", "table"): [
        "transcript re-check: all checks reproduced",
        "name                      relation  lhs  rhs                              holds  "
        "note                                        ",
        "progression_free          ==        1    1                                True   "
        "verified on input                           ",
        "witness_degree            <=        4    4                                True   "
        "                                            ",
        "witness_unit_on_selected  ==        1    1                                True   "
        "                                            ",
        "selected_size_bound       <=        5    20                               True   "
        "diagonal Gram rank against the support split",
        "size_bound_exact          <=        9    9                                True   "
        "|A| = |C| <= dim(low third minus one) + |C'|",
        "size_bound_asymptotic     <=        9    68.5650197161397399976383093829  True   "
        "                                            ",
        "recorded_claims           ==        1    1                                True   "
        "                                            ",
    ],
    ("verify-transcript", "cap9", "csv"): [
        "name,relation,lhs,rhs,holds,note",
        "progression_free,==,1,1,True,verified on input",
        "witness_degree,<=,4,4,True,",
        "witness_unit_on_selected,==,1,1,True,",
        "selected_size_bound,<=,5,20,True,diagonal Gram rank against the support split",
        "size_bound_exact,<=,9,9,True,|A| = |C| <= dim(low third minus one) + |C'|",
        "size_bound_asymptotic,<=,9,68.5650197161397399976383093829,True,",
        "recorded_claims,==,1,1,True,",
    ],
    ("verify-transcript", "greedy_f5_3", "table"): [
        "transcript re-check: all checks reproduced",
        "name                   relation  lhs  rhs                              holds  note                                ",
        "progression_free       ==        1    1                                True   verified on input                   ",
        "size_bound_exact       <=        13   20                               True   zero-dimensional intersection branch",
        "size_bound_asymptotic  <=        13   317.430646833980277766844024928  True                                       ",
        "recorded_claims        ==        1    1                                True                                       ",
    ],
    ("verify-transcript", "greedy_f5_3", "csv"): [
        "name,relation,lhs,rhs,holds,note",
        "progression_free,==,1,1,True,verified on input",
        "size_bound_exact,<=,13,20,True,zero-dimensional intersection branch",
        "size_bound_asymptotic,<=,13,317.430646833980277766844024928,True,",
        "recorded_claims,==,1,1,True,",
    ],
}


def _report(run, tmp_path, command: str, text: str, fmt: str) -> tuple[int, str]:
    """Exit code and stdout of `prove` on the set `text`, or of `verify-transcript` on its JSON transcript."""
    (tmp_path / "set.txt").write_text(text)
    code, out, _ = run("prove", "--input", str(tmp_path / "set.txt"), "--format", fmt if command == "prove" else "json")
    if command == "verify-transcript":
        assert code == 0
        (tmp_path / "transcript.json").write_text(out)
        code, out, _ = run(command, "--input", str(tmp_path / "transcript.json"), "--format", fmt)
    return code, out


@pytest.mark.parametrize("key", list(PINNED_REPORTS), ids="_".join)
def test_table_and_csv_reports_pinned(run, tmp_path, key):
    command, name, fmt = key
    end = "\n" if fmt == "table" else "\r\n"
    assert _report(run, tmp_path, command, REPORT_INPUTS[name], fmt) == (0, end.join(PINNED_REPORTS[key]) + end)


@pytest.mark.parametrize("fmt", ["table", "csv"])
def test_table_and_csv_reports_name_the_difference(run, tmp_path, fmt):
    """The table and CSV of a failed re-check carry each row's note, so the
    9-cap transcript with one selected point dropped names that field."""
    (tmp_path / "set.txt").write_text(REPORT_INPUTS["cap9"])
    env = json.loads(run("prove", "--input", str(tmp_path / "set.txt"), "--format", "json")[1])
    env["result"]["selected_points"].pop()
    (tmp_path / "forged.json").write_text(json.dumps(env))
    code, out, _ = run("verify-transcript", "--input", str(tmp_path / "forged.json"), "--format", fmt)
    lines = out.splitlines()
    head = "transcript re-check: FAILED" if fmt == "table" else "name,relation,lhs,rhs,holds,note"
    assert code == 1 and lines[0] == head
    assert lines[-1].startswith("recorded_claims") and "recorded selected_points differs" in lines[-1]


class TestEntropyCheck:
    def test_multiple_n(self, run):
        code, env = run_json(run, "entropy-check", "--p", "3", "--n", "3,6,9")
        assert code == 0
        assert all(r["holds"] for r in env["result"]["rows"])

    def test_rejects_bad_n(self, run):
        code, _, err = run("entropy-check", "--p", "3", "--n", "4")
        assert code == 2 and "3 | n" in err

    @pytest.mark.parametrize("ns", ["", " , ", ","])
    def test_rejects_empty_n_list(self, run, ns):
        code, out, err = run("entropy-check", "--p", "3", "--n", ns)
        assert (code, out) == (2, "") and "no n" in err

    def test_builds_only_the_entries_read(self, run, dimension_reads):
        """entropy-check reads the one slice d = (p-1)n/3 and builds no table;
        dims builds entries 0..max(d_max, top - d_min - 1) once."""
        assert run_json(run, "entropy-check", "--p", "3", "--n", "30")[0] == 0
        assert dimension_reads == [("dim_L", 30, 20)]
        dimension_reads.clear()
        assert run_json(run, "dims", "--p", "5", "--n", "10", "--d-min", "30", "--d-max", "31")[0] == 0
        assert dimension_reads == [("_cumulative_counts", 10, 4, 31, 32)]

    def test_big_prime_fast(self, run):
        code, env = run_json(run, "entropy-check", "--p", "7", "--n", "30")
        assert code == 0 and env["result"]["rows"][0]["holds"]

    def test_every_n_when_p_is_1_mod_3(self, run):
        """For p = 1 mod 3 the cut (p-1)n/3 is an integer at every n."""
        code, env = run_json(run, "entropy-check", "--p", "7", "--n", "1,2,4,5")
        rows = env["result"]["rows"]
        assert code == 0 and [r["d"] for r in rows] == [2, 4, 8, 10]
        assert all(r["holds"] and 0.79 < float(r["margin"]) < 1.55 for r in rows)


class TestSearch:
    def test_exact_small(self, run):
        code, env = run_json(
            run, "search", "--p", "3", "--n", "2", "--mode", "exact", "--threads", "1"
        )
        assert code == 0
        assert env["result"]["best_size"] == 4 and env["result"]["optimal"]

    def test_ceiling_suggests_greedy(self, run):
        code, _, err = run("search", "--p", "3", "--n", "7", "--mode", "exact", "--threads", "1")
        assert code == 2 and "greedy" in err

    @pytest.mark.parametrize(
        "option",
        [["--threads", "0"], ["--threads", "-2"], ["--threads", "257"], ["--budget", "-5"]],
        ids=["0", "-2", "257", "budget"],
    )
    @pytest.mark.parametrize("command", [["search"], ["search", "--mode", "greedy"]], ids=["search", "search-greedy"])
    def test_threads_out_of_range_is_usage_error(self, run, command, option):
        """Both modes refuse a thread count outside [1, 256] and a negative
        budget, although greedy mode reads neither."""
        code, out, err = run(*command, "--p", "3", "--n", "3", *option)
        assert code == 2 and option[0].removeprefix("--") in err and out == ""

    @pytest.mark.parametrize("command", [["search"], ["search", "--mode", "greedy"]], ids=["search", "search-greedy"])
    def test_n_below_one_is_usage_error(self, run, command):
        """Both search modes refuse n = 0 with one message."""
        code, out, err = run(*command, "--p", "3", "--n", "0")
        assert code == 2 and out == "" and "n must be positive" in err

    def test_threads_reported_as_resolved(self, run):
        code, env = run_json(run, "search", "--p", "3", "--n", "3", "--mode", "exact")
        assert code == 0 and env["params"]["threads"] == 1
        code, env = run_json(run, "search", "--p", "3", "--n", "3", "--threads", "3")
        assert code == 0 and env["params"]["threads"] == 3 and env["result"]["optimal"]

    def test_default_threads_ignore_the_host(self, run, monkeypatch):
        """Without --threads a search runs in one process on any host: with
        eight CPUs reported, a budget above the whole tree of F_7^2 still
        reports one thread and proves optimality, as a one-CPU host does."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        code, env = run_json(run, "search", "--p", "7", "--n", "2", "--budget", "1000000")
        result = env["result"]
        assert code == 0 and env["params"]["threads"] == 1
        assert (result["best_size"], result["nodes_explored"], result["optimal"]) == (10, 568_895, True)

    def test_budget_caps_nodes_explored(self, run):
        for threads in ("1", "4"):
            code, env = run_json(
                run, "search", "--p", "3", "--n", "3", "--budget", "50", "--threads", threads
            )
            assert code == 0 and env["result"]["nodes_explored"] <= 50
            assert not env["result"]["optimal"]

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
    def test_dead_worker_is_an_error_line(self, run, monkeypatch):
        """A search worker killed before it sends its results ends the command
        with exit 2 and one `error:` line naming it, not a traceback, and
        leaves no child."""
        from test_sets import _deadline

        caller, walk = os.getpid(), search._walk

        def walk_killed_in_children(*args):
            if args[-1] != 1:  # not a one-node step of the split, which runs before the launch
                if os.getpid() != caller:
                    os.kill(os.getpid(), signal.SIGKILL)
                time.sleep(0.05)  # leaves subtrees for the child to claim
            return walk(*args)

        monkeypatch.setattr(search, "_walk", walk_killed_in_children)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        with _deadline(60):
            code, out, err = run("search", "--p", "3", "--n", "3", "--mode", "exact", "--threads", "2")
        assert code == 2 and out == ""
        assert err.startswith("error: search worker ") and err.count("\n") == 1 and "Traceback" not in err
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="workers are forked")
    def test_failed_worker_is_an_error_line(self, run, monkeypatch):
        """A search worker whose walk raises ends the command with exit 2 and one
        `error:` line naming the worker and its error, not a traceback, and
        leaves no child."""
        from test_sets import _deadline

        caller, walk = os.getpid(), search._walk

        def walk_failing_in_children(*args):
            if args[-1] != 1:  # not a one-node step of the split, which runs before the launch
                if os.getpid() != caller:
                    raise ArithmeticError("walk failed in a child")
                time.sleep(0.05)  # leaves subtrees for the child to claim
            return walk(*args)

        monkeypatch.setattr(search, "_walk", walk_failing_in_children)
        monkeypatch.setattr(search.os, "cpu_count", lambda: 2)
        with _deadline(60):
            code, out, err = run("search", "--p", "3", "--n", "3", "--mode", "exact", "--threads", "2")
        assert code == 2 and out == "" and err.startswith("error: search worker ")
        assert err.endswith(" failed: ArithmeticError('walk failed in a child')\n") and err.count("\n") == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def test_greedy_deterministic(self, run):
        a = run("search", "--p", "3", "--n", "6", "--mode", "greedy", "--seed", "7", "--format", "json")
        b = run("search", "--p", "3", "--n", "6", "--mode", "greedy", "--seed", "7", "--format", "json")
        assert a == b
        env = json.loads(a[1])
        assert env["result"]["best_size"] >= 1 and not env["result"]["optimal"]


class TestProveAndVerify:
    def test_prove_refuses_the_cut_of_a_searched_set(self, run):
        """A set searched in F_3^4, whose degree cut 8/3 is not an integer, is refused by prove."""
        code, out, _ = run("search", "--p", "3", "--n", "4", "--mode", "greedy", "--format", "json")
        assert code == 0
        with mock.patch("sys.stdin", io.StringIO(out)):
            code, out, err = run("prove", "--input", "-")
        assert code == 2 and out == "" and "degree cut" in err

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda env: env.pop("result"), "search witness must be an object, got NoneType"),
            (lambda env: env["result"].pop("witness"), "search witness must be an object, got NoneType"),
            (lambda env: env["result"]["witness"].update(size=9), "search witness has unknown key 'size'"),
        ],
        ids=["no_result", "no_witness", "witness_key"],
    )
    def test_prove_refuses_a_malformed_search_envelope(self, run, edit, message):
        env = run_json(run, "search", "--p", "3", "--n", "3", "--mode", "greedy")[1]
        edit(env)
        with mock.patch("sys.stdin", io.StringIO(json.dumps(env))):
            code, out, err = run("prove", "--input", "-")
        assert (code, out) == (2, "") and message in err

    def test_prove_reads_only_its_input(self, run):
        """The search options belong to `search`: prove has --input, required, and --format."""
        code, out, _ = run("prove", "--help")
        assert code == 0 and set(re.findall(r"--[a-z-]+", out)) == {"--help", "--input", "--format"}
        code, out, err = run("prove", "--search", "--p", "3", "--n", "3")
        assert (code, out) == (2, "") and "--input" in err

    @pytest.mark.parametrize("command", ["verify-set", "prove"])
    def test_prove_refuses_other_envelopes(self, run, tmp_path, command):
        """Of the envelopes the CLI writes, prove reads only that of `search`."""
        f = tmp_path / "cap.txt"
        f.write_text(_point_text(3, 3, CAP9))
        code, out, _ = run(command, "--input", str(f), "--format", "json")
        assert code == 0
        envelope = tmp_path / "envelope.json"
        envelope.write_text(out)
        code, out, err = run("prove", "--input", str(envelope))
        assert (code, out) == (2, "") and f"not a '{command}' envelope" in err

    def test_prove_from_search(self, run):
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        assert code == 0
        result = env["result"]
        assert result["dims"]["vanishing_off_doubles"] == "9"
        assert result["dims"]["low_degree"] == "23"
        assert int(result["dims"]["intersection"]) >= 5

    def test_prove_file_round_trip(self, run, tmp_path):
        code, env = run_json(
            run, "search", "--p", "3", "--n", "3", "--mode", "exact", "--threads", "1"
        )
        witness = env["result"]["witness"]
        set_file = tmp_path / "cap.json"
        set_file.write_text(json.dumps(witness))
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0

        transcript_file = tmp_path / "transcript.json"
        transcript_file.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(transcript_file))
        assert code == 0 and env2["result"]["valid"]

    def test_prove_text_input(self, run, tmp_path):
        set_file = tmp_path / "pair.txt"
        set_file.write_text("p=3 n=3\n0 0 0\n1 0 0\n")
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0
        assert env["result"]["branch"] == "zero_intersection"

    def test_prove_rejects_progression(self, run, tmp_path):
        set_file = tmp_path / "line.txt"
        set_file.write_text("p=3 n=3\n0 0 0\n1 0 0\n2 0 0\n")
        code, out, _ = run("prove", "--input", str(set_file), "--format", "json")
        env = json.loads(out)
        assert code == 1
        assert env["witness"] is not None
        a, b, c = [tuple(x) for x in env["witness"]]
        assert all((x + y) % 3 == 2 * z % 3 for x, y, z in zip(a, b, c))

    def test_prove_names_a_progression_above_the_work_bound(self, run, tmp_path):
        """All of F_3^8 x {0}^4 has 6561 points, too many for `prove`'s
        |C| x h block, but its pair sweep comes first and finds a
        progression: exit 1 with the triple, not a refusal."""
        set_file = tmp_path / "slab.txt"
        slab = [c + (0,) * 4 for c in PointSet.full(PrimeField(3), 8).points()]
        set_file.write_text(_point_text(3, 12, slab))
        code, out, _ = run("prove", "--input", str(set_file), "--format", "json")
        assert code == 1
        a, b, c = [tuple(x) for x in json.loads(out)["witness"]]
        assert len({a, b, c}) == 3 and all((x + y) % 3 == 2 * z % 3 for x, y, z in zip(a, b, c))

    @pytest.mark.parametrize("points", ["product_cap", "first_8192"])
    def test_gram_check_builds_no_matrix(self, run, tmp_path, points):
        """A one-point transcript in F_3^12 whose input is made the 6561-point
        product of four 9-caps (progression-free, so every pair is read) or
        the first 8192 points (which hold progressions), with C' forged to
        all of their doubles and f to 1 on them. A' is then the whole input,
        and its Gram matrix, 4.3e7 or 6.7e7 int64 entries, is checked in one
        pair sweep without being built: the record fails (exit 1) at a traced
        peak far below one such matrix."""
        set_file = tmp_path / "point.txt"
        set_file.write_text(_point_text(3, 12, [(0,) * 12]))
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0
        if points == "product_cap":
            pts = [a + b + c + d for a in CAP9 for b in CAP9 for c in CAP9 for d in CAP9]
        else:
            pts = PointSet.from_indices(PrimeField(3), 12, range(8192)).points()
        t = env["result"]
        t["input"]["points"] = [list(c) for c in pts]
        t["selected_doubles"] = sorted(sum(2 * x % 3 * 3**i for i, x in enumerate(c)) for c in pts)
        t["witness_values"] = [1] * len(pts)
        (tmp_path / "forged.json").write_text(json.dumps(t))
        tracemalloc.start()
        try:
            code, env = run_json(run, "verify-transcript", "--input", str(tmp_path / "forged.json"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 1 and env["result"]["valid"] is False
        # an off-diagonal nonzero needs a pair sum that is a double: a progression
        progression_row = next(c for c in env["result"]["checks"] if c["name"] == "progression_free")
        assert progression_row["holds"] is (points == "product_cap")
        assert peak < 2**26, peak  # one int64 Gram matrix over A' takes 344 MB or more

    def test_prove_parse_error(self, run, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a set\n")
        code, _, err = run("prove", "--input", str(bad))
        assert code == 2

    def test_f3_9_round_trip(self, run):
        product = [a + b + c for a in CAP9 for b in CAP9 for c in CAP9]
        with mock.patch("sys.stdin", io.StringIO(_point_text(3, 9, product))):
            code, env = run_json(run, "prove", "--input", "-")
        assert code == 0 and env["result"]["branch"] == "main"
        assert env["result"]["dims"]["intersection"] == "125"
        code, out, _ = verify_from_stdin(env)
        assert code == 0 and json.loads(out)["result"]["valid"] is True

    @pytest.mark.parametrize(
        "p, n, size, dim_v",
        [(7, 1, 3, "1"), (7, 2, 9, "0"), (13, 2, 19, "0"), (7, 4, 89, "0")],
    )
    def test_certifies_every_n_when_p_is_1_mod_3(self, run, p, n, size, dim_v):
        """3 ∤ n, but the cut (p-1)n/3 is an integer: F_7^1 takes the main
        branch and the 89-point greedy set of F_7^4 the zero branch."""
        code, env = prove_searched(run, "--p", str(p), "--n", str(n), "--mode", "greedy")
        result = env["result"]
        assert code == 0 and (result["input_size"], result["dims"]["intersection"]) == (size, dim_v)
        assert result["split_degree"] == (p - 1) * n // 3
        code, out, _ = verify_from_stdin(env)
        assert code == 0 and json.loads(out)["result"]["valid"] is True

    def test_prove_and_verify_in_f67(self, run, tmp_path):
        """F_67^3, a large modulus: the |C| x h block reads `_vandermonde(67)`,
        whose entries reach 66, reduced after k - 1 factors (66^10 < 2^63)."""
        set_file = tmp_path / "pair.txt"
        set_file.write_text("p=67 n=3\n0 0 0\n1 2 3\n")
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0 and env["result"]["conclusion"]["exact"]["holds"] is True
        transcript_file = tmp_path / "transcript.json"
        transcript_file.write_text(json.dumps(env))
        code, env = run_json(run, "verify-transcript", "--input", str(transcript_file))
        assert code == 0 and env["result"]["valid"] is True

    def test_verify_tampered_transcript(self, run, tmp_path):
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        env["result"]["dims"]["low_degree"] = "24"
        f = tmp_path / "tampered.json"
        f.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(f))
        assert code == 1 and not env2["result"]["valid"]

    def test_verify_reports_broken_support_split(self, run, tmp_path, cap9_search):
        """The support split breaks only on a term of degree >= 2s + 2, above
        the degree cap 2s, so `witness_degree` reports it and the size row,
        an inequality of sizes, still holds."""
        cap = cap9_search.witness.points()
        product = PointSet.from_points(PrimeField(3), 6, [a + b for a in cap for b in cap])
        set_file = tmp_path / "product.json"
        set_file.write_text(json.dumps(product.to_json()))
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0 and env["result"]["branch"] == "main"
        # moving one value adds a multiple of an indicator, whose terms reach degree 12 >= 2d + 2 = 10
        values = env["result"]["witness_values"]
        values[0] = (values[0] + 1) % 3
        f = tmp_path / "injected.json"
        f.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(f))
        assert code == 1 and env2["result"]["valid"] is False
        rows = {c["name"]: c for c in env2["result"]["checks"]}
        assert (rows["witness_degree"]["lhs"], rows["witness_degree"]["rhs"]) == ("12", "8")
        assert not rows["witness_degree"]["holds"] and rows["selected_size_bound"]["holds"]

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda t: {"format": t["format"]}, "'input' is missing"),
            (lambda t: {**t, "witness_values": 5}, "'witness_values' must be list"),
            (lambda t: {**t, "witness_values": t["witness_values"][1:]}, "holds 8 values, not one per double"),
            (lambda t: {**t, "input": {"p": 3, "n": 3}}, "points"),
            (lambda t: [t], "got list"),
            (lambda t: 5, "got int"),
            (lambda t: None, "got NoneType"),
            (
                lambda t: {**t, "selected_doubles": [-1] + t["selected_doubles"][1:]},
                "'selected_doubles' holds -1",
            ),
            (lambda t: {**t, "selected_doubles": [0, 99]}, "'selected_doubles' holds 99, outside [0, 27)"),
            (
                lambda t: {**t, "witness_values": t["witness_values"] + [1]},
                "holds 10 values, not one per double",
            ),
            (
                lambda t: {**t, "witness_values": t["witness_values"][:-1] + [3]},
                "'witness_values' holds 3, outside [0, 3)",
            ),
            (lambda t: {**t, "input": {**t["input"], "p": 2**61 - 1}}, "too large"),
            (lambda t: {**t, "witness_values": t["witness_values"] * 2}, "holds 18 values"),
            (
                lambda t: {**t, "input": {**t["input"], "points": [[1.0, 0, 0]]}},
                "must be an int, got 1.0",
            ),
            (
                lambda t: {**t, "input": {**t["input"], "size": 9}},
                "field 'input' has unknown key 'size'",
            ),
            (lambda t: {**t, "input": {**t["input"], "n": 2_000_000}}, "at most 16777216 points"),
            (
                lambda t: {**t, "format": "capbound.transcript/1"},
                "unrecognized transcript format 'capbound.transcript/1'",
            ),
            (
                lambda t: {**t, "format": "capbound.transcript/2"},
                "unrecognized transcript format 'capbound.transcript/2'",
            ),
        ],
        ids=[
            "truncated",
            "witness_not_list",
            "witness_wrong_arity",
            "input_without_points",
            "not_an_object",
            "number",
            "null",
            "negative_selected_double",
            "selected_double_out_of_range_after_zero",
            "off_selection_key_out_of_range",
            "off_selection_value_out_of_range",
            "modulus_too_large",
            "witness_monomial_twice",
            "float_coordinate",
            "unknown_input_key",
            "ambient_too_large",
            "format_1",
            "format_2",
        ],
    )
    def test_verify_malformed_transcript_is_usage_error(self, run, tmp_path, edit, message):
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        f = tmp_path / "malformed.json"
        f.write_text(json.dumps(edit(env["result"])))
        code, out, err = run("verify-transcript", "--input", str(f), "--format", "json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err
        assert message in err

    @pytest.mark.parametrize(
        "edit, differs",
        [
            (lambda t: t["checks"][3].update(holds=False), "row 3 (selected_size_bound)"),
            (lambda t: t["checks"].pop(), "row 5 (size_bound_asymptotic)"),
            (lambda t: t["conclusion"]["exact"].update(bound="3"), "conclusion.exact"),
            (lambda t: t["conclusion"]["asymptotic"].update(holds=False), "asymptotic.holds"),
            (lambda t: t["conclusion"]["asymptotic"].update(bound="3"), "asymptotic.bound"),
            (lambda t: t["conclusion"]["asymptotic"].update(c="0.9"), "asymptotic.c"),
            (lambda t: t["conclusion"]["asymptotic"].update(p_cn="3"), "asymptotic.p_cn"),
            (lambda t: t["checks"][5].update(rhs="30"), "row 5 (size_bound_asymptotic)"),
            (lambda t: t.update(precision=1000), "recorded precision differs"),
            (lambda t: t["conclusion"]["exact"].update(holds=1), "conclusion.exact.holds"),
            (lambda t: t["checks"][1].update(holds=1), "recorded row 1 (witness_degree) differs"),
            (lambda t: t.pop("precision"), "recorded precision differs"),
        ],
        ids=[
            "row_holds_flipped",
            "row_dropped",
            "exact_bound_edited",
            "asymptotic_holds_flipped",
            "asymptotic_bound_edited",
            "asymptotic_c_edited",
            "asymptotic_p_cn_edited",
            "asymptotic_rhs_edited",
            "precision_relabelled",
            "exact_holds_retyped",
            "row_holds_retyped",
            "precision_missing",
        ],
    )
    def test_verify_compares_recorded_claims(self, run, tmp_path, edit, differs):
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        edit(env["result"])
        f = tmp_path / "claims.json"
        f.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(f))
        assert code == 1 and env2["result"]["valid"] is False
        failed = [c for c in env2["result"]["checks"] if not c["holds"]]
        assert [c["name"] for c in failed] == ["recorded_claims"]
        assert differs in failed[0]["note"]

    def test_verify_compares_off_selection_values(self, run, tmp_path):
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        t = env["result"]
        k = next(k for k, i in enumerate(t["doubles"]) if i not in t["selected_doubles"])
        t["witness_values"][k] = (t["witness_values"][k] + 1) % 3
        f = tmp_path / "off.json"
        f.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(f))
        assert code == 1 and env2["result"]["valid"] is False
        failed = [c["name"] for c in env2["result"]["checks"] if not c["holds"]]
        # f moves by a multiple of an indicator, which has the degree-6 term x1^2 x2^2 x3^2
        assert failed == ["witness_degree", "recorded_claims"]

    @pytest.mark.parametrize(
        "field, edit",
        [
            ("doubles", lambda t: t["doubles"].__setitem__(-1, next(i for i in range(27) if i not in t["doubles"]))),
            ("pair_sum_count", lambda t: t.update(pair_sum_count=t["pair_sum_count"] + 1)),
            ("dims.low_degree", lambda t: t["dims"].update(low_degree="24")),
            ("degree_cap", lambda t: t.update(degree_cap=t["degree_cap"] + 1)),
            ("branch", lambda t: t.update(branch="zero_intersection")),
            ("selected_points", lambda t: t.update(selected_points=t["selected_points"][:-1])),
            ("matrix_rank", lambda t: t.update(matrix_rank=t["matrix_rank"] + 1)),
            pytest.param("doubles", lambda t: t.pop("doubles"), id="missing_field"),
            pytest.param("input_size", lambda t: t.update(input_size="9"), id="string_for_int"),
            pytest.param("p", lambda t: t.update(p=5), id="p_disagrees"),
            pytest.param("doubles", lambda t: t.update(doubles=[0, True]), id="bool_in_index_list"),
            pytest.param("dims.low_degree", lambda t: t["dims"].update(low_degree=[23]), id="dims_value_list"),
            pytest.param(
                "row 0 (progression_free)",
                lambda t: t.update(checks=[{**t["checks"][0], "holds": "yes"}]),
                id="check_holds_string",
            ),
            pytest.param("doubles", lambda t: t["doubles"].__setitem__(-1, 27), id="double_out_of_range"),
            pytest.param("selected_points", lambda t: t.update(selected_points=[-5]), id="negative_selected_point"),
            pytest.param("dims.low_degree", lambda t: t["dims"].update(low_degree="023"), id="dims_not_canonical"),
            pytest.param("claims", lambda t: t.update(claims=[]), id="unknown_top_key"),
            pytest.param(
                "row 0 (progression_free)",
                lambda t: t.update(checks=[{**t["checks"][0], "verified": True}]),
                id="unknown_row_key",
            ),
            pytest.param(
                "conclusion.extra", lambda t: t["conclusion"].update(extra="|A| <= 1"), id="unknown_conclusion_key"
            ),
            pytest.param("witness", lambda t: t.update(witness=[]), id="format_1_witness_terms"),
            # equal in Python, not as JSON
            pytest.param("doubles", lambda t: t["doubles"].__setitem__(0, False), id="false_for_0"),
            pytest.param("matrix_rank", lambda t: t.update(matrix_rank=float(t["matrix_rank"])), id="float_rank"),
            pytest.param("row 0 (progression_free)", lambda t: t["checks"][0].update(holds=1), id="holds_1"),
            # a note that `prove` never writes
            pytest.param(
                "row 3 (selected_size_bound)", lambda t: t["checks"][3].update(note=None), id="null_note"
            ),
            pytest.param(
                "row 2 (witness_unit_on_selected)", lambda t: t["checks"][2].update(note=""), id="empty_note"
            ),
        ],
    )
    def test_verify_compares_derived_fields(self, run, tmp_path, field, edit):
        """A field that verify does not read, forged alone (missing, retyped, out
        of range, or added), changes no derived row: only `recorded_claims`
        fails, naming the field down to its leaf key or row."""
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        edit(env["result"])
        f = tmp_path / "forged.json"
        f.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(f))
        failed = [c for c in env2["result"]["checks"] if not c["holds"]]
        assert code == 1 and [c["name"] for c in failed] == ["recorded_claims"]
        assert failed[0]["note"] == f"recorded {field} differs"

    @pytest.mark.parametrize("key", ["witness_values", "matrix_rank"])
    def test_verify_zero_branch_without_null_claim(self, run, tmp_path, key):
        """Both keys are null on the zero branch. A transcript without one fails
        `recorded_claims` alone: a missing key differs from null, although the
        derivation reads an absent `witness_values` as null."""
        set_file = tmp_path / "point.txt"
        set_file.write_text("p=3 n=3\n0 0 0\n")
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0 and env["result"]["branch"] == "zero_intersection" and env["result"][key] is None
        del env["result"][key]
        f = tmp_path / "dropped.json"
        f.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(f))
        failed = [c for c in env2["result"]["checks"] if not c["holds"]]
        assert code == 1 and [c["name"] for c in failed] == ["recorded_claims"]
        assert failed[0]["note"] == f"recorded {key} differs"

    def test_verify_ignores_key_order(self, run, tmp_path):
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        t = env["result"]
        for key in ("dims", "conclusion"):
            t[key] = dict(reversed(t[key].items()))
        t["checks"][0] = dict(reversed(t["checks"][0].items()))
        f = tmp_path / "reordered.json"
        f.write_text(json.dumps(env))
        code, env2 = run_json(run, "verify-transcript", "--input", str(f))
        assert code == 0 and env2["result"]["valid"] is True

    def test_verify_precision_bounded(self, run, tmp_path):
        """`precision` is a claim and is never evaluated at: a transcript that
        records any value but 30, however large, fails `recorded_claims` alone
        (exit 1), with every derived row evaluated at 30 digits."""
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        assert env["result"]["precision"] == 30
        f = tmp_path / "precise.json"
        for precision in (1, 60, 1000, 20000, 10**100, -30, "30", 30.0, True, None, [30]):
            env["result"]["precision"] = precision
            f.write_text(json.dumps(env))
            code, env2 = run_json(run, "verify-transcript", "--input", str(f))
            failed = [(c["name"], c.get("note")) for c in env2["result"]["checks"] if not c["holds"]]
            assert code == 1 and failed == [("recorded_claims", "recorded precision differs")]


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-10**6, 10**6) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def perturbed(draw, value, path: tuple):
    """`value` with one change of meaning: a leaf changed (in value, or in
    JSON type alone, which Python's == does not see: k to float k, 0 and 1 to
    false and true, and back), an item or key dropped, a list item added (a
    copy of another item or any JSON value), a key added to an object, or
    null replaced by any other JSON value."""
    if value is None:
        return draw(JSON_VALUES.filter(lambda v: v is not None))
    if isinstance(value, bool):
        return draw(st.sampled_from([not value, int(value)]))
    if isinstance(value, int):
        retyped = [float(value)] + [bool(value)] * (value in (0, 1))
        return draw(st.sampled_from(retyped) | st.integers(-30, 30).filter(bool).map(value.__add__))
    if isinstance(value, str):
        return draw(st.text(max_size=12).filter(lambda s: s != value))
    keys = list(range(len(value))) if isinstance(value, list) else list(value)
    actions = ["edit", "drop"] if keys else []
    action = draw(st.sampled_from(actions + ["add"]))
    out = copy.deepcopy(value)
    if action == "add" and isinstance(value, dict):
        out[draw(st.text(max_size=8).filter(lambda k: k not in value))] = draw(JSON_VALUES)
        return out
    if action == "add":
        item = draw(st.sampled_from(value) | JSON_VALUES if value else JSON_VALUES)
        out.insert(draw(st.integers(0, len(value))), item)
        return out
    k = draw(st.sampled_from(keys))
    if action == "drop":
        del out[k]
    else:
        out[k] = perturbed(draw, value[k], path + (k,))
    return out


def verify_from_stdin(payload) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    stdin, sys.stdin = sys.stdin, io.StringIO(json.dumps(payload))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["verify-transcript", "--input", "-", "--format", "json"])
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def transcripts(cap9_search):
    cap = cap9_search.witness.points()
    product = PointSet.from_points(PrimeField(3), 6, [a + b for a in cap for b in cap])
    out = {
        "cap9": prove_size_bound(cap9_search.witness),
        "product_cap": prove_size_bound(product),
        "greedy_f5_3": prove_size_bound(PointSet.from_points(PrimeField(5), 3, GREEDY_F5_N3)),
    }
    assert all(verify_from_stdin(t)[0] == 0 for t in out.values())
    return out


class TestVerifyMutations:
    """Drop, retype or perturb one top-level field of a valid transcript, or add
    a top-level key: the verifier must report valid: false (exit 1) or a usage
    error (exit 2)."""

    @pytest.mark.parametrize("name", ["cap9", "product_cap"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_mutation_never_verifies(self, transcripts, name, data):
        t = copy.deepcopy(transcripts[name])
        key = data.draw(st.sampled_from(sorted(t)), label="field")
        how = data.draw(st.sampled_from(["drop", "retype", "perturb", "add"]), label="mutation")
        if how == "add":
            t[data.draw(st.text(max_size=8).filter(lambda k: k not in t))] = data.draw(JSON_VALUES)
        elif how == "drop":
            del t[key]
        elif how == "retype":
            t[key] = data.draw(JSON_VALUES.filter(lambda v: type(v) is not type(t[key])))
        else:
            t[key] = perturbed(data.draw, t[key], (key,))
        code, out, err = verify_from_stdin(t)
        if code == 2:
            assert out == "" and err.startswith("error: ") and "Traceback" not in err
        else:
            assert code == 1 and json.loads(out)["result"]["valid"] is False


class TestVerifyAgainstSpec:
    """Mutations of the witness values and degree cap of the 9-cap transcript:
    the verifier agrees with the entry-by-entry spec of `oracles`."""

    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_witness_rows_match_spec(self, transcripts, data):
        t = copy.deepcopy(transcripts["cap9"])
        how = data.draw(st.sampled_from(["perturb", "cap", "values", "kernel"]), label="mutation")
        if how == "perturb":
            t["witness_values"] = perturbed(data.draw, t["witness_values"], ("witness_values",))
        elif how == "cap":
            t["degree_cap"] = perturbed(data.draw, t["degree_cap"], ("degree_cap",))
        elif how == "values":
            t["witness_values"] = data.draw(st.lists(st.integers(0, 2), min_size=9, max_size=9))
        else:  # move along V: f stays in L and the unit values move
            basis = oracles.left_kernel_basis(t["doubles"], 3, 3)
            ks = data.draw(st.lists(st.integers(0, 2), min_size=len(basis), max_size=len(basis)))
            moves = (sum(k * v for k, v in zip(ks, col)) for col in zip(*basis))
            t["witness_values"] = [(x + m) % 3 for x, m in zip(t["witness_values"], moves)]
        spec = oracles.transcript_witness_spec(t)
        code, out, err = verify_from_stdin(t)
        if spec is None:
            assert code == 2 and err.startswith("error: ")
            return
        result = json.loads(out)["result"]
        rows = {c["name"]: c for c in result["checks"]}
        assert rows["witness_degree"]["lhs"] == str(spec["degree"])
        assert rows["witness_unit_on_selected"]["holds"] is spec["unit"]
        assert result["valid"] is (spec["in_L"] and spec["unit"])
        assert code == (0 if result["valid"] else 1)


class TestIndependentChecker:
    """`oracles.check_certificate` checks the certificate's five facts with
    numpy alone; `verify-transcript` may refuse more, never less."""

    @pytest.mark.parametrize("name", ["cap9", "product_cap", "f7_1", "greedy_f5_3"])
    def test_accepts_what_prove_writes(self, transcripts, name):
        if name == "f7_1":
            t = prove_size_bound(PointSet.from_points(PrimeField(7), 1, [(0,), (1,), (3,)]))
        else:
            t = transcripts[name]
        assert (t["branch"] == "zero_intersection") == (name == "greedy_f5_3")
        if name == "f7_1":
            assert t["witness_values"] != [1] * 3  # lam is 1 on C' alone
        certified = oracles.check_certificate(t)
        assert certified is not None and "conclusion.exact.bound" in certified

    @pytest.mark.parametrize("fact", [1, 2, 3, 4])
    def test_rejects_a_broken_fact(self, transcripts, fact):
        """Each transcript breaks one fact and records every value the facts fix
        as the checker derives it; verify fails it too, and of its derived
        rows exactly the one that states that fact."""
        if fact == 1:  # a line, proved past the progression check on the zero branch
            line = PointSet.from_points(PrimeField(3), 3, [(0, 0, 0), (1, 0, 0), (2, 0, 0)])
            t = prove_size_bound(line, _skip_progression_check=True)
        else:
            t = copy.deepcopy(transcripts["cap9"])
        if fact == 2:  # a point of C' outside C, which has no half in A
            t["selected_doubles"].append(next(i for i in range(27) if i not in t["doubles"]))
            t["conclusion"]["exact"].update(bound="10")  # h + |C'| = 4 + 6
        elif fact == 3:  # f moves by a multiple of an indicator, of degree 6 > 2s = 4
            k = next(k for k, i in enumerate(t["doubles"]) if i not in t["selected_doubles"])
            t["witness_values"][k] = (t["witness_values"][k] + 1) % 3
        elif fact == 4:  # |C'| = 4 < |C| - h = 5
            t["selected_doubles"].pop()
            points = [tuple(c) for c in t["input"]["points"]]
            t["selected_points"] = sorted(oracles.halves(points, set(t["selected_doubles"]), 3))
            t["conclusion"]["exact"].update(bound="8", holds=False)
        assert oracles.check_certificate(t) is None
        code, out, _ = verify_from_stdin(t)
        derived = json.loads(out)["result"]["checks"][:-1]  # the last row is recorded_claims
        own_row = {1: "progression_free", 2: "witness_unit_on_selected", 3: "witness_degree", 4: "size_bound_exact"}
        assert code == 1 and [c["name"] for c in derived if not c["holds"]] == [own_row[fact]]

    @pytest.mark.parametrize("name", ["cap9", "product_cap", "greedy_f5_3"])
    @settings(max_examples=150, deadline=None)
    @given(data=st.data())
    def test_verify_never_accepts_what_the_checker_rejects(self, transcripts, name, data):
        t = copy.deepcopy(transcripts[name])
        key = data.draw(st.sampled_from(["witness_values", "selected_doubles", "input"]), label="field")
        t[key] = perturbed(data.draw, t[key], (key,))
        code, _, _ = verify_from_stdin(t)
        if oracles.check_certificate(t) is None:
            assert code in (1, 2)


class TestVerifySet:
    def test_valid_cap(self, run, tmp_path):
        f = tmp_path / "cap.txt"
        pts = [(0, 0), (1, 0), (0, 1), (1, 1)]
        f.write_text("p=3 n=2\n" + "".join(f"{x} {y}\n" for x, y in pts))
        code, env = run_json(run, "verify-set", "--input", str(f))
        assert code == 0
        assert env["result"]["progression_free"] is not oracles.has_line(pts)
        assert sorted(env["result"]) == ["n", "p", "progression_free", "size", "witness"]

    def test_line_fails_with_triple(self, run, tmp_path):
        f = tmp_path / "line.txt"
        f.write_text("p=3 n=2\n0 0\n1 0\n2 0\n")
        code, env = run_json(run, "verify-set", "--input", str(f))
        assert code == 1
        assert env["result"]["witness"] is not None

    def test_single_point(self, run, tmp_path):
        f = tmp_path / "single.txt"
        f.write_text("p=5 n=1\n3\n")
        code, env = run_json(run, "verify-set", "--input", str(f))
        assert code == 0 and env["result"]["progression_free"]
        assert sorted(env["result"]) == ["n", "p", "progression_free", "size", "witness"]

    def test_missing_file(self, run):
        code, _, err = run("verify-set", "--input", "/nonexistent/file")
        assert code == 2

    @pytest.mark.parametrize(
        "text", ["p=3 n=2000000\n", '{"p": 3, "n": 2000000, "points": []}'], ids=["text", "json"]
    )
    def test_ambient_too_large(self, run, tmp_path, text):
        f = tmp_path / "huge.txt"
        f.write_text(text)
        code, out, err = run("verify-set", "--input", str(f))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "at most 16777216 points" in err

    def test_duplicate_point_rejected(self, run, tmp_path):
        f = tmp_path / "dup.txt"
        f.write_text("p=3 n=1\n0\n0\n1\n")
        code, out, err = run("verify-set", "--input", str(f))
        assert code == 2 and out == ""
        assert "duplicate point (0,)" in err


class TestEnvelopes:
    """An object with a `command` key is an envelope. `prove` and `verify-set`
    read only the one `search` writes, as its witness, and `verify-transcript`
    only the one `prove` writes, as its transcript; any other envelope is
    refused by name (exit 2)."""

    READS = {"prove": "search", "verify-set": "search", "verify-transcript": "prove"}
    WRITES = {
        "search": ("search", "--p", "3", "--n", "3", "--mode", "greedy"),
        "prove": ("prove", "--input", "cap"),
        "verify-set": ("verify-set", "--input", "cap"),
        "verify-transcript": ("verify-transcript", "--input", "transcript"),
        "bound": ("bound", "--p", "3", "--n-max", "1"),
    }

    @pytest.mark.parametrize("writer", list(WRITES))
    @pytest.mark.parametrize("reader", list(READS))
    def test_only_the_writers_envelope_is_read(self, run, tmp_path, reader, writer):
        files = {"cap": tmp_path / "cap.txt", "transcript": tmp_path / "transcript.json"}
        files["cap"].write_text(_point_text(3, 3, CAP9))
        files["transcript"].write_text(run("prove", "--input", str(files["cap"]), "--format", "json")[1])
        code, envelope = run_json(run, *(str(files.get(arg, arg)) for arg in self.WRITES[writer]))
        assert code == 0 and envelope["command"] == writer
        wrapped = tmp_path / "envelope.json"
        wrapped.write_text(json.dumps(envelope))
        code, out, err = run(reader, "--input", str(wrapped), "--format", "json")
        if writer != self.READS[reader]:
            assert (code, out) == (2, "") and err == (
                f"error: {reader} reads the envelope of {self.READS[reader]} alone, not a '{writer}' envelope\n"
            )
            return
        held = tmp_path / "held.json"
        held.write_text(json.dumps(envelope["result"]["witness"] if writer == "search" else envelope["result"]))
        code_held, out_held, _ = run(reader, "--input", str(held), "--format", "json")
        assert code == code_held == 0 and json.loads(out)["result"] == json.loads(out_held)["result"]


class TestInputRefusals:
    """Input that no reading makes sense of is a usage error: exit 2, one
    `error:` line naming the fault, no output and no traceback."""

    @staticmethod
    def refused(run, tmp_path, command, text, message):
        f = tmp_path / "input"
        f.write_text(text)
        code, out, err = run(command, "--input", str(f), "--format", "json")
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "command, text",
        [
            ("verify-transcript", "[" * 200_000),
            ("verify-set", '{"p": ' + "[" * 200_000),
            ("prove", '{"points": ' + "[" * 200_000),
        ],
        ids=["verify-transcript", "verify-set", "prove"],
    )
    def test_deep_json(self, run, tmp_path, command, text):
        self.refused(run, tmp_path, command, text, "nested too deeply")

    def test_transcript_repeating_a_key(self, run, tmp_path):
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        text = json.dumps(env["result"])
        self.refused(run, tmp_path, "verify-transcript", '{"p": 3, ' + text[1:], "repeats the key 'p'")
        row = json.dumps(env["result"]["checks"][0])
        repeated = text.replace(row, row[:-1] + ', "holds": true}', 1)
        self.refused(run, tmp_path, "verify-transcript", repeated, "repeats the key 'holds'")

    @pytest.mark.parametrize("command", ["verify-set", "prove"])
    def test_point_set_repeating_a_key(self, run, tmp_path, command):
        text = '{"p": 3, "n": 1, "n": 2, "points": [[0, 0]]}'
        self.refused(run, tmp_path, command, text, "repeats the key 'n'")

    @pytest.mark.parametrize("header", ["p=3 n=2 n=3", "p=3 p=5 n=1", "n=1 p=3 p=3"])
    @pytest.mark.parametrize("command", ["verify-set", "prove"])
    def test_header_repeating_p_or_n(self, run, tmp_path, command, header):
        self.refused(run, tmp_path, command, header + "\n0\n", "each once")

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"p": 3, "n": 1, "points": [[0], [1]], "size": 5}', "point set has unknown key 'size'"),
            ("p=3 n=1 size=5\n0\n1\n", "nothing else"),
            ("p=3 n=1 cap\n0\n1\n", "nothing else"),
        ],
        ids=["json_key", "text_key", "text_word"],
    )
    @pytest.mark.parametrize("command", ["verify-set", "prove"])
    def test_point_set_saying_more(self, run, tmp_path, command, text, message):
        """A key or header token beside p, n and the points, such as a size that
        the points contradict, is refused rather than ignored."""
        self.refused(run, tmp_path, command, text, message)

    def test_claim_nested_to_the_decoder_limit(self, run, tmp_path):
        """A claim nested as deep as the decoder reads fails `recorded_claims`
        (exit 1), and one nested deeper is refused (exit 2): comparing it with
        the derived one raises nothing. The decoder's limit depends on the
        Python version and, before 3.12, on the depth of the calling stack, so
        it is found here with `load_json`, and the depths below it scanned: the
        command reads one from deeper in the stack, so its limit is no higher."""

        def reads(depth):
            try:
                sets.load_json("[" * depth + "]" * depth)
            except ValueError:
                return False
            return True

        cap = 2**17
        high = 2
        while high < cap and reads(high):
            high *= 2
        low = high // 2
        if reads(high):
            low = high  # read at the cap: no refusal to reach
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if reads(mid) else (low, mid)
        code, env = prove_searched(run, "--p", "3", "--n", "3")
        text = json.dumps(env["result"])[:-1]
        f = tmp_path / "deep.json"
        codes = set()
        for depth in range(max(1, low - 100), low + 1 + (low < cap)):
            f.write_text(text + ', "extra": ' + "[" * depth + "]" * depth + "}")
            codes.add(run("verify-transcript", "--input", str(f), "--format", "json")[0])
        assert codes == ({1, 2} if low < cap else {1})

    @pytest.mark.parametrize("p, n", [(3, 12), (3, 13), (3, 15), (1447, 1), (1451, 1), (1453, 1)])
    def test_value_table_bound(self, run, tmp_path, p, n):
        """A one-point transcript made to take the main branch: its witness's
        value table is interpolated while p^(n+1) <= VALUE_TABLE_BOUND, and
        the record then fails its checks (exit 1); above that, it is refused
        by name before the table is allocated. F_3^13 and F_1451^1 are above
        it too, but their cut (p-1)n/3 is not an integer, which is refused first."""
        set_file = tmp_path / "point.txt"
        set_file.write_text("p=3 n=3\n0 0 0\n")
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0 and env["result"]["branch"] == "zero_intersection"
        t = env["result"]
        t.update(p=p, n=n, input={"p": p, "n": n, "points": [[0] * n]}, branch="main")
        t.update(doubles=[0], selected_doubles=[0], selected_points=[0], witness_values=[1])
        if p ** (n + 1) <= VALUE_TABLE_BOUND:
            f = tmp_path / "crafted.json"
            f.write_text(json.dumps(t))
            code, env = run_json(run, "verify-transcript", "--input", str(f))
            assert code == 1 and env["result"]["valid"] is False
        elif (p - 1) * n % 3:
            self.refused(run, tmp_path, "verify-transcript", json.dumps(t), "the degree cut (p-1)n/3 needs")
        else:
            self.refused(run, tmp_path, "verify-transcript", json.dumps(t), f"value-table bound {VALUE_TABLE_BOUND}")

    def test_work_bound(self, run, tmp_path):
        """A one-point transcript in F_3^9 whose input is made all 19,683
        points: its 1.9e8 pairs are above PAIR_BOUND, and `verify-transcript`
        refuses it before its pair sweep."""
        set_file = tmp_path / "point.txt"
        set_file.write_text(_point_text(3, 9, [(0,) * 9]))
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0 and env["result"]["branch"] == "zero_intersection"
        t = env["result"]
        t["input"]["points"] = [list(c) for c in PointSet.full(PrimeField(3), 9).points()]
        self.refused(run, tmp_path, "verify-transcript", json.dumps(t), f"above the pair bound {PAIR_BOUND}")

    def test_selection_forged_to_every_index(self, run, tmp_path):
        """A one-point zero-branch transcript in F_7^7 whose `selected_doubles`
        list all 823,543 indices takes the main branch, whose value table is
        above VALUE_TABLE_BOUND. It is refused within 3 s (about 0.2 s on a
        2-CPU host, where building C' bit by bit took 5.5 s): C' is built in
        one pass over its indices. The bound is applied before C' and A' are
        listed, so a second, traced run peaks below 64 MiB (42 MiB, most of it
        the parsed JSON list; listing them first peaked at 105 MiB)."""
        set_file = tmp_path / "point.txt"
        set_file.write_text(_point_text(7, 7, [(0,) * 7]))
        code, env = run_json(run, "prove", "--input", str(set_file))
        assert code == 0 and env["result"]["branch"] == "zero_intersection"
        t = env["result"]
        t["selected_doubles"] = list(range(7**7))
        text = json.dumps(t)
        start = time.perf_counter()
        self.refused(run, tmp_path, "verify-transcript", text, f"value-table bound {VALUE_TABLE_BOUND}")
        assert time.perf_counter() - start < 3.0
        tracemalloc.start()
        try:
            self.refused(run, tmp_path, "verify-transcript", text, f"value-table bound {VALUE_TABLE_BOUND}")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26, peak

    @pytest.mark.parametrize("n, selected", [(3, list(range(10))), (12, [0, 1])], ids=["cap9", "one_point_f3_12"])
    def test_selection_larger_than_input(self, run, tmp_path, n, selected):
        """A Gram selection A' listing more points than the input has, which
        `prove` never writes, fails the record's one claims row: A' is derived
        from C', so this is a check of the record's consistency."""
        if n == 3:
            code, env = prove_searched(run, "--p", "3", "--n", "3")
            t = env["result"]
        else:
            set_file = tmp_path / "point.txt"
            set_file.write_text(_point_text(3, n, [(0,) * n]))
            code, env = run_json(run, "prove", "--input", str(set_file))
            t = env["result"]
            t.update(branch="main", doubles=[0], selected_doubles=[0], witness_values=[1])
            t["dims"]["intersection"] = "1"
        assert code == 0
        t["selected_points"] = selected
        f = tmp_path / "forged.json"
        f.write_text(json.dumps(t))
        code, env = run_json(run, "verify-transcript", "--input", str(f))
        assert code == 1 and env["result"]["valid"] is False
        row = env["result"]["checks"][-1]
        assert (row["name"], row["note"]) == ("recorded_claims", "recorded selected_points differs")


def _modules_after(code: str) -> tuple[int, set[str]]:
    """Exit code and the modules loaded after running `code` in a fresh interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(capbound.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(sorted(sys.modules))"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
        timeout=60,
    )
    return proc.returncode, set(ast.literal_eval(proc.stdout.splitlines()[-1]))


class TestModuleStructure:
    def test_cli_does_not_load_the_references(self, tmp_path):
        f = tmp_path / "cap.txt"
        f.write_text(_point_text(3, 3, CAP9))
        argv = ["prove", "--input", str(f), "--format", "json"]
        code, loaded = _modules_after(f"from capbound import cli; assert cli.main({argv!r}) == 0")
        assert code == 0
        assert "capbound.proof" in loaded and "capbound.reference" not in loaded

    @pytest.mark.parametrize("command", ["prove", "verify-transcript", "verify-set"])
    def test_certificate_commands_do_not_load_the_search(self, run, tmp_path, command):
        """The commands that prove or check a set run the trust base of `sets`
        alone: `capbound.search`, with its fork and pickle, is not loaded."""
        f, t = tmp_path / "cap.txt", tmp_path / "transcript.json"
        f.write_text(_point_text(3, 3, CAP9))
        t.write_text(run("prove", "--input", str(f), "--format", "json")[1])
        argv = [command, "--input", str(t if command == "verify-transcript" else f), "--format", "json"]
        code, loaded = _modules_after(f"from capbound import cli; assert cli.main({argv!r}) == 0")
        assert code == 0
        assert "capbound.sets" in loaded and "capbound.search" not in loaded

    def test_search_loads_the_search_module(self):
        """`search` loads `capbound.search`, and `sets` resolves the two searches
        there, the very functions, for readers that still name them in `sets`."""
        argv = ["search", "--p", "3", "--n", "2", "--format", "json"]
        code, loaded = _modules_after(f"from capbound import cli; assert cli.main({argv!r}) == 0")
        assert code == 0 and "capbound.search" in loaded
        assert sets.max_progression_free is search.max_progression_free
        assert sets.greedy_progression_free is search.greedy_progression_free

    @pytest.mark.parametrize(
        "argv",
        [
            ["dims", "--p", "3", "--n", "4"],
            ["entropy-check", "--p", "5", "--n", "3,6"],
            ["bound", "--p", "7", "--n-max", "3"],
            ["--help"],
            ["entropy-check", "--p", "7", "--n", "1,2,4"],
        ],
    )
    def test_integer_commands_load_no_numpy(self, argv):
        """`dims`, `entropy-check`, `bound` and `--help` run on big integers and
        Decimals; neither numpy nor the certificate and search modules load."""
        code, loaded = _modules_after(f"from capbound import cli; assert cli.main({argv!r}) == 0")
        assert code == 0
        assert not loaded & {
            "numpy",
            "capbound.gf",
            "capbound.sets",
            "capbound.polyspace",
            "capbound.proof",
            "concurrent.futures.process",
        }

    def test_forked_search_imports_no_multiprocessing(self):
        """A budgeted search at two processes in a fresh interpreter, with two
        CPUs reported so that it forks one child on any host: the pinned
        witness, and multiprocessing is not loaded afterwards."""
        argv = ["search", "--p", "3", "--n", "4", "--mode", "exact", "--budget", "300000", "--threads", "2"]
        script = (
            "import os, sys\n"
            "forks, fork = [], os.fork\n"
            "os.fork, os.cpu_count = lambda: forks.append(os.getpid()) or fork(), lambda: 2\n"
            "from capbound import cli\n"
            f"assert cli.main({[*argv, '--format', 'json']!r}) == 0\n"
            "print(len(forks), 'multiprocessing' in sys.modules)\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(capbound.__file__)))
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        out, loaded = proc.stdout.splitlines()
        result = json.loads(out)["result"]
        assert (result["best_size"], _sha256_json(result["witness"])) == PINNED_BUDGETED[("3", "4")]
        assert loaded == "1 False"  # one child forked, and multiprocessing never imported

    def test_package_import_is_lazy(self):
        code, loaded = _modules_after("import capbound")
        assert code == 0 and {m for m in loaded if m.startswith("capbound.")} == set()
        for name in capbound.__all__:
            assert getattr(capbound, name) is getattr(sys.modules[f"capbound.{capbound._EXPORTS[name]}"], name)
        with pytest.raises(AttributeError):
            capbound.no_such_name

    def test_oracles_import_only_the_field(self):
        """tests/oracles.py reaches production code only through PrimeField,
        so that a fault elsewhere cannot hide in its answers."""
        with open(oracles.__file__, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        names = []
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                assert not any(a.name.split(".")[0] == "capbound" for a in node.names)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "capbound":
                names += [a.name for a in node.names]
        assert sorted(names) == ["PrimeField"]

    def test_certificate_modules_hold_only_what_the_cli_runs(self, run, tmp_path):
        """Every function and method defined in `gf`, `polyspace` and `proof` is
        entered by in-process CLI calls: `prove` on the 9-cap and on the
        81-point product cap (main branch) and on a greedy set in F_3^6 (zero
        branch), `verify-transcript` on each transcript, and on the 9-cap's
        transcript forged to a zero on the Gram diagonal (exit 1). A function
        is matched by its code object's first line, that of its first
        decorator if it has one. The memoised tables of those modules are
        emptied first, so that their builders run here."""
        from capbound import gf, polyspace, proof

        modules = (gf, polyspace, proof)
        for value in [v for m in modules for v in vars(m).values()]:
            getattr(value, "cache_clear", lambda: None)()
        defined = set()
        for m in modules:
            with open(m.__file__, encoding="utf-8") as fh:
                tree = ast.parse(fh.read())
            defined |= {
                (m.__file__, (node.decorator_list or [node])[0].lineno, node.name)
                for node in ast.walk(tree)
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            }
        inputs = {"cap9": _point_text(3, 3, CAP9), "product_cap": TRANSCRIPT_INPUTS["product_cap"]}
        for name, text in inputs.items():
            (tmp_path / f"{name}.txt").write_text(text)
        entered = set()

        def hook(frame, event, arg):
            if event == "call":
                entered.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))

        proved = {}
        previous = sys.getprofile()
        sys.setprofile(hook)
        try:
            for name in inputs:
                proved[name] = run("prove", "--input", str(tmp_path / f"{name}.txt"), "--format", "json")
            (tmp_path / "greedy.txt").write_text(run("search", "--p", "3", "--n", "6", "--mode", "greedy")[1])
            proved["greedy"] = run("prove", "--input", str(tmp_path / "greedy.txt"), "--format", "json")
            verified = []
            for name, (_, out, _) in proved.items():
                (tmp_path / f"{name}.json").write_text(out)
                verified.append(run_json(run, "verify-transcript", "--input", str(tmp_path / f"{name}.json")))
            forged = json.loads(proved["cap9"][1])
            t = forged["result"]  # a zero on a selected double: a zero on the Gram diagonal
            t["witness_values"][t["doubles"].index(t["selected_doubles"][0])] = 0
            (tmp_path / "forged.json").write_text(json.dumps(forged))
            forged_code, forged_env = run_json(run, "verify-transcript", "--input", str(tmp_path / "forged.json"))
        finally:
            sys.setprofile(previous)
        branches = [json.loads(out)["result"]["branch"] for _, out, _ in proved.values()]
        assert [code for code, _, _ in proved.values()] == [0, 0, 0]
        assert branches == ["main", "main", "zero_intersection"]
        assert [code for code, _ in verified] == [0, 0, 0]
        rows = {row["name"]: row for row in forged_env["result"]["checks"]}
        assert forged_code == 1 and not rows["witness_unit_on_selected"]["holds"]
        missed = sorted(f"{os.path.basename(f)}:{line} {name}" for f, line, name in defined if (f, line) not in entered)
        assert missed == []


class TestUsage:
    def test_no_command(self, run):
        code, _, _ = run()
        assert code == 2

    def test_unknown_command(self, run):
        code, _, _ = run("frobnicate")
        assert code == 2

    def test_default_format_is_json_when_redirected(self, run):
        # pytest capture is not a tty, so the auto format must pick JSON
        code, out, _ = run("bound", "--p", "3", "--n-max", "1")
        assert code == 0
        assert json.loads(out)["command"] == "bound"

    def test_module_entry_point(self):
        src = os.path.dirname(os.path.dirname(os.path.abspath(capbound.__file__)))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "capbound.cli", "dims", "--p", "3", "--n", "3", "--format", "json"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
            timeout=60,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["ambient"] == "27"


class TestOneProcess:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_print_what_a_fresh_interpreter_prints(self, run, tmp_path):
        """The parser is shared by every `main` call in a process: a sequence of
        calls, one of which is a usage error, must each print what they print
        in a fresh interpreter."""
        f = tmp_path / "set.txt"
        f.write_text(TRANSCRIPT_INPUTS["zero_branch"])
        calls = [
            ("search", "--p", "3", "--n", "2", "--format", "json"),
            ("dims", "--p", "5", "--n", "4", "--format", "json"),
            ("dims", "--p", "3", "--format", "json"),
            ("search", "--p", "3", "--n", "2", "--threads", "2", "--format", "json"),
            ("prove", "--input", str(f), "--format", "json"),
            ("search", "--p", "3", "--n", "2", "--format", "json"),
        ]
        src = os.path.dirname(os.path.dirname(os.path.abspath(capbound.__file__)))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        codes = []
        for argv in calls:
            fresh = subprocess.run(
                [sys.executable, "-m", "capbound.cli", *argv], capture_output=True, text=True, env=env, timeout=60
            )
            code, out, err = run(*argv)
            assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr)
            codes.append(code)
            if code != 2:
                assert_written_by_json_dumps(out)
        assert codes == [0, 0, 2, 0, 0, 0]
