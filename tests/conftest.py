import os
import re
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from capbound.gf import PrimeField
from capbound.search import max_progression_free

CRITERIA = {
    1: "headline constant: base 3^c(3) in [2.835, 2.845], < 0.1 s",
    2: "low-third dimension bound exact for p in {3,5,7,11}, n in 3..30",
    3: "duality identity for all d, p in {3,5,7}, n <= 8",
    4: "evaluate/interpolate round-trip, 100 random vectors per (p, n)",
    5: "rank bound and factorization on 200 random instances",
    6: "extremal search matches the exhaustive oracle",
    7: "end-to-end transcript on a maximum 9-cap",
    8: "negative control: refusal, and failure inside the diagonal certificate",
    9: "search results consistent with computed bounds",
}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(criterion): acceptance-criterion test"
    )


@pytest.fixture(autouse=True)
def no_worker_outlives_its_test():
    """Every search has ended and reaped its worker processes when it returns:
    where `os.fork` exists, the test process has no child left, running or not."""
    yield
    if hasattr(os, "fork"):
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


@pytest.fixture(scope="session")
def field3():
    return PrimeField(3)


@pytest.fixture(scope="session")
def field5():
    return PrimeField(5)


@pytest.fixture(scope="session")
def cap9_search(field3):
    """Exhaustive maximum search over F_3^3, shared across the suite."""
    return max_progression_free(field3, 3)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    seen = {}
    for status in ("passed", "failed", "error"):
        for report in terminalreporter.stats.get(status, []):
            nodeid = getattr(report, "nodeid", "")
            m = re.search(r"test_acceptance\.py::test_criterion_(\d+)", nodeid)
            if m:
                k = int(m.group(1))
                seen[k] = status if seen.get(k) != "failed" else "failed"
    if not seen:
        return
    terminalreporter.section("acceptance criteria")
    for k in sorted(seen):
        verdict = "PASS" if seen[k] == "passed" else "FAIL"
        terminalreporter.write_line(f"criterion {k}: {verdict} - {CRITERIA.get(k, '')}")
