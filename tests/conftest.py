import sys

import pytest

from dvrstat import oracle
from dvrstat.dvrmod import partitions_of


def partitions_upto(total):
    """All partitions (weakly decreasing tuples) with sum <= total, () first."""
    return [lam for m in range(total + 1) for lam in partitions_of(m)]


@pytest.fixture(autouse=True)
def _no_kept_realizations():
    """Start each test with no module kept by `oracle.realize`, so counts
    of the work done on a realized module do not depend on test order."""
    oracle._realize_cached.cache_clear()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the per-criterion acceptance lines after the run."""
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "LINES", None) if mod else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
