"""Shared test set-up.

The hypothesis profile: property tests run whole-lattice checks, so the
per-example deadline is disabled globally and example counts stay moderate.

OC_BUDGET is cleared for every test, so a value exported in the caller's shell
changes neither in-process budgets nor those of the CLI children, which inherit
the environment; the budget tests set it themselves.

planted_lem2_3 is a suite function with a known violation; the tests put it
in place of lem2_3's, so the failure-reporting path runs on a case that must
fail.
"""

import pytest
from hypothesis import HealthCheck, settings

from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import suites as SU

settings.register_profile(
    "ordercraft",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ordercraft")


@pytest.fixture(autouse=True)
def _no_ambient_budget(monkeypatch):
    monkeypatch.delenv("OC_BUDGET", raising=False)


@pytest.fixture
def planted_lem2_3():
    """A lem2_3 suite function whose every trial checks a descending row on
    chain(4): it violates the order conditions, so each trial must fail and
    surface its bundle."""
    def planted(rng, max_n):
        host, row = P.chain(4), [3, 2, 1]
        table = [row[i] if j == F.OMEGA else host.meet(row[i], row[j])
                 for (i, j) in F.delta_coords(len(row) - 1)]
        report = SU.check_delta_map(host, table, len(row) - 1)
        return (report.all_equivalent and report.conditions_hold,
                {"host": host, "row": row, "conditions": report.conditions})

    return planted
