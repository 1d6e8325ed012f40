"""Budget defaults, overridable through the OC_BUDGET environment variable."""

import os

ENUM_BUDGET = 10 ** 6     # produced elements (downset enumeration and closures)
SEARCH_BUDGET = 10 ** 7   # visited nodes (isomorphism / embedding / subset search)


def resolve(explicit, default):
    """Pick the budget for one operation.

    Explicit arguments win; otherwise OC_BUDGET, when set, overrides the
    module default. A set OC_BUDGET that is not a positive integer raises
    ValueError.
    """
    if explicit is not None:
        return explicit
    raw = os.environ.get("OC_BUDGET")
    if raw is None:
        return default
    if raw.strip().isdecimal() and int(raw) > 0:
        return int(raw)
    raise ValueError(f"OC_BUDGET must be a positive integer, got {raw!r}")
