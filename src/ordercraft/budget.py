"""Budget defaults, overridable through the OC_BUDGET environment variable."""

import os

ENUM_BUDGET = 10 ** 6     # produced elements (downset enumeration and closures)
SEARCH_BUDGET = 10 ** 7   # visited nodes (isomorphism / embedding / subset search)


def limit(default):
    """The budget for one operation: OC_BUDGET when set, else the module
    default. A set OC_BUDGET that is not a positive integer raises
    ValueError. Read once when the operation starts."""
    raw = os.environ.get("OC_BUDGET")
    if raw is None:
        return default
    if raw.strip().isdecimal() and int(raw) > 0:
        return int(raw)
    raise ValueError(f"OC_BUDGET must be a positive integer, got {raw!r}")
