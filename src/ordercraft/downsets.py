"""Downsets, ideals, and the downset-lattice constructions.

Downsets are stored as frozensets plus a bitmask; families are kept in the
canonical (size, member-lexicographic) order so every derived lattice is
byte-for-byte reproducible.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from . import budget as _budget
from . import poset as _poset
from .errors import BudgetExceeded
from .poset import Poset


@dataclass(frozen=True)
class DownSet:
    host: Poset
    members: frozenset

    def __post_init__(self):
        n, down = self.host.n, self.host.down
        mask = 0
        for x in self.members:
            if not (0 <= x < n):
                raise ValueError(f"element {x} outside host")
            mask |= 1 << x
        for x in self.members:
            if down[x] & ~mask:
                raise ValueError(f"not downward closed at {x}")
        object.__setattr__(self, "_mask", mask)

    @property
    def mask(self) -> int:
        return self._mask  # type: ignore[attr-defined]

    def sorted_members(self):
        return tuple(sorted(self.members))


def principal(host: Poset, x: int) -> DownSet:
    """down(x), the least downset containing x, read off its cone."""
    if not (0 <= x < host.n):
        raise ValueError(f"element {x} outside host")
    return _from_mask(host, host.down_incl(x))


def _from_mask(host: Poset, mask: int) -> DownSet:
    return DownSet(host, frozenset(_poset.bits(mask)))


@dataclass(frozen=True)
class DownSetFamily:
    host: Poset
    sets: tuple
    role: str   # all | ideals

    def __post_init__(self):
        masks = set()
        for d in self.sets:
            if d.host is not self.host and d.host != self.host:
                raise ValueError("family members must share the host")
            if d.mask in masks:
                raise ValueError("duplicate downset in family")
            masks.add(d.mask)

    def to_json_dict(self) -> dict:
        return {
            "host": _poset.to_json_dict(self.host),
            "sets": [list(d.sorted_members()) for d in self.sets],
            "role": self.role,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


def canonical_sort(sets) -> tuple:
    return tuple(sorted(sets, key=lambda d: (len(d.members), d.sorted_members())))


def _downset_masks(p: Poset) -> list:
    """Masks of all downsets, each exactly once, in canonical order.

    Grows downsets by adding minimal elements of the complement; the budget
    counts produced downsets and exceeding it raises rather than truncating.

    Each mask D is sorted by the int (|D| << n) - mirror(D), where mirror(D)
    holds bit n-1-x for each x in D. Between two sets of one size, the one
    holding the least element where they differ comes first in the (size,
    sorted members) order, and it has the larger mirror. Adding e to D adds
    (1 << n) - (1 << (n-1-e)) to the key.
    """
    limit = _budget.limit(_budget.ENUM_BUDGET)
    n, down = p.n, p.down
    full = (1 << n) - 1
    step = [(1 << n) - (1 << (n - 1 - e)) for e in range(n)]
    key = {0: 0}
    frontier = [0]
    while frontier:
        nxt = []
        for mask in frontier:
            base = key[mask]
            free = full & ~mask
            while free:
                low = free & -free
                free ^= low
                e = low.bit_length() - 1
                if down[e] & ~mask == 0:
                    m2 = mask | low
                    if m2 not in key:
                        key[m2] = base + step[e]
                        if len(key) > limit:
                            raise BudgetExceeded(
                                f"more than {limit} downsets")
                        nxt.append(m2)
        frontier = nxt
    return sorted(key, key=key.__getitem__)


def enumerate_downsets(p: Poset) -> DownSetFamily:
    """All downsets, each exactly once, in canonical order (see
    _downset_masks for the budget)."""
    # built from a list: tuple() over a generator resizes the tuple as it
    # grows, which cost about 0.5 MB of peak RSS on perfbench's suite_oracles
    sets = tuple([_from_mask(p, m) for m in _downset_masks(p)])
    return DownSetFamily(p, sets, "all")


def principal_ideals(p: Poset) -> DownSetFamily:
    """The principal downsets down(x), in canonical order: the ideals of a
    finite poset, from the n cones with no enumeration of the downsets.
    suites.enumerate_ideals, by the definition, is the oracle for this."""
    return DownSetFamily(p, canonical_sort(_from_mask(p, p.down_incl(x))
                                           for x in range(p.n)), "ideals")


def nonempty_downset_lattice(p: Poset):
    """(masks, lattice): the nonempty downsets of p in canonical order, and
    the poset of them ordered by inclusion with set labels, the source of
    the f-vee lift. Built once per Poset and budget, and cached on the
    Poset keyed by the budget in force when it was built."""
    limit = _budget.limit(_budget.ENUM_BUDGET)
    if p._nonempty is None or p._nonempty[0] != limit:
        masks = tuple(_downset_masks(p)[1:])  # the empty set is first
        p._nonempty = limit, (masks, _poset.inclusion_order(
            masks, lambda: _poset.set_labels(masks)))
    return p._nonempty[1]


def downset_lattice(p: Poset) -> Poset:
    """All downsets of p ordered by inclusion, in canonical family order.

    Joins are unions and meets are intersections, so the result is a
    distributive lattice by construction: set_lattice raises unless the
    masks are exactly the downsets of p, and downsets are closed under both
    operations. Full identity checks live in the tests and the suites.
    """
    masks = _downset_masks(p)
    return _poset.set_lattice(p, masks, lambda: _poset.set_labels(masks))

