"""Finite posets on dense indices 0..n-1.

The strict order is stored in reachability form: ``up[i]`` is the bitmask of
elements strictly above i. Bitmasks are plain Python ints, which keeps the
pair operations (subset tests, common-upper-bound masks) single machine ops
even for posets with a few thousand elements.
"""

from __future__ import annotations

import heapq
import json
from operator import itemgetter
from typing import Iterable, Optional, Sequence

from . import budget as _budget
from .errors import (
    ArityMismatch,
    BudgetExceeded,
    CyclicRelation,
    IndexOutOfRange,
)

JSON_VERSION = 1


class Poset:
    """Immutable finite poset. Use :func:`build` or the combinators below."""

    __slots__ = ("n", "up", "down", "_labels", "_covers", "_join", "_meet",
                 "_linext", "_birkhoff", "_few_covers", "_nonempty")

    def __init__(self, n: int, up: Sequence[int], labels=None, down=None):
        # `up` is trusted to be irreflexive and transitive (build() validates);
        # `down`, when given, is trusted to be its transpose: only this
        # module's constructors pass it, and validate() checks it. `labels`
        # may also be a zero-argument source of the list, which only this
        # package's constructors pass; it is built and checked on first read.
        self.n = n
        self.up = tuple(up)
        if down is None:
            down = [0] * n
            # inline bit loop: a bits() generator here cost +29% per construction
            for i in range(n):
                m = self.up[i]
                while m:
                    low = m & -m
                    down[low.bit_length() - 1] |= 1 << i
                    m ^= low
        self.down = tuple(down)
        self._labels = labels
        if labels is not None and not callable(labels):
            self._labels = lambda: labels
            self._label_tuple()  # a caller's list is checked here
        self._covers = None
        self._join = None
        self._meet = None
        self._linext = None
        self._birkhoff = None  # birkhoff() or set_lattice fills it: (coords, index) or False
        self._few_covers = None  # at_most_one_cover fills it, by direction
        self._nonempty = None  # downsets.nonempty_downset_lattice fills it: (budget, answer)

    # -- basic queries -----------------------------------------------------

    def leq(self, i: int, j: int) -> bool:
        return i == j or (self.up[i] >> j) & 1 == 1

    def lt(self, i: int, j: int) -> bool:
        return (self.up[i] >> j) & 1 == 1

    def incomparable(self, i: int, j: int) -> bool:
        return i != j and not self.lt(i, j) and not self.lt(j, i)

    def up_incl(self, i: int) -> int:
        return self.up[i] | (1 << i)

    def down_incl(self, i: int) -> int:
        return self.down[i] | (1 << i)

    def _label_tuple(self):
        """The checked labels tuple, or None; a label source is built here,
        the first time anything reads the labels."""
        labels = self._labels
        if callable(labels):
            labels = tuple(str(x) for x in labels())
            if len(labels) != self.n:
                raise ArityMismatch(f"expected {self.n} labels, got {len(labels)}")
            self._labels = labels
        return labels

    @property
    def labels(self):
        return self._label_tuple() or tuple(str(i) for i in range(self.n))

    def label(self, i: int) -> str:
        labels = self._label_tuple()
        return labels[i] if labels is not None else str(i)

    def __eq__(self, other):
        return (
            isinstance(other, Poset)
            and self.n == other.n
            and self.up == other.up
            and self._label_tuple() == other._label_tuple()
        )

    def __hash__(self):
        return hash((self.n, self.up, self._label_tuple()))

    def __repr__(self):
        return f"Poset(n={self.n}, covers={self.cover_pairs()})"

    # -- covers ------------------------------------------------------------

    def cover_pairs(self):
        """Hasse diagram as sorted (lower, upper) pairs (transitive reduction).

        By descent: m holds the elements above i that are above no cover
        found yet. From its lowest index, step down inside m to a minimal
        element, which is a cover of i, then drop that cover's up-set from m.
        Each step visits a new element of up[i]; when index order is a linear
        extension the lowest index is already minimal, so the cost is one
        mask operation per cover.
        """
        if self._covers is None:
            up, down = self.up, self.down
            covers = []
            for i in range(self.n):
                m = up[i]
                while m:
                    j = (m & -m).bit_length() - 1
                    below = down[j] & m
                    while below:
                        j = (below & -below).bit_length() - 1
                        below = down[j] & m
                    covers.append((i, j))
                    m &= ~(up[j] | 1 << j)
            self._covers = tuple(sorted(covers))
        return self._covers

    # -- extremes, chains, antichains ---------------------------------------

    def minimals(self):
        return [i for i in range(self.n) if self.down[i] == 0]

    def maximals(self):
        return [i for i in range(self.n) if self.up[i] == 0]

    def bottom(self) -> Optional[int]:
        """The least element, or None."""
        mins = self.minimals()
        if len(mins) == 1 and self.up_incl(mins[0]) == (1 << self.n) - 1:
            return mins[0]
        return None

    def linear_extension(self):
        """Repeated removal of the smallest-index minimal element: _kahn over
        the upper-cover masks. The removed elements always form a downset, so
        an element is minimal among the rest once its lower covers are
        removed."""
        if self._linext is None:
            upper = [0] * self.n
            for a, b in self.cover_pairs():
                upper[a] |= 1 << b
            self._linext = tuple(_kahn(upper))
        return list(self._linext)

    def heights(self):
        """Per element, the number of covers on a longest chain down from it
        (0 at a minimal element), along the lower covers in linear-extension
        order."""
        below = [[] for _ in range(self.n)]
        for i, j in self.cover_pairs():
            below[j].append(i)
        h = [0] * self.n
        for j in self.linear_extension():
            h[j] = max([h[i] + 1 for i in below[j]], default=0)
        return h

    def height(self) -> int:
        """Number of elements in a longest chain."""
        return max(self.heights(), default=-1) + 1

    def width(self) -> int:
        """Largest antichain size, n minus a maximum matching of the strict
        comparabilities (Dilworth; Fulkerson): left copy i, right copy j, an
        edge when i < j.

        Kuhn's augmenting paths over the up masks, iterative, with one seen
        mask per search; a visited node is one right vertex claimed.
        """
        limit = _budget.limit(_budget.SEARCH_BUDGET)
        up = self.up
        owner = [-1] * self.n      # right vertex -> matched left vertex
        matched = 0
        visited = 0
        for root in range(self.n):
            seen = 0
            lefts = [root]         # left vertices along the current path
            rights = []            # rights[k]: the right vertex lefts[k] claimed
            while lefts:
                free = up[lefts[-1]] & ~seen
                if not free:
                    lefts.pop()
                    if rights:
                        rights.pop()
                    continue
                low = free & -free
                seen |= low
                visited += 1
                if visited > limit:
                    raise BudgetExceeded(f"antichain search visited more than {limit} nodes")
                j = low.bit_length() - 1
                rights.append(j)
                if owner[j] < 0:
                    for left, right in zip(lefts, rights):
                        owner[right] = left
                    matched += 1
                    break
                lefts.append(owner[j])
        return self.n - matched

    def basic_stats(self) -> dict:
        return {
            "minimals": self.minimals(),
            "maximals": self.maximals(),
            "height": self.height(),
            "width": self.width(),
            "linear_extension": self.linear_extension(),
        }

    # -- joins and meets -----------------------------------------------------

    def join_table(self):
        """n*n table of binary joins, or None where a pair has no join;
        row tuples in a tuple, built once and shared by every caller."""
        if self._join is None:
            self._join = self._bound_table(upward=True)
        return self._join

    def meet_table(self):
        if self._meet is None:
            self._meet = self._bound_table(upward=False)
        return self._meet

    def _bound_table(self, upward: bool):
        if self.birkhoff() is not None:
            return self._set_table(upward)
        n = self.n
        incl = [(self.up[i] if upward else self.down[i]) | (1 << i) for i in range(n)]
        by_cone = {incl[i]: i for i in range(n)}
        table = [[None] * n for _ in range(n)]
        for i in range(n):
            row = table[i]
            for j in range(i, n):
                common = incl[i] & incl[j]
                k = by_cone.get(common)
                row[j] = k
                table[j][i] = k
            table[i] = tuple(row)  # earlier rows filled its first i entries
        return tuple(table)

    def _set_table(self, upward: bool):
        """Join (meet) table from the Birkhoff coordinates, built row by row
        along the covers. A cover d < a adds one element e to the
        coordinates, so a v b = (d v b) + e and d ^ b = (a ^ b) - e: the join
        row of a is the row of d mapped by step[e], the identity with d -> a
        on every cover labelled e, and the meet row of d is the row of a
        mapped by the identity with a -> d. Rows run in linear-extension
        order, joins up from the identity row of the bottom and meets down
        from that of the top, so each row's source is already built. Each
        row is one itemgetter gather, a tuple (rows are gathered only when
        n >= 2, so never a scalar)."""
        n, coords = self.n, self.birkhoff()[0]
        if n == 0:
            return ()  # no row to start from
        ident = list(range(n))
        steps = {}
        source = [0] * n   # row -> the row it is mapped from
        label = [0] * n    # row -> the coordinate difference e of that cover
        for d, a in self.cover_pairs():
            e = coords[a] ^ coords[d]
            step = steps.get(e)
            if step is None:
                step = steps[e] = ident.copy()
            if upward:
                step[d], source[a], label[a] = a, d, e
            else:
                step[a], source[d], label[d] = d, a, e
        rows = self.linear_extension()
        if not upward:
            rows.reverse()
        table = [None] * n
        table[rows[0]] = tuple(ident)
        for r in rows[1:]:
            table[r] = itemgetter(*table[source[r]])(steps[label[r]])
        return tuple(table)

    def birkhoff(self):
        """Birkhoff coordinates (coords, index) when this is a distributive
        lattice, else None; computed once per Poset. The empty poset has
        coordinates ((), {}). This is the package's one distributivity test.

        A finite distributive lattice is the lattice of downsets of its
        join-irreducibles J, the elements with exactly one lower cover,
        through x -> coords[x] = down_incl(x) & J (Birkhoff 1937); index maps
        each coords[x] back to x. set_lattice hands over its own masks as
        coordinates; any other poset runs _birkhoff_coordinates.
        """
        if self._birkhoff is None:
            self._birkhoff = _birkhoff_coordinates(self) or False
        return self._birkhoff or None

    def join(self, i: int, j: int) -> Optional[int]:
        """i v j, or None: read off the join table once it is built, else a
        union of coordinates when the poset has them, else the table, built."""
        if self._join is None and (coords := self.birkhoff()):
            c, index = coords
            return index[c[i] | c[j]]
        return (self._join or self.join_table())[i][j]

    def meet(self, i: int, j: int) -> Optional[int]:
        if self._meet is None and (coords := self.birkhoff()):
            c, index = coords
            return index[c[i] & c[j]]
        return (self._meet or self.meet_table())[i][j]

    def joins(self, i: int, others) -> list:
        """[join(i, j) for j in others], one row at a time."""
        if self._join is None and (coords := self.birkhoff()):
            c, index = coords
            ci = c[i]
            return [index[ci | c[j]] for j in others]
        row = (self._join or self.join_table())[i]
        return [row[j] for j in others]

    def meets(self, i: int, others) -> list:
        if self._meet is None and (coords := self.birkhoff()):
            c, index = coords
            ci = c[i]
            return [index[ci & c[j]] for j in others]
        row = (self._meet or self.meet_table())[i]
        return [row[j] for j in others]


def _birkhoff_coordinates(p: Poset):
    """(coords, index) of Poset.birkhoff, or None.

    J is read off the cones by at_most_one_cover, so the test needs no
    covers. With c(x) = down_incl(x) & J, p passes when c is injective and
    takes the value 0, and each downset c(x) + {j} of J, one element larger,
    is some c(y) with x < y. Then c is onto the downsets of J, each reached
    from 0 one element at a time, and c(x) inside c(y) forces x <= y along
    such steps, so c is an order isomorphism. A distributive lattice passes
    by Birkhoff's theorem. O(n |J|) mask operations.
    """
    down, n = p.down, p.n
    j_mask = sum(1 << x for x in at_most_one_cover(p) if down[x])
    coords = tuple([(d | 1 << x) & j_mask for x, d in enumerate(down)])
    index = {c: x for x, c in enumerate(coords)}
    # the empty poset, on which every lattice law holds vacuously, has no 0
    if len(index) != n or n and 0 not in index:
        return None
    # c(x) + {j} is a downset of J when c(x) & (strict down(j) + j) is
    # exactly strict down(j)
    below = [(down[j] & j_mask, (down[j] | 1 << j) & j_mask) for j in bits(j_mask)]
    for x, c in enumerate(coords):
        above = p.up[x]
        for strict, incl in below:
            if c & incl == strict:
                y = index.get(c | incl)
                if y is None or not (above >> y) & 1:
                    return None
    return coords, index


def at_most_one_cover(p: Poset, upward: bool = True) -> tuple:
    """The elements with at most one lower cover (upper cover when not
    upward), read off the cones without the covers: x has exactly one lower
    cover y when its strict down-set is down_incl(y). Once per Poset."""
    few = p._few_covers
    if few is None:
        few = p._few_covers = {}
    if upward not in few:
        cones = p.down if upward else p.up
        closed = {m | 1 << x for x, m in enumerate(cones)}
        few[upward] = tuple(x for x, m in enumerate(cones) if not m or m in closed)
    return few[upward]


# -- constructors -----------------------------------------------------------


def bits(mask: int):
    """Indices of the set bits of mask, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def set_labels(masks) -> list:
    """The label "{a,b}" of each mask: its set bits, lowest first."""
    return ["{" + ",".join(map(str, bits(m))) + "}" for m in masks]


def _kahn(succ: list) -> list:
    """The topological order of the relation given by successor masks that
    always takes the smallest-index element left with no predecessor (Kahn,
    with a min-heap); leftovers mean a cycle. The bit loops stay inline: a
    bits() generator here cost +27% per build."""
    n = len(succ)
    indeg = [0] * n
    for a in range(n):
        m = succ[a]
        while m:
            low = m & -m
            indeg[low.bit_length() - 1] += 1
            m ^= low
    heap = [i for i in range(n) if indeg[i] == 0]  # sorted: a heap
    topo = []
    while heap:
        v = heapq.heappop(heap)
        topo.append(v)
        m = succ[v]
        while m:
            low = m & -m
            w = low.bit_length() - 1
            indeg[w] -= 1
            if indeg[w] == 0:
                heapq.heappush(heap, w)
            m ^= low
    if len(topo) != n:
        raise CyclicRelation("relation contains a directed cycle")
    return topo


def build(n: int, kind: str, pairs: Iterable[tuple], labels=None) -> Poset:
    """Build a poset from cover pairs or from (not necessarily closed) leq pairs.

    Raises CyclicRelation when the pairs admit a directed cycle,
    IndexOutOfRange on indices outside 0..n-1, and BudgetExceeded, before
    anything is allocated, when n is over the enumeration budget.
    """
    if kind not in ("covers", "leq"):
        raise ValueError(f"kind must be 'covers' or 'leq', got {kind!r}")
    limit = _budget.limit(_budget.ENUM_BUDGET)
    if n > limit:
        raise BudgetExceeded(f"poset of {n} elements, more than {limit}")
    succ = [0] * n
    pred = [0] * n
    backward = False
    for a, b in pairs:
        if not (0 <= a < n and 0 <= b < n):
            raise IndexOutOfRange(f"pair ({a},{b}) outside 0..{n - 1}")
        if a >= b:
            if a == b:
                raise CyclicRelation(f"reflexive pair ({a},{a}) in strict relation")
            backward = True
        succ[a] |= 1 << b
        pred[b] |= 1 << a

    # when every pair goes forward, index order is a topological order
    topo = _kahn(succ) if backward else range(n)
    up = [0] * n
    for v in reversed(topo):
        m = succ[v]
        reach = m
        while m:
            low = m & -m
            reach |= up[low.bit_length() - 1]
            m ^= low
        up[v] = reach
    down = [0] * n
    for v in topo:
        m = pred[v]
        reach = m
        while m:
            low = m & -m
            reach |= down[low.bit_length() - 1]
            m ^= low
        down[v] = reach
    return Poset(n, up, labels, down)


def chain(n: int) -> Poset:
    return build(n, "covers", [(i, i + 1) for i in range(n - 1)])


def antichain(n: int) -> Poset:
    return build(n, "covers", [])


def dual(p: Poset) -> Poset:
    return Poset(p.n, p.down, p._labels, p.up)


def direct_product(a: Poset, b: Poset) -> Poset:
    """Product order on pairs; index encoding i_a * |b| + i_b."""
    n = a.n * b.n
    up = [0] * n
    for ia in range(a.n):
        for ib in range(b.n):
            i = ia * b.n + ib
            mask = 0
            for ja in bits(a.up_incl(ia)):
                mask |= b.up_incl(ib) << (ja * b.n)
            up[i] = mask & ~(1 << i)
    return Poset(n, up, lambda: [f"({a.label(ia)},{b.label(ib)})"
                                 for ia in range(a.n) for ib in range(b.n)])


def direct_sum(a: Poset, b: Poset) -> Poset:
    """Disjoint union with no cross comparabilities; b shifted by |a|."""
    n = a.n + b.n
    up = list(a.up) + [m << a.n for m in b.up]
    down = list(a.down) + [m << a.n for m in b.down]
    return Poset(n, up, lambda: [f"L{a.label(i)}" for i in range(a.n)]
                 + [f"R{b.label(i)}" for i in range(b.n)], down)


def add_bottom(p: Poset, label: str = "0") -> Poset:
    """New least element appended at index |p| below everything."""
    n = p.n
    up = list(p.up) + [(1 << n) - 1]
    down = [m | 1 << n for m in p.down] + [0]
    labels = list(p.labels) + [label]
    return Poset(n + 1, up, labels, down)


def induced(p: Poset, elements: Sequence[int]) -> Poset:
    """Subposet on the given elements, in the given order, with the host's
    labels. The elements split into maximal runs of consecutive host
    indices; each row moves one block of its cone per run the cone meets,
    at most one step per selected bit."""
    # a tuple keeps the order given, even if the caller changes elements later
    elements = tuple(elements)
    if len(set(elements)) != len(elements):
        raise ValueError("induced subposet elements must be distinct")
    # run_of[e]: (a, 2^w - 1, b) for e's run of w from host index a to b
    run_of, selected, start = {}, 0, 0
    for b in range(1, len(elements) + 1):
        if b == len(elements) or elements[b] != elements[b - 1] + 1:
            run = (elements[start], (1 << (b - start)) - 1, start)
            for e in elements[start:b]:
                run_of[e] = run
            selected |= run[1] << run[0]
            start = b
    # written out for up and for down: a loop over the pair cost small
    # selections a tenth more
    up, down = [], []
    for e in elements:
        m, row = p.up[e] & selected, 0
        while m:
            a, width, b = run_of[(m & -m).bit_length() - 1]
            block = (m >> a) & width
            row |= block << b
            m ^= block << a
        up.append(row)
        m, row = p.down[e] & selected, 0
        while m:
            a, width, b = run_of[(m & -m).bit_length() - 1]
            block = (m >> a) & width
            row |= block << b
            m ^= block << a
        down.append(row)
    return Poset(len(elements), up, lambda: [p.label(e) for e in elements], down)


def inclusion_order(masks: Sequence[int], labels=None) -> Poset:
    """Distinct bitmasks ordered by inclusion, element order = list order.
    holders[e], keyed by the bit of e, holds the positions whose mask holds
    e; above a is the AND of holders[e] over e in a, below a the AND of
    ~holders[e] over the rest: O(N w) mask operations on N masks over w."""
    n = len(masks)
    everything = (1 << n) - 1
    holders = {}
    for i, a in enumerate(masks):
        while a:  # inline bit loop, as in Poset.__init__
            low = a & -a
            holders[low] = holders.get(low, 0) | 1 << i
            a ^= low
    up, down = [], []
    for i, a in enumerate(masks):
        above, outside = everything, 0
        for bit, h in holders.items():
            if a & bit:
                above &= h
            else:
                outside |= h
        up.append(above ^ 1 << i)  # both hold position i itself
        down.append((everything & ~outside) ^ 1 << i)
    return Poset(n, up, labels, down)


def set_lattice(base: Poset, masks: Sequence[int], labels=None) -> Poset:
    """The lattice of all downsets of base, given as bitmasks over base with
    every mask after its subsets; element order = list order.

    D is covered by D | {e} for each e minimal outside D, so the covers and
    the order are read off the masks in O(n * base.n), and the masks are the
    lattice's Birkhoff coordinates. Raises ValueError unless the masks are
    every downset of base, once each, in that order.
    """
    n = len(masks)
    index = {m: i for i, m in enumerate(masks)}
    if n == 0 or masks[0] != 0 or len(index) != n:
        raise ValueError("masks must list each downset once, the empty set first")
    covers = []
    for i, d in enumerate(masks):
        for e, below in enumerate(base.down):
            if below & ~d == 0 and not (d >> e) & 1:
                j = index.get(d | (1 << e), -1)
                if j <= i:
                    raise ValueError(
                        f"downset {d | (1 << e)} missing or before its subset {d}")
                covers.append((i, j))
    # every mask but the empty set must top a cover; then each is reached
    # from the empty set by adding minimal elements, so is a downset
    if len({j for _i, j in covers}) != n - 1:
        raise ValueError("masks must all be downsets of base")
    up = [0] * n
    down = [0] * n
    for i, j in covers:  # i ascending, so down[i] is complete
        down[j] |= down[i] | (1 << i)
    for i, j in reversed(covers):  # i descending, so up[j] is complete
        up[i] |= up[j] | (1 << j)
    p = Poset(n, up, labels, down)
    p._covers = tuple(sorted(covers))
    # subsets first: the smallest-index minimal element is always the next index
    p._linext = tuple(range(n))
    p._birkhoff = tuple(masks), index
    return p


# -- embeddings and isomorphism ------------------------------------------------


def _refine_colors(p: Poset):
    """Iterated colour refinement: an element's next colour is its colour
    and, per colour class, the count of the class above it and below it.
    Stops once a round adds no class."""
    colors, count = [0] * p.n, min(p.n, 1)
    while True:
        classes = [0] * count
        for i, c in enumerate(colors):
            classes[c] |= 1 << i
        sig = [(c, *map(int.bit_count, map(up.__and__, classes)),
                *map(int.bit_count, map(down.__and__, classes)))
               for c, up, down in zip(colors, p.up, p.down)]
        remap = {s: c for c, s in enumerate(sorted(set(sig)))}
        if len(remap) == count:
            return colors
        colors, count = [remap[s] for s in sig], len(remap)


def _search(pattern: Poset, target: Poset, order, domains, joins=None, meets=None):
    """First injective order embedding of pattern into target (a list,
    pattern index -> target index), or None.

    Fills positions in `order`, each trying its domain (a target bitmask per
    pattern element) lowest first. Forward checking: assigning i -> v
    narrows each later domain to up[v], down[v] or the elements incomparable
    to v, as the pattern relates them (none holds v, so the map stays
    injective); an empty domain backtracks at once. joins and meets, each
    None or a (pattern, target) table pair, need an order by height: a join
    comes after its operands and is forced once both are assigned; a meet
    comes before them and is checked when the later one is assigned. A
    visited node is one domain value tried.
    """
    limit = _budget.limit(_budget.SEARCH_BUDGET)
    n = len(order)
    if n == 0:
        return []
    where = [0] * n
    for k, i in enumerate(order):
        where[i] = k
    # per position: the later positions above, below and apart from it,
    # and the (earlier position, join or meet position) pairs it completes
    above, below, apart, forced, checked = [], [], [], [], []
    later = (1 << n) - 1
    for k, i in enumerate(order):
        later ^= 1 << i
        up, down = pattern.up[i] & later, pattern.down[i] & later
        above.append([where[j] for j in bits(up)])
        below.append([where[j] for j in bits(down)])
        apart.append([where[j] for j in bits(later ^ up ^ down)])
        for pairs, ops in ((forced, joins), (checked, meets)):
            pairs.append([] if ops is None else
                         [(k2, where[x]) for k2, j in enumerate(order[:k])
                          if (x := ops[0][i][j]) != i and x != j])
    tj = joins[1] if joins else None
    tm = meets[1] if meets else None
    full = (1 << target.n) - 1
    # doms[k]: every position's domain once positions before k are assigned
    doms = [[domains[i] for i in order]] + [None] * (n - 1)
    if 0 in doms[0]:
        return None
    left = [0] * n  # values still to try at each position
    left[0] = doms[0][0]
    vals = [0] * n
    visited = 0
    k = 0
    while k >= 0:
        rest = left[k]
        if not rest:
            k -= 1
            continue
        low = rest & -rest
        left[k] = rest ^ low
        v = low.bit_length() - 1
        visited += 1
        if visited > limit:
            raise BudgetExceeded(f"embedding search visited more than {limit} nodes")
        if checked[k] and any(tm[v][vals[k2]] != vals[k3] for k2, k3 in checked[k]):
            continue
        vals[k] = v
        if k + 1 == n:
            return [vals[where[i]] for i in range(n)]
        dom = doms[k].copy()
        uv, dv = target.up[v], target.down[v]
        for m in above[k]:
            dom[m] &= uv
        for m in below[k]:
            dom[m] &= dv
        iv = full ^ (uv | dv | low)
        for m in apart[k]:
            dom[m] &= iv
        for k2, m in forced[k]:
            dom[m] &= 1 << tj[v][vals[k2]]
        if 0 not in dom:
            doms[k + 1] = dom
            left[k + 1] = dom[k + 1]
            k += 1
    return None


def _first_subset(items, k: int, fits, what: str):
    """The lexicographically first k of items (a list or range), in order,
    such that fits(chosen, x) holds as each x is appended to chosen, or None.

    fits must be hereditary (it holds for every prefix of an answer), so a
    rejected x is never tried again below the same prefix. A visited node is
    one item tried; a branch stops once fewer items remain than it still
    needs.
    """
    limit = _budget.limit(_budget.SEARCH_BUDGET)
    n = len(items)
    chosen: list = []
    at: list = []  # at[d]: the index in items of chosen[d]
    visited = 0
    i = 0
    while len(chosen) < k:
        if n - i < k - len(chosen):
            if not chosen:
                return None
            chosen.pop()
            i = at.pop() + 1
            continue
        visited += 1
        if visited > limit:
            raise BudgetExceeded(f"{what} visited more than {limit} nodes")
        if fits(chosen, items[i]):
            chosen.append(items[i])
            at.append(i)
        i += 1
    return chosen


def is_isomorphic(a: Poset, b: Poset):
    """Order-isomorphism witness (list: a-index -> b-index) or None.

    The search core with colour-refined classes as domains, smallest class
    first; deterministic given inputs. Intended for desk scale; the node
    budget guards larger inputs.
    """
    if a.n != b.n:
        return None
    ca, cb = _refine_colors(a), _refine_colors(b)
    if sorted(ca) != sorted(cb):
        return None
    classes = {}
    for j, c in enumerate(cb):
        classes[c] = classes.get(c, 0) | 1 << j
    domains = [classes[c] for c in ca]
    sizes = [d.bit_count() for d in domains]
    # a stable sort by class size keeps index order within a size
    return _search(a, b, sorted(range(a.n), key=sizes.__getitem__), domains)


# -- validation ---------------------------------------------------------------


def validate(p: Poset) -> None:
    """Check the stored relation is a strict order (irreflexive, transitive)
    and that down is the transpose of up."""
    for i in range(p.n):
        if (p.up[i] >> i) & 1:
            raise CyclicRelation(f"element {i} above itself")
        for j in bits(p.up[i]):
            if p.up[j] & ~p.up[i]:
                raise CyclicRelation(f"transitivity fails at {i} < {j}")
            if (p.up[j] >> i) & 1:
                raise CyclicRelation(f"antisymmetry fails on {i}, {j}")
            if not (p.down[j] >> i) & 1:
                raise ValueError(f"down[{j}] misses {i} below it")
    # down holds every pair of up's transpose, so equal counts mean no extra
    if len(p.down) != p.n or (sum(m.bit_count() for m in p.down)
                              != sum(m.bit_count() for m in p.up)):
        raise ValueError("down holds pairs that up does not")


# -- serialization -------------------------------------------------------------


def to_json_dict(p: Poset) -> dict:
    out = {
        "version": JSON_VERSION,
        "n": p.n,
        "relation": {"kind": "covers", "pairs": [list(c) for c in p.cover_pairs()]},
    }
    labels = p._label_tuple()
    if labels is not None:
        out["labels"] = list(labels)
    return out


def from_json_dict(data: dict) -> Poset:
    if not isinstance(data, dict):
        raise ValueError("a poset document must be a JSON object")
    if data.get("version") != JSON_VERSION:
        raise ValueError(f"unsupported poset format version {data.get('version')!r}")
    n = data["n"]
    if type(n) is not int or n < 0:
        raise ValueError(f"n must be a non-negative integer, got {n!r}")
    rel = data["relation"]
    if not isinstance(rel, dict):
        raise ValueError(f"relation must be an object, got {rel!r}")
    pairs = rel["pairs"]
    if not isinstance(pairs, (list, tuple)):
        raise ValueError(f"pairs must be a list, got {pairs!r}")
    for pair in pairs:
        if not (isinstance(pair, (list, tuple)) and len(pair) == 2
                and type(pair[0]) is int and type(pair[1]) is int):
            raise ValueError(f"pair {pair!r} is not two integers")
    labels = data.get("labels")
    if labels is not None and not isinstance(labels, (list, tuple)):
        raise ValueError(f"labels must be a list, got {labels!r}")
    return build(n, rel["kind"], pairs, labels)


def to_json(p: Poset) -> str:
    return json.dumps(to_json_dict(p), sort_keys=True)


def to_dot(p: Poset) -> str:
    """Hasse diagram in DOT, ranked bottom-to-top, stable across runs."""
    lines = ["digraph poset {", "  rankdir=BT;"]
    for i in range(p.n):
        lines.append(f'  n{i} [label="{p.label(i)}"];')
    for a, b in p.cover_pairs():
        lines.append(f"  n{a} -> n{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"
