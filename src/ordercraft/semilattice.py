"""Join/meet structure detection, irreducibles, independence, embedding
search, and the certified-map machinery used by the constructive pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import families as _families
from . import poset as _poset
from .errors import (
    NotJoinSemilattice,
    NotSurjective,
    StructureMismatch,
)
from .poset import Poset

# ---------------------------------------------------------------------------
# structure detection


@dataclass(frozen=True)
class StructureReport:
    is_join_semilattice: bool
    is_meet_semilattice: bool
    is_lattice: bool
    is_distributive: Optional[bool]   # None when not a lattice
    is_modular: Optional[bool]


def structure_report(p: Poset) -> StructureReport:
    """A poset with Birkhoff coordinates (Poset.birkhoff) is a distributive,
    hence modular, lattice, and needs no table. Otherwise join/meet
    existence comes from the tables and, for lattices, modularity from
    :func:`_lattice_laws`. Not cached: the kernel tests distributivity with
    Poset.birkhoff, so only analyze, the structure suite and the bench ask
    for a report."""
    if p.birkhoff() is not None:
        return StructureReport(True, True, True, True, True)
    has_join = _gap(p, upward=True) is None
    has_meet = _gap(p, upward=False) is None
    is_lattice = has_join and has_meet
    laws = (_lattice_laws(p, p.join_table(), p.meet_table())
            if is_lattice else (None, None))
    return StructureReport(has_join, has_meet, is_lattice, *laws)


def _lattice_laws(p: Poset, jt, mt):
    """(distributive, modular) for a finite lattice p without Birkhoff
    coordinates, from its covers.

    Distributive: never. Poset.birkhoff finds coordinates on every finite
    distributive lattice, the empty poset included.

    Modular: a lattice of finite length is modular iff it is upper
    semimodular (distinct upper covers a, b of some x have a v b covering
    both) and lower semimodular (the dual, with meets), both checked over
    pairs of covers (Birkhoff).
    """
    upper = [0] * p.n
    lower = [0] * p.n
    for a, b in p.cover_pairs():
        upper[a] |= 1 << b
        lower[b] |= 1 << a
    return False, _semimodular(upper, jt) and _semimodular(lower, mt)


def _semimodular(covers, table) -> bool:
    """Any two distinct covers a, b of an element (upper covers with the
    join table, or lower covers with the meet table) are both covered by
    a v b (resp. both cover a ^ b)."""
    for cov in covers:
        cs = list(_poset.bits(cov))
        for i, a in enumerate(cs):
            row = table[a]
            for b in cs[i + 1:]:
                c = row[b]
                if not ((covers[a] >> c) & 1 and (covers[b] >> c) & 1):
                    return False
    return True


def _missing_pair(table):
    """First pair (i, j), i <= j, of a symmetric table with no entry, or None.

    Row i is reached only when rows 0..i-1 are full, so by symmetry its first
    gap lies at j >= i.
    """
    for i, row in enumerate(table):
        if None in row:
            return i, row.index(None)
    return None


def _gap(p: Poset, upward: bool):
    """A pair of p with no join (meet), or None: None at once when p has
    Birkhoff coordinates, else the _missing_pair of its cached join (meet)
    table."""
    if p.birkhoff() is not None:
        return None
    return _missing_pair(p.join_table() if upward else p.meet_table())


def require_joins(p: Poset) -> None:
    """Raise NotJoinSemilattice unless every pair of p has a join; builds no
    table when p has Birkhoff coordinates."""
    missing = _gap(p, upward=True)
    if missing:
        raise NotJoinSemilattice(f"elements {missing[0]} and {missing[1]} have no join")


def require_meets(p: Poset) -> None:
    missing = _gap(p, upward=False)
    if missing:
        raise StructureMismatch(f"elements {missing[0]} and {missing[1]} have no meet")


def join_of(p: Poset, elements) -> int:
    it = iter(elements)
    acc = next(it)
    for e in it:
        nxt = p.join(acc, e)
        if nxt is None:
            raise NotJoinSemilattice(f"no join for {acc}, {e}")
        acc = nxt
    return acc


# ---------------------------------------------------------------------------
# irreducibles and independence


def _join_irreducibles_no_zero(p: Poset):
    """Elements other than the least one (if any) with at most one lower
    cover. Exact when every pair has a join: two lower covers join to x,
    and one lower cover c bounds the join of any pair below x by c."""
    bot = p.bottom()
    return [x for x in _poset.at_most_one_cover(p) if x != bot]


def is_independent(p: Poset, xs: Sequence[int]) -> bool:
    """Exhaustive check of the definition: x not<= vF over every finite
    non-empty F inside the rest. The quantifier is run in full on purpose;
    this is the oracle side of the search below."""
    require_joins(p)
    join = p.join
    xs = list(xs)
    if len(set(xs)) != len(xs):
        return False
    for idx, x in enumerate(xs):
        rest = xs[:idx] + xs[idx + 1:]
        # joins[f]: vF over rest's members at the bits of f, one join per F:
        # v(F minus its highest member) joined with that member. The list
        # grows with the loop (lower < fmask), as far as the Fs checked
        joins = [None]
        for fmask in range(1, 1 << len(rest)):
            high = fmask.bit_length() - 1
            lower = fmask ^ (1 << high)
            acc = join(joins[lower], rest[high]) if lower else rest[high]
            if p.leq(x, acc):
                return False
            joins.append(acc)
    return True


def find_independent_set(p: Poset, k: int):
    """A size-k independent set in canonical order, or None.

    Complete: every element of a join-semilattice is a finite join of
    join-irreducibles, and replacing each member of an independent set by a
    suitable irreducible component keeps independence, so searching over
    irreducibles alone cannot miss a positive instance. Since joins are
    monotone, independence collapses to x not<= v(X minus x) per member.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    require_joins(p)
    if k == 1:
        # every singleton is vacuously independent (no non-empty F exists)
        return [0] if p.n else None

    def fits(chosen, x) -> bool:
        xs = chosen + [x]
        return not chosen or not any(p.leq(y, join_of(p, xs[:i] + xs[i + 1:]))
                                     for i, y in enumerate(xs))

    return _poset._first_subset(_join_irreducibles_no_zero(p), k, fits,
                                "independent-set search")


# ---------------------------------------------------------------------------
# certified maps


# join/meet preservation is binary-only: no flag asks that the least
# element go to the least element
FLAGS = (
    "order_preserving",
    "order_embedding",
    "join_preserving",
    "meet_preserving",
    "lattice_hom",
    "injective",
    "surjective",
)


@dataclass(frozen=True)
class MapWitness:
    """Function table between two posets with re-verifiable property flags.

    Construction re-checks every requested flag; a witness never carries a
    flag its table does not satisfy. Each flag is checked once per witness.
    """

    source: Poset
    target: Poset
    table: tuple
    certified: frozenset = field(default_factory=frozenset)
    _held: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.table) != self.source.n:
            raise ValueError("table length must match source size")
        for v in self.table:
            if not (0 <= v < self.target.n):
                raise ValueError(f"table value {v} outside target")
        # sorted, then in FLAGS order: set order depends on the hash seed
        for flag in sorted(self.certified):
            if flag not in FLAGS:
                raise ValueError(f"unknown flag {flag!r}")
        for flag in FLAGS:
            if flag in self.certified and not self.check_flag(flag):
                raise ValueError(f"flag {flag!r} does not hold for this table")

    def check_flag(self, flag: str) -> bool:
        if flag not in self._held:
            self._held[flag] = self._check(flag)
        return self._held[flag]

    def _check(self, flag: str) -> bool:
        s, t, f = self.source, self.target, self.table
        if flag == "injective":
            return len(set(f)) == len(f)
        if flag == "surjective":
            return len(set(f)) == t.n
        if flag == "order_preserving":
            # the target order is transitive, so the source covers suffice
            return all(t.leq(f[i], f[j]) for i, j in s.cover_pairs())
        if flag == "order_embedding":
            # i <= j iff f(i) <= f(j): the preimage of f(i)'s up-set is i's
            fibre, image = {}, 0
            for j, v in enumerate(f):
                fibre[v] = fibre.get(v, 0) | 1 << j
                image |= 1 << v
            for i in range(s.n):
                pre = 0
                for v in _poset.bits(t.up_incl(f[i]) & image):
                    pre |= fibre[v]
                if pre != s.up_incl(i):
                    return False
            return True
        if flag in ("join_preserving", "meet_preserving"):
            # In a finite join-semilattice every element is a join of
            # generators, the elements with at most one lower cover (add a
            # bottom: they are its join-irreducibles and its old bottom). So
            # f(x v y) = f(x) v f(y) for all x, y once it holds for every x
            # and every generator y, by induction on the generators of y.
            # Meets: dually, with upper covers.
            upward = flag == "join_preserving"
            if _gap(s, upward) is not None:
                return False
            srow, trow = (s.joins, t.joins) if upward else (s.meets, t.meets)
            everything = range(s.n)
            for g in _poset.at_most_one_cover(s, upward):
                if [f[v] for v in srow(g, everything)] != trow(f[g], f):
                    return False
            return True
        if flag == "lattice_hom":
            return self.check_flag("join_preserving") and self.check_flag("meet_preserving")
        raise ValueError(flag)

    def verify_all(self) -> bool:
        return all(self.check_flag(fl) for fl in self.certified)

    def to_json_dict(self) -> dict:
        return {
            "source": _poset.to_json_dict(self.source),
            "target": _poset.to_json_dict(self.target),
            "table": list(self.table),
            "certified": {fl: True for fl in sorted(self.certified)},
        }


# ---------------------------------------------------------------------------
# embedding search

EMBEDDING_MODES = ("order", "join", "meet", "sublattice")


def embedding_search(pattern: Poset, target: Poset,
                     mode: str = "order") -> Optional[MapWitness]:
    """First injective structure-preserving map in canonical order, or None.

    Pattern elements are processed by (height, index); target candidates
    ascending, so the returned witness is deterministic. join mode preserves
    binary joins (least elements are not required to map to least elements).
    The search is poset._search, whose domains start as the target elements
    whose up- and down-sets are at least as large as the pattern element's.
    """
    if mode not in EMBEDDING_MODES:
        raise ValueError(f"unknown mode {mode!r}")

    if mode in ("join", "sublattice"):
        if _gap(pattern, upward=True) or _gap(target, upward=True):
            raise StructureMismatch("join mode needs join-semilattices on both sides")
    if mode in ("meet", "sublattice"):
        if _gap(pattern, upward=False) or _gap(target, upward=False):
            raise StructureMismatch("meet mode needs meet-semilattices on both sides")

    heights = pattern.heights()
    # a stable sort by height keeps index order within a height
    order = sorted(range(pattern.n), key=heights.__getitem__)
    joins = meets = None
    if mode in ("join", "sublattice"):
        joins = (pattern.join_table(), target.join_table())
    if mode in ("meet", "sublattice"):
        meets = (pattern.meet_table(), target.meet_table())
    # i can map to v only if v's cones are at least as large as i's
    cones = [(u.bit_count(), d.bit_count()) for u, d in zip(target.up, target.down)]
    domains = []
    for pu, pd in zip(pattern.up, pattern.down):
        nu, nd = pu.bit_count(), pd.bit_count()
        domains.append(sum(1 << v for v, (u, d) in enumerate(cones) if u >= nu and d >= nd))
    table = _poset._search(pattern, target, order, domains, joins, meets)
    if table is None:
        return None
    flags = {"injective", "order_embedding", "order_preserving"}
    if mode in ("join", "sublattice"):
        flags.add("join_preserving")
    if mode in ("meet", "sublattice"):
        flags.add("meet_preserving")
    if mode == "sublattice":
        flags.add("lattice_hom")
    return MapWitness(pattern, target, tuple(table), frozenset(flags))


# ---------------------------------------------------------------------------
# the quotient map of a generated sublattice


def _closure(start, row, partners) -> set:
    """start closed under the row operation (Poset.joins or Poset.meets),
    each new element combined with partners only."""
    current = set(start)
    frontier = list(current)
    while frontier:
        nxt = []
        for a in frontier:
            new = set(row(a, partners)) - current
            current |= new
            nxt.extend(new)
        frontier = nxt
    return current


def _phi_table(t: Poset, gens: Sequence[int]):
    """(elements, table): the sublattice of t generated by gens, as sorted
    host indices, and the table of its quotient onto the powerset lattice of
    gens, each element x sent to the mask of {a in gens : a <= x}.

    t is distributive (thm8_pipeline asks Poset.birkhoff), so the sublattice
    is the joins of the meet closure M of gens, as (v a_i) ^ (v b_j) =
    v (a_i ^ b_j); a meet of gens needs only gens, a join of M only M."""
    meets = list(_closure(gens, t.meets, gens))
    elements = sorted(_closure(meets, t.joins, meets))
    leq = t.leq
    return elements, tuple(sum(1 << i for i, a in enumerate(gens) if leq(a, e))
                           for e in elements)


# ---------------------------------------------------------------------------
# f-vee: lifting a meet-preserving map to the nonempty-downset lattice


def _lift_table(t: Poset, table, masks) -> tuple:
    """The table of f-vee, the lift of a meet-preserving f: P -> t, given
    by its table, to the nonempty downsets of P, given by their masks
    (downsets.nonempty_downset_lattice): each downset goes to the join in t
    of the images of its members. On a distributive t the lift is a lattice
    homomorphism, injective exactly when suites.lift_injectivity_criterion
    holds of f."""
    return tuple(join_of(t, [table[e] for e in _poset.bits(m)]) for m in masks)


# ---------------------------------------------------------------------------
# from a powerset quotient back to a delta-shaped map


def _delta_table(t: Poset, phi_table, source_elements: Sequence[int], n: int) -> tuple:
    """The table over delta_coords(n - 1) of a meet-preserving map into t,
    from the table of a surjective lattice homomorphism phi onto B_n on the
    host elements source_elements: row (i,w) accumulates
    b_k = v{f(i,w) ^ f(j,w) : i<j<k} so that phi(f(i,w)) = {i}, and (i,j)
    holds the meet of rows i and j. Raises NotSurjective when some mask has
    no preimage."""
    join, meet = t.join, t.meet

    def first_with_image(mask: int) -> int:
        for s, e in enumerate(source_elements):
            if phi_table[s] == mask:
                return e
        raise NotSurjective(f"no element maps to {mask:#x}")

    b0 = first_with_image(0)
    row = [join(first_with_image(1 << 0), b0), join(first_with_image(1 << 1), b0)]
    for k in range(2, n):
        # seeded at b_0, which lies below every row meet, so bk equals the
        # bare join of the pairwise meets
        bk = b0
        for i in range(k):
            for j in range(i + 1, k):
                bk = join(bk, meet(row[i], row[j]))
        row.append(join(bk, first_with_image(1 << k)))
    return tuple(row[i] if j == _families.OMEGA else meet(row[i], row[j])
                 for (i, j) in _families.delta_coords(n - 1))
