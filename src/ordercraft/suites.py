"""Randomized, oracle-checked property suites.

Oracles are deliberately separate code paths from the operations under test
(raw subset enumeration against search, identity checks against constructed
tables), so a suite passing means two independent routes agree.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from random import Random
from typing import Optional, Sequence

from . import budget as _budget
from . import constructions as _constructions
from . import downsets as _downsets
from . import families as _families
from . import poset as _poset
from . import semilattice as _semilattice
from .errors import BaseHypothesisViolated, BudgetExceeded, NoLeastElement, UnknownSuite
from .poset import Poset

@dataclass(frozen=True)
class SuiteReport:
    suite: str
    trials: int
    seed: int
    failures: tuple          # (trial index, counterexample bundle) pairs
    wall_time: float

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_json_dict(self) -> dict:
        return {
            "suite": self.suite,
            "trials": self.trials,
            "seed": self.seed,
            "failures": [{"trial": t, "bundle": b} for t, b in self.failures],
            "wall_time": round(self.wall_time, 3),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True)


# ---------------------------------------------------------------------------
# random generators


def random_poset(n: int, p: float, seed: int) -> Poset:
    """Random forward relation on 0..n-1 with edge density p, closed
    transitively; p=0 is the antichain, p=1 the chain."""
    if not 0 <= p <= 1:
        raise ValueError("p must be in [0, 1]")
    rng = Random(seed)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return _poset.build(n, "leq", pairs)


def random_join_semilattice(n: int, seed: int) -> Poset:
    """Union-closed family of downsets of a small random poset, containing
    the empty set, with at most n members; joins are unions so the result is
    a join-semilattice with a least element."""
    rng = Random(seed)
    base = random_poset(rng.randint(1, 5), rng.random(), rng.randrange(1 << 30))
    all_masks = _downsets._downset_masks(base)
    family = {0}
    candidates = [m for m in all_masks if m]
    rng.shuffle(candidates)
    for m in candidates:
        # unions of downsets of base are downsets of base, which the budget
        # already counted: the union budget never trips
        closure = union_closure(family, [m])
        if len(closure) <= n:
            family = closure
        if len(family) == n:
            break
    masks = sorted(family, key=lambda m: (m.bit_count(), m))
    return _poset.inclusion_order(masks, [format(m, "b") for m in masks])


def union_closure(closed, new) -> set:
    """The union-closed set of masks ``closed`` extended by ``new``: only
    unions with a new mask, or with one they produce, are formed. Raises
    BudgetExceeded when the unions it adds take the set past the
    enumeration budget."""
    limit = _budget.limit(_budget.ENUM_BUDGET)
    out = set(closed)
    out.update(new)
    frontier = list(new)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(out):
                u = a | b
                if u not in out:
                    out.add(u)
                    if len(out) > limit:
                        raise BudgetExceeded(f"more than {limit} unions")
                    nxt.append(u)
        frontier = nxt
    return out


def small_lattices():
    """Named small lattices, each separating two outcomes of the structure
    report: M3 (modular, not distributive), N5 (not modular), and S7 and its
    dual (upper, resp. lower, semimodular but not modular)."""
    s7 = _poset.build(7, "covers", [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3),
                                    (2, 5), (3, 6), (4, 6), (5, 6)])
    return {
        "M3": _poset.build(5, "covers",
                           [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)]),
        "N5": _families.l_alpha(2),
        "S7": s7,
        "S7_dual": _poset.dual(s7),
    }


def _add_bounds(p: Poset) -> Poset:
    """p with a new least and a new greatest element."""
    with_bottom = _poset.add_bottom(p, "bottom")
    return _poset.dual(_poset.add_bottom(_poset.dual(with_bottom), "top"))


def random_lattice(rng: Random, max_n: int):
    """(kind, poset) covering all three outcomes of the structure report:
    downset lattices of random posets and their duals (distributive),
    products of a small named lattice or a chain with a small downset
    lattice or named lattice (modular or not), and random posets with a
    bottom and top added, redrawn up to eight times until one is a lattice
    (the last draw is returned either way)."""
    kind = rng.choice(["downsets", "dual", "product", "bounded"])
    if kind in ("downsets", "dual"):
        q = random_poset(rng.randint(1, max_n), rng.random(), rng.randrange(1 << 30))
        lat = _downsets.downset_lattice(q)
        return kind, _poset.dual(lat) if kind == "dual" else lat
    if kind == "product":
        named = list(small_lattices().values())
        left = rng.choice(named + [_poset.chain(rng.randint(2, 3))])
        q = random_poset(rng.randint(1, 3), rng.random(), rng.randrange(1 << 30))
        right = rng.choice(named + [_downsets.downset_lattice(q)])
        return kind, _poset.direct_product(left, right)
    for _attempt in range(8):
        q = random_poset(rng.randint(1, max_n), rng.random(), rng.randrange(1 << 30))
        out = _add_bounds(q)
        if _has_all(out.join_table()) and _has_all(out.meet_table()):
            break
    return kind, out


def _has_all(table) -> bool:
    return all(None not in row for row in table)


def structure_oracle(p: Poset):
    """(distributive, modular) of p by the distributive and modular laws
    checked over every triple, or (None, None) when p is not a lattice.

    The O(n^3) oracle for semilattice.structure_report, sharing nothing
    with its coordinates, covers or tables: the join and meet tables are
    bound_oracle's scans of leq."""
    jt = bound_oracle(p, True)
    mt = bound_oracle(p, False)
    if not (_has_all(jt) and _has_all(mt)):
        return None, None
    distributive = True
    modular = True
    rng = range(p.n)
    for x in rng:
        mx = mt[x]
        for y in rng:
            jxy = jt[x][y]
            mxy = mx[y]
            for z in rng:
                # distributivity: x ^ (y v z) == (x ^ y) v (x ^ z)
                if mx[jt[y][z]] != jt[mxy][mx[z]]:
                    distributive = False
                # modular law: x <= z implies x v (y ^ z) == (x v y) ^ z
                if p.leq(x, z) and jt[x][mt[y][z]] != mt[jxy][z]:
                    modular = False
            if distributive is False and modular is False:
                break
        if distributive is False and modular is False:
            break
    return distributive, modular


def width_oracle(p: Poset) -> int:
    """Largest antichain size by branch-and-bound over the ground set.

    The exponential oracle for Poset.width, whose matching kernel it shares
    nothing with but the up and down masks."""
    limit = _budget.limit(_budget.SEARCH_BUDGET)
    order = sorted(range(p.n), key=lambda i: (p.up[i] | p.down[i]).bit_count())
    comp = [p.up[i] | p.down[i] for i in range(p.n)]
    best = 0
    visited = 0

    def grow(idx: int, chosen: int, size: int):
        nonlocal best, visited
        visited += 1
        if visited > limit:
            raise BudgetExceeded(f"antichain search visited more than {limit} nodes")
        best = max(best, size)
        if size + (p.n - idx) <= best:
            return
        for k in range(idx, p.n):
            e = order[k]
            if chosen & comp[e] == 0:
                grow(k + 1, chosen | (1 << e), size + 1)

    grow(0, 0, 0)
    return best


def bound_oracle(p: Poset, upward: bool):
    """n*n table of least upper (greatest lower) bounds, or None where a pair
    has none, found by scanning leq over every element for each pair; a
    tuple of row tuples, the shape of Poset.join_table.

    The oracle for Poset.join_table and meet_table, sharing nothing with the
    cone lookup or the coordinates behind them."""
    def below(a, b):
        return p.leq(a, b) if upward else p.leq(b, a)

    table = []
    for i in range(p.n):
        row = []
        for j in range(p.n):
            bounds = [k for k in range(p.n) if below(i, k) and below(j, k)]
            best = bounds[0] if bounds else None
            for k in bounds:
                if below(k, best):
                    best = k
            if best is not None and not all(below(best, k) for k in bounds):
                best = None
            row.append(best)
        table.append(tuple(row))
    return tuple(table)


def ideal_join_oracle(host: Poset, x: int, ideal_mask: int) -> int:
    """{x} v J by its definition: close {x} and J under binary joins, then
    take the downward closure.

    The oracle for the chain code's {x} v J = down(x v top J), which reads
    the answer off the top of J; this loop assumes no top."""
    jt = host.join_table()
    mask = ideal_mask | (1 << x)
    frontier = [x]
    while frontier:
        nxt = []
        for a in frontier:
            m = mask
            while m:
                low = m & -m
                b = low.bit_length() - 1
                j = jt[a][b]
                if not (mask >> j) & 1:
                    mask |= 1 << j
                    nxt.append(j)
                m ^= low
        frontier = nxt
    out = 0
    m = mask
    while m:
        low = m & -m
        out |= host.down_incl(low.bit_length() - 1)
        m ^= low
    return out


def _is_ideal_mask(host: Poset, mask: int) -> bool:
    """The downset mask is non-empty and every two of its members have an
    upper bound in it: their cones, cut to the mask, meet."""
    up, cones = host.up, []
    m = mask
    while m:
        low = m & -m
        cone = (up[low.bit_length() - 1] | low) & mask
        for other in cones:
            if not cone & other:
                return False
        cones.append(cone)
        m ^= low
    return bool(cones)


def enumerate_ideals(p: Poset) -> list:
    """The masks of all non-empty up-directed downsets, in canonical order,
    by the definition, tested as masks.

    The oracle for downsets.principal_ideals: on a finite poset these are
    exactly the principal downsets, which the ideal_principal suite checks
    rather than assumes."""
    return [m for m in _downsets._downset_masks(p) if _is_ideal_mask(p, m)]


def join_primes(p: Poset):
    """Elements x != 0 with x <= a v b forcing x <= a or x <= b.

    The oracle for the irreducibles (semilattice._join_irreducibles_no_zero)
    on distributive lattices, where the two sets are equal."""
    _semilattice.require_joins(p)
    jt = p.join_table()
    bot = p.bottom()
    if bot is None:
        raise NoLeastElement("join-primes need a least element")
    below = [p.down_incl(a) for a in range(p.n)]  # bit x of below[a]: x <= a
    not_prime = 1 << bot
    for a in range(p.n):
        row, below_a = jt[a], below[a]
        for b in range(a, p.n):
            # the x <= a v b with x not<= a and x not<= b
            not_prime |= below[row[b]] & ~(below_a | below[b])
    return [x for x in range(p.n) if not (not_prime >> x) & 1]


@dataclass(frozen=True)
class DeltaMapReport:
    n: int
    conditions: dict          # keys ii..vi -> bool
    cond_a: bool
    cond_b: bool
    injective: bool
    all_equivalent: bool      # ii..vi share one truth value

    @property
    def conditions_hold(self) -> bool:
        return self.conditions["ii"]


def check_delta_map(target: Poset, table: Sequence[int], n: int) -> DeltaMapReport:
    """Evaluate the order/meet-preservation conditions of Lemma 2.3 for a
    map from delta(n) into a meet-semilattice, given by its table over
    families.delta_coords(n) with columnwise meets.

    The base hypothesis f(i,j) = f(i,w) ^ f(j,w) is checked first and its
    violation is an error, not a report entry.
    """
    dom = _families.shape("delta", n)
    coords = _families.delta_coords(n)
    _semilattice.require_meets(target)
    meet = target.meet
    idx = {c: i for i, c in enumerate(coords)}
    OMEGA = _families.OMEGA

    def f(i, j):
        return table[idx[(i, j)]]

    for i in range(n + 1):
        for j in range(i + 1, n + 1):
            if f(i, j) != meet(f(i, OMEGA), f(j, OMEGA)):
                raise BaseHypothesisViolated(
                    f"f({i},{j}) != f({i},w) ^ f({j},w)")

    triples = [(i, j, k) for i in range(n + 1)
               for j in range(i + 1, n + 1) for k in range(j + 1, n + 1)]
    cond = {}
    cond["iii"] = all(target.leq(f(i, j), f(k, OMEGA)) for i, j, k in triples)
    cond["iv"] = all(target.leq(f(i, j), f(j, k)) for i, j, k in triples)
    cond["v"] = all(target.leq(f(i, j), f(i, k)) for i, j, k in triples)
    cond["vi"] = all(f(i, j) == meet(f(i, k), f(j, k)) for i, j, k in triples)
    # the target order is transitive, so the covers of the domain suffice
    cond["ii"] = all(target.leq(table[x], table[y]) for x, y in dom.cover_pairs())
    # a) and b) also range over k = w: a collision like f(i,n) = f(i,w) has
    # no finite witness triple inside the truncation, and with the w-column
    # included the biconditional with injectivity is valid at every size
    triples_w = triples + [(i, j, OMEGA) for i in range(n + 1)
                           for j in range(i + 1, n + 1)]
    cond_a = all(target.lt(f(i, j), f(j, k)) for i, j, k in triples_w)
    cond_b = all(target.lt(f(i, j), f(i, k)) for i, j, k in triples_w)
    injective = len(set(table)) == len(table)
    all_equivalent = len(set(cond.values())) == 1
    return DeltaMapReport(n=n, conditions=cond, cond_a=cond_a, cond_b=cond_b,
                          injective=injective, all_equivalent=all_equivalent)


# ---------------------------------------------------------------------------
# individual suites; each yields (ok, bundle) per trial, the bundle holding
# its posets as Poset values until run_suite serializes a failing one


def _suite_tm21(rng: Random, max_n: int):
    n = rng.randint(2, max(2, max_n))
    seed = rng.randrange(1 << 30)
    p = random_join_semilattice(n, seed)
    k = rng.randint(1, 3)
    bundle = {"poset": p, "k": k, "seed": seed}

    # oracle: raw enumeration of k-subsets with the full independence check
    from itertools import combinations
    oracle = any(_semilattice.is_independent(p, list(c))
                 for c in combinations(range(p.n), k))
    chosen = _semilattice.find_independent_set(p, k)
    found = chosen is not None
    bk = _families.shape("finite_powerset", k)
    order_emb = _semilattice.embedding_search(bk, p, "order") is not None
    join_emb = _semilattice.embedding_search(bk, p, "join") is not None
    # the set the search returns passes the exhaustive check too
    ok = oracle == found == order_emb == join_emb and (
        not found or _semilattice.is_independent(p, chosen))
    bundle["results"] = {"oracle": oracle, "search": found,
                         "order": order_emb, "join": join_emb}
    return ok, bundle


def _suite_irr_eq(rng: Random, max_n: int):
    n = rng.randint(1, max_n)
    p_density = rng.random()
    seed = rng.randrange(1 << 30)
    q = random_poset(n, p_density, seed)
    bundle = {"poset": q, "seed": seed}
    masks = _downsets._downset_masks(q)
    lattice = _poset.set_lattice(q, masks)
    irr = _semilattice._join_irreducibles_no_zero(lattice)
    pri = join_primes(lattice)
    principal_masks = {q.down_incl(x) for x in range(q.n)}
    got = {masks[i] for i in irr}
    ok = irr == pri and got == principal_masks
    bundle["irr"] = irr
    bundle["primes"] = pri
    return ok, bundle


def _suite_sum_prod(rng: Random, max_n: int):
    na, nb = rng.randint(1, max_n), rng.randint(1, max_n)
    sa, sb = rng.randrange(1 << 30), rng.randrange(1 << 30)
    a = random_poset(na, rng.random(), sa)
    b = random_poset(nb, rng.random(), sb)
    bundle = {"a": a, "b": b}
    la = _downsets.downset_lattice(a)
    lb = _downsets.downset_lattice(b)
    lsum = _downsets.downset_lattice(_poset.direct_sum(a, b))
    count_ok = lsum.n == la.n * lb.n
    witness = _poset.is_isomorphic(lsum, _poset.direct_product(la, lb))
    bundle["counts"] = [lsum.n, la.n, lb.n]
    return count_ok and witness is not None, bundle


def _suite_ideal_principal(rng: Random, max_n: int):
    n = rng.randint(1, max_n)
    seed = rng.randrange(1 << 30)
    q = random_poset(n, rng.random(), seed)
    bundle = {"poset": q}
    # the cones the ideals subcommand prints, in its order, against the
    # downsets filtered by the definition
    ideals = enumerate_ideals(q)
    ok = (len(ideals) == q.n
          and [d.mask for d in _downsets.principal_ideals(q).sets] == ideals)
    bundle["ideal_count"] = len(ideals)
    return ok, bundle


def _random_meet_semilattice(rng: Random, max_n: int) -> Poset:
    q = random_poset(rng.randint(1, max_n), rng.random(), rng.randrange(1 << 30))
    return _downsets.downset_lattice(q)


def _suite_lem2_3(rng: Random, max_n: int):
    host = _random_meet_semilattice(rng, max_n)
    cols = rng.randint(3, 5)
    row = [rng.randrange(host.n) for _ in range(cols)]
    coords = _families.delta_coords(len(row) - 1)
    table = [row[i] if j == _families.OMEGA else host.meet(row[i], row[j])
             for (i, j) in coords]
    bundle = {"host": host, "row": row}
    report = check_delta_map(host, table, cols - 1)
    ok = report.all_equivalent
    if report.conditions_hold:
        ok = ok and report.injective == (report.cond_a and report.cond_b)
    bundle["conditions"] = report.conditions
    return ok, bundle


def _suite_fvee(rng: Random, max_n: int):
    t = _random_meet_semilattice(rng, max_n)
    seeds = sorted(rng.sample(range(t.n), min(t.n, rng.randint(1, 3))))
    elements = sorted(_semilattice._closure(seeds, t.meets, seeds))
    sub = _poset.induced(t, elements)
    c = rng.randrange(t.n)
    table = tuple(t.meets(c, elements))
    bundle = {"host": t, "elements": elements, "cap": c}
    f = _semilattice.MapWitness(sub, t, table)
    if not f.check_flag("meet_preserving"):
        # x -> x ^ c preserves meets by associativity alone
        return False, bundle
    masks, source = _downsets.nonempty_downset_lattice(sub)
    lift = _semilattice.MapWitness(source, t, _semilattice._lift_table(t, table, masks))
    injective = lift.check_flag("injective")
    flags = ["lattice_hom", "order_preserving", "join_preserving", "meet_preserving"]
    flags += ["order_embedding"] if injective else []
    ok = all(map(lift.check_flag, flags)) and injective == lift_injectivity_criterion(f)
    bundle["lift_injective"] = injective
    return ok, bundle


def lift_injectivity_criterion(f) -> bool:
    """The two-part criterion for the lift of f to the nonempty downsets of
    its source (semilattice._lift_table) to be injective: f is injective,
    and no f(x) is the join of the images of a nonempty X strictly below x.
    Joins are monotone in X, so X can be everything strictly below x."""
    p, t, table = f.source, f.target, f.table
    if len(set(table)) != p.n:
        return False
    for x in range(p.n):
        below = [y for y in range(p.n) if p.lt(y, x)]
        if below and _semilattice.join_of(t, [table[y] for y in below]) == table[x]:
            return False
    return True


def _suite_thm8_pipe(rng: Random, max_n: int):
    choice = rng.choice(["delta", "gamma", "powerset"])
    if choice == "powerset":
        k = rng.randint(4, 5)
        host = _families.finite_powerset(k)
    else:
        k = rng.randint(3, 4) + 1
        base = _families.generate(_families.FamilySpec(choice, {"n": k - 1}))
        host = _downsets.downset_lattice(base)
    bundle = {"family": choice, "k": k}
    cert = _constructions.thm8_pipeline(host, k)
    ok = _constructions.certificate_valid(cert)
    bundle["classification"] = cert.payload["classification"]
    return ok, bundle


def _suite_separating(rng: Random, max_n: int):
    n = rng.randint(3, max(3, min(max_n, 6)))
    host = _families.shape("finite_powerset", n)
    # member k: the subsets of {k, ..., n-1}
    members = tuple(_downsets.DownSet(host, frozenset(
        x for x in range(1 << n) if x & ((1 << k) - 1) == 0)) for k in range(n))
    chain = _constructions.ChainOfDownSets(host, members)
    bundle = {"n": n}
    ok, _w = _constructions.is_separating(chain)
    if not ok:
        return False, bundle
    cert = _constructions.independent_from_separating(chain)
    size_ok = len(cert.payload["independent_set"]) == n - 1
    bundle["extracted"] = cert.payload["independent_set"]

    grid = _families.shape("omega_star_grid", n)
    coords = _families.grid_coords(n)
    gmembers = tuple(_downsets.DownSet(grid, frozenset(
        e for e, (i, _j) in enumerate(coords) if i >= k)) for k in range(n))
    gchain = _constructions.ChainOfDownSets(grid, gmembers)
    gok, gw = _constructions.is_separating(gchain)
    return size_ok and _constructions.certificate_valid(cert) and not gok, bundle


def _suite_structure(rng: Random, max_n: int):
    kind, p = random_lattice(rng, max_n)
    bundle = {"poset": p, "kind": kind}
    rep = _semilattice.structure_report(p)
    kernel = (rep.is_distributive, rep.is_modular)
    oracle = structure_oracle(p)
    bundle["results"] = {"kernel": list(kernel), "oracle": list(oracle)}
    return kernel == oracle, bundle


def _suite_width(rng: Random, max_n: int):
    seed = rng.randrange(1 << 30)
    p = random_poset(rng.randint(1, max_n), rng.random(), seed)
    bundle = {"poset": p, "seed": seed}
    kernel = p.width()
    oracle = width_oracle(p)
    bundle["results"] = {"kernel": kernel, "oracle": oracle}
    return kernel == oracle, bundle


def _suite_tables(rng: Random, max_n: int):
    # plain and bounded posets draw up to 2 * max_n elements, so that many
    # pairs have bounds but no least or greatest one; with a bottom and a
    # top added, every pair has bounds
    kind = rng.choice(["poset", "bounded", "downsets", "powerset"])
    if kind == "powerset":
        p = _families.finite_powerset(rng.randint(0, 5))
    elif kind == "downsets":
        q = random_poset(rng.randint(1, max_n), rng.random(), rng.randrange(1 << 30))
        p = _downsets.downset_lattice(q)
    else:
        p = random_poset(rng.randint(1, 2 * max_n), rng.random(), rng.randrange(1 << 30))
        if kind == "bounded":
            p = _add_bounds(p)
    dual = rng.random() < 0.5
    if dual:
        p = _poset.dual(p)
    bundle = {"poset": p, "kind": kind, "dual": dual}
    ok = (p.join_table() == bound_oracle(p, True)
          and p.meet_table() == bound_oracle(p, False))
    return ok, bundle


_SUITE_FUNCS = {
    "tm21": (_suite_tm21, 10),
    "irr_eq": (_suite_irr_eq, 7),
    "sum_prod": (_suite_sum_prod, 5),
    "ideal_principal": (_suite_ideal_principal, 8),
    "lem2_3": (_suite_lem2_3, 4),
    "fvee": (_suite_fvee, 4),
    "thm8_pipe": (_suite_thm8_pipe, 5),
    "separating": (_suite_separating, 6),
    "structure": (_suite_structure, 5),
    "width": (_suite_width, 12),
    "tables": (_suite_tables, 6),
}
SUITES = tuple(_SUITE_FUNCS)


def _bundle_json(bundle: dict) -> dict:
    """A failure bundle with each Poset value turned into its JSON dict."""
    return {k: _poset.to_json_dict(v) if isinstance(v, Poset) else v
            for k, v in bundle.items()}


def run_suite(name: str, trials: int, seed: int,
              max_n: Optional[int] = None) -> SuiteReport:
    """Run one suite; deterministic given (name, trials, seed, max_n).

    A trial that raises is a failure whose bundle holds the error's type
    and message.
    """
    if name not in _SUITE_FUNCS:
        raise UnknownSuite(f"unknown suite {name!r}; choose from {SUITES}")
    func, default_n = _SUITE_FUNCS[name]
    bound = max_n if max_n is not None else default_n
    failures = []
    started = time.monotonic()
    for trial in range(trials):
        rng = Random(seed * 1_000_003 + trial)
        try:
            ok, bundle = func(rng, bound)
        except Exception as exc:  # a raising trial fails; the run goes on
            ok = False
            bundle = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        if not ok:
            bundle = _bundle_json(bundle)
            bundle["trial_seed"] = [seed, trial]
            failures.append((trial, bundle))
    return SuiteReport(name, trials, seed, tuple(failures),
                       time.monotonic() - started)
