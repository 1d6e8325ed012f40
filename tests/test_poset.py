"""Core poset construction, combinators, isomorphism, and serialization."""

import functools
import hashlib
import itertools
import json
from math import comb
from random import Random

import pytest
from hypothesis import example, given, settings, strategies as st

from ordercraft import constructions as C
from ordercraft import downsets as D
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import semilattice as S
from ordercraft import suites as SU
from ordercraft.errors import BudgetExceeded, CyclicRelation, IndexOutOfRange


def brute_closure(n, pairs):
    """Oracle: transitive closure by repeated relational composition."""
    rel = {(a, b) for a, b in pairs}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(rel), repeat=2):
            if b == c and (a, d) not in rel:
                rel.add((a, d))
                changed = True
    return rel


def relation_pairs(p):
    return {(i, j) for i in range(p.n) for j in range(p.n) if p.lt(i, j)}


@st.composite
def random_posets(draw, max_n=8, min_n=0):
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                pairs.append((i, j))
    return P.build(n, "leq", pairs)


@st.composite
def forward_relations(draw, max_n=8):
    """n and a set of pairs i < j on 0..n-1, not closed."""
    n = draw(st.integers(min_value=0, max_value=max_n))
    return n, [(i, j) for i in range(n) for j in range(i + 1, n) if draw(st.booleans())]


@st.composite
def permuted_posets(draw, max_n=8):
    """random_posets with its indices shuffled, so that index order is in
    general not a linear extension; built from all its pairs or a subset."""
    p = draw(random_posets(max_n))
    perm = draw(st.permutations(range(p.n)))
    pairs = [(perm[i], perm[j]) for i, j in relation_pairs(p)]
    kind = draw(st.sampled_from(["leq", "covers"]))
    if kind == "covers":
        pairs = [pair for pair in pairs if draw(st.booleans())]
    return P.build(p.n, kind, sorted(pairs))


def brute_covers(p):
    """Oracle: i < j with no k strictly between them, by leq."""
    return tuple((i, j) for i in range(p.n) for j in range(p.n)
                 if i != j and p.leq(i, j)
                 and not any(k not in (i, j) and p.leq(i, k) and p.leq(k, j)
                             for k in range(p.n)))


def downset_masks(base):
    """Oracle: every downset of base as a mask, in numeric order (so each
    after its subsets), by testing each subset."""
    return [m for m in range(1 << base.n)
            if all(base.down[e] & ~m == 0 for e in range(base.n) if (m >> e) & 1)]


class TestBits:
    @given(st.integers(min_value=0, max_value=1 << 300))
    def test_matches_bit_scan(self, m):
        assert list(P.bits(m)) == [i for i in range(m.bit_length()) if m >> i & 1]


class TestBuild:
    def test_chain_from_covers(self):
        p = P.build(3, "covers", [(0, 1), (1, 2)])
        assert p.height() == 3
        assert relation_pairs(p) == {(0, 1), (1, 2), (0, 2)}

    def test_empty(self):
        p = P.build(0, "covers", [])
        assert p.n == 0
        assert p.basic_stats()["height"] == 0

    def test_cycle_rejected(self):
        with pytest.raises(CyclicRelation):
            P.build(2, "leq", [(0, 1), (1, 0)])

    def test_reflexive_pair_rejected(self):
        with pytest.raises(CyclicRelation):
            P.build(2, "covers", [(1, 1)])

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            P.build(2, "covers", [(0, 5)])

    def test_reflexive_pair_among_forward_pairs_rejected(self):
        with pytest.raises(CyclicRelation, match=r"reflexive pair \(1,1\)"):
            P.build(3, "covers", [(0, 1), (1, 1), (1, 2)])

    def test_backward_cycle_rejected(self):
        with pytest.raises(CyclicRelation, match="directed cycle"):
            P.build(4, "leq", [(0, 1), (1, 2), (2, 3), (3, 1)])

    @given(forward_relations(), st.data())
    def test_permuted_pairs_build_the_permuted_order(self, relation, data):
        # forward pairs take index order as the topological order; permuted
        # ones in general go backward and take Kahn's
        n, pairs = relation
        perm = data.draw(st.permutations(range(n)))
        kind = data.draw(st.sampled_from(["leq", "covers"]))
        forward = P.build(n, kind, pairs)
        assert relation_pairs(forward) == brute_closure(n, pairs)
        permuted = P.build(n, kind, [(perm[a], perm[b]) for a, b in pairs])
        for x in range(n):
            assert permuted.up[perm[x]] == sum(1 << perm[y] for y in P.bits(forward.up[x]))
            assert permuted.down[perm[x]] == sum(1 << perm[y] for y in P.bits(forward.down[x]))

    @given(forward_relations(), st.data())
    def test_kahn_takes_the_smallest_free_index(self, relation, data):
        # on any acyclic relation, not only covers, the one topological sort
        # gives the smallest-index-first linear extension of its closure
        n, pairs = relation
        perm = data.draw(st.permutations(range(n)))
        succ = [0] * n
        for a, b in pairs:
            succ[perm[a]] |= 1 << perm[b]
        p = P.build(n, "leq", [(perm[a], perm[b]) for a, b in pairs])
        assert P._kahn(succ) == rescan_linear_extension(p) == p.linear_extension()

    @given(random_posets())
    def test_strict_order_invariants(self, p):
        P.validate(p)
        for i in range(p.n):
            assert not p.lt(i, i)

    @given(random_posets(max_n=10))
    def test_closure_matches_brute_force(self, p):
        assert relation_pairs(p) == brute_closure(p.n, relation_pairs(p))


class TestTransitiveReduction:
    def test_chain(self):
        p = P.build(3, "leq", [(0, 1), (1, 2), (0, 2)])
        assert p.cover_pairs() == ((0, 1), (1, 2))

    def test_antichain(self):
        assert P.antichain(4).cover_pairs() == ()

    def test_diamond_has_four_covers(self):
        diamond = P.direct_product(P.chain(2), P.chain(2))
        assert len(diamond.cover_pairs()) == 4

    @given(random_posets(max_n=10))
    def test_closure_of_reduction_recovers_relation(self, p):
        rebuilt = P.build(p.n, "covers", p.cover_pairs())
        assert relation_pairs(rebuilt) == relation_pairs(p)

    @given(permuted_posets(max_n=9))
    def test_covers_match_brute_force_oracle(self, p):
        # shuffled indices make the descent step below the lowest index
        for q in (p, P.dual(p), P.Poset(p.n, p.up, [f"x{i}" for i in range(p.n)])):
            assert q.cover_pairs() == brute_covers(q)

    def test_covers_when_lowest_index_is_not_minimal(self):
        # 3 < 2 < 1 < 0 above 4: from 4 the descent runs 0, 1, 2, 3
        p = P.build(5, "covers", [(4, 3), (3, 2), (2, 1), (1, 0)])
        assert p.cover_pairs() == ((1, 0), (2, 1), (3, 2), (4, 3))

    @given(random_posets(max_n=6))
    def test_reduction_is_minimal(self, p):
        # oracle: dropping any cover changes the closure
        covers = p.cover_pairs()
        base = relation_pairs(p)
        for k in range(len(covers)):
            rest = covers[:k] + covers[k + 1:]
            assert brute_closure(p.n, rest) != base


class TestDual:
    def test_dual_chain_is_chain(self):
        assert P.is_isomorphic(P.dual(P.chain(3)), P.chain(3)) is not None

    @given(random_posets())
    def test_involution(self, p):
        assert P.dual(P.dual(p)).up == p.up

    @given(random_posets())
    def test_minimals_swap_with_maximals(self, p):
        assert P.dual(p).minimals() == p.maximals()


class TestProductsAndSums:
    def test_chain2_squared_is_diamond(self):
        prod = P.direct_product(P.chain(2), P.chain(2))
        diamond = P.build(4, "covers", [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert P.is_isomorphic(prod, diamond) is not None

    def test_product_with_singleton(self):
        a = P.build(4, "leq", [(0, 1), (0, 2), (1, 3)])
        assert P.is_isomorphic(P.direct_product(a, P.chain(1)), a) is not None

    @given(random_posets(max_n=5), random_posets(max_n=5))
    def test_product_size(self, a, b):
        assert P.direct_product(a, b).n == a.n * b.n

    def test_direct_sum_of_points_is_antichain(self):
        s = P.direct_sum(P.chain(1), P.chain(1))
        assert s.cover_pairs() == () and s.n == 2

    @given(random_posets(max_n=5), random_posets(max_n=5))
    def test_direct_sum_no_cross_pairs(self, a, b):
        s = P.direct_sum(a, b)
        assert s.n == a.n + b.n
        for i in range(a.n):
            for j in range(b.n):
                assert s.incomparable(i, a.n + j) or a.n == 0 or b.n == 0

    @given(random_posets(max_n=5), random_posets(max_n=5))
    def test_direct_sum_maximals(self, a, b):
        s = P.direct_sum(a, b)
        assert s.maximals() == a.maximals() + [a.n + m for m in b.maximals()]


class TestIsomorphism:
    def test_diamond_vs_product(self):
        diamond = P.build(4, "covers", [(0, 1), (0, 2), (1, 3), (2, 3)])
        w = P.is_isomorphic(diamond, P.direct_product(P.chain(2), P.chain(2)))
        assert w is not None

    def test_chain_vs_antichain(self):
        assert P.is_isomorphic(P.chain(3), P.antichain(3)) is None

    def test_pentagon_vs_diamond_plus_point(self):
        pentagon = P.build(5, "covers", [(0, 1), (0, 2), (2, 3), (1, 4), (3, 4)])
        other = P.direct_sum(
            P.direct_product(P.chain(2), P.chain(2)), P.chain(1))

        # oracle: brute force over all 5! bijections
        def brute(a, b):
            for perm in itertools.permutations(range(5)):
                if all(a.lt(i, j) == b.lt(perm[i], perm[j])
                       for i in range(5) for j in range(5)):
                    return True
            return False

        assert not brute(pentagon, other)
        assert P.is_isomorphic(pentagon, other) is None

    @given(random_posets(max_n=6))
    def test_reflexive(self, p):
        assert P.is_isomorphic(p, p) is not None

    @given(random_posets(max_n=6), st.randoms(use_true_random=False))
    def test_invariant_under_relabeling(self, p, rnd):
        perm = list(range(p.n))
        rnd.shuffle(perm)
        up = [0] * p.n
        for i in range(p.n):
            for j in range(p.n):
                if p.lt(i, j):
                    up[perm[i]] |= 1 << perm[j]
        q = P.Poset(p.n, up)
        w = P.is_isomorphic(p, q)
        assert w is not None
        assert all(p.lt(i, j) == q.lt(w[i], w[j])
                   for i in range(p.n) for j in range(p.n))

    @given(random_posets(max_n=5), st.randoms(use_true_random=False))
    def test_equivalence_relation_on_pool(self, p, rnd):
        # symmetric and transitive through witness composition
        perm = list(range(p.n))
        rnd.shuffle(perm)
        up = [0] * p.n
        for i in range(p.n):
            for j in range(p.n):
                if p.lt(i, j):
                    up[perm[i]] |= 1 << perm[j]
        q = P.Poset(p.n, up)
        forward = P.is_isomorphic(p, q)
        backward = P.is_isomorphic(q, p)
        assert forward is not None and backward is not None
        w1 = P.is_isomorphic(p, q)
        w2 = P.is_isomorphic(q, P.dual(P.dual(q)))
        composed = [w2[w1[i]] for i in range(p.n)]
        assert all(p.lt(i, j) == q.lt(composed[i], composed[j])
                   for i in range(p.n) for j in range(p.n))

    def test_witnesses_are_pinned(self):
        # a fixed pool of random posets against shuffled copies of
        # themselves and against other random posets of their size, and of
        # O(P+Q) against O(P)xO(Q); the colour refinement may change how it
        # computes the classes, but not the classes, so not one witness
        rng = Random(1609)

        def draw(n):
            density = rng.random()
            return P.build(n, "leq", [(i, j) for i in range(n) for j in range(i + 1, n)
                                      if rng.random() < density])

        pool = []
        for _ in range(120):
            n = rng.randint(0, 9)
            p = draw(n)
            perm = list(range(n))
            rng.shuffle(perm)
            q = P.build(n, "leq", sorted((perm[i], perm[j]) for i, j in relation_pairs(p)))
            pool += [(p, q), (q, p), (p, draw(n))]
        for _ in range(20):
            a, b = draw(rng.randint(1, 4)), draw(rng.randint(1, 4))
            pool.append((D.downset_lattice(P.direct_sum(a, b)),
                         P.direct_product(D.downset_lattice(a), D.downset_lattice(b))))
        got = [P.is_isomorphic(a, b) for a, b in pool]
        for (a, b), w in zip(pool, got):
            assert w is None or all(a.lt(i, j) == b.lt(w[i], w[j])
                                    for i in range(a.n) for j in range(a.n))
        assert sum(w is not None for w in got) == PINNED_FOUND
        digest = hashlib.sha256(json.dumps(got).encode()).hexdigest()
        assert digest == PINNED_WITNESSES
        # the colour classes themselves, as sorted masks, whatever their numbering
        partitions = []
        for q in (q for pair in pool for q in pair):
            classes = {}
            for i, c in enumerate(P._refine_colors(q)):
                classes[c] = classes.get(c, 0) | 1 << i
            partitions.append(sorted(classes.values()))
        digest = hashlib.sha256(json.dumps(partitions).encode()).hexdigest()
        assert digest == PINNED_PARTITIONS


# count and sha256 of the JSON list of test_witnesses_are_pinned's witnesses,
# and sha256 of its pool's colour partitions
PINNED_FOUND = 295
PINNED_PARTITIONS = "c3adcb3c781d82029805ba55b39b3e8f6ba48fec038b5c97bdd75e8506db8102"
PINNED_WITNESSES = "cf32401077727dff00164d2fa81730d40ef5a22aeca68da874ebdf4d0dce2728"


def brute_isomorphic(a, b):
    """Oracle: some permutation of b's elements carries a's strict order
    onto b's."""
    return a.n == b.n and any(
        all(a.lt(i, j) == b.lt(f[i], f[j]) for i in range(a.n) for j in range(a.n))
        for f in itertools.permutations(range(b.n)))


@st.composite
def relabelled(draw, p):
    """p with its indices shuffled."""
    perm = draw(st.permutations(range(p.n)))
    return P.build(p.n, "leq", [(perm[i], perm[j]) for i, j in relation_pairs(p)])


class TestIsomorphismAgainstPermutations:
    @settings(max_examples=120)
    @given(random_posets(max_n=7), st.data())
    def test_matches_permutation_scan(self, p, data):
        q = data.draw(st.one_of(relabelled(p), random_posets(max_n=p.n, min_n=p.n)))
        w = P.is_isomorphic(p, q)
        assert (w is not None) == brute_isomorphic(p, q)
        if w is not None:
            assert sorted(w) == list(range(q.n))
            assert all(p.lt(i, j) == q.lt(w[i], w[j])
                       for i in range(p.n) for j in range(p.n))

    def test_look_alike_components_rejected_by_colour_classes(self, monkeypatch):
        # X and Y have the same up- and down-degrees but are told apart by
        # colour refinement; with degree classes as domains the search would
        # try the copies of X against each other far past this budget
        x = P.build(6, "covers", [(0, 1), (0, 2), (3, 5), (4, 5)])
        y = P.build(6, "covers", [(0, 3), (0, 5), (1, 2), (4, 5)])
        a = functools.reduce(P.direct_sum, [x] * 6 + [y])
        b = functools.reduce(P.direct_sum, [x] * 5 + [y] * 2)
        c = functools.reduce(P.direct_sum, [y] + [x] * 6)
        assert a.n == b.n == 42
        monkeypatch.setenv("OC_BUDGET", "10000")
        assert P.is_isomorphic(a, b) is None
        # Y first: with degree classes, the first X would try Y's elements
        w = P.is_isomorphic(a, c)
        assert w is not None and w[:6] == list(range(6, 12))


def rescan_linear_extension(p):
    """Oracle: remove the smallest-index minimal element, found by a scan
    from index 0, until none is left."""
    removed, out = 0, []
    while len(out) < p.n:
        i = next(i for i in range(p.n)
                 if not (removed >> i) & 1 and p.down[i] & ~removed == 0)
        out.append(i)
        removed |= 1 << i
    return out


class TestStats:
    def test_chain_stats(self):
        s = P.chain(4).basic_stats()
        assert s["height"] == 4 and s["width"] == 1

    def test_antichain_stats(self):
        s = P.antichain(4).basic_stats()
        assert s["height"] == 1 and s["width"] == 4

    @given(permuted_posets(max_n=7))
    def test_heights_match_longest_chains_below(self, p):
        # oracle: over every element below, not only the lower covers
        h = {}
        for i in sorted(range(p.n), key=lambda i: p.down[i].bit_count()):
            h[i] = max((h[j] + 1 for j in range(p.n) if p.lt(j, i)), default=0)
        assert p.heights() == [h[i] for i in range(p.n)]
        assert p.height() == max(h.values(), default=-1) + 1

    @given(random_posets())
    def test_linear_extension_respects_order(self, p):
        ext = p.linear_extension()
        pos = {e: k for k, e in enumerate(ext)}
        for i in range(p.n):
            for j in range(p.n):
                if p.lt(i, j):
                    assert pos[i] < pos[j]

    @given(permuted_posets())
    def test_linear_extension_matches_the_rescan(self, p):
        for q in (p, P.dual(p)):
            assert q.linear_extension() == rescan_linear_extension(q)

    def test_linear_extension_is_cached_and_copied(self):
        p = P.build(3, "covers", [(2, 0), (1, 0)])
        first = p.linear_extension()
        assert first == [1, 2, 0] and p._linext == (1, 2, 0)
        first.append(99)
        assert p.linear_extension() == [1, 2, 0]
        assert p.linear_extension() is not p.linear_extension()

    @given(random_posets(max_n=9))
    def test_width_matches_brute_force(self, p):
        best = 0
        for r in range(p.n + 1):
            for combo in itertools.combinations(range(p.n), r):
                if all(p.incomparable(i, j)
                       for i, j in itertools.combinations(combo, 2)):
                    best = max(best, r)
        assert p.width() == best

    @pytest.mark.parametrize("n", range(6, 11))
    def test_boolean_lattice_width_is_sperner(self, n):
        assert F.finite_powerset(n).width() == comb(n, n // 2)

    def test_product_of_chains_width_is_shorter_chain(self):
        for a in range(1, 7):
            for b in range(1, 7):
                assert P.direct_product(P.chain(a), P.chain(b)).width() == min(a, b)

    def test_width_budget_counts_claimed_vertices(self, monkeypatch):
        b6 = F.finite_powerset(6)
        monkeypatch.setenv("OC_BUDGET", "5")
        with pytest.raises(BudgetExceeded, match="^antichain search visited more than 5 nodes$"):
            b6.width()
        monkeypatch.setenv("OC_BUDGET", str(10 ** 4))
        assert b6.width() == 20

    def test_width_oracle_budget_names_its_limit(self, monkeypatch):
        b3 = F.finite_powerset(3)
        monkeypatch.setenv("OC_BUDGET", "3")
        with pytest.raises(BudgetExceeded, match="^antichain search visited more than 3 nodes$"):
            SU.width_oracle(b3)


def inclusion_powerset(n):
    """Oracle: B_n by comparing every pair of subsets, O(4^n)."""
    size = 1 << n
    up = [0] * size
    for x in range(size):
        m = 0
        for y in range(size):
            if x != y and x & y == x:
                m |= 1 << y
        up[x] = m
    labels = ["{" + ",".join(str(i) for i in range(n) if (x >> i) & 1) + "}"
              for x in range(size)]
    return P.Poset(size, up, labels)


class TestBuildBudget:
    def test_checks_n_before_allocating(self, monkeypatch):
        monkeypatch.setenv("OC_BUDGET", "100")
        assert P.build(100, "covers", []).n == 100
        doc = {"version": 1, "n": 101, "relation": {"kind": "covers", "pairs": []}}
        for build in (lambda: P.build(101, "covers", []), lambda: P.chain(101),
                      lambda: P.from_json_dict(doc)):
            with pytest.raises(BudgetExceeded, match="poset of 101 elements, more than 100"):
                build()


class TestSetLattice:
    @pytest.mark.parametrize("n", range(7))
    def test_powerset_matches_pairwise_inclusion(self, n):
        got, want = F.finite_powerset(n), inclusion_powerset(n)
        assert got == want and got.down == want.down
        assert got.cover_pairs() == want.cover_pairs()
        assert got.linear_extension() == want.linear_extension()
        assert got.height() == want.height() == n + 1
        assert got.join_table() == want.join_table()
        assert got.meet_table() == want.meet_table()

    def test_only_set_lattices_keep_masks(self):
        # a set lattice's coordinates are its masks; a copy built from its
        # covers computes its own, over its join-irreducibles 1, 2 and 4
        b3 = F.finite_powerset(3)
        assert b3.birkhoff() == (tuple(range(8)), {m: m for m in range(8)})
        coords, _index = P.build(8, "covers", b3.cover_pairs()).birkhoff()
        assert coords == (0, 2, 4, 6, 16, 18, 20, 22)

    def test_views_carry_no_sets(self):
        # dual, a relabelled copy and induced do not inherit the masks: the
        # dual's join is the original meet, which a union of the masks would
        # get wrong
        lat = F.finite_powerset(4)
        dual = P.dual(lat)
        for view in (dual, P.Poset(lat.n, lat.up, list("abcdefghijklmnop")),
                     P.induced(lat, [0, 1, 2, 3])):
            assert view.birkhoff()[0] != lat.birkhoff()[0][:view.n]
        assert dual.join_table() == lat.meet_table()
        assert dual.meet_table() == lat.join_table()

    @pytest.mark.parametrize("masks", [
        [],                 # no empty set
        [1, 0, 2, 3],       # empty set not first
        [0, 1, 1, 2, 3],    # a repeat
        [0, 1, 2],          # {0,1} missing
        [0, 1, 3, 2],       # {0,1} before its subset {1}
        [0, 1, 2, 3, 4],    # 4 is not a subset of the base
    ])
    def test_rejects_masks_that_are_not_the_downsets(self, masks):
        with pytest.raises(ValueError):
            P.set_lattice(P.antichain(2), masks)

    def test_rejects_a_non_downset(self):
        # over the chain 0 < 1, {1} is not a downset
        with pytest.raises(ValueError, match="downsets"):
            P.set_lattice(P.chain(2), [0, 1, 2, 3])


def json_copy(p):
    return P.from_json_dict(P.to_json_dict(p))


def cone_lookup_table(p, upward):
    """Reference: joins (meets) by a direct cone lookup, pair by pair, as
    an n*n list of lists."""
    incl = [(p.up[i] if upward else p.down[i]) | 1 << i for i in range(p.n)]
    by_cone = {c: i for i, c in enumerate(incl)}
    return [[by_cone.get(a & b) for b in incl] for a in incl]


def bowtie():
    # 0, 1 < 2, 3: the pair 0, 1 has no join and 2, 3 no meet
    return P.build(4, "covers", [(0, 2), (0, 3), (1, 2), (1, 3)])


class TestImmutableTables:
    @pytest.mark.parametrize("make", [
        lambda: D.downset_lattice(F.delta(2)),
        lambda: P.dual(D.downset_lattice(F.delta(2))),
        lambda: json_copy(F.finite_powerset(4)),
        bowtie,
    ], ids=["set_lattice", "dual", "json_b4", "bowtie"])
    def test_tables_are_shared_and_reject_assignment(self, make):
        p = make()
        for get in (p.join_table, p.meet_table):
            table = get()
            assert get() is table
            assert type(table) is tuple and all(type(row) is tuple for row in table)
            with pytest.raises(TypeError):
                table[0] = table[1]
            with pytest.raises(TypeError):
                table[0][0] = 1
            assert get() is table

    @settings(max_examples=60, deadline=None)
    @given(random_posets(max_n=7))
    def test_tables_keep_their_values(self, q):
        for p in (q, D.downset_lattice(q)):
            for upward, table in ((True, p.join_table()), (False, p.meet_table())):
                assert table == tuple(map(tuple, cone_lookup_table(p, upward)))
                assert table == SU.bound_oracle(p, upward)


@st.composite
def lattices_and_posets(draw):
    """A suites.random_lattice draw (all three outcomes of the structure
    report), or a random poset, with its indices shuffled or not."""
    if draw(st.booleans()):
        _kind, p = SU.random_lattice(Random(draw(st.integers(0, 1 << 30))), 4)
        if draw(st.booleans()):
            return json_copy(p)
        # a copy drops the tables built while drawing; set lattices keep
        # the coordinates they were built with
        return p if p._join is p._meet is None else P.Poset(p.n, p.up, p.labels)
    return draw(st.one_of(random_posets(max_n=7, min_n=1), permuted_posets(max_n=7)))


def shuffled_copy(p, perm):
    """p rebuilt from its covers with element i renamed perm[i]."""
    return P.build(p.n, "covers", [(perm[a], perm[b]) for a, b in p.cover_pairs()])


@st.composite
def coordinate_posets(draw):
    """A distributive lattice: a downset lattice or a product of chains,
    then one or two of a JSON copy, the dual, a relabelled copy and a copy
    whose index order is in general not a linear extension."""
    if draw(st.booleans()):
        p = D.downset_lattice(draw(random_posets(max_n=5)))
    else:
        p = P.chain(draw(st.integers(1, 4)))
        for _ in range(draw(st.integers(0, 2))):
            p = P.direct_product(p, P.chain(draw(st.integers(1, 4))))
    for _ in range(draw(st.integers(1, 2))):
        view = draw(st.sampled_from(["json", "dual", "relabel", "shuffle", "none"]))
        if view == "json":
            p = json_copy(p)
        elif view == "dual":
            p = P.dual(p)
        elif view == "relabel":
            p = P.Poset(p.n, p.up, [f"x{i}" for i in range(p.n)])
        elif view == "shuffle":
            p = shuffled_copy(p, draw(st.permutations(range(p.n))))
    return p


class TestCoordinateTables:
    @settings(max_examples=150, deadline=None)
    @given(coordinate_posets())
    def test_tables_from_coordinates_match_the_oracle(self, p):
        assert p.birkhoff() is not None
        assert p.join_table() == SU.bound_oracle(p, True)
        assert p.meet_table() == SU.bound_oracle(p, False)

    def test_shuffled_index_order_is_not_a_linear_extension(self):
        # the rows still run bottom up (top down), in linear-extension order
        b3 = F.finite_powerset(3)
        p = shuffled_copy(b3, [7, 6, 5, 4, 3, 2, 1, 0])
        assert p.linear_extension()[0] == 7 and p.birkhoff() is not None
        assert p.join_table() == SU.bound_oracle(p, True)
        assert p.meet_table() == SU.bound_oracle(p, False)

    @settings(max_examples=100, deadline=None)
    @given(lattices_and_posets())
    def test_posets_without_coordinates_get_cone_tables(self, p):
        if p.birkhoff() is None:
            for upward, table in ((True, p.join_table()), (False, p.meet_table())):
                assert table == tuple(map(tuple, cone_lookup_table(p, upward)))
                assert table == SU.bound_oracle(p, upward)


class TestBirkhoff:
    @given(lattices_and_posets())
    def test_coordinates_exactly_on_distributive_lattices(self, p):
        coords = p.birkhoff()
        # join and meet prefer a built table: read them with none built
        got = [([p.join(i, j) for j in range(p.n)], [p.meet(i, j) for j in range(p.n)],
                p.joins(i, range(p.n)), p.meets(i, range(p.n))) for i in range(p.n)]
        assert p._join is None and p._meet is None or coords is None
        assert (coords is not None) == (SU.structure_oracle(p)[0] is True)
        if coords is not None:
            joins, meets = SU.bound_oracle(p, True), SU.bound_oracle(p, False)
            assert got == [(list(joins[i]), list(meets[i])) * 2 for i in range(p.n)]

    @pytest.mark.parametrize("name", ["M3", "N5", "S7", "S7_dual"])
    def test_named_non_distributive_lattices_have_none(self, name):
        assert SU.small_lattices()[name].birkhoff() is None

    @pytest.mark.parametrize("p", [P.antichain(2), F.delta(3), F.gamma(3),
                                   F.delta(4), F.gamma(4)])
    def test_non_lattices_have_none(self, p):
        assert p.birkhoff() is None

    def test_a_bijection_onto_the_downsets_of_j_is_not_enough(self):
        # 0 < a, b < x and a < d < y, b < y: J = {a, b, d}, and c maps the six
        # elements onto the six downsets of J, but c(x) = {a, b} lies inside
        # c(y) = {a, b, d} while x is not below y
        p = P.build(6, "covers", [(0, 1), (0, 2), (1, 3), (2, 3), (1, 4), (2, 5), (4, 5)])
        assert p.birkhoff() is None

    @given(random_posets(max_n=6, min_n=1))
    def test_json_copy_answers_like_the_mask_built_lattice(self, q):
        lat = D.downset_lattice(q)
        back = json_copy(lat)
        assert back.birkhoff() is not None
        for i in range(lat.n):
            assert back.joins(i, range(lat.n)) == lat.joins(i, range(lat.n))
            assert back.meets(i, range(lat.n)) == lat.meets(i, range(lat.n))
        assert back._join is lat._join is back._meet is lat._meet is None

    def test_set_lattices_run_no_test(self, monkeypatch):
        monkeypatch.setattr(P, "_birkhoff_coordinates", None)
        lat = D.downset_lattice(F.delta(2))
        coords, index = lat.birkhoff()
        assert coords == tuple(D._downset_masks(F.delta(2)))
        assert index == {m: i for i, m in enumerate(coords)}
        assert lat.join_table() == SU.bound_oracle(lat, True)


class TestEmptyPoset:
    """The empty poset is a distributive lattice with no elements: every
    law holds vacuously, and Poset.birkhoff says so like structure_report."""

    def test_coordinates_tables_and_report(self):
        for p in (P.antichain(0), json_copy(P.antichain(0))):
            assert p.birkhoff() == ((), {})
            assert p.join_table() == () and p.meet_table() == ()
            assert S.structure_report(p) == S.StructureReport(True, True, True, True, True)
            assert p.linear_extension() == []

    def test_pipeline_finds_no_independent_set(self):
        from ordercraft.errors import IndependenceTooSmall
        with pytest.raises(IndependenceTooSmall, match="^no independent set of size 4$"):
            C.thm8_pipeline(P.antichain(0), 4)


class TestBirkhoffCache:
    @pytest.fixture
    def tests_run(self, monkeypatch):
        runs, real = [], P._birkhoff_coordinates

        def counting(p):
            runs.append(p)
            return real(p)

        monkeypatch.setattr(P, "_birkhoff_coordinates", counting)
        return runs

    def test_computed_once_per_poset(self, tests_run):
        posets = [json_copy(D.downset_lattice(F.delta(2))), SU.small_lattices()["N5"]]
        for p in posets:
            for _ in range(2):
                p.birkhoff(), p.join(0, 1), p.meets(1, [0, 1]), S.structure_report(p)
        assert [id(p) for p in tests_run] == [id(p) for p in posets]

    def test_a_poset_without_coordinates_caches_that(self, tests_run):
        p = SU.small_lattices()["M3"]
        assert p.birkhoff() is None and p._birkhoff is False
        assert p.birkhoff() is None and tests_run == [p]

    def test_views_do_not_inherit_them(self):
        lat = json_copy(D.downset_lattice(F.delta(2)))
        assert lat.birkhoff() is not None
        views = (P.dual(lat), P.Poset(lat.n, lat.up, lat.labels),
                 P.induced(lat, range(lat.n)))
        assert all(view._birkhoff is None for view in views)
        # the dual's coordinates are its own: its join is the original meet
        dual = views[0]
        assert all(dual.join(i, j) == lat.meet(i, j)
                   for i in range(lat.n) for j in range(lat.n))

    def test_distributive_host_from_json_builds_no_table(self, monkeypatch):
        loaded, real = [], P.from_json_dict

        def loading(data):
            loaded.append(real(data))
            return loaded[-1]

        monkeypatch.setattr(P, "from_json_dict", loading)
        host = P.from_json_dict(P.to_json_dict(D.downset_lattice(P.antichain(6))))
        assert S.structure_report(host).is_distributive
        cert = C.thm8_pipeline(host, 6)
        assert C.certificate_valid(cert)
        assert len(loaded) == 2 and loaded[1].n == host.n
        assert all(p._join is None and p._meet is None for p in loaded)


def _selections(p, data):
    """A list of distinct elements of p: any order, a contiguous range (one
    index run), or a descending list (runs of one)."""
    if not p.n:
        return []
    kind = data.draw(st.sampled_from(["any", "range", "descending"]))
    if kind == "range":
        a = data.draw(st.integers(0, p.n))
        return list(range(a, data.draw(st.integers(a, p.n))))
    sub = data.draw(st.lists(st.sampled_from(range(p.n)), unique=True))
    return sorted(sub, reverse=True) if kind == "descending" else sub


def assert_induced_rows(p, sub):
    """induced(p, sub) against the restricted strict order, pair by pair."""
    # the rows alone in the assertions: a wrong row would hang repr(q)
    q = P.induced(p, sub)
    up, down, labels = q.up, q.down, q.labels
    assert up == tuple(sum(1 << b for b, j in enumerate(sub) if p.lt(i, j))
                       for i in sub)
    assert down == tuple(sum(1 << b for b, j in enumerate(sub) if p.lt(j, i))
                         for i in sub)
    assert labels == tuple(p.label(e) for e in sub)


class TestInduced:
    @given(permuted_posets(max_n=7), st.data())
    def test_matches_the_restricted_relation(self, p, data):
        assert_induced_rows(p, _selections(p, data))

    @pytest.mark.parametrize("p", [P.chain(4), F.shape("finite_powerset", 2),
                                   P.direct_sum(P.chain(2), P.chain(2))],
                             ids=["chain4", "B_2", "two_chains"])
    def test_every_selection_of_a_small_poset(self, p):
        # every order and every mix of runs, where a cone meets several runs
        for k in range(p.n + 1):
            for sub in itertools.permutations(range(p.n), k):
                assert_induced_rows(p, sub)

    def test_rejects_repeated_elements(self):
        with pytest.raises(ValueError, match="distinct"):
            P.induced(P.chain(3), [0, 2, 0])
        with pytest.raises(ValueError, match="distinct"):
            P.induced(P.chain(3), [1, 2, 1, 2])


class TestInclusionOrder:
    @given(st.lists(st.integers(0, 255), unique=True, max_size=12), st.integers(0, 8))
    @example([], 0)
    @example([0], 0)
    @example([0, 1, 9], 8)
    def test_matches_pairwise_inclusion(self, masks, shift):
        # masks over up to 8 ground elements, shifted so that bits below and
        # between the used ones go unused
        masks = [m << (8 * shift) for m in masks]
        # the masks alone in the assertions: a wrong down would hang repr(q)
        q = P.inclusion_order(masks)
        up, down = q.up, q.down
        assert up == tuple(sum(1 << j for j, b in enumerate(masks) if i != j and a & b == a)
                           for i, a in enumerate(masks))
        assert down == P.Poset(len(up), up).down


class TestValidate:
    @given(permuted_posets(max_n=6), random_posets(max_n=4), st.data())
    def test_every_constructor_keeps_down_the_transpose(self, a, b, data):
        pairs = sorted(relation_pairs(a))
        sub = _selections(a, data)
        made = [
            P.build(a.n, "leq", pairs),
            P.build(a.n, "covers", a.cover_pairs()),
            P.dual(a),
            P.add_bottom(a),
            P.direct_sum(a, b),
            P.direct_sum(b, P.dual(a)),
            P.direct_product(a, b),
            P.induced(a, sub),
            P.inclusion_order([a.down_incl(x) for x in range(a.n)]),
            P.inclusion_order(downset_masks(b)),
            P.set_lattice(b, downset_masks(b)),
            P.dual(P.set_lattice(b, downset_masks(b))),
        ]
        for q in made:
            P.validate(q)
            assert q.down == P.Poset(q.n, q.up).down

    def test_rejects_down_that_is_not_the_transpose(self):
        c3 = P.chain(3)
        with pytest.raises(ValueError, match="misses"):
            P.validate(P.Poset(3, c3.up, None, (0, 1, 1)))
        with pytest.raises(ValueError, match="does not"):
            P.validate(P.Poset(3, c3.up, None, (2, 1, 3)))

    def test_rejects_cycles(self):
        with pytest.raises(CyclicRelation):
            P.validate(P.Poset(2, (2, 1)))


def _fresh(p):
    """p without its caches: nonempty_downset_lattice keeps its answer."""
    return P.Poset(p.n, p.up, None, p.down)


def _every_other_downset(q):
    lat = D.downset_lattice(q)
    return P.induced(lat, list(range(lat.n))[::-2])


# the constructors that hand Poset a label source, from a poset q of up to 5
# elements and one r of up to 3
LAZY_LABELS = {
    "downset_lattice": lambda q, r: D.downset_lattice(q),
    "nonempty_downset_lattice": lambda q, r: D.nonempty_downset_lattice(q)[1],
    "induced": lambda q, r: _every_other_downset(q),
    "direct_product": lambda q, r: P.direct_product(D.downset_lattice(q), r),
    "direct_sum": lambda q, r: P.direct_sum(r, D.downset_lattice(q)),
}


class TestLazyLabels:
    @pytest.mark.parametrize("dual", [False, True], ids=["plain", "dual"])
    @pytest.mark.parametrize("name", sorted(LAZY_LABELS))
    @settings(max_examples=25)
    @given(random_posets(max_n=5), random_posets(max_n=3))
    def test_every_read_matches_eager_labels(self, name, dual, q, r):
        def make():
            p = LAZY_LABELS[name](_fresh(q), _fresh(r))
            p = P.dual(p) if dual else p
            assert callable(p._labels)  # nothing has read them yet
            return p

        eager = make()
        eager = P.Poset(eager.n, eager.up, list(eager.labels), eager.down)
        assert make().labels == eager.labels
        assert [make().label(i) for i in range(eager.n)] == list(eager.labels)
        assert make() == eager and eager == make()
        assert hash(make()) == hash(eager)
        assert P.to_json_dict(make()) == P.to_json_dict(eager)
        assert P.to_json_dict(make())["labels"] == list(eager.labels)

    def test_dual_of_read_labels_keeps_them(self):
        lat = D.downset_lattice(P.antichain(2))
        assert lat.labels == ("{}", "{0}", "{1}", "{0,1}")
        assert P.dual(lat)._labels == lat.labels

    def test_a_caller_list_is_checked_at_construction(self):
        c2 = P.chain(2)
        with pytest.raises(P.ArityMismatch, match="expected 2 labels, got 1"):
            P.Poset(2, c2.up, ["a"])
        with pytest.raises(P.ArityMismatch):
            P.Poset(2, c2.up, ["a", "b", "c"])
        with pytest.raises(P.ArityMismatch):
            P.inclusion_order([0, 1], ["x"])
        with pytest.raises(P.ArityMismatch):
            P.set_lattice(P.chain(1), [0, 1], [])

    def test_a_source_is_checked_on_first_read(self):
        p = P.Poset(2, P.chain(2).up, lambda: ["a"])
        with pytest.raises(P.ArityMismatch, match="expected 2 labels, got 1"):
            p.labels


class TestSerialization:
    @given(random_posets())
    def test_json_round_trip(self, p):
        assert P.from_json_dict(json.loads(P.to_json(p))) == p

    def test_labels_preserved(self):
        p = P.build(2, "covers", [(0, 1)], labels=["lo", "hi"])
        assert P.from_json_dict(json.loads(P.to_json(p))).labels == ("lo", "hi")

    def test_canonical_pairs_are_sorted(self):
        p = P.build(3, "covers", [(1, 2), (0, 1)])
        data = P.to_json_dict(p)
        assert data["relation"]["pairs"] == sorted(data["relation"]["pairs"])

    def test_dot_output_stable(self):
        p = P.build(3, "covers", [(0, 1), (0, 2)])
        assert P.to_dot(p) == P.to_dot(p)
        assert "rankdir=BT" in P.to_dot(p)
