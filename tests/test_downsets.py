"""Downset/ideal enumeration and the derived lattice constructions."""

import itertools
import json
import sys

import pytest
from hypothesis import given, settings, strategies as st

from ordercraft import downsets as D
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import semilattice as S
from ordercraft import suites as SU
from ordercraft.suites import bound_oracle
from ordercraft.errors import BudgetExceeded

from test_poset import cone_lookup_table, random_posets


def brute_downsets(p):
    """Oracle: filter all subsets by downward closure."""
    out = []
    for r in range(p.n + 1):
        for combo in itertools.combinations(range(p.n), r):
            s = set(combo)
            if all(all(p.lt(y, x) is False or y in s for y in range(p.n))
                   for x in s):
                out.append(frozenset(s))
    return set(out)


def brute_height(p):
    """Oracle: longest chain by recursion over every strictly larger element."""
    memo = {}

    def longest(i):  # elements in a longest chain starting at i
        if i not in memo:
            memo[i] = 1 + max((longest(j) for j in range(p.n) if p.lt(i, j)), default=0)
        return memo[i]

    return max((longest(i) for i in range(p.n)), default=0)


def assert_set_tables(lat):
    """A set lattice's tables against a cone lookup, against the order
    scan, and against the swapped tables of its dual."""
    dual = P.dual(lat)
    for upward, table, dual_table in ((True, lat.join_table(), dual.meet_table()),
                                      (False, lat.meet_table(), dual.join_table())):
        assert table == tuple(map(tuple, cone_lookup_table(lat, upward)))
        assert table == bound_oracle(lat, upward)
        assert dual_table == table == bound_oracle(dual, not upward)


def brute_ideals(p):
    """Oracle: downsets that are non-empty and up-directed, by definition."""
    out = set()
    for s in brute_downsets(p):
        if not s:
            continue
        if all(any(p.leq(a, c) and p.leq(b, c) for c in s) for a in s for b in s):
            out.add(s)
    return out


class TestDownClosure:
    def test_chain_top(self):
        d = D.down_closure(P.chain(3), [2])
        assert d.members == frozenset({0, 1, 2})

    def test_empty(self):
        assert D.down_closure(P.chain(3), []).members == frozenset()

    def test_diamond_two_middles(self):
        diamond = P.build(4, "covers", [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert D.down_closure(diamond, [1, 2]).members == frozenset({0, 1, 2})

    @given(random_posets(max_n=7))
    def test_result_is_downward_closed(self, p):
        if p.n:
            d = D.down_closure(p, [p.n - 1])
            for x in d.members:
                for y in range(p.n):
                    if p.lt(y, x):
                        assert y in d.members


class TestEnumeration:
    def test_antichain_count(self):
        assert len(D.enumerate_downsets(P.antichain(2)).sets) == 4

    def test_chain_count(self):
        for n in range(5):
            assert len(D.enumerate_downsets(P.chain(n)).sets) == n + 1

    def test_diamond_count_frozen_from_oracle(self):
        diamond = P.build(4, "covers", [(0, 1), (0, 2), (1, 3), (2, 3)])
        assert len(brute_downsets(diamond)) == 6
        assert len(D.enumerate_downsets(diamond).sets) == 6

    @given(random_posets(max_n=7))
    def test_matches_brute_force(self, p):
        got = {d.members for d in D.enumerate_downsets(p).sets}
        assert got == brute_downsets(p)

    @given(random_posets(max_n=8))
    def test_mask_order_is_member_order(self, p):
        # the int key the enumeration sorts by against the (size, sorted
        # members) order, on the downsets of p and on every subset of its
        # elements (the downsets of the antichain)
        for q in (p, P.antichain(p.n)):
            masks = D._downset_masks(q)
            assert set(masks) == {sum(1 << x for x in s) for s in brute_downsets(q)}
            assert masks == sorted(masks, key=lambda m: (
                bin(m).count("1"), [x for x in range(q.n) if (m >> x) & 1]))

    @given(random_posets(max_n=7))
    def test_canonical_order(self, p):
        sets = D.enumerate_downsets(p).sets
        keys = [(len(d.members), d.sorted_members()) for d in sets]
        assert keys == sorted(keys)

    def test_budget(self, monkeypatch):
        anti = P.antichain(10)
        monkeypatch.setenv("OC_BUDGET", "100")
        with pytest.raises(BudgetExceeded):
            D.enumerate_downsets(anti)

    @given(random_posets(max_n=7))
    def test_ideals_match_definition_oracle(self, p):
        got = {frozenset(P.bits(m)) for m in SU.enumerate_ideals(p)}
        assert got == brute_ideals(p)

    @given(random_posets(max_n=8))
    def test_ideals_match_a_directedness_check_on_leq(self, p):
        # every subset, tested from leq alone: downward closed, non-empty,
        # and each two members below a common member; in canonical order
        def directed_downset(s):
            return (s and all(x in s for y in s for x in range(p.n) if p.leq(x, y))
                    and all(any(p.leq(a, c) and p.leq(b, c) for c in s)
                            for a in s for b in s))

        want = [c for r in range(p.n + 1) for c in itertools.combinations(range(p.n), r)
                if directed_downset(set(c))]
        ideals = SU.enumerate_ideals(p)
        assert [tuple(P.bits(m)) for m in ideals] == want
        assert [d.mask for d in D.enumerate_downsets(p).sets
                if SU._is_ideal_mask(p, d.mask)] == ideals

    @given(random_posets(max_n=8))
    def test_ideals_are_exactly_principal(self, p):
        ideals = SU.enumerate_ideals(p)
        assert len(ideals) == p.n
        assert set(ideals) == {D.principal(p, x).mask for x in range(p.n)}

    @given(random_posets(max_n=8))
    def test_principal_ideals_match_the_oracle(self, p):
        # the n cones, sorted, against the downsets filtered by definition
        got, want = D.principal_ideals(p), SU.enumerate_ideals(p)
        assert [d.mask for d in got.sets] == want and got.role == "ideals"
        assert got.to_json() == json.dumps({
            "host": P.to_json_dict(p), "sets": [list(P.bits(m)) for m in want],
            "role": "ideals"}, sort_keys=True)

    def test_principal_ideals_enumerate_nothing(self, monkeypatch):
        monkeypatch.setenv("OC_BUDGET", "100")
        b6 = F.finite_powerset(6)
        with pytest.raises(BudgetExceeded):
            SU.enumerate_ideals(b6)
        ideals = D.principal_ideals(b6)
        assert [d.mask for d in ideals.sets] == [
            b6.down_incl(x) for x in sorted(range(64), key=lambda x: (
                b6.down_incl(x).bit_count(), list(P.bits(b6.down_incl(x)))))]

    @given(random_posets(max_n=6))
    def test_nonempty_lattice_matches_the_family(self, p):
        masks, lattice = D.nonempty_downset_lattice(p)
        assert masks == tuple(d.mask for d in D.enumerate_downsets(p).sets if d.members)
        # the lattice is an inclusion_order; set_lattice reads the order
        # off its covers instead
        full = D.downset_lattice(p)
        ref = P.induced(full, range(1, full.n))
        assert lattice == ref and lattice.down == ref.down
        assert D.nonempty_downset_lattice(p)[1] is lattice

    def test_nonempty_lattice_hit_honours_the_budget(self, monkeypatch):
        v3 = F.v_family(3)  # the bottom, then any subset of the 3 atoms: 9 downsets
        assert len(D.nonempty_downset_lattice(v3)[0]) == 8
        monkeypatch.setenv("OC_BUDGET", "9")
        assert len(D.nonempty_downset_lattice(v3)[0]) == 8
        monkeypatch.setenv("OC_BUDGET", "8")
        with pytest.raises(BudgetExceeded, match="more than 8 downsets"):
            D.nonempty_downset_lattice(v3)
        with pytest.raises(BudgetExceeded, match="more than 8 downsets"):
            D.enumerate_downsets(v3)

    def test_chain_and_antichain_ideals(self):
        assert SU.enumerate_ideals(P.chain(3)) == [0b1, 0b11, 0b111]
        assert SU.enumerate_ideals(P.antichain(2)) == [0b01, 0b10]


class TestDownsetLattice:
    @settings(max_examples=60, deadline=None)
    @given(random_posets(max_n=7))
    def test_matches_inclusion_order(self, p):
        # the set-built lattice against the pairwise inclusion order of the
        # same masks, whose coordinates are computed from its order
        family = D.enumerate_downsets(p)
        lat = D.downset_lattice(p)
        labels = ["{" + ",".join(map(str, d.sorted_members())) + "}" for d in family.sets]
        ref = P.inclusion_order([d.mask for d in family.sets], labels)
        assert lat == ref and lat.down == ref.down and lat.labels == ref.labels
        assert lat.cover_pairs() == ref.cover_pairs()
        assert lat.linear_extension() == ref.linear_extension()
        assert lat.height() == ref.height()
        assert lat.join_table() == ref.join_table()
        assert lat.meet_table() == ref.meet_table()
        P.validate(lat)

    def test_json_round_trip_keeps_the_tables(self):
        lat = D.downset_lattice(F.delta(3))
        back = P.from_json_dict(P.to_json_dict(lat))
        assert back == lat
        assert back.join_table() == lat.join_table()
        assert back.meet_table() == lat.meet_table()

    @pytest.mark.parametrize("base", [
        P.antichain(6),
        # 48 elements: a list row built by a comprehension would keep spare capacity
        P.direct_sum(P.antichain(4), P.chain(2)),
        # 11 elements: a list row from list(range(11)) would keep spare capacity
        P.chain(10),
    ])
    def test_table_rows_have_exact_size(self, base):
        # spare capacity in each row of two n*n tables is megabytes at n = 2048
        lat = D.downset_lattice(base)
        exact = sys.getsizeof((None,) * lat.n)
        for table in (lat.join_table(), lat.meet_table()):
            assert [sys.getsizeof(row) for row in table] == [exact] * lat.n

    @settings(max_examples=30, deadline=None)
    @given(random_posets(max_n=7))
    def test_set_tables_match_cone_path_and_oracle(self, p):
        assert_set_tables(D.downset_lattice(p))

    @pytest.mark.parametrize("n", range(7))
    def test_powerset_tables_match_cone_path_and_oracle(self, n):
        assert_set_tables(F.finite_powerset(n))

    @settings(max_examples=40, deadline=None)
    @given(random_posets(max_n=7))
    def test_height_matches_longest_chain_oracle(self, p):
        # index order is a linear extension of p and of its downset lattice,
        # but not of their duals
        lat = D.downset_lattice(p)
        for q in (p, P.dual(p), lat, P.dual(lat)):
            assert q.height() == brute_height(q)

    def test_antichain_gives_powerset(self):
        lat = D.downset_lattice(P.antichain(3))
        assert P.is_isomorphic(lat, F.finite_powerset(3)) is not None

    def test_chain_gives_chain(self):
        lat = D.downset_lattice(P.chain(3))
        assert P.is_isomorphic(lat, P.chain(4)) is not None

    @settings(max_examples=25, deadline=None)
    @given(random_posets(max_n=6))
    def test_distributive(self, p):
        rep = S.structure_report(D.downset_lattice(p))
        assert rep.is_lattice and rep.is_distributive

    @settings(max_examples=20, deadline=None)
    @given(random_posets(max_n=4))
    def test_ideals_of_downset_lattice_are_principal(self, p):
        # J(I(P)) ~ I(P): ideals of the lattice are principal and count |I(P)|
        lat = D.downset_lattice(p)
        assert len(SU.enumerate_ideals(lat)) == lat.n

    @settings(max_examples=20, deadline=None)
    @given(random_posets(max_n=5), random_posets(max_n=5))
    def test_sum_multiplies_downsets(self, a, b):
        la, lb = D.downset_lattice(a), D.downset_lattice(b)
        lsum = D.downset_lattice(P.direct_sum(a, b))
        assert lsum.n == la.n * lb.n
        assert P.is_isomorphic(lsum, P.direct_product(la, lb)) is not None

    @settings(max_examples=20, deadline=None)
    @given(random_posets(max_n=4), random_posets(max_n=4))
    def test_ordinal_sum_composes_principal_posets(self, a, b):
        # principal-downset posets compose as the ordinal sum of the parts
        total = P.lexicographic_sum(P.chain(2), [a, b])
        ideal_poset = P.inclusion_order(SU.enumerate_ideals(total))
        parts = P.lexicographic_sum(
            P.chain(2),
            [P.inclusion_order(SU.enumerate_ideals(a)),
             P.inclusion_order(SU.enumerate_ideals(b))])
        assert P.is_isomorphic(ideal_poset, parts) is not None


def brute_union_closure(masks):
    """Oracle: add all pairwise unions until nothing changes."""
    out = set(masks)
    while True:
        more = {a | b for a in out for b in out} - out
        if not more:
            return out
        out |= more


class TestUnionClosure:
    @given(st.sets(st.integers(min_value=0, max_value=255), max_size=6),
           st.sets(st.integers(min_value=0, max_value=255), max_size=4))
    def test_matches_brute_force_fixpoint(self, base, new):
        closed = brute_union_closure(base)
        # set per example: @given runs every example inside one test call
        with pytest.MonkeyPatch.context() as mp:
            mp.setenv("OC_BUDGET", "256")
            assert SU.union_closure(closed, new) == brute_union_closure(closed | new)
            assert SU.union_closure(set(), base) == closed

    def test_budget_counts_added_unions(self, monkeypatch):
        singletons = [1 << i for i in range(4)]
        monkeypatch.setenv("OC_BUDGET", "15")
        assert len(SU.union_closure(set(), singletons)) == 15
        monkeypatch.setenv("OC_BUDGET", "14")
        with pytest.raises(BudgetExceeded, match="more than 14 unions"):
            SU.union_closure(set(), singletons)
