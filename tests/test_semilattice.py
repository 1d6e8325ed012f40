"""Structure detection, irreducibles, independence, embeddings, and the
certified-map machinery."""

import itertools
import os
import subprocess
import sys
from random import Random

import pytest
from hypothesis import assume, given, settings, strategies as st

from ordercraft import downsets as D
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import semilattice as S
from ordercraft import suites as SU
from ordercraft.errors import (
    BaseHypothesisViolated,
    NoLeastElement,
    NotDistributive,
    NotJoinSemilattice,
    StructureMismatch,
)

from test_poset import permuted_posets, random_posets


def pentagon():
    return F.l_alpha(2)


class TestStructureReport:
    def test_powerset(self):
        rep = S.structure_report(F.finite_powerset(3))
        assert rep.is_lattice and rep.is_distributive and rep.is_modular

    def test_pentagon_not_modular(self):
        rep = S.structure_report(pentagon())
        assert rep.is_lattice
        assert rep.is_modular is False
        assert rep.is_distributive is False

    def test_antichain_neither(self):
        rep = S.structure_report(P.antichain(2))
        assert not rep.is_join_semilattice
        assert not rep.is_meet_semilattice
        assert not rep.is_lattice and rep.is_distributive is None

    def test_diamond_modular(self):
        diamond = P.direct_product(P.chain(2), P.chain(2))
        rep = S.structure_report(diamond)
        assert rep.is_modular and rep.is_distributive

    def test_m3_modular_not_distributive(self):
        # three incomparable middles between bottom and top
        m3 = P.build(5, "covers",
                     [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])
        rep = S.structure_report(m3)
        assert rep.is_lattice and rep.is_modular and not rep.is_distributive

    @given(random_posets(max_n=6))
    def test_modularity_matches_triple_law_oracle(self, p):
        rep = S.structure_report(p)
        if not rep.is_lattice:
            return
        jt, mt = p.join_table(), p.meet_table()
        oracle = all(
            jt[x][mt[y][z]] == mt[jt[x][y]][z]
            for x in range(p.n) for y in range(p.n) for z in range(p.n)
            if p.leq(x, z))
        assert rep.is_modular == oracle


NAMED = SU.small_lattices()


def pairwise_irreducibles(p):
    """Oracle: x other than the least element is join-irreducible unless two
    elements strictly below it join to x, checked over every such pair."""
    jt = p.join_table()
    bot = p.bottom()
    out = []
    for x in range(p.n):
        if x == bot:
            continue
        below = list(P.bits(p.down[x]))
        if not any(jt[a][b] == x for a in below for b in below):
            out.append(x)
    return out


@st.composite
def join_closed_hosts(draw):
    """Posets holding every binary join: random union-closed families,
    downset lattices, and omega_star_grid, which has no least element."""
    kind = draw(st.sampled_from(["semilattice", "downsets", "grid"]))
    if kind == "semilattice":
        return SU.random_join_semilattice(draw(st.integers(1, 12)),
                                          draw(st.integers(0, 1 << 20)))
    if kind == "downsets":
        return D.downset_lattice(draw(random_posets(max_n=6)))
    return F.omega_star_grid(draw(st.integers(1, 6)))


@st.composite
def lattices(draw):
    """Downset lattices of random posets and their duals, products with M3,
    N5, S7 and its dual, and random posets with a bottom and top added that
    are lattices."""
    kind = draw(st.sampled_from(["downsets", "dual", "product", "bounded"]))
    if kind in ("downsets", "dual"):
        lat = D.downset_lattice(draw(random_posets(max_n=5)))
        return P.dual(lat) if kind == "dual" else lat
    if kind == "product":
        factor = draw(st.sampled_from(sorted(NAMED)))
        other = draw(st.one_of(st.sampled_from(sorted(NAMED)).map(NAMED.get),
                               random_posets(max_n=3).map(D.downset_lattice)))
        return P.direct_product(NAMED[factor], other)
    q = draw(random_posets(max_n=6))
    bounded = P.dual(P.add_bottom(P.dual(P.add_bottom(q)), "1"))
    assume(S.structure_report(bounded).is_lattice)
    return bounded


class TestStructureKernelAgainstOracle:
    @settings(max_examples=120)
    @given(lattices())
    def test_flags_match_triple_loop_on_lattices(self, lat):
        rep = S.structure_report(lat)
        assert rep.is_lattice
        assert (rep.is_distributive, rep.is_modular) == SU.structure_oracle(lat)

    @pytest.mark.parametrize("lat, expected", [
        (P.direct_product(NAMED["M3"], P.chain(2)), (False, True)),
        (P.direct_product(pentagon(), F.finite_powerset(2)), (False, False)),
        (NAMED["S7"], (False, False)),
        (NAMED["S7_dual"], (False, False)),
        (F.finite_powerset(3), (True, True)),
        (P.chain(1), (True, True)),
    ], ids=["m3_x_2", "n5_x_b2", "s7", "s7_dual", "b3", "one_element"])
    def test_fixed_cases(self, lat, expected):
        rep = S.structure_report(lat)
        assert (rep.is_distributive, rep.is_modular) == expected
        assert SU.structure_oracle(lat) == expected

    def test_non_lattice_has_no_laws(self):
        assert SU.structure_oracle(P.antichain(2)) == (None, None)
        rep = S.structure_report(P.antichain(2))
        assert rep.is_distributive is None and rep.is_modular is None


class TestStructureReportCache:
    def test_computed_once_per_poset(self, monkeypatch):
        # the report itself is not cached, but what it reads is: a second
        # report of a poset runs no Birkhoff test and builds no table again
        tests, tables = [], []
        real_test, real_table = P._birkhoff_coordinates, P.Poset._bound_table
        monkeypatch.setattr(P, "_birkhoff_coordinates",
                            lambda p: tests.append(p) or real_test(p))
        monkeypatch.setattr(P.Poset, "_bound_table",
                            lambda p, upward: tables.append(upward) or real_table(p, upward))
        lat = D.downset_lattice(F.delta(2))
        posets = (lat, P.from_json_dict(P.to_json_dict(lat)), pentagon())
        for p in posets:
            assert S.structure_report(p) == S.structure_report(p)
        assert [id(p) for p in tests] == [id(p) for p in posets[1:]]
        assert tables == [True, False]

    def test_only_hosts_without_coordinates_build_tables(self):
        # a distributive host read from JSON reports from its coordinates;
        # the pentagon, which has none, is reported from its tables
        host = P.from_json_dict(P.to_json_dict(D.downset_lattice(F.delta(2))))
        rep = S.structure_report(host)
        assert (rep.is_lattice, rep.is_distributive, rep.is_modular) == (True, True, True)
        assert host._join is None and host._meet is None
        p = pentagon()
        S.structure_report(p)
        assert p.birkhoff() is None
        assert p._join is not None and p._meet is not None

    def test_derived_posets_do_not_inherit_the_report(self):
        # a view starts without the tables the report of p filled
        p = pentagon()
        rep = S.structure_report(p)
        views = (P.dual(p), P.Poset(p.n, p.up, [str(i) for i in range(p.n)]))
        assert all(q._join is q._meet is None for q in views)
        assert all(S.structure_report(q) == rep for q in views)

    def test_pipeline_builds_no_report(self, monkeypatch):
        # thm8_pipeline asks Poset.birkhoff whether its host is distributive
        from ordercraft import constructions as C
        built = []
        monkeypatch.setattr(S, "StructureReport", lambda *args: built.append(args))
        mask_built = D.downset_lattice(F.delta(3))
        for host in (mask_built, P.from_json_dict(P.to_json_dict(mask_built))):
            assert C.certificate_valid(C.thm8_pipeline(host, 4))
        assert built == []


class TestDistributiveHost:
    """The pipeline, which needs a distributive host, asks Poset.birkhoff,
    so a host without coordinates is refused before any table is built."""

    @pytest.fixture(params=["N5xB2", "M3"])
    def host(self, request):
        if request.param == "M3":
            return SU.small_lattices()["M3"]
        return P.direct_product(pentagon(), F.finite_powerset(2))

    def test_pipeline_refuses(self, host):
        from ordercraft import constructions as C
        with pytest.raises(NotDistributive, match="^host must be a distributive lattice$"):
            C.thm8_pipeline(host, 4)
        assert host._join is None and host._meet is None


class TestIrreducibles:
    def test_powerset_atoms(self):
        b3 = F.finite_powerset(3)
        assert S._join_irreducibles_no_zero(b3) == [1, 2, 4]
        assert SU.join_primes(b3) == [1, 2, 4]

    def test_pentagon_primes_differ(self):
        p = pentagon()
        # oracle: direct check of both definitions over all elements
        bot = p.bottom()
        irr = [x for x in range(p.n) if x != bot and not any(
            p.join(a, b) == x
            for a in range(p.n) for b in range(p.n)
            if p.lt(a, x) and p.lt(b, x))]
        pri = [x for x in range(p.n) if x != bot and all(
            p.leq(x, a) or p.leq(x, b)
            for a in range(p.n) for b in range(p.n)
            if p.leq(x, p.join(a, b)))]
        assert S._join_irreducibles_no_zero(p) == irr and len(irr) == 3
        assert SU.join_primes(p) == pri and len(pri) == 2
        assert set(pri) < set(irr)

    def test_requires_least_element(self):
        grid = F.omega_star_grid(3)
        with pytest.raises(NoLeastElement):
            SU.join_primes(grid)

    def test_requires_join_semilattice(self):
        with pytest.raises(NotJoinSemilattice):
            SU.join_primes(P.antichain(2))

    @given(join_closed_hosts())
    def test_cover_count_matches_pairwise_loop(self, p):
        assert S._join_irreducibles_no_zero(p) == pairwise_irreducibles(p)

    @given(random_posets(max_n=6))
    def test_primes_subset_irreducibles_and_downset_lattice_equality(self, p):
        lat = D.downset_lattice(p)
        irr = S._join_irreducibles_no_zero(lat)
        pri = SU.join_primes(lat)
        assert set(pri) <= set(irr)
        assert pri == irr  # distributive case: equality
        fam = D.enumerate_downsets(p)
        principal = {D.principal(p, x).mask for x in range(p.n)}
        assert {fam.sets[i].mask for i in irr} == principal


def independent_by_definition(p, jt, xs) -> bool:
    """Oracle: x not<= vF for every x in xs and every nonempty F inside the
    rest, each vF folded from the join table jt."""
    for x in xs:
        rest = [y for y in xs if y != x]
        for size in range(1, len(rest) + 1):
            for fs in itertools.combinations(rest, size):
                acc = fs[0]
                for y in fs[1:]:
                    acc = jt[acc][y]
                if p.leq(x, acc):
                    return False
    return True


class TestIndependence:
    def test_powerset_atoms_independent(self):
        b4 = F.finite_powerset(4)
        assert S.find_independent_set(b4, 4) == [1, 2, 4, 8]

    def test_chain_has_no_pair(self):
        assert S.find_independent_set(P.chain(5), 2) is None

    def test_delta_columns(self):
        lat = D.downset_lattice(F.delta(2))
        got = S.find_independent_set(lat, 3)
        coords = F.delta_coords(2)
        idx = {c: i for i, c in enumerate(coords)}
        expected = {D.principal(F.delta(2), idx[(i, F.OMEGA)]).members
                    for i in range(3)}
        fam = D.enumerate_downsets(F.delta(2))
        assert {fam.sets[g].members for g in got} == expected

    @settings(max_examples=30)
    @given(random_posets(max_n=5), st.integers(min_value=1, max_value=3))
    def test_search_agrees_with_subset_oracle(self, p, k):
        lat = D.downset_lattice(p)
        oracle = any(S.is_independent(lat, list(c))
                     for c in itertools.combinations(range(lat.n), k))
        assert (S.find_independent_set(lat, k) is not None) == oracle

    @pytest.mark.parametrize("seed", range(20))
    def test_exhaustive_check_matches_the_definition(self, seed):
        # every subset of up to 4, in both orders, on a random
        # join-semilattice and a random downset lattice
        rng = Random(seed)
        for p in (SU.random_join_semilattice(rng.randint(1, 12), seed),
                  D.downset_lattice(SU.random_poset(rng.randint(1, 4), rng.random(), seed))):
            jt = SU.bound_oracle(p, True)
            for k in range(1, min(p.n, 4) + 1):
                for xs in itertools.combinations(range(p.n), k):
                    want = independent_by_definition(p, jt, xs)
                    assert S.is_independent(p, xs) == want, (p.n, xs)
                    assert S.is_independent(p, xs[::-1]) == want, (p.n, xs)


    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_search_agrees_with_subset_oracle_without_least_element(self, n, k):
        # the omega* grid is a join-semilattice with no least element, so the
        # search draws its candidates from the irreducibles of a zero-free poset
        grid = F.omega_star_grid(n)
        assert grid.bottom() is None
        oracle = any(S.is_independent(grid, list(c))
                     for c in itertools.combinations(range(grid.n), k))
        found = S.find_independent_set(grid, k)
        assert (found is not None) == oracle == (k <= 2)
        assert found is None or S.is_independent(grid, found)

    @pytest.mark.parametrize("seed", range(30))
    def test_search_is_the_first_independent_combination(self, seed):
        # the lexicographically first k-subset of the zero-free irreducibles,
        # in list order, that the exhaustive definition accepts
        rng = Random(seed)
        hosts = (SU.random_join_semilattice(rng.randint(1, 12), seed),
                 D.downset_lattice(SU.random_poset(rng.randint(1, 5), rng.random(), seed)))
        for p in hosts:
            irr = S._join_irreducibles_no_zero(p)
            for k in (2, 3, 4):
                first = next((list(c) for c in itertools.combinations(irr, k)
                              if S.is_independent(p, c)), None)
                assert S.find_independent_set(p, k) == first, (p.n, k)

    def test_budget(self, monkeypatch):
        from ordercraft.errors import BudgetExceeded
        b3, b4, b6 = (F.finite_powerset(n) for n in (3, 4, 6))
        monkeypatch.setenv("OC_BUDGET", "3")
        with pytest.raises(BudgetExceeded,
                           match="^independent-set search visited more than 3 nodes$"):
            S.find_independent_set(b6, 6)
        with pytest.raises(BudgetExceeded,
                           match="^embedding search visited more than 3 nodes$"):
            S.embedding_search(b3, b4, "order")


class TestEmbeddingSearch:
    def test_b2_join_embeds_in_b3(self):
        w = S.embedding_search(F.finite_powerset(2), F.finite_powerset(3), "join")
        assert w is not None and "join_preserving" in w.certified

    def test_pentagon_no_sublattice_of_b3(self):
        b3 = F.finite_powerset(3)
        pent = pentagon()

        # oracle: brute force over injections on 5 of 8 elements
        def brute():
            for combo in itertools.permutations(range(8), 5):
                f = list(combo)
                if all(pent.leq(i, j) == b3.leq(f[i], f[j])
                       for i in range(5) for j in range(5)) and all(
                        f[pent.join(i, j)] == b3.join(f[i], f[j]) and
                        f[pent.meet(i, j)] == b3.meet(f[i], f[j])
                        for i in range(5) for j in range(5)):
                    return True
            return False

        assert not brute()
        assert S.embedding_search(pent, b3, "sublattice") is None

    def test_pentagon_order_embeds_in_b3(self):
        assert S.embedding_search(pentagon(), F.finite_powerset(3), "order") is not None

    def test_mode_validation(self):
        with pytest.raises(StructureMismatch):
            S.embedding_search(P.antichain(2), F.finite_powerset(2), "join")

    def test_deterministic_first_witness(self):
        a = S.embedding_search(P.chain(2), F.finite_powerset(2), "order")
        b = S.embedding_search(P.chain(2), F.finite_powerset(2), "order")
        assert a.table == b.table

    @settings(max_examples=25)
    @given(random_posets(max_n=5), st.integers(min_value=1, max_value=3))
    def test_tm21_three_way_equivalence(self, p, k):
        lat = D.downset_lattice(p)
        if lat.n < 2:
            # degenerate host: a singleton is vacuously independent while the
            # two-element chain cannot inject into one element
            return
        bk = F.finite_powerset(k)
        oracle = any(S.is_independent(lat, list(c))
                     for c in itertools.combinations(range(lat.n), k))
        order_found = S.embedding_search(bk, lat, "order") is not None
        join_found = S.embedding_search(bk, lat, "join") is not None
        assert oracle == order_found == join_found


def brute_embeds(pattern, target, mode):
    """Oracle: some injection, tried as each arrangement of pattern.n target
    elements, is an order embedding that carries the mode's joins and meets."""
    pairs = [(i, j) for i in range(pattern.n) for j in range(pattern.n)]
    ops = []
    if mode in ("join", "sublattice"):
        ops.append((pattern.join_table(), target.join_table()))
    if mode in ("meet", "sublattice"):
        ops.append((pattern.meet_table(), target.meet_table()))
    return any(
        all(pattern.leq(i, j) == target.leq(f[i], f[j]) for i, j in pairs)
        and all(f[pt[i][j]] == tt[f[i]][f[j]] for pt, tt in ops for i, j in pairs)
        for f in itertools.permutations(range(target.n), pattern.n))


@st.composite
def mode_hosts(draw, mode, max_n):
    """Random posets of at most max_n elements; in the join (meet) modes a
    new top (bottom) is added so that most are semilattices, and the draw is
    kept only when the mode's tables are complete."""
    q = draw(random_posets(max_n=max_n - (mode != "order") - (mode == "sublattice")))
    if mode in ("meet", "sublattice"):
        q = P.add_bottom(q)
    if mode in ("join", "sublattice"):
        q = P.dual(P.add_bottom(P.dual(q)))
    rep = S.structure_report(q)
    assume(mode not in ("join", "sublattice") or rep.is_join_semilattice)
    assume(mode not in ("meet", "sublattice") or rep.is_meet_semilattice)
    return q


MODE_FLAGS = {
    "order": {"injective", "order_embedding", "order_preserving"},
    "join": {"injective", "order_embedding", "order_preserving", "join_preserving"},
    "meet": {"injective", "order_embedding", "order_preserving", "meet_preserving"},
    "sublattice": {"injective", "order_embedding", "order_preserving", "join_preserving",
                   "meet_preserving", "lattice_hom"},
}


class TestEmbeddingAgainstPermutations:
    @pytest.mark.parametrize("mode", S.EMBEDDING_MODES)
    @settings(max_examples=80)
    @given(data=st.data())
    def test_existence_matches_permutation_scan(self, mode, data):
        pattern = data.draw(mode_hosts(mode, 5))
        target = data.draw(mode_hosts(mode, 7))
        w = S.embedding_search(pattern, target, mode)
        assert (w is not None) == brute_embeds(pattern, target, mode)
        if w is not None:
            assert w.certified == MODE_FLAGS[mode]
            assert all(w.check_flag(flag) for flag in MODE_FLAGS[mode])

    def test_pentagon_no_sublattice_of_b6_within_budget(self, monkeypatch):
        n5, b6 = pentagon(), F.finite_powerset(6)
        monkeypatch.setenv("OC_BUDGET", "100000")
        assert S.embedding_search(n5, b6, "sublattice") is None

    def test_b5_join_embeds_in_downsets_of_delta4(self):
        w = S.embedding_search(F.finite_powerset(5), D.downset_lattice(F.delta(4)), "join")
        assert w is not None and w.check_flag("join_preserving")


def all_pairs_closure(tables, seeds):
    """Oracle: seeds closed under the tables, each new element combined with
    every element found."""
    current = set(seeds)
    frontier = list(current)
    while frontier:
        nxt = []
        for a in frontier:
            for b in list(current):
                for t in tables:
                    if t[a][b] not in current:
                        current.add(t[a][b])
                        nxt.append(t[a][b])
        frontier = nxt
    return sorted(current)


class TestGenerated:
    def test_powerset_closure_of_atoms(self):
        b3 = F.finite_powerset(3)
        assert S._phi_table(b3, [1, 2, 4])[0] == list(range(8))

    def test_empty_seed(self):
        assert S._phi_table(F.finite_powerset(2), [])[0] == []

    def test_chain_is_closed(self):
        assert S._phi_table(P.chain(4), [1, 3])[0] == [1, 3]

    def test_joins_of_meets_of_the_seeds(self):
        # {0,1} ^ {1,2,3} and {0,2} ^ {1,2,3} join to {1,2}, which joins of
        # a meet with seeds alone miss
        b4 = F.finite_powerset(4)
        want = all_pairs_closure([b4.join_table(), b4.meet_table()], [3, 5, 14])
        assert 6 in want
        assert S._phi_table(F.finite_powerset(4), [3, 5, 14])[0] == want

    @given(st.one_of(lattices(), join_closed_hosts()), st.data())
    def test_matches_the_all_pairs_closure(self, p, data):
        # the meet closure on every host with all meets, and the sublattice
        # on the distributive ones, the only hosts _phi_table is given
        seeds = data.draw(st.lists(st.integers(0, p.n - 1), max_size=4))
        fresh_p = fresh(p)
        meet_table = p.meet_table()
        if not any(None in row for row in meet_table):
            want = all_pairs_closure([meet_table], seeds)
            assert sorted(S._closure(seeds, fresh_p.meets, seeds)) == want
            assert sorted(S._closure(seeds, p.meets, seeds)) == want
        if p.birkhoff() is not None:
            want = all_pairs_closure([p.join_table(), meet_table], seeds)
            assert S._phi_table(fresh_p, seeds)[0] == want
            assert S._phi_table(p, seeds)[0] == want


class TestMapWitness:
    def test_flags_reverified_on_construction(self):
        c2 = P.chain(2)
        with pytest.raises(ValueError):
            S.MapWitness(c2, c2, (1, 0), frozenset({"order_preserving"}))

    def test_error_names_the_same_flag_under_any_hash_seed(self):
        # order_preserving and join_preserving both fail; a set of strings
        # iterates in an order that depends on the hash seed, so the flags
        # are checked in FLAGS order, after the unknown ones in sorted order
        code = ("from ordercraft import families as F, poset as P, semilattice as S\n"
                "for flags in ({'order_preserving', 'injective', 'join_preserving'},\n"
                "              {'zeta', 'order_preserving', 'alpha'}):\n"
                "    try:\n"
                "        S.MapWitness(P.chain(2), F.finite_powerset(2), (3, 0), flags)\n"
                "    except ValueError as exc:\n"
                "        print(exc)\n")
        for seed in ("1", "6"):
            proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                  text=True, env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.stdout == ("flag 'order_preserving' does not hold for this table\n"
                                   "unknown flag 'alpha'\n"), (seed, proc.stderr)

    def test_self_audit(self):
        w = S.embedding_search(F.finite_powerset(2), F.finite_powerset(3), "join")
        assert w.verify_all()

    def test_constructor_checks_each_certified_flag_once(self, monkeypatch):
        checked, real = [], S.MapWitness._check

        def counting(self, flag):
            checked.append(flag)
            return real(self, flag)

        monkeypatch.setattr(S.MapWitness, "_check", counting)
        b2 = F.finite_powerset(2)
        held = frozenset({"order_preserving", "injective", "join_preserving"})
        w = S.MapWitness(P.chain(2), b2, (0, 3), held)
        assert sorted(checked) == sorted(held)
        assert w.verify_all() and not w.check_flag("surjective")
        assert sorted(checked) == sorted(held | {"surjective"})
        # a witness never carries a flag its table fails
        for table, flag in (((0, 3), "surjective"), ((3, 0), "order_preserving")):
            with pytest.raises(ValueError, match=f"^flag '{flag}' does not hold"):
                S.MapWitness(P.chain(2), b2, table, frozenset({flag}))


def pairwise_order_flags(s, t, f):
    """Oracle: order_preserving and order_embedding by their definitions,
    over every pair of source elements."""
    pairs = [(i, j) for i in range(s.n) for j in range(s.n)]
    return (all(t.leq(f[i], f[j]) for i, j in pairs if s.leq(i, j)),
            all(s.leq(i, j) == t.leq(f[i], f[j]) for i, j in pairs))


def order_flags(s, t, f):
    w = S.MapWitness(s, t, tuple(f))
    return w.check_flag("order_preserving"), w.check_flag("order_embedding")


class TestOrderFlagsAgainstPairwise:
    @given(permuted_posets(max_n=7), permuted_posets(max_n=7), st.data())
    def test_random_tables(self, s, t, data):
        # arbitrary tables: mostly neither injective nor monotone
        assume(t.n > 0 or s.n == 0)
        f = data.draw(st.lists(st.integers(0, max(t.n - 1, 0)),
                               min_size=s.n, max_size=s.n))
        assert order_flags(s, t, f) == pairwise_order_flags(s, t, f)

    @given(permuted_posets(max_n=7), st.data())
    def test_identity_into_an_extension(self, s, data):
        # the identity into the same order with pairs added along a linear
        # extension preserves order, and embeds only when nothing was added
        pos = {e: k for k, e in enumerate(s.linear_extension())}
        extra = data.draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6))))
        extra = [(a, b) for a, b in extra if a < s.n and b < s.n and pos[a] < pos[b]]
        pairs = [(i, j) for i in range(s.n) for j in P.bits(s.up[i])]
        t = P.build(s.n, "leq", pairs + extra)
        f = list(range(s.n))
        assert order_flags(s, t, f) == pairwise_order_flags(s, t, f)
        assert order_flags(s, t, f) == (True, t.up == s.up)

    @given(permuted_posets(max_n=7), st.data())
    def test_rank_onto_a_chain(self, s, data):
        # the rank (longest chain below) is monotone and, on a non-chain,
        # not injective; a permutation of it is in general neither
        rank = [0] * s.n
        for i in s.linear_extension():
            rank[i] = max([rank[j] + 1 for j in P.bits(s.down[i])], default=0)
        t = P.chain(s.n)
        perm = data.draw(st.permutations(range(s.n)))
        for f in (rank, [perm[r] for r in rank], perm):
            assert order_flags(s, t, f) == pairwise_order_flags(s, t, f)
        assert order_flags(s, t, rank)[0]

    def test_collapsing_two_incomparables_is_no_embedding(self):
        v = P.build(3, "covers", [(0, 1), (0, 2)])
        c2 = P.chain(2)
        assert order_flags(v, c2, [0, 1, 1]) == (True, False)
        assert order_flags(v, c2, [1, 0, 0]) == (False, False)
        # a constant map preserves order: f(i) <= f(j) holds with equality
        assert order_flags(c2, c2, [0, 0]) == (True, False)


def pairwise_bound_flags(s, t, f):
    """Oracle: join_preserving and meet_preserving by their definitions, over
    every pair of source elements, read from the tables."""
    out = []
    for st_, tt in ((s.join_table(), t.join_table()), (s.meet_table(), t.meet_table())):
        out.append(all(st_[i][j] is not None and tt[f[i]][f[j]] is not None
                       and f[st_[i][j]] == tt[f[i]][f[j]]
                       for i in range(s.n) for j in range(s.n)))
    return tuple(out)


def fresh(p):
    """A copy of p with no tables, coordinates or masks cached."""
    return P.Poset(p.n, p.up, p.labels, p.down)


@st.composite
def bound_maps(draw):
    """(source, target, table): lattices, semilattices, the pattern shapes
    and plain posets as sources, each fresh or with its caches, mapped by a
    random table, by x -> x v c or x -> x ^ c into itself, by the identity
    or by a constant, perhaps with one entry changed."""
    s = draw(st.one_of(lattices(), join_closed_hosts(), random_posets(max_n=6, min_n=1),
                       st.sampled_from([("delta", 3), ("gamma", 3), ("v", 3)]).map(
                           lambda spec: F.shape(*spec))))
    s = draw(st.sampled_from([s, fresh(s)]))
    kind = draw(st.sampled_from(["random", "join", "meet", "identity", "constant"]))
    c = draw(st.integers(0, s.n - 1))
    ref = fresh(s)
    f = {"join": [ref.join(x, c) for x in range(s.n)],
         "meet": [ref.meet(x, c) for x in range(s.n)],
         "constant": [c] * s.n}.get(kind, list(range(s.n)))
    if None in f:
        f = list(range(s.n))
    t = s
    if kind == "random":
        t = fresh(draw(lattices()))
        f = draw(st.lists(st.integers(0, t.n - 1), min_size=s.n, max_size=s.n))
    if draw(st.booleans()):
        f[draw(st.integers(0, s.n - 1))] = draw(st.integers(0, t.n - 1))
    return s, t, f


class TestJoinMeetFlagsAgainstPairwise:
    @settings(max_examples=150)
    @given(bound_maps())
    def test_generator_rows_agree_with_every_pair(self, case):
        s, t, f = case
        w = S.MapWitness(s, t, tuple(f))
        got = w.check_flag("join_preserving"), w.check_flag("meet_preserving")
        assert got == pairwise_bound_flags(s, t, f)

    def test_a_map_failing_at_one_pair_of_atoms(self):
        # the identity of B_3 but {0,2} -> {0,1,2} breaks only {0} v {2}:
        # every other pair keeps its join
        b3 = F.finite_powerset(3)
        f = [0, 1, 2, 3, 4, 7, 6, 7]
        w = S.MapWitness(b3, b3, tuple(f))
        assert not w.check_flag("join_preserving")
        assert pairwise_bound_flags(b3, b3, f) == (False, False)

    def test_a_missing_source_join_fails(self):
        # the antichain of 2 has no join, whatever the table
        w = S.MapWitness(P.antichain(2), P.chain(1), (0, 0))
        assert not w.check_flag("join_preserving")
        assert not w.check_flag("meet_preserving")


class TestWitnessSelfAudit:
    def test_every_witness_path_reverifies(self):
        # one witness through each public construction path; every certified
        # flag must re-verify from the table alone
        witnesses = []
        b2, b3 = F.finite_powerset(2), F.finite_powerset(3)
        for mode in ("order", "join", "meet", "sublattice"):
            witnesses.append(S.embedding_search(b2, b3, mode))
        base = F.delta(2)
        lat = D.downset_lattice(base)
        gens = S.find_independent_set(lat, 3)
        sub, phi = phi_witness(lat, gens)
        witnesses.append(phi)
        witnesses.append(delta_witness(lat, phi.table, sub, 3))
        fam = D.enumerate_downsets(base)
        index = {d.mask: i for i, d in enumerate(fam.sets)}
        table = tuple(index[D.principal(base, x).mask] for x in range(base.n))
        witnesses.append(S.MapWitness(base, lat, table, frozenset({"meet_preserving"})))
        witnesses.append(lift_witness(base, lat, table))
        for w in witnesses:
            assert w is not None and w.verify_all(), w.certified


# the hosts of the pipeline's first two steps, with their independent-set size
QUOTIENT_HOSTS = {
    "B_3": (lambda: F.finite_powerset(3), 3),
    "B_4": (lambda: F.finite_powerset(4), 4),
    "O(delta 3)": (lambda: D.downset_lattice(F.delta(3)), 4),
    "O(gamma 4)": (lambda: D.downset_lattice(F.gamma(4)), 5),
}


def phi_witness(host, gens):
    """(sublattice elements, phi): the pipeline's quotient table for gens,
    in a witness whose constructor checks the flags the pipeline's
    certificate claims of it."""
    elements, table = S._phi_table(host, gens)
    powerset = F.shape("finite_powerset", len(gens))
    return elements, S.MapWitness(P.induced(host, elements), powerset, table,
                                  frozenset({"lattice_hom", "surjective", "order_preserving"}))


def delta_witness(host, phi_table, elements, n):
    """The pipeline's delta-shaped table from phi onto B_n, in a witness
    whose constructor checks that it preserves meets and order."""
    table = S._delta_table(host, phi_table, list(elements), n)
    return S.MapWitness(F.shape("delta", n - 1), host, table,
                        frozenset({"meet_preserving", "order_preserving"}))


def quotient(name):
    """(host, generators, sublattice elements, phi) for a QUOTIENT_HOSTS entry."""
    make, k = QUOTIENT_HOSTS[name]
    host = make()
    gens = S.find_independent_set(host, k)
    assert gens is not None and len(gens) == k
    return (host, gens, *phi_witness(host, gens))


class TestPhiQuotient:
    @pytest.mark.parametrize("name", QUOTIENT_HOSTS)
    def test_generators_are_join_irreducible_in_the_sublattice(self, name):
        # by the definition: a generator is not the least element of the
        # sublattice and is no join of two elements strictly below it
        _host, gens, elements, phi = quotient(name)
        sub = phi.source
        assert sub.n == len(elements)
        for a in gens:
            i = elements.index(a)
            lower = [x for x in range(sub.n) if sub.lt(x, i)]
            assert lower, a
            assert all(sub.join(x, y) != i for x in lower for y in lower), a

    def test_powerset_identity(self):
        b3 = F.finite_powerset(3)
        _elements, w = phi_witness(b3, [1, 2, 4])
        assert w.source.n == 8 and w.check_flag("surjective")
        assert P.is_isomorphic(w.source, b3) is not None
        # the quotient of the full powerset by its atoms is an isomorphism
        assert w.check_flag("injective")

    def test_delta_columns_onto_b3(self):
        lat = D.downset_lattice(F.delta(2))
        gens = S.find_independent_set(lat, 3)
        _elements, w = phi_witness(lat, gens)
        assert w.target.n == 8
        assert w.check_flag("lattice_hom") and w.check_flag("surjective")

    def test_gamma_columns_onto_b4(self):
        lat = D.downset_lattice(F.gamma(3))
        gens = S.find_independent_set(lat, 4)
        _elements, w = phi_witness(lat, gens)
        assert w.target.n == 16 and w.check_flag("surjective")


class TestCheckDeltaMap:
    def _principal_table(self, n):
        host = D.downset_lattice(F.delta(n))
        base = F.delta(n)
        fam = D.enumerate_downsets(base)
        index = {d.mask: i for i, d in enumerate(fam.sets)}
        coords = F.delta_coords(n)
        cidx = {c: i for i, c in enumerate(coords)}
        table = [index[D.principal(base, cidx[c]).mask] for c in coords]
        return host, table

    def test_principal_map_all_conditions(self):
        host, table = self._principal_table(3)
        rep = SU.check_delta_map(host, table, 3)
        assert rep.conditions_hold and rep.all_equivalent
        assert rep.injective and rep.cond_a and rep.cond_b

    def test_constant_map(self):
        host = D.downset_lattice(F.delta(2))
        rep = SU.check_delta_map(host, [3] * 6, 2)
        assert rep.conditions_hold and rep.all_equivalent
        assert not rep.cond_a and not rep.cond_b and not rep.injective

    def test_violating_map_all_false_together(self):
        # descending row on a chain violates (iii); all conditions flip
        host = P.chain(4)
        row = [3, 2, 1]
        mt = host.meet_table()
        coords = F.delta_coords(2)
        table = [row[i] if j == F.OMEGA else mt[row[i]][row[j]]
                 for (i, j) in coords]
        rep = SU.check_delta_map(host, table, 2)
        assert rep.all_equivalent and not rep.conditions_hold

    def test_base_hypothesis_enforced(self):
        host = F.finite_powerset(2)
        coords = F.delta_coords(1)
        # rows map to the atoms but the pair entry is not their meet
        table = [([1, 2][i] if j == F.OMEGA else 3) for (i, j) in coords]
        with pytest.raises(BaseHypothesisViolated):
            SU.check_delta_map(host, table, 1)

    def test_truncation_collision_detected(self):
        # f(0,2) = f(0,w) has no finite witness triple; the w-extension of
        # conditions a/b must still flag it
        host = D.downset_lattice(P.build(
            3, "covers", [(0, 1), (0, 2)]))
        fam = D.enumerate_downsets(P.build(3, "covers", [(0, 1), (0, 2)]))
        by_members = {d.sorted_members(): i for i, d in enumerate(fam.sets)}
        row = [by_members[(0, 1)], by_members[(0, 2)], by_members[(0, 1, 2)]]
        mt = host.meet_table()
        coords = F.delta_coords(2)
        table = [row[i] if j == F.OMEGA else mt[row[i]][row[j]]
                 for (i, j) in coords]
        rep = SU.check_delta_map(host, table, 2)
        if rep.conditions_hold:
            assert rep.injective == (rep.cond_a and rep.cond_b)

    @settings(max_examples=40)
    @given(random_posets(max_n=4), st.integers(min_value=3, max_value=5),
           st.randoms(use_true_random=False))
    def test_equivalence_and_injectivity_biconditional(self, p, cols, rnd):
        host = D.downset_lattice(p)
        row = [rnd.randrange(host.n) for _ in range(cols)]
        mt = host.meet_table()
        coords = F.delta_coords(cols - 1)
        table = [row[i] if j == F.OMEGA else mt[row[i]][row[j]]
                 for (i, j) in coords]
        rep = SU.check_delta_map(host, table, cols - 1)
        assert rep.all_equivalent
        if rep.conditions_hold:
            assert rep.injective == (rep.cond_a and rep.cond_b)


def lift_witness(source, target, table):
    """The pipeline's lift of a meet-preserving table to the nonempty
    downsets of source, in a witness whose constructor checks the flags of
    a lattice homomorphism, and those of an order embedding when its table
    is injective."""
    masks, lift_source = D.nonempty_downset_lattice(source)
    lift_table = S._lift_table(target, table, masks)
    flags = {"lattice_hom", "order_preserving", "join_preserving", "meet_preserving"}
    if len(set(lift_table)) == len(lift_table):
        flags |= {"injective", "order_embedding"}
    return S.MapWitness(lift_source, target, lift_table, frozenset(flags))


class TestFVee:
    def test_chain_into_powerset(self):
        c2 = P.chain(2)
        b2 = F.finite_powerset(2)
        f = S.MapWitness(c2, b2, (0, 1), frozenset({"meet_preserving"}))
        lift = lift_witness(c2, b2, f.table)
        assert "injective" in lift.certified
        assert SU.lift_injectivity_criterion(f)

    def test_gamma_principal_lift_injective(self):
        base = F.gamma(2)
        lat = D.downset_lattice(base)
        fam = D.enumerate_downsets(base)
        index = {d.mask: i for i, d in enumerate(fam.sets)}
        table = tuple(index[D.principal(base, x).mask] for x in range(base.n))
        f = S.MapWitness(base, lat, table, frozenset({"meet_preserving"}))
        lift = lift_witness(base, lat, f.table)
        assert "injective" in lift.certified
        assert SU.lift_injectivity_criterion(f)

    def test_collapsing_map_criterion_matches_table(self):
        # collapse delta(1)'s two columns onto one chain: criterion 2 fails
        base = F.delta(1)
        host = P.chain(3)
        coords = F.delta_coords(1)
        mt = host.meet_table()
        row = [1, 2]
        table = [row[i] if j == F.OMEGA else mt[row[i]][row[j]]
                 for (i, j) in coords]
        f = S.MapWitness(base, host, tuple(table), frozenset({"meet_preserving"}))
        lift = lift_witness(base, host, f.table)
        assert "injective" not in lift.certified
        assert not lift.check_flag("injective")
        assert not SU.lift_injectivity_criterion(f)


class TestDeltaFromHom:
    def test_identity_on_powerset(self):
        b3 = F.finite_powerset(3)
        f = delta_witness(b3, tuple(range(8)), range(8), 3)
        coords = F.delta_coords(2)
        row = [f.table[i] for i, c in enumerate(coords) if c[1] == F.OMEGA]
        assert row == [1, 2, 4]  # the atoms; accumulated b_k stay empty

    def test_from_phi_quotient_of_delta(self):
        lat = D.downset_lattice(F.delta(2))
        gens = S.find_independent_set(lat, 3)
        sub, phi = phi_witness(lat, gens)
        f = delta_witness(lat, phi.table, sub, 3)
        coords = F.delta_coords(2)
        row = [f.table[i] for i, c in enumerate(coords) if c[1] == F.OMEGA]
        back = {e: k for k, e in enumerate(sub)}
        for i, r in enumerate(row):
            assert phi.table[back[r]] == 1 << i

    @pytest.mark.parametrize("name", QUOTIENT_HOSTS)
    def test_rows_map_to_singletons(self, name):
        # phi sends row i of the constructed delta map to {i}, on every host
        # of the pipeline's first steps
        host, gens, elements, phi = quotient(name)
        f = delta_witness(host, phi.table, elements, len(gens))
        coords = F.delta_coords(len(gens) - 1)
        row = [f.table[i] for i, c in enumerate(coords) if c[1] == F.OMEGA]
        assert [phi.table[elements.index(r)] for r in row] == [
            1 << i for i in range(len(gens))]

    def test_minimal_two_columns(self):
        b2 = F.finite_powerset(2)
        f = delta_witness(b2, tuple(range(4)), range(4), 2)
        assert SU.check_delta_map(b2, list(f.table), 1).conditions_hold

    def test_rejects_non_surjective(self):
        # the chain 0 < 3 of B_2 maps onto {} and {0, 1}: no element maps to {0}
        with pytest.raises(S.NotSurjective, match="^no element maps to 0x1$"):
            S._delta_table(F.finite_powerset(2), (0, 3), [0, 3], 2)
