"""Separating chains, the dichotomy, Ramsey classification, and the
end-to-end pipeline with certificate re-verification."""

import collections
import copy
import functools
import hashlib
import itertools
import json
import operator
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, strategies as st

from ordercraft import constructions as C
from ordercraft import downsets as D
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import semilattice as S
from ordercraft import suites as SU
from ordercraft.errors import (
    BudgetExceeded,
    ConstructionStalled,
    DepthUnreachable,
    IndependenceTooSmall,
    IndexOutOfRange,
    NoMonochromaticSubset,
    NotAntichain,
    NotSeparating,
    OrderError,
)

from test_semilattice import lift_witness


def with_rows(payload, rows):
    """A GridMap payload's rows set to rows, and its table to their joins,
    the only table its checker accepts."""
    host = P.from_json_dict(payload["host"])
    payload.update(rows=rows, table=[host.join(rows[i], rows[j])
                                     for (i, j) in F.grid_coords(len(rows) - 1)])


def powerset_suffix_chain(n):
    host = F.finite_powerset(n)
    members = []
    for k in range(n):
        allowed = 0
        for m in range(k, n):
            allowed |= 1 << m
        members.append(D.DownSet(
            host, frozenset(x for x in range(1 << n) if x & ~allowed == 0)))
    return C.ChainOfDownSets(host, tuple(members), decreasing=True)


GOLDEN = Path(__file__).parent / "golden"


def principal_chain_6():
    host = P.chain(6)
    members = tuple(D.principal(host, x) for x in (5, 4, 3, 2, 1))
    return C.ChainOfDownSets(host, members, decreasing=True)


def delta5_plant():
    coords = F.delta_coords(5)
    return [i for i, c in enumerate(coords) if c[1] == F.OMEGA]


def grid_suffix_chain(n):
    host = F.omega_star_grid(n)
    coords = F.grid_coords(n)
    idx = {c: i for i, c in enumerate(coords)}
    members = tuple(
        D.DownSet(host, frozenset(idx[(i, j)] for (i, j) in coords if i >= k))
        for k in range(n))
    return C.ChainOfDownSets(host, members, decreasing=True)


class TestIdealJoin:
    def test_non_principal_mask_raises(self):
        host = F.finite_powerset(2)
        # {}, {0}, {1}: a downset with two maximal elements; {0} alone is not
        # a downset; the empty mask has no top
        for mask in (0b0111, 0b0010, 0):
            with pytest.raises(ValueError, match="not a principal ideal"):
                C._ideal_top(host, mask)


class TestChainOfDownSets:
    def test_non_principal_member_raises(self):
        # {}, {0}, {1} in B_3: the union of two atoms' ideals, a downset
        # with two maximal elements and so no top
        host = F.finite_powerset(3)
        union = D.DownSet(host, frozenset({0, 1, 2}))
        with pytest.raises(ValueError, match=r"chain member \[0, 1, 2\] is not an ideal"):
            C.ChainOfDownSets(host, (union,))
        top = D.principal(host, 3)
        with pytest.raises(ValueError, match="is not an ideal"):
            C.ChainOfDownSets(host, (top, union), decreasing=True)


class TestIsSeparating:
    def test_powerset_suffix_chain(self):
        ok, witness = C.is_separating(powerset_suffix_chain(8))
        assert ok and witness is None

    def test_grid_chain_not_separating(self):
        ok, witness = C.is_separating(grid_suffix_chain(8))
        assert not ok
        member, x = witness
        # the witness re-checks: every member keeps the violator inside
        chain = grid_suffix_chain(8)
        for j in chain.members:
            joined = SU.ideal_join_oracle(chain.host, x, j.mask)
            assert member.mask & ~joined == 0

    def test_singleton_chain_vacuous(self):
        host = F.finite_powerset(2)
        chain = C.ChainOfDownSets(
            host, (D.DownSet(host, frozenset(range(4))),))
        assert C.is_separating(chain)[0]

    @pytest.mark.parametrize("seed", [1, 2])
    def test_matches_the_definition(self, seed):
        # the first violation by the definition, I in chain order and then
        # x ascending: I, neither the union nor the least member, lies inside
        # {x} v J for every member J, the closure taken by the oracle; x is
        # a join-irreducible of the union outside I
        counts = collections.Counter()
        for chain in random_chains(seed, 300):
            host = chain.host
            masks = [d.mask for d in chain.members]
            union = functools.reduce(operator.or_, masks)
            least = min(masks, key=int.bit_count)
            irr = set(P.at_most_one_cover(host)) - {host.bottom()}
            want = next(((i, x) for i in masks if i not in (union, least)
                         for x in sorted(irr) if union >> x & 1 and not i >> x & 1
                         if all(i & ~SU.ideal_join_oracle(host, x, j) == 0 for j in masks)),
                        None)
            ok, witness = C.is_separating(chain)
            assert ok == (want is None)
            if witness:
                assert (witness[0].mask, witness[1]) == want
            counts[ok, len(masks) >= 3] += 1
        assert counts[True, True] > 100 and counts[False, True] > 100, counts


class TestIndependentFromSeparating:
    def test_b8_extracts_seven(self):
        cert = C.independent_from_separating(powerset_suffix_chain(8))
        xs = cert.payload["independent_set"]
        assert len(xs) == 7
        assert xs == [1 << m for m in range(7)]
        assert cert.ok()
        assert C.certificate_valid(cert)

    def test_two_member_chain_gives_one(self):
        host = F.finite_powerset(2)
        chain = C.ChainOfDownSets(
            host,
            (D.DownSet(host, frozenset(range(4))),
             D.DownSet(host, frozenset({0, 2}))),
            decreasing=True)
        cert = C.independent_from_separating(chain)
        assert len(cert.payload["independent_set"]) == 1

    def test_non_separating_rejected(self):
        with pytest.raises(NotSeparating):
            C.independent_from_separating(grid_suffix_chain(6))

    @pytest.mark.parametrize("n", range(3, 9))
    def test_sizes_across_truncations(self, n):
        cert = C.independent_from_separating(powerset_suffix_chain(n))
        assert len(cert.payload["independent_set"]) == n - 1


class TestDichotomy:
    def test_grid_chain_gives_grid_map(self):
        cert = C.dichotomy_extract(grid_suffix_chain(8), 4)
        assert cert.kind == "GridMap"
        assert dict(cert.evidence)["grid_join_preserving"]
        assert dict(cert.evidence)["grid_injective"]
        assert cert.payload["achieved"] == 4
        assert C.certificate_valid(cert)

    def test_grid_map_verifies_exhaustively(self):
        cert = C.dichotomy_extract(grid_suffix_chain(8), 4)
        host = C._poset.from_json_dict(cert.payload["host"])
        coords = F.grid_coords(4)
        idx = {c: i for i, c in enumerate(coords)}
        table = cert.payload["table"]
        jt = host.join_table()
        for a in coords:
            for b in coords:
                join = (min(a[0], b[0]), max(a[1], b[1]))
                assert jt[table[idx[a]]][table[idx[b]]] == table[idx[join]]
        assert len(set(table)) == len(table)

    @given(st.integers(0, 1 << 30), st.integers(1, 4), st.booleans())
    def test_grid_map_evidence_is_the_all_pairs_law(self, seed, n, joined):
        # the oracle: the image of (i,j) v (a,b) = (min(i,a), max(j,b)) is the
        # join of the images, over every pair of cells. Half of the tables
        # are the joins of random rows, as the checker reads them; the rest
        # are random, for the flag the checker answers with
        rng = Random(seed)
        host = SU.random_join_semilattice(rng.randint(1, 12), rng.randrange(1 << 30))
        coords = F.grid_coords(n)
        idx = {c: k for k, c in enumerate(coords)}
        rows = [rng.randrange(host.n) for _ in range(n + 1)]
        table = ([host.join(rows[i], rows[j]) for (i, j) in coords] if joined
                 else [rng.randrange(host.n) for _ in coords])
        law = all(host.join(table[k], table[l]) == table[idx[(min(i, a), max(j, b))]]
                  for k, (i, j) in enumerate(coords) for l, (a, b) in enumerate(coords))
        grid = S.MapWitness(F.omega_star_grid(n), host, tuple(table))
        assert grid.check_flag("join_preserving") is law
        if joined:
            # the host's top bounds the one-member chain, so every row is in it
            cert = C.Certificate("GridMap", {
                "host": P.to_json_dict(host), "chain": [list(range(host.n))], "depth": 1,
                "achieved": n, "rows": rows, "table": table})
            assert dict(C.verify_certificate(cert)) == {
                "requested_depth_reached": True, "grid_join_preserving": law,
                "grid_injective": len(set(table)) == len(table)}

    def test_principal_chain_gives_descending(self):
        host = P.chain(6)
        members = tuple(D.principal(host, x) for x in (5, 4, 3, 2, 1))
        chain = C.ChainOfDownSets(host, members, decreasing=True)
        cert = C.dichotomy_extract(chain, 3)
        assert cert.kind == "DescendingChain"
        xs = cert.payload["elements"]
        assert len(xs) == 3
        assert all(host.lt(b, a) for a, b in zip(xs, xs[1:]))
        assert C.certificate_valid(cert)

    def test_depth_one_trivial(self):
        cert = C.dichotomy_extract(grid_suffix_chain(4), 1)
        assert cert.kind in ("DescendingChain", "GridMap")
        assert cert.ok()

    def test_depth_bound(self):
        with pytest.raises(DepthUnreachable):
            C.dichotomy_extract(grid_suffix_chain(4), 4)

    def test_short_chain_reports_partial_depth_honestly(self):
        # three members support two construction steps only; the certificate
        # says so instead of padding
        cert = C.dichotomy_extract(grid_suffix_chain(3), 2)
        assert cert.kind == "GridMap"
        assert cert.payload["achieved"] < 2
        assert dict(cert.evidence)["requested_depth_reached"] is False
        assert not cert.ok()

    def test_separating_chain_rejected(self):
        with pytest.raises(NotSeparating):
            C.dichotomy_extract(powerset_suffix_chain(6), 2)

    def test_increasing_chain_rejected(self):
        # a chain runs downward: neither the flag nor members listed upward
        # make an increasing one
        host = P.chain(4)
        members = tuple(D.principal(host, x) for x in (1, 2, 3))
        with pytest.raises(ValueError, match="^dichotomy_extract needs a decreasing chain$"):
            C.ChainOfDownSets(host, members[::-1], decreasing=False)
        with pytest.raises(ValueError, match="^chain members must be strictly nested$"):
            C.ChainOfDownSets(host, members, decreasing=True)


def chain_host(rng):
    """(host, n): a random join-semilattice, downset lattice, omega* grid or
    powerset, with n the grid's size for a grid and 0 otherwise."""
    kind = rng.randrange(4)
    if kind == 0:
        return SU.random_join_semilattice(rng.randint(2, 24), rng.randrange(1 << 30)), 0
    if kind == 1:
        return D.downset_lattice(
            SU.random_poset(rng.randint(1, 6), rng.random(), rng.randrange(1 << 30))), 0
    if kind == 2:
        n = rng.randint(2, 7)
        return F.omega_star_grid(n), n
    return F.finite_powerset(rng.randint(1, 5)), 0


def chain_tops(rng, host, grid):
    """Tops of a random chain of principal ideals, largest first: on a grid,
    half the time a subsequence of its suffix chain {(i, j) : i >= k};
    otherwise a random descent, by a lower cover or by any element below."""
    if grid and rng.random() < 0.5:
        idx = {c: i for i, c in enumerate(F.grid_coords(grid))}
        return [idx[(k, grid)] for k in sorted(rng.sample(range(grid), rng.randint(1, grid)))]
    x = host.n - 1 if rng.random() < 0.5 else rng.randrange(host.n)
    tops = [x]
    while host.down[x] and rng.random() < 0.93:
        below = list(P.bits(host.down[x]))
        if rng.random() < 0.6:
            below = [y for y in below if not host.up[y] & host.down[x]]
        x = rng.choice(below)
        tops.append(x)
    return tops


def random_chains(seed, hosts):
    """Four random chains per host, largest member first."""
    rng = Random(seed)
    for _ in range(hosts):
        host, grid = chain_host(rng)
        for _ in range(4):
            tops = chain_tops(rng, host, grid)
            yield C.ChainOfDownSets(host, tuple(D.principal(host, t) for t in tops),
                                    decreasing=True)


def outcome(make):
    """The certificate's JSON, or the error's type and message."""
    try:
        return make().to_json()
    except (ConstructionStalled, NotSeparating) as e:
        return f"{type(e).__name__}: {e}"


class TestChainWalks:
    def test_outputs_are_pinned(self):
        # sha256 of every outcome of both chain constructions, the dichotomy
        # at every depth its chain allows, recorded before the increasing
        # chains and the walks' direction checks were removed
        digest, seen = hashlib.sha256(), set()
        for chain in random_chains(0, 400):
            runs = [lambda: C.independent_from_separating(chain)]
            runs += [lambda d=d: C.dichotomy_extract(chain, d)
                     for d in range(1, len(chain.members))]
            for run in runs:
                out = outcome(run)
                digest.update(out.encode() + b"\n")
                seen.add(json.loads(out)["kind"] if out.startswith("{") else out)
        assert {"IndependentSet", "DescendingChain", "GridMap",
                "ConstructionStalled: no proper member below the union",
                "ConstructionStalled: phase 1 produced fewer than two witnesses",
                "ConstructionStalled: no element of I_0 escapes the running join",
                "NotSeparating: input chain is not separating",
                "NotSeparating: a suffix of the chain is separating"} <= seen
        assert digest.hexdigest() == (
            "72611f7d5875f8a73738b9c9cc03aaa84d659c224cb8392d331094f626e25709")

    def test_bounded_members_are_those_with_a_join_irreducible_top(self):
        # the elements just below the top t of down(t), the maximal elements
        # of the rest, are the lower covers of t; so the dichotomy's bounded
        # members, at most one element just below the top, are those whose
        # top is in at_most_one_cover
        for chain in random_chains(0, 400):
            host = chain.host
            lower = collections.Counter(b for _a, b in host.cover_pairs())
            few = set(P.at_most_one_cover(host))
            for d in chain.members:
                t = C._ideal_top(host, d.mask)
                rest = d.mask & ~(1 << t)
                assert sum(1 for x in P.bits(rest) if not host.up[x] & rest) == lower[t]
                assert (lower[t] <= 1) == (t in few)

    def test_one_member_chain_stalls(self):
        host = P.chain(2)
        chain = C.ChainOfDownSets(host, (D.principal(host, 1),), decreasing=True)
        with pytest.raises(ConstructionStalled, match="^no proper member below the union$"):
            C.independent_from_separating(chain)

    def test_phase_one_with_one_witness_stalls(self):
        # down(1) > down(0) on the two-element chain: nothing lies above the
        # top 1, so E is empty and case (ii) starts at the union; phase 1
        # finds x_0 = 1 and then runs out of members
        host = P.chain(2)
        chain = C.ChainOfDownSets(
            host, (D.principal(host, 1), D.principal(host, 0)), decreasing=True)
        with pytest.raises(ConstructionStalled,
                           match="^phase 1 produced fewer than two witnesses$"):
            C.dichotomy_extract(chain, 1)

    def test_running_join_that_swallows_the_ideal_stalls(self):
        # B_2 with a new top 4 above its top 3, and the chain down(4) >
        # down(3) > down(1): E is empty, as 3 has two lower covers and the
        # least member bounds nothing; phase 1 picks x_0 = 4, whose running
        # join already lies above all of I_0 = down(3)
        host = P.build(5, "covers", [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4)])
        chain = C.ChainOfDownSets(
            host, tuple(D.principal(host, t) for t in (4, 3, 1)), decreasing=True)
        with pytest.raises(ConstructionStalled,
                           match="^no element of I_0 escapes the running join$"):
            C.dichotomy_extract(chain, 1)


class TestRamsey:
    def test_index_outside_host(self):
        with pytest.raises(IndexOutOfRange, match="99"):
            C.ramsey_extract(F.finite_powerset(3), [1, 2, 99], 3)
        with pytest.raises(IndexOutOfRange):
            C.ramsey_extract(F.finite_powerset(3), [1, 2, -1], 3)

    def test_delta_plant(self):
        d5 = F.delta(5)
        coords = F.delta_coords(5)
        idx = {c: i for i, c in enumerate(coords)}
        xs = [idx[(i, F.OMEGA)] for i in range(6)]
        cert = C.ramsey_extract(d5, xs, 6)
        assert cert.payload["classification"] == "DeltaLike"
        assert cert.payload["pattern"] == {"family": "delta", "n": 2}
        assert C.certificate_valid(cert)

    def test_gamma_plant(self):
        g5 = F.gamma(5)
        coords = F.gamma_coords(5)
        idx = {c: i for i, c in enumerate(coords)}
        xs = [idx[(i, F.OMEGA)] for i in range(6)]
        cert = C.ramsey_extract(g5, xs, 6)
        assert cert.payload["classification"] == "GammaLike"
        assert C.certificate_valid(cert)

    def test_v_plant(self):
        b4 = F.finite_powerset(4)
        cert = C.ramsey_extract(b4, [1, 2, 4, 8], 4)
        assert cert.payload["classification"] == "VLike"
        assert cert.payload["pattern"] == {"family": "v", "n": 4}
        assert C.certificate_valid(cert)

    def test_downset_lattice_plants(self):
        for family, expected in [(F.delta, "DeltaLike"), (F.gamma, "GammaLike")]:
            base = family(5)
            lat = D.downset_lattice(base)
            fam = D.enumerate_downsets(base)
            index = {d.mask: i for i, d in enumerate(fam.sets)}
            xs = [index[D.principal(base, x).mask]
                  for x in range(base.n) if base.label(x).endswith(",w)")]
            cert = C.ramsey_extract(lat, xs, 6)
            assert cert.payload["classification"] == expected
            assert C.certificate_valid(cert)

    def test_not_antichain(self):
        with pytest.raises(NotAntichain):
            C.ramsey_extract(F.finite_powerset(3), [1, 3], 3)

    def test_not_antichain_names_the_first_comparable_pair(self):
        # 4 < 6 and 1 < 3: the pair of the earliest first element is named,
        # though 1 < 3 closes first
        with pytest.raises(NotAntichain, match="^4 and 6 are comparable$"):
            C.ramsey_extract(F.finite_powerset(3), [4, 1, 3, 6], 3)

    def test_decreasing_meets_report_not_wqo_evidence(self):
        # tops {i} u S_i with S_0 > S_1 > ... nested: pairwise meets S_max
        # strictly shrink in the later index, the second triple class
        b7 = F.finite_powerset(7)
        tops = [0b1110001, 0b0110010, 0b0010100, 0b0001000]
        cert = C.ramsey_extract(b7, tops, 3)
        assert cert.payload["classification"] == "NotWqoEvidence"
        assert cert.payload["ramsey_class"] == 2
        assert C.certificate_valid(cert) is False  # wqo evidence flag is red
        assert dict(cert.evidence)["wqo_evidence"] is False

    def test_too_small(self):
        with pytest.raises(NoMonochromaticSubset):
            C.ramsey_extract(F.finite_powerset(3), [1, 2], 3)

    def test_subset_search_runs_under_the_search_budget(self, monkeypatch):
        # the ten 2-subsets of {0..4} hold no monochromatic 5-subset; the
        # search proves it in a few hundred nodes, more than a budget of 100
        b5 = F.finite_powerset(5)
        pairs = [x for x in range(32) if bin(x).count("1") == 2]
        with pytest.raises(NoMonochromaticSubset, match="no monochromatic subset"):
            C.ramsey_extract(b5, pairs, 5)
        monkeypatch.setenv("OC_BUDGET", "100")
        with pytest.raises(BudgetExceeded, match="more than 100 nodes"):
            C.ramsey_extract(b5, pairs, 5)
        # a subset found in fewer nodes is unchanged
        assert C.ramsey_extract(b5, pairs, 3).payload["subset"] == [0, 1, 2]

    @pytest.mark.parametrize("seed", range(20))
    def test_subset_search_is_the_first_monochromatic_combination(self, seed):
        # the lexicographically first m-subset of positions whose triples
        # all share one class, found here by listing every combination
        rng = Random(seed)
        host = D.downset_lattice(SU.random_poset(rng.randint(3, 6), rng.random() / 2, seed))
        xs = rng.sample(range(host.n), min(host.n, rng.randint(5, 10)))
        for m in (2, 3, 4, 5):
            first = next((list(c) for c in itertools.combinations(range(len(xs)), m)
                          if len({C._triple_class(host, xs, *t)
                                  for t in itertools.combinations(c, 3)}) <= 1), None)
            assert C._monochromatic_subset(host, xs, m) == first, (xs, m)

    def test_class_invariant_under_meet_fixing_permutations(self):
        # permutations under which pairwise meets are literally unchanged
        # cannot move the classification (the subset may differ)
        b5 = F.finite_powerset(5)
        xs = [1, 2, 4, 8, 16]
        base_class = C.ramsey_extract(b5, xs, 4).payload["classification"]
        mt = b5.meet_table()

        def fixes_meets(perm):
            return all(mt[perm[i]][perm[j]] == mt[xs[i]][xs[j]]
                       for i in range(5) for j in range(5) if i != j)

        checked = 0
        for perm in itertools.permutations(xs):
            if fixes_meets(perm):
                checked += 1
                got = C.ramsey_extract(b5, list(perm), 4)
                assert got.payload["classification"] == base_class
        assert checked == 120  # atoms meet in the bottom, so every relabeling

    def test_thinning_keeps_delta_lift_injective(self):
        d5 = F.delta(5)
        coords = F.delta_coords(5)
        idx = {c: i for i, c in enumerate(coords)}
        xs = [idx[(i, F.OMEGA)] for i in range(6)]
        cert = C.ramsey_extract(d5, xs, 6)
        lat = D.downset_lattice(d5)
        fam = D.enumerate_downsets(d5)
        index = {d.mask: i for i, d in enumerate(fam.sets)}
        pattern = F.generate(F.FamilySpec("delta", {"n": cert.payload["pattern"]["n"]}))
        # lift through the downset lattice, where joins exist
        lifted_table = tuple(index[D.principal(d5, v).mask]
                             for v in cert.payload["table"])
        witness = S.MapWitness(pattern, lat, lifted_table,
                               frozenset({"meet_preserving", "injective"}))
        assert "injective" in lift_witness(pattern, lat, witness.table).certified


def pipeline_row(host, k):
    """The omega row of the delta table thm8_pipeline builds on host at k,
    from the same table cores."""
    elements, phi = S._phi_table(host, S.find_independent_set(host, k))
    table = S._delta_table(host, phi, elements, k)
    return [v for v, (_i, j) in zip(table, F.delta_coords(k - 1)) if j == F.OMEGA]


class TestPipeline:
    def test_delta_host(self):
        cert = C.thm8_pipeline(D.downset_lattice(F.delta(4)), 5)
        assert cert.payload["classification"] == "DeltaLike"
        assert cert.ok() and C.certificate_valid(cert)

    def test_gamma_host(self):
        cert = C.thm8_pipeline(D.downset_lattice(F.gamma(4)), 5)
        assert cert.payload["classification"] == "GammaLike"
        assert cert.ok() and C.certificate_valid(cert)

    def test_powerset_host(self):
        cert = C.thm8_pipeline(F.finite_powerset(6), 6)
        assert cert.payload["classification"] == "VLike"
        assert cert.ok() and C.certificate_valid(cert)
        # the lift lands a powerset pattern inside B_6
        assert cert.payload["pattern"]["family"] == "v"

    def test_k_too_small(self):
        with pytest.raises(IndependenceTooSmall):
            C.thm8_pipeline(F.finite_powerset(6), 3)

    def test_no_independent_set(self):
        with pytest.raises(IndependenceTooSmall):
            C.thm8_pipeline(P.chain(8), 4)

    def test_non_distributive_rejected(self):
        with pytest.raises(C.NotDistributive):
            C.thm8_pipeline(F.l_alpha(2), 4)

    def test_non_verifying_witness_raises(self, monkeypatch):
        # a lift core that sends every downset to 0 has a table of the right
        # length that is not injective: the certificate fails and is kept
        monkeypatch.setattr(S, "_lift_table", lambda t, table, masks: (0,) * len(masks))
        with pytest.raises(ConstructionStalled,
                           match="^pipeline produced a non-verifying witness$") as info:
            C.thm8_pipeline(F.finite_powerset(5), 5)
        assert isinstance(info.value.partial, C.Certificate)
        assert not info.value.partial.ok()

    def test_unusable_row_stalls(self, monkeypatch):
        # a class core that calls every triple class 1 leaves no pattern at
        # any m: the pipeline stalls typed instead of reading a missing key
        monkeypatch.setattr(C, "_triple_class", lambda host, xs, i, j, k: 1)
        with pytest.raises(ConstructionStalled, match="^no usable monochromatic subset$"):
            C.thm8_pipeline(F.finite_powerset(5), 5)

    def test_every_row_triple_is_usable(self):
        # row[c] >= row[a] ^ row[b] for a < b < c, so each triple of the
        # pipeline's delta row has m_ab <= m_ac: class 3, 4 or 5, never 1 or 2
        bases = [P.antichain(n) for n in range(4, 8)] + [
            F.generate(F.FamilySpec(fam, {"n": n})) for fam in ("delta", "gamma", "v")
            for n in (3, 4)]
        rng = Random(5)
        while len(bases) < 310:
            q = SU.random_poset(rng.randint(4, 7), rng.random(), rng.randrange(1 << 30))
            if q.width() >= 4:
                bases.append(q)
        classes = collections.Counter()
        for base in bases:
            host = D.downset_lattice(base)
            # the independence number of a downset lattice is its base's width
            for k in range(4, base.width() + 1):
                row = pipeline_row(host, k)
                classes.update(C._triple_class(host, row, *triple)
                               for triple in itertools.combinations(range(k), 3))
        assert set(classes) == {3, 4, 5}
        b5 = F.finite_powerset(5)
        assert pipeline_row(b5, 5) == C.thm8_pipeline(b5, 5).payload["delta_row"]

    @pytest.mark.parametrize("name,host,k", [
        ("pipeline_b5_k5", lambda: F.finite_powerset(5), 5),
        ("pipeline_delta3_k4", lambda: D.downset_lattice(F.delta(3)), 4),
        ("pipeline_gamma4_k5", lambda: D.downset_lattice(F.gamma(4)), 5),
    ], ids=["B_5 k=5", "O(delta 3) k=4", "O(gamma 4) k=5"])
    def test_certificate_golden(self, name, host, k):
        # certificates written before the pipeline's shapes were shared
        golden = GOLDEN / f"{name}.json"
        assert C.thm8_pipeline(host(), k).to_json() + "\n" == golden.read_text()

    @pytest.mark.parametrize("host,k,digest", [
        (lambda: F.finite_powerset(11), 11,
         "a446b31e5eb9297f994795554f80cb9e0fefadcfaf75eccd184806a1773e272d"),
        (lambda: D.downset_lattice(F.delta(4)), 5,
         "0dffb7106b1e42c2fc79f02e14613acf87c8b3a6ea16108664529397d70a7468"),
    ], ids=["B_11 k=11", "O(delta 4) k=5"])
    def test_certificate_digest(self, host, k, digest):
        # sha256 of certificates written before the lift source was read off
        # element holders and the checker's subposet off index runs
        cert = C.thm8_pipeline(host(), k)
        assert hashlib.sha256(cert.to_json().encode()).hexdigest() == digest

    def test_powerset_host_at_its_independence_number(self):
        cert = C.thm8_pipeline(F.finite_powerset(12), 12)
        assert cert.ok() and C.certificate_valid(cert)


@pytest.mark.parametrize("name,extract", [
    ("independent_b5", lambda: C.independent_from_separating(powerset_suffix_chain(5))),
    ("descending_chain6_d3", lambda: C.dichotomy_extract(principal_chain_6(), 3)),
    ("grid_chain6_d3", lambda: C.dichotomy_extract(grid_suffix_chain(6), 3)),
    ("ramsey_b4_atoms_m4", lambda: C.ramsey_extract(F.finite_powerset(4), [1, 2, 4, 8], 4)),
    ("ramsey_delta5_m6", lambda: C.ramsey_extract(F.delta(5), delta5_plant(), 6)),
], ids=["IndependentSet", "DescendingChain", "GridMap", "RamseyClass V", "RamseyClass delta"])
def test_extraction_certificate_golden(name, extract):
    # certificates written while each producer still built its own evidence
    assert extract().to_json() + "\n" == (GOLDEN / f"{name}.json").read_text()


class TestCertificateIO:
    def test_round_trip_and_tamper_detection(self):
        cert = C.independent_from_separating(powerset_suffix_chain(5))
        again = C.Certificate.from_json_dict(cert.to_json_dict())
        assert C.certificate_valid(again)
        bad = dict(again.to_json_dict())
        bad["payload"] = dict(bad["payload"])
        bad["payload"]["independent_set"] = [1, 2, 3]
        tampered = C.Certificate.from_json_dict(bad)
        assert not C.certificate_valid(tampered)

    def test_every_kind_reverifies(self):
        certs = [
            C.independent_from_separating(powerset_suffix_chain(5)),
            C.dichotomy_extract(grid_suffix_chain(6), 3),
            C.ramsey_extract(F.finite_powerset(4), [1, 2, 4, 8], 4),
            C.thm8_pipeline(F.finite_powerset(5), 5),
        ]
        certs.append(C.dichotomy_extract(principal_chain_6(), 3))
        for cert in certs:
            assert C.certificate_valid(
                C.Certificate.from_json_dict(cert.to_json_dict()))

    @pytest.mark.parametrize("name,edit,message", [
        ("descending_chain6_d3", lambda p: p.update(chain=[]), "chain must be non-empty"),
        ("descending_chain6_d3", lambda p: p.update(chain=p["chain"][-2:]),
         "elements must lie in the chain's first member"),
        ("grid_chain6_d3", lambda p: p.update(chain=[]), "chain must be non-empty"),
        ("grid_chain6_d3", lambda p: p.update(chain=p["chain"][-2:]),
         "rows must be 4 elements of the chain's first member"),
        ("grid_chain6_d3", lambda p: p.update(rows=[]),
         "rows must be 4 elements of the chain's first member"),
        ("grid_chain6_d3", lambda p: p.update(rows=p["rows"][:-1]),
         "rows must be 4 elements of the chain's first member"),
    ], ids=["DescendingChain chain emptied", "DescendingChain chain cut to two",
            "GridMap chain emptied", "GridMap chain cut to two", "GridMap rows emptied",
            "GridMap row dropped"])
    def test_chain_and_rows_are_read(self, name, edit, message):
        # the dichotomy picks its elements and rows in the chain's first
        # member, one row per row of the grid; a payload that disagrees is
        # malformed
        data = json.loads((GOLDEN / f"{name}.json").read_text())
        assert C.certificate_valid(C.Certificate.from_json_dict(data))
        edit(data["payload"])
        with pytest.raises(ValueError, match=f"^{message}$"):
            C.verify_certificate(C.Certificate.from_json_dict(data))

    @pytest.mark.parametrize("name,key,message", [
        ("grid_chain6_d3", "table", "table must send each cell (i,j) to the join of rows i and j"),
        ("ramsey_delta5_m6", "table",
         "table must be the pattern map of thinned's antichain elements"),
        ("ramsey_b4_atoms_m4", "table",
         "table must be the pattern map of thinned's antichain elements"),
        ("pipeline_gamma4_k5", "pattern_table",
         "pattern_table must be the pattern map of column tops taken from delta_row in order"),
    ], ids=["GridMap", "RamseyClass delta", "RamseyClass V", "SublatticePattern"])
    def test_map_tables_are_tied_to_their_payload(self, name, key, message):
        # each table is a function of the rest of the payload: the joins of
        # the rows, or the pattern map of the column tops
        data = json.loads((GOLDEN / f"{name}.json").read_text())
        data["payload"][key][0] = data["payload"][key][1]
        with pytest.raises(ValueError) as caught:
            C.verify_certificate(C.Certificate.from_json_dict(data))
        assert str(caught.value) == message

    @pytest.mark.parametrize("name,key,flipped", [
        ("descending_chain6_d3", "elements", "strictly_descending"),
        ("grid_chain6_d3", "rows", "grid_injective"),
        ("ramsey_delta5_m6", "subset", "monochromatic"),
        ("pipeline_b5_k5", "lift_table", "sublattice_injective"),
    ], ids=["DescendingChain", "GridMap", "RamseyClass", "SublatticePattern"])
    def test_tampered_entry_is_caught(self, name, key, flipped):
        data = json.loads((GOLDEN / f"{name}.json").read_text())
        assert C.certificate_valid(C.Certificate.from_json_dict(data))
        data["payload"][key][0] = data["payload"][key][1]
        if key == "rows":
            with_rows(data["payload"], data["payload"]["rows"])
        tampered = C.Certificate.from_json_dict(data)
        assert not C.certificate_valid(tampered)
        assert dict(C.verify_certificate(tampered))[flipped] is False


def certificate_goldens():
    """{name: document} of the golden files that hold a certificate."""
    docs = {path.stem: json.loads(path.read_text()) for path in sorted(GOLDEN.glob("*.json"))}
    return {name: doc for name, doc in docs.items()
            if isinstance(doc, dict) and {"kind", "payload"} <= doc.keys()}


def verifies(doc):
    """What verify-cert answers on a certificate document: True when it is
    valid; False when it is not, or is an invalid input file (exit 3)."""
    try:
        return C.certificate_valid(C.Certificate.from_json_dict(doc))
    except (KeyError, ValueError, OrderError):
        return False


def integer_paths(node, path=()):
    """The key path of every integer in a payload, outside its host."""
    items = (node.items() if isinstance(node, dict)
             else enumerate(node) if isinstance(node, list) else ())
    for key, value in items:
        if type(value) is int:
            yield path + (key,)
        elif path or key != "host":
            yield from integer_paths(value, path + (key,))


# the +-1 edits of a certificate golden that still verify; README "File
# formats" gives each its reason
EDITS_THAT_VERIFY = {
    # another true witness: the last member becomes {0}
    ("descending_chain6_d3", ("chain", 4, 1), -1),
    # another true witness: the walk 5 > 4 > 2
    ("descending_chain6_d3", ("elements", 2), -1),
    # a true claim: achieved 3 reaches depth 2
    ("grid_chain6_d3", ("depth",), -1),
    # another true witness: (0,2) v y = (0,1) v y for every other row y
    ("grid_chain6_d3", ("rows", 0), 1),
    # open: sublattice_elements is read only through phi_table
    ("pipeline_delta3_k4", ("sublattice_elements", 0), -1),
    ("pipeline_gamma4_k5", ("sublattice_elements", 0), -1),
}


class RecordingPayload(dict):
    """A payload that records each key read through [] or get."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)


class TestCertificateGoldensTampered:
    def test_edits_by_one_that_verify_are_the_listed_ones(self):
        # each integer outside host, edited by +1 and by -1, one at a time
        kept, edits = set(), 0
        for name, golden in certificate_goldens().items():
            for path in integer_paths(golden["payload"]):
                for step in (1, -1):
                    doc = copy.deepcopy(golden)
                    *keys, last = path
                    functools.reduce(operator.getitem, keys, doc["payload"])[last] += step
                    edits += 1
                    if verifies(doc):
                        kept.add((name, path, step))
        assert edits == 1232 and kept == EDITS_THAT_VERIFY

    @pytest.mark.parametrize("name", ["independent_b5", "descending_chain6_d3",
                                      "grid_chain6_d3"])
    def test_chain_listed_upward_fails(self, name):
        # the checkers read chain in order, largest member first
        doc = certificate_goldens()[name]
        assert verifies(doc)
        doc["payload"]["chain"].reverse()
        with pytest.raises(ValueError, match="^chain members must be strictly nested$"):
            C.verify_certificate(C.Certificate.from_json_dict(doc))

    @pytest.mark.parametrize("name", sorted(certificate_goldens()))
    def test_every_payload_field_is_read(self, name):
        doc = certificate_goldens()[name]
        payload = RecordingPayload(doc["payload"])
        C.verify_certificate(C.Certificate(doc["kind"], payload))
        assert payload.read == set(payload)
