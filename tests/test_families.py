"""Family generators: exact counts, orders, and determinism."""

import hashlib
import time

import pytest
from hypothesis import given, settings, strategies as st

from ordercraft import downsets as D
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import semilattice as S
from ordercraft.errors import BudgetExceeded, UnsupportedOrdinal, UnsupportedParams


class TestPowerset:
    def test_counts_and_order(self):
        b3 = F.finite_powerset(3)
        assert b3.n == 8
        assert all(b3.leq(x, y) == (x & y == x) for x in range(8) for y in range(8))

    def test_joins_are_unions(self):
        b3 = F.finite_powerset(3)
        jt = b3.join_table()
        assert all(jt[x][y] == x | y for x in range(8) for y in range(8))

    def test_over_budget_raises_before_building(self, monkeypatch):
        monkeypatch.setenv("OC_BUDGET", "64")
        assert F.finite_powerset(6).n == 64
        with pytest.raises(BudgetExceeded, match="n=7 .* more than 64"):
            F.finite_powerset(7)
        monkeypatch.delenv("OC_BUDGET")
        with pytest.raises(BudgetExceeded, match="n=10000 .* more than 1000000"):
            F.finite_powerset(10 ** 4)


class TestShapes:
    @pytest.mark.parametrize("family", F.SHAPES)
    def test_equals_a_fresh_build(self, family):
        for n in range(0 if family == "finite_powerset" else 1, 7):
            shared = F.shape(family, n)
            fresh = F.generate(F.FamilySpec(family, {"n": n}))
            assert F.shape(family, n) is shared and shared is not fresh
            assert shared == fresh
            assert shared.cover_pairs() == fresh.cover_pairs()
            assert shared.join_table() == fresh.join_table()
            assert shared.meet_table() == fresh.meet_table()

    def test_unknown_shape(self):
        with pytest.raises(UnsupportedParams):
            F.shape("omega_eta", 3)

    def test_memo_hit_honours_the_budget(self, monkeypatch):
        F.shape("finite_powerset", 6)
        F.shape("delta", 3)
        F.shape("gamma", 3)
        F.shape("v", 8)
        monkeypatch.setenv("OC_BUDGET", "8")
        for family, n in (("finite_powerset", 6), ("delta", 3), ("gamma", 3), ("v", 8)):
            with pytest.raises(BudgetExceeded) as hit:
                F.shape(family, n)
            with pytest.raises(BudgetExceeded) as fresh:
                F.generate(F.FamilySpec(family, {"n": n}))
            assert str(hit.value) == str(fresh.value)
            assert "more than 8" in str(hit.value)


class TestPairBudget:
    # each of these tests every pair of its elements before it builds; the
    # default budget of 10^6 pair tests allows 1000 elements
    @pytest.mark.parametrize("build,size", [
        (lambda: F.delta(44), 1035),
        (lambda: F.gamma(500), 1001),
        (lambda: F.omega_star_grid(45), 1035),
        (lambda: F.sierpinskisation("0,2", 1001), 1001),
        (lambda: F.omega_eta(9), 1023),
        (lambda: F.lattice_sierp("0,1", 45), 1035),
        (lambda: F.lattice_sierp("2", 501), 1002),
    ], ids=["delta", "gamma", "grid", "sierpinskisation", "omega_eta",
            "lattice_sierp_w", "lattice_sierp_finite"])
    def test_raises_before_building(self, build, size):
        with pytest.raises(BudgetExceeded, match=f"has {size} elements.*more than 1000000"):
            build()

    def test_limit_is_size_squared(self, monkeypatch):
        monkeypatch.setenv("OC_BUDGET", "100")
        assert F.delta(3).n == 10
        assert F.gamma(1).n == 3 and F.omega_star_grid(4).n == 10
        with pytest.raises(BudgetExceeded, match="delta n=4 has 15 elements"):
            F.delta(4)
        with pytest.raises(BudgetExceeded, match="sierpinskisation n=11"):
            F.sierpinskisation("0,2", 11)

    def test_last_three_generators(self, monkeypatch):
        monkeypatch.setenv("OC_BUDGET", "100")
        assert F.omega_eta(2).n == 7 and F.lattice_sierp("0,1", 4).n == 10
        assert F.lattice_sierp("2", 5).n == 10 and F.v_family(99).n == 100
        with pytest.raises(BudgetExceeded, match="omega_eta n=3 has 15 elements"):
            F.omega_eta(3)
        with pytest.raises(BudgetExceeded, match="lattice_sierp n=5 has 15 elements"):
            F.lattice_sierp("0,1", 5)
        with pytest.raises(BudgetExceeded, match="lattice_sierp n=6 has 12 elements"):
            F.lattice_sierp("2", 6)
        with pytest.raises(BudgetExceeded, match="v n=100 has 101 elements"):
            F.v_family(100)
        # past the budget's bit length the bound holds without forming 2^n
        with pytest.raises(BudgetExceeded,
                           match=r"omega_eta n=1000000000 has 2\^1000000001-1 elements"):
            F.omega_eta(10 ** 9)


class TestCountBudget:
    def test_element_counted_generators(self, monkeypatch):
        # each checks its element count, not its pair tests, before it builds
        monkeypatch.setenv("OC_BUDGET", "100")
        assert F.l_alpha(97).n == 100 and F.s_alpha("1", 10, 90).n == 100
        with pytest.raises(BudgetExceeded, match="l_alpha a=98 has 101 elements, more than 100"):
            F.l_alpha(98)
        with pytest.raises(BudgetExceeded, match="s_alpha tail=91 has 101 elements, more than 100"):
            F.s_alpha("1", 10, 91)


class TestGrid:
    def test_size(self):
        assert F.omega_star_grid(8).n == 36

    def test_join_formula_exhaustive(self):
        grid = F.omega_star_grid(5)
        coords = F.grid_coords(5)
        idx = {c: k for k, c in enumerate(coords)}
        jt = grid.join_table()
        for (i, j) in coords:
            for (a, b) in coords:
                assert jt[idx[(i, j)]][idx[(a, b)]] == idx[(min(i, a), max(j, b))]

    @pytest.mark.parametrize("n", range(1, 9))
    def test_cone_built_join_is_coordinatewise(self, n):
        # the grid's join comes from its cones; it must be (min i, max j)
        grid = F.omega_star_grid(n)
        coords = F.grid_coords(n)
        idx = {c: k for k, c in enumerate(coords)}
        jt = grid.join_table()
        for (i, j) in coords:
            for (a, b) in coords:
                assert jt[idx[(i, j)]][idx[(a, b)]] == idx[(min(i, a), max(j, b))]

    def test_join_law_check_sees_a_misplaced_cell(self):
        # (0,1) and the top (0,2) swapped: the images of (0,1) and (1,2)
        # join to the top, but the law asks for the image of (0,2), now (0,1)
        grid = F.omega_star_grid(2)
        assert F.grid_coords(2) == [(0, 1), (0, 2), (1, 2)]
        assert S.MapWitness(grid, grid, (1, 0, 2)).check_flag("join_preserving") is False

    def test_no_bottom_then_bottom(self):
        assert F.omega_star_grid(3).bottom() is None
        withbot = F.generate(F.FamilySpec("omega_star_grid", {"n": 3}, with_bottom=True))
        assert withbot.bottom() == withbot.n - 1

    def test_meets_partial(self):
        # (0,1) and (1,2) have no common lower bound in the grid
        grid = F.omega_star_grid(2)
        coords = F.grid_coords(2)
        idx = {c: k for k, c in enumerate(coords)}
        assert grid.meet(idx[(0, 1)], idx[(1, 2)]) is None


class TestDeltaGamma:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_delta_count(self, n):
        assert F.delta(n).n == n * (n + 1) // 2 + n + 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gamma_count(self, n):
        assert F.gamma(n).n == 2 * n + 1

    def test_delta_width(self):
        assert F.delta(2).width() == 3

    @pytest.mark.parametrize("n", range(1, 7))
    def test_delta_meets(self, n):
        d = F.delta(n)
        coords = F.delta_coords(n)
        idx = {c: k for k, c in enumerate(coords)}
        mt = d.meet_table()
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert mt[idx[(i, F.OMEGA)]][idx[(j, F.OMEGA)]] == idx[(i, j)]
        rep = S.structure_report(d)
        assert rep.is_meet_semilattice

    @pytest.mark.parametrize("n", range(1, 7))
    def test_gamma_meets(self, n):
        g = F.gamma(n)
        coords = F.gamma_coords(n)
        idx = {c: k for k, c in enumerate(coords)}
        mt = g.meet_table()
        for i in range(n):
            for j in range(i + 1, n + 1):
                assert mt[idx[(i, F.OMEGA)]][idx[(j, F.OMEGA)]] == idx[(i, i + 1)]
        assert S.structure_report(g).is_meet_semilattice

    @pytest.mark.parametrize("family", [F.delta, F.gamma])
    def test_downset_lattice_distributive_with_independent_columns(self, family):
        base = family(3)
        lat = D.downset_lattice(base)
        assert S.structure_report(lat).is_distributive
        fam = D.enumerate_downsets(base)
        index = {d.mask: i for i, d in enumerate(fam.sets)}
        cols = [index[D.principal(base, x).mask]
                for x in range(base.n) if base.label(x).endswith(",w)")]
        assert len(cols) == 4
        assert S.is_independent(lat, cols)


class TestSmallFamilies:
    def test_v(self):
        v = F.v_family(4)
        assert v.n == 5
        assert v.bottom() == 0
        assert len(v.maximals()) == 4

    def test_l_alpha_pentagon(self):
        l2 = F.l_alpha(2)
        assert l2.n == 5
        rep = S.structure_report(l2)
        assert rep.is_lattice and rep.is_modular is False
        # at least one triple violates the modular law
        jt, mt = l2.join_table(), l2.meet_table()
        violations = [
            (x, y, z)
            for x in range(5) for y in range(5) for z in range(5)
            if l2.leq(x, z) and jt[x][mt[y][z]] != mt[jt[x][y]][z]]
        assert violations

    def test_m5_alias(self):
        m5 = F.generate(F.FamilySpec("m5"))
        assert P.is_isomorphic(m5, F.l_alpha(2)) is not None

    def test_omega_eta(self):
        oe = F.omega_eta(3)
        assert oe.n == 2 ** 4 - 1
        rep = S.structure_report(oe)
        assert rep.is_join_semilattice  # join-subsemilattice of omega x dyadics
        # (0, 0/1) is the least element
        assert oe.bottom() == 0


# ordinals_below(alpha, 40), pinned; every shorter count is a prefix of it
ORDINALS_BELOW = {
    "0,1": [
        (0,), (1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,), (12,),
        (13,), (14,), (15,), (16,), (17,), (18,), (19,), (20,), (21,), (22,), (23,), (24,),
        (25,), (26,), (27,), (28,), (29,), (30,), (31,), (32,), (33,), (34,), (35,), (36,),
        (37,), (38,), (39,),
    ],
    "1,1": [
        (0,), (1,), (0, 1), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (9,), (10,), (11,),
        (12,), (13,), (14,), (15,), (16,), (17,), (18,), (19,), (20,), (21,), (22,), (23,),
        (24,), (25,), (26,), (27,), (28,), (29,), (30,), (31,), (32,), (33,), (34,), (35,),
        (36,), (37,), (38,),
    ],
    "0,3": [
        (0,), (1,), (0, 1), (1, 1), (2, 1), (2,), (0, 2), (1, 2), (2, 2), (3, 1), (3, 2),
        (3,), (4, 1), (4, 2), (4,), (5, 1), (5, 2), (5,), (6, 1), (6, 2), (6,), (7, 1),
        (7, 2), (7,), (8, 1), (8, 2), (8,), (9, 1), (9, 2), (9,), (10, 1), (10, 2), (10,),
        (11, 1), (11, 2), (11,), (12, 1), (12, 2), (12,), (13, 1),
    ],
    "0,0,1": [
        (0,), (1,), (0, 1), (1, 1), (2, 1), (2,), (0, 2), (1, 2), (2, 2), (3, 1), (3, 2),
        (3,), (0, 3), (1, 3), (2, 3), (3, 3), (4, 1), (4, 2), (4, 3), (4,), (0, 4), (1, 4),
        (2, 4), (3, 4), (4, 4), (5, 1), (5, 2), (5, 3), (5, 4), (5,), (0, 5), (1, 5),
        (2, 5), (3, 5), (4, 5), (5, 5), (6, 1), (6, 2), (6, 3), (6, 4),
    ],
    "0,1,1": [
        (0,), (1,), (0, 1), (0, 0, 1), (1, 0, 1), (1, 1), (2, 0, 1), (2, 1), (2,), (0, 2),
        (1, 2), (2, 2), (3, 0, 1), (3, 1), (3, 2), (3,), (0, 3), (1, 3), (2, 3), (3, 3),
        (4, 0, 1), (4, 1), (4, 2), (4, 3), (4,), (0, 4), (1, 4), (2, 4), (3, 4), (4, 4),
        (5, 0, 1), (5, 1), (5, 2), (5, 3), (5, 4), (5,), (0, 5), (1, 5), (2, 5), (3, 5),
    ],
    "0,0,0,1": [
        (0,), (1,), (0, 1), (0, 0, 1), (1, 0, 1), (1, 1), (0, 1, 1), (1, 1, 1), (2, 0, 1),
        (2, 1, 1), (2, 1), (0, 2, 1), (1, 2, 1), (2, 2, 1), (2,), (0, 2), (0, 0, 2),
        (1, 0, 2), (2, 0, 2), (1, 2), (0, 1, 2), (1, 1, 2), (2, 1, 2), (2, 2), (0, 2, 2),
        (1, 2, 2), (2, 2, 2), (3, 0, 1), (3, 1, 1), (3, 2, 1), (3, 1), (0, 3, 1), (1, 3, 1),
        (2, 3, 1), (3, 3, 1), (3, 0, 2), (3, 1, 2), (3, 2, 2), (3, 2), (0, 3, 2),
    ],
    "5": [
        (0,), (1,), (2,), (3,), (4,),
    ],
}

# the column indexes of _sierp_sequence(alpha', 40, scheme, seed=7), pinned;
# an index points into ordinals_below(alpha', 40) when alpha' is infinite
TRIANGLE_COLUMNS = [
    0, 0, 1, 0, 1, 2, 0, 1, 2, 3, 0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 5, 0, 1, 2, 3, 4, 5, 6, 0,
    1, 2, 3, 4, 5, 6, 7, 0, 1, 2, 3,
]
SHUFFLED_COLUMNS = [
    20, 9, 25, 3, 4, 34, 6, 23, 37, 3, 32, 13, 2, 5, 27, 26, 4, 15, 5, 35, 27, 3, 36, 7, 14,
    37, 3, 36, 37, 25, 3, 14, 2, 35, 8, 18, 26, 9, 34, 7,
]
SIERP_COLUMNS = {
    ("0,1", "column_alternating"): TRIANGLE_COLUMNS,
    ("0,1", "block"): TRIANGLE_COLUMNS,
    ("1,1", "column_alternating"): TRIANGLE_COLUMNS,
    ("1,1", "block"): TRIANGLE_COLUMNS,
    ("0,0,1", "column_alternating"): TRIANGLE_COLUMNS,
    ("0,0,1", "block"): TRIANGLE_COLUMNS,
    ("0,1", "seeded_shuffle"): SHUFFLED_COLUMNS,
    ("1,1", "seeded_shuffle"): SHUFFLED_COLUMNS,
    ("0,0,1", "seeded_shuffle"): SHUFFLED_COLUMNS,
    ("2", "column_alternating"): [
        0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
        0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1,
    ],
    ("2", "block"): [
        0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
        1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0,
    ],
    ("2", "seeded_shuffle"): [
        1, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 1,
        0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 1,
    ],
    ("3", "column_alternating"): [
        0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0,
        1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0,
    ],
    ("3", "block"): [
        0, 0, 1, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0,
        1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2, 0,
    ],
    ("3", "seeded_shuffle"): [
        1, 0, 1, 2, 0, 0, 2, 0, 1, 2, 0, 2, 0, 0, 0, 1, 1, 0, 0, 0, 2, 1, 0, 2, 0, 0, 2, 2,
        2, 0, 2, 2, 1, 0, 0, 0, 2, 0, 1, 1,
    ],
}

# sha256 of repr([_sierp_sequence(alpha', n, "seeded_shuffle", 7) for n in 1..40]),
# pinned: a shuffle over infinitely many columns draws from n of them
SHUFFLE_DIGESTS = {
    "0,1": "5810cf1ca3f0458061ea1780710db3bb625ae55ac1185eed750ddcbacecddc02",
    "1,1": "153efbc987619b46a42f7efc4d4a163929e2dd07b602c36bab7049318b725a1a",
    "0,0,1": "ed0a4f27ac22bd202c3cfd8e7f04d284d6f04d9802188953cdcdcb6278ab11c8",
    "2": "e32e84f0483e9dabd9f91ee44c34c0b69da84b27733b591df5155c0a7af995cf",
    "3": "4f8cd91fc5cd003e5f592f64817a83e2202312f0a06df38e2ac881e49c5fb28f",
}


class TestOrdinalCNF:
    def test_parse_and_str(self):
        a = F.OrdinalCNF.parse("0,2")
        assert str(a) == "2w"
        assert a.div_omega().coeffs == (2,)

    def test_rejects_bad(self):
        with pytest.raises(UnsupportedOrdinal):
            F.OrdinalCNF((1, 0))
        with pytest.raises(UnsupportedOrdinal):
            F.OrdinalCNF.parse("3").div_omega()

    def test_enumeration_of_omega_is_identity(self):
        got = F.ordinals_below(F.OrdinalCNF.parse("0,1"), 5)
        assert got == [(0,), (1,), (2,), (3,), (4,)]

    def test_enumeration_below_omega2_alternates_blocks(self):
        got = F.ordinals_below(F.OrdinalCNF.parse("0,2"), 6)
        # by largest coefficient, then highest power first: w+2 before 2
        assert got == [(0,), (1,), (0, 1), (1, 1), (2, 1), (2,)]

    def test_listing_counts_against_the_budget(self, monkeypatch):
        # 8 ordinals below w^3 take cap 2: 2^3 tuples below the cap, times
        # the 2 leading coefficients 0 and 1, are charged before any is listed
        alpha = F.OrdinalCNF.parse("0,0,0,1")
        monkeypatch.setenv("OC_BUDGET", "15")
        with pytest.raises(BudgetExceeded, match="16 coefficient tuples"):
            F.ordinals_below(alpha, 8)
        monkeypatch.setenv("OC_BUDGET", "16")
        assert len(F.ordinals_below(alpha, 8)) == 8

    @pytest.mark.parametrize("alpha", list(ORDINALS_BELOW))
    def test_enumeration_is_pinned(self, alpha):
        listing = ORDINALS_BELOW[alpha]
        for count in range(41):
            assert F.ordinals_below(F.OrdinalCNF.parse(alpha), count) == listing[:count]


class TestSierpinskisation:
    def test_omega2_column_alternating_matches_quoted_structure(self):
        s = F.sierpinskisation("0,2", 6)
        evens, odds = [0, 2, 4], [1, 3, 5]
        for a, b in zip(evens, evens[1:]):
            assert s.lt(a, b)
        for a, b in zip(odds, odds[1:]):
            assert s.lt(a, b)
        assert s.lt(0, 1) and s.lt(2, 3) and s.lt(4, 5)
        assert s.lt(0, 3) and s.lt(0, 5) and s.lt(2, 5)
        assert s.incomparable(1, 2)

    def test_omega_is_chain(self):
        s = F.sierpinskisation("0,1", 5)
        assert s.height() == 5

    @settings(max_examples=20)
    @given(st.sampled_from(["0,1", "0,2", "0,3", "0,0,1"]),
           st.integers(min_value=1, max_value=9),
           st.sampled_from(F.SIERP_SCHEMES))
    def test_order_is_intersection_of_recorded_orders(self, alpha, n, scheme):
        # the order is the natural order intersected with the alpha-order
        # read off the recorded (column, position) pairs, and positions
        # increase along each column (the monotonic condition)
        p = F.sierpinskisation(alpha, n, scheme, seed=7)
        seq = F._sierp_sequence(F.OrdinalCNF.parse(alpha).div_omega(), n, scheme, 7)
        key = [(F._cnf_key(col), position) for col, position in seq]
        for x in range(n):
            for y in range(n):
                if x != y:
                    assert p.lt(x, y) == (x < y and key[x] < key[y])
        last = {}
        for col, position in seq:
            assert position > last.get(col, -1)
            last[col] = position

    @pytest.mark.parametrize("alpha_prime,scheme", list(SIERP_COLUMNS))
    def test_sequence_is_pinned(self, alpha_prime, scheme):
        ap = F.OrdinalCNF.parse(alpha_prime)
        cols = [(k,) for k in range(ap.coeffs[0])] if ap.is_finite else F.ordinals_below(ap, 40)
        want = []
        for k in SIERP_COLUMNS[(alpha_prime, scheme)]:
            want.append((cols[k], sum(1 for col, _p in want if col == cols[k])))
        # a shuffle over infinitely many columns draws from n of them, so
        # only its n = 40 sequence is a literal (SHUFFLE_DIGESTS has the rest)
        sizes = [40] if scheme == "seeded_shuffle" and not ap.is_finite else range(1, 41)
        for n in sizes:
            assert F._sierp_sequence(ap, n, scheme, 7) == want[:n]

    @pytest.mark.parametrize("alpha_prime", list(SHUFFLE_DIGESTS))
    def test_shuffle_is_pinned(self, alpha_prime):
        ap = F.OrdinalCNF.parse(alpha_prime)
        seqs = [F._sierp_sequence(ap, n, "seeded_shuffle", 7) for n in range(1, 41)]
        assert hashlib.sha256(repr(seqs).encode()).hexdigest() == SHUFFLE_DIGESTS[alpha_prime]

    def test_omega_squared_at_1000_builds_in_seconds(self):
        # alpha' = w lists 1000 columns below it
        started = time.monotonic()
        s = F.sierpinskisation("0,0,1", 1000)
        assert time.monotonic() - started < 5.0
        assert s.n == 1000

    def test_seeded_shuffle_reproducible(self):
        a = F.sierpinskisation("0,2", 8, "seeded_shuffle", seed=5)
        b = F.sierpinskisation("0,2", 8, "seeded_shuffle", seed=5)
        assert a == b


class TestLatticeSierp:
    def test_finite_alpha_is_full_grid(self):
        ls = F.lattice_sierp("2", 4)
        assert P.is_isomorphic(
            ls, P.direct_product(P.chain(4), P.chain(2))) is not None

    def test_alpha_one_is_chain(self):
        ls = F.lattice_sierp("1", 5)
        assert ls.height() == 5 and ls.width() == 1

    def test_omega_window_is_staircase(self):
        ls = F.lattice_sierp("0,1", 5)
        cells = sorted((i, j) for j in range(5) for i in range(5) if j <= i)
        idx = {c: k for k, c in enumerate(sorted(cells))}
        assert ls.n == len(cells)
        jt = ls.join_table()
        for a in cells:
            for b in cells:
                want = (max(a[0], b[0]), max(a[1], b[1]))
                assert jt[idx[a]][idx[b]] == idx[want]

    def test_rejects_zero(self):
        with pytest.raises(UnsupportedOrdinal):
            F.lattice_sierp("0", 3)

    @staticmethod
    def cells(alpha, n):
        """The window's cells (i, column) in element order: every column
        below a finite alpha', else the staircase over ordinals_below."""
        alpha = F.OrdinalCNF.parse(alpha)
        if alpha.is_finite:
            cells = [(i, (a,)) for i in range(n) for a in range(alpha.coeffs[0])]
        else:
            cols = F.ordinals_below(alpha, n)
            cells = [(i, cols[j]) for i in range(n) for j in range(i + 1)]
        return sorted(cells, key=lambda c: (c[0], F._cnf_key(c[1])))

    @staticmethod
    def joins_by_coordinates(host, cells) -> bool:
        """Whether every join in host is the cell (max i, max column by
        _cnf_key), and that cell is in the window."""
        idx = {c: k for k, c in enumerate(cells)}
        for a in cells:
            for b in cells:
                want = (max(a[0], b[0]), max(a[1], b[1], key=F._cnf_key))
                if want not in idx or host.join(idx[a], idx[b]) != idx[want]:
                    return False
        return True

    @pytest.mark.parametrize("alpha", ["2", "3", "0,1", "1,1", "0,0,1"])
    @pytest.mark.parametrize("n", [1, 2, 6])
    def test_cone_built_join_is_coordinatewise(self, alpha, n):
        ls, cells = F.lattice_sierp(alpha, n), self.cells(alpha, n)
        assert [ls.label(k) for k in range(ls.n)] == [
            f"({i},{F.OrdinalCNF(a) if len(a) > 1 else a[0]})" for (i, a) in cells]
        assert self.joins_by_coordinates(ls, cells)

    def test_join_law_check_sees_a_dropped_cell(self):
        # without (1,1), the join of (1,0) and (0,1) in chain 4 x chain 2 is
        # (2,1), not a cell the formula can name
        ls, cells = F.lattice_sierp("2", 4), self.cells("2", 4)
        keep = [k for k, c in enumerate(cells) if c != (1, (1,))]
        assert len(keep) == len(cells) - 1
        assert not self.joins_by_coordinates(P.induced(ls, keep), [cells[k] for k in keep])


class TestSAlpha:
    def test_direct_sum_shape(self):
        p = F.s_alpha("1", 4, 3)
        core = F.sierpinskisation("0,1", 4)
        assert p.n == core.n + 3
        assert P.is_isomorphic(
            p, P.direct_sum(core, P.chain(3))) is not None

    def test_no_tail(self):
        assert F.s_alpha("2", 6, 0) == F.sierpinskisation("0,2", 6)


# parameters that give each family two or more elements; the finite alphas
# keep ordinals_below, which has its own budget check, out of the way
AT_LEAST_TWO = {
    "finite_powerset": {"n": 1}, "omega_star_grid": {"n": 2}, "delta": {"n": 1},
    "gamma": {"n": 1}, "v": {"n": 1}, "l_alpha": {"a": 1}, "m5": {}, "omega_eta": {"n": 1},
    "sierpinskisation": {"alpha": "0,2", "n": 2}, "lattice_sierp": {"alpha": "2", "n": 1},
    "s_alpha": {"alpha": "1", "trunc": 2},
}


class TestEveryFamilyBudget:
    def test_every_family_is_listed(self):
        assert set(AT_LEAST_TWO) == set(F.FAMILIES)

    @pytest.mark.parametrize("family", F.FAMILIES)
    def test_generate_checks_the_size(self, family, monkeypatch):
        # under a budget of 1, each generator refuses its own size before
        # it builds anything
        monkeypatch.setenv("OC_BUDGET", "1")
        with pytest.raises(BudgetExceeded, match=r" has .*more than 1\b"):
            F.generate(F.FamilySpec(family, AT_LEAST_TWO[family]))


class TestGenerateDispatch:
    CASES = [
        F.FamilySpec("finite_powerset", {"n": 3}),
        F.FamilySpec("omega_star_grid", {"n": 4}),
        F.FamilySpec("omega_star_grid", {"n": 4}, with_bottom=True),
        F.FamilySpec("delta", {"n": 3}),
        F.FamilySpec("gamma", {"n": 3}),
        F.FamilySpec("v", {"n": 3}),
        F.FamilySpec("l_alpha", {"a": 3}),
        F.FamilySpec("m5"),
        F.FamilySpec("omega_eta", {"n": 2}),
        F.FamilySpec("sierpinskisation", {"alpha": "0,2", "n": 6}),
        F.FamilySpec("lattice_sierp", {"alpha": "0,1", "n": 4}),
        F.FamilySpec("s_alpha", {"alpha": "1", "tail": 2, "trunc": 4}),
    ]

    @pytest.mark.parametrize("spec", CASES, ids=lambda s: s.family + str(s.params))
    def test_deterministic_json(self, spec):
        from ordercraft.poset import to_json
        assert to_json(F.generate(spec)) == to_json(F.generate(spec))

    def test_unknown_family(self):
        with pytest.raises(UnsupportedParams):
            F.FamilySpec("nonsense")

    def test_unknown_param(self):
        with pytest.raises(UnsupportedParams):
            F.generate(F.FamilySpec("delta", {"n": 3, "zap": 1}))
