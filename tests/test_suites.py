"""Randomized suites: determinism, oracle agreement, failure bundles."""

import json
from pathlib import Path
from random import Random

import pytest

from ordercraft import downsets as D
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import semilattice as S
from ordercraft import suites as SU
from ordercraft.errors import BudgetExceeded, UnknownSuite

from test_semilattice import lift_witness


class TestRandomGenerators:
    def test_density_zero_is_antichain(self):
        p = SU.random_poset(6, 0.0, 1)
        assert p.cover_pairs() == ()

    def test_density_one_is_chain(self):
        p = SU.random_poset(6, 1.0, 1)
        assert P.is_isomorphic(p, P.chain(6)) is not None

    def test_deterministic(self):
        a = SU.random_poset(8, 0.4, 123)
        b = SU.random_poset(8, 0.4, 123)
        assert P.to_json(a) == P.to_json(b)

    def test_join_semilattice_is_certified(self):
        # the generator builds a least element and every join, and checks neither
        for seed in range(200):
            p = SU.random_join_semilattice(10, seed)
            assert p.n <= 10 and p.bottom() is not None
            S.require_joins(p)

    def test_join_semilattice_deterministic(self):
        a = SU.random_join_semilattice(9, 7)
        b = SU.random_join_semilattice(9, 7)
        assert P.to_json(a) == P.to_json(b)


class TestRunSuite:
    def test_unknown(self):
        with pytest.raises(UnknownSuite):
            SU.run_suite("nope", 1, 0)

    @pytest.mark.parametrize("name", SU.SUITES)
    def test_deterministic_reports(self, name):
        trials = 3 if name in ("thm8_pipe", "sum_prod") else 10
        a = SU.run_suite(name, trials, 5)
        b = SU.run_suite(name, trials, 5)
        assert a.failures == b.failures
        assert a.ok

    def test_width_kernel_agrees_with_oracle(self):
        rep = SU.run_suite("width", 300, 0)
        assert rep.ok and rep.trials == 300

    def test_tables_agree_with_oracle(self):
        rep = SU.run_suite("tables", 300, 0)
        assert rep.ok and rep.trials == 300

    def test_bound_oracle_finds_missing_joins(self):
        # the bowtie 0, 1 < 2, 3: the pair 0, 1 has two minimal upper bounds
        # and no join, and dually 2, 3 have no meet
        bowtie = P.build(4, "covers", [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert SU.bound_oracle(bowtie, True) == (
            (0, None, 2, 3), (None, 1, 2, 3), (2, 2, 2, None), (3, 3, None, 3))
        assert SU.bound_oracle(bowtie, False) == (
            (0, None, 0, 0), (None, 1, 1, 1), (0, 1, 2, None), (0, 1, None, 3))
        assert SU.bound_oracle(bowtie, True) == bowtie.join_table()

    def test_report_json(self):
        rep = SU.run_suite("irr_eq", 5, 1)
        data = rep.to_json_dict()
        assert data["suite"] == "irr_eq" and data["trials"] == 5

    def test_fault_injection_reports_one_failure_with_bundle(self, monkeypatch,
                                                             planted_lem2_3):
        monkeypatch.setitem(SU._SUITE_FUNCS, "lem2_3", (planted_lem2_3, 4))
        rep = SU.run_suite("lem2_3", 1, seed=9)
        assert len(rep.failures) == 1
        _trial, bundle = rep.failures[0]
        # the bundle round-trips: re-running the bundled inputs reproduces
        # the violating verdict
        host = P.from_json_dict(bundle["poset"] if "poset" in bundle
                                else bundle["host"])
        row = bundle["row"]
        mt = host.meet_table()
        coords = F.delta_coords(len(row) - 1)
        table = [row[i] if j == F.OMEGA else mt[row[i]][row[j]]
                 for (i, j) in coords]
        again = SU.check_delta_map(host, table, len(row) - 1)
        assert not again.conditions_hold and again.all_equivalent
        assert again.conditions == bundle["conditions"]

    def test_raising_trial_becomes_a_failure(self, monkeypatch):
        calls = []

        def suite(rng, max_n):
            calls.append(rng.random())
            if len(calls) == 2:
                raise BudgetExceeded("more than 3 downsets")
            return True, {}

        monkeypatch.setitem(SU._SUITE_FUNCS, "width", (suite, 4))
        rep = SU.run_suite("width", 4, 7)
        assert len(calls) == 4 and rep.trials == 4
        assert rep.failures == ((1, {
            "error": {"type": "BudgetExceeded", "message": "more than 3 downsets"},
            "trial_seed": [7, 1]}),)
        assert json.loads(rep.to_json())["failures"][0]["bundle"]["trial_seed"] == [7, 1]

    def test_failure_bundles_match_the_golden(self):
        # the bundles of every suite but thm8_pipe at seed 3, trials 0..4,
        # written out when each suite still serialized its posets itself:
        # the failure helper must give back the same JSON, byte for byte
        golden = (Path(__file__).parent / "golden" / "suite_bundles.json").read_text()
        got = {}
        for name, (func, bound) in SU._SUITE_FUNCS.items():
            if name != "thm8_pipe":
                got[name] = [SU._bundle_json(func(Random(3 * 1_000_003 + t), bound)[1])
                             for t in range(5)]
        assert len(got) == 10
        assert json.dumps(got, sort_keys=True, indent=1) + "\n" == golden

    def test_a_passing_trial_serializes_nothing(self):
        # the bundle holds the Poset itself, its set labels not yet built
        ok, bundle = SU._suite_irr_eq(Random(3), 7)
        assert ok and isinstance(bundle["poset"], P.Poset)
        ok, bundle = SU._suite_lem2_3(Random(3), 4)
        assert ok and callable(bundle["host"]._labels)

    def test_no_false_passes_under_injection(self, monkeypatch, planted_lem2_3):
        # every injected trial must fail; a pass would be a false pass
        monkeypatch.setitem(SU._SUITE_FUNCS, "lem2_3", (planted_lem2_3, 4))
        rep = SU.run_suite("lem2_3", 5, seed=3)
        assert len(rep.failures) == 5
        # each fails on its verdict, not on a raise inside the planted trial
        assert all("error" not in bundle for _t, bundle in rep.failures)


class TestMovedCrossChecks:
    """Cross-checks the operations no longer run on themselves: the suites
    hold them, and each fails a trial when its two sides disagree."""

    @pytest.mark.parametrize("source, target, table, injective", [
        # f injective, and f(1) is not the image of 0, the one element below 1
        (P.chain(2), P.chain(2), (0, 1), True),
        # f not injective: the lift of a constant map is constant
        (P.chain(2), P.chain(2), (0, 0), False),
        # f injective, but the top of B_2 is the join of the atoms below it
        (F.finite_powerset(2), F.finite_powerset(2), (0, 1, 2, 3), False),
    ])
    def test_lift_criterion_against_the_lift_table(self, source, target, table, injective):
        f = S.MapWitness(source, target, table, frozenset({"meet_preserving"}))
        assert SU.lift_injectivity_criterion(f) is injective
        assert lift_witness(source, target, table).check_flag("injective") is injective

    @pytest.mark.parametrize("fault", ["drop", "swap"])
    def test_ideal_principal_fails_a_trial_whose_ideals_are_wrong(self, monkeypatch, fault):
        # the suite checks principal_ideals, the ideals subcommand's path,
        # against the definition, list order included
        real = D.principal_ideals

        def planted(q):
            sets = real(q).sets
            sets = sets[1:] if fault == "drop" else sets[1::-1] + sets[2:]
            return D.DownSetFamily(q, sets, "ideals")

        assert SU.run_suite("ideal_principal", 30, 3).ok
        monkeypatch.setattr(D, "principal_ideals", planted)
        rep = SU.run_suite("ideal_principal", 30, 3)
        counts = [bundle["ideal_count"] for _t, bundle in rep.failures]
        # a swap leaves the one ideal of a single element in place
        if fault == "drop":
            assert len(counts) == 30
        else:
            assert counts and min(counts) >= 2

    def test_fvee_fails_a_trial_whose_criterion_disagrees(self, monkeypatch):
        real = SU.lift_injectivity_criterion
        assert SU.run_suite("fvee", 20, 3).ok
        monkeypatch.setattr(SU, "lift_injectivity_criterion", lambda f: not real(f))
        rep = SU.run_suite("fvee", 20, 3)
        assert len(rep.failures) == 20

    def test_tm21_fails_a_trial_whose_found_set_is_dependent(self, monkeypatch):
        real = S.find_independent_set

        def repeated(p, k):
            # a found set with its first member repeated is never independent
            got = real(p, k)
            return None if got is None else [got[0]] * k

        monkeypatch.setattr(S, "find_independent_set", repeated)
        rep = SU.run_suite("tm21", 30, 3)
        failed = [bundle for _t, bundle in rep.failures]
        assert failed and all(b["results"]["search"] for b in failed)
        # a found singleton is independent, so only k >= 2 trials fail
        assert {b["k"] for b in failed} <= {2, 3}
