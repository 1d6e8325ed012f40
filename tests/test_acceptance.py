"""Acceptance criteria, one test per criterion, each with its stated
tolerance and wall-clock bound. Every test prints a single pass line; any
assertion failing means the criterion is red.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

from ordercraft import constructions as C
from ordercraft import downsets as D
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import semilattice as S
from ordercraft import suites as SU

GOLDEN_DIR = Path(__file__).parent / "golden"


def _announce(num, name):
    # bypass capture so the criterion lines always reach the terminal
    print(f"acceptance {num} ({name}): PASS", file=sys.__stdout__)


def test_criterion_01_tm21_suite():
    started = time.monotonic()
    report = SU.run_suite("tm21", 300, seed=42, max_n=10)
    elapsed = time.monotonic() - started
    assert report.failures == ()
    assert elapsed < 60.0, f"tm21 took {elapsed:.1f}s"
    _announce(1, "tm21 three-way equivalence, 300 trials")


def test_criterion_02_irr_eq_suite():
    report = SU.run_suite("irr_eq", 200, seed=42, max_n=7)
    assert report.failures == ()
    _announce(2, "irreducibles = primes = principal downsets, 200 trials")


def test_criterion_03_sum_prod_suite():
    report = SU.run_suite("sum_prod", 200, seed=42, max_n=5)
    assert report.failures == ()
    _announce(3, "downset lattice of a sum is the product, 200 trials")


def test_criterion_04_ideals_principal_everywhere(monkeypatch):
    # re-runs the suites of criteria 1-3 and re-checks every poset their
    # random generators and direct sums made
    collected = []

    def collecting(make):
        def wrapper(*args):
            collected.append(make(*args))
            return collected[-1]
        return wrapper

    for module, name in ((SU, "random_poset"), (SU, "random_join_semilattice"),
                         (P, "direct_sum")):
        monkeypatch.setattr(module, name, collecting(getattr(module, name)))
    # criteria 1-3: the suite, its trials and its size bound, at seed 42
    for suite, trials, max_n in (("tm21", 300, 10), ("irr_eq", 200, 7), ("sum_prod", 200, 5)):
        assert SU.run_suite(suite, trials, seed=42, max_n=max_n).failures == ()
    # tm21 draws a base poset and a semilattice, sum_prod two posets and
    # their sum, irr_eq one poset per trial
    assert len(collected) == 2 * 300 + 200 + 3 * 200
    for p in collected:
        ideals = SU.enumerate_ideals(p)
        assert len(ideals) == p.n
        principal = {D.principal(p, x).mask for x in range(p.n)}
        assert set(ideals) == principal
    _announce(4, f"ideals are principal on all {len(collected)} "
                 "posets touched by criteria 1-3")


def test_criterion_05_family_counts_and_algebra():
    for n in range(1, 9):
        assert F.delta(n).n == n * (n + 1) // 2 + n + 1
        assert F.gamma(n).n == 2 * n + 1

    for n in range(1, 7):
        d = F.delta(n)
        coords = F.delta_coords(n)
        idx = {c: k for k, c in enumerate(coords)}
        mt = d.meet_table()
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                assert mt[idx[(i, F.OMEGA)]][idx[(j, F.OMEGA)]] == idx[(i, j)]
        g = F.gamma(n)
        gcoords = F.gamma_coords(n)
        gidx = {c: k for k, c in enumerate(gcoords)}
        gmt = g.meet_table()
        for i in range(n):
            for j in range(i + 1, n + 1):
                assert gmt[gidx[(i, F.OMEGA)]][gidx[(j, F.OMEGA)]] == gidx[(i, i + 1)]

    for n in range(1, 7):
        grid = F.omega_star_grid(n)
        coords = F.grid_coords(n)
        idx = {c: k for k, c in enumerate(coords)}
        jt = grid.join_table()
        for a in coords:
            for b in coords:
                assert jt[idx[a]][idx[b]] == idx[(min(a[0], b[0]), max(a[1], b[1]))]

    l2 = F.l_alpha(2)
    assert l2.n == 5
    rep = S.structure_report(l2)
    assert rep.is_lattice and rep.is_modular is False
    jt, mt = l2.join_table(), l2.meet_table()
    assert any(
        l2.leq(x, z) and jt[x][mt[y][z]] != mt[jt[x][y]][z]
        for x in range(5) for y in range(5) for z in range(5))
    _announce(5, "family counts, meets, joins, and the pentagon")


def _powerset_suffix_chain(n):
    host = F.finite_powerset(n)
    members = []
    for k in range(n):
        allowed = 0
        for m in range(k, n):
            allowed |= 1 << m
        members.append(D.DownSet(
            host, frozenset(x for x in range(1 << n) if x & ~allowed == 0)))
    return C.ChainOfDownSets(host, tuple(members), decreasing=True)


def _grid_suffix_chain(n):
    host = F.omega_star_grid(n)
    coords = F.grid_coords(n)
    idx = {c: i for i, c in enumerate(coords)}
    members = tuple(
        D.DownSet(host, frozenset(idx[(i, j)] for (i, j) in coords if i >= k))
        for k in range(n))
    return C.ChainOfDownSets(host, members, decreasing=True)


def test_criterion_06_separating_chain_pair():
    started = time.monotonic()
    chain = _powerset_suffix_chain(8)
    ok, witness = C.is_separating(chain)
    assert ok and witness is None
    cert = C.independent_from_separating(chain)
    xs = cert.payload["independent_set"]
    assert len(xs) == 7
    assert S.is_independent(chain.host, xs)

    gchain = _grid_suffix_chain(8)
    gok, gwitness = C.is_separating(gchain)
    assert not gok and gwitness is not None
    member, x = gwitness
    for j in gchain.members:
        assert member.mask & ~SU.ideal_join_oracle(gchain.host, x, j.mask) == 0
    elapsed = time.monotonic() - started
    assert elapsed < 5.0, f"criterion 6 took {elapsed:.1f}s"
    _announce(6, "B_8 suffix chain separating with size-7 extraction; "
                 "grid chain refuted with witness")


def test_criterion_07_dichotomy_grid_map():
    cert = C.dichotomy_extract(_grid_suffix_chain(8), 4)
    assert cert.kind == "GridMap"
    host = P.from_json_dict(cert.payload["host"])
    coords = F.grid_coords(4)
    idx = {c: i for i, c in enumerate(coords)}
    table = cert.payload["table"]
    jt = host.join_table()
    violations = 0
    for a in coords:
        for b in coords:
            want = table[idx[(min(a[0], b[0]), max(a[1], b[1]))]]
            if jt[table[idx[a]]][table[idx[b]]] != want:
                violations += 1
    assert violations == 0
    assert len(set(table)) == len(table)
    _announce(7, "grid chain at depth 4 yields a join-preserving injective "
                 "grid map, 0 violations")


def test_criterion_08_ramsey_classifications():
    started = time.monotonic()
    expectations = []
    for family, expected in [(F.delta, "DeltaLike"), (F.gamma, "GammaLike")]:
        base = family(5)
        lat = D.downset_lattice(base)
        fam = D.enumerate_downsets(base)
        index = {d.mask: i for i, d in enumerate(fam.sets)}
        xs = [index[D.principal(base, x).mask]
              for x in range(base.n) if base.label(x).endswith(",w)")]
        cert = C.ramsey_extract(lat, xs, 6)
        expectations.append((cert, expected))
    cert_v = C.ramsey_extract(F.finite_powerset(4), [1, 2, 4, 8], 4)
    expectations.append((cert_v, "VLike"))
    for cert, expected in expectations:
        assert cert.payload["classification"] == expected
        pattern = F.generate(F.FamilySpec(
            cert.payload["pattern"]["family"],
            {"n": cert.payload["pattern"]["n"]}))
        host = P.from_json_dict(cert.payload["host"])
        witness = S.MapWitness(pattern, host, tuple(cert.payload["table"]))
        assert witness.check_flag("meet_preserving")
        assert witness.check_flag("injective")
    elapsed = time.monotonic() - started
    assert elapsed < 30.0, f"criterion 8 took {elapsed:.1f}s"
    _announce(8, "planted antichains classify Delta/Gamma/V with verified maps")


def test_criterion_09_pipeline_end_to_end():
    started = time.monotonic()
    hosts = [
        (D.downset_lattice(F.delta(4)), 5),
        (D.downset_lattice(F.gamma(4)), 5),
        (F.finite_powerset(6), 6),
    ]
    for host, k in hosts:
        cert = C.thm8_pipeline(host, k)
        assert cert.ok()
        recomputed = C.verify_certificate(cert)
        assert dict(recomputed) == dict(cert.evidence)
        assert all(v for _n, v in recomputed)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"criterion 9 took {elapsed:.1f}s"
    _announce(9, "pipeline certificates re-verify on delta(4), gamma(4), B_6")


def test_criterion_10_lem2_3_suite(monkeypatch, planted_lem2_3):
    report = SU.run_suite("lem2_3", 100, seed=42)
    assert report.failures == ()

    # fault injection: a descending row forces (iii) false; the checker must
    # flag every condition false together, never a false pass
    host = P.chain(4)
    row = [3, 2, 1]
    mt = host.meet_table()
    coords = F.delta_coords(2)
    table = [row[i] if j == F.OMEGA else mt[row[i]][row[j]]
             for (i, j) in coords]
    rep = SU.check_delta_map(host, table, 2)
    assert rep.all_equivalent and not rep.conditions_hold
    assert all(v is False for v in rep.conditions.values())
    monkeypatch.setitem(SU._SUITE_FUNCS, "lem2_3", (planted_lem2_3, 4))
    injected = SU.run_suite("lem2_3", 3, seed=42)
    assert len(injected.failures) == 3  # every planted violation is caught
    _announce(10, "delta-map conditions share one truth value; "
                  "injectivity criterion exact; faults caught")


CLI_GOLDEN = {
    "b3": ["--family", "finite_powerset", "--n", "3"],
    "grid4": ["--family", "omega_star_grid", "--n", "4"],
    "grid4_bottom": ["--family", "omega_star_grid", "--n", "4", "--with-bottom"],
    "delta3": ["--family", "delta", "--n", "3"],
    "gamma3": ["--family", "gamma", "--n", "3"],
    "v4": ["--family", "v", "--n", "4"],
    "l3": ["--family", "l_alpha", "--a", "3"],
    "m5": ["--family", "m5"],
    "eta2": ["--family", "omega_eta", "--n", "2"],
    "sierp_w2_6": ["--family", "sierpinskisation", "--alpha", "0,2", "--n", "6"],
    "lsierp_w_4": ["--family", "lattice_sierp", "--alpha", "0,1", "--n", "4"],
    "salpha_1_2_3": ["--family", "s_alpha", "--alpha", "1", "--tail", "2",
                     "--trunc", "3"],
}


def _cli(args, **kw):
    return subprocess.run([sys.executable, "-m", "ordercraft.cli", *args],
                          capture_output=True, text=True, **kw)


def test_criterion_11_cli_goldens_and_exit_codes(tmp_path):
    # golden equality for every family at fixed parameters
    for name, args in CLI_GOLDEN.items():
        proc = _cli(["generate", *args])
        assert proc.returncode == 0, name
        golden = (GOLDEN_DIR / f"{name}.json").read_text()
        assert proc.stdout == golden, f"golden drift for {name}"
        # JSON round-trip identity
        p = P.from_json_dict(json.loads(proc.stdout))
        assert P.from_json_dict(json.loads(P.to_json(p))) == p

    # scripted end-to-end exit-code check: 0, 1, 2, 3, 4
    b3 = tmp_path / "b3.json"
    b3.write_text(P.to_json(F.finite_powerset(3)))
    l2 = tmp_path / "l2.json"
    l2.write_text(P.to_json(F.l_alpha(2)))
    b2 = tmp_path / "b2.json"
    b2.write_text(P.to_json(F.finite_powerset(2)))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    big = tmp_path / "big.json"
    big.write_text(P.to_json(P.antichain(12)))

    assert _cli(["embed", "--pattern", str(b2), "--target", str(b3),
                 "--mode", "join"]).returncode == 0
    assert _cli(["embed", "--pattern", str(l2), "--target", str(b3),
                 "--mode", "sublattice"]).returncode == 1
    assert _cli(["generate"]).returncode == 2
    assert _cli(["analyze", str(bad)]).returncode == 3
    # the child inherits the environment (PYTHONPATH included) plus the budget
    over = _cli(["ideals", str(big), "--all-downsets"],
                env={**os.environ, "OC_BUDGET": "50"})
    assert over.returncode == 4, over.stderr
    _announce(11, "CLI goldens byte-identical, round trips hold, "
                  "exit codes 0-4 observed")
