"""The three workloads of the ordercraft benchmark.

Each workload has a set-up function that makes its inputs from a seed and
writes each one as JSON, and returns a fixed job list. A job is a triple
``(name, function, kwargs)``; ``function(engine, **kwargs)`` starts from the
input file, drives the engine the way a user does, and checks the output
against a value known independently of the code under test. A wrong output
raises :class:`CheckFailed`.

Random relations, their downset counts and their widths are computed here by
brute force over subsets, so the expected values never come from the engine.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from math import comb
from random import Random


class CheckFailed(Exception):
    """A job ran, but its output disagrees with the known value."""


def expect(condition, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# independent oracles on small random relations


def random_relation(rng: Random, n: int, density: float):
    """Forward pairs i < j drawn with the given density, and the strict
    up-sets (bitmasks) of their transitive closure."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < density]
    up = [0] * n
    for i in reversed(range(n)):
        for a, b in pairs:
            if a == i:
                up[i] |= (1 << b) | up[b]
    return pairs, up


def count_downsets(up) -> int:
    """Downsets of the strict order ``up``, by include-or-skip over a linear
    extension: an element may join only once everything below it has."""
    n = len(up)
    down = [sum(1 << x for x in range(n) if (up[x] >> y) & 1) for y in range(n)]
    order = sorted(range(n), key=lambda y: bin(down[y]).count("1"))

    def count(k: int, chosen: int) -> int:
        if k == n:
            return 1
        y = order[k]
        total = count(k + 1, chosen)
        if down[y] & ~chosen == 0:
            total += count(k + 1, chosen | (1 << y))
        return total

    return count(0, 0)


def brute_width(up) -> int:
    n = len(up)
    return max(bin(s).count("1") for s in range(1 << n)
               if all(up[y] & s == 0 for y in range(n) if (s >> y) & 1))


def _write(work: str, name: str, obj) -> str:
    path = os.path.join(work, name + ".json")
    with open(path, "w") as fh:
        json.dump(obj, fh)
    return path


def _load(path: str):
    with open(path) as fh:
        return json.load(fh)


def _generate(eng, family: str, **params):
    return eng.families.generate(eng.families.FamilySpec(family, params))


def _set_label(label: str) -> frozenset:
    inner = label.strip("{}")
    return frozenset(inner.split(",")) if inner else frozenset()


def _chain_label(label: str):
    return tuple(int(x) for x in label.strip("()").split(","))


# ---------------------------------------------------------------------------
# lattice_sweep: hosts loaded from JSON and analysed like `ordercraft analyze`


def analyze_job(eng, path, size, structure, width, known_width=None,
                covers=None, ops=None, pairs=(), downsets=False):
    """With ``downsets`` the file holds a base poset and the host is its
    downset lattice, as `ordercraft ideals --lattice` builds it."""
    p = eng.poset.from_json_dict(_load(path))
    if downsets:
        p = eng.downsets.downset_lattice(p)
    expect(p.n == size, f"{p.n} elements, expected {size}")
    got_covers = len(p.cover_pairs())
    expect(covers is None or got_covers == covers,
           f"{got_covers} cover pairs, expected {covers}")
    jt = p.join_table()
    mt = p.meet_table()
    if structure:
        rep = eng.semilattice.structure_report(p)
        expect(rep.is_lattice and rep.is_distributive and rep.is_modular,
               "not reported as a distributive, modular lattice")
    else:
        expect(all(None not in row for row in jt)
               and all(None not in row for row in mt), "a join or meet is missing")
    if width:
        stats = p.basic_stats()
        expect(known_width is None or stats["width"] == known_width,
               f"width {stats['width']}, expected {known_width}")
    else:
        p.minimals(), p.maximals(), p.height(), p.linear_extension()
    # joins and meets read off the labels: unions and intersections of
    # downsets, or coordinatewise max and min in a product of chains
    labels = p.labels
    for i, j in pairs:
        if ops == "sets":
            a, b = _set_label(labels[i]), _set_label(labels[j])
            expect(_set_label(labels[jt[i][j]]) == a | b, f"join of {i},{j}")
            expect(_set_label(labels[mt[i][j]]) == a & b, f"meet of {i},{j}")
        else:
            a, b = _chain_label(labels[i]), _chain_label(labels[j])
            expect(_chain_label(labels[jt[i][j]]) == tuple(map(max, a, b)),
                   f"join of {i},{j}")
            expect(_chain_label(labels[mt[i][j]]) == tuple(map(min, a, b)),
                   f"meet of {i},{j}")


# Seeded random hosts, as {downset lattice size: count}. Fixing the sizes
# keeps the cost of a pass the same across seeds, and the counts put both
# the median job and the 90th percentile inside the size-32 block, so that
# neither percentile sits on a jump between two jobs, nor on a job of a few
# milliseconds, whose time swings most with the load on the machine.
SWEEP_RANDOM = {24: 40, 32: 120}


def setup_lattice_sweep(eng, rng: Random, work: str):
    """Hosts of growing size. The structure report runs up to 256 elements
    and the width search only where it ends within seconds: on B_6 it takes
    about half a minute, and on O(delta 4) it exhausts its node budget."""
    P = eng.poset
    hosts = []   # (name, poset JSON, kwargs for analyze_job)
    for n in range(3, 9):
        hosts.append((f"B_{n}", P.to_json_dict(_generate(eng, "finite_powerset", n=n)), dict(
            size=1 << n, covers=n << (n - 1), ops="sets", structure=True,
            width=n <= 5,
            # Sperner: the largest antichain of B_n is its middle level
            known_width=comb(n, n // 2))))
    for fam, n in (("delta", 3), ("delta", 4), ("gamma", 4), ("omega_star_grid", 4)):
        base = _generate(eng, fam, n=n)
        hosts.append((f"O({fam} {n})", P.to_json_dict(base), dict(
            downsets=True, size=count_downsets(base.up), ops="sets",
            structure=True, width=(fam, n) != ("delta", 4))))
    for k in range(8, 12):
        # O(antichain 8) is B_8 relabelled, whose job already runs the
        # structure report at 256 elements
        hosts.append((f"O(antichain {k})", P.to_json_dict(P.antichain(k)), dict(
            downsets=True, size=1 << k, covers=k << (k - 1), ops="sets",
            structure=False, width=False)))
    # a product of two 8-chains is a distributive lattice of width 8
    hosts.append(("C8xC8", P.to_json_dict(P.direct_product(P.chain(8), P.chain(8))), dict(
        size=64, covers=2 * 8 * 7, ops="chains", structure=True, width=True,
        known_width=8)))
    # B_4 x C_3 is Sperner; its largest rank level has 14 elements
    hosts.append(("B_4xC_3", P.to_json_dict(P.direct_product(
        _generate(eng, "finite_powerset", n=4), P.chain(3))), dict(
            size=48, structure=True, width=True, known_width=14)))
    for size, count in SWEEP_RANDOM.items():
        for r in range(count):
            while True:
                n = rng.randint(1, 5)
                pairs, up = random_relation(rng, n, rng.random())
                if count_downsets(up) == size:
                    break
            base = {"version": 1, "n": n, "relation": {"kind": "leq", "pairs": pairs}}
            hosts.append((f"O(random {n}) #{size}.{r}", base, dict(
                downsets=True, size=size, ops="sets", structure=True, width=True,
                # 2^n downsets: an antichain, whose downset lattice is B_n
                known_width=comb(n, n // 2) if size == 1 << n else None)))

    jobs = []
    for name, doc, kw in hosts:
        if not kw["width"]:
            kw.pop("known_width", None)
        if kw.get("ops"):
            kw["pairs"] = [(rng.randrange(kw["size"]), rng.randrange(kw["size"]))
                           for _ in range(32)]
        kw["path"] = _write(work, f"sweep{len(jobs)}", doc)
        jobs.append((name, analyze_job, kw))
    return jobs


# ---------------------------------------------------------------------------
# pipeline_certify: extractions whose certificates go through JSON


def _check_certificate(eng, cert, kind: str):
    C = eng.constructions
    back = C.Certificate.from_json_dict(json.loads(json.dumps(cert.to_json_dict())))
    expect(back.kind == kind, f"certificate kind {back.kind}, expected {kind}")
    expect(C.certificate_valid(back), "certificate does not re-verify")
    return back


LIKE = ("DeltaLike", "GammaLike", "VLike")


def pipeline_job(eng, path, k, classification=None):
    host = eng.poset.from_json_dict(_load(path))
    cert = eng.constructions.thm8_pipeline(host, k)
    got = _check_certificate(eng, cert, "SublatticePattern").payload["classification"]
    expect(got == classification if classification else got in LIKE,
           f"classified {got}, expected {classification or LIKE}")


def cli_pipeline_job(eng, path, k, classification, cert_path):
    expect(eng.cli.main(["pipeline", path, "--k", str(k), "--out", cert_path]) == 0,
           "pipeline exit code")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = eng.cli.main(["verify-cert", cert_path])
    expect(code == 0 and json.loads(out.getvalue()) == {"valid": True},
           "verify-cert did not report a valid certificate")
    got = _load(cert_path)["payload"]["classification"]
    expect(got == classification, f"classified {got}, expected {classification}")


def ramsey_job(eng, path, classification):
    data = _load(path)
    host = eng.poset.from_json_dict(data["host"])
    cert = eng.constructions.ramsey_extract(host, data["antichain"], data["m"])
    got = _check_certificate(eng, cert, "RamseyClass").payload["classification"]
    expect(got == classification, f"classified {got}, expected {classification}")


def dichotomy_job(eng, path, depth):
    C = eng.constructions
    chain = C.ChainOfDownSets.from_json_dict(_load(path))
    _check_certificate(eng, C.dichotomy_extract(chain, depth), "GridMap")


def separating_job(eng, path, size):
    C = eng.constructions
    chain = C.ChainOfDownSets.from_json_dict(_load(path))
    cert = _check_certificate(eng, C.independent_from_separating(chain), "IndependentSet")
    got = len(cert.payload["independent_set"])
    expect(got == size, f"independent set of {got}, expected {size}")


def _powerset_suffix_chain(eng, n):
    """Members {x : x uses only coordinates >= k}, k = 0..n-1: separating."""
    D = eng.downsets
    host = _generate(eng, "finite_powerset", n=n)
    members = tuple(
        D.DownSet(host, frozenset(x for x in range(1 << n) if x & ((1 << k) - 1) == 0))
        for k in range(n))
    return eng.constructions.ChainOfDownSets(host, members, decreasing=True)


def _grid_suffix_chain(eng, n):
    """Members {(i, j) : i >= k} of the omega* grid: not separating."""
    D, F = eng.downsets, eng.families
    host = _generate(eng, "omega_star_grid", n=n)
    coords = F.grid_coords(n)
    idx = {c: i for i, c in enumerate(coords)}
    members = tuple(
        D.DownSet(host, frozenset(idx[(i, j)] for (i, j) in coords if i >= k))
        for k in range(n))
    return eng.constructions.ChainOfDownSets(host, members, decreasing=True)


def _plant(eng, base, coords=None):
    """The column tops (i, w) of a delta or gamma poset, as element indices
    of the poset itself (coords given) or of its downset lattice."""
    F, D = eng.families, eng.downsets
    if coords is not None:
        idx = {c: i for i, c in enumerate(coords)}
        return [idx[c] for c in coords if c[1] == F.OMEGA]
    family = D.enumerate_downsets(base)
    index = {d.mask: i for i, d in enumerate(family.sets)}
    return [index[D.principal(base, x).mask]
            for x in range(base.n) if base.label(x).endswith(",w)")]


# seeded random pipeline hosts, as {downset lattice size: count}; the median
# job falls in the size-24 block and the 90th percentile in the size-48 block
PIPELINE_RANDOM = {16: 30, 24: 60, 48: 30}


def setup_pipeline_certify(eng, rng: Random, work: str):
    P, D, F = eng.poset, eng.downsets, eng.families
    jobs = []

    def add(name, func, obj, **kw):
        kw["path"] = _write(work, f"pipe{len(jobs)}", obj)
        jobs.append((name, func, kw))

    # the pattern the pipeline finds is fixed by the host family
    named = [("B_4", _generate(eng, "finite_powerset", n=4), 4, "VLike"),
             ("B_5", _generate(eng, "finite_powerset", n=5), 5, "VLike"),
             ("B_6", _generate(eng, "finite_powerset", n=6), 4, "VLike"),
             ("B_6", _generate(eng, "finite_powerset", n=6), 6, "VLike")]
    for fam, n, k, like in (("delta", 3, 4, "DeltaLike"), ("gamma", 3, 4, "GammaLike"),
                            ("v", 4, 4, "VLike"), ("v", 5, 5, "VLike"),
                            ("gamma", 4, 5, "GammaLike"), ("delta", 4, 5, "DeltaLike")):
        named.append((f"O({fam} {n})",
                      D.downset_lattice(_generate(eng, fam, n=n)), k, like))
    for name, host, k, like in named:
        add(f"pipeline {name} k={k}", pipeline_job, P.to_json_dict(host),
            k=k, classification=like)
    for name, host, k, like in named[1:2] + named[4:7]:
        add(f"cli pipeline {name} k={k}", cli_pipeline_job, P.to_json_dict(host),
            k=k, classification=like,
            cert_path=os.path.join(work, f"cert{len(jobs)}.json"))

    plants = [("delta(5)", F.delta(5), F.delta_coords(5), "DeltaLike"),
              ("gamma(5)", F.gamma(5), F.gamma_coords(5), "GammaLike")]
    for name, base, coords, like in plants:
        add(f"ramsey {name}", ramsey_job,
            {"host": P.to_json_dict(base), "antichain": _plant(eng, base, coords), "m": 6},
            classification=like)
        add(f"ramsey O({name})", ramsey_job,
            {"host": P.to_json_dict(D.downset_lattice(base)),
             "antichain": _plant(eng, base), "m": 6},
            classification=like)
    add("ramsey B_4 atoms", ramsey_job,
        {"host": P.to_json_dict(_generate(eng, "finite_powerset", n=4)),
         "antichain": [1, 2, 4, 8], "m": 4}, classification="VLike")
    add("dichotomy grid chain 8", dichotomy_job,
        _grid_suffix_chain(eng, 8).to_json_dict(), depth=4)
    add("separating B_8 suffix chain", separating_job,
        _powerset_suffix_chain(eng, 8).to_json_dict(), size=7)

    # downset lattices of random posets of width >= 4; the principal downsets
    # of a 4-antichain are an independent set of size 4
    for size, count in PIPELINE_RANDOM.items():
        for r in range(count):
            while True:
                n = rng.randint(4, 7)
                pairs, up = random_relation(rng, n, rng.random() * 0.5)
                if count_downsets(up) == size and brute_width(up) >= 4:
                    break
            host = D.downset_lattice(P.build(n, "leq", pairs))
            add(f"pipeline O(random {n}) #{size}.{r} k=4", pipeline_job,
                P.to_json_dict(host), k=4)
    return jobs


# ---------------------------------------------------------------------------
# suite_oracles: randomized suites, each trial checked by a separate oracle

# (trials, max_n) per job; thm8_pipe is left out because pipeline_certify
# runs the pipeline. Each job takes about 0.1 s, and its cost varies by at
# most about 10% from seed to seed. At their default max_n, irr_eq, sum_prod
# and separating now and then draw a lattice of 128 to 1024 elements, and a
# single such trial would set the time of its job.
SUITE_TRIALS = {"tm21": (180, None), "irr_eq": (400, 5), "sum_prod": (100, 3),
                "ideal_principal": (300, None), "lem2_3": (280, None),
                "fvee": (190, None), "separating": (80, 4)}
SUITE_JOBS_PER_SUITE = 15


def suite_job(eng, path):
    spec = _load(path)
    report = eng.suites.run_suite(spec["suite"], spec["trials"], spec["seed"],
                                  spec["max_n"])
    expect(report.trials == spec["trials"], "trial count")
    expect(report.ok, f"{len(report.failures)} failed trials")


def setup_suite_oracles(eng, rng: Random, work: str):
    jobs = []
    for r in range(SUITE_JOBS_PER_SUITE):
        for suite, (trials, max_n) in SUITE_TRIALS.items():
            spec = {"suite": suite, "trials": trials, "max_n": max_n,
                    "seed": rng.randrange(1 << 30)}
            path = _write(work, f"suite{len(jobs)}", spec)
            jobs.append((f"{suite} #{r}", suite_job, {"path": path}))
    return jobs


WORKLOADS = {
    "lattice_sweep": setup_lattice_sweep,
    "pipeline_certify": setup_pipeline_certify,
    "suite_oracles": setup_suite_oracles,
}
