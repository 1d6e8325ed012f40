"""Command-line front end.

Structured output is JSON on stdout, diagnostics on stderr. Exit codes:
0 success / property holds / embedding found; 1 property fails / not found;
2 usage error; 3 invalid input file; 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import budget as _budget
from . import constructions as _constructions
from . import downsets as _downsets
from . import families as _families
from . import poset as _poset
from . import semilattice as _semilattice
from . import suites as _suites
from .errors import BudgetExceeded, OrderError

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_BAD_INPUT = 3
EXIT_BUDGET = 4


class _InputError(Exception):
    pass


def _load(path: str, parse=None):
    """parse, by default poset.from_json_dict (looked up at each call),
    applied to the JSON document at path; an unreadable file, or a
    malformed-input error raised by parse, becomes _InputError."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise _InputError(f"cannot read {path}: {exc}") from exc
    try:
        return (parse or _poset.from_json_dict)(data)
    except BudgetExceeded:
        raise  # an OrderError, but exit 4, not an input error
    except (KeyError, ValueError, OrderError) as exc:
        raise _InputError(f"{path}: {exc}") from exc


def _write(text: str, out_path=None) -> None:
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(obj, out_path=None) -> None:
    _write(json.dumps(obj, sort_keys=True, indent=2) + "\n", out_path)


def _cmd_generate(args) -> int:
    params = {name: getattr(args, name)
              for name in ("n", "a", "alpha", "scheme", "seed", "tail", "trunc")
              if getattr(args, name) is not None}
    spec = _families.FamilySpec(args.family, params, args.with_bottom)
    p = _families.generate(spec)
    _emit(_poset.to_json_dict(p), args.out)
    return EXIT_OK


def _cmd_analyze(args) -> int:
    p = _load(args.infile)
    rep = _semilattice.structure_report(p)
    out = {
        "n": p.n,
        "stats": p.basic_stats(),
        "is_join_semilattice": rep.is_join_semilattice,
        "is_meet_semilattice": rep.is_meet_semilattice,
        "is_lattice": rep.is_lattice,
        "is_distributive": rep.is_distributive,
        "is_modular": rep.is_modular,
    }
    _emit(out, args.out)
    return EXIT_OK


def _cmd_embed(args) -> int:
    pattern = _load(args.pattern)
    target = _load(args.target)
    witness = _semilattice.embedding_search(pattern, target, args.mode)
    if witness is None:
        _emit({"found": False}, args.out)
        return EXIT_FAIL
    _emit({"found": True, "witness": witness.to_json_dict()}, args.out)
    return EXIT_OK


def _cmd_ideals(args) -> int:
    p = _load(args.infile)
    if args.all_downsets:
        family = _downsets.enumerate_downsets(p)
    else:
        family = _downsets.principal_ideals(p)
    out = family.to_json_dict()
    if args.lattice:
        out["lattice"] = _poset.to_json_dict(_downsets.downset_lattice(p))
    _emit(out, args.out)
    return EXIT_OK


def _cmd_ramsey(args) -> int:
    p = _load(args.infile)
    antichain = [int(x) for x in args.antichain.split(",")]
    for x in antichain:
        if not 0 <= x < p.n:
            raise ValueError(f"--antichain index {x} outside 0..{p.n - 1}")
    cert = _constructions.ramsey_extract(p, antichain, args.m)
    _emit(cert.to_json_dict(), args.out)
    return EXIT_OK if cert.ok() else EXIT_FAIL


def _cmd_dichotomy(args) -> int:
    chain = _load(args.chain, _constructions.ChainOfDownSets.from_json_dict)
    cert = _constructions.dichotomy_extract(chain, args.depth)
    _emit(cert.to_json_dict(), args.out)
    return EXIT_OK if cert.ok() else EXIT_FAIL


def _cmd_pipeline(args) -> int:
    p = _load(args.infile)
    cert = _constructions.thm8_pipeline(p, args.k)
    _emit(cert.to_json_dict(), args.out)
    return EXIT_OK if cert.ok() else EXIT_FAIL


def _cmd_verify(args) -> int:
    if args.trials < 1:
        raise ValueError("--trials must be >= 1")
    if args.max_n is not None and args.max_n < 1:
        raise ValueError("--max-n must be >= 1")
    report = _suites.run_suite(args.suite, args.trials, args.seed, args.max_n)
    _emit(report.to_json_dict(), args.out)
    return EXIT_OK if report.ok else EXIT_FAIL


def _cmd_verify_cert(args) -> int:
    # re-checking reads the payload too, so its errors are input errors
    valid = _load(args.certfile, lambda data: _constructions.certificate_valid(
        _constructions.Certificate.from_json_dict(data)))
    _emit({"valid": valid})
    return EXIT_OK if valid else EXIT_FAIL


def _cmd_export(args) -> int:
    _write(_poset.to_dot(_load(args.infile)), args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ordercraft",
        description="finite order-theory engine: generators, analysis, "
                    "embeddings, and constructive extractions")
    ap.add_argument("--jobs", type=int, default=1,
                    help="worker cap for internally parallel operations")
    sub = ap.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="emit a named family poset as JSON")
    g.add_argument("--family", required=True, choices=_families.FAMILIES)
    g.add_argument("--n", type=int)
    g.add_argument("--a", type=int)
    g.add_argument("--alpha", help="ordinal CNF coefficients, e.g. 0,2 for w*2")
    g.add_argument("--scheme", choices=_families.SIERP_SCHEMES)
    g.add_argument("--seed", type=int)
    g.add_argument("--tail", type=int)
    g.add_argument("--trunc", type=int)
    g.add_argument("--with-bottom", action="store_true")
    g.add_argument("--out")
    g.set_defaults(func=_cmd_generate)

    a = sub.add_parser("analyze", help="structure report and basic stats")
    a.add_argument("infile")
    a.add_argument("--out")
    a.set_defaults(func=_cmd_analyze)

    e = sub.add_parser("embed", help="search for a structure-preserving embedding")
    e.add_argument("--pattern", required=True)
    e.add_argument("--target", required=True)
    e.add_argument("--mode", default="order", choices=_semilattice.EMBEDDING_MODES)
    e.add_argument("--out")
    e.set_defaults(func=_cmd_embed)

    i = sub.add_parser("ideals", help="enumerate ideals (or all downsets)")
    i.add_argument("infile")
    i.add_argument("--all-downsets", action="store_true")
    i.add_argument("--lattice", action="store_true",
                   help="include the downset lattice as a poset")
    i.add_argument("--out")
    i.set_defaults(func=_cmd_ideals)

    r = sub.add_parser("ramsey", help="classify an antichain by meet pattern")
    r.add_argument("infile")
    r.add_argument("--antichain", required=True,
                   help="comma-separated element indices")
    r.add_argument("--m", type=int, required=True)
    r.add_argument("--out")
    r.set_defaults(func=_cmd_ramsey)

    d = sub.add_parser("dichotomy",
                       help="descending chain or grid map from an ideal chain")
    d.add_argument("chain", help="chain JSON: host, sets, decreasing")
    d.add_argument("--depth", type=int, required=True)
    d.add_argument("--out")
    d.set_defaults(func=_cmd_dichotomy)

    pl = sub.add_parser("pipeline", help="independent set to sublattice pattern")
    pl.add_argument("infile")
    pl.add_argument("--k", type=int, required=True)
    pl.add_argument("--out")
    pl.set_defaults(func=_cmd_pipeline)

    v = sub.add_parser("verify", help="run a randomized property suite")
    v.add_argument("--suite", required=True, choices=_suites.SUITES)
    v.add_argument("--trials", type=int, required=True)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--max-n", type=int, dest="max_n")
    v.add_argument("--out")
    v.set_defaults(func=_cmd_verify)

    vc = sub.add_parser("verify-cert", help="re-check a certificate file")
    vc.add_argument("certfile")
    vc.set_defaults(func=_cmd_verify_cert)

    x = sub.add_parser("export", help="DOT Hasse diagram")
    x.add_argument("infile")
    x.add_argument("--out")
    x.set_defaults(func=_cmd_export)

    return ap


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser main reads with, built once per process; parse_args keeps
    no state between calls."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.jobs < 1:
        print("--jobs must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    try:
        # a malformed OC_BUDGET is a usage error for every subcommand
        _budget.limit(None)
        return args.func(args)
    except _InputError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except BudgetExceeded as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except OrderError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
