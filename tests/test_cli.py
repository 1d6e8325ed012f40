"""CLI behaviour: golden outputs, round trips, exit codes end to end."""

import argparse
import ast
import inspect
import json
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ordercraft import budget, cli
from ordercraft import constructions as C
from ordercraft import families as F
from ordercraft import poset as P
from ordercraft import suites as SU
from test_constructions import with_rows
from test_families import AT_LEAST_TWO


GOLDEN = Path(__file__).parent / "golden"


def run_cli(args, tmp_path=None, timeout=None):
    proc = subprocess.run(
        [sys.executable, "-m", "ordercraft.cli", *args],
        capture_output=True, text=True, timeout=timeout)
    return proc.returncode, proc.stdout, proc.stderr


GOLDEN_SPECS = [
    (["--family", "delta", "--n", "2"], "delta2"),
    (["--family", "gamma", "--n", "2"], "gamma2"),
    (["--family", "v", "--n", "3"], "v3"),
    (["--family", "finite_powerset", "--n", "2"], "b2"),
    (["--family", "omega_star_grid", "--n", "3"], "grid3"),
    (["--family", "omega_star_grid", "--n", "3", "--with-bottom"], "grid3b"),
    (["--family", "l_alpha", "--a", "2"], "l2"),
    (["--family", "m5"], "m5"),
    (["--family", "omega_eta", "--n", "2"], "eta2"),
    (["--family", "sierpinskisation", "--alpha", "0,2", "--n", "6"], "sierp"),
    (["--family", "lattice_sierp", "--alpha", "0,1", "--n", "4"], "lsierp"),
    (["--family", "s_alpha", "--alpha", "1", "--tail", "2", "--trunc", "3"], "salpha"),
]


# analyze goldens: a Boolean lattice and its dual, a product of chains, and
# a modular and a non-modular lattice times B_2
ANALYZE_INPUTS = {
    "b4": lambda: F.finite_powerset(4),
    "b4_dual": lambda: P.dual(F.finite_powerset(4)),
    "c3xc3": lambda: P.direct_product(P.chain(3), P.chain(3)),
    "m3xb2": lambda: P.direct_product(SU.small_lattices()["M3"], F.finite_powerset(2)),
    "n5xb2": lambda: P.direct_product(F.l_alpha(2), F.finite_powerset(2)),
}


def generate_golden(name):
    """The golden stdout of `generate` for a GOLDEN_SPECS name. m5 and eta2
    share the files of test_acceptance's CLI_GOLDEN, made from the same
    arguments."""
    shared = name in ("m5", "eta2")
    return (GOLDEN / (f"{name}.json" if shared else f"generate_{name}.json")).read_bytes()


def grid_chain(n):
    """A chain document: the decreasing ideals {(i,j) : i >= k} of the
    omega_star_grid(n), k = 0..n-1."""
    coords = F.grid_coords(n)
    idx = {c: i for i, c in enumerate(coords)}
    return {
        "host": P.to_json_dict(F.omega_star_grid(n)),
        "sets": [sorted(idx[(i, j)] for (i, j) in coords if i >= k) for k in range(n)],
        "decreasing": True,
    }


class Fields(dict):
    """Payload fields that a case of test_malformed_certificate_is_3 sets
    together, in place of one value at one key."""


class TestGenerate:
    @pytest.mark.parametrize("family", F.FAMILIES)
    def test_every_family_in_process(self, family, capsys):
        params = AT_LEAST_TWO[family]
        argv = ["generate", "--family", family]
        for name, value in params.items():
            argv += [f"--{name}", str(value)]
        assert cli.main(argv) == 0
        p = F.generate(F.FamilySpec(family, params))
        assert capsys.readouterr().out == json.dumps(
            P.to_json_dict(p), sort_keys=True, indent=2) + "\n"

    def test_options_are_the_generator_parameters(self):
        # _cmd_generate passes these options on, and the parser offers them
        taken = next(node for node in ast.walk(ast.parse(inspect.getsource(cli._cmd_generate)))
                     if isinstance(node, ast.Tuple))
        params = {name for make in F._GENERATORS.values()
                  for name in inspect.signature(make).parameters}
        g = next(a for a in cli.build_parser()._actions
                 if isinstance(a, argparse._SubParsersAction)).choices["generate"]
        offered = {a.dest for a in g._actions if a.option_strings} - {
            "help", "family", "with_bottom", "out"}
        assert {elt.value for elt in taken.elts} == params == offered

    @pytest.mark.parametrize("args,name", GOLDEN_SPECS, ids=[n for _a, n in GOLDEN_SPECS])
    def test_golden_equality(self, args, name):
        proc = subprocess.run([sys.executable, "-m", "ordercraft.cli", "generate", *args],
                              capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == generate_golden(name)
        P.from_json_dict(json.loads(proc.stdout))  # parses as a valid poset

    def test_out_file_matches_stdout(self, tmp_path):
        target = tmp_path / "delta4.json"
        code, _out, _ = run_cli(
            ["generate", "--family", "delta", "--n", "4", "--out", str(target)])
        assert code == 0
        data = json.loads(target.read_text())
        expected = F.generate(F.FamilySpec("delta", {"n": 4}))
        assert P.from_json_dict(data) == expected

    def test_json_round_trip_identity(self):
        _code, out, _ = run_cli(["generate", "--family", "delta", "--n", "3"])
        p = P.from_json_dict(json.loads(out))
        assert json.loads(P.to_json(p)) == json.loads(
            json.dumps(P.to_json_dict(p)))


class TestExitCodes:
    def test_usage_error_is_2(self):
        code, _o, _e = run_cli(["generate"])  # missing --family
        assert code == 2

    def test_bad_input_is_3(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _o, err = run_cli(["analyze", str(bad)])
        assert code == 3 and err

    def test_missing_file_is_3(self):
        code, _o, _e = run_cli(["analyze", "/nonexistent/p.json"])
        assert code == 3

    def test_found_embedding_is_0_and_absent_is_1(self, tmp_path):
        b3 = tmp_path / "b3.json"
        b3.write_text(P.to_json(F.finite_powerset(3)))
        b2 = tmp_path / "b2.json"
        b2.write_text(P.to_json(F.finite_powerset(2)))
        l2 = tmp_path / "l2.json"
        l2.write_text(P.to_json(F.l_alpha(2)))
        code, out, _ = run_cli(
            ["embed", "--pattern", str(b2), "--target", str(b3), "--mode", "join"])
        assert code == 0 and json.loads(out)["found"]
        code, out, _ = run_cli(
            ["embed", "--pattern", str(l2), "--target", str(b3),
             "--mode", "sublattice"])
        assert code == 1 and not json.loads(out)["found"]

    def test_budget_exceeded_is_4(self, tmp_path, monkeypatch):
        big = tmp_path / "anti.json"
        big.write_text(P.to_json(P.antichain(12)))
        # the child inherits the environment (PYTHONPATH included) plus the budget
        monkeypatch.setenv("OC_BUDGET", "50")
        code, _, err = run_cli(["ideals", str(big), "--all-downsets"])
        assert code == 4, err
        code, _, err = run_cli(["ideals", str(big), "--lattice"])
        assert code == 4, err
        # the ideals alone are the 12 principal downsets: no enumeration
        code, out, err = run_cli(["ideals", str(big)])
        assert code == 0, err
        assert len(json.loads(out)["sets"]) == 12

    def test_ramsey_over_budget_is_4(self, tmp_path, monkeypatch):
        # the Ramsey subset search counts its nodes against the search budget
        b5 = tmp_path / "b5.json"
        b5.write_text(P.to_json(F.finite_powerset(5)))
        pairs = ",".join(str(x) for x in range(32) if bin(x).count("1") == 2)
        monkeypatch.setenv("OC_BUDGET", "100")
        code, out, err = run_cli(["ramsey", str(b5), "--antichain", pairs, "--m", "5"])
        assert code == 4 and out == "" and "more than 100 nodes" in err, err

    def test_powerset_over_budget_is_4(self):
        # the size check runs before any element is built
        code, out, err = run_cli(
            ["generate", "--family", "finite_powerset", "--n", "24"], timeout=10)
        assert code == 4 and out == "", err
        assert "n=24" in err and "1000000" in err

    @pytest.mark.parametrize("args", [
        ["--family", "delta", "--n", "3000"],
        ["--family", "gamma", "--n", "100000"],
        ["--family", "omega_star_grid", "--n", "3000"],
        ["--family", "sierpinskisation", "--alpha", "0,2", "--n", "100000"],
        ["--family", "omega_eta", "--n", "40"],
        ["--family", "lattice_sierp", "--alpha", "0,1", "--n", "100000"],
        ["--family", "lattice_sierp", "--alpha", "100000", "--n", "100000"],
        ["--family", "v", "--n", "100000000"],
        ["--family", "sierpinskisation", "--alpha", ",".join(["0"] * 30 + ["1"]), "--n", "2"],
    ], ids=["delta", "gamma", "grid", "sierpinskisation", "omega_eta",
            "lattice_sierp_w", "lattice_sierp_finite", "v", "sierpinskisation_w30"])
    def test_pair_tested_family_over_budget_is_4(self, args, capsys):
        # the size check runs before the pairs are tested (v tests none: its
        # n + 1 elements are checked against the budget; below w^30, the
        # 2^31 coefficient tuples of two columns are checked before listing)
        started = time.monotonic()
        assert cli.main(["generate", *args]) == 4
        assert time.monotonic() - started < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "1000000" in err

    @pytest.mark.parametrize("args", [
        ["--family", "l_alpha", "--a", "2000"],
        ["--family", "s_alpha", "--alpha", "1", "--trunc", "3", "--tail", "2000"],
        ["--family", "v", "--n", "2000"],
    ], ids=["l_alpha", "s_alpha", "v"])
    def test_counted_family_over_budget_is_4(self, args, monkeypatch, capsys):
        # each checks its element count against the budget before it builds
        monkeypatch.setenv("OC_BUDGET", "1000")
        assert cli.main(["generate", *args]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "elements, more than 1000" in err

    def test_grid_map_check_over_budget_is_4(self, monkeypatch, capsys):
        # the checker reads the table as a map of the grid, which counts its
        # cells^2 pair tests against the budget
        f = str(GOLDEN / "grid_chain6_d3.json")
        monkeypatch.setenv("OC_BUDGET", "35")
        assert cli.main(["verify-cert", f]) == 4
        assert capsys.readouterr() == ("", "budget exceeded: omega_star_grid n=3 has 6 "
                                       "elements, so 6^2 pair tests, more than 35\n")
        monkeypatch.setenv("OC_BUDGET", "36")
        assert cli.main(["verify-cert", f]) == 0
        assert json.loads(capsys.readouterr().out) == {"valid": True}

    def test_poset_document_over_budget_is_4(self, tmp_path, monkeypatch, capsys):
        # the loader checks n against the budget before it allocates a row
        f = tmp_path / "big.json"
        f.write_text(json.dumps(
            {"version": 1, "n": 2000, "relation": {"kind": "covers", "pairs": []}}))
        monkeypatch.setenv("OC_BUDGET", "1000")
        assert cli.main(["analyze", str(f)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "poset of 2000 elements, more than 1000" in err

    def test_ramsey_index_outside_host_is_2(self, tmp_path):
        b3 = tmp_path / "b3.json"
        b3.write_text(P.to_json(F.finite_powerset(3)))
        code, _o, err = run_cli(["ramsey", str(b3), "--antichain", "1,2,99", "--m", "3"])
        assert code == 2, err
        assert "99" in err and "Traceback" not in err

    def test_verify_trials_below_one_is_2(self):
        code, out, err = run_cli(["verify", "--suite", "ideal_principal", "--trials", "-3"])
        assert code == 2 and out == ""
        assert "--trials" in err

    def test_verify_max_n_below_one_is_2(self, capsys):
        for raw in ("0", "-2"):
            assert cli.main(["verify", "--suite", "tables", "--trials", "3",
                             "--max-n", raw]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err == "usage error: --max-n must be >= 1\n"

    def test_tm21_runs_at_max_n_one(self, capsys):
        # tm21 needs two elements, so max_n 1 draws hosts of 2
        assert cli.main(["verify", "--suite", "tm21", "--trials", "5",
                         "--max-n", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["failures"] == []

    def test_malformed_budget_is_2(self, tmp_path, monkeypatch):
        f = tmp_path / "c.json"
        f.write_text(P.to_json(P.chain(3)))
        for raw in ("abc", "0", "-5", ""):
            monkeypatch.setenv("OC_BUDGET", raw)
            with pytest.raises(ValueError, match="OC_BUDGET"):
                budget.limit(10)
            assert cli.main(["ideals", str(f)]) == 2
        monkeypatch.setenv("OC_BUDGET", "50")
        assert budget.limit(10) == 50
        monkeypatch.delenv("OC_BUDGET")
        assert budget.limit(10) == 10

    @pytest.mark.parametrize("doc,message", [
        ([1, 2], "a poset document must be a JSON object"),
        ({"version": 1, "n": "x", "relation": {"kind": "covers", "pairs": []}},
         "n must be a non-negative integer, got 'x'"),
        ({"version": 1, "n": -1, "relation": {"kind": "covers", "pairs": []}},
         "n must be a non-negative integer, got -1"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": [[0, 1, 1]]}},
         "pair [0, 1, 1] is not two integers"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": [0]}},
         "pair 0 is not two integers"),
        ({"version": 1, "n": 2, "relation": [1]}, "relation must be an object, got [1]"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": 5}},
         "pairs must be a list, got 5"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": []}, "labels": 5},
         "labels must be a list, got 5"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": [[0, True]]}},
         "pair [0, True] is not two integers"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": [[0, 1.0]]}},
         "pair [0, 1.0] is not two integers"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": ["01"]}},
         "pair '01' is not two integers"),
        ({"version": 1, "n": 2, "relation": {"kind": "covers", "pairs": [[0]]}},
         "pair [0] is not two integers"),
    ], ids=["list", "n_string", "n_negative", "pair_of_three", "pair_not_list",
            "relation_not_object", "pairs_not_list", "labels_not_list",
            "pair_bool", "pair_float", "pair_string", "pair_of_one"])
    def test_document_not_a_poset_is_3(self, doc, message, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["analyze", str(f)]) == 3
        assert capsys.readouterr().err == f"input error: {f}: {message}\n"

    @pytest.mark.parametrize("golden,keys,value", [
        ("independent_b5", (), [1, 2]),
        ("independent_b5", ("payload",), []),
        ("independent_b5", ("evidence",), 5),
        ("independent_b5", ("evidence",), [5]),
        ("independent_b5", ("kind",), ["IndependentSet"]),
        ("independent_b5", ("kind",), "NoSuchKind"),
        ("grid_chain6_d3", ("payload", "table"), 5),
        ("pipeline_b5_k5", ("payload", "lift_table"), 5),
        ("independent_b5", ("payload", "chain"), 5),
        ("independent_b5", ("payload", "chain", 0), 5),
        ("ramsey_b4_atoms_m4", ("payload", "antichain", 0), 99),
        ("pipeline_b5_k5", ("payload", "sublattice_elements", 0), 99),
        ("independent_b5", ("payload", "independent_set", 0), 99),
        ("descending_chain6_d3", ("payload", "elements", 0), "a"),
        ("descending_chain6_d3", ("payload", "depth"), "3"),
        ("descending_chain6_d3", ("payload", "depth"), 3.0),
        ("descending_chain6_d3", ("payload", "depth"), True),
        ("grid_chain6_d3", ("payload", "achieved"), "x"),
        ("grid_chain6_d3", ("payload", "table"), [0, 1]),
        ("grid_chain6_d3", ("payload", "rows"), []),
        ("ramsey_b4_atoms_m4", ("payload", "subset", 0), 4),
        ("ramsey_b4_atoms_m4", ("payload", "pattern"), ["v", 4]),
        ("ramsey_b4_atoms_m4", ("payload", "pattern", "n"), [4]),
        ("pipeline_b5_k5", ("payload", "phi_table", 0), True),
        # the pipeline's k, classification and delta_row are tied to the rest
        ("pipeline_delta3_k4", ("payload", "k"), 99),
        ("pipeline_delta3_k4", ("payload", "k"), 4.0),
        ("pipeline_delta3_k4", ("payload", "classification"), "anything"),
        ("pipeline_delta3_k4", ("payload", "classification"), "VLike"),
        ("pipeline_delta3_k4", ("payload", "classification"), ["DeltaLike"]),
        ("pipeline_delta3_k4", ("payload", "delta_row"), [30, 17, 11, 7]),
        # so are a monochromatic Ramsey subset's m, class, classification
        # and thinning
        ("ramsey_delta5_m6", ("payload", "m"), 99),
        ("ramsey_delta5_m6", ("payload", "ramsey_class"), -7),
        ("ramsey_delta5_m6", ("payload", "thinned"), []),
        ("ramsey_delta5_m6", ("payload", "classification"), "GammaLike"),
        # the dichotomy's depth and the grid it achieved are at least 1
        ("grid_chain6_d3", ("payload", "depth"), -5),
        ("grid_chain6_d3", ("payload", "depth"), 0),
        ("grid_chain6_d3", ("payload",), Fields(achieved=0, rows=[0], table=[])),
        ("grid_chain6_d3", ("payload",), Fields(achieved=-1, rows=[], table=[], depth=-3)),
        ("descending_chain6_d3", ("payload",), Fields(depth=0, elements=[])),
    ], ids=["document_list", "payload_list", "evidence_int", "evidence_entry_int",
            "kind_list", "kind_unknown", "table_int", "lift_table_int", "chain_int",
            "chain_member_int", "antichain_99", "sublattice_elements_99",
            "independent_set_99", "element_string", "depth_string", "depth_float",
            "depth_bool", "achieved_string", "table_short",
            "rows_empty",
            "subset_past_antichain", "pattern_list", "pattern_n_list", "phi_table_bool",
            "k_99", "k_float", "classification_anything", "classification_of_v",
            "classification_list", "delta_row_reversed", "m_99", "ramsey_class_negative",
            "thinned_empty", "ramsey_classification_gamma", "grid_depth_negative",
            "grid_depth_0", "achieved_0", "achieved_negative", "descending_depth_0"])
    def test_malformed_certificate_is_3(self, golden, keys, value, tmp_path, capsys):
        doc = json.loads((GOLDEN / f"{golden}.json").read_text())
        if isinstance(value, Fields):
            doc[keys[0]].update(value)
        elif keys:
            inner = doc
            for key in keys[:-1]:
                inner = inner[key]
            inner[keys[-1]] = value
        else:
            doc = value
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "input error" in err

    @pytest.mark.parametrize("pattern", [{"family": "gamma", "n": 1}, {"family": "v", "n": 2}],
                             ids=["gamma", "v"])
    def test_ramsey_pattern_of_another_class_is_3(self, pattern, tmp_path, capsys):
        # three column tops of delta(5) thin to a delta n=1 pattern, and
        # gamma n=1 and v n=2 are the same 3-element poset
        d5 = F.delta(5)
        tops = [x for x, c in enumerate(F.delta_coords(5)) if c[1] == F.OMEGA]
        doc = C.ramsey_extract(d5, tops, 3).to_json_dict()
        assert doc["payload"]["pattern"] == {"family": "delta", "n": 1}
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 0
        doc["payload"]["pattern"] = pattern
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 3
        assert capsys.readouterr().err == (
            f"input error: {f}: pattern must be the shape of thinned's class\n")

    @pytest.mark.parametrize("edit,message", [
        (lambda doc: doc.update(kind="Nope"),
         "unknown certificate kind 'Nope', expected one of IndependentSet, "
         "DescendingChain, GridMap, RamseyClass, SublatticePattern"),
        (lambda doc: doc["evidence"][0].pop("ok"),
         "evidence entry 'chain_is_separating' needs a boolean ok"),
        (lambda doc: doc["evidence"][0].update(ok=1),
         "evidence entry 'chain_is_separating' needs a boolean ok"),
    ], ids=["kind_unknown", "ok_missing", "ok_int"])
    def test_certificate_error_names_the_problem(self, edit, message, tmp_path, capsys):
        doc = json.loads((GOLDEN / "independent_b5.json").read_text())
        edit(doc)
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 3
        assert capsys.readouterr().err == f"input error: {f}: {message}\n"

    @pytest.mark.parametrize("doc", [[], "x", 5, None], ids=["list", "string", "int", "null"])
    @pytest.mark.parametrize("argv", [
        ["analyze", "{bad}"],
        ["embed", "--pattern", "{bad}", "--target", "{good}"],
        ["embed", "--pattern", "{good}", "--target", "{bad}"],
        ["ideals", "{bad}"],
        ["ramsey", "{bad}", "--antichain", "0", "--m", "3"],
        ["dichotomy", "{bad}", "--depth", "2"],
        ["pipeline", "{bad}", "--k", "4"],
        ["verify-cert", "{bad}"],
        ["export", "{bad}"],
    ], ids=["analyze", "embed_pattern", "embed_target", "ideals", "ramsey",
            "dichotomy", "pipeline", "verify_cert", "export"])
    def test_document_not_an_object_is_3(self, argv, doc, tmp_path, capsys):
        bad, good = tmp_path / "bad.json", tmp_path / "good.json"
        bad.write_text(json.dumps(doc))
        good.write_text(P.to_json(P.chain(2)))
        argv = [arg.format(bad=bad, good=good) for arg in argv]
        assert cli.main(argv) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("input error:") and "Traceback" not in err

    @pytest.mark.parametrize("value", ["no", "false", [1]], ids=["no", "false", "list"])
    def test_chain_decreasing_not_a_boolean_is_3(self, value, tmp_path, capsys):
        doc = grid_chain(6)
        doc["decreasing"] = value
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["dichotomy", str(f), "--depth", "3"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == f"input error: {f}: decreasing must be a boolean\n"

    def test_chain_without_decreasing_is_increasing(self, tmp_path, capsys):
        # the members, listed upward, form a valid increasing chain, which
        # dichotomy turns down as a fault of the input file
        doc = grid_chain(6)
        del doc["decreasing"]
        doc["sets"].reverse()
        f = tmp_path / "chain.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["dichotomy", str(f), "--depth", "3"]) == 3
        assert capsys.readouterr().err == (
            f"input error: {f}: dichotomy_extract needs a decreasing chain\n")

    @pytest.mark.parametrize("i,j", [(0, 1), (0, 5), (2, 3)])
    def test_grid_map_with_swapped_cells_fails(self, i, j, tmp_path, capsys):
        # the table is no longer the joins of the rows: a malformed payload
        doc = json.loads((GOLDEN / "grid_chain6_d3.json").read_text())
        table = doc["payload"]["table"]
        table[i], table[j] = table[j], table[i]
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 3
        assert capsys.readouterr().err == (
            f"input error: {f}: table must send each cell (i,j) to the join of rows i and j\n")

    def test_grid_map_with_swapped_rows_fails(self, tmp_path, capsys):
        # rows 0 and 1 swapped, with their joins as the table: the table
        # stays injective, and the grid join law breaks
        doc = json.loads((GOLDEN / "grid_chain6_d3.json").read_text())
        with_rows(doc["payload"], [6, 0, 11, 15])
        assert dict(C.verify_certificate(C.Certificate.from_json_dict(doc))) == {
            "requested_depth_reached": True, "grid_join_preserving": False,
            "grid_injective": True}
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 1
        assert json.loads(capsys.readouterr().out) == {"valid": False}

    def test_whole_host_as_independent_set_fails_fast(self, tmp_path, capsys):
        # all 32 elements of B_5: the check stops at the first F, so it must
        # not set aside room for all 2^31 subsets of the rest first
        doc = json.loads((GOLDEN / "independent_b5.json").read_text())
        doc["payload"]["independent_set"] = list(range(32))
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 1
        assert json.loads(capsys.readouterr().out) == {"valid": False}

    def test_pattern_outside_the_pattern_families_is_3(self, tmp_path, capsys):
        # omega_star_grid is a shared shape but no Ramsey pattern: its 3
        # elements fit the first 3 table entries, and still the input is bad
        doc = json.loads((GOLDEN / "ramsey_delta5_m6.json").read_text())
        doc["payload"].update(pattern={"family": "omega_star_grid", "n": 2},
                              table=doc["payload"]["table"][:3])
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 3
        assert "pattern family" in capsys.readouterr().err

    def test_ramsey_host_without_meets_is_3(self, tmp_path, capsys):
        # 3 lies below 0 and 1 only, so 0 ^ 1 exists and 0 ^ 2 does not
        doc = json.loads((GOLDEN / "ramsey_b4_atoms_m4.json").read_text())
        doc["payload"].update(host=P.to_json_dict(P.build(4, "leq", [(3, 0), (3, 1)])),
                              antichain=[0, 1, 2], subset=[0, 1, 2])
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["verify-cert", str(f)]) == 3
        assert "no meet" in capsys.readouterr().err

    def test_certificate_over_budget_is_4(self, tmp_path, capsys):
        # BudgetExceeded is an OrderError, yet a budget hit while checking a
        # certificate is exit 4, not an input error
        doc = json.loads((GOLDEN / "ramsey_b4_atoms_m4.json").read_text())
        doc["payload"]["pattern"]["n"] = 5000000
        f = tmp_path / "cert.json"
        f.write_text(json.dumps(doc))
        started = time.monotonic()
        assert cli.main(["verify-cert", str(f)]) == 4
        assert time.monotonic() - started < 1.0
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("budget exceeded:")
        assert "1000000" in err and "input error" not in err

    def test_verify_exit_zero_on_pass(self):
        code, out, _ = run_cli(
            ["verify", "--suite", "ideal_principal", "--trials", "5", "--seed", "3"])
        assert code == 0
        assert json.loads(out)["failures"] == []


class TestCommands:
    def test_analyze_delta(self, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(P.to_json(F.delta(2)))
        code, out, _ = run_cli(["analyze", str(f)])
        data = json.loads(out)
        assert code == 0
        assert data["is_meet_semilattice"] and not data["is_join_semilattice"]
        assert data["stats"]["width"] == 3

    def test_analyze_boolean_lattice_of_rank_8(self, tmp_path):
        # width by matching is polynomial; a search over antichains of B_8 is not
        f = tmp_path / "b8.json"
        code, _out, err = run_cli(
            ["generate", "--family", "finite_powerset", "--n", "8", "--out", str(f)])
        assert code == 0, err
        code, out, err = run_cli(["analyze", str(f)], timeout=60)
        assert code == 0, err
        data = json.loads(out)
        assert data["n"] == 256 and data["stats"]["width"] == 70
        assert data["is_distributive"]

    def test_ideals_counts(self, tmp_path):
        f = tmp_path / "c.json"
        f.write_text(P.to_json(P.chain(3)))
        code, out, _ = run_cli(["ideals", str(f)])
        assert code == 0
        assert len(json.loads(out)["sets"]) == 3
        code, out, _ = run_cli(["ideals", str(f), "--all-downsets"])
        assert len(json.loads(out)["sets"]) == 4

    def test_ideals_of_b6_need_no_downsets(self, tmp_path, capsys):
        # 64 ideals among 7,828,354 downsets: read off the cones, not filtered
        f = tmp_path / "b6.json"
        f.write_text(P.to_json(F.finite_powerset(6)))
        started = time.monotonic()
        assert cli.main(["ideals", str(f)]) == 0
        assert time.monotonic() - started < 1.0
        sets = json.loads(capsys.readouterr().out)["sets"]
        assert len(sets) == 64 and sets[0] == [0] and len(sets[-1]) == 64

    def test_ramsey_cli(self, tmp_path):
        f = tmp_path / "b4.json"
        f.write_text(P.to_json(F.finite_powerset(4)))
        code, out, _ = run_cli(
            ["ramsey", str(f), "--antichain", "1,2,4,8", "--m", "4"])
        assert code == 0
        assert json.loads(out)["payload"]["classification"] == "VLike"

    def test_dichotomy_and_verify_cert(self, tmp_path):
        chain = grid_chain(6)
        cf = tmp_path / "chain.json"
        cf.write_text(json.dumps(chain))
        out_cert = tmp_path / "cert.json"
        code, out, _ = run_cli(
            ["dichotomy", str(cf), "--depth", "3", "--out", str(out_cert)])
        assert code == 0
        code, out, _ = run_cli(["verify-cert", str(out_cert)])
        assert code == 0 and json.loads(out)["valid"]
        # tampering flips the exit code: a repeated row repeats a cell
        data = json.loads(out_cert.read_text())
        with_rows(data["payload"], [data["payload"]["rows"][1], *data["payload"]["rows"][1:]])
        out_cert.write_text(json.dumps(data))
        code, out, _ = run_cli(["verify-cert", str(out_cert)])
        assert code == 1

    def test_pipeline_cli(self, tmp_path):
        f = tmp_path / "b5.json"
        f.write_text(P.to_json(F.finite_powerset(5)))
        code, out, _ = run_cli(["pipeline", str(f), "--k", "5"])
        assert code == 0
        assert json.loads(out)["payload"]["classification"] == "VLike"

    def test_embed_into_downset_lattice_of_delta(self, tmp_path):
        from ordercraft import downsets as D
        b3 = tmp_path / "b3.json"
        b3.write_text(P.to_json(F.finite_powerset(3)))
        target = tmp_path / "delta4_downsets.json"
        target.write_text(P.to_json(D.downset_lattice(F.delta(4))))
        code, out, _ = run_cli(
            ["embed", "--pattern", str(b3), "--target", str(target),
             "--mode", "join"])
        assert code == 0 and json.loads(out)["found"]

    @pytest.mark.parametrize("name,pattern,target,mode,exit_code", [
        ("embed_b3_odelta4_join", "b3", "odelta4", "join", 0),
        ("embed_b3_odelta4_meet", "b3", "odelta4", "meet", 0),
        ("embed_b3_odelta4_order", "b3", "odelta4", "order", 0),
        ("embed_n5_b5_sublattice", "n5", "b5", "sublattice", 1),
    ])
    def test_embed_golden(self, name, pattern, target, mode, exit_code, tmp_path):
        from ordercraft import downsets as D
        inputs = {"b3": F.finite_powerset(3), "b5": F.finite_powerset(5),
                  "n5": F.l_alpha(2), "odelta4": D.downset_lattice(F.delta(4))}
        for key in (pattern, target):
            (tmp_path / f"{key}.json").write_text(P.to_json(inputs[key]))
        code, out, _ = run_cli(
            ["embed", "--pattern", str(tmp_path / f"{pattern}.json"),
             "--target", str(tmp_path / f"{target}.json"), "--mode", mode])
        assert code == exit_code
        assert out == (GOLDEN / f"{name}.json").read_text()

    @pytest.mark.parametrize("name", sorted(ANALYZE_INPUTS))
    def test_analyze_golden(self, name, tmp_path):
        # each host is read from JSON, so only its order reaches the kernel
        f = tmp_path / f"{name}.json"
        f.write_text(P.to_json(ANALYZE_INPUTS[name]()))
        code, out, err = run_cli(["analyze", str(f)])
        assert code == 0, err
        assert out == (GOLDEN / f"analyze_{name}.json").read_text()

    def test_export_dot_stable(self, tmp_path):
        f = tmp_path / "d.json"
        f.write_text(P.to_json(F.delta(2)))
        code1, out1, _ = run_cli(["export", str(f)])
        code2, out2, _ = run_cli(["export", str(f)])
        assert code1 == code2 == 0 and out1 == out2
        assert out1.startswith("digraph poset {") and "rankdir=BT" in out1

    def test_jobs_flag_validated(self):
        code, _o, _e = run_cli(["--jobs", "0", "generate", "--family", "m5"])
        assert code == 2


class TestParserCache:
    def test_main_builds_its_parser_once(self, capsys, monkeypatch):
        m5 = ["generate", "--family", "m5"]
        assert cli.main(m5) == 0
        first = capsys.readouterr().out
        assert first == (GOLDEN / "m5.json").read_text()
        # a parse that fails leaves nothing behind for the next call
        assert cli.main(["generate"]) == 2
        assert cli.main(["--jobs", "0", *m5]) == 2
        assert capsys.readouterr().out == ""

        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        assert cli.main(m5) == 0
        assert capsys.readouterr().out == first
        assert built == []
