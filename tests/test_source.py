"""Source-level rules for the package."""

import ast
import json
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "ordercraft"


def test_no_assert_statements():
    # python -O strips assert statements; invariants raise AssertionError instead
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []


def _names(tree):
    """Every identifier a module uses: names, attributes and imported names."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


def _oracle_only_in_suites(oracle, suite):
    """The oracle is defined once in suites.py, called by its suite, and
    named by no other module."""
    suites = ast.parse((SRC / "suites.py").read_text())
    defined = [node for node in ast.walk(suites)
               if isinstance(node, ast.FunctionDef) and node.name == oracle]
    assert len(defined) == 1
    suite_fn = next(node for node in ast.walk(suites)
                    if isinstance(node, ast.FunctionDef)
                    and node.name == suite)
    assert oracle in set(_names(suite_fn))
    users = sorted(path.name for path in SRC.glob("*.py")
                   if path.name != "suites.py"
                   and oracle in set(_names(ast.parse(path.read_text()))))
    assert users == []


def test_structure_oracle_stays_outside_the_kernel():
    # the triple-loop oracle checks semilattice.structure_report, so only the
    # suites (and the tests) may call it; the kernel must not reach it
    _oracle_only_in_suites("structure_oracle", "_suite_structure")
    # nor may the kernel's module import the suites at all
    kernel = ast.parse((SRC / "semilattice.py").read_text())
    assert "suites" not in set(_names(kernel))
    assert "_lattice_laws" in {node.name for node in ast.walk(kernel)
                               if isinstance(node, ast.FunctionDef)}


def test_width_oracle_stays_outside_the_kernel():
    # the branch-and-bound checks Poset.width, so only the width suite may
    # call it; the matching kernel keeps no search of its own
    _oracle_only_in_suites("width_oracle", "_suite_width")
    kernel = ast.parse((SRC / "poset.py").read_text())
    assert "suites" not in set(_names(kernel))
    width = next(node for node in ast.walk(kernel)
                 if isinstance(node, ast.FunctionDef) and node.name == "width")
    assert [node.name for node in ast.walk(width)
            if isinstance(node, ast.FunctionDef)] == ["width"]


def test_bound_oracle_stays_outside_the_kernel():
    # the leq scan checks join_table and meet_table, so only the tables suite
    # may call it; the cone lookup and the set masks stay in poset.py
    _oracle_only_in_suites("bound_oracle", "_suite_tables")
    kernel = ast.parse((SRC / "poset.py").read_text())
    assert "suites" not in set(_names(kernel))
    assert "_bound_table" in {node.name for node in ast.walk(kernel)
                              if isinstance(node, ast.FunctionDef)}


def test_ideal_join_oracle_stays_in_the_suites():
    # the closure loop checks the separating test's {x} v J = down(x v top J)
    # in the tests only: no other module names it, and the separating suite,
    # which the benchmark runs, does not call it
    suites = ast.parse((SRC / "suites.py").read_text())
    assert "ideal_join_oracle" in {node.name for node in ast.walk(suites)
                                   if isinstance(node, ast.FunctionDef)}
    separating = next(node for node in ast.walk(suites)
                      if isinstance(node, ast.FunctionDef)
                      and node.name == "_suite_separating")
    assert "ideal_join_oracle" not in set(_names(separating))
    users = sorted(path.name for path in SRC.glob("*.py")
                   if path.name != "suites.py"
                   and "ideal_join_oracle" in set(_names(ast.parse(path.read_text()))))
    assert users == []


def _function(tree, qualname):
    """The function definition at a dotted path of classes and functions."""
    node = tree
    for part in qualname.split("."):
        node = next(child for child in node.body
                    if isinstance(child, (ast.ClassDef, ast.FunctionDef))
                    and child.name == part)
    return node


# the callers that read joins and meets one pair at a time
PER_PAIR_CALLERS = {
    "semilattice.py": ["is_independent", "find_independent_set", "join_of", "_closure",
                       "MapWitness.check_flag", "MapWitness._check", "_phi_table",
                       "_delta_table", "_lift_table"],
    "constructions.py": ["ChainOfDownSets.__post_init__", "_is_separating_masks", "independent_from_separating",
                         "dichotomy_extract", "_dichotomy_case_grid",
                         "_triple_class", "ramsey_extract", "_ramsey_fields",
                         "_check_ramsey", "thm8_pipeline"],
    "families.py": ["grid_join_preserving"],
    "suites.py": ["_suite_fvee", "lift_injectivity_criterion", "_suite_lem2_3",
                  "check_delta_map"],
}


def test_per_pair_callers_build_no_tables():
    # they read pairs through Poset.join/meet (joins/meets) and check that
    # the pairs exist with require_joins/meets, so a host with Birkhoff
    # coordinates builds no n x n table for them
    found = []
    for module, names in PER_PAIR_CALLERS.items():
        tree = ast.parse((SRC / module).read_text())
        for qualname in names:
            used = set(_names(_function(tree, qualname)))
            found += [f"{module}:{qualname} names {name}" for name in sorted(used)
                      if name in ("join_table", "meet_table")
                      or name.startswith("require_") and name.endswith("_table")]
    assert found == []


def test_ideal_oracle_tests_the_definition():
    # enumerate_ideals is the by-definition oracle for "every ideal is
    # principal": it and its mask test filter the downsets for directedness
    # and take no shortcut through a top
    tree = ast.parse((SRC / "suites.py").read_text())
    shortcuts = {"principal", "down_closure", "maximals", "_ideal_top"}
    for qualname in ("enumerate_ideals", "_is_ideal_mask"):
        assert set(_names(_function(tree, qualname))) & shortcuts == set(), qualname
    assert "_is_ideal_mask" in set(_names(_function(tree, "enumerate_ideals")))


def test_oracles_never_touch_the_coordinates():
    # structure_oracle and bound_oracle check the coordinate path, so they
    # read only the order: the kernel's tables come from the coordinates
    suites = ast.parse((SRC / "suites.py").read_text())
    coordinate_readers = {"birkhoff", "_birkhoff", "_birkhoff_coordinates",
                          "join", "meet", "joins", "meets", "join_table", "meet_table",
                          "structure_report"}
    for oracle in ("structure_oracle", "bound_oracle"):
        assert set(_names(_function(suites, oracle))) & coordinate_readers == set(), oracle


def _cache_uses(tree):
    """(line, name, call) for every functools cache a module makes: each
    call of lru_cache or cache, and each bare @lru_cache or @cache
    decorator, whose call is None."""
    def name_of(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and name_of(node.func) in ("cache", "lru_cache"):
            yield node.lineno, name_of(node.func), node
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                if not isinstance(dec, ast.Call) and name_of(dec) in ("cache", "lru_cache"):
                    yield dec.lineno, name_of(dec), None


def test_every_cache_is_bounded():
    # a process-wide memo must not grow with its inputs: each is an
    # lru_cache given a positive integer maxsize
    uses, unbounded = 0, []
    for path in sorted(SRC.glob("*.py")):
        for line, name, call in _cache_uses(ast.parse(path.read_text())):
            uses += 1
            sizes = [] if call is None else call.args[:1] + [
                kw.value for kw in call.keywords if kw.arg == "maxsize"]
            if not (name == "lru_cache" and len(sizes) == 1
                    and isinstance(sizes[0], ast.Constant)
                    and type(sizes[0].value) is int and sizes[0].value > 0):
                unbounded.append(f"{path.name}:{line}")
    assert uses and unbounded == []


def _holders(tree, test):
    """Names of the functions in tree that hold a node passing test."""
    return sorted({fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)
                   for node in ast.walk(fn) if test(node)})


def _calls(name):
    return lambda node: (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                         and node.func.id == name)


def _evidence_names():
    """Every evidence name in the golden certificates, all five kinds."""
    names = set()
    for path in (Path(__file__).parent / "golden").glob("*.json"):
        data = json.loads(path.read_text())
        names |= {e["name"] for e in data.get("evidence", ())}
    return names


def test_one_evidence_path_per_certificate():
    # a producer and verify-cert run the same checker: only _certificate
    # builds a Certificate (from_json_dict reads one back), only the _check_*
    # functions spell evidence names, and only verify_certificate parses a
    # payload's host
    tree = ast.parse((SRC / "constructions.py").read_text())
    assert _holders(tree, _calls("Certificate")) == ["_certificate"]
    certificate = next(node for node in tree.body
                       if isinstance(node, ast.ClassDef) and node.name == "Certificate")
    assert _holders(certificate, _calls("cls")) == ["from_json_dict"]
    others = sorted(path.name for path in SRC.glob("*.py") if path.name != "constructions.py"
                    and _holders(ast.parse(path.read_text()), _calls("Certificate")))
    assert others == []

    names = _evidence_names()
    assert len(names) >= 15
    # an evidence entry is a (name, value) pair
    spelled = _holders(tree, lambda node: isinstance(node, ast.Tuple) and len(node.elts) == 2
                       and isinstance(node.elts[0], ast.Constant)
                       and node.elts[0].value in names)
    assert spelled and all(name.startswith("_check_") for name in spelled), spelled

    def reads_host(node):
        owner = getattr(node, "value", None)
        return (isinstance(node, ast.Subscript) and isinstance(node.slice, ast.Constant)
                and node.slice.value == "host"
                and "payload" in (getattr(owner, "id", None), getattr(owner, "attr", None)))
    assert _holders(tree, reads_host) == ["verify_certificate"]

    ramsey = next(node for node in ast.walk(tree)
                  if isinstance(node, ast.FunctionDef) and node.name == "ramsey_extract")
    assert "certify" not in set(_names(ramsey))


def test_pipeline_builds_tables_and_checks_once():
    # thm8_pipeline calls the table cores, not the public steps that certify
    # their own maps, and its SublatticePattern certificate is its one check
    tree = ast.parse((SRC / "constructions.py").read_text())
    pipeline = _function(tree, "thm8_pipeline")
    checked = {"MapWitness", "phi_quotient", "delta_from_hom", "f_vee",
               "ramsey_extract", "is_independent", "certify"}
    assert set(_names(pipeline)) & checked == set()
    assert sum(map(_calls("_certificate"), ast.walk(pipeline))) == 1
    assert {"_phi_table", "_delta_table", "_ramsey_fields", "_lift_table"} <= set(
        _names(pipeline))


def test_one_distributivity_test_and_one_topological_sort():
    # the construction that needs a distributive host asks Poset.birkhoff,
    # not the structure report, which leaves no cache on the Poset
    used = set(_names(_function(ast.parse((SRC / "constructions.py").read_text()),
                                "thm8_pipeline")))
    assert "birkhoff" in used and "structure_report" not in used
    tree = ast.parse((SRC / "poset.py").read_text())
    slots = next(node.value for node in _function(tree, "Poset").body
                 if isinstance(node, ast.Assign) and node.targets[0].id == "__slots__")
    assert "_report" not in ast.literal_eval(slots)
    # build and linear_extension call _kahn, the module's one heap loop
    for name in ("Poset.linear_extension", "build"):
        assert any(map(_calls("_kahn"), ast.walk(_function(tree, name)))), name
    assert _holders(tree, lambda node: isinstance(node, ast.Attribute)
                    and node.attr == "heappop") == ["_kahn"]


def test_chain_walks_ask_the_kernel():
    # the dichotomy calls a member bounded when its top is in
    # poset.at_most_one_cover, the one irreducibles routine; the second
    # test, the walk that re-sorted its members, the suffix list and the
    # cache of table gaps are gone
    tree = ast.parse((SRC / "constructions.py").read_text())
    assert "at_most_one_cover" in set(_names(_function(tree, "dichotomy_extract")))
    gone = {"_truncation_unbounded", "_descending_walk", "suffixes", "_gaps"}
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        defined = {node.name for node in ast.walk(tree)
                   if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        strings = {node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant) and isinstance(node.value, str)}
        found += [f"{path.name}: {name}"
                  for name in sorted(gone & (set(_names(tree)) | defined | strings))]
    assert found == []


def test_chain_tops_found_once():
    # a chain finds its members' tops when it is built and keeps them, and
    # nothing else in the module finds one
    tree = ast.parse((SRC / "constructions.py").read_text())

    def names_top(node):
        return isinstance(node, ast.Name) and node.id == "_ideal_top"
    assert _holders(tree, names_top) == ["__post_init__"]
    chain = _function(tree, "ChainOfDownSets")
    assert _holders(chain, names_top) == ["__post_init__"]


def _passes_down(node):
    """A Poset(...) call that hands over its own down masks."""
    func = getattr(node, "func", None)
    return (isinstance(node, ast.Call)
            and "Poset" in (getattr(func, "id", None), getattr(func, "attr", None))
            and (len(node.args) >= 4 or any(kw.arg == "down" for kw in node.keywords)))


def test_only_poset_constructors_pass_down():
    # Poset trusts a given down to be the transpose of up, so only the
    # constructors in poset.py, which derive it from what they hold, pass it
    passers = {path.name: _holders(ast.parse(path.read_text()), _passes_down)
               for path in sorted(SRC.glob("*.py"))}
    assert passers.pop("poset.py") == ["add_bottom", "build", "direct_sum", "dual",
                                       "inclusion_order", "induced", "relabel",
                                       "set_lattice"]
    assert all(holders == [] for holders in passers.values()), passers


def test_one_search_core_for_embeddings_and_isomorphism():
    # embedding_search and is_isomorphic hand their domains and order to
    # poset._search and keep no backtracking of their own
    for module, name in (("semilattice.py", "embedding_search"), ("poset.py", "is_isomorphic")):
        fn = next(node for node in ast.walk(ast.parse((SRC / module).read_text()))
                  if isinstance(node, ast.FunctionDef) and node.name == name)
        nested = [node for node in ast.walk(fn) if node is not fn and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))]
        assert nested == [], name
        assert "_search" in set(_names(fn)), name


def test_search_budget_read_by_the_search_cores_only():
    # each search core reads its own node budget, so its callers pass none:
    # the matching kernel, the embedding core, the subset core and the
    # width oracle; and only the oracle keeps a nested recursive search
    def reads_budget(node):
        return (isinstance(node, ast.Attribute) and node.attr == "SEARCH_BUDGET"
                or isinstance(node, ast.Name) and node.id == "SEARCH_BUDGET")

    def nested_recursion(node):
        # a function defined inside another that calls itself
        return any(isinstance(inner, ast.FunctionDef) and inner is not node
                   and any(map(_calls(inner.name), ast.walk(inner)))
                   for inner in ast.walk(node))

    readers, nested = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "budget.py" and (held := _holders(tree, reads_budget)):
            readers[path.name] = held
        nested += [f"{path.name}:{fn.name}" for fn in ast.walk(tree)
                   if isinstance(fn, ast.FunctionDef) and nested_recursion(fn)]
    assert readers == {"poset.py": ["_first_subset", "_search", "width"],
                       "suites.py": ["width_oracle"]}
    assert nested == ["suites.py:width_oracle"]
    for module, name in (("semilattice.py", "find_independent_set"),
                         ("constructions.py", "_monochromatic_subset")):
        tree = ast.parse((SRC / module).read_text())
        assert "_first_subset" in set(_names(_function(tree, name))), name


def test_enumeration_budget_readers():
    # each generator states its size once, to families._check_size or, for
    # the two whose size is a power of two, to its own check; the memos
    # read the budget only to key their entries by it, and no table maps a
    # family's name to its size
    def reads_budget(node):
        return (isinstance(node, ast.Attribute) and node.attr == "ENUM_BUDGET"
                or isinstance(node, ast.Name) and node.id == "ENUM_BUDGET")

    readers = {}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        if path.name != "budget.py" and (held := _holders(tree, reads_budget)):
            readers[path.name] = held
    assert readers == {
        "downsets.py": ["_downset_masks", "nonempty_downset_lattice"],
        "families.py": ["_check_size", "finite_powerset", "omega_eta", "ordinals_below",
                        "shape"],
        "poset.py": ["build"],
        "suites.py": ["union_closure"],
    }
    tree = ast.parse((SRC / "families.py").read_text())
    defined = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert (defined | set(_names(tree))) & {"_check_budget", "_COUNTED", "_PAIR_TESTED"} == set()


def test_generate_names_no_family():
    # a family's parameters and defaults are stated once, in its generator's
    # signature, which generate reads: it compares nothing with a family name
    tree = ast.parse((SRC / "families.py").read_text())
    named = [node.lineno for node in ast.walk(_function(tree, "generate"))
             if isinstance(node, ast.Compare)
             and any(isinstance(side, ast.Constant) and isinstance(side.value, str)
                     for side in (node.left, *node.comparators))]
    assert named == []
    defined = {fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef)}
    assert defined & {"take", "_reject_leftovers"} == set()


def test_package_imports_form_no_cycle():
    # every package import sits at module level, and the modules import
    # each other in one order, so none leans on a function-local import
    graph, local = {}, []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        graph[path.stem] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                graph[path.stem].update([node.module] if node.module
                                        else (alias.name for alias in node.names))
                if node not in tree.body:
                    local.append(f"{path.name}:{node.lineno}")
    assert local == []
    done = set()
    while graph.keys() - done:
        ready = {m for m in graph.keys() - done if graph[m] <= done}
        assert ready, sorted(graph.keys() - done)
        done |= ready
    assert "semilattice" not in graph["downsets"]
    assert "downsets" not in graph["semilattice"]


# where each label-taking function takes its labels, by position
LABEL_ARGS = {"Poset": 2, "relabel": 0, "build": 3, "inclusion_order": 1,
              "set_lattice": 2}


def _passes_label_source(node):
    """A call that hands a label-taking function a lambda as its labels."""
    if not isinstance(node, ast.Call):
        return False
    func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
    if func not in LABEL_ARGS:
        return False
    pos = LABEL_ARGS[func]
    args = node.args[pos:pos + 1] + [kw.value for kw in node.keywords if kw.arg == "labels"]
    return any(isinstance(sub, ast.Lambda) for arg in args for sub in ast.walk(arg))


def test_only_package_constructors_pass_a_label_source():
    # Poset checks a label list when it is built but a label source only
    # when it is first read, so only the constructors that derive their
    # labels from what they hold pass one
    passers = {path.name: _holders(ast.parse(path.read_text()), _passes_label_source)
               for path in sorted(SRC.glob("*.py"))}
    assert passers.pop("poset.py") == ["direct_product", "direct_sum", "induced"]
    assert passers.pop("downsets.py") == ["downset_lattice", "nonempty_downset_lattice"]
    assert all(holders == [] for holders in passers.values()), passers


def test_principal_ideals_stay_out_of_their_oracle():
    # principal_ideals reads the ideals off the cones, and the ideals
    # subcommand prints them; enumerate_ideals, the definition, never calls
    # it, and the ideal_principal suite checks the one against the other
    downsets = ast.parse((SRC / "downsets.py").read_text())
    suites = ast.parse((SRC / "suites.py").read_text())
    cli = ast.parse((SRC / "cli.py").read_text())
    assert "down_incl" in set(_names(_function(downsets, "principal_ideals")))
    assert "principal_ideals" in set(_names(_function(cli, "_cmd_ideals")))
    assert "principal_ideals" not in set(_names(_function(suites, "enumerate_ideals")))
    assert {"principal_ideals", "enumerate_ideals"} <= set(
        _names(_function(suites, "_suite_ideal_principal")))


def test_suite_oracles_and_generators_live_in_the_suites():
    # the kernels hold only what a subcommand runs: each oracle and input
    # generator a suite alone reads is defined once in suites.py, and no
    # other module names it
    for oracle, suite in (("enumerate_ideals", "_suite_ideal_principal"),
                          ("join_primes", "_suite_irr_eq"),
                          ("check_delta_map", "_suite_lem2_3"),
                          ("union_closure", "random_join_semilattice")):
        _oracle_only_in_suites(oracle, suite)


def _public_functions(tree):
    """(qualname, node) for each public module-level function and each
    public method of a public class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for child in node.body:
                if isinstance(child, ast.FunctionDef) and not child.name.startswith("_"):
                    yield f"{node.name}.{child.name}", child


def test_no_public_budget_parameter():
    # OC_BUDGET, else the built-in default, is the one source of a budget,
    # so no public function or method takes one as an argument
    found = []
    for path in sorted(SRC.glob("*.py")):
        for qualname, fn in _public_functions(ast.parse(path.read_text())):
            params = fn.args.posonlyargs + fn.args.args + fn.args.kwonlyargs
            found += [f"{path.name}:{qualname}({arg.arg})" for arg in params
                      if arg.arg == "limit" or arg.arg.endswith("_budget")]
    assert found == []


# names that nothing in the package or the bench calls, each kept for the
# tests that check other code against it, by module and qualified name
NO_CALLER_NEEDED = {
    "poset.validate": "poset.Poset's reference check of given down masks",
    "poset.dual": "the suites' dual hosts; only poset.py may pass down",
    "poset.is_isomorphic": "sum_prod's check; it shares _search with embedding_search",
    "suites.ideal_join_oracle": "the closure that is_separating is checked against",
    "poset.to_json": "the compact form the golden tests compare",
    "constructions.Certificate.to_json": "the compact form the golden tests compare",
    "downsets.DownSetFamily.to_json": "the compact form the enumeration test compares",
    "suites.SuiteReport.to_json": "the compact form the report test reads back",
}

# the modules that hold only what a subcommand runs; the oracles and input
# generators that only the suites read live in suites.py
KERNELS = ("poset", "downsets", "semilattice", "families")


def _free_names(node, bound=frozenset()):
    """The names a tree reads that no enclosing function binds, as a
    parameter or as a name it stores to."""
    if isinstance(node, (ast.FunctionDef, ast.Lambda)):
        args = node.args
        bound = bound | {arg.arg for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs,
                                             args.vararg, args.kwarg) if arg}
        bound |= {sub.id for sub in ast.walk(node)
                  if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Store)}
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in bound:
        yield node.id
    for child in ast.iter_child_nodes(node):
        yield from _free_names(child, bound)


def _uses(tree):
    """(attribute and string uses, free-name uses) of each identifier in a
    tree: a method is reached through x.name, or by a whole string, as
    tracing's method table reaches it; a module-level name also through a
    free name."""
    held = Counter([*(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)),
                    *(node.value for node in ast.walk(tree)
                      if isinstance(node, ast.Constant) and isinstance(node.value, str))])
    return held, Counter(_free_names(tree))


def test_every_public_name_has_a_caller():
    # each public function, class and method of a public class is used in
    # the package outside its own definition or in the bench; in a kernel
    # module so is each private top-level function and class, and a use in
    # suites.py does not count for a kernel's top-level name. A re-export
    # from __init__ is no caller, and a local variable of the same name is
    # no use
    modules = {path.stem: ast.parse(path.read_text())
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    bench = sorted((SRC.parents[1] / "perfbench").glob("*.py"))
    assert bench
    uses = {module: _uses(tree) for module, tree in modules.items()}
    uses.update((path, _uses(ast.parse(path.read_text()))) for path in bench)

    def totals(skip):
        held, free = Counter(), Counter()
        for user, (user_held, user_free) in uses.items():
            if user != skip:
                held += user_held
                free += user_free
        return held, free

    everywhere, outside_suites = totals(None), totals("suites")
    uncalled = set()
    for module, tree in modules.items():
        kernel = module in KERNELS
        defs = [(node.name, node) for node in tree.body
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
                and (kernel or not node.name.startswith("_"))]
        defs += [(qualname, node) for qualname, node in _public_functions(tree)
                 if "." in qualname]
        for qualname, node in defs:
            held, free = outside_suites if kernel and "." not in qualname else everywhere
            name = qualname.rsplit(".", 1)[-1]
            own_held, own_free = _uses(node)
            count = held[name] - own_held[name]
            if "." not in qualname:
                count += free[name] - own_free[name]
            if count <= 0:
                uncalled.add(f"{module}.{qualname}")
    assert sorted(uncalled) == sorted(NO_CALLER_NEEDED)
