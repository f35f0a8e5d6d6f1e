"""Static checks on the package source, read with ast.

No linter is a dependency, so these catch what a deletion leaves behind: an
export whose definition is gone, or an import that nothing uses any more.
One more keeps the command line drawing every family through games.DEALS,
and every game through one coupon_read line; counting keeps no module-level
list, so no cache, and its closed forms share one integrality check; a tree's
root count, declared root and cycles are each checked in one place, and so is
the size rule, which the command line's integer flags follow too, and the
variant rule.  The slot rule lives in the pruning scan alone, with no
callback and no closure.  The strategic set and the path cover both read the
one link pass, trees._links, and run_trials builds each trial's generator
through RandomSource.trial_rng.
A tree is one label-indexed parent tuple, with no second form to adapt it
back to.  A tree skips its checks in trees._rooted alone, for validate_tree,
decode and the Prufer walk, so the pruning scan guards against nothing, and
a code skips its checks in codec._code alone, for encode and the rooted
sweep, whose symbols the library built.
Each command of the command line returns its output, and run alone writes
it to stdout.  A sequence of values and a
sequence of pairs each have one reader, which raises the caller's error
class, so no entry point catches a strict read to raise it again.  Every
refused integer is worded by _strict_int alone, naming where it sits, so no
reader catches its refusal to word it again.  The coupon read and the plane
deal keep no running count of every position.  Nothing defines merge,
__add__ or from_json_dict: no histogram is joined from parts or read back.
"""

import ast
import re
from pathlib import Path

import pytest

import slithercode
from slithercode import codec, games

PACKAGE = Path(slithercode.__file__).resolve().parent
MODULES = sorted(PACKAGE.glob("*.py"))


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Each name an import statement binds, with its line; __future__ imports bind none."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def test_all_is_exactly_what_init_imports():
    exported = slithercode.__all__
    assert len(exported) == len(set(exported)), "duplicate names in __all__"
    missing = [name for name in exported if not hasattr(slithercode, name)]
    assert not missing, f"__all__ names that do not resolve: {missing}"
    assert set(exported) == set(imported_names(parse(PACKAGE / "__init__.py")))


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = parse(path)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":  # the package imports to re-export
        used |= set(slithercode.__all__)
    unused = {name: line for name, line in imported_names(tree).items() if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_cli_draws_every_family_through_the_deal_table():
    per_family = {f"{family.replace('-', '_')}_{kind}"
                  for family in games.DEALS for kind in ("deal", "trial")}
    per_family |= {"sample_uniform_rooted_tree", "card_trial"}
    named = {node.attr for node in ast.walk(parse(PACKAGE / "cli.py"))
             if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
             and node.value.id == "games"}
    assert not named & per_family, f"cli.py bypasses games.DEALS: {named & per_family}"


def test_integer_text_has_one_bulk_reader():
    calls = [(path.name, node.lineno) for path in MODULES for node in ast.walk(parse(path))
             if isinstance(node, ast.Attribute) and node.attr == "fromstring"]
    assert len(calls) == 1, f"np.fromstring should occur once in the package: {calls}"


def test_counting_keeps_no_module_level_list():
    # a memo, such as the rows of the Stirling triangle, would be a module-level list
    def is_list(node):
        return isinstance(node, (ast.List, ast.ListComp)) or (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "list")
    lists = [node.lineno for node in parse(PACKAGE / "counting.py").body
             if isinstance(node, (ast.Assign, ast.AnnAssign)) and is_list(node.value)]
    assert not lists, f"counting.py assigns a list at module level on lines {lists}"


def test_no_histogram_is_joined_or_read_back():
    # run_trials tallies a run whole; tallies of index ranges add up as Counters
    names = {"merge", "__add__", "from_json_dict"}
    found = [(path.name, node.lineno) for path in MODULES for node in ast.walk(parse(path))
             if isinstance(node, ast.FunctionDef) and node.name in names
             or isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
             and node.id in names]
    assert not found, f"a histogram join or reader is back: {found}"


def lines_with(phrase: str) -> list[tuple[str, int]]:
    """(module, line number) of each package source line that holds phrase."""
    return [(path.name, i) for path in MODULES
            for i, line in enumerate(path.read_text().splitlines(), 1) if phrase in line]


def test_closed_forms_have_one_integrality_check():
    found = lines_with("not integral")
    assert len(found) == 1, f"'not integral' should occur once in the package: {found}"


@pytest.mark.parametrize("phrase", ("closes a cycle", "cycle detected through", "but vertex"))
def test_tree_checks_have_one_copy(phrase):
    # the messages of validate_tree's root count, declared-root check and cycle search
    found = lines_with(phrase)
    assert len(found) == 1, f"{phrase!r} should occur once in the package: {found}"


@pytest.mark.parametrize("phrase", ("must be >= 1", "must be an integer"))
def test_the_size_rule_has_one_copy(phrase):
    # the messages of trees._strict_int and trees._check_positive, which every size goes through
    found = lines_with(phrase)
    assert len(found) == 1, f"{phrase!r} should occur once in the package: {found}"


def test_the_variant_rule_has_one_copy():
    # the message of trees._check_variant, which SlitherCode and the pruning scan go through
    found = lines_with("must be a Variant")
    assert len(found) == 1, f"'must be a Variant' should occur once in the package: {found}"


def test_the_slot_rule_has_one_copy():
    # the pruning scan keeps the slot pointers itself: no closure rebinds them,
    # and the scan calls none of its arguments back
    found = [(path.name, node.lineno) for path in MODULES for node in ast.walk(parse(path))
             if isinstance(node, ast.Nonlocal)]
    assert not found, f"nonlocal is back: {found}"
    func = next(node for node in parse(PACKAGE / "trees.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "_prune")
    params = {arg.arg for arg in func.args.args}
    called = {node.func.id for node in ast.walk(func)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert not params & called, f"_prune calls back its argument {sorted(params & called)}"


def test_no_size_is_called_a_positive_integer():
    found = lines_with("positive integer")
    assert not found, f"'positive integer' is a second size message: {found}"


def test_cli_reads_no_flag_with_int():
    # argparse's int() takes 1_0, " 3" and non-ASCII digits, which input integers refuse
    found = [node.lineno for node in ast.walk(parse(PACKAGE / "cli.py"))
             if isinstance(node, ast.keyword) and node.arg == "type"
             and isinstance(node.value, ast.Name) and node.value.id == "int"]
    assert not found, f"cli.py reads a flag with type=int on lines {found}"


@pytest.mark.parametrize("name", ("strategic_set", "path_cover_decomposition"))
def test_links_are_chosen_in_one_pass(name):
    # each reads trees._links and classifies nothing itself, so the link rule has one copy
    func = next(node for node in parse(PACKAGE / "trees.py").body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    called = {node.func.id for node in ast.walk(func)
              if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)}
    assert "_links" in called and "classify" not in called, f"{name} calls {sorted(called)}"


def test_run_trials_builds_each_generator_through_trial_rng():
    # the one path from (seed, index) to a generator, which sample and verify take too
    func = next(node for node in parse(PACKAGE / "games.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "run_trials")
    attrs = {node.attr for node in ast.walk(func) if isinstance(node, ast.Attribute)}
    names = {node.id for node in ast.walk(func) if isinstance(node, ast.Name)}
    assert "trial_rng" in attrs, f"run_trials reads {sorted(attrs)}"
    built = (attrs | names) & {"Generator", "PCG64", "default_rng", "_block_words", "_seed_words"}
    assert not built, f"run_trials builds generators itself: {sorted(built)}"


def test_a_tree_has_no_second_form():
    # a child -> parent dict read back by items() or values(), a key() beside the
    # tree, or a dict built from zipped columns
    second = re.compile(r"parent\.(items|values)\(\)|\.key\(\)|dict\(zip")
    found = [(path.name, i) for path in MODULES
             for i, line in enumerate(path.read_text().splitlines(), 1) if second.search(line)]
    assert not found, f"a second tree form is back: {found}"


def _sites(match) -> set[str]:
    """The top-level definitions, as module.name, that hold a node for which match is true."""
    return {f"{path.stem}.{getattr(top, 'name', top.lineno)}"
            for path in MODULES for top in parse(path).body
            if any(map(match, ast.walk(top)))}


def _names(name: str):
    return lambda node: name in (getattr(node, "id", None), getattr(node, "attr", None))


def test_new_is_called_only_by_the_unchecked_constructors():
    news = _sites(_names("__new__"))
    assert news == {"codec._code", "trees._rooted"}, f"__new__ is called in {sorted(news)}"


def test_trees_are_built_unchecked_in_one_place_for_three_callers():
    # trees._rooted skips RootedTree's checks, so only trees known to be trees may reach it:
    # validate_tree's once _tree has checked them, decode's and the Prufer encoder's walk
    callers = _sites(_names("_rooted"))
    assert callers == {"trees._tree", "codec.slither_decode", "codec.prufer_encode"}, callers


def test_codes_are_built_unchecked_in_one_place_for_two_callers():
    # codec._code skips SlitherCode's checks, so only the library's own symbols may reach it:
    # encode's gathered parents and the sweep's Prufer digits
    callers = _sites(_names("_code"))
    assert callers == {"codec.slither_encode", "counting.exact_rooted_distribution"}, callers


def test_the_pruning_scan_trusts_its_tree():
    # every RootedTree is a tree, checked where it is built, so _prune guards against nothing
    func = next(node for node in parse(PACKAGE / "trees.py").body
                if isinstance(node, ast.FunctionDef) and node.name == "_prune")
    guards = sorted({type(node).__name__ for node in ast.walk(func)
                     if isinstance(node, (ast.Try, ast.ExceptHandler, ast.Raise))})
    assert not guards, f"_prune holds {guards}"


def test_the_cli_has_one_output_path():
    # run writes what each command returns through _write_out, which takes a partial raw
    # write and a closed pipe; a print or a second writer would bypass both
    tree = parse(PACKAGE / "cli.py")
    functions = [node for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)]
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not {"emit_json", "_emit_table"} & (names | {f.name for f in functions})
    prints = [node.lineno for node in ast.walk(tree)
              if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "print"
              and not any(kw.arg == "file" and ast.unparse(kw.value) == "sys.stderr"
                          for kw in node.keywords)]
    assert not prints, f"cli.py prints to stdout on lines {prints}"
    writers = {f.name for f in functions for node in ast.walk(f)
               if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_write_out"}
    assert writers == {"run"}, f"_write_out is called from {sorted(writers)}"
    zeros = [f.name for f in functions if f.name.startswith("cmd_") for node in ast.walk(f)
             if isinstance(node, ast.Return) and isinstance(node.value, ast.Constant)
             and node.value.value == 0]
    assert not zeros, f"commands return a status of 0 themselves: {zeros}"


def test_a_sequence_has_one_reader():
    # the message of trees._sequence; codec._symbols and Deck each had a copy
    found = lines_with("must be a sequence")
    assert len(found) == 1, f"'must be a sequence' should occur once in the package: {found}"
    assert not hasattr(codec, "_symbols")


def test_a_sequence_of_pairs_has_one_reader():
    # the message of trees._pairs, which validate_tree and prufer_encode go through
    pair = re.compile(r"is not a .*pair")
    found = [(path.name, i) for path in MODULES
             for i, line in enumerate(path.read_text().splitlines(), 1) if pair.search(line)]
    assert len(found) == 1, f"the pair message should occur once in the package: {found}"
    for path, name in (("trees.py", "validate_tree"), ("codec.py", "prufer_encode")):
        func = next(node for node in parse(PACKAGE / path).body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        called = {getattr(node.func, "id", None) for node in ast.walk(func)
                  if isinstance(node, ast.Call)}
        assert "_pairs" in called, f"{name} reads its pairs itself"


@pytest.mark.parametrize("name", ("trees.py", "codec.py", "games.py"))
def test_no_strict_read_is_raised_again_in_another_class(name):
    # _strict_int and _strict_ints take the caller's error class, so nothing catches
    # their ValueError to raise it again as str(exc)
    rewraps = [node.lineno for handler in ast.walk(parse(PACKAGE / name))
               if isinstance(handler, ast.ExceptHandler) and handler.name
               for node in ast.walk(handler) if isinstance(node, ast.Call)
               and getattr(node.func, "id", None) == "str"
               and [ast.unparse(arg) for arg in node.args] == [handler.name]]
    assert not rewraps, f"{name} raises str(exc) again on lines {rewraps}"


def test_a_refused_integer_has_one_message():
    # "non-integer symbol", "labels", "declared root" and "edge" each reworded _strict_int's
    # refusal, and _refused picked between the two messages for them
    found = lines_with("non-integer")
    assert not found, f"'non-integer' is a second integer message: {found}"
    defined = {node.name for path in MODULES for node in ast.walk(parse(path))
               if isinstance(node, ast.FunctionDef)}
    assert "_refused" not in defined
    for path, name in (("trees.py", "_tree"), ("trees.py", "_entry_by_entry"),
                       ("codec.py", "prufer_encode")):
        func = next(node for node in parse(PACKAGE / path).body
                    if isinstance(node, ast.FunctionDef) and node.name == name)
        caught = [node.lineno for node in ast.walk(func) if isinstance(node, ast.ExceptHandler)
                  and node.type is not None and "ValueError" in ast.unparse(node.type)]
        assert not caught, f"{name} catches ValueError on lines {caught}"


@pytest.mark.parametrize("path, name", (("codec.py", "prefix_alpha"), ("games.py", "plane_deal")))
def test_the_coupon_read_and_the_plane_deal_keep_no_running_count(path, name):
    # prefix_alpha sorts the first occurrences and plane_deal subtracts each red card's rank;
    # a cumsum over every position was most of a trial's time
    func = next(node for node in parse(PACKAGE / path).body
                if isinstance(node, ast.FunctionDef) and node.name == name)
    found = [node.lineno for node in ast.walk(func)
             if isinstance(node, (ast.Name, ast.Attribute))
             and "cumsum" in (getattr(node, "id", None), getattr(node, "attr", None))]
    assert not found, f"{name} calls cumsum on lines {found}"
