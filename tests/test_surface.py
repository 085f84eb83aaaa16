"""The library keeps no surface that only its tests call.

Every public top-level function or class under ``src/liftlab`` is used by
other library code, is exported in ``liftlab.__all__``, or is named below with
the reason it stays; every public method or property of a library class is
used by library code outside its own definition, or is named below; and no
module of the library or of its tests imports a name it does not use. A
docstring that cites a name is not a use, and neither is an attribute of an
imported module: ``np.zeros`` does not use a library method ``zeros``.

A use is found by name alone, so a method name that two library classes define
passes for both on a use of either. Each such name is listed below with a reason
for each class that defines it.

Randomness has two homes: ``SeededRng.generator``, which derives every seeded
stream, and the spectral start in ``spectra._lambda_star``. No other library code
calls into ``numpy.random``, so the same seeds give the same rows.
"""

import ast
from pathlib import Path

import liftlab

PACKAGE = Path(liftlab.__file__).resolve().parent
TESTS = Path(__file__).resolve().parent

# public names that no library code calls but that stay, one reason each
KEPT = {
    "brute_force_probability": "acceptance criteria check exact probabilities against it",
    "enumerate_patterns": "acceptance criteria check the pattern count bound against it",
    "pattern_count_bound": "acceptance criteria check it against enumerate_patterns",
    "pattern_from_text": "the only reader of the format `reduce --show-pattern` writes",
}

# public method names that two or more library classes define, one reason per class
SHARED = {
    "d": {"BaseGraph": "the sweep rows and DyadicScale.of read the base degree",
          "Lift": "the comparable region and the certificate target read the lift's degree"},
    "h": {"Lift": "every operator and vector shape reads the lift's fibre count",
          "LiftVector": "the rounding's norm bound reads a vector's fibre count"},
    "neighbour_index": {
        "BaseGraph": "the expectation kernel and the census class graph gather through it",
        "Lift": "the adjacency kernel, the weight grids and induced subgraphs gather through it"},
}


# the only functions that call into numpy.random, as module.qualified_name
RANDOM_HOMES = {"sampling.SeededRng.generator", "spectra._lambda_star"}


def _modules(root=PACKAGE):
    return {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(root.glob("*.py"))}


def _module_aliases(tree):
    """The names that the module's ``import`` statements bind (``np``, ``math``, ...)."""
    return {(alias.asname or alias.name).split(".")[0] for node in ast.walk(tree)
            if isinstance(node, ast.Import) for alias in node.names}


def _root(node):
    """The name an attribute chain starts from, or None."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def _used_names(node, aliases=frozenset()):
    """Every name that the node reads, as a bare name or an attribute; an attribute
    reached through one of the module aliases (``np.zeros``) is not a use of its name."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute) and _root(sub) not in aliases:
            names.add(sub.attr)
    return names


def test_every_public_definition_has_a_library_caller():
    modules = _modules()
    aliases = {stem: _module_aliases(tree) for stem, tree in modules.items()}
    unused = []
    for stem, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if node.name in liftlab.__all__ or node.name in KEPT:
                continue
            # uses in the module's other statements and in every other module
            callers = [(other, aliases[stem]) for other in tree.body if other is not node]
            callers += [(t, aliases[s]) for s, t in modules.items() if s != stem]
            if not any(node.name in _used_names(*c) for c in callers):
                unused.append(f"{stem}.{node.name}")
    assert unused == []


def _public_methods(tree):
    """(class, method) for every public method or property of the module's classes."""
    return [(node, sub) for node in tree.body if isinstance(node, ast.ClassDef)
            for sub in node.body if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_")]


def test_every_public_method_has_a_library_use():
    modules = _modules()
    aliases = {stem: _module_aliases(tree) for stem, tree in modules.items()}
    unused = []
    for stem, tree in modules.items():
        for cls, method in _public_methods(tree):
            if f"{cls.name}.{method.name}" in KEPT:
                continue
            # uses in every other module, the module's other statements and the class's other members
            users = [(t, aliases[s]) for s, t in modules.items() if s != stem]
            users += [(other, aliases[stem]) for other in tree.body if other is not cls]
            users += [(other, aliases[stem]) for other in cls.body if other is not method]
            if not any(method.name in _used_names(*u) for u in users):
                unused.append(f"{stem}.{cls.name}.{method.name}")
    assert unused == []


def test_a_method_name_on_two_classes_is_listed_with_a_reason_for_each():
    owners = {}
    for tree in _modules().values():
        for cls, method in _public_methods(tree):
            owners.setdefault(method.name, set()).add(cls.name)
    shared = {name: classes for name, classes in owners.items() if len(classes) > 1}
    assert {name: set(reasons) for name, reasons in SHARED.items()} == shared
    assert all(reason for reasons in SHARED.values() for reason in reasons.values())


def test_the_kept_names_still_exist_and_are_not_exported():
    defined = {node.name for tree in _modules().values() for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    defined |= {f"{cls.name}.{method.name}" for tree in _modules().values()
                for cls, method in _public_methods(tree)}
    assert set(KEPT) <= defined
    assert not set(KEPT) & set(liftlab.__all__)


def test_no_module_imports_a_name_it_does_not_use():
    unused = []
    modules = [(f"liftlab.{stem}", tree) for stem, tree in _modules().items()]
    modules += [(f"tests.{stem}", tree) for stem, tree in _modules(TESTS).items()]
    for name, tree in modules:
        exported = set(liftlab.__all__) if name == "liftlab.__init__" else set()
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            rest = _used_names(ast.Module([s for s in tree.body if s is not node], []))
            for alias in node.names:
                bound = (alias.asname or alias.name).split(".")[0]
                if bound not in rest and bound not in exported:
                    unused.append(f"{name}: {bound}")
    assert unused == []


def _scoped(tree):
    """Each node under the tree, with the names of the functions and classes around it."""
    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            yield scope, child
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            yield from visit(child, inner)

    return visit(tree, ())


def _numpy_random_calls(stem, tree):
    """module.qualified_name of the function around each call through numpy.random,
    and of the module itself for each import from it."""
    numpy = {alias.asname or alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names if alias.name.split(".")[0] == "numpy"}
    sites = set()

    def through_random(func):
        chain = []
        while isinstance(func, ast.Attribute):
            chain.append(func.attr)
            func = func.value
        return isinstance(func, ast.Name) and func.id in numpy and "random" in chain

    for scope, node in _scoped(tree):
        if isinstance(node, ast.Call) and through_random(node.func):
            sites.add(".".join((stem,) + scope))
        elif isinstance(node, ast.ImportFrom) and "numpy.random" in (
                node.module, *(f"{node.module}.{alias.name}" for alias in node.names)):
            sites.add(stem)
    return sites


def test_numpy_randomness_is_called_only_from_its_two_homes():
    sites = set().union(*(_numpy_random_calls(stem, tree) for stem, tree in _modules().items()))
    assert sites == RANDOM_HOMES


def test_the_witness_chain_steps_are_called_only_from_the_chain():
    # run_cell and explain_pipeline reach these through experiment._witness_chain, so
    # the two cannot drift apart again; passing a step as a value is not a call
    steps = {"band_certificate", "extract_pattern", "reduce_pattern", "reduce_general",
             "pattern_witness_bound"}
    sites = {".".join(scope) for scope, node in _scoped(_modules()["experiment"])
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", getattr(node.func, "attr", None)) in steps}
    assert sites == {"_witness_chain"}
