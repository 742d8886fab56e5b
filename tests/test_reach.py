"""Every public function and class of the package is reached from code that
runs: the command line, another part of the package or an acceptance
criterion.  A name that only its own tests call is dead code and fails here,
unless it is listed below with the reason it stays."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "heckelab"
ACCEPTANCE = Path(__file__).resolve().parent / "test_acceptance.py"
DEFINITIONS = (ast.FunctionDef, ast.ClassDef)

# (module, name) -> why it stays without a caller
UNREACHED = {
    ("lattices", "reduced_primitive_forms"):
        "ROADMAP item 2 reads it: the reduced forms behind the candidate degree forms",
    ("lattices", "ideal_hom_disc_check"):
        "ROADMAP item 2 turns it into a check on the computed degree forms",
    ("modpoly", "main"):
        "the generator of the phi_*.txt tables, run by the command in the README",
}


def _import_map(tree: ast.Module) -> dict[str, tuple[str, str]]:
    """Local name -> (module, name) for each import from the package; the
    package itself is the module "__init__"."""
    out = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            source = node.module or "__init__"
        elif node.module == "heckelab":
            source = "__init__"
        elif node.module and node.module.startswith("heckelab."):
            source = node.module.partition(".")[2]
        else:
            continue
        for alias in node.names:
            out[alias.asname or alias.name] = (source, alias.name)
    return out


def _parse():
    trees = {path.stem: ast.parse(path.read_text()) for path in PACKAGE.glob("*.py")}
    trees["test_acceptance"] = ast.parse(ACCEPTANCE.read_text())
    defs = {
        module: {node.name: node for node in tree.body if isinstance(node, DEFINITIONS)}
        for module, tree in trees.items()
    }
    imports = {module: _import_map(tree) for module, tree in trees.items()}
    return trees, defs, imports


def _resolve(defs, imports, module, name):
    """The (module, name) of the package definition that `name` denotes in
    `module`, following re-exports; None when it denotes none."""
    if name in defs.get(module, ()):
        return module, name
    target = imports.get(module, {}).get(name)
    return None if target is None else _resolve(defs, imports, *target)


def _named(node, module, defs, imports):
    """The package definitions that the code of `node` names."""
    out = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found = _resolve(defs, imports, module, sub.id)
        elif isinstance(sub, ast.alias):  # an import, a re-export included
            found = _resolve(defs, imports, module, sub.asname or sub.name)
        elif isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name):
            target = imports.get(module, {}).get(sub.value.id)
            found = None
            if target is not None and target[1] in defs:  # module.attr
                found = _resolve(defs, imports, target[1], sub.attr)
        else:
            continue
        if found is not None:
            out.add(found)
    return out


def _reached() -> tuple[dict, set]:
    """The definitions named from module-level code, from the acceptance
    criteria or from a definition that is itself reached."""
    trees, defs, imports = _parse()
    pending = set()
    for module, name in UNREACHED:  # what a kept exception names stays too
        if name in defs.get(module, ()):
            pending |= _named(defs[module][name], module, defs, imports) - {(module, name)}
    for module, tree in trees.items():
        for node in tree.body:
            if module == "test_acceptance" or not isinstance(node, DEFINITIONS):
                pending |= _named(node, module, defs, imports)
    reached = set()
    while pending:
        key = pending.pop()
        if key in reached:
            continue
        reached.add(key)
        module, name = key
        pending |= _named(defs[module][name], module, defs, imports)
    return defs, reached


def test_every_public_name_is_reached():
    defs, reached = _reached()
    public = {
        (module, name)
        for module, names in defs.items()
        if module != "test_acceptance"
        for name in names
        if not name.startswith("_")
    }
    unreached = public - reached
    assert sorted(unreached - UNREACHED.keys()) == []
    # an exception whose name is reached again, or is gone, is dropped
    assert sorted(UNREACHED.keys() - unreached) == []
