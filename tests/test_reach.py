"""Every public top-level function or class of `twirl` is reached by the
library itself (the pipeline or the CLI) or is a test oracle of a fast
path.  The scan is syntactic: a name counts as reached when some
module of the package other than `__init__` names it outside its own
definition."""

import ast
import pathlib

import twirl

# oracle -> the fast path it checks
ORACLES = {
    "twisted_discriminant_charpoly": "twisted.twisted_discriminant",
    "twisted_discriminant_oracle": "twisted.twisted_discriminant",
    "symplectic_form": "the orthogonal-only closed forms "
                       "(twisted_discriminant, orbit_strata), which must "
                       "refuse the paper's symplectic case",
}


def _modules():
    pkg = pathlib.Path(twirl.__file__).parent
    return {p.stem: ast.parse(p.read_text()) for p in sorted(pkg.glob("*.py"))}


def _public_defs(trees):
    return {node.name: (mod, node.lineno, node.end_lineno)
            for mod, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _names(node):
    if isinstance(node, ast.Name):
        return [node.id]
    if isinstance(node, ast.Attribute):
        return [node.attr]
    if isinstance(node, ast.ImportFrom):
        return [a.name for a in node.names]
    return []


def test_every_public_name_is_reached_or_an_oracle():
    trees = _modules()
    defs = _public_defs(trees)
    reached = set()
    for mod, tree in trees.items():
        if mod == "__init__":
            continue
        for node in ast.walk(tree):
            for name in _names(node):
                if name not in defs:
                    continue
                home, lo, hi = defs[name]
                if home == mod and lo <= node.lineno <= hi:
                    continue
                reached.add(name)
    assert set(ORACLES) <= set(defs)
    unreached = sorted(f"{defs[n][0]}.{n}" for n in set(defs) - reached
                       - set(ORACLES))
    assert unreached == []
