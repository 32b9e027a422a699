"""Every public module-level function and class in the package has a caller
in the package: a helper that only tests call belongs in tests/."""

import ast
from pathlib import Path

import botaclip

SRC = Path(botaclip.__file__).parent

# called from tests only until `embed` reports the k-NN overlap between
# its input and its output (ROADMAP open item 1)
WAITING = {"knn_overlap"}


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def _public_defs(trees):
    return {(module, node.name): node
            for module, tree in trees.items() for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")}


def _names_read(trees):
    """(top-level node, the names it reads) for every statement of every
    module, attribute names included."""
    return [(node, {n.id if isinstance(n, ast.Name) else n.attr
                    for n in ast.walk(node)
                    if isinstance(n, (ast.Name, ast.Attribute))})
            for tree in trees.values() for node in tree.body]


def test_every_public_helper_has_a_caller_in_src():
    trees = _trees()
    reads = _names_read(trees)
    # a definition's own body (recursion, a classmethod building its
    # class) does not count as a caller
    uncalled = {f"{module}.{name}"
                for (module, name), node in _public_defs(trees).items()
                if not any(name in names for other, names in reads
                           if other is not node)}
    waiting = {u for u in uncalled if u.split(".")[1] in WAITING}
    assert uncalled == waiting, (
        f"no caller in src/: {sorted(uncalled - waiting)}")
    assert {u.split(".")[1] for u in waiting} == WAITING, (
        "an allow-listed helper has a caller now: drop it from WAITING")
