"""Every public module-level function and class of occlm has a caller in the
program: the package, its scripts or its benchmark. Tests do not count, so a
definition that only tests call fails here unless it is on the allowlist."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "occlm")
PROGRAM = (PACKAGE, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench"))

# name -> why it stays without a caller in the program
ALLOWED_UNREFERENCED = {
    "mul": "ac1 and the fused-kernel reference chain build on it",
    "sum_all": "ac1 and the fused-kernel reference chain build on it",
    "softmax_lastdim": "ac1 and the fused-kernel reference chain build on it",
    "causal_mask_fill": "ac1 and the fused-kernel reference chain build on it",
    "gelu": "ac1 and the fused-kernel reference chain build on it",
    "sequence_logprob": "the golden greedy decode scores with it",
    "save_train_checkpoint": "waits for resumable CLI training runs",
    "load_train_checkpoint": "waits for resumable CLI training runs",
}


def _trees(dirs):
    for top in dirs:
        for dirpath, _, files in os.walk(top):
            for name in sorted(files):
                if name.endswith(".py") and not name.startswith("test_"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield ast.parse(fh.read(), path)


def _public_definitions():
    defs = set()
    for tree in _trees([PACKAGE]):
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                defs.add(node.name)
    return defs


def _referenced_names():
    """Names used as a bare name, an attribute or an import anywhere in the
    program; string literals (such as attribute names passed to setattr) do
    not count."""
    names = set()
    for tree in _trees(PROGRAM):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_definition_is_referenced():
    defs = _public_definitions()
    refs = _referenced_names()
    unreferenced = defs - refs
    assert unreferenced - ALLOWED_UNREFERENCED.keys() == set(), (
        "only tests call these; delete them or allowlist them with a reason")
    # the allowlist stays exact: no entry that is called or no longer defined
    assert ALLOWED_UNREFERENCED.keys() - unreferenced == set()
