"""Every public module-level function and class of occlm, and every public
method of its classes, has a caller in the program: the package, its scripts
or its benchmark. Tests do not count, so a definition that only tests call
fails here unless it is on the allowlist. A public function of ``tensor``
counts only when called through the module (``T.<name>`` or
``tensor.<name>``): its names (add, scale, ...) are common words that a bare
name or another object's attribute would match by accident."""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "occlm")
PROGRAM = (PACKAGE, os.path.join(ROOT, "scripts"), os.path.join(ROOT, "perfbench"))
TENSOR = os.path.join(PACKAGE, "tensor.py")

# the reference ops the decoder's fused kernels replaced
_TRACED_REFERENCE = ("the benchmark tracer's OPS wraps it by name, and ac1 and "
                     "the fused-kernel reference chains build on it")

# name -> why it stays without a caller in the program
ALLOWED_UNREFERENCED = {
    "mul": "ac1 and the fused-kernel reference chain build on it",
    "sum_all": "ac1 and the fused-kernel reference chain build on it",
    "softmax_lastdim": "ac1 and the fused-kernel reference chain build on it",
    "causal_mask_fill": "ac1 and the fused-kernel reference chain build on it",
    "gelu": "ac1 and the fused-kernel reference chain build on it",
    "reshape": "the benchmark tracer's OPS wraps it by name, and the "
               "fused-kernel reference chain builds on it",
    "sequence_logprob": "the golden greedy decode scores with it",
    "save_train_checkpoint": "waits for resumable CLI training runs",
    "load_train_checkpoint": "waits for resumable CLI training runs",
    **dict.fromkeys(("add", "matmul", "transpose", "embedding_lookup",
                     "layer_norm", "dropout"), _TRACED_REFERENCE),
}


def _trees(dirs):
    for top in dirs:
        for dirpath, _, files in os.walk(top):
            for name in sorted(files):
                if name.endswith(".py") and not name.startswith("test_"):
                    path = os.path.join(dirpath, name)
                    with open(path, encoding="utf-8") as fh:
                        yield path, ast.parse(fh.read(), path)


def _public(nodes):
    return [node for node in nodes
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _public_definitions():
    """Public module-level names and the public methods of their classes,
    and apart the public module-level functions of tensor."""
    defs = set()
    tensor_functions = set()
    for path, tree in _trees([PACKAGE]):
        for node in _public(tree.body):
            if path == TENSOR and isinstance(node, ast.FunctionDef):
                tensor_functions.add(node.name)
                continue
            defs.add(node.name)
            if isinstance(node, ast.ClassDef):
                defs.update(method.name for method in _public(node.body))
    return defs, tensor_functions


def _referenced_names():
    """Names used as a bare name, an attribute or an import anywhere in the
    program, and apart the attributes read off the tensor module; string
    literals (such as attribute names passed to setattr) do not count."""
    names = set()
    tensor_names = set()
    for _, tree in _trees(PROGRAM):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
                if (isinstance(node.value, ast.Name)
                        and node.value.id in ("T", "tensor")):
                    tensor_names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names, tensor_names


def test_every_public_definition_is_referenced():
    defs, tensor_functions = _public_definitions()
    refs, tensor_refs = _referenced_names()
    unreferenced = (defs - refs) | (tensor_functions - tensor_refs)
    assert unreferenced - ALLOWED_UNREFERENCED.keys() == set(), (
        "only tests call these; delete them or allowlist them with a reason")
    # the allowlist stays exact: no entry that is called or no longer defined
    assert ALLOWED_UNREFERENCED.keys() - unreferenced == set()
