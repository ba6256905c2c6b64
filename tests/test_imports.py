import ast
import pathlib

PACKAGE = pathlib.Path(__file__).parent.parent / "src" / "chancomp"


def test_no_module_imports_a_private_name_of_another():
    # a name with a leading underscore belongs to its module alone
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.ImportFrom):
                continue
            if node.level == 0 and not (node.module or "").startswith("chancomp"):
                continue
            found += [f"{path.name}: {alias.name} from {node.module}" for alias in node.names
                      if alias.name.startswith("_")]
    assert found == []


# Public names that only the tests call, each kept for a reason of its own.
TEST_ONLY = {
    # the oracle the plan tests check the QR recursion against
    ("compiler", "reconstruct_dilation"),
}


def test_every_public_function_and_class_is_used_or_exported():
    # a public top-level def that no chancomp module refers to, its own
    # included, and that __init__ does not export, is dead weight
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    exported = {alias.name for node in ast.walk(trees.pop("__init__"))
                if isinstance(node, ast.ImportFrom) for alias in node.names}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    unused = [(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used | exported]
    assert sorted(unused) == sorted(TEST_ONLY)
