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
