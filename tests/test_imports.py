import ast
import importlib
import pathlib
import subprocess
import sys

import pytest

import chancomp

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


def _is_cli_argument(node) -> bool:
    """An attribute read off `args`, the CLI's parsed arguments: `args.kraus_rank`
    names an argparse dest, not the function of that name."""
    return (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id == "args")


def _package():
    """The module trees other than __init__'s, the names in __init__'s
    export table and the names the modules refer to, a module's own names included."""
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(PACKAGE.glob("*.py"))}
    [table] = [node.value for node in trees.pop("__init__").body
               if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["_EXPORTS"]]
    exported = set(ast.literal_eval(table))
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees.values() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and not _is_cli_argument(node)}
    return trees, exported, used


# Public names that only the tests call, each kept for a reason of its own.
TEST_ONLY = {
    # the oracle the plan tests check the QR recursion against
    ("compiler", "reconstruct_dilation"),
}

# Exported names that no chancomp module calls: the library API that the
# acceptance criteria and the tests check the pipeline with.
LIBRARY_API = {
    "choi_distance": "criteria 1, 4 and 6 bound the Choi distance of circuit and channel",
    "is_extreme": "criterion 7 checks Choi's extremality criterion on named channels",
    "kraus_rank": "criterion 7 checks the Kraus ranks of named channels",
    "outcome_distribution": "criterion 9 checks that rank-1 circuits give input-free outcomes",
    "predict_upper_bound": "criterion 3 checks the emitted CNOT count against the formula",
    "simulate_unitary": "the synthesizer's tests check emitted unitaries against it",
    "standard_passes": "criterion 6 checks it, and perfbench's compile workloads call it",
}


def test_every_public_function_and_class_is_used_or_exported():
    # a public top-level def that no chancomp module refers to, and that
    # __init__ does not export, is dead weight
    trees, exported, used = _package()
    unused = [(module, node.name) for module, tree in trees.items() for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in used | exported]
    assert sorted(unused) == sorted(TEST_ONLY)


def test_every_export_no_module_refers_to_is_listed():
    # an export is not exempt for being exported: one that no chancomp
    # module refers to is library API with a reason in LIBRARY_API, so the
    # next unused export fails here
    _, exported, used = _package()
    assert sorted(exported - used) == sorted(LIBRARY_API)


def test_every_export_resolves_to_the_object_in_its_module():
    for name, module in chancomp._EXPORTS.items():
        assert getattr(chancomp, name) is getattr(
            importlib.import_module(f"chancomp.{module}"), name), name
    assert set(chancomp.__all__) == {*chancomp._EXPORTS, "__version__"}
    assert set(chancomp.__all__) <= set(dir(chancomp))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'compile_everything'"):
        chancomp.compile_everything
    assert not hasattr(chancomp, "_objective")


def test_importing_the_package_loads_none_of_its_modules():
    # a subprocess, since this one has loaded them all
    code = ("import sys, chancomp; "
            "print(sorted(m for m in sys.modules if m.startswith('chancomp.')), "
            "'numpy' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", code], cwd=PACKAGE.parent, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[] False"
