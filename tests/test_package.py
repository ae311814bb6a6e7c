"""Every public name and method in src has a caller outside the tests."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maskconv"

# public names whose caller is not Python code in src, bench or demos
NO_PYTHON_CALLER = {
    "cli.entry": "the console script in pyproject.toml",
    "masks.read_mask_records": "the reader of the export-masks format, for the hostile-file sweep",
}


def referenced_names(paths):
    """Every Name id, Attribute attr and imported name in the files."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rsplit(".", 1)[-1])
    return names


def public_defs(path):
    """``(qualified name, name)`` of each public module-level def or class and
    each public method of a class."""
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield f"{path.stem}.{node.name}", node.name
            for member in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield f"{path.stem}.{node.name}.{member.name}", member.name


def test_every_public_src_name_has_a_caller_outside_tests():
    modules = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    callers = modules + sorted((ROOT / "bench").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))
    used = referenced_names(callers)
    unused = [qualified for path in modules for qualified, name in public_defs(path) if name not in used]
    assert sorted(unused) == sorted(NO_PYTHON_CALLER)


def test_package_init_reexports_nothing():
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    assert not [node for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))]
