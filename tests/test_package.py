"""Every public name and method in src has a caller outside the tests,
every pointer to a name in the docs resolves to a live object, and each
module's guards raise the module's own error."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

from maskconv import checkpoint, convref, layers, masks, network

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "maskconv"

# public names whose caller is not Python code in src, bench or demos
NO_PYTHON_CALLER = {
    "cli.entry": "the console script in pyproject.toml",
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


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
ROLE = re.compile(r":(?:func|class|meth|data|mod):`([\w.]+)`")


def lookup(scope, dotted):
    """Whether ``dotted`` names an attribute path of ``scope``."""
    for part in dotted.split(".") if dotted else ():
        if not hasattr(scope, part):
            return False
        scope = getattr(scope, part)
    return True


def resolves(target, module=None):
    """Whether ``target`` names a live object: as an absolute ``maskconv.``
    name, or relative to ``module`` or to one of the classes it defines."""
    if target.startswith("maskconv."):
        name, _, rest = target.removeprefix("maskconv.").partition(".")
        return name in MODULES and lookup(importlib.import_module(f"maskconv.{name}"), rest)
    if module is None:
        return False
    classes = [obj for obj in vars(module).values() if inspect.isclass(obj) and obj.__module__ == module.__name__]
    return any(lookup(scope, target) for scope in [module, *classes])


@pytest.mark.parametrize("name", MODULES)
def test_every_sphinx_role_in_src_resolves(name):
    module = importlib.import_module(f"maskconv.{name}")
    targets = ROLE.findall((PACKAGE / f"{name}.py").read_text())
    assert [target for target in targets if not resolves(target, module)] == []


def resolves_test(span):
    """Whether ``tests/<file>.py`` exists and defines ``::<name>``, if given."""
    path, _, name = span.partition("::")
    path = ROOT / path
    return path.exists() and (not name or re.search(rf"^def {name}\(", path.read_text(), re.M) is not None)


def test_every_name_readme_points_to_resolves():
    text = re.sub(r"```.*?```", "", (ROOT / "README.md").read_text(), flags=re.S)
    spans = set(re.findall(r"`([^`\n]+)`", text))
    tests = {span for span in spans if re.fullmatch(r"tests/\w+\.py(::\w+)?", span)}
    names = {
        "maskconv." + span.removeprefix("maskconv.").removesuffix("()")
        for span in spans
        if re.fullmatch(r"\w+(\.\w+)+(\(\))?", span)
        and span.split(".")[0] in {"maskconv", *MODULES}
        and not span.endswith(".py")
    }
    assert len(tests) >= 3 and len(names) >= 10  # the patterns still find the pointers
    assert sorted(span for span in tests if not resolves_test(span)) == []
    assert sorted(name for name in names if not resolves(name)) == []


@pytest.mark.parametrize(
    "call, error",
    [
        (lambda path: convref.conv_output_size(5, 0), convref.ShapeError),
        (lambda path: convref.im2col(np.zeros((4, 4)), 3), convref.ShapeError),
        (lambda path: convref.col2im(np.zeros((9, 5)), convref.im2col(np.zeros((4, 4, 1)), 3)), convref.ShapeError),
        (lambda path: convref.conv_reference(np.zeros((4, 4, 1)), np.zeros((3, 2, 1))), convref.ShapeError),
        (lambda path: layers.FilterBank(np.zeros((3, 3, 1))), convref.ShapeError),
        (lambda path: masks.MaskSet("learned", np.ones((9, 1)), 3, 1, 1), masks.MaskError),
        (lambda path: checkpoint.save_checkpoint(network.Network([object()]), path), checkpoint.CheckpointError),
    ],
    ids=["conv_output_size", "im2col", "col2im", "conv_reference", "FilterBank", "MaskSet", "save_checkpoint"],
)
def test_each_guard_raises_its_modules_own_error(call, error, tmp_path):
    with pytest.raises(error) as caught:
        call(tmp_path / "model.ckpt")
    assert caught.type is error
    assert not (tmp_path / "model.ckpt").exists()
