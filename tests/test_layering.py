"""Module boundaries inside the package, checked on the source with ast."""

import ast
from pathlib import Path

import rainbowbench

PACKAGE_DIR = Path(rainbowbench.__file__).parent
SIBLINGS = {path.stem for path in PACKAGE_DIR.glob("*.py")}


def private_imports(path: Path) -> list[str]:
    """`module.name` for every _-prefixed name imported from a sibling module."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.ImportFrom) or node.module is None:
            continue
        if node.level == 1:
            module = node.module
        elif node.level == 0 and node.module.startswith("rainbowbench."):
            module = node.module.removeprefix("rainbowbench.")
        else:
            continue
        if module not in SIBLINGS:
            continue
        out.extend(
            f"{module}.{alias.name}" for alias in node.names if alias.name.startswith("_")
        )
    return out


def test_no_module_imports_a_siblings_private_names():
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (names := private_imports(path))
    }
    assert offenders == {}


def test_guard_sees_private_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from .proofkit import Mode, _claim12_augment\n"
        "from rainbowbench.core import _private\n"
        "from .proofkit import step_outcomes\n"
        "from os import _exit\n"
    )
    assert private_imports(probe) == ["proofkit._claim12_augment", "core._private"]


def matching_constructions(path: Path) -> list[int]:
    """Line of every direct RainbowMatching(...) call, bare or through a module attribute."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "RainbowMatching":
            out.append(node.lineno)
    return sorted(out)


def test_only_core_constructs_matchings_directly():
    # make_matching and RainbowMatching.empty() keep triples sorted and distinct
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "core" and (lines := matching_constructions(path))
    }
    assert offenders == {}


def test_guard_sees_direct_matching_constructions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import core\n"
        "from .core import RainbowMatching, make_matching\n"
        "r = RainbowMatching(())\n"
        "s = core.RainbowMatching(())\n"
        "t = RainbowMatching.empty()\n"
        "u = make_matching([])\n"
    )
    assert matching_constructions(probe) == [3, 4]
