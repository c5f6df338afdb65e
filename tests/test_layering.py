"""Module boundaries inside the package, checked on the source with ast and on type hints."""

import ast
import os
import subprocess
import sys
import typing
from pathlib import Path

import rainbowbench
from rainbowbench.proofkit import SwitchState

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


def unused_imports(path: Path) -> list[str]:
    """Every name an import binds that the module never reads; __future__ imports aside."""
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.extend(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.extend(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in bound if name not in read]


# perfbench's tracer patches these names in the modules that import them
TRACER_PATCH_IMPORTS = {
    "proofkit.py": ["neighbourhood_along"],
    "solver.py": ["neighbourhood_along"],
}


def test_no_module_imports_a_name_it_never_uses():
    # __init__ imports to re-export
    offenders = {
        path.name: names
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "__init__" and (names := unused_imports(path))
    }
    assert offenders == TRACER_PATCH_IMPORTS


def test_guard_sees_unused_imports(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import json as j\n"
        "import random\n"
        "from .core import Instance, make_matching as mm, swap_colours\n"
        "def f(x: Instance) -> None:\n"
        "    mm(os.getcwd())\n"
    )
    assert unused_imports(probe) == ["j", "random", "swap_colours"]


def duplicate_bindings(paths: list[Path]) -> dict[str, list[str]]:
    """Each name that a module-level def, class or assignment binds in more than one module."""
    owners: dict[str, list[str]] = {}
    for path in paths:
        names = set()
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                found = [n for n in ast.walk(node) if isinstance(n, ast.Name)]
                names.update(n.id for n in found if isinstance(n.ctx, ast.Store))
        for name in sorted(names):
            owners.setdefault(name, []).append(path.stem)
    return {name: stems for name, stems in owners.items() if len(stems) > 1}


def test_no_name_is_defined_in_two_modules():
    # a shared type or constant is declared once and imported; __init__ re-exports
    paths = [path for path in sorted(PACKAGE_DIR.glob("*.py")) if path.stem != "__init__"]
    assert duplicate_bindings(paths) == {}


def test_guard_sees_names_defined_in_two_modules(tmp_path):
    first, second = tmp_path / "first.py", tmp_path / "second.py"
    first.write_text(
        "from .core import Instance\n"
        "Mode = int\n"
        "a, (b, c) = 1, (2, 3)\n"
        "def f(): pass\n"
        "class K: pass\n"
        "d[0] = 1\n"
    )
    second.write_text(
        "from .core import Instance\n"
        "class Mode: pass\n"
        "c: int = 3\n"
        "async def f(): pass\n"
        "def g():\n"
        "    K = 1\n"
        "d = {}\n"
    )
    assert duplicate_bindings([first, second]) == {
        "Mode": ["first", "second"], "c": ["first", "second"], "f": ["first", "second"]
    }


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
    # make_matching keeps triples sorted and distinct
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


def instance_constructions(path: Path) -> list[int]:
    """Line of every direct Instance(...) or ColourClass(...) call, bare or through a module attribute."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("Instance", "ColourClass"):
            out.append(node.lineno)
    return sorted(out)


def test_only_core_and_gen_construct_instances_directly():
    # make_instance keeps each class's pairs sorted and distinct and checks the
    # indices; gen_random_instance draws pairs that are already so
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem not in ("core", "gen") and (lines := instance_constructions(path))
    }
    assert offenders == {}


def test_guard_sees_direct_instance_constructions(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from . import core\n"
        "from .core import ColourClass, Instance, make_instance\n"
        "a = Instance((), 0, 0)\n"
        "b = core.Instance((), 0, 0)\n"
        "c = ColourClass(())\n"
        "d = core.ColourClass(())\n"
        "e = make_instance([])\n"
        "f = gen_random_instance(1, 1)\n"
    )
    assert instance_constructions(probe) == [3, 4, 5, 6]


def indented_dumps(path: Path) -> list[int]:
    """Line of every dumps(...) call, bare or through a module attribute, given an indent."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "dumps" and any(kw.arg == "indent" for kw in node.keywords):
            out.append(node.lineno)
    return sorted(out)


def test_only_core_writes_indented_json():
    # core.canonical_json is the one indent-2 writer
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "core" and (lines := indented_dumps(path))
    }
    assert offenders == {}


def test_guard_sees_indented_dumps(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "from json import dumps\n"
        "a = json.dumps(x, indent=2)\n"
        "b = dumps(x, indent=None)\n"
        "c = json.dumps(x)\n"
        "d = json.dumps(x, separators=(',', ':'))\n"
    )
    assert indented_dumps(probe) == [3, 4]


def json_decodes(path: Path) -> list[int]:
    """Line of every loads(...) or load(...) call, bare or through a module attribute."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("loads", "load"):
            out.append(node.lineno)
    return sorted(out)


def test_only_core_decodes_json():
    # core.json_value is the one decoder, so JSON nested too deeply is a ValueError everywhere
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if path.stem != "core" and (lines := json_decodes(path))
    }
    assert offenders == {}


def test_guard_sees_json_decodes(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import json\n"
        "from json import loads\n"
        "a = json.loads(text)\n"
        "b = loads(text)\n"
        "c = json.load(stream)\n"
        "d = core.json_value(text)\n"
        "e = json.dumps(a)\n"
    )
    assert json_decodes(probe) == [3, 4, 5]


def sample_calls(path: Path) -> list[int]:
    """Line of every sample(...) call, bare or through a module or generator attribute."""
    out = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "sample":
            out.append(node.lineno)
    return sorted(out)


def test_no_module_calls_sample():
    # gen._sample is the one statement of how a class is drawn
    offenders = {
        path.name: lines
        for path in sorted(PACKAGE_DIR.glob("*.py"))
        if (lines := sample_calls(path))
    }
    assert offenders == {}


def test_guard_sees_sample_calls(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text(
        "import random\n"
        "from random import sample\n"
        "a = rng.sample(range(5), 2)\n"
        "b = random.Random(seed).sample(range(5), 2)\n"
        "c = sample(range(5), 2)\n"
        "d = _sample(rng.getrandbits, 5, 2)\n"
        "e = rng.choices(range(5), k=2)\n"
    )
    assert sample_calls(probe) == [3, 4, 5]


def names_read(reading: list[Path], naming: list[Path]) -> set[str]:
    """Every name a module in `reading` reads as an attribute or a plain name, and every
    string held by a module in `naming`, a subset of `reading`."""
    read = set()
    for path in reading:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str) and path in naming:
                read.add(node.value)
    return read


def unread_methods(defining: list[Path], reading: list[Path]) -> list[str]:
    """`Class.name` for every public method or property of a top-level class in `defining`
    whose name no module in `reading` reads as an attribute, a plain name or a string."""
    read = names_read(reading, reading)
    out = []
    for path in defining:
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            out.extend(
                f"{cls.name}.{item.name}"
                for item in cls.body
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                and not item.name.startswith("_")
                and item.name not in read
            )
    return out


def test_every_public_method_has_a_program_caller():
    # a method that only tests call is a second spelling of something the program reads
    # another way. Reads are matched by name alone, so a method named like any read name
    # passes: perfbench/checks.py's own function class_pairs once hid Instance.class_pairs.
    # A string counts as a read because CSV_COLUMNS names SweepReport.counterexample_found.
    src = sorted(PACKAGE_DIR.glob("*.py"))
    perfbench = sorted((PACKAGE_DIR.parent.parent / "perfbench").glob("*.py"))
    assert perfbench
    assert unread_methods(src, src + perfbench) == []


def test_guard_sees_methods_nobody_calls(tmp_path):
    probe, reader = tmp_path / "probe.py", tmp_path / "reader.py"
    probe.write_text(
        "class K:\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    @property\n"
        "    def named(self): pass\n"
        "    @classmethod\n"
        "    def called(cls): pass\n"
        "    def stored(self): pass\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
        "def f(): pass\n"
    )
    reader.write_text(
        "k.read()\n"
        "COLUMNS = ('named',)\n"
        "called()\n"
        "k.stored = 1\n"
    )
    assert unread_methods([probe], [reader]) == ["K.unread", "K.stored"]


def unread_functions(defining: list[Path], reading: list[Path], naming: list[Path]) -> list[str]:
    """`module.name` for every undecorated public module-level function in `defining`
    whose name no module in `reading` reads as an attribute or a plain name and no
    module in `naming` holds as a string."""
    read = names_read(reading, naming)
    return [
        f"{path.stem}.{node.name}"
        for path in defining
        for node in ast.parse(path.read_text(), filename=str(path)).body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.decorator_list
        and not node.name.startswith("_")
        and node.name not in read
    ]


# public functions only tests call today, each kept for the program that will read it
AWAITING_A_CALLER = {
    "latin.gen_random_latin": "the Latin-square sweep draws its squares from it",
    "proofkit.size_xy_prime": "the strict-mode theorem check reads the candidate-pool size",
    "proofkit.contradiction_threshold": "the strict-mode theorem check reads N(eps)",
    "proofkit.construct_Nk": "the strict-mode theorem check cross-checks the engine's pools",
    "proofkit.pigeonhole_select": "the strict-mode theorem check cross-checks the selection",
    "proofkit.claim1_switch": "the strict-mode theorem check replays claim-1/2 witnesses",
    "proofkit.claim2_switch": "the strict-mode theorem check replays claim-1/2 witnesses",
    "proofkit.claim3_switch": "the strict-mode theorem check replays claim-3 witnesses",
}


def test_every_public_function_has_a_program_caller():
    # like methods: a function only tests call is dead weight unless a program is coming
    # for it. __init__ does not count as a reader, since its __all__ names everything.
    # Only perfbench's strings count: its tracer patches functions by name, while a
    # string in src/ that names a function is message text, as claim1_switch's is.
    src = sorted(PACKAGE_DIR.glob("*.py"))
    perfbench = sorted((PACKAGE_DIR.parent.parent / "perfbench").glob("*.py"))
    readers = [path for path in src if path.stem != "__init__"] + perfbench
    assert sorted(unread_functions(src, readers, perfbench)) == sorted(AWAITING_A_CALLER)


def test_guard_sees_functions_nobody_calls(tmp_path):
    probe, reader, namer = tmp_path / "probe.py", tmp_path / "reader.py", tmp_path / "namer.py"
    probe.write_text(
        "import functools\n"
        "def read(): pass\n"
        "def unread(): pass\n"
        "def named(): pass\n"
        "def stored(): pass\n"
        "def messaged(): pass\n"
        "def _private(): pass\n"
        "@functools.lru_cache\n"
        "def cached(): pass\n"
        "class K:\n"
        "    def method(self): pass\n"
        "def outer():\n"
        "    def inner(): pass\n"
        "    inner()\n"
    )
    reader.write_text(
        "from probe import read\n"
        "read()\n"
        "stored = 1\n"
        "def require(ok, claim):\n"
        "    if not ok:\n"
        "        raise ValueError(f\"{claim} needs k >= 1\")\n"
        "require(k >= 1, \"messaged\")\n"
    )
    namer.write_text("COLUMNS = ('named',)\n")
    assert unread_functions([probe], [reader, namer], [namer]) == [
        "probe.unread", "probe.stored", "probe.messaged", "probe.outer"
    ]


def test_switch_state_fields_are_integers():
    # Vertex and ColouredEdge values are built at the public boundary only
    hints = typing.get_type_hints(SwitchState)
    assert set(hints) >= {"e_seq", "g_seq", "x_sets", "y_sets", "pi"}
    offenders = {
        name: hint
        for name, hint in hints.items()
        if "Vertex" in repr(hint) or "ColouredEdge" in repr(hint)
    }
    assert offenders == {}


def test_import_leaves_multiprocessing_out():
    # the oracle searches in this process, so importing the package starts no pool machinery
    env = {**os.environ, "PYTHONPATH": str(PACKAGE_DIR.parent)}
    probe = "import sys, rainbowbench.cli; print('multiprocessing' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout == "False\n"
