"""Source-level rules on how the package's modules depend on each other."""

import ast
import json
import os
import pathlib
import subprocess
import sys

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lightcone"

# what ``import lightcone`` adds to a fresh interpreter that has already
# imported numpy.  The command line's own imports (argparse, json, csv)
# stay in ``lightcone.cli``; each module more is import time on every
# run of the library and of the benchmark's setup probe
IMPORTED = ["_decimal", "decimal", "fractions", "lightcone"] + [
    "lightcone." + name for name in ("ambient", "analysis", "charts", "dsl",
                                     "errors", "frames", "jets",
                                     "transforms")]

IMPORT_SCRIPT = """
import json, sys
import numpy
before = set(sys.modules)
import lightcone
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def _module_names(tree, modules):
    """Local names that the import statements of ``tree`` bind to a
    module of the package (or to the package itself)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level == 1 and node.module is None or (
                    node.level == 0 and node.module == "lightcone"):
                names.update(alias.asname or alias.name
                             for alias in node.names
                             if alias.name in modules)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "lightcone":
                    names.add(alias.asname or "lightcone")
    return names


def _root(node):
    while isinstance(node, ast.Attribute):
        node = node.value
    return node.id if isinstance(node, ast.Name) else None


def module_patches(src=SRC):
    """Every place in ``src`` that assigns to, deletes or ``setattr``s
    an attribute of a package module, as ``file:line`` strings."""
    modules = {path.stem for path in src.glob("*.py")}
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        names = _module_names(tree, modules)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(
                    node.ctx, (ast.Store, ast.Del)):
                target = node
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("setattr", "delattr") and node.args):
                target = node.args[0]
            else:
                continue
            if _root(target) in names:
                found.append((path.name, node.lineno))
    return ["%s:%d" % place for place in sorted(found)]


def test_no_module_patches_another():
    # tolerances and settings travel as arguments; a module global that
    # one module rebinds in another is shared by every caller in the
    # process
    assert module_patches() == []


def test_module_patch_finder_sees_each_form(tmp_path):
    (tmp_path / "frames.py").write_text("X = 1\n")
    (tmp_path / "cli.py").write_text(
        "from . import frames\n"
        "import lightcone.frames as fr\n"
        "frames.X = 2\n"
        "frames.X, y = 3, 4\n"
        "fr.X += 1\n"
        "setattr(frames, 'X', 5)\n"
        "del frames.X\n"
        "obj = object()\n"
        "obj.X = 6\n")
    assert module_patches(tmp_path) == ["cli.py:%d" % n
                                        for n in (3, 4, 5, 6, 7)]


# what reaches C code past numpy: the ctypes module, numpy's loader for
# it, and glibc's allocator entries
NATIVE_MODULES = {"ctypes", "_ctypes", "cffi"}
NATIVE_NAMES = {"ctypeslib", "mallopt", "malloc_trim"}


def native_calls(src=SRC):
    """Every place in ``src`` that imports a module of NATIVE_MODULES,
    names one in a string, or names a NATIVE_NAMES entry, as
    ``file:line`` strings."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                hit = any(alias.name.split(".")[0] in NATIVE_MODULES
                          for alias in node.names)
            elif isinstance(node, ast.ImportFrom):
                hit = (node.module or "").split(".")[0] in NATIVE_MODULES
            elif isinstance(node, ast.Constant):
                hit = node.value in NATIVE_MODULES
            elif isinstance(node, ast.Name):
                hit = node.id in NATIVE_NAMES
            elif isinstance(node, ast.Attribute):
                hit = node.attr in NATIVE_NAMES
            else:
                continue
            if hit:
                found.append((path.name, node.lineno))
    return ["%s:%d" % place for place in sorted(found)]


def test_only_the_cli_calls_native_code():
    # the heap policy is the command line's: a library caller's process
    # keeps its own allocator settings.  The import-set test below
    # cannot see ctypes, which numpy has imported already
    assert {place.split(":")[0] for place in native_calls()} == {"cli.py"}


def test_native_call_finder_sees_each_form(tmp_path):
    (tmp_path / "jets.py").write_text(
        "import ctypes\n"
        "import ctypes.util as cu\n"
        "from ctypes import CDLL\n"
        "import importlib; importlib.import_module('ctypes')\n"
        "import numpy as np; np.ctypeslib.load_library('libc', '.')\n"
        "libc.mallopt(-1, 0)\n"
        "malloc_trim(0)\n"
        "import numpy, cffi\n"
        "ctypes_like = 'c' + 'types'\n")
    assert native_calls(tmp_path) == ["jets.py:%d" % n
                                      for n in (1, 2, 3, 4, 5, 6, 7, 8)]


def test_import_adds_only_the_library_modules():
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    proc = subprocess.run([sys.executable, "-c", IMPORT_SCRIPT], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == IMPORTED
