"""Source-level rules on how the package's modules depend on each other."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "lightcone"


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
