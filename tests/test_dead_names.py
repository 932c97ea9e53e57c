"""No name that src/dualseg defines goes unused.

The package is walked with `ast`. A module-level function, class or
constant must be loaded somewhere as a name or an attribute, imported by
name, or named by an identifier-only string (the form in which
perfbench/layers.py names what it patches). A class member must be read
as an attribute or named by such a string; a dataclass field may also be
passed as a keyword. Uses count from src/, tests/, perfbench/ and demos/.
Dunder names belong to Python's protocols and are exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dualseg"
USER_DIRS = ("src", "tests", "perfbench", "demos")


def _parse(paths):
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in sorted(paths)}


def _bound(stmt):
    """Names a module- or class-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, ast.AnnAssign):
        targets = [stmt.target]
    else:
        return []
    return [t.id for t in targets if isinstance(t, ast.Name)]


def _is_dataclass(cls):
    for dec in cls.decorator_list:
        f = dec.func if isinstance(dec, ast.Call) else dec
        if getattr(f, "id", getattr(f, "attr", None)) == "dataclass":
            return True
    return False


def dead_names(package, users):
    """`module:name` and `module:Class.member` for every unused name the
    `package` trees define, given all the `users` trees ({path: tree})."""
    loaded, attrs, strings, keywords = set(), set(), set(), set()
    for tree in users.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif isinstance(node, ast.Attribute) \
                    and isinstance(node.ctx, ast.Load):
                attrs.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                loaded.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Constant) \
                    and isinstance(node.value, str) and node.value.isidentifier():
                strings.add(node.value)
            elif isinstance(node, ast.keyword) and node.arg:
                keywords.add(node.arg)

    dead = []
    for path, tree in package.items():
        for stmt in tree.body:
            for name in _bound(stmt):
                if not name.startswith("__") \
                        and name not in loaded | attrs | strings:
                    dead.append(f"{path.stem}:{name}")
            if not isinstance(stmt, ast.ClassDef):
                continue
            fields = _is_dataclass(stmt)
            for member in stmt.body:
                read = attrs | strings
                if fields and isinstance(member, ast.AnnAssign):
                    read = read | keywords
                for name in _bound(member):
                    if not name.startswith("__") and name not in read:
                        dead.append(f"{path.stem}:{stmt.name}.{name}")
    return dead


def test_every_name_in_the_package_is_used():
    users = {}
    for d in USER_DIRS:
        users.update(_parse((ROOT / d).rglob("*.py")))
    # this file's own strings name no use
    users.pop(Path(__file__).resolve(), None)
    package = {p: t for p, t in users.items() if PACKAGE in p.parents}
    assert dead_names(package, users) == []


def test_rule_flags_each_kind_of_unused_name():
    package = {Path("mod.py"): ast.parse(
        "LIMIT = 3\n"
        "def helper(): pass\n"
        "def patched(): pass\n"
        "def unused(): pass\n"
        "class Thing:\n"
        "    kind = 'a'\n"
        "    colour = 1\n"
        "    def size(self): return 0\n"
        "    def __len__(self): return 0\n"
        "@dataclass\n"
        "class Row:\n"
        "    width: int\n"
        "    depth: int\n"
        "    @property\n"
        "    def area(self): return 0\n")}
    users = {**package, Path("use.py"): ast.parse(
        "from mod import helper\n"
        "PATCHED = ('patched',)\n"
        "t = Thing(colour=2)\n"
        "t.kind = 'b'\n"
        "Row(width=1, depth=2, area=0).depth\n"
        "Thing.size(t) if LIMIT else t\n")}
    # a store is not a read, and a keyword names only a dataclass field
    assert dead_names(package, users) == [
        "mod:unused", "mod:Thing.kind", "mod:Thing.colour", "mod:Row.area"]
