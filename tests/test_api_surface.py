"""Every public function, class and method of src/kacmod has a caller in the
shipped code (src/, scripts/ or bench/); a name that only the tests reach is
dead weight, and its tests belong with it."""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ("src", "scripts", "bench")


def _definitions(package):
    """(qualified name, name, is_method, node) for every public top-level
    function and class of the package's modules {stem: tree} and every
    public method of those classes."""
    out = []
    for stem, tree in package.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    or node.name.startswith("_"):
                continue
            out.append((f"{stem}.{node.name}", node.name, False, node))
            if isinstance(node, ast.ClassDef):
                out += [(f"{stem}.{node.name}.{sub.name}", sub.name, True,
                         sub) for sub in node.body
                        if isinstance(sub, ast.FunctionDef)
                        and not sub.name.startswith("_")]
    return out


def _references(trees, def_ids):
    """name -> [(by attribute, ids of the definitions enclosing it)] over
    every name read and attribute accessed in the (top directory, tree)
    pairs, and every string constant under bench/ (tracing rebinds
    functions by name)."""
    refs = defaultdict(list)

    def walk(node, enclosing, strings):
        if id(node) in def_ids:
            enclosing = enclosing | {id(node)}
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs[node.id].append((False, enclosing))
        elif isinstance(node, ast.Attribute):
            refs[node.attr].append((True, enclosing))
        elif strings and isinstance(node, ast.Constant) \
                and isinstance(node.value, str):
            refs[node.value].append((True, enclosing))
        for child in ast.iter_child_nodes(node):
            walk(child, enclosing, strings)

    for top, tree in trees:
        walk(tree, frozenset(), top == "bench")
    return refs


def unreferenced(root=ROOT):
    """Qualified names of the public definitions in src/kacmod that no
    shipped code references outside their own body, to a fixed point: a
    reference from inside a definition already found unreferenced does not
    count.  Methods are reached only by attribute access, so a local
    variable of the same name does not keep one alive."""
    trees = [(top, path, ast.parse(path.read_text()))
             for top in SHIPPED for path in sorted((root / top).rglob("*.py"))]
    package = {path.stem: tree for _, path, tree in trees
               if path.parent == root / "src" / "kacmod"}
    defs = _definitions(package)
    refs = _references([(top, tree) for top, _, tree in trees],
                       {id(node) for *_, node in defs})
    dead = set()
    changed = True
    while changed:
        changed = False
        for _, name, is_method, node in defs:
            if id(node) in dead:
                continue
            if not any((by_attr or not is_method) and id(node) not in enc
                       and not enc & dead for by_attr, enc in refs[name]):
                dead.add(id(node))
                changed = True
    return [qual for qual, _, _, node in defs if id(node) in dead]


def test_every_public_name_has_a_shipped_caller():
    dead = unreferenced()
    assert not dead, ("public names that only the tests reach:\n  "
                      + "\n  ".join(dead))


def test_scan_sees_through_dead_callers(tmp_path):
    # b is called only from a, and a from nowhere: both are reported; the
    # string "d" under bench/ keeps d alive, the local `unused` does not
    pkg = tmp_path / "src" / "kacmod"
    pkg.mkdir(parents=True)
    (pkg / "m.py").write_text(
        "def a():\n    return b()\n\n"
        "def b():\n    return 1\n\n"
        "def d():\n    return 2\n\n"
        "class K:\n    def used(self):\n        return 3\n\n"
        "    def unused(self):\n        unused = 1\n        return unused\n\n"
        "K().used()\n")
    (tmp_path / "scripts").mkdir()
    (tmp_path / "bench").mkdir()
    (tmp_path / "bench" / "t.py").write_text('WRAPPED = ("m", "d")\n')
    assert unreferenced(tmp_path) == ["m.a", "m.b", "m.K.unused"]
