"""The package has no unused imports, private names, or public functions and classes.

Every name a module of ``src/robinsim`` imports (its ``__init__.py``
re-exports, so it is left out) must be read somewhere in that module. Every
private top-level name of the package must be read somewhere in the package.
Every public top-level function or class must be read in a module of the
package other than ``__init__.py`` or in a file of ``bench/``. Naming it in
``README.md`` or exporting it from ``__init__.py`` does not count: a public
wrapper that no module and no benchmark calls is a second form of a call
that already exists.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def reads(tree):
    """Names loaded by name, or read as module.attribute."""
    return {
        node.id if isinstance(node, ast.Name) else node.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) or isinstance(node, ast.Attribute)
    }


def unused_names(root=ROOT):
    """One line per unused import, unread private name or unused public function or class."""
    trees = {path.relative_to(root): parse(path) for path in sorted((root / "src" / "robinsim").glob("*.py"))}
    unused = []
    for path, tree in trees.items():
        if path.name == "__init__.py":
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    if name not in read:
                        unused.append(f"{path}:{node.lineno}: {name} imported but never used")
    package_reads = set().union(*map(reads, trees.values()))
    used = set().union(
        *(reads(tree) for path, tree in trees.items() if path.name != "__init__.py"),
        *(reads(parse(path)) for path in sorted((root / "bench").glob("*.py"))),
    )
    private = set()
    for path, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
                if not node.name.startswith("_") and node.name not in used:
                    unused.append(
                        f"{path}:{node.lineno}: public name {node.name} is read outside __init__.py"
                        " by no module, nor in bench/"
                    )
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                if name.startswith("_") and not name.startswith("__") and (path, name) not in private:
                    private.add((path, name))
                    if name not in package_reads:
                        unused.append(f"{path}:{node.lineno}: private name {name} is never read")
    return unused


def test_package_has_no_unused_names():
    unused = unused_names()
    assert not unused, "\n".join(unused)
