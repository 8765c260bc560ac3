"""Dead surface: every top-level name defined in ``src/mathmorph`` must be
mentioned somewhere in ``src/`` or ``tests/`` outside its own definition."""

import ast
import os
import re
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mathmorph")
# defined to be read from outside the code base: the package version and
# the interpreter-exit hook that ``atexit.register`` decorates
ALLOWED = {"__version__", "_close_solvers"}
WORD = re.compile(r"[A-Za-z_]\w*")


def _python_files():
    for top in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        for dirpath, _, files in os.walk(top):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _definitions(tree):
    """``(name, first line, last line)`` of each top-level def, class and
    assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            first = min([node.lineno]
                        + [d.lineno for d in node.decorator_list])
            yield node.name, first, node.end_lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node.lineno, node.end_lineno


def unmentioned_names():
    """Names no live code mentions, as ``file:line:name``.  A mention from
    inside an unmentioned definition does not count, so a dead cluster of
    helpers is reported whole."""
    mentions = Counter()
    for path in _python_files():
        if os.path.abspath(path) != os.path.abspath(__file__):
            with open(path, encoding="utf-8") as fh:
                mentions.update(WORD.findall(fh.read()))
    defined = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
            text = fh.read()
        lines = text.splitlines()
        for what, first, last in _definitions(ast.parse(text)):
            own = Counter(WORD.findall("\n".join(lines[first - 1:last])))
            defined[f"{name}:{first}:{what}"] = (what, own)
    dead = set()
    while True:
        live = mentions.copy()
        for key in dead:
            live.subtract(defined[key][1])
        more = {key for key, (what, own) in defined.items()
                if what not in ALLOWED and live[what] <= own[what]}
        if more <= dead:
            return sorted(dead)
        dead |= more


def test_every_top_level_name_is_mentioned_outside_its_definition():
    assert unmentioned_names() == []
