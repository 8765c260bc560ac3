"""Dead surface: every top-level name defined in ``src/mathmorph``, and
every method, property, annotated field and ``self.<name> = ...``
attribute of a top-level class, must be mentioned somewhere in ``src/`` or
``tests/`` outside its own definition (for an attribute, outside the
assignments that set it).
A mention is an identifier in code: a name, an attribute, an imported name
or a keyword argument.  Words in docstrings, comments and strings do not
count.  Dead parameters too: every parameter of a ``def`` in
``src/mathmorph`` must be read by its function, other than to be passed
back to that function."""

import ast
import importlib.util
import os
from collections import Counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "mathmorph")
# defined to be read from outside the code base: the package version and
# the interpreter-exit hook that ``atexit.register`` decorates
ALLOWED = {"__version__", "_close_solvers"}


def _python_files():
    for top in (os.path.join(ROOT, "src"), os.path.join(ROOT, "tests")):
        for dirpath, _, files in os.walk(top):
            for name in sorted(files):
                if name.endswith(".py"):
                    yield os.path.join(dirpath, name)


def _mentions(tree) -> Counter:
    """Identifiers that ``tree`` mentions, with their counts."""
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out.update(node.name.split("."))
        elif isinstance(node, ast.keyword) and node.arg is not None:
            out[node.arg] += 1
    return out


def _definitions(tree):
    """``(label, name, line, mentions)`` of each top-level def, class and
    assigned name, and of each member of a top-level class (labelled
    ``Class.member``), with the identifiers its definition mentions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name, node.name, node.lineno, _mentions(node)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in _targets(node):
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, sub.id, node.lineno, _mentions(node)
        if isinstance(node, ast.ClassDef):
            members = set()
            for member in node.body:
                name = _member_name(member)
                if name is not None:
                    members.add(name)
                    yield (f"{node.name}.{name}", name, member.lineno,
                           _mentions(member))
            for name, sets in _self_attributes(node).items():
                if name not in members:
                    own = sum((_mentions(a) for a in sets), Counter())
                    yield (f"{node.name}.{name}", name,
                           min(a.lineno for a in sets), own)


def _targets(node):
    return node.targets if isinstance(node, ast.Assign) else [node.target]


def _self_attributes(cls):
    """``{name: [assignment, ...]}`` for each ``self.<name> = ...`` in the
    methods of ``cls``."""
    out = {}
    for node in ast.walk(cls):
        if not isinstance(node, (ast.Assign, ast.AnnAssign)):
            continue
        for target in _targets(node):
            for sub in ast.walk(target):
                if isinstance(sub, ast.Attribute) \
                        and isinstance(sub.value, ast.Name) \
                        and sub.value.id == "self":
                    out.setdefault(sub.attr, []).append(node)
    return out


def _member_name(node):
    """The name a method, property or annotated field defines; None for
    anything else, and for a dunder method, which Python calls itself."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return None if _dunder(node.name) else node.name
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return node.target.id
    return None


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _package_trees():
    """``(file name, parsed module)`` of each module of the package."""
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            with open(os.path.join(PACKAGE, name), encoding="utf-8") as fh:
                yield name, ast.parse(fh.read())


def unmentioned_names():
    """Names no live code mentions, as ``file:line:name``.  A mention from
    inside an unmentioned definition does not count, so a dead cluster of
    helpers is reported whole."""
    mentions = Counter()
    for path in _python_files():
        if os.path.abspath(path) != os.path.abspath(__file__):
            with open(path, encoding="utf-8") as fh:
                mentions.update(_mentions(ast.parse(fh.read())))
    defined = {}
    for name, tree in _package_trees():
        for label, what, line, own in _definitions(tree):
            defined[f"{name}:{line}:{label}"] = (what, own)
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


def _parameters(fn):
    a = fn.args
    return [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs
            + [p for p in (a.vararg, a.kwarg) if p]]


def unread_parameters():
    """Parameters that their function never reads, or reads only as an
    argument of a call back to itself, as ``file:line:function:name``.
    Exempt are dunder methods, whose signatures Python fixes, and a
    method's ``self``, which Python binds."""
    unread = []
    for name, tree in _package_trees():
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                    or _dunder(fn.name):
                continue
            passed_back = set()
            for call in ast.walk(fn):
                callee = getattr(call, "func", None)
                if isinstance(call, ast.Call) and fn.name in (
                        getattr(callee, "id", None),
                        getattr(callee, "attr", None)):
                    passed_back.update(
                        id(arg) for arg in call.args
                        + [k.value for k in call.keywords])
            read = {node.id for node in ast.walk(fn)
                    if isinstance(node, ast.Name)
                    and isinstance(node.ctx, ast.Load)
                    and id(node) not in passed_back}
            unread += [f"{name}:{fn.lineno}:{fn.name}:{p}"
                       for p in _parameters(fn)
                       if p not in read and p != "self"]
    return unread


def test_every_top_level_name_is_mentioned_outside_its_definition():
    assert unmentioned_names() == []


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_every_name_the_benchmark_tracer_hooks_resolves():
    # the tracer wraps these names from outside and leaves out the metrics
    # of a name that no longer resolves, so a rename would not fail a run
    spec = importlib.util.spec_from_file_location(
        "tracing", os.path.join(ROOT, "perfbench", "tracing.py"))
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # also the per-row step that workloads.py times from outside
    targets = [t for _, t, _ in tracing.HOOKS] + ["pipeline:_generate_row"]
    unresolved = []
    for target in targets:
        modname, path = target.split(":")
        owner = importlib.import_module("mathmorph." + modname)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        if owner is None:
            unresolved.append(target)
    assert len(tracing.HOOKS) > 20 and unresolved == []
    # the MCMC hook reads the proposal cap off a default config
    complicate = importlib.import_module("mathmorph.complicate")
    assert isinstance(complicate.McmcConfig().max_iters, int)
