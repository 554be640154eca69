"""Every public name is reached by the package or the benchmark, or is kept on
purpose. Uses are read from the source with ``ast``: each ``Name`` and
``Attribute`` read (not assigned) in src/camsmeta (``__init__`` left out,
since it only re-exports) and in bench/, plus the function names the
benchmark's tracer wraps. A file that binds a name itself, by assignment,
``def`` or ``class``, reads its own binding, so its uses count only if it is
the module the package exports the name from. A module-level private ``def``
or ``class`` must likewise be read somewhere in src/camsmeta or bench/; a
helper that only tests read is dead code. Nothing under bench/ is imported
or written."""

import ast
import glob
import os

import camsmeta

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# public names that no command, check or benchmark calls, and why each stays
KEEP = {
    "compose": "inverse of decompose: the documented (g, m) -> (y_A, y_B) map",
    "decompose": "the within-trial contrast/mean map the model rests on",
    "cov_gm": "Cov(g, m), zero at the information fraction: criterion 01",
    "cross_term_correction": "likelihood factorization identity: criterion 03",
    "factorization_residual": "likelihood factorization identity: criterion 03",
    "leverage_scenario": "the leverage data of criterion 09",
    "report_effects": "one-policy form of report_policies: criterion 08",
}


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def home_modules():
    """The module file ``__init__`` imports each public name from."""
    package = os.path.join(ROOT, "src", "camsmeta")
    return {alias.name: os.path.join(package, node.module + ".py")
            for node in parse(os.path.join(package, "__init__.py")).body
            if isinstance(node, ast.ImportFrom) and node.level == 1
            for alias in node.names}


def bound_names(tree):
    """The names a file binds by assignment, ``def`` or ``class``."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound |= {n.id for t in targets for n in ast.walk(t)
                      if isinstance(n, ast.Name)
                      and isinstance(n.ctx, ast.Store)}
    return bound


def source_trees():
    """Parsed src/camsmeta (without ``__init__``) and bench/ files by path."""
    files = [f for f in glob.glob(os.path.join(ROOT, "src", "camsmeta", "*.py"))
             if os.path.basename(f) != "__init__.py"]
    files += glob.glob(os.path.join(ROOT, "bench", "*.py"))
    return {path: parse(path) for path in files}


def read_names(tree):
    """Every ``Name`` and ``Attribute`` the file reads."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))
            and isinstance(node.ctx, ast.Load)}


def used_names():
    homes = home_modules()
    used = set()
    for path, tree in source_trees().items():
        own = bound_names(tree)
        used |= {n for n in read_names(tree)
                 if homes.get(n) == path or n not in own}
    for node in parse(os.path.join(ROOT, "bench", "tracer.py")).body:
        if isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "FUNCTIONS" for t in node.targets):
            used |= {c.value for c in ast.walk(node.value)
                     if isinstance(c, ast.Constant)}
    return used


def test_every_public_name_is_reached_or_kept():
    used = used_names()
    unreached = sorted(n for n in camsmeta.__all__
                       if n not in used and n not in KEEP)
    assert not unreached, f"public names nothing reaches: {unreached}"
    # a kept name that gains a caller leaves the list
    assert not sorted(n for n in KEEP if n in used)
    assert set(KEEP) <= set(camsmeta.__all__)


def test_every_private_helper_is_read_by_the_package_or_benchmark():
    trees = source_trees()
    read = set().union(*map(read_names, trees.values()))
    orphans = sorted(
        f"{os.path.relpath(path, ROOT)}:{node.name}"
        for path, tree in trees.items() for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))
        and node.name.startswith("_") and node.name not in read)
    assert not orphans, f"private helpers only tests read: {orphans}"
