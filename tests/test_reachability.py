"""Every public name is reached by the package or the benchmark, or is kept on
purpose. Uses are read from the source with ``ast``: each ``Name`` and
``Attribute`` in src/camsmeta (``__init__`` left out, since it only
re-exports) and in bench/, plus the function names the benchmark's tracer
wraps. Nothing under bench/ is imported or written."""

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
    "fit_bim_k": "README's K-subgroup form of BIM, pinned to BIM at K = 2",
    "leverage_scenario": "the leverage data of criterion 09",
    "report_effects": "one-policy form of report_policies: criterion 08",
}


def parse(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def used_names():
    files = [f for f in glob.glob(os.path.join(ROOT, "src", "camsmeta", "*.py"))
             if os.path.basename(f) != "__init__.py"]
    files += glob.glob(os.path.join(ROOT, "bench", "*.py"))
    used = set()
    for path in files:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
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
