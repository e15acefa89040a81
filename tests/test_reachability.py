"""Every top-level definition in `src/divkit` serves the engine: some other
code in `src` refers to it, by name or as an attribute.  The package's
`__init__` exports do not count, and neither do the tests.  Code that only
tests need lives in the tests, as the references in `conftest.py` do.

The names below have no reference in `src` and stay, each for its reason.
The list must match the scan exactly, so a name that gains a caller leaves
it."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "divkit"

KEPT_UNREFERENCED = {
    # perfbench's tracer wraps frames.poly_det by name (perfbench/spans.py)
    "poly_det": "frames",
    # builds the frame of a product of atoms on disjoint variables, for a
    # lift to the algebroid of pi's own divisor (ROADMAP item 16)
    "fiber_product": "frames",
    # reads a certificate's frame payload back, for `dk check` (ROADMAP item 10)
    "frame_from_payload": "cli",
    # results of the paper that no `dk` command certifies yet, command
    # candidates of ROADMAP item 14; acceptance criteria 5 and 8 run them
    "cochain_check": "residues",
    "elliptic_log_factorization": "residues",
    "modular_foliation_report": "poisson",
}


def unreferenced_definitions(src):
    """{name: module} of the top-level functions and classes of the modules
    in `src`, `__init__.py` left out, that nothing there names (as a name
    or an attribute) outside the definition itself."""
    defs, refs = {}, set()
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                defs[own] = path.stem
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name) and sub.id != own:
                    refs.add(sub.id)
                elif isinstance(sub, ast.Attribute) and sub.attr != own:
                    refs.add(sub.attr)
    return {name: module for name, module in defs.items() if name not in refs}


def test_every_definition_in_src_has_a_reference_in_src():
    assert unreferenced_definitions(SRC) == KEPT_UNREFERENCED

