"""The package's modules import one another one way, only freegroup reads packed words,
only endomorphism reads an element's caches, and no module but ``__init__`` imports a
name it never reads."""

import ast
from graphlib import CycleError, TopologicalSorter
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "mcgcocycles"
MODULES = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in PACKAGE.glob("*.py")}


def _sibling_imports(node: ast.AST) -> set[str]:
    """The package modules that an import statement names."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("mcgcocycles.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if node.level == 1:
        module = node.module
    elif node.level == 0 and (node.module + ".").startswith("mcgcocycles."):
        module = node.module.partition(".")[2]
    else:
        return set()
    # from .x import y names x; from . import x names x
    return {module.split(".")[0]} if module else {a.name for a in node.names}


def test_no_module_imports_a_sibling_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for node in ast.walk(fn):
                    if _sibling_imports(node):
                        found.append(f"{name}.{fn.name} line {node.lineno}")
    assert found == []


def test_sibling_imports_form_no_cycle():
    graph = {name: set().union(*map(_sibling_imports, ast.walk(tree))) for name, tree in MODULES.items()}
    assert graph["morita"] >= {"freegroup", "endomorphism"}  # the graph sees relative imports
    try:
        TopologicalSorter(graph).prepare()
    except CycleError as exc:
        raise AssertionError(f"import cycle {exc.args[1]}") from None


def _attribute_uses(attrs: tuple[str, ...], owner: str) -> list[str]:
    """Where a module other than ``owner`` names one of ``attrs`` as an attribute."""
    return [
        f"{name} line {node.lineno}: .{node.attr}"
        for name, tree in MODULES.items() if name != owner
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr in attrs
    ]


def test_only_freegroup_reads_the_packed_encoding():
    assert _attribute_uses(("packed", "width"), "freegroup") == []


def test_only_endomorphism_reads_an_elements_caches():
    assert _attribute_uses(("_backward", "_member", "_table"), "endomorphism") == []


def test_no_module_imports_a_name_it_never_reads():
    found = []
    for name, tree in MODULES.items():
        if name == "__init__":  # imports to re-export
            continue
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in ast.walk(tree):
            future = isinstance(node, ast.ImportFrom) and node.module == "__future__"
            if isinstance(node, (ast.Import, ast.ImportFrom)) and not future:
                bound = (alias.asname or alias.name.split(".")[0] for alias in node.names)
                found += [f"{name} line {node.lineno}: {b}" for b in bound if b not in read]
    assert found == []
