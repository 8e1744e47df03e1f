"""The package's modules import one another one way, only freegroup reads packed words,
only endomorphism reads an element's caches, no module but ``__init__`` imports a
name it never reads, and no cache grows with its arguments without bound.  Each public
name is declared once, in its module's ``__all__``, which ``__init__`` republishes by
star imports, the only ones in the package."""

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
    assert _attribute_uses(("packed", "width", "code", "letter_bytes", "handle_tables"),
                           "freegroup") == []


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


def _star_imports(tree: ast.AST) -> list[ast.ImportFrom]:
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and any(a.name == "*" for a in node.names)]


def _top_level_names(tree: ast.Module) -> set[str]:
    """The names a module binds by ``def``, ``class`` or assignment at its top level."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def _declared(tree: ast.Module):
    """The module's literal ``__all__``, or None without one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_each_republished_module_declares_names_it_defines():
    republished = set().union(*map(_sibling_imports, _star_imports(MODULES["__init__"])))
    assert republished >= {"freegroup", "homology", "endomorphism", "morita", "earle"}
    found = []
    for name in sorted(republished):
        declared = _declared(MODULES[name])
        if declared is None:
            found.append(f"{name}: no __all__")
            continue
        defined = _top_level_names(MODULES[name])
        found += [f"{name}: {n} is declared but not defined" for n in declared if n not in defined]
    assert found == []


def test_no_module_but_init_uses_a_star_import():
    found = [f"{name} line {node.lineno}" for name, tree in MODULES.items() if name != "__init__"
             for node in _star_imports(tree)]
    assert found == []


def _names(node: ast.AST, name: str) -> bool:
    """Whether node is ``name`` or an attribute ``<anything>.name``."""
    return (isinstance(node, ast.Name) and node.id == name
            or isinstance(node, ast.Attribute) and node.attr == name)


def _takes_parameters(fn: ast.FunctionDef) -> bool:
    a = fn.args
    return bool(a.posonlyargs or a.args or a.vararg or a.kwonlyargs or a.kwarg)


def test_no_cache_grows_without_bound():
    """``lru_cache(maxsize=None)``, or ``functools.cache`` on a function that takes
    parameters, keeps an entry for every argument it meets for the life of the process."""
    found = []
    for name, tree in MODULES.items():
        # @cache on a function without parameters holds one entry
        single = {id(dec) for fn in ast.walk(tree)
                  if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and not _takes_parameters(fn) for dec in fn.decorator_list}
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and _names(node.func, "lru_cache"):
                size = [k.value for k in node.keywords if k.arg == "maxsize"] + node.args[:1]
                unbounded = any(isinstance(s, ast.Constant) and s.value is None for s in size)
            else:
                unbounded = _names(node, "cache") and id(node) not in single
            if unbounded:
                found.append(f"{name} line {node.lineno}")
    assert found == []
