"""The names the bench's span tracer wraps resolve in gridarx, and every
public definition and C entry point of gridarx is used outside the tests.

`bench/spans.py` replaces module attributes of gridarx by name (its
`TARGETS`), so a name deleted or renamed in `src/` breaks a traced bench
run (`bench/run.py --trace 1`). Some names stay for that alone: the
`scenario.write_*_csv` writers, which no run calls, and the re-imports
`pipeline.rls_update`, `scenario.simulate` and `simulate.rbs_generate`.
"""

import ast
import glob
import importlib
import importlib.util
import os
import re

import pytest

SPANS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench", "spans.py")


def traced_names():
    """(module, attribute) of each entry of bench/spans.py's TARGETS."""
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return [(module, attribute) for module, attribute, _, _ in spans.TARGETS]


@pytest.mark.parametrize("module, attribute", traced_names())
def test_traced_name_resolves(module, attribute):
    assert module.split(".")[0] == "gridarx"
    assert callable(getattr(importlib.import_module(module), attribute))


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "src", "gridarx")
BENCH = os.path.dirname(SPANS)


def referenced(node) -> set:
    """The names `node` refers to: its names, attributes and imports.
    Docstrings and comments hold none."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rsplit(".", 1)[-1])
    return names


def test_every_public_definition_is_used_outside_tests():
    """Each public top-level function and class of `src/gridarx` is
    referenced by another top-level statement of `src/gridarx` (the
    package's `__init__` exports do not count) or used by the bench, where
    the names its span tracer wraps count: a second form that only tests
    reach has no place in the package."""
    statements, public = [], []
    for path in sorted(glob.glob(os.path.join(SRC, "*.py"))):
        if os.path.basename(path) == "__init__.py":
            continue
        with open(path) as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            statements.append((node, referenced(node)))
            if (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")):
                public.append((os.path.basename(path), node))
    used = {attribute for _, attribute in traced_names()}
    for path in glob.glob(os.path.join(BENCH, "*.py")):
        with open(path) as fh:
            used |= referenced(ast.parse(fh.read()))
    unused = [f"{module}: {node.name}" for module, node in public
              if node.name not in used
              and not any(node.name in names for other, names in statements
                          if other is not node)]
    assert not unused


def kernel_names() -> list:
    """The entry points in `_kernels.c`'s methods[] table."""
    with open(os.path.join(SRC, "_kernels.c")) as fh:
        source = fh.read()
    table = source[source.index("methods[] = {"):]
    return re.findall(r"FASTCALL\((\w+)\)", table[:table.index("};")])


def test_every_kernel_is_bound_and_used():
    """Each entry point of `_kernels.c` is bound in `_kernels.py` and
    called as `_kernels.<name>` by another module of `src/gridarx`: a
    kernel that only tests reach has no place in the extension."""
    names = kernel_names()
    assert names
    with open(os.path.join(SRC, "_kernels.py")) as fh:
        bound = {target.id for node in ast.parse(fh.read()).body
                 if isinstance(node, ast.Assign) for target in node.targets
                 if isinstance(target, ast.Name)}
    used = set()
    for path in glob.glob(os.path.join(SRC, "*.py")):
        if os.path.basename(path) != "_kernels.py":
            with open(path) as fh:
                used |= {node.attr for node in ast.walk(ast.parse(fh.read()))
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.value, ast.Name)
                         and node.value.id == "_kernels"}
    assert [name for name in names if name not in bound] == []
    assert [name for name in names if name not in used] == []
