import ast
import os
import subprocess
import sys
from pathlib import Path

import ncindiv

SOURCES = sorted(Path(ncindiv.__file__).parent.glob("*.py"))
EXEMPT = {"self", "cls"}


def unread_parameters(tree: ast.AST):
    """(line, function, parameter) for every parameter of a function or
    lambda that its body never reads."""
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
        params += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            n.id
            for stmt in body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        for p in params:
            if p not in EXEMPT and p not in read:
                yield node.lineno, name, p


def test_every_parameter_is_read():
    sample = ast.parse("def f(a, b, *, c):\n    return a + (lambda x: c)(0)\n")
    assert list(unread_parameters(sample)) == [(1, "f", "b"), (2, "<lambda>", "x")]
    assert SOURCES
    unread = [
        f"{path.name}:{line}: {name}({p})"
        for path in SOURCES
        for line, name, p in unread_parameters(ast.parse(path.read_text()))
    ]
    assert unread == []


def _decorator_name(node: ast.expr) -> str:
    """lru_cache for @lru_cache, @lru_cache(...) and @functools.lru_cache."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def test_only_the_shared_tables_are_memoized():
    """Derived views are cached properties and builders return fresh
    structures; only the lookup tables shared by separate calls keep a
    process-wide cache, no frozen instance is written behind its back,
    and no instance is made past its constructor."""
    memoized, setattrs, news = [], [], []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if any(_decorator_name(d) in ("lru_cache", "cache") for d in node.decorator_list):
                    memoized.append(f"{path.stem}.{node.name}")
            if (
                isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"
            ):
                setattrs.append(f"{path.name}:{node.lineno}")
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__new__"
            ):
                news.append(f"{path.name}:{node.lineno}")
    assert sorted(memoized) == ["bijections._arc_universe", "perm._distance_table"]
    assert setattrs == []
    assert news == []


def test_the_cli_import_leaves_fractions_and_decimal_out():
    probe = "import sys, ncindiv.cli; print(sorted({'fractions', 'decimal'} & set(sys.modules)))"
    src = Path(ncindiv.__file__).parent.parent
    result = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


CHECK_FIELDS = {"claim", "closed_form", "observed", "conjectural", "status"}


def _imports_verify(node: ast.AST) -> bool:
    if isinstance(node, ast.Import):
        names = [a.name for a in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = node.module or ""
        names = [module] + [f"{module}.{a.name}" for a in node.names]
    else:
        return False
    return any(name.split(".")[-1] == "verify" for name in names)


def test_only_verify_builds_and_reads_checks():
    """verify.Check is built and read in verify alone, and no layer
    imports verify: the CLI, its one importer, prints verify's reports."""
    importers, uses = set(), []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if _imports_verify(node):
                importers.add(path.stem)
            if path.stem != "verify" and (
                isinstance(node, ast.Name) and node.id == "Check"
                or isinstance(node, ast.alias) and node.name == "Check"
                or isinstance(node, ast.Attribute) and node.attr in CHECK_FIELDS
            ):
                uses.append(f"{path.name}:{node.lineno}")
    assert importers == {"cli"}
    assert uses == []
