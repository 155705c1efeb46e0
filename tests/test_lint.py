import ast
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
