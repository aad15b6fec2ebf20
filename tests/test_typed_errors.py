"""Every refusal in the package is a typed ``SocIcnnError``.

The structural gate reads the source of ``src/socicnn``: no ``raise
ValueError`` and no ``raise TypeError`` is left in it, except inside the
converting ``try`` of ``model._real``, whose ``except`` turns them into a
``ValidationError`` naming the argument.  The behaviour itself is swept in
``tests/test_entry_points.py``.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "socicnn"
UNTYPED = ("ValueError", "TypeError")


def untyped_raises(sources):
    """Every ``raise ValueError``/``raise TypeError`` in ``sources``, a ``{file
    name: text}`` map, outside ``_real``'s ``try``, as ``(file, innermost
    function, exception)``."""
    found = []
    for name, text in sources.items():

        def visit(node, where, converting):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Try) and where == "_real":
                for child in node.body:
                    visit(child, where, True)
                for child in node.handlers + node.orelse + node.finalbody:
                    visit(child, where, converting)
                return
            if isinstance(node, ast.Raise) and node.exc is not None and not converting:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name) and exc.id in UNTYPED:
                    found.append((name, where, exc.id))
            for child in ast.iter_child_nodes(node):
                visit(child, where, converting)

        visit(ast.parse(text), None, False)
    return found


def test_no_untyped_refusal_in_the_package():
    """Until every refusal was typed, the number and config checks, the
    solver's method, ``InferenceConfig``'s ``shrink`` and ``armijo``,
    ``Exp2Config``'s ``radii`` and the FD oracles' shape and unit checks
    raised a plain ``ValueError``, so the CLI had to catch one."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert untyped_raises(sources) == []


def test_the_gate_sees_an_untyped_raise():
    """The gate flags ``_evaluate``'s old shape check, a bare ``raise
    TypeError`` and one in a ``try`` of another function, and passes
    ``_real``'s converting ``try``."""
    by_hand = '''
def _evaluate(fn, points, shape, what):
    out = np.asarray(fn(points), dtype=np.float64)
    if out.shape != shape:
        raise ValueError(f"{what} returned shape {out.shape}")
    return out

def other(value):
    try:
        raise TypeError
    except OverflowError:
        pass

def _real(value, name):
    try:
        raise TypeError("a boolean is not a number")
    except (TypeError, ValueError) as exc:
        raise ValidationError("invalid-descriptor", f"{name} is not numeric: {exc}") from exc
'''
    assert untyped_raises({"oracle.py": by_hand}) == [
        ("oracle.py", "_evaluate", "ValueError"), ("oracle.py", "other", "TypeError")]
