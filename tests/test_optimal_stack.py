"""The optimal product set and its one builder, ``dual._optimal_stack``.

At a point the optimal multiplier set is a product: an interval box over the
ReLU coordinates on their kinks (walked by ``dual._box_recursion``), a ball
of radius ``lam_g`` per cone tip, and ``canonical``'s multipliers elsewhere.
The property test checks that claim at ``planted_kinks`` configurations well
beyond the hand-built 2-D kink, and at ball points the sampler never draws
(the sphere itself, and ``0``).  The structural gate keeps every stack of
optimal branches coming out of the one builder, so the sampler and the
argmax rows cannot drift apart: ``conftest.reference_corners`` is the one
other assembly, kept apart on purpose as the independent route.
"""

import ast
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from socicnn import ArchSpec, canonical, degeneracy_report, feasibility_violation, forward
from socicnn.dual import _check_optimal, _optimal_stack

from conftest import planted_kinks

SRC = Path(__file__).resolve().parent.parent / "src" / "socicnn"
WIDTH, LAYERS = 5, 3
OFF_TIP_DIM = 3  # one conic module always stays off its tip
UNIT = st.one_of(st.just(0.0), st.just(1.0), st.floats(0.0, 1.0))


@st.composite
def product_set_points(draw):
    """A ``planted_kinks`` model with 0-4 free ReLU coordinates across its layers and
    0-2 cone tips of dimension 1-5, and rows of its optimal set: box draws in
    ``[0, 1]`` and ball rows ``lam_g * t * v / ||v||`` with ``t`` in ``[0, 1]``.
    The first row draws all ones and puts every tip on its sphere, the second
    draws all zeros and puts every tip at 0."""
    n_free, n_tips = draw(st.integers(0, 4)), draw(st.integers(0, 2))
    coords = draw(st.lists(st.tuples(st.integers(0, LAYERS - 1), st.integers(0, WIDTH - 1)),
                           min_size=n_free, max_size=n_free, unique=True))
    tip_dims = draw(st.lists(st.integers(1, 5), min_size=n_tips, max_size=n_tips))
    arch = ArchSpec(4, (WIDTH,) * LAYERS, quad_dims=(2,), cone_dims=(*tip_dims, OFF_TIP_DIM))
    params, x = planted_kinks(draw(st.integers(0, 2**16)), arch, coords, range(len(tip_dims)))
    rows = draw(st.integers(0, 3))
    draws = np.array([[1.0] * len(coords), [0.0] * len(coords)]
                     + [draw(st.lists(UNIT, min_size=len(coords), max_size=len(coords)))
                        for _ in range(rows)]).reshape(rows + 2, len(coords))
    balls = {}
    for g, dim in enumerate(tip_dims):
        v = np.array([draw(st.lists(st.floats(-1.0, 1.0), min_size=dim, max_size=dim))
                      for _ in range(rows + 2)])
        t = np.array([1.0, 0.0] + [draw(UNIT) for _ in range(rows)])
        norm = np.linalg.norm(v, axis=1)
        v[norm == 0.0, 0] = norm[norm == 0.0] = 1.0
        balls[g] = (params.lam[g] * t / norm)[:, None] * v
    return params, x, coords, draws, balls


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(product_set_points())
def test_every_point_of_the_product_set_is_optimal(case):
    """Rows from the box and the balls are feasible to 1e-12 and attain the
    model value; one draw of 1.01 at a coordinate with a positive bound, or
    one ball row at ``1.01 lam_g``, makes its row infeasible."""
    params, x, coords, draws, balls = case
    trace = forward(params, x)
    report = degeneracy_report(trace)
    assert sorted(report.relu_zero_coords) == sorted(coords)
    assert report.conic_zero_modules == tuple(balls)
    canon = canonical(params, trace)
    stack = _optimal_stack(params, report, canon, draws, balls)
    assert np.all(feasibility_violation(params, stack) <= 1e-12)
    _check_optimal(params, trace, stack)

    def row0_violation(draws, balls):
        return feasibility_violation(params, _optimal_stack(params, report, canon, draws, balls))[0]

    # Row 0 draws all ones: every free coordinate sits at its bound, and the
    # bound of one that is positive there takes a 1.01 draw.
    bounds = [stack.relu[l][0, i] for l, i in sorted(coords, key=lambda li: (-li[0], li[1]))]
    for j in np.flatnonzero(np.array(bounds) > 0.0)[:1]:
        over = draws.copy()
        over[0, j] = 1.01
        assert row0_violation(over, balls) > 0
    # Row 0 puts every tip on its sphere.
    for g in balls:
        assert row0_violation(draws, {**balls, g: np.vstack([1.01 * balls[g][:1], balls[g][1:]])}) > 0


def box_draw_sites(sources):
    """Every call of ``_box_recursion`` with draws (a fourth argument or a
    ``draws`` keyword) in ``sources``, a ``{file name: text}`` map, as ``(file,
    innermost function)``."""
    found = []
    for name, text in sources.items():

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Call):
                func = node.func
                called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if called == "_box_recursion" and (
                    len(node.args) > 3 or any(k.arg == "draws" for k in node.keywords)
                ):
                    found.append((name, where))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(text), None)
    return found


def test_only_the_builder_walks_the_box_with_draws():
    """Before the builder, ``sample_optimal_branches`` and ``_maximizing``
    each assembled their stacks by hand."""
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    assert box_draw_sites(sources) == [("dual.py", "_optimal_stack")]


def test_the_gate_sees_a_stack_assembled_by_hand():
    """The gate flags the hand assembly ``_maximizing`` once held."""
    by_hand = '''
def _maximizing(params, trace, units, tol, canon):
    report = degeneracy_report(trace, tol)
    slopes, draws = _one_sided_primal(params, trace, units, tol, report.free)
    relu = _box_recursion(params, report.upper, report.free, draws)
    return slopes, DualBranch(relu, canon.quad, canon.cone)
'''
    assert box_draw_sites({"dual.py": by_hand}) == [("dual.py", "_maximizing")]
