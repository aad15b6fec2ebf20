"""The one kink rule: ``model._kinks`` alone compares trace values with the
kink tolerance, and every consumer reads its classification.

The rule's boundary convention is strict on the smooth side: a unit is
above its kink where ``a > tol``, below it where ``a < -tol`` and on it
otherwise, and a conic module is at its tip where ``||u_g|| <= tol``.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

from socicnn import (
    SocIcnnParams,
    argmax_branch,
    branch_signature,
    canonical,
    degeneracy_report,
    directional_derivative,
    forward,
    readout,
    sample_optimal_branches,
)
from socicnn.curvature import curvature_matrix
from socicnn.dual import _one_sided_primal
from socicnn.model import _kinks, _nondegenerate_rows

SRC = Path(__file__).resolve().parent.parent / "src" / "socicnn"


def _is_tol(node) -> bool:
    """``tol``, ``something.tol`` or the negation of either."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        node = node.operand
    return (isinstance(node, ast.Name) and node.id == "tol") or (
        isinstance(node, ast.Attribute) and node.attr == "tol"
    )


def tol_comparisons():
    """Every comparison in the package with ``tol`` or ``-tol`` as an
    operand, as ``(file, innermost function, line)``."""
    found = []
    for path in sorted(SRC.glob("*.py")):

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if isinstance(node, ast.Compare) and any(
                _is_tol(op) for op in [node.left, *node.comparators]
            ):
                found.append((path.name, where, node.lineno))
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_kink_rule_compares_with_the_tolerance():
    """Before the rule, 16 comparisons in ``model``, ``dual``, ``curvature``
    and ``geometry`` each classified kinks on their own."""
    found = tol_comparisons()
    outside = [site for site in found if site[:2] != ("model.py", "_kinks")]
    assert not outside, f"comparisons with tol outside model._kinks: {outside}"
    assert len(found) == 3  # above, below and the cone tips


# A two-input model whose trace at X0 lands exactly on the rule's boundary at
# TOL: in layer 0, unit 0 at +TOL, unit 1 at -TOL, unit 2 above and unit 3
# below; in layer 1, one unit above and one below; conic module 0 has
# ||u|| == TOL, module 1 is far from its tip.  Every number is dyadic, so the
# trace is exact, and TOL is small enough that the branches the rule builds
# still attain the value to the samplers' 1e-10.
TOL = 2.0 ** -40
X0 = np.array([0.25, 0.5])
ON_UNITS = {(0, 0), (0, 1)}


def boundary_params(with_tip_module=True):
    A = [np.eye(2), np.array([[1.0, 0.5], [0.0, 1.0]])]
    d = [np.array([TOL - 0.25, -0.5]), np.array([3.0, 0.0])]
    lam = [0.75, 1.25]
    keep = slice(None) if with_tip_module else slice(1, None)
    W0 = np.array([[4 * TOL, 0.0], [-4 * TOL, 0.0], [1.0, 1.0], [-1.0, -1.0]])
    return SocIcnnParams(
        W=(W0, np.zeros((2, 2))),
        U=(np.zeros((4, 0)), np.full((2, 4), 0.5)),
        b=(np.array([0.0, 0.0, 1.0, -1.0]), np.array([1.0, -3.0])),
        c=np.array([1.0, 0.5]),
        v=np.array([0.125, -0.25]),
        b0=0.5,
        alpha=(1.0,),
        B=(np.eye(2),),
        e=(np.zeros(2),),
        lam=lam[keep],
        A=A[keep],
        d=d[keep],
    )


def test_the_boundary_trace_is_exact():
    tr = forward(boundary_params(), X0)
    assert tr.a[0].tolist() == [TOL, -TOL, 1.75, -1.75]
    assert tr.a[1][0] > 1.0 and tr.a[1][1] < -1.0
    assert tr.u_norms[0] == TOL


def point_and_stacked_row():
    """The trace at ``X0`` alone and as row 1 of a stack."""
    params = boundary_params()
    stack = forward(params, np.vstack([X0 + 0.125, X0, X0 + 0.25]))
    return params, forward(params, X0), stack


def test_the_rule_at_its_boundary():
    _, point, stack = point_and_stacked_row()
    above, below, tips = (list(part) for part in _kinks(point, TOL))
    assert [m.tolist() for m in above] == [[False, False, True, False], [True, False]]
    assert [m.tolist() for m in below] == [[False, False, False, True], [False, True]]
    assert tips == [True, False] and all(type(t) is bool for t in tips)
    s_above, s_below, s_tips = (list(part) for part in _kinks(stack, TOL))
    for got, want in zip(s_above + s_below, above + below):
        assert np.array_equal(got[1], want)
    assert [t[1] for t in s_tips] == tips


def test_every_consumer_agrees_at_the_boundary():
    """A point whose units sit at ``+tol`` and ``-tol`` and whose cone norm is
    ``tol`` is on two ReLU kinks and one cone tip for every consumer, as a
    point and as a row of a stack."""
    params, point, stack = point_and_stacked_row()
    report = degeneracy_report(point, TOL)
    assert set(report.relu_zero_coords) == ON_UNITS
    assert report.conic_zero_modules == (0,)
    assert not report.is_nondegenerate
    assert _nondegenerate_rows(stack, TOL).tolist() == [True, False, True]
    assert not _nondegenerate_rows(point, TOL)
    # Branch signature: above-the-kink bits and off-tip flags.
    bits, flags = branch_signature(point, TOL)
    assert bits == np.packbits([False, False, True, False]).tobytes() + np.packbits(
        [True, False]).tobytes()
    assert flags == (False, True)
    # Canonical branch: bound exactly above the kink, +0.0 cone at the tip.
    canon = canonical(params, point, TOL)
    assert (canon.relu[0] > 0).tolist() == [False, False, True, False]
    assert canon.cone[0].tolist() == [0.0, 0.0] and not np.signbit(canon.cone[0]).any()
    assert np.linalg.norm(canon.cone[1]) == pytest.approx(params.lam[1])
    stacked_canon = canonical(params, stack, TOL)
    for got, want in zip(stacked_canon.relu + stacked_canon.cone, canon.relu + canon.cone):
        assert np.array_equal(got[1], want)
    # Curvature: the tip module adds no term.
    without_tip = curvature_matrix(boundary_params(False), forward(boundary_params(False), X0))
    assert np.array_equal(curvature_matrix(params, point, TOL), without_tip)
    assert np.array_equal(curvature_matrix(params, stack, TOL)[1], without_tip)
    # Support function: the argmax rows leave the canonical branch only at the
    # on units and at the tip module, which takes full-length multipliers.
    units = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0], [0.6, -0.8]])
    argmax = argmax_branch(params, point, units, TOL)
    moved = {(l, i) for l, nu in enumerate(argmax.relu) for i in np.flatnonzero(np.ptp(nu, 0))}
    assert moved == ON_UNITS
    assert np.all(argmax.cone[1] == canon.cone[1])
    assert np.allclose(np.linalg.norm(argmax.cone[0], axis=1), params.lam[0], rtol=1e-15)
    # Sampled branches move exactly the on units and the tip module.
    sample = sample_optimal_branches(params, point, TOL, n=64, seed=5)
    moved = {(l, i) for l, nu in enumerate(sample.relu) for i in np.flatnonzero(np.ptp(nu, 0))}
    assert moved == ON_UNITS
    assert [bool(np.ptp(r, axis=0).any()) for r in sample.cone] == [True, False]
    # One-sided chain rule: the primal route matches the support function.
    primal = _one_sided_primal(params, point, units, TOL)
    assert np.allclose(primal, np.vecdot(readout(params, argmax), units), rtol=0, atol=1e-14)
    assert np.array_equal(_one_sided_primal(params, stack, units, TOL)[1], primal)
    dd = directional_derivative(params, X0, units, TOL)
    assert np.allclose(dd.primal, dd.dual_max, rtol=0, atol=1e-14)


def test_one_step_inside_the_tolerance_is_smooth():
    """At the next float below ``tol`` the same point is off every kink for
    every consumer: the smooth side of the rule is strict."""
    params, point, stack = point_and_stacked_row()
    tol = np.nextafter(TOL, 0.0)
    report = degeneracy_report(point, tol)
    assert report.is_nondegenerate and not report.conic_zero_modules
    assert _nondegenerate_rows(stack, tol)[1]
    assert branch_signature(point, tol)[1] == (True, True)
    assert (canonical(params, point, tol).relu[0] > 0).tolist() == [True, False, True, False]
    assert not np.array_equal(curvature_matrix(params, point, tol), curvature_matrix(
        boundary_params(False), forward(boundary_params(False), X0)))
