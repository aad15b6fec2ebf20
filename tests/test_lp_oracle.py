"""An independent route to the support function beyond the reach of corner
enumeration: a linear program over the optimal ReLU face, solved by SciPy's
HiGHS.

``primal`` and ``dual_max`` come from one sweep, and ``reference_corners``
enumerates 2**n corners, so above 16 free coordinates only this oracle checks
them.  It uses no sweep, no ``_box_recursion`` and no enumeration: it writes
out complementary slackness per unit and lets the LP maximize the ReLU part
of the slope, then adds the smooth slopes and the cone tips' ball terms in
closed form.  SciPy is a test dependency only; ``test_scipy_never_loads``
keeps it out of the package.
"""

import numpy as np
import pytest
from scipy.optimize import linprog

from socicnn import ArchSpec, argmax_branch, degeneracy_report, directional_derivative, forward
from socicnn import readout
from socicnn.model import DEFAULT_TAU

from conftest import gaussian_points, planted_kinks


def relu_face(params, trace, tol=DEFAULT_TAU):
    """The optimal ReLU face at one point's trace, as LP constraints on the
    stacked multipliers ``nu`` (layer 0 first).  Unit ``i`` of layer ``l`` has
    the bound ``c_i`` on the top layer and ``(U_{l+1}.T nu_{l+1})_i`` below it,
    and complementary slackness with its preactivation ``a``: ``nu_i`` equals
    the bound where ``a > tol``, is 0 where ``a < -tol``, and lies in
    ``[0, bound]`` otherwise.  Returns ``linprog``'s keyword arguments."""
    widths = params.widths
    start = np.concatenate([[0], np.cumsum(widths)])
    rows, rhs = [], []
    for l, a in enumerate(trace.a):
        block = np.zeros((widths[l], start[-1]))
        block[:, start[l]:start[l + 1]] = np.eye(widths[l])
        if l + 1 < len(widths):
            block[:, start[l + 1]:start[l + 2]] = -params.U[l + 1].T
            bound = np.zeros(widths[l])
        else:
            bound = params.c
        rows.append((block, bound, a > tol, np.abs(a) <= tol))
    eq = [(M[on], h[on]) for M, h, on, _ in rows]
    ub = [(M[free], h[free]) for M, h, _, free in rows]
    below = np.concatenate([a < -tol for a in trace.a])
    return dict(
        A_eq=np.vstack([M for M, _ in eq]), b_eq=np.concatenate([h for _, h in eq]),
        A_ub=np.vstack([M for M, _ in ub]), b_ub=np.concatenate([h for _, h in ub]),
        bounds=[(0.0, 0.0) if b else (0.0, None) for b in below],
    )


def lp_support(params, trace, unit, face, tol=DEFAULT_TAU):
    """Support function along ``unit``: the LP's largest ``sum_l <W_l u, nu_l>``
    over the face, plus ``v . u``, each quadratic module's ``alpha_h q_h . B_h u``
    and each conic module's ``lam_g u_g . A_g u / ||u_g||``, or
    ``lam_g ||A_g u||`` at its tip."""
    cost = -np.concatenate([W @ unit for W in params.W])
    res = linprog(cost, method="highs", **face)
    assert res.status == 0, res.message
    smooth = params.v @ unit
    for al, B, qh in zip(params.alpha, params.B, trace.q):
        smooth += al * qh @ (B @ unit)
    for lg, A, ug, un in zip(params.lam, params.A, trace.u, trace.u_norms):
        Au = A @ unit
        smooth += lg * np.linalg.norm(Au) if un <= tol else lg * ug @ Au / un
    return -res.fun + smooth


CASES = {
    24: (ArchSpec(6, (24, 24, 24), (3,), (4,)), 3),
    64: (ArchSpec(20, (64,) * 4, (20, 20), (20, 20)), 4),
}


@pytest.mark.parametrize("n_free", sorted(CASES))
def test_lp_agrees_with_argmax_and_primal(n_free):
    """At 24 and 64 planted free coordinates (and one cone tip), over 20
    directions, the LP oracle, the argmax rows' slopes and ``primal`` agree
    within 1e-12 relative."""
    arch, step = CASES[n_free]
    coords = tuple((l, i) for l in range(len(arch.widths)) for i in range(0, arch.widths[l], step))
    params, x = planted_kinks(5, arch, coords, tips=(0,))
    trace = forward(params, x)
    report = degeneracy_report(trace)
    assert report.relu_zero_coords == coords and len(coords) == n_free
    assert report.conic_zero_modules == (0,)
    units = gaussian_points(400 + n_free, 20, params.input_dim)
    units /= np.linalg.norm(units, axis=1)[:, None]
    face = relu_face(params, trace)
    lp = np.array([lp_support(params, trace, u, face) for u in units])
    argmax = np.vecdot(readout(params, argmax_branch(params, trace, units)), units)
    res = directional_derivative(params, x, units)
    for route in (argmax, res.primal, res.dual_max):
        assert np.all(np.abs(route - lp) <= 1e-12 * np.abs(lp))
