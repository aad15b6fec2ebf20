"""Second-order structure on a fixed activation branch.

With the ReLU pattern frozen, the backbone is affine in ``x``, so all the
curvature lives in the quadratic and conic modules: the Hessian is
``sum_h alpha_h B_h.T B_h`` plus, for each conic module with a nonzero
residual, ``(lam_g / ||u_g||) * A_g.T (I - uhat uhat^T) A_g``.  No backbone
weight appears, and every term is positive semidefinite by construction.
The projector term is assembled as ``S.T @ S`` with ``S = P @ A`` so the
result is symmetric to the bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .model import DEFAULT_TAU, ForwardTrace, SocIcnnParams, _check_number, _check_trace
from .model import _gaussian_nonzero, _kinks, _nondegenerate_rows, _points, _require_nondegenerate
from .model import forward


@dataclass(frozen=True, eq=False)
class CurvatureModel:
    """Local quadratic model at an anchor point, exact up to third-order conic
    terms while the perturbed point keeps the anchor's activation branch.
    """

    anchor: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    min_eigenvalue: float

    def predict(self, x) -> float | np.ndarray:
        """Value of the quadratic model at ``x`` given the anchor value is
        added by the caller: returns the first- plus second-order part.  A
        stack of points gives an ``(n,)`` array, row by row bitwise."""
        delta = _points(x, self.anchor.size, "x") - self.anchor
        pred = np.vecdot(self.grad, delta) + 0.5 * np.vecdot(delta, np.matvec(self.hess, delta))
        return float(pred) if delta.ndim == 1 else pred


def curvature_matrix(
    params: SocIcnnParams, trace: ForwardTrace, tol: float = DEFAULT_TAU
) -> np.ndarray:
    """Branch Hessian at this trace: ``(d, d)`` at a point, ``(n, d, d)`` at a
    stacked trace, each matrix bitwise its own point's.  A module at its cone
    tip adds no term (its ``dual._cone_scales`` is 0.0); ``hessian`` raises on a kink."""
    _check_trace(params, trace)
    tips = _kinks(trace, tol)[2]
    H = np.tile(params.quad_hessian, np.shape(trace.value) + (1, 1))
    for s, A, u, un, t in zip(dual._cone_scales(params, trace, tips), params.A, trace.u,
                              trace.u_norms, tips):
        # A tip row divides by ``un + 1``, not by zero, so its dropped term is finite.
        uhat = (u.T / (un + t)).T
        S = A - uhat[..., :, None] * np.matvec(A.T, uhat)[..., None, :]
        H += (s * (np.swapaxes(S, -1, -2) @ S).T).T
    return H


def hessian(params: SocIcnnParams, x, tol: float = DEFAULT_TAU) -> CurvatureModel:
    """Closed-form local model at a nondegenerate point.

    The gradient is the canonical readout; the Hessian is the module
    curvature sum above, symmetric to the bit by construction, and
    ``min_eigenvalue`` comes from the symmetric eigensolver.
    """
    return _trace_hessian(params, forward(params, x), tol)


def _trace_hessian(params: SocIcnnParams, trace: ForwardTrace, tol: float) -> CurvatureModel:
    _require_nondegenerate(trace, tol, "Hessian")
    H = curvature_matrix(params, trace, tol)
    grad = dual.readout(params, dual.canonical(params, trace, tol))
    return CurvatureModel(
        anchor=trace.x,
        grad=grad,
        hess=H,
        min_eigenvalue=float(np.linalg.eigvalsh(H)[0]),
    )


# Trials per stacked trace in quadratic_model_residual: one trace of exp2's
# 500 trials (about 1 MB) raised the peak memory of a run; 128 do not.
RESIDUAL_BLOCK = 128


def quadratic_model_residual(
    params: SocIcnnParams,
    anchor,
    radius: float,
    trials: int = 500,
    tol: float = DEFAULT_TAU,
    seed: int = 0,
):
    """Accuracy of the local quadratic model on a sphere around the anchor.

    Draws ``trials`` uniformly random directions, steps ``radius`` along
    each, keeps the points that are nondegenerate and above the same ReLU
    kinks as the anchor (``model._kinks``), and measures
    ``|f(x) - f(anchor) - model|`` there.  Returns ``(retained_rate, mean_abs_residual)``; the mean is NaN
    when nothing is retained.  The directions are one seeded block draw
    (``model._gaussian_nonzero``), the trials are traced as stacks of
    ``RESIDUAL_BLOCK``, and the residuals are summed in trial order, so the
    result is bitwise that of tracing each trial on its own.
    """
    _check_number(radius, "radius", positive=True)
    _check_number(trials, "trials", positive=True, count=True)
    _check_number(seed, "seed", count=True)
    anchor_trace = forward(params, anchor)
    cm = _trace_hessian(params, anchor_trace, tol)
    rng = np.random.default_rng(seed)
    steps, nrms = _gaussian_nonzero(rng, anchor_trace.x.size, trials)
    X = anchor_trace.x + (radius / nrms)[:, None] * steps
    residuals = []
    for start in range(0, trials, RESIDUAL_BLOCK):
        block = X[start:start + RESIDUAL_BLOCK]
        trace = forward(params, block)
        kept = _nondegenerate_rows(trace, tol)
        for up, up0 in zip(_kinks(trace, tol)[0], _kinks(anchor_trace, tol)[0]):
            kept &= np.all(up == up0, axis=1)
        residuals.append(np.abs(trace.value[kept] - anchor_trace.value - cm.predict(block)[kept]))
    residuals = np.concatenate(residuals)
    rate = residuals.size / trials
    mean = np.add.accumulate(residuals)[-1] / residuals.size if residuals.size else float("nan")
    return rate, mean
