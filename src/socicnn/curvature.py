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
from .errors import DegenerateInputError
from .model import DEFAULT_TAU, ForwardTrace, SocIcnnParams, _dot, _gaussian_nonzero, _matvec
from .model import _check_tol, _nondegenerate_rows, _per_row, _require_nondegenerate, forward


@dataclass(frozen=True, eq=False)
class CurvatureModel:
    """Local quadratic model at an anchor point.

    ``signature`` identifies the activation branch; the model is exact up to
    third-order conic terms while the perturbed point keeps that signature.
    """

    anchor: np.ndarray
    grad: np.ndarray
    hess: np.ndarray
    signature: tuple
    min_eigenvalue: float

    def predict(self, x) -> float | np.ndarray:
        """Value of the quadratic model at ``x`` given the anchor value is
        added by the caller: returns the first- plus second-order part.  A
        stack of points gives an ``(n,)`` array, row by row bitwise."""
        delta = np.asarray(x, dtype=np.float64) - self.anchor
        pred = _dot(self.grad, delta) + 0.5 * _dot(delta, _matvec(self.hess, delta))
        return float(pred) if delta.ndim == 1 else pred


def branch_signature(trace: ForwardTrace, tol: float = DEFAULT_TAU) -> tuple:
    """Hashable identifier of the activation branch at this trace: packed
    strict-positivity bits per layer plus a nonzero flag per conic module."""
    _check_tol(tol)
    relu_bits = b"".join(np.packbits(a > tol).tobytes() for a in trace.a)
    cone_flags = tuple(un > tol for un in trace.u_norms)
    return (relu_bits, cone_flags)


def curvature_matrix(
    params: SocIcnnParams,
    trace: ForwardTrace,
    tol: float = DEFAULT_TAU,
    skip_tip_modules: bool = False,
) -> np.ndarray:
    """Branch Hessian of the model at this trace.

    At a cone tip the conic term is undefined; ``skip_tip_modules`` drops
    such modules (the second-order solver's fallback) instead of raising.
    """
    _check_tol(tol)
    H = params.quad_hessian.copy()
    for lg, A, ug, un in zip(params.lam, params.A, trace.u, trace.u_norms):
        if un <= tol:
            if skip_tip_modules:
                continue
            raise DegenerateInputError("conic residual at the cone tip; Hessian undefined")
        uhat = ug / un
        S = A - np.outer(uhat, uhat @ A)
        H += (lg / un) * (S.T @ S)
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
        signature=branch_signature(trace, tol),
        min_eigenvalue=float(np.linalg.eigvalsh(H)[0]),
    )


def _affine_constants(params: SocIcnnParams, trace: ForwardTrace, tol: float):
    """Slope and offset of the frozen-pattern backbone readout at a trace.

    Composes the per-layer affine maps under the activation masks of the
    trace and returns ``(slope, offset)`` with ``slope = v + M_L.T @ c`` and
    ``offset = b0 + c @ m_L``: an independent route to the backbone part of
    the gradient, which agrees with the canonical readout to rounding.  A
    stacked trace gives ``(n, d)`` slopes and ``(n,)`` offsets, each row
    bitwise its own point's.
    """
    lead = np.shape(trace.value)
    M = np.zeros(lead + (0, params.input_dim))
    m = np.zeros(lead + (0,))
    for a, W, U, b in zip(trace.a, params.W, params.U, params.b):
        mask = (a > tol).astype(np.float64)
        M = mask[..., None] * (W + U @ M)
        m = mask * (_matvec(U, m) + b)
    slope = params.v + np.swapaxes(M, -1, -2) @ params.c
    offset = params.b0 + _per_row(_dot(params.c, m))
    return slope, offset


def _trace_gradient(params: SocIcnnParams, trace: ForwardTrace, tol: float) -> np.ndarray:
    """Gradient assembled from the affine-composition route plus the smooth
    module slopes, an arithmetic path independent of the multiplier readout;
    ``(n, d)`` rows at a stacked trace."""
    g, _ = _affine_constants(params, trace, tol)
    dual._add_smooth_slope(g, params, trace, tol)
    return g


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
    each, keeps the points whose branch signature matches the anchor's (and
    that are nondegenerate), and measures ``|f(x) - f(anchor) - model|``
    there.  Returns ``(retained_rate, mean_abs_residual)``; the mean is NaN
    when nothing is retained.  The directions are one block draw, bitwise
    the seeded stream drawn one direction at a time, the trials are traced
    as stacks of ``RESIDUAL_BLOCK``, and the residuals are summed in trial
    order, so the result is bitwise that of tracing each trial on its own.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if trials <= 0:
        raise ValueError("trials must be positive")
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
        for a, a0 in zip(trace.a, anchor_trace.a):
            kept &= np.all((a > tol) == (a0 > tol), axis=1)
        residuals.append(np.abs(trace.value[kept] - anchor_trace.value - cm.predict(block[kept])))
    residuals = np.concatenate(residuals)
    rate = residuals.size / trials
    mean = np.add.accumulate(residuals)[-1] / residuals.size if residuals.size else float("nan")
    return rate, mean
