"""First-order geometry: gradients, subdifferentials, directional derivatives.

Away from every kink the model is differentiable and the canonical branch
readout is the gradient.  On a kink the subdifferential is the convex hull
of the optimal-branch readouts, and the one-sided directional derivative is
their support function.  Both facts are computable exactly here: the optimal
set factorizes into a ReLU corner box times conic balls, so the support
function splits into a finite corner maximum plus closed-form ball terms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .errors import NonFiniteError, ValidationError
from .model import DEFAULT_TAU, DegeneracyReport, SocIcnnParams, _require_nondegenerate
from .model import degeneracy_report, forward


@dataclass(frozen=True)
class DirectionalDerivativeResult:
    """One-sided derivative of the model along a ray, or along each of a stack.

    ``direction`` is the unit vector (or ``(m, d)`` stack of them) actually
    evaluated; ``dual_max`` is the support-function route, ``primal`` the
    one-sided chain rule route, and ``canonical_value`` the (possibly
    strictly smaller) slope of the minimum-norm branch.  All three scale with
    the norm of the direction as passed in, and are floats for one direction
    and ``(m,)`` arrays for a stack.
    """

    direction: np.ndarray
    dual_max: float | np.ndarray
    primal: float | np.ndarray
    canonical_value: float | np.ndarray


def gradient(params: SocIcnnParams, x, tol: float = DEFAULT_TAU) -> np.ndarray:
    """Gradient at a nondegenerate point, via the canonical branch readout."""
    trace = forward(params, x)
    _require_nondegenerate(trace, tol, "gradient")
    return dual.readout(params, dual.canonical(params, trace, tol))


def _one_sided_primal(params: SocIcnnParams, trace, units, tol: float) -> np.ndarray:
    """Exact one-sided chain rule along each row of ``units``: ReLU kinks pass
    the positive part of their incoming slope, cone tips contribute the full
    residual speed, smooth parts differentiate as usual."""
    dZ = np.zeros((units.shape[0], 0))
    for a, W, U in zip(trace.a, params.W, params.U):
        dA = units @ W.T + dZ @ U.T
        dZ = np.where(a > tol, dA, np.where(a < -tol, 0.0, np.maximum(dA, 0.0)))
    total = units @ params.v + dZ @ params.c
    for al, B, qh in zip(params.alpha, params.B, trace.q):
        total += al * ((units @ B.T) @ qh)
    for lg, A, ug, un in zip(params.lam, params.A, trace.u, trace.u_norms):
        Ad = units @ A.T
        if un > tol:
            total += lg * (Ad @ ug) / un
        else:
            total += lg * np.linalg.norm(Ad, axis=1)
    return total


class _SupportEvaluator:
    """Support function of the optimal set at a fixed trace.

    Precomputes the readout of every ReLU corner with the smooth module
    slopes folded in; a call maximizes those rows against each row of an
    ``(m, d)`` array of unit directions and adds ``lam_g * ||A_g @ unit||``
    for each cone-tip module, the maximum of ``r . A_g @ unit`` over the
    ball ``||r|| <= lam_g``.  The optimal set is a product of the corner box
    and the balls, so the sum is its exact support function.
    """

    def __init__(self, params: SocIcnnParams, trace, report: DegeneracyReport, tol: float):
        smooth = params.v.copy()
        dual._add_smooth_slope(smooth, params, trace, tol)
        self.tips = [(params.lam[g], params.A[g]) for g in report.conic_zero_modules]
        rows = []
        for relu in dual.relu_corner_assignments(params, report):
            row = smooth.copy()
            for W, nu in zip(params.W, relu):
                row += W.T @ nu
            rows.append(row)
        self.corner_readouts = np.vstack(rows)

    def __call__(self, units) -> np.ndarray:
        best = np.max(units @ self.corner_readouts.T, axis=1)
        for lg, A in self.tips:
            best += lg * np.linalg.norm(units @ A.T, axis=1)
        return best


def directional_derivative(
    params: SocIcnnParams,
    x,
    direction,
    tol: float = DEFAULT_TAU,
) -> DirectionalDerivativeResult:
    """Exact one-sided derivative along ``direction``, by two routes.

    ``direction`` is one vector of shape ``(d,)`` or a stack of shape
    ``(m, d)``.  A stack shares one trace, kink report, support evaluator and
    canonical readout, and its result fields are ``(m,)`` arrays; a single
    vector is evaluated as a stack of one and gives floats.  Each direction
    is normalized internally and its fields are rescaled by its norm, so the
    result is positively homogeneous in the argument.  A NaN or infinite
    direction, or one too long for its norm to be finite, raises
    ``NonFiniteError``; a zero direction or a wrong shape raises
    ``ValidationError``.  The ReLU corner enumeration behind the dual route
    raises ``TooManyDegeneraciesError`` beyond ``dual.MAX_FREE_COORDS``
    interval coordinates.
    """
    direction = np.asarray(direction, dtype=np.float64)
    if direction.ndim not in (1, 2) or direction.shape[-1] != params.input_dim:
        raise ValidationError(
            "dimension-mismatch",
            f"direction has shape {direction.shape}, expected ({params.input_dim},) "
            f"or (m, {params.input_dim})",
        )
    rows = np.atleast_2d(direction)
    # Rows below 2**-500 are scaled by an exact power of two lest their squares underflow.
    _, shift = np.frexp(np.max(np.abs(rows), axis=1))
    shift = np.where(shift <= -500, shift, 0)
    rows = np.ldexp(rows, -shift[:, None])
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    if not np.isfinite(norms).all():
        raise NonFiniteError("direction is NaN, infinite or too long for its norm to be finite")
    if np.any(norms == 0.0):
        raise ValidationError("invalid-descriptor", "direction must be nonzero")
    units = rows / norms[:, None]
    scale = np.ldexp(norms, shift)
    trace = forward(params, x)
    report = degeneracy_report(trace, tol)
    primal = scale * _one_sided_primal(params, trace, units, tol)
    dual_max = scale * _SupportEvaluator(params, trace, report, tol)(units)
    canon = scale * (units @ dual.readout(params, dual.canonical(params, trace, tol)))
    if direction.ndim == 1:
        return DirectionalDerivativeResult(
            direction=units[0],
            dual_max=float(dual_max[0]),
            primal=float(primal[0]),
            canonical_value=float(canon[0]),
        )
    return DirectionalDerivativeResult(
        direction=units, dual_max=dual_max, primal=primal, canonical_value=canon
    )
