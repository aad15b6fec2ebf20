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
from .model import DEFAULT_TAU, DegeneracyReport, SocIcnnParams, _kinks, _points
from .model import _require_nondegenerate, degeneracy_report, forward


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
    """Exact one-sided chain rule along each row of ``units``, in forward mode
    over the trace's pattern: ReLU kinks pass the positive part of their
    incoming slope, cone tips contribute the full residual speed, smooth
    parts differentiate as usual.  ``(m,)`` at a point, ``(n, m)`` at a
    stacked trace, each row bitwise its point's.  Off every kink, the sweep
    along ``np.eye(d)`` is the gradient: the primal route of every check."""
    above, below, tips = _kinks(trace, tol)
    dZ = np.zeros(np.shape(trace.value) + (0, units.shape[0]))
    for up, down, W, U in zip(above, below, params.W, params.U):
        # Layout (..., width, m): at exp1's widths an 8-point block's ``U @ dZ`` took
        # 28 us, ``dZ @ U.T`` in the transposed layout 48 us (2-vCPU Xeon, NumPy 2.4.6).
        dZ = U @ dZ
        dZ += W @ units.T
        # Clamp per unit: above the kink the slope passes, below it 0, on it its positive part.
        np.maximum(dZ, np.where(up, -np.inf, 0.0)[..., None], out=dZ)
        np.minimum(dZ, np.where(down, 0.0, np.inf)[..., None], out=dZ)
    total = units @ params.v + params.c @ dZ
    for al, B, qh in zip(params.alpha, params.B, trace.q):
        total += al * np.matvec(units @ B.T, qh)
    for lg, A, ug, un, tip in zip(params.lam, params.A, trace.u, trace.u_norms, tips):
        Ad = units @ A.T
        tip = np.reshape(tip, np.shape(tip) + (1,))
        # A tip row divides by ``un + 1``, not by zero, and takes the norm term.
        off_tip = lg * np.matvec(Ad, ug) / (np.reshape(un, tip.shape) + tip)
        total += np.where(tip, lg * np.linalg.norm(Ad, axis=1), off_tip)
    return total


def _support_maxima(units, readouts) -> np.ndarray:
    """``max_i u_j . r_i`` over the rows ``r_i`` of ``readouts`` for each row ``u_j`` of
    ``units``, in blocks of directions of at most ``dual.SUPPORT_BLOCK`` products (one
    direction at the least), against one C-ordered copy of ``readouts.T``."""
    by_coord = np.ascontiguousarray(readouts.T)
    best = np.empty(len(units))
    step = max(1, dual.SUPPORT_BLOCK // len(readouts))
    for start in range(0, len(units), step):
        blk = slice(start, start + step)
        np.max(units[blk] @ by_coord, axis=1, out=best[blk])
    return best


class _SupportEvaluator:
    """Support function of the optimal set at a point, from its kink
    ``report`` and its ``canon``ical branch.

    ``corner_readouts`` holds the ``dual.readout`` of every ReLU corner of the
    box, each with the canonical quadratic and conic multipliers, in one array
    filled by a stacked readout per block of ``dual.relu_corner_assignments``.
    A call maximizes those rows against each row of an ``(m, d)`` array of unit
    directions and adds ``lam_g * ||A_g @ unit||`` for each cone tip of the
    report, the maximum of ``r . A_g @ unit`` over the ball ``||r|| <= lam_g``.
    The optimal set is a product of the corner box and the balls: the sum is
    its exact support function.
    """

    def __init__(self, params: SocIcnnParams, report: DegeneracyReport, canon: dual.DualBranch):
        self.tips = [(params.lam[g], params.A[g]) for g in report.conic_zero_modules]
        # Block by block, only d-wide rows stay alive: one stack of every corner would
        # hold 2**16 x sum(widths) doubles at the corner cap (134 MB at exp1's widths).
        blocks = dual.relu_corner_assignments(params, report)  # checks the cap, allocates nothing
        self.corner_readouts = np.empty((2 ** len(report.relu_zero_coords), params.input_dim))
        start = 0
        for block in blocks:
            stop = start + len(block[0])
            self.corner_readouts[start:stop] = dual.readout(
                params, dual.DualBranch(block, canon.quad, canon.cone))
            start = stop
            del block  # lest it outlive the build of the next one

    def __call__(self, units) -> np.ndarray:
        best = _support_maxima(units, self.corner_readouts)
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
    result is positively homogeneous in the argument.  ``direction`` and
    ``x`` are checked by ``model._points``; a direction too long for its
    norm to be finite raises ``NonFiniteError``, and a zero one
    ``ValidationError``.  The ReLU corner enumeration behind the dual route
    raises ``TooManyDegeneraciesError`` beyond ``dual.MAX_FREE_COORDS``
    interval coordinates.
    """
    direction = _points(direction, params.input_dim, "direction")
    rows = np.atleast_2d(direction)
    # Rows below 2**-500 are scaled by an exact power of two lest their squares underflow.
    _, shift = np.frexp(np.max(np.abs(rows), axis=1))
    shift = np.where(shift <= -500, shift, 0)
    rows = np.ldexp(rows, -shift[:, None])
    with np.errstate(over="ignore"):
        norms = np.linalg.norm(rows, axis=1)
    if not np.isfinite(norms).all():
        raise NonFiniteError("direction is too long for its norm to be finite")
    if np.any(norms == 0.0):
        raise ValidationError("invalid-descriptor", "direction must be nonzero")
    units = rows / norms[:, None]
    scale = np.ldexp(norms, shift)
    trace = forward(params, x)
    canon = dual.canonical(params, trace, tol)
    primal = scale * _one_sided_primal(params, trace, units, tol)
    dual_max = scale * _SupportEvaluator(params, degeneracy_report(trace, tol), canon)(units)
    canon_value = scale * (units @ dual.readout(params, canon))
    if direction.ndim == 1:
        return DirectionalDerivativeResult(
            direction=units[0],
            dual_max=float(dual_max[0]),
            primal=float(primal[0]),
            canonical_value=float(canon_value[0]),
        )
    return DirectionalDerivativeResult(
        direction=units, dual_max=dual_max, primal=primal, canonical_value=canon_value
    )
