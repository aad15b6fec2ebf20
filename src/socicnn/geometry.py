"""First-order geometry: gradients, subdifferentials, directional derivatives.

Away from every kink the model is differentiable and the canonical branch
readout is the gradient.  On a kink the subdifferential is the convex hull
of the optimal-branch readouts, and the one-sided directional derivative is
their support function.  Both facts are computable exactly here: the optimal
set factorizes into a ReLU box times conic balls, and one sweep of the
one-sided chain rule picks, along each direction, the element of that set
whose readout has the largest slope (``dual.argmax_branch``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import dual
from .errors import NonFiniteError, ValidationError
from .model import DEFAULT_TAU, SocIcnnParams, _points, _require_nondegenerate, forward

# Doubles per block of ``_support_maxima``'s direction-readout products: at exp3's
# defaults, 16 directions x 5000 branches were the fastest of 2-128 (3.0 ms against
# 12.4 ms unblocked, 2-vCPU Xeon VM).
SUPPORT_BLOCK = 80_000


@dataclass(frozen=True)
class DirectionalDerivativeResult:
    """One-sided derivative of the model along a ray, or along each of a stack.

    ``direction`` is the unit vector (or ``(m, d)`` stack of them) actually
    evaluated; ``dual_max`` is the support-function route, ``primal`` the
    one-sided chain rule route, and ``canonical_value`` the (possibly
    strictly smaller) slope of the minimum-norm branch.  All three scale with
    the norm of the direction as passed in, and are floats for one direction
    and ``(m,)`` arrays for a stack.  ``argmax`` holds the optimal branches
    whose slopes ``dual_max`` reads: ``dual.argmax_branch``'s rows, one
    branch for one direction and a stack for a stack.
    """

    direction: np.ndarray
    dual_max: float | np.ndarray
    primal: float | np.ndarray
    canonical_value: float | np.ndarray
    argmax: dual.DualBranch


def gradient(params: SocIcnnParams, x, tol: float = DEFAULT_TAU) -> np.ndarray:
    """Gradient at a nondegenerate point, via the canonical branch readout."""
    trace = forward(params, x)
    _require_nondegenerate(trace, tol, "gradient")
    return dual.readout(params, dual.canonical(params, trace, tol))


def _support_maxima(units, readouts) -> np.ndarray:
    """``max_i u_j . r_i`` over the rows ``r_i`` of ``readouts`` for each row ``u_j`` of
    ``units``, in blocks of directions of at most ``SUPPORT_BLOCK`` products (one
    direction at the least), against one C-ordered copy of ``readouts.T``."""
    by_coord = np.ascontiguousarray(readouts.T)
    best = np.empty(len(units))
    step = max(1, SUPPORT_BLOCK // len(readouts))
    for start in range(0, len(units), step):
        blk = slice(start, start + step)
        np.max(units[blk] @ by_coord, axis=1, out=best[blk])
    return best


class _SupportEvaluator:
    """Support function of the optimal set at one point's ``trace``.  A call on
    an ``(m, d)`` array of unit directions sweeps it once and returns, row by
    row, the one-sided slope, the maximizing optimal branch
    (``dual._maximizing``) and that branch's slope ``u . readout``, its
    readouts taken one matrix product per multiplier group for the whole
    stack: the support function, with no enumeration."""

    def __init__(self, params: SocIcnnParams, trace, canon: dual.DualBranch, tol: float):
        self.params, self.trace, self.canon, self.tol = params, trace, canon, tol

    def __call__(self, units):
        p = self.params
        primal, stack = dual._maximizing(p, self.trace, units, self.tol, self.canon)
        groups = zip(p.W + p.B + p.A, stack.relu + stack.quad + stack.cone)
        return primal, stack, np.vecdot(p.v + sum(vec @ M for M, vec in groups), units)


def directional_derivative(
    params: SocIcnnParams,
    x,
    direction,
    tol: float = DEFAULT_TAU,
) -> DirectionalDerivativeResult:
    """Exact one-sided derivative along ``direction``, by two routes.

    ``direction`` is one vector of shape ``(d,)`` or a stack of shape
    ``(m, d)``.  A stack shares one trace, kink report, sweep and canonical
    readout, and its result fields are ``(m,)`` arrays; a single
    vector is evaluated as a stack of one and gives floats.  Each direction
    is normalized internally and its fields are rescaled by its norm, so the
    result is positively homogeneous in the argument.  ``direction`` and
    ``x`` are checked by ``model._points``; a direction too long for its
    norm to be finite raises ``NonFiniteError``, and a zero one
    ``ValidationError``.  ``primal`` and ``dual_max`` come from one sweep, whose
    sign pattern picks ``dual.argmax_branch``'s rows: no enumeration, no cap.
    """
    direction = _points(direction, params.input_dim, "direction")
    rows = np.atleast_2d(direction)
    # Rows below 2**-500 are scaled by an exact power of two lest their squares underflow.
    # The maxima run over a C-ordered transpose: one pass per coordinate, not a loop per row.
    _, shift = np.frexp(np.max(np.ascontiguousarray(np.abs(rows).T), axis=0))
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
    primal, stack, dual_max = _SupportEvaluator(params, trace, canon, tol)(units)
    fields = (scale * dual_max, scale * primal, scale * (units @ dual.readout(params, canon)))
    if direction.ndim == 2:
        return DirectionalDerivativeResult(units, *fields, stack)
    row = dual.DualBranch(*(tuple(a[0] for a in g) for g in (stack.relu, stack.quad, stack.cone)))
    return DirectionalDerivativeResult(units[0], *(float(f[0]) for f in fields), row)
