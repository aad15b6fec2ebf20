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

# Doubles per block of ``_support_maxima``'s products: 16 directions x 5000 branches
# were the fastest of 2-128 for exp3's unfiltered scan (3.0 ms against 12.4 ms
# unblocked, 2-vCPU Xeon VM).
SUPPORT_BLOCK = 80_000
# ``_hull_candidates``: 12 probes keep 55-217 of exp3's 5000 rows (config seeds 0-99), 0.34 ms
# a call against 2.7 ms unfiltered (8-24 probes 0.36-0.40 ms).  Literal probes and no float
# ``argmax``: a first np.cos and np.sin, or argmax, lift a kink run's peak RSS 0.3 or 0.17 MB.
_R3 = 0.75**0.5
HULL_PROBES = np.array([(1, 0), (_R3, 0.5), (0.5, _R3), (0, 1), (-0.5, _R3), (-_R3, 0.5),
                        (-1, 0), (-_R3, -0.5), (-0.5, -_R3), (0, -1), (0.5, -_R3), (_R3, -0.5)])
HULL_MARGIN = 1e-9


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


def _hull_candidates(readouts) -> np.ndarray:
    """Rows of a planar ``readouts`` not left of every edge of the polygon of its extreme
    rows along ``HULL_PROBES`` by ``HULL_MARGIN * scale**2``: a dropped row has winding
    number at least 1, so with a disc of radius ``HULL_MARGIN * scale / 2**1.5`` it lies
    in the hull, and no unit direction's maximum moves.  A ``scale`` (largest entry size)
    outside ``(1e-100, 1e100)`` (NaN, inf) or under 3 vertices keep every row."""
    scale = max(readouts.max(), -readouts.min())
    if not 1e-100 < scale < 1e100:
        return readouts
    slopes, above = np.empty(len(readouts)), np.empty(len(readouts), dtype=bool)
    ext = np.empty(len(HULL_PROBES), dtype=np.intp)
    for k, probe in enumerate(HULL_PROBES):
        np.matmul(readouts, probe, out=slopes)
        ext[k] = np.flatnonzero(slopes == slopes.max())[0]
    poly = readouts[ext[ext != np.roll(ext, -1)]]
    normals = (np.roll(poly, -1, axis=0) - poly)[:, ::-1] * [-1.0, 1.0]
    floors = np.vecdot(normals, poly) + HULL_MARGIN * scale * scale
    inside = np.full(len(readouts), len(poly) > 2)
    for normal, floor in zip(normals, floors):
        inside &= np.greater(np.matmul(readouts, normal, out=slopes), floor, out=above)
    return readouts[~inside]


def _support_maxima(units, readouts) -> np.ndarray:
    """``max_i u_j . r_i`` over the rows ``r_i`` of ``readouts`` for each row ``u_j`` of
    ``units``, in blocks of directions of at most ``SUPPORT_BLOCK`` products (one
    direction at the least), against one C-ordered copy of ``readouts.T``.  A planar
    set is scanned over its ``_hull_candidates``."""
    if readouts.shape[1] == 2:
        readouts = _hull_candidates(readouts)
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

    ``direction`` is one vector of shape ``(d,)`` or a stack of shape ``(m, d)``.  A stack
    shares one trace, kink report, sweep and canonical readout, and its result fields are
    ``(m,)`` arrays; a single vector is evaluated as a stack of one and gives floats.  Its
    ``dual_max`` rows are bitwise the one-direction calls', its ``primal`` and
    ``canonical_value`` rows not (at exp3 seed 0, 58 and 69 of the first 200 differ, by up
    to 4.4e-16).  Each direction is normalized and its fields are rescaled by its norm, so
    the result is positively homogeneous in the argument.  ``direction`` and ``x`` are
    checked by ``model._points``; a direction too long for its norm to be finite raises
    ``NonFiniteError``, and a zero one ``ValidationError``.  ``primal`` and ``dual_max``
    come from one sweep, whose sign pattern picks ``dual.argmax_branch``'s rows: no
    enumeration, no cap.
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
