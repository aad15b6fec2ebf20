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
from .model import DEFAULT_TAU, SocIcnnParams, _gaussian_nonzero, _require_nondegenerate, forward


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


def subdifferential_sample(
    params: SocIcnnParams,
    x,
    tol: float = DEFAULT_TAU,
    n: int = 64,
    seed: int = 0,
    sphere_samples: int = 64,
) -> np.ndarray:
    """Subgradients read out from sampled plus extreme optimal branches.

    Returns an ``(n + n_extreme, d)`` array: the ``n`` sampled readouts, then
    those of the extreme branches, each read out with one stacked product.
    At a nondegenerate point every row equals the gradient.  The extreme
    branches pin the hull's corners (up to the conic sphere fan); the
    sampled branches fill the interior.
    """
    trace = forward(params, x)
    sampled = dual.sample_optimal_branches(params, trace, tol, n=n, seed=seed)
    extreme = dual.extreme_branches(params, trace, tol, sphere_samples=sphere_samples, seed=seed)
    return np.vstack([dual.readout(params, sampled), dual.readout(params, extreme)])


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
    for each cone-tip module, which is the exact ball contribution (the
    maximum a sphere fan augmented with the per-direction maximizer would
    attain).
    """

    def __init__(self, params: SocIcnnParams, trace, box, tol: float):
        smooth = params.v.copy()
        dual._add_smooth_slope(smooth, params, trace, tol)
        self.tips = [(lg, A) for lg, A, un in zip(params.lam, params.A, trace.u_norms) if un <= tol]
        rows = []
        for relu in dual.relu_corner_assignments(params, box):
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
    ``(m, d)``.  A stack shares one trace, branch box, support evaluator and
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
    box = dual.branch_box(trace, tol)
    primal = scale * _one_sided_primal(params, trace, units, tol)
    dual_max = scale * _SupportEvaluator(params, trace, box, tol)(units)
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


def canonical_gap_fraction(
    params: SocIcnnParams,
    x,
    n_directions: int = 1000,
    tol: float = DEFAULT_TAU,
    seed: int = 0,
) -> float:
    """Fraction of random unit directions along which the canonical slope is
    strictly below the true one-sided derivative (gap above 1e-9).

    Zero at nondegenerate points; equal to one when every direction sees the
    set-valuedness, as with a full-rank cone-tip module.
    """
    if n_directions <= 0:
        raise ValidationError("invalid-descriptor", "n_directions must be positive")
    vecs, nrms = _gaussian_nonzero(np.random.default_rng(seed), params.input_dim, n_directions)
    res = directional_derivative(params, x, vecs / nrms[:, None], tol)
    return int(np.count_nonzero(res.dual_max - res.canonical_value > 1e-9)) / n_directions
