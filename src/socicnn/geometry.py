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
from .model import DEFAULT_TAU, SocIcnnParams, _gaussian_nonzero, _require_nondegenerate, forward


@dataclass(frozen=True)
class DirectionalDerivativeResult:
    """One-sided derivative of the model along a ray.

    ``direction`` is the unit vector actually evaluated; ``dual_max`` is the
    support-function route, ``primal`` the one-sided chain rule route, and
    ``canonical_value`` the (possibly strictly smaller) slope of the
    minimum-norm branch.  All three scale with the norm of the direction as
    passed in.
    """

    direction: np.ndarray
    dual_max: float
    primal: float
    canonical_value: float


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
) -> list:
    """Subgradients read out from sampled plus extreme optimal branches.

    At a nondegenerate point every entry equals the gradient.  The extreme
    branches pin the hull's corners (up to the conic sphere fan); the
    sampled branches fill the interior.
    """
    trace = forward(params, x)
    branches = dual.sample_optimal_branches(params, trace, tol, n=n, seed=seed)
    branches += dual.extreme_branches(
        params, trace, tol, sphere_samples=sphere_samples, seed=seed
    )
    return [dual.readout(params, br) for br in branches]


def _one_sided_primal(params: SocIcnnParams, trace, unit, tol: float) -> float:
    """Exact one-sided chain rule along ``unit``: ReLU kinks pass the positive
    part of their incoming slope, cone tips contribute the full residual
    speed, smooth parts differentiate as usual."""
    dz = np.zeros(0)
    for a, W, U in zip(trace.a, params.W, params.U):
        da = W @ unit + U @ dz
        dz = np.where(a > tol, da, np.where(a < -tol, 0.0, np.maximum(da, 0.0)))
    total = float(params.v @ unit) + float(params.c @ dz)
    for al, B, qh in zip(params.alpha, params.B, trace.q):
        total += al * float(qh @ (B @ unit))
    for lg, A, ug, un in zip(params.lam, params.A, trace.u, trace.u_norms):
        Ad = A @ unit
        if un > tol:
            total += lg * float(ug @ Ad) / un
        else:
            total += lg * float(np.linalg.norm(Ad))
    return total


class _SupportEvaluator:
    """Support function of the optimal set at a fixed trace.

    Precomputes the readout of every ReLU corner with the smooth module
    slopes folded in; a call maximizes those rows against the direction and
    adds ``lam_g * ||A_g @ unit||`` for each cone-tip module, which is the
    exact ball contribution (the maximum a sphere fan augmented with the
    per-direction maximizer would attain).
    """

    def __init__(self, params: SocIcnnParams, trace, box, tol: float):
        smooth = params.v.copy()
        self.tips = dual._add_smooth_slope(smooth, params, trace, tol)
        rows = []
        for relu in dual.relu_corner_assignments(params, box):
            row = smooth.copy()
            for W, nu in zip(params.W, relu):
                row += W.T @ nu
            rows.append(row)
        self.corner_readouts = np.vstack(rows)

    def __call__(self, unit) -> float:
        best = float(np.max(self.corner_readouts @ unit))
        for lg, A in self.tips:
            best += lg * float(np.linalg.norm(A @ unit))
        return best


def directional_derivative(
    params: SocIcnnParams,
    x,
    direction,
    tol: float = DEFAULT_TAU,
) -> DirectionalDerivativeResult:
    """Exact one-sided derivative along ``direction``, by two routes.

    The direction is normalized internally and the returned fields are
    rescaled by its norm, so the result is positively homogeneous in the
    argument.  The ReLU corner enumeration behind the dual route raises
    ``TooManyDegeneraciesError`` beyond ``dual.MAX_FREE_COORDS`` interval
    coordinates.
    """
    direction = np.asarray(direction, dtype=np.float64)
    scale = float(np.linalg.norm(direction))
    if scale == 0.0:
        raise ValueError("direction must be nonzero")
    unit = direction / scale
    trace = forward(params, x)
    box = dual.branch_box(trace, tol)
    primal = _one_sided_primal(params, trace, unit, tol)
    dual_max = _SupportEvaluator(params, trace, box, tol)(unit)
    canon = float(dual.readout(params, dual.canonical(params, trace, tol)) @ unit)
    return DirectionalDerivativeResult(
        direction=unit,
        dual_max=scale * dual_max,
        primal=scale * primal,
        canonical_value=scale * canon,
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
        raise ValueError("n_directions must be positive")
    rng = np.random.default_rng(seed)
    trace = forward(params, x)
    box = dual.branch_box(trace, tol)
    support = _SupportEvaluator(params, trace, box, tol)
    canon_vec = dual.readout(params, dual.canonical(params, trace, tol))
    count = 0
    for _ in range(n_directions):
        vec, nrm = _gaussian_nonzero(rng, params.input_dim)
        unit = vec / nrm
        if support(unit) - float(canon_vec @ unit) > 1e-9:
            count += 1
    return count / n_directions
