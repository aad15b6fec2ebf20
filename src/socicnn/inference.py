"""Proximal-style inference on top of the model: minimize
``F(x) = f(x) + (beta/2) ||x - y||^2`` for a query ``y``.

Two first-order and two second-order solvers share one descent loop.  The
white-box pair uses the canonical readout for gradients and the branch
curvature formula (plus ``beta I``) for the Newton system; the baseline pair
replaces both with finite-difference compositions of plain value queries and
must not touch any analytic route.  All four use the same Armijo
backtracking line search and the same stopping rules, so their iteration
counts are comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg

from . import curvature, dual, oracle
from .curvature import curvature_matrix
from .errors import SolveFailureError, ValidationError
from .model import DEFAULT_TAU, SocIcnnParams, _dot, _require_nondegenerate, conic_margin, forward
from .model import forward_values, relu_margin
from .oracle import fd_gradient, fd_hessian

GD_MAX_ITERS = 2000
NEWTON_MAX_ITERS = 200


@dataclass(frozen=True)
class InferenceConfig:
    """Shared solver knobs.

    ``max_iters`` of None means the per-family default (2000 first-order,
    200 second-order).  ``damping`` is added to the Newton system on top of
    ``beta`` so the factorization is safely positive definite.
    """

    beta: float = 10.0
    damping: float = 1e-8
    armijo: float = 1e-4
    shrink: float = 0.5
    max_backtracks: int = 60
    max_iters: int | None = None
    grad_tol: float = 1e-4
    progress_tol: float = 1e-12
    tol: float = DEFAULT_TAU
    fd_grad_step: float = 1e-6
    fd_hess_step: float = 1e-5

    def __post_init__(self):
        if not self.beta > 0:
            raise ValueError("beta must be positive")
        if not self.damping > 0:
            raise ValueError("damping must be positive")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0 < self.armijo < 1:
            raise ValueError("armijo must lie in (0, 1)")
        if self.max_backtracks < 0:
            raise ValueError("max_backtracks must be nonnegative")
        if not (self.fd_grad_step > 0 and self.fd_hess_step > 0):
            raise ValueError("fd_grad_step and fd_hess_step must be positive")
        if self.max_iters is not None and self.max_iters < 0:
            raise ValueError("max_iters must be nonnegative or None")
        for name in ("grad_tol", "progress_tol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")


@dataclass(frozen=True)
class InferenceReport:
    """Outcome of one solver run.

    ``trace`` holds ``(objective, grad_norm)`` per accepted iterate,
    starting with the initial point.  ``deriv_time_ms`` counts only gradient
    and curvature construction, not line-search value queries.
    ``gap_to_best`` is NaN until an experiment harness fills it in against
    the best objective any method reached on the same query.
    """

    method: str
    x: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    backtracks: int
    time_ms: float
    deriv_time_ms: float
    trace: tuple
    stop_reason: str
    gap_to_best: float = float("nan")


def objective(params: SocIcnnParams, y, beta: float, x, tol: float = DEFAULT_TAU):
    """Value and canonical-readout gradient of the objective, by the solvers' own code."""
    x = np.asarray(x, dtype=np.float64)
    value, trace = _value(params, y, beta, x)
    return value, _readout_grad(params, y, beta, tol)(x, trace)


def _value(params, y, beta, x):
    """Objective value at ``x`` together with the model trace behind it."""
    if x.ndim != 1:
        raise ValidationError("dimension-mismatch", f"point has shape {x.shape}, expected (d,)")
    trace = forward(params, x)
    diff = x - y
    return trace.value + 0.5 * beta * float(diff @ diff), trace


def _trial_block(params, y, beta, x, p, etas):
    """The points ``x + eta p`` for the step sizes ``etas``, their objective
    values, each bitwise ``_value``'s, and a map from row to one-point trace.
    Several steps share one stacked ``forward``; one step runs ``_value``."""
    X = x + etas[:, None] * p
    if len(X) == 1:
        f, trace = _value(params, y, beta, X[0])
        return X, (f,), lambda k: trace
    trace = forward(params, X)
    diff = X - y
    return X, trace.value + 0.5 * beta * _dot(diff, diff), trace.row


def _descent(params, y, config, method, grad_fn, direction_fn, default_iters):
    """Armijo-backtracked descent shared by all four solvers.

    Each point is traced once, by its value query.  ``grad_fn`` maps ``(x,
    trace)`` to the objective gradient (the value-only twins ignore the
    trace); ``direction_fn`` maps ``(x, g, trace)`` to a step direction (None
    for steepest descent).  Stops on per-step progress, on gradient norm, on
    iteration budget, or on a line-search failure, whichever comes first.

    The line search traces the step sizes ``1, shrink, shrink^2, ...`` in
    blocks as long as the previous search's run of trials (one at first) and
    takes the first step that passes the Armijo test.  Steps traced past it
    lie between two points where the convex objective is finite.
    """
    y = np.asarray(y, dtype=np.float64)
    x = y.copy()
    max_iters = config.max_iters if config.max_iters is not None else default_iters
    t0 = time.perf_counter()
    deriv_time = 0.0
    f_val, point_trace = _value(params, y, config.beta, x)
    etas = np.cumprod(np.r_[1.0, np.full(config.max_backtracks, config.shrink)])
    block = 1
    trace = []
    iterations = 0
    total_backtracks = 0
    while True:
        td = time.perf_counter()
        g = grad_fn(x, point_trace)
        deriv_time += time.perf_counter() - td
        grad_norm = float(np.linalg.norm(g))
        trace.append((f_val, grad_norm))
        if iterations and progress <= config.progress_tol:
            stop = "progress"
            break
        if grad_norm <= config.grad_tol:
            stop = "grad-tol"
            break
        if iterations >= max_iters:
            stop = "max-iters"
            break
        if direction_fn is None:
            p = -g
            slope = -grad_norm * grad_norm
        else:
            td = time.perf_counter()
            p = direction_fn(x, g, point_trace)
            deriv_time += time.perf_counter() - td
            slope = float(g @ p)
        bounds = f_val + config.armijo * etas * slope
        tried, k = 0, None
        while k is None and tried < etas.size:
            X, values, row_trace = _trial_block(
                params, y, config.beta, x, p, etas[tried : tried + block]
            )
            k = next((i for i, f in enumerate(values) if f <= bounds[tried + i]), None)
            tried += len(X) if k is None else k
        if k is None:
            total_backtracks += config.max_backtracks
            stop = "line-search-failure"
            break
        total_backtracks += tried
        block = tried + 1
        f_new = float(values[k])
        progress = f_val - f_new
        x, f_val, point_trace = X[k], f_new, row_trace(k)
        iterations += 1
    return InferenceReport(
        method=method,
        x=x,
        objective=f_val,
        grad_norm=grad_norm,
        iterations=iterations,
        backtracks=total_backtracks,
        time_ms=1000.0 * (time.perf_counter() - t0),
        deriv_time_ms=1000.0 * deriv_time,
        trace=tuple(trace),
        stop_reason=stop,
    )


def _readout_grad(params, y, beta, tol):
    """Canonical-readout gradient of the objective, read from the point's trace."""

    def grad_fn(x, trace):
        return dual.readout(params, dual.canonical(params, trace, tol)) + beta * (x - y)

    return grad_fn


def _readout_field(params, tol):
    """Canonical-readout model gradient at each row of ``Z``, from one stacked
    trace; row ``k`` is bitwise the readout at ``Z[k]`` alone."""
    return lambda Z: dual.readout(params, dual.canonical(params, forward(params, Z), tol))


def _fd_grad(params, y, config):
    """Central-difference gradient field of the objective, built from value
    queries alone; takes one point or a stack of points, and no trace."""

    def values(Z):
        diff = Z - y
        return forward_values(params, Z) + 0.5 * config.beta * np.einsum("ij,ij->i", diff, diff)

    def grad_fn(x, _trace=None):
        return fd_gradient(values, x, config.fd_grad_step)

    return grad_fn


def whitebox_gd(params: SocIcnnParams, y, config: InferenceConfig) -> InferenceReport:
    """First-order descent with the canonical-readout gradient."""
    grad_fn = _readout_grad(params, y, config.beta, config.tol)
    return _descent(params, y, config, "whitebox-gd", grad_fn, None, GD_MAX_ITERS)


def whitebox_newton(params: SocIcnnParams, y, config: InferenceConfig) -> InferenceReport:
    """Damped Newton with the closed-form branch curvature.

    The system is ``H(x) + (beta + damping) I``; cone-tip modules, should an
    iterate land exactly on one, drop out of the curvature (their
    subdifferential term is already in the gradient).
    """
    grad_fn = _readout_grad(params, y, config.beta, config.tol)

    def direction_fn(x, g, trace):
        H = curvature_matrix(params, trace, config.tol, skip_tip_modules=True)
        H[np.diag_indices_from(H)] += config.beta + config.damping
        try:
            factor = scipy.linalg.cho_factor(H, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolveFailureError(f"damped system failed to factor: {exc}") from exc
        return -scipy.linalg.cho_solve(factor, g, check_finite=False)

    return _descent(params, y, config, "whitebox-newton", grad_fn, direction_fn, NEWTON_MAX_ITERS)


def baseline_fd_gd(params: SocIcnnParams, y, config: InferenceConfig) -> InferenceReport:
    """First-order twin that only sees objective values: central-difference
    gradients at step ``fd_grad_step``."""
    grad_fn = _fd_grad(params, y, config)
    return _descent(params, y, config, "fd-gd", grad_fn, None, GD_MAX_ITERS)


def baseline_fd_newton(params: SocIcnnParams, y, config: InferenceConfig) -> InferenceReport:
    """Second-order twin built purely from value queries: the Newton matrix
    is a central difference of the finite-difference gradient field.

    That estimate goes indefinite whenever a stencil leg crosses a kink, so
    its eigenvalues are clamped from below at ``beta + damping`` before
    solving.  The floor uses only the declared strong-convexity constant of
    the objective, no analytic model structure.  The matrix comes from one
    value query over its whole ``4 n^2``-point stencil.
    """
    field = _fd_grad(params, y, config)

    def direction_fn(x, g, _):
        H = fd_hessian(field, x, config.fd_hess_step)
        w, V = scipy.linalg.eigh(H, check_finite=False)
        w = np.maximum(w, config.beta + config.damping)
        return -(V @ ((V.T @ g) / w))

    return _descent(params, y, config, "fd-newton", field, direction_fn, NEWTON_MAX_ITERS)


@dataclass(frozen=True)
class ReadoutDiagnostics:
    """Cross-route agreement at a solution point."""

    grad_err: float
    grad_rel_err: float
    hess_err: float
    hess_rel_err: float
    min_relu_margin: float
    min_conic_residual: float


def readout_diagnostics(
    params: SocIcnnParams, x, tol: float = DEFAULT_TAU, fd_hess_step: float = 1e-5
) -> ReadoutDiagnostics:
    """Agreement checks at a (nondegenerate) solver output.

    Compares the multiplier-readout gradient against the affine-composition
    route, and the curvature formula against a central difference of the
    analytic gradient field; also reports how far the point sits from the
    nearest kink.
    """
    x = np.asarray(x, dtype=np.float64)
    trace = forward(params, x)
    _require_nondegenerate(trace, tol, "diagnostics")
    g_dual = dual.readout(params, dual.canonical(params, trace, tol))
    g_local = curvature._trace_gradient(params, trace, tol)
    grad_err = float(np.linalg.norm(g_dual - g_local))
    grad_rel = grad_err / max(float(np.linalg.norm(g_dual)), 1e-300)
    H = curvature_matrix(params, trace, tol)
    H_fd = oracle.fd_hessian(_readout_field(params, tol), x, fd_hess_step)
    hess_err = float(np.linalg.norm(H - H_fd, "fro"))
    hess_rel = hess_err / max(float(np.linalg.norm(H, "fro")), 1e-300)
    return ReadoutDiagnostics(
        grad_err=grad_err,
        grad_rel_err=grad_rel,
        hess_err=hess_err,
        hess_rel_err=hess_rel,
        min_relu_margin=relu_margin(trace),
        min_conic_residual=conic_margin(trace),
    )


def with_gap(report: InferenceReport, best: float) -> InferenceReport:
    """Copy of the report with ``gap_to_best`` filled in against ``best``."""
    return replace(report, gap_to_best=report.objective - best)
