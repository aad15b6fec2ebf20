"""Proximal-style inference on top of the model: minimize
``F(x) = f(x) + (beta/2) ||x - y||^2`` for a query ``y``.

``solve`` is the one solver entry: it takes one query ``(d,)`` or a stack
``(q, d)`` descended in lockstep, and one of four methods.  Two first-order
and two second-order methods share one descent loop.  The white-box pair
uses the canonical readout for gradients and the branch curvature formula
(plus ``beta I``) for the Newton system; the baseline pair replaces both
with finite-difference compositions of plain value queries and must not
touch any analytic route.  All four use the same Armijo backtracking line
search and the same stopping rules, so their iteration counts are
comparable.  ``readout_diagnostics`` cross-checks the readout routes at one
solution or a stack of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, replace

import numpy as np
import scipy.linalg

from . import curvature, dual
from .curvature import curvature_matrix
from .errors import SolveFailureError, ValidationError
from .model import DEFAULT_TAU, SocIcnnParams, _dot, _nondegenerate_rows, _norms
from .model import _require_nondegenerate, conic_margin, forward, forward_values, relu_margin
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
        for name in ("beta", "damping", "fd_grad_step", "fd_hess_step"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {getattr(self, name)}")
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0 < self.armijo < 1:
            raise ValueError("armijo must lie in (0, 1)")
        if type(self.max_backtracks) is not int or self.max_backtracks < 0:
            raise ValueError(f"max_backtracks must be a nonnegative int: {self.max_backtracks!r}")
        if self.max_iters is not None and (type(self.max_iters) is not int or self.max_iters < 0):
            raise ValueError(f"max_iters must be a nonnegative int or None: {self.max_iters!r}")
        for name in ("grad_tol", "progress_tol"):
            if not getattr(self, name) >= 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not 0 <= self.tol < math.inf:
            raise ValueError(f"tol must be nonnegative and finite, got {self.tol}")


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


# The four solvers' names, as in their reports' ``method`` field.
METHODS = ("whitebox-gd", "whitebox-newton", "fd-gd", "fd-newton")


def objective(params: SocIcnnParams, y, beta: float, x, tol: float = DEFAULT_TAU):
    """Value and canonical-readout gradient of the objective, by the solvers' own code."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValidationError("dimension-mismatch", f"point has shape {x.shape}, expected (d,)")
    Y = np.asarray(y, dtype=np.float64)[None]
    values, trace = _values(params, Y, beta, x[None])
    return float(values[0]), _readout_grad(params, Y, beta, tol)(0, trace)


def _trial_block(params, y, beta, x, p, etas):
    """The points ``x + eta p`` for the step sizes ``etas``, with ``x``,
    ``p`` and the query ``y`` given per point (or broadcast), their
    objective values and their trace, as ``_values`` gives them."""
    X = x + etas[:, None] * p
    return (X, *_values(params, y, beta, X))


def _values(params, Y, beta, X):
    """Objective values at the rows of ``X`` for the queries at the rows of
    ``Y``, and one trace of them all: a stacked one, or a one-point trace
    when ``X`` has a single row.  Each value is bitwise that of its point
    traced alone."""
    trace = forward(params, X[0] if len(X) == 1 else X)
    diff = X - Y
    return trace.value + 0.5 * beta * _dot(diff, diff), trace


def _descent(params, Y, config, method, grad_fn, direction_fn):
    """Armijo-backtracked descent shared by all four solvers, run on the
    query rows of ``Y`` in lockstep; returns one report per row.

    Each round makes one value query: one trace of every point that any
    row's line search tries next.  Each point is traced once, there.  The
    rows that accept a point in a round get their gradients from one
    ``grad_fn(rows, trace)`` call with the trace of the accepted points
    (``rows`` is an index array for a stacked trace and an int for a
    one-point trace; the value-only twins read only ``trace.x``).
    ``direction_fn`` maps ``(row, g, trace)`` to a step direction at that
    row's one-point trace (None for steepest descent, whose default budget
    is ``GD_MAX_ITERS`` iterations, not ``NEWTON_MAX_ITERS``).  A row stops
    on per-step progress, on gradient norm, on iteration budget, or on a
    line-search failure, whichever comes first, and leaves the rounds.

    A row's line search traces the step sizes ``1, shrink, shrink^2, ...``
    in blocks as long as its previous search's run of trials (one at first)
    and takes the first step that passes the Armijo test.  Steps traced past
    it lie between two points where the convex objective is finite.  Every
    row does bitwise the arithmetic of a run of its query alone.

    Each row's ``time_ms`` and ``deriv_time_ms`` is its share of the batch
    time: every interval goes to the rows of the call that ends it, in
    proportion to the points each put in, so one batch's times sum to its
    wall time.
    """
    q = len(Y)
    max_iters = config.max_iters
    if max_iters is None:
        max_iters = GD_MAX_ITERS if direction_fn is None else NEWTON_MAX_ITERS
    etas = np.cumprod(np.r_[1.0, np.full(config.max_backtracks, config.shrink)])
    mark = time.perf_counter()
    spent, deriv = [0.0] * q, [0.0] * q

    def charge(rows, weights, *totals):
        nonlocal mark
        now = time.perf_counter()
        unit = (now - mark) / sum(weights)
        for r, w in zip(rows, weights):
            for total in totals:
                total[r] += unit * w
        mark = now

    X = Y.copy()
    F, trace = _values(params, Y, config.beta, X)
    charged, weights, fresh = range(q), [1] * q, np.arange(q)
    G, P = np.empty_like(Y), np.empty_like(Y)
    bounds = np.empty((q, etas.size))
    block, tried, iterations, backtracks = [1] * q, [0] * q, [0] * q, [0] * q
    progress, grad_norm = [0.0] * q, [0.0] * q
    history, stop = [[] for _ in range(q)], [None] * q
    searching = []
    while True:
        if fresh.size:
            charge(charged, weights, spent)
            stacked = np.ndim(trace.value) > 0
            rows = fresh if stacked else fresh[0]
            G[rows] = grad_fn(rows, trace)
            charge(fresh, [1] * fresh.size, spent, deriv)
            for i, r in enumerate(fresh.tolist()):
                g = G[r]
                grad_norm[r] = gn = math.sqrt(g @ g)
                history[r].append((float(F[r]), gn))
                if iterations[r] and progress[r] <= config.progress_tol:
                    stop[r] = "progress"
                elif gn <= config.grad_tol:
                    stop[r] = "grad-tol"
                elif iterations[r] >= max_iters:
                    stop[r] = "max-iters"
                else:
                    if direction_fn is None:
                        P[r] = -g
                        slope = -gn * gn
                    else:
                        P[r] = direction_fn(r, g, trace.row(i) if stacked else trace)
                        charge([r], [1], spent, deriv)
                        slope = float(g @ P[r])
                    bounds[r] = F[r] + config.armijo * etas * slope
                    tried[r] = 0
                    searching.append(r)
        if not searching:
            break
        weights = [min(block[r], etas.size - tried[r]) for r in searching]
        owner = np.repeat(searching, weights)
        steps = np.concatenate([etas[tried[r] : tried[r] + n] for r, n in zip(searching, weights)])
        X_try, values, trace = _trial_block(
            params, Y[owner], config.beta, X[owner], P[owner], steps
        )
        charged, accepted, still, start = searching, [], [], 0
        for r, n in zip(searching, weights):
            k = next((i for i in range(n) if values[start + i] <= bounds[r, tried[r] + i]), None)
            if k is not None:
                backtracks[r] += tried[r] + k
                block[r] = tried[r] + k + 1
                f_new = float(values[start + k])
                progress[r] = float(F[r]) - f_new
                X[r], F[r] = X_try[start + k], f_new
                iterations[r] += 1
                accepted.append(start + k)
            elif tried[r] + n < etas.size:
                tried[r] += n
                still.append(r)
            else:
                backtracks[r] += config.max_backtracks
                stop[r] = "line-search-failure"
            start += n
        fresh = owner[accepted]
        if len(accepted) == 1 and np.ndim(trace.value):
            trace = trace.row(accepted[0])
        elif len(accepted) > 1:
            trace = trace.row(np.array(accepted))
        searching = still
    charge(range(q), [1] * q, spent)
    return tuple(
        InferenceReport(
            method=method,
            x=X[r].copy(),
            objective=float(F[r]),
            grad_norm=grad_norm[r],
            iterations=iterations[r],
            backtracks=backtracks[r],
            time_ms=1000.0 * spent[r],
            deriv_time_ms=1000.0 * deriv[r],
            trace=tuple(history[r]),
            stop_reason=stop[r],
        )
        for r in range(q)
    )


def _readout_grad(params, Y, beta, tol):
    """Canonical-readout gradient of the objective for the queries at
    ``rows`` of ``Y``, read from the trace of their points."""

    def grad_fn(rows, trace):
        return dual.readout(params, dual.canonical(params, trace, tol)) + beta * (trace.x - Y[rows])

    return grad_fn


def _readout_field(params, tol):
    """Canonical-readout model gradient at each row of ``Z``, from one stacked
    trace; row ``k`` is bitwise the readout at ``Z[k]`` alone."""
    return lambda Z: dual.readout(params, dual.canonical(params, forward(params, Z), tol))


def _fd_values(params, Y, config):
    """Objective value field of the queries at ``rows`` of ``Y``, from value
    queries alone.  It takes one equally long block of points per query,
    stacked in query order, and evaluates each block as its own ``(m, d)``
    slab of one batched ``forward_values`` call."""

    def values(rows):
        Yr = Y[rows].reshape(-1, 1, Y.shape[1])

        def f(Z):
            Z = Z.reshape(len(Yr), -1, Z.shape[-1])
            diff = Z - Yr
            quad = np.einsum("...ij,...ij->...i", diff, diff)
            return (forward_values(params, Z) + 0.5 * config.beta * quad).reshape(-1)

        return f

    return values


def _fd_grad(params, Y, config):
    """Central-difference gradient of the objective for the queries at
    ``rows`` of ``Y``, at the points of ``trace``, built from value queries
    alone: one stencil block per point, all in one value query."""
    values = _fd_values(params, Y, config)
    return lambda rows, trace: fd_gradient(values(rows), trace.x, config.fd_grad_step)


def _newton_direction(params, config):
    """Damped Newton step at a row's trace from the closed-form curvature."""

    def direction_fn(r, g, trace):
        H = curvature_matrix(params, trace, config.tol, skip_tip_modules=True)
        H[np.diag_indices_from(H)] += config.beta + config.damping
        try:
            factor = scipy.linalg.cho_factor(H, check_finite=False)
        except scipy.linalg.LinAlgError as exc:
            raise SolveFailureError(f"damped system failed to factor: {exc}") from exc
        return -scipy.linalg.cho_solve(factor, g, check_finite=False)

    return direction_fn


def _fd_newton_direction(params, Y, config):
    """Newton step from a central difference of the FD gradient field of a
    row's query, its ``4 n^2``-point stencil in one value query, with the
    eigenvalues clamped from below at ``beta + damping``."""
    values = _fd_values(params, Y, config)

    def direction_fn(r, g, trace):
        f = values(r)
        H = fd_hessian(lambda P: fd_gradient(f, P, config.fd_grad_step), trace.x,
                       config.fd_hess_step)
        w, V = scipy.linalg.eigh(H, check_finite=False)
        w = np.maximum(w, config.beta + config.damping)
        return -(V @ ((V.T @ g) / w))

    return direction_fn


def solve(params: SocIcnnParams, y, config: InferenceConfig, method: str):
    """Minimize the objective for the query ``y`` with the solver ``method``.

    ``y`` is one query ``(d,)``, giving one ``InferenceReport``, or a stack
    ``(q, d)`` with ``q >= 1``, giving a tuple of ``q`` reports in order.
    The queries of a stack descend in lockstep, and each report is bitwise
    that of its query alone, apart from the timings, which split the batch
    time between the queries.  ``method`` is one of ``METHODS``:

    - ``"whitebox-gd"``: descent along the canonical-readout gradient.
    - ``"whitebox-newton"``: damped Newton on ``H(x) + (beta + damping) I``
      with the closed-form branch curvature ``H``; cone-tip modules, should
      an iterate land exactly on one, drop out of ``H`` (their
      subdifferential term is already in the gradient).
    - ``"fd-gd"``: the twin that sees only objective values, with
      central-difference gradients at step ``fd_grad_step``.
    - ``"fd-newton"``: the twin whose Newton matrix is a central difference
      of that gradient field, over one ``4 n^2``-point value query.  It
      goes indefinite whenever a stencil leg crosses a kink, so its
      eigenvalues are clamped from below at ``beta + damping``: the
      declared strong-convexity constant, no analytic model structure.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    y = np.asarray(y, dtype=np.float64)
    if y.ndim not in (1, 2) or not len(y):
        raise ValidationError("dimension-mismatch", f"query shape {y.shape}, need (d,) or (q>0, d)")
    Y = np.atleast_2d(y)
    if method.startswith("whitebox"):
        grad_fn = _readout_grad(params, Y, config.beta, config.tol)
        direction_fn = _newton_direction(params, config)
    else:
        grad_fn = _fd_grad(params, Y, config)
        direction_fn = _fd_newton_direction(params, Y, config)
    if method.endswith("-gd"):
        direction_fn = None
    reports = _descent(params, Y, config, method, grad_fn, direction_fn)
    return reports[0] if y.ndim == 1 else reports


@dataclass(frozen=True)
class ReadoutDiagnostics:
    """Cross-route agreement at a solution point: floats for one point,
    ``(m,)`` arrays for a stack of ``m``."""

    grad_err: float | np.ndarray
    grad_rel_err: float | np.ndarray
    hess_err: float | np.ndarray
    hess_rel_err: float | np.ndarray
    min_relu_margin: float | np.ndarray
    min_conic_residual: float | np.ndarray


def readout_diagnostics(
    params: SocIcnnParams, x, tol: float = DEFAULT_TAU, fd_hess_step: float = 1e-5
) -> ReadoutDiagnostics:
    """Agreement checks at (nondegenerate) solver outputs.

    Compares the multiplier-readout gradient against the affine-composition
    route, and the curvature formula against a central difference of the
    analytic gradient field; also reports how far the point sits from the
    nearest kink.  ``x`` is one point ``(d,)``, giving floats, or a stack
    ``(m, d)``, giving ``(m,)`` arrays whose row ``k`` is bitwise the call at
    ``x[k]`` alone; a point is traced as a stack of one.  A point on a kink
    raises ``DegenerateInputError``, naming its row in a stack.
    """
    x = np.asarray(x, dtype=np.float64)
    trace = forward(params, x[None] if x.ndim == 1 else x)
    bad = np.flatnonzero(~_nondegenerate_rows(trace, tol))
    if bad.size:
        where = f" at row {bad[0]}" if x.ndim == 2 else ""
        _require_nondegenerate(trace.row(bad[0]), tol, "diagnostics" + where)
    m, n = trace.x.shape
    g_dual = dual.readout(params, dual.canonical(params, trace, tol))
    grad_err = _norms(g_dual - curvature._trace_gradient(params, trace, tol))
    H = np.reshape([curvature_matrix(params, trace.row(k), tol) for k in range(m)], (m, n, n))
    H_fd = fd_hessian(_readout_field(params, tol), trace.x, fd_hess_step)
    hess_err = _norms((H - H_fd).reshape(m, n * n))
    diag = ReadoutDiagnostics(
        grad_err, grad_err / np.maximum(_norms(g_dual), 1e-300),
        hess_err, hess_err / np.maximum(_norms(H.reshape(m, n * n)), 1e-300),
        relu_margin(trace), conic_margin(trace),
    )
    return diag if x.ndim == 2 else ReadoutDiagnostics(*(float(f[0]) for f in astuple(diag)))


def with_gap(report: InferenceReport, best: float) -> InferenceReport:
    """Copy of the report with ``gap_to_best`` filled in against ``best``."""
    return replace(report, gap_to_best=report.objective - best)
