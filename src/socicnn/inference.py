"""Proximal-style inference on top of the model: minimize
``F(x) = f(x) + (beta/2) ||x - y||^2`` for a query ``y``.

``solve`` is the one solver entry: it takes one query ``(d,)`` or a stack
``(q, d)`` descended in lockstep, and one of four methods.  Two first-order
and two second-order methods share one descent loop.  Each supplies only
the model's derivatives: the white-box pair the canonical readout and the
branch curvature formula, the baseline pair finite-difference compositions
of model values alone, touching no analytic route.  The proximal term's
``beta (x - y)`` and ``beta I`` are added in closed form for every method.
All four take the same Armijo and stopping decisions, so their iteration counts are
comparable; the white-box pair traces only the steps its minorant cannot rule out.
``readout_diagnostics`` cross-checks the readout routes at one solution or a stack of them.
"""

from __future__ import annotations

import math
import time
from dataclasses import astuple, dataclass, replace
from functools import partial

import numpy as np

from . import dual
from .curvature import curvature_matrix
from .errors import SolveFailureError
from .model import DEFAULT_TAU, SocIcnnParams, _check_config, _check_kind, _check_number, _norms
from .model import _nondegenerate_rows, _points, _require_nondegenerate, conic_margin, forward
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
        _check_config(self, ("beta", "damping", "fd_grad_step", "fd_hess_step"))
        if not 0 < self.shrink < 1:
            raise ValueError("shrink must lie in (0, 1)")
        if not 0 < self.armijo < 1:
            raise ValueError("armijo must lie in (0, 1)")


@dataclass(frozen=True)
class InferenceReport:
    """Outcome of one solver run.

    ``trace`` holds ``(objective, grad_norm)`` per accepted iterate,
    starting with the initial point.  ``gap_to_best`` is NaN until an
    experiment harness fills it in against the best objective any method
    reached on the same query.
    """

    method: str
    x: np.ndarray
    objective: float
    grad_norm: float
    iterations: int
    backtracks: int
    time_ms: float
    trace: tuple
    stop_reason: str
    gap_to_best: float = float("nan")


# The four solvers' names, as in their reports' ``method`` field.
METHODS = ("whitebox-gd", "whitebox-newton", "fd-gd", "fd-newton")


def objective(params: SocIcnnParams, y, beta: float, x, tol: float = DEFAULT_TAU):
    """Value and canonical-readout gradient of the objective, by the solvers' own code,
    at one point ``x`` for one finite query ``y``, both ``(d,)``."""
    x = _points(x, params.input_dim, "x", stack=False)
    Y = _points(y, params.input_dim, "query", stack=False)[None]
    _check_number(beta, "beta", positive=True)
    values, trace = _values(params, Y, beta, x[None])
    return values[0], _readout_grad(params, tol)(trace, [0])[0] + beta * (x - Y[0])


def _trial_block(params, y, beta, x, p, etas):
    """The points ``x + eta p`` for the step sizes ``etas``, with ``x``,
    ``p`` and the query ``y`` given per point (or broadcast), their
    objective values and their trace, as ``_values`` gives them."""
    X = x + etas[:, None] * p
    return (X, *_values(params, y, beta, X))


@np.errstate(over="ignore")
def _values(params, Y, beta, X):
    """Objective values, as floats, at the rows of ``X`` for the queries at the rows
    of ``Y``, each bitwise its point's alone, and their stacked trace, even of one row.
    With list state this read default ``run_exp4`` at 0.982 (seed 0) and 0.960 (seed 99)
    of the point-tracing loop's time (30 alternated pairs, 2-vCPU Xeon VM, NumPy 2.4.6)."""
    trace = forward(params, X)
    diff = X - Y
    return (trace.value + 0.5 * beta * np.vecdot(diff, diff)).tolist(), trace


@np.errstate(over="ignore")
def _descent(params, Y, config, method, grad_fn, direction_fn, floor):
    """Armijo-backtracked descent shared by all four solvers, run on the
    query rows of ``Y`` in lockstep; returns one report per row.

    Each round makes one value query: one trace of every point that any
    row's line search tries next.  Each point is traced once, there.  Every
    other stage of a round is one call on that trial trace and the indices
    ``rows`` of the points it serves.  ``grad_fn(trace, rows)`` gives the
    model's gradients at the accepted points (the value-only twins read only
    ``trace.x[rows]``), to which ``beta (x - y)`` is added.  ``direction_fn(G,
    trace, rows)`` maps the gradients ``G`` of the rows that continue to their
    step directions (None for steepest descent, whose default budget is
    ``GD_MAX_ITERS`` iterations, not ``NEWTON_MAX_ITERS``).  A row stops
    on per-step progress, on gradient norm, on iteration budget, or on a
    line-search failure, whichever comes first, and leaves the rounds.

    A row's line search takes the first step ``1, shrink, shrink^2, ...`` that passes the
    Armijo test, from ``floor(etas, f, slope, ||p||^2)`` on (0 for None; ``backtracks``
    counts the steps skipped), tracing blocks as long as its previous search's run of traced
    trials (one at first).  Steps traced past the accepted one lie between two points where
    the convex objective is finite.  Every row does bitwise the arithmetic of its query alone.

    Each row's ``time_ms`` is its share of the batch time: every interval
    goes to the rows of the call that ends it, in proportion to the points
    each put in (a round's directions to the rows that continue in it), so
    one batch's times sum to its wall time.
    """
    q = len(Y)
    max_iters = config.max_iters
    if max_iters is None:
        max_iters = GD_MAX_ITERS if direction_fn is None else NEWTON_MAX_ITERS
    etas = np.cumprod(np.r_[1.0, np.full(config.max_backtracks, config.shrink)]).tolist()
    mark = time.perf_counter()
    spent = [0.0] * q

    def charge(rows, weights):
        nonlocal mark
        now = time.perf_counter()
        unit = (now - mark) / sum(weights)
        for r, w in zip(rows, weights):
            spent[r] += unit * w
        mark = now

    X = Y.copy()
    F, trace = _values(params, Y, config.beta, X)
    charged, weights, fresh = range(q), [1] * q, np.arange(q)
    rows = fresh  # the points of the trace that the fresh rows accepted
    G, P = np.empty_like(Y), np.empty_like(Y)
    block, tried, first, iterations, backtracks = [1] * q, [0] * q, [0] * q, [0] * q, [0] * q
    progress, grad_norm, slopes = [0.0] * q, [0.0] * q, [0.0] * q
    history, stop = [[] for _ in range(q)], [None] * q
    searching = []
    while True:
        if fresh.size:
            charge(charged, weights)
            G[fresh] = grad_fn(trace, rows) + config.beta * (trace.x[rows] - Y[fresh])
            charge(fresh, [1] * fresh.size)
            going = []
            for i, r in enumerate(fresh.tolist()):
                g = G[r]
                grad_norm[r] = gn = math.sqrt(g @ g)
                history[r].append((F[r], gn))
                if iterations[r] and progress[r] <= config.progress_tol:
                    stop[r] = "progress"
                elif gn <= config.grad_tol:
                    stop[r] = "grad-tol"
                elif iterations[r] >= max_iters:
                    stop[r] = "max-iters"
                else:
                    slopes[r] = -gn * gn
                    tried[r] = 0
                    going.append(i)
            moving = fresh[going]
            if direction_fn is None:
                P[moving] = -G[moving]
            elif going:
                P[moving] = direction_fn(G[moving], trace, rows[going])
                charge(moving, [1] * len(going))
                for r in moving.tolist():
                    slopes[r] = float(G[r] @ P[r])
            if floor is not None:
                for r, pp in zip(moving.tolist(), np.vecdot(P[moving], P[moving]).tolist()):
                    first[r] = tried[r] = floor(etas, F[r], slopes[r], pp)
            searching += moving.tolist()
        if not searching:
            break
        weights, owner, steps = [], [], []
        for r in searching:
            n = min(block[r], len(etas) - tried[r])
            weights.append(n)
            owner += [r] * n
            steps += etas[tried[r]:tried[r] + n]
        owner = np.array(owner)
        X_try, values, trace = _trial_block(
            params, Y[owner], config.beta, X[owner], P[owner], np.array(steps)
        )
        charged, searching, accepted, start = searching, [], [], 0
        for r, n in zip(charged, weights):
            bounds = [F[r] + config.armijo * eta * slopes[r] for eta in etas[tried[r]:tried[r] + n]]
            k = next((i for i in range(n) if values[start + i] <= bounds[i]), None)
            if k is not None:
                backtracks[r] += tried[r] + k
                block[r] = tried[r] + k + 1 - first[r]
                f_new = values[start + k]
                progress[r] = F[r] - f_new
                X[r], F[r] = X_try[start + k], f_new
                iterations[r] += 1
                accepted.append(start + k)
            elif tried[r] + n < len(etas):
                tried[r] += n
                searching.append(r)
            else:
                backtracks[r] += config.max_backtracks
                stop[r] = "line-search-failure"
            start += n
        rows = np.array(accepted, dtype=np.intp)
        fresh = owner[rows]
    charge(range(q), [1] * q)
    return tuple(
        InferenceReport(
            method=method,
            x=X[r].copy(),
            objective=F[r],
            grad_norm=grad_norm[r],
            iterations=iterations[r],
            backtracks=backtracks[r],
            time_ms=1000.0 * spent[r],
            trace=tuple(history[r]),
            stop_reason=stop[r],
        )
        for r in range(q)
    )


def _armijo_floor(config, gap, etas, f, slope, pp):
    """First ``k`` (at most the last) at which ``eta = etas[k]`` is not ruled out: the canonical
    minorant gives ``F(x + eta p) >= f - gap + eta slope + (beta/2) eta^2 pp``, ``pp = ||p||^2``,
    which rules a step out where it tops the Armijo bound by over ``1e-12 (1 + |f|)``.  Its gap,
    ``bound a`` per unit at ``0 < a <= tol`` and ``lam_g ||u_g||`` per tip, is at most ``gap``."""
    curv, lin = 0.5 * config.beta * pp, (1.0 - config.armijo) * slope
    room, k = gap + 1e-12 * (1.0 + abs(f)), 0
    while k < len(etas) - 1 and etas[k] * (curv * etas[k] + lin) > room:
        k += 1
    return k


def _at(trace, rows):
    """The points ``rows`` of a stacked trace: the trace itself when they are all of it."""
    return trace if len(rows) == len(trace.x) else trace.row(rows)


def _readout_grad(params, tol):
    """Canonical-readout model gradient at the points ``rows`` of a stacked trace."""
    return lambda trace, rows: dual.readout(params, dual.canonical(params, _at(trace, rows), tol))


def _readout_field(params, tol):
    """Canonical-readout model gradient at each row of ``Z``, from one stacked
    trace; row ``k`` is bitwise the readout at ``Z[k]`` alone."""
    return lambda Z: dual.readout(params, dual.canonical(params, forward(params, Z), tol))


def _fd_field(params, step):
    """Central-difference model gradient at the points ``trace.x[rows]``, from model values
    alone.  Each point's ``2 d`` stencil rows are their own ``(m, 2 d, d)`` slab of
    one batched ``forward_values`` call, so row ``k`` is bitwise point ``k``'s alone."""
    d = params.input_dim
    return lambda trace, rows: fd_gradient(
        lambda S: forward_values(params, S.reshape(-1, 2 * d, d)).reshape(-1), trace.x[rows], step
    )


def _newton_direction(params, config, G, trace, rows):
    """Damped Newton steps for the gradients ``G`` at the points ``rows`` of a stacked
    trace, from the closed-form curvature: one stack of matrices, factored and solved
    at once, each step bitwise its point's alone."""
    H = curvature_matrix(params, _at(trace, rows), config.tol)
    diag = np.arange(H.shape[-1])
    H[..., diag, diag] += config.beta + config.damping
    try:
        np.linalg.cholesky(H)
    except np.linalg.LinAlgError as exc:
        raise SolveFailureError(f"damped system failed to factor: {exc}") from exc
    # The factor only tests definiteness: NumPy has no triangular solve, and
    # two general solves on it cost more than one solve with H.
    return -np.linalg.solve(H, G[..., None])[..., 0]


def _fd_newton_direction(params, config, G, trace, rows):
    """Newton steps for the gradients ``G`` at the points ``rows`` of a trace: per point a
    central difference of the FD model gradient field over one flat ``4 d^2``-row value
    query (a ``(k, 4 d^2, d)`` stack of them was no cheaper per point), plus ``beta I``,
    with the eigenvalues clamped from below at ``beta + damping``."""

    def field(P):
        return fd_gradient(lambda S: forward_values(params, S), P, config.fd_grad_step)

    steps = np.empty_like(G)
    for k, (g, x) in enumerate(zip(G, trace.x[rows])):
        H = fd_hessian(field, x, config.fd_hess_step)
        H[np.diag_indices_from(H)] += config.beta
        w, V = np.linalg.eigh(H)
        w = np.maximum(w, config.beta + config.damping)
        steps[k] = -(V @ ((V.T @ g) / w))
    return steps


def solve(params: SocIcnnParams, y, config: InferenceConfig, method: str):
    """Minimize the objective for the query ``y`` with the solver ``method``.

    ``y`` is one query ``(d,)``, giving one ``InferenceReport``, or a stack
    ``(q, d)`` with ``q >= 1``, giving a tuple of ``q`` reports in order.
    The queries of a stack descend in lockstep, and each report is bitwise
    that of its query alone, apart from the timings, which split the batch
    time between the queries.  Each method gives only the model's derivatives,
    and ``beta (x - y)`` and ``beta I`` are added in closed form for every
    method.  All four take the same Armijo decisions; ``backtracks`` counts the
    steps the white-box minorant rules out untraced.  ``method`` is one of ``METHODS``:

    - ``"whitebox-gd"``: descent along the canonical-readout gradient.
    - ``"whitebox-newton"``: damped Newton on ``H(x) + (beta + damping) I``
      with the closed-form branch curvature ``H``; cone-tip modules, should
      an iterate land exactly on one, drop out of ``H`` (their
      subdifferential term is already in the gradient).
    - ``"fd-gd"``: the twin that sees only model values, with
      central-difference model gradients at step ``fd_grad_step``.
    - ``"fd-newton"``: the twin whose Newton matrix is a central difference
      of that gradient field, over one ``4 d^2``-point value query, plus
      ``beta I``.  It goes indefinite whenever a stencil leg crosses a kink,
      so its eigenvalues are clamped from below at ``beta + damping``: the
      declared strong-convexity constant, no analytic model structure.
    """
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    _check_kind(params, SocIcnnParams, "params")
    _check_kind(config, InferenceConfig, "config")
    y = _points(y, params.input_dim, "query")
    Y = np.atleast_2d(y)
    # A method is a family, which supplies the model's derivatives and floor, and an order.
    if method.startswith("whitebox"):
        grad_fn, newton = _readout_grad(params, config.tol), _newton_direction
        nu_bar = dual._box_recursion(params, [True] * params.n_layers)  # largest: U, c >= 0
        gap = config.tol * (sum(float(nu.sum()) for nu in nu_bar) + sum(params.lam))
        floor = partial(_armijo_floor, config, gap)
    else:
        grad_fn, newton, floor = _fd_field(params, config.fd_grad_step), _fd_newton_direction, None
    direction_fn = partial(newton, params, config) if method.endswith("newton") else None
    reports = _descent(params, Y, config, method, grad_fn, direction_fn, floor)
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

    Compares the multiplier-readout gradient against the primal route (the
    one-sided sweep along ``np.eye(d)``), and the curvature formula against a
    central difference of the analytic gradient field; also reports how far
    the point sits from the nearest kink.  ``x`` is one point ``(d,)``,
    giving floats, or a stack ``(m, d)``, giving ``(m,)`` arrays whose row
    ``k`` is bitwise the call at ``x[k]`` alone; a point is traced as a
    stack of one.  A point on a kink raises ``DegenerateInputError``,
    naming its row in a stack.
    """
    x = _points(x, params.input_dim, "x")
    trace = forward(params, x[None] if x.ndim == 1 else x)
    bad = np.flatnonzero(~_nondegenerate_rows(trace, tol))
    if bad.size:
        where = f" at row {bad[0]}" if x.ndim == 2 else ""
        _require_nondegenerate(trace.row(bad[0]), tol, "diagnostics" + where)
    m, n = trace.x.shape
    g_dual = dual.readout(params, dual.canonical(params, trace, tol))
    grad_err = _norms(g_dual - dual._one_sided_primal(params, trace, np.eye(n), tol))
    H = curvature_matrix(params, trace, tol)
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
