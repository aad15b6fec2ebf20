"""The four reproducible experiments behind the command-line tool.

Each ``run_exp*`` function is pure given its config: models and probe points
come off seeded generators with fixed stream offsets, so two runs produce
identical tables (timing columns aside).  Results come back as small
``Table`` bundles plus a list of named pass/fail checks with their measured
values; the CLI handles formatting and exit codes.
"""

from __future__ import annotations

import time
from dataclasses import astuple, dataclass, field

import numpy as np

from . import dual, geometry, inference
from .curvature import curvature_matrix, quadratic_model_residual
from .errors import ConstructionError
from .model import (
    ArchSpec,
    DEFAULT_TAU,
    DegeneracySpec,
    SocIcnnParams,
    _check_config,
    _gaussian_nonzero,
    _nondegenerate_rows,
    _norms,
    build_degenerate_2d,
    build_random,
    conic_margin,
    forward,
    forward_values,
    relu_margin,
)
from .oracle import fd_directional, fd_hessian


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple
    rows: tuple


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class ExperimentOutput:
    name: str
    tables: tuple
    checks: tuple

    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


# Points per stacked block of exp1, exp2 and exp4's diagnostics.  Each point
# brings its 2 d stencil rows, so the block sets a run's peak memory: over
# exp1+exp2 passes, blocks of 8 kept the peak RSS within 0.3 MB of one point
# at a time, while 16 added 1 MB, 32 added 2 MB and one stack of exp1's 250
# samples 19 MB; exp4's traced peak is 1.10 MB with 8 or 1, 1.50 MB with 16
# and 2.25 MB with one stack of its 30 solutions.
_BLOCK = 8


def _gradient_routes(params, trace, tol, fd_step):
    """Dual (canonical readout), primal (the one-sided sweep along
    ``np.eye(d)``) and central-difference (the FD solvers' own field)
    gradients at the rows of a stacked trace, each row bitwise what a
    one-point call gives."""
    rows = np.arange(len(trace.x))
    g_dual = inference._readout_grad(params, tol)(trace, rows)
    g_primal = dual._one_sided_primal(params, trace, np.eye(params.input_dim), tol)
    return g_dual, g_primal, inference._fd_field(params, fd_step)(trace, rows)


def _running_sums(blocks, width):
    """Column sums, as Python floats, of the ``(m, width)`` per-point arrays
    in ``blocks``, each a running sum from 0.0 in point order: bitwise the
    accumulators of a one-point-at-a-time loop."""
    return np.add.accumulate(np.vstack([np.zeros((1, width))] + blocks))[-1].tolist()


def _random_model(cfg) -> SocIcnnParams:
    """The random model of an experiment config's seed and architecture."""
    return build_random(
        cfg.seed, ArchSpec(cfg.input_dim, cfg.widths, cfg.quad_dims, cfg.cone_dims)
    )


@dataclass(frozen=True)
class Exp1Config:
    """Gradient agreement on random nondegenerate inputs."""

    seed: int = 0
    samples: int = 250
    input_dim: int = 20
    widths: tuple = (64, 64, 64, 64)
    quad_dims: tuple = (20, 20)
    cone_dims: tuple = (20, 20)
    tol: float = DEFAULT_TAU
    fd_step: float = 1e-6

    def __post_init__(self):
        _check_config(self, ("input_dim", "widths", "quad_dims", "cone_dims", "fd_step"))


def run_exp1(cfg: Exp1Config = Exp1Config()) -> ExperimentOutput:
    """Compare the multiplier readout, the primal forward-mode sweep along
    the coordinate axes, and a central-difference oracle at Gaussian inputs.

    The samples are drawn as one array and handled in stacked blocks of
    ``_BLOCK``; the per-sample terms are summed in sample order, so every
    cell is bitwise that of a one-sample-at-a-time loop."""
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    t0 = time.perf_counter()
    X = rng.standard_normal((cfg.samples, cfg.input_dim))
    blocks = []
    for start in range(0, cfg.samples, _BLOCK):
        trace = forward(params, X[start:start + _BLOCK])
        kept = np.flatnonzero(_nondegenerate_rows(trace, cfg.tol))
        if not kept.size:
            continue
        g_dual, g_primal, g_fd = _gradient_routes(params, trace.row(kept), cfg.tol, cfg.fd_step)
        diff, dual_norm = _norms(g_dual - g_primal), _norms(g_dual)
        cosine = np.vecdot(g_dual, g_primal) / (dual_norm * _norms(g_primal))
        blocks.append(np.column_stack(
            (diff, diff / dual_norm, cosine, _norms(g_dual - g_fd), _norms(g_primal - g_fd))
        ))
    retained = sum(len(block) for block in blocks)
    l2_sum, rel_sum, cos_sum, fd_dual_sum, fd_local_sum = _running_sums(blocks, 5)
    runtime_ms = 1000.0 * (time.perf_counter() - t0)
    rows, checks = (), ()
    if cfg.samples:
        rate = retained / cfg.samples
        n = max(retained, 1)
        rows = ((cfg.samples, rate, l2_sum / n, rel_sum / n, cos_sum / n,
                 fd_dual_sum / n, fd_local_sum / n, runtime_ms),)
        checks = (
            _check("exp1-retained", rate == 1.0, f"retained rate {rate:.4f}"),
            _check("exp1-grad-exact", l2_sum / n <= 1e-12, f"mean L2 {l2_sum / n:.3e}"),
            _check("exp1-cosine", cos_sum / n >= 1.0 - 1e-12, f"mean cosine {cos_sum / n:.12f}"),
            _check("exp1-fd-dual", fd_dual_sum / n <= 1e-5, f"mean FD L2 {fd_dual_sum / n:.3e}"),
            _check(
                "exp1-fd-local", fd_local_sum / n <= 1e-5, f"mean FD L2 {fd_local_sum / n:.3e}"
            ),
        )
    checks += (_check("exp1-runtime", runtime_ms < 5000.0, f"{runtime_ms:.1f} ms"),)
    return ExperimentOutput(
        "exp1",
        (Table(
            "gradient_check",
            ("trials", "retained_rate", "grad_l2_err", "grad_rel_err",
             "cosine_sim", "fd_dual_l2_err", "fd_local_l2_err", "runtime_ms"),
            rows,
        ),),
        checks,
    )


# exp2-quad-residual's bound on the mean residual at each radius, in radius order.
_QUAD_BOUNDS = (1e-12, 1e-11, 1e-9)


@dataclass(frozen=True)
class Exp2Config:
    """Hessian agreement and local quadratic-model accuracy."""

    seed: int = 0
    points: int = 100
    input_dim: int = 10
    widths: tuple = (32, 32, 32)
    quad_dims: tuple = (10, 10)
    cone_dims: tuple = (10, 10)
    tol: float = DEFAULT_TAU
    margin_gate: float = 1e-3
    anchor_relu_margin: float = 1e-2
    anchor_conic_margin: float = 1e-1
    radii: tuple = (1e-4, 3e-4, 1e-3)
    trials: int = 500
    fd_grad_step: float = 1e-6
    fd_hess_step: float = 1e-5
    max_draws: int = 100000

    def __post_init__(self):
        _check_config(self, (
            "points", "input_dim", "widths", "quad_dims", "cone_dims", "trials", "radii",
            "fd_grad_step", "fd_hess_step", "max_draws",
        ))
        if len(self.radii) > len(_QUAD_BOUNDS):
            raise ValueError(f"radii must hold at most {len(_QUAD_BOUNDS)} radii, one per bound")


def run_exp2(cfg: Exp2Config = Exp2Config()) -> ExperimentOutput:
    """Check the curvature formula against a difference of the analytic
    gradient field, then probe the quadratic model at three radii.

    Evaluation points are Gaussian draws kept only when their smallest
    preactivation and conic residual clear ``margin_gate``, so the
    differencing stencils stay on one branch; the quadratic-model anchor
    uses wider margins so the largest radius cannot flip the branch either.
    """
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    t0 = time.perf_counter()
    blocks = []
    n = 0
    anchor = None
    draws = 0
    while (n < cfg.points or anchor is None) and draws < cfg.max_draws:
        X = rng.standard_normal((min(_BLOCK, cfg.max_draws - draws), cfg.input_dim))
        draws += len(X)
        trace = forward(params, X)
        relu, conic = relu_margin(trace), conic_margin(trace)
        gated = _nondegenerate_rows(trace, cfg.tol)
        gated &= (relu >= cfg.margin_gate) & (conic >= cfg.margin_gate)
        wide = gated & (relu >= cfg.anchor_relu_margin) & (conic >= cfg.anchor_conic_margin)
        if anchor is None and wide.any():
            anchor = X[np.argmax(wide)]
        kept = np.flatnonzero(gated)[:cfg.points - n]
        if kept.size:
            blocks.append(trace.row(kept))
            n += kept.size
    if n < cfg.points or anchor is None:
        raise ConstructionError("could not collect enough margin-gated points")

    grad_field = inference._readout_field(params, cfg.tol)
    terms = []
    for trace in blocks:
        m = len(trace.x)
        g_dual, g_primal, g_fd = _gradient_routes(params, trace, cfg.tol, cfg.fd_grad_step)
        H = curvature_matrix(params, trace, cfg.tol)
        H_fd = fd_hessian(grad_field, trace.x, cfg.fd_hess_step)
        fro = _norms((H - H_fd).reshape(m, -1))
        terms.append(np.column_stack((
            _norms(g_dual - g_primal), _norms(g_dual - g_fd), fro,
            fro / _norms(H.reshape(m, -1)),
            np.linalg.eigvalsh(H)[:, 0], np.linalg.eigvalsh(H_fd)[:, 0],
        )))
    grad_sum, grad_fd_sum, fro_sum, rel_sum, eig_formula_sum, eig_fd_sum = _running_sums(
        terms, 6
    )
    eig_worst = min(np.vstack(terms)[:, 4].tolist())
    deriv_runtime_ms = 1000.0 * (time.perf_counter() - t0)
    table_a = Table(
        "derivative_check",
        ("points", "grad_l2_err", "grad_fd_err", "hess_fro_err", "hess_rel_err",
         "min_eig_formula", "min_eig_fd", "min_eig_worst", "runtime_ms"),
        ((n, grad_sum / n, grad_fd_sum / n, fro_sum / n, rel_sum / n,
          eig_formula_sum / n, eig_fd_sum / n, eig_worst, deriv_runtime_ms),),
    )
    t1 = time.perf_counter()
    quad_rows = []
    for radius in cfg.radii:
        rate, mean = quadratic_model_residual(
            params, anchor, radius, cfg.trials, cfg.tol, seed=cfg.seed + 17
        )
        quad_rows.append((float(radius), rate, mean))
    quad_runtime_ms = 1000.0 * (time.perf_counter() - t1)
    table_b = Table(
        "quadratic_model", ("radius", "retained_rate", "mean_abs_residual"), tuple(quad_rows)
    )
    residuals = [r[2] for r in quad_rows]
    increasing = all(residuals[i] < residuals[i + 1] for i in range(len(residuals) - 1))
    ratio = residuals[-1] / residuals[0] if residuals[0] > 0 else np.inf
    checks = (
        _check("exp2-hess-fro", fro_sum / n <= 1e-5, f"mean Frobenius {fro_sum / n:.3e}"),
        _check("exp2-psd", eig_worst >= -1e-10, f"worst min eigenvalue {eig_worst:.3e}"),
        _check("exp2-deriv-runtime", deriv_runtime_ms < 10000.0, f"{deriv_runtime_ms:.1f} ms"),
        _check(
            "exp2-quad-retained",
            all(r[1] == 1.0 for r in quad_rows),
            "retained " + ", ".join(f"{r[1]:.3f}" for r in quad_rows),
        ),
        _check(
            "exp2-quad-residual",
            all(m <= b for m, b in zip(residuals, _QUAD_BOUNDS)),
            "residuals " + ", ".join(f"{m:.3e}" for m in residuals),
        ),
        _check("exp2-quad-monotone", increasing, "strictly increasing with radius"),
        _check(
            "exp2-quad-ratio",
            1e2 <= ratio <= 1e4,
            f"largest/smallest residual ratio {ratio:.3e}",
        ),
        _check("exp2-quad-runtime", quad_runtime_ms < 10000.0, f"{quad_runtime_ms:.1f} ms"),
    )
    return ExperimentOutput("exp2", (table_a, table_b), checks)


@dataclass(frozen=True)
class Exp3Config:
    """Set-valued geometry at the hand-built degenerate point."""

    seed: int = 0
    directions: int = 1000
    branches: int = 5000
    probes: int = 5000
    fd_step: float = 1e-7
    tol: float = DEFAULT_TAU
    degeneracy: DegeneracySpec = field(default_factory=DegeneracySpec)

    def __post_init__(self):
        _check_config(self, ("directions", "branches", "probes", "fd_step"))


def run_exp3(cfg: Exp3Config = Exp3Config()) -> ExperimentOutput:
    """Directional derivatives, dual maxima, sampled branches, and support
    margins at the degenerate anchor."""
    params, x0 = build_degenerate_2d(cfg.degeneracy)
    trace0 = forward(params, x0)
    f0 = trace0.value
    t0 = time.perf_counter()
    rng_dirs = np.random.default_rng([cfg.seed, 1])
    dirs, _ = _gaussian_nonzero(rng_dirs, params.input_dim, cfg.directions)
    dirs /= np.linalg.norm(dirs, axis=1)[:, None]
    res = geometry.directional_derivative(params, x0, dirs, cfg.tol)
    fd = fd_directional(lambda Z: forward_values(params, Z), x0, dirs, cfg.fd_step)
    dual_maxima = res.dual_max
    fd_errs = np.abs(fd - dual_maxima)
    primal_errs = np.abs(res.primal - dual_maxima)
    gap_count = int(np.count_nonzero(dual_maxima - res.canonical_value > 1e-9))
    # Feasible rows that attain the value make ``dual_max`` a lower bound by weak duality.
    argmax_viol = float(np.max(dual.feasibility_violation(params, res.argmax)))
    argmax_gap = float(np.max(np.abs(dual._minorant_values(params, x0, res.argmax) - f0)))
    branches = dual.sample_optimal_branches(
        params, trace0, cfg.tol, n=cfg.branches, seed=cfg.seed + 3
    )
    canon = dual.canonical(params, trace0, cfg.tol)
    readouts = dual.readout(params, branches)
    # max_ij (r_i . d_j - dual_max_j) is max_j (max_i d_j . r_i - dual_max_j)
    # bitwise; blocks of directions keep the product small.
    violation = float(np.max(geometry._support_maxima(dirs, readouts) - dual_maxima))
    min_norm_gap = float(np.min(branches.norm()) - canon.norm())
    canon_shortfall = f0 - float(dual._minorant_values(params, x0, canon))
    rng_probes = np.random.default_rng([cfg.seed, 2])
    g_can = dual.readout(params, canon)
    ydeltas = rng_probes.standard_normal((cfg.probes, params.input_dim))
    margins = forward_values(params, x0 + ydeltas) - f0 - ydeltas @ g_can
    min_margin = float(np.min(margins))
    runtime_ms = 1000.0 * (time.perf_counter() - t0)
    gap_frac = gap_count / cfg.directions
    row = (
        cfg.directions,
        cfg.branches,
        cfg.probes,
        float(np.mean(fd_errs)),
        float(np.max(fd_errs)),
        float(np.mean(primal_errs)),
        float(np.max(primal_errs)),
        gap_frac,
        max(violation, 0.0),
        min_norm_gap,
        min_margin,
        runtime_ms,
    )
    checks = (
        _check("exp3-fd-mean", np.mean(fd_errs) <= 5e-8, f"mean {np.mean(fd_errs):.3e}"),
        _check("exp3-fd-max", np.max(fd_errs) <= 2e-7, f"max {np.max(fd_errs):.3e}"),
        _check(
            "exp3-primal-exact",
            np.mean(primal_errs) <= 1e-11,
            f"mean {np.mean(primal_errs):.3e}",
        ),
        _check("exp3-no-violation", violation <= 1e-9, f"max violation {violation:.3e}"),
        _check("exp3-argmax-optimal", argmax_viol <= 1e-12 and argmax_gap <= 1e-10 * (1 + abs(f0)),
               f"argmax rows violate by {argmax_viol:.3e}, miss the value by {argmax_gap:.3e}"),
        _check("exp3-gap-fraction", gap_frac == 1.0, f"fraction {gap_frac:.4f}"),
        _check("exp3-canonical-optimal", abs(canon_shortfall) <= 1e-10 * (1.0 + abs(f0)),
               f"canonical minorant {canon_shortfall:.3e} below the value"),
        _check(
            "exp3-min-norm",
            min_norm_gap > 0.0,
            f"smallest sampled-minus-canonical norm gap {min_norm_gap:.3e}",
        ),
        _check(
            "exp3-support-margin",
            min_margin >= -1e-10 and min_margin > 0.0,
            f"min margin {min_margin:.3e}",
        ),
    )
    table = Table(
        "degenerate_geometry",
        ("directions", "branches", "probes", "fd_mean_err", "fd_max_err",
         "primal_mean_err", "primal_max_err", "canonical_gap_frac", "max_violation",
         "min_norm_gap", "min_support_margin", "runtime_ms"),
        (row,),
    )
    return ExperimentOutput("exp3", (table,), checks)


@dataclass(frozen=True)
class Exp4Config:
    """White-box versus finite-difference inference on random queries."""

    seed: int = 0
    queries: int = 30
    input_dim: int = 10
    widths: tuple = (32, 32, 32)
    quad_dims: tuple = (8,)
    cone_dims: tuple = (8, 8)
    solver: inference.InferenceConfig = field(default_factory=inference.InferenceConfig)

    def __post_init__(self):
        _check_config(self, ("queries", "input_dim", "widths", "quad_dims", "cone_dims"))


METHOD_ORDER = inference.METHODS


def run_exp4(cfg: Exp4Config = Exp4Config()) -> ExperimentOutput:
    """Run all four solvers on the queries, each solver on all of them in
    lockstep, and compare their outcomes query by query.  The readout
    diagnostics run at the whitebox-newton solutions off every kink, in
    stacked blocks of ``_BLOCK``, each cell bitwise a per-query loop's."""
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    t0 = time.perf_counter()
    per_query = []
    sums = {m: np.zeros(5) for m in METHOD_ORDER}
    pair_diff = 0.0
    ys = rng.standard_normal((cfg.queries, cfg.input_dim))
    batches = {m: inference.solve(params, ys, cfg.solver, m) for m in METHOD_ORDER}
    for qid in range(cfg.queries):
        reports = {m: batches[m][qid] for m in METHOD_ORDER}
        best = min(r.objective for r in reports.values())
        for m in METHOD_ORDER:
            r = inference.with_gap(reports[m], best)
            per_query.append(
                (m, qid, r.gap_to_best, r.grad_norm, r.iterations, r.backtracks, r.time_ms)
            )
            sums[m] += (r.gap_to_best, r.grad_norm, r.iterations, r.backtracks, r.time_ms)
        pair_diff = max(
            pair_diff,
            abs(reports["whitebox-gd"].objective - reports["fd-gd"].objective),
            abs(reports["whitebox-newton"].objective - reports["fd-newton"].objective),
        )
    kept = np.array([r.x for r in batches["whitebox-newton"]])
    kept = kept[_nondegenerate_rows(forward(params, kept), cfg.solver.tol)]
    diag_count = len(kept)
    diag_blocks = []
    for start in range(0, diag_count, _BLOCK):
        diag = inference.readout_diagnostics(params, kept[start:start + _BLOCK], cfg.solver.tol)
        diag_blocks.append(np.column_stack(astuple(diag)))
    diag_sums = _running_sums(diag_blocks, 6)
    runtime_ms = 1000.0 * (time.perf_counter() - t0)
    nq = cfg.queries
    method_rows = tuple(
        (m,) + tuple(sums[m] / nq) for m in METHOD_ORDER
    )
    methods = Table(
        "methods",
        ("method", "gap_to_best", "grad_norm", "iters", "backtracks", "time_ms"),
        method_rows,
    )
    queries = Table(
        "queries",
        ("method", "query_id", "gap", "grad_norm", "iters", "backtracks", "time_ms"),
        tuple(per_query),
    )
    nd = max(diag_count, 1)
    diagnostics = Table(
        "diagnostics",
        ("queries_used", "grad_err", "grad_rel_err", "hess_err", "hess_rel_err",
         "min_relu_margin", "min_conic_residual"),
        ((diag_count,) + tuple(total / nd for total in diag_sums),),
    )
    mean = {m: dict(zip(("gap", "gn", "iters", "bt", "ms"), sums[m] / nq)) for m in METHOD_ORDER}
    newton_gap = mean["whitebox-newton"]["gap"]
    iter_ratio = (
        mean["whitebox-newton"]["iters"] / mean["whitebox-gd"]["iters"]
        if mean["whitebox-gd"]["iters"] > 0
        else np.inf
    )
    checks = (
        _check("exp4-newton-gap", newton_gap <= 5e-4, f"mean gap {newton_gap:.3e}"),
        _check("exp4-iter-ratio", iter_ratio <= 0.2, f"iteration ratio {iter_ratio:.3f}"),
        _check(
            "exp4-variant-agreement",
            pair_diff <= 1e-3,
            f"worst objective difference {pair_diff:.3e}",
        ),
        _check("exp4-runtime", runtime_ms < 60000.0, f"{runtime_ms:.1f} ms"),
        _check(
            "exp4-conic-residual",
            diag_count > 0 and diag_sums[5] / nd > 0.1,
            f"mean min conic residual {diag_sums[5] / nd:.3e}, "
            f"{nq - diag_count} of {nq} queries skipped as degenerate",
        ),
    )
    return ExperimentOutput("exp4", (methods, queries, diagnostics), checks)
