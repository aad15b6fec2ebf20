"""The four reproducible experiments behind the command-line tool.

Each ``run_exp*`` function is pure given its config: models and probe points
come off seeded generators with fixed stream offsets, so two runs produce
identical tables (timing columns aside).  Results come back as small
``Table`` bundles plus a list of named pass/fail checks with their measured
values; the CLI handles formatting and exit codes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from . import curvature, dual, geometry, inference
from .curvature import hessian, quadratic_model_residual
from .errors import ConstructionError, DegenerateInputError
from .model import (
    ArchSpec,
    DEFAULT_TAU,
    DegeneracySpec,
    SocIcnnParams,
    build_degenerate_2d,
    build_random,
    conic_margin,
    degeneracy_report,
    forward,
    forward_values,
    relu_margin,
)
from .oracle import fd_directional, fd_gradient, fd_hessian


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


def _unit_rows(rng, n, dim):
    rows = rng.standard_normal((n, dim))
    norms = np.linalg.norm(rows, axis=1)
    while np.any(norms == 0.0):
        bad = norms == 0.0
        rows[bad] = rng.standard_normal((int(np.sum(bad)), dim))
        norms = np.linalg.norm(rows, axis=1)
    return rows / norms[:, None]


def _require_positive(cfg, *names) -> None:
    """Reject a config whose named fields (counts, steps, or a nonempty
    tuple of steps) are not all above zero."""
    for name in names:
        values = np.atleast_1d(getattr(cfg, name))
        if values.size == 0 or not np.all(values > 0):
            raise ValueError(f"{name} must be positive, got {getattr(cfg, name)}")


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
        _require_positive(self, "fd_step")


def run_exp1(cfg: Exp1Config = Exp1Config()) -> ExperimentOutput:
    """Compare the multiplier readout, the affine-composition route, and a
    central-difference oracle at Gaussian inputs."""
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    t0 = time.perf_counter()
    retained = 0
    l2_sum = rel_sum = cos_sum = fd_dual_sum = fd_local_sum = 0.0
    for _ in range(cfg.samples):
        x = rng.standard_normal(cfg.input_dim)
        trace = forward(params, x)
        if not degeneracy_report(trace, cfg.tol).is_nondegenerate:
            continue
        retained += 1
        g_dual = dual.readout(params, dual.canonical(params, trace, cfg.tol))
        g_local = curvature._trace_gradient(params, trace, cfg.tol)
        diff = float(np.linalg.norm(g_dual - g_local))
        l2_sum += diff
        rel_sum += diff / float(np.linalg.norm(g_dual))
        cos_sum += float(
            g_dual @ g_local / (np.linalg.norm(g_dual) * np.linalg.norm(g_local))
        )
        g_fd = fd_gradient(lambda Z: forward_values(params, Z), x, cfg.fd_step)
        fd_dual_sum += float(np.linalg.norm(g_dual - g_fd))
        fd_local_sum += float(np.linalg.norm(g_local - g_fd))
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
        _require_positive(self, "points", "trials", "radii", "fd_grad_step", "fd_hess_step")


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
    points = []
    anchor = None
    draws = 0
    while (len(points) < cfg.points or anchor is None) and draws < cfg.max_draws:
        x = rng.standard_normal(cfg.input_dim)
        draws += 1
        trace = forward(params, x)
        if not degeneracy_report(trace, cfg.tol).is_nondegenerate:
            continue
        if relu_margin(trace) < cfg.margin_gate or conic_margin(trace) < cfg.margin_gate:
            continue
        points.append((x, trace))
        if anchor is None and relu_margin(trace) >= cfg.anchor_relu_margin and conic_margin(
            trace
        ) >= cfg.anchor_conic_margin:
            anchor = x
    if len(points) < cfg.points or anchor is None:
        raise ConstructionError("could not collect enough margin-gated points")
    points = points[:cfg.points]

    grad_field = inference._readout_field(params, cfg.tol)
    grad_sum = grad_fd_sum = fro_sum = rel_sum = 0.0
    eig_formula_sum = eig_fd_sum = 0.0
    eig_worst = np.inf
    for x, trace in points:
        cm = hessian(params, x, cfg.tol)
        g_local = curvature._trace_gradient(params, trace, cfg.tol)
        grad_sum += float(np.linalg.norm(cm.grad - g_local))
        g_fd = fd_gradient(lambda Z: forward_values(params, Z), x, cfg.fd_grad_step)
        grad_fd_sum += float(np.linalg.norm(cm.grad - g_fd))
        H_fd = fd_hessian(grad_field, x, cfg.fd_hess_step)
        fro = float(np.linalg.norm(cm.hess - H_fd, "fro"))
        fro_sum += fro
        rel_sum += fro / float(np.linalg.norm(cm.hess, "fro"))
        eig_formula_sum += cm.min_eigenvalue
        eig_fd_sum += float(np.linalg.eigvalsh(H_fd)[0])
        eig_worst = min(eig_worst, cm.min_eigenvalue)
    n = len(points)
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
        quad_rows.append((radius, rate, mean))
    quad_runtime_ms = 1000.0 * (time.perf_counter() - t1)
    table_b = Table(
        "quadratic_model", ("radius", "retained_rate", "mean_abs_residual"), tuple(quad_rows)
    )
    residuals = [r[2] for r in quad_rows]
    bounds = (1e-12, 1e-11, 1e-9)
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
            all(m <= b for m, b in zip(residuals, bounds)),
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


# Branches per block of exp3's readout-direction product: 128 x 1000 doubles
# (1 MB) at the default config instead of one 5000 x 1000 array.
EXP3_CHUNK = 128


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
        _require_positive(self, "directions", "branches", "probes", "fd_step")


def run_exp3(cfg: Exp3Config = Exp3Config()) -> ExperimentOutput:
    """Directional derivatives, dual maxima, sampled branches, and support
    margins at the degenerate anchor."""
    params, x0 = build_degenerate_2d(cfg.degeneracy)
    trace0 = forward(params, x0)
    f0 = trace0.value
    t0 = time.perf_counter()
    rng_dirs = np.random.default_rng([cfg.seed, 1])
    dirs = _unit_rows(rng_dirs, cfg.directions, params.input_dim)
    res = geometry.directional_derivative(params, x0, dirs, cfg.tol)
    fd = fd_directional(lambda Z: forward_values(params, Z), x0, dirs, cfg.fd_step)
    dual_maxima = res.dual_max
    fd_errs = np.abs(fd - dual_maxima)
    primal_errs = np.abs(res.primal - dual_maxima)
    gap_count = int(np.count_nonzero(dual_maxima - res.canonical_value > 1e-9))
    branches = dual.sample_optimal_branches(
        params, trace0, cfg.tol, n=cfg.branches, seed=cfg.seed + 3
    )
    canon = dual.canonical(params, trace0, cfg.tol)
    readouts = dual.readout(params, branches)
    # max_ij (r_i . d_j - dual_max_j) is max_j (max_i r_i . d_j - dual_max_j)
    # bitwise; chunks of branches keep the product small.
    col_max = np.full(cfg.directions, -np.inf)
    for start in range(0, cfg.branches, EXP3_CHUNK):
        chunk = readouts[start:start + EXP3_CHUNK] @ dirs.T
        np.maximum(col_max, np.max(chunk, axis=0), out=col_max)
    violation = float(np.max(col_max - dual_maxima))
    min_norm_gap = float(np.min(branches.norm()) - canon.norm())
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
        _check("exp3-gap-fraction", gap_frac == 1.0, f"fraction {gap_frac:.4f}"),
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
        _require_positive(self, "queries")


METHOD_ORDER = ("whitebox-gd", "whitebox-newton", "fd-gd", "fd-newton")


def run_exp4(cfg: Exp4Config = Exp4Config()) -> ExperimentOutput:
    """Run all four solvers on each query and compare their outcomes."""
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    t0 = time.perf_counter()
    runners = {
        "whitebox-gd": inference.whitebox_gd,
        "whitebox-newton": inference.whitebox_newton,
        "fd-gd": inference.baseline_fd_gd,
        "fd-newton": inference.baseline_fd_newton,
    }
    per_query = []
    sums = {m: np.zeros(5) for m in METHOD_ORDER}
    diag_sums = np.zeros(6)
    diag_count = 0
    pair_diff = 0.0
    for qid in range(cfg.queries):
        y = rng.standard_normal(cfg.input_dim)
        reports = {m: runners[m](params, y, cfg.solver) for m in METHOD_ORDER}
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
        try:
            diag = inference.readout_diagnostics(
                params, reports["whitebox-newton"].x, cfg.solver.tol
            )
        except DegenerateInputError:
            continue
        diag_sums += (
            diag.grad_err,
            diag.grad_rel_err,
            diag.hess_err,
            diag.hess_rel_err,
            diag.min_relu_margin,
            diag.min_conic_residual,
        )
        diag_count += 1
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
        ((diag_count,) + tuple(diag_sums / nd),),
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
