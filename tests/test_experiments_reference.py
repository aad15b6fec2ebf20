"""exp1, exp2 and exp4's diagnostics against the one-point-at-a-time loops
that the stacked blocks replaced.

``reference_exp1`` and ``reference_exp2`` keep those loops verbatim, with
the one-point curvature route they called (``reference_curvature_matrix``)
and the primal gradient as a one-point call of the one-sided sweep
(``reference_trace_gradient``).  Every cell of every table apart from the
``*_ms`` columns must equal the stacked run's as a float hex, with the same
Python type, and the check verdicts must agree.  ``reference_exp4_diagnostics`` keeps exp4's per-query diagnostics
loop and the one-point ``readout_diagnostics`` it called; its cells must
equal the stacked run's as float hexes.
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from socicnn import ConstructionError, DegenerateInputError, dual, inference
from socicnn.curvature import (
    CurvatureModel,
    curvature_matrix,
    quadratic_model_residual,
)
from socicnn.experiments import (
    Exp1Config,
    Exp2Config,
    Exp4Config,
    ExperimentOutput,
    Table,
    _check,
    _random_model,
    run_exp1,
    run_exp2,
    run_exp4,
)
from socicnn.inference import InferenceConfig, ReadoutDiagnostics
from socicnn.model import DEFAULT_TAU, _require_nondegenerate, conic_margin, degeneracy_report
from socicnn.model import forward, forward_values, relu_margin
from socicnn.oracle import fd_gradient, fd_hessian

from table_cells import EXPERIMENTS, column_summary, differences, machine, output_cells


def reference_trace_gradient(params, trace, tol):
    """The primal gradient of one point: the sweep along ``np.eye(d)``."""
    return dual._one_sided_primal(params, trace, np.eye(params.input_dim), tol)


def reference_curvature_matrix(params, trace, tol):
    """The one-point curvature matrix, cone-tip handling aside (every point
    here is off the tips)."""
    n = params.input_dim
    H = np.zeros((n, n))
    for al, B in zip(params.alpha, params.B):
        H += al * (B.T @ B)
    for lg, A, ug, un in zip(params.lam, params.A, trace.u, trace.u_norms):
        uhat = ug / un
        S = A - np.outer(uhat, uhat @ A)
        H += (lg / un) * (S.T @ S)
    return H


def reference_trace_hessian(params, trace, tol):
    H = reference_curvature_matrix(params, trace, tol)
    grad = dual.readout(params, dual.canonical(params, trace, tol))
    return CurvatureModel(
        anchor=trace.x,
        grad=grad,
        hess=H,
        min_eigenvalue=float(np.linalg.eigvalsh(H)[0]),
    )


def reference_exp1(cfg):
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    retained = 0
    l2_sum = rel_sum = cos_sum = fd_dual_sum = fd_local_sum = 0.0
    for _ in range(cfg.samples):
        x = rng.standard_normal(cfg.input_dim)
        trace = forward(params, x)
        if not degeneracy_report(trace, cfg.tol).is_nondegenerate:
            continue
        retained += 1
        g_dual = dual.readout(params, dual.canonical(params, trace, cfg.tol))
        g_local = reference_trace_gradient(params, trace, cfg.tol)
        diff = float(np.linalg.norm(g_dual - g_local))
        l2_sum += diff
        rel_sum += diff / float(np.linalg.norm(g_dual))
        cos_sum += float(
            g_dual @ g_local / (np.linalg.norm(g_dual) * np.linalg.norm(g_local))
        )
        g_fd = fd_gradient(lambda Z: forward_values(params, Z), x, cfg.fd_step)
        fd_dual_sum += float(np.linalg.norm(g_dual - g_fd))
        fd_local_sum += float(np.linalg.norm(g_local - g_fd))
    runtime_ms = 0.0
    rate = retained / cfg.samples
    n = max(retained, 1)
    rows = ((cfg.samples, rate, l2_sum / n, rel_sum / n, cos_sum / n,
             fd_dual_sum / n, fd_local_sum / n, runtime_ms),)
    checks = (
        _check("exp1-retained", rate == 1.0, f"retained rate {rate:.4f}"),
        _check("exp1-grad-exact", l2_sum / n <= 1e-12, f"mean L2 {l2_sum / n:.3e}"),
        _check("exp1-cosine", cos_sum / n >= 1.0 - 1e-12, f"mean cosine {cos_sum / n:.12f}"),
        _check("exp1-fd-dual", fd_dual_sum / n <= 1e-5, f"mean FD L2 {fd_dual_sum / n:.3e}"),
        _check("exp1-fd-local", fd_local_sum / n <= 1e-5, f"mean FD L2 {fd_local_sum / n:.3e}"),
        _check("exp1-runtime", runtime_ms < 5000.0, f"{runtime_ms:.1f} ms"),
    )
    return ExperimentOutput("exp1", (Table("gradient_check", (), rows),), checks)


def reference_exp2(cfg):
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
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
        cm = reference_trace_hessian(params, trace, cfg.tol)
        g_local = reference_trace_gradient(params, trace, cfg.tol)
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
    deriv_runtime_ms = 0.0
    table_a = Table(
        "derivative_check",
        (),
        ((n, grad_sum / n, grad_fd_sum / n, fro_sum / n, rel_sum / n,
          eig_formula_sum / n, eig_fd_sum / n, eig_worst, deriv_runtime_ms),),
    )
    quad_rows = []
    for radius in cfg.radii:
        rate, mean = quadratic_model_residual(
            params, anchor, radius, cfg.trials, cfg.tol, seed=cfg.seed + 17
        )
        quad_rows.append((radius, rate, mean))
    quad_runtime_ms = 0.0
    table_b = Table("quadratic_model", (), tuple(quad_rows))
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


def cells(table, keep):
    """The cells of ``table`` in the columns ``keep``, each as ``(type name,
    float hex or repr)``."""
    return [
        [(type(row[i]).__name__, row[i].hex() if isinstance(row[i], float) else repr(row[i]))
         for i in keep]
        for row in table.rows
    ]


def assert_bitwise(got, want):
    """Every non-``*_ms`` cell of ``got`` equals ``want``'s (whose tables
    carry no column names), and so does every check verdict."""
    assert len(got.tables) == len(want.tables)
    for t_got, t_want in zip(got.tables, want.tables):
        keep = [i for i, c in enumerate(t_got.columns) if not c.endswith("_ms")]
        assert cells(t_got, keep) == cells(t_want, keep), t_got.name
    assert [(c.name, c.passed) for c in got.checks] == [(c.name, c.passed) for c in want.checks]


SMALL_ARCH = dict(input_dim=6, widths=(12, 10), quad_dims=(4,), cone_dims=(4,))

EXP1_CASES = {
    "default-seed-0": Exp1Config(seed=0),
    "default-seed-99": Exp1Config(seed=99),
    # min |preactivation| falls below 0.03 at 12 of 29 samples
    "some-dropped": Exp1Config(samples=29, tol=0.03, **SMALL_ARCH),
    "one-sample": Exp1Config(samples=1, **SMALL_ARCH),
    "block-remainder": Exp1Config(samples=13, seed=5, **SMALL_ARCH),
}


class TestExp1MatchesPerSampleLoop:
    @pytest.mark.parametrize("cfg", EXP1_CASES.values(), ids=EXP1_CASES.keys())
    def test_cells_are_bitwise(self, cfg):
        assert_bitwise(run_exp1(cfg), reference_exp1(cfg))

    def test_some_dropped_case_drops_some(self):
        rate = run_exp1(EXP1_CASES["some-dropped"]).tables[0].rows[0][1]
        assert 0.0 < rate < 1.0


# Exp2Config(points=12, trials=60) at seed 0 collects its points and anchor at
# draw 13, so 13 draws suffice and 12 do not; neither is a whole number of
# blocks.  With anchor_relu_margin=0.03 the anchor is draw 17, two blocks
# after the points are complete.
SMALL2 = dict(points=12, trials=60)
EXP2_CASES = {
    "default-seed-0": Exp2Config(seed=0),
    "default-seed-99": Exp2Config(seed=99),
    "one-point": Exp2Config(points=1),
    "draws-just-enough": Exp2Config(max_draws=13, **SMALL2),
    "late-anchor": Exp2Config(points=2, trials=60, anchor_relu_margin=0.03),
}


class TestExp2MatchesPerPointLoop:
    @pytest.mark.parametrize("cfg", EXP2_CASES.values(), ids=EXP2_CASES.keys())
    def test_cells_are_bitwise(self, cfg):
        assert_bitwise(run_exp2(cfg), reference_exp2(cfg))

    @pytest.mark.parametrize("max_draws", [12, 3])
    def test_running_out_of_draws_mid_block_raises_as_before(self, max_draws):
        cfg = Exp2Config(max_draws=max_draws, **SMALL2)
        with pytest.raises(ConstructionError) as want:
            reference_exp2(cfg)
        with pytest.raises(ConstructionError) as got:
            run_exp2(cfg)
        assert str(got.value) == str(want.value)


def reference_readout_diagnostics(params, x, tol=DEFAULT_TAU, fd_hess_step=1e-5):
    """The one-point ``readout_diagnostics``, before it took stacks."""
    x = np.asarray(x, dtype=np.float64)
    trace = forward(params, x)
    _require_nondegenerate(trace, tol, "diagnostics")
    g_dual = dual.readout(params, dual.canonical(params, trace, tol))
    g_local = reference_trace_gradient(params, trace, tol)
    grad_err = float(np.linalg.norm(g_dual - g_local))
    grad_rel = grad_err / max(float(np.linalg.norm(g_dual)), 1e-300)
    H = curvature_matrix(params, trace, tol)
    H_fd = fd_hessian(inference._readout_field(params, tol), x, fd_hess_step)
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


def reference_exp4_diagnostics(cfg):
    """exp4's diagnostics row and ``exp4-conic-residual`` check, from its
    per-query loop: one query at a time, skipping a query on a kink."""
    params = _random_model(cfg)
    rng = np.random.default_rng([cfg.seed, 1])
    ys = rng.standard_normal((cfg.queries, cfg.input_dim))
    newton = inference.solve(params, ys, cfg.solver, "whitebox-newton")
    diag_sums = np.zeros(6)
    diag_count = 0
    for qid in range(cfg.queries):
        try:
            diag = reference_readout_diagnostics(params, newton[qid].x, cfg.solver.tol)
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
    nq = cfg.queries
    nd = max(diag_count, 1)
    check = _check(
        "exp4-conic-residual",
        diag_count > 0 and diag_sums[5] / nd > 0.1,
        f"mean min conic residual {diag_sums[5] / nd:.3e}, "
        f"{nq - diag_count} of {nq} queries skipped as degenerate",
    )
    return (diag_count,) + tuple(diag_sums / nd), check


def peak_above_retained(run):
    """``run()`` and the peak of ``tracemalloc``'s traced memory above what
    is still allocated once the result is dropped.  What a run leaves behind
    (NumPy's cache of small blocks, filled on a first run) is not its peak:
    the measure is the same in a fresh process and after a warm-up run."""
    tracemalloc.start()
    try:
        out = run()
        result = (out.tables, out.checks)
        del out
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak - current


@pytest.fixture(scope="module")
def default_exp4_seed0():
    return peak_above_retained(run_exp4)


EXP4_CASES = {
    "default-seed-0": Exp4Config(),
    "default-seed-99": Exp4Config(seed=99),
    # 3 of 6 solutions lie within 0.01 of a kink, 3 kept: one short block
    "some-skipped": Exp4Config(queries=6, solver=InferenceConfig(tol=1e-2)),
    "none-kept": Exp4Config(queries=2, solver=InferenceConfig(tol=10.0)),
}


class TestExp4DiagnosticsMatchPerQueryLoop:
    @pytest.mark.parametrize("case", EXP4_CASES.keys())
    def test_diagnostics_row_and_check_are_bitwise(self, case, default_exp4_seed0):
        cfg = EXP4_CASES[case]
        if case == "default-seed-0":  # the memory test's traced run
            (tables, checks), _ = default_exp4_seed0
        else:
            out = run_exp4(cfg)
            tables, checks = out.tables, out.checks
        want_row, want_check = reference_exp4_diagnostics(cfg)
        (got_row,) = tables[2].rows
        assert type(got_row[0]) is int and got_row[0] == want_row[0]
        assert [v.hex() for v in got_row[1:]] == [float(v).hex() for v in want_row[1:]]
        got_check = next(c for c in checks if c.name == want_check.name)
        assert got_check == want_check

    def test_cases_cover_the_skip_paths(self):
        counts = {case: reference_exp4_diagnostics(EXP4_CASES[case])[0][0]
                  for case in ("some-skipped", "none-kept")}
        assert counts == {"some-skipped": 3, "none-kept": 0}

    def test_default_run_stays_small(self, default_exp4_seed0):
        """The diagnostics of the 30 solutions run in blocks of 8: the run's
        traced peak, above what it leaves allocated, stays near 1.05 MB, set
        by the solvers.  Blocks of 16 raise it to 1.44 MB, one stack of 30
        to 2.2 MB."""
        _, peak = default_exp4_seed0
        assert peak <= 1.2e6


def test_tables_match_the_golden_file(default_exp4_seed0):
    """Every non-``*_ms`` cell and check verdict of exp1-exp4 at config seeds
    0 and 99 equals ``golden_tables.json``'s: integers and verdicts exactly,
    floats bitwise.  A mismatch lists each moved cell with its distance in
    units in the last place and its absolute difference, and the machine
    each side ran on, since the last bits of a float can move with the CPU,
    NumPy or BLAS.  Remake the file with ``tests/table_cells.py --seeds 0 99
    --write`` only for a change that moves the tables on purpose."""
    golden = json.loads(Path(__file__).with_name("golden_tables.json").read_text("utf-8"))
    cells = {}
    for seed in (0, 99):
        for name, config, run in EXPERIMENTS:
            if (seed, name) == (0, "exp4"):  # the memory test's traced run
                (tables, checks), _ = default_exp4_seed0
            else:
                out = run(config(seed=seed))
                tables, checks = out.tables, out.checks
            cells.update(output_cells(seed, name, tables, checks))
    moved = differences(golden["cells"], cells)
    assert not moved, "\n".join(
        [f"made on {golden['made_on']}", f"running on {machine()}", *moved]
    )


def test_column_summary_gives_ulp_and_absolute_distances():
    """A cell that moves off 0.0 is about 4.4e18 doubles away whatever its
    size, so each column's line also gives the largest absolute difference;
    verdicts, one-sided keys and non-float cells add no distance."""
    old = {
        "0/exp3/t/0/a": (0.0).hex(),
        "0/exp3/t/1/a": (1.0).hex(),
        "0/exp3/t/0/b": (0.5).hex(),
        "0/exp3/t/0/n": "3",
        "0/exp3/check/c": "pass",
        "0/exp3/t/0/gone": (1.0).hex(),
    }
    new = {
        "0/exp3/t/0/a": (1e-12).hex(),
        "0/exp3/t/1/a": float(np.nextafter(1.0, 2.0)).hex(),
        "0/exp3/t/0/b": (0.5).hex(),
        "0/exp3/t/0/n": "4",
        "0/exp3/check/c": "FAIL",
        "0/exp3/t/0/fresh": (2.0).hex(),
    }
    assert column_summary(old, new) == [
        "0/exp3/t/a\t2 moved\tmax 4427486594234968593 ulp\tmax 1e-12 abs",
        "0/exp3/t/n\t1 moved\tmax - ulp\tmax - abs",
    ]
    moved = differences(old, new)
    assert moved[0] == "0/exp3/t/0/a\t0.0 -> 1e-12\t4427486594234968593 ulp\t1e-12 abs"
    assert moved[1] == "0/exp3/t/1/a\t1.0 -> 1.0000000000000002\t1 ulp\t2.22e-16 abs"
