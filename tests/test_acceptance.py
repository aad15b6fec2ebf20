"""Acceptance gate: the headline claims, each at its stated tolerance.

Each criterion is one test so the verbose run shows one verdict line per
claim.  The four experiment drivers run once each at full scale and are
shared across the tests that read them.
"""

import time

import numpy as np
import pytest

from socicnn import (
    ArchSpec,
    DualBranch,
    build_degenerate_2d,
    build_random,
    canonical,
    degeneracy_report,
    dual,
    dual_value,
    forward,
    forward_values,
    readout,
    sample_optimal_branches,
)
from socicnn.experiments import (
    Exp1Config,
    Exp2Config,
    Exp3Config,
    Exp4Config,
    run_exp1,
    run_exp2,
    run_exp3,
    run_exp4,
)

from conftest import branch_row, midpoint_violation, reference_corners, stack_branches


def timed(runner, cfg):
    start = time.perf_counter()
    out = runner(cfg)
    return out, time.perf_counter() - start


def table_row(out, name):
    for t in out.tables:
        if t.name == name:
            return dict(zip(t.columns, t.rows[0]))
    raise KeyError(name)


def report(label, detail):
    print(f"[PASS] {label}: {detail}")


@pytest.fixture(scope="module")
def exp1():
    return timed(run_exp1, Exp1Config())


@pytest.fixture(scope="module")
def exp2():
    return timed(run_exp2, Exp2Config())


@pytest.fixture(scope="module")
def exp3():
    return timed(run_exp3, Exp3Config())


@pytest.fixture(scope="module")
def exp4():
    return timed(run_exp4, Exp4Config())


def test_criterion_01_exact_first_order_readout(exp1):
    """Dual readout and local-branch gradients coincide to 1e-12 and both
    match the central-difference oracle to 1e-5, inside 5 seconds."""
    out, seconds = exp1
    row = table_row(out, "gradient_check")
    assert row["trials"] == 250
    assert row["grad_l2_err"] <= 1e-12, row
    assert row["cosine_sim"] >= 1 - 1e-12, row
    assert row["fd_dual_l2_err"] <= 1e-5, row
    assert row["fd_local_l2_err"] <= 1e-5, row
    assert seconds < 5.0, f"runtime {seconds:.2f}s"
    report(
        "criterion-1 exact first-order readout",
        f"mean L2 {row['grad_l2_err']:.3e}, cosine {row['cosine_sim']:.17f}, "
        f"fd {row['fd_dual_l2_err']:.3e}, {seconds:.2f}s",
    )


def test_criterion_02_retained_rate(exp1):
    """All 250 Gaussian samples are nondegenerate at the default tolerance."""
    out, _ = exp1
    row = table_row(out, "gradient_check")
    assert row["trials"] == 250
    assert row["retained_rate"] == 1.0, row
    report("criterion-2 retained rate", "250/250 nondegenerate at tau=1e-9")


def test_criterion_03_hessian_formula(exp2):
    """Closed-form Hessians match differentiated analytic gradients to 1e-5
    in mean Frobenius norm and stay PSD, inside 10 seconds."""
    out, seconds = exp2
    row = table_row(out, "derivative_check")
    assert row["points"] == 100
    assert row["hess_fro_err"] <= 1e-5, row
    assert row["min_eig_worst"] >= -1e-10, row
    assert seconds < 10.0, f"runtime {seconds:.2f}s"
    report(
        "criterion-3 hessian formula",
        f"mean Frobenius {row['hess_fro_err']:.3e}, "
        f"worst eigenvalue {row['min_eig_worst']:.3e}, {seconds:.2f}s",
    )


def test_criterion_04_local_quadratic_model(exp2):
    """Branch-local quadratic models: full retention, residuals below the
    per-radius bounds, and cubic growth across a decade of radius."""
    out, seconds = exp2
    rows = {row[0]: row for row in next(t for t in out.tables if t.name == "quadratic_model").rows}
    bounds = {1e-4: 1e-12, 3e-4: 1e-11, 1e-3: 1e-9}
    resid = {}
    for radius, bound in bounds.items():
        _, kept, mean_resid = rows[radius]
        assert kept == 1.0, (radius, kept)
        assert mean_resid <= bound, (radius, mean_resid)
        resid[radius] = mean_resid
    assert resid[1e-4] < resid[3e-4] < resid[1e-3]
    ratio = resid[1e-3] / resid[1e-4]
    assert 1e2 <= ratio <= 1e4, ratio
    assert seconds < 10.0, f"runtime {seconds:.2f}s"
    report(
        "criterion-4 local quadratic model",
        f"residuals {resid[1e-4]:.3e} / {resid[3e-4]:.3e} / {resid[1e-3]:.3e}, "
        f"decade ratio {ratio:.1f}",
    )


def test_criterion_05_degenerate_directional_derivative(exp3):
    """At the built kink, the dual support maximum matches one-sided finite
    differences to 5e-8 mean and the exact primal recursion to 1e-11."""
    out, _ = exp3
    row = table_row(out, "degenerate_geometry")
    assert row["directions"] == 1000
    assert row["fd_mean_err"] <= 5e-8, row
    assert row["fd_max_err"] <= 2e-7, row
    assert row["primal_mean_err"] <= 1e-11, row
    report(
        "criterion-5 degenerate directional derivative",
        f"fd mean {row['fd_mean_err']:.3e}, fd max {row['fd_max_err']:.3e}, "
        f"primal mean {row['primal_mean_err']:.3e}",
    )


def test_criterion_06_dual_validity_at_degeneracy(exp3):
    """Sampled-branch readouts never beat the support maximum, and the
    canonical subgradient keeps a positive support margin at every probe."""
    out, _ = exp3
    row = table_row(out, "degenerate_geometry")
    assert row["branches"] == 5000
    assert row["probes"] == 5000
    assert row["max_violation"] <= 1e-9, row
    assert row["min_support_margin"] >= -1e-10, row
    assert row["min_support_margin"] > 0.0, row
    report(
        "criterion-6 dual validity",
        f"max violation {row['max_violation']:.3e}, "
        f"min support margin {row['min_support_margin']:.3e}",
    )


def test_criterion_07_canonical_gap_fraction(exp3):
    """Every probed direction sees a strict gap between the canonical slope
    and the support maximum at the degenerate anchor."""
    out, _ = exp3
    row = table_row(out, "degenerate_geometry")
    assert row["canonical_gap_frac"] == 1.0, row
    report("criterion-7 canonical gap fraction", "1.000 over 1000 directions")


def test_criterion_08_min_norm_selector(exp3):
    """The canonical branch is strictly shorter than all 5000 sampled
    non-canonical optimal branches."""
    out, _ = exp3
    row = table_row(out, "degenerate_geometry")
    assert row["branches"] == 5000
    assert row["min_norm_gap"] > 0.0, row
    report(
        "criterion-8 min-norm selector",
        f"smallest norm gap {row['min_norm_gap']:.3e} over 5000 samples",
    )


def test_criterion_09_whitebox_inference(exp4):
    """White-box Newton closes the objective gap, needs at most a fifth of
    the gradient-descent iterations, and lands where its value-query twin
    lands, inside 60 seconds."""
    out, seconds = exp4
    methods = next(t for t in out.tables if t.name == "methods")
    cols = methods.columns
    by_method = {row[0]: dict(zip(cols, row)) for row in methods.rows}
    newton_gap = by_method["whitebox-newton"]["gap_to_best"]
    assert newton_gap <= 5e-4, newton_gap
    iter_ratio = by_method["whitebox-newton"]["iters"] / by_method["whitebox-gd"]["iters"]
    assert iter_ratio <= 0.2, iter_ratio
    queries = next(t for t in out.tables if t.name == "queries")
    qcols = queries.columns
    gaps = {}
    for row in queries.rows:
        rec = dict(zip(qcols, row))
        gaps[(rec["method"], rec["query_id"])] = rec["gap"]
    n_queries = len({qid for _, qid in gaps})
    assert n_queries == 30
    for qid in range(n_queries):
        assert abs(gaps[("whitebox-gd", qid)] - gaps[("fd-gd", qid)]) <= 1e-3
        assert abs(gaps[("whitebox-newton", qid)] - gaps[("fd-newton", qid)]) <= 1e-3
    assert seconds < 60.0, f"runtime {seconds:.2f}s"
    report(
        "criterion-9 whitebox inference",
        f"newton mean gap {newton_gap:.3e}, iteration ratio {iter_ratio:.3f}, "
        f"{seconds:.2f}s",
    )


PROPERTY_ARCHES = (
    ArchSpec(4, (8, 6), quad_dims=(3,), cone_dims=(3,)),
    ArchSpec(6, (10,), quad_dims=(2, 2), cone_dims=()),
    ArchSpec(3, (5, 5, 5), quad_dims=(), cone_dims=(2,)),
    ArchSpec(8, (12, 8), quad_dims=(4,), cone_dims=(4, 2)),
    ArchSpec(5, (7, 7), quad_dims=(1,), cone_dims=(1,)),
)


def corner_tip_branches(params, trace, count=64, seed=0):
    """The ReLU corners of the built kink, each crossed with ``count``
    full-length multipliers ``lam * (cos t, sin t)`` at its 2-D cone tip,
    corner-major.  The angles are equispaced from one phase drawn by
    ``default_rng(seed).uniform(0, 2 pi)``."""
    corners = reference_corners(params, trace)
    (tip,) = degeneracy_report(trace).conic_zero_modules
    phase = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi)
    angles = phase + 2.0 * np.pi * np.arange(count) / count
    ring = params.lam[tip] * np.column_stack([np.cos(angles), np.sin(angles)])
    rows = np.repeat(np.arange(corners.relu[0].shape[0]), count)
    cone = [r[rows] for r in corners.cone]
    cone[tip] = np.tile(ring, (rows.size // count, 1))
    return DualBranch(
        tuple(nu[rows] for nu in corners.relu), tuple(p[rows] for p in corners.quad), tuple(cone)
    )


def test_criterion_10_property_suite():
    """Convexity, support inequalities, blockwise mixing, and tightness of
    the canonical minorant, on fresh random models."""
    worst_probe = 0.0
    for seed, arch in enumerate(PROPERTY_ARCHES):
        params = build_random(seed, arch)
        f = lambda X: forward_values(params, X)
        worst_probe = max(
            worst_probe, midpoint_violation(f, arch.input_dim, n_triples=1000, seed=seed)
        )
    assert worst_probe <= 1e-10, worst_probe

    params, x0 = build_degenerate_2d()
    trace0 = forward(params, x0)
    f0 = trace0.value
    emitted = stack_branches(
        [
            sample_optimal_branches(params, trace0, n=64, seed=0),
            corner_tip_branches(params, trace0),
        ]
    )
    n_emitted = emitted.relu[0].shape[0]
    assert n_emitted == 64 + 2 * 64
    dual_value(params, x0, emitted)  # one stacked feasibility check of every row
    probe_rng = np.random.default_rng(10)
    min_margin = np.inf
    for k in range(n_emitted):
        br = branch_row(emitted, k)
        probes = x0 + probe_rng.standard_normal((100, 2))
        for y, value in zip(probes, forward_values(params, probes)):
            margin = value - dual._minorant_values(params, y, br)
            min_margin = min(min_margin, margin)
    assert min_margin >= -1e-10, min_margin

    pair_rng = np.random.default_rng(11)
    i, j = np.array([pair_rng.integers(0, n_emitted, size=2) for _ in range(50)]).T
    mixed = DualBranch(
        relu=tuple(nu[i] for nu in emitted.relu),
        quad=tuple(p[i] for p in emitted.quad),
        cone=tuple(r[j] for r in emitted.cone),
    )
    mix_worst = float(np.max(np.abs(dual_value(params, x0, mixed) - f0) / (1 + abs(f0))))
    assert mix_worst <= 1e-10, mix_worst

    tight_worst = 0.0
    point_rng = np.random.default_rng(12)
    n_pairs = 0
    for model_seed in range(50):
        arch = PROPERTY_ARCHES[model_seed % len(PROPERTY_ARCHES)]
        rand_params = build_random(100 + model_seed, arch)
        for _ in range(20):
            x = point_rng.standard_normal(arch.input_dim)
            tr = forward(rand_params, x)
            psi = dual_value(rand_params, x, canonical(rand_params, tr))
            tight_worst = max(tight_worst, abs(psi - tr.value) / (1 + abs(tr.value)))
            n_pairs += 1
    assert n_pairs == 1000
    assert tight_worst <= 1e-12, tight_worst

    report(
        "criterion-10 property suite",
        f"convexity probe {worst_probe:.3e}, support margin floor {min_margin:.3e}, "
        f"mixing error {mix_worst:.3e}, canonical tightness {tight_worst:.3e}",
    )
