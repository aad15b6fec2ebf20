"""Proximal-objective descent: white-box routes against value-query twins."""

import time
from dataclasses import fields

import numpy as np
import pytest

from socicnn import (
    ArchSpec,
    DegenerateInputError,
    InferenceConfig,
    build_random,
    forward,
    readout_diagnostics,
    solve,
)
from socicnn import curvature, dual, experiments, inference
from socicnn.curvature import curvature_matrix
from socicnn.errors import NonFiniteError, SolveFailureError, ValidationError
from socicnn.inference import GD_MAX_ITERS, METHODS, NEWTON_MAX_ITERS, InferenceReport, with_gap
from socicnn.model import DEFAULT_TAU, forward_values
from socicnn.oracle import fd_gradient, fd_hessian

from socicnn.experiments import Exp2Config, _random_model

from conftest import count_value_rows, gaussian_points, near_kink_unit, quad_only_params
from conftest import planted_kinks, record_line_searches, record_traces, skipped_passes

BETA = 1.0


def proximal_target(y, beta):
    """Minimizer of (1/2)||x||^2 + (beta/2)||x - y||^2 in closed form."""
    return beta * np.asarray(y) / (1.0 + beta)


class TestObjective:
    """The objective as the solvers evaluate it: ``_values`` and ``_readout_grad``
    on a stack of points, with ``beta (x - y)`` added in closed form."""

    def test_value_and_gradient_on_quadratic(self):
        """f = (1/2)||x||^2, beta = 1, y = (2, 0): F(0) = 2 with slope (-2, 0)."""
        params = quad_only_params(alpha=1.0)
        y = np.array([[2.0, 0.0]])
        values, trace = inference._values(params, y, BETA, np.zeros((1, 2)))
        grad = inference._readout_grad(params, DEFAULT_TAU)(trace, [0]) + BETA * (trace.x - y)
        assert values == [pytest.approx(2.0, abs=1e-15)]
        assert np.allclose(grad, [[-2.0, 0.0]], atol=1e-15)

    def test_gradient_at_query_point_is_model_readout(self, medium_model):
        y = gaussian_points(100, 1, medium_model.input_dim)
        grad = inference._readout_grad(medium_model, DEFAULT_TAU)(forward(medium_model, y), [0])
        from socicnn import canonical, readout

        expect = readout(medium_model, canonical(medium_model, forward(medium_model, y[0])))
        assert np.array_equal(grad[0], expect)

    def test_regularizer_centers_at_query(self):
        params = quad_only_params(alpha=1.0)
        y = np.array([[1.0, -1.0]])
        values, _ = inference._values(params, y, 5.0, y)
        assert values == [pytest.approx(forward(params, y[0]).value, rel=1e-15)]

    @pytest.mark.parametrize("y, beta, error, match", [
        ([np.nan, 0.0], 1.0, NonFiniteError, "query contains NaN"),
        ([np.inf, 0.0], 1.0, NonFiniteError, "query contains NaN"),
        ([1.0], 1.0, ValidationError, r"query has shape \(1,\)"),
        ([[[1.0, 0.0]]], 1.0, ValidationError, r"query has shape \(1, 1, 2\)"),
        ([1.0, 0.0], np.nan, ValueError, "beta must be positive"),
        ([1.0, 0.0], np.inf, ValueError, "beta must be positive"),
        ([1.0, 0.0], 0.0, ValueError, "beta must be positive"),
        ([1.0, 0.0], -1.0, ValueError, "beta must be positive"),
    ])
    def test_rejects_bad_query_and_beta(self, y, beta, error, match):
        """A NaN query or ``beta`` would give a NaN value and gradient, an
        infinite ``beta`` an infinite one; ``solve`` and ``InferenceConfig``
        refuse them before any descent."""
        with pytest.raises(error, match=match):
            solve(quad_only_params(alpha=1.0), y, InferenceConfig(beta=beta), "whitebox-gd")


class TestConfigValidation:
    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            InferenceConfig(beta=0.0)
        with pytest.raises(ValueError):
            InferenceConfig(damping=0.0)
        with pytest.raises(ValueError):
            InferenceConfig(shrink=1.0)
        with pytest.raises(ValueError):
            InferenceConfig(armijo=0.0)
        with pytest.raises(ValueError):
            InferenceConfig(max_backtracks=-1)

    @pytest.mark.parametrize("change", [
        {"beta": float("inf")}, {"damping": float("inf")}, {"beta": float("nan")},
        {"max_backtracks": 1.5}, {"max_backtracks": True}, {"max_iters": True},
        {"max_iters": 2.0}, {"fd_grad_step": float("inf")}, {"fd_hess_step": float("inf")},
        {"beta": -float("inf")}, {"damping": float("nan")}, {"fd_grad_step": float("nan")},
        {"fd_hess_step": float("nan")},
    ], ids=lambda change: "-".join(f"{k}={v}" for k, v in change.items()))
    def test_rejects_non_finite_weights_and_non_integer_counts(self, change):
        """An infinite ``beta`` made a solve fail inside NumPy, an infinite
        ``damping`` stopped Newton after one step, a fractional
        ``max_backtracks`` escaped as NumPy's ``TypeError`` and
        ``max_iters=True`` ran one iteration; an infinite FD step failed
        inside ``forward_values``."""
        with pytest.raises(ValueError, match=next(iter(change))):
            InferenceConfig(**change)

    def test_rejects_negative_max_iters(self):
        with pytest.raises(ValueError, match="max_iters"):
            InferenceConfig(max_iters=-1)
        assert InferenceConfig(max_iters=0).max_iters == 0
        assert InferenceConfig(max_iters=None).max_iters is None

    @pytest.mark.parametrize("value", [-1e-6, float("nan")])
    def test_rejects_negative_or_nan_grad_tol(self, value):
        with pytest.raises(ValueError, match="grad_tol"):
            InferenceConfig(grad_tol=value)

    @pytest.mark.parametrize("value", [-1e-6, float("nan")])
    def test_rejects_negative_or_nan_progress_tol(self, value):
        with pytest.raises(ValueError, match="progress_tol"):
            InferenceConfig(progress_tol=value)

    @pytest.mark.parametrize("value", [-1e-6, float("nan"), float("inf")])
    def test_rejects_negative_or_nan_tol(self, value):
        with pytest.raises(ValueError, match="tol must be"):
            InferenceConfig(tol=value)

    def test_zero_tolerances_are_valid(self):
        cfg = InferenceConfig(grad_tol=0.0, progress_tol=0.0, tol=0.0)
        assert cfg.grad_tol == 0.0 and cfg.progress_tol == 0.0 and cfg.tol == 0.0

    def test_defaults_are_usable(self):
        cfg = InferenceConfig()
        assert cfg.beta == 10.0
        assert cfg.max_iters is None


class TestQuadraticToy:
    """All four methods on a problem whose solution is known in closed form."""

    params = quad_only_params(alpha=1.0)
    y = np.array([2.0, 0.0])
    cfg = InferenceConfig(beta=1.0, grad_tol=1e-10)
    target = proximal_target(y, 1.0)

    def test_whitebox_gd_converges(self):
        rep = solve(self.params, self.y, self.cfg, "whitebox-gd")
        assert np.linalg.norm(rep.x - self.target) <= 1e-9
        assert rep.stop_reason == "grad-tol"

    def test_whitebox_newton_one_step(self):
        """Newton solves an exactly quadratic objective in a single damped
        step, then one more confirms the gradient is flat."""
        rep = solve(self.params, self.y, self.cfg, "whitebox-newton")
        assert np.linalg.norm(rep.x - self.target) <= 1e-7
        assert rep.iterations <= 2

    def test_fd_twins_agree_with_whitebox(self):
        wb = solve(self.params, self.y, self.cfg, "whitebox-gd")
        fd = solve(self.params, self.y, self.cfg, "fd-gd")
        assert np.linalg.norm(wb.x - fd.x) <= 1e-5
        n = min(len(wb.trace), len(fd.trace))
        for (v1, _), (v2, _) in zip(wb.trace[:n], fd.trace[:n]):
            assert v1 == pytest.approx(v2, abs=1e-5)

    def test_fd_twins_use_no_analytic_route(self, monkeypatch):
        class Forbidden:
            def __getattr__(self, name):
                raise AssertionError(f"analytic route used: {name}")

            def __call__(self, *args, **kwargs):
                raise AssertionError("analytic route used: curvature_matrix")

        # The one-sided sweep lives in ``dual`` too, so this forbids it as well.
        monkeypatch.setattr(inference, "dual", Forbidden())
        monkeypatch.setattr(inference, "curvature_matrix", Forbidden())
        for method in ("fd-gd", "fd-newton"):
            rep = solve(self.params, self.y, self.cfg, method)
            assert np.linalg.norm(rep.x - self.target) <= 1e-5

    def test_fd_newton_converges(self):
        rep = solve(self.params, self.y, self.cfg, "fd-newton")
        assert np.linalg.norm(rep.x - self.target) <= 1e-5
        assert rep.iterations <= 3

    def test_strong_convexity_error_bound(self):
        """At any grad-tol stop, distance to the optimum is at most the
        gradient norm over the strong-convexity constant."""
        rep = solve(self.params, self.y, InferenceConfig(beta=1.0, grad_tol=1e-6), "whitebox-gd")
        bound = rep.grad_norm / 1.0
        assert np.linalg.norm(rep.x - self.target) <= bound + 1e-12


class TestDescentMechanics:
    def test_zero_iteration_budget_returns_query(self, medium_model):
        y = gaussian_points(101, 1, medium_model.input_dim)[0]
        cfg = InferenceConfig(beta=10.0, max_iters=0)
        rep = solve(medium_model, y, cfg, "whitebox-gd")
        assert np.array_equal(rep.x, y)
        assert rep.iterations == 0
        assert rep.objective == forward(medium_model, y).value
        assert len(rep.trace) == 1

    def test_line_search_failure_reported(self):
        """With zero backtracks allowed and a stiff objective the unit step
        violates Armijo immediately."""
        params = quad_only_params(alpha=500.0)
        cfg = InferenceConfig(beta=1.0, max_backtracks=0)
        rep = solve(params, np.array([2.0, 2.0]), cfg, "whitebox-gd")
        assert rep.stop_reason == "line-search-failure"
        assert rep.iterations == 0

    def test_objective_trace_monotone(self, medium_model):
        y = gaussian_points(102, 1, medium_model.input_dim)[0]
        rep = solve(medium_model, y, InferenceConfig(beta=10.0), "whitebox-gd")
        values = [v for v, _ in rep.trace]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier + 1e-14

    def test_iteration_caps(self):
        """Without an override the two families use their own caps."""
        cfg = InferenceConfig(beta=1.0)
        assert cfg.max_iters is None
        assert GD_MAX_ITERS == 2000 and NEWTON_MAX_ITERS == 200

    def test_max_iters_stop_reason(self, medium_model):
        y = gaussian_points(103, 1, medium_model.input_dim)[0]
        cfg = InferenceConfig(beta=10.0, max_iters=1, grad_tol=1e-14)
        rep = solve(medium_model, y, cfg, "whitebox-gd")
        assert rep.iterations <= 1
        assert rep.stop_reason in ("max-iters", "line-search-failure")

    @pytest.mark.parametrize("beta", [1e300, 1e308, 1.7e308])
    def test_huge_finite_beta_leaks_no_overflow_warning(self, medium_model, beta):
        """A huge finite ``beta`` used to leak NumPy's overflow warning, an
        error under this suite's filter: whitebox-gd's trial values overflow
        (now ``inf``, which fails the Armijo test).  The FD pair used to
        difference ``beta/2 ||x - y||^2`` with the model, which cancelled
        the model away and ended in ``NonFiniteError`` on a tiny model; now
        it differences the model alone, and every method ends finite."""
        Y = gaussian_points(105, 2, medium_model.input_dim)
        for method in METHODS:
            reports = solve(medium_model, Y, InferenceConfig(beta=beta), method)
            objectives = np.array([rep.objective for rep in reports])
            assert np.all(objectives <= forward_values(medium_model, Y)), method
        tiny = build_random(0, ArchSpec(3, (4, 4), (2,), (2,)))
        for method in METHODS:
            rep = solve(tiny, np.array([0.3, -0.2, 0.5]), InferenceConfig(beta=beta), method)
            assert np.isfinite(rep.objective), method


def run_all_methods(params, y, cfg):
    return {method: solve(params, y, cfg, method) for method in METHODS}


@pytest.fixture(scope="module")
def solved(medium_model):
    y = gaussian_points(104, 1, medium_model.input_dim)[0]
    cfg = InferenceConfig(beta=10.0)
    return medium_model, y, cfg, run_all_methods(medium_model, y, cfg)


class TestOnRandomModel:

    def test_all_methods_reach_grad_tol(self, solved):
        _, _, cfg, reports = solved
        for rep in reports.values():
            assert rep.stop_reason == "grad-tol", rep.method
            assert rep.grad_norm <= cfg.grad_tol

    def test_methods_find_the_same_minimizer(self, solved):
        _, _, _, reports = solved
        xs = [rep.x for rep in reports.values()]
        for x in xs[1:]:
            assert np.linalg.norm(x - xs[0]) <= 1e-3

    def test_newton_needs_fewer_iterations(self, solved):
        _, _, _, reports = solved
        assert reports["whitebox-newton"].iterations < reports["whitebox-gd"].iterations

    def test_whitebox_derivatives_cost_less_than_fd(self, solved, monkeypatch):
        """The closed-form gradient and Newton direction evaluate no value
        row, where the value-query twins pay exactly ``2 d`` rows per
        gradient point and ``4 d^2`` per Newton direction: a count, not a
        clock."""
        params, y, cfg, reports = solved
        runs = count_value_rows(monkeypatch)
        counted = run_all_methods(params, y, cfg)
        d = params.input_dim
        for method, run in zip(METHODS, runs, strict=True):
            assert counted[method].iterations == reports[method].iterations
            assert run["grads"] == counted[method].iterations + 1
            assert run["directions"] == (0 if method.endswith("gd") else run["grads"] - 1)
            fd = method.startswith("fd")
            assert run["grad_rows"] == fd * 2 * d * run["grads"], method
            assert run["direction_rows"] == fd * 4 * d * d * run["directions"], method

    def test_gap_annotation(self, solved):
        _, _, _, reports = solved
        best = min(rep.objective for rep in reports.values())
        annotated = with_gap(reports["whitebox-gd"], best)
        assert annotated.gap_to_best == reports["whitebox-gd"].objective - best
        assert annotated.gap_to_best >= 0.0


class TestNewtonDirection:
    """The two Newton directions solve their systems to working precision,
    and an indefinite damped system fails loudly.  The bounds are fixed:
    residual ``1e-12 (1 + ||g||)`` and relative difference ``1e-12``."""

    def test_indefinite_damped_system_raises(self, medium_model, monkeypatch):
        d = medium_model.input_dim

        def indefinite(params, trace, tol):
            return np.tile(-1e3 * np.eye(d), (len(trace.x), 1, 1))

        monkeypatch.setattr(inference, "curvature_matrix", indefinite)
        with pytest.raises(SolveFailureError, match="failed to factor"):
            solve(medium_model, np.ones(d), InferenceConfig(beta=10.0), "whitebox-newton")

    def test_directions_solve_their_systems(self, medium_model):
        """One call on a stacked trace gives the steps at the points ``rows``,
        all of them or some, each checked against its own point's system."""
        config = InferenceConfig(beta=10.0)
        shift = config.beta + config.damping
        X = gaussian_points(107, 4, medium_model.input_dim)
        Y = gaussian_points(108, 4, medium_model.input_dim)
        trace = forward(medium_model, X)
        G = inference._readout_grad(medium_model, config.tol)(trace, np.arange(len(X)))
        G += config.beta * (X - Y)
        for rows in (np.arange(4), np.array([1, 3])):
            P_whitebox = inference._newton_direction(medium_model, config, G[rows], trace, rows)
            P_fd = inference._fd_newton_direction(medium_model, config, G[rows], trace, rows)
            for k, r in enumerate(rows):
                x, g = X[r], G[r]
                bound = 1e-12 * (1 + np.linalg.norm(g))
                C = curvature_matrix(medium_model, forward(medium_model, x), config.tol)
                assert np.linalg.norm((C + shift * np.eye(len(x))) @ P_whitebox[k] + g) <= bound
                H = fd_hessian(_fd_model_grad(medium_model, config), x, config.fd_hess_step)
                H += config.beta * np.eye(len(x))
                assert np.linalg.eigvalsh(H).min() > shift
                want = -np.linalg.solve(H, g)
                assert np.linalg.norm(P_fd[k] - want) <= 1e-12 * np.linalg.norm(want)

    def test_fd_chunks_match_one_row_calls(self, medium_model, monkeypatch):
        """fd-newton takes its points in chunks of at most 4: calls on 1, 4, 5
        and 9 rows of a stacked trace, the 5 a subset out of order, give
        steps bitwise equal to one-row calls, and each direction still makes
        one flat ``(4 d^2, d)`` value query."""
        config = InferenceConfig(beta=10.0)
        d = medium_model.input_dim
        X = gaussian_points(109, 9, d)
        Y = gaussian_points(110, 9, d)
        trace = forward(medium_model, X)
        G = inference._readout_grad(medium_model, config.tol)(trace, np.arange(len(X)))
        G += config.beta * (X - Y)
        alone = [inference._fd_newton_direction(medium_model, config, G[[r]], trace, np.array([r]))
                 for r in range(9)]
        shapes = []

        def recording(params, S):
            shapes.append(S.shape)
            return forward_values(params, S)

        monkeypatch.setattr(inference, "forward_values", recording)
        for rows in (np.array([6]), np.arange(4), np.array([8, 0, 2, 5, 7]), np.arange(9)):
            shapes.clear()
            P = inference._fd_newton_direction(medium_model, config, G[rows], trace, rows)
            assert shapes == [(4 * d * d, d)] * len(rows)
            for k, r in enumerate(rows):
                assert np.array_equal(P[k], alone[r][0]), (rows, r)

    def test_one_curvature_stack_per_round(self, medium_model, monkeypatch):
        """whitebox-newton builds one stacked ``curvature_matrix`` per round
        that has a continuing row, covering exactly that round's directions,
        not one matrix per row: four queries in lockstep need fewer calls
        than directions."""
        stacks, rounds = [], []
        matrix = inference.curvature_matrix

        def counted_matrix(params, trace, tol):
            stacks.append(len(trace.x))
            return matrix(params, trace, tol)

        descent = inference._descent

        def counting_descent(params, Y, config, method, grad_fn, direction_fn, floor):
            def counted_direction(G, trace, rows):
                rounds.append(len(rows))
                return direction_fn(G, trace, rows)

            return descent(params, Y, config, method, grad_fn, counted_direction, floor)

        monkeypatch.setattr(inference, "curvature_matrix", counted_matrix)
        monkeypatch.setattr(inference, "_descent", counting_descent)
        Y = gaussian_points(106, 4, medium_model.input_dim)
        reports = solve(medium_model, Y, InferenceConfig(beta=10.0), "whitebox-newton")
        directions = sum(r.iterations + (r.stop_reason == "line-search-failure") for r in reports)
        assert stacks == rounds
        assert sum(stacks) == directions
        assert len(stacks) < directions


def test_round_wide_products_are_the_per_row_ones_at_exp4():
    """The lockstep rounds take one NumPy call where a per-row loop took one per
    row, and stay bitwise only while those calls are: ``np.vecdot`` rows equal
    ``g @ g`` and ``g @ p``, and the stacked ``np.matvec`` pair equals ``V @
    ((V.T @ g) / w)``, here at exp4's model.  Which bits come out can hang on
    the machine's SIMD path, so a failure here names the assumption that broke."""
    cfg = experiments.Exp4Config()
    params = experiments._random_model(cfg)
    config = cfg.solver
    Y = np.random.default_rng([cfg.seed, 1]).standard_normal((cfg.queries, cfg.input_dim))
    X = Y + gaussian_points(111, cfg.queries, cfg.input_dim, scale=0.1)
    trace, rows = forward(params, X), np.arange(cfg.queries)
    G = inference._readout_grad(params, config.tol)(trace, rows) + config.beta * (X - Y)
    P = inference._newton_direction(params, config, G, trace, rows)
    H = curvature_matrix(params, trace, config.tol) + config.beta * np.eye(cfg.input_dim)
    w, V = np.linalg.eigh(H)
    w = np.maximum(w, config.beta + config.damping)
    for n in (1, 4, 9, cfg.queries):
        at = np.sort(np.random.default_rng(n).permutation(cfg.queries)[:n])
        gg, gp = np.vecdot(G[at], G[at]), np.vecdot(G[at], P[at])
        assert gg.tolist() == [g @ g for g in G[at]], f"np.vecdot(G, G) != g @ g at {n} rows"
        assert gp.tolist() == [g @ p for g, p in zip(G[at], P[at])], (
            f"np.vecdot(G, P) != g @ p at {n} rows"
        )
    for n in (1, 2, 3, 4):
        s = slice(7, 7 + n)
        got = np.matvec(V[s], np.matvec(V[s].mT, G[s]) / w[s])
        want = [v @ ((v.T @ g) / u) for v, g, u in zip(V[s], G[s], w[s])]
        assert np.array_equal(got, want), f"stacked np.matvec pair != V @ ((V.T @ g) / w) at {n}"


class TestTraceReuse:
    # (single-point calls, stacked calls, rows traced, steps certified and
    # skipped) at the query below.
    @pytest.mark.parametrize("method, counts", [
        pytest.param("whitebox-newton", (4, 0, 4, 0), id="whitebox_newton"),
        pytest.param("whitebox-gd", (4, 13, 31, 40), id="whitebox_gd"),
        pytest.param("fd-gd", (5, 14, 73, 0), id="baseline_fd_gd"),
        pytest.param("fd-newton", (4, 0, 4, 0), id="baseline_fd_newton"),
    ])
    def test_one_forward_per_gradient_and_trial_point(
        self, medium_model, monkeypatch, method, counts
    ):
        """Each point the line search tries is traced once, in its value
        query: the gradient and the Newton matrix read the accepted trace
        (the FD twins difference ``forward_values`` instead) and trace
        nothing.  A search traces its predicted run of steps as one stack,
        so a first-order run makes one call per iteration, not one per
        trial, and traces a few rows past its ``1 + iterations +
        backtracks`` trial points."""
        traced, _ = record_traces(monkeypatch)
        blocks, floors = record_line_searches(monkeypatch)
        y = gaussian_points(104, 1, medium_model.input_dim)[0]
        rep = solve(medium_model, y, InferenceConfig(beta=10.0), method)
        assert rep.stop_reason == "grad-tol"
        assert rep.iterations >= 2
        points = np.concatenate(traced)
        assert len(np.unique(points, axis=0)) == len(points)
        # A block's trials run up to the point the next block starts from (or the
        # solution): a block of the same search starts where it did, so all its rows are.
        trials = 1
        for (_, x, _, X), start in zip(blocks, [x[0] for _, x, _, _ in blocks[1:]] + [rep.x]):
            accepted = np.flatnonzero((X == start).all(axis=1))
            trials += accepted[0] + 1 if accepted.size else len(X)
        skips = sum(k for *_, k in floors)
        assert len(points) >= trials
        assert trials + skips == 1 + rep.iterations + rep.backtracks
        single, stacked = sum(len(X) == 1 for X in traced), sum(len(X) > 1 for X in traced)
        assert (single, stacked, len(points), skips) == counts

    def test_line_search_rows_at_exp4(self, monkeypatch):
        """At default exp4 seed 0 the lockstep line searches trace a pinned
        number of rows in a pinned number of value queries, every one a
        stack ``(rows, d)``: whitebox-gd 2,163 rows in 498 calls for its
        6,182 starts and trial points, 4,162 of which its canonical minorant
        rules out untraced, and whitebox-newton 488 rows in 31 for 357, none
        ruled out."""
        cfg = experiments.Exp4Config()
        params = experiments._random_model(cfg)
        ys = np.random.default_rng([cfg.seed, 1]).standard_normal((cfg.queries, cfg.input_dim))
        shapes = []
        _, floors = record_line_searches(monkeypatch)

        def recording(p, X):
            shapes.append(np.shape(X))
            return forward(p, X)

        monkeypatch.setattr(inference, "forward", recording)
        for method, want in (("whitebox-gd", (498, 2163, 6182, 4162)),
                             ("whitebox-newton", (31, 488, 357, 0))):
            shapes.clear()
            floors.clear()
            reports = solve(params, ys, cfg.solver, method)
            assert all(len(shape) == 2 for shape in shapes)
            trials = sum(1 + r.iterations + r.backtracks for r in reports)
            skips = sum(k for *_, k in floors)
            assert (len(shapes), sum(shape[0] for shape in shapes), trials, skips) == want


class TestCertifiedFloor:
    """A white-box line search starts at the first ladder step that its
    canonical minorant does not rule out.  Every step it skips, traced after
    the run, fails the Armijo test, so it takes the plain ladder's decisions.
    A steepest-descent step is ruled out past about ``2 (1 - armijo) / beta``,
    so never at ``beta = 1``, and a Newton step never: its slope is at least
    ``beta`` times its squared length."""

    def run(self, monkeypatch, params, Y, config, method):
        blocks, floors = record_line_searches(monkeypatch)
        solve(params, Y, config, method)
        assert skipped_passes(params, blocks, floors) == []
        return [k for *_, k in floors]

    def test_exp4_skips_only_failing_steps(self, monkeypatch):
        cfg = experiments.Exp4Config()
        ys = np.random.default_rng([cfg.seed, 1]).standard_normal((cfg.queries, cfg.input_dim))
        params = experiments._random_model(cfg)
        assert sum(self.run(monkeypatch, params, ys, cfg.solver, "whitebox-gd")) == 4162

    @pytest.mark.parametrize("method", ["whitebox-gd", "whitebox-newton"])
    @pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
    def test_medium_model(self, medium_model, monkeypatch, beta, method):
        Y = gaussian_points(104, 3, medium_model.input_dim)
        skips = self.run(monkeypatch, medium_model, Y, InferenceConfig(beta=beta), method)
        assert (sum(skips) > 0) == (method == "whitebox-gd" and beta > 1.0)

    @pytest.mark.parametrize("method", ["whitebox-gd", "whitebox-newton"])
    @pytest.mark.parametrize("beta", [1.0, 10.0, 100.0])
    def test_planted_near_kinks(self, monkeypatch, beta, method):
        """From a query where three units sit at ``0 < a <= tol`` and two cone
        residuals at length ``tol / 2``, so the canonical minorant starts below
        the model value."""
        params, x = planted_kinks(shift=0.5 * DEFAULT_TAU)
        trace = forward(params, x)
        near = [trace.a[l][i] for l, i in ((0, 1), (0, 4), (1, 2))]
        assert near + list(trace.u_norms) == pytest.approx([5e-10] * 5, rel=1e-5)
        skips = self.run(monkeypatch, params, x, InferenceConfig(beta=beta), method)
        assert (sum(skips) > 0) == (method == "whitebox-gd" and beta > 1.0)

    def test_gap_keeps_a_passing_step(self, monkeypatch):
        """At ``near_kink_unit`` the first step passes the Armijo test by less
        than the gap: the floor traces it, and the search accepts it."""
        params, y, config = near_kink_unit()
        skips = self.run(monkeypatch, params, y, config, "whitebox-gd")
        assert skips[0] == 0
        # Only ``eta = 1`` lands within 1e-9 of the Armijo bound ``delta - armijo``.
        first_value = solve(params, y, config, "whitebox-gd").trace[1][0]
        assert -config.armijo < first_value <= -config.armijo + 1e-9


class TestGapBound:
    """The bound that ``solve`` hands the white-box floor, ``tol`` times the
    all-above box bounds and the ``lam_g``, bounds the canonical branch's gap
    ``f(x) - l(x)``: 0 on the planted kinks and off every kink, and at most
    the bound just off the planted kinks, to rounding."""

    def bound(self, monkeypatch, params, y):
        _, floors = record_line_searches(monkeypatch)
        solve(params, y, InferenceConfig(max_iters=1), "whitebox-gd")
        nu_bar = dual._box_recursion(params, [True] * params.n_layers)
        assert floors[0][1] == DEFAULT_TAU * (sum(map(np.sum, nu_bar)) + sum(params.lam))
        return floors[0][1]

    def gap(self, params, x):
        trace = forward(params, x)
        minorant = dual._minorant_values(params, x, dual.canonical(params, trace))
        return trace.value - minorant, 1e-12 * (1.0 + abs(trace.value))

    @pytest.mark.parametrize("shift", [0.0, 0.5 * DEFAULT_TAU, 0.99 * DEFAULT_TAU])
    def test_planted_points(self, monkeypatch, shift):
        params, x = planted_kinks(shift=shift)
        bound = self.bound(monkeypatch, params, x)
        gap, rounding = self.gap(params, x)
        assert -rounding <= gap <= bound + rounding
        # The two cone tips alone cost lam_g shift each.
        assert gap >= shift * sum(params.lam) - rounding

    def test_off_kinks(self, medium_model):
        for x in gaussian_points(109, 20, medium_model.input_dim):
            gap, rounding = self.gap(medium_model, x)
            assert abs(gap) <= rounding


# The descent loop as it stood before each accepted point was traced once:
# it traced every accepted point again for its gradient and took gradients
# as ``(g, trace)`` tuples.  Kept as the reference that the shared loop must
# reproduce field for field.  Its solvers follow the same contract as the
# shared loop's: every method gives the model's gradient (and Newton matrix),
# and the proximal term's ``beta (x - y)`` (and ``beta I``) is added in closed
# form, so the FD twins difference model values alone.


def _objective_value(params, y, beta, x):
    diff = x - y
    return forward(params, x).value + 0.5 * beta * float(diff @ diff)


def _descent(params, y, config, method, grad_fn, direction_fn, default_iters):
    """Armijo-backtracked descent shared by all four solvers.

    ``grad_fn`` returns the objective gradient at a point together with the
    model trace it evaluated there (None for the value-only twins);
    ``direction_fn`` maps ``(x, g, trace)`` to a step direction (None for
    steepest descent), so a white-box step reuses the gradient's trace.  Stops
    on gradient norm, on per-step progress, on iteration budget, or on a
    line-search failure, whichever comes first.
    """
    y = np.asarray(y, dtype=np.float64)
    x = y.copy()
    max_iters = config.max_iters if config.max_iters is not None else default_iters
    t0 = time.perf_counter()
    f_val = _objective_value(params, y, config.beta, x)
    g, point_trace = grad_fn(x)
    trace = [(f_val, float(np.linalg.norm(g)))]
    iterations = 0
    total_backtracks = 0
    stop = "max-iters"
    for _ in range(max_iters):
        grad_norm = float(np.linalg.norm(g))
        if grad_norm <= config.grad_tol:
            stop = "grad-tol"
            break
        if direction_fn is None:
            p = -g
            slope = -grad_norm * grad_norm
        else:
            p = direction_fn(x, g, point_trace)
            slope = float(g @ p)
        eta = 1.0
        accepted = False
        for bt in range(config.max_backtracks + 1):
            x_new = x + eta * p
            f_new = _objective_value(params, y, config.beta, x_new)
            if f_new <= f_val + config.armijo * eta * slope:
                accepted = True
                break
            eta *= config.shrink
        total_backtracks += bt
        if not accepted:
            stop = "line-search-failure"
            break
        progress = f_val - f_new
        x = x_new
        f_val = f_new
        g, point_trace = grad_fn(x)
        iterations += 1
        trace.append((f_val, float(np.linalg.norm(g))))
        if progress <= config.progress_tol:
            stop = "progress"
            break
    grad_norm = float(np.linalg.norm(g))
    if stop == "max-iters" and grad_norm <= config.grad_tol:
        stop = "grad-tol"
    return InferenceReport(
        method=method,
        x=x,
        objective=f_val,
        grad_norm=grad_norm,
        iterations=iterations,
        backtracks=total_backtracks,
        time_ms=1000.0 * (time.perf_counter() - t0),
        trace=tuple(trace),
        stop_reason=stop,
    )


def _readout_grad(params, y, config):
    """Canonical-readout gradient of the objective, with the trace behind it."""
    y = np.asarray(y, dtype=np.float64)

    def grad_fn(x):
        trace = forward(params, x)
        g = dual.readout(params, dual.canonical(params, trace, config.tol))
        return g + config.beta * (x - y), trace

    return grad_fn


def _fd_model_grad(params, config):
    """Central-difference gradient field of the model, built from value
    queries alone; takes one point or a stack of points."""

    def grad_fn(x):
        return fd_gradient(lambda Z: forward_values(params, Z), x, config.fd_grad_step)

    return grad_fn


def _fd_grad(params, y, config):
    """The FD twins' objective gradient at one point: the model's central
    difference plus ``beta (x - y)`` in closed form."""
    field = _fd_model_grad(params, config)
    return lambda x: (field(x) + config.beta * (x - y), None)


def reference_whitebox_gd(params, y, config):
    grad_fn = _readout_grad(params, y, config)
    return _descent(params, y, config, "whitebox-gd", grad_fn, None, GD_MAX_ITERS)


def reference_whitebox_newton(params, y, config):
    grad_fn = _readout_grad(params, y, config)

    def direction_fn(x, g, trace):
        H = curvature_matrix(params, trace, config.tol)
        H[np.diag_indices_from(H)] += config.beta + config.damping
        try:
            np.linalg.cholesky(H)
        except np.linalg.LinAlgError as exc:
            raise SolveFailureError(f"damped system failed to factor: {exc}") from exc
        return -np.linalg.solve(H, g)

    return _descent(params, y, config, "whitebox-newton", grad_fn, direction_fn, NEWTON_MAX_ITERS)


def reference_fd_gd(params, y, config):
    return _descent(params, y, config, "fd-gd", _fd_grad(params, y, config), None, GD_MAX_ITERS)


def reference_fd_newton(params, y, config):
    field = _fd_model_grad(params, config)

    def direction_fn(x, g, _):
        H = fd_hessian(field, x, config.fd_hess_step)
        H[np.diag_indices_from(H)] += config.beta
        w, V = np.linalg.eigh(H)
        w = np.maximum(w, config.beta + config.damping)
        return -(V @ ((V.T @ g) / w))

    return _descent(
        params, y, config, "fd-newton", _fd_grad(params, y, config), direction_fn, NEWTON_MAX_ITERS
    )


SOLVER_PAIRS = [
    ("whitebox-gd", reference_whitebox_gd),
    ("whitebox-newton", reference_whitebox_newton),
    ("fd-gd", reference_fd_gd),
    ("fd-newton", reference_fd_newton),
]
# Test ids of the methods: the names of the one-query solver functions that
# ``solve`` replaced, so that every test id stays as it was.
METHOD_IDS = dict(zip(METHODS, ("whitebox_gd", "whitebox_newton", "baseline_fd_gd",
                                "baseline_fd_newton")))


def param_id(value):
    """A method's test id, or a reference function's name."""
    return METHOD_IDS[value] if isinstance(value, str) else value.__name__


EDGE_CONFIGS = {
    "defaults": InferenceConfig(beta=10.0),
    "no-iterations": InferenceConfig(beta=10.0, max_iters=0),
    "one-iteration": InferenceConfig(beta=10.0, max_iters=1, grad_tol=1e-14),
    "no-backtracks": InferenceConfig(beta=10.0, max_backtracks=0),
    "coarse-progress": InferenceConfig(beta=10.0, progress_tol=1e-2),
    "budget-spent-at-tol": InferenceConfig(beta=10.0, max_iters=2),
    "clipped-ladder": InferenceConfig(beta=1.0, max_backtracks=2),
    "shrink-0.3": InferenceConfig(beta=1.0, shrink=0.3),
    "uneven-searches": InferenceConfig(beta=1.0),
}
UNTIMED_FIELDS = [f.name for f in fields(InferenceReport) if f.name != "time_ms"]


class TestReferenceLoop:
    """The shared loop reproduces the reference loop bit for bit, apart from
    the two timing fields, for every solver, query and edge config; every
    other field has the reference's type too, down to the floats in
    ``trace``."""

    @pytest.mark.parametrize("method, reference", SOLVER_PAIRS, ids=param_id)
    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    def test_reports_match_reference(self, medium_model, method, reference, config):
        for y in gaussian_points(106, 3, medium_model.input_dim):
            got = solve(medium_model, y, config, method)
            want = reference(medium_model, y, config)
            assert type(got.iterations) is int and type(got.backtracks) is int
            for name in UNTIMED_FIELDS:
                a, b = getattr(got, name), getattr(want, name)
                if name == "x":
                    assert np.array_equal(a, b) and a.dtype == b.dtype
                else:
                    assert repr(a) == repr(b), name

    @pytest.mark.parametrize("name, reason", [
        ("no-iterations", "max-iters"),
        ("one-iteration", "max-iters"),
        ("no-backtracks", "line-search-failure"),
        ("coarse-progress", "progress"),
        ("budget-spent-at-tol", "grad-tol"),
    ])
    def test_edge_configs_reach_their_stop_reason(self, medium_model, name, reason):
        """Each edge config stops for the reason it is named for on at least
        one solver and query (a capped one with its budget spent), so the
        comparison above covers that branch of the loop."""
        config = EDGE_CONFIGS[name]
        assert any(
            rep.stop_reason == reason
            and (config.max_iters is None or rep.iterations == config.max_iters)
            for rep in (
                solve(medium_model, y, config, method)
                for method, _ in SOLVER_PAIRS
                for y in gaussian_points(106, 3, medium_model.input_dim)
            )
        )

    def test_ladder_configs_reach_their_case(self, medium_model, monkeypatch):
        """A line search traces its steps in blocks as long as the previous
        search's run of trials.  ``clipped-ladder`` has a search fail in a
        block cut short by the end of the ladder; in ``uneven-searches`` a
        search traces steps past the one it accepts, and a later search
        needs a second block."""
        blocks = []
        trial_block = inference._trial_block

        def recording(params, y, beta, x, p, etas):
            blocks.append((len(etas), etas[0] == 1.0))
            return trial_block(params, y, beta, x, p, etas)

        monkeypatch.setattr(inference, "_trial_block", recording)

        def cases(config):
            seen = set()
            for method in METHODS:
                for y in gaussian_points(106, 3, medium_model.input_dim):
                    blocks.clear()
                    rep = solve(medium_model, y, config, method)
                    searches = []
                    for n, first in blocks:
                        if first:
                            searches.append([])
                        searches[-1].append(n)
                    last = searches[-1]
                    if rep.stop_reason == "line-search-failure" and last[-1] < last[0]:
                        seen.add("fails in a clipped block")
                    for search, following in zip(searches, searches[1:]):
                        if sum(search) > following[0]:
                            seen.add("overshoots")
                    if any(len(search) > 1 for search in searches[1:]):
                        seen.add("undershoots")
            return seen

        assert "fails in a clipped block" in cases(EDGE_CONFIGS["clipped-ladder"])
        assert {"overshoots", "undershoots"} <= cases(EDGE_CONFIGS["uneven-searches"])


def assert_same_untimed(got, want):
    """Every field but the two timings agrees: ``x`` by value and dtype, the
    rest by ``repr``, so types and every bit of every float agree too."""
    for name in UNTIMED_FIELDS:
        a, b = getattr(got, name), getattr(want, name)
        if name == "x":
            assert np.array_equal(a, b) and a.dtype == b.dtype
        else:
            assert repr(a) == repr(b), name


class TestLockstepBatch:
    """``solve`` descends a stack of queries in lockstep, and each row is bit
    for bit the report of its query alone, apart from the timings."""

    @pytest.mark.parametrize("method", METHODS, ids=param_id)
    @pytest.mark.parametrize("config", EDGE_CONFIGS.values(), ids=EDGE_CONFIGS.keys())
    def test_rows_match_single_queries(self, medium_model, method, config):
        """Three queries and a repeat of the second in one stack, and the
        first alone as a stack of one."""
        Y = gaussian_points(106, 3, medium_model.input_dim)
        singles = [solve(medium_model, y, config, method) for y in Y]
        assert all(type(rep) is InferenceReport and rep.method == method for rep in singles)
        batch = solve(medium_model, np.vstack([Y, Y[1]]), config, method)
        assert type(batch) is tuple and len(batch) == 4
        for got, want in zip(batch, singles + singles[1:2]):
            assert_same_untimed(got, want)
        (alone,) = solve(medium_model, Y[:1], config, method)
        assert_same_untimed(alone, singles[0])

    def test_rows_that_stop_apart(self, medium_model):
        """Rows stop for different reasons, tens of rounds apart: at
        ``beta = 1`` the FD gradient twin stops one query on progress, one
        on its iteration budget and the rest on the gradient tolerance."""
        config = InferenceConfig(beta=1.0, max_iters=150)
        d = medium_model.input_dim
        Y = np.vstack([gaussian_points(106, 3, d), gaussian_points(107, 3, d, scale=5.0)])
        for method in METHODS:
            singles = [solve(medium_model, y, config, method) for y in Y]
            batch = solve(medium_model, Y, config, method)
            for got, want in zip(batch, singles, strict=True):
                assert_same_untimed(got, want)
            if method == "fd-gd":
                assert {r.stop_reason for r in batch} == {"grad-tol", "progress", "max-iters"}
                iters = [r.iterations for r in batch]
                assert max(iters) >= 10 * min(iters)

    def test_times_split_the_batch_time(self, medium_model):
        """Each row's time is its share of the batch: the times sum to no
        more than the wall time around the call."""
        Y = gaussian_points(106, 3, medium_model.input_dim)
        t0 = time.perf_counter()
        batch = solve(medium_model, Y, InferenceConfig(beta=10.0), "whitebox-newton")
        wall_ms = 1000.0 * (time.perf_counter() - t0)
        assert 0.0 < sum(r.time_ms for r in batch) <= wall_ms
        assert all(r.time_ms > 0.0 for r in batch)

    def test_rejects_bad_shapes_and_unknown_methods(self, small_model):
        d = small_model.input_dim
        for shape in ((), (d + 1,), (0, d), (2, d + 1), (1, 2, d)):
            with pytest.raises(ValidationError):
                solve(small_model, np.zeros(shape), InferenceConfig(), "fd-gd")
        for shape in ((d,), (2, d)):
            with pytest.raises(ValueError, match="unknown method"):
                solve(small_model, np.zeros(shape), InferenceConfig(), "newton")


def reference_readout_field(params, tol):
    """The per-row canonical-readout field before the stacked trace, kept
    verbatim as a reference."""
    return lambda Z: np.array(
        [dual.readout(params, dual.canonical(params, forward(params, z), tol)) for z in Z]
    )


class TestReadoutField:
    def test_matches_per_row_reference_bitwise(self, medium_model, degenerate_model):
        """On Hessian stencils, and on rows at the built ReLU kink and cone
        tip, the stacked field equals the per-row loop bit for bit."""
        from socicnn.oracle import _central_stencil

        params, x0 = degenerate_model
        exp2_model = _random_model(Exp2Config())
        cases = (
            (medium_model, gaussian_points(31, 3, medium_model.input_dim)),
            (exp2_model, gaussian_points(32, 2, exp2_model.input_dim)),
            (params, np.vstack([x0, x0 + gaussian_points(33, 2, 2, scale=1e-3)])),
        )
        for params, points in cases:
            Z = _central_stencil(points, 1e-5).reshape(-1, params.input_dim)
            Z = np.vstack([Z, points])
            for tol in (1e-9, 1e-3):
                got = inference._readout_field(params, tol)(Z)
                want = reference_readout_field(params, tol)(Z)
                assert np.array_equal(got, want)
                assert np.array_equal(np.signbit(got), np.signbit(want))


class TestDiagnostics:
    def test_agreement_at_smooth_point(self, medium_model):
        x = gaussian_points(105, 1, medium_model.input_dim)[0]
        diag = readout_diagnostics(medium_model, x)
        assert diag.grad_err <= 1e-12 * (1 + diag.grad_rel_err)
        assert diag.hess_err <= 1e-5
        assert diag.min_relu_margin > 0
        assert diag.min_conic_residual > 0

    def test_kink_raises(self, degenerate_model):
        params, x0 = degenerate_model
        with pytest.raises(DegenerateInputError):
            readout_diagnostics(params, x0)

    @pytest.mark.parametrize("step", [0.0, float("nan"), float("inf")])
    def test_bad_fd_hess_step_is_named(self, medium_model, step):
        """A NaN step used to be reported as a NaN in the input row."""
        x = gaussian_points(105, 1, medium_model.input_dim)[0]
        with pytest.raises(ValueError, match="step must be positive"):
            readout_diagnostics(medium_model, x, fd_hess_step=step)

    def test_runs_forward_once_plus_the_stencil(self, medium_model, monkeypatch):
        """One trace at the point serves both gradient routes; only the
        ``2 n`` legs of the Hessian stencil add rows, traced as one stack."""
        calls = []

        def counting_forward(params, x):
            calls.append(np.shape(x))
            return forward(params, x)

        monkeypatch.setattr(inference, "forward", counting_forward)
        monkeypatch.setattr(curvature, "forward", counting_forward)
        x = gaussian_points(105, 1, medium_model.input_dim)[0]
        readout_diagnostics(medium_model, x)
        n = medium_model.input_dim
        assert calls == [(1, n), (2 * n, n)]

    def test_stack_rows_match_one_point_calls(self, medium_model):
        """Row ``k`` of a stack, of one 9-row call or of blocks of exp4's
        block size, is bit for bit the one-point call at row ``k``."""
        X = gaussian_points(108, 9, medium_model.input_dim)
        singles = [readout_diagnostics(medium_model, x) for x in X]
        block = experiments._BLOCK
        assert block < len(X)
        stacks = [readout_diagnostics(medium_model, X)]
        stacks += [readout_diagnostics(medium_model, X[s:s + block]) for s in (0, block)]
        for name in (field.name for field in fields(singles[0])):
            want = [getattr(diag, name) for diag in singles]
            assert all(type(v) is float for v in want)
            whole, *blocks = (getattr(diag, name) for diag in stacks)
            assert whole.shape == (len(X),)
            for rows in (whole, np.concatenate(blocks)):
                assert [float(v).hex() for v in rows] == [v.hex() for v in want], name

    def test_a_row_on_a_kink_raises_naming_the_row(self, degenerate_model):
        params, x0 = degenerate_model
        X = np.vstack([x0 + gaussian_points(109, 2, 2, scale=1e-2), x0, x0 + 0.1])
        assert readout_diagnostics(params, X[:2]).grad_err.shape == (2,)
        with pytest.raises(DegenerateInputError, match="at row 2 "):
            readout_diagnostics(params, X)
